"""Every name the benchmark's tracer wraps resolves in xmod2, so removing
or renaming a traced function fails here and not only in a traced run."""

import importlib
import importlib.util
import os

HERE = os.path.dirname(__file__)
TRACER = os.path.join(HERE, os.pardir, "verdictbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("verdictbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_name_resolves():
    missing = []
    for module_name, attribute, _, _, _ in _targets():
        owner = importlib.import_module("xmod2." + module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append("%s.%s" % (module_name, attribute))
    assert missing == []


def test_every_traced_method_is_its_own_class_function():
    """The tracer patches a method on the class it names, and reports as
    unwrapped any original function still held in an xmod2 class.  So every
    traced ``Class.method`` is defined in that class's own ``__dict__``,
    not inherited, and no two targets share one function object."""
    inherited, seen, shared = [], {}, []
    for module_name, attribute, _, _, _ in _targets():
        owner_name, _, method = attribute.rpartition(".")
        if not owner_name:
            continue
        owner = getattr(importlib.import_module("xmod2." + module_name), owner_name)
        fn = vars(owner).get(method)
        if fn is None:
            inherited.append(attribute)
            continue
        if fn in seen:
            shared.append((seen[fn], attribute))
        seen[fn] = attribute
    assert inherited == [] and shared == []


def test_semidirect_key_mul_fills_the_cache_the_tracer_reads():
    """The tracer's key_mul hit counter reads ``alg._mulcache`` by key pair."""
    from xmod2 import fixtures
    from xmod2.maps import Policy
    from xmod2.simplex import build_tower

    lam2 = build_tower(fixtures.square_two_crossed(), Policy(10, 4, 0)).levels[2]
    assert isinstance(lam2._mulcache, dict) and lam2._mulcache
    lam2._mulcache.clear()
    keys = lam2.basis_keys()
    product = lam2.key_mul(keys[0], keys[-1])
    assert list(lam2._mulcache) == [(keys[0], keys[-1])]
    assert lam2._mulcache[keys[0], keys[-1]] is product
