"""Per-layer tracing installed from the benchmark's own files.

``Tracer.install()`` wraps the public functions of each xmod2 layer.  A
module-level function is rebound in every xmod2 module whose globals refer
to it (modules import with ``from .maps import certify_action``, so patching
``maps`` alone would miss ``simplex.certify_action``); a method is patched on
its class.  Three kinds of wrapper:

* span: records (name, start, end, parent span, verdict id) and the
  function's self time (its time minus that of the timed calls inside it);
* aggregate: self time and calls only, for a hot function (Algebra.multiply)
  whose spans would not fit in memory;
* count: calls only, for the hottest functions (scalar arithmetic, Element
  construction), where timing would cost more than the work.

Spans stay in memory and are written out by ``dump`` when the run ends.
"""

import collections
import functools
import json
import sys
import time

SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"

ALL = ("tower", "groupoid", "validate")

# (module, attribute, layer metric name, kind, workloads that must enter it)
TARGETS = [
    ("rings", "PrimeField.mul", "rings.mul", COUNT, ("tower", "groupoid")),
    ("rings", "PrimeField.add", "rings.add", COUNT, ("tower", "groupoid")),
    ("rings", "Rational.mul", "rings.mul", COUNT, ("groupoid", "validate")),
    ("rings", "Rational.add", "rings.add", COUNT, ("groupoid", "validate")),
    ("algebra", "Element.__init__", "algebra.element_init", COUNT, ALL),
    ("algebra", "Algebra.owns", "algebra.owns", COUNT, ALL),
    ("algebra", "Algebra.multiply", "algebra.multiply", AGGREGATE, ALL),
    ("algebra", "SemidirectAlgebra.key_mul", "algebra.key_mul", COUNT, ALL),
    ("maps", "law_tuples", "maps.law_tuples", COUNT, ALL),
    ("maps", "LinearMap.__call__", "maps.linear_map_call", COUNT, ALL),
    ("maps", "ZeroAction.__call__", "maps.action_call", COUNT, ALL),
    ("maps", "TableAction.__call__", "maps.action_call", COUNT, ("tower", "validate")),
    ("maps", "FunctionAction.__call__", "maps.action_call", COUNT, ALL),
    ("maps", "certify_action", "maps.certify_action", SPAN, ALL),
    ("maps", "certify_multiplicative", "maps.certify_multiplicative", SPAN, ALL),
    ("maps", "certify_algebra", "maps.certify_algebra", SPAN, ALL),
    ("maps", "algebra_morphism", "maps.algebra_morphism", SPAN, ALL),
    ("crossed", "make_two_crossed", "crossed.make_two_crossed", SPAN, ("validate",)),
    ("crossed", "kernel_two_crossed", "crossed.kernel_two_crossed", SPAN, ("validate",)),
    ("crossed", "make_2cm_morphism", "crossed.make_2cm_morphism", SPAN, ("groupoid", "validate")),
    ("simplex", "build_tower", "simplex.build_tower", SPAN, ALL),
    ("simplex", "get_tower", "simplex.get_tower", SPAN, ("groupoid", "validate")),
    ("simplex", "check_simplicial_identities", "simplex.check_simplicial_identities", SPAN,
     ("tower",)),
    ("cm_homotopy", "make_cm_derivation", "cm_homotopy.make_cm_derivation", SPAN,
     ("groupoid", "validate")),
    ("cm_homotopy", "cm_groupoid_check", "cm_homotopy.cm_groupoid_check", SPAN, ("groupoid",)),
    ("tcm_homotopy", "make_quadratic_derivation", "tcm_homotopy.make_quadratic_derivation", SPAN,
     ("groupoid", "validate")),
    ("tcm_homotopy", "apply_2cm_homotopy", "tcm_homotopy.apply_2cm_homotopy", SPAN, ("groupoid",)),
    ("tcm_homotopy", "concat_2cm", "tcm_homotopy.concat_2cm", SPAN, ("groupoid",)),
    ("tcm_homotopy", "invert_2cm", "tcm_homotopy.invert_2cm", SPAN, ("groupoid",)),
    ("tcm_homotopy", "check_w_change", "tcm_homotopy.check_w_change", SPAN, ("groupoid",)),
    ("tcm_homotopy", "extend_derivation", "tcm_homotopy.extend_derivation", SPAN, ("groupoid",)),
    ("tcm_homotopy", "box_plus_s", "tcm_homotopy.box_plus_s", SPAN, ("groupoid",)),
    ("tcm_homotopy", "x_map", "tcm_homotopy.x_map", SPAN, ("groupoid",)),
    ("tcm_homotopy", "w_map", "tcm_homotopy.w_map", SPAN, ("groupoid",)),
    ("tcm_homotopy", "tcm_groupoid_check", "tcm_homotopy.tcm_groupoid_check", SPAN, ("groupoid",)),
    ("specdoc", "load_spec", "specdoc.load_spec", SPAN, ("validate",)),
    ("cli", "main", "cli.main", SPAN, ("validate",)),
    ("report", "canonical_json", "report.canonical_json", SPAN, ("validate",)),
    ("randgen", "random_two_crossed", "randgen", SPAN, ("tower",)),
    ("randgen", "random_precrossed", "randgen", SPAN, ("tower",)),
    ("randgen", "random_finite_algebra", "randgen", SPAN, ("tower", "groupoid")),
    ("randgen", "random_action", "randgen", SPAN, ("tower",)),
    ("randgen", "random_free_two_crossed", "randgen", SPAN, ("groupoid",)),
    ("randgen", "random_2cm_morphism", "randgen", SPAN, ("groupoid",)),
    ("randgen", "random_quadratic_derivation", "randgen", SPAN, ("groupoid",)),
    ("randgen", "random_cm_morphism", "randgen", SPAN, ("groupoid",)),
    ("randgen", "random_cm_derivation", "randgen", SPAN, ("groupoid",)),
]

TCM_SPANS = frozenset(metric for module, _, metric, kind, _ in TARGETS
                      if module == "tcm_homotopy")


class Tracer:
    def __init__(self):
        self.cells = {}     # call counters: "module.attribute" -> [calls]
        self.self_s = collections.defaultdict(float)
        self.spans = []     # [name, start, end, parent index, verdict id]
        self.stack = []     # open timed frames: [child time, span index]
        self.verdict = -1   # -1 during set-up
        self.law_tuples = [0, 0]          # tuples produced, exhaustive calls
        self.key_mul_hits = [0]
        self.builds_per_structure = {}    # id -> [structure, builds]
        self.get_tower_hits = [0]
        self._originals = []

    # -- wrappers ------------------------------------------------------------

    def calls(self, target):
        return self.cells.setdefault(target, [0])[0]

    def metric_calls(self):
        out = collections.Counter()
        for module, attribute, name, _, _ in TARGETS:
            out[name] += self.calls("%s.%s" % (module, attribute))
        return out

    def _timed(self, cell, name, fn, keep_span):
        stack, spans, self_s = self.stack, self.spans, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            cell[0] += 1
            parent = stack[-1][1] if stack else -1
            if keep_span:
                index = len(spans)
                span = [name, 0.0, 0.0, parent, self.verdict]
                spans.append(span)
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    span[1] = start
                    span[2] = end

        return functools.wraps(fn)(wrapper)

    def _counted(self, cell, fn):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _special(self, attribute, fn):
        """Extra bookkeeping for the ratio metrics, wrapped around fn."""
        if attribute == "law_tuples":
            acc = self.law_tuples

            def law_tuples(*args, **kwargs):
                tuples, exhaustive = fn(*args, **kwargs)
                acc[0] += len(tuples)
                acc[1] += bool(exhaustive)
                return tuples, exhaustive

            return functools.wraps(fn)(law_tuples)
        if attribute == "SemidirectAlgebra.key_mul":
            hits = self.key_mul_hits

            def key_mul(alg, k1, k2):
                if (k1, k2) in alg._mulcache:
                    hits[0] += 1
                return fn(alg, k1, k2)

            return functools.wraps(fn)(key_mul)
        if attribute == "build_tower":
            per = self.builds_per_structure

            def build_tower(A, *args, **kwargs):
                per.setdefault(id(A), [A, 0])[1] += 1
                return fn(A, *args, **kwargs)

            return functools.wraps(fn)(build_tower)
        if attribute == "get_tower":
            hits, builds = self.get_tower_hits, self.cells.setdefault("simplex.build_tower", [0])

            def get_tower(*args, **kwargs):
                before = builds[0]
                tower = fn(*args, **kwargs)
                hits[0] += builds[0] == before
                return tower

            return functools.wraps(fn)(get_tower)
        return fn

    def install(self):
        """Wrap every target and rebind every xmod2 reference to it."""
        package = [m for n, m in sys.modules.items() if n == "xmod2" or n.startswith("xmod2.")]
        for module_name, attribute, name, kind, _ in TARGETS:
            module = sys.modules["xmod2." + module_name]
            target = "%s.%s" % (module_name, attribute)
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, method)
            wrapped = self._special(attribute, original)
            cell = self.cells.setdefault(target, [0])
            if kind == COUNT:
                wrapped = self._counted(cell, wrapped)
            else:
                wrapped = self._timed(cell, name, wrapped, kind == SPAN)
            if owner_name:
                setattr(owner, method, wrapped)
            else:
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
            self._originals.append((target, original))

    def unwrapped_references(self):
        """Targets that some xmod2 module or class still reaches unwrapped."""
        originals = {id(fn): target for target, fn in self._originals}
        missed = set()
        for name, mod in list(sys.modules.items()):
            if not (name == "xmod2" or name.startswith("xmod2.")):
                continue
            for value in vars(mod).values():
                if id(value) in originals:
                    missed.add(originals[id(value)])
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr in vars(value).values():
                        if id(attr) in originals:
                            missed.add(originals[id(attr)])
        return sorted(missed)

    def not_entered(self, workload):
        """Targets this workload must enter at least once but did not."""
        return sorted(
            "%s.%s" % (module, attribute)
            for module, attribute, _, _, workloads in TARGETS
            if workload in workloads and not self.calls("%s.%s" % (module, attribute))
        )

    # -- results -------------------------------------------------------------

    def snapshot(self):
        """Counters at the start of the timed pass."""
        return {
            "metric_calls": self.metric_calls(),
            "self_s": dict(self.self_s),
            "law_tuples": list(self.law_tuples),
            "key_mul_hits": self.key_mul_hits[0],
            "get_tower_hits": self.get_tower_hits[0],
            "spans": len(self.spans),
        }

    def layer_metrics(self, start, pass_s):
        """Per-layer figures for the timed pass (randgen.self_s: whole run)."""
        calls = self.metric_calls()
        calls.subtract(start["metric_calls"])
        self_s = collections.defaultdict(float, self.self_s)
        for name, seconds in start["self_s"].items():
            self_s[name] -= seconds
        tuples = self.law_tuples[0] - start["law_tuples"][0]
        exhaustive = self.law_tuples[1] - start["law_tuples"][1]
        key_mul_hits = self.key_mul_hits[0] - start["key_mul_hits"]
        get_tower_hits = self.get_tower_hits[0] - start["get_tower_hits"]

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for name in ("rings.mul", "rings.add", "algebra.element_init", "algebra.owns",
                     "algebra.multiply", "maps.law_tuples", "maps.certify_action",
                     "maps.certify_multiplicative", "maps.algebra_morphism",
                     "maps.linear_map_call", "maps.action_call", "crossed.make_two_crossed",
                     "crossed.make_2cm_morphism", "simplex.build_tower", "simplex.get_tower",
                     "cm_homotopy.make_cm_derivation", "tcm_homotopy.make_quadratic_derivation",
                     "tcm_homotopy.extend_derivation", "specdoc.load_spec"):
            out[name + ".calls"] = ("count", calls[name])
        for name in ("algebra.multiply", "maps.certify_action", "maps.certify_multiplicative",
                     "maps.certify_algebra", "crossed.make_two_crossed",
                     "crossed.kernel_two_crossed", "crossed.make_2cm_morphism",
                     "simplex.build_tower", "simplex.check_simplicial_identities",
                     "cm_homotopy.make_cm_derivation", "cm_homotopy.cm_groupoid_check",
                     "tcm_homotopy.make_quadratic_derivation", "tcm_homotopy.apply_2cm_homotopy",
                     "tcm_homotopy.concat_2cm", "tcm_homotopy.invert_2cm",
                     "tcm_homotopy.check_w_change", "specdoc.load_spec", "cli.main",
                     "report.canonical_json"):
            out[name + ".self_s"] = ("s", self_s[name])
        out["randgen.self_s"] = ("s", self.self_s["randgen"])
        out["algebra.key_mul_hit_ratio"] = ("ratio", ratio(key_mul_hits, calls["algebra.key_mul"]))
        out["maps.law_tuples.tuples"] = ("count", tuples)
        out["maps.law_tuples.exhaustive_share"] = ("ratio", ratio(exhaustive, calls["maps.law_tuples"]))
        out["simplex.get_tower.hit_ratio"] = ("ratio", ratio(get_tower_hits, calls["simplex.get_tower"]))
        out["simplex.build_tower.max_per_structure"] = (
            "count", max((n for _, n in self.builds_per_structure.values()), default=0))

        # Inclusive time of the outermost spans of a group, as a share of the pass.
        build_s = tcm_s = 0.0
        in_tcm = []
        for i, (name, begin, end, parent, verdict) in enumerate(self.spans):
            is_tcm = name in TCM_SPANS
            outer_tcm = is_tcm and not (parent >= 0 and in_tcm[parent])
            in_tcm.append(is_tcm or (parent >= 0 and in_tcm[parent]))
            if i < start["spans"] or verdict < 0:
                continue
            if name == "simplex.build_tower":
                build_s += end - begin
            if outer_tcm:
                tcm_s += end - begin
        out["simplex.build_tower.incl_share"] = ("ratio", ratio(build_s, pass_s))
        out["tcm_homotopy.incl_share"] = ("ratio", ratio(tcm_s, pass_s))
        return out

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "verdict"],
                "names": names,
                "spans": [[index[n], round(b, 7), round(e, 7), p, v]
                          for n, b, e, p, v in self.spans],
            }, fh, separators=(",", ":"))
