"""``tools/reach`` on one command: the functions ``xmod2 validate`` never
enters are listed, by module, and the ones it enters are not."""

import os
import subprocess
import sys

HERE = os.path.dirname(__file__)
TOOL = os.path.join(HERE, os.pardir, "tools", "reach.py")


def test_reach_lists_what_validate_never_enters():
    out = subprocess.run([sys.executable, TOOL, "validate", "fixtures.json"],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    lines = out.splitlines()
    listed = {line.strip() for line in lines if line.startswith("  ")}
    assert "tcm_homotopy.z_map" in listed
    assert "maps.check_law" not in listed
    assert "tcm_homotopy" in lines and lines[-1].endswith("functions never entered")


_NO_BASIS = "BadShape for an algebra with no finite basis (a free one), never asked for one here"
_REPR = "__repr__ or __str__, read only when an object is printed for debugging"
_UNRAISED = "constructor of an error these runs do not raise"
_IMPORT = "runs at import, before the profile hook is set"

# Every function the default runs never enter, with the reason it stays.
NEVER_ENTERED = {
    "algebra.Element.__repr__": _REPR,
    "algebra.Algebra.basis_keys": _NO_BASIS,
    "algebra.Algebra.generating_positions": _NO_BASIS,
    "algebra.FreeAlgebra.__repr__": _REPR,
    "algebra.SemidirectAlgebra.__repr__": _REPR,
    "crossed.PreCrossedModule.__repr__": _REPR,
    "crossed.TwoCrossedModule.__repr__": _REPR,
    "crossed.TwoCrossedMorphism.__repr__": _REPR,
    "crossed.make_cm_morphism": "a document's crossed map, which fixtures.json does not hold",
    "errors.NotAnIdeal.__init__": _UNRAISED,
    "errors.LawViolation.__str__": _REPR,
    "errors.QDLawViolation.__init__": _UNRAISED,
    "errors.ParseError.__init__": _UNRAISED,
    "errors.UnresolvedReference.__init__": _UNRAISED,
    "errors.ValidationError.__init__": _UNRAISED,
    "maps.BasisTuples.__len__": "read by the benchmark's tracer, which counts law tuples",
    "maps.LinearMap.__repr__": _REPR,
    "rings.Ring.__repr__": _REPR,
    "rings.PrimeField.parse": "a document over a prime field, which fixtures.json does not hold",
    "rings.PrimeField.to_str": "a witness over a prime field; every document of fixtures.json is over Q",
    "simplex._terms": _IMPORT,
    "simplex._terms.<locals>.argument": _IMPORT,
    "specdoc._refuse_surrogates": "a \\u escape of a surrogate, which fixtures.json does not hold",
    "tcm_homotopy._t_law": _IMPORT,
    "tcm_homotopy._t_law.<locals>.argument": _IMPORT,
    "tcm_homotopy.apply_2cm_homotopy": "public API that the groupoid workload calls",
    "tcm_homotopy.z_map": "kept for ROADMAP item 3, the proof of w-change from the faces of Z",
}


def test_every_function_the_default_runs_never_enter_has_a_reason():
    """The default runs of ``tools/reach`` (the CLI commands on
    fixtures.json) enter every function of src/xmod2 but those named in
    NEVER_ENTERED, each with its reason; a new function that only tests
    reach fails here until it is given one."""
    out = subprocess.run([sys.executable, TOOL], capture_output=True, text=True, check=True,
                         timeout=120).stdout
    listed = [line.strip() for line in out.splitlines() if line.startswith("  ")]
    assert sorted(listed) == sorted(NEVER_ENTERED)
    assert out.splitlines()[-1].startswith("%d of " % len(NEVER_ENTERED))
