"""The three workloads: their inputs, how one verdict is reached, and how
it is judged against the known answers in ``oracle``.

Every input is generated from the workload seed before timing starts.  The
code under test is called through module attributes (``simplex.build_tower``
and so on) so that the traced run's wrappers see every call.

A workload is a list of ``Item``s.  ``decide()`` is the timed call into the
public entry point; ``judge(outcome)`` runs untimed and returns
``(status, digest)`` where status is "ok" (the documented answer),
"defect" (a listed known defect) or "wrong", and digest is a string that a
traced and an untraced run of one seed must reproduce exactly.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import time

from xmod2 import cli, crossed, fixtures, maps, randgen, rings, simplex
from xmod2 import cm_homotopy, tcm_homotopy
from xmod2.algebra import make_finite_algebra
from xmod2.errors import FreeBasisRequired

import oracle

F5 = rings.PrimeField(5)
# The check policy of every workload: ROADMAP aim 1's `--samples 10`, with a
# fixed policy seed.  The workload seed varies the inputs only; a varying
# policy seed would redraw the sampled law tuples of every check in a run
# at once and swing its cost from seed to seed.
SAMPLES = 10
MAX_DEGREE = 4
POLICY_SEED = 0

# Nominal length of one round of each workload's mix on the reference
# machine; a run of --seconds S makes max(1, round(S / ROUND_SECONDS)) rounds,
# so the verdict count depends only on S and the time measured tracks S.
ROUND_SECONDS = {"tower": 7.0, "groupoid": 1.5, "validate": 0.8}

# tower: random F5 kernel 2-crossed modules per round, by (dim R, dim E,
# dim L), in roughly the proportions randgen.random_two_crossed draws them.
# Fixing the shape mix keeps the work per run steady across seeds.
TOWER_SHAPES = {
    (1, 2, 1): 10, (1, 2, 2): 3, (1, 1, 1): 2, (2, 1, 0): 1,
    (1, 1, 0): 1, (2, 1, 1): 1, (2, 2, 1): 1, (2, 2, 2): 1,
}
# Broken-face towers per round; L != 0 in every one of these shapes.
BROKEN_SHAPES = {(1, 2, 1): 1, (1, 1, 1): 1}
# groupoid: free domains R = F5[x]+ per round by (dim R, dim E, dim L); R is
# free, so its dim is None.  Together with 4 F3 -> F2 triples, one (F1, F1)
# triple, the worked instance and two guardrails, this puts the median
# verdict inside the group of 2-crossed triples rather than between groups.
FREE_SHAPES = {(None, 1, 1): 2, (None, 2, 2): 2}
# Truncated-polynomial rungs, once per run: E = L of dimension n, so
# dim Lam3 = 1 + 6n = 13, 19, 25, 31.
RUNGS = (2, 3, 4, 5)


class Item:
    __slots__ = ("kind", "decide", "judge")

    def __init__(self, kind, decide, judge):
        self.kind = kind
        self.decide = decide
        self.judge = judge


def policy():
    return maps.Policy(samples=SAMPLES, max_degree=MAX_DEGREE, seed=POLICY_SEED)


def rounds(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def build(workload, seed, seconds, workdir):
    """The inputs of one run, in the order they are decided."""
    make = {"tower": tower_items, "groupoid": groupoid_items, "validate": validate_items}
    return make[workload](seed, rounds(workload, seconds), workdir)


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def _coeffs(u):
    return {k: c for k, c in u.coeffs.items()}


# ---------------------------------------------------------------------------
# tower: build_tower + check_simplicial_identities, as `xmod2 simplicial`


def truncated_kernel(n, ring, pol):
    """The kernel 2-crossed module of E -> R with E = <u0..u(n-1);
    ui uj = u(i+j+1)>, R = <r> with r^2 = 0, d = 0: L = E."""
    labels = ["u%d" % i for i in range(n)]
    table = {}
    for i in range(n):
        for j in range(n):
            if i + j + 1 < n:
                table[(labels[i], labels[j])] = {labels[i + j + 1]: 1}
    E = make_finite_algebra(labels, table, ring)
    R = make_finite_algebra(["r"], {}, ring)
    d = maps.algebra_morphism(E, R, images={k: R.zero() for k in labels}, policy=pol)
    P = crossed.make_precrossed(E, R, d, maps.zero_action(R, E), pol)
    return crossed.kernel_two_crossed(P, pol)


def _shape(A):
    return (A.R.dim(), A.E.dim(), A.L.dim())


def _draw_shapes(draw, rng, quota, pol, limit=20000):
    """Seeded random 2-crossed modules from randgen's ``draw``, kept until
    every (dim R, dim E, dim L) quota is met."""
    need = dict(quota)
    out = []
    for _ in range(limit):
        if not any(need.values()):
            return out
        A = draw(F5, rng, max_dim=2, policy=pol)
        shape = _shape(A)
        if need.get(shape):
            need[shape] -= 1
            out.append(A)
    raise RuntimeError("shape quota not met after %d draws: %r" % (limit, need))


def _broken_d2(T, A):
    """Face d2 at level 2 without its d2(l) term: (r, e, e', l) -> (r + d1 e, e')."""
    lam1, lam2 = T.levels[1], T.levels[2]

    def fn(u):
        r, e, e2, _ = T.split2(u)
        return lam1.pair(r + A.d1(e), e2)

    return maps.LinearMap(lam2, lam1, "function", fn=fn, note="broken d2@2")


def _tower_item(kind, A, pol, broken=False):
    def decide():
        t0 = time.perf_counter()
        T = simplex.build_tower(A, pol)
        build_s = time.perf_counter() - t0
        checked = simplex.with_face(T, 2, 2, _broken_d2(T, A)) if broken else T
        return T, simplex.check_simplicial_identities(checked, pol), build_s

    def judge(outcome):
        T, entries, _ = outcome
        names = [name for name, _, _ in entries]
        failing = frozenset(name for name, ok, _ in entries if not ok)
        certs = [act.certificate.to_json() for act in T.actions.values()]
        certs += [f.multiplicative.to_json() for f in T.faces.values()]
        certs += [f.multiplicative.to_json() for f in T.degeneracies.values()]
        good = (
            len(names) == len(oracle.SIMPLICIAL_IDENTITIES)
            and frozenset(names) == oracle.SIMPLICIAL_IDENTITIES
            and failing == (oracle.BROKEN_D2_FAILS if broken else frozenset())
            and len(T.actions) == 10
            and all(oracle.exhaustive(c) for c in certs)
        )
        return ("ok" if good else "wrong"), _digest(sorted(entries, key=str), certs)

    return Item(kind, decide, judge)


def tower_items(seed, n_rounds, workdir):
    pol = policy()
    rng = random.Random(seed)
    items = []
    draw = randgen.random_two_crossed
    for _ in range(n_rounds):
        for A in _draw_shapes(draw, rng, TOWER_SHAPES, pol):
            items.append(_tower_item("random", A, pol))
        for A in _draw_shapes(draw, rng, BROKEN_SHAPES, pol):
            items.append(_tower_item("broken", A, pol, broken=True))
    for n in RUNGS:
        items.append(_tower_item("rung%d" % (1 + 6 * n), truncated_kernel(n, F5, pol), pol))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# groupoid: one composable triple per verdict, plus the worked instance and
# the free-basis guardrails


def _square_kernel(c, v, ring, pol):
    """Kernel 2-crossed module of E = <a, b; a^2 = b> -> R = <p; p^2 = 0>,
    d(a) = c p, p > a = v b (randgen's square family, fixed parameters)."""
    R = make_finite_algebra(["p"], {}, ring)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, ring)
    act = maps.make_action(R, E, {"p": {"a": E.element({"b": v})}}, pol)
    d = maps.algebra_morphism(E, R, images={"a": R.element({"p": c}), "b": R.zero()}, policy=pol)
    return crossed.kernel_two_crossed(crossed.make_precrossed(E, R, d, act, pol), pol)


def _triple_item(kind, check, A, B, seed, pol, laws):
    """check: the groupoid suite, by module and name, looked up per call."""
    module, name = check

    def decide():
        return getattr(module, name)(A, B, samples=1, seed=seed, policy=pol)

    def judge(entries):
        names = frozenset(name for name, _, _ in entries)
        good = len(entries) == len(laws) and names == laws and all(ok for _, ok, _ in entries)
        return ("ok" if good else "wrong"), _digest(entries)

    return Item(kind, decide, judge)


def _worked_values(pol):
    F3 = fixtures.free_line_two_crossed(rings.QQ)
    F2 = fixtures.square_two_crossed(rings.QQ)
    a, p = F2.E.basis_element("a"), F2.R.basis_element("p")
    f = crossed.make_2cm_morphism(
        F3, F2,
        f0=maps.algebra_morphism(F3.R, F2.R, images={"x": p}, policy=pol),
        f1=maps.algebra_morphism(F3.E, F2.E, images={}, policy=pol),
        f2=maps.algebra_morphism(F3.L, F2.L, images={}, policy=pol),
    )
    hs = []
    base = f
    for _ in range(3):
        qd = tcm_homotopy.make_quadratic_derivation(base, {"x": a}, {}, pol)
        hs.append(tcm_homotopy.apply_2cm_homotopy(qd, pol))
        base = hs[-1].target
    h1, h2, h3 = hs
    x, x2 = F3.R.monomial("x"), F3.R.monomial("x", "x")
    T = simplex.get_tower(F2, pol)
    ok, lhs, _ = tcm_homotopy.check_w_change(h1, h2, h3, x2, pol)
    return {
        "s(x^2)": _coeffs(h1.s(x2)),
        "X(x^2)": tuple(_coeffs(c) for c in T.split2(tcm_homotopy.x_map(h1, h2, x2, pol))),
        "w(x^2)": _coeffs(tcm_homotopy.w_map(h1, h2, x2, pol)),
        "(s[+]s')(x^2)": _coeffs(tcm_homotopy.box_plus_s(h1, h2, pol)(x2)),
        "sbar(x)": _coeffs(tcm_homotopy.invert_2cm(h1, pol).s(x)),
        "w-change(x^2)": _coeffs(lhs) if ok else None,
    }


def _worked_item(pol):
    def judge(values):
        return ("ok" if values == oracle.WORKED else "wrong"), _digest(sorted(values.items()))

    return Item("worked", lambda: _worked_values(pol), judge)


def _guardrail_item(op, pol):
    def decide():
        F2 = fixtures.square_two_crossed(rings.QQ)
        ident = crossed.identity_2cm_morphism(F2)
        h = tcm_homotopy.apply_2cm_homotopy(
            tcm_homotopy.make_quadratic_derivation(ident, {}, {}, pol), pol
        )
        try:
            if op == "concat":
                tcm_homotopy.concat_2cm(h, h, pol)
            else:
                tcm_homotopy.invert_2cm(h, pol)
        except FreeBasisRequired as exc:
            return type(exc).__name__
        return None

    def judge(raised):
        return ("ok" if raised == oracle.GUARDRAIL_ERROR else "wrong"), _digest(raised)

    return Item("guardrail-" + op, decide, judge)


def groupoid_items(seed, n_rounds, workdir):
    pol = policy()
    rng = random.Random(seed)
    F1 = fixtures.ideal_crossed(rings.QQ)
    F2 = fixtures.square_two_crossed(rings.QQ)
    F3 = fixtures.free_line_two_crossed(rings.QQ)
    targets = [_square_kernel(1, 2, F5, pol), _square_kernel(3, 1, F5, pol),
               truncated_kernel(2, F5, pol)]
    tcm = (tcm_homotopy, "tcm_groupoid_check")
    cm = (cm_homotopy, "cm_groupoid_check")
    items = []
    triple_seed = itertools.count(seed * 100003)
    free = 0
    for _ in range(n_rounds):
        for _ in range(4):
            items.append(_triple_item("F3->F2", tcm, F3, F2, next(triple_seed), pol,
                                      oracle.TCM_TRIPLE_LAWS))
        for D in _draw_shapes(randgen.random_free_two_crossed, rng, FREE_SHAPES, pol):
            items.append(_triple_item("free->F5", tcm, D, targets[free % len(targets)],
                                      next(triple_seed), pol, oracle.TCM_TRIPLE_LAWS))
            free += 1
        items.append(_triple_item("F1->F1", cm, F1, F1, next(triple_seed), pol,
                                  oracle.CM_TRIPLE_LAWS))
        items.append(_worked_item(pol))
        items.append(_guardrail_item("concat", pol))
        items.append(_guardrail_item("invert", pol))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# validate: in-process `xmod2 validate DOC --json OUT` on generated documents


def _zero(acting, acted):
    return {"acting": acting, "acted": acted, "zero": True}


def _fixture_doc(ring):
    """The F0-F3 document of the package's fixtures, over the given ring."""
    fin = lambda basis, products=None: {"type": "finite", "basis": basis, "products": products or {}}
    return {
        "ring": ring,
        "algebras": {
            "R0": fin(["r0"]), "E0": fin(["e0"]), "L0": fin(["l0"]),
            "R1": fin(["x", "x2"], {"x": {"x": {"x2": "1"}}}),
            "R2": fin(["p"]), "E2": fin(["a", "b"], {"a": {"a": {"b": "1"}}}),
            "L2": fin([oracle.BH]),
            "R3": {"type": "free", "generators": ["x"]},
            "Z3": fin([]),
            "Lambda1": {"type": "semidirect", "acting": "R2", "acted": "E2", "action": "zero_R2_E2"},
        },
        "actions": {
            "zero_R0_E0": _zero("R0", "E0"), "zero_R0_L0": _zero("R0", "L0"),
            "zero_R2_E2": _zero("R2", "E2"), "zero_R2_L2": _zero("R2", "L2"),
            "zero_R3_Z3": _zero("R3", "Z3"),
        },
        "precrossed": {"P2": {"E": "E2", "R": "R2", "map": {"a": {"p": "1"}}, "action": "zero_R2_E2"}},
        "crossed": {"F1": {"ideal": {"R": "R1", "labels": ["x2"]}}},
        "two_crossed": {
            "F0": {"L": "L0", "E": "E0", "R": "R0", "d2": {}, "d1": {},
                   "action_e": "zero_R0_E0", "action_l": "zero_R0_L0", "lifting": {}},
            "F2": {"L": "L2", "E": "E2", "R": "R2", "d2": {oracle.BH: {"b": "1"}},
                   "d1": {"a": {"p": "1"}}, "action_e": "zero_R2_E2", "action_l": "zero_R2_L2",
                   "lifting": {"a": {"a": {oracle.BH: "1"}}}},
            "F3": {"L": "Z3", "E": "Z3", "R": "R3", "d2": {}, "d1": {},
                   "action_e": "zero_R3_Z3", "action_l": "zero_R3_Z3", "lifting": {},
                   "free_basis": ["x"]},
            "K2": {"kernel_of": "P2"},
        },
        "maps": {
            "id1": {"kind": "crossed", "source": "F1", "target": "F1", "identity": True},
            "f32": {"kind": "two_crossed", "source": "F3", "target": "F2",
                    "f0": {"x": {"p": "1"}}, "f1": {}, "f2": {}},
            "g32": {"kind": "two_crossed", "source": "F3", "target": "F2",
                    "f0": {"x": {"p": "2"}}, "f1": {}, "f2": {}},
            "k32": {"kind": "two_crossed", "source": "F3", "target": "F2",
                    "f0": {"x": {"p": "3"}}, "f1": {}, "f2": {}},
        },
        "derivations": {"d1": {"base": "id1", "s": {"x": {"x2": "1"}}}},
        "quadratic_derivations": {
            "h1": {"base": "f32", "s": {"x": {"a": "1"}}},
            "h2": {"base": "g32", "s": {"x": {"a": "1"}}},
            "h3": {"base": "k32", "s": {"x": {"a": "1"}}},
        },
    }


def _square_kernel_doc(ring, c, v, with_qd, m, k):
    doc = {
        "ring": ring,
        "algebras": {
            "R": {"type": "finite", "basis": ["p"], "products": {}},
            "E": {"type": "finite", "basis": ["a", "b"], "products": {"a": {"a": {"b": "1"}}}},
        },
        "actions": {"act": {"acting": "R", "acted": "E", "table": {"p": {"a": {"b": str(v)}}}}},
        "precrossed": {"P": {"E": "E", "R": "R", "map": {"a": {"p": str(c)}}, "action": "act"}},
        "two_crossed": {"K": {"kernel_of": "P"}},
    }
    if with_qd:
        doc["algebras"]["X"] = {"type": "free", "generators": ["x"]}
        doc["algebras"]["Z"] = {"type": "finite", "basis": [], "products": {}}
        doc["actions"]["zero_X_Z"] = _zero("X", "Z")
        doc["two_crossed"]["D"] = {
            "L": "Z", "E": "Z", "R": "X", "d2": {}, "d1": {},
            "action_e": "zero_X_Z", "action_l": "zero_X_Z", "lifting": {}, "free_basis": ["x"],
        }
        doc["maps"] = {"f": {"kind": "two_crossed", "source": "D", "target": "K",
                             "f0": {"x": {"p": str(m)}}, "f1": {}, "f2": {}}}
        doc["quadratic_derivations"] = {"q": {"base": "f", "s": {"x": {"a": str(k)}}}}
    return doc


def _truncated_kernel_doc(ring, n):
    labels = ["u%d" % i for i in range(n)]
    products = {}
    for i in range(n):
        for j in range(n):
            if i + j + 1 < n:
                products.setdefault(labels[i], {})[labels[j]] = {labels[i + j + 1]: "1"}
    return {
        "ring": ring,
        "algebras": {
            "R": {"type": "finite", "basis": ["r"], "products": {}},
            "E": {"type": "finite", "basis": labels, "products": products},
        },
        "actions": {"zero": _zero("R", "E")},
        "precrossed": {"P": {"E": "E", "R": "R", "map": {}, "action": "zero"}},
        "two_crossed": {"K": {"kernel_of": "P"}},
    }


def _ideal_doc(ring, m, k, with_derivation):
    """Crossed module of the ideal <x_k..x_m> in <x_1..x_m; x_i x_j = x_(i+j)>."""
    labels = ["x%d" % i for i in range(1, m + 1)]
    products = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i + j <= m:
                products.setdefault("x%d" % i, {})["x%d" % j] = {"x%d" % (i + j): "1"}
    doc = {
        "ring": ring,
        "algebras": {"R": {"type": "finite", "basis": labels, "products": products}},
        "crossed": {"I": {"ideal": {"R": "R", "labels": labels[k - 1:]}}},
    }
    if with_derivation:
        doc["maps"] = {"id": {"kind": "crossed", "source": "I", "target": "I", "identity": True}}
        doc["derivations"] = {"s": {"base": "id", "s": {"x1": {"x%d" % m: "1"}}}}
    return doc


def _f2_doc():
    return {
        "ring": "Q",
        "algebras": {
            "R2": {"type": "finite", "basis": ["p"], "products": {}},
            "E2": {"type": "finite", "basis": ["a", "b"], "products": {"a": {"a": {"b": "1"}}}},
            "L2": {"type": "finite", "basis": [oracle.BH], "products": {}},
        },
        "actions": {"zero_R2_E2": _zero("R2", "E2"), "zero_R2_L2": _zero("R2", "L2")},
        "two_crossed": {"F2": {
            "L": "L2", "E": "E2", "R": "R2", "d2": {oracle.BH: {"b": "1"}},
            "d1": {"a": {"p": "1"}}, "action_e": "zero_R2_E2", "action_l": "zero_R2_L2",
            "lifting": {"a": {"a": {oracle.BH: "1"}}},
        }},
    }


def corrupted_docs():
    """The eight corrupted F2 documents, by the name of their corruption."""
    docs = {}

    def variant(name, edit):
        doc = _f2_doc()
        edit(doc, doc["two_crossed"]["F2"])
        docs[name] = doc

    variant("lift-dropped", lambda d, f: f.update(lifting={}))
    variant("lift-extra-term", lambda d, f: f.update(
        lifting={"a": {"a": {oracle.BH: "1"}}, "b": {"a": {oracle.BH: "1"}}}))
    variant("L-product-nonnilpotent", lambda d, f: d["algebras"].update(L2={
        "type": "finite", "basis": [oracle.BH, "z"],
        "products": {oracle.BH: {oracle.BH: {"z": "1"}}}}))

    def d2_escape(d, f):
        d["algebras"]["E2"] = {"type": "finite", "basis": ["a", "b", "c"],
                               "products": {"a": {"a": {"b": "1"}}}}
        f.update(d1={"a": {"p": "1"}, "c": {"p": "1"}}, d2={oracle.BH: {"c": "1"}})

    variant("d2-misses-kernel", d2_escape)

    def action_e(d, f):
        d["actions"]["act_e"] = {"acting": "R2", "acted": "E2", "table": {"p": {"a": {"b": "1"}}}}
        f.update(action_e="act_e")

    variant("action-breaks-peiffer", action_e)
    variant("d1-not-multiplicative", lambda d, f: f.update(d1={"a": {"p": "1"}, "b": {"p": "1"}}))

    def level_one(d, f):
        del d["two_crossed"]
        d["crossed"] = {"X": {"E": "E2", "R": "R2", "map": {"a": {"p": "1"}}, "action": "zero_R2_E2"}}

    variant("level-one-not-peiffer", level_one)
    docs["asymmetric-table"] = {"ring": "Q", "algebras": {"N": {
        "type": "finite", "basis": ["u", "v"],
        "products": {"u": {"v": {"u": "1"}}, "v": {"u": {"v": "1"}}}}}}
    return docs


def malformed_docs():
    """The malformed shapes documented to be parse errors (exit 3)."""
    free_line = {
        "ring": "Q",
        "algebras": {"X": {"type": "free", "generators": ["x"]},
                     "Z": {"type": "finite", "basis": [], "products": {}}},
        "actions": {"zero": _zero("X", "Z")},
        "two_crossed": {"D": {"L": "Z", "E": "Z", "R": "X", "d2": {}, "d1": {},
                              "action_e": "zero", "action_l": "zero", "lifting": {},
                              "free_basis": "x"}},
    }
    return {
        "basis-not-a-list": {"ring": "Q", "algebras": {"N": {"type": "finite", "basis": 5, "products": {}}}},
        "products-a-list": {"ring": "Q", "algebras": {"N": {"type": "finite", "basis": ["u"], "products": []}}},
        "algebra-spec-null": {"ring": "Q", "algebras": {"N": None}},
        "free-basis-a-string": free_line,
        "prime-not-prime": {"ring": {"prime": 4},
                            "algebras": {"N": {"type": "finite", "basis": ["u"], "products": {}}}},
    }


def _uses_free(doc):
    return any(spec and spec.get("type") == "free" for spec in doc.get("algebras", {}).values())


def _expected_names(doc):
    """Report check names (or name prefixes) that every named structure must produce."""
    prefixes = ["algebra/%s" % n for n in doc.get("algebras", {})]
    prefixes += ["action/%s" % n for n in doc.get("actions", {})]
    for section, label in (("precrossed", "precrossed"), ("crossed", "crossed"),
                           ("two_crossed", "two_crossed"), ("quadratic_derivations", "quadratic")):
        prefixes += ["%s/%s/" % (label, n) for n in doc.get(section, {})]
    prefixes += ["map/%s" % n for n in doc.get("maps", {})]
    prefixes += ["derivation/%s" % n for n in doc.get("derivations", {})]
    return prefixes


_LAW_RE = re.compile(r"(\S+) fails at ")


def _validate_item(kind, path, out, expect):
    """expect: ("pass", doc) | ("law", law) | ("parse", known_defect_answer)."""
    argv = ["validate", path, "--json", out, "--samples", str(SAMPLES),
            "--max-degree", str(MAX_DEGREE), "--seed", str(POLICY_SEED)]

    def decide():
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(argv)
        except Exception as exc:  # the CLI itself would die with a traceback
            return type(exc).__name__

    def judge(answer):
        report = None
        raw = b""
        if isinstance(answer, int) and os.path.exists(out):
            with open(out, "rb") as fh:
                raw = fh.read()
            os.remove(out)
            report = json.loads(raw.decode("utf-8"))
        digest = _digest(answer, hashlib.sha256(raw).hexdigest())
        mode, data = expect
        if mode == "pass":
            good = answer == oracle.EXIT_PASS and report is not None and report["status"] == "pass"
            if good:
                names = [c["name"] for c in report["checks"]]
                good = all(any(n == p or n.startswith(p) for n in names) for p in _expected_names(data))
                if not _uses_free(data):
                    good = good and all(oracle.exhaustive(c["certificate"])
                                        for c in report["checks"] if "certificate" in c)
            return ("ok" if good else "wrong"), digest
        if mode == "law":
            laws = [_LAW_RE.search(c.get("witness") or "") for c in (report or {}).get("checks", [])
                    if c["status"] == "fail"]
            named = [m.group(1) for m in laws if m]
            good = answer == oracle.EXIT_FAIL and named == [data]
            return ("ok" if good else "wrong"), digest
        if answer == oracle.EXIT_PARSE:
            return "ok", digest
        return ("defect" if answer == data else "wrong"), digest

    return Item(kind, decide, judge)


def validate_items(seed, n_rounds, workdir):
    rng = random.Random(seed)
    items = []
    index = 0

    def add(kind, doc, expect):
        nonlocal index
        text = json.dumps(doc, ensure_ascii=False)
        # one file per distinct document: the corrupted and malformed ones
        # repeat every round, and each verdict reads its file afresh anyway
        path = os.path.join(workdir, "doc-%s.json" % _digest(text))
        out = os.path.join(workdir, "report%04d.json" % index)
        index += 1
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        items.append(_validate_item(kind, path, out, expect))

    def ring():
        return rng.choice(["Q", {"prime": 5}, {"prime": 7}])

    for _ in range(n_rounds):
        doc = _fixture_doc("Q")
        add("fixtures-Q", doc, ("pass", doc))
        doc = _fixture_doc({"prime": rng.choice([5, 7, 11])})
        add("fixtures-Fp", doc, ("pass", doc))
        for with_qd in (True, False):
            doc = _square_kernel_doc(ring(), rng.randint(1, 4), rng.randint(0, 4), with_qd,
                                     rng.randint(1, 4), rng.randint(1, 4))
            add("square-kernel" + ("-qd" if with_qd else ""), doc, ("pass", doc))
        doc = _truncated_kernel_doc(ring(), rng.randint(2, 3))
        add("truncated-kernel", doc, ("pass", doc))
        m = rng.randint(2, 4)
        doc = _ideal_doc(ring(), m, rng.randint(2, m), rng.random() < 0.5)
        add("ideal-crossed", doc, ("pass", doc))
        for name, doc in corrupted_docs().items():
            add("corrupt/" + name, doc, ("law", oracle.CORRUPTION_LAWS[name]))
        for name, doc in malformed_docs().items():
            add("malformed/" + name, doc, ("parse", oracle.MALFORMED_KNOWN_DEFECTS[name]))
    rng.shuffle(items)
    return items
