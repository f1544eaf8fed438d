"""Command-line interface.

Commands:
  validate FILE                 construct and certify every named structure
  simplicial FILE --module M    build the simplex tower and check identities
  homotopy OP FILE --names ...  apply / compose / invert / assoc on named
                                derivations or quadratic derivations
  groupoid cm|tcm FILE ...      sampled groupoid-law suites
  selftest                      the full built-in suite

Exit codes: 0 all checks pass, 1 check failures, 2 usage errors, 3 I/O or
parse errors.  Reports go to stdout as text; --json PATH writes the
canonical JSON form (byte-identical across runs for a fixed seed).
The seed falls back to the XMOD2_SEED environment variable, then 0.
"""

import argparse
import functools
import os
import sys

from .algebra import FreeAlgebra
from .cm_homotopy import cm_groupoid_check
from .errors import (
    CompositionMismatch,
    LawViolation,
    ParseError,
    UnresolvedReference,
    ValidationError,
    XmodError,
)
from .maps import Policy
from .report import Report, canonical_json
from .simplex import build_tower, check_simplicial_identities
from .specdoc import load_spec
from .tcm_homotopy import bracketings, check_w_change, concat_2cm, invert_2cm, tcm_groupoid_check


def _default_seed():
    """XMOD2_SEED, else 0; a malformed value is a usage error (exit 2),
    like a malformed --seed, never a silent seed 0."""
    text = os.environ.get("XMOD2_SEED", "0")
    try:
        return int(text)
    except ValueError:
        build_parser().error("XMOD2_SEED: invalid int value: %r" % text)


def _int_at_least(low):
    """An argparse type: an int no smaller than ``low``.  Certificates
    stamp --samples and --max-degree as what was drawn, but a negative
    count draws nothing and ``maps.random_element`` draws degree >= 1."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    parse.__name__ = "int"
    return parse


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and the seed's environment fallback is read per call."""
    parser = argparse.ArgumentParser(
        prog="xmod2",
        description="Exact verification of crossed and 2-crossed module structure, "
        "simplex algebras, and homotopy groupoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", metavar="PATH", help="also write the canonical JSON report")
        p.add_argument("--samples", type=_int_at_least(0), default=100)
        p.add_argument("--max-degree", type=_int_at_least(1), default=4)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("validate", help="validate every structure in a file")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("simplicial", help="simplex tower and simplicial identities")
    p.add_argument("file")
    p.add_argument("--module", required=True, help="name of a 2-crossed module")
    common(p)

    p = sub.add_parser("homotopy", help="operations on named homotopies")
    p.add_argument("op", choices=["apply", "compose", "invert", "assoc"])
    p.add_argument("file")
    p.add_argument("--names", required=True, help="comma-separated homotopy names")
    common(p)

    p = sub.add_parser("groupoid", help="sampled groupoid-law suite")
    p.add_argument("flavor", choices=["cm", "tcm"])
    p.add_argument("file")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    common(p)

    p = sub.add_parser("selftest", help="run the full built-in verification suite")
    common(p)
    return parser


def _policy(args):
    seed = args.seed if args.seed is not None else _default_seed()
    return Policy(samples=args.samples, max_degree=args.max_degree, seed=seed)


def _cmd_validate(args, policy):
    report = Report("validate", params={"file": os.path.basename(args.file), "seed": policy.seed})
    doc = load_spec(args.file, policy)
    for name in sorted(doc.algebras):
        report.add("algebra/%s" % name, "associativity", True)
    for name in sorted(doc.actions):
        report.add("action/%s" % name, "A1+A2", True, certificate=doc.actions[name].certificate)
    for section, store in (
        ("precrossed", doc.precrossed),
        ("crossed", doc.crossed),
        ("two_crossed", doc.two_crossed),
        ("quadratic", doc.quadratic),
    ):
        for name in sorted(store):
            for law, cert in sorted(store[name].certificates.items()):
                report.add("%s/%s/%s" % (section, name, law), law, True, certificate=cert)
    for name in sorted(doc.maps):
        report.add("map/%s" % name, "morphism", True)
    for name in sorted(doc.derivations):
        report.add("derivation/%s" % name, "derivation-law", True,
                   certificate=doc.derivations[name].certificates["s-law"])
    return report


def _cmd_simplicial(args, policy):
    report = Report(
        "simplicial",
        params={
            "file": os.path.basename(args.file), "module": args.module,
            "seed": policy.seed, "samples": policy.samples, "max_degree": policy.max_degree,
        },
    )
    doc = load_spec(args.file, policy)
    if args.module not in doc.two_crossed:
        raise UnresolvedReference(args.module, "two_crossed")
    A = doc.two_crossed[args.module]
    tower = build_tower(A, policy)
    for name in sorted(tower.actions):
        report.add("action/%s" % name, "A1+A2", True, certificate=tower.actions[name].certificate)
    for (n, i), f in sorted(tower.faces.items()):
        report.add("face/d%d@%d" % (i, n), "morphism", True, certificate=f.multiplicative)
    for (n, i), f in sorted(tower.degeneracies.items()):
        report.add("degeneracy/s%d@%d" % (i, n), "morphism", True, certificate=f.multiplicative)
    for name, ok, witness in check_simplicial_identities(tower, policy):
        report.add("identity/%s" % name, name, ok, witness)
    return report


def _homotopy_by_name(doc, name):
    """The named derivation of either layer, quadratic names first."""
    for store in (doc.quadratic, doc.derivations):
        if name in store:
            return store[name]
    raise UnresolvedReference(name, "derivation")


def _sample_points(R):
    """Generator values plus low-degree monomials for display."""
    if not isinstance(R, FreeAlgebra):
        return R.basis_elements()
    points = [R.monomial(g) for g in R.generators]
    for g in R.generators:
        points += [R.monomial(g, g), R.monomial(g, g, g)]
    return points


def _cmd_homotopy(args, policy):
    names = [n.strip() for n in args.names.split(",") if n.strip()]
    report = Report(
        "homotopy " + args.op,
        params={"file": os.path.basename(args.file), "names": names, "seed": policy.seed},
    )
    doc = load_spec(args.file, policy)
    items = [_homotopy_by_name(doc, n) for n in names]
    if not names:
        raise ValidationError("homotopy " + args.op, "no homotopy names given")
    # each name's layer is the section it was found in (quadratic first)
    kinds = sorted({"tcm" if n in doc.quadratic else "cm" for n in names})
    if len(kinds) != 1:
        raise ValidationError("homotopy " + args.op, "mixed derivation kinds %r" % kinds)
    quadratic = kinds == ["tcm"]
    if quadratic:  # the layer's labels and t-points, picked once
        E = items[0].f.src.E
        plus, tag, s_assoc = "[+]", "box-plus", "s-component"
        t_points = [(k, E.basis_element(k)) for k in E.basis_keys()]
    else:
        plus, tag, s_assoc = "+", "concat", "derivations"
        t_points = []

    if args.op == "apply":
        for name, item in zip(names, items):
            try:
                g0 = item.target.f0
            except LawViolation as exc:
                report.add("homotopy/%s/target-valid" % name, "target", False, witness=str(exc))
                continue
            for r in _sample_points(item.f.src.R):
                report.add("value/%s/g0(%s)" % (name, r), "target", True, witness=str(g0(r)))
            report.add("homotopy/%s/target-valid" % name, "target", True)
        return report

    if args.op == "compose":
        if len(items) != 2:
            raise ValidationError("homotopy compose", "need exactly two names")
        a, b = items
        try:
            out = concat_2cm(a, b, policy)
        except CompositionMismatch as exc:
            report.add("homotopy/compose/composable", "composable", False, witness=str(exc))
            return report
        for r in _sample_points(a.f.src.R):
            report.add("value/(s%ss')(%s)" % (plus, r), tag, True, witness=str(out.s(r)))
        for k, e in t_points:
            report.add("value/(t[+]t')(%s)" % k, tag, True, witness=str(out.t(e)))
        report.add("homotopy/compose/laws", "concat", True)
        return report

    if args.op == "invert":
        for name, item in zip(names, items):
            inv = invert_2cm(item, policy)
            for r in _sample_points(item.f.src.R):
                report.add("value/%s/sbar(%s)" % (name, r), "inverse", True, witness=str(inv.s(r)))
            report.add("homotopy/%s/inverse-valid" % name, "inverse", True)
        return report

    # assoc
    if len(items) != 3:
        raise ValidationError("homotopy assoc", "need exactly three names")
    a, b, c = items
    try:
        left, right = bracketings(a, b, c, policy)
    except CompositionMismatch as exc:
        report.add("assoc/composable", "composable", False, witness=str(exc))
        return report
    report.add("assoc/" + s_assoc, "associativity", left.same_s(right))
    if quadratic:
        report.add("assoc/t-component", "associativity", all(left.t(e) == right.t(e) for _, e in t_points))
        for r in _sample_points(a.f.src.R):
            ok, lhs, rhs = check_w_change(a, b, c, r, policy)
            report.add("assoc/w-change(%s)" % r, "wchange", ok, "%s vs %s" % (lhs, rhs))
    return report


def _cmd_groupoid(args, policy):
    report = Report(
        "groupoid " + args.flavor,
        params={
            "file": os.path.basename(args.file), "source": args.source, "target": args.target,
            "seed": policy.seed, "samples": policy.samples,
        },
    )
    doc = load_spec(args.file, policy)
    section, store, check = {
        "cm": ("crossed", doc.crossed, cm_groupoid_check),
        "tcm": ("two_crossed", doc.two_crossed, tcm_groupoid_check),
    }[args.flavor]
    for name in (args.source, args.target):
        if name not in store:
            raise UnresolvedReference(name, section)
    entries = check(store[args.source], store[args.target], samples=policy.samples, seed=policy.seed,
                    policy=policy)
    report.extend("", entries)
    return report


def _cmd_selftest(args, policy):
    from .selftest import run_selftest

    return run_selftest(seed=policy.seed, samples=min(policy.samples, 25), max_degree=policy.max_degree)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    policy = _policy(args)
    try:
        if args.command == "validate":
            report = _cmd_validate(args, policy)
        elif args.command == "simplicial":
            report = _cmd_simplicial(args, policy)
        elif args.command == "homotopy":
            report = _cmd_homotopy(args, policy)
        elif args.command == "groupoid":
            report = _cmd_groupoid(args, policy)
        else:
            report = _cmd_selftest(args, policy)
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 3
    except XmodError as exc:
        report = Report(args.command, params={})
        report.add("load/%s" % type(exc).__name__, type(exc).__name__, False, witness=str(exc))

    print(report.to_text(), end="")
    if getattr(args, "json", None):
        try:
            _write_json(args.json, report)
        except OSError as exc:
            print("i/o error: %s" % exc, file=sys.stderr)
            return 3
    return 0 if report.ok else 1


def _write_json(path, report):
    # the UTF-8 bytes written in binary mode, without a text wrapper to set up
    data = canonical_json(report.to_json_obj()).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


if __name__ == "__main__":
    sys.exit(main())
