"""Homotopy of crossed module maps: derivations, inverses, concatenation.

For crossed module morphisms f, g: A -> A', a homotopy f => g is an
f0-derivation, a linear map s: R -> E' with

    s(rr') = f0(r) > s(r') + f0(r') > s(r) + s(r)s(r'),

and the target is g0 = f0 + d' o s, g1 = f1 + s o d.  No freeness is
needed here: the zero map is a homotopy f => f, -s inverts, and pointwise
addition concatenates, giving the groupoid of maps A -> A' and their
homotopies, over a finite R or a free one alike.

The s-half of a quadratic derivation of 2-crossed module maps is exactly
such an f0-derivation into E' -> R', so ``complete_s_images``,
``check_derivation_law`` and ``derivation_map`` are the one derivation
path of both homotopy layers, ``CMDerivation`` is their one derivation
shape (``QuadraticDerivation`` extends it with t), and ``groupoid_check``
is their one loop over the groupoid laws (the 2-crossed layer adds
t-associativity and w-change).

Where the proofs come from.  Over a finite R the derivation law is checked
on a basis.  Over a free R it holds by construction: s is read through
the substitution phi: r -> (f0(r), s(r)) into R' |x E', and
``check_derivation_law`` proves the law from phi once its premises are
proved.  The target's g0 = f0 + d' o s is then built as a substitution too
(``target_g0``, with f0 + d' o s kept as a tripwire).  A premise that is
not proved leaves the law sampled and g0 a formula map, certified on law
tuples.

Each derivation is certified once.  ``make_cm_derivation`` certifies
every call and keeps its result on f, keyed by the policy and the
normalized images (``kept_key``, the key of both layers).
``zero_cm_derivation`` and ``concat_cm`` return the kept derivation when
their images match a key, and certify only on a miss; ``invert_cm`` and
randgen always certify.  Reuse is exact: a certification is a pure
function of (f, images, policy), because its sampled tuples are a
function of the policy and R alone and s is fixed by its images, so a
hit returns the object a re-certification would rebuild, with the same
certificate.  A composite with wrong images matches no key and is
certified, and rejected, as before.  A derivation carries the policy it
was certified under, and its ``target`` is certified under that policy
too, so a kept derivation, and its kept target, only ever answer for the
policy they were keyed by.
"""

import random
from functools import cached_property, partial

from .algebra import FreeAlgebra
from .crossed import make_cm_morphism
from .errors import (
    CompositionMismatch,
    DerivationLawViolation,
    LawViolation,
    MorphismViolation,
    XmodError,
)
from .maps import (
    DEFAULT_POLICY,
    LinearMap,
    algebra_morphism,
    check_law,
    is_proof,
    linear_map,
    maps_agree,
    semidirect,
    _skeleton,
)


def edge_algebra(cm, policy=DEFAULT_POLICY):
    """R |x E of a crossed module (its algebra of 1-simplices), certified
    under ``policy``.  Kept on the module, one per policy, so its stored
    certificate is the caller's."""
    edge = cm._edges.get(policy)
    if edge is None:
        edge = cm._edges[policy] = semidirect(cm.R, cm.E, cm.act, policy)
    return edge


class CMDerivation:
    """An f0-derivation s: R -> E' over a crossed module morphism f, with
    its law certified under ``policy``; the one derivation shape of both
    homotopy layers (``QuadraticDerivation`` adds t).

    ``s_images`` records s on the R-basis (finite R) or on the free
    generators (free R, where s is evaluated through the algebra map
    r -> (f0(r), s(r)) into R' |x E').  ``certificates`` maps each law to
    its certificate: a crossed derivation has one, ``"derivation-law"``.
    ``target`` is the target map, certified under the same policy when
    first read and then kept."""

    def __init__(self, f, s_images, s, certificates, policy):
        self.f = f
        self.s_images = s_images
        self.s = s
        self.certificates = certificates
        self.policy = policy

    @cached_property
    def target(self):
        return _cm_target(self)

    def equal(self, other):
        """Same base map and the same s on a spanning set of R: the
        s-halves alone."""
        return self is other or (
            self.f.equal(other.f) and maps_agree(self.s, other.s, _skeleton(self.f.src.R))
        )


def derivation_map(f, images, edge):
    """Realize an f0-derivation s: R -> E' from its images.

    A finite R gives a basis table.  A free R gives the algebra map
    phi: r -> (f0(r), s(r)) into R' |x E' = edge(), the substitution fixed
    by the generator images, followed by the projection to E'; ``edge`` is
    called only then, and phi is kept as ``s.edge_map`` for the s-law's
    proof by construction (``check_derivation_law``).
    """
    R, target = f.src.R, f.tgt.E
    if R.is_finite():
        return linear_map(R, target, images)
    lam1 = edge()
    phi = algebra_morphism(
        R, lam1, images={b: lam1.pair(f.f0(R.basis_element((b,))), images[b]) for b in R.generators}
    )
    s = LinearMap(R, target, "function", fn=lambda r: lam1.split(phi(r))[1], note="derivation")
    s.edge_map = phi
    return s


def _by_construction(f0, act, s):
    """Whether the derivation law of s holds by construction: s is read
    through a substitution phi: R -> R' |x E' (``derivation_map``), f0 is
    proved multiplicative, R' |x E' is proved commutative and associative
    under the law's action ``act``, and phi(b) has R'-part f0(b) on B."""
    phi = getattr(s, "edge_map", None)
    if phi is None or not (is_proof(f0.multiplicative) and is_proof(phi.multiplicative)):
        return False
    edge = phi.target
    return (
        is_proof(edge.certificate)
        and edge.action.same(act)
        and all(edge.split(phi.images[b])[0] == f0(phi.source.basis_element((b,)))
                for b in phi.source.generators)
    )


def check_derivation_law(R, f0, act, s, declared, error, policy):
    """Check s(rr') = f0(r) > s(r') + f0(r') > s(r) + s(r)s(r') on law
    tuples of R x R; returns the certificate or raises error(witness, lhs, rhs).

    First each declared monomial value (see ``complete_s_images``) must be
    the value s takes there; otherwise error((monomial,), declared, s(monomial)).

    Over a free R the law holds by construction (``maps.check_law``) when
    ``_by_construction`` says its premises hold.  The lemma: phi is an
    algebra map, being a substitution into a commutative associative
    algebra.  Its R'-part and f0 are algebra maps that agree on B, so they
    are equal, and phi(rr') = phi(r)phi(r') reads, in the E'-component of
    (a, e)(a', e') = (aa', a > e' + a' > e + ee'), as the law above.
    Otherwise the law is checked on law tuples.
    """
    for mono, value in declared.items():
        r = R.basis_element(mono)
        forced = s(r)
        if forced != value:
            raise error((r,), value, forced)

    def rhs(r, r2):
        sr, sr2 = s(r), s(r2)
        return act(f0(r), sr2) + act(f0(r2), sr) + sr * sr2

    return check_law(
        [R, R], lambda r, r2: s(r * r2), rhs, error, policy,
        by_construction=_by_construction(f0, act, s),
    )


def image_key(images):
    """An image table as a hashable value: each key with its coefficients."""
    return frozenset((key, frozenset(value.coeffs.items())) for key, value in images.items())


def complete_s_images(R, E, images):
    """Split given s-data for s: R -> E into its images and declared
    monomial values, each owned by E.  Over a free R the images are on the
    generators, completed by zero, and a monomial key declares a value that
    the derivation law forces, so it is checked, not used; over a finite R
    every key is a basis label."""
    out, declared = {}, {}
    free = not R.is_finite()
    for key, value in images.items():
        E.owns(value)
        if free and isinstance(key, tuple):
            declared[R.check_key(key)] = value
        else:
            out[key] = value
    if free:
        for b in R.generators:
            out.setdefault(b, E.zero())
    return out, declared


def kept_key(policy, *tables):
    """The key a certified derivation is kept under on its base map: the
    policy and each normalized image table."""
    return (policy, *map(image_key, tables))


def make_cm_derivation(f, images, policy=DEFAULT_POLICY):
    """Certify the derivation law for s given by basis/generator images.

    Every call certifies; the first derivation certified for these images
    under ``policy`` is kept on f for ``_derivation``."""
    src, tgt = f.src, f.tgt
    images, declared = complete_s_images(src.R, tgt.E, images)
    s = derivation_map(f, images, lambda: edge_algebra(tgt, policy))
    cert = check_derivation_law(src.R, f.f0, tgt.act, s, declared, DerivationLawViolation, policy)
    d = CMDerivation(f, images, s, {"derivation-law": cert}, policy)
    f._homotopies.setdefault(kept_key(policy, images, declared), d)
    return d


def _derivation(f, images, policy):
    """The derivation kept on f for these images under ``policy``, or a
    newly certified one."""
    kept = f._homotopies.get(kept_key(policy, *complete_s_images(f.src.R, f.tgt.E, images)))
    return kept if kept is not None else make_cm_derivation(f, images, policy)


def target_g0(d, s_law, boundary, equivariance):
    """g0 = f0 + d' o s: R -> R', the R-part of the target of d, for d'
    = ``boundary``: E' -> R'; ``s_law`` is the certificate of d's s-law and
    ``equivariance`` that of d'(a > e) = a d'(e) in the target.

    The lemma: pi(a, e) = a + d'(e) is an algebra map R' |x E' -> R' when
    d' is multiplicative and equivariant, since

        pi((a, e)(a', e')) = aa' + d'(a > e' + a' > e + ee')
                           = aa' + a d'(e') + a' d'(e) + d'(e) d'(e')
                           = pi(a, e) pi(a', e').

    By the s-law, phi: r -> (f0(r), s(r)) is an algebra map, so g0 =
    pi o phi is one; over a free R it is the substitution b -> f0(b) +
    d'(s(b)).  When the s-law, d' and its equivariance are proved, g0 is
    built so (EXHAUSTIVE by construction), and f0 + d' o s stays as a
    tripwire on the policy's sampled r, evaluated once per spanned
    monomial (``maps.check_law``).  Otherwise g0
    is the formula, certified multiplicative on law tuples.
    """
    f, s, policy = d.f, d.s, d.policy
    R = f.src.R
    formula = lambda r: f.f0(r) + boundary(s(r))
    if not (
        isinstance(R, FreeAlgebra)
        and all(is_proof(c) for c in (s_law, boundary.multiplicative, equivariance))
    ):
        return algebra_morphism(R, boundary.target, fn=formula, policy=policy, note="g0")
    g0 = algebra_morphism(
        R, boundary.target, images={b: formula(R.basis_element((b,))) for b in R.generators}, note="g0"
    )
    check_law([R], g0, formula, partial(MorphismViolation, msg="g0 differs from f0 + d'.s"), policy)
    return g0


def _cm_target(d):
    f, s, policy = d.f, d.s, d.policy
    src, tgt = f.src, f.tgt
    g0 = target_g0(d, d.certificates["derivation-law"], tgt.d, tgt.certificates["XM1"])
    g1 = algebra_morphism(src.E, tgt.E, fn=lambda e: f.f1(e) + s(src.d(e)), policy=policy, note="g1")
    return make_cm_morphism(src, tgt, g0, g1, policy)


def invert_cm(d, policy=DEFAULT_POLICY):
    """The derivation -s over g, connecting g back to f; certified under
    ``policy``."""
    images = {k: -v for k, v in d.s_images.items()}
    inv = make_cm_derivation(d.target, images, policy)
    if not inv.target.equal(d.f):
        raise XmodError("inverse derivation does not recover the source map")
    return inv


def concat_cm(d, d2, policy=DEFAULT_POLICY):
    """Pointwise sum s + s', connecting f to h, certified under ``policy``;
    requires target(d) = source(d2)."""
    if not d.target.equal(d2.f):
        raise CompositionMismatch("intermediate morphisms differ")
    images = dict(d.s_images)
    for k, v in d2.s_images.items():
        images[k] = images[k] + v if k in images else v
    out = _derivation(d.f, images, policy)
    if not out.target.equal(d2.target):
        raise XmodError("concatenation target mismatch (transcription bug)")
    return out


def bracketings(concat, d1, d2, d3, policy):
    """(d1 d2) d3 and d1 (d2 d3) for a composable triple, each composite
    formed by ``concat`` under ``policy``."""
    return concat(concat(d1, d2, policy), d3, policy), concat(d1, concat(d2, d3, policy), policy)


def zero_cm_derivation(f, policy=DEFAULT_POLICY):
    return _derivation(f, {}, policy)


def groupoid_check(A, B, samples, seed, policy, names, ops, more=None):
    """Sample derivation chains A -> B and check the groupoid laws of
    either layer exactly; returns report entries (name, ok, witness).

    ``names`` is the layer's (prefix, validity law, associativity law),
    ``ops`` its (random morphism, random derivation, zero, concat, invert).
    Each sample draws f and a chain d1: f => g, d2, d3 from one
    Random(seed); if one of them or a target fails certification, the
    validity law is false with the error as witness.  Otherwise come the
    units, inverses, s-associativity and the relation's laws, then the
    (law, ok, witness) triples of ``more(rng, d1, d2, d3, left, right)``.
    """
    prefix, valid, associative = names
    random_morphism, random_derivation, zero, concat, invert = ops
    rng = random.Random(seed)
    entries = []

    def note(law, ok, witness=None):  # i is the current sample
        entries.append(("%s/%02d/%s" % (prefix, i, law), ok, witness))

    for i in range(samples):
        f = random_morphism(A, B, rng, policy=policy)
        try:  # each target is certified when read
            d1 = random_derivation(f, rng, policy=policy)
            g = d1.target
            d2 = random_derivation(g, rng, policy=policy)
            d3 = random_derivation(d2.target, rng, policy=policy)
            d3.target
        except LawViolation as exc:
            note(valid, False, str(exc))
            continue
        note(valid, True)

        zf, zg = zero(f, policy), zero(g, policy)
        note("reflexive-zero", zf.target.equal(f))
        note("identity-left", concat(zf, d1, policy).equal(d1))
        note("identity-right", concat(d1, zg, policy).equal(d1))
        inv = invert(d1, policy)
        note("symmetric", inv.target.equal(f))
        note("inverse-right", concat(d1, inv, policy).equal(zf))
        note("inverse-left", concat(inv, d1, policy).equal(zg))
        left, right = bracketings(concat, d1, d2, d3, policy)
        note(associative, CMDerivation.equal(left, right))
        note("transitive", left.target.equal(d3.target))
        if more:
            for law, ok, witness in more(rng, d1, d2, d3, left, right):
                note(law, ok, witness)
    return entries


def cm_groupoid_check(A, B, samples=25, seed=0, policy=DEFAULT_POLICY):
    """The groupoid laws (``groupoid_check``) on sampled derivation chains
    of crossed module maps A -> B.  Returns report entries (name, ok,
    witness)."""
    from .randgen import random_cm_derivation, random_cm_morphism

    ops = (random_cm_morphism, random_cm_derivation, zero_cm_derivation, concat_cm, invert_cm)
    return groupoid_check(A, B, samples, seed, policy, ("cm", "target-valid", "associative"), ops)
