"""Homotopy of 2-crossed module maps: quadratic derivations and their
groupoid over a domain that is free up to order one.

A quadratic f-derivation is a pair (s: R -> E', t: E -> L') subject to
three laws: s is an f0-derivation ("s-law"); t expands on products of E
with Peiffer-lifting cross terms ("t-product"); and t expands on acted
elements r > e ("t-action").  Each law holds by construction (see "Where
the proofs come from") or is one ``maps.check_law`` call, which gives the
law its certificate.  The target of the homotopy is

    g0 = f0 + d1' o s,   g1 = f1 + s o d1 + d2' o t,   g2 = f2 + t o d2.

Composition takes s [+] s' on the free basis B of R, its generators.  An
f0-derivation is the same thing as an algebra map r -> (f0(r), s(r)) into
R' |x E', so a set map B -> E' extends uniquely; s [+] s' extends
(s + s')|B.  The correction term w(r) is extracted from the algebra of
2-simplices: the unique algebra map X with X(b) = (f0(b), s(b), s'(b), 0)
has the form

    X(r) = (f0(r), s(r), s'(r) - d2'(w(r)), w(r)),

w vanishes on B, and (s [+] s')(r) = s(r) + s'(r) - d2'(w(r)).  Then
(t [+] t')(e) = t(e) + t'(e) + w(d1(e)).  Inverses extend -s|B over g0
with tbar = -t - w^(s, sbar) o d1.  Associativity of the t-component
rests on the w-change identity, which the tetrahedron map Z (extending
b -> (f0(b), s(b), s'(b), 0, s''(b), 0, 0) into the algebra of
3-simplices) proves and z_map re-verifies pointwise.  Only tests reach
z_map; it stays because the planned proof of w-change from B is built
on the four faces of Z.  Only Z lives in Lam3: s, X and w read the lower
stage of the target's tower (up to Lam2), and its upper stage, Lam3 with
the actions behind it, is certified when check_w_change or z_map first
asks for it.  ``_tower_map`` builds phi (for s), X and Z from B.

w is read only in ``_pair_w``, and ``x_map`` is the one pointwise check
of X's component form.  The groupoid's compositions skip that check:
they read w only at 0, as d1 = 0 on a free R with finite E (x d1(e) =
d1(x > e), checked by make_two_crossed on generator tuples (x, e), would
otherwise exceed the top degree of d1(E)), or into a target whose L' has
no basis, where w = 0.

Composition and inversion read the input (``_s_keys``, ``_t_keys``):
they need a free R, unless the target's L' has no basis.
There w = 0 and t = 0, so s [+] s' = s + s' and sbar = -s, over a finite
R they run on its R-basis, and E may be infinite; this is the crossed
layer, the L = 0 slice (``cm_homotopy``).
Otherwise they refuse (FreeBasisRequired): without freeness the homotopy
relation is not an equivalence relation, and silently computing would be
wrong.  The triangle and tetrahedron maps X and Z always need B.

Where the proofs come from.  t-product and its boundary form are over the
finite E and L, so they are checked on bases; into a target whose L' has
no basis every t-law holds by construction.  Over a finite R the s-law
is checked on a basis.  Over a free R it holds by construction: s is read
through the substitution phi: r -> (f0(r), s(r)) into R' |x E', and
``check_derivation_law`` proves the law from phi once its premises are
proved; the target's g0 = f0 + d1' o s is then a substitution too
(``_qd_target``, with the formula kept as a tripwire).  t-action and its
boundary form take the generator rule of ``maps.check_law`` by the closure
lemma of ``make_quadratic_derivation``, and so do the equivariance laws of
each target map (``crossed.make_2cm_morphism``).  Each proof names its
premises and falls back to the basis of a finite R, or to sampling over
a free one, when one of them is not proved.  A law each of whose sides is
linear in an argument from an algebra of dimension 0 is vacuous and
EXHAUSTIVE with nothing checked, premises or not: over E = 0, t-product
and t-action (``_t_laws``), and a map's d1-square, f1-equivariance and
lifting; over L = 0, the t-laws' boundary forms, which are not checked,
and a map's d2-square and f2-equivariance.  So out of F3 = 0 -> 0 -> R
a map's five laws and a derivation's t-laws are all vacuous, and only
the s-law is checked.  A target known in advance is not built again:
over a free R, f0 + d1' o s is compared with that map's certified f0 on
B, and on the policy's sampled r as a tripwire (``_is_target``); only a
target certified when first read builds g0 (``_g0_substitution``).

Key images.  The maps out of a free R and the laws read on them work on
coefficient dicts, and an element is built only for a key image or a
witness.  s is a ``maps.KeyImageMap`` whose key image is the E'-part of
phi's (``_s_map``); the formula f0 + d1' o s is one too
(``_target_formulas``), and the g0 tripwire compares its key image with
g0's at each monomial the policy's sampled r span, through ``check_law``
(``_g0_tripwire``).  The t-laws and their boundary forms are term tables,
each written once in the syntax of the tower's tables and read by the same
``simplex._terms`` (``_T_LAWS``): a term's arguments are chains of maps
applied to a slot, such as s(d1(e)), each entry resolved once at import.
``_t_laws`` decides them on basis keys, reading each chain at each key
once per certification, and builds its witness elements from the same
values.

A homotopy is one object, a ``QuadraticDerivation``: its data, the
policy its laws were certified under, and its ``target``, the map g
certified under that same policy when first read and then kept.  The
target of a zero homotopy, a composite or an inverse is known in advance,
and is that certified map itself when ``_settle_target`` shows the two
equal (the lemma is in ``_qd_target``).  The operations here take
derivations, and ``concat_2cm`` and ``invert_2cm`` return one, certified
under the policy they are given.
``groupoid_check`` is the one loop over the groupoid laws;
``tcm_groupoid_check`` runs it and adds t-associativity and w-change,
``cm_homotopy.cm_groupoid_check`` runs it on the slices.

Each homotopy is certified once, and a zero homotopy never.
``make_quadratic_derivation`` certifies every call and keeps its result
on f, keyed (``kept_key``) by the policy and the normalized data: the
nonzero s-images, the declared monomial values and the nonzero
t-images.  ``concat_2cm`` and ``apply_2cm_homotopy`` (for a derivation
certified under another policy) go through ``_quadratic``, which
normalizes the same way and returns the kept derivation when the key
matches, certifying only on a miss, with the data and key it has
normalized and built once (``_entry``).  ``zero_quadratic`` looks up the
same key and, on a miss, builds the zero homotopy with no law checked:
each law is linear in s or t, so (0, 0) satisfies it for every f, and
its target is f (the zero lemma in its docstring).  So the groupoid's
zeros, its units (0 [+] h = h [+] 0 = h), its inverse laws (h [+] hbar
= 0) and both bracketings of a triple come back as the object already
kept, with its target.  ``invert_2cm`` and randgen always certify.
Reuse is exact: a certification is a pure function of (f, images,
policy).  Its sampled tuples are a function of the policy and R alone, s
and t are fixed by their images, and a hit needs equal images over the
same f object and an equal policy, so a hit returns the object a
re-certification would rebuild, with the same certificates or, for a
zero homotopy built by the lemma, EXHAUSTIVE ones, and its kept target
is certified under the policy asked for.  A composite with wrong data
matches no key and is certified, and rejected, as before.
"""

import random
from functools import cached_property, partial
from operator import ne

from .algebra import FreeAlgebra, combine, unit_key
from .crossed import MORPHISM_LAWS, make_2cm_morphism
from .errors import (
    CompositionMismatch,
    DerivationLawViolation,
    FreeBasisRequired,
    LawViolation,
    MorphismViolation,
    QDLawViolation,
    XmodError,
)
from .maps import (
    DEFAULT_POLICY,
    EXHAUSTIVE,
    KeyImageMap,
    LinearMap,
    agree_on_keys,
    algebra_morphism,
    certify_multiplicative,
    check_law,
    generator_images,
    is_proof,
    maps_agree,
    random_element,
    table_map,
    zero_map,
    _Lazy,
    _compose,
    _extend,
    _skeleton,
)
from .randgen import random_2cm_morphism, random_quadratic_derivation
from .simplex import _terms, get_tower


def _require_free(A):
    if A.free_basis is None:
        raise FreeBasisRequired(
            "R = %r is not a free algebra; concatenation and inversion of 2-crossed "
            "homotopies are only defined for domains free up to order one" % (A.R,)
        )
    return A.free_basis


def _s_keys(A, B):
    """The keys that a composite's or an inverse's s-images over A -> B are
    given on: the free basis of R, or, into a target whose L' has
    no basis (so w = 0), the R-basis of a finite R.  Otherwise
    FreeBasisRequired, from ``_require_free``."""
    if A.free_basis is None and A.R.is_finite() and B.L.dim() == 0:
        return A.R.basis_keys()
    return _require_free(A)


def _s_map(f, images, policy=DEFAULT_POLICY):
    """Realize an f0-derivation s: R -> E' from its images, checked by
    ``maps.generator_images`` (``split_s_images``), a key with none going
    to zero.

    A finite R gives a basis table.  A free R gives the algebra map
    phi: r -> (f0(r), s(r)) into R' |x E' = Lambda1 of the target's tower
    (its lower stage: a derivation certifies no Lambda3 action), the
    substitution fixed by the generator images (``_tower_map``), and s is
    the ``maps.KeyImageMap`` whose key image is the E'-part of phi's; the
    tower is asked for only then, and phi is kept as ``s.edge_map`` for the
    s-law's proof by construction (``check_derivation_law``).
    """
    R, target = f.src.R, f.tgt.E
    if f.src.free_basis is None:
        return LinearMap(R, target, "table", images=images)
    _, phi = _tower_map(f, 1, (images,), policy, "phi")
    s = KeyImageMap(R, target, lambda key: target.from_coeffs(
        {k: c for (side, k), c in phi._image(key).coeffs.items() if side}), "derivation")
    s.edge_map = phi
    return s


def _tower_map(f, n, tables, policy, note):
    """The algebra map R -> Lam_n (n = 1, 2, 3) of the tower of f's target
    that extends b -> (f0(b), table[b] for each of ``tables``, one per
    later slot of Lam_n) on the free basis B, a b missing from a table
    going to zero there, and that tower, built up to at least its lower
    stage (Lam2) or to Lam_n."""
    A = f.src
    basis = _require_free(A)
    tower = get_tower(f.tgt, policy, top=max(n, 2))
    codec = tower.codecs[n]
    zeros = [part.zero() for part in codec.parts[1:]]
    images = {b: codec.pack(f.f0(A.R.basis_element((b,))), *(t.get(b, z) for t, z in zip(tables, zeros)))
              for b in basis}
    return tower, algebra_morphism(A.R, tower.levels[n], images=images, policy=policy, note=note)


def _by_construction(f0, act, s):
    """Whether the derivation law of s holds by construction: s is read
    through a substitution phi: R -> R' |x E' (``_s_map``), f0 is
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

    First each declared monomial value must be the value s takes there
    (``_check_declared``).

    Over a free R the law holds by construction when ``_by_construction``
    says its premises hold, and its certificate is EXHAUSTIVE with no tuple
    evaluated.  The lemma: phi is an algebra map, being a substitution into
    a commutative associative algebra.  Its R'-part and f0 are algebra maps
    that agree on B, so they are equal, and phi(rr') = phi(r)phi(r') reads,
    in the E'-component of (a, e)(a', e') = (aa', a > e' + a' > e + ee'), as
    the law above.  Otherwise the law is checked on law tuples.
    """
    _check_declared(R, s, declared, error)
    if _by_construction(f0, act, s):
        return EXHAUSTIVE

    def rhs(r, r2):
        sr, sr2 = s(r), s(r2)
        return act(f0(r), sr2) + act(f0(r2), sr) + sr * sr2

    return check_law([R, R], lambda r, r2: s(r * r2), rhs, error, policy)


def _check_declared(R, s, declared, error):
    """Each declared monomial value (see ``split_s_images``) must be the
    value s takes there; otherwise error((monomial,), declared, s(monomial))."""
    for mono, value in declared.items():
        r = R.basis_element(mono)
        forced = s(r)
        if forced != value:
            raise error((r,), value, forced)


def _s_error(A):
    """The error of an s-law over A: the derivation law of a crossed
    module's slice, else QDLawViolation("s-law")."""
    return DerivationLawViolation if A.slice_of is not None else partial(QDLawViolation, "s-law")


def split_s_images(R, E, images):
    """Split given s-data for s: R -> E into its images and declared
    monomial values.  Over a free R a monomial key declares a value that
    the derivation law forces, so it is checked, not used; each declared
    value must be owned by E.  Every other key is an image, on the R-basis
    of a finite R or on the generators of a free one, checked by
    ``maps.generator_images``: an unknown key, or any R neither finite nor
    free, raises BadShape, and a key with no image goes to zero."""
    free, declared, given = isinstance(R, FreeAlgebra), {}, {}
    for key, value in images.items():
        if free and isinstance(key, tuple):
            declared[R.check_key(key)] = E.owns(value)
        else:
            given[key] = value
    return generator_images(R, E, given), declared


def kept_key(policy, *tables):
    """The key a certified derivation is kept under on its base map: the
    policy and each normalized image table as a hashable value, each key
    with its coefficients."""
    return (policy, *(frozenset((k, frozenset(v.coeffs.items())) for k, v in images.items())
                      for images in tables))


def _normalize(f, s_images, t_images):
    """The inputs of a quadratic derivation, checked and normalized: the
    s-images and the declared monomial values of s (``split_s_images``),
    and t on the E-basis, checked by ``maps.generator_images``; the zero
    images of s and t are left out, since a zero image and a missing one
    give the same map."""
    A, B = f.src, f.tgt
    s_images, declared = split_s_images(A.R, B.E, s_images)
    # no t-images, as over a crossed module's slice: E may be any algebra
    t_images = generator_images(A.E, B.L, t_images) if t_images else {}
    return _nonzero(s_images), declared, _nonzero(t_images)


def _nonzero(images):
    """The images with the zero ones left out."""
    return {key: value for key, value in images.items() if value.coeffs}


class QuadraticDerivation:
    """A pair (s, t) over a 2-crossed morphism f, with its laws certified
    under ``policy``; a crossed derivation is one with t = 0 over the
    slices (``cm_homotopy``).

    ``s_images`` records s: R -> E' by its nonzero images on the R-basis
    (finite R) or on the free generators (free R, where s is evaluated
    through the algebra map r -> (f0(r), s(r)) into R' |x E'); t: E -> L'
    is given by its nonzero ``t_images`` on the E-basis, and is the zero
    map into an L' with no basis.  A key with no image goes to zero.
    ``certificates`` maps each law to its certificate.
    ``target`` is the target map, certified under the same policy when
    first read and then kept, or the certified map it equals
    (``_settle_target``)."""

    def __init__(self, f, s_images, s, t_images, t, certificates, policy):
        self.f = f
        self.s_images = s_images
        self.s = s
        self.t_images = t_images
        self.t = t
        self.certificates = certificates
        self.policy = policy

    @cached_property
    def target(self):
        return _qd_target(self)

    def same_s(self, other):
        """Same base map and the same s on a spanning set of R."""
        return self is other or (
            self.f.equal(other.f) and maps_agree(self.s, other.s, _skeleton(self.f.src.R))
        )

    def equal(self, other):
        """Same base map, the same s and the same t, which its nonzero
        images on the E-basis fix (none into an L' with no basis)."""
        return self is other or (self.same_s(other) and self.t_images == other.t_images)


def _t_action_premises(f, s_law):
    """Whether the laws that the t-action closure lemma uses are proved
    (see ``make_quadratic_derivation``): the s-law, f0, f's d1-square and
    f1-equivariance; A2 of the source's R-action on E and its
    d1-equivariance, which holds trivially when d1 vanishes on E; and in the
    target A2 of the R-action on L, d1' with its equivariance, 2XM3 and
    2XM6."""
    A, B = f.src, f.tgt
    d1_equivariance = (
        EXHAUSTIVE if all(A.d1(e).is_zero() for e in A.E.basis_elements())
        else A.certificates["d1-equivariance"]
    )
    return all(is_proof(c) for c in (
        s_law, f.f0.multiplicative, f.certificates["d1-square"], f.certificates["f1-equivariance"],
        A.act_e.certificate, d1_equivariance, B.act_l.certificate, B.d1.multiplicative,
        B.certificates["d1-equivariance"], B.certificates["2XM3"], B.certificates["2XM6"],
    ))


def make_quadratic_derivation(f, s_images, t_images, policy=DEFAULT_POLICY):
    """Certify the three quadratic derivation laws for (s, t) over f.

    s is given on the free basis B (free domain) or the R-basis; t on the
    E-basis.  Each law, and each of its two consequences on boundaries of
    L (transcription tripwires), is one ``check_law`` call: it raises
    QDLawViolation with the law id and witness, or gives the law its
    certificate.  Over the slices of crossed modules the s-law is their
    derivation law and raises DerivationLawViolation.  Every call
    certifies; the first derivation certified for this data under
    ``policy`` is kept on f for ``_quadratic``.

    Where the proofs come from: t-product and its boundary form are over
    the finite E and L, so they are checked on bases.  Over a free R the
    s-law holds by construction (``check_derivation_law``), and over a
    finite R it is checked on a basis.  t-action takes the generator rule
    (r on B over a free R, on its generating set G_R over a finite one;
    e over the E-basis) when ``_t_action_premises`` holds, by the closure
    lemma below, which uses no more of R than its associativity; otherwise
    it is checked on the basis of a finite R and sampled over a free one.
    t-action on boundaries is t-action at e = d2(l), rewritten by 2XM4,
    2XM5 and f's d2-square, so it is checked on the tuples t-action is
    checked on.  Into a target whose L' has no
    basis, as for a crossed module's slice, both sides of every t-law lie
    in L' = 0, so the t-laws hold by construction.  Out of a source whose
    E is 0 both t-laws are vacuous, and out of one whose L is 0 both
    boundary forms (``_t_laws``).

    The closure lemma.  Write a = f0(r), sigma = s(r), x = f1(e), z =
    s(d1 e), {-,-} for the target's lifting, and

        Psi(r, e) = a > t(e) + d1'(sigma) > t(e)
                    + {sigma, x} - {x, sigma} - {z, sigma},

    so t-action at r is t(r > e) = Psi(r, e) for every e; both sides are
    linear in r.  Let r1, r2 satisfy it, with a_i, sigma_i.  Then

        t(r1r2 > e) = t(r1 > (r2 > e)) = Psi(r1, r2 > e)

    by A2 of the source and t-action at r1.  Expand Psi(r1, r2 > e) with
    t-action at r2, f1(r2 > e) = a2 > x (f1-equivariance), d1(r2 > e) =
    r2 d1(e) (the source's d1-equivariance), the s-law at (r2, d1 e) and
    f0(d1 e) = d1'(x) (the d1-square).  The t-terms give ((a1 + d1'
    sigma1)(a2 + d1' sigma2)) > t(e) by A2 on L, and that product is
    f0(r1r2) + d1'(s(r1r2)) because f0 is multiplicative, d1' is
    multiplicative and equivariant, and s(r1r2) = a1 > sigma2 + a2 >
    sigma1 + sigma1 sigma2 (the s-law).  2XM6 moves each a_i inside the
    brackets, where the terms match those of Psi(r1r2, e).  What is left,
    by 2XM3 ({e, e2e3} = {ee2, e3} + d1'(e3) > {e, e2}) applied to {x,
    sigma1 sigma2}, {z, sigma1 sigma2}, {sigma2, x sigma1} and {sigma2,
    sigma1 x}, is

        d1'(x) > {sigma2, sigma1} - {d1'(x) > sigma2, sigma1},

    which is 0 by 2XM6.  So the r where t-action holds form a subspace
    closed under products, and the generator rule applies.
    """
    return _certify(f, *_entry(f, s_images, t_images, policy), policy)


def _entry(f, s_images, t_images, policy):
    """The data of a quadratic derivation normalized (``_normalize``), and
    the key it is kept under on f (``kept_key``)."""
    data = _normalize(f, s_images, t_images)
    return data, kept_key(policy, *data)


def _t_map(f, t_norm):
    """t: E -> L' from its nonzero E-basis images, which ``_normalize`` has
    checked: the zero map, over any E, into an L' with no basis; else the
    basis table (``maps.table_map``), which refuses an E with no finite
    basis."""
    A, B = f.src, f.tgt
    return zero_map(A.E, B.L) if B.L.dim() == 0 else table_map(A.E, B.L, t_norm)


def _certify(f, data, key, policy):
    """``make_quadratic_derivation`` on normalized data, kept on f under
    ``key`` unless a derivation is kept there already; its s-law over the
    slices of crossed modules is their derivation law and fails as
    DerivationLawViolation."""
    A, B = f.src, f.tgt
    s_images, declared, t_norm = data
    smap = _s_map(f, s_images, policy)
    certs = {"s-law": check_derivation_law(A.R, f.f0, B.act_e, smap, declared, _s_error(A), policy)}
    tmap = _t_map(f, t_norm)
    if B.L.dim() == 0:  # t = 0, and every side of a t-law lies in L' = 0
        certs["t-product"] = certs["t-action"] = EXHAUSTIVE
    else:
        certs.update(_t_laws(f, smap, tmap, certs["s-law"], policy))
    qd = QuadraticDerivation(f, s_images, smap, t_norm, tmap, certs, policy)
    f._homotopies.setdefault(key, qd)
    return qd


def _t_laws(f, smap, tmap, s_law, policy):
    """The certificates of t-product and t-action for (smap, tmap) over f,
    each law and its boundary form checked as ``make_quadratic_derivation``
    says, on the term tables of ``_T_LAWS``; raises QDLawViolation.

    Each law is decided on basis keys.  The value of a chain of maps at a
    slot's basis key (``_T_LAWS``) is a coefficient dict read from key
    images once per key and chain (``maps._compose``), into one table
    shared by the four laws, and each side is summed from its terms on
    them, a term with a zero argument being zero.  At a failing tuple the
    witness elements are built from the same values, extended linearly in
    r for a law over R, whose sides are lists over the basis of its other
    slot.

    A law each of whose sides is linear in an argument from an algebra of
    dimension 0 is vacuous: both sides vanish.  So over a source whose E
    is 0, t-product and t-action are EXHAUSTIVE with nothing drawn or
    evaluated, and over one whose L is 0, both boundary forms are skipped.
    ``_t_action_premises`` is read only when a law with an R-slot is
    checked."""
    A, B = f.src, f.tgt
    certs = dict.fromkeys(("t-product", "t-action"), EXHAUSTIVE)  # vacuous over E = 0
    if not A.E.basis_elements() and A.L.dim() == 0:  # every t-law is vacuous
        return certs
    L, ring, mul = B.L, B.L.ring, B.L.ring.mul
    sign = {1: ring.one, -1: ring.neg(ring.one)}
    t = tmap._image
    images = {"d1": A.d1._image, "d2": A.d2._image, "f0": f.f0._image, "f1": f.f1._image,
              "f2": f.f2._image, "s": smap._image, "t": t, "d1'": B.d1._image}
    ops = ({"mul": A.E.key_mul, "act_e": A.act_e._image},  # x: the source's, for t's argument
           {"mul": L.key_mul, "act_l": B.act_l._image, "act_prime": B.act_prime._image,
            "lift": B.lift._image})
    # chain -> key -> coefficient dict; the chain's first map fixes the key's algebra
    values = _Lazy(lambda chain: _Lazy(_compose(ring, [images[name] for name in reversed(chain)])))

    def law(name, generators=()):
        _, _, kinds, plan = _T_LAWS[name]
        terms = [(side, sign[s], ops[side][op], i, values[x], j, values[y])
                 for side, s, op, (i, x), (j, y) in plan]
        error = partial(QDLawViolation, name)

        def at(*keys):  # the two sides at one basis key per slot, as coefficient dicts
            out = ([], [])
            for side, s, image, i, x, j, y in terms:  # a zero argument gives no term
                b, add = y[keys[j]], out[side].append
                for k1, c1 in x[keys[i]].items():
                    c1 = mul(s, c1)
                    for k2, c2 in b.items():
                        add((mul(c1, c2), image(k1, k2).coeffs))
            return _extend(ring, combine(ring, out[0]), t), combine(ring, out[1])

        if kinds[0] == "r":  # over R; each side is a list over the basis of the other slot
            keys = (A.E if kinds[1] == "e" else A.L).basis_elements().keys

            def on_keys(rkeys):
                return next(((i,) for i, r in enumerate(rkeys) if any(ne(*at(r, k)) for k in keys)), None)

            def witness(side):  # linear in r
                return lambda r: [L.from_coeffs(combine(ring, [(c, at(rk, k)[side])
                                                               for rk, c in r.coeffs.items()])) for k in keys]

            return check_law([A.R], witness(0), witness(1), error, policy, on_keys=on_keys,
                             generators=generators)
        X = A.E if kinds[0] == "e" else A.L

        def on_keys(keys, keys2):
            return next(((i, j) for i, k in enumerate(keys) for j, k2 in enumerate(keys2)
                         if ne(*at(k, k2))), None)

        def witness(side):  # at a pair of basis elements, the law being exhaustive
            return lambda u, v: L.from_coeffs(at(unit_key(u), unit_key(v))[side])

        return check_law([X, X], witness(0), witness(1), error, policy, on_keys=on_keys)

    r_over_generators = (0,) if _t_action_premises(f, s_law) else ()
    if A.E.basis_elements():
        certs["t-product"] = law("t-product")
        certs["t-action"] = law("t-action", r_over_generators)
    if A.L.basis_elements():  # consequences on boundaries of L (tripwires); BadShape for no basis
        law("t-product-on-boundaries")
        law("t-action-on-boundaries", r_over_generators)
    return certs


def _t_law(slots, terms):
    """An entry of ``_T_LAWS`` from its slot names and its terms
    (``simplex._terms``): (slots, terms, kinds, plan), resolved once.  A
    slot's kind is its first letter, e, r or l, for E, R or L; the plan has
    each term as (side, sign, op, (slot, chain), (slot, chain)), side 0 for
    x and 1 for t, an argument being its slot's index and the names of the
    maps that chain applies to it, outermost first ("s", "d1" for s(d1(e)))."""
    def argument(arg):
        chain = (arg,) if isinstance(arg, str) else arg
        return slots.index(chain[-1]), chain[:-1]

    plan = tuple((int(out == "t"), s, op, argument(x), argument(y)) for s, out, op, x, y in terms)
    return slots, terms, tuple(slot[0] for slot in slots), plan


# The t-laws and their boundary forms on their slots, each t(x) = t (a
# second slot of a kind has the suffix 2): x is one product or action of
# the source, whose image under t is the left side, and t a sum of
# products, actions (act_l for >, act_prime for >') and liftings of the
# target.  An argument is a slot, or maps applied to one: the source's d1,
# d2 and the map f = (f0, f1, f2), s and t, and d1' for the target's d1.
# Each entry is text in the syntax of the tower's tables (``simplex._terms``),
# resolved once (``_t_law``); a comment above it prints the law.
_T_LAWS = {name: _t_law(tuple(slots.split()), _terms(text)) for name, (slots, text) in {
    # t(ee2) = {s d1 e, f1 e2} + {s d1 e2, f1 e} + f1 e >' t e2 + f1 e2 >' t e + s d1 e >' t e2
    #          + s d1 e2 >' t e + t(e) t(e2)
    "t-product": ("e e2", "x += mul(e, e2); "
                  "t += lift(s(d1(e)), f1(e2)); t += lift(s(d1(e2)), f1(e)); t += act_prime(f1(e), t(e2)); "
                  "t += act_prime(f1(e2), t(e)); t += act_prime(s(d1(e)), t(e2)); "
                  "t += act_prime(s(d1(e2)), t(e)); t += mul(t(e), t(e2))"),
    # t(r > e) = f0 r > t e + d1' s r > t e + {s r, f1 e} - {f1 e, s r} - {s d1 e, s r}
    "t-action": ("r e", "x += act_e(r, e); "
                 "t += act_l(f0(r), t(e)); t += act_l(d1'(s(r)), t(e)); t += lift(s(r), f1(e)); "
                 "t -= lift(f1(e), s(r)); t -= lift(s(d1(e)), s(r))"),
    # t(d2 l d2 l2) = f2 l t d2 l2 + f2 l2 t d2 l + t d2 l t d2 l2
    "t-product-on-boundaries": ("l l2", "x += mul(d2(l), d2(l2)); "
                                "t += mul(f2(l), t(d2(l2))); t += mul(f2(l2), t(d2(l))); "
                                "t += mul(t(d2(l)), t(d2(l2)))"),
    # t(r > d2 l) = f0 r > t d2 l + d1' s r > f2 l + d1' s r > t d2 l
    "t-action-on-boundaries": ("r l", "x += act_e(r, d2(l)); "
                               "t += act_l(f0(r), t(d2(l))); t += act_l(d1'(s(r)), f2(l)); "
                               "t += act_l(d1'(s(r)), t(d2(l)))"),
}.items()}


def _quadratic(f, s_images, t_images, policy):
    """The quadratic derivation kept on f for this data under ``policy``,
    or a newly certified one."""
    data, key = _entry(f, s_images, t_images, policy)
    kept = f._homotopies.get(key)
    return kept if kept is not None else _certify(f, data, key, policy)


def zero_quadratic(f, policy=DEFAULT_POLICY):
    """The zero homotopy f => f, built with no law checked.

    The zero lemma.  Each law of a quadratic derivation is linear in s or
    in t: every term of the s-law has a factor s, and every term of
    t-product and t-action a factor s or t (``_T_LAWS``).  So (s, t) =
    (0, 0) satisfies all three for every f, and its three certificates are
    EXHAUSTIVE by construction.  Over a free R, s is read through phi
    (``_s_map``), whose images (f0(b), 0) lie in the subalgebra R' |x 0 of
    R' |x E', so s = 0 on all of R.  The target (f0 + d1' o 0,
    f1 + 0 o d1 + d2' o 0, f2 + 0 o d2) is f itself.

    s and t are built as ``_certify`` builds them (``_s_map``, ``_t_map``),
    so every shape it refuses is refused here too.  The derivation is kept
    on f under the key of its data, and one already kept there is returned
    instead.  Its target is f when ``_is_target`` shows it, which for a
    zero homotopy asks only its certificate premise; otherwise the target
    is certified when first read."""
    (s_images, _, t_norm), key = _entry(f, {}, {}, policy)
    qd = f._homotopies.get(key)
    if qd is None:
        certs = dict.fromkeys(("s-law", "t-product", "t-action"), EXHAUSTIVE)
        qd = f._homotopies[key] = QuadraticDerivation(
            f, s_images, _s_map(f, s_images, policy), t_norm, _t_map(f, t_norm), certs, policy
        )
    return _settle_target(qd, f)


def _target_formulas(qd):
    """g0, g1 and g2 of qd's target as formulas, the one place they are
    written: f0 + d1' o s as a ``maps.KeyImageMap`` (its key image summed
    from the key images of f0, s and d1'), and f1 + s o d1 + d2' o t and
    f2 + t o d2 on basis elements."""
    f, s, t = qd.f, qd.s, qd.t
    A, B = f.src, f.tgt
    ring, one = B.R.ring, B.R.ring.one
    return (
        KeyImageMap(A.R, B.R, lambda k: B.R.from_coeffs(combine(ring, [
            (one, f.f0._image(k).coeffs), (one, _extend(ring, s._image(k).coeffs, B.d1._image))])), "g0"),
        lambda e: f.f1(e) + s(A.d1(e)) + B.d2(t(e)),
        lambda l: f.f2(l) + t(A.d2(l)),
    )


def _g0_premises(qd):
    """Whether the lemma of ``_qd_target`` makes g0 = f0 + d1' o s an
    algebra map over a free R: the s-law, d1' and its equivariance are
    proved."""
    B = qd.f.tgt
    proofs = (qd.certificates["s-law"], B.d1.multiplicative, B.certificates["d1-equivariance"])
    return isinstance(qd.f.src.R, FreeAlgebra) and all(map(is_proof, proofs))


def _g0_tripwire(qd, g0, formula):
    """g0 compared with the formula f0 + d1' o s on the policy's sampled r
    of R: the two key images at each monomial they span, once each
    (``maps.check_law`` with ``maps.agree_on_keys``), and both maps on the
    witness r where they differ, raising MorphismViolation."""
    on_keys = agree_on_keys(lambda k: g0._image(k).coeffs, lambda k: formula._image(k).coeffs)
    check_law([qd.f.src.R], g0, formula, partial(MorphismViolation, msg="g0 differs from f0 + d'.s"),
              qd.policy, on_keys=on_keys)


def _g0_substitution(qd, formula):
    """g0 built as the substitution b -> f0(b) + d1'(s(b)) over a free R,
    with the formula as a tripwire (``_g0_tripwire``) on the new map, when
    the lemma of ``_qd_target`` has its premises (``_g0_premises``); else
    None.  ``_qd_target`` is its one caller: a known target is compared
    with the formula itself (``_is_target``)."""
    if not _g0_premises(qd):
        return None
    A, B = qd.f.src, qd.f.tgt
    images = {b: formula._image((b,)) for b in A.R.generators}
    g0 = algebra_morphism(A.R, B.d1.target, images=images, note="g0")
    _g0_tripwire(qd, g0, formula)
    return g0


def _qd_target(qd):
    """The target map (g0, g1, g2) of qd, certified under qd's policy.

    g0 = f0 + d1' o s: R -> R'.  The lemma: pi(a, e) = a + d1'(e) is an
    algebra map R' |x E' -> R' when d1' is multiplicative and equivariant,
    since

        pi((a, e)(a', e')) = aa' + d1'(a > e' + a' > e + ee')
                           = aa' + a d1'(e') + a' d1'(e) + d1'(e) d1'(e')
                           = pi(a, e) pi(a', e').

    By the s-law, phi: r -> (f0(r), s(r)) is an algebra map, so g0 =
    pi o phi is one; over a free R it is the substitution b -> f0(b) +
    d1'(s(b)).  When the s-law, d1' and its equivariance are proved, g0 is
    built so (EXHAUSTIVE by construction, ``_g0_substitution``), and
    f0 + d1' o s stays as a tripwire on the policy's sampled r, evaluated
    once per spanned monomial (``_g0_tripwire``).  Otherwise g0 is the
    formula map, certified multiplicative on law tuples.

    A target known in advance.  The target of a zero homotopy on f is f,
    of s [+] s' the target of s', and of sbar the source f of s.  There
    ``_settle_target`` takes that certified map m as the target, with no
    second certification, when ``_is_target`` shows the two equal:

    * a homotopy with s = 0 and t = 0 has its base map f as its target,
      by the zero lemma of ``zero_quadratic``, with no map compared;
    * linear maps that agree on a basis are equal, which covers g1 and g2
      over the finite E and L, and g0 over a finite R;
    * over a free R, algebra maps that agree on B are equal: g0 is one by
      the lemma above, so its premises must be proved, and so must the
      multiplicativity of m's f0.  f0 + d1' o s is compared with m's f0 on
      B, with no g0 built, and the tripwire then compares m's f0 itself
      with the formula on the sampled r, raising MorphismViolation where
      they differ.

    The other premises: m runs between the very structures of qd's base
    map, and each of m's five laws and the multiplicativity of its three
    maps is EXHAUSTIVE or the sampled certificate of qd's policy.  Under
    them a certification of (g0, g1, g2) would prove no law that m does not
    prove as strongly: over a finite R every law is over bases, and over a
    free R each equivariance law takes the generator rule for m exactly
    when it would for g, and a vacuous law is EXHAUSTIVE for both.  When a
    premise fails or the maps differ on a spanning set, the target is
    certified here when first read, so the tripwires of ``concat_2cm`` and
    ``invert_2cm`` raise what they always raised.
    """
    A, B, policy = qd.f.src, qd.f.tgt, qd.policy
    g0f, g1f, g2f = _target_formulas(qd)
    g0 = _g0_substitution(qd, g0f)
    if g0 is None:
        g0 = g0f
        certify_multiplicative(g0, policy)
    g1 = algebra_morphism(A.E, B.E, fn=g1f, policy=policy, note="g1")
    g2 = algebra_morphism(A.L, B.L, fn=g2f, policy=policy, note="g2")
    return make_2cm_morphism(A, B, g0, g1, g2, policy)


def _is_target(qd, m):
    """Whether the certified map m is qd's target, by the premises and
    spanning sets of the lemma in ``_qd_target``: the certificate premise
    always, then, unless qd is zero and m its base map (the zero lemma),
    the formulas of ``_target_formulas`` compared with m's maps on spanning
    sets.  Over a free R that is f0 + d1' o s against m's certified f0 on
    B, with no g0 built, and then the tripwire (``_g0_tripwire``) of m's f0
    against the formula on sampled r, which raises MorphismViolation when
    they differ there."""
    A, B = qd.f.src, qd.f.tgt
    sampled = qd.policy.certificate
    certs = [m.certificates.get(law) for law in MORPHISM_LAWS]
    certs += [m.f0.multiplicative, m.f1.multiplicative, m.f2.multiplicative]
    if m.src is not A or m.tgt is not B or not all(c is not None and (c.exhaustive or c == sampled)
                                                   for c in certs):
        return False
    if m is qd.f and not qd.t_images and not qd.s_images:
        return True  # the zero lemma of zero_quadratic
    if not (A.E.is_finite() and A.L.is_finite()):
        return False
    free = not A.R.is_finite()
    if free and not (is_proof(m.f0.multiplicative) and _g0_premises(qd)):
        return False
    g0, g1, g2 = _target_formulas(qd)
    if not (maps_agree(g0, m.f0, _skeleton(A.R))
            and maps_agree(g1, m.f1, A.E.basis_elements())
            and maps_agree(g2, m.f2, A.L.basis_elements())):
        return False
    if free:
        _g0_tripwire(qd, m.f0, g0)
    return True


def _settle_target(qd, m):
    """qd, whose target is m when ``_is_target(qd, m)`` and it is not read
    yet; otherwise the target is certified when first read, as ever."""
    if "target" not in vars(qd) and _is_target(qd, m):
        qd.target = m
    return qd


def apply_2cm_homotopy(qd, policy=DEFAULT_POLICY):
    """The data of qd certified under ``policy``, with its target map
    certified: qd itself when it was certified under ``policy``."""
    if qd.policy != policy:
        qd = _quadratic(qd.f, qd.s_images, qd.t_images, policy)
    qd.target  # certified here, not at its first later read
    return qd


def _check_composable(h1, h2):
    if not h1.target.equal(h2.f):
        raise CompositionMismatch(
            "target of the first homotopy differs from the base of the second"
        )


def extend_derivation(f, s_star, policy=DEFAULT_POLICY):
    """The unique f0-derivation extending a set map B -> E'.

    Realized by evaluating the algebra map r -> (f0(r), s(r)) into
    R' |x E' by substitution; the derivation law holds by construction.
    A monomial key of s_star declares the value s takes there, and is
    checked as ``make_quadratic_derivation`` checks it (``_check_declared``,
    raising the s-law's error).
    """
    A, B = f.src, f.tgt
    _require_free(A)
    images, declared = split_s_images(A.R, B.E, s_star)
    s = _s_map(f, images, policy)
    _check_declared(A.R, s, declared, _s_error(A))
    return s


def _t_keys(A, B):
    """The E-keys that a composite's or an inverse's t-images over A -> B
    are given on: none into a target whose L' has no basis, where t = 0
    (so E may be infinite), else the E-basis."""
    return A.E.basis_keys() if B.L.dim() else ()


def _sum_images(h1, h2):
    """(s + s')|B, the generator images of s [+] s'."""
    zero = h1.f.tgt.E.zero()
    return {b: h1.s_images.get(b, zero) + h2.s_images.get(b, zero) for b in _s_keys(h1.f.src, h1.f.tgt)}


def box_plus_s(h1, h2, policy=DEFAULT_POLICY):
    """s [+] s': the f0-derivation extending (s + s')|B."""
    _check_composable(h1, h2)
    return extend_derivation(h1.f, _sum_images(h1, h2), policy)


def _triangle_map(f, images1, images2, policy=DEFAULT_POLICY):
    """The unique algebra map R -> Lam2(B) with b -> (f0(b), s(b), s'(b), 0),
    and the tower of B it maps into, at least its lower stage."""
    return _tower_map(f, 2, (images1, images2, {}), policy, "X")


def x_map(h1, h2, r, policy=DEFAULT_POLICY):
    """X^(s,s')(r) in the algebra of 2-simplices of the target.

    The component form (f0(r), s(r), s'(r) - d2'(w(r)), w(r)) is
    cross-checked against the independently computed s(r) and
    (s [+] s')(r) through the faces d0 and d1."""
    _check_composable(h1, h2)
    f = h1.f
    tower, X = _triangle_map(f, h1.s_images, h2.s_images, policy)
    value = X(r)
    c0, c1, c2, c3 = tower.split2(value)
    s1r = h1.s(r)
    if c0 != f.f0(r) or c1 != s1r:
        raise XmodError("triangle map components disagree with f0/s (transcription bug)")
    box_r = extend_derivation(f, _sum_images(h1, h2), policy)(r)
    if box_r != c1 + c2:
        raise XmodError("triangle map d1-face disagrees with s [+] s'")
    if box_r != s1r + h2.s(r) - f.tgt.d2(c3):
        raise XmodError("w-correction identity fails (transcription bug)")
    return value


def _pair_w(f, images1, images2, r, policy=DEFAULT_POLICY):
    """w for a raw pair of basis-image tables over the base f: the
    L'-component of X(r), the one place w is read.  w is linear, so w(0) =
    0 without building X, and w = 0 when L' has no basis; concatenation and
    inversion read w at d1(e), which is 0 on every free domain the groupoid
    accepts."""
    _s_keys(f.src, f.tgt)
    if f.src.R.owns(r).is_zero() or f.tgt.L.dim() == 0:
        return f.tgt.L.zero()
    tower, X = _triangle_map(f, images1, images2, policy)
    return tower.split2(X(r))[3]


def w_map(h1, h2, r, policy=DEFAULT_POLICY):
    """w^(s,s')(r): the L'-component of X^(s,s')(r); vanishes on B."""
    _check_composable(h1, h2)
    return _pair_w(h1.f, h1.s_images, h2.s_images, r, policy)


def box_plus_t(h1, h2, e, policy=DEFAULT_POLICY):
    """(t [+] t')(e) = t(e) + t'(e) + w^(s,s')(d1(e)); composability is
    checked by w_map."""
    w = w_map(h1, h2, h1.f.src.d1(e), policy)
    return h1.t(e) + h2.t(e) + w


def concat_2cm(h1, h2, policy=DEFAULT_POLICY):
    """(s [+] s', t [+] t'): certified under ``policy`` as a quadratic
    derivation from the source of the first to the target of the second."""
    _check_composable(h1, h2)
    A = h1.f.src
    s_images = _sum_images(h1, h2)
    t_images = {k: box_plus_t(h1, h2, A.E.basis_element(k), policy) for k in _t_keys(A, h1.f.tgt)}
    out = _settle_target(_quadratic(h1.f, s_images, t_images, policy), h2.target)
    if not out.target.equal(h2.target):
        raise XmodError("concatenation target mismatch (transcription bug)")
    return out


def invert_2cm(h, policy=DEFAULT_POLICY):
    """The groupoid inverse, certified under ``policy``: sbar extends
    -s|B as a g0-derivation (or is -s, see ``_s_keys``) and tbar = -t -
    w^(s,sbar) o d1; both concatenations are the zero homotopy, exactly."""
    A = h.f.src
    zero = h.f.tgt.E.zero()
    sbar_images = {b: -h.s_images.get(b, zero) for b in _s_keys(A, h.f.tgt)}
    tbar_images = {}
    for k in _t_keys(A, h.f.tgt):
        e = A.E.basis_element(k)
        w = _pair_w(h.f, h.s_images, sbar_images, A.d1(e), policy)
        tbar_images[k] = -h.t(e) - w
    out = _settle_target(make_quadratic_derivation(h.target, sbar_images, tbar_images, policy), h.f)
    if not out.target.equal(h.f):
        raise XmodError("inverse does not recover the source map (transcription bug)")
    return out


def _triple_w(h1, h2, h3, r, policy):
    """For a composable triple at r: the images of s' [+] s'', and
    w^(s,s'), w^(s',s''), w^(s[+]s',s'')."""
    _check_composable(h1, h2)
    _check_composable(h2, h3)
    f = h1.f
    w12 = _pair_w(f, h1.s_images, h2.s_images, r, policy)
    w23 = _pair_w(h2.f, h2.s_images, h3.s_images, r, policy)
    w12_3 = _pair_w(f, _sum_images(h1, h2), h3.s_images, r, policy)
    return _sum_images(h2, h3), w12, w23, w12_3


def z_map(h1, h2, h3, r, policy=DEFAULT_POLICY):
    """Z(r) in the algebra of 3-simplices of the target, for a composable
    triple; extends b -> (f0(b), s(b), s'(b), 0, s''(b), 0, 0).

    Verifies the component form

        (f0, s, s' - d2'w^(s,s'), w^(s,s'),
         s'' - d2'w^(s[+]s',s''), w^(s[+]s',s'') - w^(s',s''), w^(s',s''))

    and that the d1-face is X^(s, s'[+]s'') (the back face of the
    tetrahedron)."""
    box23, w12, w23, w12_3 = _triple_w(h1, h2, h3, r, policy)
    f, B = h1.f, h1.f.tgt
    tower, Z = _tower_map(f, 3, (h1.s_images, h2.s_images, {}, h3.s_images, {}, {}), policy, "Z")
    _, back = _triangle_map(f, h1.s_images, box23, policy)
    value = Z(r)
    expected = (
        f.f0(r),
        h1.s(r),
        h2.s(r) - B.d2(w12),
        w12,
        h3.s(r) - B.d2(w12_3),
        w12_3 - w23,
        w23,
    )
    for i, (got, want) in enumerate(zip(tower.split3(value), expected)):
        if got != want:
            raise XmodError("tetrahedron component %d disagrees (transcription bug)" % i)

    if tower.faces[(3, 1)](value) != back(r):
        raise XmodError("d1 of the tetrahedron is not the back triangle (transcription bug)")
    return value


def check_w_change(h1, h2, h3, r, policy=DEFAULT_POLICY):
    """Exact check of w^(s,s')(r) + w^(s[+]s',s'')(r)
    = w^(s,s'[+]s'')(r) + w^(s',s'')(r); returns (ok, lhs, rhs).

    The identity is the tetrahedron's (see ``z_map``), so the whole tower
    of the target, Lam3 included, is certified before it is reported."""
    box23, w12, w23, w12_3 = _triple_w(h1, h2, h3, r, policy)
    get_tower(h1.f.tgt, policy)
    lhs = w12 + w12_3
    rhs = _pair_w(h1.f, h1.s_images, box23, r, policy) + w23
    return lhs == rhs, lhs, rhs


def bracketings(d1, d2, d3, policy):
    """(d1 d2) d3 and d1 (d2 d3) for a composable triple, each composite
    formed by ``concat_2cm`` under ``policy``."""
    return (concat_2cm(concat_2cm(d1, d2, policy), d3, policy),
            concat_2cm(d1, concat_2cm(d2, d3, policy), policy))


def groupoid_check(A, B, samples, seed, policy, names, draws, more=None):
    """Sample derivation chains A -> B and check the groupoid laws of
    either layer exactly; returns report entries (name, ok, witness).

    ``names`` is the layer's (prefix, validity law, associativity law),
    ``draws`` its (random morphism, random derivation).  Each sample draws
    f and a chain d1: f => g, d2, d3 from one Random(seed); if one of them
    or its target fails certification, the validity law is false with the
    error as witness.  Otherwise come the units, inverses, s-associativity
    and the relation's laws, then the (law, ok, witness) triples of
    ``more(rng, d1, d2, d3, left, right)``.  The zero, concatenation and
    inverse are the 2-crossed ones for both layers; their targets are f,
    the second homotopy's target and the source map, taken as those
    certified maps when ``_settle_target`` shows them equal, else certified
    when read.
    """
    prefix, valid, associative = names
    random_morphism, random_derivation = draws
    rng = random.Random(seed)
    entries = []

    def note(law, ok, witness=None):  # i is the current sample
        entries.append(("%s/%02d/%s" % (prefix, i, law), ok, witness))

    for i in range(samples):
        f = random_morphism(A, B, rng, policy=policy)
        try:  # each drawn derivation's target is certified when read
            d1 = random_derivation(f, rng, policy=policy)
            g = d1.target
            d2 = random_derivation(g, rng, policy=policy)
            d3 = random_derivation(d2.target, rng, policy=policy)
            d3.target
        except LawViolation as exc:
            note(valid, False, str(exc))
            continue
        note(valid, True)

        zf, zg = zero_quadratic(f, policy), zero_quadratic(g, policy)
        note("reflexive-zero", zf.target.equal(f))
        note("identity-left", concat_2cm(zf, d1, policy).equal(d1))
        note("identity-right", concat_2cm(d1, zg, policy).equal(d1))
        inv = invert_2cm(d1, policy)
        note("symmetric", inv.target.equal(f))
        note("inverse-right", concat_2cm(d1, inv, policy).equal(zf))
        note("inverse-left", concat_2cm(inv, d1, policy).equal(zg))
        left, right = bracketings(d1, d2, d3, policy)
        note(associative, left.same_s(right))
        note("transitive", left.target.equal(d3.target))
        if more:
            for law, ok, witness in more(rng, d1, d2, d3, left, right):
                note(law, ok, witness)
    return entries


def tcm_groupoid_check(A, B, samples=25, seed=0, policy=DEFAULT_POLICY):
    """The groupoid laws (``groupoid_check``) on sampled homotopy chains of
    2-crossed module maps A -> B, then associativity of the t-components
    and w-change at one random r per triple.  Returns report entries
    (name, ok, witness)."""
    _s_keys(A, B)
    ebasis = A.E.basis_elements()

    def more(rng, h1, h2, h3, left, right):
        yield "t-associative", all(left.t(e) == right.t(e) for e in ebasis), None
        r = random_element(A.R, rng, policy.max_degree)
        ok, lhs, rhs = check_w_change(h1, h2, h3, r, policy)
        yield "w-change", ok, None if ok else "%s != %s" % (lhs, rhs)

    names = ("tcm", "targets-valid", "s-associative")
    draws = (random_2cm_morphism, random_quadratic_derivation)
    return groupoid_check(A, B, samples, seed, policy, names, draws, more)
