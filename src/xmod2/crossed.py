"""Pre-crossed, crossed, and 2-crossed modules of commutative algebras.

A 2-crossed module is a complex L -d2-> E -d1-> R with R-actions on E and
L (preserved by d1 and d2), and a Peiffer lifting {-,-}: E x E -> L subject
to the axioms 2XM1..2XM6.  The lifting axiom 2XM5 defines an action of E
on L, e >' l = {e (x) d2(l)}, and (d2: L -> E, >') is itself a crossed
module; that derived structure is certified along with the axioms.

A crossed module E -> R is the L = 0 slice 0 -> E -> R of a 2-crossed
module, with zero lifting (``as_two_crossed``): 2XM1 is then its Peiffer
identity and d1-equivariance its XM1.  Its maps are the 2-crossed maps of
the slices with f2 = 0, so ``make_cm_morphism`` is ``make_2cm_morphism``
on the slices, whose d1-square and f1-equivariance are the crossed square
and equivariance and whose other laws hold on L = 0.

Validation is exhaustive on finite bases.  The laws linear in r, XM1 and
d1-equivariance, d2-equivariance and 2XM6, take the generator rule of
``maps.check_law``: r on B over a free R, on G_R over a finite R whose
product is proved, the other slots over their bases.  The rule's premises
are the A2 laws its closure lemma uses (``make_precrossed``,
``make_two_crossed``): A2 of the action on E for XM1 and d1-equivariance,
of both actions for d2-equivariance and 2XM6, each read off the action's
certificate, which covers A1 and A2.  An action whose certificate is sampled or missing leaves the
law to the basis check, or, when a slot is infinite, to generator tuples
plus sampled ones, and the law is stamped with that certificate.
"""

from functools import partial

from .algebra import FiniteAlgebra, FreeAlgebra, make_finite_algebra, zero_algebra
from .errors import (
    AxiomViolation,
    BadShape,
    CompositeNonzero,
    EquivarianceViolation,
    LiftingViolation,
    NotAnIdeal,
    SquareViolation,
    XM1Violation,
    XM2Violation,
    XmodError,
)
from .maps import (
    DEFAULT_POLICY,
    EXHAUSTIVE,
    BilinearMap,
    TableAction,
    algebra_morphism,
    certify_action,
    check_law,
    identity_map,
    is_proof,
    make_action,
    morphisms_equal,
    zero_action,
    zero_bilinear,
    zero_map,
)
from .rings import nullspace, solve_in_span


class PreCrossedModule:
    """An algebra map d: E -> R with an R-action on E satisfying XM1."""

    def __init__(self, E, R, d, act):
        self.E = E
        self.R = R
        self.d = d
        self.act = act
        self.certificates = {}
        self._slices = {}  # Policy -> the L = 0 slice, filled by as_two_crossed

    @property
    def ring(self):
        return self.R.ring

    def __repr__(self):
        return "%s<%r -> %r>" % (type(self).__name__, self.E, self.R)


class CrossedModule(PreCrossedModule):
    """A pre-crossed module also satisfying XM2 (Peiffer identity)."""


def _check_precrossed_shape(E, R, d, act):
    if not (d.source.compatible(E) and d.target.compatible(R)):
        raise BadShape("boundary map endpoints do not match (E, R)")
    if not (act.acting.compatible(R) and act.acted.compatible(E)):
        raise BadShape("action endpoints do not match (R, E)")


def _r_slot(*premises):
    """The generator slot (0,) of a law linear in r when every certificate
    its closure lemma rests on is a proof, else (): the law is then checked
    on the basis, or sampled."""
    return (0,) if all(is_proof(c) for c in premises) else ()


def make_precrossed(E, R, d, act, policy=DEFAULT_POLICY):
    """Build and certify a pre-crossed module: XM1, d(r > e) = r d(e).

    XM1 takes the generator rule of ``maps.check_law`` (r on B over a free
    R, on G_R over a finite one) when A2 of the action is proved.  The
    closure lemma: let S be the set of r with d(r > e) = r d(e) for every
    e.  For r1, r2 in S and every e,

        d(r1r2 > e) = d(r1 > (r2 > e))    A2
                    = r1 d(r2 > e)        r1 in S
                    = r1 r2 d(e)          r2 in S

    so S is closed under products.
    """
    _check_precrossed_shape(E, R, d, act)
    pcm = PreCrossedModule(E, R, d, act)
    pcm.certificates["XM1"] = check_law(
        [R, E], lambda r, e: d(act(r, e)), lambda r, e: r * d(e), XM1Violation, policy,
        generators=_r_slot(act.certificate),
    )
    return pcm


def make_crossed(E, R, d, act, policy=DEFAULT_POLICY):
    pcm = make_precrossed(E, R, d, act, policy)
    cm = CrossedModule(E, R, d, act)
    cm.certificates.update(pcm.certificates)
    cm.certificates["XM2"] = check_law(
        [E, E], lambda e, e2: act(d(e), e2), lambda e, e2: e * e2, XM2Violation, policy
    )
    return cm


def ideal_inclusion_cm(R, ideal_labels, policy=DEFAULT_POLICY):
    """The crossed module E -> R of an ideal E of R, with inclusion and
    the multiplication action.  Raises NotAnIdeal when the span of the
    chosen labels is not closed under multiplication by R."""
    if not isinstance(R, FiniteAlgebra):
        raise BadShape("ideal inclusion needs a finite-dimensional ambient algebra")
    ideal_labels = tuple(ideal_labels)
    labelset = set(ideal_labels)
    unknown = [l for l in ideal_labels if l not in set(R.labels)]
    if unknown:
        raise BadShape("labels %r are not in the basis of %r" % (unknown, R))
    for r in R.labels:
        for e in ideal_labels:
            prod = R.key_mul(r, e)
            escaped = [k for k in prod.coeffs if k not in labelset]
            if escaped:
                raise NotAnIdeal((r, e), "product %s*%s leaves the span" % (r, e))

    table = {(i, j): R.key_mul(i, j).coeffs for i in ideal_labels for j in ideal_labels}
    E = make_finite_algebra(ideal_labels, table, R.ring)
    d = algebra_morphism(E, R, images={l: R.basis_element(l) for l in ideal_labels}, policy=policy)
    act_table = {}
    for r in R.labels:
        act_table[r] = {e: E.element(dict(R.key_mul(r, e).coeffs)) for e in ideal_labels}

    act = make_action(R, E, act_table, policy)
    return make_crossed(E, R, d, act, policy)


# ---------------------------------------------------------------------------
# 2-crossed modules


class TwoCrossedModule:
    """The tuple (L, E, R, d2, d1, actions, Peiffer lifting).

    ``slice_of`` is the crossed module this is the L = 0 slice of
    (``as_two_crossed``), else None.
    """

    def __init__(self, L, E, R, d2, d1, act_e, act_l, lift):
        self.L = L
        self.E = E
        self.R = R
        self.d2 = d2
        self.d1 = d1
        self.act_e = act_e
        self.act_l = act_l
        self.lift = lift
        self.certificates = {}
        self.slice_of = None
        self._prime = None
        self._towers = {}  # Policy -> SimplexTower, whole or its lower stage: simplex.get_tower

    @property
    def free_basis(self):
        """The basis B on which the structure is free up to order one: the
        generators of R when R is a free algebra, else None.  The homotopy
        groupoid operations need it (``tcm_homotopy``)."""
        return self.R.generators if isinstance(self.R, FreeAlgebra) else None

    @property
    def act_prime(self):
        """The derived action of E on L: e >' l = {e (x) d2(l)}."""
        if self._prime is None:
            table = {}
            for ek in self.E.basis_keys() if self.L.dim() else ():  # zero on L = 0, for any E
                e = self.E.basis_element(ek)
                table[ek] = {lk: self.lift(e, self.d2(self.L.basis_element(lk))) for lk in self.L.basis_keys()}
            self._prime = TableAction(self.E, self.L, table)
        return self._prime

    def compatible(self, other):
        """The same structure: compatible algebras, equal boundaries, the
        same two actions and an equal lifting."""
        return self is other or (
            self.L.compatible(other.L)
            and self.E.compatible(other.E)
            and self.R.compatible(other.R)
            and morphisms_equal(self.d1, other.d1)
            and morphisms_equal(self.d2, other.d2)
            and self.act_e.same(other.act_e)
            and self.act_l.same(other.act_l)
            and self.lift.same(other.lift)
        )

    def __repr__(self):
        return "TwoCrossedModule<%r -> %r -> %r>" % (self.L, self.E, self.R)


def make_two_crossed(L, E, R, d2, d1, act_e, act_l, lift, policy=DEFAULT_POLICY):
    """Build and certify a 2-crossed module.

    Checks, in order: d1 o d2 = 0; both boundaries preserve the R-actions;
    the lifting axioms 2XM1..2XM6; and that (d2: L -> E, >') is a crossed
    module for the derived action.  Witnessed failures raise AxiomViolation
    (with the axiom id) or the matching specific error.

    The three laws linear in r take the generator rule of
    ``maps.check_law`` (r on B over a free R, on G_R over a finite one)
    when the A2 laws their closure lemmas use are proved: A2 of act_e for
    d1-equivariance, A2 of act_e and act_l for d2-equivariance and 2XM6.
    In each lemma S is the set of r for which the law holds for every value
    of the other slots, and r1, r2 are in S.

    d1-equivariance, d1(r > e) = r d1(e), as XM1 (``make_precrossed``):

        d1(r1r2 > e) = d1(r1 > (r2 > e)) = r1 d1(r2 > e) = r1 r2 d1(e)

    by A2 on E, then r1 in S, then r2 in S.

    d2-equivariance, d2(r > l) = r > d2(l):

        d2(r1r2 > l) = d2(r1 > (r2 > l))     A2 on L
                     = r1 > d2(r2 > l)        r1 in S
                     = r1 > (r2 > d2(l))      r2 in S
                     = r1r2 > d2(l)           A2 on E

    2XM6, r > {e (x) e'} = {r > e (x) e'} = {e (x) r > e'}, on the left
    (the right is the same with the action moved to e'):

        r1r2 > {e (x) e'} = r1 > (r2 > {e (x) e'})    A2 on L
                          = r1 > {r2 > e (x) e'}       r2 in S
                          = {r1 > (r2 > e) (x) e'}     r1 in S
                          = {r1r2 > e (x) e'}          A2 on E

    So S is closed under products.  Without its premises a law is checked
    as the other laws are.
    """
    if not (d2.source.compatible(L) and d2.target.compatible(E)):
        raise BadShape("d2 endpoints do not match (L, E)")
    if not (d1.source.compatible(E) and d1.target.compatible(R)):
        raise BadShape("d1 endpoints do not match (E, R)")
    if not (act_e.acting.compatible(R) and act_e.acted.compatible(E)):
        raise BadShape("R-action on E has wrong endpoints")
    if not (act_l.acting.compatible(R) and act_l.acted.compatible(L)):
        raise BadShape("R-action on L has wrong endpoints")
    if not (lift.left.compatible(E) and lift.right.compatible(E) and lift.target.compatible(L)):
        raise BadShape("Peiffer lifting has wrong endpoints")

    A = TwoCrossedModule(L, E, R, d2, d1, act_e, act_l, lift)
    certs = A.certificates

    def run(name, algebras, lhs, rhs, error, generators=()):
        certs[name] = check_law(algebras, lhs, rhs, error, policy, generators=generators)

    on_e, on_both = _r_slot(act_e.certificate), _r_slot(act_e.certificate, act_l.certificate)
    run("d1.d2=0", [L], lambda l: d1(d2(l)), lambda l: R.zero(), CompositeNonzero)
    run(
        "d2-equivariance", [R, L], lambda r, l: d2(act_l(r, l)), lambda r, l: act_e(r, d2(l)),
        partial(EquivarianceViolation, msg="d2 does not preserve the action"), on_both,
    )
    run(
        "d1-equivariance", [R, E], lambda r, e: d1(act_e(r, e)), lambda r, e: r * d1(e), XM1Violation,
        on_e,
    )

    prime = A.act_prime
    run(
        "2XM1", [E, E], lambda e, e2: d2(lift(e, e2)), lambda e, e2: e * e2 - act_e(d1(e2), e),
        partial(AxiomViolation, "2XM1"),
    )
    run(
        "2XM2", [L, L], lambda l, l2: lift(d2(l), d2(l2)), lambda l, l2: l * l2,
        partial(AxiomViolation, "2XM2"),
    )
    run(
        "2XM3", [E, E, E], lambda e, e2, e3: lift(e, e2 * e3),
        lambda e, e2, e3: lift(e * e2, e3) + act_l(d1(e3), lift(e, e2)),
        partial(AxiomViolation, "2XM3"),
    )
    run(
        "2XM4", [L, E], lambda l, e: lift(d2(l), e), lambda l, e: prime(e, l) - act_l(d1(e), l),
        partial(AxiomViolation, "2XM4"),
    )
    run(
        "2XM5", [E, L], lambda e, l: lift(e, d2(l)), lambda e, l: prime(e, l),
        partial(AxiomViolation, "2XM5"),
    )
    # 2XM6 equates three values: r > {e (x) e'} with both {r>e (x) e'} and {e (x) r>e'}
    run(
        "2XM6", [R, E, E], lambda r, e, e2: (act_l(r, lift(e, e2)),) * 2,
        lambda r, e, e2: (lift(act_e(r, e), e2), lift(e, act_e(r, e2))),
        lambda w, lhs, rhs: AxiomViolation("2XM6", w, lhs[0], rhs), on_both,
    )

    # derived crossed module (L -> E, >')
    certs["derived-action"] = certify_action(prime, policy)
    run(
        "derived-XM1", [E, L], lambda e, l: d2(prime(e, l)), lambda e, l: e * d2(l),
        partial(XM1Violation, msg="derived crossed module"),
    )
    run(
        "derived-XM2", [L, L], lambda l, l2: prime(d2(l), l2), lambda l, l2: l * l2,
        partial(XM2Violation, msg="derived crossed module"),
    )
    return A


def kernel_two_crossed(P, policy=DEFAULT_POLICY):
    """The 2-crossed module ker(d) -> E -> R of a finite pre-crossed module.

    The lifting is {e (x) e'} = ee' - d(e') > e, the form forced by 2XM1;
    the output is pushed through the full validator, which would flag a
    wrong lifting convention.
    """
    E, R, d, act = P.E, P.R, P.d, P.act
    if not (E.is_finite() and R.is_finite()):
        raise BadShape("kernel computation needs finite-dimensional E and R")
    ring = E.ring
    ekeys = E.basis_keys()
    rkeys = R.basis_keys()

    def e_coords(u):
        return [u.coeffs.get(k, ring.zero) for k in ekeys]

    rows = []
    images = [d(E.basis_element(k)) for k in ekeys]
    for rk in rkeys:
        rows.append([img.coeffs.get(rk, ring.zero) for img in images])
    kernel = nullspace(rows, len(ekeys), ring)

    labels = tuple("k%d" % i for i in range(len(kernel)))
    vectors = [E.element({k: v for k, v in zip(ekeys, vec)}) for vec in kernel]

    def in_kernel_coords(u, context):
        coeffs = solve_in_span(kernel, e_coords(u), ring)
        if coeffs is None:
            raise XmodError("%s left the kernel: %s" % (context, u))
        return {labels[i]: c for i, c in enumerate(coeffs) if not ring.is_zero(c)}

    table = {}
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            table[(labels[i], labels[j])] = in_kernel_coords(vi * vj, "kernel product")
    L = make_finite_algebra(labels, table, ring)

    d2 = algebra_morphism(L, E, images={labels[i]: vectors[i] for i in range(len(labels))}, policy=policy)
    act_l_table = {}
    for rk in rkeys:
        r = R.basis_element(rk)
        act_l_table[rk] = {
            labels[i]: L.element(in_kernel_coords(act(r, vectors[i]), "acted kernel element"))
            for i in range(len(labels))
        }

    act_l = make_action(R, L, act_l_table, policy) if labels else zero_action(R, L)

    lift_table = {}
    for i in ekeys:
        ei = E.basis_element(i)
        for j in ekeys:
            ej = E.basis_element(j)
            value = ei * ej - act(d(ej), ei)
            coords = in_kernel_coords(value, "Peiffer lifting value")
            if coords:
                lift_table[(i, j)] = L.element(coords)
    lift = BilinearMap(E, E, L, lift_table)
    return make_two_crossed(L, E, R, d2, d1=d, act_e=act, act_l=act_l, lift=lift, policy=policy)


# ---------------------------------------------------------------------------
# 2-crossed morphisms


class TwoCrossedMorphism:
    """A map of 2-crossed modules, with ``certificates`` naming the
    certificate of each of its five laws (``MORPHISM_LAWS``)."""

    def __init__(self, src, tgt, f0, f1, f2, certificates):
        self.src = src
        self.tgt = tgt
        self.f0 = f0
        self.f1 = f1
        self.f2 = f2
        self.certificates = certificates
        self._homotopies = {}  # key -> QuadraticDerivation, filled by make_quadratic_derivation

    def equal(self, other):
        return self is other or (
            self.src.compatible(other.src)
            and self.tgt.compatible(other.tgt)
            and morphisms_equal(self.f0, other.f0)
            and morphisms_equal(self.f1, other.f1)
            and morphisms_equal(self.f2, other.f2)
        )

    def __repr__(self):
        return "TwoCrossedMorphism<%r -> %r>" % (self.src, self.tgt)


MORPHISM_LAWS = ("d1-square", "d2-square", "f1-equivariance", "f2-equivariance", "lifting")


def make_2cm_morphism(src, tgt, f0, f1, f2, policy=DEFAULT_POLICY):
    """Certify a 2-crossed module map: commuting squares, action
    equivariance for f1 and f2, and preservation of the liftings.

    Each equivariance law takes the generator rule of ``maps.check_law``
    (r on B over a free R, on G_R over a finite one) when f0 and the two
    actions it relates are proved.  The closure lemma, for f1 (for f2 read L and the actions
    on L): let S be the set of r with f1(r > e) = f0(r) > f1(e) for every
    e.  For r1, r2 in S and every e,

        f1(r1r2 > e) = f1(r1 > (r2 > e))          A2 of the source action
                     = f0(r1) > f1(r2 > e)         r1 in S
                     = f0(r1) > (f0(r2) > f1(e))   r2 in S
                     = f0(r1)f0(r2) > f1(e)        A2 of the target action
                     = f0(r1r2) > f1(e)            f0 multiplicative

    so S is closed under products.

    A law whose slot list holds an algebra of dimension 0 is vacuous: the
    product of the slots' bases is empty, and every argument tuple has a
    zero entry, at which both sides vanish by multilinearity.  Such a law
    is EXHAUSTIVE with nothing drawn or evaluated: over E = 0 the
    d1-square, f1-equivariance and lifting, over L = 0 the d2-square and
    f2-equivariance.
    """
    for f, dom, cod, name in (
        (f0, src.R, tgt.R, "f0"),
        (f1, src.E, tgt.E, "f1"),
        (f2, src.L, tgt.L, "f2"),
    ):
        if not (f.source.compatible(dom) and f.target.compatible(cod)):
            raise BadShape("%s endpoints do not match" % name)
    certs = {}

    def run(name, algebras, lhs, rhs, error, generators=()):
        if any(a.dim() == 0 for a in algebras):  # vacuous
            certs[name] = EXHAUSTIVE
        else:
            certs[name] = check_law(algebras, lhs, rhs, error, policy, generators=generators)

    run(
        "d1-square", [src.E], lambda e: f0(src.d1(e)), lambda e: tgt.d1(f1(e)),
        partial(SquareViolation, msg="f0.d1 != d1'.f1"),
    )
    run(
        "d2-square", [src.L], lambda l: f1(src.d2(l)), lambda l: tgt.d2(f2(l)),
        partial(SquareViolation, msg="f1.d2 != d2'.f2"),
    )
    run(
        "f1-equivariance", [src.R, src.E], lambda r, e: f1(src.act_e(r, e)),
        lambda r, e: tgt.act_e(f0(r), f1(e)), partial(EquivarianceViolation, msg="f1"),
        _r_slot(f0.multiplicative, src.act_e.certificate, tgt.act_e.certificate),
    )
    run(
        "f2-equivariance", [src.R, src.L], lambda r, l: f2(src.act_l(r, l)),
        lambda r, l: tgt.act_l(f0(r), f2(l)), partial(EquivarianceViolation, msg="f2"),
        _r_slot(f0.multiplicative, src.act_l.certificate, tgt.act_l.certificate),
    )
    run(
        "lifting", [src.E, src.E], lambda e, e2: f2(src.lift(e, e2)),
        lambda e, e2: tgt.lift(f1(e), f1(e2)), LiftingViolation,
    )
    return TwoCrossedMorphism(src, tgt, f0, f1, f2, certs)


def identity_2cm_morphism(A):
    return TwoCrossedMorphism(
        A, A, identity_map(A.R), identity_map(A.E), identity_map(A.L),
        dict.fromkeys(MORPHISM_LAWS, EXHAUSTIVE),
    )


# ---------------------------------------------------------------------------
# Crossed modules as the L = 0 slice


def as_two_crossed(C, policy=DEFAULT_POLICY):
    """The crossed module C = (E -> R) as the 2-crossed module 0 -> E -> R
    with d2 = 0, the zero action on L = 0 and zero lifting, free up to
    order one when R is free.  Certified under ``policy`` and kept on C,
    one per policy; its certificates stay its own, C still reports XM1 and
    XM2 alone."""
    A = C._slices.get(policy)
    if A is None:
        E, R = C.E, C.R
        L = zero_algebra(C.ring)
        A = C._slices[policy] = make_two_crossed(
            L, E, R, algebra_morphism(L, E, images={}, policy=policy), C.d, C.act,
            zero_action(R, L), zero_bilinear(E, E, L), policy,
        )
        A.slice_of = C
    return A


def make_cm_morphism(src, tgt, f0, f1, policy=DEFAULT_POLICY):
    """The crossed module map (f0, f1): the map of the slices with f2 = 0."""
    A, B = as_two_crossed(src, policy), as_two_crossed(tgt, policy)
    return make_2cm_morphism(A, B, f0, f1, zero_map(A.L, B.L), policy)


def identity_cm_morphism(cm):
    return identity_2cm_morphism(as_two_crossed(cm))
