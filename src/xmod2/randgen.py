"""Random valid structures for property suites, seeded and deterministic.

Generation is constructive where a family is known to be valid, and
rejection sampling over small tables otherwise: every candidate goes
through the full validators, so nothing unvalidated ever escapes.  Each
generator takes an explicit rng; callers derive them from a seed.
"""

from .algebra import FreeAlgebra, generator_keys, make_finite_algebra, make_free_algebra
from .crossed import (
    as_two_crossed,
    kernel_two_crossed,
    make_precrossed,
    make_two_crossed,
    make_2cm_morphism,
)
from .errors import LawViolation
from .maps import (
    DEFAULT_POLICY,
    BilinearMap,
    algebra_morphism,
    identity_map,
    make_action,
    zero_action,
    zero_map,
)


def _random_element(alg, rng, density=0.6):
    """An element drawn key by key: each basis key of a finite algebra, or
    each generator of a free one, kept with probability density.

    This is the generators' sampler, distinct from maps.random_element
    (by degree, for law tuples).  The two draw differently from an rng, so
    merging them would change every generated structure and the pinned
    selftest digests; they stay apart until a change re-pins anyway.
    """
    free = isinstance(alg, FreeAlgebra)
    coeffs = {}
    for k in generator_keys(alg):
        if rng.random() < density:
            coeffs[(k,) if free else k] = alg.ring.random(rng)
    return alg.element(coeffs)


def random_finite_algebra(ring, rng, max_dim=2):
    """A commutative associative algebra of dimension <= max_dim."""
    dim = rng.randint(1, max_dim)
    labels = ["u%d" % i for i in range(dim)]
    choice = rng.random()
    if choice < 0.25:
        return make_finite_algebra(labels, {}, ring)  # zero products
    if choice < 0.5:
        # truncated polynomial: u_i u_j = u_{i+j}, indices past the end die
        table = {}
        for i in range(dim):
            for j in range(dim):
                k = i + j + 1
                if k < dim:
                    table[(labels[i], labels[j])] = {labels[k]: 1}
        return make_finite_algebra(labels, table, ring)
    for _ in range(60):
        table = {}
        for i in range(dim):
            for j in range(i, dim):
                if rng.random() < 0.5:
                    continue
                row = {}
                for k in range(dim):
                    if rng.random() < 0.4:
                        row[labels[k]] = ring.random(rng)
                table[(labels[i], labels[j])] = row
                table[(labels[j], labels[i])] = row
        try:
            return make_finite_algebra(labels, table, ring)
        except LawViolation:
            continue
    return make_finite_algebra(labels, {}, ring)


def random_action(R, M, rng, policy=DEFAULT_POLICY):
    """A certified action of R on M; falls back to the zero action."""
    for _ in range(40):
        table = {}
        for r in R.basis_keys():
            row = {}
            for m in M.basis_keys():
                if rng.random() < 0.4:
                    row[m] = _random_element(M, rng, density=0.4)
            table[r] = row
        try:
            return make_action(R, M, table, policy)
        except LawViolation:
            continue
    return zero_action(R, M)


def random_precrossed(ring, rng, max_dim=2, policy=DEFAULT_POLICY):
    """A valid pre-crossed module with dim E, dim R <= max_dim."""
    if rng.random() < 0.5:
        return _square_family_precrossed(ring, rng, policy)
    R = random_finite_algebra(ring, rng, max_dim)
    E = random_finite_algebra(ring, rng, max_dim)
    act = random_action(R, E, rng, policy=policy)
    for _ in range(80):
        images = {k: _random_element(R, rng, density=0.5) for k in E.basis_keys()}
        try:
            d = algebra_morphism(E, R, images=images, policy=policy)
            return make_precrossed(E, R, d, act, policy)
        except LawViolation:
            continue
    d = algebra_morphism(E, R, images={k: R.zero() for k in E.basis_keys()}, policy=policy)
    return make_precrossed(E, R, d, act, policy)


def _square_family_precrossed(ring, rng, policy):
    """E = <a, b; a^2 = b> -> R = <p; p^2 = 0>, d(a) = c*p, p > a = v*b.

    XM1 holds for every (c, v), so the kernel construction yields a
    2-crossed module with Peiffer lifting {a (x) a} = (1 - v)*b: a cheap
    supply of targets with nonzero liftings and nonzero actions.
    """
    R = make_finite_algebra(["p"], {}, ring)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, ring)
    v = ring.random(rng)
    c = ring.one if rng.random() < 0.5 else ring.random(rng)
    act_table = {"p": {"a": E.element({"b": v})}}
    act = make_action(R, E, act_table, policy)
    d = algebra_morphism(E, R, images={"a": R.element({"p": c}), "b": R.zero()}, policy=policy)
    return make_precrossed(E, R, d, act, policy)


def random_two_crossed(ring, rng, max_dim=2, policy=DEFAULT_POLICY):
    """A valid 2-crossed module over the ring (via the kernel example)."""
    return kernel_two_crossed(random_precrossed(ring, rng, max_dim, policy), policy)


def random_free_two_crossed(ring, rng, max_dim=2, policy=DEFAULT_POLICY):
    """A free-up-to-order-one domain with E != 0.

    R = ring[x]+ with basis {x}; E is a random finite algebra; L = E with
    d2 the identity and the lifting the multiplication; d1 = 0 and the
    R-actions vanish (forced: over a free polynomial R and finite E, the
    boundary-equivariance law has no nonzero solutions).
    """
    R = make_free_algebra(["x"], ring)
    E = random_finite_algebra(ring, rng, max_dim)
    L = E
    lift_table = {}
    for i in E.basis_keys():
        for j in E.basis_keys():
            value = E.basis_element(i) * E.basis_element(j)
            if not value.is_zero():
                lift_table[(i, j)] = value
    return make_two_crossed(
        L, E, R,
        d2=identity_map(E),
        d1=algebra_morphism(E, R, images={k: R.zero() for k in E.basis_keys()}, policy=policy),
        act_e=zero_action(R, E),
        act_l=zero_action(R, L),
        lift=BilinearMap(E, E, L, lift_table),
        policy=policy,
    )


# ---------------------------------------------------------------------------
# Random morphisms and derivations (rejection; zero maps as fallback)


def _morphism_images(source, target, rng, density):
    return {k: _random_element(target, rng, density=density) for k in generator_keys(source)}


def _random_morphism(A, B, attempts, rng, policy):
    """A 2-crossed module map A -> B on random images of R, E and L, by
    rejection over ``attempts`` draws; falls back to the zero map.  A level
    with no basis keys draws nothing."""
    pairs = [(getattr(A, level), getattr(B, level)) for level in ("R", "E", "L")]
    for _ in range(attempts):
        try:
            return make_2cm_morphism(A, B, *[
                algebra_morphism(src, tgt, images=_morphism_images(src, tgt, rng, 0.5), policy=policy)
                for src, tgt in pairs
            ], policy)
        except LawViolation:
            continue
    return make_2cm_morphism(A, B, *[zero_map(src, tgt) for src, tgt in pairs], policy)


def random_cm_morphism(A, B, rng, policy=DEFAULT_POLICY):
    """A crossed module map A -> B: a map of the slices, whose L = 0 draws
    nothing."""
    slices = as_two_crossed(A, policy), as_two_crossed(B, policy)
    return _random_morphism(*slices, 200, rng, policy)


def random_cm_derivation(f, rng, policy=DEFAULT_POLICY):
    from .cm_homotopy import make_cm_derivation

    for _ in range(200):
        try:
            return make_cm_derivation(f, _morphism_images(f.src.R, f.tgt.E, rng, 0.5), policy)
        except LawViolation:
            continue
    return make_cm_derivation(f, {}, policy)


def random_2cm_morphism(A, B, rng, policy=DEFAULT_POLICY):
    return _random_morphism(A, B, 120, rng, policy)


def random_quadratic_derivation(f, rng, policy=DEFAULT_POLICY):
    """A valid quadratic f-derivation.  Over a free R, s is free on the
    basis B and drawn once; over a finite R, s must satisfy the s-law, so it
    is drawn on the R-basis again in each attempt.  t is found by rejection
    over small tables (the laws are the arbiter)."""
    from .tcm_homotopy import make_quadratic_derivation

    A, B = f.src, f.tgt
    s_images = _morphism_images(A.R, B.E, rng, 0.6)
    for attempt in range(80):
        if attempt and A.free_basis is None:
            s_images = _morphism_images(A.R, B.E, rng, 0.6)
        t_images = {k: _random_element(B.L, rng, density=0.5) for k in A.E.basis_keys()}
        try:
            return make_quadratic_derivation(f, s_images, t_images, policy)
        except LawViolation:
            continue
    for s_try in (s_images, {}):
        try:
            return make_quadratic_derivation(f, s_try, {}, policy)
        except LawViolation:
            continue
    return make_quadratic_derivation(f, {}, {}, policy)
