"""Linear maps, algebra morphisms, actions, bilinear maps, and validators.

Laws (A1/A2, multiplicativity, commutativity/associativity of a semidirect
product, the crossed and 2-crossed module axioms, the morphism squares and
the derivation law) are multilinear, so checking them on a spanning set is
exact.  Each law is one ``check_law`` call, which gives it a certificate by
one of three rules:

* basis: every algebra of the law is finite, and every tuple of basis
  elements is checked -> EXHAUSTIVE;
* generators: the caller names slots whose solution set is closed under
  products (the lemma below), each over a free algebra R on B or over a
  finite algebra whose product is proved, every other slot is finite, and
  B or the finite algebra's generating set in those slots times the bases
  elsewhere is checked -> EXHAUSTIVE;
* sampled: otherwise, generator-anchored tuples plus N random tuples of
  degree <= D -> the certificate (D, N, seed), one object per policy.
  The law is decided on the basis-key tuples those tuples span, when they
  are fewer: each drawn tuple expands into a combination of spanned key
  tuples, so by multilinearity the law holds on every draw once it holds
  on them.  The span is found once, when the tuples are drawn, and kept
  with them as keys (``_Draws.span``); each check builds the basis
  elements of a key tuple when it reads it.

The generator lemma.  Let a law be linear in a slot a over an algebra R,
and let S be the set of a for which it holds for every value of the other
slots.  S is a subspace.  If S is closed under products and contains a
set G that generates R, it contains every product of elements of G, so
S = R, and the finite check on G is a proof.  G is B for a free algebra
on B, and ``generating_positions`` for a finite one, whose products span
it when its product is the proved one (``_proved``).  Each caller proves
closure for its own law in its docstring and names the slot only when the
laws that proof uses are themselves proved; otherwise the law is checked
as before:

* ``certify_multiplicative``: a on G, x over the basis; out of a finite
  semidirect product, only the pairs of the slot triangle, whose x lies
  in a slot not before a's (the slot-triangle lemma in its docstring);
  and, when f equals a given proved map on the left part X of X |x Y,
  compared on X's basis keys, not X's block of that triangle (the
  left-part lemma in its docstring);
* ``certify_action``: A2 with r1 on G_R, then A1 with r on G_R and m1 on
  G_M, over finite algebras;
* ``simplex.check_simplicial_identities``: each identity on G of its
  level, when its faces and degeneracies are proved algebra maps;
* ``crossed.make_2cm_morphism`` and ``tcm_homotopy.make_quadratic_derivation``:
  r on G_R, which is B over a free R;
* ``crossed.make_precrossed`` (XM1) and ``crossed.make_two_crossed``
  (d1-equivariance, d2-equivariance and 2XM6): r on G_R, when A2 of the
  actions each law relates is proved.

A law that fails on a generating set fails on the basis, at the same
tuple, so ``check_law`` raises at the first failure the rule finds: each
law is decided once, and its witness is a failing tuple of the rule's own
sets, not necessarily the first failing tuple in basis order.

``check_law`` is the one caller of ``law_tuples``, so the one place where
the kind of certificate a law earns is decided: every law checked above
``algebra`` (whose ``make_finite_algebra`` checks its own table) is one
``check_law`` call.  EXHAUSTIVE is stamped without one only where a law
holds by construction or by a lemma: ``identity_map``, substitution maps,
``zero_action``, ``simplex._certify_dagger``, the derivation law of an s
read through a substitution (``tcm_homotopy.check_derivation_law``, when
``tcm_homotopy._by_construction`` says its premises hold), the faces d0 and
degeneracies s0 of the tower (``simplex._by_construction``: the projection
of Lam_n = Lam_{n-1} |x X onto Lam_{n-1} and its inclusion, algebra maps
for any bilinear action), ``certify_algebra`` by
the semidirect lemma (a finite semidirect product of proved parts under an
action proved on a basis is commutative and associative), the zero
homotopy by the zero lemma (``tcm_homotopy.zero_quadratic``: each law of a
quadratic derivation is linear in s or t, so (0, 0) satisfies it), a
target equal to a certified map, which carries that map's certificates
(``tcm_homotopy._settle_target``), and two vacuous sites, where each side
of a law is linear in an argument from an algebra of dimension 0, so both
vanish: a morphism law with such a slot (``crossed.make_2cm_morphism``)
and t-product and t-action over a source whose E is 0
(``tcm_homotopy._t_laws``).  The left-part lemma's comparison is
the one law decided outside ``check_law``: it is the identity f o i = h on
a basis of X, i the inclusion, and the nine simplicial identities of that
form are reported from it (``simplex.check_simplicial_identities``).

Sampled tuples depend on the policy and the algebra list alone: the
sampled part of a law over a non-finite list is N draws of degree <= D
from a fresh ``Random(policy.seed)``, so a certificate (D, N, seed) and
the law's algebras reproduce the tuples it was checked on.  ``law_tuples``
draws them the first time it sees (policy, list) and keeps them under that
key on the first algebra of the list, the way a 2-crossed module keeps its
towers, with the key tuples that the law's tuples span; a later call gets
the same objects back without drawing, and a later check the same span
and the same list of tuples without building them again.  Keys
hold the algebras themselves, never their ids, so two structures never
share an entry, and the memo goes with its structure.

The factors of exhaustive tuples are the spanning sets each algebra
keeps, once, in ``algebra``: ``basis_elements`` and ``generator_elements``,
each a ``Kept`` tuple with its keys, and a finite semidirect product's
slot triangle, ``SemidirectAlgebra.triangle``.  Here only ``_generating``
decides whether a generator slot may take the generating set (``_proved``,
read on every call, since a semidirect product's certificate can arrive
later).  ``law_tuples`` builds a ``BasisTuples`` of the kept tuples
themselves, and the key kernels read their kept keys, so no check rebuilds
a list or calls ``unit_key`` per element.

For a table action of a free algebra, monomials act by iterated generator
action: the key image of g1...gk applies the rows of g1, ..., gk in turn
(``_compose``).  A2 on generator pairs makes that well defined; A1 for
monomials then follows by induction, and is additionally covered by the
sampled tuples.

Formula-defined maps and actions are evaluated on basis keys only.  A
``LinearMap`` with the "substitution" or "function" rule and a
``FunctionAction`` compute the image of each basis key (monomial, or key
pair for an action) once, keep it in a per-object memo, and extend
(bi)linearly to general elements; a substitution's monomial is its
prefix's image times its last generator's, by ``evaluate_bilinear`` on the
target's ``key_mul``.  A ``FunctionAction`` is given key images: its
function takes a pair of basis keys to an element of the acted algebra,
and a ``KeyImageMap`` is the linear map given so, one key to an element
of the target: the tower's faces and degeneracies (``simplex``), and a
derivation s over a free R and its formula f0 + d1' o s
(``tcm_homotopy``).  So only the "function" rule of a plain
``LinearMap`` calls a closure on elements; that closure must be linear, it
is only ever called on basis elements, and the memo grows with the keys
seen.

Exhaustive checks of A1, A2, multiplicativity, the simplicial identities
and the t-laws run on coefficient dicts.  ``certify_action``,
``certify_multiplicative``, ``simplex.check_simplicial_identities`` and
``tcm_homotopy._t_laws`` hand ``check_law`` a kernel that decides each
basis tuple with the two dict kernels of ``algebra`` (``combine`` and
``bilinear``), and a law of one map against another in one slot takes
``agree_on_keys``.  Products come from the algebra's own
``key_mul``, and images from ``_image``: a map's memoised or table image of
a key, an action's memo entry or table row for a key pair.  The three
kernels read the coefficient dicts of those images through a table local to
the check, filled on first read (``_Lazy``), so each image is fetched once
per check.  The tuples still come from one ``law_tuples`` call and are
decided in its order, generating sets in the generator slots.  At the first
tuple whose two sides differ, the witness comes from the element path:
``check_law`` builds that tuple of elements from the kernel's positions and
evaluates lhs and rhs on it, so a failure raises exactly the error an
element check raises.  The exhaustive tuples are a lazy ``BasisTuples``, so
the tuple at the witness is the only one built.  A sampled law of one slot
with a kernel (the g0 tripwire, t-action and its boundary form, the
simplicial identities of a level with a free part) is decided on the keys
its tuples span, in order, and builds the basis element of the witness
alone.  Other checks with a free algebra in the law evaluate on elements:
every generator tuple, and for a sampled law each kept spanned key tuple
as a tuple of basis elements, a finite slot's kept ones (or every drawn
tuple, when the span is not smaller).

Images given on keys are checked in one place, ``generator_images``:
each key must be one of ``algebra.generator_keys`` of the source (the
generators of a free algebra, the basis of a finite one), else BadShape
names it, and each value must be an element of the target.  A key with no
image is zero, for a table and for a substitution alike, so a map, a
derivation or a homotopy is given by its nonzero images.

A key image has one form: ``_image`` of a map (one key) or of an action
or lifting (a key pair) is an element of the map's own target (the acted
algebra for an action), and the target's shared ``zero()`` for a key with
no image.  Each image is re-tagged to the target once, where it is stored:
table and substitution images by ``generator_images``, the memo of
``LinearMap``, and the tables of ``TableAction`` and ``BilinearMap``; a
``FunctionAction``'s key images are elements of the acted algebra as
given; so no call re-tags.  On elements, every action and Peiffer
lifting is evaluated by ``_KeyBilinear._evaluate``, to which each class's
``__call__`` delegates: the owner checks, then the evaluation products
share, ``algebra.evaluate_bilinear``, on the class's ``_image``.  In
order: a zero argument gives the target's ``zero()``; two basis keys with
coefficient one (``algebra.unit_key``) give their key image itself;
anything else gives the bilinear extension of the key images.  A
``LinearMap`` takes the same steps with one argument, and its extension is
``_extend``, the linear extension of a key image.  A list of maps applied
to one key is ``_compose``, the one composite of key images: the left-part
comparison (``_shows_left``), a free actor's monomial acting by its
generators' rows (``TableAction``) and the two sides of a simplicial
identity (``simplex.check_simplicial_identities``) read it.  A unit key
returns its stored image itself (a table action computes a free monomial's
image), sharing its ``coeffs`` with the table or memo, which is why
elements are never mutated.  An empty sum is the target's shared zero
(``Algebra.from_coeffs``).

Zero has one form here too: an empty table, whose every key image is the
target's ``zero()``.  ``zero_map`` is the table rule with no images, over
any source, a free one included; ``zero_action`` is a ``TableAction`` with
an empty table (``ZeroAction``), and ``zero_bilinear`` a ``BilinearMap``
with one.  Table-given actions and liftings share one ``same``: the same
kind, compatible ends and equal tables, so a zero action is the same as
any empty table action.
"""

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property, partial

from .algebra import (
    Element, FiniteAlgebra, FreeAlgebra, SemidirectAlgebra, bilinear, combine, evaluate_bilinear,
    generator_keys, unit_key,
)
from .errors import (
    A1Violation,
    A2Violation,
    BadShape,
    MorphismViolation,
    NonAssociative,
    NonCommutative,
)


@dataclass(frozen=True)
class Certificate:
    exhaustive: bool
    max_degree: int = None
    samples: int = None
    seed: int = None

    def to_json(self):
        if self.exhaustive:
            return {"exhaustive": True}
        return {
            "exhaustive": False,
            "max_degree": self.max_degree,
            "samples": self.samples,
            "seed": self.seed,
        }


EXHAUSTIVE = Certificate(True)


@dataclass(frozen=True)
class Policy:
    """Degree bound and sample count for randomized pointwise checks."""

    samples: int = 100
    max_degree: int = 4
    seed: int = 0

    @cached_property
    def certificate(self):
        """The certificate of a law checked on this policy's samples, built
        once per policy object (kept outside the fields, so equality and
        hashing are unchanged)."""
        return Certificate(False, self.max_degree, self.samples, self.seed)


DEFAULT_POLICY = Policy()


def random_element(alg, rng, max_degree=4):
    if isinstance(alg, FiniteAlgebra):
        return alg.element({k: alg.ring.random(rng) for k in alg.labels})
    if isinstance(alg, FreeAlgebra):
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, max(1, max_degree))
            key = tuple(sorted(rng.choice(alg.generators) for _ in range(deg)))
            coeffs[key] = alg.ring.random(rng)
        return alg.element(coeffs)
    if isinstance(alg, SemidirectAlgebra):
        return alg.pair(
            random_element(alg.left, rng, max_degree),
            random_element(alg.right, rng, max_degree),
        )
    raise BadShape("cannot sample %r" % (alg,))


def _skeleton(alg):
    """Basis elements (finite) or generator elements (free parts)."""
    if alg.is_finite():
        return alg.basis_elements()
    if isinstance(alg, FreeAlgebra):
        return alg.generator_elements()
    if isinstance(alg, SemidirectAlgebra):
        return [alg.embed_left(u) for u in _skeleton(alg.left)] + [
            alg.embed_right(u) for u in _skeleton(alg.right)
        ]
    raise BadShape("cannot span %r" % (alg,))


class _Draws(tuple):
    """A policy's sampled tuples over a list of algebras, as ``_sampled``
    keeps them, with the law's ``tuples`` (the skeleton tuples followed by
    the draws) and their ``span`` (``_span``)."""


def _sampled(algebras, policy):
    """The policy's sampled tuples over algebras, drawn from a fresh
    Random(policy.seed) on the first call and kept on algebras[0], with the
    law's tuples and their span, found then and kept with them."""
    memo = algebras[0]._draws
    draws = memo.get((policy, algebras))
    if draws is None:
        rng = random.Random(policy.seed)
        draws = memo[(policy, algebras)] = _Draws(
            tuple(random_element(a, rng, policy.max_degree) for a in algebras)
            for _ in range(policy.samples)
        )
        draws.tuples = _skeleton_tuples(algebras) + list(draws)
        draws.span = _span(draws.tuples)
    return draws


def _skeleton_tuples(algebras):
    """The product of the algebras' skeletons: a sampled law's first tuples."""
    return list(itertools.product(*[_skeleton(a) for a in algebras]))


def _span(tuples):
    """The basis-key tuples that ``tuples`` span, in order of first
    appearance, when they are fewer than the tuples; otherwise None.

    A tuple spans the product of its elements' supports, so a zero element
    spans nothing.  A multilinear law that holds on every spanned key tuple
    holds on every tuple, each expanding into a combination of them."""
    limit = len(tuples)
    span = {}
    for t in tuples:
        for keys in itertools.product(*[u.coeffs for u in t]):
            if keys not in span:
                span[keys] = None
                if len(span) == limit:
                    return None
    return tuple(span)


class BasisTuples:
    """The cartesian product of finite lists of elements, in
    ``itertools.product`` order, without building it: a length and
    iteration.  ``factors`` holds the lists, one per slot.

    ``starts``, for two factors, gives for each element of the first the
    position in the second where its pairs start: the tuples are then the
    slot triangle, the pairs whose second element's slot is not before the
    first's (``certify_multiplicative``)."""

    def __init__(self, factors, starts=None):
        self.factors, self.starts = factors, starts
        if starts is None:
            self._len = math.prod(map(len, factors))
        else:
            self._len = sum(len(factors[1]) - start for start in starts)

    def __len__(self):
        return self._len

    def __iter__(self):
        if self.starts is None:
            return itertools.product(*self.factors)
        (left, right), starts = self.factors, self.starts
        return ((u, v) for u, start in zip(left, starts) for v in right[start:])


def _generating(alg):
    """alg's ``generator_elements`` when a generator slot over alg may take
    them: alg is free, or finite with its commutativity and associativity
    proved (``_proved``, read on every call, since a semidirect product's
    certificate can arrive later); else None, and the slot takes no
    generator rule."""
    if isinstance(alg, FreeAlgebra) or alg.is_finite() and _proved(alg):
        return alg.generator_elements()
    return None


def law_tuples(algebras, policy=DEFAULT_POLICY, generators=(), triangle=None):
    """Tuples on which to test a multilinear law over the given algebras;
    called by ``check_law`` alone.

    Returns (tuples, exhaustive).  Exhaustive means the tuples span every
    argument, so the law check is a proof: when each slot in ``generators``
    has a generating set (``_generating``) and every other slot is finite,
    that set in those slots times the bases elsewhere (the generator lemma
    of the module docstring); else, when every slot is finite, the full
    cartesian product of bases.  Both are a ``BasisTuples`` of the kept
    tuples of each algebra (``basis_elements``, and ``generator_elements``
    through ``_generating``), with their keys; it builds a tuple only when
    it is read.  ``triangle``, for a law over [S, S] with S a semidirect
    product and slot 0 a generator slot, gives the first basis position
    each generator pairs with (``SemidirectAlgebra.triangle``, the slot
    triangle of ``certify_multiplicative``).

    Otherwise the skeleton tuples are followed by policy.samples random
    tuples of degree <= policy.max_degree, drawn from Random(policy.seed):
    a function of (policy, algebras), kept on algebras[0] with those
    tuples, drawn and listed only the first time and returned as kept.
    """
    if generators:
        factors = [
            _generating(a) if i in generators else a.basis_elements() if a.is_finite() else None
            for i, a in enumerate(algebras)
        ]
        if all(f is not None for f in factors):
            return BasisTuples(factors, triangle), True
    if all(a.is_finite() for a in algebras):
        return BasisTuples([a.basis_elements() for a in algebras]), True
    return _sampled(tuple(algebras), policy).tuples, False


def _unit(alg, key):
    """The basis element of key over an algebra that keeps none, built
    without ``basis_element``'s check of a key it has seen in a draw."""
    return Element(alg, {key: alg.ring.one})


def check_law(algebras, lhs, rhs, error, policy, on_keys=None, generators=(), triangle=None):
    """Check the multilinear law lhs(*t) == rhs(*t) on law_tuples(algebras),
    the one caller of ``law_tuples``.

    Raises ``error(t, lhs(*t), rhs(*t))`` at the first failing tuple t.
    The two sides may be any values that compare with ==, such as lists of
    elements for a law checked at several basis elements per tuple.
    Otherwise returns the certificate the check earned: EXHAUSTIVE when
    the tuples span every argument, else the policy's (D, N, seed), from
    which, with the algebras, the sampled tuples can be drawn again.

    A sampled law is decided on the basis-key tuples its tuples span, in
    order of first appearance, whenever those are fewer than the tuples
    (the span kept with the draws): by multilinearity it
    then holds on every drawn tuple,
    so the certificate is the same, and a failure's witness is a tuple of
    basis elements.  No check evaluates more tuples than law_tuples gives.

    ``generators`` names the slots whose solution set the caller has shown
    to be closed under products; those slots are checked on a generating
    set (the generator rule): a free algebra's generators, or a finite
    algebra's ``generating_positions`` when its product is proved.  A
    failure there is a failure on the basis, so it is raised as found.

    ``triangle`` gives ``law_tuples`` the slot triangle of a semidirect
    product, each generator's first basis position, in place of the
    generator rule's full product; the kernel then gets the tuples'
    ``starts`` too, and may name a pair outside the triangle, which is
    raised as a failure at that pair.

    ``on_keys`` decides the law on basis keys: given the basis key lists
    of the slots (a generating set's keys in a generator slot), it returns
    the positions (one per slot) of the first failing key tuple in
    ``itertools.product`` order, or None.  An exhaustive check uses it, and
    so does a sampled one-slot law on the keys its tuples span, in their
    order; either evaluates lhs and rhs at that tuple only.
    """
    tuples, exhaustive = law_tuples(algebras, policy, generators, triangle)
    failure = _first_failure(algebras, policy, tuples, exhaustive, lhs, rhs, on_keys)
    if failure is not None:
        raise error(*failure)
    return EXHAUSTIVE if exhaustive else policy.certificate


def _first_failure(algebras, policy, tuples, exhaustive, lhs, rhs, on_keys):
    """(t, lhs(*t), rhs(*t)) at the first tuple t of law_tuples' output
    where the sides differ, or None.  A sampled law is decided on the
    basis-key tuples its tuples span (``_Draws.span``), each built as basis
    elements when it is read, when those are fewer; a one-slot law with
    ``on_keys`` is decided on the span's keys."""
    if exhaustive and on_keys is not None:
        factors = tuples.factors
        keys = [factor.keys for factor in factors]  # kept with the elements (algebra.Kept)
        positions = on_keys(*keys) if tuples.starts is None else on_keys(*keys, starts=tuples.starts)
        return None if positions is None else _at(lhs, rhs, [f[p] for f, p in zip(factors, positions)])
    span = None if exhaustive else _sampled(tuple(algebras), policy).span
    if span is not None:
        units = [a.basis_element if a.is_finite() else partial(_unit, a) for a in algebras]
        if on_keys is not None and len(algebras) == 1:
            positions = on_keys([keys[0] for keys in span])
            return None if positions is None else _at(lhs, rhs, [units[0](span[positions[0]][0])])
        tuples = (tuple(unit(k) for unit, k in zip(units, keys)) for keys in span)
    for t in tuples:
        left = lhs(*t)
        right = rhs(*t)
        if left != right:
            return t, left, right
    return None


def _at(lhs, rhs, t):
    """(t, lhs(*t), rhs(*t)) for the tuple of elements t."""
    t = tuple(t)
    return t, lhs(*t), rhs(*t)


def _weakest(*certs):
    """The weakest of the certificates of several laws checked together."""
    return next((c for c in certs if not c.exhaustive), EXHAUSTIVE)


# ---------------------------------------------------------------------------
# Linear maps


def _as_element_of(alg, img):
    """img re-tagged to alg, a compatible algebra, sharing its coeffs."""
    return img if img.algebra is alg else alg.from_coeffs(img.coeffs)


def _extend(ring, coeffs, image):
    """The coefficient dict of sum(c * image(k)) over the items (k, c) of
    coeffs: the linear extension of ``image``, which gives an element for
    each key."""
    return combine(ring, [(c, image(k).coeffs) for k, c in coeffs.items()])


def _compose(ring, images):
    """The composite of a list of key-image functions, first to last, as a
    function from a basis key to the coefficient dict of its image: the
    first image read at the key, each later one by its linear extension
    (``_extend``).  The empty list is the identity, key -> {key: 1}."""
    if not images:
        return lambda key: {key: ring.one}
    first, rest = images[0], images[1:]

    def apply(key):
        v = first(key).coeffs
        for image in rest:
            v = _extend(ring, v, image)
        return v

    return apply


class _Lazy(dict):
    """A key kernel's table, local to one check: a missing entry is filled
    with ``fill(key)`` when it is first read, so every later read is one
    dict lookup, and no entry the check does not read is computed."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class LinearMap:
    """A kappa-linear map between algebras, extended linearly from the
    images of basis keys.

    ``_image`` gives the image of one key, an element of the target:
      "table"        looked up in ``images`` (a finite source's basis), a
                     missing key going to the target's zero(); with no
                     images, the zero map over any source (``zero_map``);
      "substitution" ``images`` holds the free generators' images, a
                     generator with none going to the target's zero(), and
                     a monomial g1...gk goes to the product of its images;
      "function"     ``fn`` applied to the basis element (sums/composites,
                     derivations, faces and degeneracies).

    ``fn`` must be linear: it is called on basis elements only, once per
    key.  Substitution and function images are memoised per key, so the
    memo grows with the keys seen.  Table, substitution and memoised images
    are re-tagged to the target where they are stored, so ``__call__``
    returns a unit key's image itself.
    """

    def __init__(self, source, target, rule, images=None, fn=None, note=""):
        self.source = source
        self.target = target
        self.rule = rule
        self.images = images
        self.fn = fn
        self.note = note
        self.multiplicative = None  # Certificate once certified
        self.left = None  # maps whose composite is f on its source's left part (certify_multiplicative)
        self._memo = {}  # basis key -> image (substitution and function rules)

    def _image(self, key):
        """The image of one basis key, an element of the target: its table
        image (zero() for a key with none) or its memoised image."""
        if self.rule == "table":
            return self.images.get(key) or self.target.zero()  # an element is never false
        img = self._memo.get(key)
        if img is None:
            if self.rule == "substitution":  # g1...gk = (g1...g(k-1)) gk, prefix memoised
                img = self.images.get(key[-1]) or self.target.zero()
                if len(key) > 1:
                    img = evaluate_bilinear(self.target, self._image(key[:-1]), img, self.target.key_mul)
            else:
                img = self.fn(self.source.basis_element(key))
            img = self._memo[key] = _as_element_of(self.target, self.target.owns(img))
        return img

    def __call__(self, u):
        self.source.owns(u)
        if not u.coeffs:
            return self.target.zero()
        key = unit_key(u)
        if key is not None:
            return self._image(key)
        return self.target.from_coeffs(_extend(self.target.ring, u.coeffs, self._image))

    def __repr__(self):
        tag = self.note or self.rule
        return "LinearMap<%r -> %r; %s>" % (self.source, self.target, tag)


class KeyImageMap(LinearMap):
    """A linear map given by its key images: ``image(key)`` is the image of
    one basis key, an element of the target, computed once and kept in
    ``_memo``.  The tower's faces and degeneracies (``simplex``), a
    derivation s over a free R and the formula f0 + d1' o s
    (``tcm_homotopy``) are such maps."""

    def __init__(self, source, target, image, note):
        super().__init__(source, target, "function", note=note)
        self._memo = _Lazy(image)

    def _image(self, key):
        return self._memo[key]


def agree_on_keys(left, right):
    """The key kernel (``check_law``'s ``on_keys``) of a law left = right in
    one slot, each side a function from a basis key to a coefficient dict:
    the position of the first key where the two differ, or None."""
    return lambda keys: next(((pos,) for pos, k in enumerate(keys) if left(k) != right(k)), None)


def generator_images(source, target, images):
    """The images a map out of source is given on, checked: each key one of
    ``algebra.generator_keys(source)`` (a free algebra's generators, a
    finite one's basis), else BadShape naming it, and each value an element
    of target, re-tagged to it.  A key with no image goes to zero, which the
    table and substitution rules read as the target's zero()."""
    keys = set(generator_keys(source))
    for key in images:
        if key not in keys:
            raise BadShape("image given for unknown key %r of %r" % (key, source))
    return {key: _as_element_of(target, target.owns(value)) for key, value in images.items()}


def table_map(source, target, images):
    """The table rule on the basis of a finite source, from images that
    ``generator_images`` has checked; BadShape for any other source."""
    if not source.is_finite():
        raise BadShape("table linear map needs a finite source; use generator images")
    return LinearMap(source, target, "table", images=images)


def linear_map(source, target, images):
    """Table-defined linear map on a finite source basis: ``table_map`` of
    the images checked by ``generator_images``."""
    return table_map(source, target, generator_images(source, target, images))


def zero_map(source, target):
    """The zero map: the table rule with no images, over any source."""
    return LinearMap(source, target, "table", images={}, note="zero")


def identity_map(alg):
    f = LinearMap(alg, alg, "function", fn=lambda u: u, note="identity")
    f.multiplicative = EXHAUSTIVE
    return f


def certify_multiplicative(f, policy=DEFAULT_POLICY, left=None):
    """Certify f(ax) = f(a)f(x); stored as f.multiplicative.

    The lemma (the generator rule in a, x over the basis): the law is
    linear in a, and the set S of a for which it holds for every x is
    closed under products when the source and the target are associative,
    since for a, b in S

        f((ab)x) = f(a(bx)) = f(a)f(b)f(x) = f(ab)f(x).

    So a on a generating set of a proved source suffices, when the
    target's product is proved too.

    The slot triangle.  Let f : X |x Y -> Z, with source and target proved
    commutative and associative.  If the law holds on G_X x B_X, G_X x B_Y
    and G_Y x B_Y, f is multiplicative: X and Y are subalgebras, so f|X and
    f|Y are by the lemma above; the set of x with f(xy) = f(x)f(y) for
    every y in Y holds G_X and is closed under products, since Y is an
    ideal (xy is in Y) and f|X is multiplicative:
    f((ab)y) = f(a(by)) = f(a)f(b)f(y) = f(ab)f(y); and the pairs in
    Y x X follow by commutativity.  Applied down the nested parts, a pair
    (g, b) is checked only when b's slot is not before g's, in the flat
    slot order, which is the basis order (``SemidirectAlgebra.triangle``,
    ``law_tuples``' triangle).  A semidirect source takes it with the
    generator rule; on each pair it skips, the kernel checks that the
    source product is symmetric, and a mismatch rejects the law at that
    pair, as a failure does.  Every other source keeps the generator rule
    alone.

    The left-part lemma.  Let the source X |x Y be finite, the target Z
    proved, and ``left`` a list of proved algebra maps whose composite h
    runs from X to Z (the empty list for the identity of X = Z).  If
    f(0, k) = h(k) for every basis key k of X (dim X key-image
    comparisons), then f|X = h, since (x, 0)(x', 0) = (xx', 0), so f|X is
    multiplicative.  X's block of the slot triangle, the pairs with both
    elements in X's slots and the symmetry checks among them, is then
    implied, and X's generators pair with B_Y alone; G_X x B_Y, Y's own
    triangle and the symmetry checks of Y's generators against X's
    positions are checked as before.  The comparison is the identity
    f o i = h on a basis of X, i the inclusion x -> (x, 0), so it is
    recorded: f.left is the tuple of ``left``.  In any other case (a
    comparison that fails, an unproved map of ``left``, an infinite
    source) the law takes the slot triangle.  A failure either way is a
    failing pair of the source's basis, raised as found."""
    source, target = f.source, f.target
    source_mul, target_mul = source.key_mul, target.key_mul
    ring, image = target.ring, _Lazy(lambda k: f._image(k).coeffs)  # key -> f(key) coeffs
    generators, triangle, shown = (0,) if _proved(target) else (), None, False
    if generators and isinstance(source, SemidirectAlgebra) and source.is_finite():
        triangle = source.triangle()
        shown = left is not None and _shows_left(f, left, image)
        if shown:  # X's generators pair with B_Y alone
            triangle = tuple(max(start, source.left.dim()) for start in triangle)

    def on_keys(akeys, xkeys, starts=None):  # f(k1k2) = f(k1)f(k2)
        for i, k1 in enumerate(akeys):
            start = 0 if starts is None else starts[i]
            # outside the triangle: k1k2 = k2k1, but for X's block under the lemma
            for j in range(start if shown and k1[0] == 0 else 0, start):
                if source_mul(k1, xkeys[j]).coeffs != source_mul(xkeys[j], k1).coeffs:
                    return i, j
            for j, k2 in enumerate(xkeys[start:] if start else xkeys, start):
                product = source_mul(k1, k2).coeffs
                lhs = product and combine(ring, [(c, image[k]) for k, c in product.items()])
                a, b = image[k1], image[k2]
                if lhs != (a and b and bilinear(ring, a, b, target_mul)):
                    return i, j
        return None

    f.multiplicative = check_law(
        [source, source], lambda u, v: f(u * v), lambda u, v: f(u) * f(v),
        MorphismViolation, policy, on_keys=on_keys, generators=generators, triangle=triangle,
    )
    if shown:
        f.left = tuple(left)
    return f.multiplicative


def _shows_left(f, left, image):
    """Whether f(0, k) = h(k) for every basis key k of the left part X of
    f's source, h the composite of the maps ``left``, in order, each a
    proved algebra map, from X to f's target; f's images are read through
    ``image``."""
    X, ring = f.source.left, f.target.ring
    ends = [X, *(end for g in left for end in (g.source, g.target)), f.target]
    if not (all(is_proof(g.multiplicative) for g in left)
            and all(a is b or a.compatible(b) for a, b in zip(ends[::2], ends[1::2]))):
        return False
    h = _compose(ring, [g._image for g in left])
    return all(image[key] == h(k)  # (0, k) leads
               for k, key in zip(X.basis_elements().keys, f.source.basis_elements().keys))


def algebra_morphism(source, target, images=None, fn=None, policy=DEFAULT_POLICY, note=""):
    """Build a certified algebra morphism.

    Finite source: basis-image table, multiplicativity checked on all basis
    pairs.  Free source: generator images, multiplicative by construction
    (substitution).  Either way the images are checked by
    ``generator_images``, and a key with no image goes to zero.  Function
    rule: certified on law tuples.
    """
    if fn is not None:
        f = LinearMap(source, target, "function", fn=fn, note=note)
        certify_multiplicative(f, policy)
        return f
    if isinstance(source, FreeAlgebra):
        f = LinearMap(source, target, "substitution", images=generator_images(source, target, images),
                      note=note)
        f.multiplicative = EXHAUSTIVE  # by construction
        return f
    f = linear_map(source, target, images)
    f.note = note
    certify_multiplicative(f, policy)
    return f


def maps_agree(f, g, elements):
    return all(f(u) == g(u) for u in elements)


def morphisms_equal(f, g):
    """Componentwise equality of algebra maps: on the basis for a finite
    source, on generators for a free source (enough for algebra maps)."""
    if not (f.source.compatible(g.source) and f.target.compatible(g.target)):
        return False
    return maps_agree(f, g, _skeleton(f.source))


# ---------------------------------------------------------------------------
# Actions


class _KeyBilinear:
    """A bilinear map left x right -> target (``_ends``), given by its key
    images: each subclass's ``_image(k1, k2)`` is the image of one pair of
    basis keys, an element of target (its ``zero()`` for a pair with none).
    ``_evaluate`` is the evaluation of every action and Peiffer lifting;
    each class's ``__call__`` delegates to it, and after the owner checks it
    is ``algebra.evaluate_bilinear``, the evaluation products share."""

    def _evaluate(self, u, v):
        left, right, target = self._ends
        left.owns(u)
        right.owns(v)
        return evaluate_bilinear(target, u, v, self._image)

    def same(self, other):
        """Equal as table-given maps (a ``TableAction`` or a ``BilinearMap``):
        the same kind, compatible ends and equal tables.  Tables hold no zero
        entries, so an empty table is the zero map."""
        return self is other or (
            isinstance(other, (TableAction, BilinearMap))
            and isinstance(other, Action) is isinstance(self, Action)
            and all(o.compatible(e) for o, e in zip(other._ends, self._ends))
            and other.table == self.table
        )


class Action(_KeyBilinear):
    """A bilinear map R x M -> M subject to A1 and A2."""

    def __init__(self, acting, acted):
        self.acting = acting
        self.acted = acted
        self._ends = (acting, acted, acted)
        self.certificate = None


class TableAction(Action):
    """Action given by rows {acted key -> Element}, one per basis label of a
    finite acting algebra or per generator of a free one.  Zero entries and
    empty rows are dropped when it is built, so equal actions have equal
    tables.  A monomial g1...gk of a free acting algebra acts by iterated
    generator action: its key image applies the rows of g1, ..., gk in turn."""

    def __init__(self, acting, acted, table):
        super().__init__(acting, acted)
        rows = {
            label: {k: _as_element_of(acted, v) for k, v in row.items() if v.coeffs}
            for label, row in table.items()
        }
        self.table = {label: row for label, row in rows.items() if row}

    def __call__(self, r, m):
        return self._evaluate(r, m)

    def _image(self, k1, k2):
        table, zero = self.table, self.acted.zero()
        if not isinstance(self.acting, FreeAlgebra):
            return table.get(k1, {}).get(k2, zero)
        rows = [lambda k, row=table.get(g, {}): row.get(k, zero) for g in k1]
        return self.acted.from_coeffs(_compose(self.acted.ring, rows)(k2))


class ZeroAction(TableAction):
    """The zero action: the table action with an empty table."""

    def __init__(self, acting, acted):
        super().__init__(acting, acted, {})

    def __call__(self, r, m):
        return self._evaluate(r, m)


class FunctionAction(Action):
    """Formula-defined action (the tower's leaf actions), given by its key
    images: ``image(k1, k2)`` is the image of a pair of basis keys, an
    element of the acted algebra.  It is called once per key pair, its
    value kept in ``_memo``, so the memo grows with the pairs seen, and
    general elements act by bilinear extension.

    ``origin`` is the structure the formula closes over; two formula
    actions count as the same action when they share the note and the
    origin object (identity), never merely by shape."""

    def __init__(self, acting, acted, image, note="", origin=None):
        super().__init__(acting, acted)
        self.note = note
        self.origin = origin
        self._memo = _Lazy(lambda pair: image(*pair))  # (acting key, acted key) -> image

    def __call__(self, r, m):
        return self._evaluate(r, m)

    def _image(self, k1, k2):
        return self._memo[(k1, k2)]

    def same(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FunctionAction)
            and self.note == other.note
            and self.origin is not None
            and self.origin is other.origin
            and other.acting.compatible(self.acting)
            and other.acted.compatible(self.acted)
        )


def certify_action(action, policy=DEFAULT_POLICY):
    """Certify A1 and A2; raises with a witness triple on failure.

    A1 and A2 are trilinear, so basis tuples prove them in the finite case;
    when the acting algebra is a semidirect product the split basis tuples
    are exactly the reduced conditions for actions of semidirect products.

    Both take the generator rule, A2 first, which applies over finite
    algebras (over any others both are checked on law tuples):

    * A2, r1 r2 > m = r1 > (r2 > m), with r1 on G_R and r2, m over the
      bases.  For a, b in the solution set S and every r2, m, by the
      associativity of R,
      (ab)r2 > m = a > (b r2 > m) = a > (b > (r2 > m)) = ab > (r2 > m).
    * A1, r > m1 m2 = (r > m1) m2, with r on G_R and m1 on G_M, m2 over the
      basis, once A2 is proved.  For r on G_R, the m1 that satisfy it are
      closed under products by the associativity of M:
      r > (ab)m2 = (r > a)(b m2) = ((r > a)b)m2 = (r > ab)m2.  So A1 holds
      for r on G_R and every m1, m2, and the r that satisfy it are closed
      under products by A2:
      ab > m1m2 = a > (b > m1m2) = a > (b > m1)m2 = (ab > m1)m2.

    Each law is decided once, and its failure raised as found.
    """
    R, M = action.acting, action.acted
    ring, key_mul = M.ring, M.key_mul
    # rows[r][m] is the coeffs of r > m, one row per acting key
    rows = _Lazy(lambda r: _Lazy(lambda m: action._image(r, m).coeffs))

    def a1_on_keys(rkeys, m1keys, m2keys):  # r > m1m2 = (r > m1)m2
        for i, r in enumerate(rkeys):
            row = rows[r]
            for j, m1 in enumerate(m1keys):
                acted = row[m1]
                for l, m2 in enumerate(m2keys):
                    product = key_mul(m1, m2).coeffs
                    left = product and combine(ring, [(c, row[k]) for k, c in product.items()])
                    right = acted and combine(ring, [(c, key_mul(k, m2).coeffs) for k, c in acted.items()])
                    if left != right:
                        return i, j, l
        return None

    def a2_on_keys(r1keys, r2keys, mkeys):  # r1r2 > m = r1 > (r2 > m)
        for i, r1 in enumerate(r1keys):
            row1 = rows[r1]
            for j, r2 in enumerate(r2keys):
                product, row2 = R.key_mul(r1, r2).coeffs, rows[r2]
                for l, m in enumerate(mkeys):
                    acted = row2[m]
                    left = product and combine(ring, [(c, rows[k][m]) for k, c in product.items()])
                    right = acted and combine(ring, [(c, row1[k]) for k, c in acted.items()])
                    if left != right:
                        return i, j, l
        return None

    a2_cert = check_law(
        [R, R, M], lambda r1, r2, m: action(r1 * r2, m), lambda r1, r2, m: action(r1, action(r2, m)),
        A2Violation, policy, on_keys=a2_on_keys, generators=(0,),
    )
    a1_cert = check_law(
        [R, M, M], lambda r, m1, m2: action(r, m1 * m2), lambda r, m1, m2: action(r, m1) * m2,
        A1Violation, policy, on_keys=a1_on_keys, generators=(0, 1) if is_proof(a2_cert) else (),
    )
    action.certificate = _weakest(a1_cert, a2_cert)
    return action.certificate


def make_action(acting, acted, table, policy=DEFAULT_POLICY):
    """Build a table action and certify A1/A2.

    The table maps basis labels (finite acting algebra) or generator labels
    (free acting algebra) to maps {acted key -> element}.
    """
    if isinstance(acting, FreeAlgebra):
        actor_keys = set(acting.generators)
    elif isinstance(acting, FiniteAlgebra):
        actor_keys = set(acting.labels)
    else:
        raise BadShape("table action needs a finite or free acting algebra")
    norm = {}
    for label, row in table.items():
        if label not in actor_keys:
            raise BadShape("action table actor %r unknown" % (label,))
        out_row = {}
        for key, value in row.items():
            acted.owns(value)
            out_row[acted.check_key(key)] = value
        norm[label] = out_row
    action = TableAction(acting, acted, norm)
    certify_action(action, policy)
    return action


def zero_action(acting, acted):
    action = ZeroAction(acting, acted)
    action.certificate = EXHAUSTIVE
    return action


# ---------------------------------------------------------------------------
# Bilinear maps (Peiffer liftings)


class BilinearMap(_KeyBilinear):
    """A bilinear map given by a table {(left key, right key) -> Element};
    zero entries are dropped.  A table with entries needs finite arguments.
    The empty table is the zero map over any arguments, such as the zero
    lifting of a crossed module's slice (``crossed.as_two_crossed``), whose
    E is infinite when E is free."""

    def __init__(self, left, right, target, table):
        if table and not (left.is_finite() and right.is_finite()):
            raise BadShape("bilinear table needs finite-dimensional arguments")
        self.left, self.right, self.target = self._ends = (left, right, target)
        norm = {}
        for (k1, k2), value in table.items():
            target.owns(value)
            if not value.is_zero():
                norm[(left.check_key(k1), right.check_key(k2))] = _as_element_of(target, value)
        self.table = norm

    def __call__(self, u, v):
        return self._evaluate(u, v)

    def _image(self, k1, k2):
        return self.table.get((k1, k2)) or self.target.zero()


def zero_bilinear(left, right, target):
    return BilinearMap(left, right, target, {})


# ---------------------------------------------------------------------------
# Semidirect products, certified


def _proved(alg):
    """Whether alg's commutativity and associativity are already proved: a
    FiniteAlgebra's table is certified by make_finite_algebra, a semidirect
    product by its stored exhaustive certificate."""
    if isinstance(alg, FiniteAlgebra):
        return True
    return isinstance(alg, SemidirectAlgebra) and is_proof(alg.certificate)


def is_proof(cert):
    return cert is not None and cert.exhaustive


def certify_algebra(alg, policy=DEFAULT_POLICY):
    """Certify commutativity and associativity; stored as alg.certificate.

    The semidirect lemma: if R and M are commutative and associative and
    the action is bilinear with A1 and A2, then R |x M is commutative and
    associative.  So a finite semidirect product of proved parts under an
    action with an exhaustive certificate is EXHAUSTIVE without drawing
    any tuples.  Every other algebra (a free part, an action not proved on
    a basis, a part whose certificate is missing or sampled) is checked on
    pairs and triples of law_tuples: exhaustive on finite algebras, else
    sampled.
    """
    if (
        isinstance(alg, SemidirectAlgebra)
        and alg.is_finite()
        and _proved(alg.left)
        and _proved(alg.right)
        and is_proof(alg.action.certificate)
    ):
        alg.certificate = EXHAUSTIVE
        return alg.certificate
    commutative = check_law([alg, alg], lambda u, v: u * v, lambda u, v: v * u, NonCommutative, policy)
    associative = check_law(
        [alg, alg, alg], lambda u, v, w: (u * v) * w, lambda u, v, w: u * (v * w), NonAssociative, policy
    )
    alg.certificate = _weakest(commutative, associative)
    return alg.certificate


def semidirect(left, right, action, policy=DEFAULT_POLICY):
    """R |x E with the convention (r,e)(r',e') = (rr', r>e' + r'>e + ee'),
    certified by certify_algebra."""
    alg = SemidirectAlgebra(left, right, action)  # raises ActionMismatch
    certify_algebra(alg, policy)
    return alg
