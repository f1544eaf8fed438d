"""Commutative, possibly non-unital algebras over an exact field.

Three representations:

* ``FiniteAlgebra`` -- ordered basis plus a symmetric, associative table of
  structure constants (both certified at construction);
* ``FreeAlgebra`` -- the non-unital free commutative algebra on a generator
  set: polynomials with zero constant term, monomials stored as sorted
  label tuples;
* ``SemidirectAlgebra`` -- R (x) E as a module, with the product
  (r,e)(r',e') = (rr', r>e' + r'>e + ee') for a validated action >.

Elements are sparse scalar maps over basis labels / monomials / tagged
component keys, kept in canonical normal form, so equality is structural.
All values are immutable after construction and every operation is pure.

The sums of products, maps and actions are computed by two kernels on
coefficient dicts: ``combine`` (a linear combination of dicts) and
``bilinear`` (the bilinear extension of a key image, an element for each
pair of keys).  On elements, one evaluation, ``evaluate_bilinear``, serves
every bilinear map: a zero argument gives zero, two unit keys give their
key image, anything else the extension ``bilinear``.  Products
(``Algebra.multiply``, whose key image is ``key_mul``) and every action and
Peiffer lifting of ``maps`` (``maps._KeyBilinear._evaluate``) go through
it; a linear map extends its key images by ``combine`` (``maps._extend``),
and the exhaustive law checks of ``maps`` use the two kernels.  So the
arithmetic has one implementation.

Every spanning set a law is checked on is kept here, once, as a ``Kept``
tuple of elements with their keys: a finite algebra's basis
(``basis_elements``), the elements a generator slot is checked on
(``generator_elements``: a free algebra's generators, or a finite
algebra's basis elements at ``generating_positions``, the positions of
basis elements whose products span it), and a finite semidirect product's
slot triangle (``SemidirectAlgebra.triangle``, the first basis position
each generator pairs with).  Each is built on first use (a free algebra's
generators with the algebra) and every call returns the same object.
``maps.check_law`` checks a law on them: a generating set in a slot whose
solution set is closed under products (the generator rule), the bases
elsewhere.

An element's ``coeffs`` dict may be shared: a product of two basis keys is
the ``key_mul`` value itself (a structure-table row, or a semidirect
product's memoised entry), a map, action or lifting evaluated on basis
keys returns its key image itself (a table or memo entry, an element of
its target), a combination of one dict with coefficient one is
that dict, and a sum with a zero operand is the other operand (re-tagged
to the left operand's algebra when that is another, compatible one).
Elements themselves may be shared too: every algebra builds its zero
once (``zero``), and every empty result is that object, because sums,
scalings, products, ``element``, the semidirect embeddings, ``pair`` and
``split`` build their results with one method, ``from_coeffs``, which
gives ``zero()`` for an empty dict (so do the maps, actions and liftings
of ``maps``).  A finite algebra keeps each basis element it builds
(``basis_element``), so every caller of a key gets the same object, and
each product of a pair of basis keys with a table row (``key_mul``).  So
nothing may mutate the ``coeffs`` of an element it did not just build, a
zero, a basis element or a kept product included, nor a kept tuple.
"""

from .errors import (
    ActionMismatch,
    BadShape,
    DuplicateGenerator,
    NonAssociative,
    NonCommutative,
    OwnerMismatch,
)


class Element:
    """A vector in an algebra: finite map from keys to nonzero scalars."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = coeffs  # normalized by Algebra.element

    def is_zero(self):
        return not self.coeffs

    def _check_owner(self, other):
        if not isinstance(other, Element):
            raise OwnerMismatch("expected an Element, got %r" % (other,))
        if self.algebra is not other.algebra and not self.algebra.compatible(other.algebra):
            raise OwnerMismatch("elements of %r and %r" % (self.algebra, other.algebra))

    def __add__(self, other):
        self._check_owner(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other if other.algebra is self.algebra else self.algebra.from_coeffs(other.coeffs)
        ring = self.algebra.ring
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = ring.add(out.get(k, ring.zero), c)
            if ring.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
        return self.algebra.from_coeffs(out)

    def __neg__(self):
        if not self.coeffs:
            return self
        ring = self.algebra.ring
        return Element(self.algebra, {k: ring.neg(c) for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        ring = self.algebra.ring
        scalar = ring.coerce(scalar)
        if ring.is_zero(scalar):
            return self.algebra.zero()
        return self.algebra.from_coeffs({k: ring.mul(scalar, c) for k, c in self.coeffs.items()})

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_owner(other)
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __eq__(self, other):
        self._check_owner(other)
        return self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self):
        return self.algebra.element_str(self)

    def __repr__(self):
        return "<%s>" % self.algebra.element_str(self)


def unit_key(u):
    """The key of u when u is one basis key with coefficient one, else None.

    Formula closures are called on basis elements, and the skeleton tuples
    of a law check and the probes of the simplicial identities are basis
    elements, so the element operations take a direct path on them.  The
    coefficient is tested by identity first, as in ``combine``: ``ring.one``
    is the int 1 over Q and F_p alike, and CPython shares small ints, so
    every canonical one is that object and ``==`` is only a fallback."""
    if len(u.coeffs) == 1:
        (key, c), = u.coeffs.items()
        one = u.algebra.ring.one
        if c is one or c == one:
            return key
    return None


class Kept(tuple):
    """Elements an algebra keeps, in order, with their ``keys``: the key of
    each, which is one basis key with coefficient one (``unit_key``).  The
    keys are those of the kept elements, not of ``basis_keys()``, which
    builds new tuples for a semidirect product, so the memo and cache
    entries a key kernel makes hold the very key objects later lookups pass."""

    def __new__(cls, elements):
        kept = super().__new__(cls, elements)
        kept.keys = tuple(unit_key(u) for u in kept)
        return kept


def combine(ring, terms):
    """The normalised coefficient dict of sum(c * coeffs) over a list of
    (scalar, coeffs) terms.

    One term whose scalar is ``ring.one`` itself is its own dict.  The test
    is by identity because it is cheap, and it misses no canonical scalar:
    ``ring.one`` is the int 1, and CPython shares small ints, so every
    integral 1 of Q or F_p is that object.  An equal scalar that were
    another object would take the sum, which gives an equal dict."""
    if len(terms) == 1 and terms[0][0] is ring.one:
        return terms[0][1]
    acc = {}
    for c, coeffs in terms:
        for k, v in coeffs.items():
            s = ring.add(acc.get(k, ring.zero), ring.mul(c, v))
            if ring.is_zero(s):
                acc.pop(k, None)
            else:
                acc[k] = s
    return acc


def bilinear(ring, a, b, image):
    """The normalised coefficient dict of sum(c1 c2 image(k1, k2)) over the
    items (k1, c1) of a and (k2, c2) of b: the bilinear extension of
    ``image``, which gives an element for each pair of keys."""
    mul = ring.mul
    return combine(ring, [
        (mul(c1, c2), image(k1, k2).coeffs) for k1, c1 in a.items() for k2, c2 in b.items()
    ])


def evaluate_bilinear(target, u, v, image):
    """The value at (u, v) of the bilinear map into target whose image of a
    pair of basis keys is the element image(k1, k2) of target.  In order: a
    zero argument gives target's ``zero()``; two basis keys with coefficient
    one (``unit_key``) give their key image itself; anything else gives the
    bilinear extension (``bilinear``).  ``Algebra.multiply``, whose key
    image is ``key_mul``, and every action and Peiffer lifting of ``maps``
    are evaluated here."""
    if not (u.coeffs and v.coeffs):
        return target.zero()
    k1, k2 = unit_key(u), unit_key(v)
    if k1 is not None and k2 is not None:
        return image(k1, k2)
    return target.from_coeffs(bilinear(target.ring, u.coeffs, v.coeffs, image))


def _echelon_add(ring, echelon, v, position):
    """Reduce the coefficient dict v against ``echelon`` and add what is
    left, if anything, as a new row; returns whether a row was added.

    ``echelon`` maps each row's pivot to the row, which has coefficient one
    at its pivot and zero at the pivots of the rows before it.  Reducing in
    that order leaves zero at every pivot, and the new row's pivot is its
    first key in ``position`` order.  So every pivot is the first key of a
    vector of the span, and the pivots are those of the span's rref."""
    for p, row in echelon.items():
        c = v.get(p)
        if c is not None:
            v = combine(ring, [(ring.one, v), (ring.neg(c), row)])
    if not v:
        return False
    pivot = min(v, key=position.__getitem__)
    lead = v[pivot]
    if lead is not ring.one and lead != ring.one:
        scale = ring.inv(lead)
        v = {k: ring.mul(scale, c) for k, c in v.items()}
    echelon[pivot] = v  # never mutated, so it may be a table row
    return True


class Algebra:
    ring = None
    _zero = None  # zero(), built on first use
    _kept = None  # basis key -> basis element, kept by a finite algebra only
    _basis = None  # basis_elements, built on first use
    _generating = None  # generating_positions, found on first use
    _generators = None  # generator_elements, built on first use or with a free algebra

    # -- elements ----------------------------------------------------------

    def element(self, coeffs):
        """Normalize a key->scalar mapping into an Element (drops zeros)."""
        ring = self.ring
        out = {}
        for key, value in coeffs.items():
            key = self.check_key(key)
            value = ring.coerce(value)
            if key in out:
                value = ring.add(out[key], value)
            if ring.is_zero(value):
                out.pop(key, None)
            else:
                out[key] = value
        return self.from_coeffs(out)

    def from_coeffs(self, coeffs):
        """The element with the normalised coefficient dict coeffs, which it
        shares; the shared zero() when coeffs is empty."""
        return Element(self, coeffs) if coeffs else self.zero()

    def zero(self):
        """The zero element, built once and shared."""
        if self._zero is None:
            self._zero = Element(self, {})
        return self._zero

    def basis_element(self, key):
        """The basis element of key.  A finite algebra keeps each one it
        builds, so a key has one basis element, shared by every caller."""
        kept = self._kept
        if kept is None:
            return Element(self, {self.check_key(key): self.ring.one})
        try:
            return kept[key]
        except (KeyError, TypeError):  # new, or unhashable for check_key to refuse
            pass
        key = self.check_key(key)
        u = kept[key] = Element(self, {key: self.ring.one})
        return u

    def owns(self, u):
        if not isinstance(u, Element):
            raise OwnerMismatch("expected an Element, got %r" % (u,))
        if u.algebra is not self and not self.compatible(u.algebra):
            raise OwnerMismatch("element %r does not live in %r" % (u, self))
        return u

    # -- multiplication ----------------------------------------------------

    def multiply(self, u, v):
        return evaluate_bilinear(self, u, v, self.key_mul)

    # -- shape -------------------------------------------------------------

    def is_finite(self):
        return self.dim() is not None

    def basis_keys(self):
        """Keys of a module basis (finite algebras only)."""
        raise BadShape("%r has no finite basis" % (self,))

    def basis_elements(self):
        """The basis elements, the ones ``basis_element`` keeps, in basis
        order: one ``Kept`` tuple, built on first use (finite algebras only)."""
        if self._basis is None:
            self._basis = Kept(self.basis_element(k) for k in self.basis_keys())
        return self._basis

    def generating_positions(self):
        """Positions in the basis of basis elements that generate the
        algebra: their products, iterated, span it (finite algebras only)."""
        raise BadShape("%r has no finite basis" % (self,))

    def generator_elements(self):
        """The elements a generator slot over this algebra is checked on, one
        ``Kept`` tuple: a free algebra's generators, built with it, or a
        finite algebra's basis elements at ``generating_positions``, built on
        first use.  Whether the slot may take them is ``maps``' to decide."""
        if self._generators is None:
            basis = self.basis_elements()
            self._generators = Kept(basis[i] for i in self.generating_positions())
        return self._generators

    def element_str(self, u):
        if not u.coeffs:
            return "0"
        parts = []
        for key in sorted(u.coeffs):
            c = u.coeffs[key]
            cs = self.ring.to_str(c)
            ks = self.key_str(key)
            if cs == "1":
                parts.append(ks)
            elif cs == "-1":
                parts.append("-" + ks)
            else:
                parts.append("%s*%s" % (cs, ks))
        return " + ".join(parts).replace("+ -", "- ")

    def key_str(self, key):
        return str(key)


class FiniteAlgebra(Algebra):
    """Finite-dimensional algebra given by structure constants."""

    def __init__(self, ring, labels, table):
        self.ring = ring
        self.labels = tuple(labels)
        self._labelset = set(self.labels)
        self._table = table  # (label, label) -> dict(label -> scalar), both orders present
        self._draws = {}  # sampled law tuples and their span, kept by maps._sampled
        self._kept = {}
        self._products = {}  # (label, label) -> kept product, one per table pair

    def check_key(self, key):
        if key not in self._labelset:
            raise BadShape("unknown basis label %r of %r" % (key, self))
        return key

    def key_mul(self, k1, k2):
        """The product of two basis keys: the element of its table row, built
        once per table pair and kept, or the shared zero() for a pair with
        no row."""
        kept = self._products.get((k1, k2))
        if kept is None and (k1, k2) in self._table:
            kept = self._products[(k1, k2)] = self.from_coeffs(self._table[(k1, k2)])
        return self.zero() if kept is None else kept

    def dim(self):
        return len(self.labels)

    def basis_keys(self):
        return list(self.labels)

    def generating_positions(self):
        """The labels that are not pivots of the rref of A^2's table rows,
        found once.  They span a complement of A^2, which generates A when
        A is nilpotent, and in general when the subalgebra they generate
        spans A; that is checked, and when it fails (u^2 = u) every label
        is taken.  A zero table takes every label with no linear algebra."""
        if self._generating is None:
            labels = self.labels
            self._generating = tuple(range(len(labels)))
            if self._table:
                ring, position = self.ring, {k: i for i, k in enumerate(labels)}
                square = {}
                for (i, j), row in self._table.items():
                    if position[i] <= position[j]:  # the table holds both orders
                        _echelon_add(ring, square, row, position)
                gens = [k for k in labels if k not in square]
                if gens and self._generates(gens, position):
                    self._generating = tuple(position[k] for k in gens)
        return self._generating

    def _generates(self, gens, position):
        """Whether the subalgebra generated by the labels gens spans A: the
        span of gens, closed under multiplication by each of them."""
        ring, table = self.ring, self._table
        span = {g: {g: ring.one} for g in gens}  # unit rows are an echelon form
        queue = list(span.values())
        for v in queue:  # grows while products add rows
            if len(span) == len(self.labels):
                break
            for g in gens:
                w = combine(ring, [(c, table.get((k, g), {})) for k, c in v.items()])
                if _echelon_add(ring, span, w, position):
                    queue.append(w)
        return len(span) == len(self.labels)

    def compatible(self, other):
        return (
            isinstance(other, FiniteAlgebra)
            and other.ring == self.ring
            and other.labels == self.labels
            and other._table == self._table
        )

    def __repr__(self):
        return "FiniteAlgebra<%s>" % ",".join(self.labels)


class FreeAlgebra(Algebra):
    """Non-unital free commutative algebra: constant-free polynomials."""

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = tuple(generators)
        self._genset = set(self.generators)
        self._draws = {}  # sampled law tuples and their span, kept by maps._sampled
        self._generators = Kept(Element(self, {(g,): ring.one}) for g in self.generators)

    def check_key(self, key):
        if not isinstance(key, tuple) or not key:
            raise BadShape("monomial key must be a nonempty tuple, got %r" % (key,))
        for g in key:
            if g not in self._genset:
                raise BadShape("unknown generator %r of %r" % (g, self))
        return tuple(sorted(key))

    def key_mul(self, k1, k2):
        return Element(self, {tuple(sorted(k1 + k2)): self.ring.one})

    def dim(self):
        return None

    def monomial(self, *labels):
        return self.basis_element(tuple(labels))

    def compatible(self, other):
        return (
            isinstance(other, FreeAlgebra)
            and other.ring == self.ring
            and other.generators == self.generators
        )

    def key_str(self, key):
        parts = []
        for g in sorted(set(key)):
            n = key.count(g)
            parts.append(g if n == 1 else "%s^%d" % (g, n))
        return "*".join(parts)

    def parse_monomial(self, text):
        key = []
        for factor in text.split("*"):
            factor = factor.strip()
            name, _, power = factor.partition("^")
            n = 1
            if power:
                try:
                    n = int(power)
                except ValueError:
                    raise BadShape("bad monomial %r" % text)
            if n < 1 or name not in self._genset:
                raise BadShape("bad monomial %r for %r" % (text, self))
            key.extend([name] * n)
        return self.check_key(tuple(key))

    def __repr__(self):
        return "FreeAlgebra<%s>" % ",".join(self.generators)


class SemidirectAlgebra(Algebra):
    """R ltimes E for a validated action of R on E.

    Keys are tagged: (0, key-of-R) for the acting part, (1, key-of-E)
    for the acted part.
    """

    def __init__(self, left, right, action):
        if left.ring != right.ring:
            raise ActionMismatch("semidirect parts over different rings")
        if not (action.acting.compatible(left) and action.acted.compatible(right)):
            raise ActionMismatch("action endpoints do not match the semidirect parts")
        self.ring = left.ring
        self.left = left
        self.right = right
        self.action = action
        self.certificate = None  # commutativity/associativity, set by maps.certify_algebra
        self._mulcache = {}  # basis-key products recur heavily in law checks
        self._starts = None  # triangle, found on first use
        self._draws = {}  # sampled law tuples and their span, kept by maps._sampled
        dl, dr = left.dim(), right.dim()
        self._dim = None if dl is None or dr is None else dl + dr  # the parts never change
        if self._dim is not None:
            self._kept = {}

    def check_key(self, key):
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] in (0, 1)):
            raise BadShape("semidirect key must be (side, subkey), got %r" % (key,))
        side, sub = key
        part = self.left if side == 0 else self.right
        return (side, part.check_key(sub))

    def key_mul(self, k1, k2):
        cached = self._mulcache.get((k1, k2))
        if cached is not None:
            return cached
        s1, a = k1
        s2, b = k2
        if s1 == 0 and s2 == 0:
            out = self.embed_left(self.left.key_mul(a, b))
        elif s1 == 1 and s2 == 1:
            out = self.embed_right(self.right.key_mul(a, b))
        else:
            if s1 == 0:
                acted = self.action(self.left.basis_element(a), self.right.basis_element(b))
            else:
                acted = self.action(self.left.basis_element(b), self.right.basis_element(a))
            out = self.embed_right(acted)
        self._mulcache[(k1, k2)] = out
        return out

    def embed_left(self, u):
        self.left.owns(u)
        return self.from_coeffs({(0, k): c for k, c in u.coeffs.items()})

    def embed_right(self, u):
        self.right.owns(u)
        return self.from_coeffs({(1, k): c for k, c in u.coeffs.items()})

    def pair(self, u, v):
        self.left.owns(u)
        self.right.owns(v)
        coeffs = {(0, k): c for k, c in u.coeffs.items()}
        for k, c in v.coeffs.items():
            coeffs[(1, k)] = c
        return self.from_coeffs(coeffs)

    def split(self, w):
        """Inverse of pair: the (left, right) components of an element."""
        self.owns(w)
        left = {}
        right = {}
        for (side, k), c in w.coeffs.items():
            (left if side == 0 else right)[k] = c
        return self.left.from_coeffs(left), self.right.from_coeffs(right)

    def __repr__(self):
        return "Semidirect<%r |x %r>" % (self.left, self.right)

    def dim(self):
        return self._dim

    def basis_keys(self):
        return [(0, k) for k in self.left.basis_keys()] + [(1, k) for k in self.right.basis_keys()]

    def generating_positions(self):
        """G(X) on the X side and G(Y) on the Y side, with no linear algebra:
        (x, 0)(x', 0) = (xx', 0) and (0, y)(0, y') = (0, yy'), so they
        generate X x 0 and 0 x Y, which span X |x Y."""
        if self._generating is None:
            shift = self.left.dim()
            self._generating = self.left.generating_positions() + tuple(
                shift + i for i in self.right.generating_positions())
        return self._generating

    def triangle(self):
        """The slot triangle's starts, found once (finite products only): for
        each element of ``generator_elements``, the first basis position of
        its slot.  The slots are the parts that are not semidirect products,
        left to right down the nesting, so each is a run of the basis; the
        triangle pairs a generator with the basis from its slot's start on
        (``maps.certify_multiplicative``)."""
        if self._starts is None:
            starts = _slot_starts(self, 0)
            self._starts = tuple(starts[i] for i in self.generating_positions())
        return self._starts

    def compatible(self, other):
        return (
            isinstance(other, SemidirectAlgebra)
            and other.left.compatible(self.left)
            and other.right.compatible(self.right)
            and self.action.same(other.action)
        )

    def element_str(self, u):
        l, r = self.split(u)
        return "(%s, %s)" % (self.left.element_str(l), self.right.element_str(r))


def _slot_starts(alg, first):
    """The first basis position of each basis element's slot, in basis
    order, alg's basis starting at position first."""
    if not isinstance(alg, SemidirectAlgebra):
        return [first] * alg.dim()
    return _slot_starts(alg.left, first) + _slot_starts(alg.right, first + alg.left.dim())


def make_finite_algebra(basis, constants, ring):
    """Build and certify a FiniteAlgebra.

    ``constants`` maps ordered label pairs to element mappings; omitted
    pairs multiply to zero.  Commutativity is checked on all ordered basis
    pairs and associativity on all basis triples, exhaustively.  Both are
    decided on the normalized table: (ij)k combines the rows (m, k) over
    the row (i, j), and i(jk) the rows (i, n) over the row (j, k), and a
    triple where both ij and jk are zero has both sides zero.  No element
    is built unless a triple fails, when ``NonAssociative`` gets the first
    failing triple in (i, j, k) order and its two products.
    """
    labels = tuple(basis)
    if len(set(labels)) != len(labels):
        raise DuplicateGenerator("repeated basis label in %r" % (labels,))
    labelset = set(labels)
    table = {}
    for pair, value in constants.items():
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise BadShape("structure table key %r is not a label pair" % (pair,))
        i, j = pair
        if i not in labelset or j not in labelset:
            raise BadShape("structure table pair %r uses unknown labels" % (pair,))
        row = {}
        for k, c in value.items():
            if k not in labelset:
                raise BadShape("structure constant target %r unknown" % (k,))
            c = ring.coerce(c)
            if not ring.is_zero(c):
                row[k] = c
        if row:
            table[(i, j)] = row
    alg = FiniteAlgebra(ring, labels, table)
    for i in labels:
        for j in labels:
            if table.get((i, j), {}) != table.get((j, i), {}):
                raise NonCommutative((i, j), alg.key_mul(i, j), alg.key_mul(j, i))
    for i in labels:
        for j in labels:
            ij = table.get((i, j), {}).items()
            for k in labels:
                jk = table.get((j, k))
                if not (ij or jk):
                    continue  # both sides are zero
                lhs = combine(ring, [(c, table.get((m, k), {})) for m, c in ij])
                rhs = combine(ring, [(c, table.get((i, n), {})) for n, c in jk.items()]) if jk else {}
                if lhs != rhs:
                    ei, ej, ek = (alg.basis_element(x) for x in (i, j, k))
                    raise NonAssociative((i, j, k), alg.multiply(alg.multiply(ei, ej), ek),
                                         alg.multiply(ei, alg.multiply(ej, ek)))
    return alg


def make_free_algebra(generators, ring):
    gens = tuple(generators)
    if len(set(gens)) != len(gens):
        raise DuplicateGenerator("repeated generator in %r" % (gens,))
    return FreeAlgebra(ring, gens)


def zero_algebra(ring):
    """The zero algebra, as a finite algebra with empty basis."""
    return FiniteAlgebra(ring, (), {})


def generator_keys(alg):
    """The keys an algebra map or a derivation out of alg is given on: the
    generators of a free algebra or the basis of a finite one.  Any other
    algebra, such as a semidirect product with a free part, raises BadShape."""
    if isinstance(alg, FreeAlgebra):
        return list(alg.generators)
    if not alg.is_finite():
        raise BadShape("%r is neither finite nor free" % (alg,))
    return alg.basis_keys()
