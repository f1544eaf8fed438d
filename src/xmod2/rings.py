"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are stored as raw values in one canonical form per ring.  For Q
it is a Python ``int`` when the value is integral and otherwise a
``fractions.Fraction`` in lowest terms, so integral arithmetic (every Q
fixture and draw) runs on C integers; for F_p it is the int in [0, p).
Every ring operation returns the canonical form.  An int and the equal
``Fraction`` compare and hash alike, so the form never changes a verdict,
and ``str`` prints both the same way.  All arithmetic goes through the
ring object, so no floating point can enter anywhere.
"""

from fractions import Fraction

from .errors import BadShape, ParseError

MAX_PRIME = 2**31


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Ring:
    """A field of exact scalars."""

    name = "?"

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a):
        return not a  # the int 0 is every ring's zero and its only falsy scalar

    def __repr__(self):
        return self.name


def _canonical(q):
    """The canonical Q scalar equal to the Fraction q: its numerator when
    q is integral (a Fraction is always in lowest terms)."""
    return q.numerator if q.denominator == 1 else q


class Rational(Ring):
    name = "Q"
    zero = 0
    one = 1

    def coerce(self, value):
        if type(value) is int:
            return value
        if isinstance(value, Fraction):
            return _canonical(value)
        if isinstance(value, int):  # bool
            return int(value)
        if isinstance(value, str):
            return self.parse(value)
        raise BadShape("cannot coerce %r into Q" % (value,))

    def parse(self, text):
        if "e" in text or "E" in text:  # Fraction would build 10**exponent
            raise ParseError("bad rational scalar %r: exponent notation is not accepted" % (text,))
        try:
            return _canonical(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("bad rational scalar %r: %s" % (text, exc))

    def to_str(self, value):
        return str(value)

    def add(self, a, b):
        s = a + b
        return s if type(s) is int else _canonical(s)

    def mul(self, a, b):
        p = a * b
        return p if type(p) is int else _canonical(p)

    def neg(self, a):
        return -a if type(a) is int else _canonical(-a)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if type(a) is int:  # 1 / a would be a float
            return a if a == 1 or a == -1 else Fraction(1, a)
        return _canonical(1 / a)

    def random(self, rng):
        return rng.randint(-3, 3)

    def __eq__(self, other):
        return isinstance(other, Rational)

    def __hash__(self):
        return hash("Q")


class PrimeField(Ring):
    def __init__(self, p):
        if not isinstance(p, int) or p > MAX_PRIME or not _is_prime(p):
            raise BadShape("modulus must be a prime <= 2^31, got %r" % (p,))
        self.p = p
        self.name = "F%d" % p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise BadShape("denominator divisible by %d" % self.p)
            return (value.numerator % self.p) * self.inv(value.denominator % self.p) % self.p
        raise BadShape("cannot coerce %r into %s" % (value, self.name))

    def parse(self, text):
        body = text.strip()
        if "mod" in body:
            value, _, mod = body.partition("mod")
            try:
                declared = int(mod.strip())
            except ValueError:
                raise ParseError("bad modulus in scalar %r" % (text,))
            if declared != self.p:
                raise ParseError("scalar %r declared mod %d, ring is %s" % (text, declared, self.name))
            body = value.strip()
        try:
            if "/" in body:
                return self.coerce(Fraction(body))
            return int(body) % self.p
        except (ValueError, ZeroDivisionError, BadShape) as exc:
            raise ParseError("bad scalar %r for %s: %s" % (text, self.name, exc))

    def to_str(self, value):
        return str(value % self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero mod %d" % self.p)
        return pow(a, -1, self.p)

    def random(self, rng):
        return rng.randrange(min(self.p, 5))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


QQ = Rational()


def ring_from_spec(spec):
    """Build a ring from its document form: "Q" or {"prime": p}."""
    if spec == "Q" or spec == "rational":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        try:
            return PrimeField(spec["prime"])
        except BadShape as exc:
            raise ParseError("bad ring spec %r: %s" % (spec, exc))
    raise ParseError("bad ring spec %r" % (spec,))


# ---------------------------------------------------------------------------
# Exact linear algebra (dense, desk scale).  Vectors and matrices are plain
# lists of ring scalars.

def rref(rows, ncols, ring):
    """Row-reduce in place; returns the list of pivot column indices."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not ring.is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = ring.inv(rows[r][c])
        rows[r] = [ring.mul(scale, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not ring.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [ring.sub(rows[i][j], ring.mul(factor, rows[r][j])) for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def nullspace(rows, ncols, ring):
    """Kernel basis of the matrix (list of row vectors), as row vectors."""
    work = [list(row) for row in rows]
    for row in work:
        if len(row) != ncols:
            raise BadShape("ragged matrix")
    pivots = rref(work, ncols, ring)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        vec = [ring.zero] * ncols
        vec[c] = ring.one
        for r, pc in enumerate(pivots):
            vec[pc] = ring.neg(work[r][c])
        basis.append(vec)
    return basis


def solve_in_span(vectors, target, ring):
    """Coefficients expressing target in the span of vectors, or None."""
    if not vectors:
        return [] if all(ring.is_zero(v) for v in target) else None
    n = len(target)
    rows = [[vectors[j][i] for j in range(len(vectors))] + [target[i]] for i in range(n)]
    pivots = rref(rows, len(vectors) + 1, ring)
    if len(vectors) in pivots:
        return None
    coeffs = [ring.zero] * len(vectors)
    for r, pc in enumerate(pivots):
        coeffs[pc] = rows[r][len(vectors)]
    return coeffs
