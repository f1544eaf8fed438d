"""Exception taxonomy.

Every law failure carries a concrete witness tuple so that a failing check
can always be printed as explicit elements.
"""


class XmodError(Exception):
    pass


class BadShape(XmodError):
    """Malformed table / wrong index set."""


class DuplicateGenerator(XmodError):
    pass


class OwnerMismatch(XmodError):
    """Element used with an algebra it does not belong to."""


class ActionMismatch(XmodError):
    """Action endpoints do not match the algebras of a construction."""


class CompositionMismatch(XmodError):
    """Target of the first homotopy differs from the source of the second."""


class FreeBasisRequired(XmodError):
    """Groupoid operation requested over a domain whose R is not a free
    algebra, so not free up to order one."""


class NotAnIdeal(XmodError):
    def __init__(self, witness, msg=""):
        self.witness = witness
        super().__init__(msg or "span is not closed under multiplication: %s" % (witness,))


class LawViolation(XmodError):
    """An algebraic law failed at a concrete witness.

    The message is built when it is read, not when the error is raised:
    random draws reject candidates by catching these errors, and most are
    never printed."""

    law = "law"

    def __init__(self, witness, lhs=None, rhs=None, msg=""):
        super().__init__(witness, lhs, rhs)
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs
        self.msg = msg

    def __str__(self):
        text = self.msg or "%s fails at %s" % (self.law, (self.witness,))
        if self.lhs is not None or self.rhs is not None:
            text += ": lhs=%s rhs=%s" % (self.lhs, self.rhs)
        return text


class NonCommutative(LawViolation):
    law = "commutativity"


class NonAssociative(LawViolation):
    law = "associativity"


class A1Violation(LawViolation):
    law = "A1"


class A2Violation(LawViolation):
    law = "A2"


class MorphismViolation(LawViolation):
    law = "multiplicativity"


class XM1Violation(LawViolation):
    law = "XM1"


class XM2Violation(LawViolation):
    law = "XM2"


class CompositeNonzero(LawViolation):
    law = "d1.d2=0"


class AxiomViolation(LawViolation):
    """One of the lifting axioms 2XM1..2XM6 failed."""

    def __init__(self, axiom, witness, lhs=None, rhs=None):
        self.axiom = axiom
        self.law = axiom
        super().__init__(witness, lhs, rhs)


class SquareViolation(LawViolation):
    law = "square"


class EquivarianceViolation(LawViolation):
    law = "equivariance"


class LiftingViolation(LawViolation):
    law = "lifting"


class DerivationLawViolation(LawViolation):
    law = "derivation-law"


class QDLawViolation(LawViolation):
    """Quadratic derivation law failed; ``equation`` names which one.

    Equation ids: "s-law" (the derivation law for s), "t-product"
    (the expansion of t on a product of E-elements), "t-action"
    (the expansion of t on an acted E-element), and two consequences of
    these on boundaries d2(l) of L, checked as transcription tripwires:
    "t-product-on-boundaries" (t on d2(l) d2(l')) and
    "t-action-on-boundaries" (t on r > d2(l)).

    Witnesses: (r, r') for the s-law, or (monomial,) for a declared value
    of s that the law does not force; (e, e') of E-basis elements for
    t-product and (l, l') of L-basis elements for its boundary form; (r,)
    for t-action and its boundary form, whose lhs and rhs are then lists
    with one value per E-basis (L-basis) element, in basis order.
    """

    def __init__(self, equation, witness, lhs=None, rhs=None):
        self.equation = equation
        self.law = equation
        super().__init__(witness, lhs, rhs)


class ParseError(XmodError):
    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            msg = "%s (line %s, col %s)" % (msg, line, col)
        super().__init__(msg)


class UnresolvedReference(XmodError):
    def __init__(self, name, kind=""):
        self.name = name
        super().__init__("unresolved %s reference: %r" % (kind or "name", name))


class ValidationError(XmodError):
    """A named structure from a spec document failed validation."""

    def __init__(self, structure, cause):
        self.structure = structure
        self.cause = cause
        super().__init__("%s: %s" % (structure, cause))
