"""Exception types shared across the package."""


class ThetaCalcError(Exception):
    """Base class for all domain errors."""


class SuperDegreeError(ThetaCalcError):
    """Operand is not homogeneous in super degree."""


class NotACocycle(ThetaCalcError):
    def __init__(self, degree):
        self.degree = degree
        super().__init__(f"degree-{degree} component is not a cocycle")


class InternalInconsistency(ThetaCalcError):
    """A linear system the theory guarantees solvable was infeasible."""


class NonstandardLeadingTerm(ThetaCalcError):
    """The degree-1 component differs from the standard leading term."""


class JacobiViolation(ThetaCalcError):
    def __init__(self, order):
        self.order = order
        super().__init__(f"bracket fails the Jacobi identity at degree {order}")


class ObstructionNonzeroBockstein(ThetaCalcError):
    """A nonzero quotient class survived at some degree.

    Either the input is not Poisson or the truncation order is too low
    to exclude the class; the caller can retry with a larger order.
    """

    def __init__(self, degree, chi):
        self.degree = degree
        self.chi = chi
        super().__init__(
            f"nonzero obstruction class at degree {degree}; "
            "input is not Poisson or the truncation order is too small"
        )


class NonconstantInvariant(ThetaCalcError):
    """A coefficient combination that must be constant depends on u."""


class MissingComponent(ThetaCalcError):
    def __init__(self, degree):
        self.degree = degree
        super().__init__(f"series is truncated below degree {degree}")


class BracketSpecError(ThetaCalcError):
    """Base for errors raised while reading a bracket specification."""

    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            msg = f"line {line}, col {col}: {msg}"
        super().__init__(msg)


class ParseError(BracketSpecError):
    pass


class DegreeMismatch(BracketSpecError):
    pass


class OddPower(BracketSpecError):
    pass
