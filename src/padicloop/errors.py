"""Exception hierarchy for the p-adic kernel and everything built on it."""


class PadicError(Exception):
    """Base class for all library errors."""


class ZeroDenominator(PadicError):
    pass


class DivisionByZero(PadicError):
    pass


class PrecisionExhausted(PadicError):
    """No digit of the requested result is determinable at the tracked precision."""


class NonSquare(PadicError):
    """Odd valuation or non-residue leading digit: no square root in Q_p."""


class ParseError(PadicError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class DomainError(PadicError):
    """Argument outside the convergence disk of the requested series."""


class WrongPrimeClass(PadicError):
    """Operation needs p = 3 (mod 4) so that Q_p(i) is a field."""


class NotPauliShape(PadicError):
    pass


class IsotropicAxis(PadicError):
    """Reflection axis with q(u) = 0 (to working precision)."""


class PoleHit(PadicError):
    pass


class OutsideDisk(PadicError):
    pass


class NearPole(PadicError):
    """Float oracle denominator too small to trust."""
