"""Exact p-adic arithmetic, the quadratic extension Q_p(i), p-adic analytic
functions, the Pauli-matrix model of the p-adic 2-sphere, and the Kikkawa-type
loop on the p-adic unit disk, with oracle-backed property suites."""

from .context import PrimeContext
from .errors import (
    DivisionByZero,
    DomainError,
    IsotropicAxis,
    NearPole,
    NonSquare,
    NotPauliShape,
    OutsideDisk,
    PadicError,
    ParseError,
    PoleHit,
    PrecisionExhausted,
    WrongPrimeClass,
    ZeroDenominator,
)
from .padic import (
    INFINITE,
    PadicNumber,
    format_padic,
    from_int,
    from_rational,
    parse_padic,
    sqrt,
)

__all__ = [
    "PrimeContext",
    "PadicNumber",
    "INFINITE",
    "from_rational",
    "from_int",
    "sqrt",
    "format_padic",
    "parse_padic",
    "PadicError",
    "ZeroDenominator",
    "DivisionByZero",
    "PrecisionExhausted",
    "NonSquare",
    "ParseError",
    "DomainError",
    "WrongPrimeClass",
    "NotPauliShape",
    "IsotropicAxis",
    "PoleHit",
    "OutsideDisk",
    "NearPole",
]
