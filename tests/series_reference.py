"""Term-by-term reference for the series that analytic.py sums by
rectangular splitting.

`_exp_series`, `_alternating` and `log` are the object recurrences that
analytic.py ran before the rectangular-splitting engine, copied verbatim: one
full-width PadicNumber / QpiElement product per term.  The public functions
below compose them exactly as analytic.py composes its own, so the engine
must reproduce every digit and every (kind, v, unit, r, m) of them.

`binomial_series` is the term-carrying object recurrence that analytic.py ran
before binomial reached the engine, copied verbatim, and arcsin composes it.
`binomial_two_carrier` is that recurrence as it was before it carried the term
itself: the coefficient c and the power x^n as two full-width objects,
multiplied together for each term.

`exp_horizontal` is clifford.exp_horizontal as it was before t = tan(y)/y
was summed as two real series in N(beta): y is the kernel's square root of
N(beta), or i times that of -N(beta) when N(beta)'s unit is not a square,
and t is the real part of this module's tan(y) / y, cut at m(N(beta)) -
v_p(3).
"""

from padicloop.analytic import (
    _MAX_TERMS,
    _as_qpi,
    _ilog,
    _one_like,
    _real_in_real_out,
    _require,
)
from padicloop.clifford import ProjectiveRotation
from padicloop.errors import DomainError, NonSquare, PadicError
from padicloop.padic import INFINITE, PadicNumber, from_rational, sqrt, vp_int
from padicloop.qpi import QpiElement


def _exp_series(x):
    """Sum x^n/n! with the factorial tail bound, for scalars and Q_p(i)
    elements alike."""
    p = x.ctx.p
    lb = x.valuation_lower_bound
    one = _one_like(x)
    total = one
    term = one
    n = 0
    while n < _MAX_TERMS:
        n += 1
        term = (term * x).div_int(n)
        total = total + term
        tail = (n + 1) * lb - n // (p - 1)
        if tail >= total.known_precision:
            # digits at or beyond the tail bound would still move if more
            # terms were added; cap every component there
            return total.truncate(tail)
    raise PadicError("exp series failed to terminate")


def exp(x):
    """exp on the disk |x|_p <= p^-1 (where the factorial growth is beaten)."""
    _require(x, "exp", "EXP_DISK")
    if x.valuation_lower_bound == INFINITE:
        return _one_like(x)
    return _exp_series(x)


def log(y):
    """log on 1 + LOG_DISK: y = 1 + x with |x|_p < 1."""
    x = y - _one_like(y)
    _require(x, "log", "LOG_DISK")
    ctx = x.ctx
    p = ctx.p
    lb = x.valuation_lower_bound
    if lb == INFINITE:
        z = PadicNumber.exact_zero(ctx)
        return QpiElement(z, z) if isinstance(y, QpiElement) else z
    total = None
    xn = _one_like(x)
    n = 0
    while n < _MAX_TERMS:
        n += 1
        xn = xn * x
        term = xn.div_int(n if n % 2 == 1 else -n)
        total = term if total is None else total + term
        tail = (n + 1) * lb - _ilog(n + 1, p)
        if tail >= total.known_precision:
            return total.truncate(tail)
    raise PadicError("log series failed to terminate")


def _alternating(x, power):
    """sin (power 1) or cos (power 0): the sum of (-1)^k x^(2k+power) /
    (2k+power)!, with the factorial tail bound."""
    _require(x, "sin_cos_tan", "EXP_DISK")
    p = x.ctx.p
    lb = x.valuation_lower_bound
    total = term = x if power else _one_like(x)
    if lb == INFINITE:
        return total
    x2 = x * x
    n = power
    while n < _MAX_TERMS:
        term = (term * x2).div_int(-(n + 1) * (n + 2))
        n += 2
        total = total + term
        tail = (n + 2) * lb - (n + 1) // (p - 1)
        if tail >= total.known_precision:
            return total.truncate(tail)
    raise PadicError("trigonometric series failed to terminate")


def sin(x):
    return _alternating(x, 1)


def cos(x):
    return _alternating(x, 0)


def tan(x):
    s, c = sin(x), cos(x)
    if x.valuation_lower_bound == INFINITE:
        return s
    return s / c


def arctan(x):
    was_real = not isinstance(x, QpiElement)
    x = _as_qpi(x)
    _require(x, "arctan", "EXP_DISK")
    ctx = x.ctx
    i = QpiElement.i_unit(ctx)
    ix = i * x
    one = QpiElement.one(ctx)
    q = (one + ix) / (one - ix)
    result = log(q) * (-i) / from_rational(2, 1, ctx)
    return _real_in_real_out(result, was_real)


def arcsin(x):
    was_real = not isinstance(x, QpiElement)
    x = _as_qpi(x)
    _require(x, "arcsin", "BINOMIAL_DISK")
    ctx = x.ctx
    i = QpiElement.i_unit(ctx)
    half = from_rational(1, 2, ctx)
    root = binomial_series(half, -(x * x))
    result = log(i * x + root) * (-i)
    return _real_in_real_out(result, was_real)


def binomial_series(alpha, x):
    """Sum binom(alpha, n) x^n for alpha in Z_p, |x|_p < 1.

    Coefficients lie in Z_p (integrality passes to the completion), which is
    what makes the plain (n+1)*v(x) tail bound valid.
    """
    if alpha.valuation_lower_bound < 0:
        raise DomainError(
            f"binomial_series: alpha has valuation {alpha.valuation}, not in Z_p"
        )
    _require(x, "binomial_series", "BINOMIAL_DISK")
    ctx = x.ctx
    one = _one_like(x)
    lb = x.valuation_lower_bound
    if lb == INFINITE:
        return one
    total = term = one
    n = 0
    while n < _MAX_TERMS:
        n += 1
        term = (term * x * (alpha - from_rational(n - 1, 1, ctx))).div_int(n)
        total = total + term
        tail = (n + 1) * lb
        if tail >= total.known_precision:
            return total.truncate(tail)
    raise PadicError("binomial series failed to terminate")


def binomial_two_carrier(alpha, x):
    """Sum binom(alpha, n) x^n for alpha in Z_p, |x|_p < 1.

    Coefficients lie in Z_p (integrality passes to the completion), which is
    what makes the plain (n+1)*v(x) tail bound valid.
    """
    if alpha.valuation_lower_bound < 0:
        raise DomainError(
            f"binomial_series: alpha has valuation {alpha.valuation}, not in Z_p"
        )
    _require(x, "binomial_series", "BINOMIAL_DISK")
    ctx = x.ctx
    one = _one_like(x)
    lb = x.valuation_lower_bound
    if lb == INFINITE:
        return one
    total = one
    c = from_rational(1, 1, ctx)
    xn = one
    n = 0
    while n < _MAX_TERMS:
        n += 1
        c = (c * (alpha - from_rational(n - 1, 1, ctx))).div_int(n)
        xn = xn * x
        total = total + xn * c
        tail = (n + 1) * lb
        if tail >= total.known_precision:
            return total.truncate(tail)
    raise PadicError("binomial series failed to terminate")


def exp_horizontal(beta):
    """exp of [[0, beta], [-conj(beta), 0]] as the class (1, t beta), t =
    tan(y)/y with y^2 = N(beta), summed in Q_p(i) at N(beta)'s
    representative and then cut."""
    ctx = beta.ctx
    n = beta.norm()
    t = from_rational(1, 1, ctx)
    if not n.is_zero:
        n_rep = PadicNumber.make(ctx, n.v, n.unit, n.v + ctx.precision)
        try:
            y = QpiElement(sqrt(n_rep))
        except NonSquare:
            y = QpiElement(PadicNumber.exact_zero(ctx), sqrt(-n_rep))
        t = (tan(y) / y).re
    t = t.truncate(n.m - vp_int(3, ctx.p))
    return ProjectiveRotation(QpiElement.one(ctx), QpiElement(t * beta.re, t * beta.im))


FUNCTIONS = {
    "exp": exp,
    "log": log,
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "arctan": arctan,
    "arcsin": arcsin,
}
