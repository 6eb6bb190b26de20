"""Convergence-checked p-adic analytic functions on Q_p and Q_p(i), plus the
2x2 matrix exponential.

Truncation rule (documented here once, used everywhere): for a series whose
n-th term is x^n divided by something factorial-like, the tail after term n is
bounded below in valuation by

    exp-type      (n+1)*v(x) - n // (p-1)        since v_p(k!) <= (k-1)/(p-1)
    log-type      (n+1)*v(x) - floor(log_p(n+1)) since v_p(k) <= log_p(k)
    binomial      (n+1)*v(x)                     since binom(alpha, k) is in Z_p
                                                 for alpha in Z_p

and each bound is increasing in the term index once v(x) >= 1, so summation
stops at the first n whose bound reaches the accumulated sum's own absolute
precision.  The result then carries that precision honestly.

Each term is divided by a small integer (n for exp, log and the binomial
coefficients, -(n+1)(n+2) for sin and cos) with div_int: the integer's unit
part is divided out exactly, with one inverse modulo that word-sized unit and
none modulo p^N, and the result equals division by from_rational(n, 1, ctx)
digit for digit and precision for precision.  sin and cos each sum only their
own series; sin_cos_tan sums both and divides once for tan.
"""

from enum import Enum

from .errors import DomainError, PadicError
from .matrix import Mat2
from .padic import INFINITE, PadicNumber, from_rational
from .qpi import QpiElement


class ConvergenceDomain(Enum):
    EXP_DISK = "EXP_DISK"            # {x : |x|_p <= p^-1}, i.e. v(x) >= 1
    LOG_DISK = "LOG_DISK"            # {x : |x|_p < 1}, i.e. v(x) >= 1
    BINOMIAL_DISK = "BINOMIAL_DISK"  # {x : |x|_p < 1}, i.e. v(x) >= 1

    def contains(self, x):
        # all three disks coincide on the integer value group of Q_p(i)
        return x.valuation_lower_bound >= 1


def _require(domain, x, fn):
    if not domain.contains(x):
        raise DomainError(
            f"{fn}: argument has |x|_p >= 1, outside {domain.name} "
            f"(need valuation >= 1)"
        )


def _one_like(x):
    if isinstance(x, QpiElement):
        return QpiElement.one(x.ctx)
    if isinstance(x, Mat2):
        return Mat2.identity(x.ctx)
    return from_rational(1, 1, x.ctx)


def _ilog(n, p):
    """floor(log_p(n)) via digit count."""
    k = -1
    while n:
        n //= p
        k += 1
    return k


_MAX_TERMS = 100000


def _exp_series(x):
    """Sum x^n/n! with the factorial tail bound; works for scalars, Q_p(i)
    elements and matrices alike."""
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
    _require(ConvergenceDomain.EXP_DISK, x, "exp")
    if x.valuation_lower_bound == INFINITE:
        return _one_like(x)
    return _exp_series(x)


def log(y):
    """log on 1 + LOG_DISK: y = 1 + x with |x|_p < 1."""
    x = y - _one_like(y)
    _require(ConvergenceDomain.LOG_DISK, x, "log")
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
    _require(ConvergenceDomain.EXP_DISK, x, "sin_cos_tan")
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


def sin_cos_tan(x):
    """All three at once; cos is a unit on the disk, so tan = sin/cos is safe."""
    sin = _alternating(x, 1)
    cos = _alternating(x, 0)
    if x.valuation_lower_bound == INFINITE:
        return sin, cos, sin
    return sin, cos, sin / cos


def sin(x):
    return _alternating(x, 1)


def cos(x):
    return _alternating(x, 0)


def tan(x):
    return sin_cos_tan(x)[2]


def _as_qpi(x):
    if isinstance(x, QpiElement):
        return x
    return QpiElement(x)


def _real_in_real_out(result, was_real):
    # for real input the closed form's imaginary part cancels digit by digit;
    # hand back the real component rather than a wrapper with a fuzzy zero
    return result.re if was_real else result


def arctan(x):
    """van Hamme's closed form (1/2i) log((1+ix)/(1-ix)); needs i, hence
    p = 3 (mod 4)."""
    was_real = not isinstance(x, QpiElement)
    x = _as_qpi(x)
    _require(ConvergenceDomain.EXP_DISK, x, "arctan")
    ctx = x.ctx
    i = QpiElement.i_unit(ctx)
    ix = i * x
    one = QpiElement.one(ctx)
    q = (one + ix) / (one - ix)
    result = log(q) * (-i) / from_rational(2, 1, ctx)
    return _real_in_real_out(result, was_real)


def arcsin(x):
    """(1/i) log(ix + sqrt(1 - x^2)) with the canonical branch of the root
    supplied by the binomial series."""
    was_real = not isinstance(x, QpiElement)
    x = _as_qpi(x)
    _require(ConvergenceDomain.BINOMIAL_DISK, x, "arcsin")
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
    _require(ConvergenceDomain.BINOMIAL_DISK, x, "binomial_series")
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


def matrix_exp(X):
    """Entrywise-EXP_DISK matrix exponential by direct series."""
    if X.valuation_lower_bound < 1:
        raise DomainError(
            "matrix_exp: every entry must have valuation >= 1 (entrywise EXP_DISK)"
        )
    if X.valuation_lower_bound == INFINITE:
        return Mat2.identity(X.ctx)
    return _exp_series(X)
