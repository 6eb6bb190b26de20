"""Independent exact verifiers backing the test suites.

Everything here runs on Python integers and stdlib Fraction / complex
arithmetic and never touches the digit kernel: no PadicNumber, no truncation,
no inverse modulo p^N.  Agreement between the two is meaningful evidence.

A square root needs no oracle here: `check` tests it by its square and its
leading digit, and tests/padic_digits.py keeps the digit-by-digit Hensel
search that pins that test.

series_partial_sum writes each series as sum_n c_n x^(s + k n) with c_0 = 1
and c_(n+1) / c_n = P(n) / Q(n) for small integers P(n), Q(n).  With
x = (a + b i) / d, Horner's rule keeps the partial sum as a Gaussian-integer
numerator over one integer denominator, so a term costs a few products by
small integers and the fraction is reduced once, at the end, instead of by a
gcd per operation (Brent and Zimmermann, Modern Computer Arithmetic, 4.4).
"""

from fractions import Fraction
from math import lcm

from .errors import NearPole, ZeroDenominator


def rational_valuation(q, p):
    """v_p of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def rational_to_padic_digits(q, p, m):
    """Base-p expansion of a rational by schoolbook long division.

    Returns the digit list of the unit part starting at the valuation
    (trailing zeros trimmed): m digits d_i with
    q = p^v * (d_0 + d_1 p + ... ) and each step solving den*d = rem (mod p).
    """
    q = Fraction(q)
    if q == 0:
        return []
    v = rational_valuation(q, p)
    unit = q / Fraction(p) ** v
    num, den = unit.numerator, unit.denominator
    den_inv = pow(den % p, -1, p)
    digits = []
    rem = num
    for _ in range(m):
        d = (rem % p) * den_inv % p
        digits.append(d)
        rem = (rem - d * den) // p  # exact: rem - d*den = 0 (mod p) by choice of d
    while digits and digits[-1] == 0:
        digits.pop()
    return digits


class GaussianRational:
    """re + i*im with exact Fraction components, always reduced."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conj(self):
        return GaussianRational(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __add__(self, other):
        other = _gq(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _gq(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _gq(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        other = _gq(other)
        n = other.norm()
        if n == 0:
            raise ZeroDenominator("division by zero Gaussian rational")
        c = self * other.conj()
        return GaussianRational(c.re / n, c.im / n)

    def __eq__(self, other):
        other = _gq(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


def _gq(x):
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


def gaussian_loop_add(a, b):
    """(a + b) / (1 - conj(a)*b), exactly."""
    a, b = _gq(a), _gq(b)
    den = GaussianRational(1) - a.conj() * b
    if den.is_zero:
        raise ZeroDenominator("loop denominator vanished")
    return (a + b) / den


# series id -> (s, k, n -> (P(n), Q(n))), as in the module docstring
_SERIES = {
    "exp": (0, 1, lambda n: (1, n + 1)),
    "log1p": (1, 1, lambda n: (-(n + 1), n + 2)),
    "sin": (1, 2, lambda n: (-1, (2 * n + 2) * (2 * n + 3))),
    "cos": (0, 2, lambda n: (-1, (2 * n + 1) * (2 * n + 2))),
    "arctan": (1, 2, lambda n: (-(2 * n + 1), 2 * n + 3)),
    "arcsin": (1, 2, lambda n: ((2 * n + 1) ** 2, (2 * n + 2) * (2 * n + 3))),
}


def series_partial_sum(series_id, x, terms, alpha=None):
    """Exact partial sums of the defining power series.

    terms counts the summands actually taken (starting from the first one of
    the series in question).  Series ids: exp, log1p, sin, cos, arctan,
    arcsin and binomial (which needs the rational exponent alpha).
    """
    x = _gq(x)
    if series_id == "binomial":
        if alpha is None:
            raise ValueError("binomial series needs alpha")
        alpha = Fraction(alpha)
        u, v = alpha.numerator, alpha.denominator
        s, k, ratio = 0, 1, lambda n: (u - n * v, v * (n + 1))
    elif series_id in _SERIES:
        s, k, ratio = _SERIES[series_id]
    else:
        raise ValueError(f"unknown series {series_id!r}")
    if terms < 1:
        return GaussianRational(0)
    # x = (a + b i) / d and y = x^k = (yr + yi i) / dk over the integers
    d = lcm(x.re.denominator, x.im.denominator)
    a, b = (c.numerator * d // c.denominator for c in (x.re, x.im))
    yr, yi, dk = (a, b, d) if k == 1 else (a * a - b * b, 2 * a * b, d * d)
    # Horner from the innermost term: acc_n = 1 + (P(n) / Q(n)) y acc_(n+1),
    # kept as the Gaussian integer (ar + ai i) over the integer den
    ar, ai, den = 1, 0, 1
    for n in reversed(range(terms - 1)):
        num, q = ratio(n)
        q *= dk
        ar, ai = q * den + num * (yr * ar - yi * ai), num * (yr * ai + yi * ar)
        den *= q
    # times x^s
    for _ in range(s):
        ar, ai = a * ar - b * ai, a * ai + b * ar
        den *= d
    return GaussianRational(Fraction(ar, den), Fraction(ai, den))


def complex_float_loop(a, b):
    """The Archimedean disk loop (a + b) / (-conj(a)*b + 1) in doubles."""
    a, b = complex(a), complex(b)
    den = 1 - a.conjugate() * b
    if abs(den) < 1e-12:
        raise NearPole(f"denominator magnitude {abs(den)} below 1e-12")
    return (a + b) / den
