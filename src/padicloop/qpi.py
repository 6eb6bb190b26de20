"""The unramified quadratic extension Q_p(i), p = 3 (mod 4).

Elements are coordinate pairs over the basis {1, i}.  The prime-class
restriction makes -1 a non-residue, which has a pleasant computational
consequence: in re^2 + im^2 the leading digits can never cancel, so the norm
is computed without any precision loss and division is exactly as well
conditioned as multiplication.
"""

from .errors import DivisionByZero, PadicError, ParseError, PrecisionExhausted, WrongPrimeClass
from .padic import INFINITE, PadicNumber, format_padic, from_rational, parse_padic, power


def require_prime_class(ctx):
    if ctx.p % 4 != 3:
        raise WrongPrimeClass(
            f"p = {ctx.p} = {ctx.p % 4} (mod 4): Q_p(i) is a field only for p = 3 (mod 4)"
        )


class QpiElement:
    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        require_prime_class(re.ctx)
        if im is None:
            im = PadicNumber.exact_zero(re.ctx, re.m)
        if re.ctx.p != im.ctx.p:
            raise PadicError("mixed primes in Q_p(i) element")
        self.re = re
        self.im = im

    # ---- factories ----

    @staticmethod
    def from_rationals(re_num, re_den, im_num, im_den, ctx):
        return QpiElement(
            from_rational(re_num, re_den, ctx), from_rational(im_num, im_den, ctx)
        )

    @staticmethod
    def zero(ctx):
        z = PadicNumber.exact_zero(ctx)
        return QpiElement(z, z)

    @staticmethod
    def one(ctx):
        return QpiElement(from_rational(1, 1, ctx))

    @staticmethod
    def i_unit(ctx):
        return QpiElement(PadicNumber.exact_zero(ctx), from_rational(1, 1, ctx))

    # ---- views ----

    @property
    def ctx(self):
        return self.re.ctx

    @property
    def is_zero(self):
        return self.re.is_zero and self.im.is_zero

    @property
    def is_exact_zero(self):
        return self.re.is_exact_zero and self.im.is_exact_zero

    @property
    def is_zero_mod(self):
        """Both components cancelled to inexact zeros (see padic.arith)."""
        return self.re.is_zero_mod and self.im.is_zero_mod

    @property
    def valuation_lower_bound(self):
        return min(self.re.valuation_lower_bound, self.im.valuation_lower_bound)

    @property
    def valuation(self):
        """Extended valuation min(v(re), v(im)); INFINITE for the exact zero,
        None when an inexact-zero component leaves it undetermined: an
        inexact zero only bounds v from below by its m."""
        v = self.valuation_lower_bound
        if any(c.is_zero_mod and c.m <= v for c in (self.re, self.im)):
            return None
        return v

    @property
    def known_precision(self):
        # an exact-zero component is infinitely precise and must not cap this
        ms = [c.m for c in (self.re, self.im) if not c.is_exact_zero]
        return min(ms) if ms else INFINITE

    def truncate(self, m_cap):
        return QpiElement(self.re.truncate(m_cap), self.im.truncate(m_cap))

    def eq_to(self, other, m_cap=None):
        return self.re.eq_to(other.re, m_cap) and self.im.eq_to(other.im, m_cap)

    # ---- arithmetic ----

    def conj(self):
        return QpiElement(self.re, -self.im)

    def norm(self):
        """z * conj(z) = re^2 + im^2 as a real scalar; never loses digits."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        other = _coerce(other, self.ctx)
        return QpiElement(self.re + other.re, self.im + other.im)

    def __radd__(self, other):
        return _coerce(other, self.ctx) + self

    def __sub__(self, other):
        other = _coerce(other, self.ctx)
        return QpiElement(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other, self.ctx) - self

    def __neg__(self):
        return QpiElement(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other, self.ctx)
        a, b, c, d = self.re, self.im, other.re, other.im
        return QpiElement(a * c - b * d, a * d + b * c)

    def __rmul__(self, other):
        return _coerce(other, self.ctx) * self

    def __truediv__(self, other):
        other = _coerce(other, self.ctx)
        if other.is_exact_zero:
            raise DivisionByZero("division by exact zero in Q_p(i)")
        n = other.norm()
        if n.is_zero:
            # anisotropy: re^2 + im^2 cannot cancel, so this means both
            # components are zero to their known precision
            raise PrecisionExhausted(
                "divisor is zero to its known precision in Q_p(i)"
            )
        c = self * other.conj()
        # one inverse of the norm's unit, at the widest r either part needs
        r = max((min(x.r, n.r) for x in (c.re, c.im) if not x.is_zero), default=0)
        inv = self.ctx.inv_mod(n.unit % self.ctx.pow(r), r) if r else None
        return QpiElement(c.re.quotient(n, inv), c.im.quotient(n, inv))

    def __rtruediv__(self, other):
        return _coerce(other, self.ctx) / self

    def div_int(self, n):
        """Division by a nonzero integer, component by component; the same
        result as self / n with n coerced into Q_p(i)."""
        re = self.re
        if re.is_exact_zero:
            # through the coerced divisor an exact-zero real part comes out
            # as the product im * 0, and the kernel's zero rule sets its m
            re = self.im * PadicNumber.exact_zero(self.ctx)
        return QpiElement(re.div_int(n), self.im.div_int(n))

    def __pow__(self, k):
        return power(self, k, QpiElement.one(self.ctx))

    def __eq__(self, other):
        if not isinstance(other, QpiElement):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        return format_qpi(self)

    def __repr__(self):
        return f"QpiElement({format_qpi(self)})"


def _coerce(x, ctx):
    if isinstance(x, QpiElement):
        return x
    if isinstance(x, PadicNumber):
        return QpiElement(x)
    if isinstance(x, int):
        return QpiElement(from_rational(x, 1, ctx))
    raise PadicError(f"cannot coerce {x!r} into Q_p(i)")


def format_qpi(z):
    """Canonical literal; a zero component is omitted, a pure-real value is
    the bare scalar literal."""
    if z.im.is_zero:
        return format_padic(z.re)
    if z.re.is_zero:
        return f"({format_padic(z.im)})*i"
    return f"({format_padic(z.re)}) + ({format_padic(z.im)})*i"


def parse_qpi(text, ctx):
    """Inverse of format_qpi; also accepts a lone parenthesized real part."""
    import re as _re

    require_prime_class(ctx)
    s = text.strip()
    # inner literals contain one paren level of their own (the O-term)
    inner = r"(?:[^()]|\([^()]*\))*"
    m = _re.fullmatch(
        rf"\(\s*(?P<re>{inner})\s*\)\s*\+\s*\(\s*(?P<im>{inner})\s*\)\s*\*\s*i", s
    )
    if m:
        return QpiElement(
            parse_padic(m.group("re"), ctx), parse_padic(m.group("im"), ctx)
        )
    m = _re.fullmatch(rf"\(\s*(?P<im>{inner})\s*\)\s*\*\s*i", s)
    if m:
        return QpiElement(
            PadicNumber.exact_zero(ctx), parse_padic(m.group("im"), ctx)
        )
    m = _re.fullmatch(rf"\(\s*(?P<re>{inner})\s*\)", s)
    if m:
        return QpiElement(parse_padic(m.group("re"), ctx))
    try:
        return QpiElement(parse_padic(s, ctx))
    except ParseError:
        raise ParseError(f"not a Q_p(i) literal: {text!r}")
