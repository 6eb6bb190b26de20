"""The unramified quadratic extension Q_p(i), p = 3 (mod 4).

Elements are coordinate pairs over the basis {1, i}.  The prime-class
restriction makes -1 a non-residue, which has a pleasant computational
consequence: in re^2 + im^2 the leading digits can never cancel, so the norm
is computed without any precision loss and division is exactly as well
conditioned as multiplication.

Each part of a product has a digit-free m: the smaller m of its two scalar
products, for example m(re(zw)) = min(m(ac), m(bd)) with m(ac) = v(a) + v(c)
+ min(r(a), r(c)).  Its value modulo p^m is the exact residue of the
representatives' product, so when all four parts are nonzero the product is
formed on raw Gaussian integers (three big products) and each part is
normalized once; a part that is zero, exact or not, takes the object
formula.  The norm is formed the same way.

Division z / w is z conj(w) over the real norm N(w), both parts through one
inverse of the norm's unit.  A nonzero real divisor s (a scalar, or a pair
whose imaginary part is the exact zero) skips the norm: each part x is
divided by s alone, through one inverse of s's unit.  The fields agree with
the norm route's, since (x s)/s^2 has v(x) - v(s), r = min(r(x), r(s)) and
unit u(x)/u(s), and an inexact zero keeps m(x) - v(s); only an exact-zero
part's display m depends on the path, so a dividend with one keeps the norm
route.
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

    def truncate(self, m):
        return QpiElement(self.re.truncate(m), self.im.truncate(m))

    def eq_to(self, other):
        return self.re.eq_to(other.re) and self.im.eq_to(other.im)

    # ---- arithmetic ----

    def conj(self):
        return QpiElement(self.re, -self.im)

    def norm(self):
        """z * conj(z) = re^2 + im^2 as a real scalar; never loses digits."""
        a, b = self.re, self.im
        if a.is_zero or b.is_zero:
            return a * a + b * b
        V = min(a.v, b.v)
        m = min(a.v + a.m, b.v + b.m)
        # a part whose gap g has 2g >= r cannot touch the residue
        h = (m - 2 * V + 1) // 2
        A, B = _aligned(a, b, h, h)
        return PadicNumber.make(self.ctx, 2 * V, A * A + B * B, m)

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
        if not (a.is_zero or b.is_zero or c.is_zero or d.is_zero):
            # the raw path skips the kernel operators and their prime check
            if a.ctx.p != c.ctx.p:
                raise PadicError("mixed primes")
            va, vb, vc, vd = a.v, b.v, c.v, d.v
            m_re = min(va + vc + min(a.r, c.r), vb + vd + min(b.r, d.r))
            m_im = min(va + vd + min(a.r, d.r), vb + vc + min(b.r, c.r))
            base = min(va, vb) + min(vc, vd)
            lo, hi = m_re - base, m_im - base
            if lo > hi:
                lo, hi = hi, lo
            x, y = _aligned(a, b, lo, hi), _aligned(c, d, lo, hi)
            if x and y:
                re, im = gaussian_product(x, y)
                ctx = a.ctx
                return QpiElement(
                    PadicNumber.make(ctx, base, re, m_re), PadicNumber.make(ctx, base, im, m_im)
                )
        return QpiElement(a * c - b * d, a * d + b * c)

    def __rmul__(self, other):
        return _coerce(other, self.ctx) * self

    def __truediv__(self, other):
        other = _coerce(other, self.ctx)
        s, a, b = other.re, self.re, self.im
        # a real divisor skips the norm unless an exact-zero part needs the
        # norm route's display m (module docstring)
        if (other.im.is_exact_zero and not s.is_zero and s.ctx.p == a.ctx.p
                and not (a.is_exact_zero or b.is_exact_zero)):
            return QpiElement(*real_quotients((a, b), s))
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
        return QpiElement(*real_quotients((c.re, c.im), n))

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


def real_quotients(parts, s):
    """Each scalar of parts divided by the nonzero scalar s, through one
    inverse of s's unit at the widest r a nonzero part needs."""
    ctx = s.ctx
    r = max((min(x.r, s.r) for x in parts if not x.is_zero), default=0)
    inv = ctx.inv_mod(s.unit % ctx.pow(r), r) if r else None
    return [x.quotient(s, inv) for x in parts]


def gaussian_product(x, y):
    """The Gaussian-integer product x * y of (re, im) pairs, unreduced: three
    big products, two when either factor is real."""
    (a, b), (c, d) = x, y
    if not (b and d):
        return a * c - b * d, a * d + b * c
    ac, bd = a * c, b * d
    return ac - bd, (a + b) * (c + d) - ac - bd


def _aligned(x, y, lo, hi):
    """The units of the nonzero scalars x and y over p^min(v(x), v(y)), for a
    raw product whose parts keep lo <= hi digits above its base.  The farther
    one is dropped once its gap reaches hi, where it cannot touch either
    part's residue; a gap in [lo, hi) gives None, since only the object
    formula spares that power of p."""
    g = x.v - y.v
    if g == 0:
        return x.unit, y.unit
    if abs(g) >= hi:
        return (0, y.unit) if g > 0 else (x.unit, 0)
    if abs(g) >= lo:
        return None
    if g > 0:
        return x.unit * x.ctx.pow(g), y.unit
    return x.unit, y.unit * x.ctx.pow(-g)


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
