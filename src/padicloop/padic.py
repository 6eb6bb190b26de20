"""Exact Q_p arithmetic with rigorously tracked finite precision.

A nonzero value is (valuation v, unit digits, absolute precision m): it equals
unit * p^v modulo p^m, with p not dividing unit, so |x|_p = p^-v exactly and
m - v digits are tracked.  The unit is kept as a single Python integer in
[1, p^(m-v)); digit extraction is done only for formatting.

Zero comes in two flavours.  The exact zero is a distinguished value (the loop
identity needs one) and is infinitely precise in arithmetic; it carries m only
so it can be printed as O(p^m).  A value that merely cancelled down to
"zero modulo p^m" is kept as an inexact zero: arithmetic treats it as an
unknown multiple of p^m.  The literal grammar has a single zero form, so both
print as O(p^m); parsing yields the exact zero.
"""

from .errors import (
    DivisionByZero,
    NonSquare,
    PadicError,
    ParseError,
    PrecisionExhausted,
    ZeroDenominator,
)

INFINITE = float("inf")

_NONZERO = 0
_EXACT_ZERO = 1
_ZERO_MOD = 2


def vp_int(n, p):
    """Valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicNumber:
    __slots__ = ("ctx", "kind", "v", "unit", "r", "m")

    def __init__(self, ctx, kind, v, unit, r, m):
        # use the factory methods; this constructor assumes normalized input
        self.ctx = ctx
        self.kind = kind
        self.v = v
        self.unit = unit
        self.r = r
        self.m = m

    # ---- factories ----

    @staticmethod
    def exact_zero(ctx, m=None):
        if m is None:
            m = ctx.precision
        return PadicNumber(ctx, _EXACT_ZERO, None, 0, 0, m)

    @staticmethod
    def zero_mod(ctx, m):
        return PadicNumber(ctx, _ZERO_MOD, None, 0, 0, m)

    @staticmethod
    def make(ctx, v, unit, m):
        """Normalize unit * p^v known modulo p^m into canonical form."""
        r = m - v
        if r <= 0:
            return PadicNumber.zero_mod(ctx, m)
        unit %= ctx.pow(r)
        if unit == 0:
            return PadicNumber.zero_mod(ctx, m)
        d = vp_int(unit, ctx.p)
        if d:
            v += d
            r -= d
            unit //= ctx.pow(d)
        return PadicNumber(ctx, _NONZERO, v, unit, r, m)

    def _zero(self, m):
        """A zero of this one's kind (exact or inexact) modulo p^m."""
        return PadicNumber(self.ctx, self.kind, None, 0, 0, m)

    # ---- predicates and views ----

    @property
    def is_zero(self):
        return self.kind != _NONZERO

    @property
    def is_exact_zero(self):
        return self.kind == _EXACT_ZERO

    @property
    def is_zero_mod(self):
        return self.kind == _ZERO_MOD

    @property
    def valuation(self):
        """v with |x|_p = p^-v; INFINITE for the exact zero, None when unknown."""
        if self.kind == _NONZERO:
            return self.v
        if self.kind == _EXACT_ZERO:
            return INFINITE
        return None

    @property
    def known_precision(self):
        return self.m

    @property
    def valuation_lower_bound(self):
        """Provable lower bound on v: exact for nonzero, m for an inexact zero."""
        if self.kind == _NONZERO:
            return self.v
        if self.kind == _EXACT_ZERO:
            return INFINITE
        return self.m

    def unit_digits(self):
        """The r tracked digits of the unit part, lowest power first."""
        out = []
        u = self.unit
        for _ in range(self.r):
            u, d = divmod(u, self.ctx.p)
            out.append(d)
        return out

    def digits(self):
        """Digit list starting at the valuation, trailing zeros trimmed."""
        if self.kind != _NONZERO:
            return []
        out = self.unit_digits()
        while out and out[-1] == 0:
            out.pop()
        return out

    def truncate(self, m):
        """Forget everything beyond p^m."""
        if m >= self.m:
            return self
        if self.kind == _NONZERO:
            return PadicNumber.make(self.ctx, self.v, self.unit, m)
        return self._zero(m)

    def eq_to(self, other):
        """Equality of digit strings modulo p^min(m, other.m)."""
        a, b = self, other
        m = min(a.m if not a.is_exact_zero else b.m,
                b.m if not b.is_exact_zero else a.m)
        a = a.truncate(m)
        b = b.truncate(m)
        if a.kind != _NONZERO or b.kind != _NONZERO:
            return a.kind != _NONZERO and b.kind != _NONZERO
        return a.v == b.v and a.unit == b.unit

    # ---- arithmetic (tolerant: inexact zeros flow through) ----

    def __neg__(self):
        if self.kind != _NONZERO:
            return self
        return PadicNumber(
            self.ctx, _NONZERO, self.v, self.ctx.pow(self.r) - self.unit, self.r, self.m
        )

    def __add__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.ctx.p != other.ctx.p:
            raise PadicError("mixed primes")
        a, b = self, other
        if a.kind == _EXACT_ZERO:
            return b
        if b.kind == _EXACT_ZERO:
            return a
        if a.kind == _ZERO_MOD:
            a, b = b, a
        if b.kind == _ZERO_MOD:
            return a.truncate(min(a.m, b.m))
        ctx = a.ctx
        if a.v > b.v:
            a, b = b, a
        m = min(a.m, b.m)
        k = m - a.v  # >= 1: each operand has a digit below its m
        d = b.v - a.v
        if d == 0:
            s = a.unit + b.unit
        elif d < k:
            s = a.unit + b.unit * ctx.pow(d)
        else:
            # b is a multiple of p^k; never build that power of p
            s = a.unit
        return PadicNumber.make(ctx, a.v, s, m)

    def __sub__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.ctx.p != other.ctx.p:
            raise PadicError("mixed primes")
        a, b = self, other
        if a.kind != _NONZERO or b.kind != _NONZERO:
            if a.kind == _NONZERO:
                a, b = b, a
            # a is a zero; scale its modulus by the partner's size.  The
            # product is exact if either factor is.
            shift = b.v if b.kind == _NONZERO else b.m
            return (b if b.kind == _EXACT_ZERO else a)._zero(a.m + shift)
        r = min(a.r, b.r)
        pr = a.ctx.pow(r)
        return PadicNumber(
            a.ctx, _NONZERO, a.v + b.v, (a.unit * b.unit) % pr, r, a.v + b.v + r
        )

    def __truediv__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.ctx.p != other.ctx.p:
            raise PadicError("mixed primes")
        a, b = self, other
        if b.kind == _EXACT_ZERO:
            raise DivisionByZero("division by exact zero")
        if b.kind == _ZERO_MOD:
            raise PrecisionExhausted(
                f"divisor is zero to its known precision O({b.ctx.p}^{b.m})"
            )
        if a.kind != _NONZERO:
            return a.quotient(b, None)
        r = min(a.r, b.r)
        return a.quotient(b, a.ctx.inv_mod(b.unit % a.ctx.pow(r), r))

    def quotient(self, b, inv):
        """self / b for a nonzero b whose unit has the inverse inv modulo
        p^k, k >= min(self.r, b.r) (unused when self is a zero), so one
        inverse can serve several dividends."""
        if self.kind != _NONZERO:
            return self._zero(self.m - b.v)
        r = min(self.r, b.r)
        pr = self.ctx.pow(r)
        v = self.v - b.v
        return PadicNumber(self.ctx, _NONZERO, v, self.unit * inv % pr, r, v + r)

    def div_int(self, n):
        """self / n for a nonzero integer n; the same value, digit for digit
        and precision for precision, as self / from_rational(n, 1, ctx).

        With n = +-p^vn * n_u, the unit is divided by n_u exactly instead of
        being multiplied by a full-width inverse: k = -U * (p^r)^-1 mod n_u
        makes U + k*p^r a multiple of n_u, and the quotient lies in [0, p^r)
        and is congruent to U / n_u there.  The only inverse is modulo n_u,
        or modulo p^r when n_u is the wider of the two, as it can be for a
        denominator parsed from text.  Like the N-digit divisor it replaces,
        it caps the result at N digits.
        """
        ctx = self.ctx
        if n == 0:
            raise DivisionByZero("division by exact zero")
        vn = vp_int(n, ctx.p)
        if self.kind != _NONZERO:
            return self._zero(self.m - vn)
        n_u = abs(n) // ctx.pow(vn)
        r = min(self.r, ctx.precision)
        pr = ctx.pow(r)
        u = self.unit % pr
        if n_u >= pr:
            u = u * ctx.inv_mod(n_u % pr, r) % pr
        elif n_u != 1:
            k = -(u % n_u) * pow(ctx.p, -r, n_u) % n_u
            u = (u + k * pr) // n_u
        if n < 0:
            u = pr - u
        v = self.v - vn
        return PadicNumber(ctx, _NONZERO, v, u, r, v + r)

    def __pow__(self, k):
        return power(self, k, from_rational(1, 1, self.ctx))

    # ---- structural identity (round-trip contract) ----

    def __eq__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.ctx.p != other.ctx.p or self.kind != other.kind:
            return False
        if self.kind == _EXACT_ZERO:
            # m on an exact zero is display metadata, not information
            return True
        return (
            self.v == other.v
            and self.unit == other.unit
            and self.r == other.r
            and self.m == other.m
        )

    def __hash__(self):
        if self.kind == _EXACT_ZERO:
            return hash((self.ctx.p, self.kind))
        return hash((self.ctx.p, self.kind, self.v, self.unit, self.m))

    def __str__(self):
        return format_padic(self)

    def __repr__(self):
        return f"PadicNumber({format_padic(self)})"


def from_rational(num, den, ctx):
    """The p-adic expansion of num/den to ctx.precision significant digits."""
    if den == 0:
        raise ZeroDenominator("denominator is zero")
    if num == 0:
        return PadicNumber.exact_zero(ctx)
    vn = vp_int(num, ctx.p)
    n = ctx.precision
    x = PadicNumber(ctx, _NONZERO, vn, num // ctx.pow(vn) % ctx.pow(n), n, vn + n)
    return x if den == 1 else x.div_int(den)


def from_int(n, ctx):
    return from_rational(n, 1, ctx)


def power(x, k, one):
    """x**k by square-and-multiply, for a PadicNumber or QpiElement x whose
    field has the identity `one`; a negative k divides one by x**-k."""
    if not isinstance(k, int):
        return NotImplemented
    if k < 0:
        return one / power(x, -k, one)
    result = one
    while k:
        if k & 1:
            result = result * x
        x = x * x
        k >>= 1
    return result


def _sqrt_mod_p(a, p):
    """Tonelli-Shanks: a square root of the residue a modulo p, or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, sq = 0, t
        while sq != 1:
            sq = sq * sq % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def sqrt(a):
    """Canonical square root: the branch whose leading digit is <= (p-1)/2.

    Newton lifting on the unit part doubles the correct digits each pass, so
    the cost is a handful of modular multiplications at full width.
    """
    if a.kind == _EXACT_ZERO:
        return a
    if a.kind == _ZERO_MOD:
        raise PrecisionExhausted(
            "argument is zero to its known precision; square root undetermined"
        )
    if a.v % 2 != 0:
        raise NonSquare(f"odd valuation {a.v}")
    ctx = a.ctx
    p = ctx.p
    x0 = _sqrt_mod_p(a.unit, p)
    if x0 is None or x0 == 0:
        raise NonSquare(f"leading digit {a.unit % p} is not a quadratic residue mod {p}")
    r = a.r
    x, k = x0, 1
    while k < r:
        k = min(2 * k, r)
        pk = ctx.pow(k)
        x = (x + (a.unit % pk) * ctx.inv_mod(x, k)) * ((pk + 1) // 2) % pk
    if x % p > (p - 1) // 2:
        x = ctx.pow(r) - x
    v = a.v // 2
    return PadicNumber(ctx, _NONZERO, v, x, r, v + r)


def format_padic(a):
    """Canonical literal: `d + d*p + d*p^k + ... + O(p^m)`, zero digits omitted."""
    p = a.ctx.p
    if a.kind != _NONZERO:
        return f"O({p}^{a.m})"
    terms = []
    for k, d in enumerate(a.digits(), a.v):
        if d:
            if k == 0:
                terms.append(f"{d}")
            elif k == 1:
                terms.append(f"{d}*{p}")
            else:
                terms.append(f"{d}*{p}^{k}")
    terms.append(f"O({p}^{a.m})")
    return " + ".join(terms)


def parse_padic(text, ctx):
    """Inverse of format_padic on canonical literals (whitespace-flexible)."""
    import re

    p = ctx.p
    parts = re.split(r"\s*\+\s*", text.strip())
    if not parts or parts == [""]:
        raise ParseError("empty literal")
    o_match = re.fullmatch(r"O\(\s*(\d+)\s*\^\s*(-?\d+)\s*\)", parts[-1])
    if o_match is None:
        raise ParseError(f"literal must end with an O({p}^m) term", len(text))
    if int(o_match.group(1)) != p:
        raise ParseError(
            f"O-term base {o_match.group(1)} does not match context prime {p}"
        )
    m = int(o_match.group(2))
    if len(parts) == 1:
        return PadicNumber.exact_zero(ctx, m)
    pairs = []
    for part in parts[:-1]:
        t = re.fullmatch(
            r"(\d+)(?:\s*\*\s*(\d+)(?:\s*\^\s*(-?\d+))?)?", part.strip()
        )
        if t is None:
            raise ParseError(f"bad term {part!r}", text.find(part))
        d = int(t.group(1))
        if t.group(2) is None:
            k = 0
        else:
            if int(t.group(2)) != p:
                raise ParseError(f"term base {t.group(2)} does not match prime {p}")
            k = 1 if t.group(3) is None else int(t.group(3))
        if not 1 <= d < p:
            raise ParseError(f"digit {d} out of range 1..{p - 1} in {part!r}")
        pairs.append((k, d))
    powers = [k for k, _ in pairs]
    if sorted(powers) != powers or len(set(powers)) != len(powers):
        raise ParseError("term powers must be strictly ascending")
    v = powers[0]
    if m <= powers[-1]:
        raise ParseError(f"precision O(^{m}) does not cover the term at p^{powers[-1]}")
    u = 0
    for k, d in pairs:
        u += d * ctx.pow(k - v)
    return PadicNumber(ctx, _NONZERO, v, u, m - v, m)
