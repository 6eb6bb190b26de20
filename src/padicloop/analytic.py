"""Convergence-checked p-adic analytic functions on Q_p and Q_p(i).

Truncation rule (documented here once, used everywhere): for a series whose
n-th term is x^n divided by something factorial-like, the tail after term n is
bounded below in valuation by

    exp-type      (n+1)*v(x) - n // (p-1)        since v_p(k!) <= (k-1)/(p-1)
    log-type      (n+1)*v(x) - floor(log_p(n+1)) since v_p(k) <= log_p(k)
    binomial      (n+1)*v(x)                     since binom(alpha, k) is in Z_p
                                                 for alpha in Z_p

and each bound is increasing in the term index once v(x) >= 1, so summation
stops at the first n whose bound reaches the accumulated sum's own absolute
precision.  The result then carries that precision honestly.  exp, sin and cos
are one exp-type series, sum_k (sign x^s)^k x^e / (s k + e)!, with (s, e, sign)
= (1, 0, +1), (2, 1, -1) and (2, 0, -1); its tail after the term x^n is the
exp-type bound at n + s - 1.

exp, log, sin, cos and binomial (so also tan, arctan and arcsin) are summed
in two steps.  A precision plan runs the object recurrence term by term, the
one that fixes every component's (kind, v, r, m), until a digit-free bound
shows that no later term can lower any component's m: the bound is the element
valuation n*v(x) - v_p(n!) (exp, sin, cos, binomial) or n*v(x) -
floor(log_p n) (log) together with the carrier's m at that point.  The sum's
m is then frozen, and the stop index is the first n whose tail bound above
reaches it.  The value is then summed modulo p^(m + g), with g the valuation
of a common denominator: n! for exp, sin and cos, lcm(1..n) for log, b^n n!
for binomial with alpha = a/b.  arctan and arcsin keep log's plan, then sum
their own series in x^2 (see _odd_value): arctan's over lcm(1, 3, ..., n),
arcsin's hypergeometric one over n!.  _tan_over_root (exp_horizontal's
tan(y)/y, y^2 = n) takes two real sums in n to the value step with no plan.
Rectangular splitting (Paterson-Stockmeyer, and Smith for hypergeometric
series) computes the powers x^1..x^s with s ~ sqrt(n), sums blocks of s terms
with small-integer coefficients, and joins the blocks by Horner's rule in
x^s, so about 2 sqrt(n) full-width products replace n of them.  Where
p^(m + g) is wide, x is first written part by part
as Z/d modulo its precision, Z a small Gaussian-integer pair and d prime to p
(rational reconstruction); the sum is then taken at Z/d homogenized: the
powers Z^i d^(s-1-i) are exact small integers, Horner's rule multiplies by
Z^s, each block weight carries the d^s that step leaves out, so every product
is big times small, and the denominator gains a power of d.  Otherwise it is
taken at x's raw integers (a Gaussian-integer pair for Q_p(i)), the case
d = 1.  A single inverse of the denominator's unit ends it, by Newton
lifting (PrimeContext.inv_lift), since that unit is a wide factorial- or
lcm-type product.  Both are lifts of x modulo its precision, so they give
the same digits (see _planned_sum).
A series that stops before the plan is proven simply finishes on the object
recurrence, so every digit and every O-term is the recurrence's own.

binomial_series reaches the engine only when alpha is a small rational a/b
modulo its precision, which rational reconstruction recovers from alpha's
digits; any other alpha keeps the term recurrence.  There each term is divided
by a small integer with div_int, which divides the integer's unit out exactly
with one inverse modulo that word-sized unit and none modulo p^N.
"""

from itertools import accumulate, repeat
from math import factorial, isqrt, lcm, prod
from operator import mul

from .errors import DomainError, PadicError
from .padic import INFINITE, PadicNumber, from_rational, vp_int
from .qpi import QpiElement, gaussian_product


def _require(x, fn, disk):
    """x must lie on `disk`: EXP_DISK {|x|_p <= p^-1}, LOG_DISK or
    BINOMIAL_DISK {|x|_p < 1}, which all coincide with v(x) >= 1 on the
    integer value group of Q_p(i)."""
    if x.valuation_lower_bound < 1:
        raise DomainError(
            f"{fn}: argument has |x|_p >= 1, outside {disk} "
            f"(need valuation >= 1)"
        )


def _one_like(x):
    if isinstance(x, QpiElement):
        return QpiElement.one(x.ctx)
    return from_rational(1, 1, x.ctx)


def _ilog(n, p):
    """floor(log_p(n)) via digit count."""
    k = -1
    while n:
        n //= p
        k += 1
    return k


_MAX_TERMS = 100000


# ---- precision plan ----


def _comps(z):
    return (z.re, z.im) if isinstance(z, QpiElement) else (z,)


def _plan(total, carrier, n, step, tail, dip):
    """Where the object recurrence would stop, and the m it would report.

    `total` is the partial sum after term n, and `carrier` is what the
    recurrence multiplies by `x` next (the term itself for exp, sin, cos and
    binomial, x^n for log).  The total's m is the minimum of its terms' m, so
    once no later term can lower any component's m it is frozen, and the stop
    is the first index n + k*step whose tail bound reaches it.

    The digit-free bound reads the carrier alone.  With E its valuation bound,
    PadicNumber's rules (a product's m is min(m(a) + v(b), m(b) + v(a)), a
    sum's the smaller m) keep every later inexact component at m >= E' + R and
    exact zero at m >= E' + Q, E' that term's valuation bound, R = min(m - E
    over the carrier, N) and Q the same over its exact zeros.  Each loop
    multiplies the carrier by x (x^2 for sin and cos; binomial by alpha - 0 =
    alpha too) before its first plan, and no product or div_int keeps more
    digits above v than a factor or N (in Q_p(i) each pair of parts lands in
    one part, of m <= v(a_i) + m(b_j)), so R is already at most x's and
    m(alpha); a later alpha - (k - 1) has m >= min(m(alpha), N) and v >= 0,
    which E' leaves out.  A sum's exact zero (x real, or pure imaginary for
    sin and cos) is the second of two exact zeros added: the carrier's times
    the other factor's real part, or div_int's reset to m = N + E'.  E' falls
    at most `dip` below E: v_p(k!/n!) <= k - n - 1 + s_p(n) // (p-1), s_p the
    base-p digit sum, and for log v_p(k) <= k - n - 1 + log_p(n + 1), k > n.

    Returns (stop, tail at stop, each component's final m, None for an exact
    zero), or None while this does not yet prove the m frozen.
    """
    frozen = [None if c.is_exact_zero else c.m for c in _comps(total)]
    E = carrier.valuation_lower_bound
    low = E - dip
    N = carrier.ctx.precision
    R = min(min(c.m for c in _comps(carrier) if not c.is_exact_zero) - E, N)
    if any(mc is not None and low + R < mc for mc in frozen):
        return None
    if None in frozen:
        Q = min([N] + [c.m - E for c in _comps(carrier) if c.is_exact_zero])
    stop = _first_reaching(tail, n, step, total.known_precision)
    if stop >= _MAX_TERMS:
        return None
    t = tail(stop)
    if None in frozen and low + Q < t:
        return None
    return stop, t, [None if mc is None else min(mc, t) for mc in frozen]


def _first_reaching(tail, n, step, known):
    """The first n + k*step, k >= 1, with tail >= known, where tail(n) <
    known and tail never decreases along the index sequence: gallop, then
    bisect."""
    lo, hi = 0, 1
    while tail(n + hi * step) < known:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(n + mid * step) < known:
            lo = mid
        else:
            hi = mid
    return n + hi * step


def _digit_sum(n, p):
    """The sum of n's base-p digits."""
    s = 0
    while n:
        n, d = divmod(n, p)
        s += d
    return s


def _vp_factorial(n, p):
    """v_p(n!) by Legendre's formula."""
    return (n - _digit_sum(n, p)) // (p - 1)


# ---- value: the planned partial sum on Gaussian integers ----


def _gmul(a, b, P):
    """Gaussian-integer product mod P."""
    re, im = gaussian_product(a, b)
    return re % P, im % P


def _fold(n, P):
    """n modulo P, left as it is while |n| < P, so that the powers of a
    small rational form stay small signed integers."""
    return n if abs(n) < P else n % P


def _raw(x, P):
    """x as a Gaussian integer mod P: each component's unit times p^v."""
    out = [0, 0]
    for k, c in enumerate(_comps(x)):
        if not c.is_zero:
            out[k] = c.unit * pow(c.ctx.p, c.v, P) % P
    return tuple(out)


def _rect(z, d, blocks, P):
    """d^k times the sum over the J blocks j of y^j * r_0...r_(j-1) * w_j *
    sum_i c_ji (z/d)^i mod P, y = (z/d)^s, k = s J - 1, as (that sum, k).

    Rectangular splitting: the homogenized powers z^i d^(s-1-i), i < s,
    once, each block as small integers times those powers, then Horner's
    rule in z^s, each step also times the small r_j; the d^s that each step
    leaves out is in the weights.  `blocks` holds (w_j, [c_j0, c_j1, ...],
    r_j) from the last block to the first, w_j carrying d^s once for each
    later block; every block but the last has s coefficients.  For small z
    and d the powers are small integers and every product is big times
    small; d = 1 scales nothing."""
    s = len(blocks[-1][1])
    re, im = [1, z[0]], [0, z[1]]
    while len(re) <= s:
        a, b = gaussian_product((re[-1], im[-1]), z)
        re.append(_fold(a, P))
        im.append(_fold(b, P))
    y = re[s], im[s]
    if d > 1:
        scale = list(accumulate(repeat(d, s - 1), mul, initial=1))[::-1]
        re, im = list(map(mul, re, scale)), list(map(mul, im, scale))
    real = not any(im)
    acc = (0, 0)
    for w, coeffs, r in blocks:
        a, b = _gmul(acc, (y[0] * r, y[1] * r), P)
        acc = (
            (a + w * sum(map(mul, coeffs, re))) % P,
            b if real else (b + w * sum(map(mul, coeffs, im))) % P,
        )
    return acc, s * len(blocks) - 1


def _times_x(T, k, Z, P):
    """(T / d^k) * (Z / d) as a numerator over d^(k + 1)."""
    return _gmul(T, Z, P), k + 1


def _hyper_blocks(qs, d, P, ps=None):
    """Blocks of T = sum_{k<=K} z^k ps[0]...ps[k-1] qs[k]...qs[K-1] for the
    K small integers qs and ps (all 1 if ps is None), so that
    sum_{k<=K} z^k prod_{i<k} ps[i]/qs[i] = T / (qs[0]...qs[K-1]), with the
    weights _rect takes at z / d: the ps of a block are in its coefficients
    and, as r, in the Horner step that carries the later blocks past it."""
    K = len(qs)
    s = _block_size(K)
    D = d**s
    blocks, w = [], 1
    for start in reversed(range(0, K + 1, s)):
        coeffs = list(accumulate(reversed(qs[start:start + s]), mul))[::-1]
        if start + s > K:
            coeffs.append(1)
        w_next, head = w * (coeffs[0] * D) % P, [1]
        if ps is not None:
            head = list(accumulate(ps[start:start + s], mul, initial=1))
            coeffs = list(map(mul, head, coeffs))
        blocks.append((w, coeffs, head[-1]))
        w = w_next
    return blocks


def _log_blocks(dens):
    """(L, blocks) for T = sum_k z^k L / dens[k], L = lcm(dens), the lcm of
    the block lcms M: from the last block to the first, (L / M, [M / q for q
    in the block]), the weights _rect takes at z / 1."""
    s = _block_size(len(dens) - 1)
    groups = [dens[i:i + s] for i in range(0, len(dens), s)][::-1]
    lcms = [lcm(*group) for group in groups]
    L = lcm(*lcms)
    return L, [(L // M, [M // q for q in g]) for M, g in zip(lcms, groups)]


def _block_size(K):
    return isqrt(K) + 1


# the width of p^(m + g) from which the value step first tries x's small
# rational form: below it the form costs more than the full-width powers
_RATIONAL_BITS = 512


def _rational_form(x, bound):
    """(Z, d) with x = Z / d modulo each component's p^m: Z a Gaussian-integer
    pair, 0 as each zero component's part, and d > 0 prime to p the lcm of
    the components' denominators, each of |a|, b < bound; or None."""
    nums, dens = [0, 0], [1, 1]
    for k, c in enumerate(_comps(x)):
        if not c.is_zero:
            ab = _small_rational(c, bound)
            if ab is None:
                return None
            nums[k], dens[k] = ab
    d = lcm(*dens)
    return (nums[0] * (d // dens[0]), nums[1] * (d // dens[1])), d


def _planned_sum(x, t, ms, den, g, degree, numerator):
    """The planned partial sum T / den at x's small rational form, or else
    at x's raw integers.

    numerator(Z, d, P) returns (T', k) with T' / d^k = T modulo
    P = p^(max m + g), g = v_p(den), at x = Z / d; T / den is formed with
    one inverse of den's unit times d^k, and each component is normalized
    at its planned m (an exact zero at the tail bound t).  Where P is at
    least _RATIONAL_BITS wide, Z / d is x's small rational form, each part
    under 2^(bits(P) / (2 degree)) so that y = x^degree, the power the
    Horner steps multiply by, and d^degree stay narrower than P; otherwise,
    or when x has no such form, Z is x's representative and d = 1.

    Either lift gives every digit.  The plan fixed the stop, t and each
    component's m from x's (kind, v, m) alone, and Z / d agrees with x
    modulo p^m(x) component by component (a zero component is 0 in both).
    The kernel's m rules bound how far a change of an input below its m
    spreads: a product has m = min(m(a) + v(b), m(b) + v(a)), div_int keeps
    m - v(n), a sum takes the smaller m, and in Q_p(i) each pair of parts
    lands in exactly one part of the result.  So each term, and the partial
    sum, at Z / d and at x's representative agree modulo each component's
    planned m, where both are normalized."""
    ctx = x.ctx
    top = max(m for m in ms if m is not None)
    pg, pt = ctx.pow(g), ctx.pow(top)
    P = pg * pt
    bits = P.bit_length()
    form = bits >= _RATIONAL_BITS and _rational_form(x, 1 << bits // (2 * degree))
    Z, d = form or (_raw(x, P), 1)
    T, k = numerator(Z, d, P)
    inv = ctx.inv_lift(den // pg * pow(d, k, pt) % pt, top)
    comps = [
        PadicNumber.exact_zero(ctx, t) if m is None
        else PadicNumber.make(ctx, 0, c // pg * inv, m)
        for c, m in zip(T, ms)
    ]
    return QpiElement(*comps) if isinstance(x, QpiElement) else comps[0]


def _factorial_value(x, s, e, sign, stop, t, ms, ps=None, turn=(1, 0)):
    """turn * sum_k (sign x^s)^k x^e c_k / (s k + e)! up to s k + e = stop,
    c_0 = 1 and c_k+1 / c_k = ps[k] (1 if ps is None), over the denominator
    stop!, whose k-th block ratio is (s k + e + 1) ... (s k + e + s)."""
    qs = range(e + 1, stop + 1, s)
    for j in range(2, s + 1):
        qs = list(map(mul, qs, range(e + j, stop + 1, s)))

    def numerator(Z, d, P):
        z = Z if s == 1 else [_fold(c, P) for c in gaussian_product(Z, Z)]
        if sign < 0:
            z = (-z[0], -z[1])
        ds = d**s
        T, k = _rect(z, ds, _hyper_blocks(qs, ds, P, ps), P)
        return _times_x(T, s * k, gaussian_product(Z, turn), P) if e else (T, s * k)

    return _planned_sum(
        x, t, ms, factorial(stop), _vp_factorial(stop, x.ctx.p),
        s * _block_size(len(qs)), numerator,
    )


def _log_value(x, stop, t, ms, e=1, turn=(1, 0)):
    """turn * x * sum_k (-x^e)^k / (e k + 1) up to e k + 1 = stop, over
    lcm(1, 1 + e, ..., stop), whose valuation grows like log stop, not like
    stop: log is e = 1, arctan's own series e = 2."""
    L, blocks = _log_blocks(range(1, stop + 1, e))
    s = len(blocks[-1][1])

    def numerator(Z, d, P):
        z = Z if e == 1 else [_fold(c, P) for c in gaussian_product(Z, Z)]
        de = d**e
        D, Dj, scaled = de**s, 1, []
        for w, coeffs in blocks:
            scaled.append((w * Dj % P, coeffs, 1))
            Dj = Dj * D % P
        T, k = _rect((-z[0], -z[1]), de, scaled, P)
        return _times_x(T, e * k, gaussian_product(Z, turn), P)

    return _planned_sum(
        x, t, ms, L, _ilog(stop, x.ctx.p), e * s, numerator
    )


def _binomial_value(x, a, b, stop, t, ms):
    """sum_{k<=stop} binom(a/b, k) x^k, whose coefficient ratio is
    (a - k b) / ((k + 1) b), over the denominator b^stop stop!."""
    ps = range(a, a - stop * b, -b)
    qs = range(b, (stop + 1) * b, b)
    return _planned_sum(
        x, t, ms, b**stop * factorial(stop), _vp_factorial(stop, x.ctx.p),
        _block_size(stop),
        lambda Z, d, P: _rect(Z, d, _hyper_blocks(qs, d, P, ps), P),
    )


# bounds |a| and b of an exponent the engine sums: a block coefficient is a
# product of about sqrt(n) numbers a - k b
_SMALL = 1 << 20


def _small_rational(alpha, bound=_SMALL):
    """(a, b) with a/b = alpha modulo p^m(alpha), b > 0 prime to p and |a|,
    b < bound, or None if there is none or alpha is a zero.

    Wang's rational reconstruction: the half-extended Euclidean algorithm on
    (p^k, unit) keeps each remainder congruent to its cofactor times the
    unit, and the cofactors only grow, so it stops at the first remainder
    below bound or at the first cofactor that reaches it.  Such a pair is
    unique modulo p^k once p^k > 2 bound^2, so k is the least such exponent,
    or r, and one product checks the pair against all r digits."""
    if alpha.is_zero or alpha.v < 0:
        return None
    ctx = alpha.ctx
    pk = ctx.pow(min(alpha.r, _ilog(2 * bound * bound, ctx.p) + 1))
    r0, r1, t0, t1 = pk, alpha.unit % pk, 0, 1
    while r1 >= bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) >= bound:
            return None
    a = r1 * ctx.p**alpha.v
    if t1 % ctx.p == 0 or a >= bound or (t1 * alpha.unit - r1) % ctx.pow(alpha.r):
        return None
    return (a, t1) if t1 > 0 else (-a, -t1)


# ---- the series ----


def _factorial_series(x, s, e, sign):
    """Sum (sign x^s)^k x^e / (s k + e)! with the factorial tail bound: exp
    is (s, e, sign) = (1, 0, +1), sin (2, 1, -1) and cos (2, 0, -1), on
    scalars and Q_p(i) elements alike."""
    p = x.ctx.p
    lb = x.valuation_lower_bound
    total = term = x if e else _one_like(x)
    if lb == INFINITE:
        return total
    z = x * x if s == 2 else x

    def tail(n):
        return (n + s) * lb - (n + s - 1) // (p - 1)

    n = e
    while n < _MAX_TERMS:
        term = (term * z).div_int(sign * prod(range(n + 1, n + s + 1)))
        n += s
        total = total + term
        if tail(n) >= total.known_precision:
            # digits at or beyond the tail bound would still move if more
            # terms were added; cap every component there
            return total.truncate(tail(n))
        plan = _plan(total, term, n, s, tail, _digit_sum(n, p) // (p - 1) - 1)
        if plan:
            return _factorial_value(x, s, e, sign, *plan)
    raise PadicError("factorial series failed to terminate")


def exp(x):
    """exp on the disk |x|_p <= p^-1 (where the factorial growth is beaten)."""
    _require(x, "exp", "EXP_DISK")
    return _factorial_series(x, 1, 0, 1)


def log(y):
    """log on 1 + LOG_DISK: y = 1 + x with |x|_p < 1."""
    return _log(y)


def _log(y, own=None):
    """log(y) on the object recurrence until its plan is proven, then by
    _log_value, or by own(t, ms) with the plan's t and m."""
    x = y - _one_like(y)
    _require(x, "log", "LOG_DISK")
    p = x.ctx.p
    # y - 1 is never an exact zero, so lb is finite
    lb = x.valuation_lower_bound

    def tail(n):
        return (n + 1) * lb - _ilog(n + 1, p)

    total = None
    xn = _one_like(x)
    n = 0
    while n < _MAX_TERMS:
        n += 1
        xn = xn * x
        term = xn.div_int(n if n % 2 == 1 else -n)
        total = term if total is None else total + term
        if tail(n) >= total.known_precision:
            return total.truncate(tail(n))
        plan = _plan(total, xn, n, 1, tail, _ilog(n + 1, p) - 1)
        if plan:
            return own(*plan[1:]) if own else _log_value(x, *plan)
    raise PadicError("log series failed to terminate")


def sin_cos_tan(x):
    """All three at once; cos is a unit on the disk, so tan = sin/cos is safe."""
    s, c = sin(x), cos(x)
    if x.valuation_lower_bound == INFINITE:
        return s, c, s
    return s, c, s / c


def sin(x):
    _require(x, "sin_cos_tan", "EXP_DISK")
    return _factorial_series(x, 2, 1, -1)


def cos(x):
    _require(x, "sin_cos_tan", "EXP_DISK")
    return _factorial_series(x, 2, 0, -1)


def tan(x):
    return sin_cos_tan(x)[2]


def _tan_over_root(n):
    """tan(y)/y, y^2 = n: S / C with S = sin(y)/y = sum_k (-n)^k / (2k + 1)!
    and C = cos(y) = sum_k (-n)^k / (2k)!, units summed as real planned sums
    at a lift of n, since on v(n) >= 2 no term moves more than n/3 does when
    n moves below m(n): at m = min(N, m(n) - v_p(3)), up to the first K whose
    bound (K + 1) v(n) - (2K + 2) // (p - 1) on term K + 1 reaches m."""
    p = n.ctx.p
    m = min(n.ctx.precision, n.m - vp_int(3, p))
    K = _first_reaching(lambda k: (k + 1) * n.v - (2 * k + 2) // (p - 1), -1, 1, m)

    def value(e):
        qs = [(2 * k + e + 1) * (2 * k + e + 2) for k in range(K)]
        return _planned_sum(
            n, None, [m], factorial(2 * K + e), _vp_factorial(2 * K + e, p), _block_size(K),
            lambda Z, d, P: _rect((-Z[0], -Z[1]), d, _hyper_blocks(qs, d, P), P),
        )

    return value(1) / value(0)


def _odd_value(x, t, ms, arcsin):
    """i arcsin x or 2i arctan x from its own series at x, normalized at the
    planned m of the log it replaces (ms, and t for an exact zero): sum_k
    C(2k, k) x^(2k+1) / (4^k (2k + 1)), hypergeometric in x^2 with ratio
    (2k + 1)^2 / ((2k + 2)(2k + 3)), or sum_k (-x^2)^k x / (2k + 1).  Term n
    has valuation at least (2n + 1) v(x) - floor(log_p(2n + 1)), which grows
    with n, so the sum stops after the first K whose bound at K + 1 reaches
    every m.

    Why the digits are log's: the lift X of x that _planned_sum sums at (Z / d
    or x's representative) agrees with x modulo each component's m and is 0
    at its zeros.  The kernel's m rules hold under any change of an input
    below its m, so y(X), (1 + iX) / (1 - iX) or iX + sqrt(1 - X^2) with the
    binomial series' root, lifts log's argument y.  By _planned_sum's
    argument log's planned sum agrees with its sum at y(X) modulo each
    planned m, and that sum, with tail at least t >= m, with log(y(X)) = 2i
    arctan(X) or i arcsin(X), which the own series at X matches modulo
    p^(max m) by the bound above."""
    p, v = x.ctx.p, x.valuation_lower_bound
    top = max(m for m in ms if m is not None)
    K = _first_reaching(lambda n: (2 * n + 3) * v - _ilog(2 * n + 3, p), -1, 1, top)
    stop = 2 * K + 1
    if arcsin:
        ps = [k * k for k in range(1, stop, 2)]
        return _factorial_value(x, 2, 1, 1, stop, t, ms, ps, (0, 1))
    return _log_value(x, stop, t, ms, 2, (0, 2))


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
    _require(x, "arctan", "EXP_DISK")
    i = QpiElement.i_unit(x.ctx)
    ix = i * x
    q = (1 + ix) / (1 - ix)
    result = (_log(q, lambda t, ms: _odd_value(x, t, ms, False)) * (-i)).div_int(2)
    return _real_in_real_out(result, was_real)


def arcsin(x):
    """(1/i) log(ix + sqrt(1 - x^2)) with the canonical branch of the root
    supplied by the binomial series."""
    was_real = not isinstance(x, QpiElement)
    x = _as_qpi(x)
    _require(x, "arcsin", "BINOMIAL_DISK")
    ctx = x.ctx
    i = QpiElement.i_unit(ctx)
    half = from_rational(1, 2, ctx)
    root = binomial_series(half, -(x * x))
    result = _log(i * x + root, lambda t, ms: _odd_value(x, t, ms, True)) * (-i)
    return _real_in_real_out(result, was_real)


def binomial_series(alpha, x):
    """Sum binom(alpha, n) x^n for alpha in Z_p, |x|_p < 1.

    Coefficients lie in Z_p (integrality passes to the completion), which is
    what makes the plain (n+1)*v(x) tail bound valid.  They need not lie in
    Z_p[i] for alpha in Q_p(i) (binom(i, 7) has 7-adic valuation -1), so
    alpha must be a scalar.
    """
    if not isinstance(alpha, PadicNumber):
        raise DomainError("binomial_series: alpha must be a scalar of Q_p")
    if alpha.valuation_lower_bound < 0:
        raise DomainError(
            f"binomial_series: alpha has valuation {alpha.valuation}, not in Z_p"
        )
    _require(x, "binomial_series", "BINOMIAL_DISK")
    ctx = x.ctx
    p = ctx.p
    one = _one_like(x)
    lb = x.valuation_lower_bound
    if lb == INFINITE:
        return one
    ab = _small_rational(alpha)

    def tail(n):
        return (n + 1) * lb

    total = term = one
    n = 0
    while n < _MAX_TERMS:
        n += 1
        term = (term * x * (alpha - from_rational(n - 1, 1, ctx))).div_int(n)
        total = total + term
        if tail(n) >= total.known_precision:
            return total.truncate(tail(n))
        if ab:
            dip = _digit_sum(n, p) // (p - 1) - 1
            plan = _plan(total, term, n, 1, tail, dip)
            if plan:
                return _binomial_value(x, *ab, *plan)
    raise PadicError("binomial series failed to terminate")
