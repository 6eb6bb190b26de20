"""Scalar kernel: construction, field operations, sqrt, literals."""

import operator
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from math import factorial
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_digits import from_digits, sqrt_digits
from padicloop import (
    DivisionByZero,
    NonSquare,
    ParseError,
    PadicNumber,
    PrecisionExhausted,
    PrimeContext,
    ZeroDenominator,
    format_padic,
    from_int,
    from_rational,
    parse_padic,
    sqrt,
)
from padicloop.checks import _rand_padic
from padicloop.context import MAX_PRIME, is_prime
from padicloop.errors import PadicError
from padicloop.oracles import rational_to_padic_digits, rational_valuation
from padicloop.padic import _sqrt_mod_p

C7 = PrimeContext(7, 8)


def sample_rational(rng, bound=10**6):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    if num == 0:
        num = 1
    return Fraction(num, den)


def sample_padic(rng, ctx, vmin=-3, vmax=3):
    return _rand_padic(rng, ctx, vmin, vmax)


class TestContext:
    def test_rejects_composite(self):
        with pytest.raises(Exception):
            PrimeContext(9)

    def test_rejects_two(self):
        with pytest.raises(Exception):
            PrimeContext(2)

    def test_rejects_bad_precision(self):
        with pytest.raises(Exception):
            PrimeContext(7, 0)

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n > 1 and all(n % f for f in range(2, int(n**0.5) + 1))

        assert [n for n in range(-3, 20000) if is_prime(n)] == [
            n for n in range(-3, 20000) if trial(n)
        ]

    def test_strong_pseudoprimes_are_composite(self):
        # each passes Miller-Rabin for all bases up to 7, 17, 23 and 37 in turn
        for n in (3215031751, 341550071728321, 3825123056546413051,
                  318665857834031151167461):
            assert not is_prime(n)

    @pytest.mark.parametrize("p", [3, 7, 10007, 3317044064679887385961783])
    def test_inv_lift_is_the_inverse(self, p):
        # a random unit, a factorial with p removed (the series engine's
        # denominator) and a small rational's unit, at the base case's edge
        # and around powers of two, where the lifting chain changes length;
        # k = 2049 and 8192 at the largest p are 170,000- and 670,000-bit
        # moduli, seconds per unit, so that p stops at k = 1025
        rng = random.Random(p)
        ctx = PrimeContext(p, 4096)
        ks = {1, 7, 8, 9, 15, 16, 17, 31, 32, 33}
        ks |= {2**j + e for j in range(6, 12 if p < 10**6 else 11) for e in (-1, 1)}
        if p < 10**6:
            ks.add(8192)
        a, b = (12345, 678) if p != 3 else (12347, 679)
        for k in sorted(ks):
            pk = ctx.pow(k)
            n = 2 * k + 5
            fact = factorial(n) // p ** sum(n // p**i for i in range(1, n.bit_length()))
            random_unit = rng.randrange(pk // p) * p + rng.randrange(1, p)
            for u in (random_unit, fact % pk, a * pow(b, -1, pk) % pk):
                x = ctx.inv_lift(u, k)
                if pk.bit_length() <= 30000:
                    assert x == pow(u, -1, pk)
                else:
                    # pow takes seconds here; the inverse modulo p^k is the
                    # unique x in [0, p^k) with u x = 1 there, so this is the
                    # same comparison
                    assert 0 <= x < pk and u * x % pk == 1

    def test_shared_context_stores_only_correct_powers(self):
        # pow's one store is p**k under key k, so threads racing through one
        # context's first calls can neither get nor leave a wrong power
        p = 10007
        ctx = PrimeContext(p, 200)
        ks = [k for k in range(300) for _ in range(4)]
        random.Random(0).shuffle(ks)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(ctx.pow, ks, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [p**k for k in ks]
        assert ctx._powers == {k: p**k for k in range(300)}

    def test_no_answer_beyond_the_proven_bound(self):
        # MAX_PRIME itself is a strong pseudoprime to all 13 bases
        with pytest.raises(PadicError):
            is_prime(MAX_PRIME)
        assert is_prime(MAX_PRIME - 1) is False  # even: settled by the bases


class TestFromRationalInverses:
    def test_integers_and_powers_of_p_need_no_inverse(self, monkeypatch):
        calls = []
        inv_mod = PrimeContext.inv_mod

        def counted(ctx, u, k):
            calls.append(u)
            return inv_mod(ctx, u, k)

        monkeypatch.setattr(PrimeContext, "inv_mod", counted)
        # other denominators are divided out with div_int, modulo their unit
        for num, den in ((5, 1), (-12, 1), (98, 1), (3, 49), (-1, 7), (1, 3), (-2, -147)):
            x = from_rational(num, den, C7)
            assert x.digits() == rational_to_padic_digits(Fraction(num, den), 7, 8)
        assert calls == []

    def test_a_denominator_wider_than_p_to_the_n_is_inverted_mod_p_to_the_n(self, monkeypatch):
        # exact division by the whole denominator would cost a gcd at its
        # width, and `analytic binom 1e-10000` parses one of 10,001 digits
        calls = []
        inv_mod = PrimeContext.inv_mod

        def counted(ctx, u, k):
            calls.append((u, k))
            return inv_mod(ctx, u, k)

        monkeypatch.setattr(PrimeContext, "inv_mod", counted)
        for num, den in ((1, 10**40), (-3, 7 * 10**40 + 7)):
            x = from_rational(num, den, C7)
            assert x.digits() == rational_to_padic_digits(Fraction(num, den), 7, 8)
        assert calls == [(10**40 % 7**8, 8), ((10**40 + 1) % 7**8, 8)]


class TestFromRational:
    def test_one(self):
        x = from_rational(1, 1, C7)
        assert x.valuation == 0
        assert x.digits() == [1]

    def test_98_is_2_times_49(self):
        x = from_rational(98, 1, C7)
        assert x.valuation == 2
        assert x.digits() == [2]

    def test_one_third_long_division(self):
        # oracle: repeatedly solve 3*d = r (mod 7)
        ctx = PrimeContext(7, 4)
        x = from_rational(1, 3, ctx)
        assert x.valuation == 0
        assert x.unit_digits() == rational_to_padic_digits(Fraction(1, 3), 7, 4)
        assert x.unit_digits() == [5, 4, 4, 4]  # 3*1601 = 4803 = 2*2401 + 1

    def test_zero_numerator(self):
        x = from_rational(0, 5, C7)
        assert x.is_exact_zero
        assert x.known_precision == C7.precision

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            from_rational(1, 0, C7)

    def test_oracle_agreement_random(self):
        rng = random.Random(1)
        for _ in range(300):
            q = sample_rational(rng)
            x = from_rational(q.numerator, q.denominator, C7)
            assert x.valuation == rational_valuation(q, 7)
            assert x.digits() == rational_to_padic_digits(q, 7, C7.precision)

    def test_oracle_agreement_other_primes(self):
        rng = random.Random(2)
        for p in (3, 11, 19, 23):
            ctx = PrimeContext(p, 10)
            for _ in range(100):
                q = sample_rational(rng)
                x = from_rational(q.numerator, q.denominator, ctx)
                assert x.digits() == rational_to_padic_digits(q, p, 10)


class TestArith:
    def test_additive_identity(self):
        x = sample_padic(random.Random(3), C7)
        zero = PadicNumber.exact_zero(C7)
        assert x + zero == x
        assert zero + x == x

    def test_inverse_pair(self):
        one = from_rational(3, 1, C7) * from_rational(1, 3, C7)
        assert one.digits() == [1]
        assert one.valuation == 0
        assert one.known_precision == C7.precision

    def test_thirds_sum_to_one(self):
        s = from_rational(1, 3, C7) + from_rational(2, 3, C7)
        assert s.digits() == [1]
        assert s.known_precision == C7.precision

    def test_rational_model_random(self):
        # every operation agrees with exact rational arithmetic pushed
        # through the long-division oracle
        rng = random.Random(4)
        for _ in range(200):
            qa, qb = sample_rational(rng, 10**3), sample_rational(rng, 10**3)
            a = from_rational(qa.numerator, qa.denominator, C7)
            b = from_rational(qb.numerator, qb.denominator, C7)
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                got = op(a, b)
                want = op(qa, qb)
                if want == 0:
                    assert got.is_zero
                    continue
                assert got.valuation == rational_valuation(want, 7)
                assert got.digits() == rational_to_padic_digits(want, 7, got.r)

    def test_division_by_exact_zero(self):
        with pytest.raises(DivisionByZero):
            from_int(1, C7) / PadicNumber.exact_zero(C7)

    def test_division_by_inexact_zero(self):
        z = PadicNumber.zero_mod(C7, 5)
        with pytest.raises(PrecisionExhausted):
            from_int(1, C7) / z

    def test_cancellation_raises_valuation(self):
        a = from_rational(1 + 7**3, 1, C7)
        b = from_rational(1, 1, C7)
        d = a - b
        assert d.valuation == 3
        assert d.known_precision == C7.precision  # absolute precision kept

    def test_precision_rules(self):
        ctx = PrimeContext(7, 6)
        a = from_rational(7, 1, ctx)       # v=1, m=7
        b = from_rational(1, 5, ctx)       # v=0, m=6
        assert (a + b).known_precision == 6
        prod = a * b
        assert prod.valuation == 1
        assert prod.known_precision == 7   # v + min(r_a, r_b)
        quot = a / b
        assert quot.valuation == 1
        assert quot.known_precision == 7

    def test_pow(self):
        x = from_rational(3, 5, C7)
        assert (x**4).eq_to(x * x * x * x)
        assert (x**-2).eq_to(from_rational(25, 9, C7))
        assert (x**0).digits() == [1]


class TestMixedPrimes:
    """Each operator refuses operands over two primes, zero operands
    included; two precisions over one prime mix freely."""

    C11 = PrimeContext(11, 8)
    OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_two_primes_raise(self, op):
        fn = self.OPS[op]
        sevens = [from_rational(2, 3, C7), PadicNumber.exact_zero(C7), PadicNumber.zero_mod(C7, 3)]
        elevens = [from_rational(5, 7, self.C11), PadicNumber.exact_zero(self.C11)]
        for a in sevens:
            for b in elevens:
                for x, y in ((a, b), (b, a)):
                    with pytest.raises(PadicError, match="^mixed primes$"):
                        fn(x, y)

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_two_precisions_of_one_prime_mix(self, op):
        a, b = from_rational(2, 3, C7), from_rational(5, 11, PrimeContext(7, 16))
        got = self.OPS[op](a, b)
        want = self.OPS[op](a, from_rational(5, 11, C7))
        assert got.eq_to(want)


def fields(x):
    return (x.kind, x.v, x.unit, x.r, x.m)


def div_int_operands(rng, ctx):
    """Nonzero values with fewer, exactly N and more than N digits, and
    both kinds of zero."""
    out = [PadicNumber.exact_zero(ctx, rng.randint(1, 9)), PadicNumber.zero_mod(ctx, 4)]
    for ndigits in (1, ctx.precision, ctx.precision + 6):
        v = rng.randint(-3, 3)
        digits = [rng.randint(1, ctx.p - 1)]
        digits += [rng.randint(0, ctx.p - 1) for _ in range(ndigits - 1)]
        out.append(from_digits(ctx, v, digits, m=v + ndigits))
    return out


class TestDivInt:
    @pytest.mark.parametrize("p,prec", [(3, 1), (3, 40), (7, 8), (11, 5), (10007, 12)])
    def test_matches_division_by_from_rational(self, p, prec):
        ctx = PrimeContext(p, prec)
        rng = random.Random(p * 1000 + prec)
        divisors = [1, -1, p, -p * p, 2 * p**3, 10**12 + 39, -(2**61 - 1)]
        divisors += [rng.choice((1, -1)) * rng.randint(2, 10**6) for _ in range(20)]
        for x in div_int_operands(rng, ctx):
            for n in divisors:
                assert fields(x.div_int(n)) == fields(x / from_rational(n, 1, ctx)), (x, n)

    def test_by_zero(self):
        with pytest.raises(DivisionByZero):
            from_int(3, C7).div_int(0)


@st.composite
def padics(draw, ctx=C7, allow_zero=False):
    if allow_zero and draw(st.booleans()):
        return PadicNumber.exact_zero(ctx, draw(st.integers(1, 10)))
    v = draw(st.integers(-3, 3))
    digits = [draw(st.integers(1, ctx.p - 1))] + draw(
        st.lists(st.integers(0, ctx.p - 1), min_size=ctx.precision - 1,
                 max_size=ctx.precision - 1)
    )
    return from_digits(ctx, v, digits, m=v + ctx.precision)


class TestUltrametric:
    @settings(max_examples=300, deadline=None)
    @given(padics(), padics())
    def test_strong_triangle(self, a, b):
        s = a + b
        if s.is_zero:
            return
        assert s.valuation >= min(a.valuation, b.valuation)
        if a.valuation != b.valuation:
            assert s.valuation == min(a.valuation, b.valuation)

    @settings(max_examples=300, deadline=None)
    @given(padics(), padics())
    def test_multiplicativity(self, a, b):
        assert (a * b).valuation == a.valuation + b.valuation

    def test_random_pairs_bulk(self):
        # keep this above 10^3 pairs, cheap and it has caught carry bugs
        rng = random.Random(5)
        for _ in range(1200):
            a, b = sample_padic(rng, C7), sample_padic(rng, C7)
            s = a + b
            if not s.is_zero:
                assert s.valuation >= min(a.valuation, b.valuation)
            if a.valuation != b.valuation:
                assert s.valuation == min(a.valuation, b.valuation)
            assert (a * b).valuation == a.valuation + b.valuation


class TestSqrt:
    def test_sqrt_one(self):
        r = sqrt(from_int(1, C7))
        assert r.digits() == [1]  # canonical branch, not 6,6,6,...

    def test_sqrt_two_leading_digit(self):
        r = sqrt(from_int(2, C7))
        assert r.unit % 7 == 3
        assert r.unit_digits()[:3] == [3, 1, 2]  # 108^2 = 2 (mod 343)

    def test_sqrt_two_matches_digitwise_oracle(self):
        ctx = PrimeContext(7, 12)
        r = sqrt(from_int(2, ctx))
        assert r.unit_digits() == sqrt_digits(
            from_int(2, ctx).unit, 7, 12
        )

    def test_sqrt_seven_odd_valuation(self):
        with pytest.raises(NonSquare):
            sqrt(from_int(7, C7))

    def test_sqrt_nonresidue(self):
        with pytest.raises(NonSquare):
            sqrt(from_int(3, C7))  # 3 is not a QR mod 7

    def test_sqrt_exact_zero(self):
        assert sqrt(PadicNumber.exact_zero(C7)).is_exact_zero

    def test_square_roundtrip_random(self):
        rng = random.Random(6)
        for p in (3, 7, 11, 19, 23):
            ctx = PrimeContext(p, 16)
            for _ in range(60):
                a = sample_padic(rng, ctx, vmin=-2, vmax=2)
                sq = a * a
                r = sqrt(sq)
                assert (r * r).eq_to(sq)
                assert r.unit % p <= (p - 1) // 2

    def test_canonical_branch_even_valuation(self):
        r = sqrt(from_rational(2 * 49, 1, C7))
        assert r.valuation == 1
        assert r.unit % 7 == 3

    def test_root_mod_p_for_every_residue(self):
        # 17, 41, 97, 193, 257 and 577 are 1 modulo a high power of 2
        primes = [p for p in range(3, 600, 2) if is_prime(p)]
        assert {17, 41, 97, 193, 257, 577} <= set(primes)
        for p in primes:
            squares = {x * x % p for x in range(p)}
            for a in range(p):
                r = _sqrt_mod_p(a, p)
                if a in squares:
                    assert r is not None and r * r % p == a, (p, a)
                else:
                    assert r is None, (p, a)

    @pytest.mark.parametrize("p", [5, 13, 17, 10009])
    @pytest.mark.parametrize("prec", [1, 2, 8, 64])
    def test_p_one_mod_four_matches_digitwise_oracle(self, p, prec):
        rng = random.Random(p * 100 + prec)
        ctx = PrimeContext(p, prec)
        for _ in range(6):
            v = 2 * rng.randrange(-1, 2)
            u = rng.randrange(1, p**prec)
            if u % p == 0:
                u += 1
            with pytest.raises(NonSquare):
                sqrt(PadicNumber.make(ctx, v + 1, u, v + 1 + prec))
            a = PadicNumber.make(ctx, v, u, v + prec)
            want = sqrt_digits(u, p, prec)
            if want is None:
                with pytest.raises(NonSquare):
                    sqrt(a)
            else:
                r = sqrt(a)
                assert (r.v, r.m, r.unit_digits()) == (v // 2, v // 2 + prec, want)

    @pytest.mark.parametrize("prec", [1, 2, 8, 64])
    def test_p_one_mod_four_above_two_to_the_64(self, prec):
        # too wide for the digit search: square a known root on the
        # canonical branch, and name non-residues by Euler's criterion
        p = 18446744073709551697
        assert p % 8 == 1 and is_prime(p)
        ctx = PrimeContext(p, prec)
        rng = random.Random(prec)
        for _ in range(6):
            v = rng.randrange(-2, 3)
            s = rng.randrange(1, p**prec)
            if s % p > (p - 1) // 2:
                s = p**prec - s
            root = PadicNumber.make(ctx, v, s, v + prec)
            r = sqrt(root * root)
            assert (r.v, r.unit, r.m) == (root.v, root.unit, root.m)
            n = rng.randrange(2, p)
            while pow(n, (p - 1) // 2, p) != p - 1:
                n += 1
            with pytest.raises(NonSquare):
                sqrt(PadicNumber.make(ctx, 2 * v, n * s * s, 2 * v + prec))
            with pytest.raises(NonSquare):
                sqrt(PadicNumber.make(ctx, 2 * v + 1, s * s, 2 * v + 1 + prec))


class TestLiterals:
    def test_format_example(self):
        ctx = PrimeContext(7, 8)
        a = from_digits(ctx, 0, [3, 2], m=2)
        assert format_padic(a) == "3 + 2*7 + O(7^2)"

    def test_zero_format(self):
        assert format_padic(PadicNumber.exact_zero(C7, 5)) == "O(7^5)"

    def test_parse_negative_valuation(self):
        a = parse_padic("2*7^-1 + 1 + O(7^3)", C7)
        assert a.valuation == -1
        assert a.digits() == [2, 1]
        assert a.known_precision == 3

    def test_parse_zero(self):
        a = parse_padic("O(7^5)", C7)
        assert a.is_exact_zero
        assert a.known_precision == 5

    def test_parse_rejects_wrong_base(self):
        with pytest.raises(ParseError):
            parse_padic("1 + O(5^3)", C7)
        with pytest.raises(ParseError):
            parse_padic("1 + 2*5 + O(7^3)", C7)

    def test_parse_rejects_bad_digit(self):
        with pytest.raises(ParseError):
            parse_padic("9 + O(7^3)", C7)
        with pytest.raises(ParseError):
            parse_padic("0 + O(7^3)", C7)

    def test_parse_rejects_unsorted_powers(self):
        with pytest.raises(ParseError):
            parse_padic("1*7 + 1 + O(7^3)", C7)

    def test_parse_rejects_uncovered_power(self):
        with pytest.raises(ParseError):
            parse_padic("1*7^5 + O(7^3)", C7)

    @settings(max_examples=300, deadline=None)
    @given(padics(allow_zero=True))
    def test_roundtrip(self, a):
        assert parse_padic(format_padic(a), C7) == a

    def test_roundtrip_bulk(self):
        # bulk roundtrip, >= 10^3 values
        rng = random.Random(7)
        for _ in range(1100):
            a = sample_padic(rng, C7)
            assert parse_padic(format_padic(a), C7) == a


def _format_schoolbook(a):
    """format_padic by one divmod per digit on the unit: the reference any
    faster digit conversion must reproduce."""
    p = a.ctx.p
    if a.is_zero:
        return f"O({p}^{a.m})"
    terms = []
    u, k = a.unit, a.v
    while u:
        u, d = divmod(u, p)
        if d:
            terms.append(f"{d}" if k == 0 else f"{d}*{p}" if k == 1 else f"{d}*{p}^{k}")
        k += 1
    terms.append(f"O({p}^{a.m})")
    return " + ".join(terms)


class TestFormatDigits:
    @pytest.mark.parametrize("p", [3, 7, 10007, 3317044064679887385961783])
    def test_matches_schoolbook_loop(self, p):
        ctx = PrimeContext(p, 200)
        rng = random.Random(p)
        values = [PadicNumber.exact_zero(ctx, m) for m in (-5, 0, 7)]
        values += [PadicNumber.zero_mod(ctx, m) for m in (-5, 0, 7)]
        for r in range(1, 201):
            v = rng.randint(-5, 5)
            # a full unit, then one with runs of zero digits at both ends
            for lo, hi in ((0, 0), (rng.randint(1, r), rng.randint(1, r))):
                digits = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(r - 1)]
                digits[:lo] = [0] * lo
                digits[r - hi:] = [0] * hi
                u = sum(d * p**k for k, d in enumerate(digits))
                values.append(PadicNumber.make(ctx, v, u, v + r))
        assert any(a.r > 1 and a.unit_digits()[-1] == 0 for a in values)
        for a in values:
            assert format_padic(a) == _format_schoolbook(a)


def test_every_exported_name_resolves():
    import padicloop

    assert [name for name in padicloop.__all__ if not hasattr(padicloop, name)] == []
