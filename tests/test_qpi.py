"""Q_p(i): field structure, conjugation, norm, extended absolute value."""

import random
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub, truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_digits import from_digits
from padicloop import (
    DivisionByZero,
    INFINITE,
    PadicNumber,
    PrimeContext,
    WrongPrimeClass,
    from_int,
    from_rational,
)
from padicloop.checks import _rand_padic
from padicloop.errors import PrecisionExhausted
from padicloop.matrix import Mat2
from padicloop.oracles import GaussianRational, rational_to_padic_digits, rational_valuation
from padicloop.qpi import QpiElement, format_qpi, parse_qpi

C7 = PrimeContext(7, 8)


def fields(x):
    return (x.kind, x.v, x.unit, x.r, x.m)


def sample_qpi(rng, ctx, vmin=-2, vmax=2):
    return QpiElement(_rand_padic(rng, ctx, vmin, vmax), _rand_padic(rng, ctx, vmin, vmax))


def sample_gaussian(rng, bound=500):
    def frac():
        return Fraction(rng.randint(-bound, bound) or 1, rng.randint(1, bound))

    return GaussianRational(frac(), frac())


class TestPrimeClass:
    def test_rejects_p_1_mod_4(self):
        ctx = PrimeContext(5, 8)
        with pytest.raises(WrongPrimeClass):
            QpiElement(from_int(1, ctx))

    def test_rejects_p_13(self):
        ctx = PrimeContext(13, 8)
        with pytest.raises(WrongPrimeClass):
            QpiElement.i_unit(ctx)


class TestFieldOps:
    def test_i_squared(self):
        i = QpiElement.i_unit(C7)
        m = i * i
        assert m.im.is_zero
        assert m.re.eq_to(from_int(-1, C7))

    def test_one_over_i(self):
        q = QpiElement.one(C7) / QpiElement.i_unit(C7)
        assert q.re.is_zero
        assert q.im.eq_to(from_int(-1, C7))

    def test_gauss_quotient(self):
        # (1+i)/(1-i) = i
        a = QpiElement.from_rationals(1, 1, 1, 1, C7)
        b = QpiElement.from_rationals(1, 1, -1, 1, C7)
        q = a / b
        assert q.re.is_zero
        assert q.im.eq_to(from_int(1, C7))

    def test_gaussian_oracle_random(self):
        rng = random.Random(10)
        for _ in range(150):
            ga, gb = sample_gaussian(rng), sample_gaussian(rng)
            a, b = (
                QpiElement.from_rationals(
                    g.re.numerator, g.re.denominator, g.im.numerator, g.im.denominator, C7
                )
                for g in (ga, gb)
            )
            for op in (add, sub, mul, truediv):
                got = op(a, b)
                want = op(ga, gb)
                for comp, frac in ((got.re, want.re), (got.im, want.im)):
                    if frac == 0:
                        assert comp.is_zero
                        continue
                    if comp.is_zero_mod:
                        assert rational_valuation(frac, 7) >= comp.m
                        continue
                    assert comp.valuation == rational_valuation(frac, 7)
                    assert comp.digits() == rational_to_padic_digits(frac, 7, comp.r)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            QpiElement.one(C7) / QpiElement.zero(C7)

    def test_matrix_inverse_raises_as_division_by_its_determinant(self):
        one, zero = QpiElement.one(C7), QpiElement.zero(C7)
        singular = Mat2(one, zero, zero, zero)
        assert singular.det().is_exact_zero
        with pytest.raises(DivisionByZero):
            singular.inverse()
        cancelled = Mat2(one, one, one, one)
        assert cancelled.det().is_zero and not cancelled.det().is_exact_zero
        with pytest.raises(PrecisionExhausted):
            cancelled.inverse()

    def test_div_int_matches_division_by_from_rational(self):
        # an exact-zero component must keep the m that division through the
        # coerced divisor gives it, since a zero component prints as O(p^m)
        ctx = PrimeContext(7, 6)
        rng = random.Random(11)
        x = sample_qpi(rng, ctx)
        zero = PadicNumber.exact_zero(ctx, 3)
        values = [
            x, QpiElement(x.re), QpiElement(zero, x.im), QpiElement.zero(ctx),
            QpiElement(zero, PadicNumber.zero_mod(ctx, 5)),
            QpiElement(PadicNumber.zero_mod(ctx, 2), zero),
        ]
        for n in (1, -1, 7, -49 * 5, 3, -1000003, 2 * 7**4):
            d = from_rational(n, 1, ctx)
            for z in values:
                got, want = z.div_int(n), z / d
                assert [fields(c) for c in (got.re, got.im)] == [
                    fields(c) for c in (want.re, want.im)
                ], (z, n)


    @pytest.mark.parametrize("p,prec", [(7, 6), (3, 20), (11, 3), (10007, 4)])
    def test_division_matches_two_scalar_divisions(self, p, prec):
        # one inverse of the norm serves both parts; each part must keep the
        # (kind, v, unit, r, m) of its own division by the norm, exact-zero
        # display m included
        ctx = PrimeContext(p, prec)
        rng = random.Random(p * 100 + prec)

        def comp():
            kind = rng.randrange(6)
            if kind == 0:
                return PadicNumber.exact_zero(ctx, rng.choice((1, prec, prec + 5)))
            if kind == 1:
                return PadicNumber.zero_mod(ctx, rng.randint(-1, prec + 4))
            v = rng.randint(-2, 3)
            ndigits = rng.randint(1, prec + 5)
            digits = [rng.randint(1, p - 1)] + [rng.randint(0, p - 1) for _ in range(ndigits - 1)]
            return from_digits(ctx, v, digits, m=v + ndigits)

        checked = 0
        for _ in range(400):
            a, b = QpiElement(comp(), comp()), QpiElement(comp(), comp())
            n = b.norm()
            if n.is_zero:
                continue
            c = a * b.conj()
            got = a / b
            assert [fields(x) for x in (got.re, got.im)] == [
                fields(c.re / n), fields(c.im / n)
            ], (a, b)
            checked += 1
        assert checked > 100


class TestConj:
    def test_conj_i(self):
        c = QpiElement.i_unit(C7).conj()
        assert c.im.eq_to(from_int(-1, C7))

    def test_involution_and_homomorphism(self):
        rng = random.Random(11)
        for _ in range(100):
            z, w = sample_qpi(rng, C7), sample_qpi(rng, C7)
            assert z.conj().conj().eq_to(z)
            assert (z * w).conj().eq_to(z.conj() * w.conj())
            assert (z + w).conj().eq_to(z.conj() + w.conj())


class TestNormAbs:
    def test_norm_of_i(self):
        z = QpiElement.i_unit(C7)
        n, e = z.norm(), z.valuation
        assert n.eq_to(from_int(1, C7))
        assert e == 0

    def test_norm_of_7_times_1_plus_i(self):
        z = QpiElement.from_rationals(7, 1, 7, 1, C7)
        n, e = z.norm(), z.valuation
        assert n.eq_to(from_int(98, C7))
        assert e == 1

    def test_zero(self):
        z = QpiElement.zero(C7)
        n, e = z.norm(), z.valuation
        assert n.is_exact_zero
        assert e == INFINITE

    def test_norm_valuation_even_random(self):
        # norm valuation must come out even; >= 10^3 random z
        rng = random.Random(12)
        for _ in range(1100):
            z = sample_qpi(rng, C7)
            n, e = z.norm(), z.valuation
            assert n.valuation == 2 * e
            assert n.valuation % 2 == 0

    def test_norm_multiplicativity(self):
        rng = random.Random(13)
        for _ in range(200):
            z, w = sample_qpi(rng, C7), sample_qpi(rng, C7)
            assert (z * w).norm().eq_to(z.norm() * w.norm())

    def test_embedding_preserves_exponent(self):
        rng = random.Random(14)
        for _ in range(200):
            v = rng.randint(-3, 3)
            digits = [rng.randint(1, 6)] + [rng.randint(0, 6) for _ in range(7)]
            x = from_digits(C7, v, digits)
            z = QpiElement(x)
            assert z.valuation == x.valuation


class TestAnisotropy:
    def test_sum_of_squares_never_cancels(self):
        # exhaustive over digit prefixes: a^2 + b^2 = 0 (mod p^2) forces
        # both leading digits to vanish, for every p = 3 (mod 4) in scope
        for p in (3, 7, 11, 19, 23):
            for da in range(1, p):
                for db in range(1, p):
                    assert (da * da + db * db) % p != 0

    def test_norm_never_loses_digits(self):
        rng = random.Random(15)
        for _ in range(400):
            z = sample_qpi(rng, C7, vmin=0, vmax=0)
            n = z.norm()
            assert not n.is_zero
            assert n.r >= C7.precision  # no cancellation: full relative width


class TestLiterals:
    def test_pure_real_is_bare(self):
        z = QpiElement(from_int(1, C7))
        assert format_qpi(z) == "1 + O(7^8)"

    def test_pure_imaginary(self):
        z = QpiElement.i_unit(C7)
        assert format_qpi(z) == "(1 + O(7^8))*i"

    def test_full_form(self):
        z = QpiElement.from_rationals(7, 1, 7, 1, C7)
        s = format_qpi(z)
        assert s == "(1*7 + O(7^9)) + (1*7 + O(7^9))*i"

    def test_zero(self):
        assert format_qpi(QpiElement.zero(C7)) == "O(7^8)"

    def test_roundtrip_random(self):
        rng = random.Random(16)
        for _ in range(300):
            z = sample_qpi(rng, C7)
            assert parse_qpi(format_qpi(z), C7) == z
        z = QpiElement(from_int(3, C7))
        assert parse_qpi(format_qpi(z), C7) == z
        z = QpiElement.i_unit(C7)
        assert parse_qpi(format_qpi(z), C7) == z

    def test_parse_parenthesized_real(self):
        z = parse_qpi("(1 + O(7^8))", C7)
        assert z.re.digits() == [1]
        assert z.im.is_zero


class TestPow:
    """x ** k against one times |k| factors x, one over that for k < 0, field
    for field."""

    @pytest.mark.parametrize("p", [3, 7])
    def test_matches_repeated_multiplication(self, p):
        ctx = PrimeContext(p, 8)
        one = QpiElement.one(ctx)
        rng = random.Random(p)
        points = [sample_qpi(rng, ctx) for _ in range(20)] + [
            QpiElement.i_unit(ctx),
            QpiElement.from_rationals(1, 1, 1, 1, ctx),  # (1 + i)^2 = 2i cancels
            QpiElement.from_rationals(p, 2, 0, 1, ctx),
            QpiElement.from_rationals(0, 1, 3, p, ctx),
        ]
        for x in points:
            for k in range(-3, 6):
                product = reduce(mul, [x] * abs(k), one)
                expected = one / product if k < 0 else product
                assert x ** k == expected, (p, k, format_qpi(x))

    def test_non_integer_exponent_is_unsupported(self):
        with pytest.raises(TypeError):
            QpiElement.one(C7) ** 0.5


class TestIsZeroMod:
    def test_real_cancellation_keeps_the_exact_imaginary_part(self):
        # im = 0 - 0 is exact, so the difference still has a determined digit
        a = QpiElement(from_rational(1, 3, C7))
        d = a - a
        assert d.re.is_zero_mod and d.im.is_exact_zero
        # with both parts nonzero, both cancel to inexact zeros
        b = QpiElement.from_rationals(1, 3, 2, 5, C7)
        e = b - b
        assert e.re.is_zero_mod and e.im.is_zero_mod


class TestMixedScalarOperands:
    """A Q_p scalar on the left of a Q_p(i) value is promoted to Q_p(i)."""

    OPS = {"+": add, "-": sub, "*": mul, "/": truediv}

    @pytest.mark.parametrize("p", (3, 7))
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_scalar_op_qpi_is_the_promoted_op(self, op, p):
        fn = self.OPS[op]
        ctx = PrimeContext(p, 8)
        rng = random.Random(4100 + p)
        zero = PadicNumber.exact_zero(ctx)
        scalars = [zero] + [sample_qpi(rng, ctx).re for _ in range(6)]
        values = [QpiElement.zero(ctx)]
        for _ in range(6):
            z = sample_qpi(rng, ctx)
            values += [z, QpiElement(z.re, zero), QpiElement(zero, z.im)]
        for x in scalars:
            for z in values:
                if op == "/" and z.is_exact_zero:
                    continue
                got, want = fn(x, z), fn(QpiElement(x), z)
                assert got == want, f"{x} {op} {z}: {got} != {want}"

    def test_scalar_with_int_is_a_type_error(self):
        x = from_int(1, C7)
        with pytest.raises(TypeError):
            x + 1
        with pytest.raises(TypeError):
            x * 1

    def test_scalar_minus_int_is_a_type_error_naming_minus(self):
        with pytest.raises(TypeError, match=r"for -: 'PadicNumber' and 'int'"):
            from_int(1, C7) - 1

    def test_scalar_minus_scalar_is_plus_the_negation(self):
        rng = random.Random(4110)
        scalars = [PadicNumber.exact_zero(C7), PadicNumber.zero_mod(C7, 3)]
        scalars += [sample_qpi(rng, C7).re for _ in range(6)]
        for x in scalars:
            for y in scalars:
                assert x - y == x + (-y), f"{x} - {y}"


def object_mul(z, w):
    a, b, c, d = z.re, z.im, w.re, w.im
    return QpiElement(a * c - b * d, a * d + b * c)


def object_norm(z):
    return z.re * z.re + z.im * z.im


class TestRawProduct:
    """The product and the norm on raw Gaussian integers against the object
    formulas, every field of every part, m included; division, built on
    both, against the object product divided by the object norm."""

    def check(self, z, w):
        got, want = z * w, object_mul(z, w)
        assert [fields(x) for x in (got.re, got.im, z.norm())] == [
            fields(x) for x in (want.re, want.im, object_norm(z))
        ], (z, w)
        if w.is_exact_zero:
            return
        n = object_norm(w)
        if n.is_zero:
            with pytest.raises(PrecisionExhausted):
                z / w
            return
        got, c = z / w, object_mul(z, w.conj())
        assert [fields(got.re), fields(got.im)] == [fields(c.re / n), fields(c.im / n)], (z, w)

    @pytest.mark.parametrize("p", [3, 7, 11, 10007])
    @pytest.mark.parametrize("prec", [1, 2, 3, 5, 8, 32, 256])
    def test_random_pairs_with_every_zero_kind(self, p, prec):
        ctx = PrimeContext(p, prec)
        rng = random.Random(f"raw:{p}:{prec}")

        def part():
            kind = rng.randrange(10)
            if kind == 0:
                return PadicNumber.exact_zero(ctx, rng.randint(0, prec + 3))
            if kind == 1:
                return PadicNumber.zero_mod(ctx, rng.randint(0, prec + 3))
            v, r = rng.randint(0, 3), rng.randint(1, prec)
            unit = rng.randrange(ctx.pow(r - 1)) * p + rng.randint(1, p - 1)
            return PadicNumber.make(ctx, v, unit, v + r)

        def factor():
            shape = rng.randrange(6)
            if shape == 0:
                return QpiElement(part())  # scalar-embedded
            if shape == 1:
                return QpiElement(PadicNumber.exact_zero(ctx), part())  # pure imaginary
            return QpiElement(part(), part())

        for _ in range(120):
            z, w = factor(), factor()
            self.check(z, w)
            self.check(z, z.conj())  # the imaginary part cancels

    @pytest.mark.parametrize("p", [3, 7])
    @pytest.mark.parametrize("prec", [1, 2, 4, 9])
    def test_gaps_around_the_drop(self, p, prec):
        # a part whose valuation gap reaches the wider result part's r is
        # dropped; one digit earlier it still moves the last digit
        ctx = PrimeContext(p, prec)
        rng = random.Random(f"gap:{p}:{prec}")

        def scalar(v, r):
            unit = rng.randrange(ctx.pow(r - 1)) * p + rng.randint(1, p - 1)
            return PadicNumber.make(ctx, v, unit, v + r)

        for gap in range(1, 2 * prec + 3):
            for r in {1, prec}:
                z = QpiElement(scalar(0, prec), scalar(gap, r))
                w = QpiElement(scalar(0, prec), scalar(rng.randint(0, 1), prec))
                for x, y in ((z, w), (w, z), (z.conj(), w), (w, z.conj())):
                    self.check(x, y)

    def test_far_gap_builds_no_far_power(self, monkeypatch):
        prec = 8
        ctx = PrimeContext(7, prec)
        one = from_int(1, ctx)
        far = PadicNumber.make(ctx, 16000, 1, 16000 + prec)  # 7^16000
        z = QpiElement(one, far)
        w = QpiElement(from_rational(2, 3, ctx), from_rational(-5, 7, ctx))
        seen = []
        real_pow = PrimeContext.pow

        def recording_pow(self, k):
            seen.append(k)
            return real_pow(self, k)

        monkeypatch.setattr(PrimeContext, "pow", recording_pow)
        for x, y in ((z, z), (z, z.conj()), (z, w), (w, z), (QpiElement(far, one), w)):
            self.check(x, y)
        assert max(seen) <= 2 * prec + 1
        assert len(ctx._powers) <= 2 * prec + 2
