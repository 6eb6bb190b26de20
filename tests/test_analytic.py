"""Analytic functions: convergence guards, oracle digit agreement, identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicloop import INFINITE, PadicNumber, PrimeContext, from_int, from_rational
from padicloop.analytic import (
    _require,
    arcsin,
    arctan,
    binomial_series,
    cos,
    exp,
    log,
    matrix_exp,
    sin,
    sin_cos_tan,
    tan,
)
from padicloop.checks import _rand_padic
from padicloop.errors import DomainError
from padicloop.matrix import Mat2
from padicloop.oracles import (
    GaussianRational,
    gmat,
    gmat_exp_partial,
    rational_to_padic_digits,
    rational_valuation,
    series_partial_sum,
)
from padicloop.qpi import QpiElement

C7 = PrimeContext(7, 24)
C3 = PrimeContext(3, 24)
C11 = PrimeContext(11, 20)


def sample_disk(rng, ctx, vmin=1, vmax=3):
    """Random element with valuation in [vmin, vmax] (so inside every disk)."""
    return _rand_padic(rng, ctx, vmin, vmax)


def sample_disk_qpi(rng, ctx, vmin=1, vmax=3):
    return QpiElement(sample_disk(rng, ctx, vmin, vmax), sample_disk(rng, ctx, vmin, vmax))


def frac_to_padic(q, ctx):
    q = Fraction(q)
    return from_rational(q.numerator, q.denominator, ctx)


class TestDomains:
    def test_membership_is_valuation_at_least_one(self):
        for disk in ("EXP_DISK", "LOG_DISK", "BINOMIAL_DISK"):
            _require(from_int(7, C7), "f", disk)
            _require(PadicNumber.exact_zero(C7), "f", disk)
            for x in (from_int(1, C7), from_rational(1, 7, C7)):
                with pytest.raises(DomainError, match=f"outside {disk}"):
                    _require(x, "f", disk)

    def test_exp_rejects_unit(self):
        with pytest.raises(DomainError):
            exp(from_int(1, C7))

    def test_exp_rejects_negative_valuation(self):
        with pytest.raises(DomainError):
            exp(from_rational(1, 7, C7))

    def test_log_rejects_argument_away_from_one(self):
        with pytest.raises(DomainError):
            log(from_int(2, C7))

    def test_trig_rejects_unit(self):
        with pytest.raises(DomainError):
            sin_cos_tan(from_int(3, C7))

    def test_arctan_arcsin_reject_unit(self):
        with pytest.raises(DomainError):
            arctan(from_int(1, C7))
        with pytest.raises(DomainError):
            arcsin(from_int(1, C7))

    def test_binomial_rejects_nonintegral_alpha(self):
        with pytest.raises(DomainError):
            binomial_series(from_rational(1, 7, C7), from_int(7, C7))

    def test_binomial_rejects_gaussian_alpha(self):
        # binom(i, 7) has valuation -1, so the (n+1)v(x) tail bound would
        # print a false digit: the exact sum's real part has 6 at 7^7, the
        # term loop's had 1
        for alpha in (QpiElement.i_unit(C7), QpiElement(from_rational(1, 2, C7))):
            with pytest.raises(DomainError):
                binomial_series(alpha, from_int(7, C7))

    def test_matrix_exp_rejects_unit_entry(self):
        z = QpiElement(from_int(7, C7))
        u = QpiElement(from_int(1, C7))
        with pytest.raises(DomainError):
            matrix_exp(Mat2(u, z, z, z))


class TestExp:
    def test_exp_zero_is_one(self):
        assert exp(PadicNumber.exact_zero(C7)).eq_to(from_int(1, C7))

    def test_exp_seven_first_digits(self):
        # 1 + 7 + 49/2 + ... in Z_7, leading unit digits frozen from the
        # exact rational partial sums
        got = exp(from_int(7, C7))
        assert got.valuation == 0
        assert got.unit_digits()[:4] == [1, 1, 4, 2]

    def test_exp_matches_rational_partial_sums(self):
        got = exp(from_int(7, C7))
        want = series_partial_sum("exp", GaussianRational(7), 40).re
        assert got.eq_to(frac_to_padic(want, C7))

    def test_exp_times_exp_of_minus_is_one(self):
        rng = random.Random(1001)
        one = from_int(1, C7)
        for _ in range(25):
            x = sample_disk(rng, C7)
            assert (exp(x) * exp(-x)).eq_to(one)

    def test_exp_additivity_seeded(self):
        rng = random.Random(1002)
        for ctx in (C3, C7, C11):
            for _ in range(20):
                x, y = sample_disk(rng, ctx), sample_disk(rng, ctx)
                assert exp(x + y).eq_to(exp(x) * exp(y))

    @settings(max_examples=40, deadline=None)
    @given(
        v=st.integers(1, 3),
        ds=st.lists(st.integers(0, 6), min_size=1, max_size=10),
        w=st.integers(1, 3),
        es=st.lists(st.integers(0, 6), min_size=1, max_size=10),
    )
    def test_exp_additivity(self, v, ds, w, es):
        ds[0] = ds[0] or 1
        es[0] = es[0] or 1
        x = PadicNumber.from_digits(C7, v, ds, m=v + C7.precision)
        y = PadicNumber.from_digits(C7, w, es, m=w + C7.precision)
        assert exp(x + y).eq_to(exp(x) * exp(y))

    def test_exp_on_extension(self):
        rng = random.Random(1003)
        for _ in range(10):
            z, w = sample_disk_qpi(rng, C7), sample_disk_qpi(rng, C7)
            assert exp(z + w).eq_to(exp(z) * exp(w))


class TestLog:
    def test_log_one_is_zero(self):
        assert log(from_int(1, C7)).is_zero

    def test_log_one_plus_seven_matches_oracle(self):
        got = log(from_int(8, C7))
        want = series_partial_sum("log1p", GaussianRational(7), 40).re
        assert rational_valuation(want, 7) == 1
        assert got.valuation == 1
        assert got.unit_digits()[:6] == [1, 3, 1, 6, 5, 2]
        assert got.eq_to(frac_to_padic(want, C7))

    def test_log_exp_seven(self):
        assert log(exp(from_int(7, C7))).eq_to(from_int(7, C7))

    def test_log_exp_roundtrip(self):
        rng = random.Random(1010)
        for ctx in (C3, C7, C11):
            for _ in range(15):
                x = sample_disk(rng, ctx)
                assert log(exp(x)).eq_to(x)

    def test_exp_log_roundtrip(self):
        rng = random.Random(1011)
        one = from_int(1, C7)
        for _ in range(15):
            y = one + sample_disk(rng, C7)
            assert exp(log(y)).eq_to(y)

    def test_log_turns_products_into_sums(self):
        rng = random.Random(1012)
        one = from_int(1, C7)
        for _ in range(15):
            a = one + sample_disk(rng, C7)
            b = one + sample_disk(rng, C7)
            assert log(a * b).eq_to(log(a) + log(b))


class TestTrig:
    def test_values_at_zero(self):
        z = PadicNumber.exact_zero(C7)
        s, c, t = sin_cos_tan(z)
        assert s.is_zero and t.is_zero
        assert c.eq_to(from_int(1, C7))

    def test_sin_cos_seven_digits(self):
        s, c, _ = sin_cos_tan(from_int(7, C7))
        assert s.valuation == 1
        assert s.unit_digits()[:6] == [1, 0, 1, 1, 2, 6]
        assert c.valuation == 0
        assert c.unit_digits()[:6] == [1, 0, 3, 3, 1, 3]

    def test_sin_cos_match_oracle(self):
        s, c, t = sin_cos_tan(from_int(7, C7))
        ws = series_partial_sum("sin", GaussianRational(7), 25).re
        wc = series_partial_sum("cos", GaussianRational(7), 25).re
        assert s.eq_to(frac_to_padic(ws, C7))
        assert c.eq_to(frac_to_padic(wc, C7))
        assert t.eq_to(frac_to_padic(ws / wc, C7))

    def test_pythagoras(self):
        rng = random.Random(1020)
        one = from_int(1, C7)
        for _ in range(20):
            s, c, _ = sin_cos_tan(sample_disk(rng, C7))
            assert (s * s + c * c).eq_to(one)

    def test_sin_preserves_absolute_value(self):
        rng = random.Random(1021)
        for ctx in (C3, C7, C11):
            for _ in range(15):
                x = sample_disk(rng, ctx)
                assert sin(x).valuation == x.valuation
                assert cos(x).valuation == 0

    def test_addition_formulas(self):
        rng = random.Random(1022)
        for _ in range(15):
            x, y = sample_disk(rng, C7), sample_disk(rng, C7)
            sx, cx, _ = sin_cos_tan(x)
            sy, cy, _ = sin_cos_tan(y)
            sxy, cxy, _ = sin_cos_tan(x + y)
            assert sxy.eq_to(sx * cy + cx * sy)
            assert cxy.eq_to(cx * cy - sx * sy)

    @settings(max_examples=40, deadline=None)
    @given(
        v=st.integers(1, 3),
        ds=st.lists(st.integers(0, 6), min_size=1, max_size=8),
        w=st.integers(1, 3),
        es=st.lists(st.integers(0, 6), min_size=1, max_size=8),
    )
    def test_sin_is_an_isometry(self, v, ds, w, es):
        ds[0] = ds[0] or 1
        es[0] = es[0] or 1
        x = PadicNumber.from_digits(C7, v, ds, m=v + C7.precision)
        y = PadicNumber.from_digits(C7, w, es, m=w + C7.precision)
        d = x - y
        if d.is_zero:
            return
        assert (sin(x) - sin(y)).valuation == d.valuation
        # cos is 1-Lipschitz but contracts: |cos x - cos y| <= |x - y|
        cd = cos(x) - cos(y)
        assert cd.is_zero or cd.valuation >= d.valuation

    def test_euler_formula(self):
        rng = random.Random(1023)
        z = PadicNumber.exact_zero(C7)
        for _ in range(15):
            x = sample_disk(rng, C7)
            lhs = exp(QpiElement(z, x))
            s, c, _ = sin_cos_tan(x)
            assert lhs.eq_to(QpiElement(c, s))

    def test_tan_is_ratio(self):
        rng = random.Random(1024)
        for _ in range(10):
            x = sample_disk(rng, C7)
            s, c, t = sin_cos_tan(x)
            assert (t * c).eq_to(s)
            assert tan(x).eq_to(t)


class TestArcs:
    def test_at_zero(self):
        z = PadicNumber.exact_zero(C7)
        assert arctan(z).is_zero
        assert arcsin(z).is_zero

    def test_arctan_seven_matches_power_series(self):
        got = arctan(from_int(7, C7))
        assert isinstance(got, PadicNumber)
        want = series_partial_sum("arctan", GaussianRational(7), 25).re
        assert got.valuation == 1
        assert got.unit_digits()[:6] == [1, 0, 2, 2, 5, 2]
        assert got.eq_to(frac_to_padic(want, C7))

    def test_arctan_agrees_with_series_on_random_rationals(self):
        rng = random.Random(1030)
        for _ in range(10):
            num = 7 * rng.randint(1, 400)
            den = rng.randint(1, 400)
            while den % 7 == 0 or num // 7 % 7 == 0:
                num, den = 7 * rng.randint(1, 400), rng.randint(1, 400)
            got = arctan(from_rational(num, den, C7))
            want = series_partial_sum("arctan", GaussianRational(Fraction(num, den)), 30).re
            assert got.eq_to(frac_to_padic(want, C7))

    def test_sin_arcsin_roundtrip(self):
        rng = random.Random(1031)
        for _ in range(15):
            x = sample_disk(rng, C7)
            assert sin(arcsin(x)).eq_to(x)

    def test_arcsin_sin_roundtrip(self):
        rng = random.Random(1032)
        for _ in range(10):
            x = sample_disk(rng, C7)
            assert arcsin(sin(x)).eq_to(x)

    def test_arctan_tan_roundtrip(self):
        rng = random.Random(1033)
        for _ in range(10):
            x = sample_disk(rng, C7)
            assert arctan(tan(x)).eq_to(x)

    def test_arcs_on_extension_elements(self):
        rng = random.Random(1034)
        for _ in range(8):
            z = sample_disk_qpi(rng, C7)
            assert sin(arcsin(z)).eq_to(z)
            got = arctan(z)
            assert isinstance(got, QpiElement)


class TestBinomial:
    def test_at_zero(self):
        alpha = from_rational(1, 2, C7)
        got = binomial_series(alpha, PadicNumber.exact_zero(C7))
        assert got.eq_to(from_int(1, C7))

    def test_integer_exponent_terminates_exactly(self):
        rng = random.Random(1040)
        two = from_int(2, C7)
        one = from_int(1, C7)
        for _ in range(10):
            x = sample_disk(rng, C7)
            want = one + two * x + x * x
            assert binomial_series(two, x).eq_to(want)

    def test_half_exponent_squares_back(self):
        x = from_int(7, C7)
        r = binomial_series(from_rational(1, 2, C7), x)
        assert (r * r).eq_to(from_int(8, C7))
        assert r.leading_digit == 1  # canonical branch: sqrt(1+x) = 1 + ...

    def test_matches_oracle_partial_sums(self):
        got = binomial_series(from_rational(1, 2, C7), from_int(7, C7))
        want = series_partial_sum("binomial", GaussianRational(7), 40, alpha=Fraction(1, 2)).re
        assert got.eq_to(frac_to_padic(want, C7))

    def test_exponent_addition(self):
        # (1+x)^a (1+x)^b = (1+x)^(a+b)
        rng = random.Random(1041)
        a = from_rational(1, 2, C7)
        b = from_rational(1, 3, C7)
        for _ in range(8):
            x = sample_disk(rng, C7)
            lhs = binomial_series(a, x) * binomial_series(b, x)
            rhs = binomial_series(a + b, x)
            assert lhs.eq_to(rhs)


class TestMatrixExp:
    def test_zero_matrix(self):
        got = matrix_exp(Mat2.zero(C7))
        assert got.eq_to(Mat2.identity(C7))

    def test_diagonal_case_reduces_to_scalars(self):
        ia = QpiElement.i_unit(C7) * from_int(7, C7)
        got = matrix_exp(Mat2.diag(ia, -ia))
        want = Mat2.diag(exp(ia), exp(-ia))
        assert got.eq_to(want)
        assert got.m12.is_zero and got.m21.is_zero

    def test_rotation_generator_against_matrix_oracle(self):
        # X = [[0, beta], [-conj(beta), 0]] with beta = 7i
        z = QpiElement.zero(C7)
        beta = QpiElement(PadicNumber.exact_zero(C7), from_int(7, C7))
        X = Mat2(z, beta, -beta.conj(), z)
        got = matrix_exp(X)
        w = gmat_exp_partial(gmat(0, GaussianRational(0, 7), GaussianRational(0, 7), 0), 40)
        want = Mat2(*(to_kernel(g, C7, True) for g in w))
        assert got.eq_to(want)
        assert got.det().eq_to(QpiElement.one(C7))

    def test_inverse_by_negation(self):
        rng = random.Random(1050)
        for _ in range(8):
            X = Mat2(*(sample_disk_qpi(rng, C7) for _ in range(4)))
            E = matrix_exp(X)
            assert (E * matrix_exp(-X)).eq_to(Mat2.identity(C7))

    def test_det_is_exp_of_trace(self):
        rng = random.Random(1051)
        for _ in range(8):
            X = Mat2(*(sample_disk_qpi(rng, C7) for _ in range(4)))
            assert matrix_exp(X).det().eq_to(exp(X.trace()))


class TestOracleAgreementBulk:
    def test_all_series_on_random_rationals(self):
        rng = random.Random(1060)
        for ctx in (C7, C11):
            p = ctx.p
            for _ in range(12):
                num = p * rng.randint(1, 300)
                den = rng.randint(1, 300)
                if den % p == 0:
                    den += 1
                q = Fraction(num, den)
                x = frac_to_padic(q, ctx)
                g = GaussianRational(q)
                assert exp(x).eq_to(frac_to_padic(series_partial_sum("exp", g, 40).re, ctx))
                assert sin(x).eq_to(frac_to_padic(series_partial_sum("sin", g, 25).re, ctx))
                assert cos(x).eq_to(frac_to_padic(series_partial_sum("cos", g, 25).re, ctx))
                one_plus = from_int(1, ctx) + x
                assert log(one_plus).eq_to(
                    frac_to_padic(series_partial_sum("log1p", g, 45).re, ctx)
                )


# ---- digit-for-digit agreement with the exact partial sums ----

ORACLE_PRIMES = (3, 7, 11)
ORACLE_PRECISIONS = (1, 4, 16, 32)
BINOMIAL_ALPHAS = (Fraction(1, 2), Fraction(-3), Fraction(2), Fraction(-5, 7))


def rand_disk_rational(rng, p, gaussian):
    """A Gaussian rational whose nonzero parts are p^e * num/den, e in [1, 3];
    the imaginary part is 0 unless `gaussian`, and sometimes 0 even then."""

    def part():
        num = rng.choice([-1, 1]) * rng.choice([k for k in range(1, 60) if k % p])
        den = rng.choice([k for k in range(1, 60) if k % p])
        return Fraction(num, den) * p ** rng.randint(1, 3)

    im = part() if gaussian and rng.random() < 0.85 else Fraction(0)
    return GaussianRational(part(), im)


def to_kernel(g, ctx, gaussian):
    re = frac_to_padic(g.re, ctx)
    return QpiElement(re, frac_to_padic(g.im, ctx)) if gaussian else re


def assert_digits_match(got, want, p, where):
    """Every digit `got` claims, up to its m, is the exact rational's digit."""
    parts = (got.re, got.im) if isinstance(got, QpiElement) else (got,)
    for a, q in zip(parts, (want.re, want.im)):
        if a.is_exact_zero:
            assert q == 0, where
        elif a.is_zero:
            assert q == 0 or rational_valuation(q, p) >= a.m, where
        else:
            assert q != 0 and rational_valuation(q, p) == a.v, where
            digits = rational_to_padic_digits(q, p, a.r)
            assert digits + [0] * (a.r - len(digits)) == a.unit_digits(), where


def oracle_grid(seed, p, n):
    """Eight real and eight Gaussian points, alternating."""
    rng = random.Random(seed * 1000 + p * 100 + n)
    for k in range(16):
        gaussian = k % 2 == 1
        yield rand_disk_rational(rng, p, gaussian), gaussian


class TestOracleDigits:
    @pytest.mark.parametrize("n", ORACLE_PRECISIONS)
    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_tan_against_sin_over_cos(self, p, n):
        ctx = PrimeContext(p, n)
        terms = 2 * n + 12
        for g, gaussian in oracle_grid(1070, p, n):
            want = series_partial_sum("sin", g, terms) / series_partial_sum("cos", g, terms)
            got = tan(to_kernel(g, ctx, gaussian))
            assert_digits_match(got, want, p, f"tan({g}) at p={p}, N={n}: {got}")

    @pytest.mark.parametrize(
        "alpha, p",
        [(a, p) for a in BINOMIAL_ALPHAS for p in ORACLE_PRIMES if a.denominator % p],
    )
    @pytest.mark.parametrize("n", ORACLE_PRECISIONS)
    def test_binomial_against_partial_sum(self, n, alpha, p):
        ctx = PrimeContext(p, n)
        terms = 2 * n + 12
        for g, gaussian in oracle_grid(1071, p, n):
            want = series_partial_sum("binomial", g, terms, alpha=alpha)
            got = binomial_series(frac_to_padic(alpha, ctx), to_kernel(g, ctx, gaussian))
            where = f"binomial({alpha}, {g}) at p={p}, N={n}: {got}"
            assert_digits_match(got, want, p, where)

    @pytest.mark.parametrize("n", (1, 2, 4, 8, 16))
    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_matrix_exp_against_partial_sum(self, p, n):
        # every component reported as nonzero or as an inexact zero; the
        # exact zeros are pinned by the xfail below.  The kernel caps every m
        # at its tail bound, below N + 3 here, and the terms after 2N + 12
        # have valuation above N + 6, so the partial sum's digits are final
        ctx = PrimeContext(p, n)
        rng = random.Random(1072 * 1000 + p * 100 + n)
        for _ in range(8):
            entries = [rand_disk_rational(rng, p, True) for _ in range(4)]
            got = matrix_exp(Mat2(*(to_kernel(g, ctx, True) for g in entries)))
            want = gmat_exp_partial(gmat(*entries), 2 * n + 12)
            where = f"exp({entries}) at p={p}, N={n}: {got}"
            for e, w in zip(got.entries(), want):
                for c, q in ((e.re, w.re), (e.im, w.im)):
                    if not c.is_exact_zero:
                        assert_digits_match(c, GaussianRational(q), p, where)

    @pytest.mark.xfail(strict=True, reason="matrix_exp stops on an exact-zero component "
                       "that later terms would fill; see ROADMAP")
    def test_matrix_exp_reports_no_false_exact_zero(self):
        ctx = PrimeContext(3, 1)
        entries = [GaussianRational(3), GaussianRational(3, 3), GaussianRational(6),
                   GaussianRational(-3)]
        got = matrix_exp(Mat2(*(to_kernel(g, ctx, True) for g in entries)))
        want = gmat_exp_partial(gmat(*entries), 14)
        for name, e, w in zip(("m11", "m12", "m21", "m22"), got.entries(), want):
            assert_digits_match(e, w, 3, f"{name} = {e}")
