"""Analytic functions: convergence guards, oracle digit agreement, identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_reference import gmat, gmat_exp_partial
from padic_digits import from_digits
from padicloop import INFINITE, PadicNumber, PrimeContext, clifford, from_int, from_rational, sqrt
from padicloop.analytic import (
    _require,
    arcsin,
    arctan,
    binomial_series,
    cos,
    exp,
    log,
    sin,
    sin_cos_tan,
    tan,
)
from padicloop.checks import _rand_padic
from padicloop.clifford import (
    ProjectiveRotation,
    exp_horizontal,
    exp_vertical,
    rotation_compose,
)
from padicloop.errors import DomainError, NonSquare
from padicloop.oracles import (
    GaussianRational,
    rational_to_padic_digits,
    rational_valuation,
    series_partial_sum,
)
from padicloop.qpi import QpiElement

C7 = PrimeContext(7, 24)
C3 = PrimeContext(3, 24)
C11 = PrimeContext(11, 20)
IDENTITY = ProjectiveRotation(QpiElement.one(C7), QpiElement.zero(C7))


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
        x = from_digits(C7, v, ds, m=v + C7.precision)
        y = from_digits(C7, w, es, m=w + C7.precision)
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
        x = from_digits(C7, v, ds, m=v + C7.precision)
        y = from_digits(C7, w, es, m=w + C7.precision)
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
        assert r.unit % 7 == 1  # canonical branch: sqrt(1+x) = 1 + ...

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


class TestGeneratorExp:
    """exp_horizontal and exp_vertical are the exponentials of the sphere's
    generators [[0, beta], [-conj(beta), 0]] and diag(ia, -ia), in closed
    form; the exact partial sums of the matrix series check them."""

    def test_zero_matrix(self):
        z, z5 = PadicNumber.exact_zero(C7), PadicNumber.zero_mod(C7, 5)
        for beta in (QpiElement(z, z), QpiElement(z5, z5), QpiElement(z, z5)):
            assert exp_horizontal(beta).eq_to(IDENTITY)

    def test_diagonal_case_reduces_to_scalars(self):
        R = exp_vertical(from_int(7, C7))
        ia = GaussianRational(0, 7)
        E = gmat_exp_partial(gmat(ia, 0, 0, -ia), 40)
        assert R.beta.is_exact_zero and E[1].is_zero
        assert_digits_match(R.alpha, E[0] / E[0].re, 7, f"exp_vertical(7) = {R}")

    def test_rotation_generator_against_matrix_oracle(self):
        # X = [[0, beta], [-conj(beta), 0]] with beta = 7i
        beta = GaussianRational(0, 7)
        R = exp_horizontal(to_kernel(beta, C7, True))
        E = gmat_exp_partial(gmat(0, beta, -beta.conj(), 0), 40)
        assert_digits_match(R.beta / R.alpha, E[1] / E[0], 7, f"exp_horizontal(7i) = {R}")

    def test_inverse_by_negation(self):
        rng = random.Random(1050)
        for _ in range(8):
            beta = sample_disk_qpi(rng, C7)
            R = rotation_compose(exp_horizontal(beta), exp_horizontal(-beta))
            assert R.eq_to(IDENTITY)


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
    def test_exp_horizontal_against_partial_sum(self, p, n, monkeypatch):
        # exp_horizontal's class (1, beta') against the exact partial sum E of
        # exp [[0, beta], [-conj(beta), 0]]: beta' = E12 / E11.  beta' has
        # m <= N + 3, and the terms after 2N + 12 have valuation above N + 6,
        # so the partial sum's digits are final.  A part known to O(p^m) is
        # checked at a value of its disk with digits above p^m, since
        # beta's digits must hold for every such value
        ctx = PrimeContext(p, n)
        rng = random.Random(1072 * 1000 + p * 100 + n)
        z, z_n = PadicNumber.exact_zero(ctx), PadicNumber.zero_mod(ctx, n + 1)
        betas = [QpiElement(z, z), QpiElement(z_n, z_n), QpiElement(z_n, z)]
        for k in range(24):
            g = rand_disk_rational(rng, p, k % 4 != 0)
            if k % 4 == 1:
                g = GaussianRational(0, g.re)
            while k == 2 and _is_residue(g.norm(), p):
                # y = sqrt(N(beta)) is then imaginary
                g = rand_disk_rational(rng, p, True)
            beta = to_kernel(g, ctx, True)
            if k % 4 == 3:
                beta = QpiElement(beta.re.truncate(beta.re.v + rng.randint(1, n)), beta.im)
            betas.append(beta)
        for v in (1, 2):
            # p^v u beside a zero known only to O(p^m), m <= v, both ways round
            u = PadicNumber.make(ctx, v, rng.randrange(1, p), v + n)
            for m in range(1, v + 1):
                betas += [QpiElement(u, PadicNumber.zero_mod(ctx, m)),
                          QpiElement(PadicNumber.zero_mod(ctx, m), u)]
        raised = []

        def counted(a):
            try:
                root = sqrt(a)
            except NonSquare:
                raised.append(True)
                raise
            raised.append(False)
            return root

        monkeypatch.setattr(clifford, "sqrt", counted)
        for beta in betas:
            g = GaussianRational(_value_in_disk(beta.re, p, rng), _value_in_disk(beta.im, p, rng))
            R = exp_horizontal(beta)
            E = gmat_exp_partial(gmat(0, g, -g.conj(), 0), 2 * n + 12)
            where = f"exp_horizontal({beta}) at {g}, p={p}, N={n}: {R}"
            assert_digits_match(R.beta / R.alpha, E[1] / E[0], p, where)
        # each NonSquare is followed by the root of -N(beta), so y was real
        # at the calls left over: both branches were taken
        assert 0 < raised.count(True) < raised.count(False)

    def test_exp_horizontal_keeps_the_precise_part(self):
        # N(beta) is known to O(7^8) only, but tan(y)/y - 1 = O(N(beta)) is
        # known to O(7^8) too, so the part known to O(7^11) keeps all of it
        ctx = PrimeContext(7, 8)
        beta = QpiElement(PadicNumber.make(ctx, 3, 17, 5), PadicNumber.make(ctx, 3, 524233, 11))
        R = exp_horizontal(beta)
        assert (R.beta.re.m, R.beta.im.m) == (5, 11)


def _value_in_disk(a, p, rng):
    """A rational in a's disk: its representative, plus a random multiple of
    p^m when a is known only to O(p^m)."""
    if a.is_exact_zero:
        return Fraction(0)
    rep = 0 if a.is_zero else Fraction(a.unit) * Fraction(p) ** a.v
    return rep + rng.randrange(p**3) * Fraction(p) ** a.m


def _is_residue(q, p):
    """Whether the unit part of the nonzero rational q is a square mod p."""
    u = q / Fraction(p) ** rational_valuation(q, p)
    return pow(u.numerator * pow(u.denominator, -1, p) % p, (p - 1) // 2, p) == 1
