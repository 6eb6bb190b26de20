"""The verifiers must earn their own trust before anything leans on them."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from matrix_reference import gmat, gmat_exp_partial, gmat_identity, gmat_mul
from padicloop.errors import NearPole, ZeroDenominator
from padicloop.oracles import (
    GaussianRational,
    complex_float_loop,
    gaussian_loop_add,
    rational_to_padic_digits,
    rational_valuation,
    series_partial_sum,
    sqrt_digits,
)


class TestRationalDigits:
    def test_one(self):
        assert rational_to_padic_digits(1, 7, 3) == [1]

    def test_minus_one(self):
        assert rational_to_padic_digits(-1, 7, 3) == [6, 6, 6]

    def test_one_third(self):
        digits = rational_to_padic_digits(Fraction(1, 3), 7, 3)
        value = sum(d * 7**i for i, d in enumerate(digits))
        assert (3 * value) % 7**3 == 1

    def test_remultiplication_random(self):
        rng = random.Random(8)
        for _ in range(300):
            num = rng.randint(-10**6, 10**6) or 1
            den = rng.randint(1, 10**6)
            q = Fraction(num, den)
            for p in (3, 7, 11):
                m = 6
                digits = rational_to_padic_digits(q, p, m)
                if not digits:
                    assert q == 0
                    continue
                v = rational_valuation(q, p)
                unit = q / Fraction(p) ** v
                value = sum(d * p**i for i, d in enumerate(digits))
                # interpreting the digits back and multiplying by the
                # denominator recovers the numerator mod p^m
                assert (value * unit.denominator - unit.numerator) % p**m == 0

    def test_valuation(self):
        assert rational_valuation(Fraction(98), 7) == 2
        assert rational_valuation(Fraction(1, 7), 7) == -1
        assert rational_valuation(Fraction(5, 3), 7) == 0


class TestSqrtDigits:
    def test_two_mod_seven(self):
        assert sqrt_digits(2, 7, 3) == [3, 1, 2]

    def test_canonical_branch(self):
        for p in (3, 7, 11, 19, 23):
            for u in range(1, p):
                ds = sqrt_digits(u, p, 5)
                if ds is None:
                    assert pow(u, (p - 1) // 2, p) == p - 1
                    continue
                assert 1 <= ds[0] <= (p - 1) // 2
                x = sum(d * p**i for i, d in enumerate(ds))
                assert (x * x - u) % p**5 == 0

    def test_nonresidue(self):
        assert sqrt_digits(3, 7, 3) is None


class TestGaussianRational:
    def test_field_ops(self):
        i = GaussianRational(0, 1)
        assert i * i == GaussianRational(-1, 0)
        assert GaussianRational(1, 1) / GaussianRational(1, -1) == i
        assert (GaussianRational(3, 4) * GaussianRational(3, -4)).re == 25

    def test_division_by_zero(self):
        with pytest.raises(ZeroDenominator):
            GaussianRational(1) / GaussianRational(0)

    def test_loop_add_identity(self):
        b = GaussianRational(Fraction(1, 7), Fraction(2, 7))
        assert gaussian_loop_add(GaussianRational(0), b) == b

    def test_loop_add_seven_case(self):
        got = gaussian_loop_add(GaussianRational(7), GaussianRational(0, 7))
        # 7(1+i)/(1-49i) = 7(1+i)(1+49i)/2402 = (-168+175i)/1201
        assert got == GaussianRational(Fraction(-168, 1201), Fraction(175, 1201))

    def test_association_orders_differ(self):
        a, b, c = GaussianRational(7), GaussianRational(0, 7), GaussianRational(7)
        left = gaussian_loop_add(gaussian_loop_add(a, b), c)
        right = gaussian_loop_add(a, gaussian_loop_add(b, c))
        assert left != right


class TestSeries:
    def test_exp_trivial(self):
        assert series_partial_sum("exp", GaussianRational(0), 5) == GaussianRational(1)

    def test_sin_first_term(self):
        x = GaussianRational(Fraction(1, 3))
        assert series_partial_sum("sin", x, 1) == x

    def test_exp_stabilizes_mod_p4(self):
        # terms n >= 5 of exp(7) all have v_7 >= 5 - v_7(n!) >= 4
        s5 = series_partial_sum("exp", GaussianRational(7), 5)
        s9 = series_partial_sum("exp", GaussianRational(7), 9)
        d5 = rational_to_padic_digits(s5.re, 7, 4)
        d9 = rational_to_padic_digits(s9.re, 7, 4)
        assert d5[:4] == d9[:4]

    def test_exp_known_partial(self):
        s = series_partial_sum("exp", GaussianRational(1), 4)
        assert s.re == Fraction(1) + 1 + Fraction(1, 2) + Fraction(1, 6)

    def test_log1p_alternates(self):
        s = series_partial_sum("log1p", GaussianRational(Fraction(1, 2)), 3)
        assert s.re == Fraction(1, 2) - Fraction(1, 8) + Fraction(1, 24)

    def test_cos_terms(self):
        s = series_partial_sum("cos", GaussianRational(1), 3)
        assert s.re == 1 - Fraction(1, 2) + Fraction(1, 24)

    def test_arctan_terms(self):
        s = series_partial_sum("arctan", GaussianRational(Fraction(1, 2)), 2)
        assert s.re == Fraction(1, 2) - Fraction(1, 24)

    def test_binomial_terminates_for_integer_alpha(self):
        x = GaussianRational(Fraction(1, 5))
        s = series_partial_sum("binomial", x, 10, alpha=2)
        assert s == GaussianRational(1) + x * 2 + x * x

    def test_arcsin_coefficients(self):
        # arcsin x = x + x^3/6 + 3x^5/40 + 5x^7/112 + 35x^9/1152 + ...
        q = Fraction(2, 3)
        s = series_partial_sum("arcsin", GaussianRational(q), 5)
        assert s == GaussianRational(
            q + q**3 / 6 + 3 * q**5 / 40 + 5 * q**7 / 112 + 35 * q**9 / 1152
        )

    def test_unknown_series_and_missing_alpha(self):
        with pytest.raises(ValueError):
            series_partial_sum("tan", GaussianRational(1), 3)
        with pytest.raises(ValueError):
            series_partial_sum("binomial", GaussianRational(1), 3)

    def test_binomial_half_squares_back(self):
        x = GaussianRational(7)
        s = series_partial_sum("binomial", x, 12, alpha=Fraction(1, 2))
        # (partial sum)^2 = 1 + 7 (mod 7^12): tail terms have v >= 12
        err = s * s - (GaussianRational(1) + x)
        assert rational_valuation(err.re, 7) >= 12


def reference_terms(series_id, x, count, alpha=None):
    """The first `count` summands of each series, term by term in Fractions
    from the closed-form coefficients."""
    power, have = GaussianRational(1), 0
    for n in range(count):
        if series_id == "exp":
            c, e = Fraction(1, factorial(n)), n
        elif series_id == "log1p":
            c, e = Fraction((-1) ** n, n + 1), n + 1
        elif series_id == "sin":
            c, e = Fraction((-1) ** n, factorial(2 * n + 1)), 2 * n + 1
        elif series_id == "cos":
            c, e = Fraction((-1) ** n, factorial(2 * n)), 2 * n
        elif series_id == "arctan":
            c, e = Fraction((-1) ** n, 2 * n + 1), 2 * n + 1
        elif series_id == "arcsin":
            c, e = Fraction(comb(2 * n, n), 4**n * (2 * n + 1)), 2 * n + 1
        else:
            c = Fraction(1, factorial(n))
            for j in range(n):
                c *= alpha - j
            e = n
        while have < e:
            power, have = power * x, have + 1
        yield power * c


SERIES_IDS = ("exp", "log1p", "sin", "cos", "arctan", "arcsin")
SERIES_CASES = {sid: (sid, None) for sid in SERIES_IDS}
SERIES_CASES.update({f"binomial({a})": ("binomial", Fraction(a)) for a in ("1/2", "-3", "2")})
POINTS = {
    "real": GaussianRational(Fraction(21, 40)),
    "gaussian": GaussianRational(Fraction(-7, 12), Fraction(49, 5)),
    "imaginary": GaussianRational(0, Fraction(3, 7)),
    "zero": GaussianRational(0),
}


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_partial_sums_match_term_by_term_reference(case, point):
    series_id, alpha = SERIES_CASES[case]
    x = POINTS[point]
    total = GaussianRational(0)
    for terms, term in enumerate(reference_terms(series_id, x, 80, alpha), start=1):
        total = total + term
        assert series_partial_sum(series_id, x, terms, alpha=alpha) == total, terms


class TestMatrixOracle:
    """The Gaussian-rational 2x2 matrices of tests/matrix_reference.py."""

    def test_identity(self):
        x = gmat(0, 0, 0, 0)
        assert gmat_exp_partial(x, 6) == gmat_identity()

    def test_mul(self):
        a = gmat(1, 2, 3, 4)
        b = gmat(5, 6, 7, 8)
        assert gmat_mul(a, b) == gmat(19, 22, 43, 50)

    def test_exp_det_is_exp_trace_to_order(self):
        x = gmat(Fraction(7), 0, 0, Fraction(7))
        e = gmat_exp_partial(x, 10)
        det = e[0] * e[3] - e[1] * e[2]
        tr_exp = series_partial_sum("exp", GaussianRational(14), 10)
        # tails start at term n=10 with v_7 = 10 - v_7(10!) = 9
        assert rational_valuation((det - tr_exp).re, 7) >= 8


class TestFloatLoop:
    def test_identity(self):
        assert complex_float_loop(0, 0.3 + 0.4j) == 0.3 + 0.4j

    def test_left_inverse(self):
        a, b = 0.3, 0.4j
        ab = complex_float_loop(a, b)
        assert abs(complex_float_loop(-a, ab) - b) < 1e-12

    def test_two_path(self):
        a, b = 0.3, 0.4j
        got = complex_float_loop(a, b)
        # second path: Mobius action of [[1, a], [-conj(a), 1]] on b
        num = b + a
        den = -a.conjugate() * b + 1
        assert abs(got - num / den) < 1e-15

    def test_near_pole(self):
        with pytest.raises(NearPole):
            complex_float_loop(0.9999999999999, 0.9999999999999)
