"""Pauli immersion, reflections, projective rotations, charts, polar cup."""

import random

import pytest

from matrix_reference import gmat, gmat_mul
from padicloop import PadicNumber, PrimeContext, from_int, from_rational
from padicloop.analytic import exp, tan
from padicloop.checks import _rand_padic
from padicloop.clifford import (
    ProjectiveRotation,
    SpherePoint,
    Vector3,
    exp_horizontal,
    exp_vertical,
    iota,
    lift,
    mobius_action,
    polar_point,
    quadratic_form,
    reflect,
    rotation_act,
    rotation_compose,
    sigma_z,
    stereo,
)
from padicloop.errors import (
    DomainError,
    IsotropicAxis,
    OutsideDisk,
    PoleHit,
)
from padicloop.loop import sphere_loop_add
from padicloop.matrix import Mat2
from padicloop.oracles import GaussianRational
from padicloop.qpi import QpiElement
from qpi_reference import (
    norm_route_division,
    norm_route_lift,
    norm_route_sphere_loop_add,
    norm_route_stereo,
)

C7 = PrimeContext(7, 24)
C11 = PrimeContext(11, 20)
IDENTITY = ProjectiveRotation(QpiElement.one(C7), QpiElement.zero(C7))


def fields(parts):
    return [(x.kind, x.v, x.unit, x.r, x.m) for x in parts]


def rand_padic(rng, ctx, vmin=0, vmax=2):
    return _rand_padic(rng, ctx, vmin, vmax)


def rand_vector(rng, ctx, vmin=0, vmax=2):
    return Vector3(*(rand_padic(rng, ctx, vmin, vmax) for _ in range(3)))


def rand_axis(rng, ctx):
    # non-isotropic by rejection; isotropic hits are rare but possible
    while True:
        u = rand_vector(rng, ctx)
        if not quadratic_form(u, u).is_zero:
            return u


def rand_disk_qpi(rng, ctx, vmin=1, vmax=3):
    return QpiElement(rand_padic(rng, ctx, vmin, vmax), rand_padic(rng, ctx, vmin, vmax))


def north_chart(P):
    """(a + ib)/(1 + c) on the sphere off c = -1: the cup chart's formula
    without the cup bound, so that it also reads the points a rotation moves
    out of the cup."""
    vec = P.vec
    den = from_int(1, vec.ctx) + vec.c
    if den.is_zero:
        raise PoleHit("chart undefined at c = -1")
    return QpiElement(vec.a, vec.b) / den


def basis(ctx):
    one = from_int(1, ctx)
    z = PadicNumber.exact_zero(ctx)
    return (
        Vector3(one, z, z),
        Vector3(z, one, z),
        Vector3(z, z, one),
    )


def int_vector(rng, bound=200):
    return tuple(rng.randint(-bound, bound) for _ in range(3))


def embed_int_vector(t, ctx):
    return Vector3(*(from_int(n, ctx) for n in t))


def isotropic_int_triple(p, digits):
    """x^2 + y^2 + 1 = 0 (mod p^digits) by a Newton lift of x; exists for
    every odd p since every residue is a sum of two squares mod p."""
    x0 = y0 = None
    for x in range(1, p):
        for y in range(p):
            if (x * x + y * y + 1) % p == 0:
                x0, y0 = x, y
                break
        if x0 is not None:
            break
    x, pk = x0, p
    for _ in range(digits - 1):
        pk *= p
        f = (x * x + y0 * y0 + 1) % pk
        x = (x - f * pow(2 * x, -1, pk)) % pk
    return x, y0


class TestIota:
    def test_sigma_z_matrix(self):
        e1, e2, e3 = basis(C7)
        M = iota(e3)
        one = QpiElement.one(C7)
        assert M.m11.eq_to(one) and M.m22.eq_to(-one)
        assert M.m12.is_zero and M.m21.is_zero

    def test_basis_vectors_square_to_identity(self):
        for e in basis(C7):
            sq = iota(e) * iota(e)
            assert sq.eq_to(Mat2.identity(C7))

    def test_square_is_quadratic_form_times_identity(self):
        rng = random.Random(2001)
        for ctx in (C7, C11):
            for _ in range(15):
                v = rand_vector(rng, ctx)
                sq = iota(v) * iota(v)
                q = QpiElement(quadratic_form(v, v))
                assert sq.eq_to(Mat2.identity(ctx).scale(q))
                assert iota(v).det().eq_to(-q)

    def test_square_against_exact_matrix_oracle(self):
        rng = random.Random(2002)
        for _ in range(15):
            a, b, c = int_vector(rng)
            M = gmat(
                GaussianRational(c),
                GaussianRational(a, b),
                GaussianRational(a, -b),
                GaussianRational(-c),
            )
            want = Mat2(*(
                QpiElement.from_rationals(
                    g.re.numerator, g.re.denominator, g.im.numerator, g.im.denominator, C7
                )
                for g in gmat_mul(M, M)
            ))
            v = embed_int_vector((a, b, c), C7)
            got = iota(v) * iota(v)
            assert got.eq_to(want)

    def test_roundtrip(self):
        rng = random.Random(2003)
        for _ in range(20):
            v = rand_vector(rng, C7)
            M = iota(v)
            # Pauli shape: real diagonal, zero trace, conjugate corners
            assert M.m11.im.is_zero and (M.m22 + M.m11).is_zero
            assert (M.m21 - M.m12.conj()).is_zero
            assert Vector3(M.m12.re, M.m12.im, M.m11.re).eq_to(v)

    def test_clifford_anticommutator(self):
        rng = random.Random(2004)
        for _ in range(15):
            u, v = rand_vector(rng, C7), rand_vector(rng, C7)
            lhs = iota(u) * iota(v) + iota(v) * iota(u)
            b = QpiElement(from_int(2, C7) * quadratic_form(u, v))
            assert lhs.eq_to(Mat2.identity(C7).scale(b))


class TestQuadraticForm:
    def test_basis_is_orthonormal(self):
        e1, e2, e3 = basis(C7)
        one = from_int(1, C7)
        assert quadratic_form(e1, e1).eq_to(one)
        assert quadratic_form(e1, e2).is_zero
        assert quadratic_form(e2, e3).is_zero

    def test_isotropic_vector_found_by_search(self):
        for ctx in (C7, C11):
            x, y = isotropic_int_triple(ctx.p, ctx.precision)
            u = Vector3(from_int(x, ctx), from_int(y, ctx), from_int(1, ctx))
            assert quadratic_form(u, u).is_zero


class TestReflect:
    def test_axis_maps_to_minus_itself(self):
        rng = random.Random(2010)
        for _ in range(10):
            u = rand_axis(rng, C7)
            assert reflect(u, u).eq_to(u.scale(from_int(-1, C7)))

    def test_coordinate_hyperplane(self):
        rng = random.Random(2011)
        _, _, e3 = basis(C7)
        v = rand_vector(rng, C7)
        got = reflect(e3, v)
        assert got.a.eq_to(v.a) and got.b.eq_to(v.b) and got.c.eq_to(-v.c)

    def test_involution(self):
        rng = random.Random(2012)
        for _ in range(10):
            u, v = rand_axis(rng, C7), rand_vector(rng, C7)
            assert reflect(u, reflect(u, v)).eq_to(v)

    def test_preserves_quadratic_form(self):
        rng = random.Random(2013)
        for ctx in (C7, C11):
            for _ in range(10):
                u, v = rand_axis(rng, ctx), rand_vector(rng, ctx)
                assert quadratic_form(reflect(u, v), reflect(u, v)).eq_to(
                    quadratic_form(v, v)
                )

    def test_rejects_isotropic_axis(self):
        x, y = isotropic_int_triple(7, C7.precision)
        u = Vector3(from_int(x, C7), from_int(y, C7), from_int(1, C7))
        with pytest.raises(IsotropicAxis):
            reflect(u, basis(C7)[0])

    def test_reflection_in_clifford_algebra(self):
        # iota(reflect(u, v)) = -iota(u) iota(v) iota(u)^{-1}
        rng = random.Random(2014)
        for _ in range(10):
            u, v = rand_axis(rng, C7), rand_vector(rng, C7)
            lhs = iota(reflect(u, v))
            rhs = -(iota(u) * iota(v) * iota(u).inverse())
            assert lhs.eq_to(rhs)


class TestSpherePoints:
    def test_sigma_z_is_cup_point(self):
        P = sigma_z(C7)
        assert stereo(P).is_zero
        assert (P.matrix * P.matrix).eq_to(Mat2.identity(C7))

    def test_cup_rejects_far_points(self):
        z = PadicNumber.exact_zero(C7)
        one = from_int(1, C7)
        # (1, 0, 0) is on the sphere but at distance 1 from the pole
        with pytest.raises(OutsideDisk):
            stereo(SpherePoint(Vector3(one, z, z)))

    def test_lifted_points_square_to_identity(self):
        rng = random.Random(2020)
        for _ in range(10):
            xi = rand_disk_qpi(rng, C7)
            P = lift(xi)
            assert (P.matrix * P.matrix).eq_to(Mat2.identity(C7))
            assert stereo(P).eq_to(xi)


class TestRotations:
    def test_identity_action(self):
        rng = random.Random(2030)
        R = IDENTITY
        for _ in range(5):
            P = lift(rand_disk_qpi(rng, C7))
            assert rotation_act(R, P).eq_to(P)

    def test_diagonal_rotation_fixes_pole(self):
        rng = random.Random(2031)
        for _ in range(5):
            alpha = rand_disk_qpi(rng, C7, vmin=0, vmax=0)
            R = ProjectiveRotation(alpha, QpiElement.zero(C7))
            assert rotation_act(R, sigma_z(C7)).eq_to(sigma_z(C7))

    def test_degenerate_pair_rejected(self):
        # alpha = 1, beta with beta conj(beta) = -1 kills the determinant
        x, y = isotropic_int_triple(7, C7.precision)
        beta = QpiElement(from_int(x, C7), from_int(y, C7))
        with pytest.raises(DomainError):
            ProjectiveRotation(QpiElement.one(C7), beta)

    def test_canonical_scaling_collapses_real_multiples(self):
        rng = random.Random(2032)
        for _ in range(10):
            alpha, beta = rand_disk_qpi(rng, C7, 0, 2), rand_disk_qpi(rng, C7, 0, 2)
            k = rand_padic(rng, C7, vmin=-2, vmax=2)
            try:
                R = ProjectiveRotation(alpha, beta)
                S = ProjectiveRotation(alpha * k, beta * k)
            except DomainError:
                continue
            assert R.eq_to(S)

    def test_canonical_pivot_is_literal_one(self):
        rng = random.Random(2033)
        for _ in range(10):
            alpha, beta = rand_disk_qpi(rng, C7, 0, 2), rand_disk_qpi(rng, C7, 0, 2)
            try:
                R = ProjectiveRotation(alpha, beta)
            except DomainError:
                continue
            comps = [R.alpha.re, R.alpha.im, R.beta.re, R.beta.im]
            assert any(c.valuation == 0 and c.digits() == [1] for c in comps)

    def test_scaled_representative_acts_identically(self):
        rng = random.Random(2034)
        for _ in range(8):
            alpha, beta = rand_disk_qpi(rng, C7, 0, 2), rand_disk_qpi(rng, C7, 1, 3)
            k = rand_padic(rng, C7, vmin=-1, vmax=1)
            try:
                R = ProjectiveRotation(alpha, beta)
                S = ProjectiveRotation(alpha * k, beta * k)
            except DomainError:
                continue
            P = lift(rand_disk_qpi(rng, C7))
            assert rotation_act(R, P).eq_to(rotation_act(S, P))
            xi = rand_disk_qpi(rng, C7)
            assert mobius_action(R, xi).eq_to(mobius_action(S, xi))

    def test_action_preserves_sphere_and_form(self):
        rng = random.Random(2035)
        one = from_int(1, C7)
        for _ in range(10):
            R = ProjectiveRotation(rand_disk_qpi(rng, C7, 0, 1), rand_disk_qpi(rng, C7, 0, 1))
            P = lift(rand_disk_qpi(rng, C7))
            Q = rotation_act(R, P)
            assert (Q.matrix * Q.matrix).eq_to(Mat2.identity(C7))
            assert quadratic_form(Q.vec, Q.vec).eq_to(one)

    def test_compose_matches_successive_actions(self):
        rng = random.Random(2036)
        for _ in range(8):
            R = ProjectiveRotation(rand_disk_qpi(rng, C7, 0, 1), rand_disk_qpi(rng, C7, 0, 1))
            S = ProjectiveRotation(rand_disk_qpi(rng, C7, 0, 1), rand_disk_qpi(rng, C7, 0, 1))
            P = lift(rand_disk_qpi(rng, C7))
            assert rotation_act(rotation_compose(R, S), P).eq_to(
                rotation_act(R, rotation_act(S, P))
            )

    def test_compose_agrees_with_matrix_product(self):
        rng = random.Random(2037)
        for _ in range(8):
            R = ProjectiveRotation(rand_disk_qpi(rng, C7, 0, 1), rand_disk_qpi(rng, C7, 0, 1))
            S = ProjectiveRotation(rand_disk_qpi(rng, C7, 0, 1), rand_disk_qpi(rng, C7, 0, 1))
            T = rotation_compose(R, S)
            M = R.matrix * S.matrix
            assert (M.m21 + M.m12.conj()).is_zero and (M.m22 - M.m11.conj()).is_zero
            assert T.eq_to(ProjectiveRotation(M.m11, M.m12))

    @pytest.mark.parametrize("p,prec", [(3, 2), (7, 24), (11, 5), (19, 16), (10007, 8)])
    def test_canonical_scaling_matches_norm_route(self, p, prec):
        # alpha and beta are divided by the real pivot through one inverse of
        # its unit; every field must be the norm route's, for every zero kind
        ctx = PrimeContext(p, prec)
        rng = random.Random(p * 1000 + prec)

        def part():
            kind = rng.randrange(4)
            if kind == 0:
                return PadicNumber.exact_zero(ctx, rng.choice((0, 1, prec, prec + 7)))
            if kind == 1:
                return PadicNumber.zero_mod(ctx, rng.randint(1, prec + 4))
            return rand_padic(rng, ctx, 0, 3).truncate(rng.randint(prec, prec + 4))

        built = 0
        for _ in range(60):
            alpha, beta = QpiElement(part(), part()), QpiElement(part(), part())
            try:
                R = ProjectiveRotation(alpha, beta)
            except DomainError:
                continue
            built += 1
            pivot = ProjectiveRotation._pivot(alpha, beta)
            want = [norm_route_division(z, pivot) for z in (alpha, beta)]
            assert fields((R.alpha.re, R.alpha.im, R.beta.re, R.beta.im)) == fields(
                (want[0].re, want[0].im, want[1].re, want[1].im)
            ), (alpha, beta)
        assert built >= 30

    def test_canonical_scaling_inverts_the_pivot_once(self, monkeypatch):
        calls = []
        inv_mod = PrimeContext.inv_mod

        def counted(ctx, u, k):
            calls.append(k)
            return inv_mod(ctx, u, k)

        ctx = PrimeContext(7, 64)
        alpha = QpiElement(from_rational(3, 5, ctx), from_rational(7, 11, ctx))
        beta = QpiElement(from_rational(14, 3, ctx), from_rational(49, 2, ctx))
        monkeypatch.setattr(PrimeContext, "inv_mod", counted)
        R = ProjectiveRotation(alpha, beta)
        assert len(calls) == 1
        monkeypatch.undo()
        pivot = ProjectiveRotation._pivot(alpha, beta)
        want = [norm_route_division(z, pivot) for z in (alpha, beta)]
        assert fields((R.alpha.re, R.alpha.im, R.beta.re, R.beta.im)) == fields(
            (want[0].re, want[0].im, want[1].re, want[1].im)
        )

    def test_double_reflection_is_clifford_conjugation(self):
        # Cartan-Dieudonne in the cup: reflecting twice acts like the
        # projective class of iota(u) iota(w)
        rng = random.Random(2038)
        for _ in range(8):
            u, w = rand_axis(rng, C7), rand_axis(rng, C7)
            R = ProjectiveRotation.from_clifford_product(u, w)
            P = lift(rand_disk_qpi(rng, C7))
            want = reflect(u, reflect(w, P.vec))
            assert rotation_act(R, P).vec.eq_to(want)


class TestMobius:
    def test_identity(self):
        rng = random.Random(2040)
        R = IDENTITY
        for _ in range(5):
            xi = rand_disk_qpi(rng, C7)
            assert mobius_action(R, xi).eq_to(xi)

    def test_diagonal_rotation_multiplies(self):
        rng = random.Random(2041)
        for _ in range(5):
            alpha = rand_disk_qpi(rng, C7, 0, 0)
            R = ProjectiveRotation(alpha, QpiElement.zero(C7))
            xi = rand_disk_qpi(rng, C7)
            assert mobius_action(R, xi).eq_to((alpha / alpha.conj()) * xi)

    def test_pole_hit(self):
        xi = rand_disk_qpi(random.Random(2042), C7)
        # alpha = -beta * conj(xi) makes the denominator vanish at xi
        beta = QpiElement.one(C7)
        R = ProjectiveRotation(-(beta * xi.conj()), beta)
        with pytest.raises(PoleHit):
            mobius_action(R, xi)


class TestCharts:
    def test_pole_to_origin_and_back(self):
        assert stereo(sigma_z(C7)).is_zero
        z = QpiElement.zero(C7)
        assert lift(z).eq_to(sigma_z(C7))

    def test_roundtrip_disk(self):
        rng = random.Random(2050)
        for ctx in (C7, C11):
            for _ in range(10):
                xi = rand_disk_qpi(rng, ctx)
                assert stereo(lift(xi)).eq_to(xi)

    def test_roundtrip_cup(self):
        rng = random.Random(2051)
        for _ in range(10):
            P = lift(rand_disk_qpi(rng, C7))
            assert lift(stereo(P)).eq_to(P)

    def test_lift_distance_matches_disk_radius(self):
        rng = random.Random(2052)
        one = from_int(1, C7)
        for _ in range(10):
            xi = rand_disk_qpi(rng, C7)
            P = lift(xi)
            vxi = xi.valuation
            assert (P.vec.c - one).valuation == 2 * vxi
            assert min(P.vec.a.valuation, P.vec.b.valuation) == vxi

    @pytest.mark.parametrize("p,prec", [(3, 1), (7, 2), (7, 24), (11, 5), (10007, 16)])
    def test_charts_match_norm_route(self, p, prec):
        # lift divides by its real denominator part by part and stereo by a
        # real 1 + c; the fields must be the norm route's for real,
        # pure-imaginary, exact-zero and inexact-zero xi alike
        ctx = PrimeContext(p, prec)
        rng = random.Random(p * 100 + prec)

        def part():
            kind = rng.randrange(4)
            if kind == 0:
                return PadicNumber.exact_zero(ctx, rng.choice((0, 1, prec, prec + 7)))
            if kind == 1:
                return PadicNumber.zero_mod(ctx, rng.randint(1, prec + 4))
            return rand_padic(rng, ctx, 1, 3).truncate(rng.randint(prec, prec + 4))

        kinds = set()
        for _ in range(80):
            xis = [QpiElement(part(), part()) for _ in range(2)]
            kinds.update((x.re.kind, x.im.kind) for x in xis)
            A, B = (lift(x).vec for x in xis)
            for x, P in zip(xis, (A, B)):
                assert fields((P.a, P.b, P.c)) == fields(norm_route_lift(x)), x
                xi, want = stereo(SpherePoint(P)), norm_route_stereo(P.a, P.b, P.c)
                assert fields((xi.re, xi.im)) == fields((want.re, want.im)), P
            S = sphere_loop_add(SpherePoint(A), SpherePoint(B)).vec
            assert fields((S.a, S.b, S.c)) == fields(
                norm_route_sphere_loop_add((A.a, A.b, A.c), (B.a, B.b, B.c))
            ), xis
        assert len(kinds) == 9

    def test_lift_inverts_its_denominator_once(self, monkeypatch):
        calls = []
        inv_mod = PrimeContext.inv_mod

        def counted(ctx, u, k):
            calls.append(k)
            return inv_mod(ctx, u, k)

        xi = QpiElement(from_int(7, C7), from_rational(-14, 5, C7))
        monkeypatch.setattr(PrimeContext, "inv_mod", counted)
        P = lift(xi).vec
        assert len(calls) == 1
        monkeypatch.undo()
        assert fields((P.a, P.b, P.c)) == fields(norm_route_lift(xi))

    def test_lift_rejects_units(self):
        with pytest.raises(OutsideDisk):
            lift(QpiElement.one(C7))

    def test_cup_chart_rejects_far_points(self):
        z = PadicNumber.exact_zero(C7)
        one = from_int(1, C7)
        P = SpherePoint(Vector3(one, z, z))
        with pytest.raises(OutsideDisk):
            stereo(P)
        # but the chart's formula is defined there
        assert north_chart(P).eq_to(QpiElement.one(C7))


class TestPolar:
    def test_origin(self):
        z = PadicNumber.exact_zero(C7)
        assert polar_point(z, z).eq_to(sigma_z(C7))

    def test_chart_value_is_exp_iphi_tan_theta(self):
        rng = random.Random(2060)
        for _ in range(8):
            theta = rand_padic(rng, C7, vmin=1, vmax=3)
            phi = rand_padic(rng, C7, vmin=1, vmax=3)
            P = polar_point(theta, phi)
            i = QpiElement.i_unit(C7)
            want = exp(i * phi) * tan(theta)
            assert stereo(P).eq_to(want)

    def test_chart_norm_is_theta_norm(self):
        rng = random.Random(2061)
        for _ in range(8):
            theta = rand_padic(rng, C7, vmin=1, vmax=3)
            phi = rand_padic(rng, C7, vmin=1, vmax=3)
            assert stereo(polar_point(theta, phi)).valuation == theta.valuation

    def test_squares_to_identity(self):
        rng = random.Random(2062)
        for _ in range(8):
            P = polar_point(rand_padic(rng, C7, 1, 3), rand_padic(rng, C7, 1, 3))
            assert (P.matrix * P.matrix).eq_to(Mat2.identity(C7))

    def test_domain_errors(self):
        unit = from_int(1, C7)
        small = from_int(7, C7)
        with pytest.raises(DomainError):
            polar_point(unit, small)
        with pytest.raises(DomainError):
            polar_point(small, unit)


class TestExpSplit:
    def test_zero_gives_identity_class(self):
        z = PadicNumber.exact_zero(C7)
        assert exp_vertical(z).eq_to(IDENTITY)
        assert exp_horizontal(QpiElement.zero(C7)).eq_to(IDENTITY)

    def test_vertical_fixes_pole(self):
        rng = random.Random(2070)
        for _ in range(8):
            a = rand_padic(rng, C7, vmin=1, vmax=3)
            assert rotation_act(exp_vertical(a), sigma_z(C7)).eq_to(sigma_z(C7))

    def test_vertical_is_homomorphism(self):
        rng = random.Random(2071)
        for _ in range(8):
            a1 = rand_padic(rng, C7, vmin=1, vmax=3)
            a2 = rand_padic(rng, C7, vmin=1, vmax=3)
            assert exp_vertical(a1 + a2).eq_to(
                rotation_compose(exp_vertical(a1), exp_vertical(a2))
            )

    def test_horizontal_moves_pole_into_cup(self):
        rng = random.Random(2072)
        for _ in range(8):
            beta = rand_disk_qpi(rng, C7)
            Q = rotation_act(exp_horizontal(beta), sigma_z(C7))
            assert stereo(Q).valuation_lower_bound >= 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            exp_vertical(from_int(1, C7))
        with pytest.raises(DomainError):
            exp_horizontal(QpiElement.one(C7))


class TestEquivariance:
    def test_chart_intertwines_action(self):
        rng = random.Random(2080)
        checked = 0
        for _ in range(20):
            R = rotation_compose(
                exp_vertical(rand_padic(rng, C7, 1, 2)),
                exp_horizontal(rand_disk_qpi(rng, C7, 1, 2)),
            )
            P = lift(rand_disk_qpi(rng, C7))
            try:
                want = mobius_action(R, north_chart(P))
            except PoleHit:
                continue
            got = north_chart(rotation_act(R, P))
            assert got.eq_to(want)
            checked += 1
        assert checked >= 15

    def test_equivariance_for_general_rotations(self):
        rng = random.Random(2081)
        checked = 0
        for _ in range(20):
            try:
                R = ProjectiveRotation(
                    rand_disk_qpi(rng, C7, 0, 1), rand_disk_qpi(rng, C7, 0, 1)
                )
            except DomainError:
                continue
            P = lift(rand_disk_qpi(rng, C7))
            try:
                want = mobius_action(R, north_chart(P))
                got = north_chart(rotation_act(R, P))
            except PoleHit:
                continue
            assert got.eq_to(want)
            checked += 1
        assert checked >= 10
