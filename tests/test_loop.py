"""Disk loop: composition, divisions, translations, deviations, sphere transfer."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_digits import from_digits
from padicloop import PadicNumber, PrimeContext, from_int, from_rational
from padicloop.analytic import exp, tan
from padicloop.checks import _rand_padic
from padicloop.clifford import (
    ProjectiveRotation,
    lift,
    mobius_action,
    polar_point,
    rotation_compose,
    sigma_z,
    stereo,
)
from padicloop.errors import DomainError, OutsideDisk
from padicloop.loop import (
    Deviation,
    DiskPoint,
    deviation,
    deviation_apply,
    geodesic_point,
    left_divide,
    left_translation_matrix,
    loop_add,
    right_solve,
    sphere_loop_add,
)
from padicloop.oracles import (
    GaussianRational,
    gaussian_loop_add,
    rational_to_padic_digits,
    rational_valuation,
)
from padicloop.qpi import QpiElement, parse_qpi

C7 = PrimeContext(7, 24)
C11 = PrimeContext(11, 20)
C3 = PrimeContext(3, 24)
IDENTITY = ProjectiveRotation(QpiElement.one(C7), QpiElement.zero(C7))


def rand_padic(rng, ctx, vmin=1, vmax=3):
    return _rand_padic(rng, ctx, vmin, vmax)


def rand_disk(rng, ctx, vmin=1, vmax=3):
    return DiskPoint(
        QpiElement(rand_padic(rng, ctx, vmin, vmax), rand_padic(rng, ctx, vmin, vmax))
    )


def rand_disk_fraction(rng, p):
    # numerator divisible by p, denominator a unit: |q|_p < 1 guaranteed
    den = rng.randint(1, 60)
    while den % p == 0:
        den = rng.randint(1, 60)
    return Fraction(p * rng.randint(-40, 40), den)


def rand_disk_gaussian(rng, ctx):
    g = GaussianRational(rand_disk_fraction(rng, ctx.p), rand_disk_fraction(rng, ctx.p))
    z = QpiElement(
        from_rational(g.re.numerator, g.re.denominator, ctx),
        from_rational(g.im.numerator, g.im.denominator, ctx),
    )
    return g, z


def assert_matches_gaussian(z, g, p):
    for comp, frac in ((z.re, g.re), (z.im, g.im)):
        if frac == 0:
            assert comp.is_zero
            continue
        if comp.is_zero_mod:
            assert rational_valuation(frac, p) >= comp.m
            continue
        assert comp.valuation == rational_valuation(frac, p)
        assert comp.digits() == rational_to_padic_digits(frac, p, comp.r)


def gaussian_left_divide(a, b):
    return (b - a) / (GaussianRational(1) + a.conj() * b)


def gaussian_deviation(a, b):
    one = GaussianRational(1)
    return (one - a * b.conj()) / (one - a.conj() * b)


def boundary_part(rng, ctx, kind):
    """A disk component of the given precision kind."""
    if kind == "exact-zero":
        return PadicNumber.exact_zero(ctx)
    if kind == "inexact-zero":
        return PadicNumber.zero_mod(ctx, rng.randint(1, ctx.precision + 2))
    x = rand_padic(rng, ctx)
    return x if kind == "full" else x.truncate(x.v + rng.randint(1, ctx.precision))


BOUNDARY_KINDS = ("exact-zero", "inexact-zero", "truncated", "full")


class TestDiskPoint:
    def test_rejects_units(self):
        with pytest.raises(OutsideDisk):
            DiskPoint(QpiElement.one(C7))
        with pytest.raises(OutsideDisk):
            DiskPoint(QpiElement(from_rational(1, 7, C7)))

    def test_zero_factory(self):
        z = DiskPoint.zero(C7)
        assert z.value.is_zero
        assert z.value.is_exact_zero

    def test_serialize_parses_back(self):
        rng = random.Random(40)
        x = rand_disk(rng, C7)
        assert parse_qpi(x.serialize(), C7).eq_to(x.value)

    def test_negation_stays_inside(self):
        rng = random.Random(41)
        x = rand_disk(rng, C7)
        assert (-x).value.valuation_lower_bound >= 1


def value_types():
    x, y = DiskPoint(QpiElement(from_int(7, C7))), DiskPoint(QpiElement.i_unit(C7) * 7)
    return {
        "PrimeContext": (C7, "p"),
        "Vector3": (sigma_z(C7).vec, "a"),
        "SpherePoint": (sigma_z(C7), "vec"),
        "ProjectiveRotation": (IDENTITY, "alpha"),
        "DiskPoint": (x, "value"),
        "Deviation": (deviation(x, y), "factor"),
    }


@pytest.mark.parametrize("name", sorted(value_types()))
def test_immutable(name):
    """A field, or a new attribute, cannot be assigned after construction."""
    value, field = value_types()[name]
    assert type(value).__name__ == name
    before = getattr(value, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, attr, None)
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", sorted(set(value_types()) - {"PrimeContext"}))
def test_repr_shows_the_serialization(name):
    value = value_types()[name][0]
    assert repr(value) == f"{name}({value.serialize()})"


class TestLoopAdd:
    def test_two_sided_identity_exact(self):
        # exact, not merely to precision: the zero passes through untouched
        rng = random.Random(50)
        z = DiskPoint.zero(C7)
        for _ in range(10):
            x = rand_disk(rng, C7)
            assert loop_add(z, x).value == x.value
            assert loop_add(x, z).value == x.value

    def test_negation_is_left_inverse_point(self):
        rng = random.Random(51)
        for _ in range(10):
            x = rand_disk(rng, C7)
            assert loop_add(-x, x).value.is_zero

    def test_seven_plus_seven_i(self):
        # 7 (+) 7i = 7(1+i)/(1-49i) = (-168 + 175 i)/1201
        a = DiskPoint(QpiElement(from_int(7, C7)))
        b = DiskPoint(QpiElement(from_int(0, C7), from_int(7, C7)))
        s = loop_add(a, b).value
        assert s.re.valuation == 1 and s.re.digits()[:4] == [1, 0, 6, 6]
        assert s.im.valuation == 1 and s.im.digits()[:4] == [1, 0, 1, 0]
        want = gaussian_loop_add(GaussianRational(7), GaussianRational(0, 7))
        assert want == GaussianRational(Fraction(-168, 1201), Fraction(175, 1201))
        assert_matches_gaussian(s, want, 7)

    def test_matches_gaussian_oracle(self):
        rng = random.Random(52)
        for ctx in (C7, C11):
            for _ in range(12):
                ga, za = rand_disk_gaussian(rng, ctx)
                gb, zb = rand_disk_gaussian(rng, ctx)
                got = loop_add(DiskPoint(za), DiskPoint(zb)).value
                assert_matches_gaussian(got, gaussian_loop_add(ga, gb), ctx.p)

    def test_closure_ultrametric_bound(self):
        rng = random.Random(53)
        for ctx in (C3, C7, C11):
            for _ in range(30):
                x = rand_disk(rng, ctx, vmin=1, vmax=4)
                y = rand_disk(rng, ctx, vmin=1, vmax=4)
                s = loop_add(x, y)
                vx, vy = x.value.valuation, y.value.valuation
                assert s.value.valuation_lower_bound >= min(vx, vy)
                if vx != vy:
                    assert s.value.valuation == min(vx, vy)

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_left_inverse_property(self, v1, v2, data):
        digs = data.draw(
            st.lists(st.integers(0, 6), min_size=16, max_size=16).map(
                lambda d: [max(d[0], 1)] + d[1:]
            )
        )
        digs2 = data.draw(
            st.lists(st.integers(0, 6), min_size=16, max_size=16).map(
                lambda d: [max(d[0], 1)] + d[1:]
            )
        )
        mk = lambda v, d: from_digits(C7, v, d, m=v + 16)
        x = DiskPoint(QpiElement(mk(v1, digs), mk(v2, digs2)))
        e = DiskPoint(QpiElement(mk(v2, digs2), mk(v1, digs)))
        assert loop_add(-x, loop_add(x, e)).value.eq_to(e.value)

    def test_left_inverse_matrix_proof(self):
        # lambda_{-xi} lambda_{xi} collapses to the identity class
        rng = random.Random(54)
        for _ in range(10):
            x = rand_disk(rng, C7)
            prod = rotation_compose(left_translation_matrix(-x), left_translation_matrix(x))
            assert prod.eq_to(IDENTITY)


class TestLeftTranslationMatrix:
    def test_zero_gives_identity_class(self):
        assert left_translation_matrix(DiskPoint.zero(C7)).eq_to(IDENTITY)

    def test_canonical_form_is_one_xi(self):
        rng = random.Random(60)
        x = rand_disk(rng, C7)
        L = left_translation_matrix(x)
        assert L.alpha.re.digits() == [1] and L.alpha.re.valuation == 0
        assert L.alpha.im.is_zero
        assert L.beta.eq_to(x.value)

    def test_determinant_is_unit(self):
        rng = random.Random(61)
        for ctx in (C7, C11):
            for _ in range(10):
                x = rand_disk(rng, ctx)
                det = left_translation_matrix(x).matrix.det()
                assert det.eq_to(QpiElement.one(ctx) + QpiElement(x.value.norm()))
                assert det.valuation == 0

    def test_inverse_class_transfers_to_loop_add(self):
        rng = random.Random(62)
        for _ in range(20):
            x1, x2 = rand_disk(rng, C7), rand_disk(rng, C7)
            L = left_translation_matrix(x1)
            assert mobius_action(L.inverse(), x2.value).eq_to(loop_add(x1, x2).value)

    def test_class_itself_transfers_to_left_divide(self):
        # the displayed class centers the chart at xi1: its Moebius transfer
        # is division, the adjugate class is the one that adds
        rng = random.Random(63)
        for _ in range(20):
            x1, x2 = rand_disk(rng, C7), rand_disk(rng, C7)
            L = left_translation_matrix(x1)
            assert mobius_action(L, x2.value).eq_to(left_divide(x1, x2).value)


class TestLeftDivide:
    def test_self_division_is_zero(self):
        rng = random.Random(70)
        x = rand_disk(rng, C7)
        assert left_divide(x, x).value.is_zero

    def test_division_by_zero_is_identity(self):
        rng = random.Random(71)
        b = rand_disk(rng, C7)
        assert left_divide(DiskPoint.zero(C7), b).value == b.value

    def test_round_trip_thousand_pairs(self):
        rng = random.Random(72)
        ctx = PrimeContext(7, 14)
        for _ in range(1000):
            a = rand_disk(rng, ctx, vmin=1, vmax=2)
            b = rand_disk(rng, ctx, vmin=1, vmax=2)
            x = left_divide(a, b)
            assert x.value.valuation_lower_bound >= 1
            assert loop_add(a, x).value.eq_to(b.value)

    def test_round_trip_other_direction(self):
        rng = random.Random(73)
        for _ in range(50):
            a = rand_disk(rng, C7)
            x = rand_disk(rng, C7)
            assert left_divide(a, loop_add(a, x)).value.eq_to(x.value)

    def test_matches_gaussian_oracle(self):
        rng = random.Random(74)
        for _ in range(12):
            ga, za = rand_disk_gaussian(rng, C7)
            gb, zb = rand_disk_gaussian(rng, C7)
            got = left_divide(DiskPoint(za), DiskPoint(zb)).value
            assert_matches_gaussian(got, gaussian_left_divide(ga, gb), 7)


class TestRightSolve:
    def test_solving_against_zero_translation(self):
        rng = random.Random(80)
        b = rand_disk(rng, C7)
        y = right_solve(DiskPoint.zero(C7), b)
        assert y.value == b.value

    def test_self_target_gives_zero(self):
        rng = random.Random(81)
        a = rand_disk(rng, C7)
        assert right_solve(a, a).value.is_zero

    def test_solution_satisfies_equation(self):
        rng = random.Random(82)
        for ctx in (C3, C7, C11):
            for _ in range(25):
                a = rand_disk(rng, ctx)
                b = rand_disk(rng, ctx)
                y = right_solve(a, b)
                assert y.value.valuation_lower_bound >= 1
                assert loop_add(y, a).value.eq_to(b.value)

    def test_matches_exact_rational_solve(self):
        rng = random.Random(83)
        one = Fraction(1)
        for _ in range(10):
            ga, za = rand_disk_gaussian(rng, C7)
            gb, zb = rand_disk_gaussian(rng, C7)
            K = gb * ga
            R = gb - ga
            det = one - K.re * K.re - K.im * K.im
            s = (R.re * (one - K.re) - K.im * R.im) / det
            t = (R.im * (one + K.re) - K.im * R.re) / det
            got = right_solve(DiskPoint(za), DiskPoint(zb)).value
            assert_matches_gaussian(got, GaussianRational(s, t), 7)

    def test_system_determinant_is_unit(self):
        # |b a| <= p^-2 keeps 1 - K1^2 - K2^2 a unit, so right_solve's
        # division never meets a zero determinant
        rng = random.Random(84)
        one = from_int(1, C7)
        for _ in range(20):
            a, b = rand_disk(rng, C7), rand_disk(rng, C7)
            K = b.value * a.value
            det = one - K.re * K.re - K.im * K.im
            assert det.valuation == 0

    @pytest.mark.parametrize("p", [3, 7, 11])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_boundary_precision_inputs_always_solve(self, p, n):
        # every part an exact zero, an inexact zero O(p^m) with m <= N + 2,
        # truncated or full: the system never fails and y (+) a = b holds
        ctx = PrimeContext(p, n)
        rng = random.Random(f"rsolve-boundary:{p}:{n}")
        for _ in range(300):
            re_a, im_a, re_b, im_b = (
                boundary_part(rng, ctx, rng.choice(BOUNDARY_KINDS)) for _ in range(4)
            )
            a, b = DiskPoint(QpiElement(re_a, im_a)), DiskPoint(QpiElement(re_b, im_b))
            y = right_solve(a, b)
            assert loop_add(y, a).value.eq_to(b.value), (a, b, y)


class TestDeviation:
    def test_zero_arguments_give_exact_one(self):
        rng = random.Random(90)
        x = rand_disk(rng, C7)
        z = DiskPoint.zero(C7)
        one = QpiElement.one(C7)
        assert deviation(x, z).factor == one
        assert deviation(z, x).factor == one

    def test_equal_arguments_give_one(self):
        rng = random.Random(91)
        x = rand_disk(rng, C7)
        assert deviation(x, x).factor.eq_to(QpiElement.one(C7))

    def test_seven_seven_i_value(self):
        # (1 + 49i)/(1 - 49i) = (-1200 + 49 i)/1201
        a = DiskPoint(QpiElement(from_int(7, C7)))
        b = DiskPoint(QpiElement(from_int(0, C7), from_int(7, C7)))
        u = deviation(a, b).factor
        assert u.re.valuation == 0 and u.re.digits()[:5] == [1, 0, 0, 0, 5]
        assert u.im.valuation == 2 and u.im.digits()[:4] == [2, 0, 0, 0]
        want = GaussianRational(Fraction(-1200, 1201), Fraction(49, 1201))
        num = GaussianRational(1, 49)
        assert num / num.conj() == want
        assert_matches_gaussian(u, want, 7)

    def test_unimodular_and_unitary(self):
        rng = random.Random(92)
        one = QpiElement.one(C7)
        for _ in range(25):
            d = deviation(rand_disk(rng, C7), rand_disk(rng, C7))
            assert d.factor.valuation == 0
            assert (d.factor * d.factor.conj()).eq_to(one)
            assert d.factor.conj().eq_to(one / d.factor)

    @pytest.mark.parametrize("p", (3, 7, 11, 19, 10007))
    def test_one_denominator_matches_two_product_formula(self, p):
        # conj(w) / w with w = 1 - conj(x1) x2 must keep every field of
        # (1 - x1 conj(x2)) / (1 - conj(x1) x2), which forms both products
        rng = random.Random(f"deviation:{p}")
        kinds = set()
        for prec in (1, 2, 5, 16, 40):
            ctx = PrimeContext(p, prec)
            for _ in range(30):
                v1, v2 = (
                    QpiElement(*(boundary_part(rng, ctx, rng.choice(BOUNDARY_KINDS)) for _ in "ri"))
                    for _ in "12"
                )
                kinds.update(c.kind for c in (v1.re, v1.im, v2.re, v2.im))
                got = deviation(DiskPoint(v1), DiskPoint(v2)).factor
                want = (1 - v1 * v2.conj()) / (1 - v1.conj() * v2)
                assert [(c.kind, c.v, c.unit, c.r, c.m) for c in (got.re, got.im)] == [
                    (c.kind, c.v, c.unit, c.r, c.m) for c in (want.re, want.im)
                ], (v1, v2)
        assert len(kinds) == 3

    def test_apply_preserves_absolute_value(self):
        rng = random.Random(93)
        for _ in range(15):
            d = deviation(rand_disk(rng, C7), rand_disk(rng, C7))
            x = rand_disk(rng, C7)
            assert deviation_apply(d, x).value.valuation == x.value.valuation

    def test_automorphism_property(self):
        # the deviation acts on the loop by automorphisms
        rng = random.Random(94)
        for ctx in (C7, C11):
            for _ in range(15):
                d = deviation(rand_disk(rng, ctx), rand_disk(rng, ctx))
                x, y = rand_disk(rng, ctx), rand_disk(rng, ctx)
                lhs = deviation_apply(d, loop_add(x, y))
                rhs = loop_add(deviation_apply(d, x), deviation_apply(d, y))
                assert lhs.value.eq_to(rhs.value)

    def test_as_rotation_acts_by_multiplication(self):
        rng = random.Random(95)
        for _ in range(10):
            d = deviation(rand_disk(rng, C7), rand_disk(rng, C7))
            x = rand_disk(rng, C7)
            got = mobius_action(d.as_rotation(), x.value)
            assert got.eq_to(d.factor * x.value)

    def test_factorization_through_translations(self):
        # delta = lambda^{-1}_{x1 (+) x2} lambda_{x1} lambda_{x2} as classes
        rng = random.Random(96)
        for ctx in (C7, C11):
            for _ in range(15):
                x1, x2 = rand_disk(rng, ctx), rand_disk(rng, ctx)
                lam12 = left_translation_matrix(loop_add(x1, x2))
                path = rotation_compose(
                    rotation_compose(lam12.inverse(), left_translation_matrix(x1)),
                    left_translation_matrix(x2),
                )
                assert path.eq_to(deviation(x1, x2).as_rotation())


class TestNonAssociativity:
    def test_witness_exists_and_oracle_confirms(self):
        p = 7
        ctx = C7
        pool = {
            "p": (GaussianRational(p), QpiElement(from_int(p, ctx))),
            "pi": (GaussianRational(0, p), QpiElement(from_int(0, ctx), from_int(p, ctx))),
            "p(1+i)": (GaussianRational(p, p), QpiElement(from_int(p, ctx), from_int(p, ctx))),
        }
        witness = None
        for na, nb, nc in itertools.product(pool, repeat=3):
            (ga, za), (gb, zb), (gc, zc) = pool[na], pool[nb], pool[nc]
            left = loop_add(loop_add(DiskPoint(za), DiskPoint(zb)), DiskPoint(zc))
            right = loop_add(DiskPoint(za), loop_add(DiskPoint(zb), DiskPoint(zc)))
            if not left.value.eq_to(right.value):
                gl = gaussian_loop_add(gaussian_loop_add(ga, gb), gc)
                gr = gaussian_loop_add(ga, gaussian_loop_add(gb, gc))
                assert gl != gr, "arithmetic disagreed with the exact oracle"
                assert_matches_gaussian(left.value, gl, p)
                assert_matches_gaussian(right.value, gr, p)
                witness = (na, nb, nc)
                break
        assert witness is not None, "no witness in the 27-triple search space"


class ExactLoop:
    add = staticmethod(gaussian_loop_add)
    dev = staticmethod(gaussian_deviation)
    apply = staticmethod(GaussianRational.__mul__)


class KernelLoop:
    add = staticmethod(loop_add)
    dev = staticmethod(deviation)
    apply = staticmethod(deviation_apply)


# name -> (L, a, b, c) -> (lhs, rhs) in the loop L, with dev(a, b) the
# deviation factor (1 - a conj(b))/(1 - conj(a) b) acting by apply
K_LOOP_AXIOMS = {
    "left-loop": lambda L, a, b, c: (L.dev(a, b), L.dev(L.add(a, b), b)),
    "gyrocommutative": lambda L, a, b, c: (
        L.add(a, b), L.apply(L.dev(a, b), L.add(b, a))
    ),
    "left-bol": lambda L, a, b, c: (
        L.add(a, L.add(b, L.add(a, c))), L.add(L.add(a, L.add(b, a)), c)
    ),
    "automorphic-inverse": lambda L, a, b, c: (-L.add(a, b), L.add(-a, -b)),
}

# identities the disk loop does not satisfy
NOT_K_LOOP_AXIOMS = {
    "right-bol": lambda L, a, b, c: (
        L.add(L.add(L.add(c, a), b), a), L.add(c, L.add(L.add(a, b), a))
    ),
    "associative": lambda L, a, b, c: (L.add(L.add(a, b), c), L.add(a, L.add(b, c))),
}


def kernel_value(x):
    return x.factor if isinstance(x, Deviation) else x.value


class TestKLoopAxioms:
    """The remaining axioms of a gyrocommutative gyrogroup (a K-loop): each
    holds exactly on Gaussian rationals, and in the kernel both sides agree
    and each matches its exact value digit for digit up to the m it claims."""

    @pytest.mark.parametrize("p", [3, 7, 11])
    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("axiom", K_LOOP_AXIOMS)
    def test_axiom_exact_and_in_kernel(self, axiom, n, p):
        identity = K_LOOP_AXIOMS[axiom]
        ctx = PrimeContext(p, n)
        rng = random.Random(f"k-loop:{axiom}:{p}:{n}")
        for _ in range(60):
            (ga, za), (gb, zb), (gc, zc) = (rand_disk_gaussian(rng, ctx) for _ in range(3))
            gl, gr = identity(ExactLoop, ga, gb, gc)
            assert gl == gr, (ga, gb, gc)
            kl, kr = identity(KernelLoop, DiskPoint(za), DiskPoint(zb), DiskPoint(zc))
            kl, kr = kernel_value(kl), kernel_value(kr)
            assert kl.eq_to(kr), (ga, gb, gc)
            assert_matches_gaussian(kl, gl, p)
            assert_matches_gaussian(kr, gr, p)

    @pytest.mark.parametrize("identity", NOT_K_LOOP_AXIOMS)
    def test_negative_control_fails_exactly(self, identity):
        rng = random.Random(f"not-k-loop:{identity}")
        held = 0
        for p in (3, 7, 11):
            for _ in range(60):
                a, b, c = (
                    GaussianRational(rand_disk_fraction(rng, p), rand_disk_fraction(rng, p))
                    for _ in range(3)
                )
                lhs, rhs = NOT_K_LOOP_AXIOMS[identity](ExactLoop, a, b, c)
                held += lhs == rhs
        assert held <= 18


class TestSphereLoopAdd:
    def test_identity_both_sides(self):
        rng = random.Random(100)
        sz = sigma_z(C7)
        B = lift(rand_disk(rng, C7).value)
        assert sphere_loop_add(sz, B).vec.eq_to(B.vec)
        assert sphere_loop_add(B, sz).vec.eq_to(B.vec)

    def test_result_in_cup_on_sphere(self):
        rng = random.Random(101)
        A = lift(rand_disk(rng, C7).value)
        B = lift(rand_disk(rng, C7).value)
        S = sphere_loop_add(A, B)
        q = S.vec.a * S.vec.a + S.vec.b * S.vec.b + S.vec.c * S.vec.c
        assert (q - from_int(1, C7)).is_zero
        assert S.vec.a.valuation_lower_bound >= 1
        assert (S.vec.c - from_int(1, C7)).valuation_lower_bound >= 1

    def test_chart_compatibility(self):
        rng = random.Random(102)
        for _ in range(8):
            xa, xb = rand_disk(rng, C7), rand_disk(rng, C7)
            S = sphere_loop_add(lift(xa.value), lift(xb.value))
            assert stereo(S).eq_to(loop_add(xa, xb).value)

    def test_two_path_rational_oracle(self):
        # lift the Gaussian-rational sum exactly over Fractions and compare
        # coordinatewise with the package path through the cup chart
        rng = random.Random(103)

        def frac_lift(g):
            n = g.norm()
            c = (1 - n) / (1 + n)
            z = g / (1 + n)
            return (2 * z.re, 2 * z.im, c)

        def to_padic(fr, ctx):
            return from_rational(fr.numerator, fr.denominator, ctx)

        for _ in range(6):
            ga, za = rand_disk_gaussian(rng, C7)
            gb, zb = rand_disk_gaussian(rng, C7)
            S = sphere_loop_add(lift(za), lift(zb))
            ws = frac_lift(gaussian_loop_add(ga, gb))
            for comp, frac in zip((S.vec.a, S.vec.b, S.vec.c), ws):
                if frac == 0:
                    assert comp.is_zero
                elif comp.valuation is None:
                    assert rational_valuation(frac, 7) >= comp.m
                else:
                    assert comp.valuation == rational_valuation(frac, 7)
                    assert comp.digits() == rational_to_padic_digits(frac, 7, comp.r)


class TestGeodesic:
    def test_parameter_zero_is_pole(self):
        theta = from_int(7, C7)
        phi = from_int(14, C7)
        P = geodesic_point(theta, phi, from_int(0, C7))
        assert P.vec.a.is_exact_zero and P.vec.b.is_exact_zero
        assert P.vec.c == from_int(1, C7)

    def test_parameter_one_is_polar_point(self):
        rng = random.Random(110)
        theta = rand_padic(rng, C7)
        phi = rand_padic(rng, C7)
        P = geodesic_point(theta, phi, from_int(1, C7))
        assert P.vec.eq_to(polar_point(theta, phi).vec)

    def test_chart_value_along_curve(self):
        rng = random.Random(111)
        i = QpiElement.i_unit(C7)
        for _ in range(8):
            theta = rand_padic(rng, C7)
            phi = rand_padic(rng, C7)
            t = rand_padic(rng, C7, vmin=0, vmax=2)
            P = geodesic_point(theta, phi, t)
            assert stereo(P).eq_to(exp(i * phi) * tan(t * theta))

    def test_rejects_fractional_parameter(self):
        theta = from_int(7, C7)
        phi = from_int(7, C7)
        with pytest.raises(DomainError):
            geodesic_point(theta, phi, from_rational(1, 7, C7))

    def test_rejects_unit_angle_with_unit_parameter(self):
        with pytest.raises(DomainError):
            geodesic_point(from_int(1, C7), from_int(7, C7), from_int(1, C7))
