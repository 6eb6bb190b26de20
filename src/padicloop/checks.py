"""Seeded property suites behind the `check` subcommand and the acceptance gates.

Each suite returns a list of records {suite, property, samples, failures};
failures carry serialized counterexamples (capped, so a broken build stays
readable).  Child RNGs are derived from f"{seed}:{suite}:{property}" so every
property is reproducible in isolation and insertion order never matters.
"""

import cmath
import random
from fractions import Fraction

from .analytic import arcsin, arctan, binomial_series, cos, exp, log, sin, sin_cos_tan
from .clifford import (
    ProjectiveRotation,
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
    stereo,
)
from .context import PrimeContext
from .errors import PadicError
from .loop import (
    DiskPoint,
    deviation,
    deviation_apply,
    left_divide,
    left_translation_matrix,
    loop_add,
)
from .matrix import Mat2
from .oracles import (
    GaussianRational,
    complex_float_loop,
    gaussian_loop_add,
    rational_to_padic_digits,
    rational_valuation,
    series_partial_sum,
    sqrt_digits,
)
from .padic import INFINITE, PadicNumber, format_padic, from_rational, parse_padic, sqrt
from .qpi import QpiElement, format_qpi, parse_qpi

_MAX_RECORDED = 6


class _Prop:
    """One property's tally; failures keep only the first few witnesses.

    A witness is the counterexample text or a zero-argument callable that
    builds it; the callable runs only for a recorded failure, so passing
    samples format nothing.
    """

    def __init__(self, suite, name):
        self.suite = suite
        self.name = name
        self.samples = 0
        self.failures = []

    def tally(self, ok, witness):
        self.samples += 1
        if not ok and len(self.failures) < _MAX_RECORDED:
            self.failures.append(witness() if callable(witness) else witness)

    def record(self):
        return {
            "suite": self.suite,
            "property": self.name,
            "samples": self.samples,
            "failures": list(self.failures),
        }


def _child_rng(seed, suite, prop):
    return random.Random(f"{seed}:{suite}:{prop}")


def _rand_padic(rng, ctx, vmin, vmax):
    v = rng.randint(vmin, vmax)
    digits = [rng.randint(1, ctx.p - 1)]
    digits += [rng.randint(0, ctx.p - 1) for _ in range(ctx.precision - 1)]
    return PadicNumber.from_digits(ctx, v, digits, m=v + ctx.precision)


def _rand_disk(rng, ctx, vmin=1, vmax=3):
    return DiskPoint(
        QpiElement(_rand_padic(rng, ctx, vmin, vmax), _rand_padic(rng, ctx, vmin, vmax))
    )


def _rand_disk_fraction(rng, p):
    den = rng.randint(1, 60)
    while den % p == 0:
        den = rng.randint(1, 60)
    num = rng.randint(-40, 40)
    while num == 0:
        num = rng.randint(-40, 40)
    return Fraction(p * num, den)


def _tracked(x):
    """Certified digit count of a value: the floor the suites must keep.
    A rotation is certified by its alpha entry."""
    if isinstance(x, ProjectiveRotation):
        return _tracked(x.alpha)
    if isinstance(x, QpiElement):
        return min(_tracked(x.re), _tracked(x.im))
    if x.is_exact_zero:
        return INFINITE
    if x.is_zero_mod:
        return x.m
    return x.r


def _eq_floor(a, b, floor):
    """eq_to plus the tracked-precision floor on both sides."""
    return a.eq_to(b) and _tracked(a) >= floor and _tracked(b) >= floor


def _tally_eq(prop, lhs, rhs, floor, witness):
    """Count the sample unless its certificate is too weak to be meaningful.

    A genuine inequality is always a failure.  An equality certified on fewer
    than `floor` digits (deep additive cancellation ate the margin, likeliest
    at p = 3) is skipped and the caller draws a fresh sample; equality is
    never part of the redraw condition, so no counterexample can hide here.
    A sample that checks several equalities passes lhs and rhs as tuples,
    compared pairwise.
    """
    pairs = tuple(zip(lhs, rhs)) if isinstance(lhs, tuple) else ((lhs, rhs),)
    if not all(a.eq_to(b) for a, b in pairs):
        prop.tally(False, witness)
        return True
    if min(min(_tracked(a), _tracked(b)) for a, b in pairs) < floor:
        return False
    prop.tally(True, witness)
    return True


def _run_certified(prop, samples, draw_and_tally):
    """Drive a _tally_eq-style loop to `samples` counted samples."""
    budget = 4 * samples + 40
    counted = 0
    while counted < samples and budget > 0:
        budget -= 1
        if draw_and_tally():
            counted += 1
    if counted < samples:
        prop.tally(False, "generator could not certify enough samples")


def _digits_match(comp, frac, p):
    """PadicNumber against an exact rational, digit for digit."""
    if frac == 0:
        return comp.is_zero
    if comp.is_zero_mod:
        return rational_valuation(frac, p) >= comp.m
    return comp.valuation == rational_valuation(frac, p) and comp.digits() == (
        rational_to_padic_digits(frac, p, comp.r)
    )


def _qpi_matches(z, g, p):
    return _digits_match(z.re, g.re, p) and _digits_match(z.im, g.im, p)


# ---- axioms suite (disk loop) ----


def run_axioms(p, prec, seed, samples):
    ctx = PrimeContext(p, prec)
    floor = max(1, prec - 4)
    suite = "axioms"
    out = []

    prop = _Prop(suite, "identity-exact")
    rng = _child_rng(seed, suite, prop.name)
    zero = DiskPoint.zero(ctx)
    for _ in range(samples):
        x = _rand_disk(rng, ctx)
        ok = loop_add(zero, x).value == x.value and loop_add(x, zero).value == x.value
        prop.tally(ok, lambda: f"x={x.serialize()}")
    out.append(prop.record())

    prop = _Prop(suite, "left-inverse")
    rng = _child_rng(seed, suite, prop.name)

    def left_inverse_case():
        x, e = _rand_disk(rng, ctx), _rand_disk(rng, ctx)
        got = loop_add(-x, loop_add(x, e))
        return _tally_eq(
            prop, got.value, e.value, floor,
            lambda: f"x={x.serialize()}; e={e.serialize()}",
        )

    _run_certified(prop, samples, left_inverse_case)
    out.append(prop.record())

    prop = _Prop(suite, "closure-ultrametric")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        x = _rand_disk(rng, ctx, vmin=1, vmax=4)
        y = _rand_disk(rng, ctx, vmin=1, vmax=4)
        s = loop_add(x, y)
        vx, vy = x.value.valuation, y.value.valuation
        ok = s.value.valuation_lower_bound >= min(vx, vy)
        if vx != vy:
            ok = ok and s.value.valuation == min(vx, vy)
        prop.tally(ok, lambda: f"x={x.serialize()}; y={y.serialize()}")
    out.append(prop.record())

    prop = _Prop(suite, "left-divide-round-trip")
    rng = _child_rng(seed, suite, prop.name)

    def round_trip_case():
        a, b = _rand_disk(rng, ctx), _rand_disk(rng, ctx)
        there = loop_add(a, left_divide(a, b)).value
        back = left_divide(a, loop_add(a, b)).value
        return _tally_eq(
            prop, (there, back), (b.value, b.value), floor,
            lambda: f"a={a.serialize()}; b={b.serialize()}",
        )

    _run_certified(prop, samples, round_trip_case)
    out.append(prop.record())

    prop = _Prop(suite, "deviation-unimodular")
    rng = _child_rng(seed, suite, prop.name)
    one = QpiElement.one(ctx)
    for _ in range(samples):
        x1, x2 = _rand_disk(rng, ctx), _rand_disk(rng, ctx)
        u = deviation(x1, x2).factor
        ok = u.valuation == 0 and _eq_floor(u * u.conj(), one, floor)
        prop.tally(ok, lambda: f"x1={x1.serialize()}; x2={x2.serialize()}")
    out.append(prop.record())

    prop = _Prop(suite, "automorphism-law")
    rng = _child_rng(seed, suite, prop.name)

    def automorphism_case():
        d = deviation(_rand_disk(rng, ctx), _rand_disk(rng, ctx))
        x, y = _rand_disk(rng, ctx), _rand_disk(rng, ctx)
        lhs = deviation_apply(d, loop_add(x, y))
        rhs = loop_add(deviation_apply(d, x), deviation_apply(d, y))
        return _tally_eq(
            prop,
            lhs.value,
            rhs.value,
            floor,
            lambda: f"u={d.serialize()}; x={x.serialize()}; y={y.serialize()}",
        )

    _run_certified(prop, samples, automorphism_case)
    out.append(prop.record())

    prop = _Prop(suite, "deviation-factorization")
    rng = _child_rng(seed, suite, prop.name)

    def factorization_case():
        x1, x2 = _rand_disk(rng, ctx), _rand_disk(rng, ctx)
        lam12 = left_translation_matrix(loop_add(x1, x2))
        path = rotation_compose(
            rotation_compose(lam12.inverse(), left_translation_matrix(x1)),
            left_translation_matrix(x2),
        )
        want = deviation(x1, x2).as_rotation()
        return _tally_eq(
            prop, path, want, floor, lambda: f"x1={x1.serialize()}; x2={x2.serialize()}"
        )

    _run_certified(prop, samples, factorization_case)
    out.append(prop.record())

    out.append(_non_associativity_record(ctx))
    return out


def _non_associativity_record(ctx):
    """Search a, b, c over {p, pi, p(1+i)} for distinct association orders and
    confirm the witness against the exact Gaussian-rational oracle."""
    p = ctx.p
    pool = [
        ("p", GaussianRational(p), QpiElement.from_rationals(p, 1, 0, 1, ctx)),
        ("pi", GaussianRational(0, p), QpiElement.from_rationals(0, 1, p, 1, ctx)),
        ("p(1+i)", GaussianRational(p, p), QpiElement.from_rationals(p, 1, p, 1, ctx)),
    ]
    prop = _Prop("axioms", "non-associativity-witness")
    witness = None
    for na, ga, za in pool:
        for nb, gb, zb in pool:
            for nc, gc, zc in pool:
                prop.samples += 1
                a, b, c = DiskPoint(za), DiskPoint(zb), DiskPoint(zc)
                left = loop_add(loop_add(a, b), c)
                right = loop_add(a, loop_add(b, c))
                if left.value.eq_to(right.value):
                    continue
                gl = gaussian_loop_add(gaussian_loop_add(ga, gb), gc)
                gr = gaussian_loop_add(ga, gaussian_loop_add(gb, gc))
                confirmed = (
                    gl != gr
                    and _qpi_matches(left.value, gl, p)
                    and _qpi_matches(right.value, gr, p)
                )
                if confirmed and witness is None:
                    witness = f"({na}, {nb}, {nc})"
                if not confirmed:
                    prop.failures.append(f"oracle-disagreement at ({na}, {nb}, {nc})")
    if witness is None:
        prop.failures.append("no witness found in the 27-triple search space")
    rec = prop.record()
    if witness is not None:
        rec["witness"] = witness
    return rec


# ---- analytic suite ----


def run_analytic(p, prec, seed, samples):
    ctx = PrimeContext(p, prec)
    floor = max(1, prec - 4)
    suite = "analytic"
    out = []
    one = from_rational(1, 1, ctx)

    def sample(rng, vmax=2):
        return _rand_padic(rng, ctx, 1, vmax)

    def eq_property(name, case):
        prop = _Prop(suite, name)
        rng = _child_rng(seed, suite, name)
        _run_certified(prop, samples, lambda: case(prop, rng))
        out.append(prop.record())

    def exp_additivity(prop, rng):
        x, y = sample(rng), sample(rng)
        return _tally_eq(
            prop, exp(x + y), exp(x) * exp(y), floor,
            lambda: f"x={format_padic(x)}; y={format_padic(y)}",
        )

    eq_property("exp-additivity", exp_additivity)

    def log_exp_round_trip(prop, rng):
        x = sample(rng)
        return _tally_eq(prop, log(exp(x)), x, floor, lambda: f"x={format_padic(x)}")

    eq_property("log-exp-round-trip", log_exp_round_trip)

    def euler_formula(prop, rng):
        x = sample(rng)
        s, c = sin(x), cos(x)
        lhs = exp(QpiElement(PadicNumber.exact_zero(ctx), x))
        return _tally_eq(
            prop, lhs, QpiElement(c, s), floor, lambda: f"x={format_padic(x)}"
        )

    eq_property("euler-formula", euler_formula)

    def pythagoras(prop, rng):
        x = sample(rng)
        s, c = sin(x), cos(x)
        return _tally_eq(
            prop, s * s + c * c, one, floor, lambda: f"x={format_padic(x)}"
        )

    eq_property("pythagoras", pythagoras)

    def sin_addition(prop, rng):
        x, y = sample(rng), sample(rng)
        sx, cx = sin(x), cos(x)
        sy, cy = sin(y), cos(y)
        return _tally_eq(
            prop, sin(x + y), sx * cy + cx * sy, floor,
            lambda: f"x={format_padic(x)}; y={format_padic(y)}",
        )

    eq_property("sin-addition", sin_addition)

    def cos_addition(prop, rng):
        x, y = sample(rng), sample(rng)
        sx, cx = sin(x), cos(x)
        sy, cy = sin(y), cos(y)
        return _tally_eq(
            prop, cos(x + y), cx * cy - sx * sy, floor,
            lambda: f"x={format_padic(x)}; y={format_padic(y)}",
        )

    eq_property("cos-addition", cos_addition)

    prop = _Prop(suite, "sin-absolute-value")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        x = sample(rng)
        prop.tally(sin(x).valuation == x.valuation, lambda: f"x={format_padic(x)}")
    out.append(prop.record())

    prop = _Prop(suite, "cos-absolute-value")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        x = sample(rng)
        prop.tally(cos(x).valuation == 0, lambda: f"x={format_padic(x)}")
    out.append(prop.record())

    prop = _Prop(suite, "sin-isometry")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        x = sample(rng, vmax=3)
        y = sample(rng, vmax=3)
        while (x - y).valuation is None:
            y = sample(rng, vmax=3)
        prop.tally(
            (sin(x) - sin(y)).valuation == (x - y).valuation,
            lambda: f"x={format_padic(x)}; y={format_padic(y)}",
        )
    out.append(prop.record())

    out.append(_analytic_oracle_record(ctx, seed, min(samples, 50)))
    return out


def _analytic_oracle_record(ctx, seed, samples):
    """Every series-backed function against exact-rational partial sums,
    digit for digit at the tracked precision."""
    p = ctx.p
    terms = 2 * ctx.precision + 12  # oracle tail far below every tracked m
    prop = _Prop("analytic", "oracle-digits")
    rng = _child_rng(seed, "analytic", prop.name)
    half = Fraction(1, 2)
    for _ in range(samples):
        q = _rand_disk_fraction(rng, p)
        x = from_rational(q.numerator, q.denominator, ctx)
        gx = GaussianRational(q)
        checks = [
            ("exp", exp(x), series_partial_sum("exp", gx, terms)),
            ("log1p", log(from_rational(1, 1, ctx) + x), series_partial_sum("log1p", gx, terms)),
            ("sin", sin(x), series_partial_sum("sin", gx, terms)),
            ("cos", cos(x), series_partial_sum("cos", gx, terms)),
            ("arctan", arctan(x), series_partial_sum("arctan", gx, terms)),
            ("arcsin", arcsin(x), series_partial_sum("arcsin", gx, terms)),
            (
                "binomial",
                binomial_series(from_rational(1, 2, ctx), x),
                series_partial_sum("binomial", gx, terms, alpha=half),
            ),
        ]
        bad = [name for name, got, want in checks if not _digits_match(got, want.re, p)]
        prop.tally(not bad, lambda: f"x={q}; functions={','.join(bad)}")
    return prop.record()


# ---- clifford suite ----


def _rand_vector(rng, ctx):
    return Vector3(*(_rand_padic(rng, ctx, 0, 2) for _ in range(3)))


def _rand_axis(rng, ctx):
    while True:
        u = _rand_vector(rng, ctx)
        if not quadratic_form(u, u).is_zero:
            return u


def run_clifford(p, prec, seed, samples):
    ctx = PrimeContext(p, prec)
    suite = "clifford"
    out = []
    ident = Mat2.identity(ctx)

    prop = _Prop(suite, "pauli-square")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        v = _rand_vector(rng, ctx)
        M = iota(v)
        prop.tally(
            (M * M).eq_to(ident.scale(quadratic_form(v, v))),
            lambda: f"v={v.serialize()}",
        )
    out.append(prop.record())

    prop = _Prop(suite, "anticommutation")
    rng = _child_rng(seed, suite, prop.name)
    two = from_rational(2, 1, ctx)
    for _ in range(samples):
        u, v = _rand_vector(rng, ctx), _rand_vector(rng, ctx)
        lhs = iota(u) * iota(v) + iota(v) * iota(u)
        rhs = ident.scale(two * quadratic_form(u, v))
        prop.tally(lhs.eq_to(rhs), lambda: f"u={u.serialize()}; v={v.serialize()}")
    out.append(prop.record())

    prop = _Prop(suite, "reflection-conjugation")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        u = _rand_axis(rng, ctx)
        v = _rand_vector(rng, ctx)
        lhs = iota(reflect(u, v))
        U = iota(u)
        rhs = -(U * iota(v) * U.inverse())
        prop.tally(lhs.eq_to(rhs), lambda: f"u={u.serialize()}; v={v.serialize()}")
    out.append(prop.record())

    prop = _Prop(suite, "double-reflection-rotation")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        u, w = _rand_axis(rng, ctx), _rand_axis(rng, ctx)
        v = _rand_vector(rng, ctx)
        image = reflect(u, reflect(w, v))
        ok = quadratic_form(image, image).eq_to(quadratic_form(v, v))
        try:
            ProjectiveRotation.from_clifford_product(u, w)
        except PadicError:
            ok = False
        prop.tally(
            ok, lambda: f"u={u.serialize()}; w={w.serialize()}; v={v.serialize()}"
        )
    out.append(prop.record())

    prop = _Prop(suite, "chart-round-trip")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        xi = _rand_disk(rng, ctx).value
        P = lift(xi)
        ok = stereo(P, "cup").eq_to(xi)
        ok = ok and lift(stereo(P, "cup")).vec.eq_to(P.vec)
        prop.tally(ok, lambda: f"xi={format_qpi(xi)}")
    out.append(prop.record())

    prop = _Prop(suite, "polar-chart-value")
    rng = _child_rng(seed, suite, prop.name)
    i_unit = QpiElement.i_unit(ctx)
    for _ in range(samples):
        theta = _rand_padic(rng, ctx, 1, 3)
        phi = _rand_padic(rng, ctx, 1, 3)
        psi = stereo(polar_point(theta, phi), "cup")
        _s, _c, t = sin_cos_tan(theta)
        ok = psi.eq_to(exp(i_unit * phi) * t) and psi.valuation == theta.valuation
        prop.tally(ok, lambda: f"theta={format_padic(theta)}; phi={format_padic(phi)}")
    out.append(prop.record())

    prop = _Prop(suite, "equivariance")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(max(1, samples // 5)):
        a = _rand_padic(rng, ctx, 1, 2)
        beta = QpiElement(_rand_padic(rng, ctx, 1, 2), _rand_padic(rng, ctx, 1, 2))
        R = rotation_compose(exp_vertical(a), exp_horizontal(beta))
        xi = _rand_disk(rng, ctx).value
        P = lift(xi)
        lhs = stereo(rotation_act(R, P), "cup")
        rhs = mobius_action(R, xi)
        prop.tally(
            lhs.eq_to(rhs),
            lambda: (
                f"a={format_padic(a)}; beta={format_qpi(beta)}; xi={format_qpi(xi)}"
            ),
        )
    out.append(prop.record())
    return out


# ---- oracle suite (kernel digits plus the Archimedean model) ----


def run_oracle(p, prec, seed, samples):
    ctx = PrimeContext(p, prec)
    suite = "oracle"
    out = []

    prop = _Prop(suite, "rational-digit-agreement")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**4)
        x = from_rational(num, den, ctx)
        q = Fraction(num, den)
        prop.tally(_digits_match(x, q, p), lambda: f"q={q}")
    out.append(prop.record())

    prop = _Prop(suite, "sqrt-round-trip")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        num = rng.randint(1, 10**4) * rng.choice([-1, 1])
        den = rng.randint(1, 10**3)
        x = from_rational(num, den, ctx)
        a = x * x
        s = sqrt(a)
        ok = (s * s).eq_to(a)
        if ok and not s.is_zero:
            want = sqrt_digits(a.unit % ctx.pow(s.r), p, s.r)
            while want and want[-1] == 0:  # digits() trims trailing zeros
                want.pop()
            ok = want is not None and s.digits() == want
        prop.tally(ok, lambda: f"q=({num}/{den})^2")
    out.append(prop.record())

    prop = _Prop(suite, "parse-format-round-trip")
    rng = _child_rng(seed, suite, prop.name)
    ext = ctx.residue_class == 3  # Q_p(i) literals only exist when it is a field
    for _ in range(samples):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**4)
        x = from_rational(num, den, ctx)
        ok = parse_padic(format_padic(x), ctx) == x
        if ext:
            z = QpiElement(x, from_rational(den, max(1, abs(num)), ctx))
            ok = ok and parse_qpi(format_qpi(z), ctx) == z
        prop.tally(ok, lambda: f"q={num}/{den}")
    out.append(prop.record())

    out.extend(run_float_checks(seed, samples))
    return out


def run_float_checks(seed, samples):
    """Archimedean model of the same loop: formula-level identities in doubles,
    inputs kept 0.1 away from the pole."""
    suite = "oracle"
    out = []
    tol = 1e-12

    def rand_point(rng_):
        r = rng_.uniform(0.0, 0.9)
        t = rng_.uniform(0.0, 2.0 * cmath.pi)
        return r * cmath.exp(1j * t)

    prop = _Prop(suite, "float-identity")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        b = rand_point(rng)
        ok = (
            abs(complex_float_loop(0.0, b) - b) < tol
            and abs(complex_float_loop(b, 0.0) - b) < tol
        )
        prop.tally(ok, lambda: f"b={b!r}")
    out.append(prop.record())

    prop = _Prop(suite, "float-left-inverse")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        a, b = rand_point(rng), rand_point(rng)
        got = complex_float_loop(-a, complex_float_loop(a, b))
        prop.tally(abs(got - b) < tol, lambda: f"a={a!r}; b={b!r}")
    out.append(prop.record())

    prop = _Prop(suite, "float-automorphism")
    rng = _child_rng(seed, suite, prop.name)
    for _ in range(samples):
        a, b = rand_point(rng), rand_point(rng)
        x, y = rand_point(rng), rand_point(rng)
        u = (1 - a * b.conjugate()) / (1 - a.conjugate() * b)
        lhs = u * complex_float_loop(x, y)
        rhs = complex_float_loop(u * x, u * y)
        prop.tally(abs(lhs - rhs) < tol, lambda: f"a={a!r}; b={b!r}; x={x!r}; y={y!r}")
    out.append(prop.record())
    return out


_SUITES = {
    "axioms": run_axioms,
    "analytic": run_analytic,
    "clifford": run_clifford,
    "oracle": run_oracle,
}

# suites whose arithmetic lives in Q_p(i)
EXTENSION_SUITES = ("axioms", "analytic", "clifford")


def run_suite(name, p, prec, seed, samples):
    if name == "all":
        records = []
        for key in ("axioms", "analytic", "clifford", "oracle"):
            records.extend(_SUITES[key](p, prec, seed, samples))
        return records
    return _SUITES[name](p, prec, seed, samples)
