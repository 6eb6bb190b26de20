"""Seeded property suites behind the `check` subcommand and the acceptance gates.

Each suite returns a list of records {suite, property, samples, failures};
failures carry serialized counterexamples (capped, so a broken build stays
readable).  Each property draws from its own child RNG, derived from
f"{seed}:{suite}:{property}", so every property is reproducible in isolation
and insertion order never matters.

A property is one sample function of that RNG.  To add one, write the function
and list it in its suite through one of two drivers:

- `_sampled`: the function returns (ok, witness), and every draw counts;
- `_certified`: the function returns (lhs, rhs, witness) for an equality, and
  a draw whose equality is certified on too few digits is redrawn.  Only this
  driver redraws.

A witness is the counterexample text, or a zero-argument callable that builds
it only for a recorded failure.
"""

import cmath
import itertools
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


def _below(rng, n):
    """A draw from range(n) by CPython's getrandbits rejection: the value and
    the stream use of rng.randint(0, n - 1), without its argument checks."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _rand_padic(rng, ctx, vmin, vmax):
    """Random v in [vmin, vmax] and N digits; consumes exactly the stream rng.randint would."""
    p = ctx.p
    v = vmin + _below(rng, vmax - vmin + 1)
    unit = 1 + _below(rng, p - 1)
    # _below inlined: a call per digit makes a 32-digit draw 1.5x slower
    getrandbits, k, place = rng.getrandbits, p.bit_length(), p
    for _ in range(ctx.precision - 1):
        d = getrandbits(k)
        while d >= p:
            d = getrandbits(k)
        unit += d * place
        place *= p
    return PadicNumber.make(ctx, v, unit, v + ctx.precision)


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


def _sampled(suite, name, seed, samples, case):
    """The record of `samples` draws of case(rng) -> (ok, witness)."""
    prop = _Prop(suite, name)
    rng = _child_rng(seed, suite, name)
    for _ in range(samples):
        prop.tally(*case(rng))
    return prop.record()


def _certified(suite, name, seed, samples, floor, case):
    """The record of `samples` counted draws of case(rng) -> (lhs, rhs,
    witness), each tallied by _tally_eq with the digit floor `floor`."""
    prop = _Prop(suite, name)
    rng = _child_rng(seed, suite, name)

    def draw_and_tally():
        lhs, rhs, witness = case(rng)
        return _tally_eq(prop, lhs, rhs, floor, witness)

    _run_certified(prop, samples, draw_and_tally)
    return prop.record()


def _padic_witness(**values):
    """The witness "x=...; y=..." naming a sample's scalar inputs."""
    return lambda: "; ".join(f"{name}={format_padic(x)}" for name, x in values.items())


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
    zero = DiskPoint.zero(ctx)
    one = QpiElement.one(ctx)

    def identity(rng):
        x = _rand_disk(rng, ctx)
        ok = loop_add(zero, x).value == x.value and loop_add(x, zero).value == x.value
        return ok, lambda: f"x={x.serialize()}"

    def left_inverse(rng):
        x, e = _rand_disk(rng, ctx), _rand_disk(rng, ctx)
        got = loop_add(-x, loop_add(x, e))
        return got.value, e.value, lambda: f"x={x.serialize()}; e={e.serialize()}"

    def closure(rng):
        x = _rand_disk(rng, ctx, vmin=1, vmax=4)
        y = _rand_disk(rng, ctx, vmin=1, vmax=4)
        s = loop_add(x, y)
        vx, vy = x.value.valuation, y.value.valuation
        ok = s.value.valuation_lower_bound >= min(vx, vy)
        if vx != vy:
            ok = ok and s.value.valuation == min(vx, vy)
        return ok, lambda: f"x={x.serialize()}; y={y.serialize()}"

    def round_trip(rng):
        a, b = _rand_disk(rng, ctx), _rand_disk(rng, ctx)
        there = loop_add(a, left_divide(a, b)).value
        back = left_divide(a, loop_add(a, b)).value
        return (there, back), (b.value, b.value), lambda: f"a={a.serialize()}; b={b.serialize()}"

    def unimodular(rng):
        x1, x2 = _rand_disk(rng, ctx), _rand_disk(rng, ctx)
        u = deviation(x1, x2).factor
        n = u * u.conj()
        ok = u.valuation == 0 and n.eq_to(one) and _tracked(n) >= floor
        return ok, lambda: f"x1={x1.serialize()}; x2={x2.serialize()}"

    def automorphism(rng):
        d = deviation(_rand_disk(rng, ctx), _rand_disk(rng, ctx))
        x, y = _rand_disk(rng, ctx), _rand_disk(rng, ctx)
        lhs = deviation_apply(d, loop_add(x, y))
        rhs = loop_add(deviation_apply(d, x), deviation_apply(d, y))
        return (
            lhs.value,
            rhs.value,
            lambda: f"u={d.serialize()}; x={x.serialize()}; y={y.serialize()}",
        )

    def factorization(rng):
        x1, x2 = _rand_disk(rng, ctx), _rand_disk(rng, ctx)
        lam12 = left_translation_matrix(loop_add(x1, x2))
        path = rotation_compose(
            rotation_compose(lam12.inverse(), left_translation_matrix(x1)),
            left_translation_matrix(x2),
        )
        want = deviation(x1, x2).as_rotation()
        return path, want, lambda: f"x1={x1.serialize()}; x2={x2.serialize()}"

    return [
        _sampled("axioms", "identity-exact", seed, samples, identity),
        _certified("axioms", "left-inverse", seed, samples, floor, left_inverse),
        _sampled("axioms", "closure-ultrametric", seed, samples, closure),
        _certified("axioms", "left-divide-round-trip", seed, samples, floor, round_trip),
        _sampled("axioms", "deviation-unimodular", seed, samples, unimodular),
        _certified("axioms", "automorphism-law", seed, samples, floor, automorphism),
        _certified("axioms", "deviation-factorization", seed, samples, floor, factorization),
        _non_associativity_record(ctx),
    ]


def _non_associativity_record(ctx):
    """Search a, b, c over {p, pi, p(1+i)} for distinct association orders and
    confirm the witness against the exact Gaussian-rational oracle.

    The nine pair sums a + b are computed once, in the loop and in the
    oracle, so each triple costs one sum per association order.
    """
    p = ctx.p
    names = ("p", "pi", "p(1+i)")
    parts = ((p, 0), (0, p), (p, p))
    exact = [GaussianRational(a, b) for a, b in parts]
    points = [DiskPoint(QpiElement.from_rationals(a, 1, b, 1, ctx)) for a, b in parts]
    sums = [[loop_add(a, b) for b in points] for a in points]
    exact_sums = [[gaussian_loop_add(a, b) for b in exact] for a in exact]
    prop = _Prop("axioms", "non-associativity-witness")
    witness = None
    for i, j, k in itertools.product(range(3), repeat=3):
        left = loop_add(sums[i][j], points[k])
        right = loop_add(points[i], sums[j][k])
        if left.value.eq_to(right.value):
            prop.tally(True, None)
            continue
        gl = gaussian_loop_add(exact_sums[i][j], exact[k])
        gr = gaussian_loop_add(exact[i], exact_sums[j][k])
        confirmed = (
            gl != gr
            and _qpi_matches(left.value, gl, p)
            and _qpi_matches(right.value, gr, p)
        )
        triple = f"({names[i]}, {names[j]}, {names[k]})"
        if confirmed and witness is None:
            witness = triple
        prop.tally(confirmed, f"oracle-disagreement at {triple}")
    if witness is None:
        # the verdict takes the last recorded slot if the triples filled them
        prop.failures[_MAX_RECORDED - 1:] = ["no witness found in the 27-triple search space"]
    rec = prop.record()
    if witness is not None:
        rec["witness"] = witness
    return rec


# ---- analytic suite ----


def run_analytic(p, prec, seed, samples):
    ctx = PrimeContext(p, prec)
    floor = max(1, prec - 4)
    one = from_rational(1, 1, ctx)
    terms = 2 * prec + 12  # oracle tail far below every tracked m
    half = Fraction(1, 2)

    def sample(rng, vmax=2):
        return _rand_padic(rng, ctx, 1, vmax)

    def exp_additivity(rng):
        x, y = sample(rng), sample(rng)
        return exp(x + y), exp(x) * exp(y), _padic_witness(x=x, y=y)

    def log_exp(rng):
        x = sample(rng)
        return log(exp(x)), x, _padic_witness(x=x)

    def euler(rng):
        x = sample(rng)
        s, c = sin(x), cos(x)
        lhs = exp(QpiElement(PadicNumber.exact_zero(ctx), x))
        return lhs, QpiElement(c, s), _padic_witness(x=x)

    def pythagoras(rng):
        x = sample(rng)
        s, c = sin(x), cos(x)
        return s * s + c * c, one, _padic_witness(x=x)

    def sin_addition(rng):
        x, y = sample(rng), sample(rng)
        sx, cx = sin(x), cos(x)
        sy, cy = sin(y), cos(y)
        return sin(x + y), sx * cy + cx * sy, _padic_witness(x=x, y=y)

    def cos_addition(rng):
        x, y = sample(rng), sample(rng)
        sx, cx = sin(x), cos(x)
        sy, cy = sin(y), cos(y)
        return cos(x + y), cx * cy - sx * sy, _padic_witness(x=x, y=y)

    def sin_absolute(rng):
        x = sample(rng)
        return sin(x).valuation == x.valuation, _padic_witness(x=x)

    def cos_absolute(rng):
        x = sample(rng)
        return cos(x).valuation == 0, _padic_witness(x=x)

    def sin_isometry(rng):
        x = sample(rng, vmax=3)
        y = sample(rng, vmax=3)
        while (x - y).valuation is None:
            y = sample(rng, vmax=3)
        return (sin(x) - sin(y)).valuation == (x - y).valuation, _padic_witness(x=x, y=y)

    def oracle_digits(rng):
        """Every series-backed function against exact-rational partial sums,
        digit for digit at the tracked precision."""
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
        return not bad, lambda: f"x={q}; functions={','.join(bad)}"

    return [
        _certified("analytic", "exp-additivity", seed, samples, floor, exp_additivity),
        _certified("analytic", "log-exp-round-trip", seed, samples, floor, log_exp),
        _certified("analytic", "euler-formula", seed, samples, floor, euler),
        _certified("analytic", "pythagoras", seed, samples, floor, pythagoras),
        _certified("analytic", "sin-addition", seed, samples, floor, sin_addition),
        _certified("analytic", "cos-addition", seed, samples, floor, cos_addition),
        _sampled("analytic", "sin-absolute-value", seed, samples, sin_absolute),
        _sampled("analytic", "cos-absolute-value", seed, samples, cos_absolute),
        _sampled("analytic", "sin-isometry", seed, samples, sin_isometry),
        _sampled("analytic", "oracle-digits", seed, min(samples, 50), oracle_digits),
    ]


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
    ident = Mat2.identity(ctx)
    two = from_rational(2, 1, ctx)
    i_unit = QpiElement.i_unit(ctx)

    def pauli_square(rng):
        v = _rand_vector(rng, ctx)
        M = iota(v)
        return (M * M).eq_to(ident.scale(quadratic_form(v, v))), lambda: f"v={v.serialize()}"

    def anticommutation(rng):
        u, v = _rand_vector(rng, ctx), _rand_vector(rng, ctx)
        lhs = iota(u) * iota(v) + iota(v) * iota(u)
        rhs = ident.scale(two * quadratic_form(u, v))
        return lhs.eq_to(rhs), lambda: f"u={u.serialize()}; v={v.serialize()}"

    def reflection(rng):
        u = _rand_axis(rng, ctx)
        v = _rand_vector(rng, ctx)
        lhs = iota(reflect(u, v))
        U = iota(u)
        rhs = -(U * iota(v) * U.inverse())
        return lhs.eq_to(rhs), lambda: f"u={u.serialize()}; v={v.serialize()}"

    def double_reflection(rng):
        u, w = _rand_axis(rng, ctx), _rand_axis(rng, ctx)
        v = _rand_vector(rng, ctx)
        image = reflect(u, reflect(w, v))
        ok = quadratic_form(image, image).eq_to(quadratic_form(v, v))
        try:
            ProjectiveRotation.from_clifford_product(u, w)
        except PadicError:
            ok = False
        return ok, lambda: f"u={u.serialize()}; w={w.serialize()}; v={v.serialize()}"

    def chart(rng):
        xi = _rand_disk(rng, ctx).value
        P = lift(xi)
        ok = stereo(P).eq_to(xi)
        ok = ok and lift(stereo(P)).vec.eq_to(P.vec)
        return ok, lambda: f"xi={format_qpi(xi)}"

    def polar(rng):
        theta = _rand_padic(rng, ctx, 1, 3)
        phi = _rand_padic(rng, ctx, 1, 3)
        psi = stereo(polar_point(theta, phi))
        _s, _c, t = sin_cos_tan(theta)
        ok = psi.eq_to(exp(i_unit * phi) * t) and psi.valuation == theta.valuation
        return ok, _padic_witness(theta=theta, phi=phi)

    def equivariance(rng):
        a = _rand_padic(rng, ctx, 1, 2)
        beta = QpiElement(_rand_padic(rng, ctx, 1, 2), _rand_padic(rng, ctx, 1, 2))
        R = rotation_compose(exp_vertical(a), exp_horizontal(beta))
        xi = _rand_disk(rng, ctx).value
        P = lift(xi)
        lhs = stereo(rotation_act(R, P))
        rhs = mobius_action(R, xi)
        return (
            lhs.eq_to(rhs),
            lambda: f"a={format_padic(a)}; beta={format_qpi(beta)}; xi={format_qpi(xi)}",
        )

    return [
        _sampled("clifford", "pauli-square", seed, samples, pauli_square),
        _sampled("clifford", "anticommutation", seed, samples, anticommutation),
        _sampled("clifford", "reflection-conjugation", seed, samples, reflection),
        _sampled("clifford", "double-reflection-rotation", seed, samples, double_reflection),
        _sampled("clifford", "chart-round-trip", seed, samples, chart),
        _sampled("clifford", "polar-chart-value", seed, samples, polar),
        _sampled("clifford", "equivariance", seed, max(1, samples // 5), equivariance),
    ]


# ---- oracle suite (kernel digits plus the Archimedean model) ----


def run_oracle(p, prec, seed, samples):
    ctx = PrimeContext(p, prec)
    ext = ctx.p % 4 == 3  # Q_p(i) literals only exist when it is a field

    def rational_digits(rng):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**4)
        x = from_rational(num, den, ctx)
        q = Fraction(num, den)
        return _digits_match(x, q, p), lambda: f"q={q}"

    def sqrt_round_trip(rng):
        num = rng.randint(1, 10**4) * rng.choice([-1, 1])
        den = rng.randint(1, 10**3)
        x = from_rational(num, den, ctx)
        a = x * x
        s = sqrt(a)
        ok = (s * s).eq_to(a)
        if ok and not s.is_zero:
            ok = s.unit_digits() == sqrt_digits(a.unit % ctx.pow(s.r), p, s.r)
        return ok, lambda: f"q=({num}/{den})^2"

    def parse_format(rng):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**4)
        x = from_rational(num, den, ctx)
        ok = parse_padic(format_padic(x), ctx) == x
        if ext:
            z = QpiElement(x, from_rational(den, max(1, abs(num)), ctx))
            ok = ok and parse_qpi(format_qpi(z), ctx) == z
        return ok, lambda: f"q={num}/{den}"

    return [
        _sampled("oracle", "rational-digit-agreement", seed, samples, rational_digits),
        _sampled("oracle", "sqrt-round-trip", seed, samples, sqrt_round_trip),
        _sampled("oracle", "parse-format-round-trip", seed, samples, parse_format),
        *run_float_checks(seed, samples),
    ]


def run_float_checks(seed, samples):
    """Archimedean model of the same loop: formula-level identities in doubles,
    inputs kept 0.1 away from the pole."""
    tol = 1e-12

    def rand_point(rng):
        r = rng.uniform(0.0, 0.9)
        t = rng.uniform(0.0, 2.0 * cmath.pi)
        return r * cmath.exp(1j * t)

    def identity(rng):
        b = rand_point(rng)
        ok = (
            abs(complex_float_loop(0.0, b) - b) < tol
            and abs(complex_float_loop(b, 0.0) - b) < tol
        )
        return ok, lambda: f"b={b!r}"

    def left_inverse(rng):
        a, b = rand_point(rng), rand_point(rng)
        got = complex_float_loop(-a, complex_float_loop(a, b))
        return abs(got - b) < tol, lambda: f"a={a!r}; b={b!r}"

    def automorphism(rng):
        a, b = rand_point(rng), rand_point(rng)
        x, y = rand_point(rng), rand_point(rng)
        u = (1 - a * b.conjugate()) / (1 - a.conjugate() * b)
        lhs = u * complex_float_loop(x, y)
        rhs = complex_float_loop(u * x, u * y)
        return abs(lhs - rhs) < tol, lambda: f"a={a!r}; b={b!r}; x={x!r}; y={y!r}"

    return [
        _sampled("oracle", "float-identity", seed, samples, identity),
        _sampled("oracle", "float-left-inverse", seed, samples, left_inverse),
        _sampled("oracle", "float-automorphism", seed, samples, automorphism),
    ]


_SUITES = {
    "axioms": run_axioms,
    "analytic": run_analytic,
    "clifford": run_clifford,
    "oracle": run_oracle,
}

# suites whose arithmetic lives in Q_p(i)
EXTENSION_SUITES = ("axioms", "analytic", "clifford")


def run_suite(name, p, prec, seed, samples):
    runs = _SUITES.values() if name == "all" else [_SUITES[name]]
    return [record for run in runs for record in run(p, prec, seed, samples)]
