"""Byte identity of the rectangular-splitting series engine at depth.

exp, sin, cos, tan, log, arctan and arcsin, and binomial for several
exponents, are compared with the same functions composed from the
term-by-term reference in series_reference.py, at N in {256, 512} on p in
{3, 7, 11, 10007} and at N = 1024 on p = 7.
Every component must agree in (kind, v, unit, r, m), the m of exact zeros
included, since a zero component prints as O(p^m).  The inputs cover Q_p
values of valuation 1..3, full, pure-imaginary and real Q_p(i) values,
arithmetic results with r < N, literals longer than N, components with
unequal r and inexact-zero components.  p = 3 runs every class at both
depths; the other grid points run about half of them, so that tier-1 stays
within a few seconds.  A seeded batch of random inputs at N <= 64 then
reaches the edges of the precision plan.  Last, the value step is forced onto
x's small rational form Z / d at every width, and the width rule that keeps
narrow sums off it is pinned, as are arctan's and arcsin's own-series value
step and the engine's Newton inverse.
"""

import random

import pytest

import series_reference as reference
from padic_digits import from_digits
from padicloop import analytic, checks
from padicloop.context import PrimeContext
from padicloop.errors import PadicError
from padicloop.padic import PadicNumber, from_rational
from padicloop.qpi import QpiElement


def _scalar(rng, ctx, v, ndigits):
    digits = [rng.randint(1, ctx.p - 1)]
    digits += [rng.randint(0, ctx.p - 1) for _ in range(ndigits - 1)]
    return from_digits(ctx, v, digits, m=v + ndigits)


def make_input(label, ctx):
    rng = random.Random(f"{label}:{ctx.p}:{ctx.precision}")
    N = ctx.precision
    zero = PadicNumber.exact_zero(ctx)
    if label.startswith("qp_v"):
        return _scalar(rng, ctx, int(label[-1]), N)
    if label == "qpi":
        return QpiElement(_scalar(rng, ctx, 1, N), _scalar(rng, ctx, 2, N))
    if label == "qpi_imag":
        return QpiElement(zero, _scalar(rng, ctx, 1, N))
    if label == "qpi_real":
        return QpiElement(_scalar(rng, ctx, 2, N))
    if label == "arith_short":
        # a sum with a shorter operand: r < N
        return _scalar(rng, ctx, 1, N) + _scalar(rng, ctx, 2, N // 3)
    if label == "qpi_arith_short":
        a = QpiElement(_scalar(rng, ctx, 1, N // 2), _scalar(rng, ctx, 1, N))
        return a * QpiElement(from_rational(1, 1, ctx), _scalar(rng, ctx, 1, N))
    if label == "long_literal":
        return _scalar(rng, ctx, 1, N + 9)
    if label == "qpi_unequal_r":
        return QpiElement(_scalar(rng, ctx, 1, N + 7), _scalar(rng, ctx, 3, N // 2))
    if label == "qpi_inexact_zero":
        return QpiElement(_scalar(rng, ctx, 1, N), PadicNumber.zero_mod(ctx, N + 2))
    raise ValueError(label)


LABELS = (
    "qp_v1", "qp_v2", "qp_v3", "qpi", "qpi_imag", "qpi_real", "arith_short",
    "qpi_arith_short", "long_literal", "qpi_unequal_r", "qpi_inexact_zero",
)
HALF_A = ("qp_v1", "qpi", "qpi_imag", "arith_short", "long_literal", "qpi_inexact_zero")
HALF_B = ("qp_v2", "qp_v3", "qpi_real", "qpi_arith_short", "qpi_unequal_r")

# p = 10007 (6,800-bit units at N = 512) and N = 1024 run cheaper classes
DEPTHS = {
    (3, 256): LABELS,
    (7, 256): LABELS,
    (11, 256): HALF_A,
    (10007, 256): HALF_B,
    (3, 512): LABELS,
    (7, 512): HALF_A,
    (11, 512): HALF_B,
    (10007, 512): ("qp_v3", "arith_short"),
    (7, 1024): ("qpi_real",),
}
CASES = [(p, N, label) for (p, N), labels in DEPTHS.items() for label in labels]

FUNCTIONS = ("exp", "sin", "cos", "tan", "log", "arctan", "arcsin")
FIELDS = ("kind", "v", "unit", "r", "m")


def outcome(fn, x):
    """Per component (kind, v, unit, r, m), or the error raised."""
    if fn is analytic.log or fn is reference.log:
        one = from_rational(1, 1, x.ctx)
        x = QpiElement(one) + x if isinstance(x, QpiElement) else one + x
    try:
        value = fn(x)
    except PadicError as exc:
        return f"{type(exc).__name__}: {exc}"
    comps = (value.re, value.im) if isinstance(value, QpiElement) else (value,)
    return [(c.kind, c.v, c.unit, c.r, c.m) for c in comps]


def mismatched_fields(got, want):
    if isinstance(got, str) or isinstance(want, str):
        return [] if got == want else [(got, want)]
    return [
        (comp, name)
        for comp, (g, w) in enumerate(zip(got, want))
        for name, a, b in zip(FIELDS, g, w)
        if a != b
    ] + ([] if len(got) == len(want) else ["components"])


@pytest.mark.parametrize("p,N,label", CASES, ids=[f"p{p}-N{N}-{lab}" for p, N, lab in CASES])
def test_engine_matches_term_by_term_reference(p, N, label):
    x = make_input(label, PrimeContext(p, N))
    mismatched = {}
    for fn in FUNCTIONS:
        got = outcome(getattr(analytic, fn), x)
        diff = mismatched_fields(got, outcome(reference.FUNCTIONS[fn], x))
        if diff:
            mismatched[fn] = diff
    assert mismatched == {}


def deep_alphas(ctx):
    """1/2, -3, 2 and -5/7 (outside Z_p at p = 7), whose small a/b the engine
    sums, and a random N-digit unit, which keeps the term loop."""
    rng = random.Random(f"alpha:{ctx.p}:{ctx.precision}")
    fixed = [from_rational(a, b, ctx) for a, b in ((1, 2), (-3, 1), (2, 1), (-5, 7))]
    return fixed + [_scalar(rng, ctx, 0, ctx.precision)]


def binomial_mismatches(alphas, x):
    return [
        repr(alpha)
        for alpha in alphas
        if mismatched_fields(
            outcome(lambda y: analytic.binomial_series(alpha, y), x),
            outcome(lambda y: reference.binomial_series(alpha, y), x),
        )
    ]


@pytest.mark.parametrize("p,N,label", CASES, ids=[f"p{p}-N{N}-{lab}" for p, N, lab in CASES])
def test_binomial_matches_term_loop_reference(p, N, label):
    ctx = PrimeContext(p, N)
    alphas = deep_alphas(ctx)
    assert analytic._small_rational(alphas[-1]) is None
    assert binomial_mismatches(alphas, make_input(label, ctx)) == []


@pytest.mark.parametrize("N", [256, 512])
def test_binomial_of_huge_valuation_alpha_matches_term_loop(N):
    # the CLI's `binom 1e10000` at p = 5: alpha has valuation 10000
    ctx = PrimeContext(5, N)
    alpha = from_rational(10**10000, 1, ctx)
    assert analytic._small_rational(alpha) is None
    for label in ("qp_v1", "qp_v3", "arith_short", "long_literal"):
        assert binomial_mismatches([alpha], make_input(label, ctx)) == []
    assert len(ctx._powers) <= 2 * N + 2


@pytest.mark.parametrize("p", [3, 7, 11, 10007])
def test_small_rational_exponents_reach_the_engine(p, monkeypatch):
    ctx = PrimeContext(p, 64)
    reached = []
    value = analytic._binomial_value
    monkeypatch.setattr(
        analytic, "_binomial_value", lambda *args: reached.append(args[1:3]) or value(*args)
    )
    for label in ("qp_v1", "qpi"):
        x = make_input(label, ctx)
        for alpha in deep_alphas(ctx):
            try:
                analytic.binomial_series(alpha, x)
            except PadicError:
                assert p == 7  # -5/7 is outside Z_7
    pairs = [(1, 2), (-3, 1), (2, 1)] + ([] if p == 7 else [(-5, 7)])
    assert reached == pairs * 2


def test_binomial_plan_waits_for_its_dip(monkeypatch):
    # after term 2 the dip lets term 3 stay at valuation 2 (x's v = 1 against
    # the 3 of 3!), where its m could be 2 + R = 6, below the sum's imaginary
    # m = 7, so the plan waits; term 3's factor 1/2 - 2 = -3/2 lifts it to
    # valuation 3, and the plan is proven after it.  No output shows a looser
    # dip (the sum's m never fell after its first term in any input tried),
    # so this pins the term the plan starts from
    ctx = PrimeContext(3, 6)
    x = QpiElement(PadicNumber.make(ctx, 1, 1, 5), PadicNumber.make(ctx, 2, 2, 8))
    half = from_rational(1, 2, ctx)
    proven = []
    plan = analytic._plan

    def recording(total, carrier, n, *rest):
        result = plan(total, carrier, n, *rest)
        if result:
            proven.append(n)
        return result

    monkeypatch.setattr(analytic, "_plan", recording)
    assert binomial_mismatches([half], x) == []
    assert proven == [3]


def _random_component(rng, ctx):
    """A scalar at v 1..3 with 1..N+9 digits, or a zero of either kind with
    a small, N-sized or large m (an exact zero's m prints as O(p^m))."""
    N = ctx.precision
    kind = rng.randrange(8)
    if kind == 0:
        return PadicNumber.exact_zero(ctx, rng.choice((1, 3, N, N + 5)))
    if kind == 1:
        return PadicNumber.zero_mod(ctx, rng.randint(1, N + 5))
    return _scalar(rng, ctx, rng.randint(1, 3), rng.choice((N, N + 7, rng.randint(1, N + 9))))


def random_inputs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        ctx = PrimeContext(rng.choice((3, 7, 11, 19, 10007)), rng.choice((1, 2, 3, 5, 8, 16, 32, 64)))
        a = _random_component(rng, ctx)
        shape = rng.randrange(4)
        if shape == 0:
            x = a
        elif shape == 1:
            # an arithmetic result, whose r can fall below N
            x = a + _random_component(rng, ctx) * from_rational(ctx.p, 1, ctx)
        else:
            x = QpiElement(a, _random_component(rng, ctx))
        if not x.is_exact_zero:
            yield x


def test_engine_matches_reference_on_random_shallow_inputs():
    # small N reaches the plan's edges: series that stop before it, terms that
    # lower m after the first, and exact zeros whose printed m the bound must
    # place
    mismatched = []
    for x in random_inputs(300, seed=4):
        for fn in FUNCTIONS:
            got = outcome(getattr(analytic, fn), x)
            if mismatched_fields(got, outcome(reference.FUNCTIONS[fn], x)):
                mismatched.append((fn, repr(x)))
    assert mismatched == []


def test_every_input_class_runs_at_both_depths():
    for N in (256, 512):
        assert {label for _, n, label in CASES if n == N} == set(LABELS)


def binomial_alphas(rng, ctx):
    """The exponents callers pass (1/2, -3, 2, -5/7, p/2, 0, 5; -5/7 is
    outside Z_p at p = 7) and a random Z_p value with 1..N digits."""
    p, N = ctx.p, ctx.precision
    fixed = ((1, 2), (-3, 1), (2, 1), (-5, 7), (p, 2), (0, 1), (5, 1))
    alphas = [from_rational(a, b, ctx) for a, b in fixed]
    return alphas + [_scalar(rng, ctx, rng.randint(0, 2), rng.randint(1, N))]


def test_binomial_matches_two_carrier_reference():
    # binomial_series carries the term; the reference carries the coefficient
    # and x^n apart.  Every field must agree, exact and inexact zeros included.
    rng = random.Random(8)
    mismatched = []
    for x in random_inputs(200, seed=8):
        for alpha in binomial_alphas(rng, x.ctx):
            got = outcome(lambda y: analytic.binomial_series(alpha, y), x)
            want = outcome(lambda y: reference.binomial_two_carrier(alpha, y), x)
            if mismatched_fields(got, want):
                mismatched.append((repr(alpha), repr(x)))
    assert mismatched == []


@pytest.mark.parametrize("N, v, unit, m", [(14, 1, 4459663, 15), (20, 1, 76, 6)])
def test_factorial_dip_places_an_exact_zero_m(N, v, unit, m):
    # a real value whose exact-zero imaginary part has m = 1, below v(x):
    # with the factorial plan's dip one smaller, sin's imaginary part prints
    # O(3^(m' + 1)) where the term-by-term recurrence prints O(3^m')
    ctx = PrimeContext(3, N)
    x = QpiElement(PadicNumber.make(ctx, v, unit, m), PadicNumber.exact_zero(ctx, 1))
    for fn in ("sin", "tan"):
        assert outcome(getattr(analytic, fn), x) == outcome(reference.FUNCTIONS[fn], x)


def test_exact_zero_part_below_v_reaches_the_engine(monkeypatch):
    # x's exact-zero part has m 0 below v(x) = 1.  In exp's and binomial's
    # first term, 1 * x, the object formula keeps the second of the two exact
    # zeros, im(1) * re(x), so x's m 0 never reaches a term and the plan is
    # proven after one term.  sin starts from x, whose exact zero its terms
    # carry, so it stays on the recurrence.
    ctx = PrimeContext(7, 64)
    x = QpiElement(from_rational(119, 23, ctx), PadicNumber.exact_zero(ctx, 0))
    calls = []
    for name in ("_factorial_value", "_binomial_value"):
        value = getattr(analytic, name)
        monkeypatch.setattr(
            analytic, name, lambda *args, name=name, value=value: calls.append(name) or value(*args)
        )
    for fn in ("exp", "sin"):
        assert outcome(getattr(analytic, fn), x) == outcome(reference.FUNCTIONS[fn], x)
    assert calls == ["_factorial_value"]
    assert binomial_mismatches([from_rational(1, 2, ctx)], x) == []
    assert calls == ["_factorial_value", "_binomial_value"]


def _top_digit_changed(x):
    """x with its last tracked digit moved: the digits below it are still
    those of x, so they reconstruct while all of them do not."""
    return PadicNumber.make(x.ctx, x.v, x.unit + x.ctx.pow(x.r - 1), x.m)


def rational_form_inputs(ctx):
    """Small rationals, real and Gaussian, truncated (r < N), beside an exact
    or inexact zero, and with the top digit changed."""
    p, N = ctx.p, ctx.precision
    a, b = from_rational(3 * p, 5, ctx), from_rational(-2 * p**2, 9 if p == 7 else 7, ctx)
    inputs = [
        a,
        b,
        QpiElement(a, b),
        QpiElement(PadicNumber.exact_zero(ctx), a),
        a.truncate(a.v + max(1, N // 2)),
        QpiElement(b, a.truncate(a.v + max(1, N // 3))),
        QpiElement(a, PadicNumber.exact_zero(ctx, 1)),
        QpiElement(b, PadicNumber.zero_mod(ctx, N + 2)),
    ]
    if N > 1:
        inputs += [_top_digit_changed(a), QpiElement(_top_digit_changed(b), a)]
    return inputs


def _record_forms(monkeypatch):
    """Each result of analytic._rational_form from now on, None for an
    attempt that found no form."""
    forms = []
    rational_form = analytic._rational_form
    monkeypatch.setattr(
        analytic, "_rational_form", lambda *args: forms.append(rational_form(*args)) or forms[-1]
    )
    return forms


def test_rational_form_matches_reference_when_forced(monkeypatch):
    # with the width rule at 0 every planned sum tries x's small rational
    # form; Z / d and x's representative are both lifts of x modulo each
    # component's m, so every field must still be the reference's
    monkeypatch.setattr(analytic, "_RATIONAL_BITS", 0)
    forms = _record_forms(monkeypatch)
    mismatched = []
    for p in (3, 7, 11, 10007):
        for N in (1, 3, 12, 40, 100):
            ctx = PrimeContext(p, N)
            alphas = [from_rational(a, b, ctx) for a, b in ((1, 2), (-3, 1), (5, 7))]
            for x in rational_form_inputs(ctx):
                for fn in FUNCTIONS:
                    got = outcome(getattr(analytic, fn), x)
                    if mismatched_fields(got, outcome(reference.FUNCTIONS[fn], x)):
                        mismatched.append((fn, repr(x)))
                if binomial_mismatches(alphas, x):
                    mismatched.append(("binomial", repr(x)))
    assert mismatched == []
    # both outcomes of the attempt, and denominators d > 1, were exercised
    assert None in forms
    assert sum(form[1] > 1 for form in forms if form) > 100


def test_small_rational_checks_every_digit():
    # 3/5 at p 7 to 40 digits, then with digit 39 moved: modulo p^k, the
    # least power above 2 bound^2, both are 3/5, and only the check against
    # all r digits tells them apart
    ctx = PrimeContext(7, 40)
    x = from_rational(3, 5, ctx)
    assert analytic._small_rational(x, 100) == (3, 5)
    assert analytic._small_rational(_top_digit_changed(x), 100) is None
    assert analytic._small_rational(_top_digit_changed(x).truncate(39), 100) == (3, 5)
    # a bound too small for the pair, and the default bound on alpha
    assert analytic._small_rational(x, 5) is None
    big = from_rational(-(1 << 20), 3, ctx)
    assert analytic._small_rational(big) is None
    assert analytic._small_rational(big, 1 << 21) == (-(1 << 20), 3)


def test_rational_form_is_tried_only_on_wide_sums(monkeypatch):
    # the width rule: at prec 32 no planned sum attempts the form, not even
    # on a small rational; at p 7, prec 512 x = 21/5 reaches it and an
    # N-digit random x does not
    forms = _record_forms(monkeypatch)
    rng = random.Random(20)
    for p, N in ((7, 32), (3, 32), (7, 512)):
        ctx = PrimeContext(p, N)
        half = from_rational(1, 2, ctx)
        small, rand = from_rational(21, 5, ctx), checks._rand_padic(rng, ctx, 1, 3)
        for x, want in ((small, ((21, 0), 5)), (rand, None)):
            del forms[:]
            for fn in ("exp", "sin", "log"):
                assert outcome(getattr(analytic, fn), x) == outcome(reference.FUNCTIONS[fn], x)
            assert binomial_mismatches([half], x) == []
            assert forms == ([] if N == 32 else [want] * 4)


def test_small_rational_of_negative_valuation_is_none():
    # no a/b with b prime to p has valuation below 0
    ctx = PrimeContext(7, 40)
    assert analytic._small_rational(from_rational(-5, 21, ctx)) is None
    assert analytic._small_rational(from_rational(-5, 21 * 49, ctx), 1 << 60) is None
    assert analytic._small_rational(from_rational(-5, 3, ctx)) == (-5, 3)


def _count_inverses(monkeypatch):
    """Calls of PrimeContext.inv_mod (Euclid) and inv_lift (Newton) from now
    on, by name."""
    calls = {"inv_mod": 0, "inv_lift": 0}
    for name in calls:
        method = getattr(PrimeContext, name)

        def counted(ctx, u, k, name=name, method=method):
            calls[name] += 1
            return method(ctx, u, k)

        monkeypatch.setattr(PrimeContext, name, counted)
    return calls


def test_engine_inverts_by_lifting_and_division_by_euclid(monkeypatch):
    # each planned sum ends with one Newton inverse of its factorial- or
    # lcm-type unit; Q_p(i) division (tan's s / c, arctan's (1 + ix) /
    # (1 - ix)) keeps inv_mod, which is faster on a small rational's unit
    ctx = PrimeContext(7, 64)
    x = QpiElement(from_rational(21, 5, ctx), from_rational(-14, 3, ctx))
    calls = _count_inverses(monkeypatch)
    want = {
        "exp": (0, 1), "sin": (0, 1), "cos": (0, 1), "tan": (1, 2), "log": (0, 1),
        "arctan": (1, 1), "arcsin": (0, 2),
    }
    for fn, (euclid, newton) in want.items():
        want_outcome = outcome(reference.FUNCTIONS[fn], x)
        calls.update(inv_mod=0, inv_lift=0)
        assert outcome(getattr(analytic, fn), x) == want_outcome
        assert (fn, calls["inv_mod"], calls["inv_lift"]) == (fn, euclid, newton)
    calls.update(inv_mod=0, inv_lift=0)
    analytic.binomial_series(from_rational(1, 2, ctx), x)
    x / (x + from_rational(1, 1, ctx))
    assert calls == {"inv_mod": 1, "inv_lift": 1}


def own_series_inputs():
    """rational_form_inputs on p 3, 7, 11, 19 and 10007 at N 1-100, then
    seeded random inputs: real and Gaussian, truncated, with exact- and
    inexact-zero parts."""
    for p in (3, 7, 11, 19, 10007):
        for N in (1, 2, 5, 17, 40, 100):
            yield from rational_form_inputs(PrimeContext(p, N))
    yield from random_inputs(200, seed=22)


@pytest.mark.parametrize("forced", [False, True], ids=["width-rule", "forced-form"])
def test_arctan_and_arcsin_own_series_match_reference(forced, monkeypatch):
    # log's plan fixes the stop and every m; the value is then arctan's or
    # arcsin's own series at x (analytic._odd_value), which must give the
    # composed reference's every field, with the width rule as it is and
    # with every planned sum on x's small rational form
    if forced:
        monkeypatch.setattr(analytic, "_RATIONAL_BITS", 0)
    forms = _record_forms(monkeypatch)
    own = []
    odd_value = analytic._odd_value
    monkeypatch.setattr(
        analytic, "_odd_value", lambda *args: own.append(args[3]) or odd_value(*args)
    )
    mismatched = []
    for x in own_series_inputs():
        for fn in ("arctan", "arcsin"):
            got = outcome(getattr(analytic, fn), x)
            if mismatched_fields(got, outcome(reference.FUNCTIONS[fn], x)):
                mismatched.append((fn, repr(x)))
    assert mismatched == []
    assert own.count(False) > 150 and own.count(True) > 150
    if forced:
        assert sum(form[1] > 1 for form in forms if form) > 100
