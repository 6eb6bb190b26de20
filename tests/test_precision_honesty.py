"""Precision honesty: no public operation claims a digit it cannot prove.

Each operation runs twice on the same rationals, at precision N and at
3N + 5.  Every digit the low-precision result claims must agree with the
high-precision one, and the latter must know at least as many digits, so the
comparison covers the whole claim.  An exact zero claims every digit.  One
sample per case gives the low-precision inputs only r <= N digits, so a
result that used digits its inputs did not know shows up as a mismatch.

The aimed cases pick precisions at which a series' precision plan stops at
n = p^k - 1 or p^k, where the base-p digit sum s_p(n) drops and with it the
valuation bound of n!, and check that the plan still stops there.
"""

import random
from fractions import Fraction

import pytest

from padicloop import analytic
from padicloop.analytic import arcsin, arctan, binomial_series, cos, exp, log, sin, tan
from padicloop.clifford import SpherePoint, exp_horizontal, lift, rotation_act, stereo
from padicloop.context import PrimeContext
from padicloop.loop import (
    DiskPoint,
    deviation,
    deviation_apply,
    left_divide,
    loop_add,
    right_solve,
    sphere_loop_add,
)
from padicloop.padic import from_rational, sqrt
from padicloop.qpi import QpiElement

PRIMES = (3, 7, 11)
PRECISIONS = (1, 2, 5, 8, 16)


def rand_rational(rng, p, vmin, spread=2):
    """p^e * num/den with num and den prime to p and e in [vmin, vmin + spread]."""
    num = rng.choice([-1, 1]) * rng.choice([k for k in range(1, 60) if k % p])
    den = rng.choice([k for k in range(1, 60) if k % p])
    return Fraction(num, den) * Fraction(p) ** rng.randint(vmin, vmin + spread)


def rand_gaussian(rng, p, vmin, spread=2):
    im = rand_rational(rng, p, vmin, spread) if rng.random() < 0.8 else Fraction(0)
    return rand_rational(rng, p, vmin, spread), im


def build(g, real, ctx, r):
    """The Gaussian rational g in ctx, as a scalar (its real part) when `real`;
    a nonzero part keeps only r digits when r is given."""

    def part(q):
        x = from_rational(q.numerator, q.denominator, ctx)
        return x if r is None or x.is_zero else x.truncate(x.v + r)

    return part(g[0]) if real else QpiElement(part(g[0]), part(g[1]))


def one_like(x):
    return QpiElement.one(x.ctx) if isinstance(x, QpiElement) else from_rational(1, 1, x.ctx)


def qpi(x):
    return x if isinstance(x, QpiElement) else QpiElement(x)


def real(x):
    return x.re if isinstance(x, QpiElement) else x


def disk(x):
    return DiskPoint(qpi(x))


# name -> (number of inputs, their least valuation, operation)
OPS = {
    "mul": (2, -2, lambda a, b: a * b),
    "norm": (1, -2, lambda x: qpi(x).norm()),
    "sqrt": (1, -2, lambda x: sqrt(real(x) * real(x))),
    "div": (2, -2, lambda a, b: a / b),
    "exp": (1, 1, exp),
    "log": (1, 1, lambda x: log(one_like(x) + x)),
    "sin": (1, 1, sin),
    "cos": (1, 1, cos),
    "tan": (1, 1, tan),
    "arctan": (1, 1, arctan),
    "arcsin": (1, 1, arcsin),
    "binomial-half": (1, 1, lambda x: binomial_series(from_rational(1, 2, x.ctx), x)),
    "loop_add": (2, 1, lambda a, b: loop_add(disk(a), disk(b))),
    "left_divide": (2, 1, lambda a, b: left_divide(disk(a), disk(b))),
    "deviation": (2, 1, lambda a, b: deviation(disk(a), disk(b))),
    "right_solve": (2, 1, lambda a, b: right_solve(disk(a), disk(b))),
    "deviation_apply": (
        3, 1, lambda a, b, x: deviation_apply(deviation(disk(a), disk(b)), disk(x))
    ),
    "lift": (1, 1, lambda x: lift(qpi(x))),
    "stereo-of-lift": (1, 1, lambda x: stereo(lift(qpi(x)))),
    "sphere_loop_add": (2, 1, lambda a, b: sphere_loop_add(lift(qpi(a)), lift(qpi(b)))),
    "rotation_act-exp_horizontal": (
        2, 1, lambda b, x: rotation_act(exp_horizontal(qpi(b)), lift(qpi(x)))
    ),
}


def components(x):
    if isinstance(x, SpherePoint):
        return (x.vec.a, x.vec.b, x.vec.c)
    x = getattr(x, "value", getattr(x, "factor", x))  # DiskPoint, Deviation
    return (x.re, x.im) if isinstance(x, QpiElement) else (x,)


def assert_honest(op, gs, real, p, n, r=None):
    """op at precision n, its inputs' parts known to r <= n digits, against op
    at 3n + 5 on the full rationals."""
    fn = OPS[op][2]
    low = fn(*(build(g, real, PrimeContext(p, n), r) for g in gs))
    high = fn(*(build(g, real, PrimeContext(p, 3 * n + 5), None) for g in gs))
    for a, b in zip(components(low), components(high)):
        where = f"{op} at p={p}, N={n}, r={r}, inputs {gs}: {a} against {b}"
        assert a.eq_to(b), where
        assert a.is_exact_zero or b.is_exact_zero or b.m >= a.m, where


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", PRECISIONS)
@pytest.mark.parametrize("op", OPS)
def test_random_inputs(op, n, p):
    arity, vmin, _ = OPS[op]
    rng = random.Random(f"{op}:{p}:{n}")
    for real, r in ((True, None), (False, None), (False, rng.randint(1, n))):
        gs = [rand_gaussian(rng, p, vmin) for _ in range(arity)]
        assert_honest(op, gs, real, p, n, r)


# (function, p, N, v(x), planned stop index): for each series and prime, the
# smallest N and v(x) in {1, 2} at which the plan stops the series at
# n = p^k - 1 or p^k, for real and Gaussian x alike
AIMED = [
    ("exp", 3, 5, 2, 2), ("exp", 3, 3, 1, 3), ("exp", 3, 14, 2, 8),
    ("exp", 3, 6, 1, 9), ("exp", 3, 41, 2, 26), ("exp", 3, 15, 1, 27),
    ("exp", 3, 42, 1, 81), ("exp", 7, 13, 2, 6), ("exp", 7, 7, 1, 7),
    ("exp", 7, 42, 1, 49), ("exp", 11, 21, 2, 10), ("exp", 11, 11, 1, 11),
    ("log", 3, 3, 1, 3), ("log", 3, 16, 2, 8), ("log", 3, 8, 1, 9),
    ("log", 3, 51, 2, 26), ("log", 3, 25, 1, 27), ("log", 7, 13, 2, 6),
    ("log", 7, 7, 1, 7), ("log", 7, 48, 1, 49), ("log", 11, 21, 2, 10),
    ("log", 11, 11, 1, 11),
    ("sin", 3, 5, 1, 9), ("sin", 3, 14, 1, 27), ("sin", 3, 41, 1, 81),
    ("sin", 7, 6, 1, 7), ("sin", 7, 41, 1, 49), ("sin", 11, 10, 1, 11),
    ("cos", 3, 6, 1, 8), ("cos", 3, 15, 1, 26), ("cos", 3, 42, 1, 80),
    ("cos", 7, 7, 1, 6), ("cos", 7, 42, 1, 48), ("cos", 11, 11, 1, 10),
]


@pytest.mark.parametrize("op, p, n, v, stop", AIMED)
def test_stop_at_a_digit_sum_drop(monkeypatch, op, p, n, v, stop):
    stops = []
    real_plan = analytic._plan

    def recording_plan(*args):
        plan = real_plan(*args)
        if plan:
            stops.append(plan[0])
        return plan

    monkeypatch.setattr(analytic, "_plan", recording_plan)
    rng = random.Random(f"aimed:{op}:{p}:{n}")
    for real in (True, False):
        gs = [(rand_rational(rng, p, v, 0), rand_rational(rng, p, v, 0))]
        stops.clear()
        assert_honest(op, gs, real, p, n)
        assert stops[0] == stop  # the low-precision run plans first
