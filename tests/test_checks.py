"""Suite-runner contracts: determinism, record shape, honest skip semantics."""

import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from padic_digits import from_digits, sqrt_digits
from padicloop import checks, clifford, loop
from padicloop.checks import (
    EXTENSION_SUITES,
    _Prop,
    _run_certified,
    _tally_eq,
    _tracked,
    run_analytic,
    run_axioms,
    run_float_checks,
    run_suite,
)
from padicloop.cli import main
from padicloop.clifford import ProjectiveRotation, SpherePoint, Vector3
from padicloop.context import PrimeContext
from padicloop.loop import DiskPoint, loop_add
from padicloop.oracles import GaussianRational
from padicloop.padic import INFINITE, PadicNumber, from_int, sqrt
from padicloop.qpi import QpiElement

C7 = PrimeContext(7, 24)


def test_runs_are_deterministic():
    a = run_suite("axioms", 7, 16, 5, 12)
    b = run_suite("axioms", 7, 16, 5, 12)
    assert a == b


def test_record_schema():
    for rec in run_suite("all", 7, 12, 0, 4):
        assert set(rec) >= {"suite", "property", "samples", "failures"}
        assert rec["samples"] > 0
        assert rec["failures"] == []


def test_extension_suites_list():
    assert set(EXTENSION_SUITES) == {"axioms", "analytic", "clifford"}
    # oracle runs for p = 1 (mod 4) primes too
    assert all(r["failures"] == [] for r in run_suite("oracle", 13, 12, 0, 6))


def test_float_checks_standalone():
    recs = run_float_checks(0, 50)
    assert [r["property"] for r in recs] == [
        "float-identity",
        "float-left-inverse",
        "float-automorphism",
    ]
    assert all(r["failures"] == [] for r in recs)


def narrow_unit(ctx, r):
    # a unit tracked to only r digits
    return QpiElement(from_digits(ctx, 0, [1] * r, m=r))


class TestTallySemantics:
    def test_inequality_is_never_skipped(self):
        # even a hopelessly under-certified pair must count as a failure
        prop = _Prop("t", "x")
        lhs = narrow_unit(C7, 3)
        rhs = lhs + QpiElement(from_int(2, C7))
        counted = _tally_eq(prop, lhs, rhs, floor=20, witness="w")
        assert counted
        assert prop.failures == ["w"]

    def test_equal_but_undercertified_is_skipped(self):
        prop = _Prop("t", "x")
        counted = _tally_eq(prop, narrow_unit(C7, 3), narrow_unit(C7, 3), 20, "w")
        assert not counted
        assert prop.failures == [] and prop.samples == 0

    def test_certified_equal_counts(self):
        prop = _Prop("t", "x")
        one = QpiElement.one(C7)
        assert _tally_eq(prop, one, one, 20, "w")
        assert prop.samples == 1 and prop.failures == []

    def test_exhausted_generator_is_a_failure(self):
        prop = _Prop("t", "x")
        _run_certified(prop, samples=3, draw_and_tally=lambda: False)
        assert prop.failures == ["generator could not certify enough samples"]

    def test_tracked_values(self):
        assert _tracked(PadicNumber.exact_zero(C7)) == INFINITE
        assert _tracked(PadicNumber.zero_mod(C7, 9)) == 9
        assert _tracked(narrow_unit(C7, 5)) == 5
        mixed = QpiElement(PadicNumber.exact_zero(C7), from_int(3, C7))
        assert _tracked(mixed) == from_int(3, C7).r


def test_failure_reports_cap_but_count_everything():
    prop = _Prop("t", "x")
    for k in range(10):
        prop.tally(False, f"w{k}")
    rec = prop.record()
    assert rec["samples"] == 10
    assert rec["failures"] == [f"w{k}" for k in range(6)]


def test_witness_is_built_only_for_recorded_failures():
    built = []

    def witness():
        built.append(1)
        return "w"

    prop = _Prop("t", "x")
    for _ in range(5):
        prop.tally(True, witness)
    assert built == [] and prop.samples == 5
    for _ in range(8):
        prop.tally(False, witness)
    # only the first _MAX_RECORDED failures are kept, so only those are built
    assert len(built) == 6
    assert prop.record()["failures"] == ["w"] * 6


@pytest.mark.parametrize("p", [7, 3, 11])
def test_non_associativity_search_counts_and_caps_like_a_tally(monkeypatch, p):
    # a constant oracle contradicts every nonassociative triple
    monkeypatch.setattr(checks, "gaussian_loop_add", lambda a, b: GaussianRational(0))
    rec = checks._non_associativity_record(PrimeContext(p, 16))
    assert rec["samples"] == 27
    assert "witness" not in rec
    assert 0 < len(rec["failures"]) <= checks._MAX_RECORDED
    assert rec["failures"][-1] == "no witness found in the 27-triple search space"


def nonassociative_triples(ctx):
    """How many of the search's 27 triples associate differently, by the
    plain two-sums-per-side formula."""
    p = ctx.p
    points = [
        DiskPoint(QpiElement.from_rationals(a, 1, b, 1, ctx))
        for a, b in ((p, 0), (0, p), (p, p))
    ]
    return sum(
        not loop_add(loop_add(a, b), c).value.eq_to(loop_add(a, loop_add(b, c)).value)
        for a in points for b in points for c in points
    )


@pytest.mark.parametrize("p", [3, 7, 11])
def test_non_associativity_search_sums_each_pair_once(monkeypatch, p):
    ctx = PrimeContext(p, 16)
    calls = Counter()

    def counted(name, fn):
        def wrapper(a, b):
            calls[name] += 1
            return fn(a, b)
        return wrapper

    monkeypatch.setattr(checks, "loop_add", counted("loop", checks.loop_add))
    monkeypatch.setattr(checks, "gaussian_loop_add", counted("oracle", checks.gaussian_loop_add))
    rec = checks._non_associativity_record(ctx)
    assert rec == {
        "suite": "axioms",
        "property": "non-associativity-witness",
        "samples": 27,
        "failures": [],
        "witness": "(p, pi, p)",
    }
    # nine pair sums, then one more loop_add per association order
    assert calls["loop"] == 9 + 2 * 27
    assert calls["oracle"] <= 9 + 2 * nonassociative_triples(ctx)


class TestTallyPairs:
    def test_any_unequal_pair_is_a_failure(self):
        prop = _Prop("t", "x")
        one = QpiElement.one(C7)
        two = QpiElement(from_int(2, C7))
        assert _tally_eq(prop, (one, one), (one, two), 20, lambda: "w")
        assert prop.failures == ["w"]

    def test_any_undercertified_pair_is_skipped(self):
        prop = _Prop("t", "x")
        one = QpiElement.one(C7)
        narrow = narrow_unit(C7, 3)
        assert not _tally_eq(prop, (one, narrow), (one, narrow), 20, lambda: "w")
        assert prop.samples == 0

    def test_rotation_is_certified_by_alpha(self):
        one = QpiElement.one(C7)
        rotation = ProjectiveRotation(one, QpiElement(PadicNumber.exact_zero(C7)))
        assert _tracked(rotation) == _tracked(rotation.alpha)


# ---- the square-root branch by its leading digit ----


def digit_verdict(s, a):
    """sqrt-round-trip's former comparison: s * s = a, then every digit of a
    nonzero s against the exhaustive Hensel search."""
    if not (s * s).eq_to(a):
        return False
    ctx = s.ctx
    return s.is_zero or s.unit_digits() == sqrt_digits(a.unit % ctx.pow(s.r), ctx.p, s.r)


def judged_roots(rng, ctx):
    """A square a and three roots to judge: sqrt's own, the other branch
    p^r - s, and s with one digit changed."""
    a = checks._rand_padic(rng, ctx, -2, 2)
    a = a * a
    s = sqrt(a)
    other = PadicNumber.make(ctx, s.v, ctx.pow(s.r) - s.unit, s.m)
    j = checks._below(rng, s.r)
    d = s.unit // ctx.pow(j) % ctx.p
    changed = (d + 1 + checks._below(rng, ctx.p - 1)) % ctx.p
    mutated = PadicNumber.make(ctx, s.v, s.unit + (changed - d) * ctx.pow(j), s.m)
    return a, (s, other, mutated)


# squares per prec at p = 10007, where the Hensel search costs about
# p * prec^2 per square; every other (p, prec) draws 24
SQUARES_10007 = {1: 24, 2: 24, 8: 8, 32: 2, 64: 1}


def compare_sqrt_verdicts(seed, scale=1):
    """Per-sample verdicts of the digit comparison and of the leading-digit
    check, on seeded squares over p 3/7/11/10007 and prec 1/2/8/32/64."""
    tally = Counter()
    for p in (3, 7, 11, 10007):
        for prec in (1, 2, 8, 32, 64):
            ctx = PrimeContext(p, prec)
            rng = random.Random(f"{seed}:{p}:{prec}")
            zero = PadicNumber.exact_zero(ctx)
            cases = [(zero, (zero,))]
            n = SQUARES_10007[prec] if p == 10007 else 24
            cases += [judged_roots(rng, ctx) for _ in range(n * scale)]
            for a, roots in cases:
                for s in roots:
                    old, new = digit_verdict(s, a), checks._is_canonical_root(s, a)
                    assert old == new, (p, prec, s, a)
                    tally[old] += 1
    return tally


def test_leading_digit_decides_the_branch_like_every_digit():
    tally = compare_sqrt_verdicts(0)
    assert tally[True] + tally[False] >= 1000
    # sqrt's own root passes, the other branch and a changed digit fail
    assert tally[True] >= 300 and tally[False] >= 600


# ---- a kernel fault is a property failure: exit 1, never exit 2 ----


def doubled_deviation(x1, x2, deviation=loop.deviation):
    u = deviation(x1, x2).factor
    return loop.Deviation(u + u)


def lift_with_3xi(xi):
    """clifford.lift with numerator 3 xi for 2 xi: off the sphere."""
    one = from_int(1, xi.ctx)
    n = xi.norm()
    den = one + n
    z = (xi + xi + xi) / den
    return SpherePoint(Vector3(z.re, z.im, (one - n) / den))


@pytest.mark.parametrize("suite, name, fault, modules, failing", [
    ("axioms", "deviation", doubled_deviation, (loop, checks),
     {"deviation-unimodular", "automorphism-law"}),
    ("clifford", "lift", lift_with_3xi, (clifford, loop, checks),
     {"chart-round-trip", "equivariance"}),
], ids=["deviation-doubled", "lift-3xi"])
def test_kernel_fault_is_reported_as_counterexamples(
    monkeypatch, capsys, suite, name, fault, modules, failing
):
    for module in modules:
        monkeypatch.setattr(module, name, fault)
    code = main(["check", suite, "--p", "7", "--prec", "16", "--samples", "10"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert "    counterexample: " in out
    reported = {
        line.split("/")[1].split(":")[0]
        for line in out.splitlines()
        if line.startswith(suite + "/") and " 0 failures" not in line
    }
    assert failing <= reported


# ---- parked: two digits show no associator ----


@pytest.mark.parametrize("p", [3, 7, 11, 19, 10007])
@pytest.mark.parametrize("prec", [1, 2])
def test_axioms_at_two_digits_find_no_witness(capsys, p, prec):
    # pinned until a round may change exit codes (ROADMAP item 11): at one
    # or two digits both association orders of every triple agree, so the
    # witness search fails and the suite exits 1 with nothing else failing
    code = main(["check", "axioms", "--p", str(p), "--prec", str(prec), "--samples", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("counterexample:") == 1
    assert "    counterexample: no witness found in the 27-triple search space\n" in out
    assert out.endswith("FAIL: 8 properties, 1 failing\n")


# ---- the digit draw keeps randint's stream ----


def reference_rand_padic(rng, ctx, vmin, vmax):
    """The draw written out with randint and from_digits: the stream and the
    values every sampled property and golden file were built on."""
    v = rng.randint(vmin, vmax)
    digits = [rng.randint(1, ctx.p - 1)]
    digits += [rng.randint(0, ctx.p - 1) for _ in range(ctx.precision - 1)]
    return from_digits(ctx, v, digits, m=v + ctx.precision)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10007, 2**31 + 1])
def test_below_draws_what_randint_draws(n):
    fast, slow = random.Random(n), random.Random(n)
    got = [checks._below(fast, n) for _ in range(200)]
    assert got == [slow.randint(0, n - 1) for _ in range(200)]
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("p", [3, 7, 11, 10007])
@pytest.mark.parametrize("prec", [1, 8, 32])
def test_rand_padic_draws_the_randint_stream(p, prec):
    ctx = PrimeContext(p, prec)
    fast, slow = random.Random(f"{p}:{prec}"), random.Random(f"{p}:{prec}")
    for vmin, vmax in ((1, 3), (-3, 3), (0, 2), (2, 2)):
        for _ in range(20):
            got = checks._rand_padic(fast, ctx, vmin, vmax)
            want = reference_rand_padic(slow, ctx, vmin, vmax)
            fields = ("v", "unit", "r", "m", "kind")
            assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert fast.getstate() == slow.getstate()


# ---- pins of the sampled streams ----
#
# checks_witness_golden.json holds every record of `run_suite("all", p, 4,
# 0, 2)` for p = 7 and 3, except the exhaustive non-associativity search
# (cli_golden.json pins that one), with `_Prop.tally` forced to record the
# witness of every sample.  Each witness is built from the drawn sample, so
# a change to any property's RNG stream, draw order or witness text fails
# here.
#
# Regenerate (only when a sampled stream is meant to change):
#     PYTHONPATH=src python tests/test_checks.py --write

WITNESS_GOLDEN = Path(__file__).with_name("checks_witness_golden.json")


def _record_every_witness(self, ok, witness):
    self.samples += 1
    self.failures.append(witness() if callable(witness) else witness)


def witness_records(p):
    return [
        rec for rec in run_suite("all", p, 4, 0, 2)
        if rec["property"] != "non-associativity-witness"
    ]


@pytest.mark.parametrize("p", [7, 3])
def test_every_witness_is_pinned(monkeypatch, p):
    monkeypatch.setattr(_Prop, "tally", _record_every_witness)
    golden = json.loads(WITNESS_GOLDEN.read_text())
    assert witness_records(p) == golden[str(p)]


@pytest.mark.parametrize("p, prec, redrawn", [
    (3, 24, {"deviation-factorization": 1}),
    (3, 12, {"automorphism-law": 2}),
    (7, 8, {}),
])
def test_certified_redraws_are_pinned(monkeypatch, p, prec, redrawn):
    # only the axioms and analytic suites have certified properties
    draws = Counter()
    real = checks._run_certified

    def counting(prop, samples, draw_and_tally):
        def draw():
            draws[prop.name] += 1
            return draw_and_tally()

        real(prop, samples, draw)

    monkeypatch.setattr(checks, "_run_certified", counting)
    records = run_axioms(p, prec, 0, 100) + run_analytic(p, prec, 0, 100)
    assert all(rec["failures"] == [] for rec in records)
    assert len(draws) == 10
    assert {name: n - 100 for name, n in draws.items() if n != 100} == redrawn


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_checks.py --write")
    _Prop.tally = _record_every_witness
    golden = {str(p): witness_records(p) for p in (7, 3)}
    WITNESS_GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
