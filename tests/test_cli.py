"""CLI surface: grammar, dispatch, exit codes, deterministic check reports."""

import json
import time
from fractions import Fraction

import pytest

from padicloop import checks
from padicloop.cli import MAX_DECIMAL_EXPONENT, MAX_PREC, MAX_SAMPLES, main
from padicloop.context import MAX_PRIME, PrimeContext
from padicloop.expr import MAX_DEPTH, evaluate
from padicloop.oracles import GaussianRational, series_partial_sum
from padicloop.padic import from_int, from_rational
from padicloop.qpi import QpiElement, parse_qpi


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArith:
    def test_rational_sum(self, capsys):
        code, out, _ = run_cli(capsys, "arith", "1/3 + 2/3", "--p", "7")
        assert code == 0
        assert out == "1 + O(7^32)\n"

    def test_sqrt_two_leading_digit(self, capsys):
        code, out, _ = run_cli(capsys, "arith", "sqrt(2)", "--p", "7")
        assert code == 0
        assert out.startswith("3 + ")

    def test_sqrt_seven_odd_valuation(self, capsys):
        code, out, err = run_cli(capsys, "arith", "sqrt(7)", "--p", "7")
        assert code == 2
        assert out == ""
        assert "NonSquare" in err

    def test_parse_error_names_rule(self, capsys):
        code, _, err = run_cli(capsys, "arith", "2 $ 2")
        assert code == 2
        assert "ParseError" in err

    @pytest.mark.parametrize("expr", [
        "(" * 5000 + "1" + ")" * 5000,
        "0+" + "-" * 5000 + "1",
        "sqrt(" * 5000 + "4" + ")" * 5000,
    ], ids=["parentheses", "unary-minus", "sqrt"])
    def test_deep_nesting_is_a_parse_error(self, capsys, expr):
        code, out, err = run_cli(capsys, "arith", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ParseError: expression nested more than")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("expr", ["(", "1+", "-", "sqrt(", "1*"])
    def test_truncated_expression_is_end_of_input(self, capsys, expr):
        assert run_cli(capsys, "arith", expr) == (
            2, "", "error: ParseError: unexpected end of expression\n"
        )

    @pytest.mark.parametrize("expr", [
        "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH,
        "0+" + "-" * MAX_DEPTH + "1",
        "sqrt(" * (MAX_DEPTH // 2) + "(" * (MAX_DEPTH // 2) + "1" + ")" * MAX_DEPTH,
    ], ids=["parentheses", "unary-minus", "sqrt"])
    def test_nesting_at_the_limit_evaluates(self, capsys, expr):
        assert run_cli(capsys, "arith", expr) == (0, "1 + O(7^32)\n", "")

    def test_far_addend_keeps_power_cache_small(self):
        ctx = PrimeContext(7, 32)
        assert str(evaluate("1 + 7^16000", ctx)) == "1 + O(7^32)"
        assert str(evaluate("7^16000 + 1", ctx)) == "1 + O(7^32)"
        assert len(ctx._powers) <= ctx.precision + 2

    def test_extension_literal(self, capsys):
        code, out, _ = run_cli(capsys, "arith", "(2 + i)*(2 - i)", "--prec", "4")
        assert code == 0
        assert out == "5 + O(7^4)\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "arith", "1 + 1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"result": "2 + O(7^32)"}

    def test_canonical_output_reparses(self, capsys):
        code, out, _ = run_cli(capsys, "arith", "(3 + 2*i)/(1 - 7*i)", "--prec", "8")
        assert code == 0
        ctx = PrimeContext(7, 8)
        want = (QpiElement(from_int(3, ctx), from_int(2, ctx))
                / QpiElement(from_int(1, ctx), from_int(-7, ctx)))
        assert parse_qpi(out.strip(), ctx).eq_to(want)


class TestAnalytic:
    def test_exp_zero(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "exp", "0")
        assert code == 0
        assert out == "1 + O(7^32)\n"

    def test_exp_unit_rejected(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "exp", "1", "--p", "7")
        assert code == 2
        assert "EXP_DISK" in err

    def test_sin_matches_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "sin", "7", "--p", "7", "--prec", "12")
        assert code == 0
        ctx = PrimeContext(7, 12)
        got = evaluate(out.strip(), ctx)
        want = series_partial_sum("sin", GaussianRational(7), 40).re
        x = from_rational(want.numerator, want.denominator, ctx)
        assert got.re.eq_to(x, m_cap=got.re.m)

    def test_binom_two_args(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "binom", "1/2", "7", "--prec", "10")
        assert code == 0
        ctx = PrimeContext(7, 10)
        r = evaluate(out.strip(), ctx).re
        assert (r * r).eq_to(from_int(8, ctx), m_cap=r.m - 1)

    def test_binom_arity_enforced(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "binom", "1/2")
        assert code == 2
        assert "two arguments" in err

    def test_single_arg_arity_enforced(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "exp", "1", "2")
        assert code == 2
        assert "one argument" in err


class TestLoop:
    def test_add_identity_echo(self, capsys):
        code, out, _ = run_cli(capsys, "loop", "add", "0", "(7)+(7)*i", "--prec", "6")
        assert code == 0
        ctx = PrimeContext(7, 6)
        assert evaluate(out.strip(), ctx).eq_to(
            QpiElement(from_int(7, ctx), from_int(7, ctx))
        )

    def test_dev_unimodular(self, capsys):
        code, out, _ = run_cli(capsys, "loop", "dev", "(7)", "(7)*i", "--prec", "8")
        assert code == 0
        ctx = PrimeContext(7, 8)
        u = evaluate(out.strip(), ctx)
        assert u.valuation == 0
        assert (u * u.conj()).eq_to(QpiElement.one(ctx))

    def test_unit_operand_rejected(self, capsys):
        code, _, err = run_cli(capsys, "loop", "add", "(1)", "(7)")
        assert code == 2
        assert "OutsideDisk" in err

    def test_rsolve_solves(self, capsys):
        code, out, _ = run_cli(capsys, "loop", "rsolve", "7", "14*i", "--prec", "8")
        assert code == 0
        ctx = PrimeContext(7, 8)
        y = evaluate(out.strip(), ctx)
        a = QpiElement(from_int(7, ctx))
        b = QpiElement(from_int(0, ctx), from_int(14, ctx))
        got = (y + a) / (QpiElement.one(ctx) - y.conj() * a)
        assert got.eq_to(b, m_cap=6)

    def test_wrong_prime_class_rejected(self, capsys):
        code, _, err = run_cli(capsys, "loop", "add", "5", "10", "--p", "5")
        assert code == 2
        assert "3 (mod 4)" in err


class TestCheck:
    def test_axioms_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "axioms", "--samples", "20", "--p", "7", "--seed", "0"
        )
        assert code == 0
        assert out.endswith("PASS: 8 properties, 0 failing\n")
        assert "witness" in out

    def test_non_prime_rejected(self, capsys):
        code, _, err = run_cli(capsys, "check", "all", "--p", "9")
        assert code == 2
        assert "prime" in err

    def test_large_prime_accepted_quickly(self, capsys):
        # 10^14 + 31 is prime and 3 (mod 4); trial division took about 0.8 s
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "arith", "1/3", "--p", str(10**14 + 31), "--prec", "2"
        )
        assert code == 0
        assert out.endswith(" + O(100000000000031^2)\n")
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("p", [
        (10**7 + 19) * (10**14 + 31),  # composite whose least factor is 10^7 + 19
        MAX_PRIME,  # beyond the bound where the primality test is proven
        10**400 + 1,
    ], ids=["large-factors", "at-bound", "huge"])
    def test_unprovable_or_composite_p_is_an_input_error(self, capsys, p):
        code, out, err = run_cli(capsys, "arith", "1", "--p", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error: PadicError: p must be")
        assert err.count("\n") == 1

    def test_wrong_class_rejected_for_loop_suites(self, capsys):
        code, _, err = run_cli(capsys, "check", "axioms", "--p", "5")
        assert code == 2
        assert "3 (mod 4)" in err

    def test_oracle_suite_runs_on_any_odd_prime(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "oracle", "--p", "5", "--samples", "10"
        )
        assert code == 0
        assert "PASS" in out

    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "oracle", "--samples", "5", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert records
        for r in records:
            assert set(r) >= {"suite", "property", "samples", "failures"}
            assert r["failures"] == []

    def test_plain_output_deterministic(self, capsys):
        argv = ("check", "all", "--p", "7", "--seed", "3", "--samples", "8")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_samples(self, capsys):
        _, out1, _ = run_cli(capsys, "check", "axioms", "--samples", "5", "--seed", "1")
        _, out2, _ = run_cli(capsys, "check", "axioms", "--samples", "5", "--seed", "2")
        # reports agree in shape; the sampled points differ behind the scenes
        assert out1 == out2

    def test_records_sorted_by_suite_and_property(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "all", "--samples", "2", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        keys = [(r["suite"], r["property"]) for r in records]
        assert keys == sorted(keys)


class TestCaps:
    def test_prec_at_cap_runs(self, capsys):
        code, out, _ = run_cli(capsys, "arith", "1/3", "--p", "7", "--prec", str(MAX_PREC))
        assert code == 0
        assert out.endswith(f" + O(7^{MAX_PREC})\n")

    @pytest.mark.parametrize("argv", [
        ("arith", "1"),
        ("analytic", "exp", "7"),
        ("loop", "add", "7", "7*i"),
        ("check", "oracle", "--samples", "1"),
    ], ids=["arith", "analytic", "loop", "check"])
    def test_prec_above_cap_is_an_input_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--prec", str(MAX_PREC + 1))
        assert code == 2
        assert out == ""
        assert err == f"error: ParseError: --prec must be at most {MAX_PREC}\n"

    def test_samples_at_cap_reaches_the_suite(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(
            checks, "run_suite", lambda suite, p, prec, seed, samples: seen.append(samples) or []
        )
        code, out, _ = run_cli(capsys, "check", "oracle", "--samples", str(MAX_SAMPLES))
        assert code == 0
        assert seen == [MAX_SAMPLES]
        assert out == "PASS: 0 properties, 0 failing\n"

    def test_samples_above_cap_is_an_input_error(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(checks, "run_suite", lambda *args: seen.append(args) or [])
        code, out, err = run_cli(capsys, "check", "oracle", "--samples", str(MAX_SAMPLES + 1))
        assert code == 2
        assert out == ""
        assert err == f"error: ParseError: --samples must be at most {MAX_SAMPLES}\n"
        assert seen == []

    @pytest.mark.parametrize("alpha, shown", [
        ("1/2", "1 + 4*7 + 2*7^2 + 1*7^3 + O(7^4)"),
        ("0.5", "1 + 4*7 + 2*7^2 + 1*7^3 + O(7^4)"),
        ("5e-1", "1 + 4*7 + 2*7^2 + 1*7^3 + O(7^4)"),
        ("-3", "1 + 4*7 + 5*7^2 + 4*7^3 + O(7^4)"),
        ("1e-5000", "1 + 4*7 + 2*7^2 + 4*7^3 + O(7^4)"),
        (f"1e-{MAX_DECIMAL_EXPONENT}", "1 + 2*7 + 6*7^2 + 1*7^3 + O(7^4)"),
    ])
    def test_binom_exponent_within_cap_keeps_its_digits(self, capsys, alpha, shown):
        code, out, _ = run_cli(capsys, "analytic", "binom", alpha, "7", "--prec", "4")
        assert code == 0
        assert out == shown + "\n"

    @pytest.mark.parametrize("alpha", [
        "1e-10000000", f"1E+{MAX_DECIMAL_EXPONENT + 1}", " 1.5e-1_000_000 ",
    ])
    def test_binom_decimal_exponent_above_cap_is_an_input_error(self, capsys, alpha):
        code, out, err = run_cli(capsys, "analytic", "binom", alpha, "7", "--prec", "4")
        assert code == 2
        assert out == ""
        assert err == (
            "error: ParseError: binom exponent: the power of ten after e must lie in "
            f"[-{MAX_DECIMAL_EXPONENT}, {MAX_DECIMAL_EXPONENT}]\n"
        )


class TestPrimeClass:
    """Every command that evaluates in Q_p(i) rejects p = 1 (mod 4) with exit
    2, empty stdout and one error line."""

    @pytest.mark.parametrize("argv", [
        ("arith", "1/3", "--p", "5"),
        ("analytic", "exp", "5", "--p", "5"),
        ("loop", "add", "13", "13*i", "--p", "13"),
        ("check", "axioms", "--p", "13", "--samples", "1"),
    ], ids=["arith", "analytic", "loop", "check"])
    def test_p_1_mod_4_is_an_input_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "3 (mod 4)" in err


class TestExactZeroDisplay:
    """These bytes are pinned on purpose, pending a later round: the display
    m of an exact zero depends on the path that made it (through the zero
    branch of scalar multiplication in Q_p(i) division), so equal values print
    different O-terms.  A change that makes them agree must update this test
    deliberately."""

    @pytest.mark.parametrize("expr, shown", [
        ("0", "O(7^4)\n"),
        ("0/7", "O(7^7)\n"),
        ("(0*i)/7", "O(7^11)\n"),
    ])
    def test_path_dependent_m_is_pinned(self, capsys, expr, shown):
        assert run_cli(capsys, "arith", expr, "--p", "7", "--prec", "4") == (0, shown, "")
