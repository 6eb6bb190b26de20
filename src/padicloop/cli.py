"""Command-line surface: expression arithmetic, analytic functions, the disk
loop, and the seeded property-check suites.

Exit codes: 0 success, 1 property failure in `check`, 2 input or domain error.
Plain output is deterministic for fixed flags and seed.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from . import checks
from .analytic import arcsin, arctan, binomial_series, cos, exp, log, sin, tan
from .context import PrimeContext
from .errors import PadicError, ParseError
from .expr import evaluate
from .loop import DiskPoint, deviation, left_divide, loop_add, right_solve
from .padic import MAX_LITERAL_DIGITS, format_padic, from_rational
from .qpi import QpiElement, format_qpi, require_prime_class

# work and memory grow with both, so each is bounded where input enters
MAX_PREC = 8192
MAX_SAMPLES = 100000
# Fraction expands binom's decimal exponent into a power of ten, whose size
# grows with the exponent; at p = 5 that power is also alpha's valuation
MAX_DECIMAL_EXPONENT = 10000

_ANALYTIC_FNS = {
    "exp": exp,
    "log": log,
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "arctan": arctan,
    "arcsin": arcsin,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=7, help="working prime (default 7)")
    common.add_argument(
        "--prec", type=int, default=32,
        help=f"significant digits (default 32, at most {MAX_PREC})",
    )
    common.add_argument(
        "--seed", type=int, default=0, help="RNG seed for check suites (default 0)"
    )
    common.add_argument(
        "--format",
        choices=("plain", "json"),
        default="plain",
        dest="fmt",
        help="output format",
    )

    parser = argparse.ArgumentParser(
        prog="padicloop",
        description="Exact p-adic arithmetic, analytic functions, and the "
        "nonassociative disk loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_arith = sub.add_parser("arith", parents=[common], help="evaluate an expression")
    p_arith.add_argument("expr", help="expression over p-adic / Q_p(i) literals")

    p_analytic = sub.add_parser(
        "analytic", parents=[common], help="apply an analytic function"
    )
    p_analytic.add_argument("fn", choices=sorted(_ANALYTIC_FNS) + ["binom"])
    p_analytic.add_argument(
        "args",
        nargs="+",
        help="argument literal; binom takes an exponent rational then the point",
    )

    p_loop = sub.add_parser("loop", parents=[common], help="disk loop operations")
    p_loop.add_argument("op", choices=("add", "ldiv", "rsolve", "dev"))
    p_loop.add_argument("a")
    p_loop.add_argument("b")

    p_check = sub.add_parser("check", parents=[common], help="run property suites")
    p_check.add_argument(
        "suite", choices=("axioms", "analytic", "clifford", "oracle", "all")
    )
    p_check.add_argument(
        "--samples", type=int, default=200,
        help=f"samples per property (default 200, at most {MAX_SAMPLES})",
    )
    return parser


def _context(args):
    if args.prec > MAX_PREC:
        raise ParseError(f"--prec must be at most {MAX_PREC}")
    return PrimeContext(args.p, args.prec)


def _print_value(z, fmt):
    text = format_qpi(z) if isinstance(z, QpiElement) else format_padic(z)
    if fmt == "json":
        print(json.dumps({"result": text}))
    else:
        print(text)


def _cmd_arith(args):
    ctx = _context(args)
    _print_value(evaluate(args.expr, ctx), args.fmt)
    return 0


def _as_scalar_or_qpi(z):
    return z.re if z.im.is_exact_zero else z


def _cmd_analytic(args):
    ctx = _context(args)
    if args.fn == "binom":
        if len(args.args) != 2:
            raise ParseError("binom takes two arguments: exponent and point")
        alpha_text, x_text = args.args
        # Fraction reads each digit run with int(), which refuses over 4300
        if any(len(run.replace("_", "")) > MAX_LITERAL_DIGITS
               for run in re.findall(r"\d+(?:_\d+)*", alpha_text)):
            raise ParseError(f"binom exponent: a number over {MAX_LITERAL_DIGITS} digits")
        e = re.search(r"e([-+]?\d+(?:_\d+)*)\s*$", alpha_text, re.IGNORECASE)
        if e and abs(int(e.group(1))) > MAX_DECIMAL_EXPONENT:
            raise ParseError(
                f"binom exponent: the power of ten after e must lie in "
                f"[-{MAX_DECIMAL_EXPONENT}, {MAX_DECIMAL_EXPONENT}]"
            )
        frac = Fraction(alpha_text)  # plain rational exponent, e.g. 1/2
        alpha = from_rational(frac.numerator, frac.denominator, ctx)
        x = _as_scalar_or_qpi(evaluate(x_text, ctx))
        result = binomial_series(alpha, x)
    else:
        if len(args.args) != 1:
            raise ParseError(f"{args.fn} takes exactly one argument")
        x = _as_scalar_or_qpi(evaluate(args.args[0], ctx))
        result = _ANALYTIC_FNS[args.fn](x)
    _print_value(result, args.fmt)
    return 0


def _cmd_loop(args):
    ctx = _context(args)
    a = DiskPoint(evaluate(args.a, ctx))
    b = DiskPoint(evaluate(args.b, ctx))
    if args.op == "add":
        value = loop_add(a, b).value
    elif args.op == "ldiv":
        value = left_divide(a, b).value
    elif args.op == "rsolve":
        value = right_solve(a, b).value
    else:
        value = deviation(a, b).factor
    _print_value(value, args.fmt)
    return 0


def _cmd_check(args):
    ctx = _context(args)
    if args.suite in checks.EXTENSION_SUITES or args.suite == "all":
        require_prime_class(ctx)
    if args.samples < 1:
        raise ParseError("--samples must be at least 1")
    if args.samples > MAX_SAMPLES:
        raise ParseError(f"--samples must be at most {MAX_SAMPLES}")
    records = checks.run_suite(args.suite, args.p, args.prec, args.seed, args.samples)
    records.sort(key=lambda r: (r["suite"], r["property"]))
    failing = sum(1 for r in records if r["failures"])
    if args.fmt == "json":
        print(json.dumps(records, indent=2))
    else:
        for r in records:
            note = f"  [witness {r['witness']}]" if "witness" in r else ""
            print(
                f"{r['suite']}/{r['property']}: {r['samples']} samples, "
                f"{len(r['failures'])} failures{note}"
            )
            for counterexample in r["failures"]:
                print(f"    counterexample: {counterexample}")
        verdict = "PASS" if failing == 0 else "FAIL"
        print(f"{verdict}: {len(records)} properties, {failing} failing")
    return 0 if failing == 0 else 1


_COMMANDS = {
    "arith": _cmd_arith,
    "analytic": _cmd_analytic,
    "loop": _cmd_loop,
    "check": _cmd_check,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PadicError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
