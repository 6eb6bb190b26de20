#!/usr/bin/env python3
"""Standing mutation gate: each mutant weakens one precision rule or one
formula, and some tier-1 test must notice.

    python tests/mutation_gate.py

For each entry the script copies src/ to a temporary directory, replaces the
entry's old text, which must occur exactly once, by its new text, and runs the
entry's test files against the copy.  Before any mutant, the same copy runs
unmutated against every listed test file, so a test that fails for another
reason cannot pass for a kill.  The exit status is 0 when every mutant made a
test fail, 1 otherwise.

This file is not collected by pytest.  Never delete an entry to make the gate
pass: a mutant that survives is a bound no test pins (see ROADMAP.md).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SERIES = (
    "tests/test_series_deep.py",
    "tests/test_precision_honesty.py",
    "tests/test_series_golden.py",
    "tests/test_analytic.py",
)

# name -> (file under src/padicloop, old text, new text, test files)
MUTANTS = {
    "factorial-dip-minus-1": (
        "analytic.py",
        "_digit_sum(n, p) // (p - 1) - 1)",
        "_digit_sum(n, p) // (p - 1) - 2)",
        SERIES,
    ),
    "binomial-tail-plus-1": (
        "analytic.py", "return (n + 1) * lb\n", "return (n + 1) * lb + 1\n", SERIES,
    ),
    "binomial-dip-minus-1": (
        "analytic.py",
        "dip = _digit_sum(n, p) // (p - 1) - 1\n",
        "dip = _digit_sum(n, p) // (p - 1) - 2\n",
        SERIES,
    ),
    "disk-check-accepts-units": (
        "analytic.py",
        "if x.valuation_lower_bound < 1:",
        "if x.valuation_lower_bound < 0:",
        ("tests/test_analytic.py",),
    ),
    "plan-final-m-plus-1": (
        "analytic.py", "min(mc, t) for mc in frozen", "t + 1 for mc in frozen", SERIES,
    ),
    "plan-carrier-R-dropped": (
        "analytic.py",
        "R = min(min(c.m for c in _comps(carrier) if not c.is_exact_zero) - E, N)",
        "R = N",
        SERIES,
    ),
    "plan-carrier-Q-dropped": (
        "analytic.py",
        "Q = min([N] + [c.m - E for c in _comps(carrier) if c.is_exact_zero])",
        "Q = N",
        SERIES,
    ),
    "rational-form-unverified": (
        "analytic.py",
        " or (t1 * alpha.unit - r1) % ctx.pow(alpha.r):",
        ":",
        SERIES,
    ),
    "rational-form-den-power": (
        "analytic.py",
        "gaussian_product(Z, turn), P), k + 1",
        "gaussian_product(Z, turn), P), k",
        SERIES,
    ),
    # the value step's block weights: each later block's d^s, and log's
    # block weights L / M
    "rect-weights-drop-d": (
        "analytic.py", "later = later * (q * D) % P", "later = later * q % P", SERIES,
    ),
    "log-block-weight-dropped": (
        "analytic.py", "w = later * w % P", "w = later % P", SERIES,
    ),
    "own-series-stop-minus-1": (
        "analytic.py", "stop = 2 * K + 1", "stop = 2 * K - 1", SERIES,
    ),
    "arctan-turn-sign": (
        "analytic.py", "(0, 2)", "(0, -2)", SERIES,
    ),
    "newton-lifts-half": (
        "context.py",
        "pj = self.pow(j)\n",
        "pj = self.pow((j + 1) // 2)\n",
        ("tests/test_padic.py",) + SERIES,
    ),
    "pow-keeps-every-power-below": (
        "context.py",
        "            power = self._powers[k] = self.p**k\n",
        "            power = 1\n"
        "            for j in range(k + 1):\n"
        "                self._powers[j] = power\n"
        "                power *= self.p\n"
        "            power = self._powers[k]\n",
        ("tests/test_cli.py",),
    ),
    "div-int-cap-plus-1": (
        "padic.py",
        "r = min(self.r, ctx.precision)\n",
        "r = min(self.r, ctx.precision + 1)\n",
        ("tests/test_padic.py",) + SERIES,
    ),
    "add-drops-a-term-early": (
        "padic.py",
        "elif d < k:",
        "elif d < k - 1:",
        ("tests/test_padic.py", "tests/test_precision_honesty.py"),
    ),
    "real-divisor-takes-exact-zero": (
        "qpi.py",
        "\n                and not (a.is_exact_zero or b.is_exact_zero)):",
        "):",
        ("tests/test_qpi.py",),
    ),
    "real-quotients-narrow-r": (
        "qpi.py",
        "r = max((min(x.r, s.r)",
        "r = min((min(x.r, s.r)",
        ("tests/test_qpi.py", "tests/test_precision_honesty.py", "tests/test_clifford.py"),
    ),
    "qpi-mul-widest-m": (
        "qpi.py",
        "m_re = min(",
        "m_re = max(",
        ("tests/test_qpi.py", "tests/test_precision_honesty.py"),
    ),
    "qpi-mul-drops-a-term-early": (
        "qpi.py",
        "if abs(g) >= hi:",
        "if abs(g) >= hi - 1:",
        ("tests/test_qpi.py", "tests/test_precision_honesty.py"),
    ),
    "cup-check-accepts-units": (
        "clifford.py",
        "(vec.a, vec.b, vec.c - one)) < 1:",
        "(vec.a, vec.b, vec.c - one)) < 0:",
        ("tests/test_clifford.py",),
    ),
    "exp-horizontal-drops-1/y": (
        "analytic.py", "return value(1) / value(0)", "return value(1)", ("tests/test_analytic.py",),
    ),
    "tan-over-root-stop-minus-1": (
        "analytic.py",
        "(2 * k + 2) // (p - 1), -1, 1, m)\n",
        "(2 * k + 2) // (p - 1), -1, 1, m) - 1\n",
        SERIES,
    ),
    "tan-over-root-drops-v3": (
        "analytic.py",
        "m = min(n.ctx.precision, n.m - vp_int(3, p))",
        "m = min(n.ctx.precision, n.m)",
        SERIES,
    ),
    "rotation-act-sign": (
        "clifford.py", "r12 * -rep.m21", "r12 * rep.m21", ("tests/test_clifford.py",),
    ),
    "right-solve-sign": (
        "loop.py", "(one - k1)", "(one + k1)", ("tests/test_loop.py",),
    ),
    "checks-draw-accepts-n": (
        "checks.py", "while r >= n", "while r > n", ("tests/test_checks.py",),
    ),
    "sqrt-branch-check-strict": (
        "checks.py", "<= (p - 1) // 2", "< (p - 1) // 2", ("tests/test_checks.py",),
    ),
    # the kernel's branch fault must be caught by the check suite itself
    "sqrt-kernel-branch-flipped": (
        "padic.py",
        "if x % p > (p - 1) // 2:",
        "if x % p <= (p - 1) // 2:",
        ("tests/test_checks.py",),
    ),
    "cipolla-exponent": (
        "padic.py", "(p + 1) // 2", "(p - 1) // 2", ("tests/test_padic.py",),
    ),
    "sqrt-lift-3": (
        "padic.py", "y * (3 - (a.unit", "y * (2 - (a.unit", ("tests/test_padic.py",),
    ),
    "deviation-conj-dropped": (
        "loop.py", "Deviation(w.conj() / w)", "Deviation(w / w)", ("tests/test_checks.py",),
    ),
    # the value step's table cache: sin must not take cos's table at equal K,
    # nor an exponent -a/b the table of a/b
    "series-table-key-drops-e": (
        "analytic.py",
        "_table(stop, _factorial_table, s, e, K, arcsin)",
        "_table(stop, _factorial_table, s, 0, K, arcsin)",
        SERIES,
    ),
    "binomial-table-key-drops-a-sign": (
        "analytic.py",
        "_table(stop, _binomial_table, a, b, stop)",
        "_table(stop, _binomial_table, abs(a), b, stop)",
        SERIES,
    ),
    # the mixed-prime rule: the kernel's product, and the Q_p(i) raw product,
    # which never reaches the kernel operators
    "kernel-mul-mixes-primes": (
        "padic.py",
        'raise PadicError("mixed primes")\n        a, b = self, other\n        if a.kind != _NONZERO or',
        'pass\n        a, b = self, other\n        if a.kind != _NONZERO or',
        ("tests/test_padic.py",),
    ),
    "qpi-raw-product-mixes-primes": (
        "qpi.py", 'raise PadicError("mixed primes")\n', "pass\n", ("tests/test_qpi.py",),
    ),
}


def run_tests(src, tests):
    """Run pytest on `tests`, stopping at the first failure, with padicloop
    imported from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        probe = subprocess.run(
            [sys.executable, "-c", "import padicloop; print(padicloop.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        if not probe.stdout.startswith(str(src)):
            sys.exit(f"padicloop does not import from the copy: {probe.stdout or probe.stderr}")
        tests = sorted({t for entry in MUTANTS.values() for t in entry[3]})
        baseline = run_tests(src, tests)
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:])
            sys.exit("the unmutated copy fails its tests; no kill would mean anything")
        survivors = []
        for name, (module, old, new, tests) in MUTANTS.items():
            path = src / "padicloop" / module
            text = (ROOT / "src" / "padicloop" / module).read_text()
            if text.count(old) != 1:
                print(f"{name}: old text occurs {text.count(old)} times in {module}")
                survivors.append(name)
                continue
            path.write_text(text.replace(old, new))
            start = time.perf_counter()
            result = run_tests(src, tests)
            path.write_text(text)
            seconds = time.perf_counter() - start
            if result.returncode == 1:
                verdict = "killed"
            else:
                verdict = f"SURVIVED (pytest exit {result.returncode})"
                survivors.append(name)
            print(f"{name}: {verdict} in {seconds:.1f} s", flush=True)
    if survivors:
        print(f"FAIL: {len(survivors)} of {len(MUTANTS)} mutants not killed: {', '.join(survivors)}")
        return 1
    print(f"PASS: {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
