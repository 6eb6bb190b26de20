"""Seed determinism of the benchmark's workloads.

    python3 perfbench/test_determinism.py

The same seed must give the same inputs and the same output digests; another
seed must give other inputs.  Kept out of the repository's test suite, which
collects only tests/.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as w  # noqa: E402


def series_inputs(seed):
    contexts = w.series_contexts()
    return [
        (fn, p, g, [w.serialize(a) for a in args])
        for fn, p, g, args in w.series_pass(seed, 0, contexts)
    ]


def loop_inputs(seed):
    contexts = w.loop_contexts()
    out = []
    for op, p, exact, args in w.loop_pass(seed, 0, contexts):
        out.append((op, p, exact, [a.serialize() for a in args]))
    return out


INPUTS = {
    "check_all": lambda seed: [w.check_requests(seed, k) for k in range(3)],
    "series_deep": series_inputs,
    "loop_deep": loop_inputs,
    "cli_oneshot": w.cli_argvs,
}


def run_benchmark(workload, seed):
    """The result set of a zero-second run: the minimum number of passes."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    for line in proc.stdout.splitlines():
        if line.startswith("result-set "):
            return json.loads(line[len("result-set "):])
    raise AssertionError("no result set printed")


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, inputs in INPUTS.items():
            with self.subTest(workload=name):
                self.assertEqual(inputs(5), inputs(5))

    def test_other_seed_other_inputs(self):
        for name, inputs in INPUTS.items():
            with self.subTest(workload=name):
                self.assertNotEqual(inputs(5), inputs(6))

    def test_same_seed_same_digest_in_process(self):
        def series_digest(seed):
            requests = w.series_pass(seed, 0, w.series_contexts())[16:20]  # p = 10007
            return w.digest(w.serialize(w.run_series(r)) for r in requests)

        def cli_digest(seed):
            argvs = w.cli_argvs(seed)[:4]
            return w.digest(w.cli_expected(a)[0] for a in argvs)

        for digest in (series_digest, cli_digest):
            with self.subTest(digest=digest.__name__):
                self.assertEqual(digest(5), digest(5))
                self.assertNotEqual(digest(5), digest(6))

    def test_same_seed_same_digest_end_to_end(self):
        first, again = run_benchmark("loop_deep", 5), run_benchmark("loop_deep", 5)
        self.assertTrue(first["correct"])
        self.assertEqual(first["details"]["digest"], again["details"]["digest"])
        other = run_benchmark("loop_deep", 6)
        self.assertNotEqual(first["details"]["digest"], other["details"]["digest"])

    def test_check_all_digest_is_the_record_listing(self):
        # a passing record lists counts only, so every seed gives the same text
        first, again = run_benchmark("check_all", 5), run_benchmark("check_all", 5)
        self.assertTrue(first["correct"])
        self.assertEqual(first["details"]["digest"], again["details"]["digest"])


if __name__ == "__main__":
    unittest.main()
