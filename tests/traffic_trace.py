#!/usr/bin/env python3
"""Check that each function and method of src/padicloop that no program path
enters is named in ALLOWED, with the reason it stays:

    python tests/traffic_trace.py

The traffic is every argv of tests/cli_golden.json, the benchmark's
cli_oneshot argvs for seeds 0-2, one check_all pass (p 7 and 3), `check
oracle` at p 5, 11 and 13, three argvs that end in exit 2 (a division by
zero, exp outside its disk, an unbalanced parenthesis), and two passes each
of series_deep and loop_deep.  Tests are not traffic, so a name listed here
is reached by tests at most.

Prints each unentered def, then exits 1 if one has no ALLOWED entry or an
entry is stale (its def is now entered or gone), 0 otherwise.
Not collected by pytest; perfbench/workloads.py is only imported.
"""

import contextlib
import inspect
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from padicloop import cli  # noqa: E402

SRC = Path(cli.__file__).resolve().parent

_GUARD = "immutability guard: assignment to a field raises"
_HASH = "hash beside __eq__, so equal values hash alike"
_SHOW = "display for the REPL, debuggers and failure messages"
_BENCH = "perfbench/workloads.py compares outputs through it, outside the traced region"
_OPS = "completes the operator set whose __radd__ and __rsub__ are on program paths"

# module.qualname -> why it stays although no program path enters it
ALLOWED = {
    "clifford.Vector3.__setattr__": _GUARD,
    "clifford.Vector3.serialize": _BENCH,
    "clifford.Vector3.__repr__": _SHOW,
    "clifford.SpherePoint.__setattr__": _GUARD,
    "clifford.SpherePoint.eq_to": "equality to tracked precision, as every value type has it",
    "clifford.SpherePoint.serialize": _BENCH,
    "clifford.SpherePoint.__repr__": _SHOW,
    "clifford.sigma_z": "the paper's pole, the centre of the cup chart",
    "clifford.ProjectiveRotation.__setattr__": _GUARD,
    "clifford.ProjectiveRotation.serialize": _BENCH,
    "clifford.ProjectiveRotation.__repr__": _SHOW,
    "context.PrimeContext.__setattr__": _GUARD,
    "context.PrimeContext.__hash__": _HASH,
    "context.PrimeContext.__repr__": _SHOW,
    "loop.DiskPoint.__setattr__": _GUARD,
    "loop.DiskPoint.serialize": _BENCH,
    "loop.DiskPoint.__repr__": _SHOW,
    "loop.Deviation.__setattr__": _GUARD,
    "loop.Deviation.serialize": _BENCH,
    "loop.Deviation.__repr__": _SHOW,
    "loop.geodesic_point": "the paper's geodesics through sigma_z",
    "matrix.Mat2.__repr__": _SHOW,
    "oracles.GaussianRational.__neg__": "perfbench/workloads.py negates oracle entries "
    "in its rotation check, outside the traced region",
    "oracles.GaussianRational.__hash__": _HASH,
    "oracles.GaussianRational.__repr__": _SHOW,
    "padic.PadicNumber.__pow__": _OPS,
    "padic.PadicNumber.__hash__": _HASH,
    "padic.PadicNumber.__str__": _SHOW,
    "padic.PadicNumber.__repr__": _SHOW,
    "qpi.QpiElement.truncate": "the series' early exits call it on inputs the traffic misses",
    "qpi.QpiElement.__rmul__": _OPS,
    "qpi.QpiElement.__rtruediv__": _OPS,
    "qpi.QpiElement.__hash__": _HASH,
    "qpi.QpiElement.__str__": _SHOW,
    "qpi.QpiElement.__repr__": _SHOW,
}


def functions(code):
    """Every def inside code; class bodies, which run at import, are searched
    but not listed, and neither are lambdas and comprehensions."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield const
            yield from functions(const)


def traffic():
    argvs = [entry["argv"] for entry in json.loads((ROOT / "tests/cli_golden.json").read_text())]
    argvs += [argv for seed in range(3) for argv in workloads.cli_argvs(seed)]
    argvs += [["check", "oracle", "--p", p, "--samples", "5"] for p in ("5", "11", "13")]
    argvs += [["arith", "1/0"], ["analytic", "exp", "1"], ["arith", "(1"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            cli.main(argv)
    for request in workloads.check_requests(0, 0):
        workloads.run_check(request)
    for make, run, contexts in (
        (workloads.series_pass, workloads.run_series, workloads.series_contexts()),
        (workloads.loop_pass, workloads.run_loop, workloads.loop_contexts()),
    ):
        for k in range(2):
            for request in make(0, k, contexts):
                run(request)


def main():
    entered = set()
    # a global trace function sees every call; returning None skips line events
    sys.settrace(lambda frame, event, arg: entered.add(frame.f_code))
    traffic()
    sys.settrace(None)
    unentered = []
    for path in sorted(SRC.glob("*.py")):
        seen = {(c.co_firstlineno, c.co_name) for c in entered if c.co_filename == str(path)}
        for code in functions(compile(path.read_text(), str(path), "exec")):
            if (code.co_firstlineno, code.co_name) not in seen:
                print(f"{path.relative_to(ROOT)}:{code.co_firstlineno} {code.co_qualname}")
                unentered.append(f"{path.stem}.{code.co_qualname}")
    missing = [name for name in unentered if name not in ALLOWED]
    stale = [name for name in ALLOWED if name not in unentered]
    for name in missing:
        print(f"FAIL: {name} is entered by no program path and has no ALLOWED entry")
    for name in stale:
        print(f"FAIL: ALLOWED entry {name} is stale: its def is entered or gone")
    print(f"{len(unentered)} unentered defs, {len(missing)} without a reason, "
          f"{len(stale)} stale entries")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
