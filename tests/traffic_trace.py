#!/usr/bin/env python3
"""Print each function and method of src/padicloop that no program
path enters:

    python tests/traffic_trace.py

The traffic is every argv of tests/cli_golden.json, the benchmark's
cli_oneshot argvs for seeds 0-2, one check_all pass (p 7 and 3), `check
oracle` at p 5, 11 and 13, and two passes each of series_deep and loop_deep.
Tests are not traffic, so a name listed here is reached by tests at most.
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
    with contextlib.redirect_stdout(io.StringIO()):
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


entered = set()
# a global trace function sees every call; returning None skips line events
sys.settrace(lambda frame, event, arg: entered.add(frame.f_code))
traffic()
sys.settrace(None)
for path in sorted(SRC.glob("*.py")):
    seen = {(c.co_firstlineno, c.co_name) for c in entered if c.co_filename == str(path)}
    for code in functions(compile(path.read_text(), str(path), "exec")):
        if (code.co_firstlineno, code.co_name) not in seen:
            print(f"{path.relative_to(ROOT)}:{code.co_firstlineno} {code.co_qualname}")
