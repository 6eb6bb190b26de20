#!/usr/bin/env python3
"""The padicloop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]
    python3 perfbench/run.py --compare A.jsonl B.jsonl

The program is taken from `src/` beside this directory.  The workloads are
check_all, series_deep, loop_deep and cli_oneshot (see workloads.py); each is
a closed loop with one caller in one single-threaded process.

--trace 0 times whole passes of the workload's seeded requests for --seconds
and reports the end-to-end metrics.  --trace 1 runs one fixed pass untraced,
then the same pass under the span tracer, and reports the per-layer metrics
and the tracing overhead.  Every output is checked outside the timed region.

stdout holds a table for people, then a `result-set` JSON line (environment,
output digest, details), then the final line
{"correct", "attempted", "failed", "metrics"}.  --out FILE appends the result
set to FILE (perfbench/results/ is ignored by git and meant for these);
--compare prints, per workload and metric, the ratio of the medians of two
such files.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("check_all", "series_deep", "loop_deep", "cli_oneshot")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SETUP_RUNS = 7
IMPORTTIME_RUNS = 5

# per workload, the layers that run on it (a metric name or a prefix ending
# before a "."): each of their per-layer metrics must read non-zero
LAYERS_RUN = {
    "check_all": (
        "context", "padic", "qpi", "analytic.exp", "analytic.log",
        "analytic.sin_cos_tan", "analytic.arctan", "analytic.binomial_series",
        "analytic.div_per_eval", "matrix", "clifford", "loop.loop_add",
        "loop.left_divide", "loop.deviation", "loop.deviation_apply", "oracles",
        "checks", "trace",
    ),
    "series_deep": (
        "context", "padic.add", "padic.mul", "padic.div", "padic.make",
        "qpi.new", "qpi.mul", "qpi.div", "analytic", "trace",
    ),
    "loop_deep": (
        "context", "padic.add", "padic.mul", "padic.div", "padic.make",
        "qpi.new", "qpi.mul", "qpi.div", "matrix", "clifford.stereo",
        "clifford.lift", "clifford.rotation_act", "loop", "trace",
    ),
    "cli_oneshot": (
        "context", "padic", "qpi", "analytic", "loop.loop_add", "loop.left_divide",
        "loop.right_solve", "loop.deviation", "oracles.rational_to_padic_digits",
        "checks.oracle", "checks.rng", "expr", "cli", "trace",
    ),
}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---- environment block ----


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "padicloop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(workload, seed, seconds, trace):
    import workloads

    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": workloads.sizes()[workload],
    }


# ---- measurement helpers ----


def _percentile(sorted_values, q):
    """Nearest-rank q-th percentile and how many samples lie beyond it."""
    n = len(sorted_values)
    rank = max(1, -(-q * n // 100))
    return sorted_values[rank - 1], n - rank


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_times(workload):
    """Fresh interpreter until padicloop is imported and the workload's
    PrimeContexts are built (for the CLI: until padicloop.cli is imported)."""
    import workloads as w

    module, grid = {
        "check_all": ("padicloop.checks", [(p, w.CHECK_PREC) for p in w.CHECK_PRIMES]),
        "series_deep": ("padicloop.analytic", list(w.SERIES_GRID)),
        "loop_deep": ("padicloop.loop", list(w.LOOP_GRID)),
        "cli_oneshot": ("padicloop.cli", []),
    }[workload]
    code = (
        f"import {module}\n"
        "from padicloop.context import PrimeContext\n"
        f"for p, prec in {grid!r}:\n"
        "    PrimeContext(p, prec)\n"
        "print('ready', flush=True)\n"
    )
    env = _child_env()
    times = []
    for i in range(SETUP_RUNS + 1):  # the first run warms the bytecode cache
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup child failed with exit code {proc.returncode}")
        if i:
            times.append(elapsed)
    return times


def timed_passes(passes, run_one, seconds, min_passes, keep_passes=None):
    """Closed loop over whole passes until `seconds` have elapsed and at least
    `min_passes` ran.  Returns per-request latencies, the outputs of the first
    `keep_passes` passes (all when None; an exception stands for its output),
    the wall time of each pass and the number of requests that raised."""
    clock = time.perf_counter
    latencies = []
    kept = []
    pass_times = []
    errors = 0
    k = 0
    start = clock()
    while True:
        outs = []
        pass_start = clock()
        for request in passes(k):
            t0 = clock()
            try:
                out = run_one(request)
            except Exception as exc:  # a failed request is counted, the run goes on
                out = exc
                errors += 1
                traceback.print_exc(file=sys.stderr)
            latencies.append(clock() - t0)
            outs.append(out)
        now = clock()
        pass_times.append(now - pass_start)
        if keep_passes is None or k < keep_passes:
            kept.append(outs)
        k += 1
        if k >= min_passes and now - start >= seconds:
            return latencies, kept, pass_times, errors


def _is_error(out):
    return isinstance(out, BaseException)


# ---- the four workloads, untraced ----


def _run_check_all(seed, seconds):
    import workloads as w

    n_digest = w.CHECK_DIGEST_REQUESTS
    latencies, kept, pass_times, errors = timed_passes(
        lambda k: w.check_requests(seed, k), w.run_check, seconds,
        min_passes=-(-n_digest // len(w.CHECK_PRIMES)),
    )
    rss = _peak_rss_mb(resource.RUSAGE_SELF)
    pass_ops = [sum(w.check_ops(o) for o in p if not _is_error(o)) for p in kept]
    outs = [o for p in kept for o in p]
    failed = errors + sum(1 for o in outs if not _is_error(o) and not w.records_ok(o))
    texts = [repr(o) if _is_error(o) else w.format_records(o) for o in outs[:n_digest]]
    return {
        "latencies": latencies, "pass_times": pass_times, "pass_ops": pass_ops,
        "attempted": len(outs), "failed": failed, "peak_rss_mb": rss,
        "digest": w.digest(texts), "checked": len(outs),
    }


def _pooled(seed, seconds, contexts, make_pass, pool_size, run_one, ok, subset):
    """Series and loop workloads: a pool of seeded passes, cycled, after one
    untimed warm-up pass that fills the contexts' power caches."""
    import workloads as w

    pool = [make_pass(seed, k, contexts) for k in range(pool_size)]
    for request in pool[0]:
        run_one(request)
    latencies, kept, pass_times, errors = timed_passes(
        lambda k: pool[k % pool_size], run_one, seconds, min_passes=pool_size,
        keep_passes=pool_size,
    )
    rss = _peak_rss_mb(resource.RUSAGE_SELF)
    requests = [r for p in pool for r in p]
    outs = [o for p in kept for o in p]
    texts = [repr(o) if _is_error(o) else w.serialize(o) for o in outs]
    checked = subset(len(requests))
    failed = errors + sum(
        1 for i in checked if not _is_error(outs[i]) and not ok(requests[i], outs[i])
    )
    return {
        "latencies": latencies, "pass_times": pass_times,
        "pass_ops": [len(pool[k % pool_size]) for k in range(len(pass_times))],
        "attempted": len(latencies), "failed": failed,
        "peak_rss_mb": rss, "digest": w.digest(texts), "checked": len(checked),
    }


def _run_series_deep(seed, seconds):
    import workloads as w

    return _pooled(
        seed, seconds, w.series_contexts(), w.series_pass, w.SERIES_POOL,
        w.run_series, w.series_ok, lambda n: set(w.series_oracle_subset(seed, n)),
    )


def _run_loop_deep(seed, seconds):
    import workloads as w

    return _pooled(
        seed, seconds, w.loop_contexts(), w.loop_pass, w.LOOP_POOL,
        w.run_loop, w.loop_ok, lambda n: set(range(n)),
    )


def _cli(argv, script=("-m", "padicloop.cli")):
    proc = subprocess.run(
        [sys.executable, *script, *argv], capture_output=True, env=_child_env(), cwd=ROOT
    )
    return proc.stdout.decode(), proc.returncode, proc.stderr.decode()


def _run_cli_oneshot(seed, seconds):
    import workloads as w

    argvs = w.cli_argvs(seed)
    expected = [w.cli_expected(a) for a in argvs]
    latencies, kept, pass_times, errors = timed_passes(
        lambda k: argvs, _cli, seconds, min_passes=1
    )
    rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    failed = errors
    for outs in kept:
        for out, (want, want_code) in zip(outs, expected):
            if not _is_error(out):
                failed += out[:2] != (want, 0) or want_code != 0
    return {
        "latencies": latencies, "pass_times": pass_times,
        "pass_ops": [len(argvs)] * len(pass_times),
        "attempted": len(latencies), "failed": failed,
        "peak_rss_mb": rss,
        "digest": w.digest(repr(o) if _is_error(o) else o[0] for o in kept[0]),
        "checked": len(latencies),
    }


_UNTRACED = {
    "check_all": _run_check_all,
    "series_deep": _run_series_deep,
    "loop_deep": _run_loop_deep,
    "cli_oneshot": _run_cli_oneshot,
}


def run_untraced(workload, seed, seconds):
    import workloads as w

    setup = setup_times(workload)
    run = _UNTRACED[workload](seed, seconds)
    lat = sorted(run.pop("latencies"))
    q = w.TAIL_PERCENTILE[workload]
    tail, beyond = _percentile(lat, q)
    pass_times, pass_ops = run.pop("pass_times"), run.pop("pass_ops")
    metrics = {
        "setup_s": statistics.median(setup),
        # the median pass, so that a burst of load from outside the process
        # moves the figure less than it would move the mean
        "ops_per_s": statistics.median(n / t for n, t in zip(pass_ops, pass_times)),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    run.update(
        requests=len(lat), passes=len(pass_times), elapsed_s=sum(pass_times),
        mean_ops_per_s=sum(pass_ops) / sum(pass_times), setup_runs_s=setup,
        tail_percentile=q, tail_samples_beyond=beyond,
        failed_ratio=run["failed"] / run["attempted"] if run["attempted"] else 1.0,
    )
    return metrics, run


# ---- traced runs ----


def _timed_list(requests, run_one):
    outs = []
    t0 = time.perf_counter()
    for request in requests:
        outs.append(run_one(request))
    return outs, time.perf_counter() - t0


def _trace_in_process(workload, seed, tracer):
    """One fixed pass: warm-up, untraced, then traced.  Returns ops/s of both
    and the number of outputs that differ between them."""
    import workloads as w

    if workload == "check_all":
        requests, run_one = w.check_requests(seed, 0), w.run_check
        ops_of = w.check_ops
        text = w.format_records
    else:
        if workload == "series_deep":
            contexts, make_pass, run_one = w.series_contexts(), w.series_pass, w.run_series
            n = 1
        else:
            contexts, make_pass, run_one = w.loop_contexts(), w.loop_pass, w.run_loop
            n = w.LOOP_POOL
        requests = [r for k in range(n) for r in make_pass(seed, k, contexts)]
        ops_of = lambda out: 1  # noqa: E731
        text = w.serialize
    _timed_list(requests, run_one)
    plain, t_plain = _timed_list(requests, run_one)
    tracer.install()
    try:
        traced, t_traced = _timed_list(requests, run_one)
    finally:
        tracer.uninstall()
    ops = sum(ops_of(o) for o in plain)
    differ = sum(text(a) != text(b) for a, b in zip(plain, traced))
    if workload == "check_all":
        differ += sum(not w.records_ok(o) for o in plain)
    return ops / t_plain, ops / t_traced, len(requests), differ, w.digest(map(text, traced))


def _import_s():
    """Import time of padicloop (package and cli) from `python -X importtime`."""
    times = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import padicloop.cli"],
            capture_output=True, env=_child_env(), cwd=ROOT, check=True,
        )
        us = 0
        for line in proc.stderr.decode().splitlines():
            _, _, fields = line.partition("import time:")
            parts = fields.split("|")
            # top-level entries are indented by exactly one space
            if len(parts) == 3 and parts[2].startswith(" padicloop"):
                us += int(parts[1])
        times.append(us / 1e6)
    return statistics.median(times)


def _trace_cli(seed, tracer):
    import cli_child
    import workloads as w

    argvs = w.cli_argvs(seed)
    _timed_list(argvs, _cli)
    plain, t_plain = _timed_list(argvs, _cli)
    script = (str(HERE / "cli_child.py"),)
    traced, t_traced = _timed_list(argvs, lambda a: _cli(a, script))
    differ = 0
    for (out_p, code_p, _), (out_t, code_t, err_t) in zip(plain, traced):
        differ += out_p != out_t or code_p != 0 or code_t != 0
        for line in err_t.splitlines():
            if line.startswith(cli_child.MARK):
                tracer.merge(json.loads(line[len(cli_child.MARK):]))
    n = len(argvs)
    return n / t_plain, n / t_traced, n, differ, w.digest(o[0] for o in traced)


def run_traced(workload, seed, spans_path=None):
    from tracer import Tracer

    tracer = Tracer()
    if workload == "cli_oneshot":
        plain, traced, n, differ, digest = _trace_cli(seed, tracer)
    else:
        plain, traced, n, differ, digest = _trace_in_process(workload, seed, tracer)
    metrics = tracer.metrics()
    metrics["cli.import_s"] = _import_s() if workload == "cli_oneshot" else 0.0
    metrics["trace.overhead_ratio"] = traced / plain
    if spans_path:
        tracer.write_spans(spans_path)
    required = LAYERS_RUN[workload]
    zero = [
        name for name, value in metrics.items()
        if value == 0 and any(name == r or name.startswith(r + ".") for r in required)
    ]
    if zero:
        raise SystemExit(
            f"error: per-layer metrics read zero on {workload}, where their layer "
            f"runs (a wrapper missed its calls): {', '.join(sorted(zero))}"
        )
    run = {
        "requests": n, "attempted": n, "failed": differ, "digest": digest,
        "untraced_ops_per_s": plain, "traced_ops_per_s": traced,
        "spans": len(tracer.span_name),
        "failed_ratio": differ / n,
    }
    return metrics, run


# ---- reporting ----


def _units():
    from tracer import per_layer_metrics

    return dict(END_TO_END) | dict(per_layer_metrics())


def report(workload, metrics, run, env, out_path):
    units = _units()
    correct = run["failed"] == 0
    print(f"workload {workload}  seed {env['seed']}  trace {env['trace']}")
    for name, value in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{run['tail_percentile']}, {run['tail_samples_beyond']} of "
                    f"{run['requests']} samples beyond)")
        print(f"  {name:<36} {value:>14.6g} {units[name]}{note}")
    print(f"  {'failed_ratio':<36} {run['failed_ratio']:>14.6g} 1  "
          f"({run['failed']} of {run['attempted']})")
    print(f"  digest {run['digest']}")
    result_set = {
        "workload": workload, "environment": env, "correct": correct,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": run,
    }
    print("result-set " + json.dumps(result_set))
    if out_path:
        with open(out_path, "a") as fh:
            fh.write(json.dumps(result_set) + "\n")
    return result_set


def run_one_workload(args):
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        metrics, run = run_traced(args.workload, args.seed, args.spans)
    else:
        metrics, run = run_untraced(args.workload, args.seed, args.seconds)
    result = report(args.workload, metrics, run, env, args.out)
    print(json.dumps({
        "correct": result["correct"], "attempted": run["attempted"],
        "failed": run["failed"], "metrics": result["metrics"],
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS and caches stay apart."""
    sets = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        lines = proc.stdout.decode().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("result-set ")))
        if proc.returncode != 0:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        sets.append((workload, json.loads(lines[-1])))
    print(json.dumps({
        "correct": all(s["correct"] for _, s in sets),
        "attempted": sum(s["attempted"] for _, s in sets),
        "failed": sum(s["failed"] for _, s in sets),
        "metrics": {f"{w}.{k}": v for w, s in sets for k, v in s["metrics"].items()},
    }))
    return 0


def compare(path_a, path_b):
    """Ratio B/A of the median of every metric, per workload and trace mode."""
    def load(path):
        groups = {}
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    rs = json.loads(line)
                    key = (rs["workload"], rs["environment"]["trace"])
                    for name, m in rs["metrics"].items():
                        groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
        return groups

    better = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        defined = json.loads(spec.read_text())
        for m in defined["end_to_end"] + defined["per_layer"]:
            better[m["name"]] = m["better"]
    a, b = load(path_a), load(path_b)
    print(f"{'workload':<12} {'metric':<36} {'A median':>12} {'B median':>12} {'B/A':>8}")
    for key in sorted(set(a) & set(b)):
        for name in sorted(set(a[key]) & set(b[key])):
            ma, mb = statistics.median(a[key][name]), statistics.median(b[key][name])
            ratio = f"{mb / ma:8.3f}" if ma else "       -"
            note = f"  ({better[name]} is better)" if name in better else ""
            print(f"{key[0]:<12} {name:<36} {ma:>12.6g} {mb:>12.6g} {ratio}{note}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result set to this JSON-lines file")
    parser.add_argument("--spans", help="traced run: write every span to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "padicloop" / "__init__.py").is_file():
        print(f"error: padicloop sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    return run_one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
