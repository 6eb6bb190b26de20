"""Span tracer for the benchmark's traced runs.

The layers are padicloop's modules.  `install` wraps the public entry points
of each layer listed in LAYERS and rebinds every name that refers to them, in
every padicloop module (including names imported with `from .x import y` and
functions held in module-level dicts), so calls made through any of those
names are seen.  The program itself is not changed.

Spans (name, parent, start, end, digits) are kept in flat arrays in memory
and analysed when the run ends; `write_spans` dumps them as JSON lines.
Counters without spans cover calls too frequent or too small to time.
"""

import json
import random
import sys
import time
from array import array

# (metric prefix, module, owner, attribute, kind)
#   owner None: a module-level function; otherwise a class in that module
#   kind "span": timed span; "count": call counter only
LAYERS = (
    ("context.inv_mod", "context", "PrimeContext", "inv_mod", "span"),
    ("context.pow", "context", "PrimeContext", "pow", "count"),
    ("padic.add", "padic", "PadicNumber", "__add__", "span"),
    ("padic.mul", "padic", "PadicNumber", "__mul__", "span"),
    ("padic.div", "padic", "PadicNumber", "__truediv__", "span"),
    ("padic.make", "padic", "PadicNumber", "make", "span"),
    ("padic.format", "padic", None, "format_padic", "span"),
    ("padic.parse", "padic", None, "parse_padic", "span"),
    ("padic.sqrt", "padic", None, "sqrt", "span"),
    ("qpi.new", "qpi", "QpiElement", "__init__", "count"),
    ("qpi.mul", "qpi", "QpiElement", "__mul__", "span"),
    ("qpi.div", "qpi", "QpiElement", "__truediv__", "span"),
    ("qpi.format", "qpi", None, "format_qpi", "span"),
    ("qpi.parse", "qpi", None, "parse_qpi", "span"),
    ("analytic.exp", "analytic", None, "exp", "span"),
    ("analytic.log", "analytic", None, "log", "span"),
    ("analytic.sin_cos_tan", "analytic", None, "sin_cos_tan", "span"),
    ("analytic.arctan", "analytic", None, "arctan", "span"),
    ("analytic.arcsin", "analytic", None, "arcsin", "span"),
    ("analytic.binomial_series", "analytic", None, "binomial_series", "span"),
    ("matrix.mul", "matrix", "Mat2", "__mul__", "span"),
    ("clifford.stereo", "clifford", None, "stereo", "span"),
    ("clifford.lift", "clifford", None, "lift", "span"),
    ("clifford.rotation_act", "clifford", None, "rotation_act", "span"),
    ("clifford.mobius_action", "clifford", None, "mobius_action", "span"),
    ("clifford.polar_point", "clifford", None, "polar_point", "span"),
    ("clifford.rotation_compose", "clifford", None, "rotation_compose", "span"),
    ("loop.loop_add", "loop", None, "loop_add", "span"),
    ("loop.left_divide", "loop", None, "left_divide", "span"),
    ("loop.right_solve", "loop", None, "right_solve", "span"),
    ("loop.deviation", "loop", None, "deviation", "span"),
    ("loop.deviation_apply", "loop", None, "deviation_apply", "span"),
    ("loop.sphere_loop_add", "loop", None, "sphere_loop_add", "span"),
    ("oracles.series_partial_sum", "oracles", None, "series_partial_sum", "span"),
    ("oracles.gaussian_loop_add", "oracles", None, "gaussian_loop_add", "span"),
    ("oracles.rational_to_padic_digits", "oracles", None, "rational_to_padic_digits", "span"),
    ("checks.axioms", "checks", None, "run_axioms", "span"),
    ("checks.analytic", "checks", None, "run_analytic", "span"),
    ("checks.clifford", "checks", None, "run_clifford", "span"),
    ("checks.oracle", "checks", None, "run_oracle", "span"),
    ("checks.certified", "checks", None, "_run_certified", "certified"),
    ("checks.rng", "random", "Random", "randint", "count"),
    ("expr.evaluate", "expr", None, "evaluate", "span"),
    ("cli.main", "cli", None, "main", "span"),
)

# digits of work a span did: the modulus exponent k of an inverse, the
# tracked digits of a kernel product or quotient
_DIGITS = {
    "context.inv_mod": lambda args, result: args[2],
    "padic.mul": lambda args, result: result.r,
    "padic.div": lambda args, result: result.r,
}

SUITE_SPANS = ("checks.axioms", "checks.analytic", "checks.clifford", "checks.oracle")


def per_layer_metrics():
    """Every per-layer metric the traced run reports: (name, unit)."""
    out = []
    for prefix, _mod, _owner, _attr, kind in LAYERS:
        if prefix in SUITE_SPANS:
            out.append((prefix + ".wall_s", "s"))
        elif kind == "span":
            out += [(prefix + ".calls", "count"), (prefix + ".self_s", "s")]
            if prefix in _DIGITS:
                out.append((prefix + ".digits", "count"))
        elif kind == "count":
            out.append((prefix + ".calls", "count"))
    out += [
        ("analytic.div_per_eval", "1"),
        ("checks.certified_ratio", "1"),
        ("cli.import_s", "s"),
        ("trace.overhead_ratio", "1"),
    ]
    return out


def _module(name):
    return sys.modules["random"] if name == "random" else sys.modules["padicloop." + name]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_digits = array("q")
        self.counts = {}
        self._stack = [-1]
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ---- wrappers ----

    def _span(self, name, fn):
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, digits = self.span_start, self.span_end, self.span_digits
        stack = self._stack
        count_digits = _DIGITS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            digits.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_digits is not None:
                digits[idx] = count_digits(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        key = name + ".calls"
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _certified(self, name, fn):
        """Counts the draws of a certified property loop and how many of them
        were counted as samples (the rest were redrawn)."""
        counts = self.counts
        counts["checks.certified.attempted"] = 0
        counts["checks.certified.counted"] = 0

        def wrapper(prop, samples, draw_and_tally):
            def counted_draw():
                counts["checks.certified.attempted"] += 1
                ok = draw_and_tally()
                if ok:
                    counts["checks.certified.counted"] += 1
                return ok

            return fn(prop, samples, counted_draw)

        return wrapper

    # ---- install / uninstall ----

    def install(self):
        import padicloop.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sys.modules.items() if n.startswith("padicloop.") and m]
        originals = {}
        for prefix, mod_name, owner, attr, kind in LAYERS:
            make = {"span": self._span, "count": self._count, "certified": self._certified}[kind]
            mod = _module(mod_name)
            if owner is None:
                fn = getattr(mod, attr)
                originals[id(fn)] = (fn, make(prefix, fn))
                continue
            cls = getattr(mod, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(make(prefix, raw.__func__))
            else:
                wrapped = make(prefix, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, originals[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals and originals[id(item)][0] is item:
                            self._undo.append((value, key, item))
                            value[key] = originals[id(item)][1]
        self._check_rebound(modules, originals)

    @staticmethod
    def _check_rebound(modules, originals):
        """No padicloop module may keep a name bound to an unwrapped layer
        function: its calls would escape the trace."""
        left = []
        for mod in modules:
            for name, value in vars(mod).items():
                values = value.items() if isinstance(value, dict) else [(name, value)]
                for key, item in values:
                    if id(item) in originals and originals[id(item)][0] is item:
                        left.append(f"{mod.__name__}.{name}[{key}]")
        if left:
            raise RuntimeError("tracer left unwrapped bindings: " + ", ".join(left))

    def uninstall(self):
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()

    # ---- output ----

    def dump(self):
        """All spans and counters as one JSON-able object."""
        return {
            "names": self.names,
            "spans": [
                [self.span_name[i], self.span_parent[i], self.span_start[i],
                 self.span_end[i], self.span_digits[i]]
                for i in range(len(self.span_name))
            ],
            "counts": self.counts,
        }

    def merge(self, dumped):
        """Append the spans and counters of another process's `dump`."""
        base = len(self.span_name)
        remap = [self._id(n) for n in dumped["names"]]
        for nid, parent, start, end, digits in dumped["spans"]:
            self.span_name.append(remap[nid])
            self.span_parent.append(parent + base if parent >= 0 else -1)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_digits.append(digits)
        for key, value in dumped["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.span_name[i]],
                    "parent": self.span_parent[i], "start": self.span_start[i],
                    "end": self.span_end[i], "digits": self.span_digits[i],
                }) + "\n")

    def metrics(self):
        """Per-layer calls, self time and digits from the recorded spans."""
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0.0] * n_names
        self_time = [0.0] * n_names
        digits = [0] * n_names
        analytic = [name.startswith("analytic.") for name in self.names]
        div_id = self._ids.get("padic.div", -1)
        n = len(self.span_name)
        child_time = [0.0] * n
        in_analytic = bytearray(n)
        evals = divs = 0
        for i in range(n):
            nid, parent = self.span_name[i], self.span_parent[i]
            dur = self.span_end[i] - self.span_start[i]
            if parent >= 0:
                child_time[parent] += dur
                inside = in_analytic[parent] or analytic[self.span_name[parent]]
                in_analytic[i] = inside
            else:
                inside = False
            if analytic[nid] and not inside:
                evals += 1
            if nid == div_id and inside:
                divs += 1
        for i in range(n):
            nid = self.span_name[i]
            dur = self.span_end[i] - self.span_start[i]
            calls[nid] += 1
            total[nid] += dur
            self_time[nid] += dur - child_time[i]
            digits[nid] += self.span_digits[i]
        out = {}
        for name, unit in per_layer_metrics():
            base, _, field = name.rpartition(".")
            nid = self._ids.get(base)
            if field == "calls":
                out[name] = self.counts.get(name, calls[nid] if nid is not None else 0)
            elif field == "self_s":
                out[name] = self_time[nid] if nid is not None else 0.0
            elif field == "digits":
                out[name] = digits[nid] if nid is not None else 0
            elif field == "wall_s":
                out[name] = total[nid] if nid is not None else 0.0
        out["analytic.div_per_eval"] = divs / evals if evals else 0.0
        attempted = self.counts.get("checks.certified.attempted", 0)
        out["checks.certified_ratio"] = (
            self.counts.get("checks.certified.counted", 0) / attempted if attempted else 0.0
        )
        return out
