"""Seeded workloads of the padicloop benchmark and the checks of their outputs.

Every workload is a closed loop with one caller.  Its requests are generated
from the benchmark seed alone and grouped into passes; a run repeats whole
passes, so the mix of request kinds that is timed never depends on where the
clock stopped.  The program sees only the generated inputs.

Correctness is checked outside the timed region against the exact-rational
oracles of `padicloop.oracles` (or, for the CLI, against the in-process
result of the same argv).
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

from padicloop import analytic, checks, clifford, loop, oracles
from padicloop.context import PrimeContext
from padicloop.oracles import GaussianRational
from padicloop.padic import format_padic, from_rational
from padicloop.qpi import QpiElement, format_qpi

# ---- sizes (recorded with every result set) ----

CHECK_PRIMES = (7, 3)
CHECK_PREC = 32
CHECK_SAMPLES = 6  # small enough that a run holds ~60 passes for the tail percentile
CHECK_DIGEST_REQUESTS = 4

SERIES_GRID = ((3, 512), (7, 512), (10007, 128))
SERIES_FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "arctan", "arcsin", "binomial")
SERIES_POOL = 4  # distinct input passes, cycled
SERIES_ORACLE_CHECKS = 6  # the oracle costs 4-20x an evaluation at prec 512

LOOP_GRID = ((10007, 256), (7, 1024))
LOOP_OPS = (
    "loop_add", "left_divide", "right_solve", "deviation", "deviation_apply",
    "sphere_loop_add", "rotation_act",
)
LOOP_POOL = 8

CLI_PRIME = 7

# the tail percentile is fixed per workload so that it means the same thing
# on every commit; each leaves at least 10 samples beyond it in a 20 s run
TAIL_PERCENTILE = {"check_all": 75, "series_deep": 95, "loop_deep": 99, "cli_oneshot": 90}

def sizes():
    return {
        "check_all": {"primes": CHECK_PRIMES, "prec": CHECK_PREC, "samples": CHECK_SAMPLES},
        "series_deep": {
            "grid": SERIES_GRID, "functions": SERIES_FUNCTIONS,
            "per_pass": len(SERIES_GRID) * len(SERIES_FUNCTIONS), "pool": SERIES_POOL,
            "oracle_checks": SERIES_ORACLE_CHECKS, "binomial_alpha": "1/2",
        },
        "loop_deep": {
            "grid": LOOP_GRID, "ops": LOOP_OPS,
            "per_pass": len(LOOP_GRID) * len(LOOP_OPS), "pool": LOOP_POOL,
        },
        "cli_oneshot": {"p": CLI_PRIME, "per_pass": len(cli_argvs(0))},
    }


def _rng(seed, *parts):
    return random.Random(":".join(str(x) for x in (seed,) + parts))


def _disk_fraction(rng, p):
    """p * num/den with num, den prime to p: valuation exactly 1."""
    num, den = 0, 0
    while num % p == 0:
        num = rng.randint(-40, 40)
    while den % p == 0:
        den = rng.randint(1, 60)
    return Fraction(p * num, den)


def _gaussian_disk(rng, p):
    return GaussianRational(_disk_fraction(rng, p), _disk_fraction(rng, p))


def _embed(g, ctx):
    """A Gaussian rational as a kernel value: a scalar when it is real."""
    re = from_rational(g.re.numerator, g.re.denominator, ctx)
    if g.im == 0:
        return re
    return QpiElement(re, from_rational(g.im.numerator, g.im.denominator, ctx))


def digest(outputs):
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def serialize(value):
    if isinstance(value, QpiElement):
        return format_qpi(value)
    if hasattr(value, "serialize"):
        return value.serialize()
    return format_padic(value)


# ---- digit comparison against exact rationals (kernel-independent) ----


def _digits_match(x, q, p):
    """A kernel scalar against an exact rational, on every tracked digit."""
    if q == 0:
        return x.is_zero
    if x.is_zero_mod:
        return oracles.rational_valuation(q, p) >= x.known_precision
    if x.is_zero:
        return False
    r = x.known_precision - x.valuation
    return x.valuation == oracles.rational_valuation(q, p) and x.digits() == (
        oracles.rational_to_padic_digits(q, p, r)
    )


def _matches(value, g, p):
    if isinstance(value, QpiElement):
        return _digits_match(value.re, g.re, p) and _digits_match(value.im, g.im, p)
    return g.im == 0 and _digits_match(value, g.re, p)


# ---- check_all ----


def check_requests(seed, k):
    """Pass k: one full check run per prime, each with its own seed."""
    rng = _rng(seed, "check_all", k)
    return [(p, rng.randrange(1 << 30)) for p in CHECK_PRIMES]


def run_check(request):
    p, suite_seed = request
    return checks.run_suite("all", p, CHECK_PREC, suite_seed, CHECK_SAMPLES)


def check_ops(records):
    """Counted property samples."""
    return sum(r["samples"] for r in records)


def format_records(records):
    lines = []
    for r in sorted(records, key=lambda r: (r["suite"], r["property"])):
        note = f"  [witness {r['witness']}]" if "witness" in r else ""
        lines.append(
            f"{r['suite']}/{r['property']}: {r['samples']} samples, "
            f"{len(r['failures'])} failures{note}"
        )
        lines.extend(f"    counterexample: {c}" for c in r["failures"])
    return "\n".join(lines)


_FIXED_SAMPLES = {
    "non-associativity-witness": 27,  # the whole {p, pi, p(1+i)}^3 search space
    "equivariance": max(1, CHECK_SAMPLES // 5),
    "oracle-digits": min(CHECK_SAMPLES, 50),
}


def records_ok(records):
    """Zero failures and the expected sample count on every property."""
    return bool(records) and all(
        not r["failures"]
        and r["samples"] == _FIXED_SAMPLES.get(r["property"], CHECK_SAMPLES)
        for r in records
    )


# ---- series_deep ----


def series_contexts():
    return {p: PrimeContext(p, prec) for p, prec in SERIES_GRID}


def series_pass(seed, k, contexts):
    """One evaluation of every function on every grid point.  Functions
    alternate between Q_p and Q_p(i) arguments along the grid, so each
    function meets both fields.  A request is (function, p, exact x, the
    call's arguments); log is taken at 1 + x."""
    rng = _rng(seed, "series_deep", k)
    out = []
    for gi, (p, _prec) in enumerate(SERIES_GRID):
        ctx = contexts[p]
        one = from_rational(1, 1, ctx)
        for fi, fn in enumerate(SERIES_FUNCTIONS):
            if (gi + fi) % 2:
                g = _gaussian_disk(rng, p)
            else:
                g = GaussianRational(_disk_fraction(rng, p))
            x = _embed(g, ctx)
            if fn == "log":
                args = (x + one,)
            elif fn == "binomial":
                args = (from_rational(1, 2, ctx), x)
            else:
                args = (x,)
            out.append((fn, p, g, args))
    return out


_HALF = Fraction(1, 2)

# looked up on the module at call time, so a traced run sees its wrappers
_SERIES_NAMES = {fn: fn for fn in SERIES_FUNCTIONS} | {"binomial": "binomial_series"}


def run_series(request):
    fn, _p, _g, args = request
    return getattr(analytic, _SERIES_NAMES[fn])(*args)


def _series_oracle(fn, g, p, prec):
    """Exact partial sum with a tail far below every tracked digit.

    For v(x) >= 1 every series here has its n-th term at valuation at least
    n (1 - 1/(p-1)) - O(log n), so n > (prec + margin)(p-1)/(p-2) suffices.
    """
    degree = (prec + 12) * (p - 1) // (p - 2) + 12
    odd_terms = degree // 2 + 2
    if fn == "exp":
        return oracles.series_partial_sum("exp", g, degree)
    if fn == "log":
        return oracles.series_partial_sum("log1p", g, degree)
    if fn == "binomial":
        return oracles.series_partial_sum("binomial", g, degree, alpha=_HALF)
    if fn in ("sin", "cos", "arctan"):
        return oracles.series_partial_sum(fn, g, odd_terms)
    if fn == "tan":
        return oracles.series_partial_sum("sin", g, odd_terms) / oracles.series_partial_sum(
            "cos", g, odd_terms
        )
    if fn == "arcsin":
        return _arcsin_partial_sum(g, odd_terms)
    raise ValueError(fn)


def _arcsin_partial_sum(x, terms):
    """Sum of (2n)!/(4^n (n!)^2 (2n+1)) x^(2n+1); `oracles` has no arcsin."""
    x2 = x * x
    xn = x
    c = Fraction(1)  # (2n)!/(4^n (n!)^2)
    total = GaussianRational(0)
    for n in range(terms):
        if n:
            xn = xn * x2
            c = c * (2 * n - 1) / (2 * n)
        total = total + xn * (c / (2 * n + 1))
    return total


def series_oracle_subset(seed, n_requests):
    rng = _rng(seed, "series_deep", "oracle")
    return sorted(rng.sample(range(n_requests), SERIES_ORACLE_CHECKS))


def series_ok(request, value):
    fn, p, g, _x = request
    prec = dict(SERIES_GRID)[p]
    return _matches(value, _series_oracle(fn, g, p, prec), p)


# ---- loop_deep ----


def loop_contexts():
    return {p: PrimeContext(p, prec) for p, prec in LOOP_GRID}


def _disk(g, ctx):
    return loop.DiskPoint(
        QpiElement(
            from_rational(g.re.numerator, g.re.denominator, ctx),
            from_rational(g.im.numerator, g.im.denominator, ctx),
        )
    )


def loop_pass(seed, k, contexts):
    """Every loop operation once per grid point, on fresh seeded disk points.

    Inputs that the operations take ready-made (sphere points, deviations,
    rotations) are built here, outside the timed region."""
    rng = _rng(seed, "loop_deep", k)
    out = []
    for p, _prec in LOOP_GRID:
        ctx = contexts[p]
        for op in LOOP_OPS:
            ga, gb = _gaussian_disk(rng, p), _gaussian_disk(rng, p)
            a, b = _disk(ga, ctx), _disk(gb, ctx)
            exact = (ga, gb)
            if op in ("loop_add", "left_divide", "right_solve", "deviation"):
                args = (a, b)
            elif op == "deviation_apply":
                gx = _gaussian_disk(rng, p)
                args = (loop.deviation(a, b), _disk(gx, ctx))
                exact = (ga, gb, gx)
            elif op == "sphere_loop_add":
                args = (clifford.lift(a.value), clifford.lift(b.value))
            else:  # rotation_act: a unit alpha and a disk beta
                alpha = GaussianRational(1 + _disk_fraction(rng, p), _disk_fraction(rng, p))
                rot = clifford.ProjectiveRotation(_embed(alpha, ctx), b.value)
                args = (rot, clifford.lift(a.value))
                exact = (alpha, gb, ga)
            out.append((op, p, exact, args))
    return out


def run_loop(request):
    op, _p, _exact, args = request
    if op == "rotation_act":
        return clifford.rotation_act(*args)
    return getattr(loop, op)(*args)


_ONE = GaussianRational(1)


def _exact_deviation(a, b):
    return (_ONE - a * b.conj()) / (_ONE - a.conj() * b)


def _exact_lift(xi):
    """(Re z, Im z, c) of the cup point over xi, as Fractions."""
    n = xi.norm()
    z = (xi + xi) / (1 + n)
    return (z.re, z.im, (1 - n) / (1 + n))


def _exact_rotation_act(alpha, beta, xi):
    a, b, c = _exact_lift(xi)
    # rep M adj(rep) / det(rep) with rep = [[alpha, beta], [-conj beta, conj alpha]]
    m = ((GaussianRational(c), GaussianRational(a, b)), (GaussianRational(a, -b), GaussianRational(-c)))
    rep = ((alpha, beta), (-beta.conj(), alpha.conj()))
    adj = ((alpha.conj(), -beta), (beta.conj(), alpha))

    def mul(x, y):
        return tuple(
            tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)) for i in range(2)
        )

    out = mul(mul(rep, m), adj)
    det = alpha.norm() + beta.norm()
    return (out[0][1].re / det, out[0][1].im / det, out[0][0].re / det)


def loop_expected(op, exact):
    """Exact Gaussian-rational value of each operation (a vector for the
    sphere-valued ones)."""
    if op == "loop_add":
        return oracles.gaussian_loop_add(*exact)
    a, b = exact[0], exact[1]
    if op == "left_divide":
        return (b - a) / (_ONE + a.conj() * b)
    if op == "right_solve":
        k, r = b * a, b - a
        det = 1 - k.re * k.re - k.im * k.im
        y = GaussianRational(
            (r.re * (1 - k.re) - k.im * r.im) / det, (r.im * (1 + k.re) - k.im * r.re) / det
        )
        if oracles.gaussian_loop_add(y, a) != b:
            raise AssertionError("right_solve oracle does not solve y (+) a = b")
        return y
    if op == "deviation":
        return _exact_deviation(a, b)
    if op == "deviation_apply":
        return _exact_deviation(a, b) * exact[2]
    if op == "sphere_loop_add":
        return _exact_lift(oracles.gaussian_loop_add(a, b))
    return _exact_rotation_act(*exact)


def loop_ok(request, value):
    op, p, exact, _args = request
    want = loop_expected(op, exact)
    if op in ("sphere_loop_add", "rotation_act"):
        vec = value.vec
        return all(_digits_match(c, q, p) for c, q in zip((vec.a, vec.b, vec.c), want))
    got = value.factor if op == "deviation" else value.value
    return _matches(got, want, p)


# ---- cli_oneshot ----


def cli_argvs(seed):
    """One pass: every CLI command family, values drawn from the seed.  All
    inputs are valid, so every invocation must exit 0."""
    rng = _rng(seed, "cli_oneshot")
    p = CLI_PRIME

    def unit():
        n = 0
        while n % p == 0:
            n = rng.randint(1, 99)
        return n

    def point():
        return f"{p}*{unit()}/{unit()}"

    residues = [r for r in range(1, p) if pow(r, (p - 1) // 2, p) == 1]
    common = ["--p", str(p)]
    argvs = [
        ["arith", f"{unit()}/{unit()} + {unit()}/{unit()}", *common, "--prec", "32"],
        ["arith", f"sqrt({p * rng.randint(1, 99) + rng.choice(residues)})", *common, "--prec", "256"],
        ["arith", f"({unit()} + {unit()}*i)/({unit()} - {p}*i)", *common, "--prec", "256"],
    ]
    for fn in ("exp", "log", "sin", "cos", "tan", "arctan", "arcsin"):
        x = f"1 + {point()}" if fn == "log" else point()
        argvs.append(["analytic", fn, x, *common, "--prec", "32"])
    argvs.append(["analytic", "binom", "1/2", point(), *common, "--prec", "32"])
    for op in ("add", "ldiv", "rsolve", "dev"):
        argvs.append(["loop", op, point(), f"{point()}*i", *common, "--prec", "32"])
    argvs.append(["check", "oracle", *common, "--samples", "5", "--seed", str(rng.randint(0, 999))])
    return argvs


def cli_expected(argv):
    """stdout and exit code of the same argv run in-process."""
    from padicloop import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code
