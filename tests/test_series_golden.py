"""Golden outputs of the series layer.

Every analytic function (exp, log, sin, cos, tan, sin_cos_tan, arctan, arcsin,
binomial_series) is run on a fixed grid of seeded inputs, and each
result is reduced to its printed literal plus the (kind, v, unit, r, m) of
every scalar component, the m of exact zeros included (it prints as O(p^m)).
The expected digests in series_golden.json were recorded from the
implementation that divided every series term by from_rational(n, 1, ctx), so
any change to how terms are divided must reproduce it bit for bit.

Regenerate (only when an output change is intended):
    PYTHONPATH=src python tests/test_series_golden.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from padicloop.analytic import (
    arcsin,
    arctan,
    binomial_series,
    cos,
    exp,
    log,
    sin,
    sin_cos_tan,
    tan,
)
from padicloop.context import PrimeContext
from padicloop.errors import PadicError
from padicloop.padic import PadicNumber, format_padic, from_rational
from padicloop.qpi import QpiElement

GOLDEN = Path(__file__).with_name("series_golden.json")
PRIMES = (3, 7, 11, 10007)
PRECISIONS = (1, 5, 32, 128)


def _scalar(rng, ctx, v, ndigits=None):
    ndigits = ctx.precision if ndigits is None else ndigits
    digits = [rng.randint(1, ctx.p - 1)]
    digits += [rng.randint(0, ctx.p - 1) for _ in range(ndigits - 1)]
    return PadicNumber.from_digits(ctx, v, digits, m=v + ndigits)


def inputs(ctx):
    """Labelled arguments, all inside the convergence disks."""
    rng = random.Random(f"{ctx.p}:{ctx.precision}")
    zero = PadicNumber.exact_zero(ctx)
    out = []
    for v in (1, 2, 3):
        out.append((f"qp_v{v}", _scalar(rng, ctx, v)))
    for v in (1, 2, 3):
        out.append((f"qpi_v{v}", QpiElement(_scalar(rng, ctx, v), _scalar(rng, ctx, v + 1))))
    out.append(("qpi_imag_v1", QpiElement(zero, _scalar(rng, ctx, 1))))
    for v in (1, 2):
        out.append((f"qpi_real_v{v}", QpiElement(_scalar(rng, ctx, v))))
    out.append(("qp_exact_zero", zero))
    out.append(("qpi_exact_zero", QpiElement.zero(ctx)))
    out.append(("qp_inexact_zero", PadicNumber.zero_mod(ctx, ctx.precision + 1)))
    # a parsed literal that carries more digits than the working precision
    out.append(("qp_long_literal", _scalar(rng, ctx, 1, ctx.precision + 7)))
    out.append((
        "qpi_long_literal",
        QpiElement(_scalar(rng, ctx, 2, ctx.precision + 5), _scalar(rng, ctx, 1, ctx.precision + 9)),
    ))
    return out


def _one_plus(x):
    one = from_rational(1, 1, x.ctx)
    return QpiElement(one) + x if isinstance(x, QpiElement) else one + x


FUNCTIONS = {
    "exp": exp,
    "log": lambda x: log(_one_plus(x)),
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "sin_cos_tan": sin_cos_tan,
    "arctan": arctan,
    "arcsin": arcsin,
    "binomial_half": lambda x: binomial_series(from_rational(1, 2, x.ctx), x),
    "binomial_minus3": lambda x: binomial_series(from_rational(-3, 1, x.ctx), x),
}


def _fields(value):
    if isinstance(value, PadicNumber):
        return f"{value.kind},{value.v},{value.unit},{value.r},{value.m}"
    if isinstance(value, QpiElement):
        return f"{_fields(value.re)}|{_fields(value.im)}"
    return ";".join(_fields(a) for a in value)


def _literal(value):
    if isinstance(value, PadicNumber):
        return format_padic(value)
    if isinstance(value, tuple):
        return ";".join(_literal(a) for a in value)
    return str(value) if isinstance(value, QpiElement) else repr(value)


def record(fn, x):
    """The printed literal and every component's fields, or the error raised."""
    try:
        value = FUNCTIONS[fn](x)
    except PadicError as exc:
        return f"raise {type(exc).__name__}: {exc}"
    return f"{_literal(value)}\n{_fields(value)}"


def digests(fn, p, prec):
    ctx = PrimeContext(p, prec)
    return {
        label: hashlib.sha256(record(fn, x).encode()).hexdigest()[:16]
        for label, x in inputs(ctx)
    }


def labels():
    return [label for label, _ in inputs(PrimeContext(3, 1))]


CASES = [(fn, p, prec) for fn in FUNCTIONS for p in PRIMES for prec in PRECISIONS]


def _key(fn, p, prec):
    return f"{fn}/p{p}/N{prec}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("fn,p,prec", CASES, ids=[_key(*c) for c in CASES])
def test_series_matches_golden(golden, fn, p, prec):
    expected = dict(zip(labels(), golden[_key(fn, p, prec)]))
    assert digests(fn, p, prec) == expected


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*c) for c in CASES)


def test_domain_error_text_names_sin_cos_tan():
    x = from_rational(2, 1, PrimeContext(7, 8))
    for fn in (sin, cos, tan, sin_cos_tan):
        with pytest.raises(PadicError, match=r"^sin_cos_tan: argument has \|x\|_p >= 1"):
            fn(x)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_series_golden.py --write")
    lines = [
        f"{json.dumps(_key(*c))}: {json.dumps(list(digests(*c).values()))}"
        for c in CASES
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
