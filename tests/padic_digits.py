"""Test-side constructor of a PadicNumber from its base-p digits."""

from padicloop.padic import PadicNumber


def from_digits(ctx, v, digits, m=None):
    """p^v (d_0 + d_1 p + ...) known modulo p^m; m defaults to v plus the
    number of digits."""
    u = 0
    for d in reversed(digits):
        u = u * ctx.p + d
    if m is None:
        m = v + len(digits)
    return PadicNumber.make(ctx, v, u, m)
