"""Test-side digit helpers: a PadicNumber from its base-p digits, and the
square-root digits by exhaustive Hensel search."""

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


def sqrt_digits(u, p, m):
    """Digit-by-digit Hensel lifting of sqrt(u) for a unit residue u.

    Each digit is found by exhaustive search, deliberately avoiding modular
    inverses so this stays independent of the kernel's Newton route.  Returns
    the m digits of the branch with leading digit <= (p-1)/2, or None when u
    is not a residue.
    """
    x0 = None
    for d in range(1, (p - 1) // 2 + 1):
        if (d * d - u) % p == 0:
            x0 = d
            break
    if x0 is None:
        return None
    x, pk = x0, p
    for _ in range(1, m):
        pk1 = pk * p
        for t in range(p):
            cand = x + t * pk
            if (cand * cand - u) % pk1 == 0:
                x = cand
                break
        else:
            return None  # cannot happen for odd p, kept as a hard failure signal
        pk = pk1
    # the d0 search range already picked the branch with d0 <= (p-1)/2
    digits = []
    for _ in range(m):
        x, d = divmod(x, p)
        digits.append(d)
    return digits
