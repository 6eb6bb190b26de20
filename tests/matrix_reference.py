"""Exact 2x2 matrices over the Gaussian rationals, for checking the sphere's
generator exponentials (exp_horizontal, exp_vertical) against the partial sums
of the matrix exponential series.

A matrix is the tuple (m11, m12, m21, m22) of GaussianRational entries.  Like
the oracles it is built on, this never touches the digit kernel.
"""

from fractions import Fraction

from padicloop.oracles import GaussianRational


def gmat(a, b, c, d):
    return tuple(
        x if isinstance(x, GaussianRational) else GaussianRational(x) for x in (a, b, c, d)
    )


def gmat_identity():
    return gmat(1, 0, 0, 1)


def gmat_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def gmat_mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def gmat_scale(x, s):
    return tuple(a * s for a in x)


def gmat_exp_partial(x, terms):
    """Partial sum of the matrix exponential series, exactly."""
    total = gmat(0, 0, 0, 0)
    t = gmat_identity()
    for n in range(terms):
        if n:
            t = gmat_scale(gmat_mul(t, x), Fraction(1, n))
        total = gmat_add(total, t)
    return total
