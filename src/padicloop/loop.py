"""Kikkawa-type loop on the p-adic unit disk D = {xi in Q_p(i) : |xi|_p < 1}.

The composition

    xi1 (+) xi2 = (xi1 + xi2) / (1 - conj(xi1) xi2)

has 0 as an exact two-sided identity and unique left division, but it is not
associative: the failure is measured by the unimodular deviation factors
(1 - xi1 conj(xi2))/(1 - conj(xi1) xi2), which act as rotations of the disk.
The denominator is always a unit since |conj(xi1) xi2|_p < 1.

Sphere-level composition transfers through the stereographic chart around
sigma_z; translations become projective 2x2 matrices, with the convention
(recorded next to mobius_action) that the conjugation action of the
translation matrix centers the chart, so its adjugate class is the one that
adds.
"""

from .clifford import ProjectiveRotation, lift, polar_point, stereo
from .errors import DomainError, OutsideDisk
from .padic import from_int
from .qpi import QpiElement, format_qpi


class DiskPoint:
    """Element of the open unit disk of Q_p(i)."""

    __slots__ = ("value",)

    def __init__(self, value):
        if value.valuation_lower_bound < 1:
            raise OutsideDisk("disk points need |xi|_p < 1")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("DiskPoint is immutable")

    @staticmethod
    def zero(ctx):
        return DiskPoint(QpiElement.zero(ctx))

    @property
    def ctx(self):
        return self.value.ctx

    def __neg__(self):
        return DiskPoint(-self.value)

    def serialize(self):
        return format_qpi(self.value)

    def __repr__(self):
        return f"DiskPoint({self.serialize()})"


def loop_add(x1, x2):
    """(xi1 + xi2)/(1 - conj(xi1) xi2); exact at the identity because exact
    zeros pass through the kernel arithmetic untouched."""
    v1, v2 = x1.value, x2.value
    return DiskPoint((v1 + v2) / (1 - v1.conj() * v2))


def left_divide(a, b):
    """The unique x with loop_add(a, x) = b: (b - a)/(1 + conj(a) b)."""
    va, vb = a.value, b.value
    return DiskPoint((vb - va) / (1 + va.conj() * vb))


def left_translation_matrix(x1):
    """The projective class of [[1, xi1], [-conj(xi1), 1]].

    Its conjugation action centers the chart at xi1 (Moebius transfer =
    left_divide(xi1, .)); the adjugate class .inverse() is the one whose
    Moebius transfer is loop_add(xi1, .)."""
    v = x1.value
    return ProjectiveRotation(QpiElement.one(v.ctx), v)


def right_solve(a, b):
    """Solve y (+) a = b.

    Clearing the denominator turns the equation into y + (b a) conj(y) =
    b - a, a 2x2 Q_p-linear system in (Re y, Im y) with determinant
    1 - K1^2 - K2^2 for K = b a.  On D the determinant is a unit (|K|_p <=
    p^-2) and |b - a|_p < 1, so every pair has its solution in D."""
    K = b.value * a.value
    R = b.value - a.value
    one = from_int(1, a.ctx)
    k1, k2 = K.re, K.im
    det = one - k1 * k1 - k2 * k2
    s = (R.re * (one - k1) - k2 * R.im) / det
    t = (R.im * (one + k1) - k2 * R.re) / det
    return DiskPoint(QpiElement(s, t))


class Deviation:
    """The unimodular factor (1 - xi1 conj(xi2))/(1 - conj(xi1) xi2); acts on
    the disk by multiplication."""

    __slots__ = ("factor",)

    def __init__(self, factor):
        if factor.valuation != 0:
            raise DomainError("deviation factor must be a unit")
        one = from_int(1, factor.ctx)
        if not (factor.norm() - one).is_zero:
            raise DomainError("deviation factor must satisfy u conj(u) = 1")
        object.__setattr__(self, "factor", factor)

    def __setattr__(self, name, value):
        raise AttributeError("Deviation is immutable")

    def as_rotation(self):
        """The diagonal projective class acting as multiplication by the
        factor: alpha = 1 + u has alpha/conj(alpha) = u (1 + u is a unit
        since u = 1 mod p)."""
        return ProjectiveRotation(1 + self.factor, QpiElement.zero(self.factor.ctx))

    def serialize(self):
        return format_qpi(self.factor)

    def __repr__(self):
        return f"Deviation({self.serialize()})"


def deviation(x1, x2):
    v1, v2 = x1.value, x2.value
    return Deviation((1 - v1 * v2.conj()) / (1 - v1.conj() * v2))


def deviation_apply(d, x):
    return DiskPoint(d.factor * x.value)


def sphere_loop_add(A, B):
    """Loop composition carried to the cup through the stereographic chart."""
    xa = DiskPoint(stereo(A))
    xb = DiskPoint(stereo(B))
    return lift(loop_add(xa, xb).value)


def geodesic_point(theta, phi, t):
    """Point of the geodesic curve through sigma_z with direction (theta,
    phi) at parameter t: polar_point(t theta, phi)."""
    if t.valuation_lower_bound < 0:
        raise DomainError("geodesic parameter must be a p-adic integer")
    return polar_point(t * theta, phi)
