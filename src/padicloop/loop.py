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
from .errors import DomainError, NoSolution, OutsideDisk
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

    @property
    def is_zero(self):
        return self.value.is_zero

    def __neg__(self):
        return DiskPoint(-self.value)

    def eq_to(self, other):
        return self.value.eq_to(other.value)

    def serialize(self):
        return format_qpi(self.value)

    def __repr__(self):
        return f"DiskPoint({self.serialize()})"


def loop_add(x1, x2):
    """(xi1 + xi2)/(1 - conj(xi1) xi2); exact at the identity because exact
    zeros pass through the kernel arithmetic untouched."""
    v1, v2 = x1.value, x2.value
    one = QpiElement.one(v1.ctx)
    return DiskPoint((v1 + v2) / (one - v1.conj() * v2))


def left_divide(a, b):
    """The unique x with loop_add(a, x) = b: (b - a)/(1 + conj(a) b)."""
    va, vb = a.value, b.value
    one = QpiElement.one(va.ctx)
    return DiskPoint((vb - va) / (one + va.conj() * vb))


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
    p^-2), so the failure branches below are a contract for callers feeding
    boundary-precision values, not reachable from honest disk inputs."""
    ctx = a.ctx
    K = b.value * a.value
    R = b.value - a.value
    one = from_int(1, ctx)
    k1, k2 = K.re, K.im
    det = one - k1 * k1 - k2 * k2
    if det.is_zero:
        raise NoSolution("singular")
    s = (R.re * (one - k1) - k2 * R.im) / det
    t = (R.im * (one + k1) - k2 * R.re) / det
    y = QpiElement(s, t)
    if y.valuation_lower_bound < 1:
        raise NoSolution("outside-disk")
    return DiskPoint(y)


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

    @property
    def ctx(self):
        return self.factor.ctx

    def as_rotation(self):
        """The diagonal projective class acting as multiplication by the
        factor: alpha = 1 + u has alpha/conj(alpha) = u (1 + u is a unit
        since u = 1 mod p)."""
        one = QpiElement.one(self.factor.ctx)
        return ProjectiveRotation(one + self.factor, QpiElement.zero(self.factor.ctx))

    def eq_to(self, other):
        return self.factor.eq_to(other.factor)

    def serialize(self):
        return format_qpi(self.factor)

    def __repr__(self):
        return f"Deviation({self.serialize()})"


def deviation(x1, x2):
    v1, v2 = x1.value, x2.value
    one = QpiElement.one(v1.ctx)
    return Deviation((one - v1 * v2.conj()) / (one - v1.conj() * v2))


def deviation_apply(d, x):
    return DiskPoint(d.factor * x.value)


def sphere_loop_add(A, B):
    """Loop composition carried to the cup through the stereographic chart."""
    xa = DiskPoint(stereo(A, "cup"))
    xb = DiskPoint(stereo(B, "cup"))
    return lift(loop_add(xa, xb).value)


def geodesic_point(theta, phi, t):
    """Point of the geodesic curve through sigma_z with direction (theta,
    phi) at parameter t: polar_point(t theta, phi)."""
    if t.valuation_lower_bound < 0:
        raise DomainError("geodesic parameter must be a p-adic integer")
    return polar_point(t * theta, phi)
