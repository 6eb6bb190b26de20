"""The Pauli model of Q_p^3 and the p-adic 2-sphere.

A vector (a,b,c) embeds as the traceless hermitian-like matrix

    iota(a,b,c) = [[c, a+ib], [a-ib, -c]]

whose square is (a^2+b^2+c^2) I, so the sphere {q = 1} becomes the set of
matrix involutions of that shape.  Rotations act by conjugation through the
projective group of matrices [[alpha, beta], [-conj(beta), conj(alpha)]].
"""

from .analytic import cos, exp, matrix_exp, sin
from .errors import (
    DomainError,
    IsotropicAxis,
    NotPauliShape,
    OutsideDisk,
    PoleHit,
)
from .matrix import Mat2
from .padic import INFINITE, PadicNumber, format_padic, from_int
from .qpi import QpiElement, format_qpi


class Vector3:
    """Point of Q_p^3 with PadicNumber coordinates."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        if not (a.ctx == b.ctx == c.ctx):
            raise ValueError("mixed contexts in Vector3")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("Vector3 is immutable")

    @property
    def ctx(self):
        return self.a.ctx

    def __sub__(self, other):
        return Vector3(self.a - other.a, self.b - other.b, self.c - other.c)

    def __neg__(self):
        return Vector3(-self.a, -self.b, -self.c)

    def scale(self, k):
        return Vector3(self.a * k, self.b * k, self.c * k)

    def eq_to(self, other):
        return self.a.eq_to(other.a) and self.b.eq_to(other.b) and self.c.eq_to(other.c)

    def serialize(self):
        return f"({format_padic(self.a)}, {format_padic(self.b)}, {format_padic(self.c)})"

    def __repr__(self):
        return f"Vector3{self.serialize()}"


def quadratic_form(u, v):
    """The bilinear form u.v of the standard quadratic form x^2+y^2+z^2;
    q(v) = quadratic_form(v, v)."""
    return u.a * v.a + u.b * v.b + u.c * v.c


def iota(v):
    """Immersion of Q_p^3 into the 2x2 matrices over Q_p(i)."""
    c = QpiElement(v.c)
    return Mat2(c, QpiElement(v.a, v.b), QpiElement(v.a, -v.b), -c)


def iota_inv(M):
    """Inverse of the immersion; the matrix must be of Pauli shape."""
    if not M.m11.im.is_zero:
        raise NotPauliShape("diagonal entry is not real")
    if not (M.m22 + M.m11).is_zero:
        raise NotPauliShape("trace does not vanish")
    if not (M.m21 - M.m12.conj()).is_zero:
        raise NotPauliShape("off-diagonal entries are not conjugate")
    return Vector3(M.m12.re, M.m12.im, M.m11.re)


def reflect(u, v):
    """Reflection of v in the hyperplane orthogonal to u."""
    qu = quadratic_form(u, u)
    if qu.is_zero:
        raise IsotropicAxis("cannot reflect in an isotropic axis")
    factor = from_int(2, u.ctx) * quadratic_form(v, u) / qu
    return v - u.scale(factor)


class SpherePoint:
    """Point with q(v) = 1, carried as its coordinate vector; the matrix
    involution iota(v) is derived on demand."""

    __slots__ = ("vec",)

    def __init__(self, vec):
        q = quadratic_form(vec, vec)
        if not (q - from_int(1, vec.ctx)).is_zero:
            raise DomainError("coordinates do not satisfy a^2+b^2+c^2 = 1")
        object.__setattr__(self, "vec", vec)

    def __setattr__(self, name, value):
        raise AttributeError("SpherePoint is immutable")

    @property
    def ctx(self):
        return self.vec.ctx

    @property
    def matrix(self):
        return iota(self.vec)

    def eq_to(self, other):
        return self.vec.eq_to(other.vec)

    def serialize(self):
        return self.vec.serialize()

    def __repr__(self):
        return f"{type(self).__name__}{self.serialize()}"


def _require_cup(vec):
    """The cup bound ||vec - sigma_z|| <= 1/p (sup-norm on coordinates)."""
    dc = vec.c - from_int(1, vec.ctx)
    for comp in (vec.a, vec.b, dc):
        if comp.valuation_lower_bound < 1:
            raise OutsideDisk("point is farther than 1/p from the pole")


class CupPoint(SpherePoint):
    """Sphere point with ||P - sigma_z|| <= 1/p (sup-norm on coordinates)."""

    __slots__ = ()

    def __init__(self, vec):
        super().__init__(vec)
        _require_cup(vec)


def sigma_z(ctx):
    one = from_int(1, ctx)
    z = PadicNumber.exact_zero(ctx)
    return CupPoint(Vector3(z, z, one))


class ProjectiveRotation:
    """Class of [[alpha, beta], [-conj(beta), conj(alpha)]] modulo real
    scalars, stored by one canonical representative.

    Canonical scaling: the whole matrix is divided by the least-valuation real
    component (re before im on ties) of its least-valuation entry (alpha
    before beta on ties), which pins that component to the literal 1.  Only
    real scalars keep the matrix shape, so this is the finest normalization
    available.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        det = alpha.norm() + beta.norm()
        if det.is_zero:
            raise DomainError("alpha conj(alpha) + beta conj(beta) vanishes")
        pivot = self._pivot(alpha, beta)
        object.__setattr__(self, "alpha", alpha / pivot)
        object.__setattr__(self, "beta", beta / pivot)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectiveRotation is immutable")

    @staticmethod
    def _pivot(alpha, beta):
        def key(x):
            v = x.valuation
            return INFINITE if v is None else v

        entry = alpha if key(alpha) <= key(beta) else beta
        return entry.re if key(entry.re) <= key(entry.im) else entry.im

    @staticmethod
    def identity(ctx):
        return ProjectiveRotation(QpiElement.one(ctx), QpiElement.zero(ctx))

    @staticmethod
    def from_matrix(M):
        """Accepts any matrix of rotation shape m21 = -conj(m12),
        m22 = conj(m11)."""
        if not (M.m21 + M.m12.conj()).is_zero or not (M.m22 - M.m11.conj()).is_zero:
            raise DomainError("matrix is not of rotation shape")
        return ProjectiveRotation(M.m11, M.m12)

    @staticmethod
    def from_clifford_product(u, w):
        """The rotation induced by the double reflection sigma_u sigma_w,
        through the product iota(u) iota(w)."""
        qu = quadratic_form(u, u)
        qw = quadratic_form(w, w)
        if qu.is_zero or qw.is_zero:
            raise IsotropicAxis("double reflection needs non-isotropic axes")
        return ProjectiveRotation.from_matrix(iota(u) * iota(w))

    @property
    def ctx(self):
        return self.alpha.ctx

    @property
    def matrix(self):
        return Mat2(self.alpha, self.beta, -self.beta.conj(), self.alpha.conj())

    def inverse(self):
        # the adjugate [[conj(alpha), -beta], [conj(beta), alpha]] is again of
        # rotation shape and differs from the true inverse by the real
        # determinant, which the projective class absorbs
        return ProjectiveRotation(self.alpha.conj(), -self.beta)

    def eq_to(self, other):
        return self.alpha.eq_to(other.alpha) and self.beta.eq_to(other.beta)

    def serialize(self):
        return f"[{format_qpi(self.alpha)}; {format_qpi(self.beta)}]"

    def __repr__(self):
        return f"ProjectiveRotation{self.serialize()}"


def rotation_compose(R, S):
    a1, b1 = R.alpha, R.beta
    a2, b2 = S.alpha, S.beta
    return ProjectiveRotation(a1 * a2 - b1 * b2.conj(), a1 * b2 + b1 * a2.conj())


def conjugate_matrix(R, M):
    """R M R^{-1} with the canonical representative; the determinant is real,
    so the division keeps Pauli shapes intact."""
    rep = R.matrix
    return (rep * M * rep.adjugate()).scale_div(rep.det())


def rotation_act(R, P):
    """Conjugation action on the sphere."""
    return SpherePoint(iota_inv(conjugate_matrix(R, P.matrix)))


def mobius_action(R, xi):
    """The fractional-linear action matching rotation_act through the cup
    chart: xi -> (alpha xi - beta)/(conj(beta) xi + conj(alpha)).

    The sign pattern is pinned down by equivariance with the conjugation
    action: writing the conjugated matrix back through the chart factors as
    2(alpha + beta conj(xi)) (alpha xi - beta)
    over 2(alpha + beta conj(xi)) (conj(beta) xi + conj(alpha)), and the
    common factor cancels projectively.
    """
    den = R.beta.conj() * xi + R.alpha.conj()
    if den.is_zero:
        raise PoleHit("Moebius denominator vanishes")
    return (R.alpha * xi - R.beta) / den


def stereo(P, pole="cup"):
    """Stereographic charts: 'cup'/'north' = (a+ib)/(1+c), 'south' =
    (a+ib)/(1-c); the cup chart additionally insists on the cup invariant."""
    vec = P.vec
    one = from_int(1, vec.ctx)
    if pole == "cup":
        _require_cup(vec)
        den = one + vec.c
    elif pole == "north":
        den = one + vec.c
    elif pole == "south":
        den = one - vec.c
    else:
        raise ValueError(f"unknown pole {pole!r}")
    if den.is_zero:
        raise PoleHit("stereographic projection undefined at this point")
    return QpiElement(vec.a, vec.b) / den


def lift(xi):
    """Inverse of the cup chart: |xi|_p < 1 back to the sphere near sigma_z."""
    if xi.valuation_lower_bound < 1:
        raise OutsideDisk("lift needs |xi|_p < 1")
    ctx = xi.ctx
    one = from_int(1, ctx)
    n = xi.norm()
    den = one + n
    c = (one - n) / den
    z = (xi + xi) / den
    return CupPoint(Vector3(z.re, z.im, c))


def polar_point(theta, phi):
    """The cup point with colatitude-like theta and longitude phi:

        [[cos 2theta, exp(i phi) sin 2theta],
         [exp(-i phi) sin 2theta, -cos 2theta]]
    """
    ctx = theta.ctx
    two_theta = theta + theta
    s, c = sin(two_theta), cos(two_theta)
    eiphi = exp(QpiElement(PadicNumber.exact_zero(ctx), phi))
    z = eiphi * s
    return CupPoint(Vector3(z.re, z.im, c))


def exp_vertical(a):
    """diag(exp(ia), exp(-ia)) as a projective rotation; fixes sigma_z."""
    ctx = a.ctx
    ea = exp(QpiElement(PadicNumber.exact_zero(ctx), a))
    return ProjectiveRotation(ea, QpiElement.zero(ctx))


def exp_horizontal(beta):
    """matrix_exp of [[0, beta], [-conj(beta), 0]]; moves sigma_z into the
    cup."""
    ctx = beta.ctx
    z = QpiElement.zero(ctx)
    E = matrix_exp(Mat2(z, beta, -beta.conj(), z))
    return ProjectiveRotation.from_matrix(E)

