"""The Pauli model of Q_p^3 and the p-adic 2-sphere.

A vector (a,b,c) embeds as the traceless hermitian-like matrix

    iota(a,b,c) = [[c, a+ib], [a-ib, -c]]

whose square is (a^2+b^2+c^2) I, so the sphere {q = 1} becomes the set of
matrix involutions of that shape.  Rotations act by conjugation through the
projective group of matrices [[alpha, beta], [-conj(beta), conj(alpha)]].

The one chart is the cup of points within 1/p of sigma_z = (0, 0, 1): stereo
sends it onto the open unit disk of Q_p(i), lift sends it back, and there
rotations act as Moebius maps.
"""

from .analytic import _require, _tan_over_root, cos, exp, sin
from .errors import DomainError, IsotropicAxis, OutsideDisk, PoleHit
from .matrix import Mat2
from .padic import INFINITE, PadicNumber, format_padic, from_int, vp_int
from .qpi import QpiElement, format_qpi, real_quotients


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


def reflect(u, v):
    """Reflection of v in the hyperplane orthogonal to u."""
    qu = quadratic_form(u, u)
    if qu.is_zero:
        raise IsotropicAxis("cannot reflect in an isotropic axis")
    factor = from_int(2, u.ctx) * quadratic_form(v, u) / qu
    return v - u.scale(factor)


class SpherePoint:
    """Point with q(v) = 1, carried as its coordinate vector; the matrix
    involution iota(v) is derived on demand.  sigma_z, lift, rotation_act and
    polar_point keep q(v) = 1 by construction, so it is not rechecked here;
    `check` reports a break through chart-round-trip and equivariance."""

    __slots__ = ("vec",)

    def __init__(self, vec):
        object.__setattr__(self, "vec", vec)

    def __setattr__(self, name, value):
        raise AttributeError("SpherePoint is immutable")

    @property
    def matrix(self):
        return iota(self.vec)

    def eq_to(self, other):
        return self.vec.eq_to(other.vec)

    def serialize(self):
        return self.vec.serialize()

    def __repr__(self):
        return f"SpherePoint{self.serialize()}"


def sigma_z(ctx):
    one = from_int(1, ctx)
    z = PadicNumber.exact_zero(ctx)
    return SpherePoint(Vector3(z, z, one))


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
        # one inverse of the real pivot for all four parts, unless a part is
        # an exact zero, whose display m depends on the path (as in lift); a
        # zero pivot leaves both norms zero, so it never gets here
        if any(c.is_exact_zero for c in (alpha.re, alpha.im, beta.re, beta.im)):
            alpha, beta = alpha / pivot, beta / pivot
        else:
            a, b, c, d = real_quotients((alpha.re, alpha.im, beta.re, beta.im), pivot)
            alpha, beta = QpiElement(a, b), QpiElement(c, d)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

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
    def from_clifford_product(u, w):
        """The rotation induced by the double reflection sigma_u sigma_w,
        through the product iota(u) iota(w), which as a product of two Pauli
        matrices has rotation shape."""
        qu = quadratic_form(u, u)
        qw = quadratic_form(w, w)
        if qu.is_zero or qw.is_zero:
            raise IsotropicAxis("double reflection needs non-isotropic axes")
        return ProjectiveRotation(*(iota(u) * iota(w)).entries()[:2])

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


def rotation_act(R, P):
    """Conjugation action on the sphere: R iota(v) adj(R) / det(R) is iota of
    the image (a, b, c), so only its first row (c, a + ib) is computed.  The
    determinant is real, so the quotient keeps the Pauli shape.  The left
    product stays a full Mat2 product, though 4 of its 8 Q_p(i) products go
    unused: perfbench's LAYERS_RUN["loop_deep"] requires matrix.mul to read
    non-zero (ROADMAP item 7)."""
    rep = R.matrix
    r11, r12 = (rep * P.matrix).entries()[:2]
    det = rep.det()
    c = (r11 * rep.m22 + r12 * -rep.m21) / det
    w = (r11 * -rep.m12 + r12 * rep.m11) / det
    return SpherePoint(Vector3(w.re, w.im, c.re))


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


def stereo(P):
    """The cup chart (a+ib)/(1+c), defined on the cup ||P - sigma_z|| <= 1/p
    (sup-norm on coordinates), where 1 + c = 2 + (c - 1) is a unit.  The
    divisor is real, so Q_p(i) division divides a and b by it alone."""
    vec = P.vec
    one = from_int(1, vec.ctx)
    if min(x.valuation_lower_bound for x in (vec.a, vec.b, vec.c - one)) < 1:
        raise OutsideDisk("point is farther than 1/p from the pole")
    return QpiElement(vec.a, vec.b) / (one + vec.c)


def lift(xi):
    """Inverse of the cup chart: |xi|_p < 1 back to the sphere near sigma_z,
    (2 xi, 1 - N(xi)) / (1 + N(xi)).  The real unit 1 + N(xi) divides all
    three parts through one inverse; an exact-zero part of xi keeps the
    Q_p(i) division, whose display m for it depends on the path."""
    if xi.valuation_lower_bound < 1:
        raise OutsideDisk("lift needs |xi|_p < 1")
    one = from_int(1, xi.ctx)
    n = xi.norm()
    den = one + n
    two_xi = xi + xi
    if two_xi.re.is_exact_zero or two_xi.im.is_exact_zero:
        z = two_xi / den
        return SpherePoint(Vector3(z.re, z.im, (one - n) / den))
    a, b, c = real_quotients((two_xi.re, two_xi.im, one - n), den)
    return SpherePoint(Vector3(a, b, c))


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
    return SpherePoint(Vector3(z.re, z.im, c))


def exp_vertical(a):
    """diag(exp(ia), exp(-ia)) as a projective rotation; fixes sigma_z."""
    ctx = a.ctx
    ea = exp(QpiElement(PadicNumber.exact_zero(ctx), a))
    return ProjectiveRotation(ea, QpiElement.zero(ctx))


def exp_horizontal(beta):
    """exp of X = [[0, beta], [-conj(beta), 0]]; moves sigma_z into the cup.

    X^2 = -N(beta) I, so exp(X) = cos(y) I + (sin(y)/y) X, y^2 = N(beta), whose
    class is (1, t beta), t = tan(y)/y (see analytic._tan_over_root)."""
    _require(beta, "exp_horizontal", "EXP_DISK")
    ctx = beta.ctx
    n = beta.norm()
    if n.is_zero:
        t = from_int(1, ctx).truncate(n.m - vp_int(3, ctx.p))
    else:
        t = _tan_over_root(n)
    return ProjectiveRotation(QpiElement.one(ctx), QpiElement(t * beta.re, t * beta.im))
