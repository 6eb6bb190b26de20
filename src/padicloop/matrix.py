"""2x2 matrices over Q_p(i): the carrier for Pauli vectors, rotations and
left-translation representatives."""

from .qpi import QpiElement


class Mat2:
    __slots__ = ("m11", "m12", "m21", "m22")

    def __init__(self, m11, m12, m21, m22):
        self.m11 = m11
        self.m12 = m12
        self.m21 = m21
        self.m22 = m22

    @property
    def ctx(self):
        return self.m11.ctx

    @staticmethod
    def identity(ctx):
        one = QpiElement.one(ctx)
        zero = QpiElement.zero(ctx)
        return Mat2(one, zero, zero, one)

    @staticmethod
    def zero(ctx):
        z = QpiElement.zero(ctx)
        return Mat2(z, z, z, z)

    @staticmethod
    def diag(a, d):
        zero = QpiElement.zero(a.ctx)
        return Mat2(a, zero, zero, d)

    def entries(self):
        return (self.m11, self.m12, self.m21, self.m22)

    def __add__(self, other):
        return Mat2(*(a + b for a, b in zip(self.entries(), other.entries())))

    def __neg__(self):
        return Mat2(*(-a for a in self.entries()))

    def __mul__(self, other):
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def scale(self, s):
        return Mat2(*(a * s for a in self.entries()))

    def scale_div(self, s):
        return Mat2(*(a / s for a in self.entries()))

    def div_int(self, n):
        return Mat2(*(a.div_int(n) for a in self.entries()))

    def trace(self):
        return self.m11 + self.m22

    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def adjugate(self):
        return Mat2(self.m22, -self.m12, -self.m21, self.m11)

    def inverse(self):
        # the division raises for a determinant that is zero, exactly or to
        # its known precision
        return self.adjugate().scale_div(self.det())

    @property
    def valuation_lower_bound(self):
        return min(a.valuation_lower_bound for a in self.entries())

    @property
    def known_precision(self):
        return min(a.known_precision for a in self.entries())

    def truncate(self, m_cap):
        return Mat2(*(a.truncate(m_cap) for a in self.entries()))

    def eq_to(self, other):
        return all(a.eq_to(b) for a, b in zip(self.entries(), other.entries()))

    def __repr__(self):
        return f"Mat2[[{self.m11}, {self.m12}], [{self.m21}, {self.m22}]]"
