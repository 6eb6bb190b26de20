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

    @staticmethod
    def identity(ctx):
        one = QpiElement.one(ctx)
        zero = QpiElement.zero(ctx)
        return Mat2(one, zero, zero, one)

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

    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def inverse(self):
        # the division raises for a determinant that is zero, exactly or to
        # its known precision
        d = self.det()
        return Mat2(self.m22 / d, -self.m12 / d, -self.m21 / d, self.m11 / d)

    def eq_to(self, other):
        return all(a.eq_to(b) for a, b in zip(self.entries(), other.entries()))

    def __repr__(self):
        return f"Mat2[[{self.m11}, {self.m12}], [{self.m21}, {self.m22}]]"
