"""The norm route of Q_p(i) division, kept as the reference for the real-divisor
branch: every divisor w, real or not, goes through z conj(w) over N(w), each
part by its own scalar division, with the kernel's errors and messages."""

from padicloop.errors import DivisionByZero, PrecisionExhausted
from padicloop.padic import from_int
from padicloop.qpi import QpiElement


def norm_route_division(z, w):
    if not isinstance(w, QpiElement):
        w = QpiElement(w)
    if w.is_exact_zero:
        raise DivisionByZero("division by exact zero in Q_p(i)")
    n = w.norm()
    if n.is_zero:
        raise PrecisionExhausted("divisor is zero to its known precision in Q_p(i)")
    c = z * w.conj()
    return QpiElement(c.re / n, c.im / n)


def norm_route_lift(xi):
    """clifford.lift with every division on the norm route: (2 xi, 1 - N(xi))
    over 1 + N(xi)."""
    one = from_int(1, xi.ctx)
    n = xi.norm()
    den = one + n
    z = norm_route_division(xi + xi, den)
    return z.re, z.im, (one - n) / den


def norm_route_stereo(a, b, c):
    """clifford.stereo of the point (a, b, c) on the norm route."""
    return norm_route_division(QpiElement(a, b), from_int(1, a.ctx) + c)


def norm_route_sphere_loop_add(A, B):
    """loop.sphere_loop_add of two points given as (a, b, c), on the norm route."""
    xa, xb = norm_route_stereo(*A), norm_route_stereo(*B)
    return norm_route_lift(norm_route_division(xa + xb, 1 - xa.conj() * xb))
