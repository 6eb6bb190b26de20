"""Prime context: the odd prime p and the requested working precision."""

from .errors import PadicError


# Miller-Rabin with the first 13 primes as bases is proven deterministic below
# this bound (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality for n < MAX_PRIME; PadicError beyond it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= MAX_PRIME:
        raise PadicError(f"p must be below {MAX_PRIME}, where primality is proven")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Immutable:
    """Base of the immutable value types: constructors set their slots with
    object.__setattr__, and any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"{type(self).__name__}({self.serialize()})"


class PrimeContext(Immutable):
    """Carries p and the significant-digit count N every constructor targets.

    p and N are immutable.  Powers of p are cached because every normalization
    reduces modulo some p^k: pow stores p^k the first time k is asked for and
    nothing else, so a request keeps only the few powers it uses.  A store can
    only hold the correct power, so a context can be shared between threads.
    """

    __slots__ = ("p", "precision", "_powers")

    def __init__(self, p, precision=32):
        if not isinstance(p, int) or not is_prime(p):
            raise PadicError(f"p must be prime, got {p}")
        if p == 2:
            raise PadicError("p = 2 is not supported; the series bounds need p odd")
        if not isinstance(precision, int) or precision < 1:
            raise PadicError(f"precision must be a positive integer, got {precision}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "_powers", {})

    def pow(self, k):
        """p**k for k >= 0."""
        try:
            return self._powers[k]
        except KeyError:
            power = self._powers[k] = self.p**k
            return power

    def inv_mod(self, u, k):
        """Inverse of the unit u modulo p**k."""
        return pow(u, -1, self.pow(k))

    def inv_lift(self, u, k):
        """Inverse of the unit u modulo p**k by Newton (Hensel) lifting, x <-
        x (2 - u x) from pow's inverse at k <= 8 (Brent and Zimmermann, Modern
        Computer Arithmetic, 2.4): far cheaper than inv_mod's Euclid on a wide
        unit such as a factorial's, dearer on a small rational's."""
        ks = [k]
        while ks[-1] > 8:
            ks.append((ks[-1] + 1) // 2)
        x = pow(u, -1, self.pow(ks.pop()))
        for j in reversed(ks):
            pj = self.pow(j)
            x = x * (2 - u % pj * x) % pj
        return x

    def __eq__(self, other):
        return (
            isinstance(other, PrimeContext)
            and self.p == other.p
            and self.precision == other.precision
        )

    def __hash__(self):
        return hash((self.p, self.precision))

    def __repr__(self):
        return f"PrimeContext(p={self.p}, precision={self.precision})"
