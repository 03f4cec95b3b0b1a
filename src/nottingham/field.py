"""Exact arithmetic in the prime fields F_p for small p.

Residues are kept canonical in [0, p) at all times, so equality is plain
value comparison.  The supported characteristics are primes up to 257,
which keeps every field small enough to test exhaustively.
"""

from .errors import ZeroInverse

PRIME_CAP = 257


def _is_int(x):
    """True for a Python int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_prime(p):
    """Return p unchanged if it is a prime with 2 <= p <= 257.

    Raises TypeError for non-integers and ValueError for composites or
    primes outside the supported range.  Deterministic trial division is
    exact for every value this cap allows.
    """
    if not _is_int(p):
        raise TypeError(f"characteristic must be an int, got {type(p).__name__}")
    if p < 2 or p > PRIME_CAP:
        raise ValueError(f"characteristic {p} outside supported range [2, {PRIME_CAP}]")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"characteristic {p} is not prime")
        d += 1
    return p


class FieldElement:
    """A residue modulo a small prime p."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        check_prime(p)
        self.value = int(value) % p
        self.p = p

    def _other_value(self, other):
        if isinstance(other, FieldElement):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other.value
        if _is_int(other):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._other_value(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._other_value(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._other_value(other)
        if v is None:
            return NotImplemented
        return FieldElement(v - self.value, self.p)

    def __mul__(self, other):
        v = self._other_value(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.value * v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.p)

    def __pow__(self, e):
        if not _is_int(e):
            return NotImplemented
        if e < 0:
            raise ValueError("negative exponent; use inv() and a positive power")
        return FieldElement(pow(self.value, e, self.p), self.p)

    def inv(self):
        """Multiplicative inverse; raises ZeroInverse on zero."""
        if self.value == 0:
            raise ZeroInverse(f"0 has no multiplicative inverse in F_{self.p}")
        return FieldElement(pow(self.value, -1, self.p), self.p)

    def __truediv__(self, other):
        if _is_int(other):
            other = FieldElement(other, self.p)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inv()

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.p == other.p and self.value == other.value
        if _is_int(other):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.value))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"FieldElement({self.value}, p={self.p})"
