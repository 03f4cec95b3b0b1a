"""The Nottingham group over F_p at finite truncation.

Elements are power series of the form t + (order >= 2 terms), i.e.
automorphisms of F_p[[t]] that agree with the identity modulo t^2,
represented modulo t^(N+1).  The group law is composition, so everything
here happens in the finite quotient by the congruence subgroup of depth N.

Depth measures position in the congruence filtration: an element f != id
has depth d when f(t) - t has valuation d + 1.  The identity gets the
distinguished depth INFINITE_DEPTH so callers can branch on it.
"""

import math

import numpy as np

from .errors import NotCoprime, NotNormalized, ZeroParameter
from .field import _echo, _is_int, check_prime
from .series import Series, _check_trunc, _compose, _ladder, _substitute

INFINITE_DEPTH = math.inf
DEFAULT_CAP_EXP = 6     # order_mod_truncation's cap is p^DEFAULT_CAP_EXP unless given


class GroupElement:
    """A series t + (higher order), under composition."""

    __slots__ = ("series",)

    def __init__(self, series):
        if not isinstance(series, Series):
            raise TypeError(f"expected a Series, got {type(series).__name__}")
        if series.trunc < 1 or series[0] != 0 or series[1] != 1:
            raise NotNormalized("group elements are series t + (order >= 2 terms)")
        self.series = series

    @classmethod
    def identity(cls, p, trunc):
        return cls(Series.gen(p, trunc))

    @property
    def p(self):
        return self.series.p

    @property
    def trunc(self):
        return self.series.trunc

    def __mul__(self, other):
        """Group law: (f*g)(t) = f(g(t))."""
        if not isinstance(other, GroupElement):
            return NotImplemented
        return GroupElement(self.series.compose(other.series))

    def __pow__(self, k):
        if not _is_int(k):
            return NotImplemented
        if k < 0:
            raise ValueError("negative powers: use inverse() first")
        d = self.depth()        # f^k = t if the first p-power whose bound reaches N divides k
        k %= 1 if d > self.trunc else _chain(d, 1, self.p, self.trunc, math.inf)[1] * self.p
        if k == 0:
            return GroupElement.identity(self.p, self.trunc)
        p, c = self.p, self.series.coeffs
        return GroupElement(self.series._new(_ladder(c, k, lambda f, g: _compose(f[None], g, p)[0])))

    def inverse(self):
        """The compositional inverse, again a group element."""
        return GroupElement(self.series.reversion())

    def depth(self):
        """Largest d with f(t) = t mod t^(d+1); INFINITE_DEPTH for the identity."""
        nz = np.flatnonzero(self.series.coeffs[2:])     # f = t + O(t^2) by construction
        return int(nz[0]) + 1 if nz.size else INFINITE_DEPTH

    def is_identity(self):
        return self.depth() is INFINITE_DEPTH

    def truncate(self, new_trunc):
        return GroupElement(self.series.truncate(new_trunc))

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.series == other.series

    def __hash__(self):
        return hash(("group", self.series))

    def __repr__(self):
        return f"GroupElement({self.series!r})"


def identity(p, trunc):
    return GroupElement.identity(p, trunc)


def _sen(d, p, q):
    """Least D >= p*d with D = d mod q: depth(g^p) >= D if g = f^(q/p) is d deep."""
    return p * d + (d - p * d) % q


def _chain(d, k, p, n, cap):
    """From f^k at least d deep: the last p-power k <= cap whose bound d is < n."""
    while k * p <= cap and _sen(d, p, k * p) < n:
        d, k = _sen(d, p, k * p), k * p
    return d, k


def order_mod_truncation(f, cap=None):
    """Least p-power k <= cap with f^k = id mod t^(N+1), or None.

    Only powers p^j are tried: finite-order elements of a pro-p group have
    p-power order.  The value is the order in the finite quotient group at
    precision N; the true order in the full group is at least this value
    and can be strictly larger (it is monotone as N grows).

    For g = f^(p^j) of depth d, g^p is at least p*d deep (Camina, The
    Nottingham group, 2000), and its depth is d mod p^(j+1) (Sen, Ann. of
    Math. 90, 1969; for power series, Lubin, Proc. AMS 123, 1995): it is at
    least _sen(d, p, p^(j+1)).  Depths below m are exact mod t^(m+1), and
    elements N deep are t.  So the chain f, f^p, ... is taken at m one above
    the bound on the last power that may not be t.  A power that reads t
    there beat its bound: the chain is taken again at min(N, max(c*m, the
    new bound + 1)), c = 2, or 4 at p = 2, where bounds are beaten most.
    """
    if not isinstance(f, GroupElement):
        raise TypeError(f"expected a GroupElement, got {type(f).__name__}")
    p, n = f.p, f.trunc
    cap = p ** DEFAULT_CAP_EXP if cap is None else cap
    if not _is_int(cap) or cap < 1:
        raise ValueError(f"cap must be a positive int, got {_echo(cap)}")
    d = f.depth()
    m = n if d > n else _chain(d, 1, p, n, cap)[0] + 1
    while True:
        k, g = 1, f.truncate(m)
        while (d := g.depth()) < m:         # the exact depth of f^k
            if k * p > cap:
                return None
            if _sen(d, p, k * p) >= n:
                return k * p
            k, g = k * p, g ** p
        if m == n:
            return k
        m = min(n, max((4 if p == 2 else 2) * m, _chain(m, k, p, n, cap)[0] + 1))


def klopsch_rep(p, m, a, trunc):
    """The order-p element t * (1 - a*t^m)^(-1/m), for gcd(m, p) = 1, a != 0.

    One representative per conjugacy class of order-p elements, indexed by
    the depth m (prime to p) and the parameter a in F_p*, an int.  The
    exponent -1/m is realized operationally, in x = t^m at precision N // m:
    invert 1 - a*x, take the m-th root, spread x to t^m and shift one place
    for the factor t.  The leading correction is (a/m) * t^(m+1), so the
    depth is exactly m; the p-th power is the identity.
    """
    check_prime(p)
    if not _is_int(m) or m < 1:
        raise ValueError(f"depth index must be a positive int, got {_echo(m)}")
    if m % p == 0:
        raise NotCoprime(f"depth index {_echo(m)} is divisible by p = {p}")
    if not _is_int(a):
        raise ValueError(f"parameter must be an int, got {_echo(a)}")
    if a % p == 0:
        raise ZeroParameter("parameter a must be a nonzero field element")
    _check_trunc(trunc, m + 1)      # depth m is seen at N >= m + 1
    u = Series(p, trunc // m, (1, -a % p)).reciprocal().nth_root(m)
    t_u = np.concatenate(([0], _substitute(u.coeffs, m, trunc)))     # t * u(t^m)
    return GroupElement(Series(p, trunc, t_u))
