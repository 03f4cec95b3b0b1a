"""An explicit order-4 automorphism of F_2[[t]], built three ways.

The element sigma lives in the Nottingham group at p = 2.  Its coefficient
support has a closed form: exponents {1, 2} together with 6*2^j + 2*l for
j >= 0 and 0 <= l < 2^j.  The same series also arises from exact kernel
arithmetic, through two series that do all the work:

* the Artin-Schreier root s, the valuation-3 solution of  s^2 + s = t^3 + t^4;
* the relation root      w = s/(1+t), the valuation-3 solution of
                         w + (1+t)*w^2 + t^3 = 0.

With r = 1/(1+t) the two arithmetic routes are

    algebraic:  sigma(t) = t*r + s*r^2
    relation:   sigma(t) = (t + w)*r

and both agree with the closed-form support, coefficient for coefficient,
at every precision.  The quotient F_2[[t,w]]/(w + (1+t)w^2 + t^3) that
motivates the relation route is never represented directly: w is
eliminated to the univariate series above, and the one genuinely
two-variable identity (the factorization check below) treats the second
variable as a formal degree-2 polynomial indeterminate.

run_checks() certifies the whole construction at a chosen precision:

    artin_schreier   s^2 + s = t^3 + t^4
    factorization    (X + s)(X + s + 1) = X^2 + X + t^3 + t^4  (coefficientwise in X)
    ring_relation    w + (1+t)*w^2 + t^3 = 0
    equivariance     w(sigma(t)) = w(t)*r   (sigma transports w consistently)
    order_four       sigma^4 = id, sigma^2 != id, sigma != id
    route_agreement  closed = algebraic = relation

order_four holds at every finite precision; the checks certify the order-4
claim to precision N, they do not replace the algebraic proof that the
order is exactly 4 in the full group.  The finite facts that proof rests
on are checked exactly by
tests/test_order4.py::test_order_four_in_the_full_group_by_a_finite_certificate.

Geometric aside: the relation is the dehomogenization at z = 1 (t = x/z,
w = y/z) of the plane cubic z^2*y + (z + x)*y^2 + x^3 = 0, a supersingular
elliptic curve; the automorphism is induced by the linear substitution
x -> x + y, z -> x + z fixing the point (0:0:1).  None of that geometry is
computed here.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import WrongCharacteristic
from .group import GroupElement
from .series import Series, _check_trunc, _compose_all, _series

CHECK_NAMES = (
    "artin_schreier",
    "factorization",
    "ring_relation",
    "equivariance",
    "order_four",
    "route_agreement",
)

DEFAULT_PRECISION = 1024


def _r(x):
    """x*r over F_2, where r = 1/(1+t) is the all-ones series: x's prefix XOR."""
    return _series(x.p, np.bitwise_xor.accumulate(x.coeffs))


def _algebraic(w):
    """t*r + s*r^2 from w = s*r as two divisions, t*r + w*r: not the relation route."""
    return GroupElement(_r(Series.gen(2, w.trunc)) + _r(w))


def _sigma_coeffs(trunc):
    """The closed form's coefficient array, 1 on sigma_support(trunc)."""
    _check_trunc(trunc, 2)
    c = np.zeros(trunc + 1, dtype=np.int64)
    c[1:3] = 1
    b = 6
    while b <= trunc:
        c[b:b * 4 // 3:2] = 1
        b *= 2
    return c


def sigma_support(trunc):
    """Nonzero exponents of the closed form, ascending: {1, 2} and all
    6*2^j + 2*l <= trunc with j >= 0, 0 <= l < 2^j."""
    return tuple(np.flatnonzero(_sigma_coeffs(trunc)).tolist())


def sigma_closed(trunc):
    """The order-4 element from its closed-form coefficient support."""
    return GroupElement(_series(2, _sigma_coeffs(trunc)))


def schreier_root(trunc):
    """The valuation-3 root s of s^2 + s = t^3 + t^4 over F_2, that is
    Series.artin_schreier_root of t^3 + t^4 truncated at N."""
    rhs = ((e, 1) for e in (3, 4) if e <= trunc)    # lazy: from_terms checks trunc first
    return Series.from_terms(2, trunc, rhs).artin_schreier_root()


def relation_root(trunc):
    """The valuation-3 root w = s*r = s/(1+t) of w + (1+t)*w^2 + t^3 = 0 over F_2."""
    return _r(schreier_root(trunc))


def sigma_algebraic(trunc):
    """The same element assembled as t*r + s*r^2, r = 1/(1+t)."""
    _check_trunc(trunc, 2)
    return _algebraic(_r(schreier_root(trunc)))


def sigma_relation(trunc):
    """The same element assembled as (t + w)*r, r = 1/(1+t), in one division."""
    _check_trunc(trunc, 2)
    return GroupElement(_r(Series.gen(2, trunc) + relation_root(trunc)))


@dataclass(frozen=True)
class SigmaBundle:
    """The four series of the construction at one common precision.

    Intact bundles satisfy: sigma_closed == sigma_algebraic coefficientwise,
    schreier_root^2 + schreier_root = t^3 + t^4, and
    relation_root * (1+t) = schreier_root.  run_checks() re-derives these
    rather than trusting the bundle, so tampered bundles are detected.
    """

    sigma_closed: GroupElement
    sigma_algebraic: GroupElement
    schreier_root: Series
    relation_root: Series

    @property
    def trunc(self):
        return self.sigma_closed.trunc

    def with_candidate(self, candidate):
        """Same bundle with the closed-form slot replaced by a candidate
        element; used to run the checks against externally supplied series."""
        if not isinstance(candidate, GroupElement):
            raise TypeError(f"expected a GroupElement, got {type(candidate).__name__}")
        return replace(self, sigma_closed=candidate)


def sigma_bundle(trunc):
    _check_trunc(trunc, 8)
    s = schreier_root(trunc)
    w = _r(s)
    return SigmaBundle(
        sigma_closed=sigma_closed(trunc),
        sigma_algebraic=_algebraic(w),
        schreier_root=s,
        relation_root=w,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    first_failure_exponent: int | None = None

    def render(self):
        if self.passed:
            return f"{self.name}: PASS"
        return f"{self.name}: FAIL first_failure_exponent={self.first_failure_exponent}"


@dataclass(frozen=True)
class VerificationReport:
    precision: int
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def render(self):
        return "".join(c.render() + "\n" for c in self.checks)

    def __str__(self):
        return self.render()


def _first_difference(f, g):
    """Least exponent where two same-context series differ, else None."""
    f._check_context(g)
    d = f.coeffs != g.coeffs
    return int(d.argmax()) if d.any() else None


def run_checks(bundle):
    """Evaluate the six identities against a bundle and report each one.

    The closed-form slot is the element under test for the equivariance,
    order and route-agreement checks, so replacing it (with_candidate, or a
    deliberately corrupted element) flips exactly the checks that depend on
    it.  A failing check carries the least exponent at which the identity
    breaks; for a "must differ" sub-check that unexpectedly agrees, the
    sentinel N+1 is reported (no distinguishing exponent within precision).
    """
    if not isinstance(bundle, SigmaBundle):
        raise TypeError(f"expected a SigmaBundle, got {type(bundle).__name__}")
    n = bundle.trunc
    _check_trunc(n, 8)
    if bundle.sigma_closed.p != 2:
        raise WrongCharacteristic("the construction lives in characteristic 2")
    t = Series.gen(2, n)
    rhs = Series.from_terms(2, n, {3: 1, 4: 1})  # t^3 + t^4
    s = bundle.schreier_root
    w = bundle.relation_root
    sigma = bundle.sigma_closed.series
    # One tree walk composes w(sigma(t)) for (d) and sigma(sigma(t)) for (e).
    w_sigma, sigma2 = _compose_all([w, sigma], sigma)

    # (e) sigma^4 = id, sigma^2 != id, sigma != id
    order = _first_difference(sigma2(sigma2), t)
    if order is None and (sigma2 == t or sigma == t):
        order = n + 1

    # (f) closed = algebraic = (t + w)*r
    route = _first_difference(sigma, bundle.sigma_algebraic.series)
    if route is None:
        route = _first_difference(sigma, _r(t + w))

    firsts = (
        # (a) s^2 + s = t^3 + t^4
        _first_difference(s * s + s, rhs),
        # (b) (X + s)(X + s + 1) = X^2 + X + (t^3 + t^4), compared in X^0 alone:
        # over F_2 the X^1 coefficient s + (s + 1) = 1 and the X^2 coefficient 1
        # hold for every series s, so only s*(s + 1) = t^3 + t^4 can fail.
        _first_difference(s * (s + 1), rhs),
        # (c) w + (1+t)*w^2 + t^3 = 0
        _first_difference(w + (1 + t) * (w * w), Series.from_terms(2, n, {3: 1})),
        # (d) w(sigma(t)) = w(t) * r: the substitution t -> sigma(t) moves the
        # relation root the same way the automorphism is declared to move it.
        _first_difference(w_sigma, _r(w)),
        order,
        route,
    )
    return VerificationReport(n, tuple(CheckResult(name, e is None, e) for name, e in zip(CHECK_NAMES, firsts)))


def verify_all(trunc=DEFAULT_PRECISION):
    """Build the bundle at the given precision and run every check."""
    return run_checks(sigma_bundle(trunc))
