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
order is exactly 4 in the full group.

Geometric aside: the relation is the dehomogenization at z = 1 (t = x/z,
w = y/z) of the plane cubic z^2*y + (z + x)*y^2 + x^3 = 0, a supersingular
elliptic curve; the automorphism is induced by the linear substitution
x -> x + y, z -> x + z fixing the point (0:0:1).  None of that geometry is
computed here.
"""

from dataclasses import dataclass, replace

from .errors import BadPrecision, WrongCharacteristic
from .group import GroupElement
from .series import MAX_TRUNC, Series

CHECK_NAMES = (
    "artin_schreier",
    "factorization",
    "ring_relation",
    "equivariance",
    "order_four",
    "route_agreement",
)

DEFAULT_PRECISION = 1024


def sigma_support(trunc):
    """Nonzero exponents of the closed form, ascending: {1, 2} and all
    6*2^j + 2*l <= trunc with j >= 0, 0 <= l < 2^j."""
    if (not isinstance(trunc, int) or isinstance(trunc, bool)
            or not 2 <= trunc <= MAX_TRUNC):
        raise BadPrecision(f"need truncation order in [2, {MAX_TRUNC}], got {trunc!r}")
    exps = [1, 2]
    j = 0
    while 6 * 2 ** j <= trunc:
        base = 6 * 2 ** j
        for l in range(2 ** j):
            e = base + 2 * l
            if e > trunc:
                break
            exps.append(e)
        j += 1
    return tuple(sorted(exps))


def sigma_closed(trunc):
    """The order-4 element from its closed-form coefficient support."""
    return GroupElement(
        Series.from_terms(2, trunc, ((e, 1) for e in sigma_support(trunc))))


def schreier_root(trunc):
    """The valuation-3 root s of s^2 + s = t^3 + t^4 over F_2, that is
    Series.artin_schreier_root of t^3 + t^4 truncated at N."""
    if not isinstance(trunc, int) or isinstance(trunc, bool) or trunc < 0:
        raise BadPrecision(f"need a non-negative truncation order, got {trunc!r}")
    rhs = {e: 1 for e in (3, 4) if e <= trunc}      # t^3 + t^4, truncated
    return Series.from_terms(2, trunc, rhs).artin_schreier_root()


def relation_root(trunc):
    """The valuation-3 root w = s/(1+t) of w + (1+t)*w^2 + t^3 = 0 over F_2."""
    if not isinstance(trunc, int) or isinstance(trunc, bool) or trunc < 0:
        raise BadPrecision(f"need a non-negative truncation order, got {trunc!r}")
    if trunc < 1:
        return Series.zero(2, trunc)
    one_plus_t = 1 + Series.gen(2, trunc)
    return schreier_root(trunc) * one_plus_t.reciprocal()


def sigma_algebraic(trunc):
    """The same element assembled as t*r + s*r^2, r = 1/(1+t)."""
    if not isinstance(trunc, int) or isinstance(trunc, bool) or trunc < 2:
        raise BadPrecision(f"need truncation order >= 2, got {trunc!r}")
    t = Series.gen(2, trunc)
    r = (1 + t).reciprocal()
    return GroupElement(t * r + schreier_root(trunc) * r * r)


def sigma_relation(trunc):
    """The same element assembled as (t + w)*r, r = 1/(1+t)."""
    if not isinstance(trunc, int) or isinstance(trunc, bool) or trunc < 2:
        raise BadPrecision(f"need truncation order >= 2, got {trunc!r}")
    t = Series.gen(2, trunc)
    r = (1 + t).reciprocal()
    return GroupElement((t + relation_root(trunc)) * r)


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
        return replace(self, sigma_closed=candidate)


def sigma_bundle(trunc):
    if not isinstance(trunc, int) or isinstance(trunc, bool) or trunc < 8:
        raise BadPrecision(f"need truncation order >= 8, got {trunc!r}")
    return SigmaBundle(
        sigma_closed=sigma_closed(trunc),
        sigma_algebraic=sigma_algebraic(trunc),
        schreier_root=schreier_root(trunc),
        relation_root=relation_root(trunc),
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
    diff = f - g
    v = diff.valuation()
    return None if v > f.trunc else v


def run_checks(bundle):
    """Evaluate the six identities against a bundle and report each one.

    The closed-form slot is the element under test for the equivariance,
    order and route-agreement checks, so replacing it (with_candidate, or a
    deliberately corrupted element) flips exactly the checks that depend on
    it.  A failing check carries the least exponent at which the identity
    breaks; for a "must differ" sub-check that unexpectedly agrees, the
    sentinel N+1 is reported (no distinguishing exponent within precision).
    """
    n = bundle.trunc
    if n < 8:
        raise BadPrecision(f"need truncation order >= 8, got {n}")
    if bundle.sigma_closed.p != 2:
        raise WrongCharacteristic("the construction lives in characteristic 2")
    t = Series.gen(2, n)
    one = Series.one(2, n)
    rhs = Series.from_terms(2, n, {3: 1, 4: 1})  # t^3 + t^4
    r = (1 + t).reciprocal()
    s = bundle.schreier_root
    w = bundle.relation_root
    sigma = bundle.sigma_closed

    checks = []

    # (a) s^2 + s = t^3 + t^4
    e = _first_difference(s * s + s, rhs)
    checks.append(CheckResult("artin_schreier", e is None, e))

    # (b) (X + s)(X + s + 1) = X^2 + X + (t^3 + t^4), compared in X-degrees
    # 0, 1, 2; the X-linear coefficient is s + (s + 1) = 1 identically.
    e = None
    for got, want in (
        (s * (s + 1), rhs),          # X^0
        (s + (s + 1), one),          # X^1
        (one, one),                  # X^2
    ):
        e = _first_difference(got, want)
        if e is not None:
            break
    checks.append(CheckResult("factorization", e is None, e))

    # (c) w + (1+t)*w^2 + t^3 = 0
    relation = w + (1 + t) * w * w + Series.from_terms(2, n, {3: 1})
    v = relation.valuation()
    e = None if v > n else v
    checks.append(CheckResult("ring_relation", e is None, e))

    # (d) w(sigma(t)) = w(t) * r: the substitution t -> sigma(t) moves the
    # relation root the same way the automorphism is declared to move it.
    e = _first_difference(w.compose(sigma.series), w * r)
    checks.append(CheckResult("equivariance", e is None, e))

    # (e) sigma^4 = id, sigma^2 != id, sigma != id
    ident = GroupElement.identity(2, n)
    sigma2 = sigma * sigma
    sigma4 = sigma2 * sigma2
    e = _first_difference(sigma4.series, ident.series)
    if e is None:
        if sigma2 == ident or sigma == ident:
            e = n + 1
    checks.append(CheckResult("order_four", e is None, e))

    # (f) closed = algebraic = (t + w)*r
    e = _first_difference(sigma.series, bundle.sigma_algebraic.series)
    if e is None:
        e = _first_difference(sigma.series, (t + w) * r)
    checks.append(CheckResult("route_agreement", e is None, e))

    return VerificationReport(precision=n, checks=tuple(checks))


def verify_all(trunc=DEFAULT_PRECISION):
    """Build the bundle at the given precision and run every check."""
    return run_checks(sigma_bundle(trunc))
