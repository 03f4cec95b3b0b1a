import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from nottingham import (
    BadPrecision,
    GroupElement,
    MismatchedContext,
    WrongCharacteristic,
    identity,
    klopsch_rep,
    relation_root,
    run_checks,
    schreier_root,
    sigma_algebraic,
    sigma_bundle,
    sigma_closed,
    sigma_relation,
    sigma_support,
    verify_all,
)
from nottingham import order4, series
from nottingham.order4 import CHECK_NAMES, _r
from nottingham.series import _TWIG, Series, _conv


def support_oracle(trunc):
    """Rebuild the exponent set with an independent loop shape."""
    exps = {1, 2}
    j = 0
    while True:
        added = False
        for l in range(2 ** j):
            e = 6 * 2 ** j + 2 * l
            if e <= trunc:
                exps.add(e)
                added = True
        if not added:
            break
        j += 1
    return tuple(sorted(exps))


# ----------------------------------------------------------------------
# closed form

def test_support_pinned_values():
    assert sigma_support(14) == (1, 2, 6, 12, 14)
    assert sigma_support(30) == (1, 2, 6, 12, 14, 24, 26, 28, 30)
    assert sigma_support(62) == (1, 2, 6, 12, 14, 24, 26, 28, 30,
                                 48, 50, 52, 54, 56, 58, 60, 62)


@pytest.mark.parametrize("n", [2, 5, 6, 13, 14, 30, 62, 100, 1000])
def test_support_matches_oracle(n):
    assert sigma_support(n) == support_oracle(n)


def test_sigma_closed_coefficients():
    sigma = sigma_closed(62)
    assert sigma.series.support() == list(sigma_support(62))
    assert all(sigma.series[e] == 1 for e in sigma_support(62))


def test_sigma_closed_truncates_consistently():
    assert sigma_closed(62).series.truncate(14).support() == [1, 2, 6, 12, 14]


def test_sigma_precision_guards():
    with pytest.raises(BadPrecision):
        sigma_closed(1)
    with pytest.raises(BadPrecision):
        sigma_algebraic(1)
    with pytest.raises(BadPrecision):
        sigma_relation(0)


# ----------------------------------------------------------------------
# the two working series

def test_schreier_root_pinned():
    s = schreier_root(16)
    assert s.support() == [3, 4, 6, 8, 12, 16]


def test_schreier_root_below_valuation_is_zero():
    assert schreier_root(2).is_zero()


def test_lowest_precision_with_nonzero_root():
    # at N = 3 the right-hand side t^3 + t^4 truncates to t^3
    assert schreier_root(3) == Series.from_terms(2, 3, {3: 1})
    assert sigma_algebraic(3) == sigma_relation(3) == sigma_closed(3)


def test_schreier_root_satisfies_equation():
    for n in (16, 100, 1024):
        s = schreier_root(n)
        rhs = Series.from_terms(2, n, {3: 1, 4: 1})
        assert s * s + s == rhs
        assert s == rhs.artin_schreier_root()


def test_schreier_root_support_closed_form():
    # (t^3 + t^4)^(2^i) = t^(3*2^i) + t^(4*2^i), so the root's support is
    # exactly {3*2^i} union {4*2^i}
    n = 1000
    expect = set()
    i = 0
    while 3 * 2 ** i <= n:
        expect.add(3 * 2 ** i)
        if 4 * 2 ** i <= n:
            expect.add(4 * 2 ** i)
        i += 1
    assert schreier_root(n).support() == sorted(expect)


def test_relation_root_pinned():
    assert relation_root(7).support() == [3, 6, 7]


def test_relation_root_defining_identities():
    for n in (7, 100, 1024):
        w = relation_root(n)
        t = Series.gen(2, n)
        assert w * (1 + t) == schreier_root(n)
        assert (w + (1 + t) * w * w + t ** 3).is_zero()


# ----------------------------------------------------------------------
# route agreement

def test_low_order_cancellation():
    # t/(1+t) + (t^3+t^4)/(1+t)^2 = t + t^2 exactly: the numerator over the
    # common denominator (1+t)^2 factors as t(1+t)(1+t^2) = t(1+t)^3
    n = 50
    t = Series.gen(2, n)
    r = (1 + t).reciprocal()
    lhs = t * r + Series.from_terms(2, n, {3: 1, 4: 1}) * r * r
    assert lhs == t + t * t


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
def test_routes_agree_at_doubling_precisions(n):
    assert sigma_closed(n) == sigma_algebraic(n) == sigma_relation(n)


# ----------------------------------------------------------------------
# verification report

def test_verify_all_passes_at_default_scales():
    for n in (8, 64, 1024):
        report = verify_all(n)
        assert report.passed
        assert report.precision == n
        assert tuple(c.name for c in report.checks) == CHECK_NAMES
        assert all(c.first_failure_exponent is None for c in report.checks)


def test_verify_report_rendering():
    report = verify_all(64)
    assert report.render() == (
        "artin_schreier: PASS\n"
        "factorization: PASS\n"
        "ring_relation: PASS\n"
        "equivariance: PASS\n"
        "order_four: PASS\n"
        "route_agreement: PASS\n"
    )


def test_verify_precision_guard():
    with pytest.raises(BadPrecision):
        verify_all(7)


def test_bundle_internal_consistency():
    b = sigma_bundle(128)
    assert b.sigma_closed == b.sigma_algebraic
    t = Series.gen(2, 128)
    assert b.relation_root * (1 + t) == b.schreier_root
    assert b.trunc == 128


def test_corrupted_sigma_flips_dependent_checks():
    # flip the t^6 coefficient of the element under test
    b = sigma_bundle(64)
    corrupted = GroupElement(b.sigma_closed.series + Series.from_terms(2, 64, {6: 1}))
    report = run_checks(b.with_candidate(corrupted))
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["artin_schreier"].passed
    assert by_name["factorization"].passed
    assert by_name["ring_relation"].passed
    assert not by_name["equivariance"].passed
    assert by_name["equivariance"].first_failure_exponent == 8
    assert not by_name["order_four"].passed
    assert by_name["order_four"].first_failure_exponent == 16
    assert not by_name["route_agreement"].passed
    assert by_name["route_agreement"].first_failure_exponent == 6
    line = by_name["route_agreement"].render()
    assert line == "route_agreement: FAIL first_failure_exponent=6"


def test_corrupted_relation_root_flips_dependent_checks():
    # add t^20 to w: the checks that read w fail where the relation breaks
    b = sigma_bundle(64)
    tampered = replace(b, relation_root=b.relation_root + Series.from_terms(2, 64, {20: 1}))
    assert run_checks(tampered).render() == (
        "artin_schreier: PASS\n"
        "factorization: PASS\n"
        "ring_relation: FAIL first_failure_exponent=20\n"
        "equivariance: FAIL first_failure_exponent=21\n"
        "order_four: PASS\n"
        "route_agreement: FAIL first_failure_exponent=20\n"
    )


def test_tampered_schreier_root_and_algebraic_slot_flip_their_checks():
    """The two slots no other test tampers alone: s feeds only (a) and (b),
    and the algebraic slot only route_agreement's first comparison."""
    b = sigma_bundle(64)
    tampered = replace(b, schreier_root=b.schreier_root + Series.from_terms(2, 64, {20: 1}))
    assert run_checks(tampered).render() == (
        "artin_schreier: FAIL first_failure_exponent=20\n"
        "factorization: FAIL first_failure_exponent=20\n"
        "ring_relation: PASS\n"
        "equivariance: PASS\n"
        "order_four: PASS\n"
        "route_agreement: PASS\n"
    )
    algebraic = GroupElement(b.sigma_algebraic.series + Series.from_terms(2, 64, {40: 1}))
    assert run_checks(replace(b, sigma_algebraic=algebraic)).render() == (
        "artin_schreier: PASS\n"
        "factorization: PASS\n"
        "ring_relation: PASS\n"
        "equivariance: PASS\n"
        "order_four: PASS\n"
        "route_agreement: FAIL first_failure_exponent=40\n"
    )


def test_renders_of_tampered_bundles_at_2048():
    """At N = 2048, where a product by r = 1/(1+t) would take the byte-table
    kernel: a tampered relation root, then a tampered candidate element."""
    b = sigma_bundle(2048)
    tampered = replace(b, relation_root=b.relation_root + Series.from_terms(2, 2048, {1500: 1}))
    assert run_checks(tampered).render() == (
        "artin_schreier: PASS\n"
        "factorization: PASS\n"
        "ring_relation: FAIL first_failure_exponent=1500\n"
        "equivariance: FAIL first_failure_exponent=1501\n"
        "order_four: PASS\n"
        "route_agreement: FAIL first_failure_exponent=1500\n"
    )
    candidate = GroupElement(b.sigma_closed.series + Series.from_terms(2, 2048, {1200: 1}))
    assert run_checks(b.with_candidate(candidate)).render() == (
        "artin_schreier: PASS\n"
        "factorization: PASS\n"
        "ring_relation: PASS\n"
        "equivariance: FAIL first_failure_exponent=1202\n"
        "order_four: FAIL first_failure_exponent=1280\n"
        "route_agreement: FAIL first_failure_exponent=1200\n"
    )


def subtraction_first_difference(f, g):
    """The valuation of f - g, or None past N: run_checks' comparison before
    it compared the coefficient arrays directly."""
    v = (f - g).valuation()
    return None if v > f.trunc else v


@pytest.mark.parametrize("n", (8, 64, 2048))
def test_first_difference_renders_as_the_subtraction(monkeypatch, n):
    """One coefficient flipped in the Artin-Schreier root, the relation root
    or the candidate, at its valuation (for the candidate, that of
    sigma(t) - t, as its t coefficient is fixed), a middle exponent and N:
    each bundle renders the same under the subtraction helper, and fails."""
    b = sigma_bundle(n)
    sigma = b.sigma_closed.series
    flips = {"schreier_root": (b.schreier_root, b.schreier_root.valuation()),
             "relation_root": (b.relation_root, b.relation_root.valuation()),
             "sigma_closed": (sigma, (sigma - Series.gen(2, n)).valuation())}
    bundles = [b]
    for slot, (x, v) in flips.items():
        for e in (v, n // 2 + 1, n):
            y = x + Series.from_terms(2, n, {e: 1})
            bundles.append(replace(b, **{slot: GroupElement(y) if x is sigma else y}))
    renders = [run_checks(x).render() for x in bundles]
    monkeypatch.setattr(order4, "_first_difference", subtraction_first_difference)
    assert renders == [run_checks(x).render() for x in bundles]
    assert "FAIL" not in renders[0]
    assert all("FAIL" in r for r in renders[1:])


def test_first_difference_checks_the_context():
    f = Series.gen(2, 8)
    for g in (Series.gen(2, 9), Series.gen(3, 8), Series.gen(2, 7)):
        with pytest.raises(MismatchedContext):
            order4._first_difference(f, g)
    assert order4._first_difference(f, f) is None
    assert order4._first_difference(f, f + Series.from_terms(2, 8, {8: 1})) == 8
    assert order4._first_difference(f, Series.zero(2, 8)) == 1
    b = sigma_bundle(64)
    for other in (sigma_closed(63), sigma_closed(65)):
        with pytest.raises(MismatchedContext):
            run_checks(b.with_candidate(other))
    with pytest.raises(TypeError, match="^expected a GroupElement, got Series$"):
        b.with_candidate(sigma_closed(64).series)
    for other in (None, b.sigma_closed, b.trunc):
        with pytest.raises(TypeError, match=f"^expected a SigmaBundle, got {type(other).__name__}$"):
            run_checks(other)
    with pytest.raises(WrongCharacteristic):
        run_checks(b.with_candidate(klopsch_rep(3, 1, 1, 64)))
    report = run_checks(b)
    assert str(report) == report.render()


def test_division_by_one_plus_t_makes_no_product(monkeypatch):
    """Every x*r, r = 1/(1+t), is a prefix XOR: sigma_bundle makes no product,
    and no product in run_checks has an all-ones operand longer than a
    composition leaf (the block ladder may multiply t + t^2)."""
    calls, all_ones = [], []

    def spy(a, b, p, n1):
        calls.append(1)
        all_ones.extend(len(x) for x in (a, b)
                        if x.ndim == 1 and len(x) > _TWIG and (x == 1).all())
        return _conv(a, b, p, n1)

    monkeypatch.setattr(series, "_conv", spy)
    b = sigma_bundle(2048)
    assert calls == []
    assert run_checks(b).passed
    assert calls      # the counter sees the checks' products
    assert all_ones == []


def test_algebraic_route_divides_t_and_w_apart(monkeypatch):
    """t*r + s*r^2 is two divisions by 1+t, t*r + w*r, and (t + w)*r one: the
    values agree, so only the divisions taken tell the two routes apart."""
    divided = []
    monkeypatch.setattr(order4, "_r", lambda x: divided.append(x) or _r(x))
    t = Series.gen(2, 64)
    for build, divides_t_alone in ((sigma_algebraic, True), (sigma_bundle, True),
                                   (sigma_relation, False)):
        divided.clear()
        build(64)
        assert (t in divided) == divides_t_alone, build.__name__


def test_order_four_certificate_moderate_precision():
    sigma = sigma_closed(256)
    ident = identity(2, 256)
    assert sigma != ident
    assert sigma ** 2 != ident
    assert sigma ** 4 == ident
    assert sigma.depth() == 1
    assert (sigma ** 2).depth() == 3


# ----------------------------------------------------------------------
# order 4 in the full group: the finite certificate behind the series
#
# The paper's argument is finite.  phi: (x:y:z) -> (x+y : y : x+z) maps the
# cubic C: z^2*y + (z+x)*y^2 + x^3 = 0 over F_2 to itself and fixes the
# smooth point P = (0:0:1), where t = x/z is a uniformizer (dF/dw = 1 in
# w = y/z).  So phi acts on the completion F_2[[t]] by t -> (t+w)/(1+t) and
# w -> w/(1+t), which is sigma_relation, and phi's matrix M has M^4 = I and
# M^2 != I, with phi^2 moving a point of C: sigma has order exactly 4 in the
# full group, not only mod t^(N+1).

# A form over F_2 is {(i, j, k): 1} for its monomials x^i y^j z^k.
CUBIC = {(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): 1, (3, 0, 0): 1}
PHI = ((1, 1, 0), (0, 1, 0), (1, 0, 1))     # rows: x+y, y, x+z
P = (0, 0, 1)


def form_product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % 2
    return {e: c for e, c in out.items() if c}


def substitute(form, rows):
    """form(x', y', z') for the linear forms x', y', z' with these coefficient rows."""
    linear = [{e: c for e, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), row) if c} for row in rows]
    out = {}
    for e, c in form.items():
        term = {(0, 0, 0): c}
        for var, power in zip(linear, e):
            for _ in range(power):
                term = form_product(term, var)
        for m, d in term.items():
            out[m] = (out.get(m, 0) + d) % 2
    return {e: c for e, c in out.items() if c}


def evaluate(form, point):
    return sum(c * math.prod(v ** i for v, i in zip(point, e)) for e, c in form.items()) % 2


def image(rows, point):
    return tuple(int(v) for v in np.array(rows) @ point % 2)


def finite_certificate(cubic, rows):
    """The finite facts, each exactly: phi preserves C, fixes P on C, C is
    smooth at P with dF/dw = 1 in the chart z = 1 (the linear part of
    F(t, w, 1) is w alone), M^4 = I and M^2 != I, and phi^2 moves a point
    of C over F_2."""
    m = np.array(rows)
    chart_linear = {e[:2]: c for e, c in cubic.items() if e[0] + e[1] <= 1}
    points = [q for q in itertools.product((0, 1), repeat=3) if any(q) and not evaluate(cubic, q)]
    return (substitute(cubic, rows) == cubic
            and image(rows, P) == P and not evaluate(cubic, P)
            and chart_linear == {(0, 1): 1}
            and np.array_equal(np.linalg.matrix_power(m, 4) % 2, np.eye(3, dtype=int))
            and not np.array_equal(np.linalg.matrix_power(m, 2) % 2, np.eye(3, dtype=int))
            and any(image(rows, image(rows, q)) != q for q in points))


def test_order_four_in_the_full_group_by_a_finite_certificate():
    assert finite_certificate(CUBIC, PHI)
    assert substitute(CUBIC, PHI) == CUBIC
    # a wrong map (z -> z + y) or a wrong cubic coefficient breaks it
    assert not finite_certificate(CUBIC, ((1, 1, 0), (0, 1, 0), (0, 1, 1)))
    for e in list(CUBIC) + [(2, 0, 1)]:
        wrong = dict(CUBIC)
        wrong[e] = 1 - wrong.get(e, 0)
        assert not finite_certificate({m: c for m, c in wrong.items() if c}, PHI), e


@pytest.mark.parametrize("n", [8, 64, 512])
def test_sigma_is_the_certificate_map_on_the_completion(n):
    """w = relation_root(N) is the branch of C through P: CUBIC vanishes at
    (t, w, 1).  phi in the chart z = 1, read off its matrix rows, is t' =
    (t + w)/(1 + t) and w' = w/(1 + t); sigma_relation(N) is t', and
    w(sigma) = w', so sigma is phi on F_2[[t]]."""
    t, w = Series.gen(2, n), relation_root(n)
    coords = (t, w, Series.one(2, n))
    assert sum((math.prod((v ** i for v, i in zip(coords, e)), start=coords[2]) for e in CUBIC),
               Series.zero(2, n)).is_zero()

    def chart(row):
        return sum((v * c for v, c in zip(coords, row) if c), Series.zero(2, n))

    inv = chart(PHI[2]).reciprocal()
    sigma = sigma_relation(n).series
    assert sigma == chart(PHI[0]) * inv == (t + w) * _r(Series.one(2, n))
    assert w.compose(sigma) == chart(PHI[1]) * inv == _r(w)
