import pytest

from nottingham import (
    BadPrecision,
    GroupElement,
    identity,
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
from nottingham.order4 import CHECK_NAMES
from nottingham.series import Series


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


def test_order_four_certificate_moderate_precision():
    sigma = sigma_closed(256)
    ident = identity(2, 256)
    assert sigma != ident
    assert sigma ** 2 != ident
    assert sigma ** 4 == ident
    assert sigma.depth() == 1
    assert (sigma ** 2).depth() == 3
