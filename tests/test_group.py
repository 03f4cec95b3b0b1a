import itertools
import math
import random

import pytest

from nottingham import (
    BadPrecision,
    INFINITE_DEPTH,
    GroupElement,
    MismatchedContext,
    NotCoprime,
    NotNormalized,
    ZeroParameter,
    identity,
    klopsch_rep,
    order_mod_truncation,
    sigma_closed,
)
from nottingham import group
from nottingham.group import _chain, _sen
from nottingham.series import Series, _ladder, _period

from support import naive_order, random_group_element, sparse_element


# ----------------------------------------------------------------------
# construction and identity

def test_identity_coefficients():
    e = identity(2, 4)
    assert [e.series[i] for i in range(5)] == [0, 1, 0, 0, 0]
    assert e.depth() is INFINITE_DEPTH
    assert e.is_identity()


def test_identity_is_neutral():
    rng = random.Random(201)
    for p in (2, 5):
        f = random_group_element(rng, p, 20)
        e = identity(p, 20)
        assert e * f == f
        assert f * e == f


def test_identity_requires_positive_precision():
    with pytest.raises(BadPrecision):
        identity(2, 0)


@pytest.mark.parametrize("terms", [{2: 1}, {0: 1, 1: 1}, {1: 2}, {}])
def test_normalization_enforced(terms):
    with pytest.raises(NotNormalized):
        GroupElement(Series.from_terms(3, 6, terms))


# ----------------------------------------------------------------------
# composition, powers, inverses

def test_compose_hand_example():
    f = GroupElement(Series.from_terms(2, 16, {1: 1, 2: 1}))
    assert (f * f).series.support() == [1, 4]


def test_compose_context_mismatch():
    f = identity(2, 8)
    g = identity(2, 9)
    with pytest.raises(MismatchedContext):
        f * g
    for bad in (lambda: f * 3, lambda: 3 * f, lambda: f * f.series):
        with pytest.raises(TypeError):
            bad()
    assert (f == f.series) is False
    assert hash(f) == hash(identity(2, 8))
    assert repr(f) == f"GroupElement({f.series!r})"


def test_power_basics():
    rng = random.Random(202)
    f = random_group_element(rng, 3, 15)
    assert f ** 0 == identity(3, 15)
    assert f ** 1 == f
    assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        f ** -1


@pytest.fixture
def compositions(monkeypatch):
    """A list that gains one entry per composition, its precision: each
    Series.compose call (the group law) and each _compose call of a group
    power, which composes coefficient arrays."""
    calls = []
    compose, compose_arrays = Series.compose, group._compose

    def counting(self, other):
        calls.append(self.trunc)
        return compose(self, other)

    def counting_arrays(f, g, p):
        calls.append(f.shape[1] - 1)
        return compose_arrays(f, g, p)

    monkeypatch.setattr(Series, "compose", counting)
    monkeypatch.setattr(group, "_compose", counting_arrays)
    return calls


@pytest.mark.parametrize("k, composes", [(0, 0), (1, 0), (2, 1), (3, 2), (8, 3)])
def test_power_never_composes_with_the_identity(compositions, k, composes):
    # square-and-multiply from the lowest set bit: popcount(k) - 1 products
    # and floor(log2 k) squarings, and none at all for k in {0, 1}
    f = random_group_element(random.Random(207), 3, 20)
    expected = identity(3, 20)
    for _ in range(k):
        expected = expected * f
    compositions.clear()
    assert f ** k == expected
    assert len(compositions) == composes


def test_power_reduces_a_long_exponent_before_composing(compositions):
    # 3^38 + 5 = 5 mod 3^4, the period at N = 40: f^2, f^4 and f * f^4
    f = random_group_element(random.Random(209), 3, 40)
    expected = f * f * f * f * f
    compositions.clear()
    assert f ** (3 ** 38 + 5) == expected
    assert len(compositions) == 3


@pytest.mark.parametrize("p, max_n", [(2, 9), (3, 6), (5, 4), (7, 3)])
def test_every_element_has_order_dividing_the_period(p, max_n):
    # f^(p^J) by J p-th powers, each p - 1 products, never by **, which
    # would reduce the exponent by the very period under test
    for n in range(1, max_n + 1):
        q = _period(p, n + 1)
        for tail in itertools.product(range(p), repeat=n - 1):
            f = GroupElement(Series(p, n, (0, 1) + tail))
            g, k = f, 1
            while k < q:
                h = g
                for _ in range(p - 1):
                    h = h * g
                g, k = h, k * p
            assert g == identity(p, n), (n, tail)


@pytest.mark.parametrize("p, max_n", [(2, 9), (3, 6), (5, 4), (7, 3)])
def test_order_matches_naive_on_every_small_element(p, max_n):
    # every cap p^0 .. p^(J+1), and caps between powers of p
    for n in range(1, max_n + 1):
        q = _period(p, n + 1)
        caps = [1]
        while caps[-1] <= q:
            caps.append(caps[-1] * p)
        caps += [p + 1, q - 1, 2 * q - 1]
        for tail in itertools.product(range(p), repeat=n - 1):
            f = GroupElement(Series(p, n, (0, 1) + tail))
            for cap in caps:
                assert order_mod_truncation(f, cap) == naive_order(f, cap), (n, tail, cap)


@pytest.mark.parametrize("p", [2, 3, 257])
def test_period_at_its_edge(p):
    for j in range(5):
        assert _period(p, p ** j) == p ** j
        assert _period(p, p ** j + 1) == p ** (j + 1)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 12), (3, 9), (7, 5)])
def test_power_reduces_k_mod_the_group_order(p, n):
    # against f^j built by products, so that ** reduces on one side only
    f = random_group_element(random.Random(208), p, n, depth=1)
    q = _period(p, n + 1)
    powers = [identity(p, n)]
    for _ in range(q - 1):
        powers.append(powers[-1] * f)
    for j in (0, 1, 2, 5, 7, q // p + 3, q - 1):
        assert f ** (q + j) == powers[j % q]
        assert f ** (9 * q + j) == powers[j % q]


@pytest.mark.parametrize("p, n", [(2, 40), (3, 30), (5, 60), (7, 20), (257, 12)])
def test_power_reduces_k_mod_the_element_period(compositions, p, n):
    # f^k = t once the depth bounds chained from depth(f) reach N, so k is
    # taken mod that p-power; against f^(k mod p^J), p^J = _period(p, N + 1)
    rng = random.Random(212)
    q = _period(p, n + 1)
    for depth in (None, 1, p, n // 3, n):       # depth n: the identity, period 1
        f = random_group_element(rng, p, n, depth)
        d = f.depth()
        own = 1 if d > n else _chain(d, 1, p, n, math.inf)[1] * p
        assert q % own == 0
        compositions.clear()
        assert f ** (own * 10 ** 40 + 1) == f and compositions == []
        for k in {j * m + i for m in (own, q) for j in (1, 2, 5) for i in (-1, 0, 1, 2)}:
            expected = identity(p, n) if k % q == 0 else _ladder(f, k % q, GroupElement.__mul__)
            assert f ** k == expected, (depth, k)


def test_sigma_square_and_fourth_power():
    sigma = sigma_closed(64)
    sq = sigma ** 2
    assert [e for e in sq.series.support() if e <= 7] == [1, 4]
    assert sq.depth() == 3
    assert sigma ** 4 == identity(2, 64)
    assert sigma.inverse() == sigma ** 3


def test_inverse_roundtrip():
    rng = random.Random(203)
    for p in (2, 3, 5):
        f = random_group_element(rng, p, 25)
        assert f * f.inverse() == identity(p, 25)
        assert f.inverse() * f == identity(p, 25)
    assert identity(2, 10).inverse() == identity(2, 10)


def test_moebius_involution_char2():
    t = Series.gen(2, 30)
    f = GroupElement(t * (1 + t).reciprocal())
    assert f.inverse() == f
    assert f * f == identity(2, 30)


# ----------------------------------------------------------------------
# depth

def test_depth_examples():
    assert sigma_closed(64).depth() == 1
    assert (sigma_closed(64) ** 2).depth() == 3
    assert identity(2, 64).depth() is INFINITE_DEPTH
    assert identity(5, 1).depth() is INFINITE_DEPTH
    for p, n in [(2, 2), (3, 7), (257, 40)]:
        assert GroupElement(Series.from_terms(p, n, {1: 1, n: 1})).depth() == n - 1


def test_depth_ultrametric():
    rng = random.Random(204)
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(6, 30)
        df = rng.randrange(1, n - 1)
        dg = rng.randrange(1, n - 1)
        f = random_group_element(rng, p, n, depth=df)
        g = random_group_element(rng, p, n, depth=dg)
        d = (f * g).depth()
        assert d >= min(f.depth(), g.depth())
        if f.depth() != g.depth():
            assert d == min(f.depth(), g.depth())


# ----------------------------------------------------------------------
# order in the truncated quotient

def test_order_of_sigma():
    assert order_mod_truncation(sigma_closed(64), 16) == 4


def test_order_of_identity():
    assert order_mod_truncation(identity(2, 8)) == 1


def test_order_caveat_regression():
    # For f = t + t^2, squaring t + t^(2^a) yields t + t^(2^(2a)), so the
    # 2-power iterates are t+t^4, t+t^16, t+t^256, ...: the order in the
    # quotient is 8 for every 16 <= N <= 255 and first reaches 16 at N=256.
    f16 = GroupElement(Series.from_terms(2, 16, {1: 1, 2: 1}))
    assert order_mod_truncation(f16, 16) == 8
    f64 = GroupElement(Series.from_terms(2, 64, {1: 1, 2: 1}))
    assert order_mod_truncation(f64, 64) == 8
    f255 = GroupElement(Series.from_terms(2, 255, {1: 1, 2: 1}))
    assert order_mod_truncation(f255, 255) == 8
    f256 = GroupElement(Series.from_terms(2, 256, {1: 1, 2: 1}))
    assert order_mod_truncation(f256, 256) == 16


def test_order_none_when_cap_too_small():
    assert order_mod_truncation(sigma_closed(64), 2) is None


def test_order_found_when_equal_to_cap():
    # The last p-th power before the cap must still be taken, or decided by depth.
    assert order_mod_truncation(sigma_closed(64), 4) == 4
    f16 = GroupElement(Series.from_terms(2, 16, {1: 1, 2: 1}))
    assert order_mod_truncation(f16, 8) == 8
    assert order_mod_truncation(klopsch_rep(3, 1, 1, 12), 3) == 3


@pytest.mark.parametrize("n, terms, order, composes", [
    (8, {2: 1}, 9, [5, 5]),                     # f^3 mod t^6 has depth 4, exact
    (8, {2: 1, 3: 1, 6: 1}, 9, [5, 5, 8, 8]),   # f^3 has depth 7: t at 5, again at 8
    (8, {2: 1, 3: 1}, 3, [5, 5, 8, 8]),         # f^3 = t
    (9, {2: 1}, 9, [5, 5]),                     # bound 13 >= N: f^9 = t still
    (6, {2: 1, 3: 1}, 3, [5, 5, 6, 6]),         # f^3 = t: again at min(N, 2 * 5)
    (6, {3: 1}, 3, []),                         # depth 2, bound 8 >= N: f^3 = t, not computed
])
def test_order_decides_the_last_cubes_by_depth(compositions, n, terms, order, composes):
    # p = 3, depth 1: the bounds are _sen(1, 3, 3) = 4 and _sen(4, 3, 9) = 13,
    # so f^3 is first taken at precision 4 + 1
    f = GroupElement(Series.from_terms(3, n, {1: 1, **terms}))
    assert order_mod_truncation(f, 27) == naive_order(f, 27) == order
    compositions.clear()
    order_mod_truncation(f, 27)
    assert compositions == composes
    assert order_mod_truncation(f, 3) == naive_order(f, 3)


@pytest.mark.parametrize("p, n, e, order", [(2, 9, 3, 8), (3, 28, 4, 27)])
def test_order_when_the_depth_bound_is_attained(p, n, e, order):
    # f = t + t^e has depth d = e - 1, divisible by p, and f^p and f^(p^2)
    # are exactly p*d and p^2*d deep: at N = p^2*d + 1, f^(p^2) is not t
    f = GroupElement(Series.from_terms(p, n, {1: 1, e: 1}))
    d = e - 1
    assert [(f ** k).depth() for k in (1, p, p * p)] == [d, p * d, n - 1]
    assert order_mod_truncation(f, 64) == naive_order(f, 64) == order


def test_order_takes_the_chain_once_at_the_predicted_precision(compositions):
    # depth 1 at p = 7, N = 384: the bounds 8, 57 and 399 >= N put the chain
    # at precision 58; f^7 and f^49 take 4 compositions each there, f^49 has
    # depth 57 as predicted, and f^343 = id is never computed
    f = random_group_element(random.Random(210), 7, 384, depth=1)
    assert (f ** 7).depth() == 8
    assert naive_order(f, 343) == 343
    compositions.clear()
    assert order_mod_truncation(f, 343) == 343
    assert compositions == [58] * 8


def test_order_takes_the_chain_again_where_a_bound_is_beaten(compositions):
    # depth 1 at p = 5, N = 384: the bounds 6, 31, 156 put the chain at 157,
    # but the depths are 1, 11, 61, 311.  At 157, f^25 has period 5, so f^125
    # reads t with no composition; from 157 deep the next bound is >= N, and
    # the chain is taken again at 2 * 157, where f^125 has depth 311 < 314
    f = random_group_element(random.Random(200), 5, 384, depth=1)
    assert [(f ** 5 ** j).depth() for j in range(4)] == [1, 11, 61, 311]
    assert naive_order(f, 625) == 625
    compositions.clear()
    assert order_mod_truncation(f, 625) == 625
    assert compositions == [157] * 6 + [314] * 9


def test_order_at_p_2_restarts_at_four_times_the_precision(compositions):
    # depth 1 at p = 2, N = 384: the bounds 3, 7 and 15 put the chain at 16,
    # where f^4 (depth 19) reads t; the chain is taken again at 4 * 16 = 64,
    # not at 32, where f^8 (depth 43) would read t as well
    f = random_group_element(random.Random(200), 2, 384, depth=1)
    assert [(f ** 2 ** j).depth() for j in range(4)] == [1, 3, 19, 43]
    assert naive_order(f, 8) is None
    compositions.clear()
    assert order_mod_truncation(f, 8) is None
    assert compositions == [16, 16, 64, 64, 64]


def test_depths_of_p_power_chains_obey_camina_and_sen():
    # for g = f^(p^j) with both depths below N: depth(g^p) >= p * depth(g)
    # and depth(g^p) = depth(g) mod p^(j+1), so depth(g^p) >= _sen(...);
    # g^p by _ladder, as ** reduces its exponent by these bounds
    rng = random.Random(211)
    checked = 0
    for p in (2, 3, 5, 7, 11, 257):
        for n in (rng.randrange(2, 401) for _ in range(8)):
            elements = [random_group_element(rng, p, n), sparse_element(rng, p, n)]
            elements += [random_group_element(rng, p, n, depth=rng.randrange(1, n)) for _ in range(2)]
            for f in elements:
                g, q = f, p
                while (d := g.depth()) < n:
                    g = _ladder(g, p, GroupElement.__mul__)
                    if g.depth() < n:
                        assert g.depth() >= p * d and (g.depth() - d) % q == 0, (p, n, d, q)
                        assert g.depth() >= _sen(d, p, q)
                        checked += 1
                    q *= p
    assert checked > 150, checked
    for p in (2, 3, 5, 7, 11, 257):
        for q in (p, p ** 2, p ** 3, p ** 4):
            bounds = [_sen(d, p, q) for d in range(1, 501)]
            assert all(a < b for a, b in zip(bounds, bounds[1:])), (p, q)


def test_order_cap_validation():
    with pytest.raises(ValueError):
        order_mod_truncation(identity(2, 8), 0)


def test_order_monotone_in_precision():
    sigma = sigma_closed(64)
    orders = []
    for n in (1, 2, 3, 4, 8, 16, 64):
        orders.append(order_mod_truncation(sigma.truncate(n) if n < 64 else sigma, 64))
    assert orders == [1, 2, 2, 4, 4, 4, 4]
    for small, big in zip(orders, orders[1:]):
        assert big % small == 0


def test_order_monotone_for_klopsch_reps():
    rng = random.Random(205)
    for _ in range(20):
        p = rng.choice((2, 3, 5))
        m = rng.choice([m for m in range(1, 9) if m % p])
        a = rng.randrange(1, p)
        rep = klopsch_rep(p, m, a, 80)
        orders = [order_mod_truncation(rep.truncate(n)) for n in (m + 1, 2 * m + 2, 80)]
        assert orders == [p, p, p]


# ----------------------------------------------------------------------
# Klopsch representatives

def test_klopsch_geometric_char2():
    rep = klopsch_rep(2, 1, 1, 8)
    assert rep.series.support() == list(range(1, 9))  # t/(1+t)
    assert rep * rep == identity(2, 8)
    assert rep.depth() == 1


def test_klopsch_geometric_char3():
    rep = klopsch_rep(3, 1, 1, 6)
    assert all(rep.series[i] == 1 for i in range(1, 7))  # t/(1-t)
    assert rep ** 3 == identity(3, 6)


def test_klopsch_depth3_char2():
    rep = klopsch_rep(2, 3, 1, 16)
    assert rep.depth() == 3
    assert rep * rep == identity(2, 16)
    assert rep.series.support() == [1, 4, 13, 16]


def test_klopsch_leading_coefficient_is_a_over_m():
    # t*(1 - a*t^m)^(-1/m) = t + (a/m)*t^(m+1) + ...
    for p, m, a, lead in ((3, 2, 1, 2), (5, 2, 1, 3), (5, 3, 2, 4), (2, 5, 1, 1)):
        rep = klopsch_rep(p, m, a, 2 * m + 2)
        assert rep.depth() == m
        assert rep.series[m + 1] == lead
        assert a * pow(m, -1, p) % p == lead


def test_klopsch_full_suite_small():
    for p in (2, 3, 5):
        for m in (1, 2, 3, 4):
            if m % p == 0:
                continue
            for a in range(1, p):
                rep = klopsch_rep(p, m, a, 60)
                assert rep.depth() == m
                assert rep ** p == identity(p, 60)


def test_klopsch_parameter_additivity():
    # derived law: rep(a) * rep(b) = rep(a+b) for a fixed depth index m
    for p, m in ((3, 1), (3, 2), (5, 2), (5, 3)):
        for a in range(1, p):
            for b in range(1, p):
                lhs = klopsch_rep(p, m, a, 40) * klopsch_rep(p, m, b, 40)
                if (a + b) % p == 0:
                    assert lhs == identity(p, 40)
                else:
                    assert lhs == klopsch_rep(p, m, (a + b) % p, 40)


@pytest.mark.parametrize("p, m, a", [(2, 1, 1.5), (3, 1, True), (3, 1, "1"), (3, 2, None)],
                         ids=["float", "bool", "str", "none"])
def test_klopsch_rejects_non_integer_parameter(p, m, a):
    with pytest.raises(ValueError):
        klopsch_rep(p, m, a, 10)


def test_klopsch_rejects_precision_above_cap():
    # the root is taken at precision N // m, which is within the cap here
    with pytest.raises(ValueError):
        klopsch_rep(2, 10 ** 12 + 1, 1, 10 ** 15)


def test_klopsch_guards():
    with pytest.raises(NotCoprime):
        klopsch_rep(2, 4, 1, 10)
    with pytest.raises(ZeroParameter):
        klopsch_rep(3, 2, 0, 10)
    with pytest.raises(ZeroParameter):
        klopsch_rep(3, 2, 3, 10)  # 3 = 0 mod 3
    with pytest.raises(BadPrecision):
        klopsch_rep(3, 4, 1, 4)  # needs N >= m+1
    with pytest.raises(ValueError):
        klopsch_rep(3, 0, 1, 10)


# ----------------------------------------------------------------------
# randomized group axioms

def test_group_axioms_randomized():
    rng = random.Random(206)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(2, 24)
        f = random_group_element(rng, p, n)
        g = random_group_element(rng, p, n)
        h = random_group_element(rng, p, n)
        assert (f * g) * h == f * (g * h)
        assert (f * g).series[0] == 0 and (f * g).series[1] == 1
