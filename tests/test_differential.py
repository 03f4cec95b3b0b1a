"""Fast kernel paths against the slow oracles in support.py.

Composition runs the Frobenius split above the block-ladder leaf, p-th
powers and Artin-Schreier squares run as coefficient spreads; each is
checked for bit-equality against an algorithm that does none of that.
"""

import random

import pytest

from nottingham.series import _LEAF, Series

from support import (
    horner_compose,
    naive_power,
    random_no_constant,
    random_series,
    summed_artin_schreier_root,
)

PRIMES = (2, 3, 5, 7, 257)
EDGE_N = (0, 1, 2, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1)


def sparse_inner(rng, p, n):
    """A few terms from a random valuation v > 1 on (zero when v > n)."""
    v = rng.randint(2, 6)
    terms = {e: rng.randrange(1, p) for e in rng.sample(range(v, v + 20), 4) if e <= n}
    return Series.from_terms(p, n, terms)


def branchy_outer(rng, p, n):
    """Random f whose Frobenius branches f[i::p] vanish except for i in
    {0, p-1} (for p = 2: only the even branch survives)."""
    keep = {0, p - 1} if p > 2 else {0}
    return Series(p, n, [rng.randrange(p) if e % p in keep else 0 for e in range(n + 1)])


@pytest.mark.parametrize("p", PRIMES)
def test_compose_matches_horner_at_edges(p):
    rng = random.Random(400 + p)
    for n in EDGE_N + tuple(rng.randrange(0, 600) for _ in range(2)):
        for f, g in (
            (random_series(rng, p, n), random_no_constant(rng, p, n)),
            (random_series(rng, p, n), sparse_inner(rng, p, n)),
            (branchy_outer(rng, p, n), random_no_constant(rng, p, n)),
        ):
            assert f.compose(g) == horner_compose(f, g), (p, n)


@pytest.mark.parametrize("p", PRIMES)
def test_compose_matches_horner_at_1000(p):
    rng = random.Random(410 + p)
    f = random_series(rng, p, 1000)
    g = random_no_constant(rng, p, 1000)
    assert f.compose(g) == horner_compose(f, g)


@pytest.mark.parametrize("p", PRIMES)
def test_pow_p_multiples_match_naive(p):
    rng = random.Random(420 + p)
    for n in (0, 1, 2, 17, rng.randrange(3, 60)):
        f = random_series(rng, p, n)
        for k in (p, p ** 2, 3 * p, p ** 3 + 1):
            assert f ** k == naive_power(f, k), (p, n, k)


def test_pow_huge_p_power_is_a_spread():
    t = Series.gen(3, 10)
    assert (1 + t) ** (3 ** 500) == Series.one(3, 10)
    # (1 + t)^18 = (1 + 2t + t^2)^9 = 1 + 2t^9 + t^18
    assert (1 + t) ** (2 * 3 ** 2) == 1 + 2 * t ** 9


def test_artin_schreier_matches_summation():
    rng = random.Random(430)
    for n in range(41):
        for f in (random_no_constant(rng, 2, n), sparse_inner(rng, 2, n)):
            assert f.artin_schreier_root() == summed_artin_schreier_root(f)
