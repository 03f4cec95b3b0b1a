"""Randomized structural invariants of the series kernel."""

import random

from nottingham.series import Series

from support import (
    horner_compose,
    naive_product,
    random_invertible,
    random_no_constant,
    random_one_unit,
    random_series,
)

PRIMES = (2, 3, 5)


def test_truncation_functoriality_mul():
    rng = random.Random(301)
    for _ in range(150):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 40)
        m = rng.randrange(0, n + 1)
        f, g = random_series(rng, p, n), random_series(rng, p, n)
        assert (f * g).truncate(m) == f.truncate(m) * g.truncate(m)


def test_truncation_functoriality_compose():
    rng = random.Random(302)
    for _ in range(150):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 40)
        m = rng.randrange(0, n + 1)
        f = random_series(rng, p, n)
        g = random_no_constant(rng, p, n)
        assert f.compose(g).truncate(m) == f.truncate(m).compose(g.truncate(m))


def test_frobenius_squaring_char2():
    rng = random.Random(303)
    for _ in range(150):
        n = rng.randrange(0, 50)
        f = random_series(rng, 2, n)
        sq = f * f
        for e in range(n + 1):
            expect = f[e // 2] if e % 2 == 0 else 0
            assert sq[e] == expect


def test_compose_associative():
    rng = random.Random(304)
    for _ in range(100):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 32)
        f = random_series(rng, p, n)
        g = random_no_constant(rng, p, n)
        h = random_no_constant(rng, p, n)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_mul_commutative_and_associative():
    rng = random.Random(305)
    for _ in range(100):
        p = rng.choice(PRIMES)
        n = rng.randrange(0, 32)
        f, g, h = (random_series(rng, p, n) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_block_compose_bitmatches_horner_widely():
    rng = random.Random(306)
    for _ in range(120):
        p = rng.choice((2, 3, 5, 257))
        n = rng.randrange(0, 70)
        f = random_series(rng, p, n)
        g = random_no_constant(rng, p, n)
        assert f.compose(g) == horner_compose(f, g)


def test_mul_matches_naive_oracle_large_prime():
    rng = random.Random(307)
    for _ in range(40):
        n = rng.randrange(0, 20)
        f, g = random_series(rng, 257, n), random_series(rng, 257, n)
        assert f * g == naive_product(f, g)


def test_reciprocal_roundtrip_randomized():
    rng = random.Random(308)
    for _ in range(150):
        p = rng.choice(PRIMES)
        n = rng.randrange(0, 40)
        coeffs = [rng.randrange(p) for _ in range(n + 1)]
        coeffs[0] = rng.randrange(1, p)
        f = Series(p, n, coeffs)
        assert f * f.reciprocal() == Series.one(p, n)


def test_reversion_roundtrip_randomized():
    rng = random.Random(309)
    for _ in range(100):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 32)
        f = random_invertible(rng, p, n)
        t = Series.gen(p, n)
        assert f.compose(f.reversion()) == t
        assert f.reversion().compose(f) == t


def test_nth_root_power_roundtrip_randomized():
    rng = random.Random(310)
    for p, ms in ((2, (1, 3, 5, 7)), (3, (1, 2, 4)), (5, (2, 3, 4))):
        for m in ms:
            for _ in range(30):
                n = rng.randrange(0, 24)
                f = random_one_unit(rng, p, n)
                u = f.nth_root(m)
                assert u[0] == 1
                assert u ** m == f


def test_artin_schreier_roundtrip_randomized():
    rng = random.Random(311)
    for _ in range(150):
        n = rng.randrange(0, 60)
        f = random_no_constant(rng, 2, n)
        s = f.artin_schreier_root()
        assert s * s + s == f
        assert s[0] == 0
