"""Fast kernel paths against the slow oracles in support.py.

Long products run Kronecker substitution (one bit per coefficient at p = 2,
byte slots otherwise) or, longer still at p = 2, a carry-less byte-table
kernel, p = 2 squares are spreads, composition runs the Frobenius split
one level at a time above the block-ladder leaves (at most _TWIG
coefficients, or fewer than p^2), each level's rows multiplied by g in one
packed product (at p = 2 and long, on rows kept bit-packed from the leaves
to the root), p-th powers and Artin-Schreier squares run as coefficient
spreads, powers above N reduce their exponent, m-th roots and reversion
(above the elimination leaf) run Newton iteration, klopsch_rep works in
x = t^m, and division by 1 + t over F_2 is a prefix XOR; each is checked
for bit-equality against an algorithm that does none of that.
"""

import random

import numpy as np
import pytest

from nottingham import BadRoot, MismatchedContext, NonzeroConstant, series
from nottingham.group import GroupElement, klopsch_rep
from nottingham.order4 import _r
from nottingham.series import (
    _CLMUL, _CLMUL_ROWS, _KRONECKER, _LEAF, _SPREAD, _TWIG, Series, _clmul, _compose, _compose_all,
    _conv, _eliminate, _gather, _mul, _mul_rows, _substitute)

from support import (
    coefficientwise_nth_root,
    convolve_product,
    eliminate_reversion,
    horner_compose,
    naive_power,
    naive_product,
    random_group_element,
    random_invertible,
    random_no_constant,
    random_one_unit,
    random_series,
    random_unit,
    summed_artin_schreier_root,
)

PRIMES = (2, 3, 5, 7, 257)
EDGE_N = (0, 1, 2, _TWIG - 1, _TWIG, _TWIG + 1, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1)


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


# Kronecker crossover per prime at these lengths: bit slots at p = 2,
# 16-bit slots at p = 3, 5, 7, 32-bit slots (crossover 2^3 times higher) at
# p = 257.
CROSSOVER = {p: _KRONECKER * (8 if p == 257 else 1) for p in PRIMES}


def residues(rng, p, n):
    return np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)


@pytest.mark.parametrize("p", PRIMES)
def test_conv_matches_convolve_at_crossover(p):
    rng = random.Random(470 + p)
    for n in (CROSSOVER[p] - 1, CROSSOVER[p], CROSSOVER[p] + 1):
        # equal lengths, the reciprocal's (a[:prec], g) shapes both ways, full product
        for la, lb, n1 in ((n, n, n), (2 * n, n, 2 * n), (n, 2 * n, 2 * n), (n, n + 3, 2 * n + 2)):
            a, b = residues(rng, p, la), residues(rng, p, lb)
            assert np.array_equal(_conv(a, b, p, n1), np.convolve(a, b)[:n1] % p), (p, la, lb)


@pytest.mark.parametrize("p", PRIMES)
def test_mul_with_valuations_matches_naive(p):
    rng = random.Random(480 + p)
    for span in (CROSSOVER[p] - 1, CROSSOVER[p], CROSSOVER[p] + 1):
        va, vb = rng.randint(1, 9), rng.randint(1, 9)
        n = span + va + vb - 1
        # f sparse above its valuation keeps the oracle cheap; the kernel
        # still sees the whole span
        terms = {e: rng.randrange(p) for e in rng.sample(range(va + 1, n + 1), 12)}
        f = Series.from_terms(p, n, {va: 1, **terms})
        g = Series(p, n, [0] * vb + [rng.randrange(1, p)]
                   + [rng.randrange(p) for _ in range(n - vb)])
        assert f * g == naive_product(f, g), (p, span)
        assert g * f == naive_product(f, g), (p, span)


@pytest.mark.parametrize("p", (2, 3, 257))
def test_mul_with_zero_tails_matches_naive(p):
    """Operands with high zero coefficients, which _mul cuts at their last
    nonzero coefficient: 1 + t, t^k, 0 and all ones against each other and a
    random series, both ways round and squared, on each side of the
    Kronecker crossover and of _CLMUL."""
    rng = random.Random(485 + p)
    for n in sorted({1, 2, CROSSOVER[p], _CLMUL}):
        k = rng.randrange(1, n + 1)
        tails = [Series(p, n, [1, 1][:n + 1]), Series.from_terms(p, n, {k: p - 1}),
                 Series.zero(p, n), Series(p, n, [p - 1] * (n + 1)), random_series(rng, p, n)]
        for f in tails:
            for g in tails:
                assert f * g == naive_product(f, g), (p, n, f, g)


# (p, n) on each side of every byte-slot switch: n*(p-1)^2 reaches 2^16 at
# p = 3, 5, 7 and 2^32 at p = 257.  At p = 2 the bit slot widens there from
# 16 to 17 bits.
SLOT_SWITCHES = [(2, 65535), (2, 65536), (3, 16383), (3, 16384), (5, 4095), (5, 4096),
                 (7, 1820), (7, 1821), (257, 65535), (257, 65536)]


@pytest.mark.parametrize("p, n", SLOT_SWITCHES)
def test_conv_worst_case_fills_its_slots(p, n):
    """All entries p-1: coefficient k < n of the square is (k+1)(p-1)^2,
    the largest value a slot must hold, and (k+1) mod p.  One row goes
    through _mul to this same _conv; two rows take the packed product."""
    a = np.full(n, p - 1, dtype=np.int64)
    want = np.arange(1, n + 1) % p
    assert np.array_equal(_conv(a, a, p, n), want)
    assert np.array_equal(_mul_rows(np.stack([a, a]), a, p), np.stack([want, want]))


@pytest.mark.parametrize("n", [2 ** k - d for k in (7, 8, 11, 12) for d in (1, 0)])
def test_bit_slots_hold_all_ones_squares(n):
    """At p = 2 a slot has n.bit_length() bits, one more at each n = 2^k;
    the all-ones square fills coefficient n - 1 with n, the largest value a
    slot must hold.  Full product by _conv, truncated through two rows."""
    a = np.ones(n, dtype=np.int64)
    want = np.convolve(a, a) % 2
    assert np.array_equal(_conv(a, a, 2, 2 * n - 1), want)
    assert np.array_equal(_mul_rows(np.stack([a, a]), a, 2), np.stack([want[:n], want[:n]]))


def test_bit_slots_at_the_composition_leaf_shape():
    """r rows of n1 against g through the 2-D row path, whole and truncated:
    (128, 17), packed to 4,224 slots, is the deepest level's row product of
    composition at N = 2048 (leaves of 9 coefficients); (32, 65) packs to
    4,128 slots."""
    rng = np.random.default_rng(500)
    for r, n1 in ((32, 65), (128, 17)):
        rows, g = rng.integers(0, 2, (r, n1)), rng.integers(0, 2, n1)
        full = np.array([np.convolve(row, g) % 2 for row in rows])
        assert full.shape == (r, 2 * n1 - 1)
        for k in (2 * n1 - 1, n1, 1):
            assert np.array_equal(_conv(rows, g, 2, k), full[:, :k]), (r, n1, k)
        assert np.array_equal(_mul_rows(rows, g, 2), full[:, :n1]), (r, n1)


@pytest.mark.parametrize("p", [2, 3])
def test_squares_match_products_of_a_copy(p):
    """_conv(a, a) packs one int and squares it; _mul(a, a) passes one
    slice above a's valuation.  Both equal the product with a copy."""
    rng = random.Random(505 + p)
    for n in (_KRONECKER, 3 * _KRONECKER + 1):
        a = residues(rng, p, n)
        for n1 in (2 * n - 1, n, n // 2):
            assert np.array_equal(_conv(a, a, p, n1), _conv(a, a.copy(), p, n1)), (n, n1)
        a[:5] = 0
        assert np.array_equal(_mul(a, a, p), _mul(a, a.copy(), p)), n


@pytest.mark.parametrize("p", PRIMES)
def test_mul_rows_matches_per_row_mul(p):
    """The packed row product against _mul on each row: distinct rows, a
    row with a valuation and a zero row, 1 to 27 rows, around the crossover."""
    rng = random.Random(490 + p)
    for n1 in (1, 2, 43, CROSSOVER[p] - 1, CROSSOVER[p] + 1, 300):
        for r in (1, 2, 27):
            rows = np.array([residues(rng, p, n1) for _ in range(r)]).reshape(r, n1)
            rows[0, :n1 // 2] = 0
            if r > 1:
                rows[-1] = 0
            g = residues(rng, p, n1 + 3)
            g[0] = 0
            want = np.array([_mul(row, g, p) for row in rows])
            assert np.array_equal(_mul_rows(rows, g, p), want), (p, n1, r)


@pytest.mark.parametrize("p", PRIMES)
def test_mul_rows_on_one_row(p):
    """A single row with a valuation, zero, or a constant c (a multiple of
    g, no product), against one convolution; at p = 2 the longest row is
    past the byte-table kernel's crossover."""
    rng = random.Random(495 + p)
    for n1 in (1, 2, 17, CROSSOVER[p] - 1, CROSSOVER[p] + 1, _CLMUL + 60):
        g = residues(rng, p, n1 + 3)
        g[0] = 0
        shifted = residues(rng, p, n1)
        shifted[:n1 // 2] = 0
        constants = [np.eye(1, n1, dtype=np.int64)[0] * c for c in sorted({0, 1, p - 1})]
        for row in [shifted] + constants:
            want = convolve_product(Series(p, n1 - 1, row), Series(p, n1 - 1, g[:n1])).coeffs
            assert np.array_equal(_mul_rows(row[None], g, p), want[None]), (p, n1, row[:3])


@pytest.mark.parametrize("p", PRIMES)
def test_conv_rows_hold_the_whole_row_product(p):
    """Rows sit m + len(b) - 1 slots apart, so each row's full product
    fits before the next: b shorter and longer than the rows, n1 up to
    the full product, 1 to 5 rows, all entries p - 1 and random."""
    rng = random.Random(497 + p)
    for m in (1, 9, 40):
        for lb in (max(1, m - 5), m, m + 7):
            for r in (1, 2, 5):
                full = np.full((r, m), p - 1, dtype=np.int64)
                for a, b in ((full, np.full(lb, p - 1, dtype=np.int64)),
                             (np.array([residues(rng, p, m) for _ in range(r)]), residues(rng, p, lb))):
                    for n1 in {1, m, m + lb - 1}:
                        want = np.array([np.convolve(row, b)[:n1] % p for row in a])
                        assert np.array_equal(_conv(a, b, p, n1), want), (p, m, lb, r, n1)


def bits(rng, *shape):
    return np.array(rng.integers(0, 2, shape), dtype=np.int64)


def convolve_rows(rows, b, n1):
    return np.array([np.convolve(row, b)[:n1] % 2 for row in rows]).reshape(len(rows), n1)


# A byte of a bit-packed row gathers one table row: lengths on each side of
# the byte edges, with rows of one, several and many blocks of kb row bytes.
BYTE_EDGES = (1, 7, 8, 9, 15, 16, 17)


@pytest.mark.parametrize("block", [series._BLOCK, 1])
def test_clmul_at_byte_edges(monkeypatch, block):
    """Every pair of lengths at the byte edges, all-ones and random, 1, 2 and
    27 rows, n1 the full product, the row length and below it.  A _BLOCK of
    1 walks 8 row bytes at a time and drops table columns past n1."""
    monkeypatch.setattr(series, "_BLOCK", block)
    rng = np.random.default_rng(520)
    lengths = BYTE_EDGES + (100, 301)
    for m in lengths:
        for lb in lengths:
            for r in (1, 2, 27):
                for rows, b in ((np.ones((r, m), dtype=np.int64), np.ones(lb, dtype=np.int64)),
                                (bits(rng, r, m), bits(rng, lb))):
                    for n1 in {m + lb - 1, m, max(1, m - 5)}:
                        got = _clmul(rows, b, n1)
                        assert np.array_equal(got, convolve_rows(rows, b, n1)), (m, lb, r, n1)


def test_conv_takes_the_byte_table_kernel_at_its_crossover():
    """Shorter operand _CLMUL - 1 (bit slots), _CLMUL and _CLMUL + 1 (the
    kernel), in the shapes of _mul, of the reciprocal's steps and whole; an
    operand counts up to its last nonzero coefficient."""
    rng = np.random.default_rng(530)
    for n in (_CLMUL - 1, _CLMUL, _CLMUL + 1):
        for la, lb, n1 in ((n, n, n), (2 * n, n, 2 * n), (n, 2 * n, 2 * n), (n, n + 3, 2 * n + 2)):
            ones = np.ones(la, dtype=np.int64), np.ones(lb, dtype=np.int64)
            for a, b in ((bits(rng, la), bits(rng, lb)), ones):
                assert np.array_equal(_conv(a, b, 2, n1), np.convolve(a, b)[:n1] % 2), (la, lb, n1)
    # both sides of the last-nonzero rule: 1 + t^e against a dense operand
    b = bits(rng, 2 * _CLMUL)
    for e in (_CLMUL - 2, _CLMUL - 1):
        a = np.zeros(2 * _CLMUL, dtype=np.int64)
        a[[0, e]] = 1
        for x, y in ((a, b), (b, a)):
            assert np.array_equal(_conv(x, y, 2, 2 * _CLMUL), np.convolve(x, y)[:2 * _CLMUL] % 2), e


def test_mul_rows_at_the_walk_crossover_shapes():
    """Row products of r*m = _CLMUL coefficients and rows of m = _CLMUL_ROWS,
    where a composition's walk goes packed: each side of both edges, 1, 2
    and 27 rows, one row with a valuation and one zero, and all ones."""
    rng = np.random.default_rng(540)
    m0, c = _CLMUL_ROWS, _CLMUL
    shapes = [(r, m) for r in (1, 2, 27) for m in (m0 - 1, m0, m0 + 1)]
    shapes += [(r, c // r + d) for r in (2, 4) for d in (-1, 0, 1)]
    for r, m in shapes:
        rows = bits(rng, r, m)
        rows[0, :m // 3] = 0
        if r > 1:
            rows[-1] = 0
        g = bits(rng, m + 5)
        g[0] = 0
        assert np.array_equal(_mul_rows(rows, g, 2), convolve_rows(rows, g, m)), (r, m)
        ones = np.ones((r, m), dtype=np.int64)
        assert np.array_equal(_mul_rows(ones, g, 2), convolve_rows(ones, g, m)), (r, m)


def test_conv_routes_to_the_byte_table_kernel(monkeypatch):
    """The kernel runs exactly from its crossover, a shorter operand of
    _CLMUL counted to its last nonzero coefficient; row products never take
    it, on either side of the walk's rule."""
    calls = []
    monkeypatch.setattr(series, "_clmul", lambda *args: calls.append(args) or _clmul(*args))
    ones = np.ones(2 * _CLMUL, dtype=np.int64)
    for a, b, want in ((ones[:_CLMUL - 1], ones, 0), (ones[:_CLMUL], ones, 1),
                       (np.eye(1, 2 * _CLMUL, _CLMUL - 2, dtype=np.int64)[0], ones, 0),
                       (np.eye(1, 2 * _CLMUL, _CLMUL - 1, dtype=np.int64)[0], ones, 1)):
        calls.clear()
        _conv(a, b, 2, len(a))
        _conv(a, b, 3, len(a))
        assert len(calls) == want, (len(a), np.flatnonzero(a))
    m0 = _CLMUL_ROWS
    for r, m in ((-(-_CLMUL // m0), m0), (-(-_CLMUL // m0) + 1, m0 - 1),
                 (2, _CLMUL // 2), (2, _CLMUL // 2 - 1)):
        calls.clear()
        rows = np.ones((r, m), dtype=np.int64)
        _mul_rows(rows, ones, 2)
        _mul_rows(rows, ones, 3)
        assert calls == [], (r, m)


@pytest.mark.parametrize("n", [1023, 1024, 1025])
def test_clmul_around_a_block_edge(n):
    """128 row bytes are one block at this length: 1,024 coefficients fill
    it, 1,025 start a second."""
    rng = np.random.default_rng(550 + n)
    a, b = bits(rng, n), bits(rng, n)
    for n1 in (n, 2 * n - 1, n - 9):
        assert np.array_equal(_conv(a, b, 2, n1), np.convolve(a, b)[:n1] % 2), n1
    assert np.array_equal(_mul_rows(np.stack([a, b]), b, 2), convolve_rows([a, b], b, n))


def test_clmul_at_2_16_plus_1(monkeypatch):
    """Blocks of 32 row bytes and a table that drops columns past n1.  A
    product with all ones is a running sum, np.convolve(a, ones) =
    np.cumsum(a); all ones squared has coefficient k equal to k + 1 below
    n.  The random product is checked against the bit slots, which the
    crossover tests check against np.convolve."""
    n = 2 ** 16 + 1
    rng = np.random.default_rng(560)
    a, b, ones = bits(rng, n), bits(rng, n), np.ones(n, dtype=np.int64)
    k = np.arange(2 * n - 1)
    assert np.array_equal(_conv(ones, ones, 2, 2 * n - 1),
                          np.minimum(k + 1, 2 * n - 1 - k) % 2)
    assert np.array_equal(_conv(a, ones, 2, n), np.cumsum(a) % 2)
    assert np.array_equal(_mul_rows(np.stack([a, b])[:, :n // 2], ones, 2),
                          np.stack([np.cumsum(a[:n // 2]) % 2, np.cumsum(b[:n // 2]) % 2]))
    got = _mul(a, b, 2)
    monkeypatch.setattr(series, "_CLMUL", 2 * n)
    assert np.array_equal(got, _mul(a, b, 2))


def test_p2_squares_are_spreads():
    """At p = 2, _mul(a, a) is a(t^2): dense, sparse and with a valuation,
    against the product with a copy by naive_product."""
    rng = random.Random(570)
    for n in (0, 1, 2, 17, 150):
        dense = random_series(rng, 2, n)
        sparse = Series.from_terms(2, n, {e: 1 for e in rng.sample(range(n + 1), min(n + 1, 4))})
        shifted = Series(2, n, [0] * min(n, 5) + [1] + [rng.randrange(2) for _ in range(n - 5)])
        for f in (dense, sparse, shifted):
            copy = Series(2, n, f.coeffs.copy())
            assert Series(2, n, _mul(f.coeffs, f.coeffs, 2)) == naive_product(f, copy), n
            assert f * f == naive_product(f, f), n


def test_p2_powers_through_spread_squares_match_naive():
    rng = random.Random(580)
    for n in (5, 120):
        for f in (random_series(rng, 2, n), random_invertible(rng, 2, n)):
            for k in (2, 3, 6, 7, 1001):
                assert f ** k == naive_power(f, k), (n, k)


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


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13, 257))
def test_compose_matches_horner_where_the_split_stops(p):
    """N + 1 on each side of _TWIG and of p^2: a series splits while it is
    longer than _TWIG and at least p^2 long.  At p = 257, p^2 = 66,049
    coefficients would take the oracle hours, so only the _TWIG edges run."""
    rng = random.Random(415 + p)
    edges = (_TWIG, _TWIG + 1) + ((p * p - 1, p * p, p * p + 1) if p < 257 else ())
    for n1 in edges:
        f, g = random_series(rng, p, n1 - 1), random_no_constant(rng, p, n1 - 1)
        assert f.compose(g) == horner_compose(f, g), (p, n1)


@pytest.mark.parametrize("p", (2, 3, 7, 257))
def test_compose_at_every_leaf_length(p):
    """n1 = N + 1 from 1 to _TWIG + 1: one leaf, split once at _TWIG + 1
    for p = 2 and 3; the ladder builds each g^j from t^j on."""
    rng = random.Random(419 + p)
    for n in range(_TWIG + 1):
        for _ in range(3):
            f, g = random_series(rng, p, n), random_no_constant(rng, p, n)
            assert f.compose(g) == horner_compose(f, g), (p, n)


@pytest.mark.parametrize("p", (2, 3, 7, 257))
def test_compose_with_inner_valuation_above_one(p):
    """g of valuation 2 (dense above it) and sparse g: g^j has valuation
    above j, and the ladder's products start at t^j regardless."""
    rng = random.Random(421 + p)
    for n in (2, 5, _TWIG, _TWIG + 1, 100, 384):
        dense = Series(p, n, [0, 0] + [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 2)])
        for g in (dense, sparse_inner(rng, p, n)):
            f = random_series(rng, p, n)
            assert f.compose(g) == horner_compose(f, g), (p, n)


def test_compose_leaf_ladder_without_horner_steps():
    """p = 2, N = 384: 32 leaves of L = 13, so m = min(L, isqrt(32*L)) = L
    and the leaves are one matmul against g^0, ..., g^12."""
    rng = random.Random(417)
    f, g = random_series(rng, 2, 384), random_no_constant(rng, 2, 384)
    assert f.compose(g) == horner_compose(f, g)


@pytest.mark.parametrize("p", [11, 257])
def test_compose_leaf_ladder_with_horner_steps(p):
    """N = 384: at p = 11, 11 leaves of L = 35 and m = isqrt(11*35) = 19 < L;
    at p = 257 no split (p^2 > 385), one leaf of 385 and m = 19."""
    rng = random.Random(418 + p)
    f, g = random_series(rng, p, 384), random_no_constant(rng, p, 384)
    assert f.compose(g) == horner_compose(f, g)


# At N + 1 = 2050: leaves of 9 at p = 2 and 3, of 42 at p = 7 (p^2 stops
# the split) and no split at p = 257
STACK_N = (1, 2, 16, 17, 25, 384, 2049)


def stack_inner(rng, p, n):
    """Dense g below n = 2049; there, g up to t^40 keeps the oracle's
    convolutions short."""
    return random_no_constant(rng, p, n) if n < 2049 else Series(
        p, n, [0] + [rng.randrange(p) for _ in range(40)])


@pytest.mark.parametrize("p", (2, 3, 7, 257))
def test_compose_stack_matches_horner_row_by_row(p):
    """r outer series over one g in one tree walk: leaf k of row s is row
    k*r + s at every level, and row s of the result is f_s(g)."""
    rng = random.Random(430 + p)
    for n in STACK_N:
        g = stack_inner(rng, p, n)
        fs = [random_series(rng, p, n) for _ in range(3)]
        want = np.stack([horner_compose(f, g).coeffs for f in fs])
        for r in (1, 2, 3):
            got = _compose(np.stack([f.coeffs for f in fs[:r]]), g.coeffs, p)
            assert np.array_equal(got, want[:r]), (p, n, r)


@pytest.mark.parametrize("p", (2, 3, 7, 257))
def test_compose_stack_with_rows_0_1_and_t(p):
    """0(g) = 0, 1(g) = 1 and t(g) = g beside a random row, first, middle
    and last in stacks of two and three."""
    rng = random.Random(440 + p)
    for n in STACK_N:
        g = stack_inner(rng, p, n)
        f = random_series(rng, p, n)
        rows = [Series.zero(p, n), Series.one(p, n), Series.gen(p, n), f]
        images = [rows[0], rows[1], g, horner_compose(f, g)]
        for stack in ((0, 3), (3, 1), (2, 3), (1, 2, 3), (3, 0, 2), (2, 1, 0)):
            got = _compose(np.stack([rows[i].coeffs for i in stack]), g.coeffs, p)
            assert np.array_equal(got, np.stack([images[i].coeffs for i in stack])), (p, n, stack)


# (r, L) on each side of the packed walk's rule, r*L >= _CLMUL in rows of
# L >= _CLMUL_ROWS: r*L at _CLMUL - 1 and from _CLMUL, for r = 1, 2, 3; L
# at _CLMUL_ROWS - 1 and + 1 for r = 6, the least r whose r*L crosses
# _CLMUL there; L + 1 = N + 1 at 0, 1 and 7 mod 8, and N = 2048, 4096.
WALK_EDGES = [(r, -(-_CLMUL // r) + d) for r in (1, 2, 3) for d in (-1, 0)]
WALK_EDGES += [(6, _CLMUL_ROWS + d) for d in (-1, 0, 1)]
WALK_SHAPES = WALK_EDGES + [(r, L) for r in (1, 2, 3) for L in (_CLMUL - 1, _CLMUL + 1, 2049, 4097)]


def test_packed_walk_matches_horner(monkeypatch):
    """p = 2 stacks on both sides of the packed walk's rule, each row 0, 1,
    t, all ones or random, against horner_compose; bits a packed row holds
    past a node's length would show in the all-ones rows.  g is dense up to
    L = _CLMUL + 1 and reaches t^40 beyond, which keeps the oracle cheap.
    A _BLOCK of 1 walks 8 row bytes at a time and, at r = 3 and L = 4097,
    narrows a level's table."""
    rng = random.Random(447)
    for L in sorted({L for _, L in WALK_SHAPES}):
        n = L - 1
        g = Series(2, n, random_no_constant(rng, 2, n if L <= _CLMUL + 1 else 40).coeffs)
        ones, f = Series(2, n, [1] * L), random_series(rng, 2, n)
        pairs = [(Series.zero(2, n), Series.zero(2, n)), (Series.one(2, n), Series.one(2, n)),
                 (Series.gen(2, n), g), (ones, horner_compose(ones, g)), (f, horner_compose(f, g))]
        for r in sorted({r for r, L2 in WALK_SHAPES if L2 == L}):
            for j in range(5):      # every row in every slot of a stack of two or more
                stack = [pairs[(i + j) % 5] for i in range(r)]
                for block in (series._BLOCK, 1):
                    monkeypatch.setattr(series, "_BLOCK", block)
                    got = _compose(np.stack([a.coeffs for a, _ in stack]), g.coeffs, 2)
                    assert np.array_equal(got, np.stack([b.coeffs for _, b in stack])), (r, L, j, block)


def test_spread_table_is_the_substitution():
    """_SPREAD[v] is the byte v at t -> t^2, and a bit-packed row spread
    byte by byte is _substitute(a, 2, n)."""
    for v in range(256):
        a = np.array([v >> i & 1 for i in range(8)], dtype=np.int64)
        spread = _substitute(a, 2, 16)
        assert int(_SPREAD[v]) == int((spread << np.arange(16)).sum()), v
    a = bits(np.random.default_rng(448), 301)
    packed = np.packbits(a.astype(np.uint8), bitorder="little")
    got = np.unpackbits(_SPREAD[packed].view(np.uint8), count=602, bitorder="little")
    assert np.array_equal(got, _substitute(a, 2, 602))


def test_certificate_walks_packed_and_group_ops_do_not(monkeypatch):
    """run_checks at N = 2048 makes no p = 2 row product: both its walks go
    packed, gathering by g's table.  A p = 2 composition at N = 384 (as in
    group_ops) keeps its int64 walk and gathers nothing, and a stack goes
    packed exactly where r*L >= _CLMUL and L >= _CLMUL_ROWS."""
    from nottingham.order4 import run_checks, sigma_bundle
    bundle = sigma_bundle(2048)
    shapes, gathers = [], []
    monkeypatch.setattr(series, "_conv", lambda a, b, p, n1: shapes.append((a.ndim, p)) or _conv(a, b, p, n1))
    monkeypatch.setattr(series, "_gather", lambda *args: gathers.append(1) or _gather(*args))
    run_checks(bundle)
    assert (2, 2) not in shapes and gathers
    rng = random.Random(449)
    shapes.clear(), gathers.clear()
    random_series(rng, 2, 384).compose(random_no_constant(rng, 2, 384))
    assert (2, 2) in shapes and not gathers
    for r, L in WALK_EDGES:
        gathers.clear()
        _compose(np.ones((r, L), dtype=np.int64), random_no_constant(rng, 2, L - 1).coeffs, 2)
        assert bool(gathers) == (r * L >= _CLMUL and L >= _CLMUL_ROWS), (r, L)


def test_compose_all_checks_every_row():
    """_compose_all returns Series equal to each row's compose, and checks
    the context of every outer series, not only the first, and g(0) = 0."""
    rng = random.Random(445)
    g = random_no_constant(rng, 3, 40)
    fs = [random_series(rng, 3, 40) for _ in range(3)]
    assert _compose_all(fs, g) == [f.compose(g) for f in fs]
    with pytest.raises(MismatchedContext):
        _compose_all([fs[0], Series.gen(3, 41)], g)
    with pytest.raises(MismatchedContext):
        _compose_all([fs[0], Series.gen(5, 40)], g)
    with pytest.raises(NonzeroConstant):
        _compose_all(fs, g + 1)


@pytest.mark.parametrize("p, n", [(2, 40), (3, 30), (7, 60)])
def test_group_powers_match_naive(p, n):
    """f ** k for k in 0..40, by square-and-multiply over Horner
    compositions from t."""
    rng = random.Random(450 + p)
    f = GroupElement(Series(p, n, [0, 1] + [rng.randrange(p) for _ in range(n - 1)]))
    for k in range(41):
        want = naive_power(f.series, k, horner_compose, Series.gen(p, n))
        assert (f ** k).series == want, (p, k)


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


def with_constant(rng, p, n, c0):
    return Series(p, n, [c0] + [rng.randrange(p) for _ in range(n)])


def unit_exponent(p, n):
    """(p-1)*p^J for the least p^J >= n + 1: units mod t^(n+1) have this exponent."""
    q = 1
    while q < n + 1:
        q *= p
    return (p - 1) * q


@pytest.mark.parametrize("p", (2, 3, 7, 257))
def test_pow_matches_naive_for_every_small_exponent(p):
    """f ** k for k in 0..40, a(0) in {0, 1, c}: the exponent reduction
    above N, the Frobenius strip and the ladder against the square-and-multiply
    oracle over plain convolutions."""
    rng = random.Random(590 + p)
    for n in (0, 1, 2, 17, 40):
        for c0 in {0, 1, p - 1}:
            f = with_constant(rng, p, n, c0)
            for k in range(41):
                assert f ** k == naive_power(f, k, convolve_product), (p, n, c0, k)


@pytest.mark.parametrize("p", (2, 3, 7, 257))
def test_pow_is_periodic_in_the_unit_exponent(p):
    """f ** (E + j) = f ** j for units, E = (p-1)*p^J, p^J >= N + 1, with
    f ** E = 1; f ** k = 0 for f(0) = 0 and k >= N + 1."""
    rng = random.Random(600 + p)
    for n in (0, 1, 2, 17, 40):
        e = unit_exponent(p, n)
        one, zero = Series.one(p, n), Series.zero(p, n)
        for c0 in {1, p - 1}:
            f = with_constant(rng, p, n, c0)
            assert f ** e == one and f ** (e * 10 ** 50) == one, (p, n, c0)
            for j in range(12):
                want = naive_power(f, j, convolve_product)
                assert f ** (e + j) == want and f ** (e * 3 ** 40 + j) == want, (p, n, c0, j)
        f = with_constant(rng, p, n, 0)
        for k in (n + 1, n + 2, e, 10 ** 12 + 7, 3 ** 40, 10 ** 4000):
            assert f ** k == zero, (p, n, k)


@pytest.mark.parametrize("p", PRIMES)
def test_nth_root_with_a_4000_digit_index(p):
    """A 4,000-digit m reduces like any exponent: the Newton step's
    u^(m-1) costs as much as a small power's."""
    rng = random.Random(610 + p)
    for n in (0, 1, 2, 17, 40):
        f = random_one_unit(rng, p, n)
        for m in (10 ** 3999 + j for j in range(1, 4)):
            if m % p:
                assert f.nth_root(m) == coefficientwise_nth_root(f, m), (p, n, m % 1000)


def test_pow_starts_the_ladder_at_the_lowest_set_bit(monkeypatch):
    """f ** k for k prime to p and k <= N makes bit_length - 1 squares and
    popcount - 1 products, none by 1: f ** 5 at p = 3 is three _mul calls."""
    f = random_unit(random.Random(620), 3, 40)
    calls = []
    monkeypatch.setattr(series, "_mul", lambda a, b, p: calls.append(1) or _mul(a, b, p))
    f ** 5
    assert len(calls) == 3
    for k in (k for k in range(1, 41) if k % 3):
        calls.clear()
        f ** k
        assert len(calls) == k.bit_length() + bin(k).count("1") - 2, k


@pytest.mark.parametrize("p", (2, 3))
def test_group_powers_compose_once_per_square_and_product(monkeypatch, p):
    """GroupElement ** k composes bit_length - 1 squares and popcount - 1
    products for k in 1..40, none with the identity, and none for k = 0."""
    f = random_group_element(random.Random(630 + p), p, 30)
    calls = []
    monkeypatch.setattr(series, "_compose", lambda *args: calls.append(1) or _compose(*args))
    for k in range(41):
        calls.clear()
        f ** k
        assert len(calls) == (k.bit_length() + bin(k).count("1") - 2 if k else 0), k


@pytest.mark.parametrize("p", (2, 3, 5))
def test_nth_root_of_index_one_is_the_series(monkeypatch, p):
    """nth_root(1) returns the series itself with no product, once the guards
    every index takes have passed: a bool index and f(0) != 1 still raise."""
    f = random_one_unit(random.Random(640 + p), p, 256)
    calls = []
    monkeypatch.setattr(series, "_conv", lambda *args, **kw: calls.append(1) or _conv(*args, **kw))
    assert f.nth_root(1) is f
    assert calls == []
    f.nth_root(3 if p == 2 else 2)
    assert calls     # the counter sees the products of a real root
    with pytest.raises(ValueError):
        f.nth_root(True)
    with pytest.raises(BadRoot):
        (f + f).nth_root(1)


def test_division_by_one_plus_t_is_a_prefix_xor():
    """order4._r(x) = x/(1+t) over F_2 as a prefix XOR, against the product by
    the reciprocal of 1 + t and naive_product by the all-ones series: on each
    side of _CLMUL, where such products take the byte-table kernel, and at
    seeded random N; x zero, all ones, random, and of valuation above 1."""
    rng = random.Random(650)
    for n in (0, 1, 2, 8, _CLMUL - 1, _CLMUL, _CLMUL + 1, 2048, *rng.sample(range(3, 300), 3)):
        ones = Series(2, n, [1] * (n + 1))
        v = rng.randrange(2, 6)
        shifted = Series(2, n, ([0] * v + [1] + [rng.randrange(2) for _ in range(n)])[:n + 1])
        for x in (Series(2, n, [0]), ones, random_series(rng, 2, n), shifted):
            got = _r(x)
            assert got == x * Series(2, n, [1, 1][:n + 1]).reciprocal(), n
            assert got == naive_product(x, ones), n


def test_artin_schreier_matches_summation():
    rng = random.Random(430)
    for n in range(41):
        for f in (random_no_constant(rng, 2, n), sparse_inner(rng, 2, n)):
            assert f.artin_schreier_root() == summed_artin_schreier_root(f)


@pytest.mark.parametrize("p", PRIMES)
def test_nth_root_matches_coefficientwise(p):
    rng = random.Random(440 + p)
    ms = sorted({m for m in (1, 2, p - 1, p + 1, 11, 10 ** 30 + 1) if m % p})
    for n in EDGE_N + tuple(rng.randrange(3, 200) for _ in range(2)):
        f = random_one_unit(rng, p, n)
        for m in ms:
            assert f.nth_root(m) == coefficientwise_nth_root(f, m), (p, n, m)


@pytest.mark.parametrize("p", PRIMES)
def test_reversion_matches_elimination(p):
    rng = random.Random(450 + p)
    for n in (_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF - 1, 2 * _LEAF, 2 * _LEAF + 1, 1000):
        f = random_invertible(rng, p, n)
        assert f.reversion() == eliminate_reversion(f), (p, n)


@pytest.mark.parametrize("p", (3, 5, 7, 257))
def test_eliminate_with_a_unit_other_than_one(p):
    """a_1 in {2, p - 1}: the pivot a_1^n changes with n.  _eliminate at
    every length to 20 and around _LEAF, and reversion through the Newton
    steps above it, against the oracle."""
    rng = random.Random(455 + p)
    for n in tuple(range(1, 21)) + (_LEAF - 1, _LEAF, _LEAF + 1, 3 * _LEAF):
        for a1 in {2, p - 1}:
            f = random_invertible(rng, p, n)
            f = Series(p, n, [0, a1] + list(f.coeffs[2:]))
            want = eliminate_reversion(f)
            assert Series(p, n, _eliminate(f.coeffs, p)) == want, (p, n, a1)
            assert f.reversion() == want, (p, n, a1)


@pytest.mark.parametrize("p", PRIMES)
def test_reversion_roundtrip_under_horner(p):
    rng = random.Random(460 + p)
    for n in (1, 2, _LEAF + 1, rng.randrange(_LEAF + 2, 301)):
        f = random_invertible(rng, p, n)
        g, t = f.reversion(), Series.gen(p, n)
        assert horner_compose(f, g) == t and horner_compose(g, f) == t, (p, n)


def test_klopsch_rep_matches_unspread_root():
    for p in (2, 3, 5):
        for m in (m for m in range(1, 13) if m % p):
            for a in range(1, p):
                for n in (m + 1, 200):
                    unit = Series.from_terms(p, n, {0: 1, m: -a}).reciprocal().nth_root(m)
                    expected = GroupElement(Series.gen(p, n) * unit)
                    assert klopsch_rep(p, m, a, n) == expected, (p, m, a, n)
