"""Fast kernel paths against the slow oracles in support.py.

Long products run Kronecker substitution (one bit per coefficient at p = 2,
byte slots otherwise) or, longer still at p = 2, a carry-less byte-table
kernel, p = 2 squares are spreads, composition runs the Frobenius split
one level at a time above the block-ladder leaves (at most _TWIG
coefficients, or fewer than p^2), each level's rows multiplied by g in one
packed product (at p = 2 and long, on rows kept bit-packed from the leaves
to the root), powers take their exponent one base-p digit at a time, the
higher digits as a coefficient spread, Artin-Schreier roots run as an
in-place doubling, powers above N reduce their exponent,
reciprocals and m-th roots run one Newton routine from half length, reversion
(above a triangular-solve leaf) runs Newton iteration, klopsch_rep works in
x = t^m, division by 1 + t over F_2 is a prefix XOR, and truncated orders
take their p-th powers at the precision depth bounds predict; each is
checked for bit-equality against an algorithm that does none of that.
"""

import math
import random

import numpy as np
import pytest

from nottingham import BadRoot, MismatchedContext, NonzeroConstant, WrongCharacteristic, group, series
from nottingham.group import GroupElement, klopsch_rep, order_mod_truncation
from nottingham.order4 import _r, sigma_closed
from nottingham.series import (
    _CLMUL, _KRONECKER, _LEAF, _SPREAD, _TWIG, Series, _clmul, _compose, _compose_all, _conv,
    _gather, _horner, _inv_root, _mul, _pack, _pow, _powers, _route, _substitute)

from support import (
    block_ladder,
    coefficientwise_nth_root,
    coefficientwise_reciprocal,
    convolve_product,
    eliminate_reversion,
    horner_compose,
    horner_rows,
    naive_order,
    naive_power,
    naive_product,
    power_nth_root,
    random_group_element,
    random_invertible,
    random_no_constant,
    random_one_unit,
    random_series,
    random_unit,
    sparse_element,
    spread_artin_schreier_root,
    summed_artin_schreier_root,
    unit_exponent,
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


def rows_times(rows, b, p, n1=None):
    """The first n1 coefficients (default: the row length) of each row times
    b: one _horner step, on the rows cut or padded with zeros to n1, with a
    zero addend."""
    n1 = rows.shape[1] if n1 is None else n1
    a = np.zeros((len(rows), n1), dtype=np.int64)
    a[:, :min(n1, rows.shape[1])] = rows[:, :n1]
    return _horner([a, 0 * a], b, p, n1).astype(np.int64)


def residues(rng, p, n):
    return np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)


@pytest.mark.parametrize("p", PRIMES)
def test_conv_matches_convolve_at_crossover(p):
    rng = random.Random(470 + p)
    for n in (CROSSOVER[p] - 1, CROSSOVER[p], CROSSOVER[p] + 1):
        # equal lengths, _inv_root's (a, u) shapes both ways, full product
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
    through _mul to this same _conv; two rows take _horner's packed product."""
    a = np.full(n, p - 1, dtype=np.int64)
    want = np.arange(1, n + 1) % p
    assert np.array_equal(_conv(a, a, p, n), want)
    assert np.array_equal(rows_times(np.stack([a, a]), a, p), np.stack([want, want]))


@pytest.mark.parametrize("n", [2 ** k - d for k in (7, 8, 11, 12) for d in (1, 0)])
def test_bit_slots_hold_all_ones_squares(n):
    """At p = 2 a slot has n.bit_length() bits, one more at each n = 2^k;
    the all-ones square fills coefficient n - 1 with n, the largest value a
    slot must hold.  Full product by _conv, truncated through two rows."""
    a = np.ones(n, dtype=np.int64)
    want = np.convolve(a, a) % 2
    assert np.array_equal(_conv(a, a, 2, 2 * n - 1), want)
    assert np.array_equal(rows_times(np.stack([a, a]), a, 2), np.stack([want[:n], want[:n]]))


def test_bit_slots_at_the_composition_leaf_shape():
    """r rows of n1 against g through _horner's row product, whole and truncated:
    (128, 17), packed to 4,224 slots, is the deepest level's row product of
    composition at N = 2048 (leaves of 9 coefficients); (32, 65) packs to
    4,128 slots."""
    rng = np.random.default_rng(500)
    for r, n1 in ((32, 65), (128, 17)):
        rows, g = rng.integers(0, 2, (r, n1)), rng.integers(0, 2, n1)
        full = np.array([np.convolve(row, g) % 2 for row in rows])
        assert full.shape == (r, 2 * n1 - 1)
        for k in (2 * n1 - 1, n1, 1):
            assert np.array_equal(rows_times(rows, g, 2, k), full[:, :k]), (r, n1, k)


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
    """_horner's row product against _mul on each row: distinct rows, a row
    with a valuation and a zero row, 1 to 27 rows, around the crossover."""
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
            assert np.array_equal(rows_times(rows, g, p), want), (p, n1, r)


@pytest.mark.parametrize("p", PRIMES)
def test_mul_rows_on_one_row(p):
    """A single row with a valuation, zero, or a constant c, through
    _horner against one convolution: np.convolve below the crossover, bit
    or byte slots above it; at p = 2 the longest row is past the byte-table
    kernel's crossover, where one row takes bit slots."""
    rng = random.Random(495 + p)
    for n1 in (1, 2, 17, CROSSOVER[p] - 1, CROSSOVER[p] + 1, _CLMUL + 60):
        g = residues(rng, p, n1 + 3)
        g[0] = 0
        shifted = residues(rng, p, n1)
        shifted[:n1 // 2] = 0
        constants = [np.eye(1, n1, dtype=np.int64)[0] * c for c in sorted({0, 1, p - 1})]
        for row in [shifted] + constants:
            want = convolve_product(Series(p, n1 - 1, row), Series(p, n1 - 1, g[:n1])).coeffs
            assert np.array_equal(rows_times(row[None], g, p), want[None]), (p, n1, row[:3])


@pytest.mark.parametrize("p", PRIMES)
def test_conv_rows_hold_the_whole_row_product(p):
    """_horner's rows sit n1 + len(b) - 1 slots apart, so each row's
    product fits before the next: b shorter and longer than the rows, n1 up
    to the full product, 1 to 5 rows, all entries p - 1 and random."""
    rng = random.Random(497 + p)
    for m in (1, 9, 40):
        for lb in (max(1, m - 5), m, m + 7):
            for r in (1, 2, 5):
                full = np.full((r, m), p - 1, dtype=np.int64)
                for a, b in ((full, np.full(lb, p - 1, dtype=np.int64)),
                             (np.array([residues(rng, p, m) for _ in range(r)]), residues(rng, p, lb))):
                    for n1 in {1, m, m + lb - 1}:
                        want = np.array([np.convolve(row, b)[:n1] % p for row in a])
                        assert np.array_equal(rows_times(a, b, p, n1), want), (p, m, lb, r, n1)


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
    kernel), in the shapes of _mul and of _inv_root's products; an
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
    """Row products of r*m = _CLMUL coefficients, where a composition's walk
    goes packed, and rows of m = 128: each side of both edges, 1, 2 and 27
    rows, one row with a valuation and one zero, and all ones."""
    rng = np.random.default_rng(540)
    m0, c = 128, _CLMUL
    shapes = [(r, m) for r in (1, 2, 27) for m in (m0 - 1, m0, m0 + 1)]
    shapes += [(r, c // r + d) for r in (2, 4) for d in (-1, 0, 1)]
    for r, m in shapes:
        rows = bits(rng, r, m)
        rows[0, :m // 3] = 0
        if r > 1:
            rows[-1] = 0
        g = bits(rng, m + 5)
        g[0] = 0
        assert np.array_equal(rows_times(rows, g, 2), convolve_rows(rows, g, m)), (r, m)
        ones = np.ones((r, m), dtype=np.int64)
        assert np.array_equal(rows_times(ones, g, 2), convolve_rows(ones, g, m)), (r, m)


def slot_edge(p):
    """The least n with n*(p-1)^2 >= 2^16: a row product of n coefficients
    takes 32-bit slots, of n - 1 coefficients 16-bit ones."""
    return -(-2 ** 16 // (p - 1) ** 2)


@pytest.mark.parametrize("p", (3, 5, 7, 257))
def test_horner_matches_row_horner_at_the_slot_edge(p):
    """_horner against horner_rows where n*(p-1)^2 crosses 2^16, for 1, 2,
    p and p^2 rows: all entries p - 1, rows, multiplier and addend, so the
    product's coefficient k is (k+1)*(p-1)^2, the most a slot must hold.
    The rows are equal, so one oracle row stands for all, and a product
    that spilled into the next row would change that row."""
    e = slot_edge(p)
    if e > 1:
        assert (_route(p, e - 1, True), _route(p, e, True)) == (16, 32)
    for n in (n for n in (e - 1, e, e + 1) if n >= 1):
        row = np.full(n, p - 1, dtype=np.int64)
        want = horner_rows([row[None], row[None]], row, p, n)[0]
        assert np.array_equal(want, (np.arange(1, n + 1) + p - 1) % p)
        for r in (1, 2, p, p * p):
            rows = np.broadcast_to(row, (r, n))
            got = _horner([rows, rows], row, p, n)
            assert np.array_equal(got, np.broadcast_to(want, (r, n))), (p, n, r)


@pytest.mark.parametrize("p", PRIMES)
def test_horner_matches_row_horner(p):
    """Random chains of 1, 2 and min(p, 8) + 1 terms, on 1, 2 and 5 rows of lengths
    around the crossover, added into every coefficient or into [::p] as a
    composition level does, against horner_rows; terms may be a generator
    and of any integer dtype, and the multiplier may be longer than n1."""
    rng = np.random.default_rng(470 + p)
    for n1 in (1, 2, 9, CROSSOVER[p] - 1, CROSSOVER[p] + 1):
        for r in (1, 2, 5):
            for at in (slice(None), np.s_[::p]):
                width = len(range(n1)[at])
                for count in (1, 2, min(p, 8) + 1):
                    terms = [rng.integers(0, p, (r, width)) for _ in range(count)]
                    b = rng.integers(0, p, n1 + 3)
                    want = horner_rows(terms, b, p, n1, at)
                    got = _horner((x.astype(np.uint16) for x in terms), b, p, n1, at)
                    assert np.array_equal(got, want), (p, n1, r, at, count)


def test_kernel_skips_units_two_coefficients_long(monkeypatch):
    """_inv_root passes a uncut, so _conv's last-1 rule alone keeps 1 + t's
    reciprocal, and klopsch_rep's unit 1 - a*x at p = 2, off the byte-table
    kernel at N = 2047; a dense unit's reciprocal takes it."""
    calls = []
    monkeypatch.setattr(series, "_clmul", lambda *args: calls.append(args) or _clmul(*args))
    Series(2, 2047, (1, 1)).reciprocal()
    assert len(calls) == 0
    klopsch_rep(2, 1, 1, 2047)
    assert len(calls) == 0
    random_unit(random.Random(550), 2, 2047).reciprocal()
    assert len(calls) >= 1


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
    m0 = 128
    for r, m in ((-(-_CLMUL // m0), m0), (-(-_CLMUL // m0) + 1, m0 - 1),
                 (2, _CLMUL // 2), (2, _CLMUL // 2 - 1)):
        calls.clear()
        rows = np.ones((r, m), dtype=np.int64)
        rows_times(rows, ones, 2)
        rows_times(rows, ones, 3)
        assert calls == [], (r, m)


# _route at each of its edges -1, 0 and +1, for _KRONECKER = 80 and _CLMUL =
# 640: (p, n) -> (path of a 1-D product, path of rows), 0 for np.convolve,
# -1 for the byte-table kernel, else Kronecker slot bits.  The edges are
# _KRONECKER, 640 = _KRONECKER * 2^3 for 32-bit slots at p = 257, _CLMUL,
# and the slot switches at n*(p-1)^2 = 2^16 (p = 3) and 2^32 (p = 257).
ROUTE_EDGES = {
    (2, 79): (0, 7), (2, 80): (7, 7), (2, 81): (7, 7),
    (3, 79): (0, 16), (3, 80): (16, 16), (3, 81): (16, 16),
    (257, 79): (0, 32), (257, 80): (0, 32), (257, 81): (0, 32),
    (2, 639): (10, 10), (2, 640): (-1, 10), (2, 641): (-1, 10),
    (3, 639): (16, 16), (3, 640): (16, 16), (3, 641): (16, 16),
    (257, 639): (0, 32), (257, 640): (32, 32), (257, 641): (32, 32),
    (3, 16383): (16, 16), (3, 16384): (32, 32), (3, 16385): (32, 32),
    (257, 65535): (32, 32), (257, 65536): (64, 64), (257, 65537): (64, 64),
}


def bit_slot_edges():
    """p = 2 around each n = 2^k, where a slot gains a bit; 1-D products
    take bit slots for 80 <= n < 640."""
    for k in range(1, 21):
        for n in (2 ** k - 1, 2 ** k, 2 ** k + 1):
            width = k + (n >= 2 ** k)
            yield (2, n), (0 if n < 80 else width if n < 640 else -1, width)


ROUTE_EDGES.update(bit_slot_edges())


def test_route_at_its_edges():
    assert (_KRONECKER, _CLMUL) == (80, 640), "ROUTE_EDGES is written for these crossovers"
    for (p, n), (flat, rows) in ROUTE_EDGES.items():
        assert (_route(p, n), _route(p, n, True)) == (flat, rows), (p, n)


def test_route_is_np_convolve_below_kronecker():
    """_conv returns np.convolve inline for a 1-D product shorter than
    _KRONECKER, without asking _route, which names it for every prime."""
    for p in (p for p in range(2, 258) if all(p % d for d in range(2, p))):
        assert [_route(p, n) for n in range(_KRONECKER)] == [0] * _KRONECKER, p


def test_conv_runs_the_path_route_names(monkeypatch):
    """At each edge of ROUTE_EDGES up to n = 16385, 1-D (n against n + 3,
    both ways round, by _conv) and as two rows against n (by _horner), no
    entry zero, the first kernel run is the one _route names: _clmul,
    np.convolve, or _pack with its slot bits.  An operand cut by high zeros
    below _CLMUL, to bit slots or below _KRONECKER, keeps the bit slots of
    the uncut length."""
    rng = np.random.default_rng(545)
    ran = []
    convolve = np.convolve
    monkeypatch.setattr(series, "_clmul", lambda *args: ran.append(-1) or _clmul(*args))
    monkeypatch.setattr(series, "_pack", lambda a, s, p: ran.append(s) or _pack(a, s, p))
    monkeypatch.setattr(np, "convolve", lambda a, b: ran.append(0) or convolve(a, b))
    edges = [(p, n, flat, rows) for (p, n), (flat, rows) in ROUTE_EDGES.items() if n <= 16385]
    cases = [(p, rng.integers(1, p, n + d), rng.integers(1, p, n + 3 - d), flat)
             for p, n, flat, _ in edges for d in (0, 3)]
    cases += [(p, rng.integers(1, p, (2, n)), rng.integers(1, p, n), rows) for p, n, _, rows in edges]
    for e in (_CLMUL - 2, 5):       # 1024 long, where a shorter length would lose a slot bit
        cases += [(2, np.eye(1, 1024, e, dtype=np.int64)[0], np.ones(1025, dtype=np.int64), 11)]
    for p, a, b, want in cases:
        ran.clear()
        _conv(a, b, p, len(a)) if a.ndim == 1 else rows_times(a, b, p)
        assert ran[0] == want, (p, a.shape, want, ran[:3])


@pytest.mark.parametrize("n", [1023, 1024, 1025])
def test_clmul_around_a_block_edge(n):
    """128 row bytes are one block at this length: 1,024 coefficients fill
    it, 1,025 start a second."""
    rng = np.random.default_rng(550 + n)
    a, b = bits(rng, n), bits(rng, n)
    for n1 in (n, 2 * n - 1, n - 9):
        assert np.array_equal(_conv(a, b, 2, n1), np.convolve(a, b)[:n1] % 2), n1
    assert np.array_equal(rows_times(np.stack([a, b]), b, 2), convolve_rows([a, b], b, n))


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
    assert np.array_equal(rows_times(np.stack([a, b])[:, :n // 2], ones, 2),
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


# (r, L) on each side of the packed walk's rule, r*L >= _CLMUL: r*L at
# _CLMUL - 1 and from _CLMUL, for r = 1, 2, 3; short rows, L = 127, 128 and
# 129 for r = 6, packed though no caller stacks more than 2 series; L + 1 =
# N + 1 at 0, 1 and 7 mod 8, and N = 2048, 4096.
WALK_EDGES = [(r, -(-_CLMUL // r) + d) for r in (1, 2, 3) for d in (-1, 0)]
WALK_EDGES += [(6, 128 + d) for d in (-1, 0, 1)]
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
    """run_checks at N = 2048 makes no p = 2 row product (_horner): both its
    walks go packed, gathering by g's table.  A p = 2 composition at N = 384
    (as in group_ops) keeps its int64 walk and gathers nothing, and a stack
    goes packed exactly where r*L >= _CLMUL."""
    from nottingham.order4 import run_checks, sigma_bundle
    bundle = sigma_bundle(2048)
    primes, gathers = [], []
    monkeypatch.setattr(series, "_horner", lambda terms, b, p, *args: primes.append(p) or _horner(terms, b, p, *args))
    monkeypatch.setattr(series, "_gather", lambda *args: gathers.append(1) or _gather(*args))
    run_checks(bundle)
    assert 2 not in primes and gathers
    rng = random.Random(449)
    primes.clear(), gathers.clear()
    random_series(rng, 2, 384).compose(random_no_constant(rng, 2, 384))
    assert 2 in primes and not gathers
    for r, L in WALK_EDGES:
        gathers.clear()
        _compose(np.ones((r, L), dtype=np.int64), random_no_constant(rng, 2, L - 1).coeffs, 2)
        assert bool(gathers) == (r * L >= _CLMUL), (r, L)


# (r, row bytes) of the packed walk's low levels at N = 2048, and r*L at
# _CLMUL - 1 and _CLMUL (as (r, coefficients), packed below).
GATHER_SHAPES = [(512, 2), (256, 3), (128, 5), (64, 9), (16, 33), (8, 65)]
CLMUL_ROWS = [(1, _CLMUL - 1), (1, _CLMUL), (2, _CLMUL // 2), (3, (_CLMUL - 1) // 3), (5, _CLMUL // 5)]


def test_gather_in_one_block_or_many(monkeypatch):
    """The same rows give the same bytes in one block (the default _BLOCK
    here) and in blocks of 8 row bytes (_BLOCK = 1), both against
    np.convolve.  The low levels gather by the table of a g of 2049
    coefficients, as the walks at N = 2048 do; rows of at most 8 bytes are
    one block either way."""
    rng = np.random.default_rng(570)
    cases = [(r, 8 * nb - d, 2049) for r, nb in GATHER_SHAPES for d in (7, 0)]
    cases += [(r, L, L) for r, L in CLMUL_ROWS]
    default = series._BLOCK
    for r, n1, lb in cases:
        rows, b = bits(rng, r, n1), bits(rng, lb)
        a = np.packbits(rows.astype(np.uint8), axis=1, bitorder="little")
        got = []
        for block in (default, 1):
            monkeypatch.setattr(series, "_BLOCK", block)
            got.append(_gather(a, series._table(b), n1))
        assert got[0].tobytes() == got[1].tobytes(), (r, n1)
        unpacked = np.unpackbits(got[0], axis=1, count=n1, bitorder="little")
        assert np.array_equal(unpacked, convolve_rows(rows, b, n1)), (r, n1)


def test_walks_at_2048_gather_low_levels_in_one_block(monkeypatch):
    """run_checks at N = 2048 (two walks of levels 17, 33, ..., 2049, and
    one kernel product): a level of at most 513 coefficients returns the
    XOR-reduced uint64 words of its one block as they are; the levels above
    run the block loop into a uint8 output buffer."""
    from nottingham.order4 import run_checks, sigma_bundle
    bundle = sigma_bundle(2048)
    seen = []

    def spy(a, table, n1):
        out = _gather(a, table, n1)
        seen.append((n1, out.base.dtype == np.uint64))
        return out
    monkeypatch.setattr(series, "_gather", spy)
    run_checks(bundle)
    levels = {2 ** k + 1 for k in range(4, 12)}
    assert sorted(n for n, _ in seen if n in levels) == sorted(2 * list(levels))
    assert all(one == (n <= 513) for n, one in seen), seen


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


def ladder_shape(p, m):
    """(r, n1) with no tree level (n1 <= _TWIG) for which _compose's block
    ladder of an r-row stack runs to g^m with more than one block, by its
    rule m = min(n1, isqrt(r*n1)); for m = 1, n1 = 2 and one row."""
    if m == 1:
        return 1, 2
    return next((r, n1) for n1 in range(m + 1, _TWIG + 1) for r in range(1, 64)
                if min(n1, math.isqrt(r * n1)) == m)


@pytest.mark.parametrize("p", PRIMES)
def test_powers_match_sequential_products(p):
    """_powers' rows g^0, ..., g^m mod t^n1 against powers by convolve_product:
    the spread rows at p | j, the zero rows at j >= n1, and an m of n1 - 1
    as the reversion leaf takes it; g runs past n1, and only its first n1
    coefficients may count."""
    rng = random.Random(630 + p)
    for n1 in (1, 2, 17, 33):
        g_long = random_no_constant(rng, p, n1 + 4)
        g = g_long.truncate(n1 - 1)
        ms = {0, 1, p - 1, p, p + 1, n1 - 1, n1, n1 + 1}
        want = [Series.one(p, n1 - 1)]
        for _ in range(max(ms)):
            want.append(convolve_product(want[-1], g))
        for m in ms:
            got = _powers(g_long.coeffs, m, p, n1)
            assert np.array_equal(got, [w.coeffs for w in want[:m + 1]]), (p, n1, m)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_ladder_spreads_match_the_sequential_ladder(monkeypatch, p):
    """For m in {p - 1, p, p + 1, 2p}, the ladder's g^m (the multiplier of
    the leaf Horner chain, a spread when p divides m) equals the sequential
    block_ladder's, and each composition equals block_ladder's and
    horner_compose's."""
    rng = random.Random(640 + p)
    multipliers = []
    monkeypatch.setattr(series, "_horner", lambda terms, b, *args: multipliers.append(b.copy())
                        or _horner(terms, b, *args))
    for m in (p - 1, p, p + 1, 2 * p):
        r, n1 = ladder_shape(p, m)
        g = random_no_constant(rng, p, n1 - 1)
        fs = [random_series(rng, p, n1 - 1) for _ in range(r)]
        multipliers.clear()
        got = _compose(np.stack([f.coeffs for f in fs]), g.coeffs, p)
        want = [block_ladder(f, g, m) for f in fs]
        assert np.array_equal(multipliers[0], want[0][1][m].coeffs), (p, m, r, n1)
        for row, f, (image, _) in zip(got, fs, want):
            assert np.array_equal(row, image.coeffs) and image == horner_compose(f, g), (p, m)


@pytest.mark.parametrize("n", (64, 2048))
def test_ladder_where_no_level_splits_matches_the_sequential_ladder(monkeypatch, n):
    """At p = 257, p^2 > N + 1: the one leaf is the whole series, its ladder
    runs to g^isqrt(N + 1) with no spread, and Horner in that power joins
    the blocks, against block_ladder."""
    p, m = 257, math.isqrt(n + 1)
    rng = random.Random(650 + n)
    f, g = random_series(rng, p, n), random_no_constant(rng, p, n)
    multipliers = []
    monkeypatch.setattr(series, "_horner", lambda terms, b, *args: multipliers.append(b.copy())
                        or _horner(terms, b, *args))
    image, pows = block_ladder(f, g, m)
    assert f.compose(g) == image
    assert len(multipliers) == 1 and np.array_equal(multipliers[0], pows[m].coeffs)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_group_powers_to_2p_plus_1_match_naive(p):
    """GroupElement ** k for k = 0, ..., 2p + 1, which composes coefficient
    arrays, against square-and-multiply over horner_compose: dense elements
    at N on each side of the first Frobenius level, and one of depth 2."""
    rng = random.Random(660 + p)
    for n in (p * p - 1, p * p + 3, 70):
        elements = [random_group_element(rng, p, n), random_group_element(rng, p, n, depth=2)]
        for f in elements:
            for k in range(2 * p + 2):
                want = naive_power(f.series, k, horner_compose, Series.gen(p, n))
                assert (f ** k).series == want, (p, n, k)


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


@pytest.mark.parametrize("p", (2, 3, 7, 257))
def test_pow_matches_naive_for_every_small_exponent(p):
    """f ** k for k in 0..40, a(0) in {0, 1, c}: the exponent reduction
    above N, the base-p digits and their ladders against the square-and-multiply
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
    u^m costs as much as a small power's."""
    rng = random.Random(610 + p)
    for n in (0, 1, 2, 17, 40):
        f = random_one_unit(rng, p, n)
        for m in (10 ** 3999 + j for j in range(1, 4)):
            if m % p:
                assert f.nth_root(m) == coefficientwise_nth_root(f, m), (p, n, m % 1000)


def digit_products(k, p):
    """_mul calls of f ** k for k <= N: for each nonzero base-p digit d of k,
    the ladder's bit_length(d) - 1 squares and popcount(d) - 1 products, and
    one product joining it to the spread of the higher digits, if any."""
    count = 0
    while k:
        k, d = divmod(k, p)
        if d:
            count += d.bit_length() + bin(d).count("1") - 2 + (k > 0)
    return count


@pytest.mark.parametrize("p, n", ((2, 40), (3, 40), (5, 40), (257, 600)))
def test_pow_costs_a_ladder_per_base_p_digit(monkeypatch, p, n):
    """f ** k for k <= N makes digit_products(k, p) _mul calls, none by 1:
    f ** 5 at p = 3, digits 2 and 1, is a^2 and its product with a(t^3)."""
    f = random_unit(random.Random(620 + p), p, n)
    calls = []
    monkeypatch.setattr(series, "_mul", lambda a, b, p: calls.append(1) or _mul(a, b, p))
    if p == 3:
        f ** 5
        assert len(calls) == 2
    for k in range(n + 1):
        calls.clear()
        f ** k
        assert len(calls) == digit_products(k, p), k


@pytest.mark.parametrize("p", (2, 3, 5, 257))
def test_pow_recurses_on_base_p_digits(monkeypatch, p):
    """f ** k calls _pow at (n1, k), (ceil(n1/p), k // p), ... until the
    exponent is one digit: each level takes k's lowest base-p digit and leaves
    the rest to a p-th of the length.  An exponent above N is reduced first,
    and then no level below needs reducing."""
    calls = []
    monkeypatch.setattr(series, "_pow", lambda a, k, p: calls.append((len(a), k)) or _pow(a, k, p))
    rng = random.Random(625 + p)
    for n in (0, 1, 2, 40, 300, 1300):
        e = unit_exponent(p, n)
        for c0 in (1, 0):
            f = with_constant(rng, p, n, c0)
            for k in sorted({1, p - 1, p, p + 1, p * p + 1, n, e - 1, e + p, 10 ** 40 + 7}):
                if not c0 and k > n:
                    continue
                calls.clear()
                f ** k
                n1, r = n + 1, k % e if k > n else k
                want = [(n1, k)]
                while r >= p:
                    n1, r = -(-n1 // p), r // p
                    want.append((n1, r))
                assert calls == want, (n, c0, k)


@pytest.mark.parametrize("p", PRIMES)
def test_pow_digits_match_naive(p):
    """f ** k against square-and-multiply over plain convolutions at k in
    {p - 1, p, p^2} and at q - 1, q, q + 1 for q = (p-1)*p^J, p^J >= N + 1:
    the longest digit, a lone spread digit and the reduction's edges.  At N
    in {300, 1300, 4097} the recursion runs 3 or more levels and its
    products cross _KRONECKER, _CLMUL at p = 2 and the 32-bit slots' 640
    at p = 257.  Bases have a(0) in {1, c, 0} or are sparse units; for
    a(0) = 0 only k <= N, as larger powers are zero."""
    rng = random.Random(640 + p)
    for n in (0, 1, 2, 300, 1300, 4097):
        q = unit_exponent(p, n)
        terms = {0: 1, **{e: rng.randrange(1, p) for e in rng.sample(range(1, n + 1), min(n, 3))}}
        bases = [with_constant(rng, p, n, c0) for c0 in sorted({1, p - 1, 0})]
        for f in bases + [Series.from_terms(p, n, terms)]:
            for k in (p - 1, p, p * p, q - 1, q, q + 1):
                if f[0] or k <= n:
                    assert f ** k == naive_power(f, k, convolve_product), (n, f[0], k)


@pytest.mark.parametrize("p", (2, 3))
def test_group_powers_compose_once_per_square_and_product(monkeypatch, p):
    """GroupElement ** k composes bit_length - 1 squares and popcount - 1
    products of r = k mod f's period, for k in 1..40, none with the
    identity, and none for r = 0 (k a multiple of 8 at p = 2, of 27 at
    p = 3).  f has depth 3 at p = 2 and 2 at p = 3, and the depth bounds
    7, 15, 31 and 8, 26, 80 reach N = 30 at f^8 and f^27."""
    f = random_group_element(random.Random(630 + p), p, 30)
    assert f.depth() == {2: 3, 3: 2}[p]
    period = {2: 8, 3: 27}[p]
    calls = []
    monkeypatch.setattr(group, "_compose", lambda *args: calls.append(1) or _compose(*args))
    for k in range(41):
        calls.clear()
        f ** k
        r = k % period
        assert len(calls) == (r.bit_length() + bin(r).count("1") - 2 if r else 0), k


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


@pytest.mark.parametrize("n", (63, 64, 65, 127, 128, 129, 2047, 2048, 2049, 16384))
def test_artin_schreier_doubling_matches_spread_sum(n):
    """The in-place doubling s[2k:4k:2] ^= s[k:2k] against the spread sum, on
    each side of powers of two, where the last doubling step is cut short:
    random f with f(0) = 0, a sparse f, and t^3 + t^4, the certificate's
    right-hand side.  The argument is left as it was."""
    rng = random.Random(435 + n)
    for f in (random_no_constant(rng, 2, n), sparse_inner(rng, 2, n),
              Series.from_terms(2, n, {3: 1, 4: 1})):
        before = f.coeffs.copy()
        s = f.artin_schreier_root()
        assert s == spread_artin_schreier_root(f), n
        assert np.array_equal(f.coeffs, before)


def test_artin_schreier_at_the_lowest_precisions():
    """Every f with f(0) = 0 at N = 0, 1, 2 against both oracles, and the two
    guards there, the characteristic checked first."""
    for n in (0, 1, 2):
        for bits in range(2 ** n):
            f = Series(2, n, [0] + [bits >> i & 1 for i in range(n)])
            s = f.artin_schreier_root()
            assert s == spread_artin_schreier_root(f) == summed_artin_schreier_root(f), (n, bits)
            assert s * s + s == f
        with pytest.raises(NonzeroConstant):
            Series.one(2, n).artin_schreier_root()
        for f in (Series.zero(3, n), Series.one(3, n)):
            with pytest.raises(WrongCharacteristic):
                f.artin_schreier_root()


@pytest.mark.parametrize("p", PRIMES)
def test_nth_root_matches_coefficientwise(p):
    rng = random.Random(440 + p)
    ms = sorted({m for m in (1, 2, p - 1, p + 1, 11, 10 ** 30 + 1) if m % p})
    for n in EDGE_N + tuple(rng.randrange(3, 200) for _ in range(2)):
        f = random_one_unit(rng, p, n)
        for m in ms:
            assert f.nth_root(m) == coefficientwise_nth_root(f, m), (p, n, m)


INV_ROOT_N1 = (1, 2, 3, *(2 ** k + d for k in (5, 6, 10) for d in (-1, 0, 1)), _CLMUL - 1, _CLMUL + 1)


def halvings(n1):
    """n1, ceil(n1/2), ..., 1: the lengths one _inv_root pass works down through."""
    out = [n1]
    while out[-1] > 1:
        out.append((out[-1] + 1) // 2)
    return out


@pytest.mark.parametrize("p", (2, 3, 257))
def test_inv_root_matches_coefficientwise(p):
    """reciprocal (units other than 1 where p > 2) and nth_root against the
    coefficient-at-a-time oracles at lengths on each side of 2^k and of
    _CLMUL, and at 4097 for p = 2.  Above 65 coefficients the
    coefficient-at-a-time root takes 1-5 s a case, so there the root oracle
    is power_nth_root, f^(1/m mod p^J) by plain convolutions."""
    rng = random.Random(1470 + p)
    ms = sorted({m for m in (2, p - 1, p + 1, 10 ** 30 + 1) if m % p and m > 1})
    for n1 in INV_ROOT_N1 + ((4097,) if p == 2 else ()):
        n = n1 - 1
        f = with_constant(rng, p, n, rng.randrange(2, p) if p > 2 else 1)
        assert f.reciprocal() == coefficientwise_reciprocal(f), (p, n1)
        f = random_one_unit(rng, p, n)
        for m in ms:
            oracle = coefficientwise_nth_root if n1 <= 65 else power_nth_root
            assert f.nth_root(m) == oracle(f, m), (p, n1, m % 1000)


def test_inv_root_works_down_from_full_length(monkeypatch):
    """One _inv_root pass recurses on lengths n1, ceil(n1/2), ..., 1, with
    the same m throughout: reciprocal is one pass with m = 1, and nth_root(m)
    is a pass with m, for f^(-1/m), then one with m = 1, its reciprocal."""
    calls = []
    monkeypatch.setattr(series, "_inv_root",
                        lambda a, m, p: calls.append((len(a), m)) or _inv_root(a, m, p))
    rng = random.Random(1480)
    for p, n1 in ((2, 1), (2, 2), (3, 3), (2, 33), (5, 64), (3, 1025), (2, _CLMUL + 1), (257, 100)):
        f = random_one_unit(rng, p, n1 - 1)
        calls.clear()
        f.reciprocal()
        assert calls == [(n, 1) for n in halvings(n1)], (p, n1)
        calls.clear()
        f.nth_root(p + 1)
        assert calls == [(n, p + 1) for n in halvings(n1)] + [(n, 1) for n in halvings(n1)], (p, n1)


@pytest.mark.parametrize("p, m", ((2, 3), (3, 2), (5, 11), (257, 10 ** 30 + 1)))
def test_nth_root_is_two_full_length_passes(monkeypatch, p, m):
    """nth_root makes exactly two _inv_root calls at full length, and no
    reciprocal call: no Newton loop runs inside another."""
    full, n1 = [], 700
    monkeypatch.setattr(series, "_inv_root",
                        lambda a, *rest: full.append(len(a) == n1) or _inv_root(a, *rest))
    monkeypatch.setattr(Series, "reciprocal", lambda self: pytest.fail("nth_root called reciprocal"))
    f = random_one_unit(random.Random(1490 + p), p, n1 - 1)
    u = f.nth_root(m)
    assert sum(full) == 2
    assert naive_power(u, m % unit_exponent(p, n1 - 1), convolve_product) == f


@pytest.mark.parametrize("p", PRIMES)
def test_reversion_matches_elimination(p):
    rng = random.Random(450 + p)
    for n in (_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF - 1, 2 * _LEAF, 2 * _LEAF + 1, 1000):
        f = random_invertible(rng, p, n)
        assert f.reversion() == eliminate_reversion(f), (p, n)


@pytest.mark.parametrize("p", PRIMES)
def test_reversion_leaf_at_every_length_and_pivot(p):
    """a_1 in {1, 2, p - 1}: the pivot a_1^n changes with n unless a_1 = 1.
    Reversion at every length to _LEAF + 1, the leaf's triangular solve and
    the first Newton step over it, and at 3*_LEAF, against the oracle."""
    rng = random.Random(455 + p)
    for n in tuple(range(1, _LEAF + 2)) + (3 * _LEAF,):
        for a1 in {1, 2, p - 1} - {p}:
            f = random_invertible(rng, p, n)
            f = Series(p, n, [0, a1] + list(f.coeffs[2:]))
            assert f.reversion() == eliminate_reversion(f), (p, n, a1)


@pytest.mark.parametrize("p", PRIMES)
def test_reversion_roundtrip_under_horner(p):
    rng = random.Random(460 + p)
    for n in (1, 2, _LEAF + 1, rng.randrange(_LEAF + 2, 301)):
        f = random_invertible(rng, p, n)
        g, t = f.reversion(), Series.gen(p, n)
        assert horner_compose(f, g) == t and horner_compose(g, f) == t, (p, n)


def test_klopsch_rep_matches_unspread_root():
    """klopsch_rep, computed in x = t^m, against the coefficient-at-a-time
    m-th root in t of 1/(1 - a*t^m), the geometric series sum_k a^k t^(mk)
    written out term by term, shifted one place for the factor t."""
    for p in (2, 3, 5):
        for m in (m for m in range(1, 13) if m % p):
            for a in range(1, p):
                for n in (m + 1, 200):
                    geometric = Series.from_terms(p, n, {m * k: pow(a, k, p) for k in range(n // m + 1)})
                    root = coefficientwise_nth_root(geometric, m)
                    expected = GroupElement(Series(p, n, [0, *root.coeffs[:n]]))
                    assert klopsch_rep(p, m, a, n) == expected, (p, m, a, n)


@pytest.mark.parametrize("p", PRIMES)
def test_order_matches_naive(p):
    rng = random.Random(1200 + p)
    for n in (1, 2) + tuple(rng.randrange(3, 401) for _ in range(4)):
        elements = [random_group_element(rng, p, n), sparse_element(rng, p, n)]
        elements += [random_group_element(rng, p, n, depth=d) for d in (1, rng.randrange(1, n + 1))]
        for f in elements:
            for cap in (1, p, p ** 3, p ** 6, rng.randrange(2, 2 * p ** 3)):
                assert order_mod_truncation(f, cap) == naive_order(f, cap), (n, cap)


def test_order_of_klopsch_reps_and_sigma_matches_naive():
    rng = random.Random(1210)
    for _ in range(12):
        p = rng.choice((2, 3, 5, 7))
        m = rng.choice([m for m in range(1, 12) if m % p])
        f = klopsch_rep(p, m, rng.randrange(1, p), rng.randrange(m + 1, 300))
        assert order_mod_truncation(f, p) == naive_order(f, p) == p
    for n in (2, 3, 4, 5, 8, 13, 64, 300):
        f = sigma_closed(n)
        for cap in (1, 2, 3, 4, 16):
            assert order_mod_truncation(f, cap) == naive_order(f, cap), (n, cap)
