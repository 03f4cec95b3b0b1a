import random
import re
import sys

import numpy as np
import pytest

from nottingham import (
    BadPrecision,
    BadRoot,
    BadTruncation,
    MismatchedContext,
    NonzeroConstant,
    NotAUnit,
    NotCoprime,
    NotInvertible,
    WrongCharacteristic,
    check_prime,
    identity,
    klopsch_rep,
    order_mod_truncation,
    sigma_closed,
)
from nottingham.series import _KRONECKER, MAX_TRUNC, Series, _conv, _red

from support import (
    horner_compose,
    naive_power,
    naive_product,
    random_invertible,
    random_no_constant,
    random_series,
    random_unit,
)


# ----------------------------------------------------------------------
# construction and basic queries

def test_from_terms_and_getitem():
    f = Series.from_terms(5, 6, {0: 7, 3: 2})
    assert [f[i] for i in range(7)] == [2, 0, 0, 2, 0, 0, 0]
    assert f.support() == [0, 3]


@pytest.mark.parametrize("e", [True, False, 1.0, 2.5, "1", None],
                         ids=["true", "false", "float", "fraction", "str", "none"])
def test_getitem_rejects_a_non_int_exponent(e):
    # the IndexError of an out-of-range exponent, with the value echoed,
    # never numpy's own error text
    with pytest.raises(IndexError) as info:
        Series.gen(2, 4)[e]
    assert str(info.value) == f"exponent {e!r} outside [0, 4]"


def test_constructor_pads_and_reduces():
    f = Series(3, 4, [4, -1])
    assert [f[i] for i in range(5)] == [1, 2, 0, 0, 0]


def test_constructor_rejects_excess_coefficients():
    with pytest.raises(ValueError, match=r"^expected a 1-D sequence of at most 3 coefficients"):
        Series(2, 2, [1, 1, 1, 1])


@pytest.mark.parametrize("coeffs, got", [
    ("ab", "str of shape ()"), (None, "NoneType of shape ()"), (5, "int of shape ()"),
    ([[1, 2]], "list of shape (1, 2)"),
], ids=["str", "none", "int", "nested"])
def test_constructor_needs_a_flat_sequence(coeffs, got):
    # a scalar or a nested input is no sequence of coefficients, never a count of them
    with pytest.raises(ValueError) as info:
        Series(2, 2, coeffs)
    assert str(info.value) == f"expected a 1-D sequence of at most 3 coefficients, got {got}"


def test_constructor_rejects_bad_trunc():
    with pytest.raises(ValueError):
        Series(2, -1, [])


def test_precision_cap():
    assert Series.zero(2, MAX_TRUNC).trunc == MAX_TRUNC
    for build in (
        lambda: Series(2, MAX_TRUNC + 1, ()),
        lambda: Series.zero(2, 10 ** 15),
        lambda: Series.from_terms(2, 10 ** 15, {1: 1}),
        lambda: Series.from_text(f"p=2 N={10 ** 15}\n1:1\n"),
        lambda: Series.from_text(f"p=2 N={MAX_TRUNC + 1}\n0\n"),
    ):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("build", [
    lambda: Series(2, -1, ()),
    lambda: Series.gen(2, "x"),
    lambda: identity(2, None),
    lambda: klopsch_rep(2, 1, 1, 10 ** 15),
    lambda: sigma_closed(MAX_TRUNC + 1),
], ids=["series", "gen", "identity", "klopsch", "sigma"])
def test_one_truncation_guard_raises_bad_precision(build):
    # every truncation-order check is _check_trunc: a BadPrecision that is
    # also a ValueError, whatever the entry point
    with pytest.raises(BadPrecision) as info:
        build()
    assert isinstance(info.value, ValueError)


HUGE, LONG = 10 ** 3000, "x" * 3000


@pytest.mark.parametrize("build, exc", [
    (lambda: sigma_closed(HUGE), BadPrecision),
    (lambda: sigma_closed(10 ** 5000), BadPrecision),   # past the int-to-str digit limit
    (lambda: Series.zero(2, 4).truncate(HUGE), BadTruncation),
    (lambda: Series.zero(2, 4).truncate(LONG), ValueError),
    (lambda: Series.zero(2, 4)[HUGE], IndexError),
    (lambda: Series.from_terms(2, 4, {HUGE: 1}), ValueError),
    (lambda: Series.from_terms(2, 4, {LONG: 1}), ValueError),
    (lambda: Series.one(3, 4).nth_root(3 * HUGE), NotCoprime),
    (lambda: Series.one(3, 4).nth_root(LONG), ValueError),
    (lambda: klopsch_rep(3, 3 * HUGE, 1, 10), NotCoprime),
    (lambda: klopsch_rep(3, HUGE, 1, 10), BadPrecision),    # least = m + 1
    (lambda: klopsch_rep(3, 1, LONG, 10), ValueError),
    (lambda: order_mod_truncation(identity(2, 4), -HUGE), ValueError),
    (lambda: check_prime(HUGE), ValueError),
], ids=["sigma", "sigma-past-digit-limit", "truncate", "truncate-str", "getitem",
        "terms-exponent", "terms-str", "root-index", "root-index-str", "klopsch-m",
        "klopsch-least", "klopsch-a", "order-cap", "prime"])
def test_error_text_quotes_a_huge_value_briefly(build, exc):
    # a caller's value is echoed by one 40-character rule, never whole
    with pytest.raises(exc) as info:
        build()
    assert len(str(info.value)) < 150


def test_constructor_reduces_oversized_ints():
    assert Series(2, 5, [10 ** 30]) == Series.zero(2, 5)
    assert Series(3, 2, [0, 10 ** 30, -(10 ** 40) - 1]) == Series(3, 2, [0, 1, 1])
    assert Series(3, 0, [2 ** 63]) == Series(3, 0, [2])     # numpy reads it as uint64


def test_from_terms_rejects_out_of_range_exponent():
    with pytest.raises(ValueError):
        Series.from_terms(2, 4, {5: 1})


@pytest.mark.parametrize("terms, e", [
    ([(1, 1), (1, 2)], 1),
    ([(0, 1), (3, 1), (2, 2), (3, 0)], 3),
    (iter([(2, 1), (True, 1), (1, 1)]), 1),    # True is the exponent 1
], ids=["pair", "not-adjacent", "bool-alias"])
def test_from_terms_rejects_a_repeated_exponent(terms, e):
    # a second coefficient for one exponent is an error, not a silent overwrite
    with pytest.raises(ValueError, match=f"exponent {e} given twice"):
        Series.from_terms(3, 4, terms)


def test_from_terms_takes_distinct_pairs_in_any_order():
    want = Series(3, 4, [0, 1, 2, 0, 1])
    assert Series.from_terms(3, 4, [(4, 1), (1, 1), (2, 2)]) == want
    assert Series.from_terms(3, 4, {4: 1, 1: 1, 2: -1}) == want
    assert Series.from_terms(3, 4, [(0, 0), (1, 1), (2, 2), (4, 4)]) == want


@pytest.mark.parametrize("p, terms", [
    (0, {1: 1}),        # not a prime: checked before any c % p
    (2, {1.5: 1}),      # non-int exponent
    (2, {1: 1.5}),      # non-integer coefficient, not truncated to 1
    (2, [1, 2]),        # items that are not pairs
    (2, [(1, 2, 3)]),
    (2, [(1,)]),
    (2, ["ab"]),        # a pair of characters, not of ints
], ids=["prime", "float-exponent", "float-coefficient", "ints", "triple", "single", "str"])
def test_from_terms_rejects_bad_input(p, terms):
    with pytest.raises(ValueError) as info:
        Series.from_terms(p, 5, terms)
    if p:       # every bad item is one message, the item echoed, never Python's unpacking error
        item = next(iter(terms.items() if isinstance(terms, dict) else terms))
        assert str(info.value) == f"terms must be int pairs, got {item!r}"


@pytest.mark.parametrize("coeffs", [[1.5], [1, 2.0], ["1"], [None]],
                         ids=["float", "mixed-float", "str", "none"])
def test_constructor_rejects_non_integer_coefficients(coeffs):
    with pytest.raises(ValueError):
        Series(2, 5, coeffs)


def test_valuation_and_zero():
    assert Series.zero(2, 9).valuation() == 10  # beyond precision
    assert Series.from_terms(2, 9, {3: 1}).valuation() == 3
    assert Series.zero(2, 9).is_zero()
    assert not Series.gen(2, 9).is_zero()


def test_coefficients_are_immutable():
    f = Series.gen(2, 4)
    with pytest.raises(ValueError):
        f.coeffs[0] = 1


def test_equality_includes_context():
    assert Series.gen(2, 4) != Series.gen(2, 5)
    assert Series.gen(2, 4) != Series.gen(3, 4)
    assert Series.gen(2, 4) == Series.from_terms(2, 4, {1: 1})
    assert hash(Series.gen(2, 4)) == hash(Series.from_terms(2, 4, {1: 1}))


# ----------------------------------------------------------------------
# ring operations

def test_char2_squares():
    one_plus_t = 1 + Series.gen(2, 6)
    assert (one_plus_t * one_plus_t).support() == [0, 2]
    f = Series.from_terms(2, 16, {3: 1, 4: 1})
    assert (f * f).support() == [6, 8]


def test_mul_by_one_is_identity():
    rng = random.Random(101)
    for p in (2, 3, 5):
        f = random_series(rng, p, 12)
        assert f * Series.one(p, 12) == f


def test_mul_matches_naive_oracle():
    rng = random.Random(102)
    for p in (2, 3, 5, 257):
        for _ in range(25):
            n = rng.randrange(0, 24)
            f, g = random_series(rng, p, n), random_series(rng, p, n)
            assert f * g == naive_product(f, g)


def test_mul_context_mismatch():
    with pytest.raises(MismatchedContext):
        Series.gen(2, 4) * Series.gen(2, 5)
    with pytest.raises(MismatchedContext):
        Series.gen(2, 4) + Series.gen(3, 4)
    with pytest.raises(MismatchedContext):
        Series.gen(2, 4) - Series.gen(2, 6)


def test_scalar_and_int_operations():
    t = Series.gen(5, 4)
    assert (3 * t).support() == [1]
    assert (3 * t)[1] == 3
    assert (1 + t)[0] == 1
    assert (t - 1)[0] == 4
    assert (1 - t)[1] == 4
    assert (-t)[1] == 4
    assert (t * 0).is_zero()


I64 = np.iinfo(np.int64)


@pytest.mark.parametrize("coeffs", [
    [-1, -2, -3, 5, 0, -(2 ** 40) - 1],
    [I64.min, I64.max, I64.min + 1, I64.max - 1],
    np.array([I64.min, -1, I64.max], dtype=np.int64),
    np.array([True, False, True]),
    np.array([-128, -127, -1, 0, 1, 127], dtype=np.int8),
    np.array([0, 1, 128, 254, 255], dtype=np.uint8),
    [2 ** 64 + 1, -(2 ** 70) - 1, 2 ** 63, -(2 ** 63) - 1, 2 ** 63 + 2],
], ids=["negative", "int64-extremes", "int64-array", "bool", "int8", "uint8", "wider-than-int64"])
def test_mask_at_p2_is_the_remainder_in_the_constructor(coeffs):
    """At p = 2 every array reduction is the mask x & 1: bit-identical to
    Python's c % 2 for negative ints, the int64 extremes, bool, int8 and
    uint8 arrays, and ints past int64."""
    want = [int(c) % 2 for c in coeffs]
    got = Series(2, len(want) + 1, coeffs).coeffs
    assert got.dtype == np.int64
    assert got.tolist() == want + [0, 0]


def test_mask_is_the_remainder_on_int64():
    x = np.array([I64.min, I64.min + 1, -3, -2, -1, 0, 1, 2, 3, I64.max - 1, I64.max])
    assert np.array_equal(_red(x, 2), x % 2)
    assert np.array_equal(_red(x[None], 2), x[None] % 2)
    assert np.array_equal(_red(x, 3), x % 3)
    for p in (2, 3):        # out=: in place, and into a strided view
        y = x.copy()
        assert _red(y, p, out=y) is y and np.array_equal(y, x % p)
        z = np.full((len(x), 2), 7, dtype=np.int64)
        _red(x, p, out=z[:, 0])
        assert np.array_equal(z[:, 0], x % p) and (z[:, 1] == 7).all()


def test_mask_at_p2_is_the_remainder_in_ring_operations():
    """+, -, unary -, an int added or subtracted (negative, and past int64)
    and * int at p = 2, against the same operations on Python ints mod 2;
    each Series operand is all ones somewhere, so an unreduced sum shows."""
    rng = random.Random(109)
    n = 40
    a = Series(2, n, [1] * 10 + [rng.randrange(2) for _ in range(n - 9)])
    b = Series(2, n, [1] * 10 + [rng.randrange(2) for _ in range(n - 9)])
    x, y = a.coeffs.tolist(), b.coeffs.tolist()
    assert (a + b).coeffs.tolist() == [(i + j) % 2 for i, j in zip(x, y)]
    assert (a - b).coeffs.tolist() == [(i - j) % 2 for i, j in zip(x, y)]
    assert (b - a).coeffs.tolist() == [(j - i) % 2 for i, j in zip(x, y)]
    assert (-a).coeffs.tolist() == [-i % 2 for i in x]
    zero = Series.zero(2, n)
    assert (zero - a).coeffs.tolist() == [-i % 2 for i in x]
    for k in (-1, -3, -(2 ** 63), -(2 ** 70) - 1, 2 ** 64 + 1, 5):
        assert (a + k).coeffs.tolist() == [(x[0] + k) % 2] + x[1:], k
        assert (a - k).coeffs.tolist() == [(x[0] - k) % 2] + x[1:], k
        assert (k - a).coeffs.tolist() == [(k - x[0]) % 2] + [-i % 2 for i in x[1:]], k
        assert (a * k).coeffs.tolist() == [i * k % 2 for i in x], k
        assert (k * a).coeffs.tolist() == [i * k % 2 for i in x], k
    for c in (a + b, a - b, -a, a * 3, a + (-1)):
        assert c.coeffs.dtype == np.int64


@pytest.mark.parametrize("p", [2, 3])
def test_mask_in_the_convolve_branch(p):
    """_conv's np.convolve branch (operands shorter than _KRONECKER) reduces
    its sums by the mask at p = 2, exactly as Python's % p: all-(p - 1)
    operands make sums of up to min(la, lb)*(p - 1)^2."""
    rng = random.Random(110 + p)
    for la, lb in ((1, 1), (7, 7), (_KRONECKER - 1, _KRONECKER - 1), (3, 200), (200, 3)):
        for a, b in ((np.full(la, p - 1), np.full(lb, p - 1)),
                     (np.array([rng.randrange(p) for _ in range(la)]),
                      np.array([rng.randrange(p) for _ in range(lb)]))):
            n1 = la + lb - 1
            full = np.convolve(a, b)
            got = _conv(a, b, p, n1)
            assert got.dtype == np.int64
            assert got.tolist() == [int(c) % p for c in full], (p, la, lb)
            assert _conv(a, b, p, 1).tolist() == [int(full[0]) % p]


@pytest.mark.parametrize("p", [2, 3, 257])
@pytest.mark.parametrize("k", [10 ** 30, 2 ** 63, -(2 ** 63) - 1, -(10 ** 30)])
def test_int_operands_beyond_int64_are_reduced_first(p, k):
    s = Series(p, 8, [0, 1, 1])
    r = k % p
    assert s + k == s + r and k + s == r + s
    assert s - k == s - r and k - s == r - s


def test_pow():
    t = Series.gen(3, 8)
    assert (1 + t) ** 0 == Series.one(3, 8)
    assert (1 + t) ** 4 == naive_power(1 + t, 4)
    with pytest.raises(ValueError):
        t ** -2


# ----------------------------------------------------------------------
# reciprocal

def test_reciprocal_geometric_char2():
    f = 1 + Series.gen(2, 10)
    assert f.reciprocal().support() == list(range(11))
    assert f * f.reciprocal() == Series.one(2, 10)


def test_reciprocal_of_one():
    assert Series.one(2, 8).reciprocal() == Series.one(2, 8)


def test_reciprocal_geometric_char3():
    f = 1 + Series.gen(3, 9)
    r = f.reciprocal()
    assert [r[i] for i in range(10)] == [1, 2, 1, 2, 1, 2, 1, 2, 1, 2]
    assert f * r == Series.one(3, 9)


def test_reciprocal_random_roundtrip():
    rng = random.Random(103)
    for p in (2, 3, 257):
        for _ in range(20):
            n = rng.randrange(0, 30)
            f = random_unit(rng, p, n)
            assert f * f.reciprocal() == Series.one(p, n)


def test_reciprocal_requires_unit():
    with pytest.raises(NotAUnit):
        Series.gen(2, 4).reciprocal()
    with pytest.raises(NotAUnit):
        Series.zero(2, 4).reciprocal()


# ----------------------------------------------------------------------
# composition

def test_compose_identity_both_sides():
    rng = random.Random(104)
    for p in (2, 5):
        t = Series.gen(p, 15)
        f = random_series(rng, p, 15)
        g = random_no_constant(rng, p, 15)
        assert f.compose(t) == f
        assert t.compose(g) == g


def test_compose_hand_example():
    f = Series.from_terms(2, 6, {1: 1, 2: 1})
    g = Series.from_terms(2, 6, {1: 1, 3: 1})
    assert f.compose(g).support() == [1, 2, 3, 6]


def test_compose_requires_zero_constant():
    f = Series.gen(2, 6)
    with pytest.raises(NonzeroConstant):
        f.compose(1 + f)


def test_compose_context_mismatch():
    with pytest.raises(MismatchedContext):
        Series.gen(2, 6).compose(Series.gen(2, 7))


def test_compose_rejects_a_non_series_argument():
    # the TypeError that GroupElement(...) raises for a non-series
    f = Series(3, 4, [0, 1])
    with pytest.raises(TypeError, match="^expected a Series, got GroupElement$"):
        f.compose(identity(3, 4))
    with pytest.raises(TypeError, match="^expected a Series, got int$"):
        f(3)


def test_compose_block_matches_horner():
    rng = random.Random(105)
    for p in (2, 3, 5):
        for _ in range(30):
            n = rng.randrange(0, 40)
            f = random_series(rng, p, n)
            g = random_no_constant(rng, p, n)
            assert f.compose(g) == horner_compose(f, g)


def test_call_is_compose():
    f = Series.from_terms(2, 6, {1: 1, 2: 1})
    g = Series.from_terms(2, 6, {1: 1, 3: 1})
    assert f(g) == f.compose(g)


# ----------------------------------------------------------------------
# reversion (compositional inverse)

def test_reversion_of_t():
    t = Series.gen(5, 9)
    assert t.reversion() == t


def test_reversion_moebius_involution_char2():
    # t/(1+t) is its own compositional inverse in characteristic 2
    t = Series.gen(2, 20)
    f = t * (1 + t).reciprocal()
    assert f.reversion() == f
    assert f.compose(f) == t


def test_reversion_fixed_point_oracle():
    # independent oracle for the inverse of t + t^2: iterate g <- t + g^2
    t = Series.gen(2, 16)
    g = t
    for _ in range(6):
        g = t + g * g
    f = Series.from_terms(2, 16, {1: 1, 2: 1})
    assert f.compose(g) == t
    assert f.reversion() == g
    assert g.support() == [1, 2, 4, 8, 16]


def test_reversion_roundtrip_random():
    rng = random.Random(106)
    for p in (2, 3, 5):
        for _ in range(20):
            n = rng.randrange(1, 30)
            f = random_invertible(rng, p, n)
            g = f.reversion()
            t = Series.gen(p, n)
            assert f.compose(g) == t
            assert g.compose(f) == t


def test_reversion_rejects_bad_input():
    with pytest.raises(NotInvertible):
        (1 + Series.gen(2, 5)).reversion()
    with pytest.raises(NotInvertible):
        Series.from_terms(2, 5, {2: 1}).reversion()
    with pytest.raises(NotInvertible):
        Series.zero(2, 0).reversion()


# ----------------------------------------------------------------------
# Artin-Schreier roots (characteristic 2)

def test_artin_schreier_known_root():
    f = Series.from_terms(2, 16, {3: 1, 4: 1})
    s = f.artin_schreier_root()
    assert s.support() == [3, 4, 6, 8, 12, 16]
    assert s * s + s == f


def test_artin_schreier_fixed_point_oracle():
    # independent oracle: iterate s <- f + s^2 to a fixed point
    f = Series.gen(2, 32)
    s = Series.zero(2, 32)
    for _ in range(7):
        s = f + s * s
    assert s.support() == [1, 2, 4, 8, 16, 32]
    assert f.artin_schreier_root() == s


def test_artin_schreier_of_zero():
    z = Series.zero(2, 10)
    assert z.artin_schreier_root() == z


def test_artin_schreier_roundtrip_random():
    rng = random.Random(107)
    for _ in range(40):
        n = rng.randrange(0, 50)
        f = random_no_constant(rng, 2, n)
        s = f.artin_schreier_root()
        assert s[0] == 0
        assert s * s + s == f


def test_artin_schreier_guards():
    with pytest.raises(WrongCharacteristic):
        Series.gen(3, 5).artin_schreier_root()
    with pytest.raises(NonzeroConstant):
        (1 + Series.gen(2, 5)).artin_schreier_root()


# ----------------------------------------------------------------------
# m-th roots of unit series

def brute_force_root(f, m):
    """Independent oracle: pick each coefficient by scanning all residues."""
    p, n = f.p, f.trunc
    u = Series.one(p, n)
    for e in range(1, n + 1):
        for c in range(p):
            cand = u + Series.from_terms(p, n, {e: c})
            if naive_power(cand, m).truncate(e) == f.truncate(e):
                u = cand
                break
        else:
            raise AssertionError(f"no coefficient works at exponent {e}")
    assert naive_power(u, m) == f
    return u


def test_nth_root_index_one():
    f = random_unit(random.Random(108), 3, 9)
    f = f + 1 - f[0]  # force constant term 1
    assert f.nth_root(1) == f


def test_nth_root_cube_root_char2():
    f = (1 + Series.from_terms(2, 12, {3: 1})).reciprocal()
    u = f.nth_root(3)
    assert u == brute_force_root(f, 3)
    assert u ** 3 == f


def test_nth_root_sqrt_char3():
    f = (1 - Series.from_terms(3, 8, {2: 1})).reciprocal()
    u = f.nth_root(2)
    assert u[2] == 2  # 2*2 = 4 = 1 mod 3
    assert u == brute_force_root(f, 2)
    assert u ** 2 == f


def test_nth_root_matches_oracle_random():
    rng = random.Random(109)
    for p, ms in ((2, (1, 3, 5)), (3, (2, 4)), (5, (2, 3))):
        for m in ms:
            for _ in range(5):
                n = rng.randrange(1, 10)
                coeffs = [1] + [rng.randrange(p) for _ in range(n)]
                f = Series(p, n, coeffs)
                assert f.nth_root(m) == brute_force_root(f, m)


def test_nth_root_guards():
    with pytest.raises(BadRoot):
        Series.from_terms(3, 5, {0: 2}).nth_root(2)
    with pytest.raises(NotCoprime):
        Series.one(2, 5).nth_root(4)
    with pytest.raises(NotCoprime):
        Series.one(5, 5).nth_root(10)
    with pytest.raises(ValueError):
        Series.one(2, 5).nth_root(0)


# ----------------------------------------------------------------------
# truncation

def test_truncate_identity_and_drop():
    f = Series.from_terms(2, 3, {0: 1, 1: 1, 2: 1, 3: 1})
    assert f.truncate(3) == f
    assert f.truncate(1) == Series.from_terms(2, 1, {0: 1, 1: 1})
    assert f.truncate(0).trunc == 0


def test_truncate_never_raises_precision():
    f = Series.gen(2, 4)
    with pytest.raises(BadTruncation):
        f.truncate(5)
    with pytest.raises(BadTruncation):
        f.truncate(-1)


# ----------------------------------------------------------------------
# sparse text encoding

def test_to_text_format():
    f = Series.from_terms(2, 14, {1: 1, 2: 1, 6: 1, 12: 1, 14: 1})
    assert f.to_text() == "p=2 N=14\n1:1 2:1 6:1 12:1 14:1\n"
    assert Series.zero(3, 4).to_text() == "p=3 N=4\n0\n"


def test_text_roundtrip_random():
    rng = random.Random(110)
    for p in (2, 3, 257):
        for _ in range(20):
            n = rng.randrange(0, 40)
            f = random_series(rng, p, n)
            assert Series.from_text(f.to_text()) == f
            assert Series.from_text(f.to_text()).to_text() == f.to_text()


@pytest.mark.parametrize("text", [
    "",
    "p=2 N=5\n",
    "p=2 N=5\n1:1\n2:1\n",
    "q=2 N=5\n1:1\n",
    "p=2 M=5\n1:1\n",
    "p=2 N=x\n1:1\n",
    "p=4 N=5\n1:1\n",
    "p=2 N=5\n6:1\n",
    "p=2 N=5\n2:1 1:1\n",
    "p=2 N=5\n1:1 1:1\n",
    "p=2 N=5\nbogus\n",
    "p=2 N=5\n1:\n",
    "p=2 N=-1\n0\n",
    # numbers are ASCII digits, with one leading - on a coefficient only
    "p=+2 N=5\n1:1\n",
    "p=2 N=+5\n1:1\n",
    "p=2 N=1_0\n1:1\n",
    "p=2 N=\u0663\n1:1\n",           # ARABIC-INDIC DIGIT THREE
    "p=2 N=5\n+1:1\n",
    "p=2 N=5\n1:+1\n",
    "p=2 N=5\n1:1_0\n",
    "p=2 N=5\n1:\uff11\n",           # FULLWIDTH DIGIT ONE
    # characteristics _number reads but check_prime rejects
    "p=0 N=5\n1:1\n",
    "p=1 N=5\n1:1\n",
    "p=4 N=5\n1:x\n",
])
def test_from_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        Series.from_text(text)


def test_from_text_checks_the_header_before_the_terms():
    """A composite p and a bad term: the error names the prime."""
    with pytest.raises(ValueError, match="characteristic 4 is not prime"):
        Series.from_text("p=4 N=5\n1:x\n")


@pytest.mark.parametrize("text", [None, 123, ["p=2 N=3", "1:1"], b"p=2 N=3\n1:1\n"])
def test_from_text_of_a_non_str_is_a_type_error(text):
    with pytest.raises(TypeError, match="expected a str"):
        Series.from_text(text)


def test_from_text_keeps_negative_coefficients():
    assert Series.from_text("p=3 N=2\n1:1 2:-1\n") == Series.from_terms(3, 2, {1: 1, 2: 2})
    # past int64 each way: reduced mod p as parsed, not an OverflowError
    big = 2 ** 64 + 1
    assert Series.from_text(f"p=3 N=5\n1:{big} 2:-{big}\n") == Series.from_terms(3, 5, {1: big, 2: -big})


@pytest.mark.parametrize("text", [
    f"p=2 N=5\n{'9' * 5000}:1\n",
    f"p=2 N=5\n1:{'7' * 5000}\n",
    f"p=2 N=5\n1:{'x' * 5000}\n",
    f"p=2 N={'9' * 4000}\n0\n",
    f"p=2 N=5\n1:{'1' * 4301}\n",
    f"p=2 N=5\n1:-{'1' * 4301}\n",
    f"p=2 N=5\n{'1' * 4301}:1\n",
], ids=["exponent", "coefficient", "non-digits", "truncation-order", "coefficient-past-int-limit",
        "negative-coefficient-past-int-limit", "exponent-past-int-limit"])
def test_from_text_error_echoes_a_short_token(text):
    with pytest.raises(ValueError) as info:
        Series.from_text(text)
    message = str(info.value)
    assert len(message) < 150
    # ASCII digits past int()'s limit on digits name that limit
    limit = sys.get_int_max_str_digits()
    past = re.search(f"[0-9]{{{limit + 1}}}", text) is not None
    assert (f"over {limit} digits" in message, "need ASCII digits" in message) == (past, not past)


def test_repr_smoke():
    assert "t^6" in repr(Series.from_terms(2, 8, {1: 1, 6: 1}))
    assert repr(Series.zero(2, 3)).endswith("0)")
    assert "2*t^3" in repr(Series.from_terms(5, 4, {3: 2}))
    # ... stands for left-out terms: none at 10 terms, the 11th on
    ten = repr(Series.from_terms(2, 20, {e: 1 for e in range(1, 11)}))
    assert ten == "Series(p=2, N=20; " + " + ".join(["t"] + [f"t^{e}" for e in range(2, 11)]) + ")"
    eleven = repr(Series.from_terms(2, 20, {e: 1 for e in range(1, 12)}))
    assert eleven == ten[:-1] + " + ...)"
