import random

import pytest

from nottingham import (
    BadRoot,
    BadTruncation,
    MismatchedContext,
    NonzeroConstant,
    NotAUnit,
    NotCoprime,
    NotInvertible,
    WrongCharacteristic,
)
from nottingham.series import MAX_TRUNC, Series

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


def test_constructor_pads_and_reduces():
    f = Series(3, 4, [4, -1])
    assert [f[i] for i in range(5)] == [1, 2, 0, 0, 0]


def test_constructor_rejects_excess_coefficients():
    with pytest.raises(ValueError):
        Series(2, 2, [1, 1, 1, 1])


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


def test_constructor_reduces_oversized_ints():
    assert Series(2, 5, [10 ** 30]) == Series.zero(2, 5)
    assert Series(3, 2, [0, 10 ** 30, -(10 ** 40) - 1]) == Series(3, 2, [0, 1, 1])


def test_from_terms_rejects_out_of_range_exponent():
    with pytest.raises(ValueError):
        Series.from_terms(2, 4, {5: 1})


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
])
def test_from_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        Series.from_text(text)


def test_repr_smoke():
    assert "t^6" in repr(Series.from_terms(2, 8, {1: 1, 6: 1}))
    assert repr(Series.zero(2, 3)).endswith("0)")
    assert "2*t^3" in repr(Series.from_terms(5, 4, {3: 2}))
