"""Property-based checks of the fast paths and the group law.

Derandomized, so every run draws the same examples.  Each property holds
for every prime and precision: m-th roots, reversion, group inverses and
the order-p representatives, at p in {2, 3, 5, 7, 257} and N up to 300;
composition against the Horner ladder and associativity of the group law
at p in {2, 3, 5, 7}, where every N + 1 above 16 and at least p^2 splits
into several leaves that share one block ladder.  The exponent laws check
powers against the ring itself, with exponents up to p^3 and at the unit
exponent (p-1)*p^J, p^J >= N + 1, where powers above N reduce.  Any
value at all, handed to a public entry point, either works or raises
TypeError, ValueError or a NottinghamError (IndexError for Series[e]).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import nottingham
from nottingham import NottinghamError
from nottingham.group import GroupElement, klopsch_rep, order_mod_truncation
from nottingham.series import Series

from support import horner_compose, unit_exponent

PRIMES = (2, 3, 5, 7, 257)
SMALL_PRIMES = (2, 3, 5, 7)
FIXED = settings(derandomize=True, deadline=None, database=None, max_examples=25)


@st.composite
def series(draw, lowest, primes=PRIMES):
    """(p, N, Series) with the given leading coefficients, the rest drawn."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(max(len(lowest) - 1, 0), 300))
    rest = draw(st.lists(st.integers(0, p - 1), min_size=n + 1 - len(lowest),
                         max_size=n + 1 - len(lowest)))
    return p, n, Series(p, n, list(lowest) + rest)


@FIXED
@given(series(lowest=(1,)), st.integers(1, 40))
def test_nth_root_power_is_input(pnf, m):
    p, n, f = pnf
    if m % p == 0:
        m += 1
    u = f.nth_root(m)
    assert u[0] == 1
    assert u ** m == f


def exponents(p, n):
    """Exponents in 0..p^3, or within 1 of the unit exponent (p-1)*p^J, p^J >= n + 1."""
    return st.integers(0, p ** 3) | st.sampled_from([unit_exponent(p, n) + d for d in (-1, 0, 1)])


@settings(FIXED, max_examples=100)
@given(series(lowest=()), st.sampled_from((0, 1, -1)), st.data())
def test_power_exponent_laws(pnf, c0, data):
    """f^j * f^k = f^(j+k) and (f^j)^k = f^(j*k), for f(0) zero, one or
    another unit (-1); 100 examples, so that both exponents often land past
    the unit exponent, where a wrong reduction breaks the laws."""
    p, n, f = pnf
    f = f - f[0] + c0
    j, k = (data.draw(exponents(p, n)) for _ in range(2))
    assert f ** j * f ** k == f ** (j + k)
    assert (f ** j) ** k == f ** (j * k)


@FIXED
@given(series(lowest=(0, 1)), st.integers(1, 256))
def test_reversion_is_two_sided_inverse(pnf, f1):
    p, n, f = pnf
    f = (f1 % p or 1) * f
    g, t = f.reversion(), Series.gen(p, n)
    assert f.compose(g) == t
    assert g.compose(f) == t


@FIXED
@given(series(lowest=(0, 1)))
def test_group_inverse(pnf):
    p, n, f = pnf
    f = GroupElement(f)
    ident = GroupElement.identity(p, n)
    assert f * f.inverse() == ident
    assert f.inverse() * f == ident


@FIXED
@given(st.sampled_from(PRIMES), st.integers(1, 40), st.integers(1, 256), st.integers(0, 300))
def test_klopsch_rep_has_order_p_and_depth_m(p, m, a, extra):
    if m % p == 0:
        m += 1
    a = a % p or 1
    n = min(m + 1 + extra, 300)
    rep = klopsch_rep(p, m, a, n)
    assert rep.depth() == m
    assert rep ** p == GroupElement.identity(p, n)


@FIXED
@given(series(lowest=(), primes=SMALL_PRIMES), st.data())
def test_compose_matches_horner(pnf, data):
    p, n, f = pnf
    g = Series(p, n, [0] + data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    assert f.compose(g) == horner_compose(f, g)


@FIXED
@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 300), st.data())
def test_group_law_is_associative(p, n, data):
    f, g, h = (GroupElement(Series(p, n, [0, 1] + data.draw(
        st.lists(st.integers(0, p - 1), min_size=n - 1, max_size=n - 1)))) for _ in range(3))
    assert (f * g) * h == f * (g * h)


# Values of every kind a caller might pass: small ints (most of them valid
# somewhere), bools, floats, None, str, bytes, lists, numpy scalars and
# ints past 2^3000.
ANY = st.one_of(
    st.integers(-3, 300), st.booleans(), st.floats(), st.none(), st.text(max_size=12),
    st.binary(max_size=12), st.lists(st.integers(-3, 300), max_size=4),
    st.builds(np.int64, st.integers(-3, 300)), st.builds(np.float64, st.floats(-3, 300)),
    st.integers(2 ** 3000, 2 ** 3001) | st.integers(-2 ** 3001, -2 ** 3000))
F = Series.from_terms(2, 12, {1: 1, 3: 1})
U = Series.one(3, 12)
ENTRY_POINTS = {
    "Series": lambda a, b, c, d: Series(a, b, c),
    "from_terms": lambda a, b, c, d: Series.from_terms(a, b, [(c, d)]),
    "from_text": lambda a, b, c, d: Series.from_text(a),
    "pow": lambda a, b, c, d: U ** a,
    "pow_of_a_non_unit": lambda a, b, c, d: F ** a,
    "nth_root": lambda a, b, c, d: U.nth_root(a),
    "truncate": lambda a, b, c, d: F.truncate(a),
    "compose": lambda a, b, c, d: F.compose(a),
    "GroupElement": lambda a, b, c, d: GroupElement(a),
    "group_pow": lambda a, b, c, d: GroupElement(F) ** a,
    "klopsch_rep": lambda a, b, c, d: klopsch_rep(a, b, c, d),
    "order_mod_truncation": lambda a, b, c, d: order_mod_truncation(a, b),
    "order_cap": lambda a, b, c, d: order_mod_truncation(GroupElement(F), a),
    "verify_all": lambda a, b, c, d: nottingham.verify_all(a),
    "check_prime": lambda a, b, c, d: nottingham.check_prime(a),
}
ENTRY_POINTS.update({f"sigma_{name}": lambda a, b, c, d, fn=getattr(nottingham, f"sigma_{name}"): fn(a)
                     for name in ("closed", "algebraic", "relation", "bundle", "support")})


@settings(FIXED, max_examples=500)
@given(st.sampled_from(sorted(ENTRY_POINTS)), ANY, ANY, ANY, ANY)
def test_any_value_works_or_raises_a_documented_error(name, a, b, c, d):
    """A wrong type raises TypeError, a bad value ValueError or a
    NottinghamError; nothing else escapes."""
    try:
        ENTRY_POINTS[name](a, b, c, d)
    except (TypeError, ValueError, NottinghamError):
        pass


@FIXED
@given(ANY)
def test_index_is_an_exponent_or_index_error(e):
    try:
        assert F[e] in (0, 1)
    except IndexError:
        pass
