"""Shared helpers for randomized tests.

Every generator takes an explicit random.Random so each test controls its
own seed.  naive_product is a reference oracle: a plain double loop over
Python ints, deliberately independent of the numpy kernel it checks.  The
other oracles are the slow, obvious algorithms the library no longer runs
(or runs only below a leaf size): the Horner ladder for composition, the
row-by-row Horner rule and the block ladder with sequential powers,
degree-by-degree elimination for reversion, the plain-squaring sum for
Artin-Schreier roots and the coefficient-at-a-time m-th root.  They
multiply with convolve_product, one int64 convolution, which is the
library's product kernel without Kronecker substitution, so they do not
run the kernel they check.  The coefficient-at-a-time reciprocal
multiplies plain ints.  power_nth_root takes the m-th root as the power
f^(1/m mod q), p^J = q > N, by square-and-multiply over convolve_product,
an oracle fast enough for the lengths where the byte-table kernel runs.
The spread sum for Artin-Schreier roots, the loop the library ran before
it solved s = f + s(t^2) by doubling, makes no product at all, so it
stays fast at large N.  naive_order takes every p-th power at full
precision, where the library takes them at the precision that depth
bounds predict.
"""

import contextlib
import io

import numpy as np

from nottingham.group import GroupElement
from nottingham.series import Series


def random_series(rng, p, trunc):
    return Series(p, trunc, [rng.randrange(p) for _ in range(trunc + 1)])


def random_unit(rng, p, trunc):
    """Random series with invertible constant term."""
    coeffs = [rng.randrange(p) for _ in range(trunc + 1)]
    coeffs[0] = rng.randrange(1, p)
    return Series(p, trunc, coeffs)


def random_one_unit(rng, p, trunc):
    """Random series with constant term exactly 1 (m-th root domain)."""
    coeffs = [rng.randrange(p) for _ in range(trunc + 1)]
    coeffs[0] = 1
    return Series(p, trunc, coeffs)


def random_no_constant(rng, p, trunc):
    """Random series with valuation >= 1."""
    coeffs = [rng.randrange(p) for _ in range(trunc + 1)]
    coeffs[0] = 0
    return Series(p, trunc, coeffs)


def random_invertible(rng, p, trunc):
    """Random series with f(0) = 0 and f_1 != 0 (reversion domain)."""
    coeffs = [rng.randrange(p) for _ in range(trunc + 1)]
    coeffs[0] = 0
    coeffs[1] = rng.randrange(1, p)
    return Series(p, trunc, coeffs)


def random_group_element(rng, p, trunc, depth=None):
    """Random t + (higher order); optionally with a forced exact depth."""
    coeffs = [rng.randrange(p) for _ in range(trunc + 1)]
    coeffs[0] = 0
    coeffs[1] = 1
    if depth is not None:
        for e in range(2, min(depth + 1, trunc) + 1):
            coeffs[e] = 0
        if depth + 1 <= trunc:
            coeffs[depth + 1] = rng.randrange(1, p)
    return GroupElement(Series(p, trunc, coeffs))


def sparse_element(rng, p, n):
    """t plus a few random terms of degree 2..n."""
    terms = {e: rng.randrange(1, p) for e in rng.sample(range(2, n + 1), min(3, n - 1))}
    return GroupElement(Series.from_terms(p, n, {1: 1, **terms}))


def naive_product(f, g):
    """Quadratic-time product over Python ints; the multiplication oracle."""
    p, n = f.p, f.trunc
    out = [0] * (n + 1)
    for i in range(n + 1):
        fi = f[i]
        if fi:
            for j in range(n + 1 - i):
                out[i + j] = (out[i + j] + fi * g[j]) % p
    return Series(p, n, out)


def naive_order(f, cap):
    """Least p-power k <= cap with f^k = id, or None, by p-th powers taken
    one after another at full precision; the truncated-order oracle."""
    k, g = 1, f
    ident = GroupElement.identity(f.p, f.trunc)
    while k <= cap:
        if g == ident:
            return k
        k *= f.p
        if k <= cap:
            g = g ** f.p
    return None


def convolve_product(f, g):
    """f*g as one int64 convolution reduced mod p, for the oracles below."""
    return Series(f.p, f.trunc, np.convolve(f.coeffs, g.coeffs)[:f.trunc + 1] % f.p)


def naive_power(f, k, product=naive_product, one=None):
    """Square-and-multiply over naive_product (or another product, with its
    identity `one`); the power oracle."""
    out = Series.one(f.p, f.trunc) if one is None else one
    while k:
        if k & 1:
            out = product(out, f)
        k >>= 1
        if k:
            f = product(f, f)
    return out


def horner_compose(f, g):
    """f(g) by the Horner ladder, N series products; the composition oracle.
    Each product is one int64 convolution by g up to its last nonzero term."""
    p, n = f.p, f.trunc
    tail = g.coeffs[:max(g.support(), default=0) + 1]
    acc = Series(p, n, [f[n]])
    for k in range(n - 1, -1, -1):
        acc = Series(p, n, np.convolve(acc.coeffs, tail)[:n + 1] % p) + f[k]
    return acc


def horner_rows(terms, b, p, n1, at=slice(None)):
    """Horner's rule by b mod t^n1 on each row on its own: acc[at] starts as
    the row of the first array of terms, then acc <- acc*b by
    convolve_product and acc[at] += x for each next array x; the oracle for
    series._horner."""
    terms = [np.asarray(x, dtype=np.int64) for x in terms]
    b = Series(p, n1 - 1, np.asarray(b)[:n1])
    out = np.zeros((len(terms[0]), n1), dtype=np.int64)
    for i, acc in enumerate(out):
        acc[at] = terms[0][i]
        for x in terms[1:]:
            acc[:] = convolve_product(Series(p, n1 - 1, acc), b).coeffs
            acc[at] = (acc[at] + x[i]) % p
    return out


def block_ladder(f, g, m):
    """(f(g), [g^0, ..., g^m]) by the block ladder with every power one
    convolve_product after the last: each block of m coefficients of f is
    summed against g^0, ..., g^(m-1), and the blocks are joined by Horner's
    rule in g^m; the oracle for composition's leaf evaluation, whose ladder
    takes g^(p*i) as the spread g^i(t^p)."""
    p, n = f.p, f.trunc
    pows = [Series.one(p, n)]
    for _ in range(m):
        pows.append(convolve_product(pows[-1], g))
    acc = Series.zero(p, n)
    for i in reversed(range(0, n + 1, m)):
        block = Series.zero(p, n)
        for j in range(min(m, n + 1 - i)):
            block = block + pows[j] * f[i + j]
        acc = convolve_product(acc, pows[m]) + block
    return acc, pows


def eliminate_reversion(f):
    """g with f(g) = t, by degree-by-degree elimination: the t^k coefficient
    of the running sum of g_j f^j over j < k pins g_k, with pivot f_1^k; the
    reversion oracle (f(0) = 0, f_1 != 0)."""
    p, n = f.p, f.trunc
    inv_f1 = pow(f[1], -1, p)
    g = [0, inv_f1] + [0] * (n - 1)
    fpow, acc, inv_pow = f, f * inv_f1, inv_f1
    for k in range(2, n + 1):
        fpow = convolve_product(fpow, f)
        inv_pow = inv_pow * inv_f1 % p
        if acc[k]:
            g[k] = -acc[k] * inv_pow % p
            acc = acc + fpow * g[k]
    return Series(p, n, g)


def spread_artin_schreier_root(f):
    """sum_i f^(2^i) with every square the spread f(t^2), until a power is
    zero: the root oracle for s^2 + s = f (f(0) = 0) at large N, one numpy
    spread and one XOR per term, with no product."""
    s = np.zeros(f.trunc + 1, dtype=np.int64)
    power = f.coeffs
    while power.any():
        s ^= power
        spread = np.zeros_like(power)
        spread[::2] = power[:(len(power) + 1) // 2]
        power = spread
    return Series(2, f.trunc, s)


def summed_artin_schreier_root(f):
    """sum_i f^(2^i) with every square a full product; the root oracle for
    s^2 + s = f in characteristic 2 (f(0) = 0)."""
    acc = Series.zero(2, f.trunc)
    while not f.is_zero():
        acc = acc + f
        f = naive_product(f, f)
    return acc


def coefficientwise_reciprocal(f):
    """g with f*g = 1, one coefficient at a time on plain ints: g_0 = 1/f_0
    and g_n = -g_0 * sum_{k=1..n} f_k g_(n-k); the reciprocal oracle
    (f(0) a unit)."""
    p, n = f.p, f.trunc
    c = [f[e] for e in range(n + 1)]
    g0 = pow(c[0], -1, p)
    g = [g0]
    for e in range(1, n + 1):
        g.append(-g0 * sum(c[k] * g[e - k] for k in range(1, e + 1)) % p)
    return Series(p, n, g)


def coefficientwise_nth_root(f, m):
    """u with u(0) = 1 and u^m = f, one coefficient at a time: at each
    exponent e the new u_e solves a linear equation with the unit pivot m,
    read off a power of the root so far; the m-th root oracle.  The power
    is taken to m mod q for a power q > e of p, since u^q = 1 mod t^(e+1)
    for u(0) = 1, so a huge m costs no more than a small one."""
    p, n = f.p, f.trunc
    inv_m = pow(m % p, -1, p)
    u = [1] + [0] * n
    q = p
    for e in range(1, n + 1):
        while q <= e:
            q *= p
        w = naive_power(Series(p, e, u[:e + 1]), m % q, convolve_product)
        u[e] = (f[e] - w[e]) * inv_m % p
    return Series(p, n, u)


def unit_exponent(p, n):
    """(p-1)*p^J for the least p^J >= n + 1: units mod t^(n+1) have this exponent."""
    q = 1
    while q < n + 1:
        q *= p
    return (p - 1) * q


def power_nth_root(f, m):
    """u with u(0) = 1 and u^m = f, as f^B for B = 1/m mod q, q the least
    p^J >= N + 1: f^q = f(t^q) = 1 mod t^(N+1) when f(0) = 1, so (f^B)^m =
    f^(1 + jq) = f; the m-th root oracle at large N (gcd(m, p) = 1)."""
    q = unit_exponent(f.p, f.trunc) // (f.p - 1)
    return naive_power(f, pow(m, -1, q), convolve_product)


def run_cli(argv):
    """Invoke the CLI in-process, capturing (exit_code, stdout, stderr)."""
    from nottingham.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()
