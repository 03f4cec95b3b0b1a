"""Shared helpers for randomized tests.

Every generator takes an explicit random.Random so each test controls its
own seed.  naive_product is a reference oracle: a plain double loop over
Python ints, deliberately independent of the numpy kernel it checks.  The
other oracles are the slow, obvious algorithms the library no longer runs:
the Horner ladder for composition and the plain-squaring sum for
Artin-Schreier roots.
"""

import contextlib
import io

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


def naive_power(f, k):
    """Square-and-multiply over naive_product; the power oracle."""
    out = Series.one(f.p, f.trunc)
    while k:
        if k & 1:
            out = naive_product(out, f)
        k >>= 1
        if k:
            f = naive_product(f, f)
    return out


def horner_compose(f, g):
    """f(g) by the Horner ladder, N series products; the composition oracle."""
    n = f.trunc
    acc = Series(f.p, n, [f[n]])
    for k in range(n - 1, -1, -1):
        acc = acc * g + f[k]
    return acc


def summed_artin_schreier_root(f):
    """sum_i f^(2^i) with every square a full product; the root oracle for
    s^2 + s = f in characteristic 2 (f(0) = 0)."""
    acc = Series.zero(2, f.trunc)
    while not f.is_zero():
        acc = acc + f
        f = naive_product(f, f)
    return acc


def run_cli(argv):
    """Invoke the CLI in-process, capturing (exit_code, stdout, stderr)."""
    from nottingham.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()
