"""Reference arithmetic that checks the benchmark's outputs.

It shares no code with the library.  A series in F_p[t]/(t^(N+1)) is an
int64 array of its N+1 residues.  Products are plain convolutions, which
are exact here because (N+1)*(p-1)^2 stays far below 2^63.  Composition is
the Horner ladder, which is the simplest algorithm there is and differs from
the library's.  The text codec follows the two-line format that the CLI
documents.
"""

import numpy as np

_DT = np.int64


def gen(p, n):
    """The series t in F_p[t]/(t^(n+1))."""
    out = np.zeros(n + 1, dtype=_DT)
    out[1] = 1
    return out


def mul(a, b, p):
    return np.convolve(a, b)[:a.shape[0]] % p


def compose(f, g, p):
    """f(g) by the Horner ladder; g must have constant term zero."""
    acc = np.zeros(f.shape[0], dtype=_DT)
    acc[0] = f[-1]
    for c in f[-2::-1]:
        acc = mul(acc, g, p)
        acc[0] = (acc[0] + c) % p
    return acc


def power(f, k, p):
    """The k-th compositional power of a group element."""
    out = gen(p, f.shape[0] - 1)
    for _ in range(k):
        out = compose(out, f, p)
    return out


def order(f, p, cap):
    """Least p-power j <= cap with f^j = t, else None."""
    t = gen(p, f.shape[0] - 1)
    k, g = 1, f
    while k <= cap:
        if np.array_equal(g, t):
            return k
        k *= p
        if k <= cap:
            g = power(g, p, p)
    return None


def depth(f, p):
    """Valuation of f - t, minus one; None for the identity."""
    nz = np.flatnonzero((f - gen(p, f.shape[0] - 1)) % p)
    return int(nz[0]) - 1 if nz.size else None


def is_klopsch_rep(rep, p, m, a):
    """rep = t*u with u^m * (1 - a*t^m) = 1, and rep^p = t."""
    n = rep.shape[0] - 1
    if rep[0] != 0:
        return False
    u = rep[1:]                     # u is known to precision t^(n-1)
    um = np.zeros(n, dtype=_DT)
    um[0] = 1
    for _ in range(m):
        um = mul(um, u, p)
    base = np.zeros(n, dtype=_DT)
    base[0] = 1
    if m < n:
        base[m] = (-a) % p
    one = np.zeros(n, dtype=_DT)
    one[0] = 1
    return (np.array_equal(mul(um, base, p), one)
            and np.array_equal(power(rep, p, p), gen(p, n)))


def sigma_support(n):
    """Exponents {1, 2} and 6*2^j + 2*l <= n for j >= 0, 0 <= l < 2^j."""
    exps = [1, 2]
    j = 0
    while 6 * 2 ** j <= n:
        exps += range(6 * 2 ** j, min(n, 8 * 2 ** j - 2) + 1, 2)
        j += 1
    return exps


def emit(p, n, coeffs):
    """The two-line sparse text of a series, as bytes."""
    pairs = " ".join(f"{e}:{int(coeffs[e])}" for e in np.flatnonzero(coeffs))
    return f"p={p} N={n}\n{pairs or '0'}\n".encode()


def parse(text):
    """(p, N, coeffs) from the two-line sparse text."""
    head, body = text.strip().split("\n")
    p = int(head.split()[0][2:])
    n = int(head.split()[1][2:])
    coeffs = np.zeros(n + 1, dtype=_DT)
    if body.strip() != "0":
        for tok in body.split():
            e, c = tok.split(":")
            coeffs[int(e)] = int(c)
    return p, n, coeffs
