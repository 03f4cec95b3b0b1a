"""Truncated formal power series over F_p.

A Series is an element of F_p[t]/(t^(N+1)): it carries its characteristic
p, its truncation order N (the largest retained exponent) and exactly N+1
coefficients, stored as canonical residues in an immutable int64 numpy
array.  Exponents above N are unknown, never assumed zero, so mixing
precisions is an error rather than an implicit coercion, and truncating is
the only way to lower precision.

All arithmetic is exact integer arithmetic; nothing here touches floating
point.  A product is one int64 convolution reduced mod p.  Over F_p a p-th
power is a coefficient spread, f(t)^p = f(t^p), which p-th powers,
Artin-Schreier roots and composition use.  Composition is Bernstein's
Frobenius split, O(p*M(N)*log_p N) for M(N) the cost of one product, with
a square-root block ladder (about 2*sqrt(N) products) at its leaves.

Values are immutable after construction and every operation is a pure
function of its inputs, so Series objects are safe to share across threads.
"""

import math

import numpy as np

from .errors import (
    BadRoot,
    BadTruncation,
    MismatchedContext,
    NonzeroConstant,
    NotAUnit,
    NotCoprime,
    NotInvertible,
    WrongCharacteristic,
)
from .field import check_prime

_DT = np.int64

# Largest truncation order anywhere (Series, from_text, every CLI --trunc):
# it caps what a hostile header can allocate and keeps int64 sums exact:
# (N+1)*(p-1)^2 < 2^63, as it is at most about 2^36 (N = 2^20, p = 257).
MAX_TRUNC = 2 ** 20
_LEAF = 128     # f of at most this many coefficients composes by the block ladder


def _check_trunc(trunc):
    if not isinstance(trunc, int) or isinstance(trunc, bool) or not 0 <= trunc <= MAX_TRUNC:
        raise ValueError(
            f"truncation order must be an int in [0, {MAX_TRUNC}], got {trunc!r}")


def _zeros(n1):
    return np.zeros(n1, dtype=_DT)


def _mul(a, b, p):
    """Product of coefficient arrays in F_p[t]/(t^n1), n1 = len(a)."""
    n1 = a.shape[0]
    nza = np.flatnonzero(a)
    nzb = np.flatnonzero(b)
    if nza.size == 0 or nzb.size == 0:
        return _zeros(n1)
    va = int(nza[0])
    vb = int(nzb[0])
    out = _zeros(n1)
    if va + vb > n1 - 1:
        return out
    span = n1 - va - vb
    conv = np.convolve(a[va:va + span], b[vb:vb + span])[:span]
    out[va + vb:] = conv % p
    return out


def _frobenius(a, q, n1):
    """a(t)^q = a(t^q) mod t^n1 for q a power of p, as c^p = c in F_p."""
    out = _zeros(n1)
    out[::q] = a[:(n1 - 1) // q + 1]
    return out


def _pow(a, k, p):
    n1 = a.shape[0]
    q = 1
    while k and k % p == 0:     # a^(k*q) is a^k spread q apart
        k, q = k // p, q * p
    out = _zeros(n1)
    out[0] = 1
    base = a
    while k:
        if k & 1:
            out = _mul(out, base, p)
        k >>= 1
        if k:
            base = _mul(base, base, p)
    return _frobenius(out, q, n1) if q > 1 else out


def _reciprocal(a, p):
    """Newton doubling for 1/a; needs a[0] invertible, no derivatives."""
    n1 = a.shape[0]
    c0 = int(a[0])
    if c0 == 0:
        raise NotAUnit("series with zero constant term has no reciprocal")
    g = np.array([pow(c0, -1, p)], dtype=_DT)
    prec = 1
    while prec < n1:
        prec = min(2 * prec, n1)
        # g' = g*(2 - a*g) lifts a correct inverse mod t^k to mod t^(2k)
        ag = np.convolve(a[:prec], g)[:prec] % p
        corr = (-ag) % p
        corr[0] = (corr[0] + 2) % p
        g = np.convolve(g, corr)[:prec] % p
    return g


def _compose_block(f, g, p):
    """f(g) by square-root decomposition: split f into sqrt(N)-size blocks,
    evaluate each against precomputed powers of g, then Horner over blocks
    with multiplier g^m.  Bit-identical to the Horner ladder."""
    n1 = f.shape[0]
    m = max(1, math.isqrt(n1))
    nblocks = -(-n1 // m)
    pows = np.zeros((m + 1, n1), dtype=_DT)
    pows[0, 0] = 1
    for j in range(1, m + 1):
        pows[j] = _mul(pows[j - 1], g, p)
    gm = pows[m]
    acc = None
    for i in reversed(range(nblocks)):
        seg = f[i * m:(i + 1) * m]
        block = (seg @ pows[:seg.shape[0]]) % p
        if acc is None:
            acc = block
        else:
            acc = (_mul(acc, gm, p) + block) % p
    return acc


def _compose(f, g, p):
    """f(g) by Bernstein's Frobenius split: f = sum_{i<p} t^i f_i(t)^p with
    f_i = f[i::p], so f(g) = sum_{i<p} g^i f_i(g)^p (Horner in g), each
    nonzero f_i(g) recursed at precision N//p.  Short series, and p^2 > N+1
    where the p branches cost more, go to the block ladder."""
    n1 = f.shape[0]
    if n1 <= _LEAF or p * p > n1:
        return _compose_block(f, g, p)
    m1 = (n1 - 1) // p + 1
    acc = _zeros(n1)
    for i in reversed(range(p)):
        acc = _mul(acc, g, p)
        fi = np.pad(f[i::p], (0, m1 - f[i::p].shape[0]))
        if fi.any():
            acc[::p] = (acc[::p] + _compose(fi, g[:m1], p)) % p
    return acc


def _reversion(a, p):
    """Compositional inverse by degree-by-degree elimination.

    Solves sum_k g_k a^k = t one coefficient at a time: the t^n coefficient
    of the running sum pins g_n via the unit pivot a_1^n.  No derivatives,
    so the method is characteristic-agnostic.
    """
    n1 = a.shape[0]
    if n1 < 2 or a[0] != 0 or a[1] == 0:
        raise NotInvertible("compositional inverse needs f(0) = 0 and f_1 != 0")
    inv_f1 = pow(int(a[1]), -1, p)
    g = _zeros(n1)
    g[1] = inv_f1
    if n1 == 2:
        return g
    apow = a.copy()                 # a^n as n advances
    acc = (inv_f1 * apow) % p       # sum of g_k a^k over known k
    inv_pow = inv_f1                # 1 / a_1^n
    for n in range(2, n1):
        apow = _mul(apow, a, p)
        inv_pow = (inv_pow * inv_f1) % p
        c = int(acc[n])
        if c:
            gn = (-c * inv_pow) % p
            g[n] = gn
            acc = (acc + gn * apow) % p
    return g


class Series:
    """Element of F_p[t]/(t^(N+1)) with canonical integer coefficients."""

    __slots__ = ("p", "trunc", "coeffs")

    def __init__(self, p, trunc, coeffs):
        check_prime(p)
        _check_trunc(trunc)
        try:
            arr = np.asarray(coeffs, dtype=_DT) % p
        except OverflowError:   # Python ints beyond int64: reduce them first
            arr = np.asarray([c % p for c in coeffs], dtype=_DT)
        if arr.ndim != 1 or arr.shape[0] > trunc + 1:
            raise ValueError(
                f"expected at most {trunc + 1} coefficients, got shape {arr.shape}")
        if arr.shape[0] < trunc + 1:
            arr = np.concatenate([arr, _zeros(trunc + 1 - arr.shape[0])])
        arr.flags.writeable = False
        self.p = p
        self.trunc = trunc
        self.coeffs = arr

    def _new(self, arr):
        # internal: arr is a fresh, already-reduced int64 array of full length
        s = Series.__new__(Series)
        arr.flags.writeable = False
        s.p = self.p
        s.trunc = self.trunc
        s.coeffs = arr
        return s

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, p, trunc):
        return cls(p, trunc, ())

    @classmethod
    def one(cls, p, trunc):
        return cls(p, trunc, (1,))

    @classmethod
    def gen(cls, p, trunc):
        """The series t (requires trunc >= 1)."""
        if trunc < 1:
            raise ValueError("the generator t needs truncation order >= 1")
        return cls(p, trunc, (0, 1))

    @classmethod
    def from_terms(cls, p, trunc, terms):
        """Build from {exponent: coefficient} (or an iterable of pairs)."""
        items = terms.items() if hasattr(terms, "items") else terms
        _check_trunc(trunc)
        arr = _zeros(trunc + 1)
        for e, c in items:
            if not 0 <= e <= trunc:
                raise ValueError(f"exponent {e} outside [0, {trunc}]")
            arr[e] = c % p
        return cls(p, trunc, arr)

    # ------------------------------------------------------------------
    # basic queries

    def _check_context(self, other):
        if self.p != other.p or self.trunc != other.trunc:
            raise MismatchedContext(
                f"(p={self.p}, N={self.trunc}) vs (p={other.p}, N={other.trunc})")

    def __getitem__(self, e):
        if not 0 <= e <= self.trunc:
            raise IndexError(f"exponent {e} outside [0, {self.trunc}]")
        return int(self.coeffs[e])

    def support(self):
        """Exponents with nonzero coefficient, ascending."""
        return [int(e) for e in np.flatnonzero(self.coeffs)]

    def valuation(self):
        """Least exponent with nonzero coefficient; N+1 for the zero series."""
        nz = np.flatnonzero(self.coeffs)
        return int(nz[0]) if nz.size else self.trunc + 1

    def is_zero(self):
        return not np.any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.p == other.p and self.trunc == other.trunc
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.p, self.trunc, self.coeffs.tobytes()))

    def __repr__(self):
        terms = []
        for e in self.support():
            c = int(self.coeffs[e])
            if e == 0:
                terms.append(str(c))
            else:
                var = "t" if e == 1 else f"t^{e}"
                terms.append(var if c == 1 else f"{c}*{var}")
            if len(terms) == 10:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"Series(p={self.p}, N={self.trunc}; {body})"

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if isinstance(other, Series):
            self._check_context(other)
            return self._new((self.coeffs + other.coeffs) % self.p)
        if isinstance(other, int) and not isinstance(other, bool):
            arr = self.coeffs.copy()
            arr[0] = (arr[0] + other) % self.p
            return self._new(arr)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._new((-self.coeffs) % self.p)

    def __sub__(self, other):
        if isinstance(other, Series):
            self._check_context(other)
            return self._new((self.coeffs - other.coeffs) % self.p)
        if isinstance(other, int) and not isinstance(other, bool):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Series):
            self._check_context(other)
            return self._new(_mul(self.coeffs, other.coeffs, self.p))
        if isinstance(other, int) and not isinstance(other, bool):
            return self._new((self.coeffs * (other % self.p)) % self.p)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        if k < 0:
            raise ValueError("negative powers: take reciprocal() first")
        return self._new(_pow(self.coeffs, k, self.p))

    def reciprocal(self):
        """The unique g with self*g = 1; requires a unit constant term."""
        return self._new(_reciprocal(self.coeffs, self.p))

    # ------------------------------------------------------------------
    # composition

    def compose(self, other):
        """self(other); the inner series must have constant term zero."""
        self._check_context(other)
        if other.coeffs[0] != 0:
            raise NonzeroConstant("inner series of a composition must have f(0) = 0")
        return self._new(_compose(self.coeffs, other.coeffs, self.p))

    __call__ = compose

    def reversion(self):
        """Compositional inverse: g with self(g) = g(self) = t."""
        return self._new(_reversion(self.coeffs, self.p))

    # ------------------------------------------------------------------
    # characteristic-p root extraction

    def artin_schreier_root(self):
        """The unique s with s(0) = 0 and s^2 + s = self (characteristic 2).

        Computed as the truncation of sum_i self^(2^i); the sum stops once
        the valuation of the power exceeds N, and the result telescopes:
        s^2 + s recovers self exactly because the tail square drops out.
        Each square is a coefficient spread, so the root costs O(N log N).
        """
        if self.p != 2:
            raise WrongCharacteristic("s^2 + s = f solvable this way only for p = 2")
        if self.coeffs[0] != 0:
            raise NonzeroConstant("right-hand side must have constant term zero")
        n1 = self.trunc + 1
        s = _zeros(n1)
        power = self.coeffs
        while np.any(power):
            s ^= power
            power = _frobenius(power, 2, n1)
        return self._new(s)

    def nth_root(self, m):
        """The unique u with u(0) = 1 and u^m = self, for gcd(m, p) = 1.

        Degree-by-degree undetermined coefficients: at each exponent n the
        new coefficient solves a linear equation whose pivot is m, a unit.
        """
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"root index must be a positive int, got {m!r}")
        if m % self.p == 0:
            raise NotCoprime(f"root index {m} is divisible by p = {self.p}")
        if self.coeffs[0] != 1:
            raise BadRoot("m-th roots are extracted from unit series with f(0) = 1")
        if m == 1:
            return self
        p = self.p
        inv_m = pow(m % p, -1, p)
        u = _zeros(self.trunc + 1)
        u[0] = 1
        for n in range(1, self.trunc + 1):
            w = _pow(u, m, p)
            diff = (int(self.coeffs[n]) - int(w[n])) % p
            if diff:
                u[n] = (diff * inv_m) % p
        return self._new(u)

    # ------------------------------------------------------------------
    # precision

    def truncate(self, new_trunc):
        """The same series in F_p[t]/(t^(M+1)) for M <= N."""
        if not isinstance(new_trunc, int) or isinstance(new_trunc, bool):
            raise ValueError(f"truncation order must be an int, got {new_trunc!r}")
        if new_trunc < 0 or new_trunc > self.trunc:
            raise BadTruncation(
                f"cannot truncate from N={self.trunc} to N={new_trunc}")
        return Series(self.p, new_trunc, self.coeffs[:new_trunc + 1])

    # ------------------------------------------------------------------
    # sparse text encoding

    def to_text(self):
        """Two-line sparse encoding: header `p=<p> N=<N>`, then ascending
        `exponent:coefficient` pairs for the nonzero terms (`0` if none)."""
        pairs = " ".join(f"{e}:{int(self.coeffs[e])}" for e in self.support())
        return f"p={self.p} N={self.trunc}\n{pairs or '0'}\n"

    @classmethod
    def from_text(cls, text):
        """Parse the to_text() encoding; raises ValueError on malformed input."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 2:
            raise ValueError("expected exactly two non-empty lines")
        head = lines[0].split()
        if len(head) != 2 or not head[0].startswith("p=") or not head[1].startswith("N="):
            raise ValueError(f"malformed header {lines[0]!r}")
        try:
            p = int(head[0][2:])
            trunc = int(head[1][2:])
        except ValueError:
            raise ValueError(f"malformed header {lines[0]!r}") from None
        _check_trunc(trunc)
        data = lines[1].split()
        if data == ["0"]:
            return cls(p, trunc, ())
        terms = {}
        last = -1
        for tok in data:
            e_str, _, c_str = tok.partition(":")
            try:
                e, c = int(e_str), int(c_str)
            except ValueError:
                raise ValueError(f"malformed term {tok!r}") from None
            if e <= last:
                raise ValueError("exponents must be strictly ascending")
            if e > trunc:
                raise ValueError(f"exponent {e} exceeds N={trunc}")
            last = e
            terms[e] = c
        return cls.from_terms(p, trunc, terms)
