"""Truncated formal power series over F_p.

A Series is an element of F_p[t]/(t^(N+1)): it carries its characteristic
p, its truncation order N (the largest retained exponent) and exactly N+1
coefficients, stored as canonical residues in an immutable int64 numpy
array.  Exponents above N are unknown, never assumed zero, so mixing
precisions is an error rather than an implicit coercion, and truncating is
the only way to lower precision.

All arithmetic is exact integer arithmetic; nothing here touches floating
point.  A product is one _conv: an int64 convolution, or Kronecker
substitution (one big-int product of packed coefficients) if long, with one
bit per coefficient at p = 2 and byte slots otherwise; longer p = 2 products
take a carry-less byte-table kernel (_table, then _gather).  Over F_p a
p-th power is a coefficient spread, f(t)^p = f(t^p), which p-th powers (and
p = 2 squares), Artin-Schreier roots and composition use.  Composition is
Bernstein's Frobenius split, O(p*M(N)*log_p N) for M(N) one product's cost,
one tree level at a time and for a stack of outer series at once: a block
ladder sized by its leaf rows evaluates all leaves (at most _TWIG
coefficients) as rows of a matrix, a level's rows multiply by g in one
_conv.  A long p = 2 walk keeps its rows bit-packed from the leaves to the
root and gathers every level from one byte table of g.
Reciprocals, m-th roots and reversion are Newton doublings, reversion down
to elimination at _LEAF coefficients.

Values are immutable after construction and every operation is a pure
function of its inputs, so Series objects are safe to share across threads.
"""

import math
from operator import index

import numpy as np

from .errors import (
    BadPrecision,
    BadRoot,
    BadTruncation,
    MismatchedContext,
    NonzeroConstant,
    NotAUnit,
    NotCoprime,
    NotInvertible,
    WrongCharacteristic,
)
from .field import PRIME_CAP, _echo, _is_int, check_prime

_DT = np.int64

# Largest truncation order anywhere (Series, from_text, every CLI --trunc):
# it caps what a hostile header can allocate and bounds a product coefficient,
# n*(p-1)^2 for n the shorter operand's length, by about 2^36 (N = 2^20, p =
# 257): int64 sums are exact, and so is every slot of _conv.
MAX_TRUNC = 2 ** 20
_TWIG = 16      # series this short are composition leaves, evaluated by the block ladder
_LEAF = 32      # series this short revert by elimination
# Shorter-operand length where Kronecker (16-bit slots, or bit slots at p = 2)
# overtakes np.convolve (2-vCPU Xeon); wider byte slots raise it by width cubed.
_KRONECKER = 80
# At p = 2 the byte-table kernel overtakes bit slots from a shorter operand of
# _CLMUL coefficients, and a composition's walk on packed rows overtakes bit
# slots from a top level of _CLMUL coefficients in rows of _CLMUL_ROWS; the
# kernel gathers about _BLOCK bytes at a time.
_CLMUL = 640
_CLMUL_ROWS = 128
_BLOCK = 1 << 18
# Byte v with its bit i moved to bit 2i: a bit-packed a(t^2), in little-endian pairs.
_SPREAD = np.array([sum((v >> i & 1) << 2 * i for i in range(8)) for v in range(256)], dtype="<u2")


def _check_trunc(trunc, least=0):
    """The one truncation-order guard: an int in [least, MAX_TRUNC]."""
    if not _is_int(trunc) or not least <= trunc <= MAX_TRUNC:
        raise BadPrecision(
            f"truncation order must be an int in [{_echo(least)}, {MAX_TRUNC}], got {_echo(trunc)}")


def _number(tok, what, cap=None):
    """int(tok) for ASCII digits up to cap, or for one leading - and ASCII
    digits if cap is None; a ValueError echoes at most 40 characters."""
    digits = tok[1:] if cap is None and tok.startswith("-") else tok
    try:
        if digits.isascii() and digits.isdigit() and (cap is None or int(tok) <= cap):
            return int(tok)
    except ValueError:      # more digits than int() converts
        pass
    raise ValueError(f"bad {what} {_echo(tok)}: need ASCII digits"
                     + ("" if cap is None else f" for an integer in [0, {cap}]"))


def _zeros(n1):
    return np.zeros(n1, dtype=_DT)


def _bits(a, s):
    """The int with bit k*s equal to a[k], for an array of 0s and 1s."""
    m = np.zeros(len(a) * s, dtype=np.uint8)
    m[::s] = a
    return int.from_bytes(np.packbits(m, bitorder="little").tobytes(), "little")


def _table(b):
    """The 256 carry-less products v*b over F_2, v a byte, as rows of bytes,
    for a 0/1 array b: from the pairs (0, b << j), each pass XORs every
    group's high half onto its low half.  A row is ceil(len(b)/8) + 1
    product bytes, then at least 128 zero bytes, 1 mod 8 bytes in all, so
    the table is its own widest gather block."""
    w = ((len(b) + 7) // 8 + 1 + 128 + 7) // 8 * 8 + 1
    x = int.from_bytes(np.packbits(b.astype(np.uint8), bitorder="little").tobytes(), "little")
    table = np.frombuffer(b"".join(bytes(w) + (x << j).to_bytes(w, "little") for j in range(8)), np.uint8)
    for groups in (4, 2, 1):
        t = table.reshape(groups, 2, -1, w)
        table = (t[:, 1, :, None] ^ t[:, 0, None]).reshape(-1, w)
    return table


def _block(table, w, kb):
    """A gather block for the first w output bytes from row bytes in blocks of
    kb: the table's first w columns, then zeros, 1 mod 8 bytes wide, or the
    table itself unless that is over 128 bytes wider.  Its columns past w
    reach only the output bytes past the first w."""
    wg = (w + kb + 7) // 8 * 8 + 1
    if wg + 128 >= table.shape[1]:
        return table
    block = np.zeros((256, wg), dtype=np.uint8)
    block[:, :w] = table[:, :w]
    return block


def _gather(a, table, n1):
    """The first ceil(n1/8) bytes of each bit-packed row of a times b, for
    table = _table(b) (Brent, Gaudry, Thome and Zimmermann 2008): every row
    byte gathers its table row, XOR-reduced in uint64 words, in blocks of
    kb <= 128 row bytes that gather about _BLOCK bytes.  Only the table's
    columns below ceil(n1/8) reach them, so bits of b at or above n1 may be
    anything; so may a row's bits at or above n1."""
    r, na = a.shape
    nout = (n1 + 7) // 8
    kb = min(128, max(8, _BLOCK // (r * min(table.shape[1] - 128, nout))), na)
    block = _block(table, nout, kb)
    out = np.zeros((r, na + block.shape[1]), dtype=np.uint8)
    for k in range(0, na, kb):
        # again without the columns past nout - k once they are half of it
        # and 1024 row bytes remain
        if 2 * (nout - k + kb + 7) < block.shape[1] and r * (na - k) > 1024:
            block = _block(table, nout - k, kb)
        wg = block.shape[1]
        g = np.take(block, a[:, k:k + kb], axis=0)
        # g read with row stride wg - 1: the table row of block byte j lands at offset j
        skew = np.ndarray((r, g.shape[1], wg // 8), np.uint64, g, 0, (g.shape[1] * wg, wg - 1, 8))
        out[:, k:k + wg - 1] ^= np.bitwise_xor.reduce(skew, axis=1).view(np.uint8)
    return out[:, :nout]


def _clmul(rows, b, n1):
    """The first n1 coefficients of each row of a 0/1 array times b over F_2,
    carry-less: pack, one _table of b[:n1], _gather, unpack."""
    a = np.packbits(rows[:, :n1].astype(np.uint8), axis=1, bitorder="little")
    out = _gather(a, _table(b[:n1]), n1)
    return np.unpackbits(out, axis=1, count=n1, bitorder="little").astype(_DT)


def _conv(a, b, p, n1):
    """The first n1 < len(a) + len(b) coefficients of a*b mod p, for arrays of
    canonical residues, or of each row times b for an (r, m) array a.  At
    p = 2, _clmul from _CLMUL coefficients (both operands, each up to its last
    nonzero coefficient).  Otherwise np.convolve, or Kronecker if long or
    rows (m + len(b) - 1 slots apart), in slots that hold n*(p-1)^2, n the
    shorter length: at p = 2 one bit per coefficient in n.bit_length() bits,
    read mod 2 at bit 0; else 16, 32 or 64 bits."""
    rows = a.ndim == 2
    if p == 2 and not rows and len(a) >= _CLMUL <= len(b) and (
            # high zero coefficients make bit slots shorter, not the kernel
            a[_CLMUL - 1:].any() and b[_CLMUL - 1:].any()):
        return _clmul(a[None], b, n1)[0]
    if rows or len(a) >= _KRONECKER <= len(b):     # wider slots only raise the crossover
        n = min(a.shape[-1], len(b))
        if p != 2:
            bound = n * (p - 1) ** 2
            w = 2 if bound < 1 << 16 else 4 if bound < 1 << 32 else 8     # slot bytes
        if p == 2 or rows or n >= _KRONECKER * (w // 2) ** 3:
            dt = np.uint8 if p == 2 else f"<u{w}"
            if rows:        # row i from slot i*(m + len(b) - 1), past its product's end
                r, m = a.shape
                x = np.zeros((r, m + len(b) - 1), dt)
                x[:, :m] = a
                a = x.ravel()
            count = len(a) if rows else n1
            if p == 2:
                s = n.bit_length()
                x = _bits(a, s) * _bits(b, s)
                c = np.frombuffer(x.to_bytes(((len(a) + len(b)) * s + 7) // 8, "little"), np.uint8)
                c = np.unpackbits(c, count=count * s, bitorder="little")[::s]
            else:
                x = int.from_bytes(a.astype(dt, copy=False).tobytes(), "little")
                x *= x if b is a else int.from_bytes(b.astype(dt).tobytes(), "little")
                c = np.frombuffer(x.to_bytes((len(a) + len(b)) * w, "little"), dt, count=count)
            if rows:
                c = c.reshape(r, -1)[:, :n1]
            return (c if p == 2 else c % p).astype(_DT)
    return np.convolve(a, b)[:n1] % p


def _mul(a, b, p):
    """Product in F_p[t]/(t^n1), n1 = len(a): _conv of the operands from
    their valuations to their last nonzero coefficients, of one slice if b is
    a; at p = 2 a square is the spread a(t^2)."""
    n1 = a.shape[0]
    if p == 2 and b is a:
        return _substitute(a, 2, n1)
    ea = a.nonzero()[0]         # exponents of nonzero coefficients
    eb = ea if b is a else b.nonzero()[0]
    out = _zeros(n1)
    if len(ea) and len(eb) and ea[0] + eb[0] < n1:
        v = int(ea[0] + eb[0])
        x = a[ea[0]:min(ea[-1] + 1, n1 - eb[0])]
        y = x if b is a else b[eb[0]:min(eb[-1] + 1, n1 - ea[0])]
        c = _conv(x, y, p, min(n1 - v, len(x) + len(y) - 1))
        out[v:v + len(c)] = c
    return out


def _mul_rows(rows, g, p):
    """rows[i]*g mod t^n1 for each row of an (r, n1) array, by one _conv; a
    single row by a 1-D _conv, or as a multiple of g if it is constant."""
    r, n1 = rows.shape
    if r == 1 and not rows[0, 1:].any():
        return rows[:, :1] * g[:n1] % p
    return _conv(rows if r > 1 else rows[0], g[:n1], p, n1).reshape(r, n1)


def _substitute(a, q, n1):
    """a(t^q) mod t^n1, any q >= 1: a(t)^q when q is a power of p (c^p = c)."""
    out = _zeros(n1)
    out[::q] = a[:(n1 - 1) // q + 1]
    return out


def _ladder(x, k, mul):
    """x^k for k >= 1 by square-and-multiply under mul, from k's lowest set
    bit, so nothing is multiplied by the identity; may return x itself."""
    while not k & 1:
        x, k = mul(x, x), k >> 1
    out = x
    while k := k >> 1:
        x = mul(x, x)
        if k & 1:
            out = mul(out, x)
    return out


def _pow(a, k, p):
    """a^k mod t^n1, maybe a itself, so read-only.  For k >= n1, a^k = 0 if a(0) = 0,
    else k counts mod (p-1)*p^J, p^J >= n1: c^(p-1) = 1, u^(p^J) = u(t^(p^J)) = 1."""
    n1 = a.shape[0]
    if k >= n1:
        if not a[0]:
            return _zeros(n1)
        q = 1
        while q < n1:
            q *= p
        k %= (p - 1) * q
    if k == 0:
        return np.eye(1, n1, dtype=_DT)[0]
    q = 1
    while k % p == 0:     # a^(k*q) is a^k spread q apart
        k, q = k // p, q * p
    out = _ladder(a, k, lambda x, y: _mul(x, y, p))
    return _substitute(out, q, n1) if q > 1 else out


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
        corr = (-_conv(a[:prec], g, p, prec)) % p
        corr[0] = (corr[0] + 2) % p
        g = _conv(g, corr, p, prec)
    return g


def _compose(f, g, p):
    """f[s](g) for each row s of an (r, n1) stack f, by Bernstein's Frobenius
    split one tree level at a time: with f_i = f[i::p], f(g) = sum_{i<p}
    g^i f_i(g)^p, each f_i(g) at precision N//p.  Node k of level K is
    f[k::p^K], in row k*r + s for f[s]: the q*r leaf rows (at most _TWIG
    coefficients, or p^2 > L: the roots alone) are one matrix for the block
    ladder, blocks of m = min(L, isqrt(q*r*L)) coefficients against the rows
    g^0, ..., g^m (g^j one _conv from t^j on, as g(0) = 0), Horner in g^m
    when m < L.  Each level up is p - 1 row products by g, child i into [::p].
    At p = 2, once the top level's r*n1 reaches _CLMUL in rows of at least
    _CLMUL_ROWS, the levels run on bit-packed rows: one _table of g for the
    walk, a level of n coefficients spreads its children by _SPREAD and
    _gathers the odd one by g in ceil(n/8) bytes.  A row's bits at or above n
    are left as they fall, since every later level moves them only higher."""
    r, *lens = f.shape          # lens: the lengths of each level's nodes, from the roots
    while lens[-1] > _TWIG and p * p <= lens[-1]:
        lens.append((lens[-1] - 1) // p + 1)
    n1 = lens.pop()
    q = p ** len(lens)          # leaves per outer series; leaf k of f[s] is f[s, k::q]
    m = max(1, min(n1, math.isqrt(q * r * n1)))     # m ladder products balance n1/m of q*r rows
    pows = _zeros((m + 1, n1))
    pows[0, 0] = 1
    for j in range(1, min(m + 1, n1)):          # g^j = 0 mod t^n1 for j >= n1
        pows[j, j:] = _conv(pows[j - 1, j - 1:-1], g[1:n1 - j + 1], p, n1 - j)
    nb = -(-n1 // m)            # blocks per leaf
    leaves = np.concatenate([f, _zeros((r, q * nb * m - f.shape[1]))], axis=1)
    leaves = leaves.reshape(r, nb * m, q).transpose(2, 0, 1).reshape(q * r, nb * m)
    acc = leaves[:, -m:] @ pows[:m] % p
    for i in reversed(range(nb - 1)):
        acc = (_mul_rows(acc, pows[m], p) + leaves[:, i * m:(i + 1) * m] @ pows[:m]) % p
    if p == 2 and r * f.shape[1] >= _CLMUL and f.shape[1] >= _CLMUL_ROWS:
        table = _table(g)
        acc = np.packbits(acc.astype(np.uint8), axis=1, bitorder="little")
        for n in reversed(lens):
            child = _SPREAD[acc.reshape(2, -1, acc.shape[1])].view(np.uint8)[..., :(n + 7) // 8]
            acc = _gather(child[1], table, n) ^ child[0]
        return np.unpackbits(acc, axis=1, count=lens[0], bitorder="little").astype(_DT)
    for n in reversed(lens):
        child = acc.reshape(p, -1, acc.shape[1])    # child i of row k*r + s: row (i*nodes + k)*r + s
        acc = _zeros((child.shape[1], n))
        acc[:, ::p] = child[p - 1]
        for i in reversed(range(p - 1)):
            acc = _mul_rows(acc, g, p)
            acc[:, ::p] = (acc[:, ::p] + child[i]) % p
    return acc


def _compose_all(fs, g):
    """[f(g) for f in fs] in one tree walk; g(0) must be zero."""
    for f in fs:
        f._check_context(g)
    if g.coeffs[0] != 0:
        raise NonzeroConstant("inner series of a composition must have f(0) = 0")
    return [g._new(c) for c in _compose(np.array([f.coeffs for f in fs]), g.coeffs, g.p)]


def _eliminate(a, p):
    """Reversion by degree-by-degree elimination, about n1 products: the t^n
    coefficient of the running sum of g_k a^k = t pins g_n (pivot a_1^n).
    a^n has valuation n, so each a^n is one _conv from t^n on."""
    n1 = a.shape[0]
    inv_f1 = pow(int(a[1]), -1, p)
    g = _zeros(n1)
    g[1] = inv_f1
    apow = a.copy()                 # a^n as n advances, from t^n on
    acc = (inv_f1 * apow) % p       # sum of g_k a^k over known k, from t^n on
    inv_pow = inv_f1                # 1 / a_1^n
    for n in range(2, n1):
        apow[n:] = _conv(apow[n - 1:-1], a[1:n1 - n + 1], p, n1 - n)
        inv_pow = (inv_pow * inv_f1) % p
        c = int(acc[n])
        if c:
            gn = (-c * inv_pow) % p
            g[n] = gn
            acc[n:] = (acc[n:] + gn * apow[n:]) % p
    return g


def _reversion(a, p):
    """Newton iteration g <- g - (f(g) - t)/f'(g) doubles the correct
    coefficients of g in any characteristic.  No reciprocal: by the chain
    rule, f(g) = t mod t^h gives 1/f'(g) = g' mod t^(h-1), and n1 - h <= h - 1.
    One composition and one product per step; short series: elimination."""
    n1 = a.shape[0]
    if n1 <= _LEAF:
        return _eliminate(a, p)
    h = n1 // 2 + 1
    g = np.concatenate([_reversion(a[:h], p), _zeros(n1 - h)])
    dg = (g[1:n1 - h + 1] * np.arange(1, n1 - h + 1)) % p      # g' mod t^(n1-h)
    # f(g) - t is t^h times f(g)'s tail from t^h
    g[h:] = (g[h:] - _mul(_compose(a[None], g, p)[0, h:], dg, p)) % p
    return g


class Series:
    """Element of F_p[t]/(t^(N+1)) with canonical integer coefficients."""

    __slots__ = ("p", "trunc", "coeffs")

    def __init__(self, p, trunc, coeffs):
        check_prime(p)
        _check_trunc(trunc)
        arr = np.asarray(coeffs)
        if arr.ndim != 1 or arr.shape[0] > trunc + 1:
            raise ValueError(
                f"expected at most {trunc + 1} coefficients, got shape {arr.shape}")
        if arr.dtype.kind not in "bi" and arr.size:  # ints of 64 bits or more, or no ints
            arr = np.asarray([c % p if _is_int(c) else c for c in arr.tolist()])
            if arr.dtype.kind != "i":
                raise ValueError(f"coefficients must be integers, got dtype {arr.dtype}")
        arr = arr.astype(_DT, copy=False) % p
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
        _check_trunc(trunc, 1)
        return cls(p, trunc, (0, 1))

    @classmethod
    def from_terms(cls, p, trunc, terms):
        """Build from {exponent: coefficient} (or an iterable of pairs)."""
        items = terms.items() if hasattr(terms, "items") else terms
        check_prime(p)
        _check_trunc(trunc)
        arr = _zeros(trunc + 1)
        for e, c in items:
            try:
                e, c = index(e), index(c)
            except TypeError:
                raise ValueError(f"terms must be int pairs, got {_echo(e)}: {_echo(c)}") from None
            if not 0 <= e <= trunc:
                raise ValueError(f"exponent {_echo(e)} outside [0, {trunc}]")
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
            raise IndexError(f"exponent {_echo(e)} outside [0, {self.trunc}]")
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
        if _is_int(other):
            arr = self.coeffs.copy()
            arr[0] = (arr[0] + other % self.p) % self.p
            return self._new(arr)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._new((-self.coeffs) % self.p)

    def __sub__(self, other):
        if isinstance(other, Series):
            self._check_context(other)
            return self._new((self.coeffs - other.coeffs) % self.p)
        if _is_int(other):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if _is_int(other):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Series):
            self._check_context(other)
            return self._new(_mul(self.coeffs, other.coeffs, self.p))
        if _is_int(other):
            return self._new((self.coeffs * (other % self.p)) % self.p)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        if not _is_int(k):
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
        return _compose_all([self], other)[0]

    __call__ = compose

    def reversion(self):
        """Compositional inverse: g with self(g) = g(self) = t."""
        if self.trunc < 1 or self.coeffs[0] != 0 or self.coeffs[1] == 0:
            raise NotInvertible("compositional inverse needs f(0) = 0 and f_1 != 0")
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
            power = _substitute(power, 2, n1)
        return self._new(s)

    def nth_root(self, m):
        """The unique u with u(0) = 1 and u^m = self, for gcd(m, p) = 1.

        Newton doubling from u = 1, valid as m is a unit mod p: each step
        u <- u + (self/u^(m-1) - u)/m doubles the precision of the root.
        """
        if not _is_int(m) or m < 1:
            raise ValueError(f"root index must be a positive int, got {_echo(m)}")
        if m % self.p == 0:
            raise NotCoprime(f"root index {_echo(m)} is divisible by p = {self.p}")
        if self.coeffs[0] != 1:
            raise BadRoot("m-th roots are extracted from unit series with f(0) = 1")
        if m == 1:
            return self
        p, n1 = self.p, self.trunc + 1
        inv_m = pow(m % p, -1, p)
        u = np.ones(1, dtype=_DT)
        while u.shape[0] < n1:
            u = np.concatenate([u, _zeros(min(u.shape[0], n1 - u.shape[0]))])
            q = _mul(self.coeffs[:u.shape[0]], _reciprocal(_pow(u, m - 1, p), p), p)
            u = (u + inv_m * (q - u)) % p
        return self._new(u)

    # ------------------------------------------------------------------
    # precision

    def truncate(self, new_trunc):
        """The same series in F_p[t]/(t^(M+1)) for M <= N."""
        if not _is_int(new_trunc):
            raise ValueError(f"truncation order must be an int, got {_echo(new_trunc)}")
        if new_trunc < 0 or new_trunc > self.trunc:
            raise BadTruncation(
                f"cannot truncate from N={self.trunc} to N={_echo(new_trunc)}")
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
        """Parse the to_text() encoding; raises ValueError on malformed input.
        Numbers are ASCII digits, and a coefficient may have one leading -."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 2:
            raise ValueError("expected exactly two non-empty lines")
        head = lines[0].split()
        if len(head) != 2 or not head[0].startswith("p=") or not head[1].startswith("N="):
            raise ValueError("the header must be p=<p> N=<N>")
        p = _number(head[0][2:], "characteristic", PRIME_CAP)
        trunc = _number(head[1][2:], "truncation order", MAX_TRUNC)
        data = lines[1].split()
        if data == ["0"]:
            return cls(p, trunc, ())
        terms = {}
        last = -1
        for tok in data:
            e_str, _, c_str = tok.partition(":")
            e = _number(e_str, "exponent", trunc)
            if e <= last:
                raise ValueError("exponents must be strictly ascending")
            last = e
            terms[e] = _number(c_str, "coefficient")
        return cls.from_terms(p, trunc, terms)
