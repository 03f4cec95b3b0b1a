"""Truncated formal power series over F_p.

A Series is an element of F_p[t]/(t^(N+1)): it carries its characteristic
p, its truncation order N (the largest retained exponent) and exactly N+1
coefficients, stored as canonical residues in an immutable int64 numpy
array.  Exponents above N are unknown, never assumed zero, so mixing
precisions is an error rather than an implicit coercion, and truncating is
the only way to lower precision.

All arithmetic is exact integer arithmetic; nothing here touches floating
point.  A product is one _conv, on the path _route names from the shorter
operand's length n: an int64 convolution, Kronecker substitution (_pack, one
big-int product, _unpack; slots of n.bit_length() bits at p = 2, else of 16,
32 or 64) or, at p = 2, a carry-less byte-table kernel (_table, then
_gather).  Over F_p, f(t)^p = f(t^p) is a spread, which powers, p = 2 squares,
Artin-Schreier roots and composition's ladder (g^(p*i) = g^i(t^p)) use.
Composition is Bernstein's Frobenius split, O(p*M(N)*log_p N) for M(N) one
product's cost, a tree level at a time, for a stack of outer series at once:
a block ladder evaluates all leaves (at most _TWIG coefficients) as rows of
a matrix, and each level is one _horner chain, p - 1 row products by g
packed once: int64 rows packed each step, p = 2 bits kept in their slots (on
bit-packed rows and a byte table of g if _route gives the top level the
kernel).  Reciprocals, m-th roots (_inv_root) and reversion are Newton
doubling, reversion down to _LEAF coefficients, which solve a triangular
system in _powers' rows.

Values are immutable after construction and every operation is a pure
function of its inputs, so Series objects are safe to share across threads.
Series(p, N, coeffs), from_terms and from_text check a caller's input once;
an array the library built becomes a Series through _series, unchecked.
"""

import math
import sys
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
_LEAF = 32      # series this short revert by a triangular solve
# _route's crossovers (2-vCPU Xeon): Kronecker overtakes np.convolve from _KRONECKER,
# the p = 2 byte-table kernel bit slots from _CLMUL; it gathers ~_BLOCK bytes at a time.
_KRONECKER = 80
_CLMUL = 640
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
        raise ValueError(f"bad {what} {_echo(tok)}: over {sys.get_int_max_str_digits()} digits") from None
    raise ValueError(f"bad {what} {_echo(tok)}: need ASCII digits"
                     + ("" if cap is None else f" for an integer in [0, {cap}]"))


def _zeros(n1):
    return np.zeros(n1, dtype=_DT)


def _red(x, p, out=None):
    """An int array mod p, into out if given: at p = 2 the mask x & 1, which
    is x % 2 in two's complement.  The one array reduction here."""
    return np.bitwise_and(x, 1, out=out) if p == 2 else np.remainder(x, p, out=out)


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
    out = np.zeros((r, na + block.shape[1]), dtype=np.uint8) if kb < na else None
    for k in range(0, na, kb):
        # again without the columns past nout - k once they are half of it
        # and 1024 row bytes remain
        if 2 * (nout - k + kb + 7) < block.shape[1] and r * (na - k) > 1024:
            block = _block(table, nout - k, kb)
        wg = block.shape[1]
        g = np.take(block, a[:, k:k + kb], axis=0)
        # g read with row stride wg - 1: the table row of block byte j lands at offset j
        skew = np.ndarray((r, g.shape[1], wg // 8), np.uint64, g, 0, (g.shape[1] * wg, wg - 1, 8))
        words = np.bitwise_xor.reduce(skew, axis=1).view(np.uint8)
        if out is None:     # one block: its gather is the product
            return words[:, :nout]
        out[:, k:k + wg - 1] ^= words
    return out[:, :nout]


def _clmul(rows, b, n1):
    """The first n1 coefficients of each row of a 0/1 array times b over F_2,
    carry-less: pack, one _table of b[:n1], _gather, unpack."""
    a = np.packbits(rows[:, :n1].astype(np.uint8), axis=1, bitorder="little")
    out = _gather(a, _table(b[:n1]), n1)
    return np.unpackbits(out, axis=1, count=n1, bitorder="little").astype(_DT)


def _route(p, n, rows=False):
    """_conv's path for a shorter operand of n coefficients: 0 np.convolve, -1
    the byte-table kernel _clmul (p = 2 from _CLMUL, never rows), else
    Kronecker in slots of that many bits holding n*(p-1)^2 (n.bit_length() at
    p = 2, else w = 16, 32, 64): rows always, else from _KRONECKER*(w/16)^3."""
    if p == 2:
        return -1 if n >= _CLMUL and not rows else n.bit_length() if rows or n >= _KRONECKER else 0
    bound = n * (p - 1) ** 2
    w = 16 if bound < 1 << 16 else 32 if bound < 1 << 32 else 64
    return w if rows or n >= _KRONECKER * (w // 16) ** 3 else 0


def _conv(a, b, p, n1):
    """The first n1 < len(a) + len(b) coefficients of a*b mod p, for arrays of
    canonical residues, by the path _route names, the kernel's only if
    operands cut at their last 1s still take it: high zeros shorten bit slots
    but not the kernel's work, and _inv_root passes a uncut, two coefficients
    for klopsch_rep's 1 - a*x at p = 2."""
    # _route's 0, inline: most products are short
    s = _route(p, min(len(a), len(b))) if len(a) >= _KRONECKER <= len(b) else 0
    if s < 0:       # x[::-1].argmax() finds the last 1 of p = 2 residues, if any
        last = [len(x) - 1 - int(x[::-1].argmax()) for x in (a, b)]
        if a[last[0]] and b[last[1]] and _route(p, 1 + min(last)) < 0:
            return _clmul(a[None], b, n1)[0]
        s = _route(p, min(len(a), len(b)), True)      # a row product's bit slots
    if not s:
        return _red(np.convolve(a, b)[:n1], p)
    x = _pack(a, s, p)
    c = _unpack(x * (x if b is a else _pack(b, s, p)), s, p, n1)
    return _red(c, p).astype(_DT)


def _pack(a, s, p):
    """Kronecker substitution: the int with the residues of a, rows end to
    end, in s-bit slots; at p = 2 by packbits of one uint8 per bit."""
    if p != 2:
        return int.from_bytes(a.astype(f"<u{s // 8}", copy=False).tobytes(), "little")
    m = np.zeros(a.shape + (s,), np.uint8)
    m[..., 0] = a
    return int.from_bytes(np.packbits(m, bitorder="little").tobytes(), "little")


def _unpack(x, s, p, count):
    """The first count s-bit slots of the int x, in the slot dtype; at p = 2 their low bits."""
    c = x.to_bytes((max(x.bit_length(), count * s) + 7) // 8, "little")
    return (np.unpackbits(np.frombuffer(c, np.uint8), count=count * s, bitorder="little")[::s] if p == 2
            else np.frombuffer(c, f"<u{s // 8}", count=count))


def _horner(terms, b, p, n1, at=slice(None)):
    """Horner by b mod t^n1 on r rows: v[:, at] is the first (r, k) array of
    residues in terms, then v <- v*b and v[:, at] += x mod p for each next x;
    returns v.  Rows sit n1 + len(b) - 1 slots apart in acc: uint8 bits kept
    in their slots if _route gives p = 2 bit slots, else int64 residues,
    packed by _pack each step (np.convolve for one row _route gives it)."""
    first = next(terms := iter(terms))
    r, b = len(first), b[:n1]
    s = _route(p, n1, True) if r > 1 or _route(p, n1) else 0
    w, y, bits = n1 + len(b) - 1, s and _pack(b, s, p), p == 2 and s
    acc = np.zeros((r, w, s), np.uint8) if bits else _zeros((r, w))
    v = (acc[..., 0] if bits else acc)[:, :n1]
    va = v[:, at]
    va[:] = first
    for x in terms:
        if not s:
            v[0] = np.convolve(v[0], b)[:n1]
        else:
            z = (int.from_bytes(np.packbits(acc, bitorder="little"), "little") if bits
                 else _pack(acc, s, p))
            v[:] = _unpack(z * y, s, p, r * w).reshape(r, w)[:, :n1]
        if bits:        # bits: no sum to reduce
            va ^= x.astype(np.uint8, copy=False)
        else:           # int64 holds the product's slots plus x: one reduction
            va += x
            _red(v, p, out=v)
    return v


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


def _period(p, n1):
    """The least p^J >= n1: mod t^n1, u^(p^J) = 1 if u(0) = 1, and f^(p^J) = t in the group."""
    q = 1
    while q < n1:
        q *= p
    return q


def _pow(a, k, p):
    """a^k mod t^n1, maybe a itself, so read-only.  For k >= n1, a^k = 0 if a(0) = 0,
    else k counts mod (p-1)*p^J, p^J >= n1: c^(p-1) = 1, u^(p^J) = u(t^(p^J)) = 1.
    Then by base-p digits: a^(d + p*k) = a^d * (a^k mod t^ceil(n1/p))(t^p), d < p."""
    n1 = a.shape[0]
    if k >= n1:
        if not a[0]:
            return _zeros(n1)
        k %= (p - 1) * _period(p, n1)
    d = k % p
    if k < p:
        return _ladder(a, d, lambda x, y: _mul(x, y, p)) if d else np.eye(1, n1, dtype=_DT)[0]
    rest = _substitute(_pow(a[:(n1 - 1) // p + 1], k // p, p), p, n1)
    return _mul(_ladder(a, d, lambda x, y: _mul(x, y, p)), rest, p) if d else rest


def _inv_root(a, m, p):
    """a^(-1/m) mod t^n1, n1 = len(a), u(0) = 1/a(0), for m a unit mod p and
    a(0) = 1 if m > 1, by Newton (Brent and Kung 1978) in one array u of n1
    zeros from u mod t^h, h = ceil(n1/2), in u[:h]: a*u^m = 1 + t^h*e, and u
    gains -(u*e mod t^(n1-h))/m in u[h:]."""
    n1 = a.shape[0]
    if n1 == 1:
        if not a[0]:
            raise NotAUnit("series with zero constant term has no reciprocal")
        return np.array([pow(int(a[0]), -1, p)], dtype=_DT)
    h = (n1 + 1) // 2
    u = _zeros(n1)
    u[:h] = _inv_root(a[:h], m, p)
    e = _conv(a, _pow(u, m, p) if m > 1 else u[:h], p, n1)[h:]
    u[h:] = _red(-pow(m % p, -1, p) * _conv(e, u[:n1 - h], p, n1 - h), p)
    return u


def _powers(g, m, p, n1):
    """The rows g^0, ..., g^m mod t^n1 for g(0) = 0, rows j >= n1 zero: g^j
    is one _conv from t^j on, or the spread g^(j/p)(t^p) if p divides j."""
    pows = _zeros((m + 1, n1))
    pows[0, 0] = 1
    for j in range(1, min(m + 1, n1)):
        if j % p:
            pows[j, j:] = _conv(pows[j - 1, j - 1:-1], g[1:n1 - j + 1], p, n1 - j)
        else:
            pows[j, ::p] = pows[j // p, :(n1 - 1) // p + 1]
    return pows


def _compose(f, g, p):
    """f[s](g) for each row s of an (r, n1) stack f, by Bernstein's Frobenius
    split one tree level at a time: with f_i = f[i::p], f(g) = sum_{i<p}
    g^i f_i(g)^p, each f_i(g) at precision N//p.  Node k of level K is
    f[k::p^K], in row k*r + s for f[s]: the q*r leaf rows (at most _TWIG
    coefficients, or p^2 > L: the roots alone) are one matrix for the block
    ladder, blocks of m = min(L, isqrt(q*r*L)) against the _powers g^0,
    ..., g^m, _horner in g^m when m < L.  Each level up is _horner by g,
    child i into [::p]; if _route gives the top level's r*n1 coefficients the
    kernel, the levels run on bit-packed rows and one _table of g: a level of
    n coefficients spreads its children by _SPREAD and _gathers the odd one
    in ceil(n/8) bytes, leaving a row's bits at or above n, which later
    levels only raise."""
    r, *lens = f.shape          # lens: the lengths of each level's nodes, from the roots
    while lens[-1] > _TWIG and p * p <= lens[-1]:
        lens.append((lens[-1] - 1) // p + 1)
    n1 = lens.pop()
    q = p ** len(lens)          # leaves per outer series; leaf k of f[s] is f[s, k::q]
    m = min(n1, math.isqrt(q * r * n1))     # m ladder products balance n1/m of q*r rows
    pows = _powers(g, m, p, n1)
    nb = -(-n1 // m)            # blocks per leaf
    leaves = np.concatenate([f, _zeros((r, q * nb * m - f.shape[1]))], axis=1)
    leaves = leaves.reshape(r, nb * m, q).transpose(2, 0, 1).reshape(q * r, nb * m)
    blocks = (_red(leaves[:, i * m:(i + 1) * m] @ pows[:m], p) for i in reversed(range(nb)))
    acc = _horner(blocks, pows[m], p, n1) if nb > 1 else next(blocks)
    if _route(p, r * f.shape[1]) < 0:
        table = _table(g)
        acc = np.packbits(acc.astype(np.uint8), axis=1, bitorder="little")
        for n in reversed(lens):
            child = _SPREAD[acc.reshape(2, -1, acc.shape[1])].view(np.uint8)[..., :(n + 7) // 8]
            acc = _gather(child[1], table, n) ^ child[0]
        return np.unpackbits(acc, axis=1, count=lens[0], bitorder="little").astype(_DT)
    for n in reversed(lens):        # child i of row k*r + s: row (i*nodes + k)*r + s
        acc = _horner(acc.reshape(p, -1, acc.shape[1])[::-1], g, p, n, np.s_[::p])
    return acc.astype(_DT)


def _compose_all(fs, g):
    """[f(g) for f in fs] in one tree walk; g(0) must be zero."""
    for f in fs:
        f._check_context(g)
    if g.coeffs[0] != 0:
        raise NonzeroConstant("inner series of a composition must have f(0) = 0")
    return [_series(g.p, c) for c in _compose(np.array([f.coeffs for f in fs]), g.coeffs, g.p)]


def _reversion(a, p):
    """Newton iteration g <- g - (f(g) - t)/f'(g) doubles the correct
    coefficients of g in any characteristic.  No reciprocal: by the chain
    rule, f(g) = t mod t^h gives 1/f'(g) = g' mod t^(h-1), and n1 - h <= h - 1.
    One composition and one product per step.  Short series solve sum_k g_k
    a^k = t, triangular in the _powers a^0..a^(n1-2): from n = 1, g_n pins
    t^n's coefficient [n = 1], pivot a_1^n, the rest an exact int64 dot product."""
    n1 = a.shape[0]
    if n1 <= _LEAF:
        pows, g = _powers(a, n1 - 2, p, n1), _zeros(n1)
        inv_f1, inv_pow = pow(int(a[1]), -1, p), 1
        for n in range(1, n1):
            inv_pow = inv_pow * inv_f1 % p      # 1 / a_1^n
            g[n] = ((n == 1) - int(g[:n] @ pows[:n, n])) * inv_pow % p
        return g
    h = n1 // 2 + 1
    g = _zeros(n1)
    g[:h] = _reversion(a[:h], p)
    dg = _red(g[1:n1 - h + 1] * np.arange(1, n1 - h + 1), p)   # g' mod t^(n1-h)
    # f(g) - t is t^h times f(g)'s tail from t^h
    g[h:] = _red(-_mul(_compose(a[None], g, p)[0, h:], dg, p), p)
    return g


def _series(p, arr):
    """The Series of arr at N = len(arr) - 1, unchecked: arr is an int64
    array of residues mod p that the library built and no one writes again."""
    s = Series.__new__(Series)
    arr.flags.writeable = False
    s.p, s.trunc, s.coeffs = p, len(arr) - 1, arr
    return s


class Series:
    """Element of F_p[t]/(t^(N+1)) with canonical integer coefficients."""

    __slots__ = ("p", "trunc", "coeffs")

    def __init__(self, p, trunc, coeffs):
        check_prime(p)
        _check_trunc(trunc)
        arr = np.asarray(coeffs)
        if arr.ndim != 1 or arr.shape[0] > trunc + 1:
            raise ValueError(f"expected a 1-D sequence of at most {trunc + 1} coefficients,"
                             f" got {type(coeffs).__name__} of shape {arr.shape}")
        if arr.dtype.kind not in "bi" and arr.size:  # ints of 64 bits or more, or no ints
            arr = np.asarray([c % p if _is_int(c) else c for c in arr.tolist()])
            if arr.dtype.kind != "i":
                raise ValueError(f"coefficients must be integers, got dtype {arr.dtype}")
        out = _zeros(trunc + 1)
        _red(arr.astype(_DT, copy=False), p, out=out[:len(arr)])
        out.flags.writeable = False
        self.p, self.trunc, self.coeffs = p, trunc, out

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
        """Build from {exponent: coefficient} or an iterable of pairs, each exponent once."""
        items = terms.items() if hasattr(terms, "items") else terms
        check_prime(p)
        _check_trunc(trunc)
        arr = _zeros(trunc + 1)
        seen = set()
        for item in items:
            try:
                e, c = map(index, item)
            except (TypeError, ValueError):     # not a pair, or not ints
                raise ValueError(f"terms must be int pairs, got {_echo(item)}") from None
            if not 0 <= e <= trunc:
                raise ValueError(f"exponent {_echo(e)} outside [0, {trunc}]")
            if e in seen:
                raise ValueError(f"exponent {e} given twice")
            seen.add(e)
            arr[e] = c % p
        return _series(p, arr)

    # ------------------------------------------------------------------
    # basic queries

    def _check_context(self, other):
        if not isinstance(other, Series):
            raise TypeError(f"expected a Series, got {type(other).__name__}")
        if self.p != other.p or self.trunc != other.trunc:
            raise MismatchedContext(
                f"(p={self.p}, N={self.trunc}) vs (p={other.p}, N={other.trunc})")

    def __getitem__(self, e):
        if not _is_int(e) or not 0 <= e <= self.trunc:
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
            if len(terms) == 10:        # an 11th term: left out
                terms.append("...")
                break
            c = int(self.coeffs[e])
            if e == 0:
                terms.append(str(c))
            else:
                var = "t" if e == 1 else f"t^{e}"
                terms.append(var if c == 1 else f"{c}*{var}")
        body = " + ".join(terms) if terms else "0"
        return f"Series(p={self.p}, N={self.trunc}; {body})"

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if isinstance(other, Series):
            self._check_context(other)
            return _series(self.p, _red(self.coeffs + other.coeffs, self.p))
        if _is_int(other):
            arr = self.coeffs.copy()
            arr[0] = (arr[0] + other % self.p) % self.p
            return _series(self.p, arr)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _series(self.p, _red(-self.coeffs, self.p))

    def __sub__(self, other):
        if isinstance(other, Series) or _is_int(other):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if _is_int(other):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Series):
            self._check_context(other)
            return _series(self.p, _mul(self.coeffs, other.coeffs, self.p))
        if _is_int(other):
            return _series(self.p, _red(self.coeffs * (other % self.p), self.p))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        """self^k for an int k >= 0 in O(log p) full products, by _pow: above N,
        k counts mod (p-1)*p^J, p^J > N, or self^k = 0 if self(0) = 0."""
        if not _is_int(k):
            return NotImplemented
        if k < 0:
            raise ValueError("negative powers: take reciprocal() first")
        return _series(self.p, _pow(self.coeffs, k, self.p))

    def reciprocal(self):
        """The unique g with self*g = 1; requires a unit constant term."""
        return _series(self.p, _inv_root(self.coeffs, 1, self.p))

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
        return _series(self.p, _reversion(self.coeffs, self.p))

    # ------------------------------------------------------------------
    # characteristic-p root extraction

    def artin_schreier_root(self):
        """The unique s with s(0) = 0 and s^2 + s = self (characteristic 2).

        Over F_2, s^2 = s(t^2), so s = self + s(t^2), solved in place from
        s = self: once s[:2k] is final, s[2k:4k:2] ^= s[k:2k] makes s[:4k]
        final: one slice XOR for each k = 1, 2, 4, ... with 2k <= N, O(N) in all.
        """
        if self.p != 2:
            raise WrongCharacteristic("s^2 + s = f solvable this way only for p = 2")
        if self.coeffs[0] != 0:
            raise NonzeroConstant("right-hand side must have constant term zero")
        s, k = self.coeffs.copy(), 1
        while (even := s[2 * k:4 * k:2]).size:
            even ^= s[k:k + len(even)]
            k *= 2
        return _series(self.p, s)

    def nth_root(self, m):
        """The unique u with u(0) = 1 and u^m = self, for gcd(m, p) = 1.

        The reciprocal of self^(-1/m): two passes of _inv_root, valid as m
        is a unit mod p.
        """
        if not _is_int(m) or m < 1:
            raise ValueError(f"root index must be a positive int, got {_echo(m)}")
        if m % self.p == 0:
            raise NotCoprime(f"root index {_echo(m)} is divisible by p = {self.p}")
        if self.coeffs[0] != 1:
            raise BadRoot("m-th roots are extracted from unit series with f(0) = 1")
        if m == 1:
            return self
        return _series(self.p, _inv_root(_inv_root(self.coeffs, m, self.p), 1, self.p))

    # ------------------------------------------------------------------
    # precision

    def truncate(self, new_trunc):
        """The same series in F_p[t]/(t^(M+1)) for M <= N."""
        if not _is_int(new_trunc):
            raise ValueError(f"truncation order must be an int, got {_echo(new_trunc)}")
        if new_trunc < 0 or new_trunc > self.trunc:
            raise BadTruncation(
                f"cannot truncate from N={self.trunc} to N={_echo(new_trunc)}")
        return _series(self.p, self.coeffs[:new_trunc + 1].copy())    # pins no long parent

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
        if not isinstance(text, str):
            raise TypeError(f"expected a str, got {type(text).__name__}")
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 2:
            raise ValueError("expected exactly two non-empty lines")
        head = lines[0].split()
        if len(head) != 2 or not head[0].startswith("p=") or not head[1].startswith("N="):
            raise ValueError("the header must be p=<p> N=<N>")
        p = check_prime(_number(head[0][2:], "characteristic", PRIME_CAP))
        trunc = _number(head[1][2:], "truncation order", MAX_TRUNC)
        data = lines[1].split()
        arr, last = _zeros(trunc + 1), -1
        for tok in [] if data == ["0"] else data:
            e_str, _, c_str = tok.partition(":")
            e = _number(e_str, "exponent", trunc)
            if e <= last:
                raise ValueError("exponents must be strictly ascending")
            last = e
            arr[e] = _number(c_str, "coefficient") % p
        return _series(p, arr)
