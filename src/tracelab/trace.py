"""Trace polynomials of words evaluated on SL(2) generator pairs.

For x, y in SL(2) over any commutative ring, the trace of a word w(x, y)
is an integer polynomial f_w(s, u, t) in the three coordinates s = tr x,
u = tr xy, t = tr y.  The engine computes f_w as the trace of a product.
The algebra generated by two generic SL(2) matrices X, Y is free of rank
4 over Z[s, u, t], with basis 1, X, Y, XY (Fricke; Horowitz, "Characters
of free groups represented in the two-dimensional special linear group",
CPAM 25, 1972), and the relations

    X^2 = sX - 1,   Y^2 = tY - 1,
    YX = sY + tX - XY + u - st,   XYX = uX + Y - t

multiply any a + bX + cY + dXY on the right by X or Y with monomial
shifts and additions alone (X^-1 = s - X, Y^-1 = t - Y).  The trace of
a + bX + cY + dXY is 2a + sb + tc + ud.  A block enters whole: by
Cayley-Hamilton x^e = V_e(s) X - V_(e-1)(s) and x^-e = V_(e+1)(s) -
V_e(s) X, with V_e ``unipoly``'s Chebyshev polynomials, whose closed-form
coefficients come in one pass, and likewise in t.  So a word of n blocks
costs n products by blocks, each linear in the size of the running
product and in the block's exponent.

When f_w's coefficients provably fit in 64 bits, the product runs on
integers (Kronecker substitution; Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic
Comput. 44, 2009), graded so that each component fills a quarter of the
plain (x+1)(r+1)(y+1) slot box.  The relations are invariant under
x -> -x, which sends s, u, X to -s, -u, -X and a prefix of exponent sum
A' on x to (-1)^A' times itself, so every s^i u^j t^k of a, b, c, d has
i + j = A' + (0, 1, 0, 1) mod 2; y -> -y gives j + k = B' + (0, 0, 1, 1).
With s, u, X and XY of weight 1 and t, Y of weight 0, a basis element
times X or X^-1 has weight at most its own plus 1 (XY * X = uX + Y - t)
and times Y or Y^-1 at most its own, so a prefix with x' letters on x
has i + j <= x' in every component and f_w has i + j <= x; weights on t,
u, Y and XY give j + k <= y (Horowitz's filtration).  So a key with x
and y letters on x and y and r syllables puts s^i u^j t^k of a component
of parities alpha, beta in the W-bit slot m + j*S + n*S*U, m = (i + j -
alpha)/2, n = (k + j - beta)/2, S = x//2 + 1 and U = r + 1, and f_w's
support lies in the S x U x (y//2 + 1) box.  Each component is one
Python int, and a table entry (source, s^a u^b t^c, c) one
``o += c * (v << shift)``, by (alpha + a + b)//2 slots in m, b in j and
(beta + b + c)//2 in n, alpha and beta the source's (``_graded``): the
entries are graded as the relations are, so each step commutes with the
slot map.  Only f_w is decoded, exactly although a component's slots may
overlap: f_w's support lies in the box and its coefficients in
(-2^(W-1), 2^(W-1)), so its balanced base-2^W digits are unique.

The bound is carried per component.  With N[i][j] the sum of |c| over a
block's entries from source j to target i, coefficients of component j
at most B_j in absolute value before the block give coefficients of
component i at most (N B)_i after it.  So B <- N B from 1 = (1, 0, 0, 0)
bounds a, b, c, d, and 2 B_a + B_b + B_c + B_d bounds f_w, never above
the scalar bound 5 * prod growth(block), growth N's largest row sum.
The slot width W is the fewest whole bytes with the bound below
2^(W-1), W = 8 * (bound.bit_length() // 8 + 1).  A key with the bound
below 2^63 takes the packed path, at W <= 64; every other key, such as
x^100 y, takes the product over packed-key dicts, where a shift copies
only the terms there are.  Both paths share one table per block.

Whole words are memoized on a normal form invariant under rotation and
inversion, which keep the trace; a proper power v^k, cut at its least
period as in ``proper_power_root``, is traced as D_k(f_v), its entry
linked to v's.  An entry holds f_w, its u-degree, gcd(A, B) and the row
of verdicts ``decompose`` reads off them, evicted with f_w, and builds
f_w on its first read (``_WordEntry``), so a verdict that reads no f_w
costs no product.  A word past the a-priori size bound
``MAX_TRACE_SIZE``, or a product past the work bound ``MAX_TRACE_WORK``
(for a proper power, the root's product and then the D_k recurrence), is
refused with ValueError before that work.  The test suite's oracles
evaluate the word on explicit matrices and run the classical Fricke
recursion; f_w must agree with both, on either path.

Writing a canonical word as x^a1 y^b1 ... x^ar y^br, the expansion
f_w = sum_k u^k G_k(s, t) stops exactly at k = r, and the single-syllable
polynomials f_{x^a y^b} = u*g_{a,b} + h_{a,b} are the building blocks of
the leading coefficient G_r = prod_i g_{a_i,b_i}.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .tripoly import _SH_S, _SH_U, TriPoly, _unpack
from .unipoly import _chebyshev_terms, dickson_apply
from .words import Block, Word, X, Y, _cyclic_reduce, _exponent_sums, _invert, _period, canonicalize

_TWO = TriPoly.const(2)

# packed monomial keys of s, u and t (see ``tripoly``): a product adds keys
_KS, _KU, _KT = 1 << _SH_S, 1 << _SH_U, 1

# A-priori bounds past which a word is refused, in machine words (see
# ``_size_bound`` and ``_work_bound``): near them the slowest words take
# about a minute or a few hundred MB.  The size bound also keeps every
# degree below the packed keys' 32767: x^32768 alone has size 32769 * 513.
MAX_TRACE_WORK = 4 * 10**8
MAX_TRACE_SIZE = 10**7
_SIZE, _WORK = "f_w may take {:.1e} machine words", "its product may take {:.1e} machine-word operations"

# Entries the word memo keeps.  The classify stream of 1500 requests
# traces about 940 distinct words, so it evicts nothing.
_MEMO_BOUND = 2048

# f_w's coefficients must lie in (-2^63, 2^63) to take the packed path,
# whose slots are at most 64 bits wide (see ``_decode_slots``)
_SLOT_BOUND = 1 << 63


def _canonical_cyclic(blocks: Tuple[Block, ...]) -> Tuple[Block, ...]:
    """Least rotation of a cyclically reduced block sequence or its inverse.

    A core of two or more blocks alternates generators around the cycle,
    and so does its inverse; blocks compare as (gen, exp) with X = 0 < Y =
    1, so only the rotations that start on an x-block are compared.
    """
    best = None
    for seq in (blocks, _invert(blocks)):
        start = 1 if len(seq) > 1 and seq[0][0] == Y else 0
        for i in range(start, len(seq), 2):
            cand = seq[i:] + seq[:i]
            if best is None or cand < best:
                best = cand
    return best


def _combine(vec, parts) -> dict:
    """The sum of c * m * vec[i] over (i, key, c) parts, m the monomial of the packed key.

    Zeros are dropped; one part is a shifted copy and has none.
    """
    (i, shift, c), *rest = parts
    out = {key + shift: c * v for key, v in vec[i].items()}
    if not rest:
        return out
    get = out.get
    for i, shift, c in rest:
        for key, v in vec[i].items():
            key += shift
            out[key] = get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


# Right multiplication by X or by Y, as (target, source, monomial key,
# coefficient) entries on the components a, b, c, d, from the relations
# in the module docstring:
#   (a + bX + cY + dXY) X = (-b + uc - stc - td) + (a + sb + tc + ud) X + (sc + d) Y - c XY
#   (a + bX + cY + dXY) Y = -c - d X + (a + tc) Y + (b + td) XY
_LETTER = {
    X: (
        (0, 1, 0, -1), (0, 2, _KU, 1), (0, 2, _KS + _KT, -1), (0, 3, _KT, -1),
        (1, 0, 0, 1), (1, 1, _KS, 1), (1, 2, _KT, 1), (1, 3, _KU, 1),
        (2, 2, _KS, 1), (2, 3, 0, 1),
        (3, 2, 0, -1),
    ),
    Y: ((0, 2, 0, -1), (1, 3, 0, -1), (2, 0, 0, 1), (2, 2, _KT, 1), (3, 1, 0, 1), (3, 3, _KT, 1)),
}


def _block_table(g: int, e: int):
    """Right multiplication by g^e = alpha + beta*g, as each component's (source, key, coefficient) list.

    Cayley-Hamilton gives alpha = -V_(e-1)(z), beta = V_e(z) for e > 0 and
    alpha = V_(|e|+1)(z), beta = -V_|e|(z) for e < 0, z = tr g; equal
    (target, source, key) entries are merged, so g^-1 = z - g costs less
    than z times a copy plus a product by g.
    """
    z = _KS if g == X else _KT
    n = abs(e)
    sign = 1 if e > 0 else -1
    entries: dict = {}
    for k, c in _chebyshev_terms(n - 1 if e > 0 else n + 1):
        for i in range(4):
            entries[i, i, k * z] = entries.get((i, i, k * z), 0) - sign * c
    for k, c in _chebyshev_terms(n):
        for target, source, key, c2 in _LETTER[g]:
            at = (target, source, k * z + key)
            entries[at] = entries.get(at, 0) + sign * c * c2
    table = ([], [], [], [])
    for (target, source, key), c in entries.items():
        if c:
            table[target].append((source, key, c))
    return table


def _norms(table) -> tuple:
    """N[target][source], the sum of |c| over the table's entries from source to target, row by row."""
    norms = [0] * 16
    for target, parts in enumerate(table):
        for source, _, c in parts:
            norms[4 * target + source] += abs(c)
    return tuple(norms)


# the parities that a, b, c, d add to the prefix's A' in i + j and to its B' in j + k
_ODD_S, _ODD_T = (0, 1, 0, 1), (0, 0, 1, 1)


def _graded(table) -> tuple:
    """The table's (source, m-step, j-step, n-step, c) rows after a prefix of parities pa, pb, at index 2 * pa + pb.

    A source of parities alpha, beta moves (alpha + a + b)//2 slots in m,
    b in j and (beta + b + c)//2 in n under s^a u^b t^c (module docstring).
    """
    out = []
    for pa, pb in ((0, 0), (0, 1), (1, 0), (1, 1)):
        rows = tuple([] for _ in table)
        for row, parts in zip(rows, table):
            for source, key, c in parts:
                a, b, k = _unpack(key)
                alpha, beta = pa ^ _ODD_S[source], pb ^ _ODD_T[source]
                row.append((source, (alpha + a + b) >> 1, b, (beta + b + k) >> 1, c))
        out.append(rows)
    return tuple(out)


# f_w = 2a + sb + tc + ud, as a table of one target
_TRACE = (((0, 0, 2), (1, _KS, 1), (2, _KT, 1), (3, _KU, 1)),)
_TRACE_GRADED = _graded(_TRACE)


@lru_cache(maxsize=64)
def _small_block(g: int, e: int):
    """The table, norms and graded rows of a small exponent, which every word reuses."""
    table = _block_table(g, e)
    return table, _norms(table), _graded(table)


def _product(key: Tuple[Block, ...]) -> TriPoly:
    """f_w of a key, packed in slots of the bound's width when it is below 2^63 and by dicts otherwise.

    Each block's table is built once for the bound, whose update B <- N B
    is unrolled (module docstring), and the path.
    """
    tables = []
    Ba, Bb, Bc, Bd = 1, 0, 0, 0
    for g, e in key:
        if abs(e) <= 8:
            table, norms, _ = _small_block(g, e)
        else:
            table = _block_table(g, e)
            norms = _norms(table)
        tables.append(table)
        a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = norms
        Ba, Bb, Bc, Bd = (
            a0 * Ba + a1 * Bb + a2 * Bc + a3 * Bd,
            b0 * Ba + b1 * Bb + b2 * Bc + b3 * Bd,
            c0 * Ba + c1 * Bb + c2 * Bc + c3 * Bd,
            d0 * Ba + d1 * Bb + d2 * Bc + d3 * Bd,
        )
    bound = 2 * Ba + Bb + Bc + Bd
    if bound >= _SLOT_BOUND:
        return _dict_trace(tables)
    return _packed_trace(key, tables, 8 * (bound.bit_length() // 8 + 1))


def _dict_trace(tables) -> TriPoly:
    """f_w from the blocks' tables, each component of a + bX + cY + dXY a packed-key dict."""
    vec = ({0: 1}, {}, {}, {})
    for table in tables:
        vec = tuple(_combine(vec, parts) for parts in table)
    return TriPoly._normal(_combine(vec, _TRACE[0]), None)


def _packed_trace(key: Tuple[Block, ...], tables, width: int) -> TriPoly:
    """f_w from the blocks' tables, each component one int of graded slots ``width`` bits wide (module docstring).

    Only for a key whose coefficient bound is below 2^(width - 1).  Each block,
    and then the trace, runs its rows at the prefix's parities (``_graded``).
    """
    pa = pb = x = 0
    steps = []
    for (g, e), table in zip(key, tables):
        steps.append((_small_block(g, e)[2] if abs(e) <= 8 else _graded(table))[2 * pa + pb])
        if g == X:
            x += abs(e)
            pa ^= e & 1
        else:
            pb ^= e & 1
    steps.append(_TRACE_GRADED[2 * pa + pb])
    su, u = x // 2 + 1, len(key) // 2 + 1
    suw, sutw = su * width, su * u * width
    vec = (1, 0, 0, 0)
    for table in steps:
        out = []
        for parts in table:
            o = 0
            for source, dm, dj, dn, c in parts:
                v = vec[source]
                if v:
                    v <<= width * dm + suw * dj + sutw * dn
                    if c == 1:  # most entries: no product by c to allocate, and no copy into a zero o
                        o = o + v if o else v
                    elif c == -1:
                        o -= v
                    else:
                        o = o + c * v if o else c * v
            out.append(o)
        vec = out
    return _decode_slots(vec[0], width, su, u, pa, pb)


def _decode_slots(f: int, width: int, su: int, u: int, pa: int, pb: int) -> TriPoly:
    """The polynomial of parities pa, pb whose ``width``-bit graded slots, each below 2^(width-1) in size, sum to f.

    The width is a multiple of 8 up to 64.  Adding 2^(width-1) to every slot
    makes it a digit of f in base 2^width, which ``to_bytes`` writes out; in
    the low bytes of a 64-bit word, less 2^(width-1) mod 2^64, a digit is
    its slot in two's complement.  The slots under the top one sum to less
    than half its weight, so f has at most f.bit_length() // width + 1.
    Slot m + j*su + n*su*u is s^i u^j t^k, i = 2m + pa - j, k = 2n + pb - j,
    whose packed key (``tripoly``) is linear in m, j and n, and so in the
    slot, q = slot // su and n = q // u.
    """
    nbytes = width // 8
    n = f.bit_length() // width + 1
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
    digits = np.frombuffer((f + bias).to_bytes(nbytes * n, "little"), np.uint8).reshape(n, nbytes)
    words = np.zeros((n, 8), np.uint8)
    words[:, :nbytes] = digits
    coeffs = (words.view("<u8").ravel() - np.uint64(1 << (width - 1))).view(np.int64)
    slots = np.flatnonzero(coeffs)
    # the key (2m + pa - j) << _SH_S | j << _SH_U | (2n + pb - j) is km*m + kj*j + 2n + its parities
    km, kj = 2 << _SH_S, (1 << _SH_U) - (1 << _SH_S) - 1
    q = slots // su
    keys = km * slots + (kj - km * su) * q + (2 - kj * u) * (q // u) + ((pa << _SH_S) + pb)
    return TriPoly._normal(dict(zip(keys.tolist(), coeffs[slots].tolist())), None)


def _coefficient_words(letters: int) -> int:
    """Machine words of a coefficient: they grow by at most about one bit a letter."""
    return 1 + letters // 64


def _size_bound(x: int, r: int, y: int) -> int:
    """A bound on the machine words of f_w, for x and y letters on each generator and r syllables.

    f_w has degree at most x, r and y in s, u and t, so at most
    (x+1)(r+1)(y+1) terms; rotation and inversion keep the bound.
    """
    return (x + 1) * (r + 1) * (y + 1) * _coefficient_words(x + y)


def _work_bound(key: Tuple[Block, ...]) -> int:
    """A bound on the product's machine-word operations over key's blocks.

    Before a block the running product has at most (x+1)(r+1)(y+1) terms a
    component, as in ``_size_bound``, and the block's table about |e| entries.
    """
    x = y = r = 0
    updates = 0
    for g, e in key:
        updates += (x + 1) * (r + 1) * (y + 1) * (abs(e) + 1)
        if g == X:
            x += abs(e)
        else:
            y += abs(e)
            r += 1
    return updates * _coefficient_words(x + y)


def _dickson_work(f: TriPoly, k: int, letters: int) -> int:
    """A bound on the machine-word operations of D_k(f) by its recurrence.

    Step j multiplies f by D_j(f), which has at most (j*d_s+1)(j*d_u+1)(j*d_t+1)
    terms for f of degrees d_s, d_u and d_t; ``letters`` are those of the power.
    """
    ds, du, dt = f.deg("s"), f.deg("u"), f.deg("t")
    terms = sum((j * ds + 1) * (j * du + 1) * (j * dt + 1) for j in range(1, k))
    return len(f) * terms * _coefficient_words(letters)


def _check(bound: int, limit: int, says: str) -> None:
    """ValueError when an a-priori bound is past its limit, with ``says`` (``_SIZE`` or ``_WORK``) filled in."""
    if bound > limit:
        raise ValueError(f"word too large to trace: {says.format(bound)}, at most {limit:.0e}")


class _LRU(OrderedDict):
    """A map of at most ``_MEMO_BOUND`` entries that drops the least recently used."""

    def recall(self, key):
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def keep(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        if len(self) > _MEMO_BOUND:
            self.popitem(last=False)


# guards the one store of a lazily built f_w (``_WordEntry.f``)
_BUILT_LOCK = threading.Lock()


class _WordEntry:
    """A word memo entry: f_w, its u-degree, gcd(A, B), the row of verdicts read off them, and a proper power's root.

    ``sums_gcd`` is gcd(A, B), 0 exactly when A = B = 0, a function of the
    key as f_w is: rotation keeps A and B, inversion negates both, and
    v^k's sums are k times v's.  ``verdicts`` maps a prime p, or None for
    the rationals, to what ``decompose`` decided there; every value is a
    function of the key, so a thread that stores a missing one stores an
    equal one.  A proper power v^k holds v's entry as ``root`` and k as
    ``k``, keeping v's entry alive past the memo, so a power holds at most
    one entry more; otherwise ``root`` is None and ``k`` is 1.

    An entry made from a key builds f_w on the first read of ``f``, by the
    product over the key or as D_k(f_v), with ``u_degree`` the key's
    syllable count r, and checks that f_w has u-degree r before any reader
    gets it (the RuntimeError of ``_checked_entry``); one that fails is not
    kept.  Racing first reads may build f_w twice, but the first one stored
    is kept and returned.  An entry made from an f (the tests plant some)
    takes its u-degree from f.  ``top_sign``, the leading coefficient of
    f's top u-block, and ``faces``, f's degree gcd and top-face content
    (``decompose._degree_gcd``), are None until ``decompose`` reads them.
    """

    __slots__ = ("_f", "_key", "u_degree", "sums_gcd", "top_sign", "faces", "verdicts", "root", "k")

    def __init__(
        self,
        f: Optional[TriPoly],
        sums_gcd: int,
        root: Optional["_WordEntry"] = None,
        k: int = 1,
        key: Optional[Tuple[Block, ...]] = None,
    ):
        self._f = f
        self._key = key
        self.u_degree = f.deg("u") if f is not None else len(key) // 2
        self.sums_gcd = sums_gcd
        self.top_sign = None
        self.faces = None
        self.verdicts: dict = {}
        self.root = root
        self.k = k

    @property
    def f(self) -> TriPoly:
        f = self._f
        if f is None:
            f = dickson_apply(self.k, self.root.f) if self.root is not None else _product(self._key)
            if max(f.deg("u"), 0) != self.u_degree:
                raise RuntimeError(f"u-degree {f.deg('u')} != complexity of {Word(self._key)}")
            with _BUILT_LOCK:
                if self._f is None:
                    self._f = f
                f = self._f
        return f


class TraceEngine:
    """The 4-basis product behind a bounded memo, on ``words``' block rules.

    A word is cyclically reduced and memoized on ``_canonical_cyclic``'s
    key, in an LRU map of ``_MEMO_BOUND`` entries (``_WordEntry``).  It may
    be shared between threads: the lock guards it, an entry once kept is
    never replaced, and every entry is a pure function of its key, so
    racing recomputation is harmless.  The bounds are checked when an entry
    is made, from one pass over the key's exponent sums, and the exact work
    bound only when the size bound times (letters + blocks) is past
    ``MAX_TRACE_WORK``; a proper power's root is built for the D_k work
    bound, and every other product waits for its first read.
    """

    def __init__(self):
        self._words = _LRU()
        self._lock = threading.Lock()

    def entry(self, w: Word) -> _WordEntry:
        """The memo entry of a word whose cyclic reduction is not empty."""
        core = _cyclic_reduce(w.blocks)[0]
        if not core:
            raise ValueError(f"{w!r} reduces cyclically to the empty word")
        if len(core) > 64:  # before a key quadratic in the blocks
            _, _, x, y = _exponent_sums(core)
            _check(_size_bound(x, len(core) // 2, y), MAX_TRACE_SIZE, _SIZE)
        return self._trace(_canonical_cyclic(core))

    def _trace(self, key: Tuple[Block, ...]) -> _WordEntry:
        """The entry of a key of ``_canonical_cyclic``; a proper power's root is one too."""
        with self._lock:
            entry = self._words.recall(key)
        if entry is not None:
            return entry
        A, B, x, y = _exponent_sums(key)
        size = _size_bound(x, len(key) // 2, y)
        _check(size, MAX_TRACE_SIZE, _SIZE)
        m = _period(key)
        if m < len(key):
            root, k = self._trace(key[:m]), len(key) // m
            _check(_dickson_work(root.f, k, x + y), MAX_TRACE_WORK, _WORK)
            entry = _WordEntry(None, k * root.sums_gcd, root, k, key)
        else:
            if size * (x + y + len(key)) > MAX_TRACE_WORK:  # at or above _work_bound, block by block
                _check(_work_bound(key), MAX_TRACE_WORK, _WORK)
            entry = _WordEntry(None, math.gcd(A, B), key=key)
        with self._lock:
            kept = self._words.recall(key)
            if kept is not None:
                return kept  # a racing thread kept an equal entry first
            self._words.keep(key, entry)
        return entry


_DEFAULT_ENGINE = TraceEngine()


@dataclass(frozen=True)
class TraceResult:
    """f_w together with its u-direction structure."""

    word: Word
    f: TriPoly
    u_degree: int


@dataclass(frozen=True)
class SyllablePair:
    """The two s,t-polynomials with f_{x^a y^b} = u*g + h."""

    a: int
    b: int
    g: TriPoly
    h: TriPoly


def trace_poly(w: Word, engine: Optional[TraceEngine] = None) -> TraceResult:
    """Exact trace polynomial of any word, including degenerate ones.

    The empty word traces to 2; any other word reads f_w and its u-degree
    from its checked memo entry (``_checked_entry``).  ValueError for a
    word past the engine's size or work bound.
    """
    if w.is_empty:
        return TraceResult(word=w, f=_TWO, u_degree=0)
    canon, entry = _checked_entry(w, engine)
    return TraceResult(word=canon, f=entry.f, u_degree=entry.u_degree)


def _checked_entry(w: Word, engine: Optional[TraceEngine]) -> Tuple[Word, _WordEntry]:
    """w's canonical form and its memo entry, for w not reducing cyclically to the empty word.

    The entry's u-degree is checked against the canonical form's
    complexity on every call, and f_w's own u-degree against the entry's
    when f_w is built (``_WordEntry``): these are the checks of f_w that
    every reader, ``trace_poly``, the cache and ``decompose`` alike, goes
    through.  ``engine`` None is the shared default as bound when called.
    """
    entry = (engine if engine is not None else _DEFAULT_ENGINE).entry(w)
    # a word from an x-block to a y-block is its own canonical form
    canon = w if w.is_canonical else canonicalize(w)[0]
    if canon.is_canonical and max(entry.u_degree, 0) != canon.complexity:
        raise RuntimeError(f"u-degree {entry.u_degree} != complexity of {w}")
    return canon, entry


def syllable_polys(a: int, b: int) -> SyllablePair:
    """g_{a,b}, h_{a,b} for the single syllable x^a y^b."""
    if a == 0 or b == 0:
        raise ValueError("syllable exponents must be nonzero")
    f = trace_poly(Word.from_syllables([(a, b)])).f
    parts = f.u_coefficients()
    h = parts[0]
    g = parts[1] if len(parts) > 1 else TriPoly.zero()
    if g.deg("s") != abs(a) - 1 or g.deg("t") != abs(b) - 1:
        raise RuntimeError(f"degree contract failed for syllable ({a}, {b})")
    return SyllablePair(a=a, b=b, g=g, h=h)
