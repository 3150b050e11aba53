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
Comput. 44, 2009).  A key with x letters on X and r syllables packs
s^i u^j t^k into the W-bit slot i + j*S + k*S*U, S = x + 1 and
U = r + 1, t the major axis; that is, a component becomes its value at
s = 2^W, u = 2^(WS), t = 2^(WSU), a ring homomorphism Z[s, u, t] -> Z.
Each component is then one Python int, a table entry (source, monomial,
c) one ``o += c * (v << shift)``, and only f_w is decoded.  Decoding is
exact although the components may leave the box: f_w has degree at most
x in s and r in u, so its support lies in the box, and its coefficients
lie in (-2^(W-1), 2^(W-1)), which makes the balanced base-2^W digits
unique.

The bound is carried per component.  For a block's table let N[i][j] be
the sum of |c| over the entries from source j to target i.  A target
coefficient is a sum, over the table's entries, of c times one source
coefficient, so if every coefficient of component j is at most B_j in
absolute value before the block, every coefficient of component i is at
most (N B)_i after it.  Starting from 1 = (1, 0, 0, 0), B <- N B at
each block bounds a, b, c, d, and a coefficient of 2a + sb + tc + ud is
at most 2 B_a + B_b + B_c + B_d.  Since (N B)_i <= growth * max(B), with
growth the largest row sum of N, this bound is never above the scalar
bound 5 * prod growth(block), so every key that bound packs is packed;
on 926 random words of up to 24 letters it is 2 to 14 bits below that
bound.  The slot width W is the fewest whole bytes with the bound below
2^(W-1), W = 8 * (bound.bit_length() // 8 + 1), so narrow coefficients
make short ints.  A key with the bound below 2^63 takes the packed path,
at W <= 64; every other key, such as x^100 y, whose V_100 has
coefficients far past 64 bits, takes the product over packed-key dicts,
where a shift copies only the terms there are.  Both paths share one
table per block.

Whole words are memoized in a bounded memo, keyed on a normal form
invariant under cyclic rotation and inversion, both of which preserve the
trace, and a proper power v^k, cut at its least period as in
``proper_power_root``, is traced as D_k(f_v), its entry linked to v's.
Each word entry holds f_w, its u-degree, the gcd of its exponent sums and
a row of the verdicts ``decompose`` reads off them (the rational witness
and one verdict per prime asked), all invariant under the same moves; the
row is evicted with f_w.  The entry builds f_w on the first read, not
when it is made, and checks its u-degree against the key's syllable count
before any reader gets it (``_WordEntry``), so a verdict that reads no f_w
costs no product.  A word whose a-priori size bound is past
``MAX_TRACE_SIZE`` is refused with ValueError before any work, and so is
a product whose work bound is past ``MAX_TRACE_WORK``: for a proper power,
the root's product and then the D_k recurrence on f_v.  The test suite's
oracles evaluate the word on explicit matrices and run the classical
Fricke recursion; f_w must agree with both, on either path.

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

from .tripoly import _MASK, _SH_S, _SH_U, TriPoly
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

# Entries the word memo keeps.  The classify stream of 1500 requests
# traces about 940 distinct words, so it evicts nothing.
_MEMO_BOUND = 2048

# f_w's coefficients must lie in (-2^63, 2^63) to take the packed path,
# whose slots are at most 64 bits wide (see ``_decode_slots``)
_SLOT_BOUND = 1 << 63

# a + bX + cY + dXY, each coefficient a packed-key dict over Z[s, u, t]
_ONE_VEC = ({0: 1}, {}, {}, {})


def _canonical_cyclic(blocks: Tuple[Block, ...]) -> Tuple[Block, ...]:
    """Least rotation of a cyclically reduced block sequence or its inverse.

    Only the rotations that start on an x-block are compared.  A cyclically
    reduced core of two or more blocks has adjacent blocks on different
    generators, its last and first blocks included, so its generators
    alternate around the cycle, and so do its inverse's.  Blocks compare
    as (gen, exp) tuples and X = 0 < Y = 1, so every rotation that starts
    on an x-block is smaller than every rotation that starts on a y-block,
    and the least rotation starts on an x-block: at the even indices when
    the sequence starts on one, at the odd indices otherwise.  A core of
    one block keeps its single rotation.
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


@lru_cache(maxsize=64)
def _small_block(g: int, e: int):
    """The table and norms of a small exponent, which every word reuses."""
    table = _block_table(g, e)
    return table, _norms(table)


def _product(key: Tuple[Block, ...]) -> TriPoly:
    """f_w of a key, packed in slots of the bound's width when it is below 2^63 and by dicts otherwise.

    Each block's table is built once and serves the bound and the path.
    The bound (Ba, Bb, Bc, Bd) <- N (Ba, Bb, Bc, Bd) is unrolled into 16
    products a block (module docstring).
    """
    tables = []
    Ba, Bb, Bc, Bd = 1, 0, 0, 0
    for g, e in key:
        if abs(e) <= 8:
            table, norms = _small_block(g, e)
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
    """f_w from the blocks' tables, each component a packed-key dict."""
    vec = _ONE_VEC
    for table in tables:
        vec = tuple(_combine(vec, parts) for parts in table)
    return TriPoly._normal(_combine(vec, ((0, 0, 2), (1, _KS, 1), (2, _KT, 1), (3, _KU, 1))), None)


def _packed_trace(key: Tuple[Block, ...], tables, width: int) -> TriPoly:
    """f_w from the blocks' tables, each component one int of slots ``width`` bits wide.

    Only for a key whose coefficient bound is below 2^(width - 1) (module docstring).
    """
    x = sum(abs(e) for g, e in key if g == X)
    y = sum(abs(e) for _, e in key) - x
    su, u = x + 1, len(key) // 2 + 1
    suw, sutw = su * width, su * u * width
    vec = (1, 0, 0, 0)
    for table in tables:
        out = []
        for parts in table:
            o = 0
            for source, mono, c in parts:
                v = vec[source]
                if v:
                    shift = width * (mono >> _SH_S) + suw * ((mono >> _SH_U) & _MASK) + sutw * (mono & _MASK)
                    if c == 1:  # most entries: no product by c to allocate
                        o += v << shift
                    elif c == -1:
                        o -= v << shift
                    else:
                        o += c * (v << shift)
            out.append(o)
        vec = out
    a, b, c, d = vec
    f = 2 * a + (b << width) + (d << suw) + (c << sutw)
    return _decode_slots(f, width, su, u, y + 1)


def _decode_slots(f: int, width: int, su: int, u: int, t: int) -> TriPoly:
    """The polynomial whose ``width``-bit slots, each in (-2^(width-1), 2^(width-1)), sum to f.

    The width is a multiple of 8 up to 64.  Adding 2^(width-1) to every
    slot makes each one a digit of f in base 2^width, which ``to_bytes``
    writes out.  Each digit's bytes are copied to the top of a 64-bit word,
    which is then the digit times 2^(64-width); XOR with 2^63 makes it the
    slot times 2^(64-width) in two's complement, and an arithmetic shift
    right by 64 - width reads the slot back, at width 64 too, where the
    shift is 0.  Since every slot is below 2^(width-1) in absolute value,
    the slots under the top nonzero one sum to less than half its weight
    2^(width*n), so f.bit_length() // width is n.  Slot i + j*su + k*su*u
    of the su x u x t box is s^i u^j t^k, whose packed key (``tripoly``)
    is (i, j, k) raveled into fields of 2^(_SH_S-_SH_U) and 2^_SH_U; only
    the nonzero slots are mapped.
    """
    nbytes = width // 8
    n = f.bit_length() // width + 1
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
    digits = np.frombuffer((f + bias).to_bytes(nbytes * n, "little"), np.uint8).reshape(n, nbytes)
    words = np.zeros((n, 8), np.uint8)
    words[:, 8 - nbytes :] = digits
    coeffs = (words.view("<u8").ravel() ^ np.uint64(_SLOT_BOUND)).view(np.int64) >> (64 - width)
    slots = np.flatnonzero(coeffs)
    k, j, i = np.unravel_index(slots, (t, u, su))
    keys = np.ravel_multi_index((i, j, k), (su, 1 << (_SH_S - _SH_U), 1 << _SH_U))
    return TriPoly._normal(dict(zip(keys.tolist(), coeffs[slots].tolist())), None)


def _coefficient_words(letters: int) -> int:
    """Machine words of a coefficient: they grow by at most about one bit a letter."""
    return 1 + letters // 64


def _size_bound(core: Tuple[Block, ...]) -> int:
    """A bound on the machine words of f_w, the same for every rotation and the inverse.

    f_w has degree at most x, r and y in s, u and t, x and y the letters on
    each generator and r the syllables, so at most (x+1)(r+1)(y+1) terms.
    """
    letters = sum(abs(e) for _, e in core)
    x = sum(abs(e) for g, e in core if g == X)
    r = len(core) // 2
    return (x + 1) * (r + 1) * (letters - x + 1) * _coefficient_words(letters)


def _work_bound(key: Tuple[Block, ...]) -> int:
    """A bound on the product's machine-word operations over key's blocks.

    Before a block, the running product has at most (x+1)(r+1)(y+1) terms
    in each coefficient, counting what precedes the block as in
    ``_size_bound``, and the block's table has about |e| entries.
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


def _check_size(blocks: Tuple[Block, ...]) -> None:
    """ValueError past the size bound on these blocks."""
    size = _size_bound(blocks)
    if size > MAX_TRACE_SIZE:
        raise ValueError(
            f"word too large to trace: f_w may take {size:.1e} machine words, "
            f"at most {MAX_TRACE_SIZE:.0e}"
        )


def _check_work(ops: int) -> None:
    """ValueError past the work bound."""
    if ops > MAX_TRACE_WORK:
        raise ValueError(
            f"word too large to trace: its product may take {ops:.1e} "
            f"machine-word operations, at most {MAX_TRACE_WORK:.0e}"
        )


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

    ``sums_gcd`` is gcd(A, B) of the exponent sums on x and on y, 0 exactly
    when A = B = 0, and like f_w a function of the key: rotation keeps A
    and B, inversion negates both, and v^k's sums are k times v's.
    ``verdicts`` maps a prime p, or None for the rationals, to what
    ``decompose`` decided there, and its readers fill it.  Every value is a
    function of the entry's key, as f_w is, so a thread that finds a value
    missing and stores its own stores an equal one.  The entry of a proper
    power v^k holds v's entry as ``root``, whose row ``decompose`` reads,
    and k as ``k``; it keeps v's entry alive after the memo drops it, so a
    power holds at most one entry more.  Otherwise ``root`` is None and
    ``k`` is 1.

    An entry made from a key builds f_w on the first read of ``f``, by the
    product over the key or as D_k(f_v), and ``u_degree`` is then the key's
    syllable count r.  A built f_w is checked to have u-degree r before any
    reader gets it, with the RuntimeError of ``_checked_entry``; one that
    fails is not kept, so every read raises again.  Threads racing on the
    first read may build f_w twice, but the entry keeps the first one
    stored and every read returns it.  An entry made from an f (the tests
    plant some) takes its u-degree from f.  ``top_sign``, the leading
    coefficient of f's top u-block, and ``faces``, the gcd of f's degrees
    and the product of its top faces' contents (``decompose._degree_gcd``),
    are None until ``decompose`` first reads them.
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

    A word is cyclically reduced, and one past ``MAX_TRACE_SIZE`` or
    ``MAX_TRACE_WORK`` is refused with ValueError before that work.  Whole
    words are memoized on the least rotation of the blocks or of their
    inverse, each entry with its row of verdicts (``_WordEntry``).  A
    proper power v^k is traced as D_k(f_v) and its entry links to v's, so
    a power keeps at most one entry alive past the memo's bound.  The memo
    is an LRU map of ``_MEMO_BOUND`` entries.  It may be shared between
    threads: the lock guards it, an entry once kept is never replaced, and
    since every entry is a pure function of its key, racing recomputation
    is harmless; so is a race on the first read of an entry's f_w, which
    keeps one f_w.  The bounds are checked when an entry is made, with a
    proper power's root built for the D_k work bound; every other product
    waits for its first read.
    """

    def __init__(self):
        self._words = _LRU()
        self._lock = threading.Lock()

    def entry(self, w: Word) -> _WordEntry:
        """The memo entry of a word whose cyclic reduction is not empty."""
        core = _cyclic_reduce(w.blocks)[0]
        if not core:
            raise ValueError(f"{w!r} reduces cyclically to the empty word")
        if len(core) > 64:
            _check_size(core)  # before a key quadratic in the blocks
        return self._trace(_canonical_cyclic(core))

    def _trace(self, key: Tuple[Block, ...]) -> _WordEntry:
        """The entry of a key of ``_canonical_cyclic``; a proper power's root is one too."""
        with self._lock:
            entry = self._words.recall(key)
        if entry is not None:
            return entry
        _check_size(key)
        m = _period(key)
        if m < len(key):
            root, k = self._trace(key[:m]), len(key) // m
            _check_work(_dickson_work(root.f, k, sum(abs(e) for _, e in key)))
            entry = _WordEntry(None, k * root.sums_gcd, root, k, key)
        else:
            _check_work(_work_bound(key))
            A, B, _, _ = _exponent_sums(key)
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
