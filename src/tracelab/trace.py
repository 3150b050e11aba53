"""Trace polynomials of words evaluated on SL(2) generator pairs.

For x, y in SL(2) over any commutative ring, the trace of a word w(x, y)
is an integer polynomial f_w(s, u, t) in the three coordinates s = tr x,
u = tr xy, t = tr y.  The engine here computes f_w exactly from the
classical identities

    tr 1 = 2,  tr U^-1 = tr U,  tr UV = tr VU,
    tr UV = tr U * tr V - tr UV^-1,
    tr U^k = D_k(tr U),
    tr g^e R = V_|e|(tr g) * tr g^(+-1) R - V_(|e|-1)(tr g) * tr R,

with memoization keyed on a normal form invariant under cyclic rotation
and inversion, both of which preserve the trace.  D_k and V_k are
``unipoly``'s Dickson and Chebyshev polynomials, one recurrence f_(k+1) =
z*f_k - f_(k-1); the last identity is Cayley-Hamilton for g^e, with g^(+-1)
carrying the sign of e, so a block costs two traces whatever its exponent.
The test suite's oracle evaluates the word on explicit matrices over a
finite field, and f_w must agree with it pointwise.

Writing a canonical word as x^a1 y^b1 ... x^ar y^br, the expansion
f_w = sum_k u^k G_k(s, t) stops exactly at k = r, and the single-syllable
polynomials f_{x^a y^b} = u*g_{a,b} + h_{a,b} are the building blocks of
the leading coefficient G_r = prod_i g_{a_i,b_i}.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Tuple

from .tripoly import TriPoly
from .unipoly import _recurrence, dickson_apply
from .words import Block, Word, X, _cyclic_reduce, _invert, _period, _reduce, canonicalize

_S = TriPoly.var("s")
_T = TriPoly.var("t")
_U = TriPoly.var("u")
_ZERO = TriPoly.zero()
_ONE = TriPoly.const(1)
_TWO = TriPoly.const(2)


def _canonical_cyclic(blocks: Tuple[Block, ...]) -> Tuple[Block, ...]:
    """Least rotation of the block sequence or its inverse."""
    best = None
    for seq in (blocks, _invert(blocks)):
        n = len(seq)
        for i in range(n):
            cand = seq[i:] + seq[:i]
            if best is None or cand < best:
                best = cand
    return best


class TraceEngine:
    """Fricke-style reduction with a memo table, on ``words``' block rules.

    A word is cyclically reduced, and a proper power v^k, cut at its least
    period as in ``proper_power_root``, is traced as D_k(f_v).  The memo key
    is the least rotation of the blocks or of their inverse.  The memo may
    be shared between threads: the lock guards the dict, and since every
    entry is a pure function of its key, racing recomputation is harmless.
    """

    def __init__(self):
        self._memo: dict = {}
        self._lock = threading.Lock()

    def trace_word(self, w: Word) -> TriPoly:
        return self._trace(w.blocks)

    def _trace(self, blocks: Tuple[Block, ...]) -> TriPoly:
        blocks = _cyclic_reduce(_reduce(blocks))[0]
        n = len(blocks)
        if n == 0:
            return _TWO
        if n == 1:
            g, e = blocks[0]
            return dickson_apply(abs(e), _S if g == X else _T)
        key = _canonical_cyclic(blocks)
        with self._lock:
            f = self._memo.get(key)
        if f is None:
            f = self._reduce_step(key)
            with self._lock:
                self._memo[key] = f
        return f

    def remember(self, result: TraceResult) -> None:
        """Memoize a result that passed trace_poly's checks; its word is canonical."""
        if len(result.word.blocks) >= 2:
            with self._lock:
                self._memo[_canonical_cyclic(result.word.blocks)] = result.f

    def _reduce_step(self, blocks: Tuple[Block, ...]) -> TriPoly:
        # blocks: canonical representative, even length, alternating, x first
        n = len(blocks)
        m = _period(blocks)
        if m < n:
            return dickson_apply(n // m, self._trace(blocks[:m]))
        idx = max(range(n), key=lambda i: abs(blocks[i][1]))
        g, e = blocks[idx]
        if abs(e) >= 2:
            # Cayley-Hamilton: g^e = V_|e|(tr g) * g^(+-1) - V_(|e|-1)(tr g) * 1
            rest = blocks[idx + 1 :] + blocks[:idx]
            v_prev, v_e = _recurrence(abs(e), _S if g == X else _T, _ZERO, _ONE)
            unit = ((g, 1 if e > 0 else -1),)
            return v_e * self._trace(unit + rest) - v_prev * self._trace(rest)
        if n == 2:
            a, b = blocks[0][1], blocks[1][1]
            return _U if a * b > 0 else _S * _T - _U
        head, tail = blocks[:2], blocks[2:]
        cross = self._trace(head + _invert(tail))
        return self._trace(head) * self._trace(tail) - cross


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


def _trace_result(w: Word, f: TriPoly) -> Optional[TraceResult]:
    """f as the trace of w, or None when w is canonical and deg_u f != complexity."""
    # a word from an x-block to a y-block is its own canonical form
    canon = w if w.is_empty or w.is_canonical else canonicalize(w)[0]
    u_degree = max(f.deg("u"), 0)
    if canon.is_canonical and u_degree != canon.complexity:
        return None
    return TraceResult(word=canon, f=f, u_degree=u_degree)


def trace_poly(w: Word, engine: Optional[TraceEngine] = None) -> TraceResult:
    """Exact trace polynomial of any word, including degenerate ones."""
    eng = engine if engine is not None else _DEFAULT_ENGINE
    f = eng.trace_word(w)
    result = _trace_result(w, f)
    if result is None:
        raise RuntimeError(f"u-degree {f.deg('u')} != complexity of {w}")
    return result


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

