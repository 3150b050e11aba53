"""Point counting for trilinear-coordinate level sets over small finite fields.

Counts N_z = #{(s,u,t) in F_q^3 : f(s,u,t) = z} for every z at once, with
the one evaluator of a TriPoly on F_q^3 (`sl2.fiber_distribution` uses
it too).
Writing f = sum_j u^j G_j(s,t), it evaluates each G_j once on the q x q
grid of (s,t), then f on that grid for one u at a time by Horner's rule in
u.  Tables are read flat: with row = q * mul_table[u], a Horner step is
add_flat.take(row.take(val) + G_j), two 1-D takes on element codes.  Work
is O(q^3 deg_u f) lookups in O(q^2 deg_u f) memory; the cube is never held.
The counts of the last four (f, field) pairs, q ints each, are memoized and
handed out as copies: a screen run after a probe of the same f over the
same field does not count the cube again.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .gf import GF, field
from .tripoly import TriPoly


def _u_blocks_on_grid(f: TriPoly, F: GF) -> list[np.ndarray]:
    """Each u-block G_j(s,t) of f over F_p on the q x q grid [s, t]."""
    q, add, mul = F.q, F.add_table.ravel(), F.mul_table.ravel()
    blocks = f.u_coefficients()
    pows = [np.full(q, F.one), np.arange(q)]  # pows[i][x] = x^i
    while len(pows) <= max(max(blk.deg("s"), blk.deg("t")) for blk in blocks):
        pows.append(mul.take(pows[-1] * q + pows[1]))
    out = []
    for blk in blocks:
        rows: dict[int, np.ndarray] = {}  # G_j = sum_i s^i * rows[i](t)
        for (i, _j, k), coef in blk.terms():
            term = F.mul_table[F.embed_int(coef)].take(pows[k])
            rows[i] = add.take(rows[i] * q + term) if i in rows else term
        grid = np.zeros((q, q), dtype=np.intp)
        for i, row in rows.items():
            grid = add.take(grid * q + mul.take(pows[i][:, None] * q + row))
        out.append(grid)
    return out


def _u_slices(f: TriPoly, F: GF) -> Iterator[np.ndarray]:
    """f over F_p on the q x q grid [s, t], for u = 0, 1, ..., q-1 in turn.

    A slice may be shared with the next one or with the block grids, so
    callers only read it.
    """
    add = F.add_table.ravel()
    top, *lower = reversed(_u_blocks_on_grid(f, F))
    for u in range(F.q):
        row, val = F.mul_table[u] * F.q, top
        for grid in lower:
            val = add.take(row.take(val) + grid)
        yield val


@lru_cache(maxsize=4)
def _cube_counts(f: TriPoly, F: GF) -> np.ndarray:
    counts = sum(np.bincount(val.ravel(), minlength=F.q) for val in _u_slices(f, F))
    if int(counts.sum()) != F.q**3:
        raise RuntimeError("level-set counts do not partition the coordinate cube")
    return counts


def level_set_counts(f: TriPoly, q: int) -> np.ndarray:
    """All level-set sizes at once: counts[z] = N_z, an array of length q."""
    F = field(q)
    if f.p is not None and f.p != F.p:
        raise ValueError(f"polynomial over F_{f.p} cannot be evaluated in F_{F.q}")
    return _cube_counts(f.reduce_mod(F.p) if f.p is None else f, F).copy()
