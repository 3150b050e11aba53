"""Point counting for trilinear-coordinate level sets over small finite fields.

Counts N_z = #{(s,u,t) in F_q^3 : f(s,u,t) = z} for every z at once, with
the one evaluator of a TriPoly on F_q^3 (`sl2.fiber_distribution` uses
it too).
Writing f = sum_j u^j G_j(s,t), it evaluates each G_j once on a grid of
(s,t), the whole q x q grid unless a sub-grid is selected, then f on that
grid for one u at a time by Horner's rule in u.  Tables are read flat: with
row = q * mul_table[u], a Horner step is add_flat.take(row.take(val) + G_j),
two 1-D takes on element codes.  Work is O(q x rows x cols x deg_u f)
lookups in O(rows x cols x deg_u f) memory; the cube is never held.

Level sets are counted on orbit representatives and relabelled.  For f over
F_p and q = p^n the counts of the plane at s, over all (u, t), move under
two exact symmetries:

- signs, q odd: if i + j has one parity a over the monomials s^i u^j t^k,
  f(-s, -u, t) = (-1)^a f, so the plane at -s has the counts of the plane
  at s with z -> (-1)^a z; if j + k has one parity b, f(s, -u, -t) =
  (-1)^b f, so the line (s, -t) has the counts of the line (s, t) with
  z -> (-1)^b z;
- Frobenius, n > 1: f(s^p, u^p, t^p) = f^p, so the plane at s^p has the
  counts of the plane at s with z -> z^p.

The s-negation and Frobenius generate a group G acting on s.  f is evaluated
on one s per G-orbit and, under the j + k rule, on t = 0 and one t of each
pair {t, -t}; each line is weighted by the size of its s-orbit and by 2
where it stands for its mirror line too.  Summing the mirror relabelling and
every element of G over these weighted counts gives the full counts
2|G| times over.  A polynomial with neither parity rule over a prime field,
such as s + t + u*t, is counted on the whole grid; characteristic 2 gets
the Frobenius reduction only.  The work falls to about q^3 / 4 points at odd
primes and by a further factor near n at q = p^n.  sl2's fiber pass visits
the same representatives (_representatives) and relabels through the same
sum (_orbit_sum), with the two parities read off its word's exponent sums.

The counts of the last four (f, field) pairs, q ints each, are memoized and
handed out as copies: a screen run after a probe of the same f over the
same field does not count again.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .gf import GF, field
from .tripoly import TriPoly, _power

# values of s and of t, each an array of element codes
Select = tuple[np.ndarray, np.ndarray]


def _u_blocks_on_grid(f: TriPoly, F: GF, select: Select) -> list[np.ndarray]:
    """Each u-block G_j(s,t) of f over F_p on the grid [s, t], s and t from select."""
    q, add, mul = F.q, F.add_table.ravel(), F.mul_table.ravel()
    s_vals, t_vals = select
    blocks = f.u_coefficients()
    pows = [np.full(q, F.one), np.arange(q)]  # pows[i][x] = x^i
    while len(pows) <= max(max(blk.deg("s"), blk.deg("t")) for blk in blocks):
        pows.append(mul.take(pows[-1] * q + pows[1]))
    out = []
    for blk in blocks:
        rows: dict[int, np.ndarray] = {}  # G_j = sum_i s^i * rows[i](t)
        for (i, _j, k), coef in blk.terms():
            term = F.mul_table[F.embed_int(coef)].take(pows[k].take(t_vals))
            rows[i] = add.take(rows[i] * q + term) if i in rows else term
        grid = np.zeros((len(s_vals), len(t_vals)), dtype=np.intp)
        for i, row in rows.items():
            grid = add.take(grid * q + mul.take(pows[i].take(s_vals)[:, None] * q + row))
        out.append(grid)
    return out


def _u_slices(f: TriPoly, F: GF, select: Select) -> Iterator[np.ndarray]:
    """f over F_p on the grid [s, t], for u = 0, 1, ..., q-1 in turn.

    select = (s_vals, t_vals) picks the rows and columns.  A slice may be
    shared with the next one or with the block grids, so callers only read
    it.
    """
    add = F.add_table.ravel()
    top, *lower = reversed(_u_blocks_on_grid(f, F, select))
    for u in range(F.q):
        row, val = F.mul_table[u] * F.q, top
        for grid in lower:
            val = add.take(row.take(val) + grid)
        yield val


def _parities(f: TriPoly) -> tuple[Optional[int], Optional[int]]:
    """The parity of i + j and of j + k over f's monomials s^i u^j t^k, None where mixed."""
    ij = {(i + j) % 2 for (i, j, _k), _c in f.terms()}
    jk = {(j + k) % 2 for (_i, j, k), _c in f.terms()}
    return tuple(None if len(par) > 1 else int(1 in par) for par in (ij, jk))


def _symmetries(F: GF, ij: Optional[int], jk: Optional[int]):
    """The relabellings of level counts that the module docstring proves.

    ij and jk are the parities of the two sign rules, None where a rule does
    not hold.  Returns (s_maps, z_maps, t_mirror, z_mirror): row g of s_maps
    moves the plane at s to the plane at s_maps[g, s], whose counts at
    z_maps[g, z] are the counts of the plane at s at z; the line (s, t) has
    the counts of the line (s, t_mirror[t]) with z -> z_mirror[z].
    """
    q, mul = F.q, F.mul_table.ravel()
    ident, neg = np.arange(q), F.neg_table
    odd = F.p > 2
    signs = [(ident, ident)]
    if odd and ij is not None:
        signs.append((neg, neg if ij else ident))
    frob = _power(ident, F.p, lambda a, b: mul.take(a * q + b))  # x -> x^p
    frobs = [ident]
    while len(frobs) < F.n:
        frobs.append(frob.take(frobs[-1]))
    s_maps = np.array([fk.take(sm) for fk in frobs for sm, _zm in signs])
    z_maps = np.array([fk.take(zm) for fk in frobs for _sm, zm in signs])
    mirror = odd and jk is not None
    t_mirror = neg if mirror else ident
    z_mirror = neg if mirror and jk else ident
    return s_maps, z_maps, t_mirror, z_mirror


def _representatives(s_maps: np.ndarray, t_mirror: np.ndarray):
    """The lines (s, t) to evaluate, and the weight each one carries.

    Returns ((s_reps, t_reps), weights, cls): one s per orbit of s_maps, its
    smallest element, and t = t_mirror[t] or t < t_mirror[t]; the line
    (s_reps[i], t_reps[j]) carries weights[cls[i, j]], its s-orbit's size
    times 2 where it also stands for its mirror line.
    """
    labels = np.arange(len(t_mirror))
    orbit = s_maps.min(axis=0)
    s_reps = np.flatnonzero(orbit == labels)
    t_reps = np.flatnonzero(labels <= t_mirror)
    line = np.bincount(orbit).take(s_reps)[:, None] * (1 + (t_reps < t_mirror.take(t_reps)))
    # the distinct weights, ascending, and each line's rank among them
    present = np.bincount(line.ravel()) > 0
    return (s_reps, t_reps), np.flatnonzero(present), np.cumsum(present).take(line) - 1


def _orbit_sum(weighted: np.ndarray, maps: np.ndarray, mirror: np.ndarray) -> np.ndarray:
    """The full counts from the weighted counts of the representative lines.

    weighted[z] is a count vector over labels z; the mirror line's counts
    sit at mirror[z], and row g of maps is the labelling of group element g.
    Summing every relabelling gives the full counts 2|G| times over; a
    division that is not exact raises RuntimeError.
    """
    both = weighted + weighted.take(mirror)
    inverse = np.empty_like(maps)
    inverse[np.arange(len(maps))[:, None], maps] = np.arange(maps.shape[1])
    total = both.take(inverse).sum(axis=0)
    counts, rem = np.divmod(total, 2 * len(maps))
    if rem.any():
        raise RuntimeError("orbit counts do not divide by the symmetry group's order")
    return counts


@lru_cache(maxsize=4)
def _cube_counts(f: TriPoly, F: GF) -> np.ndarray:
    q = F.q
    s_maps, z_maps, t_mirror, z_mirror = _symmetries(F, *_parities(f))
    select, weights, cls = _representatives(s_maps, t_mirror)
    base = cls * q
    tally = sum(
        np.bincount((base + val).ravel(), minlength=len(weights) * q)
        for val in _u_slices(f, F, select)
    )
    counts = _orbit_sum(weights @ tally.reshape(-1, q), z_maps, z_mirror)
    if int(counts.sum()) != q**3:
        raise RuntimeError("level-set counts do not partition the coordinate cube")
    return counts


def level_set_counts(f: TriPoly, q: int) -> np.ndarray:
    """All level-set sizes at once: counts[z] = N_z, an array of length q."""
    F = field(q)
    if f.p is not None and f.p != F.p:
        raise ValueError(f"polynomial over F_{f.p} cannot be evaluated in F_{F.q}")
    return _cube_counts(f.reduce_mod(F.p) if f.p is None else f, F).copy()
