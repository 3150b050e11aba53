"""Exact enumeration laboratory over SL(2,q) and PSL(2,q).

Conjugacy class tables, word-map fiber distributions, the trace-triple map
pi(x,y) = (tr x, tr xy, tr y) and its fiber counts, minimal-epsilon
equidistribution reports, image and omitted-value analysis, and point-count
screens for level-set irreducibility.

Matrices are row-major 4-tuples (a, b, c, d) of field element codes for
[[a, b], [c, d]].  A class is looked up by (trace, kind): kind 0 is the
class of a trace other than +-2 or the central class +-I, kinds 1 and 2
the unipotent classes of trace +-2 (see ClassTable).  Negation keeps the
kind, so PSL(2,q) pairs each class with that of the opposite trace.

The pi-fiber counts N(s, u, t), the pairs (x, y) with tr x = s,
tr xy = u and tr y = t, need no pass over the group: they take four
values, in closed form, chosen by the zero set of
kappa = s^2 + t^2 + u^2 - sut - 4 = tr[x, y] - 2 on F_q^3, which is also
the third factor of the degenerate locus; kappa is monic of degree 2 in
u, so its zeros are read from the conic root table.  Fiber counting
weighs each point of F_q^3 by N and reads the class of w on its pairs from
f_w(s, u, t): a trace other than +-2 fixes the class.  The points are
visited on orbit representatives, as probes counts level sets: with A and
B the exponent sums of x and y, (x, y) -> (-x, y) and (x, y) -> (x, -y)
multiply w by (-1)^A and (-1)^B, and entrywise Frobenius maps w to w^phi;
each keeps N and moves the pairs over one point, class by class, to the
pairs over its image point, with w's class relabelled by its trace.  So
f_w is evaluated on one s per orbit of negation and Frobenius and on t = 0
plus one t of each pair {t, -t} (Frobenius only in characteristic 2), and
the class totals of these lines, weighted by orbit size and summed over
every relabelling, are the totals 2|G| times over.  Where f_w = +-2 the
word is evaluated, to split central from unipotent: off the locus
kappa = 0 on one representative pair per point, since a pi-fiber there
is one free PGL(2,q)-orbit; on it, on the pairs of each class
representative x_c of trace s with the y of tr y = t and tr x_c y = u, at
about q pairs per point, solved from one conic for every noncentral x_c
(each is in companion form (0, b, -1/b, s)), or one y per class when x_c
is central.  Both kinds of pairs form one stream, and the word is
evaluated once per batch of at most _LOCUS_BATCH pairs of it, so once per
report at q <= 32 (_pm2_totals).  No pass over the group is made: a word
too long to trace reads f_w from one pair per point, since
tr w(x, y) = f_w(pi(x, y)) on every pair.  Counts accumulate in a fixed
class order, so results are deterministic.

The class table of each q, which holds the conic root table, is built on
first use and looked up after, as the field is (build_class_table).  What
a report reads that no word changes is kept the same way, built on a q's
first report: the orbit representatives, their weights and the pi-fiber
kinds on them (_orbit_frame), and the class relabellings of each parity
of the exponent sums (_relabellings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .gf import GF, field
from .probes import (
    Select,
    _orbit_sum,
    _over_prime_field,
    _representatives,
    _symmetries,
    _u_slices,
    level_set_counts,
)
from .trace import trace_poly
from .tripoly import TriPoly, _power
from .words import Word, X as _GEN_X, _exponent_sums

# Fiber reports hold f_w and the pi-fiber kinds on the orbit representatives
# of F_q^3, and evaluate the word on about q pairs per class representative
# at each such locus point where f_w is +-2, O(q^3) pairs at worst (the
# commutator), in bounded batches.  This is the top of the level-set
# screens' q list, so epsilon can be tested at the same q; there, in a
# fresh process on a 2-vCPU host, the commutator's report takes about
# 0.15 s and 58 MB peak RSS, and that of (xy)^17, past _MAX_TRACED_LENGTH,
# 0.6-1.1 s and 38 MB.
MAX_FIBER_Q = 128

# fiber_distribution reads f_w from the trace polynomial for words of at
# most this many letters after exponent reduction, and from the word on one
# pair per point of F_q^3 (_word_slices) for longer ones.  The slices cost
# time linear in the letters and in the points visited; the product
# engine's trace grows with the syllables and the exponents.  Slices
# against tracing with _u_slices, on the orbit representatives, single runs
# on a 2-vCPU host: (xy)^17 at q = 127, 0.93-1.07 s against 0.03-0.04 s;
# x^17y^16 at q = 127, 0.49-0.55 s against 0.004-0.008 s; a random word of
# 46-48 letters at q = 7, 0.009-0.013 s against 0.028-0.046 s; a 40-syllable
# word of 158 letters at q = 27, 0.11 s against 4.2 s.  The crossover moves
# with q and with the exponents, so no letter count records it; the value
# is kept until a choice by cost is measured (ROADMAP item 5).
_MAX_TRACED_LENGTH = 32

Matrix = tuple[int, int, int, int]

_IDENTITY: Matrix = (1, 0, 0, 1)


# ---------------------------------------------------------------------------
# matrix arithmetic on batches (entries are ints or int64 arrays of codes)


def _mat_mul(F: GF, M, N):
    """M N, reading the GF tables through flat 1-D takes.

    An entry x0 y0 + x1 y1 of M N is read from the add table at
    q (x0 y0) + x1 y1, with q (x0 y0) from the field's q-scaled product
    table.  Each entry of M is scaled by q once for its two products, one
    row of M at a time.
    """
    q, add, mul, scaled = F.q, F.add_table.ravel(), F.mul_table.ravel(), F.scaled_mul_table.ravel()
    e, f, g, h = N
    out = []
    for x0, x1 in (M[:2], M[2:]):
        x0, x1 = x0 * q, x1 * q
        out += (add.take(scaled.take(x0 + y0) + mul.take(x1 + y1)) for y0, y1 in ((e, g), (f, h)))
    return tuple(out)


def _mat_pow(F: GF, M, e: int):
    if e < 0:
        a, b, c, d = M
        M = (d, F.neg_table[b], F.neg_table[c], a)  # the adjugate, M^-1 at det 1
        e = -e
    return _power(M, e, lambda A, B: _mat_mul(F, A, B)) if e else _IDENTITY


def _eval_word(F: GF, w: Word, X, Y):
    """w(X, Y) for matrices of codes or of equal-length code arrays.

    Each distinct block's power is computed once and dropped after its
    last use.  Entries keep the shapes of their operands: a block that only
    touches code matrices stays scalar.
    """
    last = {block: i for i, block in enumerate(w.blocks)}
    powers: dict = {}
    acc = None
    for i, block in enumerate(w.blocks):
        if block not in powers:
            gen, exp = block
            powers[block] = _mat_pow(F, X if gen == _GEN_X else Y, exp)
        power = powers.pop(block) if last[block] == i else powers[block]
        acc = power if acc is None else _mat_mul(F, acc, power)
    return _IDENTITY if acc is None else acc


# ---------------------------------------------------------------------------
# conjugacy classes


@dataclass(frozen=True)
class ClassInfo:
    class_id: str
    rep: Matrix
    trace: int
    ctype: str
    size: int


# ClassTable index column of the unipotent classes; the others use column 0
_UNIPOTENT_KIND = {"unipotent-split-1": 1, "unipotent-split-2": 2}


class ClassTable:
    """Conjugacy classes of SL(2,q) with O(1) vectorized class lookup.

    Classes are indexed by (trace, kind) in one (q, 3) array.  Kind 0 is
    the class of every element of a trace other than +-2 (semisimple) and,
    at trace +-2, the central class +-I.  Kinds 1 and 2 are the noncentral
    (unipotent) classes of trace +-2 whose invariant beta(g) = b if b != 0
    else -c, read off after normalizing the trace sign to +2, is a square
    or a non-square; in characteristic 2 every element is a square, so kind
    2 stays empty.  Noncentral representatives are in companion form (see
    build_class_table).  The lookup is re-verified against a brute-force
    orbit oracle in the test suite.  The table also holds roots, the conic
    root table of F (_quadratic_roots), which every fiber pass reads.
    Tables are shared (build_class_table), so their arrays are read-only.
    """

    def __init__(self, F: GF, classes: Sequence[ClassInfo]):
        self.field = F
        self.q = F.q
        self.classes = tuple(classes)
        self.sizes = np.array([c.size for c in self.classes], dtype=np.int64)
        self._reps = np.array([c.rep for c in self.classes], dtype=np.int64).T  # [entry, class]
        self._index = np.full((F.q, 3), -1, dtype=np.int64)
        for i, c in enumerate(self.classes):
            self._index[c.trace, _UNIPOTENT_KIND.get(c.ctype, 0)] = i
        # by trace z: the class that z fixes, and whether z (+-2) leaves it open
        self.trace_class = self._index[:, 0]
        self.trace_open = self._index[:, 1] >= 0
        self.roots = _quadratic_roots(F)
        for array in (v for v in vars(self).values() if isinstance(v, np.ndarray)):
            array.flags.writeable = False

    def classify_array(self, a, b, c, d) -> np.ndarray:
        F = self.field
        nt = F.neg_table
        tr = F.add_table[a, d]
        out = self.trace_class[tr]
        sel = np.flatnonzero(self.trace_open[tr])  # trace +-2
        # the central elements there have b = c = 0; the rest are unipotent
        sel = sel[(b[sel] != 0) | (c[sel] != 0)]
        if sel.size:
            t, bs = tr[sel], b[sel]
            beta = np.where(bs != 0, bs, nt[c[sel]])
            beta = np.where(t == F.embed_int(2), beta, nt[beta])  # beta(-g) at trace -2
            square = np.isin(beta, F.mul_table.diagonal())
            out[sel] = self._index[t, np.where(square, 1, 2)]
        if (out < 0).any():
            raise RuntimeError("class lookup failed to resolve some elements")
        return out


def _quad_roots(F: GF) -> np.ndarray:
    """Number of roots in F_q of lambda^2 - z*lambda + 1, by z; it is 1 at z = +-2.

    0 is never a root, and a unit lambda is one iff lambda + 1/lambda = z.
    """
    return np.bincount(F.add_table[np.arange(1, F.q), F.inv_table[1:]], minlength=F.q)


@lru_cache(maxsize=None)
def build_class_table(q: int) -> ClassTable:
    """All conjugacy classes of SL(2,q), validated against |G| = q(q^2-1).

    Memoized per q, as gf.field is: every report at q reads one table and
    its conic root table, built on the first call.  A table keeps the GF it
    was built from, also after field.cache_clear(); the field's
    construction is deterministic, so the tables depend on q alone.  Memory
    is one table per q asked for, O(q^2) like that field's own tables.

    Order: the central classes +-I, then the unipotent classes of trace 2
    and of trace -2 (beta = 1, then the least non-square), then one class
    per remaining trace.  When p = 2, +-I coincide and beta = 1 is the only
    square class.  A central class is represented by e I, every other class
    of trace z in companion form (0, b, -1/b, z): b = -1 if semisimple, and
    b = e beta for the unipotent class of trace 2e and invariant beta
    ((0, 1, 1, 0) in characteristic 2), so _locus_pairs solves one conic
    for all of them.
    """
    F = field(q)
    central = {F.add(e, e): e for e in (F.one, F.neg(F.one))}  # trace -> scalar
    betas = (1, *[v for v in range(q) if v not in F.squares][:1])
    classes = [
        ClassInfo(f"central_tr{tr}", (e, 0, 0, e), tr, "central", 1)
        for tr, e in central.items()
    ]
    for tr, e in central.items():
        for kind, beta in enumerate(betas, 1):
            ctype = f"unipotent-split-{kind}"
            b = F.mul(e, beta)
            rep = (0, b, F.neg(F.inv(b)), tr)
            classes.append(
                ClassInfo(f"{ctype}_tr{tr}", rep, tr, ctype, (q * q - 1) // len(betas))
            )
    nroots = _quad_roots(F).tolist()
    for z in range(q):
        if z in central:
            continue
        if nroots[z] == 2:
            ctype, size = "semisimple-split", q * (q + 1)
        elif nroots[z] == 0:
            ctype, size = "semisimple-nonsplit", q * (q - 1)
        else:
            raise RuntimeError(f"trace {z} has a repeated eigenvalue off the center")
        classes.append(ClassInfo(f"{ctype}_tr{z}", (0, F.neg(F.one), 1, z), z, ctype, size))
    total = sum(c.size for c in classes)
    if total != q * (q * q - 1):
        raise RuntimeError(f"class sizes sum to {total}, expected {q * (q * q - 1)}")
    return ClassTable(F, classes)


# ---------------------------------------------------------------------------
# fiber distributions


@dataclass(frozen=True)
class FiberRow:
    class_id: str
    trace: int
    ctype: str
    class_size: int
    fiber_per_element: int
    deviation: Fraction


@dataclass(frozen=True)
class FiberReport:
    word: Word
    q: int
    group: str
    order: int
    total_pairs: int
    rows: tuple[FiberRow, ...]

    def to_csv(self) -> str:
        lines = ["class_id,trace,type,class_size,fiber_per_element,deviation"]
        for r in self.rows:
            lines.append(
                f"{r.class_id},{r.trace},{r.ctype},{r.class_size},"
                f"{r.fiber_per_element},{r.deviation}"
            )
        return "\n".join(lines) + "\n"


def _exponent_residues(w: Word, q: int) -> Word:
    """w with each exponent reduced to its symmetric residue modulo E.

    E = lcm(q-1, q+1, 2p) is a multiple of every element order in SL(2,q),
    so the residue word has the same word map on SL(2,q) as w.
    """
    E = math.lcm(q - 1, q + 1, 2 * field(q).p)
    residues = ((g, e % E) for g, e in w.blocks)
    return Word.from_blocks([(g, r - E if r > E // 2 else r) for g, r in residues])


def _quadratic_roots(F: GF) -> np.ndarray:
    """Both roots in F_q of c^2 + beta c + gamma, indexed [beta, gamma, :].

    Every pair of codes r1 <= r2 is written once, at beta = -(r1 + r2) and
    gamma = r1 r2: a monic quadratic has one multiset of roots, so no entry
    is written twice.  A double root reads (r, r), and (-1, -1) no root.
    """
    q = F.q
    r1, r2 = np.triu_indices(q)
    roots = np.full((q, q, 2), -1, dtype=np.int64)
    roots[F.neg_table[F.add_table[r1, r2]], F.mul_table[r1, r2]] = np.stack((r1, r2), axis=1)
    return roots


def _distinct_roots(table: ClassTable, beta, gamma):
    """(i, c) for each distinct root c of c^2 + beta[i] c + gamma[i], from table.roots."""
    q = table.q
    pair = table.roots.reshape(q * q, 2).take(beta * q + gamma, axis=0)
    pair[pair[:, 1] == pair[:, 0], 1] = -1  # a double root is read once
    i, r = np.nonzero(pair >= 0)
    return i, pair[i, r]


def _point_pairs(table: ClassTable, s, u, t):
    """One pair (x, y) in SL(2,q) with traces (s, u, t) at each point.

    Where s = 2e and u = e t for e = +-1, x = e I and y = [[0, -1], [1, t]].
    Elsewhere x = [[0, -1], [1, s]] and y = [[a, b], [c, d]] with d = t - a
    and b = u + c - s d, where c is a root of c^2 + (u - s d) c + (1 - a d),
    so that det y = 1.  The roots are read from table.roots, and
    a = 0, 1, ... is tried at the points still without a root.  Every
    such point has one: a pair with first entry e I has s = 2e and u = e t,
    so the first entry of a pair there is not scalar; it is then
    GL(2,q)-conjugate to this x, and conjugation keeps the three traces.
    """
    F, q = table.field, table.q
    neg = F.neg_table
    # read by flat 1-D takes: the whole tables at a flat index, or one row
    add, mul = F.add_table.ravel(), F.mul_table.ravel()
    first_root = table.roots[:, :, 0].ravel()
    n = len(s)
    x = (np.zeros(n, dtype=np.int64), np.full(n, F.neg(F.one)), np.full(n, F.one), s.copy())
    y = tuple(np.zeros(n, dtype=np.int64) for _ in range(4))
    central = np.zeros(n, dtype=bool)
    for e in {F.one, F.neg(F.one)}:
        at = (s == F.add(e, e)) & (u == F.mul_table[e].take(t))
        for entry, val in zip(x + y, (e, F.zero, F.zero, e, F.zero, F.neg(F.one), F.one, t[at])):
            entry[at] = val
        central |= at
    todo = np.flatnonzero(~central)
    sq, uq = s * q, u * q
    for a in range(q):
        d = F.add_table[neg.item(a)].take(t.take(todo))
        beta = add.take(uq.take(todo) + neg.take(mul.take(sq.take(todo) + d)))
        c = first_root.take(beta * q + F.add_table[F.one].take(neg.take(F.mul_table[a].take(d))))
        ok = c >= 0
        beta, c, d = beta[ok], c[ok], d[ok]
        for entry, val in zip(y, (a, add.take(beta * q + c), c, d)):
            entry[todo[ok]] = val
        todo = todo[~ok]
        if not todo.size:
            return x, y
    raise RuntimeError("a point has no representative pair")


def _word_slices(
    w: Word, table: ClassTable, select: Select
) -> Iterator[tuple[int, np.ndarray]]:
    """(u, tr w on the grid [s, t] at u), for u = 0, 1, ..., q-1 in turn.

    tr w(x, y) = f_w(s, u, t) on every pair over the point (s, u, t), so
    the word on one pair per point from _point_pairs yields the pairs that
    _u_slices yields from f_w, on the same selection of rows and columns,
    in u's order rather than the pairing's, without tracing w.
    """
    F, q = table.field, table.q
    s_vals, t_vals = select
    shape = (len(s_vals), len(t_vals))
    s, t = np.repeat(s_vals, shape[1]), np.tile(t_vals, shape[0])
    for u in range(q):
        x, y = _point_pairs(table, s, np.full(s.size, u), t)
        a, _, _, d = (np.broadcast_to(v, s.shape) for v in _eval_word(F, w, x, y))
        yield u, F.add_table[a, d].reshape(shape)


def _word_classes(w: Word, table: ClassTable, x, y, z) -> np.ndarray:
    """The class of w(x, y) on each pair, once its trace is checked against z = f_w."""
    F = table.field
    vals = [np.broadcast_to(v, z.shape) for v in _eval_word(F, w, x, y)]
    if not np.array_equal(F.add_table[vals[0], vals[3]], z):
        raise RuntimeError("the word's trace differs from f_w at a pair over a +-2 point")
    return table.classify_array(*vals)


def _off_locus_totals(table: ClassTable, idx, z, wcls, nw) -> np.ndarray:
    """Pairs per class over points off the locus where f_w = z = +-2.

    idx is the class of w on one representative pair per point
    (_point_pairs).  The pi-fiber of such a point is one free
    PGL(2,q)-orbit, and the class of w is conjugation-invariant there, so
    one pair decides the point: if w is central there, the central class of
    trace z gets all q^3 - q pairs; if not, they split evenly over the
    unipotent classes of trace z (two when q is odd, one when q is even),
    which conjugation by PGL(2,q) swaps.  Returns nw rows of totals,
    indexed [weight class, class], each point counted in row wcls[point].
    """
    q = table.q
    central = idx == table.trace_class.take(z)
    unipotent = table._index[z[~central], 1:]
    row, col = np.nonzero(unipotent >= 0)
    order, ncls = q**3 - q, len(table.classes)
    nbins = nw * ncls
    central_counts = np.bincount(wcls[central] * ncls + idx[central], minlength=nbins)
    unipotent_cells = wcls[~central].take(row) * ncls + unipotent[row, col]
    unipotent_counts = np.bincount(unipotent_cells, minlength=nbins)
    totals = order * central_counts + order // (1 + q % 2) * unipotent_counts
    return totals.reshape(nw, ncls)


def _locus_pairs(table: ClassTable, points):
    """The pairs (x_c, y) with traces (s, u, t) at the flat [s, u, t] points.

    x_c runs over the class representatives of trace s.  Returns
    (xc, weight, k, y): the class of x_c, the class whose size each pair
    stands for, the index of its point, and y = (a, b, c, d) as code arrays.
    - noncentral x_c = (0, b_c, -1/b_c, s), in companion form: with
      m = -b_c, d = t - a and beta = u - s d, y = (a, m (beta + c), c / m, d)
      for every a and every root c of c^2 + beta c + (1 - a d).  These are
      the solutions for x_0 = (0, -1, 1, s) conjugated by diag(m, 1), which
      carries x_0 to x_c, so one conic serves every noncentral class;
    - central x_c = e I: only u = e t has pairs, and w(x_c, g y g^-1) is
      conjugate to w(x_c, y), so one y per class of trace t stands for the
      whole class.
    A pair stands for the size of x_c's class, and at a central x_c for the
    size of y's class.
    """
    F, q = table.field, table.q
    add, mul = F.add_table.ravel(), F.mul_table.ravel()  # read by flat 1-D takes
    neg, inv = F.neg_table, F.inv_table
    reps = table._reps
    s, u, t = points // (q * q), points // q % q, points % q
    pm2 = table.trace_open.take(s)

    noncentral = table._index.take(s, axis=0)
    noncentral[pm2, 0] = -1
    row, col = np.nonzero(noncentral >= 0)
    j, a = np.repeat(np.arange(row.size), q), np.tile(np.arange(q), row.size)
    k = row.take(j)
    d = add.take(t.take(k) * q + neg.take(a))
    beta = add.take(u.take(k) * q + neg.take(mul.take(s.take(k) * q + d)))
    gamma = add.take(F.one * q + neg.take(mul.take(a * q + d)))
    i, c = _distinct_roots(table, beta, gamma)
    xc = noncentral[row, col].take(j.take(i))
    m = neg.take(reps[1].take(xc))
    b = mul.take(m * q + add.take(beta.take(i) * q + c))
    parts = [(xc, xc, k.take(i), a.take(i), b, mul.take(c * q + inv.take(m)), d.take(i))]

    pm2 = np.flatnonzero(pm2)
    xc = table.trace_class.take(s[pm2])
    on = np.flatnonzero(u[pm2] == mul.take(reps[0, xc] * q + t[pm2]))
    ycls = table._index[t[pm2[on]]]
    row, col = np.nonzero(ycls >= 0)
    yc = ycls[row, col]
    parts.append((xc[on[row]], yc, pm2[on[row]], *reps[:, yc]))

    xc, weight, k, *y = (np.concatenate(col) for col in zip(*parts))
    return xc, weight, k, tuple(y)


# pairs per batch of the +-2 pass, which evaluates the word once per batch:
# the locus pairs of _LOCUS_BATCH // (4q + 3) locus points, as many as that
# many points can carry, then one pair for each off-locus point that still
# fits; bounds the memory of that evaluation
_LOCUS_BATCH = 2**18


def _pair_batch(table: ClassTable, on_points, off_points, lo: int):
    """(weight, k, x, y): the pairs of one batch of _pm2_totals.

    The locus pairs of on_points come first, as _locus_pairs gives them,
    then the representative pair of each point of off_points from lo on,
    up to _LOCUS_BATCH pairs in all; x and y hold the concatenated code
    arrays, and the parts they were built from are freed on return.
    """
    q = table.q
    xc, weight, k, y = _locus_pairs(table, on_points)
    points = off_points[lo : lo + max(0, _LOCUS_BATCH - xc.size)]
    x_off, y_off = _point_pairs(table, points // (q * q), points // q % q, points % q)
    x = [np.concatenate((col.take(xc), v)) for col, v in zip(table._reps, x_off)]
    return weight, k, x, [np.concatenate(pair) for pair in zip(y, y_off)]


def _pm2_totals(w: Word, table: ClassTable, off, on, nw: int, expected: int) -> np.ndarray:
    """Pairs per class over the points where f_w = z = +-2, indexed [weight class, class].

    off and on are (flat [s, u, t] points, z, weight classes) for the
    points off the locus kappa = 0 and on it.  Their pairs form one stream:
    one representative pair per point off the locus (_point_pairs), and on
    it the pairs of _locus_pairs, about q per class representative and
    point and at most 4q + 3 per point.  Each batch holds the locus pairs
    of a run of locus points, then off-locus points up to _LOCUS_BATCH
    pairs by the pairs actually made, and the word is evaluated once per
    batch (_word_classes); at q <= 32 every report fits one batch.  The
    off-locus part is binned by _off_locus_totals, and each locus pair
    counts the size of the class it stands for: the locus pairs must stand
    for `expected` pairs of the group, the sum of N over the locus points.
    """
    q, ncls = table.q, len(table.classes)
    (off_points, off_z, off_wcls), (on_points, on_z, on_wcls) = off, on
    # [weight class of the point, class the pair stands for, class of w]
    counts = np.zeros(nw * ncls * ncls, dtype=np.int64)
    totals = np.zeros((nw, ncls), dtype=np.int64)
    step = max(1, _LOCUS_BATCH // (4 * q + 3))
    start = lo = 0
    while start < on_points.size or lo < off_points.size:
        batch = slice(start, start + step)
        weight, k, x, y = _pair_batch(table, on_points[batch], off_points, lo)
        hi = lo + x[0].size - k.size
        z = np.concatenate((on_z[batch].take(k), off_z[lo:hi]))
        idx = _word_classes(w, table, x, y, z)
        cell = on_wcls[batch].take(k) * ncls + weight
        counts += np.bincount(cell * ncls + idx[: k.size], minlength=counts.size)
        totals += _off_locus_totals(table, idx[k.size :], off_z[lo:hi], off_wcls[lo:hi], nw)
        start, lo = start + step, hi
    on_totals = table.sizes @ counts.reshape(nw, ncls, ncls)
    if int(on_totals.sum()) != expected:
        raise RuntimeError("the locus pairs do not account for every pi-fiber")
    return totals + on_totals


@lru_cache(maxsize=None)
def _orbit_frame(q: int) -> tuple[Select, np.ndarray, np.ndarray, np.ndarray]:
    """(select, weights, wcls, kinds): the orbit representatives every report at q visits.

    A word's exponent sums A and B are always defined, so both sign rules
    hold for every word and _symmetries moves s and t alike at every
    parity: select, weights and wcls are those of _representatives, and
    kinds the pi-fiber kinds on select (_pi_fiber_kinds), indexed
    [s rep, u, t rep].  Memoized per q and built on the first report at q;
    the arrays are shared, so read-only.  Memory is bounded: over every
    prime power q <= MAX_FIBER_Q the kinds come to 4.2 MB of int8, and the
    frames' other arrays to 0.4 MB.
    """
    table = build_class_table(q)
    s_maps, _, t_mirror, _ = _symmetries(table.field, 0, 0)
    select, weights, wcls = _representatives(s_maps, t_mirror)
    frame = (select, weights, wcls, _pi_fiber_kinds(table, select))
    for array in (*select, *frame[1:]):
        array.flags.writeable = False
    return frame


@lru_cache(maxsize=None)
def _relabellings(q: int, parities: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The class maps of the sign and Frobenius relabellings and of the mirror.

    parities = (A % 2, B % 2) for a word's exponent sums A and B, which fix
    how the relabellings move traces (_symmetries).  Characteristic 2 has
    no sign rules, so reports at even q ask for (0, 0) only.  Memoized per
    (q, parities); the arrays are shared, so read-only.
    """
    table = build_class_table(q)
    _, z_maps, _, z_mirror = _symmetries(table.field, *parities)
    maps = _class_maps(table, z_maps), _class_maps(table, z_mirror)
    for array in maps:
        array.flags.writeable = False
    return maps


def _fiber_totals(w: Word, table: ClassTable) -> np.ndarray:
    """#{(x, y) : w(x, y) in C} per class C, through f_w and the pi-fiber weights.

    The points visited are the orbit representatives of the module
    docstring (_orbit_frame), each line (s, t) weighted by its orbit's
    size.  A trace z other than +-2 fixes the class and gets the weighted
    sum of N over the points where f_w = z, one bincount over (weight
    class, f_w, kind of N).  The points where f_w = +-2 are split by the
    word itself, evaluated once per batch of pairs (_pm2_totals): off the
    locus on one representative pair each, on it on the pairs of each
    class representative with the y of those traces.  The weighted class
    totals are then summed over every relabelling (_relabellings) and
    divided by 2|G| (probes._orbit_sum).  f_w is traced for a word of at
    most _MAX_TRACED_LENGTH letters and read from the word on one pair per
    point for a longer one.
    """
    F, q = table.field, table.q
    A, B, _, _ = _exponent_sums(w.blocks)
    select, weights, wcls, kinds = _orbit_frame(q)  # kinds indexed [s rep, u, t rep]
    if w.length > _MAX_TRACED_LENGTH:
        slices = _word_slices(w, table, select)
    else:
        slices = _u_slices(trace_poly(w).f.reduce_mod(F.p), F, select)
    fw = np.empty(kinds.shape, dtype=np.min_scalar_type(q - 1))  # codes, one byte each at q <= 256
    for u, val in slices:
        fw[:, u] = val
    values, nw = _pi_fiber_values(q), len(weights)
    tally = np.bincount(((wcls[:, None] * q + fw) * 4 + kinds).ravel(), minlength=nw * q * 4)
    by_trace = (weights @ tally.reshape(nw, q * 4)).reshape(q, 4) @ values
    weighted = np.zeros(len(table.classes), dtype=np.int64)
    fixed = np.flatnonzero(~table.trace_open)
    weighted[table.trace_class.take(fixed)] = by_trace.take(fixed)
    pm2 = table.trace_open.take(fw)
    off_locus = np.flatnonzero(pm2 & (kinds == 0))
    on_locus = np.flatnonzero(pm2 & (kinds > 0))
    expected = int(values.take(kinds.ravel().take(on_locus)).sum())

    def located(flat):  # flat [s rep, u, t rep] indices: cube points, f_w, weight classes
        i, u, j = np.unravel_index(flat, kinds.shape)
        points = (select[0].take(i) * q + u) * q + select[1].take(j)
        return points, fw.ravel().take(flat), wcls[i, j]

    off, on = located(off_locus), located(on_locus)
    del fw, pm2  # freed before the +-2 pass, which reads its points only
    weighted += weights @ _pm2_totals(w, table, off, on, nw, expected)
    return _orbit_sum(weighted, *_relabellings(q, (A % 2, B % 2) if q % 2 else (0, 0)))


def _fiber_report(w: Word, q: int, group: str, order: int, rows) -> FiberReport:
    """The report of (class_id, trace, ctype, class size, fiber per element) rows.

    The rows must partition the order^2 pairs of the group; each deviation
    is |fiber - order| / order, that is |fiber / order - 1|.
    """
    if sum(row[3] * row[4] for row in rows) != order * order:
        raise RuntimeError(f"fiber counts do not partition |{group}|^2")
    rows = tuple(FiberRow(*row, deviation=Fraction(abs(row[4] - order), order)) for row in rows)
    return FiberReport(w, q, group, order, order * order, rows)


def fiber_distribution(w: Word, q: int) -> FiberReport:
    """Exact per-element fiber counts of the word map on SL(2,q).

    Counts the pairs (x, y) with w(x, y) in each class C, then divides the
    per-class totals by the class sizes; exactness of that division is
    asserted.  Exponents are first reduced modulo a multiple of every
    element order.  The totals are read from f_w on the sign and Frobenius
    orbit representatives of F_q^3 and relabelled, each point (s, u, t)
    weighted by its pi-fiber count N(s, u, t); the word itself is
    evaluated only where f_w = +-2, to split central from unipotent: on one
    representative pair per point off the locus kappa = 0, and on it on
    the pairs of each class representative x_c with the y of traces
    tr y = t and tr x_c y = u, read off their conic.  The values of f_w
    come from its trace polynomial, or, for a word still longer than
    _MAX_TRACED_LENGTH letters, from the word on one pair per point, so
    the cost stays polynomial in the word.
    """
    if q > MAX_FIBER_Q:
        raise ValueError(f"resource guard exceeded: q = {q} > {MAX_FIBER_Q}")
    table = build_class_table(q)
    totals = _fiber_totals(_exponent_residues(w, q), table)
    if (totals % table.sizes != 0).any():
        raise RuntimeError("per-class totals are not divisible by class sizes")
    per_element = (totals // table.sizes).tolist()
    rows = [(c.class_id, c.trace, c.ctype, c.size, n) for c, n in zip(table.classes, per_element)]
    return _fiber_report(w, q, "SL(2,q)", q**3 - q, rows)


def _sl_report_of(w: Word, q: int, sl_report: Optional[FiberReport]) -> FiberReport:
    """sl_report if it is the SL(2,q) report of w, a new one if it is None."""
    if sl_report is None:
        return fiber_distribution(w, q)
    if (sl_report.word, sl_report.q, sl_report.group) != (w, q, "SL(2,q)"):
        raise ValueError(f"sl_report is not the SL(2,q) report of {w} at q = {q}")
    return sl_report


def _class_maps(table: ClassTable, z_maps: np.ndarray) -> np.ndarray:
    """The class of trace z_maps[..., tr C] and the kind of C, for each class C.

    Negation (beta(-g) = beta(g)) and Frobenius (beta^p is a square iff
    beta is) keep the kind, so these are the classes of -g and g^phi.
    """
    traces = [c.trace for c in table.classes]
    kinds = [_UNIPOTENT_KIND.get(c.ctype, 0) for c in table.classes]
    return table._index[z_maps[..., traces], kinds]


def psl_fiber_distribution(
    w: Word, q: int, sl_report: Optional[FiberReport] = None
) -> FiberReport:
    """Per-element fibers over PSL(2,q), odd q.

    For the two preimages g, -g of a PSL element, the PSL fiber is
    (fiber(g) + fiber(-g)) / 4; the division is asserted exact.  The class
    of -g has trace -tr g and the kind of g's class (_class_maps under
    negation), and each pair of classes gives one row, at the first.  A given
    sl_report must be the SL(2,q) report of w at q, else ValueError.
    """
    # checked before any table is built; fiber_distribution applies MAX_FIBER_Q
    if q % 2 == 0:
        raise ValueError("PSL(2,q) = SL(2,q) for even q; use fiber_distribution")
    report = _sl_report_of(w, q, sl_report)
    table = build_class_table(q)
    partners = _class_maps(table, table.field.neg_table).tolist()
    rows = []
    for i, (c, j) in enumerate(zip(table.classes, partners)):
        if j < i:
            continue  # the row of the pair {j, i} was written at j
        paired_sum = report.rows[i].fiber_per_element + report.rows[j].fiber_per_element
        if paired_sum % 4 != 0:
            raise RuntimeError("paired fiber sum is not divisible by 4")
        if j == i:
            if c.size % 2 != 0:
                raise RuntimeError("self-paired class has odd size")
            size = c.size // 2
        elif table.classes[j].size != c.size:
            raise RuntimeError("negation pairs classes of different sizes")
        else:
            size = c.size
        rows.append((f"psl:{c.class_id}", c.trace, c.ctype, size, paired_sum // 4))
    return _fiber_report(w, q, "PSL(2,q)", (q**3 - q) // 2, rows)


# ---------------------------------------------------------------------------
# minimal-epsilon equidistribution reports


@dataclass(frozen=True)
class EquidistReport:
    q: int
    group: str
    order: int
    degree: int
    epsilon: Fraction
    excluded_classes: tuple[str, ...]
    kept_classes: tuple[str, ...]
    q0: int
    A: int
    alpha: int
    B: int
    beta: Fraction
    cor311_epsilon: float

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "epsilon": str(self.epsilon),
            "excluded_classes": list(self.excluded_classes),
            "params": {
                "q0": self.q0,
                "A": self.A,
                "alpha": self.alpha,
                "B": self.B,
                "beta": float(self.beta),
            },
            "cor311_epsilon": self.cor311_epsilon,
        }


def _cor311_constants(d: int, q: int) -> tuple[int, int, float]:
    """Cor. 3.11 at degree d: q0 = 4(50d^4)^2, B = 100d^4 + 1, and the bound 3B/sqrt(q)."""
    b_const = 100 * d**4 + 1
    return 4 * (50 * d**4) ** 2, b_const, 3 * b_const / math.sqrt(q)


def equidist_epsilon(report: FiberReport) -> EquidistReport:
    """Minimal epsilon in the exclusion sense, plus the theoretical pack.

    Scans per-element deviations in descending order; after excluding the k
    worst elements the feasible epsilon is max(next deviation, k/|G|), and
    the minimum over class-boundary prefixes is reported.  Ties prefer
    fewer excluded elements.  Every deviation is |fiber - |G|| / |G| and
    every prefix share cum / |G|, so the scan compares the integer
    numerators over |G|: the same order and the same ties.
    """
    order = report.order
    items = sorted(
        ((abs(r.fiber_per_element - order), r.class_id, r.class_size) for r in report.rows),
        reverse=True,
    )
    best: Optional[int] = None
    best_cut = 0
    cum = 0
    for cut, (dev, _, size) in enumerate([*items, (0, None, 0)]):
        eps = max(dev, cum)
        if best is None or eps < best:
            best = eps
            best_cut = cut
        cum += size
    excluded = tuple(class_id for _, class_id, _ in items[:best_cut])
    kept = tuple(class_id for _, class_id, _ in items[best_cut:])
    d = trace_poly(report.word).f.total_degree()
    q0, b_const, cor311 = _cor311_constants(d, report.q)
    return EquidistReport(
        q=report.q,
        group=report.group,
        order=order,
        degree=d,
        epsilon=Fraction(best, order),
        excluded_classes=excluded,
        kept_classes=kept,
        q0=q0,
        A=2 * (d + 8),
        alpha=1,
        B=b_const,
        beta=Fraction(1, 2),
        cor311_epsilon=cor311,
    )


def fraction_le_inv_sqrt(eps: Fraction, c: Union[int, Fraction], q: int) -> bool:
    """Exact test of eps <= c / sqrt(q) by squaring (both sides nonnegative)."""
    c = Fraction(c)
    if eps < 0 or c < 0:
        raise ValueError("comparison requires nonnegative quantities")
    return eps * eps * q <= c * c


# ---------------------------------------------------------------------------
# trace-triple fibers and the degenerate locus


def _pi_fiber_kinds(table: ClassTable, select: Optional[Select] = None) -> np.ndarray:
    """Which closed-form value N(s, u, t) takes, as int8 codes indexed [s, u, t].

    select = (s_vals, t_vals) picks the rows s and columns t, as in
    _u_slices; the default is all of F_q^3.

    Kind 0 is off the locus kappa = 0, whose points over each (s, t) are
    the distinct roots u of u^2 - st u + s^2 + t^2 - 4, read from
    table.roots.  On it the kind is 1 plus the number of roots in F_q of
    lambda^2 - z*lambda + 1, for z the first of s, u, t other than +-2 (or
    t, when all three are); where s = +-2, kappa is (u -+ t)^2, so u = +-t
    and z = t.  _pi_fiber_values gives the count of each kind.
    """
    F, q = table.field, table.q
    add, mul = F.add_table.ravel(), F.mul_table.ravel()
    s_vals, t_vals = select if select is not None else (np.arange(q), np.arange(q))
    row, col = np.divmod(np.arange(len(s_vals) * len(t_vals)), len(t_vals))
    s, t = s_vals.take(row), t_vals.take(col)
    sq = F.mul_table.diagonal()
    gamma = add.take(add.take(sq.take(s) * q + sq.take(t)) * q + F.embed_int(-4))
    i, u = _distinct_roots(table, F.neg_table.take(mul.take(s * q + t)), gamma)
    kind = (_quad_roots(F) + 1).astype(np.int8)  # 2 exactly at z = +-2
    ks = kind.take(s.take(i))
    out = np.zeros((len(s_vals), q, len(t_vals)), dtype=np.int8)
    out[row.take(i), u, col.take(i)] = np.where(ks != 2, ks, kind.take(t.take(i)))
    return out


def _pi_fiber_values(q: int) -> np.ndarray:
    """N(s, u, t) by kind: q^3 - q off the locus; on it q^2 - q, q^3 + q^2 - q
    or q(q+1)(2q-1) when lambda^2 - z*lambda + 1 has 0, 1 or 2 roots."""
    return np.array([q**3 - q, q * q - q, q**3 + q * q - q, q * (q + 1) * (2 * q - 1)])


def pi_fiber_table(q: int) -> np.ndarray:
    """All pi-fiber counts N(s, u, t), indexed [s, u, t], in closed form.

    Off the locus kappa = 0 a pair is absolutely irreducible and its traces
    fix it up to GL(2,q)-conjugacy (Fricke; A. M. Macbeath, "Generators of
    the linear fractional groups", 1969), so N = q^3 - q.  On the locus, N
    depends only on the number of roots in F_q of lambda^2 - z*lambda + 1,
    for z the first of s, u, t other than +-2 (or t, when all three are):
    q^2 - q with none, q^3 + q^2 - q with one (z = +-2), q(q+1)(2q-1) with
    two.  The locus is read from the conic root table (_pi_fiber_kinds).
    """
    if q > MAX_FIBER_Q:
        raise ValueError(f"resource guard exceeded: q = {q} > {MAX_FIBER_Q}")
    out = _pi_fiber_values(q).take(_pi_fiber_kinds(build_class_table(q)))
    if int(out.sum()) != (q**3 - q) ** 2:
        raise RuntimeError("pi-fiber table does not partition |G|^2")
    return out


def delta_locus(q: int) -> set[tuple[int, int, int]]:
    """F_q-points (s, u, t) of (t^2-4)(s^2-4)(s^2+t^2+u^2-ust-4) = 0.

    The zero set of the last factor is the locus pi_fiber_table reads from
    the conic root table; the first two vanish where t or s is +-2.
    """
    table = build_class_table(q)
    pm2 = table.trace_open
    zero = (_pi_fiber_kinds(table) > 0) | pm2[:, None, None] | pm2[None, None, :]
    return {tuple(point) for point in np.argwhere(zero).tolist()}


# ---------------------------------------------------------------------------
# image / omitted-value analysis


@dataclass(frozen=True)
class ImageReport:
    word: Word
    q: int
    omitted_traces: tuple[int, ...]
    semisimple_coverage: bool
    omitted_element_fraction: Fraction
    zero_fiber_classes: tuple[str, ...]


def image_analysis(
    w: Word, q: int, sl_report: Optional[FiberReport] = None
) -> ImageReport:
    """Omitted traces and coverage of noncentral semisimple classes.

    A trace z is omitted when every class of trace z has fiber zero.  A
    given sl_report must be the SL(2,q) report of w at q, else ValueError.
    """
    report = _sl_report_of(w, q, sl_report)
    zero_rows = [r for r in report.rows if r.fiber_per_element == 0]
    hit_traces = {r.trace for r in report.rows if r.fiber_per_element > 0}
    omitted = tuple(z for z in range(q) if z not in hit_traces)
    coverage = all(
        r.fiber_per_element > 0
        for r in report.rows
        if r.ctype.startswith("semisimple")
    )
    omitted_fraction = Fraction(sum(r.class_size for r in zero_rows), report.order)
    return ImageReport(
        word=w,
        q=q,
        omitted_traces=omitted,
        semisimple_coverage=coverage,
        omitted_element_fraction=omitted_fraction,
        zero_fiber_classes=tuple(r.class_id for r in zero_rows),
    )


# ---------------------------------------------------------------------------
# level-set point-count screens


@dataclass(frozen=True)
class LevelSetRow:
    z: int
    count: int
    passed: bool


@dataclass(frozen=True)
class LangWeilReport:
    q: int
    degree: int
    excluded: tuple[int, ...]
    rows: tuple[LevelSetRow, ...]
    all_pass: bool
    max_residual: float
    est01_applicable: bool
    est01_ok: Optional[bool]


def lang_weil_check(
    f: TriPoly, q: int, spectrum_exclusions: Iterable[int] = ()
) -> LangWeilReport:
    """Check |N_z - q^2| <= (d-1)(d-2)q^{3/2} + 12(d+3)^4 q off the exclusions.

    d is the degree of the polynomial counted, f mod p for f over Q.  The
    irrational bound is compared exactly by isolating the q^{3/2} term and
    squaring.  When d > 4 and q > 16 the sharper residual form
    |N_z - q^2| < 50 d^4 q is evaluated as well.  A polynomial constant
    mod p is refused with ValueError, as is an exclusion that is not an int
    level 0..q-1 of F_q.

    Neither verdict can fail at a q the library builds (q <= 2048): f - z
    has degree d, so N_z <= d q^2 (Schwartz-Zippel) and |N_z - q^2| <=
    (d - 1) q^2, which is at most 12 (d + 3)^4 q while (d - 1) q <=
    12 (d + 3)^4, true for every d >= 2 at q <= 7500, and below 50 d^4 q
    while (d - 1) q < 50 d^4, true for every d > 4 at q < 7812.  So
    all_pass and est01_ok are True for every accepted input; the screen
    reports the counts, and spectrum_probe is what flags a level.
    """
    levels = set()
    for z in spectrum_exclusions:
        if isinstance(z, bool) or not isinstance(z, (int, np.integer)):
            raise ValueError(f"spectrum exclusion must be an int level: {z!r}")
        levels.add(int(z))
    excluded = tuple(sorted(levels))
    outside = [z for z in excluded if z not in range(q)]
    if outside:
        raise ValueError(f"spectrum exclusions outside the levels 0..{q - 1} of F_{q}: {outside}")
    fq = _over_prime_field(f, field(q))
    if fq.is_constant:
        raise ValueError("level-set screen requires a polynomial nonconstant mod p")
    counts = level_set_counts(fq, q)
    d = fq.total_degree()
    c1 = (d - 1) * (d - 2)
    c2 = 12 * (d + 3) ** 4
    kept = np.ones(q, dtype=bool)
    kept[list(excluded)] = False
    zs = np.flatnonzero(kept)
    level_counts = counts.take(zs)
    diff = np.abs(level_counts - q * q)
    # diff < q^3, so a c2 q clamped to q^3 passes the same levels and keeps head in int64
    head = diff - min(c2 * q, q**3)
    passed = head <= 0
    for i in np.flatnonzero(~passed).tolist():  # head^2 can pass 2^63: square in Python ints
        passed[i] = int(head[i]) ** 2 <= c1 * c1 * q**3
    est01_applicable = d > 4 and q > 16
    top = int(diff.max(initial=0))  # x -> x / q^1.5 rounds monotonically: the largest residual
    rows = tuple(map(LevelSetRow, zs.tolist(), level_counts.tolist(), passed.tolist()))
    return LangWeilReport(
        q=q,
        degree=d,
        excluded=excluded,
        rows=rows,
        all_pass=bool(passed.all()),
        max_residual=top / q**1.5,
        est01_applicable=est01_applicable,
        est01_ok=top < 50 * d**4 * q if est01_applicable else None,
    )


@dataclass(frozen=True)
class SpectrumProbe:
    p: int
    n_list: tuple[int, ...]
    flagged: tuple[int, ...]
    per_field: dict[int, tuple[int, ...]]
    degree: int
    heuristic: bool
    threshold: str


def spectrum_probe(f: TriPoly, p: int, n_list: Sequence[int]) -> SpectrumProbe:
    """Heuristic level-reducibility screen over the fields F_{p^n}, n in n_list.

    Flags prime-field levels z whose point count deviates from q^2 by at
    least q^2/2 at every probed field.  This is a one-sided screen, not an
    irreducibility certificate: reducible levels split into components
    whose counts are near multiples of q^2, while irreducible levels stay
    within the point-count bound at these desk-scale q.  Candidates are
    restricted to the prime field, where the embedding into every probed
    extension is canonical.  The spectrum bound reads the degree of f mod p,
    and a polynomial constant mod p is refused with ValueError, as is a
    degree n in n_list that is not an int >= 1.
    """
    if not n_list:
        raise ValueError("n_list must be nonempty")
    for n in n_list:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"field degree must be an int >= 1: {n!r}")
    fq = f.reduce_mod(p) if f.p is None else f
    if fq.p != p:
        raise ValueError(f"polynomial is over F_{fq.p}, probe requested p = {p}")
    if fq.is_constant:
        raise ValueError("level-set screen requires a polynomial nonconstant mod p")
    d = fq.total_degree()
    per_field: dict[int, tuple[int, ...]] = {}
    flagged: Optional[set[int]] = None
    for n in sorted(set(n_list)):
        q = p**n
        counts = level_set_counts(fq, q)
        deviants = tuple(
            z for z in range(p) if 2 * abs(int(counts[z]) - q * q) >= q * q
        )
        if len(deviants) > max(d - 1, 0):
            raise RuntimeError(
                f"probe at q = {q} flagged {len(deviants)} levels, "
                f"exceeding the spectrum cardinality bound {max(d - 1, 0)}"
            )
        per_field[n] = deviants
        flagged = set(deviants) if flagged is None else flagged & set(deviants)
    return SpectrumProbe(
        p=p,
        n_list=tuple(sorted(set(n_list))),
        flagged=tuple(sorted(flagged or ())),
        per_field=per_field,
        degree=d,
        heuristic=True,
        threshold="2*|N_z - q^2| >= q^2 at every probed field",
    )
