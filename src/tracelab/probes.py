"""Point counting for trilinear-coordinate level sets over small finite fields.

Counts N_z = #{(s,u,t) in F_q^3 : f(s,u,t) = z} for every z at once, with
the one evaluator of a TriPoly on F_q^3 (`sl2.fiber_distribution` uses
it too).
Writing f = sum_j u^j G_j(s,t), it evaluates each G_j once on a grid of
(s,t), the whole q x q grid unless a sub-grid is selected, then f on that
grid by Horner's rule.  Tables are read flat: with row = q * mul_table[x],
a Horner step in x is add_flat.take(row.take(val) + G), three array
operations on element codes.  At odd q the blocks split by the parity of j,
f = E(u^2) + u O(u^2) (the even/odd split, Knuth, TAOCP vol. 2, 4.6.4), and
one Horner pass in v = u^2 over E and over O serves both roots +-u of v.
E's last step reads a q-scaled add table, so one index q E + u O reads
E + u O = f(u) from add_flat and E - u O = f(-u) from the subtraction table
add[:, neg].  A square with one root gets a Horner pass in u: u = 0, which
reads G_0, and every u in characteristic 2, where squaring is a bijection;
the two pairing tables are built at odd q only.  Per point, at odd q, that
is about (3 deg_u f + 1) / 2 array operations against 3 deg_u f for a pass
per u, in O(rows x cols x deg_u f) memory; the cube is never held.

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
primes and by a further factor near n at q = p^n.  Each slice is tallied by
one bincount of f's values weighted by their lines' weights in float64:
every partial sum is an integer of at most q^3 <= 2048^3 < 2^53, so the
float sums are exact.  sl2's fiber pass visits the same representatives
(_representatives) and relabels through the same sum (_orbit_sum), with the
two parities read off its word's exponent sums.

An f of u-degree at most 2 is counted on the same lines without slices.  On
the line (s, t), f = a u^2 + b u + c with a = G_2, b = G_1 and c = G_0 read
off the block grids, and its counts over u have closed forms (Lidl and
Niederreiter, Finite Fields, ch. 6):

- a = b = 0: q at level c;
- a = 0 != b, or q even with b = 0 != a, where squaring is a bijection:
  every level once;
- q odd, a != 0: completing the square, 1 + chi(a) chi(z - c0) at level z,
  with chi the quadratic character and c0 = c - b^2 / (4a) the vertex value;
- q even, a, b != 0: u = (b / a) v turns f = z into v^2 + v = lam (z + c)
  with lam = a / b^2, which has 1 + psi(lam c) psi(lam z) roots, psi =
  (-1)^Tr for the absolute trace Tr of F_q to F_2 (Artin-Schreier).

The weighted tally is then w at every level for each line of weight w that
is not constant in u, qw at c for each constant one, and one sum over the
weighted heights: sum_c H[c] chi(z - c), H[c0] summing w chi(a), or
sum_lam K[lam] psi(lam z), K[lam] summing w psi(lam c).  That is O(q^2) work
in place of the slices' O(q^3 deg_u f / 4).  The heights are bincounts in
float64 of integers of size at most q^2, so exact, and the sums are int64
products of -1/0/1 tables with them, of size at most q^3.  On the seed-1
levelsets stream 81 of 252 requests have u-degree <= 2 (63 commutators and
18 random words); their counts took about a quarter of _cube_counts' time
on the slices, 160-210 ms in all, and take 31-41 ms in closed form.

An f of u-degree 3 is counted on the same lines without slices when p != 3,
from its blocks a = G_3, b = G_2, c = G_1, d = G_0 and the normal forms of
cubics (same reference).  A line with a = 0 is a quadratic and takes the
closed forms above.  For a != 0, with g = a u^3 + b u^2 + c u + d:

- depress: put beta = b / (3a), which is b / a in characteristic 2; then
  u = v - beta gives a v^3 + c' v + d' with c' = c - b beta and d' =
  g(-beta);
- scale: put lam = c' / a; v = alpha w with alpha^2 = lam / kappa gives
  a alpha^3 (w^3 + kappa w) + d', where kappa = 1 when lam is a nonzero
  square (every nonzero lam in characteristic 2), kappa = nu, one fixed
  nonsquare, when lam is a nonsquare, and kappa = 0 with alpha = 1 when
  lam = 0;
- read: u -> w is a bijection of F_q, so the line has H_kappa[(z - d') m]
  points at level z, with m = 1 / (a alpha^3) and H_kappa[y] = #{w : w^3 +
  kappa w = y}, one bincount of length q per kappa.  w^3 + kappa w is odd,
  so H_kappa(-y) = H_kappa(y), and -alpha serves as well as alpha: of each
  pair +-m the smaller code is taken, which halves the m in use at odd q.

With K_kappa[m, e] the weight of the lines with that kappa, that m and
e = d' m, and Circ_kappa[e, y] = H_kappa[y - e], the weighted tally is

    T[z] = sum_kappa sum_(m != 0) C_kappa[m, z m],  C_kappa = K_kappa Circ_kappa.

The product runs in float64 through numpy's BLAS, on the m that some line
holds, _M_BLOCK rows of K at a time, and each row of C is gathered at
z -> z m.  Every entry of K, Circ and C and every partial sum of an entry
of C is a nonnegative integer of at most 3 sum w = 3 q^2 (a cubic has at
most 3 roots, and the line weights sum to q^2), below 2^53 at every q <=
2048, so every order of summation gives the exact sum, at any thread count;
the gathered sums are at most q^3 < 2^53.  int64 would need no such
argument, but numpy runs an int64 matmul in its own loop: q x 2q x q took
4.5-5 ms at q = 128 on a 2-vCPU host, more than a whole count on the
slices, against 0.1 ms in float64.  The work is q^2 multiply-adds per row
of K, in BLAS, in place of the slices' 5 array operations a point at odd q
(3 deg_u f at even q), and the memory is O(q^2): besides the block grids,
one q x q float64 circulant at a time (128 KB at q = 128, 32 MB at q =
2048) and O(_M_BLOCK q) for the rest.  Characteristic 3, where 3a = 0, and
u-degree >= 4 keep the slices.
On the seed-1 levelsets stream 108 of 252 requests are cubic; _cube_counts
took 2.2-2.4 ms on each of them on the slices and takes 0.9-1.1 ms.

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

# rows m of the cubic tally's product per block: its temporaries stay O(_M_BLOCK q)
_M_BLOCK = 16


def _u_blocks_on_grid(f: TriPoly, F: GF, select: Select) -> list[np.ndarray]:
    """Each u-block G_j(s,t) of f over F_p on the grid [s, t], s and t from select."""
    q, add, mul = F.q, F.add_table.ravel(), F.mul_table.ravel()
    s_vals, t_vals = select
    blocks = f.u_coefficients()
    top = max(f.deg("s"), f.deg("t"))
    pows = [np.full(q, F.one), np.arange(q)]  # pows[i][x] = x^i
    while len(pows) <= top:
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


def _u_slices(f: TriPoly, F: GF, select: Select) -> Iterator[tuple[int, np.ndarray]]:
    """(u, f over F_p on the grid [s, t] at u), once for every u of F_q.

    select = (s_vals, t_vals) picks the rows and columns.  u = 0 comes
    first, as G_0; the rest come in the order of the pairing, not of u.  At
    odd q each pair (u, -u) comes from one Horner pass in v = u^2 over
    f = E(u^2) + u O(u^2), as in the module docstring; in characteristic 2,
    where every square has one root, and for f free of u, each u gets a
    Horner pass in u.  A slice may be shared with another one or with the
    block grids, so callers only read it.
    """
    # built per call, not read from GF.scaled_mul_table: each level-set field
    # (q up to 128) would keep 8 q^2 bytes more, for no measured gain here
    q, add, scaled = F.q, F.add_table.ravel(), F.mul_table * F.q

    def horner(row, grids):  # sum_j x^j grids[j], row = q * mul_table[x]
        val = grids[-1]
        for grid in grids[-2::-1]:
            val = add.take(row.take(val) + grid)
        return val

    blocks = _u_blocks_on_grid(f, F, select)
    yield 0, blocks[0]
    if F.p == 2 or len(blocks) == 1:
        for u in range(1, q):
            yield u, horner(scaled[u], blocks)
        return
    neg = F.neg_table
    add_q = add * q  # q (a + b) at a q + b
    sub = F.add_table[:, neg].ravel()  # a - b at a q + b
    even, odd = blocks[0::2], blocks[1::2]
    low_q = even[0] * q
    for u in np.flatnonzero(np.arange(q) < neg).tolist():  # one u of each pair
        row = scaled[F.mul_table.item(u, u)]
        qe = add_q.take(row.take(horner(row, even[1:])) + even[0]) if len(even) > 1 else low_q
        at = qe + F.mul_table[u].take(horner(row, odd))  # q E + u O
        yield u, add.take(at)
        yield neg.item(u), sub.take(at)


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


def _quadratic_character(F: GF) -> np.ndarray:
    """chi[x] = 1, -1 or 0 as x is a nonzero square, a nonsquare or 0 of F (q odd), as int8."""
    chi = np.full(F.q, -1, dtype=np.int8)
    chi[F.mul_table.diagonal()] = 1
    chi[0] = 0
    return chi


def _absolute_trace(F: GF) -> np.ndarray:
    """Tr(x) = x + x^2 + x^4 + ... + x^(2^(n-1)) for every x of F = F_(2^n), codes 0 and 1."""
    q, add, mul = F.q, F.add_table.ravel(), F.mul_table.ravel()
    trace = power = np.arange(q)
    for _ in range(F.n - 1):
        power = mul.take(power * q + power)
        trace = add.take(trace * q + power)
    return trace


def _quadratic_tally(blocks: list[np.ndarray], F: GF, line: np.ndarray) -> np.ndarray:
    """T[z] = sum of line[i] * #{u : a u^2 + b u + c = z} over the lines i, in closed form.

    blocks = [G_0, G_1, G_2] of an f of u-degree <= 2 on the lines, fewer
    where the u-degree is lower; line holds each line's int64 weight.  The
    closed forms, and why the sums are exact, are in the module docstring.
    """
    q, add, mul = F.q, F.add_table.ravel(), F.mul_table.ravel()
    inv, neg = F.inv_table, F.neg_table
    zero = np.zeros_like(line)
    c, b, a = ([blk.ravel() for blk in blocks] + [zero, zero])[:3]
    const = (a == 0) & (b == 0)
    const_line = line[const]
    tally = q * np.bincount(c[const], weights=const_line, minlength=q).astype(np.int64)
    tally += line.sum() - const_line.sum()  # one u per level on every other line
    if F.p > 2:  # 1 + chi(a) chi(z - c0) at the vertex value c0 = c - b^2 / (4a)
        char = _quadratic_character(F)
        shift = mul.take(mul.take(b * q + b) * q + inv.take(mul.take(F.embed_int(4) * q + a)))
        key, sign = add.take(c * q + neg.take(shift)), char.take(a)
        table, column = add, neg  # kernel[z, key] = chi(z - key), z - key = add[z, neg[key]]
    else:  # 1 + psi(lam c) psi(lam z) with lam = a / b^2, psi = (-1)^Tr
        char = (1 - 2 * _absolute_trace(F)).astype(np.int8)
        key = mul.take(a * q + inv.take(mul.take(b * q + b)))  # 0 where a = 0 or b = 0
        sign = char.take(mul.take(key * q + c)) * (key != 0)
        table, column = mul, np.arange(q)  # kernel[z, key] = psi(key z)
    heights = np.bincount(key, weights=line * sign, minlength=q)
    support = np.flatnonzero(heights)
    # kernel[z, i] at the i-th key of the support, an int8 q x len(support) table
    kernel = char.take(table.take(np.arange(q)[:, None] * q + column.take(support)))
    # an int64 matrix-vector product, O(q^2): numpy's own loop costs little at that
    # size and is exact with no bound to argue, unlike _cubic_tally's O(q^3) matmul
    return tally + kernel @ heights.take(support).astype(np.int64)


def _normal_cubic_counts(F: GF, kappa: int) -> np.ndarray:
    """H[y] = #{w in F : w^3 + kappa w = y} for every y, as int64."""
    q, add, mul, w = F.q, F.add_table.ravel(), F.mul_table.ravel(), np.arange(F.q)
    return np.bincount(add.take(mul.take(mul.take(w * q + w) * q + w) * q + F.mul_table[kappa]), minlength=q)


def _cubic_normal_form(F: GF, a, b, c, d):
    """(kappas, kind, m, e) with #{u : a u^3 + b u^2 + c u + d = z} = H[z m - e] for every z.

    Elementwise over arrays of codes with a != 0, p != 3; H counts the
    levels of w^3 + kappa w for kappa = kappas[kind] (_normal_cubic_counts),
    m != 0 is one of each pair +-m, and the derivation is in the module
    docstring.
    """
    q, add, mul = F.q, F.add_table.ravel(), F.mul_table.ravel()
    inv, neg = F.inv_table, F.neg_table
    # u = v + x with x = -beta = -b / (3a): a v^3 + c' v + d' with c' = c + b x, d' = g(x)
    inv_a = inv.take(a)
    x = neg.take(mul.take(b * q + F.mul_table[inv[F.embed_int(3)]].take(inv_a)))
    lam = mul.take(add.take(mul.take(b * q + x) * q + c) * q + inv_a)  # c' / a
    shift = a
    for coef in (b, c, d):
        shift = add.take(mul.take(shift * q + x) * q + coef)
    # kappa = 0 where lam = 0, 1 where lam is a nonzero square, nu (the least nonsquare) where not
    square = np.zeros(q, dtype=np.intp)
    square[F.mul_table.diagonal()] = 1
    kappas = [0, 1] + [int(np.argmin(square))] * (F.p > 2)
    kind = np.where(lam == 0, 0, 2 - square.take(lam))
    # v = alpha w with alpha^2 = lam / kappa, alpha = 1 where kappa = 0; m = 1 / (a alpha^3)
    root = np.ones(q, dtype=np.intp)  # root[0] = 1 serves kappa = 0
    root[F.mul_table.diagonal()[1:]] = np.arange(1, q)
    alpha = root.take(mul.take(lam * q + inv.take(kappas).take(kind)))
    m = inv.take(mul.take(mul.take(mul.take(alpha * q + alpha) * q + alpha) * q + a))
    m = np.minimum(m, neg.take(m))  # -alpha serves as well as alpha, since H(-y) = H(y)
    return kappas, kind, m, mul.take(shift * q + m)


def _cubic_tally(blocks: list[np.ndarray], F: GF, line: np.ndarray) -> np.ndarray:
    """T[z] = sum of line[i] * #{u : a u^3 + b u^2 + c u + d = z} over the lines i, for p != 3.

    blocks = [G_0, G_1, G_2, G_3] = [d, c, b, a] of an f of u-degree 3 on
    the lines; line holds each line's int64 weight.  Lines with a = 0 go to
    _quadratic_tally, every other line through its normal form
    (_cubic_normal_form) to one float64 product per kappa; why that is
    exact is in the module docstring.
    """
    q = F.q
    d, c, b, a = (blk.ravel() for blk in blocks)
    tally = np.zeros(q, dtype=np.int64)
    flat = a == 0
    if flat.any():
        tally += _quadratic_tally([d[flat], c[flat], b[flat]], F, line[flat])
        d, c, b, a, line = (arr[~flat] for arr in (d, c, b, a, line))
    kappas, kind, m, e = _cubic_normal_form(F, a, b, c, d)
    # lines in order of (kappa, m); the distinct (kappa, m), ranked, are the rows of K
    key = kind * q + m
    order = np.argsort(key.astype(np.int16), kind="stable")  # a radix sort: key < 3 q <= 6144
    key, weight = key.take(order), line.take(order).astype(np.float64)
    col = F.neg_table.take(e.take(order))  # circulant row -e reads H(-e + y) = H(y - e)
    new = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    rank, heads = np.cumsum(new) - 1, key[new]
    firsts = np.append(np.flatnonzero(new), len(key)).tolist()  # rank r holds lines firsts[r]:firsts[r + 1]
    segments = np.searchsorted(heads, np.arange(len(kappas) + 1) * q).tolist()
    offsets = np.arange(0, _M_BLOCK * q, q)[:, None]
    total, circ = np.zeros(q), np.empty((q, q))
    for k, kappa in enumerate(kappas):
        if segments[k] == segments[k + 1]:
            continue
        np.take(_normal_cubic_counts(F, kappa).astype(np.float64), F.add_table, out=circ)  # H(e' + y)
        for r0 in range(segments[k], segments[k + 1], _M_BLOCK):
            r1 = min(r0 + _M_BLOCK, segments[k + 1])
            lo, hi = firsts[r0], firsts[r1]
            block = np.bincount((rank[lo:hi] - r0) * q + col[lo:hi], weights=weight[lo:hi],
                                minlength=(r1 - r0) * q).reshape(r1 - r0, q)
            # C[m, y] = sum_e K[m, e] H(y - e), and level z of the lines at m reads C[m, z m]
            at = F.mul_table.take(heads[r0:r1] - k * q, axis=0) + offsets[: r1 - r0]
            total += (block @ circ).ravel().take(at).sum(axis=0)
    return tally + total.astype(np.int64)


@lru_cache(maxsize=4)
def _cube_counts(f: TriPoly, F: GF) -> np.ndarray:
    """N_z of f over F_p for every z of F = F_q, from the weighted orbit tally.

    The orbit-representative lines carry their weights.  For f of u-degree
    <= 2 each line's counts over u are read off its blocks a = G_2, b =
    G_1, c = G_0 in closed form (_quadratic_tally); for u-degree 3 and p !=
    3, off its blocks G_3..G_0 through the normal form w^3 + kappa w and one
    float64 product per kappa (_cubic_tally); otherwise each slice of
    _u_slices is binned by f's value with its line's weight as a float64.
    All three are exact, see the module docstring.  The weighted counts are
    relabelled by _orbit_sum, and the result must partition the q^3 points.
    """
    q = F.q
    s_maps, z_maps, t_mirror, z_mirror = _symmetries(F, *_parities(f))
    select, weights, cls = _representatives(s_maps, t_mirror)
    if f.deg("u") <= 2:
        tally = _quadratic_tally(_u_blocks_on_grid(f, F, select), F, weights.take(cls).ravel())
    elif f.deg("u") == 3 and F.p != 3:
        tally = _cubic_tally(_u_blocks_on_grid(f, F, select), F, weights.take(cls).ravel())
    else:
        line = weights.take(cls).ravel().astype(np.float64)
        slices = _u_slices(f, F, select)
        tally = sum(np.bincount(val.ravel(), weights=line, minlength=q) for _u, val in slices)
        tally = tally.astype(np.int64)
    counts = _orbit_sum(tally, z_maps, z_mirror)
    if int(counts.sum()) != q**3:
        raise RuntimeError("level-set counts do not partition the coordinate cube")
    return counts


def _over_prime_field(f: TriPoly, F: GF) -> TriPoly:
    """f as a polynomial over F's prime field F_p: reduced mod p if f is over Q."""
    if f.p is not None and f.p != F.p:
        raise ValueError(f"polynomial over F_{f.p} cannot be evaluated in F_{F.q}")
    return f.reduce_mod(F.p) if f.p is None else f


def level_set_counts(f: TriPoly, q: int) -> np.ndarray:
    """All level-set sizes at once: counts[z] = N_z, an array of length q."""
    F = field(q)
    return _cube_counts(_over_prime_field(f, F), F).copy()
