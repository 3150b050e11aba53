"""Functional compositeness of trace polynomials and the equidistribution verdict.

A polynomial P is composite when P = h(Q) with deg h >= 2; for trace
polynomials viewed as univariate in u over the coefficient field k(s, t),
compositeness of f_w mod p decides whether the word map of w
equidistributes on SL(2, p^n) for large n.  Three verdicts per prime:

* NoncompositeP: f_w mod p admits no decomposition at all.
* SpecialP: f_w mod p = core^(p^k) with k >= 1 and noncomposite core;
  the outer layer z^(p^k) permutes every finite extension, so
  equidistribution survives.
* CompositeNotSpecial: the core itself is composite; some outer layer of
  degree >= 2 is not a permutation polynomial of all extensions, and
  equidistribution fails.

The search space is finite: an outer of degree n forces n | deg_u f, and
when the exponent sums A, B are not both zero the outer is a Dickson
polynomial D_d with d dividing every nonzero member of {A, B}, read off
decompose_in_u's witness where its outer is D_d up to scaling Q: a tame
h(Q) with no z^(n-1) term in h fixes Q up to a scalar (von zur Gathen,
J. Symbolic Comput. 9, 1990), and every scalar is tried.  The wild part
of the characteristic is handled entirely by Frobenius stripping, and
exotic wild outers beyond that are out of scope.

A degree rule rules out most of those outers before any search (deg f =
deg h * deg Q, as in Kozen and Landau, "Polynomial decomposition
algorithms", J. Symbolic Comput. 7, 1989).  Let R be Q[s, u, t] or
F_p[s, u, t], both integral domains, and f = h(Q) in R with Q
nonconstant and h = sum h_i z^i of degree n with constant coefficients,
such as D_n or decompose_in_u's h.  Take a weight omega >= 0 on (s, u, t)
and let e = deg_omega Q and Q_top the sum of Q's terms of omega-degree e.
Then Q^n is Q_top^n, nonzero in a domain and of omega-degree n*e, plus
terms of lower omega-degree, and each h_i Q^i with i < n has omega-degree
at most i*e, below n*e when e > 0; when e = 0, f has omega-degree 0 too.
So deg_omega f = n * deg_omega Q.  The weights (0, 1, 0), (1, 0, 0), (0, 0, 1)
and (1, 1, 1) give the degrees in u, s, t and in total, so every outer
degree n divides

    g(f) = gcd(deg_u f, deg_s f, deg_t f, total degree of f),

and the verdicts try only the candidates of ``_outer_degrees`` that divide
g, reading g only where some candidate divides the u-degree.  A candidate
that does not divide g would fail, and candidates are tried largest first
with the first success kept, so no verdict and no witness changes.

Every verdict comes from one routine, ``_decide``, which lists the tame
outer degrees n dividing g once, before any Frobenius strip.  f_w has
integer coefficients; its g and the product c of the contents of its top
faces in s, in t and in total degree (the gcds of the coefficients of its
terms of largest degree in each) are read in one pass, once per word
(``_degree_gcd``, kept on the word's memo entry).  At a prime p dividing
no such content, each top face keeps a coefficient that p does not
divide, so f_w mod p has f_w's degrees in s, t and in total, and its
u-degree is r at every p (below).  At a p dividing c a degree may drop,
as for f = (u + s)^2 - 2 + 3s^3, where deg_s f = 3 rules n = 2 out over
QQ but f mod 3 = D_2(u + s); there g is read off f_w mod p.  On the
benchmark's classify streams every word's top faces have content 1.
The core of f_w mod p = core^(p^j) has r / p^j and g / p^j in place of r
and g, and these list the same outers: for p not dividing n, n | m / p^j
exactly when n | m, since p^j is prime to n.

Each verdict is a function of f_w, r = deg_u f_w and gcd(A, B), 0 exactly
when (A, B) = (0, 0), all invariant under rotation and inversion of the
word and all held on the word's entry in the trace engine's memo
(``trace._WordEntry``), so a verdict reads the entry alone and is searched
for once per word: it is kept in the entry's row, which
``classify_global``, ``classify_rational``, ``classify_p`` and
``power_word_report`` read and fill, and which is evicted with f_w.  For
f_w = sum_i u^i G_i, the leading coefficient G_r = prod_i g_{a_i,b_i}
has leading coefficient +-1, so u^r survives mod p, and at p not
dividing r the exponents' gcd is prime to p: f_w mod p has no Frobenius
layer there and no strip runs.  A prime that does not divide r or c and
leaves no outer degree dividing g is NoncompositeP without reducing f_w.
So is a prime p | r that leaves none, where a term of f_w whose
coefficient p does not divide has exponents with a gcd prime to p
(``tripoly._layer_free``): f_w mod p then has no layer, and f_w is reduced
mod p only when a layer or a search needs the core.
Where gcd(gcd(A, B), r) = 1 no outer degree is listed at all, so the word
is NoncompositeQ, and NoncompositeP at every p not dividing r, with no f_w
built: the entry builds f_w on its first read (``trace._WordEntry``).

A proper power w = v^k is traced as f_w = D_k(f_v), and its entry links to
v's, whose row ``_decide`` fills first.  Where v is NoncompositeQ (over
QQ), or NoncompositeP at a prime p that does not divide k, every verdict
is read off v's: the witness is D_k with inner +-f_v (mod p), the verdict
at p is CompositeNotSpecial with frobenius_k = 0, and nothing is searched
and f_w is not read.  Everywhere else (p | k, or v composite or SpecialP
at p) the search runs on f_w as for any word.  The reading is exact,
since no outer above k exists (below), and by three facts, for p not
dividing k:

(a) With omega a primitive k-th root of unity,
    D_k(x) - D_k(y) = (x - y) (x + y if k is even) prod_{0 < j < k/2}
    (x^2 - (omega^j + omega^-j) x y + y^2 + (omega^j - omega^-j)^2).
    Each quadratic is (x - omega^j y)(x - omega^-j y) plus a nonzero
    constant, so it vanishes at no pair of nonconstant polynomials: both
    linear factors would be constants, and then so would y.  So D_k(Q) =
    f_w = D_k(f_v) forces Q = +-f_v.  The matcher at index k would return
    a Q with D_k(Q) = f_w, and its scaling decides the sign (c).
(b) If f_v mod p is not a p-th power, neither is f_w mod p: some partial
    derivative of f_v is nonzero, and so is D_k'(f_v) times it, since D_k'
    has leading term k z^(k-1).  So frobenius_strip would return j = 0
    and the core f_w mod p, and the reading runs no strip.  A
    NoncompositeP v has frobenius_k = 0.
(c) The leading coefficient lc of f_v's top u-block is +-1 (it is
    G_r's, above), and f_w's is lc^k.  The matcher finds the inner
    lc * f_v, whose top block is monic, and _dickson_normalize
    scales it by the first c in ``_nth_roots(lc^k, k, p)`` order with
    h(z) = D_k(c z).  Those c are lc and, for even k, -lc.  For odd k the
    pick is lc.  For even k, lc^k = 1, and 1 precedes -1 in
    ``_nth_roots`` order, so the pick is 1.  So the inner is f_v, or -f_v
    when k is even and lc = -1.

No outer above k exists.  Let K = Q or F_p, let f_w = D_k(f_v) = h(Q)
with h in K[z] of degree n >= 2, and let L be the algebraic closure of
K(f_w) in K(s, u, t).  Q and f_v lie in L, as roots of h(z) - f_w and
D_k(z) - f_w, and L has transcendence degree 1 over K.  By Lüroth's
theorem extended to such subfields (Gordan; J. Igusa, "On a theorem of
Lueroth", 1951), L = K(P), and since L contains a nonconstant
polynomial, P can be taken to be a polynomial (A. Schinzel, Polynomials
with Special Regard to Reducibility, 2000, Ch. 1).  K(P) meets
K[s, u, t] in K[P]: if a(P)/b(P) is a polynomial, with gcd(a, b) = 1,
then alpha*a + beta*b = 1 in K[z] shows that b(P), which divides a(P),
divides 1.  So f_v = g(P), and since f_v is noncomposite, deg g = 1, so
L = K(f_v) and Q = g_2(f_v) with g_2 in K[z].  Then h(g_2(z)) = D_k(z),
as f_v is transcendental over K, so n divides k.  The argument needs h
to have constant coefficients, which it does; D_2(D_3) = D_3(D_2) gives
larger outers only when the root itself is composite.  At p, the root's
NoncompositeP is a tame verdict, so the proof holds within the module's
standing scope: no wild outer beyond the Frobenius layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from .gf import is_prime, primes_in
from .tripoly import TriPoly, _div, _layer_free, _norm_coeff, _nth_roots, frobenius_strip
from .trace import TraceEngine, _WordEntry, _checked_entry, trace_poly
from .unipoly import UniPoly, dickson, dickson_apply
from .words import (
    DegenerateWordError,
    Word,
    canonicalize,
    proper_power_root,
)

NONCOMPOSITE_P = "NoncompositeP"
SPECIAL_P = "SpecialP"
COMPOSITE_NOT_SPECIAL = "CompositeNotSpecial"
NONCOMPOSITE_Q = "NoncompositeQ"
COMPOSITE_Q = "CompositeQ"


class WildCompositionError(ValueError):
    """Outer degree divisible by the characteristic: Frobenius-strip first."""


@dataclass(frozen=True)
class CompositionWitness:
    """An exact decomposition target = outer(inner)."""

    outer: UniPoly
    inner: TriPoly
    p: Optional[int]
    dickson_index: Optional[int] = None


@dataclass(frozen=True)
class PrimeVerdict:
    p: int
    verdict: str  # NoncompositeP | SpecialP | CompositeNotSpecial
    witness: Optional[CompositionWitness]
    frobenius_k: int


@dataclass(frozen=True)
class GlobalVerdict:
    word: Word
    rational_class: str  # NoncompositeQ | CompositeQ
    rational_witness: Optional[CompositionWitness]
    per_prime: Tuple[PrimeVerdict, ...]
    conclusion: str
    certified_to: Optional[int]
    bad_prime: Optional[int]


@dataclass(frozen=True)
class PowerWordReport:
    word: Word
    root: Word
    multiplicity: int
    dickson_index: Optional[int]
    consistent: bool
    note: str


# -- top-down u-block matching ---------------------------------------------------


def _match_inner(blocks: List[TriPoly], lead: TriPoly, n: int) -> Optional[TriPoly]:
    """The Q with leading u-block ``lead`` whose Q^n matches the top blocks, or None.

    ``blocks`` are the u-blocks of a target of u-degree r = n*m.  In any
    h(Q) with monic h of degree n and no z^(n-1) term, the top m+1
    u-blocks come from Q^n alone.  Write Q = u^m * (a_0 + a_1*v + ... +
    a_m*v^m) with v = 1/u and a_0 = ``lead``, so the u^(r-j) block of Q^k
    is the v^j coefficient of (a_0 + a_1*v + ...)^k.  That coefficient is
    k * a_0^(k-1) * a_j plus a polynomial in a_1, ..., a_(j-1).  Step j
    therefore takes the v^j coefficient of every power k <= n with a_j = 0,
    solves a_j by exact division of the target's u^(r-j) block minus the
    n-th one by n * a_0^(n-1), and adds k * a_0^(k-1) * a_j to the others.
    Only the v^1..v^(m-1) coefficients of the powers k < n are kept:
    O(n*m^2) block products.  None means a division did not come out.
    """
    p = lead.p
    r = len(blocks) - 1
    m = r // n
    zero = TriPoly.zero(p)
    lead_pows = [TriPoly.const(1, p), lead]  # a_0^k for k < n
    while len(lead_pows) < n:
        lead_pows.append(lead_pows[-1] * lead)
    denom = lead_pows[n - 1].scale(n)
    a = [lead]
    # tops[k][i]: v^i coefficient of (a_0 + a_1*v + ...)^k for k < n and i < j;
    # for k = 1 that is a_i, and index 0 is never read
    tops = [[], a] + [[zero] for _ in range(2, n)]
    for j in range(1, m + 1):
        have = [zero, zero]  # v^j coefficients with a_j = 0, for k = 0 and k = 1
        for k in range(2, n + 1):
            acc = lead * have[k - 1] if have[k - 1] else zero
            row = tops[k - 1]
            for i in range(1, j):
                if a[i] and row[j - i]:
                    acc = acc + a[i] * row[j - i]
            have.append(acc)
        sol = (blocks[r - j] - have[n]).divide_exact(denom)
        if sol is None:
            return None
        a.append(sol)
        if j < m:
            for k in range(2, n):
                tops[k].append(have[k] + (lead_pows[k - 1] * sol).scale(k))
    return TriPoly.from_u_coefficients(a[::-1], p)


def dickson_decompose(f: TriPoly, d: int) -> Optional[TriPoly]:
    """The inner Q with f = D_d(Q), or None: decompose_in_u(f, d)'s inner where its outer is D_d.

    Q is unique for odd d and unique up to sign for even d; the sign is
    that of the first c in ``_nth_roots`` order that scales the inner with
    a monic top u-block to Q.
    """
    if d < 2:
        raise ValueError("Dickson index must be >= 2")
    r = f.deg("u")
    if r < 1 or r % d:
        raise ValueError(f"index {d} does not divide u-degree {r}")
    if f.p is not None and d % f.p == 0:
        raise ValueError("wild root index (characteristic divides n)")
    witness = _try_outer(f, f.u_coefficients(), d, False, f.p)
    return None if witness is None else witness.inner


def decompose_in_u(f: TriPoly, n: int) -> Optional[CompositionWitness]:
    """A witness f = h(Q) with deg h = n and constant coefficients, or None.

    Tame n makes the decomposition unique once Q's leading u-block is lam,
    the monic n-th root of f's leading block divided by its leading
    coefficient lc, and h has no z^(n-1) term: lower blocks of Q come from
    matching f / lc against Q^n from the top, then each h_i, i = n-2 down
    to 0, is read off the u^(i*m) block of what remains (it must be a
    constant times lam^i) while h_i * Q^i is peeled away.  Raises in the
    wild case (characteristic divides n).

    A returned witness recomposes to f exactly, though none is recomposed:
    after matching, f - lc * Q^n has u-degree below (n-1)*m, and each step
    refuses a block above u^(i*m) and clears that one, so the peel ends at
    f - h(Q) = 0; _dickson_normalize only rescales, D_n(c*Q) = h(Q).
    """
    if n < 2:
        raise ValueError("outer degree must be >= 2")
    return _decompose_from_blocks(f, f.u_coefficients(), n)


def _decompose_from_blocks(f: TriPoly, blocks: List[TriPoly], n: int) -> Optional[CompositionWitness]:
    """decompose_in_u(f, n) on f's u-blocks, split once by the caller."""
    r = len(blocks) - 1
    if r < 1 or r % n:
        raise ValueError(f"outer degree {n} does not divide u-degree {f.deg('u')}")
    if f.p is not None and n % f.p == 0:
        raise WildCompositionError(f"outer degree {n} is wild in characteristic {f.p}")
    m = r // n
    p = f.p
    lc = blocks[r].leading_coeff()
    inv_lc = _div(1, lc, p)
    # _match_inner reads only the top m + 1 blocks; the peel works on f
    monic = blocks if inv_lc == 1 else blocks[: r - m] + [b.scale(inv_lc) for b in blocks[r - m :]]
    lam = monic[r].nth_root(n)
    if lam is None:
        return None
    inner = _match_inner(monic, lam, n)
    if inner is None:
        return None

    powers = [TriPoly.const(1, p)]
    for _ in range(n):
        powers.append(powers[-1] * inner)
    coeffs = [0] * (n + 1)
    coeffs[n] = lc
    rem = f - powers[n].scale(lc)  # u-degree < (n-1)*m after matching
    for i in range(n - 2, -1, -1):
        top = rem.deg("u")
        if top > i * m:
            return None
        digit = rem.u_coefficients()[i * m] if top == i * m else TriPoly.zero(p)
        h = digit.divide_exact(lam**i)
        if h is None or not h.is_constant:
            return None
        coeffs[i] = h.constant_value()
        rem = rem - powers[i].scale(coeffs[i])

    if rem:
        raise RuntimeError("the peel left a nonzero remainder")
    return _dickson_normalize(UniPoly(coeffs, p), inner, p)


def _dickson_normalize(outer: UniPoly, inner: TriPoly, p: Optional[int]) -> CompositionWitness:
    """Present the outer as a literal D_n when it is one up to scaling."""
    n = outer.degree
    base = dickson(n, p)
    for c in _nth_roots(outer.leading_coeff(), n, p):
        if all(outer[i] == _norm_coeff(base[i] * c**i, p) for i in range(n + 1)):
            return CompositionWitness(
                outer=base, inner=inner.scale(c), p=p, dickson_index=n
            )
    return CompositionWitness(outer=outer, inner=inner, p=p, dickson_index=None)


# -- per-prime and global classification ----------------------------------------


def _outer_degrees(sums_gcd: int, r: int, p: Optional[int]) -> List[int]:
    """The outer degrees of a witness for an f of u-degree r >= 1, largest first.

    They are the divisors n >= 2 of gcd(sums_gcd, r), sums_gcd = gcd(A, B),
    tame at p: wild outers beyond Frobenius layers are out of scope.  With
    (A, B) != (0, 0), n | gcd(|A|, |B|) and n | r, the Dickson indices, is
    n | gcd(sums_gcd, r); with A = B = 0, gcd(0, r) = r gives every divisor
    of r.  Only those dividing f's degree gcd are tried (module docstring).
    """
    m = math.gcd(sums_gcd, r)
    return [n for n in range(m, 1, -1) if m % n == 0 and (p is None or n % p)]


def _degree_gcd(f: TriPoly) -> Tuple[int, int]:
    """(g, c) for a nonzero f: g the gcd of its degrees in u, s, t and in total, c the contents' product.

    c is the product of the contents of f's top faces in s, in t and in
    total degree, the gcds of the coefficients of the terms of largest
    degree in each; for f over the integers, a prime that divides none
    of them leaves every degree of f mod p as f's.  One pass over f's
    terms.
    """
    du = ds = dt = dn = -1
    cs = ct = cn = 0
    for (i, j, k), c in f.terms():
        if j > du:
            du = j
        if i > ds:
            ds, cs = i, c
        elif i == ds:
            cs = math.gcd(cs, c)
        if k > dt:
            dt, ct = k, c
        elif k == dt:
            ct = math.gcd(ct, c)
        n = i + j + k
        if n > dn:
            dn, cn = n, c
        elif n == dn:
            cn = math.gcd(cn, c)
    return math.gcd(du, ds, dt, dn), abs(cs * ct * cn)


def _try_outer(
    f: TriPoly, blocks: List[TriPoly], n: int, zero_sums: bool, p: Optional[int]
) -> Optional[CompositionWitness]:
    """The witness of outer degree n >= 2, D_n unless the exponent sums are (0, 0), or None.

    ``blocks`` are f's u-blocks, which the caller splits once for every n it tries.
    D_n is monic, so no D_n witness exists unless f's top block's lead has an n-th root.
    """
    if not zero_sums and not _nth_roots(blocks[-1].leading_coeff(), n, p):
        return None
    witness = _decompose_from_blocks(f, blocks, n)
    return witness if zero_sums or witness is None or witness.dickson_index == n else None


def _find_witness(
    f: TriPoly, outers: List[int], zero_sums: bool, p: Optional[int]
) -> Optional[CompositionWitness]:
    """The witness of the first outer degree in ``outers`` that succeeds on f over QQ or F_p, or None.

    ``_decide`` passes the degrees of ``_outer_degrees`` that divide f's
    degree gcd, largest first; f is split into u-blocks once for them all.
    """
    if not outers:
        return None
    blocks = f.u_coefficients()
    for n in outers:
        witness = _try_outer(f, blocks, n, zero_sums, p)
        if witness is not None:
            return witness
    return None


def _word_poly(w: Word, engine: Optional[TraceEngine] = None) -> Tuple[Word, _WordEntry]:
    """Canonical form and memo entry (f_w, gcd(A, B), verdicts) of a classifiable word."""
    canon, rec = canonicalize(w)
    if rec.degenerate:
        raise DegenerateWordError(f"classification needs complexity >= 1: {w!r}")
    return _checked_entry(canon, engine)


# The largest p_max classify_global takes.  Its time and the verdict row a
# word's memo entry keeps grow linearly in p_max: at 10^4, on a 2-vCPU host,
# a call on a fresh engine takes 0.04-2 s and a row 0.1-1.2 MB, and at
# 10^6 tracelab classify took 10 s and 75 MB peak RSS.  A verdict at a
# larger p, which classify_p takes, is returned without being kept.
_MAX_P_MAX = 10**4


_MISSING = object()


def _verdict(entry: _WordEntry, p: Optional[int]):
    """The PrimeVerdict at p, or the rational witness for p None, from the entry's row.

    A verdict not in the row yet is decided (``_decide``) and kept there
    for p None or p <= _MAX_P_MAX; one at a larger p is returned unkept,
    so a row holds no more than classify_global up to _MAX_P_MAX fills.
    """
    found = entry.verdicts.get(p, _MISSING)
    if found is _MISSING:
        found = _decide(entry, p)
        if p is None or p <= _MAX_P_MAX:
            entry.verdicts[p] = found
    return found


def _decide(entry: _WordEntry, p: Optional[int]):
    """The verdict at p, or the rational witness for p None, from the word's memo entry (module docstring).

    A proper power v^k whose root is NoncompositeQ (p None), or
    NoncompositeP at a p not dividing k, has every verdict read off v's:
    the witness is D_k with inner +-f_v (mod p), and no outer above k
    exists (module docstring), so nothing is searched.  Otherwise f_w is
    read only for a search, a strip at p | r (or the term that shows a
    strip would find no layer) or a top-face content, and the entry
    builds it on that first read (``trace._WordEntry``): a word
    with gcd(gcd(A, B), r) = 1 lists no outer degree, so its rational
    verdict and its verdict at every p not dividing r build no f_w.
    """
    root = entry.root
    if root is not None and (p is None or entry.k % p):
        below = _verdict(root, p)
        if below is None or p is not None and below.verdict == NONCOMPOSITE_P:
            if entry.k % 2 == 0 and root.top_sign is None:
                # the coefficient of the (s, t)-largest monomial at u^r, read once per root
                root.top_sign = max((i, t, c) for (i, e, t), c in root.f.terms() if e == root.u_degree)[2]
            inner = root.f if entry.k % 2 or root.top_sign == 1 else -root.f
            inner = inner if p is None else inner.reduce_mod(p)
            witness = CompositionWitness(outer=dickson(entry.k, p), inner=inner, p=p, dickson_index=entry.k)
            return witness if p is None else PrimeVerdict(p, COMPOSITE_NOT_SPECIAL, witness, 0)
    r = entry.u_degree
    outers = _outer_degrees(entry.sums_gcd, r, p)
    f = None  # the polynomial searched: f_w over QQ, else the core of f_w mod p
    if outers:
        if entry.faces is None:
            entry.faces = _degree_gcd(entry.f)
        g, content = entry.faces
        if p is not None and content % p == 0:  # f_w mod p may lose a degree
            f = entry.f.reduce_mod(p)
            g = _degree_gcd(f)[0]
        outers = [n for n in outers if g % n == 0]
    strip = p is not None and r % p == 0
    if strip and f is None and not outers and _layer_free(entry.f, p):
        strip = False  # k = 0 and nothing to search: no core to reduce
    if f is None and (outers or strip):
        f = entry.f if p is None else entry.f.reduce_mod(p)
    j = 0
    if strip:
        f, j = frobenius_strip(f)
    witness = None if f is None else _find_witness(f, outers, entry.sums_gcd == 0, p)
    if p is None:
        return witness
    if witness is None and j == 0:
        # one object per p <= _MAX_P_MAX, shared by every row; unkept past it
        return (_noncomposite if p <= _MAX_P_MAX else _noncomposite.__wrapped__)(p)
    if witness is None:
        frob = UniPoly([0] * (p**j) + [1], p)  # z^(p^j), a permutation of every F_{p^n}
        witness = CompositionWitness(outer=frob, inner=f, p=p, dickson_index=p**j)
        return PrimeVerdict(p=p, verdict=SPECIAL_P, witness=witness, frobenius_k=j)
    if j > 0:
        witness = CompositionWitness(
            outer=witness.outer, inner=witness.inner ** (p**j), p=p, dickson_index=witness.dickson_index
        )
    return PrimeVerdict(p=p, verdict=COMPOSITE_NOT_SPECIAL, witness=witness, frobenius_k=j)


def _rational_class(witness: Optional[CompositionWitness]) -> str:
    return NONCOMPOSITE_Q if witness is None else COMPOSITE_Q


@lru_cache(maxsize=None)
def _noncomposite(p: int) -> PrimeVerdict:
    """The NoncompositeP verdict with k = 0 at p, one object shared by every row.

    ``_decide`` calls it only for p <= _MAX_P_MAX, so the cache holds at
    most one verdict per prime up to _MAX_P_MAX.
    """
    return PrimeVerdict(p=p, verdict=NONCOMPOSITE_P, witness=None, frobenius_k=0)


def classify_p(w: Word, p: int) -> PrimeVerdict:
    """Verdict for one prime: strip Frobenius layers, then test the core.

    Raises ValueError unless p is prime: Z/pZ is a field only then.  A
    probable prime past ``gf.is_prime``'s bound is refused too.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _verdict(_word_poly(w)[1], p)


def classify_rational(
    w: Word, engine: Optional[TraceEngine] = None
) -> Tuple[str, Optional[CompositionWitness]]:
    """Compositeness of f_w over the rationals."""
    witness = _verdict(_word_poly(w, engine)[1], None)
    return _rational_class(witness), witness


def check_p_max(p_max: int) -> None:
    """ValueError unless 2 <= p_max <= _MAX_P_MAX: below 2 no prime is classified or certified."""
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    if p_max > _MAX_P_MAX:
        raise ValueError(f"resource guard exceeded: p_max = {p_max} > {_MAX_P_MAX}")


def classify_global(
    w: Word, p_max: int, engine: Optional[TraceEngine] = None
) -> GlobalVerdict:
    """Rational class plus per-prime verdicts for all p <= p_max.

    NotEquidistributed as soon as one prime is CompositeNotSpecial;
    otherwise the verdict certifies equidistribution only up to p_max,
    since the set of exceptional primes has no effective bound here.
    Raises ValueError when p_max < 2, which leaves no prime to certify,
    and past ``_MAX_P_MAX``, the resource guard.
    """
    check_p_max(p_max)
    w, entry = _word_poly(w, engine)
    rational_witness = _verdict(entry, None)
    per_prime = tuple(_verdict(entry, p) for p in primes_in(2, p_max))
    bad = next((v.p for v in per_prime if v.verdict == COMPOSITE_NOT_SPECIAL), None)
    if bad is not None:
        conclusion = "NotEquidistributed"
        certified = None
    else:
        conclusion = f"Equidistributed-certified-to-{p_max}"
        certified = p_max
    return GlobalVerdict(
        word=w,
        rational_class=_rational_class(rational_witness),
        rational_witness=rational_witness,
        per_prime=per_prime,
        conclusion=conclusion,
        certified_to=certified,
        bad_prime=bad,
    )


def power_word_report(w: Word) -> PowerWordReport:
    """Cross-check the free-group power structure against the classifier.

    A proper power (x^a y^b ... )^k must show a Dickson witness D_d with
    k | d whose inner at index k matches the root's trace polynomial; an
    aperiodic word must be rationally noncomposite.  Any mismatch is
    flagged rather than raised, since it would contradict the classified
    dichotomy in the tested regime.  Where the root is NoncompositeQ, a
    proper power's witness is read from its root's row (see the module
    docstring) and matches the root by construction, so the independent
    check of those verdicts is the search on f_w alone, kept in the test
    suite's oracles, not this report.
    """
    w, entry = _word_poly(w)
    root, k = proper_power_root(w)
    witness = _verdict(entry, None)
    d = witness.dickson_index if witness is not None else None
    if k == 1:
        consistent = witness is None
        note = (
            "aperiodic and rationally noncomposite"
            if consistent
            else "aperiodic but composite over the rationals"
        )
        return PowerWordReport(w, root, k, d, consistent, note)
    f_root = trace_poly(root).f
    consistent = False
    if d is not None and d % k == 0:
        # f = D_d(Q) = D_k(D_{d/k}(Q)): the index-k inner, unique up to sign for even k
        inner = dickson_apply(d // k, witness.inner)
        consistent = inner == f_root or (k % 2 == 0 and inner == -f_root)
    note = (
        f"power of index {k} with matching Dickson witness"
        if consistent
        else f"power of index {k} but witness does not match"
    )
    return PowerWordReport(w, root, k, d, consistent, note)
