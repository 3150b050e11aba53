"""Independent reference implementations used to derive expected values.

Everything here deliberately avoids the library's own computational paths:
polynomials are plain dicts, words are letter strings, group elements are
4-tuples multiplied by hand.  Field arithmetic reuses the GF lookup tables
(addition/multiplication in a finite field has one correct answer; the
interesting logic being cross-checked lives above that layer).  The
exceptions are `class_index`, the library's class lookup on one matrix
(checked against brute-force orbits in the tests), and
`direct_fiber_totals` and `group_pi_table`, which reuse the
library's direct word evaluator and class lookup (both checked against
brute force in the tests) on `enumerate_group` as the references for the
fiber counts that `sl2` reads from f_w and for its closed-form pi-fiber
table, `word_value`, the determinant check on one pair in front of that
evaluator, which the tests check against `word_eval_string`,
`kappa_zero`, kappa built as a `TriPoly` and evaluated on all of F_q^3
by the library's cube evaluator, the reference for the locus that `sl2`
reads from its conic root table, `cube_level_counts`, the same evaluator's
count over the whole cube, the reference for the orbit counts of `probes`,
`match_inner_full_power`, the
u-block matcher that raises the whole of Q to the n-th power for every
block, kept on `TriPoly` arithmetic as the reference for the truncated
matcher in `decompose`, and `fricke_trace`, the recursion on trace
identities that the trace engine ran before its 4-basis product, kept on
`TriPoly` arithmetic as the reference for that product.  The library values
that only tests build or read go through small helpers on the library's
types: `tripoly_from_terms` and `monomial`, a `TriPoly` from exponent
triples, `_decode`, a `TriPoly` from one entry of a file that
`cache.TraceCache.save` wrote, the reader the library ran on each entry
when it still loaded the file, kept as the reference reader for the save
format, `unipoly_value`, a `UniPoly` at a point by Horner, and
`recompose`, outer(inner) for a `CompositionWitness` on `TriPoly`
arithmetic, the reference the witness tests compare against.
`apply_move` applies one of the `NIELSEN_MOVES`, which generate Aut(F_2),
to a `Word` by substitution.  `searched_verdict` is the witness search that
`decompose` ran on every word before it read a proper power's verdicts
from its root and before it ruled outer degrees out by f_w's degrees:
every outer degree n >= 2, tame at p, that divides the u-degree and both
exponent sums, read off that definition rather than `_outer_degrees`,
tried on f_w over QQ, or on the core of f_w mod p = core^(p^j), stripped
at every p and rewrapped as `_decide` rewraps a core witness or its
absence, with no memo row, no root's row, no degree rule and no shortcut:
the reference for every verdict `_decide` gives, rational, per-prime or
read from a root.  With exponent sums (A, B) = (0, 0) it runs
`decompose_in_u`'s matcher; its Dickson witnesses, for (A, B) != (0, 0),
come from `dickson_from_blocks`, the matcher `dickson_decompose` ran
before Dickson witnesses were read off `decompose_in_u`'s: it tries every
d-th root of unity times one root of the top block, refuses a candidate
whose D_d differs from f at s = u = t = 1, and recomposes the rest.  Its
pick of sign is its own, so it agrees with `dickson_decompose` up to sign.
`nth_roots_by_scan` is the scan of F_p that `tripoly._nth_roots` ran
before it took roots through the cyclic group, the reference for it.
`perfbench_inputs` loads the benchmark's input streams, so tests can run
the words the benchmark sends.  `all_rotations_canonical_cyclic` compares
every rotation, as `trace._canonical_cyclic` did before it compared only
those that start on an x-block, and `syllable_stats` reads `stats` from
the syllable tuple, as `words.stats` did before it read the blocks in one
pass; `enumerated_by_syllables` and `sampled_by_syllables` build each word
of `enumerate_words` and `sample_words` through `Word.from_syllables`, as
both did before they built words from their blocks.  `scalar_bound` is
the packed product's coefficient bound 5 * prod growth(block), which
`trace._product` used before it carried a bound per component.  Each is
the reference for the rule that replaced it.
"""

import importlib.util
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from tracelab.decompose import (
    COMPOSITE_NOT_SPECIAL,
    NONCOMPOSITE_P,
    SPECIAL_P,
    CompositionWitness,
    PrimeVerdict,
    _decompose_from_blocks,
    _match_inner,
)
from tracelab.gf import _factor_prime_power, field
from tracelab.probes import _u_slices
from tracelab.sl2 import _IDENTITY, _eval_word, build_class_table
from tracelab.tripoly import TriPoly, _norm_coeff, _nth_roots, _pack, frobenius_strip
from tracelab.unipoly import UniPoly, _recurrence, dickson, dickson_apply
from tracelab.words import X as GEN_X, Y as GEN_Y, Word, _candidate_cells, _compositions

# ---------------------------------------------------------------------------
# library values that only tests build or read


def perfbench_inputs():
    """The module ``perfbench/inputs.py``, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def tripoly_from_terms(terms, p=None):
    """The TriPoly of a {(i, j, k): coefficient} dict of s^i u^j t^k terms."""
    return TriPoly({_pack(*m): c for m, c in terms.items()}, p)


def monomial(c, i, j, k, p=None):
    """c s^i u^j t^k as a TriPoly."""
    return tripoly_from_terms({(i, j, k): c}, p)


def _decode(text):
    """The polynomial an entry encodes, or None when it encodes none."""
    if not isinstance(text, str):
        return None
    coeffs = {}
    try:
        for term in text.split(";"):
            i, j, k, c = map(int, term.split(","))
            coeffs[_pack(i, j, k)] = c
    except ValueError:  # a non-integer field, the wrong field count or an exponent out of range
        return None
    return TriPoly(coeffs)


def unipoly_value(f, x):
    """f(x) for a UniPoly f by Horner, reduced mod f.p over F_p."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * x + c
        if f.p is not None:
            acc %= f.p
    return acc


def recompose(witness):
    """outer(inner) for a CompositionWitness, by Horner on TriPoly arithmetic."""
    outer, p = witness.outer, witness.p
    acc = TriPoly.const(outer.leading_coeff(), p)
    for i in range(outer.degree - 1, -1, -1):
        acc = acc * witness.inner + TriPoly.const(outer[i], p)
    return acc


# images of x and y under the Nielsen moves, which generate Aut(F_2)
NIELSEN_MOVES = {
    "x->xy": {GEN_X: ((GEN_X, 1), (GEN_Y, 1)), GEN_Y: ((GEN_Y, 1),)},
    "y->yx": {GEN_X: ((GEN_X, 1),), GEN_Y: ((GEN_Y, 1), (GEN_X, 1))},
    "x->x^-1": {GEN_X: ((GEN_X, -1),), GEN_Y: ((GEN_Y, 1),)},
    "x<->y": {GEN_X: ((GEN_Y, 1),), GEN_Y: ((GEN_X, 1),)},
}


def apply_move(images, w):
    """alpha(w) for the automorphism with the given images of x and y."""
    blocks = []
    for g, e in w.blocks:
        image = images[g] if e > 0 else tuple((h, -f) for h, f in reversed(images[g]))
        blocks.extend(image * abs(e))
    return Word.from_blocks(blocks)


# ---------------------------------------------------------------------------
# Laurent polynomials in one variable x, as {exponent: coefficient} dicts


def lau_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def lau_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
            if out[e] == 0:
                del out[e]
    return out


def lau_pow(a, n):
    out = {0: 1}
    for _ in range(n):
        out = lau_mul(out, a)
    return out


def lau_scale(a, c):
    return {e: c * v for e, v in a.items()} if c else {}


LAU_X = {1: 1}
LAU_XINV = {-1: 1}
LAU_S = {1: 1, -1: 1}  # x + 1/x


def lau_from_unipoly(coeffs, point):
    """Evaluate sum(coeffs[i] * point**i) in the Laurent ring."""
    out = {}
    for i, c in enumerate(coeffs):
        out = lau_add(out, lau_scale(lau_pow(point, i), c))
    return out


# ---------------------------------------------------------------------------
# naive trivariate polynomial model: {(i, j, k): coeff} for s^i u^j t^k


def tri_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
        if out[m] == 0:
            del out[m]
    return out


def tri_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = out.get(m, 0) + c1 * c2
            if out[m] == 0:
                del out[m]
    return out


def tri_reduce(a, p):
    """{(i,j,k): coeff} with integer coefficients reduced mod p, zeros dropped."""
    return {m: c % p for m, c in a.items() if c % p}


def frobenius_strip_brute(terms, p):
    """(core terms, k) with f = core^(p^k) over F_p and k maximal, from the definition.

    Tries k from the largest exponent down: the candidate core divides
    every exponent by p^k, and it counts only when p^k - 1 more naive
    multiplications mod p give f back.  ``terms`` is a non-constant dict
    of residues mod p.
    """
    f = tri_reduce(terms, p)
    top = max(max(m) for m in f)
    for k in range(top.bit_length(), -1, -1):
        q = p**k
        if any(e % q for m in f if m != (0, 0, 0) for e in m):
            continue
        core = {tuple(e // q for e in m): c for m, c in f.items()}
        power = core
        for _ in range(q - 1):
            power = tri_reduce(tri_mul(power, core), p)
        if power == f:
            return core, k
    raise AssertionError("k = 0 always recomposes")


def nth_roots_by_scan(n, p):
    """For each c in F_p, the ascending x in F_p with x^n = c, from one scan of F_p."""
    roots = [[] for _ in range(p)]
    for x in range(p):
        roots[pow(x, n, p)].append(x)
    return roots


def tri_eval_mod(terms, p, s, u, t):
    """Evaluate a {(i,j,k): coeff} dict at integers mod a prime."""
    total = 0
    for (i, j, k), c in terms.items():
        total += int(c) * pow(s, i, p) * pow(u, j, p) * pow(t, k, p)
    return total % p


# ---------------------------------------------------------------------------
# symbolic trace by a left-to-right 2x2 product over Z[s,u,t][xi]/(xi^2 - u*xi + 1)
#
# A ring element is a pair (a, b) of trivariate dicts meaning a + b*xi.  With
# xi*(u - xi) = 1 the matrices X = [[s, -1], [1, 0]] and Y = [[0, xi],
# [xi - u, t]] lie in SL(2) and have tr X = s, tr XY = u, tr Y = t, the same
# realization eval_trace_direct uses over F_q.

_XI_U = {(0, 1, 0): 1}


def _xi_add(a, b):
    return (tri_add(a[0], b[0]), tri_add(a[1], b[1]))


def _xi_mul(a, b):
    # (p + q xi)(r + w xi) = (pr - qw) + (pw + qr + u*qw) xi, as xi^2 = u xi - 1
    qw = tri_mul(a[1], b[1])
    re = tri_add(tri_mul(a[0], b[0]), tri_mul({(0, 0, 0): -1}, qw))
    im = tri_add(tri_add(tri_mul(a[0], b[1]), tri_mul(a[1], b[0])), tri_mul(_XI_U, qw))
    return (re, im)


def _xi_mat_mul(A, B):
    a, b, c, d = A
    e, f, g, h = B
    return (
        _xi_add(_xi_mul(a, e), _xi_mul(b, g)),
        _xi_add(_xi_mul(a, f), _xi_mul(b, h)),
        _xi_add(_xi_mul(c, e), _xi_mul(d, g)),
        _xi_add(_xi_mul(c, f), _xi_mul(d, h)),
    )


def _xi_const(c, mono=(0, 0, 0), xi=0):
    return ({mono: c} if c else {}, {(0, 0, 0): xi} if xi else {})


_XI_ZERO, _XI_ONE, _XI_NEG = _xi_const(0), _xi_const(1), _xi_const(-1)
_XI_S, _XI_T = _xi_const(1, (1, 0, 0)), _xi_const(1, (0, 0, 1))
_XI_MATS = {
    "x": (_XI_S, _XI_NEG, _XI_ONE, _XI_ZERO),
    "X": (_XI_ZERO, _XI_ONE, _XI_NEG, _XI_S),
    "y": (_XI_ZERO, _xi_const(0, xi=1), _xi_const(-1, (0, 1, 0), xi=1), _XI_T),
    "Y": (_XI_T, _xi_const(0, xi=-1), _xi_const(1, (0, 1, 0), xi=-1), _XI_ZERO),
}


def trace_by_product(wtext):
    """f_w as a {(i, j, k): coeff} dict, from the product of the letters' matrices."""
    acc = (_XI_ONE, _XI_ZERO, _XI_ZERO, _XI_ONE)
    for ch in wtext:
        acc = _xi_mat_mul(acc, _XI_MATS[ch])
    re, im = _xi_add(acc[0], acc[3])
    assert not im, "trace left Z[s, u, t]"
    return re


def scalar_bound(tables):
    """5 * prod growth(table), growth the largest sum of |c| over one target's entries of a block table."""
    bound = 5
    for table in tables:
        bound *= max(sum(abs(c) for _, _, c in parts) for parts in table)
    return bound


# ---------------------------------------------------------------------------
# the classical Fricke recursion on trace identities, memoized on rotations

_FS, _FU, _FT = TriPoly.var("s"), TriPoly.var("u"), TriPoly.var("t")


def _free_core(blocks):
    """Free and then cyclic reduction of a (generator, exponent) block sequence."""
    out = []
    for g, e in blocks:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append((g, e))
    while len(out) >= 2 and out[0][0] == out[-1][0]:
        g, e = out[0][0], out[0][1] + out[-1][1]
        out = out[1:-1]
        if e:
            out.append((g, e))
    return tuple(out)


def _block_inverse(blocks):
    return tuple((g, -e) for g, e in reversed(blocks))


def _chebyshev_pair(n, z, a, b):
    """(f_(n-1), f_n) for f_0 = a, f_1 = b and f_(k+1) = z f_k - f_(k-1), n >= 1."""
    for _ in range(n - 1):
        a, b = b, z * b - a
    return a, b


def fricke_trace(w, memo=None):
    """f_w as a TriPoly from the trace identities, with no product of matrices.

    tr 1 = 2, tr g^e = D_|e|(tr g), tr UV = tr U tr V - tr UV^-1 (the split
    of a word into its first syllable and the rest) and, for a block g^e
    with |e| >= 2, tr g^e R = V_|e|(tr g) tr g^(+-1) R - V_(|e|-1)(tr g) tr R.
    Rotation and inversion keep the trace, so ``memo`` is keyed on the least
    rotation of the blocks or of their inverse.  A proper power takes no
    shortcut, so the engine's f_(v^k) = D_k(f_v) is checked as well.  The
    split makes the cost exponential in the syllables.
    """
    return _fricke(w.blocks, {} if memo is None else memo)


def _fricke(blocks, memo):
    blocks = _free_core(blocks)
    n = len(blocks)
    if n == 0:
        return TriPoly.const(2)
    if n == 1:
        g, e = blocks[0]
        z = _FS if g == GEN_X else _FT
        return _chebyshev_pair(abs(e), z, TriPoly.const(2), z)[1]
    key = min(
        seq[i:] + seq[:i] for seq in (blocks, _block_inverse(blocks)) for i in range(n)
    )
    if key in memo:
        return memo[key]
    idx = max(range(n), key=lambda i: abs(key[i][1]))
    g, e = key[idx]
    if abs(e) >= 2:
        rest = key[idx + 1 :] + key[:idx]
        z = _FS if g == GEN_X else _FT
        v_prev, v_e = _chebyshev_pair(abs(e), z, TriPoly.zero(), TriPoly.const(1))
        unit = ((g, 1 if e > 0 else -1),)
        f = v_e * _fricke(unit + rest, memo) - v_prev * _fricke(rest, memo)
    elif n == 2:
        f = _FU if key[0][1] * key[1][1] > 0 else _FS * _FT - _FU
    else:
        head, tail = key[:2], key[2:]
        cross = _fricke(head + _block_inverse(tail), memo)
        f = _fricke(head, memo) * _fricke(tail, memo) - cross
    memo[key] = f
    return f


# ---------------------------------------------------------------------------
# trace of a Word on explicit matrices over F_q[T]/(T^2 - u*T + 1)


def eval_trace_direct(w, field, s, u, t):
    """tr w(X, Y) for explicit matrices with tr X = s, tr XY = u, tr Y = t.

    Works in R = F_q[T]/(T^2 - u*T + 1): with xi the class of T we have
    xi * (u - xi) = 1, so X = [[s, -1], [1, 0]] and Y = [[0, xi],
    [-(u - xi), t]] are in SL(2, R) and realize the three traces.  The
    word's trace is a polynomial in s, u, t with integer coefficients, so
    it lands in F_q; the T-component is checked to vanish.
    """
    # table lookups bound once: this loop is the oracle's whole cost
    add = field.add_table.item
    mul = field.mul_table.item
    neg = field.neg_table.item

    def radd(p, q):
        return (add(p[0], q[0]), add(p[1], q[1]))

    def rmul(p, q):
        a, b = p
        c, d = q
        bd = mul(b, d)
        re = add(mul(a, c), neg(bd))
        im = add(add(mul(a, d), mul(b, c)), mul(u, bd))
        return (re, im)

    zero = (0, 0)
    one = (1, 0)

    def mmul(A, B):
        a00, a01, a10, a11 = A
        b00, b01, b10, b11 = B
        return (
            radd(rmul(a00, b00), rmul(a01, b10)),
            radd(rmul(a00, b01), rmul(a01, b11)),
            radd(rmul(a10, b00), rmul(a11, b10)),
            radd(rmul(a10, b01), rmul(a11, b11)),
        )

    def rneg(p):
        return (neg(p[0]), neg(p[1]))

    def minv(A):
        # determinant is 1 throughout, so the adjugate inverts
        a00, a01, a10, a11 = A
        return (a11, rneg(a01), rneg(a10), a00)

    def mpow(A, e):
        out = (one, zero, zero, one)
        while e:
            if e & 1:
                out = mmul(out, A)
            e >>= 1
            if e:
                A = mmul(A, A)
        return out

    xi = (0, 1)
    mx = ((s, 0), (neg(1), 0), one, zero)
    my = (zero, xi, (neg(u), 1), (t, 0))
    acc = (one, zero, zero, one)
    for g, e in w.blocks:
        base = mx if g == GEN_X else my
        if e < 0:
            base, e = minv(base), -e
        acc = mmul(acc, mpow(base, e))
    tr = radd(acc[0], acc[3])
    if tr[1] != 0:
        raise RuntimeError("trace left the base field")
    return tr[0]


# ---------------------------------------------------------------------------
# words as letter strings over {x, X, y, Y}


_INV = {"x": "X", "X": "x", "y": "Y", "Y": "y"}
_GEN = {"x": "x", "X": "x", "y": "y", "Y": "y"}


def reduced_strings(n):
    """All freely reduced letter strings of length exactly n."""
    if n == 0:
        return [""]
    out = [c for c in "xXyY"]
    for _ in range(n - 1):
        nxt = []
        for w in out:
            for c in "xXyY":
                if _INV[w[-1]] != c:
                    nxt.append(w + c)
        out = nxt
    return out


def canonical_strings(n):
    """Reduced strings starting with an x-letter and ending with a y-letter.

    In a reduced string the maximal runs alternate between x-letters and
    y-letters, so this is exactly the x-first whole-syllable condition.
    """
    return [w for w in reduced_strings(n) if _GEN[w[0]] == "x" and _GEN[w[-1]] == "y"]


def string_syllables(w):
    """Signed (x_exp, y_exp) syllable pairs of a canonical string."""
    runs = []
    for c in w:
        sign = 1 if c in "xy" else -1
        gen = _GEN[c]
        if runs and runs[-1][0] == gen:
            runs[-1][1] += sign
        else:
            runs.append([gen, sign])
    assert len(runs) % 2 == 0
    return [(runs[2 * i][1], runs[2 * i + 1][1]) for i in range(len(runs) // 2)]


def string_is_proper_power(w):
    """True when the syllable list is a repetition of a shorter pattern."""
    syl = string_syllables(w)
    r = len(syl)
    for d in range(1, r):
        if r % d == 0 and syl == syl[: d] * (r // d):
            return True
    return False


# ---------------------------------------------------------------------------
# prime powers


def prime_powers(lo, hi):
    """All prime powers q with lo <= q <= hi, ascending."""
    out = []
    for q in range(max(lo, 2), hi + 1):
        try:
            _factor_prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


# ---------------------------------------------------------------------------
# 2x2 matrices over GF(q) as row-major 4-tuples


def mat_mul(F, m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (
        F.add(F.mul(a, e), F.mul(b, g)),
        F.add(F.mul(a, f), F.mul(b, h)),
        F.add(F.mul(c, e), F.mul(d, g)),
        F.add(F.mul(c, f), F.mul(d, h)),
    )


def mat_inv(F, m):
    # adjugate; valid for determinant 1
    a, b, c, d = m
    return (d, F.neg(b), F.neg(c), a)


def mat_neg(F, m):
    return tuple(F.neg(v) for v in m)


def class_index(table, m):
    """Index in table.classes of the matrix m, by the library's class lookup."""
    return int(table.classify_array(*np.array(m, dtype=np.int64)[:, None])[0])


def enumerate_group(F):
    """All of SL(2,q) as four parallel code arrays (a, b, c, d).

    Deterministic order: ascending a, then b, then the free coordinate.
    """
    q = F.q
    mt, at, nt, inv = F.mul_table, F.add_table, F.neg_table, F.inv_table
    free = np.arange(q, dtype=np.int64)
    units = free[1:]
    # a = 0: bc = -1 forces c, d free
    b0, d0 = np.meshgrid(units, free, indexing="ij")
    c0 = nt[inv[b0]]
    # a != 0: d = a^{-1} (1 + b c), c free
    a1, b1, c1 = np.meshgrid(units, free, free, indexing="ij")
    d1 = mt[inv[a1], at[F.one, mt[b1, c1]]]
    out = tuple(
        np.concatenate((v0.ravel(), v1.ravel()))
        for v0, v1 in ((np.zeros_like(b0), a1), (b0, b1), (c0, c1), (d0, d1))
    )
    if out[0].shape[0] != q**3 - q:
        raise RuntimeError("group enumeration does not match |SL(2,q)|")
    return out


def group_elements(q):
    F = field(q)
    arrs = enumerate_group(F)
    return F, list(zip(*(a.tolist() for a in arrs)))


def word_eval_string(F, wtext, X, Y):
    tab = {"x": X, "y": Y, "X": mat_inv(F, X), "Y": mat_inv(F, Y)}
    cur = (F.one, F.zero, F.zero, F.one)
    for ch in wtext:
        cur = mat_mul(F, cur, tab[ch])
    return cur


def word_value(w, X, Y, F):
    """Evaluate w at the pair (X, Y); matrix powers use repeated squaring."""
    for name, (a, b, c, d) in (("X", X), ("Y", Y)):
        if F.add(F.mul(a, d), F.neg(F.mul(b, c))) != F.one:
            raise ValueError(f"{name} does not have determinant 1")
    return tuple(int(v) for v in _eval_word(F, w, X, Y))


def brute_conjugacy_orbits(q):
    """Partition SL(2,q) into conjugacy orbits by direct conjugation."""
    F, mats = group_elements(q)
    seen = set()
    orbits = []
    for m in mats:
        if m in seen:
            continue
        orb = set()
        for g in mats:
            orb.add(mat_mul(F, mat_mul(F, g, m), mat_inv(F, g)))
        orbits.append(frozenset(orb))
        seen |= orb
    return orbits


def brute_sl_fibers(wtext, q):
    """Per-element fiber counts of the word map on SL(2,q), O(|G|^2)."""
    F, mats = group_elements(q)
    cnt = Counter()
    for X in mats:
        for Y in mats:
            cnt[word_eval_string(F, wtext, X, Y)] += 1
    return F, cnt


def direct_fiber_totals(w, q):
    """#{(x, y) : w(x, y) in C} per class C, evaluating w on every pair.

    Every class representative is run against the whole group through the
    library's word evaluator and class lookup, never through f_w; each count
    is weighted by the size of the representative's class.
    """
    table = build_class_table(q)
    F = table.field
    ys = enumerate_group(F)
    n = len(ys[0])
    totals = np.zeros(len(table.classes), dtype=np.int64)
    for cls in table.classes:
        vals = _eval_word(F, w, cls.rep, ys)
        idx = table.classify_array(*(np.broadcast_to(v, (n,)) for v in vals))
        totals += cls.size * np.bincount(idx, minlength=len(totals))
    return totals.tolist()


def trace_xy(F, xmat, ys):
    """tr(xmat * y) for code arrays ys = (a, b, c, d), read by flat 1-D takes."""
    add, mt, q = F.add_table.ravel(), F.mul_table, F.q
    x0, x1, x2, x3 = xmat
    a, b, c, d = ys
    # tr(x y) = x0 a + x1 c + x2 b + x3 d
    left = add.take(mt[x0].take(a) * q + mt[x1].take(c))
    right = add.take(mt[x2].take(b) * q + mt[x3].take(d))
    return add.take(left * q + right)


def group_pi_table(q):
    """pi-fiber counts indexed [s, u, t], by one pass over the group per class.

    Each class representative x_c is run against every y; the pairs are
    counted by (tr x_c y, tr y) and weighted by the size of x_c's class.
    """
    table = build_class_table(q)
    F = table.field
    ys = enumerate_group(F)
    tr_y = trace_xy(F, _IDENTITY, ys)
    out = np.zeros((q, q, q), dtype=np.int64)
    for cls in table.classes:
        grid = np.bincount(trace_xy(F, cls.rep, ys) * q + tr_y, minlength=q * q)
        out[cls.trace] += cls.size * grid.reshape(q, q)
    return out


def epsilon_feasible(report, eps):
    """Can a set of at most eps*|G| elements absorb every deviation > eps?

    Deviations are constant on classes, so the optimal excluded set is a
    union of whole classes plus possibly part of one; excluding the
    worst-deviation elements first is optimal, hence the simple count.
    """
    excluded = sum(r.class_size for r in report.rows if r.deviation > eps)
    return Fraction(excluded, report.order) <= eps


def brute_psl_fibers(wtext, q):
    """Per-element fiber counts on PSL(2,q), odd q, O(|PSL|^2).

    Elements are the lexicographically smaller member of each {g, -g} pair.
    """
    F, mats = group_elements(q)
    reps = sorted({min(m, mat_neg(F, m)) for m in mats})
    cnt = Counter()
    for X in reps:
        for Y in reps:
            v = word_eval_string(F, wtext, X, Y)
            cnt[min(v, mat_neg(F, v))] += 1
    return F, reps, cnt


def brute_pi_table(q):
    """Counts of pairs (X, Y) by trace triple (tr X, tr XY, tr Y)."""
    F, mats = group_elements(q)
    cnt = Counter()
    for X in mats:
        for Y in mats:
            XY = mat_mul(F, X, Y)
            s = F.add(X[0], X[3])
            u = F.add(XY[0], XY[3])
            t = F.add(Y[0], Y[3])
            cnt[(s, u, t)] += 1
    return cnt


def kappa_zero(F):
    """Where kappa = s^2 + t^2 + u^2 - sut - 4 vanishes on F_q^3, indexed [s, u, t].

    kappa(tr x, tr xy, tr y) = tr[x, y] - 2, so this is the locus where the
    pair (x, y) is not absolutely irreducible.
    """
    s, u, t = (TriPoly.var(v, F.p) for v in "sut")
    kappa = s * s + t * t + u * u - u * s * t - TriPoly.const(4, F.p)
    return np.stack([val == 0 for val in _u_slices(kappa, F, (np.arange(F.q), np.arange(F.q)))], axis=1)


# ---------------------------------------------------------------------------
# scalar evaluation and level-set counting (no vectorization, no Horner blocks)


def poly_value(f, F, s, u, t):
    """f(s, u, t) at codes of F, term by term; f is a TriPoly over F_p."""
    if f.p != F.p:
        raise ValueError("polynomial is not over the field's prime field")
    mul, add = F.mul_table.item, F.add_table.item
    terms = list(f.terms())
    rows = []  # rows[v][e] = (s, u, t)[v]^e
    for v, base in enumerate((s, u, t)):
        row = [F.one]
        for _ in range(max((m[v] for m, _ in terms), default=0)):
            row.append(mul(row[-1], base))
        rows.append(row)
    ps, pu, pt = rows
    total = F.zero
    for (i, j, k), c in terms:  # coefficients are residues mod p, codes of F_p
        total = add(total, mul(mul(mul(c, ps[i]), pu[j]), pt[k]))
    return total


def cube_level_counts(f, q):
    """N_z for every z from the library's evaluator on the whole cube, no symmetry used.

    One bincount per u-slice of the full q x q grid, with the partition
    check: the reference for the orbit counts of `level_set_counts`.
    """
    F = field(q)
    g = f if f.p is not None else f.reduce_mod(F.p)
    counts = sum(np.bincount(val.ravel(), minlength=q) for val in _u_slices(g, F, (np.arange(q), np.arange(q))))
    if int(counts.sum()) != q**3:
        raise RuntimeError("level-set counts do not partition the coordinate cube")
    return counts.tolist()


def naive_level_counts(f, q):
    F = field(q)
    g = f if f.p is not None else f.reduce_mod(F.p)
    counts = [0] * q
    for s in range(q):
        for u in range(q):
            for t in range(q):
                counts[poly_value(g, F, s, u, t)] += 1
    return counts


# ---------------------------------------------------------------------------
# Dickson reference via the functional equation on exact rationals


def dickson_value(n, v):
    """x^n + x^-n where v = x + 1/x, computed from the recurrence.

    D_0 = 2, D_1 = v, D_{k+1} = v*D_k - D_{k-1}; exact on Fractions.
    """
    n = abs(n)
    a, b = Fraction(2), Fraction(v)
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, Fraction(v) * b - a
    return b


# ---------------------------------------------------------------------------
# u-block matching by the whole n-th power of Q, once per block


def match_inner_full_power(blocks, lead, n):
    """The Q with leading u-block ``lead`` whose Q^n matches the top blocks, or None.

    For each lower block j = 1..m of Q, rebuilds Q from the blocks found
    so far (zeros below), raises it to the n-th power and solves the
    target's u^(r-j) block minus that power's by n * lead^(n-1).
    """
    p = lead.p
    r = len(blocks) - 1
    m = r // n
    q = [TriPoly.zero(p)] * m + [lead]
    denom = (lead ** (n - 1)).scale(n)
    for j in range(1, m + 1):
        have = (TriPoly.from_u_coefficients(q, p) ** n).u_coefficients()
        sol = (blocks[r - j] - have[r - j]).divide_exact(denom)
        if sol is None:
            return None
        q[m - j] = sol
    return TriPoly.from_u_coefficients(q, p)


# ---------------------------------------------------------------------------
# the witness search on f_w alone


def _coefficient_sum(f):
    """Sum of f's coefficients, normalized: the value at s = u = t = 1."""
    return _norm_coeff(sum(c for _, c in f.terms()), f.p)


def dickson_from_blocks(f, blocks, d):
    """The inner Q with f = D_d(Q) on f's u-blocks, or None, by every root of unity and recomposition."""
    r = len(blocks) - 1
    if r < 1 or r % d:
        raise ValueError(f"index {d} does not divide u-degree {f.deg('u')}")
    root0 = blocks[r].nth_root(d)
    if root0 is None:
        return None
    target = None
    for zeta in _nth_roots(1, d, f.p):
        cand = _match_inner(blocks, root0.scale(zeta), d)
        if cand is None:
            continue
        if target is None:
            target = _coefficient_sum(f)
        z = _coefficient_sum(cand)
        if _norm_coeff(_recurrence(d, z, 2, z)[1], f.p) != target:
            continue
        if dickson_apply(d, cand) == f:
            return cand
    return None


def _search(f, A, B, p):
    """The first witness over the outer degrees, largest first, or None.

    The degrees are the n >= 2 tame at p that divide f's u-degree, A and B;
    with A = B = 0 every n divides both sums.
    """
    blocks = f.u_coefficients()
    r = f.deg("u")
    for n in range(r, 1, -1):
        if r % n or A % n or B % n or (p is not None and n % p == 0):
            continue
        if (A, B) == (0, 0):
            witness = _decompose_from_blocks(f, blocks, n)
        else:
            q = dickson_from_blocks(f, blocks, n)
            witness = None if q is None else CompositionWitness(dickson(n, p), q, p, dickson_index=n)
        if witness is not None:
            return witness
    return None


def searched_verdict(f, A, B, p):
    """The rational witness of f_w for p None, else the PrimeVerdict at p, by search.

    f is f_w over QQ and A, B the word's exponent sums.  At p, f mod p is
    stripped of its Frobenius layers, f mod p = core^(p^k), the core is
    searched, and a core witness is raised back to f or, if there is none
    and k > 0, z^(p^k) is the SpecialP witness.
    """
    if p is None:
        return _search(f, A, B, None)
    core, k = frobenius_strip(f.reduce_mod(p))
    witness = _search(core, A, B, p)
    if witness is None and k == 0:
        return PrimeVerdict(p=p, verdict=NONCOMPOSITE_P, witness=None, frobenius_k=0)
    if witness is None:
        frob = UniPoly([0] * p**k + [1], p)
        witness = CompositionWitness(outer=frob, inner=core, p=p, dickson_index=p**k)
        return PrimeVerdict(p=p, verdict=SPECIAL_P, witness=witness, frobenius_k=k)
    if k:
        witness = CompositionWitness(
            outer=witness.outer, inner=witness.inner ** (p**k), p=p, dickson_index=witness.dickson_index
        )
    return PrimeVerdict(p=p, verdict=COMPOSITE_NOT_SPECIAL, witness=witness, frobenius_k=k)


# ---------------------------------------------------------------------------
# the word rules that read syllables and every rotation


def all_rotations_canonical_cyclic(blocks):
    """The least of every rotation of a block sequence and of its inverse, none skipped."""
    inverse = _block_inverse(blocks)
    return min(seq[i:] + seq[:i] for seq in (blocks, inverse) for i in range(len(seq)))


def syllable_stats(w):
    """(r, A, B, Abar, Bbar, length) of a canonical word, read from its syllables."""
    sylls = w.syllables  # DegenerateWordError on non-canonical input
    return (
        len(sylls),
        sum(a for a, _ in sylls),
        sum(b for _, b in sylls),
        sum(abs(a) for a, _ in sylls),
        sum(abs(b) for _, b in sylls),
        sum(abs(a) + abs(b) for a, b in sylls),
    )


def _signed_syllables(shape, bits):
    """The syllables of a shape's exponents, bit i of bits negating the i-th."""
    vals = [-m if (bits >> i) & 1 else m for i, m in enumerate(shape)]
    it = iter(vals)
    return tuple(zip(it, it))


def enumerated_by_syllables(max_length):
    """``enumerate_words(max_length)``, each word built by ``Word.from_syllables``."""
    return [
        Word.from_syllables(_signed_syllables(shape, bits))
        for n, r, _ in _candidate_cells(max_length, "any")
        for shape in _compositions(n, 2 * r)
        for bits in range(1 << (2 * r))
    ]


def sampled_by_syllables(max_length, count, seed):
    """``sample_words(max_length, count, seed)``, each word built by ``Word.from_syllables``."""
    cells = _candidate_cells(max_length, "any")
    rng = random.Random(seed)
    total = sum(c for _, _, c in cells)
    out = []
    for _ in range(count):
        idx = rng.randrange(total)
        for n, r, c in cells:
            if idx < c:
                break
            idx -= c
        cuts = sorted(rng.sample(range(1, n), 2 * r - 1))
        bounds = [0] + cuts + [n]
        shape = tuple(bounds[i + 1] - bounds[i] for i in range(2 * r))
        out.append(Word.from_syllables(_signed_syllables(shape, rng.getrandbits(2 * r))))
    return out


def alternating_block_words(max_blocks, exponents):
    """Every freely reduced block tuple of 1 to max_blocks blocks with exponents from ``exponents``."""
    out = []
    level = [((g, e),) for g in (GEN_X, GEN_Y) for e in exponents]
    for _ in range(max_blocks):
        out += level
        level = [w + ((1 - w[-1][0], e),) for w in level for e in exponents]
    return out
