import itertools
import math
import sys
import threading
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tracelab import decompose, trace
from tracelab.cache import TraceCache, cached_trace_poly
from tracelab.decompose import (
    COMPOSITE_NOT_SPECIAL,
    COMPOSITE_Q,
    NONCOMPOSITE_P,
    NONCOMPOSITE_Q,
    SPECIAL_P,
    WildCompositionError,
    CompositionWitness,
    PrimeVerdict,
    _MAX_P_MAX,
    _decide,
    _decompose_from_blocks,
    _degree_gcd,
    _find_witness,
    _match_inner,
    _noncomposite,
    _outer_degrees,
    _verdict,
    classify_global,
    classify_p,
    classify_rational,
    decompose_in_u,
    dickson_decompose,
    power_word_report,
)
from tracelab.gf import primes_in
from tracelab.trace import TraceEngine, _WordEntry, trace_poly
from tracelab.tripoly import TriPoly, _div, _layer_free, frobenius_strip
from tracelab.unipoly import UniPoly, dickson, dickson_apply
from tracelab.words import (
    DegenerateWordError,
    Word,
    canonicalize,
    enumerate_words,
    parse,
    proper_power_root,
    sample_words,
    stats,
)

from _oracles import (
    dickson_from_blocks,
    match_inner_full_power,
    perfbench_inputs,
    recompose,
    searched_verdict,
    tripoly_from_terms,
)

S = TriPoly.var("s", None)
U = TriPoly.var("u", None)
T = TriPoly.var("t", None)


def inner_polys(p=None):
    """Small inner candidates Q with deg_u >= 1."""
    base = [
        U,
        U + S,
        U * S - T,
        U**2 + T,
        U * T + S * T - TriPoly.const(2, None),
    ]
    if p is not None:
        base = [f.reduce_mod(p) for f in base]
    return base


class TestDicksonDecompose:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_recovers_constructed_composite(self, d):
        for q in inner_polys():
            f = dickson_apply(d, q)
            got = dickson_decompose(f, d)
            assert got is not None
            assert dickson_apply(d, got) == f

    @pytest.mark.parametrize("p,d", [(5, 2), (7, 3), (3, 2)])
    def test_modular_case(self, p, d):
        for q in inner_polys(p):
            f = dickson_apply(d, q)
            got = dickson_decompose(f, d)
            assert got is not None
            assert dickson_apply(d, got) == f

    def test_rejects_perturbed(self):
        f = dickson_apply(3, U * S - T) + S
        assert dickson_decompose(f, 3) is None

    def test_rejects_plain_cube(self):
        # (u+s)^3 is a cube but not a Dickson composition
        assert dickson_decompose((U + S) ** 3, 3) is None

    @pytest.mark.parametrize("p", [None, 7])
    def test_perturbations_below_the_matched_blocks_are_refused(self, p):
        def ring(g):
            return g if p is None else g.reduce_mod(p)

        q = ring(U * S - T)
        f = dickson_apply(3, q)
        # both perturbations sit below the blocks the matcher reads, so the
        # inner is matched: f + 1 is D_3 + 1 of it, not a D_3, and f + s - t,
        # whose coefficient sum is f's, has no outer with constant coefficients
        assert dickson_decompose(f + ring(TriPoly.const(1)), 3) is None
        assert dickson_decompose(f + ring(S - T), 3) is None
        assert dickson_decompose(f, 3) == q

    def test_incompatible_index_raises(self):
        f = dickson_apply(4, U + S)
        with pytest.raises(ValueError):
            dickson_decompose(f, 3)

    def test_refusals_keep_their_types_and_messages(self):
        cases = [
            (U, 1, "Dickson index must be >= 2"),
            (U**3, 2, "index 2 does not divide u-degree 3"),
            (dickson_apply(4, U + S).reduce_mod(2), 2, "wild root index (characteristic divides n)"),
        ]
        for f, d, message in cases:
            with pytest.raises(ValueError) as info:
                dickson_decompose(f, d)
            assert type(info.value) is ValueError and str(info.value) == message


@st.composite
def dickson_cases(draw):
    """(f, d): D_d(Q), or D_d(Q) plus terms below its top u-block, for Q over QQ or F_p.

    Q's top u-block leads with +-1, +-2 or 1/2 over QQ and with any unit
    mod p in {13, 17, 41}.
    """
    p = draw(st.sampled_from([None, 13, 17, 41]))
    d = draw(st.sampled_from([2, 3, 4, 6, 8]))
    m = draw(st.integers(1, 2))
    exps = st.tuples(st.integers(0, 1), st.integers(0, m), st.integers(0, 1))
    terms = draw(st.dictionaries(exps, st.integers(-2, 2).filter(bool), max_size=3))
    terms[(draw(st.integers(0, 1)), m, draw(st.integers(0, 1)))] = 1
    q = tripoly_from_terms(terms, p)
    if p is None:
        lead = draw(st.sampled_from([1, -1, 2, -2, Fraction(1, 2)]))
    else:
        lead = draw(st.integers(1, p - 1))
    f = dickson_apply(d, q.scale(_div(lead, q.u_coefficients()[m].leading_coeff(), p)))
    if draw(st.booleans()):
        below = st.tuples(st.integers(0, 2), st.integers(0, d * m - 1), st.integers(0, 2))
        extra = draw(st.dictionaries(below, st.integers(-2, 2).filter(bool), min_size=1, max_size=2))
        f = f + tripoly_from_terms(extra, p)
    return f, d


class TestOneMatcher:
    """dickson_decompose reads decompose_in_u's witness; the reference matches every root of unity."""

    @given(dickson_cases())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_the_root_of_unity_reference(self, case):
        f, d = case
        got = dickson_decompose(f, d)
        want = dickson_from_blocks(f, f.u_coefficients(), d)
        assert (got is None) == (want is None), (f, d)
        if got is not None:
            assert got in (want, -want)
            witness = decompose_in_u(f, d)
            assert witness.dickson_index == d and witness.inner == got

    def test_a_lead_with_no_root_is_refused_before_matching(self, monkeypatch):
        # 2 is no square over QQ or mod 5, so 2 * D_2(u + s) has no D_2 witness
        tried = []
        monkeypatch.setattr(decompose, "_decompose_from_blocks", lambda *args: tried.append(args))
        f = dickson_apply(2, U + S).scale(2)
        assert dickson_decompose(f, 2) is None
        assert dickson_decompose(f.reduce_mod(5), 2) is None
        assert tried == []


st_scalars = st.sampled_from([-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2)])
st_st_blocks = st.dictionaries(
    st.tuples(st.integers(0, 1), st.just(0), st.integers(0, 1)), st_scalars, max_size=3
)


def _steps(matcher, blocks, lead, n):
    """matcher's result and how many exact divisions, one per step, it ran."""
    calls = []
    divide = TriPoly.divide_exact

    def counting(self, divisor):
        calls.append(None)
        return divide(self, divisor)

    with mock.patch.object(TriPoly, "divide_exact", counting):
        got = matcher(blocks, lead, n)
    return got, len(calls)


class TestMatchInner:
    """The truncated matcher against the full-power reference in ``_oracles``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([None, 5, 7, 11, 13]),  # no p here divides any n below
        st.sampled_from([2, 3, 4, 6]),
        st.integers(2, 3),
        st.sampled_from([(1, 0), (0, 1), (1, 1)]),
        st_st_blocks,
        st.integers(-3, 3),
        st.data(),
    )
    def test_matches_full_power_reference(self, p, n, m, lead_exps, lead_rest, c, data):
        lead = tripoly_from_terms({(lead_exps[0], 0, lead_exps[1]): 1}, p)
        lead = lead + tripoly_from_terms(lead_rest, p)
        if lead.is_constant:
            return
        lower = data.draw(st.lists(st_st_blocks, min_size=m, max_size=m))
        q = TriPoly.from_u_coefficients([tripoly_from_terms(b, p) for b in lower] + [lead], p)
        target = q**n + q ** (n - 2) * TriPoly.const(c, p)  # h(Q), h = z^n + c*z^(n-2)
        blocks = target.u_coefficients()
        got, steps = _steps(_match_inner, blocks, lead, n)
        assert (got, steps) == _steps(match_inner_full_power, blocks, lead, n)
        assert (got, steps) == (q, m)

        # a constant added to the u^(r-j) block leaves step j a remainder of 1
        # modulo the nonconstant n * lead^(n-1), so both stop there with None
        j = data.draw(st.integers(1, m))
        r = n * m
        blocks[r - j] = blocks[r - j] + TriPoly.const(1, p)
        assert _steps(_match_inner, blocks, lead, n) == (None, j)
        assert _steps(match_inner_full_power, blocks, lead, n) == (None, j)


class TestDecomposeInU:
    @pytest.mark.parametrize(
        "outer",
        [
            UniPoly([0, 0, 1], None),  # z^2
            UniPoly([2, -1, 0, 1], None),  # z^3 - z + 2
            UniPoly([0, 3, 1, 0, 2], None),  # 2z^4 + z^2 + 3z
            UniPoly([5, -1, 2, 3], None),  # 3z^3 + 2z^2 - z + 5
            UniPoly([1, 3, -2], None),  # -2z^2 + 3z + 1
        ],
    )
    def test_round_trip(self, outer):
        for q in inner_polys():
            target = TriPoly.zero()
            for i, c in enumerate(outer.coeffs):
                target = target + (q**i).scale(c)
            wit = decompose_in_u(target, outer.degree)
            assert wit is not None
            assert recompose(wit) == target

    def test_modular_round_trip(self):
        for p in (3, 5, 7):
            q = (U * S - T).reduce_mod(p)
            target = q**2 + q.scale(2) + TriPoly.const(3, p)
            wit = decompose_in_u(target, 2)
            assert wit is not None
            assert recompose(wit) == target
            assert wit.p == p
        for p in (2, 5, 7):  # non-monic cubic outer with a z^2 term; tame here
            q = (U * T + S * T - TriPoly.const(2, None)).reduce_mod(p)
            target = (q**3).scale(3) + q**2 + TriPoly.const(4, p)
            wit = decompose_in_u(target, 3)
            assert wit is not None
            assert recompose(wit) == target
            assert wit.outer.degree == 3

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([None, 3, 5, 7]),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]),
        st.lists(st_st_blocks, min_size=1, max_size=2),
        st.lists(st.integers(-3, 3), min_size=5, max_size=5),
        st.sampled_from([None, "s", "t*u^(r-1)", "s*u^m", "1"]),
    )
    def test_every_witness_recomposes(self, p, n, lead_exps, lower, coeffs, perturb):
        # decompose_in_u returns without recomposing; recompose is the reference
        if p is not None and n % p == 0:
            return  # wild
        lead = tripoly_from_terms({(lead_exps[0], 0, lead_exps[1]): 1}, p)
        q = TriPoly.from_u_coefficients([tripoly_from_terms(b, p) for b in lower] + [lead], p)
        outer = UniPoly([*coeffs[:n], coeffs[n] or 1], p)
        if outer.degree != n:
            return  # leading coefficient divisible by p
        f = TriPoly.zero(p)
        for i, c in enumerate(outer.coeffs):
            f = f + (q**i).scale(c)
        s, t, u = (TriPoly.var(name, p) for name in "stu")
        m, r = len(lower), n * len(lower)
        f = f + {
            None: TriPoly.zero(p),
            "s": s,
            "t*u^(r-1)": t * u ** (r - 1),
            "s*u^m": s * u**m,
            "1": TriPoly.const(1, p),
        }[perturb]
        wit = decompose_in_u(f, n)
        if perturb is None:
            assert wit is not None
        if wit is not None:
            assert recompose(wit) == f
            assert wit.outer.degree == n

    def test_none_for_noncomposite(self):
        f = trace_poly(parse("xyXY")).f
        assert decompose_in_u(f, 2) is None

    def test_wild_index_raises(self):
        q = (U + S).reduce_mod(3)
        target = q**3
        with pytest.raises(WildCompositionError):
            decompose_in_u(target, 3)


class TestClassifyP:
    def test_square_word_odd_p(self):
        v = classify_p(parse("xyxy"), 5)
        assert v.verdict == COMPOSITE_NOT_SPECIAL
        assert v.witness.dickson_index == 2
        assert recompose(v.witness) == trace_poly(parse("xyxy")).f.reduce_mod(5)

    def test_square_word_p_two(self):
        v = classify_p(parse("xyxy"), 2)
        assert v.verdict == SPECIAL_P
        assert v.witness.outer.coeffs == [0, 0, 1]  # z^2 is Frobenius mod 2

    def test_cube_word_p_three(self):
        v = classify_p(parse("xy") ** 3, 3)
        assert v.verdict == SPECIAL_P
        assert v.witness.dickson_index == 3

    def test_commutator_noncomposite(self):
        for p in (2, 3, 5, 7, 11):
            v = classify_p(parse("xyXY"), p)
            assert v.verdict == NONCOMPOSITE_P
            assert v.witness is None

    def test_frobenius_rewrap(self):
        # D_10 = D_2 . D_5 and D_5 = z^5 mod 5: strip one Frobenius layer,
        # decompose the core, wrap the inner back in u^5
        v = classify_p(parse("xy") ** 10, 5)
        assert v.verdict == COMPOSITE_NOT_SPECIAL
        assert v.frobenius_k == 1
        assert v.witness.inner == TriPoly.var("u", 5) ** 5
        assert recompose(v.witness) == trace_poly(parse("xy") ** 10).f.reduce_mod(5)

    def test_pure_frobenius_power_is_special(self):
        v = classify_p(parse("xy") ** 5, 5)
        assert v.verdict == SPECIAL_P
        assert v.frobenius_k == 1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateWordError):
            classify_p(parse("xx"), 3)

    @pytest.mark.parametrize("p", [4, 9, 15, 1, 0, -3])
    def test_non_prime_rejected(self, p):
        # Z/pZ is not a field: no witness "over F4" or ZeroDivisionError at p = 0
        with pytest.raises(ValueError, match="prime"):
            classify_p(parse("xyxy"), p)

    def test_a_large_prime_is_tested_fast(self):
        start = time.monotonic()
        assert classify_p(parse("xyXY"), 2**61 - 1).verdict == NONCOMPOSITE_P
        assert time.monotonic() - start < 0.5


class TestClassifyRational:
    def test_composite_square(self):
        cls, wit = classify_rational(parse("xyxy"))
        assert cls == COMPOSITE_Q
        assert wit.dickson_index == 2
        assert recompose(wit) == trace_poly(parse("xyxy")).f

    def test_commutator(self):
        cls, wit = classify_rational(parse("xyXY"))
        assert cls == NONCOMPOSITE_Q
        assert wit is None

    @given(st.sampled_from(list(enumerate_words(5))), st.integers(2, 3))
    @settings(max_examples=25)
    def test_powers_always_composite(self, v, k):
        cls, wit = classify_rational(v**k)
        assert cls == COMPOSITE_Q
        assert wit is not None
        assert recompose(wit) == trace_poly(v**k).f


class TestClassifyGlobal:
    def test_square_word(self):
        g = classify_global(parse("xyxy"), 13)
        assert g.conclusion == "NotEquidistributed"
        assert g.bad_prime == 3
        assert g.rational_class == COMPOSITE_Q
        verdicts = {pv.p: pv.verdict for pv in g.per_prime}
        assert verdicts[2] == SPECIAL_P
        assert all(v == COMPOSITE_NOT_SPECIAL for p, v in verdicts.items() if p > 2)

    def test_commutator(self):
        g = classify_global(parse("xyXY"), 11)
        assert g.conclusion == "Equidistributed-certified-to-11"
        assert g.bad_prime is None
        assert g.certified_to == 11
        assert g.rational_class == NONCOMPOSITE_Q

    def test_cube_word(self):
        # (xy)^3 is special exactly at p = 3 (where D_3 = z^3 is Frobenius)
        # and composite-not-special elsewhere
        g = classify_global(parse("xy") ** 3, 7)
        assert g.conclusion == "NotEquidistributed"
        assert g.bad_prime == 2
        verdicts = {pv.p: pv.verdict for pv in g.per_prime}
        assert verdicts[3] == SPECIAL_P
        assert verdicts[2] == COMPOSITE_NOT_SPECIAL

    def test_large_p_max_within_budget(self):
        # D_4, once tried above k = 2 at every odd p, took roots by a scan of F_p: 0.4 s
        w = parse("x^2y^2x^2y^-2") ** 2
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            g = classify_global(w, 3000, engine=TraceEngine())
            best = min(best, time.perf_counter() - start)
        assert g.conclusion == "NotEquidistributed" and g.bad_prime == 3
        assert best <= 0.3, f"budget exceeded: {best:.2f}s > 0.3s"

    @pytest.mark.parametrize("p_max", [decompose._MAX_P_MAX + 1, 10**9])
    def test_p_max_past_the_guard_raises(self, p_max):
        eng = TraceEngine()
        w = parse("xyxYxyXYxy^2x^2y")
        with pytest.raises(ValueError, match=f"resource guard exceeded: p_max = {p_max} > 10000"):
            classify_global(w, p_max, engine=eng)
        assert not eng._words  # refused before the word is traced
        assert classify_global(w, decompose._MAX_P_MAX, engine=eng).certified_to == 10000

    @pytest.mark.parametrize("p_max", [1, 0, -5])
    def test_p_max_below_two_raises(self, p_max):
        # no prime to certify: xyxy must not come back certified to p_max
        with pytest.raises(ValueError, match="p_max must be >= 2"):
            classify_global(parse("xyxy"), p_max)


class TestPowerWordReport:
    def test_cube(self):
        rep = power_word_report(parse("xyxY") ** 3)
        assert rep.root == parse("xyxY")
        assert rep.multiplicity == 3
        assert rep.dickson_index == 3
        assert rep.consistent

    def test_primitive(self):
        rep = power_word_report(parse("xxyXY"))
        assert rep.multiplicity == 1
        assert rep.consistent

    @given(st.sampled_from(list(enumerate_words(4))), st.integers(2, 4))
    @settings(max_examples=20)
    def test_consistency_is_universal(self, v, k):
        rep = power_word_report(v**k)
        assert rep.consistent
        assert rep.multiplicity % k == 0


def _variants(w):
    """Every rotation of w's letters and of its inverse's letters."""
    letters = [(g, 1 if e > 0 else -1) for g, e in w.blocks for _ in range(abs(e))]
    for seq in (letters, [(g, -e) for g, e in reversed(letters)]):
        for i in range(len(seq)):
            yield Word.from_blocks(seq[i:] + seq[:i])


@pytest.fixture
def searches(monkeypatch):
    """The primes (None for the rationals) of every witness search, in order.

    The rationals, or a prime p with no Frobenius layer, leave no search
    where no outer degree divides f_w's degree gcd (``_decide``).
    """
    calls = []

    def counted(f, outers, zero_sums, p):
        calls.append(p)
        return _find_witness(f, outers, zero_sums, p)

    monkeypatch.setattr(decompose, "_find_witness", counted)
    return calls


MEMO_WORDS = ["xyxy", "xyXY", "xyxyxy", "xxyXYYxyXy", "x^2yx^-1y^3", "xyXYxyXY", "x^-1yx^-1y^3"]


def _rational_searches(w):
    """The rational witness searches of w: one for its root, w itself unless a proper power, where an outer degree divides g(f).

    The outer degrees are the divisors n >= 2 of gcd(gcd(A, B), r), and
    g(f) is the gcd of f's degrees in u, s, t and in total.  A proper power
    v^k, with v noncomposite over QQ as every root here is, reads its
    rational verdict off v's and searches nothing itself.
    """
    root = proper_power_root(canonicalize(w)[0])[0]
    st_ = stats(canonicalize(root)[0])
    f = trace_poly(root, engine=TraceEngine()).f
    g = math.gcd(f.deg("u"), f.deg("s"), f.deg("t"), f.total_degree())
    m = math.gcd(st_.A, st_.B, f.deg("u"))
    return int(any(m % n == 0 and g % n == 0 for n in range(2, m + 1)))


class TestVerdictMemo:
    @pytest.mark.parametrize("text", MEMO_WORDS)
    def test_rotations_and_inverse_search_nothing_again(self, text, searches):
        eng = TraceEngine()
        w = parse(text)
        first = classify_global(w, 13, engine=eng)
        assert searches.count(None) == _rational_searches(w)
        searches.clear()
        for v in _variants(w):
            again = classify_global(v, 13, engine=eng)
            assert (again.rational_witness, again.per_prime) == (first.rational_witness, first.per_prime)
            assert again.conclusion == first.conclusion
        assert searches == []

    @pytest.mark.parametrize("text", MEMO_WORDS)
    def test_every_reader_shares_the_row(self, text, searches, monkeypatch):
        # classify_p and power_word_report trace on the default engine
        monkeypatch.setattr(trace, "_DEFAULT_ENGINE", TraceEngine())
        w = parse(text)
        cls, wit = classify_rational(w)
        g = classify_global(w, 13)
        assert searches.count(None) == _rational_searches(w)
        searches.clear()
        assert classify_rational(w) == (cls, wit)
        assert [classify_p(w, p) for p in (2, 3, 5, 7, 11, 13)] == list(g.per_prime)
        assert power_word_report(w).consistent
        assert searches == []

    def test_cache_hit_keeps_the_row(self, tmp_path, searches):
        eng = TraceEngine()
        w = parse("xxyXYYxyXy")
        f = trace_poly(w, engine=TraceEngine()).f
        cache = TraceCache(str(tmp_path / "cache.json"))
        cache.store(w, f)
        first = classify_global(w, 13, engine=eng)
        searches.clear()
        assert cached_trace_poly(w, cache=cache, engine=eng).f == f
        assert classify_global(w, 13, engine=eng) == first
        assert searches == []

    def test_fresh_engine_recomputes(self, searches):
        # outer degree 2 is searched over QQ and at every p <= 13 but 2
        w = parse("x^-1yx^-1y^3")
        first = classify_global(w, 13, engine=TraceEngine())
        count = len(searches)
        assert count > 0
        assert classify_global(w, 13, engine=TraceEngine()) == first
        assert len(searches) == 2 * count

    @pytest.mark.parametrize("text", ["xxyXYYxyXy", "xyXY" * 2, "xyxy"])
    def test_a_prime_past_the_guard_is_not_kept(self, text, monkeypatch):
        # one verdict per prime kept in the row and in _noncomposite's cache grew
        # without bound under classify_p at ever larger primes
        monkeypatch.setattr(trace, "_DEFAULT_ENGINE", TraceEngine())
        w = parse(text)
        classify_global(w, 13)
        entry = trace._DEFAULT_ENGINE.entry(w)
        entries = [entry] if entry.root is None else [entry, entry.root]
        rows = [len(e.verdicts) for e in entries]
        cached = _noncomposite.cache_info().currsize
        st_ = stats(canonicalize(w)[0])
        large = primes_in(_MAX_P_MAX + 1, 2 * _MAX_P_MAX)[:300]
        assert len(large) == 300
        for p in large:
            assert classify_p(w, p) == searched_verdict(entry.f, st_.A, st_.B, p), (w, p)
        assert [len(e.verdicts) for e in entries] == rows
        assert _noncomposite.cache_info().currsize == cached

    def test_threads_sharing_an_engine_agree_with_one_thread(self):
        words = list(sample_words(12, 200, seed=41))
        eng = TraceEngine()
        single = [classify_global(w, 13, engine=TraceEngine()) for w in words]
        results = {}

        def work(i):
            order = range(len(words)) if i % 2 else range(len(words) - 1, -1, -1)
            results[i] = {j: classify_global(words[j], 13, engine=eng) for j in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for got in results.values():
            assert [got[j] for j in range(len(words))] == single

        # four threads race on the first read of one entry's f_w: each builds its
        # own, held at a barrier until all have, and every read returns one kept f_w
        w = parse("xxyXYYxyXy")
        entry = TraceEngine().entry(w)
        barrier = threading.Barrier(4, timeout=10)
        real = trace._product

        def held(key):
            f = real(key)
            barrier.wait()
            return f

        read = {}
        with mock.patch.object(trace, "_product", held):
            threads = [threading.Thread(target=lambda i=i: read.setdefault(i, entry.f)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(read) == [0, 1, 2, 3] and not barrier.broken
        assert all(f is entry.f for f in read.values())
        assert entry.f == trace_poly(w, engine=TraceEngine()).f


def syllable_words(max_r=4, hi=3):
    exps = st.integers(-hi, hi).filter(bool)
    return st.lists(st.tuples(exps, exps), min_size=1, max_size=max_r).map(Word.from_syllables)


@st.composite
def outer_free_words(draw):
    """Canonical words with gcd(gcd(A, B), r) = 1, up to six syllables, so r is often composite."""
    exps = st.integers(-3, 3).filter(bool)
    syl = draw(st.lists(st.tuples(exps, exps), min_size=1, max_size=6))
    assume(math.gcd(sum(a for a, _ in syl), sum(b for _, b in syl), len(syl)) == 1)
    return Word.from_syllables(syl)


class TestOuterFreeVerdicts:
    """A word with gcd(gcd(A, B), r) = 1 lists no outer degree: its verdicts build no f_w, except at p | r."""

    PRIMES = (2, 3, 5, 7, 11, 13)

    @given(outer_free_words())
    @example(parse("xyxyx^2Yx^-1y^2"))  # r = 4, gcd(A, B) = 3
    @example(parse("xyxyxyxyx^2y^2XY"))  # r = 6, gcd(A, B) = 5
    @settings(max_examples=40, deadline=None)
    def test_a_verdict_builds_no_product(self, w):
        st_ = stats(w)
        assert math.gcd(st_.A, st_.B, st_.r) == 1
        f = trace_poly(w, engine=TraceEngine()).f
        built = []
        real = trace._product
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(trace, "_DEFAULT_ENGINE", TraceEngine())
            monkeypatch.setattr(trace, "_product", lambda key: built.append(key) or real(key))
            assert searched_verdict(f, st_.A, st_.B, None) is None
            assert classify_rational(w) == (NONCOMPOSITE_Q, None)
            for p in self.PRIMES:
                if st_.r % p:
                    assert classify_p(w, p) == searched_verdict(f, st_.A, st_.B, p) == _noncomposite(p), (w, p)
            assert built == []
            for p in self.PRIMES:
                if st_.r % p == 0:  # the Frobenius strip reads f_w mod p
                    got = classify_p(w, p)
                    assert got.verdict in (NONCOMPOSITE_P, SPECIAL_P), (w, p)
                    assert got == searched_verdict(f, st_.A, st_.B, p), (w, p)

    @given(outer_free_words())
    @example(parse("xyxyx^2Yx^-1y^2"))
    @example(parse("xyxyxyxyx^2y^2XY"))
    @settings(max_examples=40, deadline=None)
    def test_the_general_matcher_finds_no_witness_at_any_divisor_of_r(self, w):
        # the fact the shortcut rests on: no h(Q) with deg h = n for any n >= 2 dividing r
        f = trace_poly(w, engine=TraceEngine()).f
        blocks = f.u_coefficients()
        r = len(blocks) - 1
        for n in range(2, r + 1):
            if r % n == 0:
                assert _decompose_from_blocks(f, blocks, n) is None, (w, n)


class TestPrimeShortcut:
    """_decide at a prime against its unshortcut path, the oracle ``searched_verdict``."""

    PRIMES = (2, 3, 5, 7, 11, 13)

    def _check(self, w):
        A, B = stats(w).A, stats(w).B
        f = trace_poly(w).f
        for p in self.PRIMES:
            assert _decide(_WordEntry(f, math.gcd(A, B)), p) == searched_verdict(f, A, B, p), (w, p)

    @pytest.mark.parametrize(
        "text",
        [
            "xyxy",  # p | r at 2, with a Frobenius layer; a Dickson witness at 5
            "xyxyxy",  # p | r at 3
            "xyxyxyxyxy",  # a Frobenius layer at 5
            "xyXY",  # (A, B) = (0, 0)
            "xyXYxyXY",  # (A, B) = (0, 0), a square
            "x^2yx^-1y^3",  # no Dickson candidate
            "x^2y^2x^2y^2x^2y^4",  # gcd(A, B) = 2 with r = 3
        ],
    )
    def test_fixed_cases(self, text):
        self._check(parse(text))

    @given(syllable_words())
    @settings(max_examples=40)
    def test_random_words(self, w):
        self._check(w)

    def test_shortcut_reduces_nothing_and_shares_the_verdict(self, monkeypatch):
        # r = 2 and p = 3 does not divide r: gcd(A, B) = 1 for the first two; xyxY
        # has the Dickson candidate 2 and xyXY the tame divisor 2, but f_w's s- and
        # t-degrees and total degree leave g = 1 for both
        words = [parse(text) for text in ("x^2yx^-1y^3", "xxyXyy", "xyxY", "xyXY")]
        entries = [_WordEntry(trace_poly(w).f, math.gcd(stats(w).A, stats(w).B)) for w in words]
        assert [_degree_gcd(e.f)[0] for e in entries] == [1, 1, 1, 1]

        def no_reduce(self, p):
            raise AssertionError("f was reduced")

        monkeypatch.setattr(TriPoly, "reduce_mod", no_reduce)
        got = [_decide(e, 3) for e in entries]
        assert all(v is got[0] for v in got)
        assert (got[0].verdict, got[0].witness, got[0].frobenius_k) == (NONCOMPOSITE_P, None, 0)

    def test_no_layer_at_p_dividing_r_reduces_nothing(self, monkeypatch):
        # r = 4, gcd(A, B) = 1: no outer degree, and f_w's term s has gcd 1
        f = trace_poly(parse("xxyXYYxyXy")).f
        reduced = []
        real = TriPoly.reduce_mod
        monkeypatch.setattr(TriPoly, "reduce_mod", lambda self, p: reduced.append(p) or real(self, p))
        got = _decide(_WordEntry(f, 1), 2)
        assert (got.verdict, got.witness, got.frobenius_k) == (NONCOMPOSITE_P, None, 0)
        assert reduced == []
        # xyxy: f_w = u^2 - 2 is u^2 mod 2, a layer, so the strip reduces f_w once
        got = _decide(_WordEntry(trace_poly(parse("xyxy")).f, 2), 2)
        assert (got.verdict, got.frobenius_k) == (SPECIAL_P, 1)
        assert reduced == [2]

    @given(
        st.sampled_from((2, 3, 5)).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.dictionaries(
                    st.tuples(*[st.integers(0, 3).map(lambda e: e * p) | st.integers(0, 4)] * 3),
                    st.integers(-2, 2).filter(bool).map(lambda c: c * p) | st.integers(-5, 5).filter(bool),
                    max_size=6,
                ),
            )
        )
    )
    @settings(max_examples=100)
    def test_layer_free_is_the_strip_finding_no_layer(self, case):
        p, terms = case
        f = tripoly_from_terms(terms)
        fp = f.reduce_mod(p)
        if fp.is_constant:
            assert not _layer_free(f, p)
            with pytest.raises(ValueError, match="constant input"):
                frobenius_strip(fp)
        else:
            assert _layer_free(f, p) == (frobenius_strip(fp)[1] == 0), (p, terms)

    @given(syllable_words(max_r=6))
    @settings(max_examples=30)
    def test_no_strip_where_p_does_not_divide_r(self, w):
        # the fact _decide relies on to take f mod p as the core at p not dividing r
        entry = TraceEngine().entry(w)
        f, r = entry.f, entry.u_degree
        A, B = stats(w).A, stats(w).B
        for p in primes_in(2, 31):
            if r % p:
                g = f.reduce_mod(p)
                assert frobenius_strip(g) == (g, 0), (w, p)
                assert _verdict(entry, p) == searched_verdict(f, A, B, p), (w, p)

    @given(st.tuples(syllable_words(max_r=3), st.integers(1, 4)).map(lambda wk: wk[0] ** wk[1]))
    @example(parse("xy") ** 4)  # f_w mod 2 = u^4, two layers
    @example(parse("xy^2") ** 3)  # f_w mod 3 = f_v^3 mod 3, one layer
    @settings(max_examples=30)
    def test_outers_are_read_before_the_strip(self, w):
        # for p not dividing n, n divides r / p^j (or g / p^j) exactly when it divides r (or g)
        entry = TraceEngine().entry(w)
        f, r = entry.f, entry.u_degree
        g, content = _degree_gcd(f)
        for p in primes_in(2, 31):
            if r % p == 0:
                fp = f.reduce_mod(p)
                core, j = frobenius_strip(fp)
                at_p = g if content % p else _degree_gcd(fp)[0]
                read = [n for n in _outer_degrees(entry.sums_gcd, r, p) if at_p % n == 0]
                want = [n for n in _outer_degrees(entry.sums_gcd, r // p**j, p) if _degree_gcd(core)[0] % n == 0]
                assert read == want, (w, p, j)


def _stream_powers(seeds=(1, 2, 3), count=500):
    """Every proper power among the first ``count`` requests of the classify streams."""
    inputs = perfbench_inputs()
    found = {}
    for seed in seeds:
        for req in itertools.islice(inputs.classify_stream(seed), count):
            if req.power > 1:
                found.setdefault(req.syllables, Word.from_syllables(req.syllables))
    return list(found.values())


def _powers_above_k(max_length=8, ks=(2, 3, 4)):
    """One power v^k per memo entry, v of up to ``max_length`` letters, whose entry lists a rational outer above its k dividing g(f_w).

    The listed outers are the divisors n >= 2 of gcd(gcd(A, B), r), and
    g(f_w) is the gcd of f_w's degrees in u, s, t and in total, so these are
    the powers where reading a noncomposite root's verdict takes the place
    of a search on f_w: the oracle checks on each that no outer above k
    exists.
    """
    eng = TraceEngine()
    found = {}
    for v in enumerate_words(max_length):
        for k in ks:
            entry = eng.entry(v**k)
            if entry in found:
                continue
            above = [n for n in _outer_degrees(entry.sums_gcd, entry.u_degree, None) if n > entry.k]
            if above:
                f = entry.f
                g = math.gcd(f.deg("u"), f.deg("s"), f.deg("t"), f.total_degree())
                if any(g % n == 0 for n in above):
                    found[entry] = v**k
    return list(found.values())


@st.composite
def proper_powers(draw):
    """v^k for an aperiodic root v, k in 2..6; every other root has exponent sums (0, 0)."""
    exps = st.integers(-2, 2).filter(bool)
    syl = draw(st.lists(st.tuples(exps, exps), min_size=1, max_size=3))
    if draw(st.booleans()):
        syl = syl[:2] + [(-a, -b) for a, b in syl[:2]]
    root = canonicalize(Word.from_syllables(syl))[0]
    k = draw(st.integers(2, 6))
    assume(root.complexity >= 1 and proper_power_root(root)[1] == 1)
    assume(root.complexity * k <= 12)
    return root**k


class TestPowerVerdicts:
    """A proper power's verdicts, read from its root's row, against the search on f_w alone."""

    PRIMES = (2, 3, 5, 7, 11, 13)

    def _check(self, w, monkeypatch):
        monkeypatch.setattr(trace, "_DEFAULT_ENGINE", TraceEngine())
        st_ = stats(canonicalize(w)[0])
        f = trace_poly(w, engine=TraceEngine()).f
        want = searched_verdict(f, st_.A, st_.B, None)
        assert classify_rational(w) == (NONCOMPOSITE_Q if want is None else COMPOSITE_Q, want), w
        for p in self.PRIMES:
            assert classify_p(w, p) == searched_verdict(f, st_.A, st_.B, p), (w, p)

    @pytest.mark.parametrize(
        "text",
        [
            "xyxy",  # p | k at 2, and every odd p is 1 mod k
            "xyxyxy",  # p | k at 3; p = 7, 13 are 1 mod k
            "xy" * 4,  # p | k at 2; p = 5, 13 are 1 mod 4
            "x^2y^-1" * 5,  # p | k at 5; p = 11 is 1 mod 5
            "xYxyy" * 6,  # p | k at 2 and 3; p = 7, 13 are 1 mod 6
            "x^2y^2x^2y^-2" * 2,  # the root's degrees rule out D_2, and f_w's rule out D_4
            "x^2yx^4y" * 2,  # f_w's degrees allow D_4 above k = 2, which the root rules out
            "xy^2xy^2xy^2",  # a cube of a one-syllable root
            "xyXY" * 2,  # (0, 0) sums: r = 4 lists n = 4 above k = 2, which f_w's degrees rule out too
            "xyXY" * 3,  # (0, 0) sums: r = 6 lists n = 6 above k = 3; at p = 3, p | k, f_w mod 3 is searched
        ],
    )
    def test_fixed_cases(self, text, monkeypatch):
        self._check(parse(text), monkeypatch)

    def test_stream_powers_and_small_squares_and_cubes(self, monkeypatch):
        words = _stream_powers()
        assert len(words) > 100
        words += [v**k for v in enumerate_words(4) for k in (2, 3)]
        above = _powers_above_k()
        assert len(above) >= 40
        for w in words + above:
            self._check(w, monkeypatch)

    @pytest.mark.parametrize(
        "text,k",
        [("x^2yx^4y", 2), ("x^2y^2x^2y^-2", 3), ("x^2y^4x^2y^2", 2), ("x^3y^3x^3y^3x^3y^-3", 2), ("xyXY", 3)],
    )
    def test_a_noncomposite_root_leaves_f_w_unbuilt(self, text, k, monkeypatch):
        # each lists an outer above k; at p | k the search on f_w mod p still runs
        eng = TraceEngine()
        monkeypatch.setattr(trace, "_DEFAULT_ENGINE", eng)
        searched = []
        real = decompose._find_witness

        def counted(f, *args):
            searched.append(f)
            return real(f, *args)

        monkeypatch.setattr(decompose, "_find_witness", counted)
        w = parse(text) ** k
        primes = [p for p in self.PRIMES if k % p]
        classify_rational(w)
        for p in primes:
            classify_p(w, p)
        entry = eng.entry(w)
        assert entry.root is not None and entry._f is None
        f = trace_poly(w, engine=TraceEngine()).f
        assert not {f, *(f.reduce_mod(p) for p in primes)} & set(searched)

    @given(proper_powers())
    @settings(max_examples=30)
    def test_random_powers(self, w):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._check(w, monkeypatch)

    @pytest.mark.parametrize("verdict", [COMPOSITE_NOT_SPECIAL, SPECIAL_P])
    def test_a_root_composite_at_p_leaves_the_search(self, verdict, searches):
        # no aperiodic word of up to 8 letters is composite at a prime <= 7, so
        # the root's row is seeded: the search on f_w must run and decide alone
        eng = TraceEngine()
        w = parse("xyXY" * 2)
        entry = eng.entry(w)
        f, p = entry.f, 5
        stand_in = searched_verdict(f, 0, 0, None)
        entry.root.verdicts[None] = stand_in
        entry.root.verdicts[p] = PrimeVerdict(p=p, verdict=verdict, witness=stand_in, frobenius_k=0)
        assert classify_rational(w, engine=eng) == (COMPOSITE_Q, searched_verdict(f, 0, 0, None))
        assert searches == [None]
        assert classify_global(w, p, engine=eng).per_prime[-1] == searched_verdict(f, 0, 0, p)
        assert searches[-1] == p and searches.count(p) == 1

    def test_a_cube_reads_its_verdicts_without_a_matcher(self, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(decompose, name)

            def counted(f, *args):
                calls.append((name, f))
                return real(f, *args)

            monkeypatch.setattr(decompose, name, counted)

        for name in ("_find_witness", "dickson_decompose", "decompose_in_u"):
            spy(name)
        g = classify_global(parse("xy^2xy^2xy^2"), 13, engine=TraceEngine())
        root = trace_poly(parse("xy^2")).f
        # the root lists no outer degree over QQ and makes no search; the
        # Frobenius core of f_w mod 3 = f_root^3 mod 3 is searched at p | k
        assert calls == [("_find_witness", root.reduce_mod(3))]
        assert [v.verdict for v in g.per_prime] == [COMPOSITE_NOT_SPECIAL, SPECIAL_P] + [COMPOSITE_NOT_SPECIAL] * 4
        assert g.rational_witness == CompositionWitness(
            outer=UniPoly([0, -3, 0, 1]), inner=root, p=None, dickson_index=3
        )

    @pytest.mark.parametrize("text,p", [("xyxY" * 3, 2), ("x^2yxy" * 5, 2), ("xyXYxy^2" * 5, 3)])
    def test_a_power_read_at_p_dividing_r_runs_no_strip(self, text, p, monkeypatch):
        # fact (b): f_v mod p is no p-th power, so neither is f_w mod p
        w = parse(text)
        entry = TraceEngine().entry(w)
        assert entry.u_degree % p == 0 and entry.k % p
        assert _verdict(entry.root, p).verdict == NONCOMPOSITE_P
        strips = []
        real = decompose.frobenius_strip

        def counted(f):
            strips.append(f)
            return real(f)

        monkeypatch.setattr(decompose, "frobenius_strip", counted)
        got = _verdict(entry, p)
        assert strips == []
        st_ = stats(canonicalize(w)[0])
        assert got == searched_verdict(entry.f, st_.A, st_.B, p)

    def test_a_root_top_sign_is_read_without_a_split(self, monkeypatch):
        # splitting f_v into u-blocks for its top sign at every prime where an
        # even-index power falls back to D_k made 456 of 2043 splits here
        splits = []
        real = TriPoly.u_coefficients

        def counted(f):
            splits.append(f)
            return real(f)

        monkeypatch.setattr(TriPoly, "u_coefficients", counted)
        eng = TraceEngine()
        for req in itertools.islice(perfbench_inputs().classify_stream(1), 1500):
            classify_global(Word.from_syllables(req.syllables), 13, engine=eng)
        assert len(splits) <= 2043 - 400

    def test_a_long_power_of_a_short_root(self):
        g = classify_global(parse("xy" * 100), 13, engine=TraceEngine())
        assert g.rational_witness == CompositionWitness(
            outer=dickson(100), inner=U, p=None, dickson_index=100
        )
        # p | k at 2 and 5: Frobenius layers, D_25 and D_4 on the cores
        assert [(v.verdict, v.frobenius_k) for v in g.per_prime] == [
            (COMPOSITE_NOT_SPECIAL, 2), (COMPOSITE_NOT_SPECIAL, 0), (COMPOSITE_NOT_SPECIAL, 2),
        ] + [(COMPOSITE_NOT_SPECIAL, 0)] * 3

    def test_no_larger_candidate_is_tried(self, monkeypatch):
        tried = []
        real = decompose._try_outer

        def counted(f, blocks, n, zero_sums, p):
            tried.append((f.p, n))
            return real(f, blocks, n, zero_sums, p)

        monkeypatch.setattr(decompose, "_try_outer", counted)
        # the root has r = 2, (A, B) = (6, 2) and degree gcd 2, so its square's degrees allow D_4
        w = parse("x^2yx^4y" * 2)
        witness = classify_rational(w, engine=TraceEngine())[1]
        # the root's own candidate 2 only: a noncomposite root leaves no outer above k = 2
        assert tried == [(None, 2)]
        root = trace_poly(parse("x^2yx^4y")).f
        assert witness.dickson_index == 2 and witness.inner in (root, -root)


def _rule_polys(p):
    """Nonconstant Q with up to four terms of degree <= 2 in each of s, u, t, over QQ or F_p."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    coeffs = st.integers(-3, 3).filter(lambda c: c % (p or 7))
    return (
        st.dictionaries(exps, coeffs, min_size=1, max_size=4)
        .map(lambda terms: tripoly_from_terms(terms, p))
        .filter(lambda q: not q.is_constant)
    )


@st.composite
def rule_words(draw):
    """Proper powers with k in {2, 3, 4}, squares of words with exponent sums (0, 0), and words of up to 7 syllables.

    The last make p | r at every p <= 7 somewhere, the others have Dickson
    indices or tame divisors that f_w's degrees must not rule out.
    """
    exps = st.integers(-2, 2).filter(bool)
    kind = draw(st.sampled_from(("power", "zero-sums square", "word")))
    if kind == "word":
        return Word.from_syllables(draw(st.lists(st.tuples(exps, exps), min_size=1, max_size=7)))
    syl = draw(st.lists(st.tuples(exps, exps), min_size=1, max_size=3))
    if kind == "zero-sums square":
        return Word.from_syllables(syl[:2] + [(-a, -b) for a, b in syl[:2]]) ** 2
    return Word.from_syllables(syl) ** draw(st.integers(2, 4))


class TestDegreeRule:
    """Outer degrees n are tried only where n divides the gcd of f's four degrees."""

    def test_outer_degrees_by_definition(self):
        # the Dickson indices, dividing r and every nonzero exponent sum, or with
        # (A, B) = (0, 0) every divisor of r; tame at p, largest first
        for A, B in itertools.product(range(-12, 13), repeat=2):
            for r in range(1, 25):
                for p in (None, 2, 3, 5):
                    want = [
                        n
                        for n in range(r, 1, -1)
                        if r % n == 0 and all(c % n == 0 for c in (A, B) if c) and (p is None or n % p)
                    ]
                    assert _outer_degrees(math.gcd(A, B), r, p) == want, (A, B, r, p)

    @given(st.data(), st.sampled_from([None, 2, 3, 5, 7]), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_an_outer_degree_divides_every_degree_of_the_composite(self, data, p, n):
        q = data.draw(_rule_polys(p))
        h = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        lead = data.draw(st.integers(1, 3).filter(lambda c: c % (p or 7)))
        f = TriPoly.zero(p)
        for c in [lead] + h:  # Horner: f = h(Q), deg h = n
            f = f * q + TriPoly.const(c, p)
        degrees = (f.deg("u"), f.deg("s"), f.deg("t"), f.total_degree())
        assert all(d % n == 0 for d in degrees), (q, degrees)
        assert _degree_gcd(f)[0] == math.gcd(*degrees)

    @given(_rule_polys(None))
    @settings(max_examples=60)
    def test_degree_gcd_and_face_contents_by_definition(self, f):
        terms = dict(f.terms())

        def content(degree):
            top = max(map(degree, terms))
            return math.gcd(*(c for m, c in terms.items() if degree(m) == top))

        faces = content(lambda m: m[0]) * content(lambda m: m[2]) * content(sum)
        degrees = (f.deg("u"), f.deg("s"), f.deg("t"), f.total_degree())
        assert _degree_gcd(f) == (math.gcd(*degrees), faces)

    def test_a_prime_dividing_a_face_content_reads_the_degrees_mod_p(self):
        # deg_s f = 3 rules D_2 out over QQ, but f mod 3 = D_2(u + s)
        f = (U + S) ** 2 - TriPoly.const(2) + (S**3).scale(3)
        entry = _WordEntry(f, 2)
        assert _degree_gcd(entry.f) == (1, 9)
        got = _verdict(entry, 3)
        assert got.verdict == COMPOSITE_NOT_SPECIAL
        assert got == searched_verdict(f, 2, 2, 3)
        assert recompose(got.witness) == f.reduce_mod(3)
        assert _verdict(entry, None) is None
        # a square of a root whose f_v = u + s + 3s^2 loses its s-degree mod 3
        root = _WordEntry(U + S + (S**2).scale(3), 1)
        power = _WordEntry(dickson_apply(2, root.f), 2, root, 2)
        assert _degree_gcd(power.f)[1] % 3 == 0
        assert _verdict(root, 3).verdict == NONCOMPOSITE_P
        assert _verdict(power, 3) == searched_verdict(power.f, 2, 2, 3)

    @given(rule_words())
    @settings(max_examples=40, deadline=None)
    def test_verdicts_match_the_unfiltered_search(self, w):
        g = classify_global(w, 31, engine=TraceEngine())
        st_ = stats(canonicalize(w)[0])
        f = trace_poly(w, engine=TraceEngine()).f
        assert g.rational_witness == searched_verdict(f, st_.A, st_.B, None), w
        assert list(g.per_prime) == [searched_verdict(f, st_.A, st_.B, p) for p in primes_in(2, 31)], w

    def test_the_stream_tries_a_tenth_of_the_outers(self, monkeypatch):
        # without the rule, the first 500 seed-1 requests made 883 tries
        tries = []
        real = decompose._try_outer

        def counted(f, blocks, n, zero_sums, p):
            tries.append(n)
            return real(f, blocks, n, zero_sums, p)

        monkeypatch.setattr(decompose, "_try_outer", counted)
        eng = TraceEngine()
        for req in itertools.islice(perfbench_inputs().classify_stream(1), 500):
            classify_global(Word.from_syllables(req.syllables), 13, engine=eng)
        assert len(tries) <= 883 // 10
