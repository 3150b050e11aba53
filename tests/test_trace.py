import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from tracelab import trace
from tracelab.gf import field
from tracelab.trace import TraceEngine, syllable_polys, trace_poly
from tracelab.tripoly import TriPoly
from tracelab.unipoly import chebyshev_v, dickson_apply
from tracelab.words import X, Word, _cyclic_reduce, _period, enumerate_words, parse, sample_words, stats

from _oracles import (
    LAU_S,
    LAU_X,
    LAU_XINV,
    NIELSEN_MOVES,
    all_rotations_canonical_cyclic,
    alternating_block_words,
    apply_move,
    eval_trace_direct,
    fricke_trace,
    lau_add,
    lau_mul,
    lau_pow,
    lau_scale,
    perfbench_inputs,
    poly_value,
    reduced_strings,
    scalar_bound,
    trace_by_product,
    tripoly_from_terms,
)

ROOT = Path(__file__).resolve().parent.parent

S = TriPoly.var("s", None)
U = TriPoly.var("u", None)
T = TriPoly.var("t", None)


def C(c):
    return TriPoly.const(c, None)


def letters(w):
    """The letter string of a word, e.g. x^2y^-1 -> 'xxY'."""
    return "".join(("xX" if g == X else "yY")[e < 0] * abs(e) for g, e in w.blocks)


def syllable_words(max_r=4, hi=3):
    exps = st.integers(-hi, hi).filter(lambda n: n != 0)
    return st.lists(st.tuples(exps, exps), min_size=1, max_size=max_r).map(
        Word.from_syllables
    )


CLOSED_FORMS = {
    # complexity one and two, plus the cubic with three distinct syllables
    "xy": U,
    "xY": S * T - U,
    "xxy": S * U - T,
    "xyxY": -(U**2) + S * T * U - T**2 + C(2),
    "xyXY": U**2 - S * T * U + S**2 + T**2 - C(2),
    "xyXy": -(U**2) + S * T * U - S**2 + C(2),
    "xyxYXY": -(U**3) + S * T * U**2 + U * (C(3) - T**2 - S**2) + S * T,
}


class TestClosedForms:
    @pytest.mark.parametrize("text,expect", CLOSED_FORMS.items())
    def test_symbolic_equality(self, text, expect, engine):
        assert trace_poly(parse(text), engine=engine).f == expect

    def test_render_matches_display_convention(self, engine):
        f = trace_poly(parse("xyXY"), engine=engine).f
        assert f.render() == "u^2 - s*t*u + s^2 + t^2 - 2"
        assert trace_poly(parse("xY"), engine=engine).f.render() == "-u + s*t"

    def test_cubic_under_syllable_inversion(self, engine):
        # replacing y by y^-1 in the first syllable acts as u -> st - u
        a4 = CLOSED_FORMS["xyxYXY"]
        a6 = trace_poly(parse("xyXyxY"), engine=engine).f
        assert a6 == a4.substitute(S, S * T - U, T)

    def test_relabeling_invariance(self, engine):
        # xyx^-1y^-1x^-1y is a cyclic rotation of the mirrored cubic word
        assert trace_poly(parse("xyXYXy"), engine=engine).f == CLOSED_FORMS["xyxYXY"]


class TestDegenerate:
    def test_single_generator_powers(self, engine):
        assert trace_poly(parse("x"), engine=engine).f == S
        assert trace_poly(parse("xxx"), engine=engine).f == S**3 - S.scale(3)
        assert trace_poly(parse("yy"), engine=engine).f == T**2 - C(2)
        assert trace_poly(parse(""), engine=engine).f == C(2)

    def test_conjugates_of_degenerate(self, engine):
        assert trace_poly(parse("yxY"), engine=engine).f == S


class TestInvariance:
    @given(syllable_words())
    def test_inverse_invariance(self, w):
        assert trace_poly(w).f == trace_poly(w.inverse()).f

    @given(syllable_words(), st.integers(0, 5))
    def test_cyclic_invariance(self, w, shift):
        syl = list(w.syllables)
        k = shift % len(syl)
        rotated = Word.from_syllables(syl[k:] + syl[:k])
        assert trace_poly(w).f == trace_poly(rotated).f

    @given(st.text(alphabet="xXyY", min_size=1, max_size=10))
    def test_conjugation_invariance(self, text):
        w = parse(text)
        c = parse("xy")
        assert trace_poly(w).f == trace_poly(c * w * c.inverse()).f


@st.composite
def cyclic_cores(draw):
    """A cyclically reduced core: one block, or a canonical word rotated, raised to a power, inverted."""
    exps = st.integers(-4, 4).filter(bool)
    if draw(st.booleans()):
        return ((draw(st.sampled_from((0, 1))), draw(exps)),)
    blocks = draw(syllable_words(max_r=4, hi=4)).blocks
    shift = draw(st.integers(0, len(blocks) - 1))  # odd shifts start on a y-block
    core = (blocks[shift:] + blocks[:shift]) * draw(st.integers(1, 3))
    return Word(core).inverse().blocks if draw(st.booleans()) else core


class TestCanonicalCyclic:
    """The memo key compares the x-block rotations only; the all-rotation rule is the reference."""

    @given(cyclic_cores())
    def test_matches_all_rotations(self, core):
        assert _cyclic_reduce(core)[0] == core
        assert trace._canonical_cyclic(core) == all_rotations_canonical_cyclic(core)

    def test_every_small_core(self):
        # every reduced word of at most 10 blocks of +-1, and of at most 6 of +-1, +-2
        words = alternating_block_words(10, (1, -1)) + alternating_block_words(6, (1, -1, 2, -2))
        cores = {_cyclic_reduce(blocks)[0] for blocks in words} - {()}
        assert len(cores) > 5000
        for core in cores:
            assert trace._canonical_cyclic(core) == all_rotations_canonical_cyclic(core), core


class TestSignRule:
    def test_central_sign_flips_and_monomial_parities(self, engine):
        # -I is central with tr(-g) = -tr g, so x -> -x flips (s, u) and
        # y -> -y flips (u, t), and f_w picks up (-1)^A and (-1)^B
        words = list(enumerate_words(6))
        assert len(words) > 100
        for w in words:
            f, st_ = trace_poly(w, engine=engine).f, stats(w)
            assert f.substitute(-S, -U, T) == f.scale((-1) ** st_.A), w
            assert f.substitute(S, -U, -T) == f.scale((-1) ** st_.B), w
            monos = [m for m, _c in f.terms()]
            assert {(i + j) % 2 for i, j, _k in monos} == {st_.A % 2}, w
            assert {(j + k) % 2 for _i, j, k in monos} == {st_.B % 2}, w


class TestOracleAgreement:
    def test_exhaustive_small_words_small_field(self, engine):
        F = field(3)
        for w in enumerate_words(6):
            f = trace_poly(w, engine=engine).f.reduce_mod(3)
            for s in range(3):
                for u in range(3):
                    for t in range(3):
                        assert poly_value(f, F, s, u, t) == eval_trace_direct(w, F, s, u, t)

    def test_random_words_larger_field(self, engine):
        F = field(25)
        rng = random.Random(4)
        for w in sample_words(16, 40, seed=11):
            f = trace_poly(w, engine=engine).f.reduce_mod(5)
            for _ in range(8):
                s, u, t = (rng.randrange(25) for _ in range(3))
                assert poly_value(f, F, s, u, t) == eval_trace_direct(w, F, s, u, t)


class TestUStructure:
    @given(syllable_words())
    def test_u_degree_is_complexity(self, w):
        res = trace_poly(w)
        assert res.u_degree == stats(w).r
        assert res.f.deg("u") == stats(w).r

    @given(syllable_words(max_r=3))
    def test_leading_coefficient_factorizes(self, w):
        # leading u-coefficient is the product of signed Chebyshev factors
        res = trace_poly(w)
        lead = res.f.u_coefficients()[-1]
        expect = C(1)
        for a, b in w.syllables:
            sa = chebyshev_v(abs(a), None)
            sb = chebyshev_v(abs(b), None)
            fa = TriPoly.zero()
            for i, cc in enumerate(sa.coeffs):
                fa = fa + (S**i).scale(cc)
            fb = TriPoly.zero()
            for i, cc in enumerate(sb.coeffs):
                fb = fb + (T**i).scale(cc)
            if a < 0:
                fa = -fa
            if b < 0:
                fb = -fb
            expect = expect * fa * fb
        assert lead == expect

    def test_u_coefficients_round_trip(self, engine):
        f = trace_poly(parse("xyxYXY"), engine=engine).f
        assert TriPoly.from_u_coefficients(f.u_coefficients()) == f

    @given(syllable_words(max_r=3))
    def test_constant_block_degree_bound(self, w):
        # for single-letter syllables with leading syllable xy (so that u is
        # the trace of the first syllable), f(s, 0, t) has degree below 2r
        syl = w.syllables
        if syl[0] == (1, 1) and all(abs(a) == 1 and abs(b) == 1 for a, b in syl):
            r = stats(w).r
            g = trace_poly(w).f.u_coefficients()[0]
            assert g.total_degree() < 2 * r


class TestSyllablePolys:
    @given(
        st.integers(-6, 6).filter(lambda n: n != 0),
        st.integers(-6, 6).filter(lambda n: n != 0),
    )
    def test_linear_expansion_of_single_syllable(self, a, b):
        sp = syllable_polys(a, b)
        w = Word.from_syllables([(a, b)])
        assert trace_poly(w).f == sp.g * U + sp.h
        assert sp.g.deg("u") <= 0 and sp.h.deg("u") <= 0

    @given(
        st.integers(-6, 6).filter(lambda n: n != 0),
        st.integers(-6, 6).filter(lambda n: n != 0),
    )
    def test_leading_block_laurent_identity(self, a, b):
        # g_{a,b}(s,s) * (x - 1/x)^2 = +/- (x^a - x^-a)(x^b - x^-b) at s = x + 1/x
        sp = syllable_polys(a, b)
        gss = sp.g.substitute(S, TriPoly.zero(), S)  # collapse t to s
        # evaluate in the Laurent ring: each s^i becomes (x + 1/x)^i
        lhs = {}
        for (i, _, k), c in gss.terms():
            lhs = lau_add(lhs, lau_scale(lau_pow(LAU_S, i + k), c))
        diff_sq = lau_pow(lau_add(LAU_X, lau_scale(LAU_XINV, -1)), 2)
        lhs = lau_mul(lhs, diff_sq)
        xa = lau_add({a: 1}, {-a: -1})
        xb = lau_add({b: 1}, {-b: -1})
        rhs = lau_mul(xa, xb)
        assert lhs in (rhs, lau_scale(rhs, -1))


class TestPowerRule:
    @given(v=syllable_words(max_r=2, hi=2), k=st.integers(2, 4))
    @settings(max_examples=30)
    def test_engine_power_equals_product_oracle(self, engine, v, k):
        w = v**k
        assert dict(trace_poly(w, engine=engine).f.terms()) == trace_by_product(letters(w))

    @given(v=syllable_words(max_r=2, hi=2), k=st.integers(2, 5))
    @settings(max_examples=30)
    def test_power_is_dickson_of_base(self, v, k):
        # non-circular: both sides come from the matrix-product oracle
        fv = tripoly_from_terms(trace_by_product(letters(v)))
        fw = tripoly_from_terms(trace_by_product(letters(v**k)))
        assert fw == dickson_apply(k, fv)


class TestProductOracle:
    def test_every_reduced_word_up_to_length_seven(self):
        eng = TraceEngine()
        for n in range(8):
            for text in reduced_strings(n):
                f = trace_poly(parse(text), engine=eng).f
                assert dict(f.terms()) == trace_by_product(text), text


class TestFrickeOracle:
    def test_every_reduced_word_up_to_length_eight(self):
        eng, memo = TraceEngine(), {}
        for n in range(9):
            for text in reduced_strings(n):
                w = parse(text)
                assert trace_poly(w, engine=eng).f == fricke_trace(w, memo), text

    @given(syllable_words(max_r=8, hi=3))
    @settings(max_examples=25)
    def test_words_up_to_eight_syllables(self, w):
        assert trace_poly(w, engine=TraceEngine()).f == fricke_trace(w)


# Nielsen moves: the images of x and y, and Phi = (f_a(x), f_a(x)a(y), f_a(y))
# each Nielsen move with the substitution Phi_alpha of its traces
NIELSEN = {
    "x->xy": (NIELSEN_MOVES["x->xy"], (U, U * T - S, T)),
    "y->yx": (NIELSEN_MOVES["y->yx"], (S, S * U - T, U)),
    "x->x^-1": (NIELSEN_MOVES["x->x^-1"], (S, S * T - U, T)),
    "x<->y": (NIELSEN_MOVES["x<->y"], (T, U, S)),
}


class TestAutomorphismOracle:
    # f_(alpha(w)) = f_w o Phi_alpha (Fricke; Horowitz 1972): exact over Z,
    # with no matrices, so it checks long words against other long words
    @given(
        w=syllable_words(max_r=40, hi=2),
        moves=st.lists(st.sampled_from(sorted(NIELSEN)), min_size=1, max_size=2),
    )
    @settings(max_examples=12)
    def test_trace_commutes_with_nielsen_moves(self, w, moves):
        f = trace_poly(w, engine=TraceEngine()).f
        for name in moves:
            images, phi = NIELSEN[name]
            w = apply_move(images, w)
            g = trace_poly(w, engine=TraceEngine()).f
            assert g == f.substitute(*phi), name
            f = g

    @pytest.mark.parametrize("name", sorted(NIELSEN))
    def test_forty_syllables(self, name):
        rng = random.Random(40)
        w = Word.from_syllables([(rng.choice((-1, 1)), rng.choice((-1, 1))) for _ in range(40)])
        images, phi = NIELSEN[name]
        assert trace_poly(apply_move(images, w)).f == trace_poly(w).f.substitute(*phi)


class TestLargeExponents:
    @pytest.mark.parametrize("text", ["x^1000y", "x^-1000y", "x^300y^300"])
    def test_cold_engine_within_budget(self, text):
        # exponents far past Python's recursion limit, on a cold memo
        w = parse(text)
        t0 = time.monotonic()
        f = trace_poly(w, engine=TraceEngine()).f
        elapsed = time.monotonic() - t0
        assert elapsed <= 10, f"budget exceeded: {elapsed:.1f}s > 10s"
        F = field(101)
        g = f.reduce_mod(101)
        rng = random.Random(text)
        for _ in range(5):
            s, u, t = (rng.randrange(101) for _ in range(3))
            assert poly_value(g, F, s, u, t) == eval_trace_direct(w, F, s, u, t)


def _key_and_tables(w):
    """The memo key of w, its blocks' tables and the packed path's bound on f_w's coefficients.

    The bound is carried as a plain matrix-vector product over the blocks'
    norms, the reference for the unrolled update in ``trace._product``.
    """
    key = trace._canonical_cyclic(_cyclic_reduce(w.blocks)[0])
    tables = [trace._block_table(g, e) for g, e in key]
    bound = [1, 0, 0, 0]
    for table in tables:
        norms = trace._norms(table)
        bound = [sum(norms[4 * i + j] * bound[j] for j in range(4)) for i in range(4)]
    return key, tables, 2 * bound[0] + bound[1] + bound[2] + bound[3]


def _width(bound):
    """The fewest whole bytes of slot with bound < 2^(width - 1)."""
    return 8 * (bound.bit_length() // 8 + 1)


WIDTHS = range(8, 65, 8)


@st.composite
def near_bound_words(draw, width):
    """A word whose packed-path bound is 2^(width-4) to 2^(width-1), its last x-exponent swept up or down."""
    exps = st.integers(-8, 8).filter(bool)
    syl = []
    for a, b in draw(st.lists(st.tuples(exps, exps), min_size=1, max_size=4)):
        if _key_and_tables(Word.from_syllables(syl + [(a, b)]))[2].bit_length() > width - 13:
            break
        syl.append((a, b))
    # the bound grows by under a bit a step of |a|, and passes 2^63 by |a| = 99
    b, sign = draw(exps), draw(st.sampled_from((-1, 1)))
    for a in draw(st.sampled_from((range(1, 100), range(99, 0, -1)))):
        w = Word.from_syllables(syl + [(sign * a, b)])
        if width - 3 <= _key_and_tables(w)[2].bit_length() <= width - 1:
            return w
    assume(False)


class TestPackedProduct:
    """The product on packed slots against the product on dicts and the oracles."""

    @given(syllable_words(max_r=5, hi=12))
    @settings(max_examples=15)
    def test_either_side_of_the_bound(self, w):
        key, tables, bound = _key_and_tables(w)
        assert bound <= scalar_bound(tables)
        f = trace._dict_trace(tables)
        assert max(abs(c) for _, c in f.terms()) <= bound
        if bound < 1 << 63:
            assert trace._packed_trace(key, tables, _width(bound)) == f
        assert trace_poly(w, engine=TraceEngine()).f == f == fricke_trace(w)

    @staticmethod
    def _near_bound(w, width):
        key, tables, bound = _key_and_tables(w)
        assert _width(bound) == width
        assert trace._packed_trace(key, tables, width) == trace._dict_trace(tables) == fricke_trace(w)

    @given(near_bound_words(64))
    @settings(max_examples=15)
    def test_bounds_of_60_to_63_bits(self, w):
        self._near_bound(w, 64)

    @pytest.mark.parametrize("width", WIDTHS[:-1])
    def test_bounds_within_3_bits_of_each_width(self, width):
        @given(near_bound_words(width))
        @settings(max_examples=5)
        def check(w):
            self._near_bound(w, width)

        check()

    def test_top_slot_below_zero(self):
        for width in WIDTHS:
            # slots 0, 1, 5 and 6 of a 1 x 1 x 7 box: s-degree and u-degree 0,
            # the slots at the bound and the top one negative
            low = (1 << (width - 1)) - 1
            top = -low
            f = low + (-1 << width) + (3 << 5 * width) + (top << 6 * width)
            assert f < 0
            want = TriPoly.const(low) - T + C(3) * T**5 + C(top) * T**6
            assert trace._decode_slots(f, width, 1, 1, 7) == want, width
        # xyxY = -u^2 + stu - t^2 + 2: the slot of t^2 is the top one
        assert trace_poly(parse("xyxY"), engine=TraceEngine()).f == CLOSED_FORMS["xyxY"]

    def test_paths_taken(self, monkeypatch):
        taken, widths = [], {}

        def packed(key, tables, width):
            taken.append("packed")
            widths[key] = width

        monkeypatch.setattr(trace, "_packed_trace", packed)
        monkeypatch.setattr(trace, "_dict_trace", lambda tables: taken.append("dict"))
        rng = random.Random(3)
        forty = Word.from_syllables([(rng.choice((-1, 1)), rng.choice((-1, 1))) for _ in range(40)])
        for w in (parse("x^100y"), forty):
            trace._product(_key_and_tables(w)[0])
        assert taken == ["dict", "dict"]
        taken.clear()
        words = {req.syllables for req in itertools.islice(perfbench_inputs().classify_stream(1), 1500)}
        keys = {_key_and_tables(Word.from_syllables(syl))[0] for syl in words}
        roots = {key[: _period(key)] for key in keys}
        for key in keys | roots:
            trace._product(key)
        assert taken == ["packed"] * len(keys | roots)
        assert widths == {key: _width(_key_and_tables(Word.from_blocks(key))[2]) for key in keys | roots}
        assert max(widths[key] for key in roots) <= 32


class TestBounds:
    def test_forty_syllables_in_a_fresh_process(self):
        # the split head * tail - cross took 132 s for 20 syllables
        code = (
            "import random, time, tracemalloc\n"
            "from tracelab import TraceEngine, Word, trace_poly\n"
            "rng = random.Random(3)\n"
            "w = Word.from_syllables([(rng.choice((-1, 1)), rng.choice((-1, 1))) for _ in range(40)])\n"
            "tracemalloc.start()\n"
            "start = time.perf_counter()\n"
            "res = trace_poly(w, engine=TraceEngine())\n"
            "print(res.u_degree, time.perf_counter() - start, tracemalloc.get_traced_memory()[1])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        u_degree, seconds, peak = run.stdout.split()
        assert int(u_degree) == 40
        assert float(seconds) <= 10, f"budget exceeded: {float(seconds):.1f}s > 10s"
        assert int(peak) <= 16 * 2**20, f"peak {int(peak) / 2**20:.1f} MB > 16 MB"

    @pytest.mark.parametrize(
        "text",
        [
            "x^123456y",  # a six-digit exponent
            "x^32768",  # a degree past the packed keys
            "x^1000y^1000x^1000y^-1000",  # f_w with millions of terms
            "x^200y^200x^200y^-200",  # small enough, but a long product
            "y^3" + "x^2yx^-2y^2" * 9000 + "Y^3",  # 36 000 blocks, a conjugate of a power
        ],
        ids=lambda text: text[:30],
    )
    def test_refused_before_any_work(self, text):
        w = parse(text)
        eng = TraceEngine()
        start = time.monotonic()
        with pytest.raises(ValueError, match="word too large to trace"):
            trace_poly(w, engine=eng)
        assert time.monotonic() - start <= 1
        assert not eng._words

    def test_a_power_is_bounded_by_its_root_and_the_recurrence(self):
        # the work bound on the whole key read 4.1e8 for (xy)^100, past MAX_TRACE_WORK
        eng = TraceEngine()
        res = trace_poly(parse("xy" * 100), engine=eng)
        assert res.u_degree == 100 and res.f == dickson_apply(100, U)
        assert trace._work_bound(trace._canonical_cyclic(parse("xy" * 100).blocks)) > trace.MAX_TRACE_WORK
        with pytest.raises(ValueError, match="f_w may take"):
            trace_poly(parse("xy" * 400), engine=TraceEngine())

    def test_memos_stay_within_the_bound(self):
        eng = TraceEngine()
        words = {}
        for w in sample_words(12, 3 * trace._MEMO_BOUND, seed=8):
            words.setdefault(trace._canonical_cyclic(w.blocks), w)
        assert len(words) > trace._MEMO_BOUND + 100
        for w in words.values():
            trace_poly(w, engine=eng)
            eng.entry(w).verdicts[None] = w
        assert len(eng._words) == trace._MEMO_BOUND
        # the least recently used went first, with its verdicts; the last word is still there
        first, *_, last = words
        assert first not in eng._words and last in eng._words
        assert eng.entry(words[first]).verdicts == {}
        assert eng.entry(words[last]).verdicts == {None: words[last]}


class TestSpecializations:
    @given(syllable_words(max_r=3, hi=2))
    @settings(max_examples=40)
    def test_four_dickson_specializations(self, w):
        st_ = stats(w)
        f = trace_poly(w).f
        cases = [
            (S, S, C(2), st_.A),  # y = x
            (C(2), T, T, st_.B),  # x = 1
            (S, C(2), S, st_.A - st_.B),  # y = x^-1
            (S, S**2 - C(2), S, st_.A + st_.B),  # y = x^2 collapses u
        ]
        for s_val, u_val, t_val, idx in cases:
            got = f.substitute(s_val, u_val, t_val)
            var = s_val if not s_val.is_constant else t_val
            assert got == dickson_apply(idx, var)


class TestEngineBehavior:
    def test_memo_reuse_is_consistent(self):
        eng = TraceEngine()
        w = parse("xxyXYxyy")
        first = trace_poly(w, engine=eng).f
        second = trace_poly(w, engine=eng).f
        assert first == second
        fresh = trace_poly(w, engine=TraceEngine()).f
        assert first == fresh

    def test_rotations_and_the_inverse_share_the_entry(self):
        eng = TraceEngine()
        w = parse("xxyXYxyy")
        entry = eng.entry(w)
        assert eng.entry(w) is entry
        assert eng.entry(parse("yxxyXYxy")) is entry
        assert eng.entry(w.inverse()) is entry
        with pytest.raises(ValueError, match="empty word"):
            eng.entry(parse("xyYX"))

    def test_entry_u_degree_checked_on_every_call(self):
        # a planted entry whose f has u-degree 2 under xy, of complexity 1
        eng = TraceEngine()
        w = parse("xy")
        assert trace._word_entry(w, eng).u_degree == 1
        eng._words[trace._canonical_cyclic(w.blocks)] = trace._WordEntry(U**2)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="u-degree 2 != complexity of xy"):
                trace._word_entry(w, eng)

    def test_memo_hit_canonicalizes_once(self, monkeypatch):
        # a word that starts on a y-block is not canonical: the check and the
        # result share one canonical form
        eng = TraceEngine()
        w = parse("yxxyXYYxyX")
        cold = trace_poly(w, engine=eng)
        calls = []
        real = trace.canonicalize
        monkeypatch.setattr(trace, "canonicalize", lambda v: calls.append(v) or real(v))
        assert trace_poly(w, engine=eng) == cold
        assert calls == [w]

    def test_memo_hit_runs_no_degree_scan(self, monkeypatch):
        # the u-degree of a hit is the one its entry kept, not a scan of f's terms
        eng = TraceEngine()
        words = [parse(text) for text in ("xxyXYxyy", "yxxyXYxy", "x^3", "xyxy")]
        cold = [trace_poly(w, engine=eng) for w in words]
        calls = []
        deg = TriPoly.deg
        monkeypatch.setattr(TriPoly, "deg", lambda self, var: calls.append(var) or deg(self, var))
        assert [trace_poly(w, engine=eng) for w in words] == cold
        assert calls == []

    def test_result_fields(self, engine):
        res = trace_poly(parse("xxyXY"), engine=engine)
        assert res.word == parse("xxyXY")
        assert res.u_degree == 2
