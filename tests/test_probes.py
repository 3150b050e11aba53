import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracelab import probes
from tracelab.gf import GF, _factor_prime_power, field
from tracelab.probes import level_set_counts
from tracelab.sl2 import lang_weil_check, spectrum_probe
from tracelab.trace import trace_poly
from tracelab.tripoly import TriPoly
from tracelab.words import parse

from _oracles import cube_level_counts, horner_u_slices, naive_level_counts, tripoly_from_terms

U = TriPoly.var("u", None)
S = TriPoly.var("s", None)
T = TriPoly.var("t", None)
# x^4 y x^-2 y^-1 x^2 y x^-2 y^-1, whose f_w has degree 12
REMARK = "xxxxyXXYxxyXXY"
ORBIT_QS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 81, 125, 128]
# one polynomial for each case of the sign rules on the monomials s^i u^j t^k
RULE_CASES = {
    # i + j and j + k both odd on every monomial
    "both-odd": U**3 + S * T + S**2 * U - (U * T**2).scale(2) + U.scale(5),
    "both-odd-word": trace_poly(parse("xyXYxy")).f,
    "both-even-word": trace_poly(parse(REMARK)).f,
    "i+j-only": S + U * T**2 + (U**3 * T).scale(3) + S**2 * U,
    "j+k-only": U**3 + S * T + S * U**2 * T + T**3,
    # f(-s, -u, t) = -f and f(s, -u, -t) = f
    "odd-even": S + U * T,
    "neither": S + T + U * T,
    "neither-square": S**2 + U,
    "neither-cubic": S**2 + U**2 * T + U,
    "constant": TriPoly.const(3, None),
}


class TestLevelSetCounts:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
    def test_linear_polynomial_is_uniform(self, q):
        counts = level_set_counts(U, q)
        assert list(counts) == [q * q] * q

    @pytest.mark.parametrize("q", [3, 5, 7, 8, 9])
    def test_total_is_cube(self, q):
        f = trace_poly(parse("xyXY")).f
        counts = level_set_counts(f, q)
        assert counts.sum() == q**3

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16, 25, 27])
    def test_matches_scalar_oracle(self, q):
        words = ["xy", "xyxy", "xyXY", "xxyXY"]
        if q <= 16:
            words.append(REMARK)
        for w in words:
            f = trace_poly(parse(w)).f
            got = list(level_set_counts(f, q))
            assert got == naive_level_counts(f, q)

    def test_constant_polynomial(self):
        counts = level_set_counts(TriPoly.const(3, None), 5)
        assert counts[3] == 125
        assert counts.sum() == 125

    def test_characteristic_mismatch(self):
        f = trace_poly(parse("xy")).f.reduce_mod(3)
        with pytest.raises(ValueError):
            level_set_counts(f, 5)


def _assert_matches_references(f, q):
    got = list(level_set_counts(f, q))
    assert got == cube_level_counts(f, q)
    if q <= 16:
        assert got == naive_level_counts(f, q)


class TestOrbitCounts:
    @pytest.mark.parametrize("q", ORBIT_QS)
    @pytest.mark.parametrize("case", RULE_CASES)
    def test_matches_full_cube(self, case, q):
        p = _factor_prime_power(q)[0]
        _assert_matches_references(RULE_CASES[case].reduce_mod(p), q)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
            st.integers(-9, 9),
            max_size=6,
        ),
        st.sampled_from(ORBIT_QS),
    )
    def test_random_polynomials_match_full_cube(self, terms, q):
        _assert_matches_references(tripoly_from_terms(terms, _factor_prime_power(q)[0]), q)


SLICE_QS = [2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 121, 125, 127, 128]
# the sign-rule cases, then u-degrees 0 and 1 and a single parity of u-powers
SLICE_CASES = {
    **RULE_CASES,
    "u-free": S**2 * T + S + T.scale(2),
    "u-linear": U * S.scale(3) + T**2 + S,
    "even-u": U**4 * S + (U**2 * T).scale(2) + S * T,
    "odd-u": U**5 + U**3 * S * T + (U * T**2).scale(4),
    "xxyXY-word": trace_poly(parse("xxyXY")).f,
}


def _assert_slices_match_reference(f, q, whole=True):
    """Every u exactly once, on the orbit representatives and, if whole, on the whole grid."""
    F = field(q)
    s_maps, _, t_mirror, _ = probes._symmetries(F, *probes._parities(f))
    grids = [probes._representatives(s_maps, t_mirror)[0]] + whole * [(np.arange(q), np.arange(q))]
    for select in grids:
        got = sorted(probes._u_slices(f, F, select), key=lambda pair: pair[0])
        assert [u for u, _ in got] == list(range(q))
        assert np.array_equal(np.stack([val for _, val in got]), np.stack(list(horner_u_slices(f, F, select))))


class TestUSlices:
    @pytest.mark.parametrize("q", SLICE_QS)
    def test_matches_the_per_u_horner_loop(self, q):
        # the sign-rule cases on the whole grid at q <= 49 only, to bound the time
        p = _factor_prime_power(q)[0]
        for case, f in SLICE_CASES.items():
            _assert_slices_match_reference(f.reduce_mod(p), q, q <= 49 or case not in RULE_CASES)

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 4)),
            st.integers(-9, 9),
            max_size=6,
        ),
        st.sampled_from([q for q in SLICE_QS if q <= 27]),
    )
    def test_random_polynomials_match_the_per_u_horner_loop(self, terms, q):
        _assert_slices_match_reference(tripoly_from_terms(terms, _factor_prime_power(q)[0]), q)


# one polynomial for each kind of line of a quadratic a u^2 + b u + c
QUADRATIC_CASES = {
    "u^2": U**2,
    "s u^2 + t u": S * U**2 + T * U,
    "u^2 + s u + t": U**2 + S * U + T,
    "(s^2 - 4) u^2 + u": (S**2 - TriPoly.const(4, None)) * U**2 + U,
    "s u + t": S * U + T,
}


def _whole_grid_tally(f, F):
    """The tally of each u-slice of the whole grid, every line of weight 1, by the per-u loop."""
    grid = (np.arange(F.q), np.arange(F.q))
    return sum(np.bincount(val.ravel(), minlength=F.q) for val in horner_u_slices(f, F, grid))


class TestQuadraticTally:
    @pytest.mark.parametrize("q", ORBIT_QS)
    @pytest.mark.parametrize("case", QUADRATIC_CASES)
    def test_every_line_kind_matches_the_references(self, case, q):
        f = QUADRATIC_CASES[case].reduce_mod(_factor_prime_power(q)[0])
        _assert_matches_references(f, q)
        F = field(q)
        grid = (np.arange(q), np.arange(q))
        blocks = probes._u_blocks_on_grid(f, F, grid)
        tally = probes._quadratic_tally(blocks, F, np.ones(q * q, dtype=np.int64))
        assert np.array_equal(tally, _whole_grid_tally(f, F))

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 4)),
            st.integers(-9, 9),
            max_size=6,
        ),
        st.sampled_from(ORBIT_QS),
    )
    def test_random_quadratics_match_the_references(self, terms, q):
        _assert_matches_references(tripoly_from_terms(terms, _factor_prime_power(q)[0]), q)

    @pytest.mark.parametrize("q", [q for q in ORBIT_QS if q % 2 == 0])
    def test_absolute_trace_is_the_sum_of_the_conjugates(self, q):
        F = field(q)
        want = []
        for x in range(q):
            total, power = 0, x
            for _ in range(F.n):
                total, power = F.add(total, power), F.mul(power, power)
            want.append(total)
        got = probes._absolute_trace(F)
        assert got.tolist() == want
        assert np.bincount(got, minlength=2).tolist() == [q // 2, q // 2]

    @pytest.mark.parametrize("q", [q for q in ORBIT_QS if q % 2])
    def test_quadratic_character_is_eulers_criterion(self, q):
        F = field(q)
        want = []
        for x in range(q):
            power = 1
            for _ in range((q - 1) // 2):
                power = F.mul(power, x)
            want.append({0: 0, 1: 1}.get(power, -1))
        assert probes._quadratic_character(F).tolist() == want


CUBIC_QS = [q for q in ORBIT_QS if q % 3]
# one polynomial for each kind of line of a cubic a u^3 + b u^2 + c u + d
CUBIC_CASES = {
    # lam = 0 on every line: kappa = 0
    "u^3 + s": U**3 + S,
    # and N_z != N_-z, so a tally that reads level z for -z fails
    "u^3 + s^2 + 1": U**3 + S**2 + TriPoly.const(1, None),
    # a = 0 at s = 0; lam = t / s takes every value on the other lines
    "s u^3 + t u": S * U**3 + T * U,
    # b != 0, so the depressing shift moves d
    "u^3 + s u^2 + t u + s t": U**3 + S * U**2 + T * U + S * T,
    "(s^2 - 2) u^3 + t u^2 + u + s": (S**2 - TriPoly.const(2, None)) * U**3 + T * U**2 + U + S,
    "xyXYxy-word": trace_poly(parse("xyXYxy")).f,
}


def _line_kinds(f, F):
    """The kinds among the lines (s, t) of the whole grid: 'flat' (a = 0), and 0, 'square' or 'nonsquare' lam.

    Scalar arithmetic on the block grids, lam = (c - b^2 / (3a)) / a.
    """
    d, c, b, a = (blk.ravel().tolist() for blk in probes._u_blocks_on_grid(f, F, (np.arange(F.q), np.arange(F.q))))
    three = F.embed_int(3)
    kinds = set()
    for ai, bi, ci in zip(a, b, c):
        if ai == 0:
            kinds.add("flat")
            continue
        shift = F.mul(F.mul(bi, bi), F.inv(F.mul(three, ai)))
        lam = F.mul(F.add(ci, F.neg(shift)), F.inv(ai))
        kinds.add(0 if lam == 0 else "square" if lam in F.squares else "nonsquare")
    return kinds


def _brute_cubic_counts(F, kappa):
    """#{w : w^3 + kappa w = y} for every y, one scalar evaluation per w."""
    counts = [0] * F.q
    for w in range(F.q):
        counts[F.add(F.mul(F.mul(w, w), w), F.mul(kappa, w))] += 1
    return counts


class TestCubicTally:
    @pytest.mark.parametrize("q", CUBIC_QS)
    @pytest.mark.parametrize("case", CUBIC_CASES)
    def test_every_line_kind_matches_the_references(self, case, q):
        f = CUBIC_CASES[case].reduce_mod(_factor_prime_power(q)[0])
        _assert_matches_references(f, q)
        F = field(q)
        blocks = probes._u_blocks_on_grid(f, F, (np.arange(q), np.arange(q)))
        tally = probes._cubic_tally(blocks, F, np.ones(q * q, dtype=np.int64))
        assert np.array_equal(tally, _whole_grid_tally(f, F))

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 4), st.integers(-9, 9), max_size=3),
        st.dictionaries(st.integers(0, 4), st.integers(-9, 9), max_size=3),
        st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-9, 9), max_size=4),
        st.integers(1, 9),
        st.sampled_from([q for q in CUBIC_QS if q <= 49]),
    )
    def test_random_cubics_meet_every_line_kind(self, b_terms, c_terms, d_terms, lead, q):
        # f = lead s u^3 + s B(s) u^2 + (t + C(s)) u + D(s, t): a = 0 on s = 0, and on
        # any other s, lam = (t + C(s) - s B(s)^2 lead / 3) / (lead s) is affine in t
        p = _factor_prime_power(q)[0]
        if lead % p == 0:
            lead = 1
        B = tripoly_from_terms({(i, 0, 0): c for i, c in b_terms.items()}, p)
        C = tripoly_from_terms({(i, 0, 0): c for i, c in c_terms.items()}, p)
        D = tripoly_from_terms({(i, 0, k): c for (i, k), c in d_terms.items()}, p)
        Sp, Up, Tp = (TriPoly.var(v, p) for v in "sut")
        f = (Sp * Up**3).scale(lead) + Sp * B * Up**2 + (Tp + C) * Up + D
        assert _line_kinds(f, field(q)) >= {"flat", 0, "square"} | ({"nonsquare"} if q % 2 else set())
        _assert_matches_references(f, q)

    @pytest.mark.parametrize("q", [4, 7, 8, 11])
    def test_normal_form_counts_every_line(self, q):
        # every (a != 0, b, c, d): #{u : g(u) = z} = H_kappa[z m - e] at every level z
        F = field(q)
        a, b, c, d = (col.ravel() for col in np.meshgrid(np.arange(1, q), *[np.arange(q)] * 3, indexing="ij"))
        kappas, kind, m, e = probes._cubic_normal_form(F, a, b, c, d)
        assert kappas[:2] == [0, 1] and len(kappas) == 2 + q % 2
        if q % 2:
            assert kappas[2] not in F.squares
        assert (m != 0).all()
        values = []
        for u in range(q):
            val = a
            for coef in (b, c, d):
                val = F.add_table[F.mul_table[val, u], coef]
            values.append(val)
        got = np.zeros((len(a), q), dtype=np.int64)
        for val in values:
            got[np.arange(len(a)), val] += 1
        heights = np.array([_brute_cubic_counts(F, kappa) for kappa in kappas])
        levels = F.add_table[F.mul_table[np.arange(q)[None, :], m[:, None]], F.neg_table[e][:, None]]
        assert np.array_equal(got, heights[kind[:, None], levels])

    @pytest.mark.parametrize("q", CUBIC_QS)
    def test_normal_cubic_counts_are_even_and_sum_to_q(self, q):
        F = field(q)
        for kappa in range(q):
            heights = probes._normal_cubic_counts(F, kappa)
            assert heights.tolist() == _brute_cubic_counts(F, kappa)
            assert heights.sum() == q and heights.max() <= 3
            assert np.array_equal(heights.take(F.neg_table), heights)

    @pytest.mark.parametrize("q", [3, 9, 27])
    @pytest.mark.parametrize("case", CUBIC_CASES)
    def test_characteristic_three_counts_on_the_slices(self, monkeypatch, case, q):
        def refused(*args):
            raise AssertionError("the cubic tally ran in characteristic 3")

        monkeypatch.setattr(probes, "_cubic_tally", refused)
        probes._cube_counts.cache_clear()
        f = CUBIC_CASES[case].reduce_mod(3)
        assert f.deg("u") == 3
        _assert_matches_references(f, q)

    @pytest.mark.parametrize("q", [127, 128])
    def test_count_within_memory_budget(self, q):
        # the slices peaked at 0.35-0.75 MB here, the tally at 0.56-0.72 MB
        F = field(q)
        f = trace_poly(parse("xyXYxy")).f.reduce_mod(F.p)
        probes._cube_counts.cache_clear()
        tracemalloc.start()
        try:
            counts = probes._cube_counts(f, F)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, f"budget exceeded: {peak / 2**20:.2f} MB > 1 MB"
        assert counts.sum() == q**3

    @pytest.mark.parametrize("q", [127, 128])
    def test_count_leaves_the_scaled_table_unbuilt(self, q):
        F = GF(q)
        probes._cube_counts(trace_poly(parse("xyXYxy")).f.reduce_mod(F.p), F)
        assert "scaled_mul_table" not in vars(F)


class TestPointsVisited:
    @staticmethod
    def _visited(monkeypatch, f, q, tally="_quadratic_tally"):
        """(points of the u-slices, lines of the closed-form tally named tally) that counting f at q reads."""
        sizes, lines = [], []
        u_slices, closed_form = probes._u_slices, getattr(probes, tally)

        def recording(f, F, *args):
            for u, val in u_slices(f, F, *args):
                sizes.append(val.size)
                yield u, val

        def tallying(blocks, F, line):
            lines.append(line.size)
            return closed_form(blocks, F, line)

        monkeypatch.setattr(probes, "_u_slices", recording)
        monkeypatch.setattr(probes, tally, tallying)
        probes._cube_counts.cache_clear()
        level_set_counts(f, q)
        return sum(sizes), sum(lines)

    @pytest.mark.parametrize("q,share", [(101, 3), (125, 5), (128, 5)])
    def test_cubic_word_visits_orbit_representatives(self, monkeypatch, q, share):
        # u-degree 4, so u-slices; a cubic such as xyXYxy is tallied in closed form below
        f = trace_poly(parse("xyXYXyxy")).f
        points, lines = self._visited(monkeypatch, f, q)
        assert 0 < points <= q**3 / share
        assert lines == 0

    @pytest.mark.parametrize("q,share", [(101, 3), (125, 5), (128, 5)])
    def test_cubic_word_tallies_orbit_representatives(self, monkeypatch, q, share):
        # u-degree 3 and p != 3: no u-slice, one normal form per representative line
        f = trace_poly(parse("xyXYxy")).f
        points, lines = self._visited(monkeypatch, f, q, "_cubic_tally")
        assert points == 0
        assert 0 < lines <= q**2 / share

    @pytest.mark.parametrize("q,share", [(101, 3), (125, 5), (128, 5)])
    def test_commutator_visits_orbit_representatives(self, monkeypatch, q, share):
        # u-degree 2: no u-slice, one closed-form count per representative line
        f = trace_poly(parse("xyXY")).f
        points, lines = self._visited(monkeypatch, f, q)
        assert points == 0
        assert 0 < lines <= q**2 / share

    def test_no_symmetry_visits_the_whole_cube(self, monkeypatch):
        f = S + T + U**4 * T
        assert self._visited(monkeypatch, f, 101) == (101**3, 0)

    def test_no_symmetry_quadratic_reads_every_line(self, monkeypatch):
        f = RULE_CASES["neither"]
        assert self._visited(monkeypatch, f, 101) == (0, 101**2)


class TestMemo:
    def test_mutating_a_result_leaves_the_next_call_intact(self):
        f = trace_poly(parse("xxyXY")).f
        first = level_set_counts(f, 7)
        want = list(first)
        first[:] = 0
        assert list(level_set_counts(f, 7)) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prime_and_its_square_are_counted_apart(self, p):
        f = trace_poly(parse("xyXY")).f
        at_p = list(level_set_counts(f, p))
        at_p2 = list(level_set_counts(f, p * p))
        assert at_p == naive_level_counts(f, p)
        assert at_p2 == naive_level_counts(f, p * p)
        assert list(level_set_counts(f, p)) == at_p

    @staticmethod
    def _passes(monkeypatch, name, word):
        """The fields that a probe then a screen of word mod 11 ran probes.<name> on."""
        passes = []
        counter = getattr(probes, name)

        def counting(*args):
            passes.append(args[1].q)
            return counter(*args)

        monkeypatch.setattr(probes, name, counting)
        probes._cube_counts.cache_clear()
        fp = trace_poly(parse(word)).f.reduce_mod(11)
        probe = spectrum_probe(fp, 11, [1])
        lang_weil_check(fp, 11, spectrum_exclusions=probe.flagged)
        return passes

    def test_probe_then_screen_counts_once(self, monkeypatch):
        assert self._passes(monkeypatch, "_u_slices", "xyXYXyxy") == [11]

    def test_probe_then_screen_tallies_the_cubic_once(self, monkeypatch):
        assert self._passes(monkeypatch, "_cubic_tally", "xyXYxy") == [11]

    def test_probe_then_screen_tallies_the_quadratic_once(self, monkeypatch):
        assert self._passes(monkeypatch, "_quadratic_tally", "xyXY") == [11]
