import pytest

from tracelab import probes
from tracelab.probes import level_set_counts
from tracelab.sl2 import lang_weil_check, spectrum_probe
from tracelab.trace import trace_poly
from tracelab.tripoly import TriPoly
from tracelab.words import parse

from _oracles import naive_level_counts

U = TriPoly.var("u", None)
S = TriPoly.var("s", None)
T = TriPoly.var("t", None)
# x^4 y x^-2 y^-1 x^2 y x^-2 y^-1, whose f_w has degree 12
REMARK = "xxxxyXXYxxyXXY"


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

    def test_probe_then_screen_counts_once(self, monkeypatch):
        passes = []
        u_slices = probes._u_slices

        def counting(f, F):
            passes.append(F.q)
            return u_slices(f, F)

        monkeypatch.setattr(probes, "_u_slices", counting)
        probes._cube_counts.cache_clear()
        fp = trace_poly(parse("xyXY")).f.reduce_mod(11)
        probe = spectrum_probe(fp, 11, [1])
        lang_weil_check(fp, 11, spectrum_exclusions=probe.flagged)
        assert passes == [11]
