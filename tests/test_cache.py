import json

import pytest
from hypothesis import given, strategies as st

from tracelab.cache import CACHE_VERSION, TraceCache, _decode, _encode, cached_trace_poly
from tracelab.trace import TraceEngine, trace_poly
from tracelab.tripoly import TriPoly
from tracelab.words import parse

from _oracles import tripoly_from_terms

S, U, T = (TriPoly.var(name) for name in "sut")


class TestTraceCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TraceCache(path)
        w = parse("xyXYxy")
        assert cache.lookup(w) is None
        f = trace_poly(w).f
        cache.store(w, f)
        assert cache.lookup(w) == f
        cache.save()

        fresh = TraceCache(path)
        assert fresh.lookup(w) == f
        assert len(fresh) == len(cache)

    def test_keyed_by_canonical_form(self, tmp_path):
        cache = TraceCache(tmp_path / "c.json")
        w = parse("xyXYxy")
        cache.store(w, trace_poly(w).f)
        conj = parse("y") * w * parse("Y")
        assert cache.lookup(conj) == trace_poly(w).f

    def test_version_mismatch_discards(self, tmp_path):
        path = tmp_path / "c.json"
        cache = TraceCache(path)
        cache.store(parse("xy"), trace_poly(parse("xy")).f)
        cache.save()
        blob = json.loads(path.read_text())
        assert blob["version"] == CACHE_VERSION
        blob["version"] = "something-older"
        path.write_text(json.dumps(blob))
        fresh = TraceCache(path)
        assert len(fresh) == 0
        assert fresh.lookup(parse("xy")) is None

    @pytest.mark.parametrize(
        "text", ["{not json", "[]\n", '{"entries": {}}\n'], ids=["unparsable", "a-list", "unstamped"]
    )
    def test_file_that_is_not_a_cache_is_refused(self, tmp_path, text):
        # unparsable, or parsable with no version stamp: kept, not overwritten
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a trace cache"):
            TraceCache(path)
        assert path.read_text() == text

    def test_dirty_flag(self, tmp_path):
        cache = TraceCache(tmp_path / "c.json")
        assert not cache.dirty
        cache.store(parse("xy"), trace_poly(parse("xy")).f)
        assert cache.dirty
        cache.save()
        assert not cache.dirty

    @pytest.mark.parametrize("name", ["a-directory", "a-file/cache.json"])
    def test_failed_save_raises_and_leaves_no_temporary_file(self, tmp_path, name):
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "a-file").write_text("")
        cache = TraceCache(tmp_path / name)
        cache.store(parse("xy"), trace_poly(parse("xy")).f)
        with pytest.raises(OSError):
            cache.save()
        assert not list(tmp_path.rglob("*.tmp"))


class TestCachedTracePoly:
    def test_hit_equals_miss(self, tmp_path):
        cache = TraceCache(tmp_path / "c.json")
        w = parse("xxyXYY")
        cold = cached_trace_poly(w, cache=cache)
        warm = cached_trace_poly(w, cache=cache)
        direct = trace_poly(w)
        assert cold.f == warm.f == direct.f
        assert warm.u_degree == direct.u_degree

    def test_degenerate_words_not_cached(self, tmp_path):
        cache = TraceCache(tmp_path / "c.json")
        res = cached_trace_poly(parse("xx"), cache=cache)
        assert res.f == trace_poly(parse("xx")).f

    def test_zero_denominator_entry_is_a_miss(self, tmp_path):
        # a coefficient field that is not an integer
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"version": CACHE_VERSION, "entries": {"xy": "0,1,0,1/0"}})
        )
        cache = TraceCache(path)
        assert cache.lookup(parse("xy")) is None
        res = cached_trace_poly(parse("xy"), cache=cache)
        assert res.f == trace_poly(parse("xy")).f
        assert cache.entries["xy"] == U
        cache.save()
        assert json.loads(path.read_text())["entries"]["xy"] == "0,1,0,1"

    def test_entry_failing_the_point_check_is_a_miss_and_overwritten(self, tmp_path):
        # 2*u under xy, whose f is u: its u-degree is right, its value at a point is not
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": CACHE_VERSION, "entries": {"xy": "0,1,0,2"}}))
        cache = TraceCache(path)
        res = cached_trace_poly(parse("xy"), cache=cache, engine=TraceEngine())
        assert res.f == U
        cache.save()
        assert json.loads(path.read_text())["entries"] == {"xy": "0,1,0,1"}

    def test_entry_failing_checks_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path / "c.json")
        cache.entries["xy"] = U**2  # u-degree 2, but xy has complexity 1
        res = cached_trace_poly(parse("xy"), cache=cache)
        assert res.f == trace_poly(parse("xy")).f
        assert res.u_degree == 1
        assert cache.lookup(parse("xy")) == res.f

    def test_request_path_does_not_render(self, tmp_path, monkeypatch):
        def no_render(self):
            raise AssertionError("the cache rendered a polynomial")

        monkeypatch.setattr(TriPoly, "render", no_render)
        cache = TraceCache(tmp_path / "c.json")
        w = parse("xxyXYYxyXy")
        cold = cached_trace_poly(w, cache=cache, engine=TraceEngine())
        warm = cached_trace_poly(w, cache=cache, engine=TraceEngine())
        assert cold.f == warm.f == trace_poly(w).f


class TestFileFormat:
    def test_version_one_file_starts_fresh_and_is_rewritten(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"version": "tracelab-cache-1", "entries": {"xy": "u", "xyXY": "0"}})
        )
        cache = TraceCache(path)
        assert len(cache) == 0
        assert cache.lookup(parse("xy")) is None
        cached_trace_poly(parse("xy"), cache=cache)
        cache.save()
        assert json.loads(path.read_text()) == {
            "version": "tracelab-cache-2",
            "entries": {"xy": "0,1,0,1"},
        }

    @pytest.mark.parametrize(
        "entry",
        [7, None, ["0,1,0,1"], "0,1,0,1.0", "0,1,0,one", "0,1,1", "0,1,0,1,0", "0,32768,0,1", "0,-1,0,1"],
        ids=[
            "an-int",
            "null",
            "a-list",
            "a-float-field",
            "a-word-field",
            "three-fields",
            "five-fields",
            "exponent-past-32767",
            "a-negative-exponent",
        ],
    )
    def test_malformed_entry_is_a_miss_and_overwritten(self, tmp_path, entry):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": CACHE_VERSION, "entries": {"xy": entry}}))
        cache = TraceCache(path)
        assert cache.lookup(parse("xy")) is None
        res = cached_trace_poly(parse("xy"), cache=cache)
        assert res.f == U
        assert cache.lookup(parse("xy")) == U
        cache.save()
        assert json.loads(path.read_text())["entries"] == {"xy": "0,1,0,1"}

    def test_round_trip_of_large_and_negative_coefficients(self, tmp_path):
        path = tmp_path / "c.json"
        big = 3**200
        f = (U**3 * T).scale(-big) + (S * U).scale(big + 1) + T**32767 + TriPoly.const(-(10**40))
        long_word = parse("x^60y^60")
        g = trace_poly(long_word).f
        assert max(abs(c) for _, c in g.terms()) > 2**64
        cache = TraceCache(path)
        cache.store(parse("xy"), f)
        cache.store(long_word, g)
        cache.save()
        text = json.loads(path.read_text())["entries"]["xy"]
        assert text == f"0,0,0,{-(10**40)};0,0,32767,1;0,3,1,{-big};1,1,0,{big + 1}"
        fresh = TraceCache(path)
        assert fresh.entries["xy"] == f
        assert fresh.lookup(long_word) == g
        assert fresh.lookup(parse("xy")) is None  # f is not xy's trace: its first hit is refused

    @given(st.dictionaries(st.tuples(*[st.integers(0, 40)] * 3), st.integers(1, 2**70), min_size=1, max_size=8))
    def test_encoding_round_trips(self, terms):
        f = tripoly_from_terms(terms)
        assert _decode(_encode(f)) == f
