import importlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tracelab import trace
from tracelab.cache import CACHE_VERSION, TraceCache, _encode, cached_trace_poly
from tracelab.trace import TraceEngine, trace_poly
from tracelab.tripoly import TriPoly
from tracelab.words import parse

from _oracles import _decode, tripoly_from_terms

S, U, T = (TriPoly.var(name) for name in "sut")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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

    def test_keyed_by_canonical_form(self, tmp_path):
        cache = TraceCache(tmp_path / "c.json")
        w = parse("xyXYxy")
        cache.store(w, trace_poly(w).f)
        conj = parse("y") * w * parse("Y")
        assert cache.lookup(conj) == trace_poly(w).f

    @pytest.mark.parametrize(
        "text", ["{not json", "[]\n", '{"entries": {}}\n'], ids=["unparsable", "a-list", "unstamped"]
    )
    def test_file_that_is_not_a_cache_is_refused(self, tmp_path, text):
        # unparsable, or parsable with no version stamp: kept, not overwritten
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="already exists"):
            TraceCache(path)
        assert path.read_text() == text

    def test_saved_cache_is_refused_and_kept(self, tmp_path):
        path = tmp_path / "c.json"
        cache = TraceCache(path)
        cache.store(parse("xy"), trace_poly(parse("xy")).f)
        cache.save()
        before = path.read_bytes()
        with pytest.raises(ValueError, match="already exists"):
            TraceCache(path)
        assert path.read_bytes() == before

    def test_link_to_a_directory_is_refused(self, tmp_path):
        # save could not replace the directory, but it would replace the link
        (tmp_path / "a-directory").mkdir()
        path = tmp_path / "c.json"
        path.symlink_to(tmp_path / "a-directory")
        with pytest.raises(ValueError, match="already exists"):
            TraceCache(path)

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

    def test_entry_failing_checks_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path / "c.json")
        cache.entries["xy"] = U**2  # u-degree 2, but xy has complexity 1
        res = cached_trace_poly(parse("xy"), cache=cache)
        assert res.f == trace_poly(parse("xy")).f
        assert res.u_degree == 1
        assert cache.lookup(parse("xy")) == res.f

    def test_every_call_is_one_checked_read(self, tmp_path, monkeypatch):
        # the repeat is traced again on the engine, whose memo serves it,
        # and the cache's map is never read
        calls = []
        real = trace._checked_entry
        monkeypatch.setattr(trace, "_checked_entry", lambda w, engine: calls.append(w) or real(w, engine))
        monkeypatch.setattr(TraceCache, "lookup", None)
        cache = TraceCache(tmp_path / "c.json")
        eng = TraceEngine()
        w = parse("xxyXYY")
        results = []
        for n in (1, 2):
            results.append(cached_trace_poly(w, cache=cache, engine=eng))
            assert calls == [w] * n
        assert results[0] == results[1] == trace_poly(w, engine=TraceEngine())

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
        saved = json.loads(path.read_text())
        assert saved["version"] == CACHE_VERSION
        assert saved["entries"]["xy"] == f"0,0,0,{-(10**40)};0,0,32767,1;0,3,1,{-big};1,1,0,{big + 1}"
        assert {key: _decode(text) for key, text in saved["entries"].items()} == {"xy": f, "x^60y^60": g}

    @given(st.dictionaries(st.tuples(*[st.integers(0, 40)] * 3), st.integers(1, 2**70), min_size=1, max_size=8))
    def test_encoding_round_trips(self, terms):
        f = tripoly_from_terms(terms)
        assert _decode(_encode(f)) == f


class TestBenchmarkContract:
    """What the benchmark's tracer and classify workload use of the cache."""

    def test_classify_workload_runs_on_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        tracer, workloads = (importlib.import_module(name) for name in ("tracer", "workloads"))
        bench_tracer = tracer.Tracer()
        bench_tracer.install()  # imports every layer and reads TraceCache.lookup and .save from the class
        bench_tracer.uninstall()
        wl = workloads.Classify(1, tmp_path)
        wl.setup()
        for i, req in enumerate(itertools.islice(wl.stream(), 20)):
            assert wl.check(req, wl.run(req), random.Random(i)) == []
        wl.finish()
        assert Path(wl.cache_path).read_text().startswith('{"version": "tracelab-cache-2", "entries": {')
