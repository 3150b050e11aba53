"""Tests of the benchmark itself: percentiles, inputs, output checks, tracer,
host-speed scaling.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

import tracelab
from tracelab import TriPoly, UniPoly, Word, parse

import inputs
import oracles
import workloads
from hostspeed import REF_S, HostSpeed
from percentiles import TooFewSamples, min_samples, percentile
from tracer import PER_LAYER, Tracer


# -- percentiles -------------------------------------------------------------


def test_percentile_refuses_thin_tails():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == 89
    with pytest.raises(TooFewSamples):
        percentile([0.0] * 999, 99)
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)


def test_min_samples():
    assert min_samples(50) == 20
    assert min_samples(90) == 100
    assert min_samples(99) == 1000
    for pct in (50, 90, 99):
        percentile(list(range(min_samples(pct))), pct)


# -- input generation ------------------------------------------------------------


def _take(stream, n):
    return list(itertools.islice(stream, n))


def test_streams_are_deterministic_per_seed():
    for make in (inputs.classify_stream, inputs.fibers_stream, inputs.levelsets_stream):
        assert _take(make(3), 300) == _take(make(3), 300)
        assert _take(make(3), 300) != _take(make(4), 300)
    assert inputs.level_random_pool(5) == inputs.level_random_pool(5)


def test_level_pool_has_no_proper_powers():
    for seed in range(50):
        pool = inputs.level_random_pool(seed)
        assert len(set(pool)) == len(pool) == inputs.LEVEL_RANDOM_POOL
        assert all(inputs.power_index(s) == 1 and len(s) <= 3 for s in pool)


def test_classify_blocks_have_fixed_composition():
    reqs = _take(inputs.classify_stream(1), 500)
    counts = {kind: sum(r.kind == kind for r in reqs) for kind, _ in inputs.CLASSIFY_BLOCK}
    assert counts == {kind: 10 * n for kind, n in inputs.CLASSIFY_BLOCK}
    for r in reqs:
        assert r.power == inputs.power_index(r.syllables)
        if r.kind in ("power", "heavy"):
            assert r.power >= 2
        if r.kind == "heavy":
            assert inputs.exponent_sums(r.syllables) == (0, 0)


def test_generated_words_are_canonical():
    rng = random.Random(0)
    for _ in range(200):
        syl = inputs.random_canonical(rng, 24)
        w = parse(inputs.render(syl))
        assert w.syllables == syl
        assert w.length <= 24
    remark = parse("xx") * parse("xxyXXY") ** 2
    assert tracelab.canonicalize(remark)[0] == Word.from_syllables(inputs.REMARK)


def test_scan_closed_form_matches_enumeration():
    ref = oracles.scan_reference(8)
    for n, (total, _) in ref.items():
        assert total == inputs.scan_total(n)
    assert inputs.scan_total(11) == 88572


def test_reference_field_matches_documented_encoding():
    for q in (9, 25, 27, 32):
        p, n = inputs.prime_power(q)
        assert oracles.RefField(p, n).squares() == set(tracelab.field(q).squares)


# -- output checks reject corrupted results ------------------------------------------


def _classify(syl):
    req = inputs.ClassifyRequest("family", syl, inputs.power_index(syl))
    w = Word.from_syllables(syl)
    verdict = tracelab.classify_global(w, 13)
    result = tracelab.trace_poly(w)
    return req, verdict, result


def test_classify_check_accepts_and_rejects():
    rng = random.Random(1)
    req, verdict, result = _classify(((2, 1), (2, 1)))
    assert workloads.check_classify(req, verdict, result, rng) == []
    flipped = dataclasses.replace(verdict, conclusion="Equidistributed-certified-to-13")
    assert workloads.check_classify(req, flipped, result, rng)
    wrong_class = dataclasses.replace(verdict, rational_class="NoncompositeQ")
    assert workloads.check_classify(req, wrong_class, result, rng)
    wit = dataclasses.replace(verdict.rational_witness, dickson_index=3)
    assert workloads.check_classify(req, dataclasses.replace(verdict, rational_witness=wit), result, rng)
    bad_f = dataclasses.replace(result, f=result.f + TriPoly.const(1))
    assert workloads.check_classify(req, verdict, bad_f, rng)


def test_classify_check_rejects_a_wrong_witness():
    rng = random.Random(2)
    req, verdict, result = _classify(((1, 2), (1, 2)))
    per_prime = list(verdict.per_prime)
    i = next(i for i, pv in enumerate(per_prime) if pv.witness is not None and pv.p > 2)
    pv = per_prime[i]
    outer = pv.witness.outer + UniPoly.const(1, pv.p)
    per_prime[i] = dataclasses.replace(pv, witness=dataclasses.replace(pv.witness, outer=outer))
    corrupted = dataclasses.replace(verdict, per_prime=tuple(per_prime))
    assert any("witness" in p for p in workloads.check_classify(req, corrupted, result, rng))


def test_scan_check_rejects_corrupted_counts():
    scan = workloads.Scan(0, "unused")
    reports = tracelab.genericity_scan(inputs.SCAN_N_MAX)
    assert scan.check(inputs.SCAN_N_MAX, reports, random.Random(0)) == []
    for field, delta in (("total", 1), ("proper_powers", 1), ("certified", -1)):
        bad = list(reports)
        bad[-1] = dataclasses.replace(bad[-1], **{field: getattr(bad[-1], field) + delta})
        assert scan.check(inputs.SCAN_N_MAX, bad, random.Random(0))


def _fibers(kind, syl, q):
    fib = workloads.Fibers(0, "unused")
    req = inputs.WordAtQ(kind, syl, q)
    return req, fib.run((req, Word.from_syllables(syl)))


def test_fibers_check_rejects_corrupted_reports():
    req, (report, eps, image, psl) = _fibers("commutator", inputs.COMMUTATOR, 27)
    assert workloads.check_fibers(req, report, eps, image, psl) == []
    big = dataclasses.replace(eps, epsilon=Fraction(97, 100))  # > 5/sqrt(27)
    assert workloads.check_fibers(req, report, big, image, psl)
    rows = list(report.rows)
    rows[0] = dataclasses.replace(rows[0], fiber_per_element=rows[0].fiber_per_element + 1)
    assert workloads.check_fibers(req, dataclasses.replace(report, rows=tuple(rows)), eps, image, psl)

    req, (report, eps, image, psl) = _fibers("xy_squared", inputs.XY_SQUARED, 17)
    assert workloads.check_fibers(req, report, eps, image, psl) == []
    fewer = dataclasses.replace(image, omitted_traces=image.omitted_traces[1:])
    assert workloads.check_fibers(req, report, eps, fewer, psl)


def test_fibers_brute_force_check():
    syl = ((2, -1), (1, 1))
    report = tracelab.fiber_distribution(Word.from_syllables(syl), inputs.BRUTE_Q)
    assert workloads.check_fibers_brute(syl, report) == []
    rows = list(report.rows)
    i = next(i for i, r in enumerate(rows) if r.ctype == "central")
    rows[i] = dataclasses.replace(rows[i], fiber_per_element=rows[i].fiber_per_element + 1)
    assert workloads.check_fibers_brute(syl, dataclasses.replace(report, rows=tuple(rows)))


def test_levelsets_check_rejects_corrupted_reports():
    ls = workloads.LevelSets(0, "unused")
    req = inputs.WordAtQ("commutator", inputs.COMMUTATOR, inputs.LEVEL_QS[0])
    prepared = (req, ls.polys[inputs.COMMUTATOR])
    report = ls.run(prepared)
    assert ls.check(prepared, report, random.Random(0)) == []
    assert ls.check(prepared, dataclasses.replace(report, all_pass=False), random.Random(0))
    assert ls.check(prepared, dataclasses.replace(report, rows=report.rows[1:]), random.Random(0))
    assert ls.final_checks() == []


def test_brute_level_counts_match_and_detect():
    f = tracelab.trace_poly(Word.from_syllables(inputs.REMARK)).f.reduce_mod(13)
    want = oracles.brute_level_counts(f, 13)
    assert list(tracelab.level_set_counts(f, 13)) == list(want)
    assert list(oracles.brute_level_counts(f + TriPoly.const(1, 13), 13)) != list(want)


# -- tracer ---------------------------------------------------------------------------


def test_tracer_records_layers_and_restores():
    original = tracelab.decompose.trace_poly
    tracer = Tracer()
    tracer.install()
    try:
        assert tracelab.decompose.trace_poly is not original
        tracelab.classify_global(parse("xyxy"), 5, engine=tracelab.TraceEngine())
    finally:
        tracer.uninstall()
    assert tracelab.decompose.trace_poly is original
    metrics = tracer.metrics(0.0)
    assert list(metrics) == list(PER_LAYER)
    assert metrics["trace.calls"] >= 4 and metrics["decompose.calls"] >= 4
    assert metrics["trace.repeat_share"] > 0
    assert metrics["tripoly.mul_calls"] > 0
    by_name = tracer.per_name()
    calls, incl, own = by_name["decompose.classify_global"]
    assert calls == 1 and 0 <= own < incl


# -- host-speed scaling ------------------------------------------------------------------


def test_hostspeed_scales_by_bracketing_samples():
    speed = HostSpeed()
    speed.positions, speed.loops = [0, 2, 3], [REF_S, 3 * REF_S, REF_S]
    assert speed.scale([1.0, 1.0, 2.0]) == [0.5, 0.5, 1.0]


def test_hostspeed_samples_every_interval():
    speed = HostSpeed(every_s=0.1)
    for pos, measured in enumerate([0.0, 0.04, 0.04, 0.04, 0.2]):
        speed.mark(pos, measured)
    speed.close(5)
    assert speed.positions == [0, 3, 4, 5]
    assert len(speed.scale([0.01] * 5)) == 5
