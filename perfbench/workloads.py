"""The four workloads: set-up, the timed request, and its output checks.

Each workload calls tracelab's public functions the way its command-line
handler does.  ``stream`` turns generated inputs into tracelab values,
``run`` is the only timed part, and ``check`` returns a list of problems,
empty when the output agrees with the references in ``oracles``.

``block`` is the size of the stream's fixed-composition block and
``rate`` the requests per second measured on a 2-vCPU x86 host at the
commit that defined the benchmark; together they size a run.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from typing import Any, Iterator

import tracelab
from tracelab import Word

import inputs
import oracles

_clear_fields = tracelab.gf.field.cache_clear
_CHECK_PRIME = 10007
_PRIMES = [2, 3, 5, 7, 11, 13]


class Classify:
    """classify_global(w, 13) then cached_trace_poly, as ``tracelab classify``."""

    name = "classify"
    block = sum(n for _, n in inputs.CLASSIFY_BLOCK)
    rate = 75.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cache_path = os.path.join(workdir, "trace-cache.json")
        self.seen: Counter = Counter()
        self.kinds: Counter = Counter()
        self.requests = 0

    def setup(self) -> None:
        if os.path.exists(self.cache_path):
            os.unlink(self.cache_path)
        self.engine = tracelab.TraceEngine()
        self.cache = tracelab.TraceCache(self.cache_path)

    def stream(self) -> Iterator[tuple[inputs.ClassifyRequest, Word]]:
        for req in inputs.classify_stream(self.seed):
            yield req, Word.from_syllables(req.syllables)

    def run(self, prepared) -> Any:
        _, w = prepared
        verdict = tracelab.classify_global(w, inputs.CLASSIFY_P_MAX, engine=self.engine)
        result = tracelab.cached_trace_poly(w, cache=self.cache, engine=self.engine)
        return verdict, result

    def items(self, prepared, out) -> int:
        return 1

    def check(self, prepared, out, rng: random.Random) -> list[str]:
        req, _ = prepared
        self.requests += 1
        self.seen[req.syllables] += 1
        self.kinds[req.kind] += 1
        return check_classify(req, *out, rng)

    def finish(self) -> None:
        self.cache.save()

    def final_checks(self) -> list[str]:
        return []

    def properties(self) -> dict:
        n = max(self.requests, 1)
        repeats = sum(c - 1 for c in self.seen.values())
        props = {"requests": self.requests, "distinct_words": len(self.seen)}
        props["repeat_share"] = repeats / n
        for kind, _ in inputs.CLASSIFY_BLOCK:
            props[f"share_{kind}"] = self.kinds[kind] / n
        return props


def check_classify(req: inputs.ClassifyRequest, verdict, result, rng: random.Random) -> list[str]:
    problems = []
    expect = "CompositeQ" if req.power > 1 else "NoncompositeQ"
    if verdict.rational_class != expect:
        problems.append(f"rational class {verdict.rational_class}, expected {expect}")
    if req.power > 1:
        idx = verdict.rational_witness.dickson_index if verdict.rational_witness else None
        if idx is None or idx % req.power:
            problems.append(f"Dickson index {idx} is not a multiple of {req.power}")
    if req.kind == "family":
        (a, b), (c, d) = req.syllables
        bad = verdict.conclusion == "NotEquidistributed"
        if bad != ((a, b) == (c, d)):
            problems.append(f"family word concluded {verdict.conclusion}")
    if [pv.p for pv in verdict.per_prime] != _PRIMES:
        problems.append("per-prime verdicts do not cover the primes up to 13")
    for pv in verdict.per_prime:
        wit = pv.witness
        if wit is None:
            continue
        for _ in range(2):
            s, u, t, tr = oracles.trace_point(req.syllables, rng, pv.p)
            inner = oracles.eval_tripoly(wit.inner, s, u, t, pv.p)
            if oracles.eval_unipoly(wit.outer, inner, pv.p) != tr:
                problems.append(f"witness at p={pv.p} disagrees with the matrix trace")
                break
    s, u, t, tr = oracles.trace_point(req.syllables, rng, _CHECK_PRIME)
    if oracles.eval_tripoly(result.f, s, u, t, _CHECK_PRIME) != tr:
        problems.append("cached trace polynomial disagrees with the matrix trace")
    return problems


class Scan:
    """Exhaustive certified genericity scans, as ``tracelab scan --n-max``."""

    name = "scan"
    block = 1
    rate = 12.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.reference = oracles.scan_reference(inputs.SCAN_N_MAX)
        self.requests = 0

    def setup(self) -> None:
        pass

    def stream(self) -> Iterator[int]:
        while True:
            yield inputs.SCAN_N_MAX

    def run(self, n_max: int) -> Any:
        return tracelab.genericity_scan(n_max, mode="exhaustive", certify=True)

    def items(self, n_max, reports) -> int:
        return reports[-1].total

    def check(self, n_max, reports, rng: random.Random) -> list[str]:
        self.requests += 1
        problems = []
        if [r.n for r in reports] != list(range(2, n_max + 1)):
            problems.append("scan does not report every length")
        for r in reports:
            total, powers = self.reference.get(r.n, (None, None))
            if r.total != inputs.scan_total(r.n) or r.total != total:
                problems.append(f"n={r.n}: total {r.total}, expected {inputs.scan_total(r.n)}")
            if r.proper_powers != powers:
                problems.append(f"n={r.n}: {r.proper_powers} proper powers, expected {powers}")
            if r.certified != r.total - r.proper_powers:
                problems.append(f"n={r.n}: an aperiodic word was not certified")
        return problems

    def finish(self) -> None:
        pass

    def final_checks(self) -> list[str]:
        return []

    def properties(self) -> dict:
        return {
            "requests": self.requests,
            "n_max": inputs.SCAN_N_MAX,
            "words_per_scan": inputs.scan_total(inputs.SCAN_N_MAX),
        }


class Fibers:
    """fibers, epsilon, image and PSL reports, as ``tracelab epsilon``/``fibers --psl``."""

    name = "fibers"
    block = len(inputs.FIBER_QS) * len(inputs.FIBER_SLOTS)
    rate = 5.2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.qs: Counter = Counter()
        self.kinds: Counter = Counter()
        self.requests = 0

    def setup(self) -> None:
        _clear_fields()
        for q in inputs.FIBER_QS + (inputs.BRUTE_Q,):
            tracelab.field(q)
            tracelab.build_class_table(q)

    def stream(self) -> Iterator[tuple[inputs.WordAtQ, Word]]:
        for req in inputs.fibers_stream(self.seed):
            yield req, Word.from_syllables(req.syllables)

    def run(self, prepared) -> Any:
        req, w = prepared
        q = req.q
        report = tracelab.fiber_distribution(w, q)
        eps = tracelab.equidist_epsilon(report)
        image = tracelab.image_analysis(w, q, sl_report=report)
        psl = tracelab.psl_fiber_distribution(w, q, sl_report=report) if q % 2 else None
        return report, eps, image, psl

    def items(self, prepared, out) -> int:
        return 1

    def check(self, prepared, out, rng: random.Random) -> list[str]:
        req, _ = prepared
        self.requests += 1
        self.qs[req.q] += 1
        self.kinds[req.kind] += 1
        return check_fibers(req, *out)

    def finish(self) -> None:
        pass

    def final_checks(self) -> list[str]:
        """One q = 7 report against a brute-force count over all |G|^2 pairs."""
        rng = random.Random(f"fibers-brute-{self.seed}")
        syl = inputs.random_canonical(rng, 8, min_length=4)
        return check_fibers_brute(syl, tracelab.fiber_distribution(Word.from_syllables(syl), inputs.BRUTE_Q))

    def properties(self) -> dict:
        chars = sorted({inputs.prime_power(q)[0] for q in self.qs})
        return {
            "requests": self.requests,
            "q_values": sorted(self.qs),
            "characteristics": chars,
            "kind_shares": {k: v / max(self.requests, 1) for k, v in sorted(self.kinds.items())},
        }


def check_fibers(req: inputs.WordAtQ, report, eps, image, psl) -> list[str]:
    problems = []
    q = req.q
    order = q**3 - q
    n_classes = q + 4 if q % 2 else q + 1
    if report.order != order or report.total_pairs != order * order:
        problems.append(f"SL(2,{q}) report has order {report.order}")
    if len(report.rows) != n_classes:
        problems.append(f"{len(report.rows)} classes, SL(2,{q}) has {n_classes}")
    if sum(r.class_size for r in report.rows) != order:
        problems.append("class sizes do not add up to the group order")
    if sum(r.class_size * r.fiber_per_element for r in report.rows) != order * order:
        problems.append("fibers do not partition all pairs")
    if not 0 <= eps.epsilon <= 1:
        problems.append(f"epsilon {eps.epsilon} outside [0, 1]")
    if req.kind == "commutator" and eps.epsilon * eps.epsilon * q > 25:
        problems.append(f"commutator epsilon {eps.epsilon} exceeds 5/sqrt({q})")
    if req.kind == "xy_squared" and q % 2:
        p, n = inputs.prime_power(q)
        if set(image.omitted_traces) != oracles.xy_squared_omitted(q, p, n):
            problems.append(f"(xy)^2 omitted traces at q={q} are not the z with z+2 non-square")
    if psl is not None:
        half = order // 2
        if psl.order != half or sum(r.class_size * r.fiber_per_element for r in psl.rows) != half * half:
            problems.append("PSL fibers do not partition all pairs")
    return problems


def check_fibers_brute(syl: inputs.Syllables, report) -> list[str]:
    """Per-trace fiber totals and central fibers against all pairs of SL(2,p)."""
    p = report.q
    vals = oracles.brute_word_values(syl, p)
    traces = (vals[:, 0] + vals[:, 3]) % p
    problems = []
    for z in range(p):
        want = int((traces == z).sum())
        got = sum(r.class_size * r.fiber_per_element for r in report.rows if r.trace == z)
        if got != want:
            problems.append(f"q={p}: {got} pairs at trace {z}, brute force counts {want}")
    for sign in (1, p - 1):
        want = int(((vals[:, 0] == sign) & (vals[:, 1] == 0) & (vals[:, 2] == 0) & (vals[:, 3] == sign)).sum())
        rows = [r for r in report.rows if r.ctype == "central" and r.trace == 2 * sign % p]
        if len(rows) != 1 or rows[0].fiber_per_element != want:
            problems.append(f"q={p}: central fiber at {sign}I is not {want}")
    return problems


class LevelSets:
    """spectrum_probe then lang_weil_check off the flagged levels (criterion 10)."""

    name = "levelsets"
    block = len(inputs.LEVEL_QS) * len(inputs.LEVEL_SLOTS)
    rate = 12.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.pool = inputs.level_random_pool(seed)
        # Trace polynomials are inputs here, computed before any timing.
        self.polys = {
            syl: tracelab.trace_poly(Word.from_syllables(syl)).f
            for syl in self.pool + [inputs.COMMUTATOR, inputs.REMARK]
        }
        self.qs: Counter = Counter()
        self.degrees: Counter = Counter()
        self.requests = 0

    def setup(self) -> None:
        _clear_fields()
        for q in inputs.LEVEL_QS:
            tracelab.field(q)

    def stream(self) -> Iterator[tuple[inputs.WordAtQ, Any]]:
        for req in inputs.levelsets_stream(self.seed, self.pool):
            yield req, self.polys[req.syllables]

    def run(self, prepared) -> Any:
        req, f = prepared
        p, n = inputs.prime_power(req.q)
        fp = f.reduce_mod(p)
        probe = tracelab.spectrum_probe(fp, p, [n])
        return tracelab.lang_weil_check(fp, req.q, spectrum_exclusions=probe.flagged)

    def items(self, prepared, out) -> int:
        return 1

    def check(self, prepared, report, rng: random.Random) -> list[str]:
        req, f = prepared
        self.requests += 1
        self.qs[req.q] += 1
        self.degrees[f.total_degree()] += 1
        problems = []
        q = req.q
        if len(report.rows) + len(report.excluded) != q:
            problems.append(f"q={q}: levels reported and excluded do not cover F_q")
        if sum(r.count for r in report.rows) > q**3:
            problems.append(f"q={q}: level counts exceed q^3")
        if req.kind == "commutator" and (report.excluded or not report.all_pass):
            problems.append(f"q={q}: a commutator level failed or was excluded")
        return problems

    def finish(self) -> None:
        pass

    def final_checks(self) -> list[str]:
        """Remark word flags level 0 at p = 7; counts at q = 31 match brute force."""
        problems = []
        rem = self.polys[inputs.REMARK].reduce_mod(7)
        if 0 not in tracelab.spectrum_probe(rem, 7, [1, 2]).flagged:
            problems.append("remark word: level 0 not flagged at p = 7")
        q = inputs.LEVEL_CHECK_Q
        rng = random.Random(f"levelsets-brute-{self.seed}")
        for syl in (inputs.REMARK, rng.choice(self.pool)):
            fq = self.polys[syl].reduce_mod(q)
            got = tracelab.level_set_counts(fq, q)
            if list(got) != list(oracles.brute_level_counts(fq, q)):
                problems.append(f"level counts of {inputs.render(syl)} at q={q} disagree with brute force")
        return problems

    def properties(self) -> dict:
        return {
            "requests": self.requests,
            "q_values": sorted(self.qs),
            "degrees": dict(sorted(self.degrees.items())),
        }


WORKLOADS = {w.name: w for w in (Classify, Scan, Fibers, LevelSets)}
