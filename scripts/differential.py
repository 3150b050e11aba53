"""Print one sha256 per output section of tracelab, for differential runs.

A refactor that claims unchanged outputs runs this script on the parent
checkout and on the change and compares the two listings line by line:

    python3 scripts/differential.py            # this checkout
    python3 scripts/differential.py ../parent  # tracelab from ../parent/src

The request streams come from this checkout's ``perfbench/inputs.py``, so
both runs see the same inputs whatever the other checkout holds.  Only
functions present since the ``engine=`` cleanup are called, so the script
also runs against checkouts that predate it.

Sections, each hashed separately:

- classify-<seed>: ``cli._global_dict(classify_global(w, 13))`` and
  ``trace_poly(w).f`` over the first 500 classify-stream requests, plus
  ``trace_poly`` on a fresh engine, traced and then read from its memo;
- scan-<constraint>: the exhaustive n = 7 scan under each constraint, and
  sampled n = 8 scans (200 samples, seed 5);
- fibers-<seed>: SL and PSL CSVs, epsilon JSON and ``ImageReport`` over
  the first 35 fibers-stream requests;
- fibers-large-q: the same four outputs for xyXY, xyxy, x^4yX^2Yx^2yX^2Y
  and xxyXYYxyXy at q in {49, 64, 81}, past the fibers stream's q <= 32;
- fibers-long: SL and PSL CSVs and ``ImageReport`` for (xy)^17, x^17y^16,
  a 33-letter word and x^1000000y^-999999 at q in {7, 16, 27}, all longer
  than 32 letters after exponent reduction (epsilon is left out: it traces
  the word as written);
- levelsets-<seed>: ``SpectrumProbe`` and ``LangWeilReport`` reprs over the
  first 36 levelsets-stream requests;
- pi-fibers: ``pi_fiber_table(q)`` and ``sorted(delta_locus(q))`` for q in
  {2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81};
- power-words: ``power_word_report`` over every canonical word of length
  <= 6 and its square and cube;
- syllables: ``syllable_polys(a, b)`` for 1 <= |a|, |b| <= 4;
- decompose: ``dickson_decompose`` and ``decompose_in_u`` on D_n(Q), on a
  general h(Q) and on perturbations of both, for six inners Q, over QQ and
  F_p for p in {3, 5, 7, 11, 13}, at n in {2, 3, 4, 6} (the classify
  stream seldom reaches the general path with n >= 3);
- theorem / measure: ``TheoremRun.to_csv`` and ``MeasureSheet.to_text`` for
  xyXY and xyxy at p = 3, q in {3, 9} and p = 5, q in {5, 25};
- verify: ``tracelab verify --suite all``;
- cli: exit code, stdout and stderr of ``cli.main`` with ``TRACELAB_CACHE``
  unset: ``trace`` and ``trace --json`` on eight words (the empty word and
  pure powers among them), ``classify --json``, ``fibers --psl``, PSL
  ``epsilon --q-list`` and four refused inputs;
- level-counts: raw ``level_set_counts`` arrays, over F_p, of polynomials
  under each case of the sign rules (both, one, neither, a constant) and of
  f_w for three words, at q in {2, 3, 4, 8, 9, 16, 25, 27, 49, 64, 81,
  101, 121, 125, 128};
- fibers-orbits: SL and PSL CSVs, epsilon JSON and ``ImageReport`` for
  xyXY, xxy, xyy and xyxy, whose exponent sums take each pair of
  parities, at q in {121, 125, 127, 128}, where fiber reports are read off
  sign and Frobenius orbit representatives;
- classify-memo: ``classify_global``, ``classify_rational``, ``classify_p``
  for every p <= 13 and ``power_word_report`` on every rotation of the
  letters of 40 words and of their inverses, all on one engine (swapped
  in as the default for the section), with a ``trace_poly`` call on it
  between them; the words are powers, squares of words with exponent sums
  (0, 0), and words with p | r for every p <= 13;
- power-verdicts: ``classify_rational`` and ``classify_p`` for every p <= 13
  on one engine (swapped in as the default for the section), over powers
  v^k with k in {4, 5, 6}, cubes of roots with exponent sums (0, 0), and
  powers whose f_w lists an outer above k, such as D_4 for
  (x^2y^2x^2y^-2)^2, which a noncomposite root rules out, so that D_2 is
  read off the root;
- classify-p31: ``cli._global_dict(classify_global(w, 31))`` over the
  first 300 seed-1 classify-stream requests on one engine, which reaches
  more primes, more p | r cases and more tame divisors than p_max = 13;
- decompose-units: ``dickson_decompose`` and ``decompose_in_u`` on D_d(c Q)
  for three inners Q with monic top u-block and every lead c other than
  +-1, at p in {13, 17} and d in {4, 6, 8}, where gcd(d, p - 1) >= 4
  leaves d-th roots of unity other than +-1, so the sign of the inner
  depends on which scaling is picked.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
PI_FIBER_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81)
LARGE_FIBER_WORDS = ("xyXY", "xyxy", "x^4yX^2Yx^2yX^2Y", "xxyXYYxyXy")
LARGE_FIBER_QS = (49, 64, 81)
LONG_FIBER_WORDS = (
    "xy" * 17,
    "x^17y^16",
    "x^-1yx^2yx^-2y^-2x^2y^-1x^-1yx^-1y^-2x^-1yx^2yxy^-2xyx^-2y^-2x^-1y",
    "x^1000000y^-999999",
)
LONG_FIBER_QS = (7, 16, 27)
MEMO_WORDS = (
    # proper powers
    "xyxy", "xyxyxy", "xy" * 5, "xy" * 7, "xy" * 11, "xy" * 13, "xxyxxy", "xyyxyy",
    "xYxYxY", "xxYxxYxxYxxY", "x^2y^2x^2y^2", "xxyXYxxyXY", "xyxYxyxY", "x^3y^-2x^3y^-2",
    # squares of words with exponent sums (0, 0)
    "xyXYxyXY", "xxyXXYxxyXXY", "xyyXYYxyyXYY", "xyyxYXXYxyyxYXXY",
    "x^2yx^-1y^-2x^-1yx^2yx^-1y^-2x^-1y",
    # aperiodic, with r = 2, 3, 4, 5, 6, 7, 10, 11 and 13 syllables
    "xyxY", "xxyyxxYY", "x^3yx^-1y^3", "xyxyxY", "x^2y^2x^2y^2x^2y^4", "xyXYxY",
    "xyxyxyxY", "xyxyxyxyxY", "x^2yxyxyxyx^-1y^2", "xyxYxyXYxy^2x^2y",
    "xyxyxyxyxyxY", "xyxyxyxyxyxyxY", "xy" * 9 + "xY", "xy" * 10 + "xY",
    "xy" * 12 + "xY", "xyXYxyXyxYXyxyXYxyXYxyXYxY",
    # one syllable, and family words x^a y^b x^c y^d
    "xy", "x^3y^2", "x^2yx^2Y", "x^3y^-3x^-3y^3", "x^2y^3x^-2y^3",
)
POWER_VERDICT_WORDS = (
    # k = 4, 5 and 6
    *(root * k for root in ("xy", "x^2y", "xY", "xyxY", "x^2y^-1") for k in (4, 5, 6)),
    # cubes of roots with exponent sums (0, 0)
    *(root * 3 for root in ("xyXY", "xxyXXY", "xyyXYY", "xYXy", "x^2yx^-1y^-2x^-1y")),
    # f_w lists an outer above k: D_4 at k = 2, D_6 at k = 3, D_6 and D_3 at k = 2
    "x^2y^2x^2y^-2" * 2, "x^2y^2x^2y^-2" * 3, "x^2y^4x^2y^2" * 2, "x^3y^3x^3y^3x^3y^-3" * 2,
)
ORBIT_FIBER_WORDS = ("xyXY", "xxy", "xyy", "xyxy")
ORBIT_FIBER_QS = (121, 125, 127, 128)
DECOMPOSE_PRIMES = (None, 3, 5, 7, 11, 13)
DECOMPOSE_NS = (2, 3, 4, 6)
UNIT_PRIMES = (13, 17)
UNIT_NS = (4, 6, 8)
LEVEL_COUNT_WORDS = ("xyXY", "xyXYxy", "xxxxyXXYxxyXXY")
LEVEL_COUNT_QS = (2, 3, 4, 8, 9, 16, 25, 27, 49, 64, 81, 101, 121, 125, 128)
CLI_TRACE_WORDS = ("xyXY", "x^3", "", "Yx", "XXX", "xxyXYYxyXy", "yx^2", "x^4000y")
CLI_RUNS = (
    *(["trace", text, *flags] for text in CLI_TRACE_WORDS for flags in ([], ["--json"])),
    ["classify", "xyxy", "--json"],
    ["classify", "x^2", "--json"],
    ["fibers", "xyXY", "--q", "7", "--psl"],
    ["epsilon", "xyXY", "--q-list", "5,7,9", "--psl", "--json"],
    # refused inputs: exit 2 and a message on stderr
    ["trace", "x^0"],
    ["fibers", "xy", "--q", "131"],
    ["classify", "xy", "--p-max", "1"],
    ["epsilon", "xy", "--q-list", ","],
)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(str(line).encode())
        h.update(b"\n")
    return h.hexdigest()


def _classify(tl, inputs, seed):
    from tracelab import cli

    engine = tl.TraceEngine()
    for req in itertools.islice(inputs.classify_stream(seed), 500):
        w = tl.Word.from_syllables(req.syllables)
        verdict = tl.classify_global(w, 13, engine=engine)
        yield json.dumps(cli._global_dict(verdict), sort_keys=True)
        yield tl.trace_poly(w).f.render()
        fresh = tl.TraceEngine()
        result = tl.trace_poly(w, engine=fresh)
        yield result.word, result.f.render(), result.u_degree
        yield tl.trace_poly(w, engine=fresh).f.render()


def _scans(tl):
    for constraint in ("any", "prime-complexity"):
        yield f"scan-{constraint}", tl.genericity_csv(
            tl.genericity_scan(7, constraint=constraint)
        )
        sampled = tl.genericity_scan(
            8, mode="sampled", samples=200, seed=5, constraint=constraint
        )
        yield f"scan-sampled-{constraint}", tl.genericity_csv(sampled)


def _fiber_outputs(tl, w, q, epsilon=True):
    report = tl.fiber_distribution(w, q)
    yield report.to_csv()
    if q % 2:
        yield tl.psl_fiber_distribution(w, q, sl_report=report).to_csv()
    if epsilon:
        yield json.dumps(tl.equidist_epsilon(report).to_json_dict(), sort_keys=True)
    yield repr(tl.image_analysis(w, q, sl_report=report))


def _fibers(tl, inputs, seed):
    for req in itertools.islice(inputs.fibers_stream(seed), 35):
        yield from _fiber_outputs(tl, tl.Word.from_syllables(req.syllables), req.q)


def _fibers_large_q(tl):
    for text, q in itertools.product(LARGE_FIBER_WORDS, LARGE_FIBER_QS):
        yield from _fiber_outputs(tl, tl.parse(text), q)


def _fibers_long(tl):
    for text, q in itertools.product(LONG_FIBER_WORDS, LONG_FIBER_QS):
        yield from _fiber_outputs(tl, tl.parse(text), q, epsilon=False)


def _fibers_orbits(tl):
    for text, q in itertools.product(ORBIT_FIBER_WORDS, ORBIT_FIBER_QS):
        yield from _fiber_outputs(tl, tl.parse(text), q)


def _levelsets(tl, inputs, seed):
    pool = inputs.level_random_pool(seed)
    for req in itertools.islice(inputs.levelsets_stream(seed, pool), 36):
        p, n = inputs.prime_power(req.q)
        fp = tl.trace_poly(tl.Word.from_syllables(req.syllables)).f.reduce_mod(p)
        probe = tl.spectrum_probe(fp, p, [n])
        yield repr(probe)
        yield repr(tl.lang_weil_check(fp, req.q, spectrum_exclusions=probe.flagged))


def _pi_fibers(tl):
    for q in PI_FIBER_QS:
        yield q, tl.pi_fiber_table(q).tolist()
        yield q, sorted(tl.delta_locus(q))


def _power_words(tl):
    for w in tl.enumerate_words(6):
        for k in (1, 2, 3):
            yield repr(tl.power_word_report(w**k))


def _syllables(tl):
    exps = [e for e in range(-4, 5) if e]
    for a, b in itertools.product(exps, exps):
        pair = tl.syllable_polys(a, b)
        yield a, b, pair.g.render(), pair.h.render()


def _decompose_outcome(tl, fn, f, n):
    try:
        got = fn(f, n)
    except ValueError as exc:  # a wild n, p | n
        return type(exc).__name__
    if got is None:
        return None
    if isinstance(got, tl.TriPoly):
        return got.render()
    return got.outer.render(), got.inner.render(), got.dickson_index


def _decompose_inners(tl):
    s, u, t = (tl.TriPoly.var(name) for name in "sut")
    two = tl.TriPoly.const(2)
    return (u, u + s, s * u - t, u**2 + s * t * u - t, s * u**2 + t * u - two, u**3 - s * u + t)


def _decompose(tl):
    for p, n, q in itertools.product(DECOMPOSE_PRIMES, DECOMPOSE_NS, _decompose_inners(tl)):
        text = q.render()
        if p is not None:
            q = q.reduce_mod(p)
        s, t, u = (tl.TriPoly.var(name, p) for name in "stu")
        # h(Q) for h = 2z^n - z^(n-1) + z + 5: non-monic, with a z^(n-1) term
        general = (q**n).scale(2) - q ** (n - 1) + q + tl.TriPoly.const(5, p)
        r = n * q.deg("u")
        for target in (tl.dickson_apply(n, q), general):
            for f in (target, target + s, target + t * u ** (r - 1)):
                yield p, n, text, _decompose_outcome(tl, tl.dickson_decompose, f, n)
                yield p, n, text, _decompose_outcome(tl, tl.decompose_in_u, f, n)


def _decompose_units(tl):
    for p, n in itertools.product(UNIT_PRIMES, UNIT_NS):
        for q in _decompose_inners(tl)[1:4]:
            q = q.reduce_mod(p)
            for c in range(2, p - 1):
                f = tl.dickson_apply(n, q.scale(c))
                yield p, n, c, q.render(), _decompose_outcome(tl, tl.dickson_decompose, f, n)
                yield p, n, c, q.render(), _decompose_outcome(tl, tl.decompose_in_u, f, n)


def _theorem_and_measure(tl):
    runs, sheets = [], []
    for text in ("xyXY", "xyxy"):
        w = tl.parse(text)
        for p, qs in ((3, (3, 9)), (5, (5, 25))):
            runs.append(tl.verify_theorem_p_equi(w, p, qs).to_csv())
            sheets.extend(tl.measure_preserving_report(w, q).to_text() for q in qs)
    return runs, sheets


def _verify(tl):
    from tracelab import cli

    out = io.StringIO()
    code = cli.main(["verify", "--suite", "all"], out=out)
    return [out.getvalue(), code]


def _cli():
    from tracelab import cli

    saved = os.environ.pop("TRACELAB_CACHE", None)
    try:
        for argv in CLI_RUNS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv, out=out)
            yield argv, code, out.getvalue(), err.getvalue()
    finally:
        if saved is not None:
            os.environ["TRACELAB_CACHE"] = saved


def _level_count_polys(tl):
    """One polynomial for each case of the sign rules: both, one, neither, a constant."""
    s, u, t = (tl.TriPoly.var(name) for name in "sut")
    return [
        u**3 + s * t + s**2 * u - (u * t**2).scale(2) + u.scale(5),
        s + u * t**2 + (u**3 * t).scale(3) + s**2 * u,
        u**3 + s * t + s * u**2 * t + t**3,
        s + u * t,
        s + t + u * t,
        s**2 + u,
        s**2 + u**2 * t + u,
        tl.TriPoly.const(3),
    ]


def _level_counts(tl, inputs):
    polys = _level_count_polys(tl)
    polys += [tl.trace_poly(tl.parse(text)).f for text in LEVEL_COUNT_WORDS]
    for q, f in itertools.product(LEVEL_COUNT_QS, polys):
        fp = f.reduce_mod(inputs.prime_power(q)[0])
        yield q, f.render(), tl.level_set_counts(fp, q).tolist()


def _rotations(tl, w):
    """Every rotation of w's letters and of its inverse's letters."""
    letters = [(g, 1 if e > 0 else -1) for g, e in w.blocks for _ in range(abs(e))]
    for seq in (letters, [(g, -e) for g, e in reversed(letters)]):
        for i in range(len(seq)):
            yield tl.Word.from_blocks(seq[i:] + seq[:i])


def _classify_memo(tl):
    from tracelab import cli

    saved = tl.trace._DEFAULT_ENGINE
    engine = tl.trace._DEFAULT_ENGINE = tl.TraceEngine()
    try:
        for text in MEMO_WORDS:
            for w in _rotations(tl, tl.parse(text)):
                yield json.dumps(cli._global_dict(tl.classify_global(w, 13)), sort_keys=True)
                result = tl.trace_poly(w, engine=engine)
                yield result.word, result.f.render()
                yield repr(tl.classify_rational(w, engine=engine))
                for p in (2, 3, 5, 7, 11, 13):
                    yield repr(tl.classify_p(w, p))
                yield repr(tl.power_word_report(w))
    finally:
        tl.trace._DEFAULT_ENGINE = saved


def _power_verdicts(tl):
    saved = tl.trace._DEFAULT_ENGINE
    tl.trace._DEFAULT_ENGINE = tl.TraceEngine()
    try:
        for text in POWER_VERDICT_WORDS:
            w = tl.parse(text)
            yield repr(tl.classify_rational(w))
            for p in (2, 3, 5, 7, 11, 13):
                yield repr(tl.classify_p(w, p))
    finally:
        tl.trace._DEFAULT_ENGINE = saved


def _classify_p31(tl, inputs):
    from tracelab import cli

    engine = tl.TraceEngine()
    for req in itertools.islice(inputs.classify_stream(1), 300):
        verdict = tl.classify_global(tl.Word.from_syllables(req.syllables), 31, engine=engine)
        yield json.dumps(cli._global_dict(verdict), sort_keys=True)


def sections(tl, inputs):
    """(name, lines) for every section, in a fixed order."""
    for seed in SEEDS:
        yield f"classify-{seed}", _classify(tl, inputs, seed)
    for name, text in _scans(tl):
        yield name, [text]
    for seed in SEEDS:
        yield f"fibers-{seed}", _fibers(tl, inputs, seed)
    yield "fibers-large-q", _fibers_large_q(tl)
    yield "fibers-long", _fibers_long(tl)
    for seed in SEEDS:
        yield f"levelsets-{seed}", _levelsets(tl, inputs, seed)
    yield "pi-fibers", _pi_fibers(tl)
    yield "power-words", _power_words(tl)
    yield "syllables", _syllables(tl)
    yield "decompose", _decompose(tl)
    runs, sheets = _theorem_and_measure(tl)
    yield "theorem", runs
    yield "measure", sheets
    yield "verify", _verify(tl)
    yield "cli", _cli()
    yield "level-counts", _level_counts(tl, inputs)
    yield "fibers-orbits", _fibers_orbits(tl)
    yield "classify-memo", _classify_memo(tl)
    yield "power-verdicts", _power_verdicts(tl)
    yield "classify-p31", _classify_p31(tl, inputs)
    yield "decompose-units", _decompose_units(tl)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "root", nargs="?", default=str(HERE), help="checkout whose src/ is imported"
    )
    args = parser.parse_args(argv)
    src = Path(args.root).resolve() / "src"
    sys.path[:0] = [str(src), str(HERE / "perfbench")]
    import inputs
    import tracelab

    if Path(tracelab.__file__).resolve().parent != src / "tracelab":
        sys.exit(f"imported tracelab from {tracelab.__file__}, not {src}")
    start = time.perf_counter()
    for name, lines in sections(tracelab, inputs):
        print(f"{_digest(lines)}  {name}", flush=True)
    print(f"# {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
