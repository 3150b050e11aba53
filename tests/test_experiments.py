import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tracelab import decompose, experiments, gf, trace, words
from tracelab.decompose import (
    COMPOSITE_NOT_SPECIAL,
    NONCOMPOSITE_P,
    SPECIAL_P,
    classify_global,
)
from tracelab.experiments import (
    EXHAUSTIVE_SCAN_LIMIT,
    SAMPLED_SCAN_LIMIT,
    SAMPLED_SCAN_SAMPLES,
    genericity_csv,
    genericity_scan,
    measure_preserving_report,
    verify_theorem_p_equi,
)
from tracelab.trace import trace_poly
from tracelab.words import CONSTRAINTS, Word, parse

from _oracles import (
    canonical_strings,
    cycle_moves,
    cycle_word,
    scan_every_word,
    string_is_proper_power,
    symmetry_orbits,
    tri_eval_mod,
)


class TestTheoremRuns:
    def test_commutator_is_p_equidistributed(self):
        run = verify_theorem_p_equi(parse("xyXY"), 5, [5, 25])
        assert run.verdict.verdict == NONCOMPOSITE_P
        assert run.consistent
        assert all(e > 0 for e in run.epsilons)
        assert run.epsilons[-1] < run.epsilons[0]

    def test_square_word_omits_traces(self):
        run = verify_theorem_p_equi(parse("xyxy"), 3, [3, 9, 27])
        assert run.verdict.verdict == COMPOSITE_NOT_SPECIAL
        assert run.consistent
        d1 = run.verdict.witness.outer.degree
        assert d1 == 2
        for q, frac in zip(run.q_list, run.omitted_fractions):
            assert frac >= Fraction(q - 1, d1 * q) - Fraction(2, q)

    def test_cube_word_special_at_three(self):
        run = verify_theorem_p_equi(parse("xy") ** 3, 3, [3, 9])
        assert run.verdict.verdict == SPECIAL_P
        assert run.consistent
        assert run.epsilons[-1] <= run.epsilons[0]

    def test_rejects_mismatched_characteristic(self):
        with pytest.raises(ValueError):
            verify_theorem_p_equi(parse("xy"), 5, [5, 9])

    def test_rejects_oversized_field(self):
        with pytest.raises(ValueError):
            verify_theorem_p_equi(parse("xy"), 3, [3, 243])

    def test_csv_schema(self):
        run = verify_theorem_p_equi(parse("xy"), 5, [5])
        lines = run.to_csv().strip().splitlines()
        assert lines[0] == "word,p,q,verdict,epsilon,omitted_fraction,consistent"
        assert lines[1].startswith("xy,5,5,")
        assert lines[1].endswith(",true")


class TestMeasureSheets:
    def test_symbolic_row_above_threshold(self):
        q = 10**9 + 7
        ms = measure_preserving_report(parse("xyXY"), q)
        assert ms.theoretical_active
        assert ms.observed_epsilon is None
        assert ms.theoretical_epsilon == pytest.approx(3 * 8101 * q**-0.5)

    def test_small_q_row_is_informative_only(self):
        ms = measure_preserving_report(parse("xyXY"), 9)
        assert not ms.theoretical_active  # 9 < q0
        assert ms.observed_epsilon == Fraction(13, 36)
        assert ms.consistent is None
        assert "(not active at this q)" in ms.to_text()

    def test_uniform_word_observed_zero(self):
        ms = measure_preserving_report(parse("xy"), 7)
        assert ms.observed_epsilon == 0

    @pytest.mark.parametrize("q", [0, 1, 6, 1000, 10**18 + 7])
    def test_q_not_a_prime_power_is_refused_first(self, q, monkeypatch):
        monkeypatch.setattr(experiments, "trace_poly", None)  # no other work runs
        with pytest.raises(ValueError, match=f"not a prime power: {q}"):
            measure_preserving_report(parse("xy"), q)

    @pytest.mark.parametrize("q", [3**20, 10**9 + 7, 10**18 + 9, 2**61 - 1, 1009**6, 3**37])
    def test_large_prime_power_is_accepted_without_tables(self, q, monkeypatch):
        monkeypatch.setattr(gf, "GF", None)  # no field is built
        start = time.monotonic()
        ms = measure_preserving_report(parse("xy"), q)
        assert time.monotonic() - start < 0.5
        assert ms.theoretical_active and ms.observed_epsilon is None


@st.composite
def scan_words(draw):
    """Canonical words, among them proper powers, (0, 0) exponent sums and even complexities."""
    exps = st.integers(-3, 3).filter(bool)
    kind = draw(st.sampled_from(["plain", "power", "zero-sum"]))
    sylls = draw(st.lists(st.tuples(exps, exps), min_size=1, max_size=4 if kind == "plain" else 2))
    if kind == "power":
        sylls = sylls * draw(st.integers(2, 3))
    elif kind == "zero-sum":
        sylls = sylls + [(-a, -b) for a, b in sylls]
    return Word.from_syllables(sylls)


class TestGenericity:
    def test_exhaustive_counts_match_string_oracle(self):
        reports = genericity_scan(8, mode="exhaustive", certify=False)
        total = 0
        powers = 0
        by_n = {}
        for n in range(2, 9):
            strings = canonical_strings(n)
            total += len(strings)
            powers += sum(string_is_proper_power(t) for t in strings)
            by_n[n] = (total, powers)
        for rep in reports:
            assert (rep.total, rep.proper_powers) == by_n[rep.n]
            assert rep.mu_power == Fraction(rep.proper_powers, rep.total)

    def test_certified_column(self):
        reports = genericity_scan(6, mode="exhaustive", certify=True)
        last = reports[-1]
        assert last.total == 364
        assert last.proper_powers == 16
        # rational noncompositeness implies not a proper power
        assert last.certified + last.proper_powers <= last.total
        assert last.mu_certified == Fraction(last.certified, last.total)

    def test_scan_reads_no_syllables_and_keeps_canonical_words(self, monkeypatch):
        # a count guard, not a timer: each canonical word is classified as it is
        reads = []
        real_syllables = Word.syllables
        monkeypatch.setattr(Word, "syllables", property(lambda w: reads.append(w) or real_syllables.fget(w)))
        calls = []
        real_canonicalize = words.canonicalize

        def spy(w):
            out = real_canonicalize(w)
            calls.append(out[0] is w)
            return out

        for module in (words, decompose, trace):
            monkeypatch.setattr(module, "canonicalize", spy)
        reports = genericity_scan(5, mode="exhaustive", certify=True)
        assert reads == []
        assert reports[-1].total == 120
        assert len(calls) == len(symmetry_orbits(5)) == 13 and all(calls)

    def test_scan_builds_products_only_where_an_outer_degree_is_listed(self, monkeypatch):
        # a representative with gcd(gcd(A, B), r) = 1 is certified with no f_w; a
        # proper power has an outer degree, its index, and its root's product is built
        built = []
        real = trace._product
        monkeypatch.setattr(trace, "_product", lambda key: built.append(key) or real(key))
        genericity_scan(9)
        want = set()
        for w, _ in words._orbit_representatives(9, "any"):
            st_ = words.stats(w)
            if math.gcd(st_.A, st_.B, st_.r) >= 2:
                want.add(trace._canonical_cyclic(words.proper_power_root(w)[0].blocks))
        assert len(built) == len(set(built))
        assert set(built) == want

    @pytest.mark.parametrize("n_max, certify", [(10, True), (11, False)])
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_orbit_scan_equals_the_scan_of_every_word(self, n_max, certify, constraint):
        got = genericity_scan(n_max, constraint=constraint, certify=certify)
        assert got == scan_every_word(n_max, constraint, certify)

    @given(scan_words(), st.randoms(use_true_random=False))
    def test_every_move_keeps_f_and_every_verdict(self, w, rng):
        # the scan counts cannot catch a wrong symmetry, since at n <= 12 every
        # non-power is certified, so each move is checked on the word itself
        p = 10007
        f = dict(trace_poly(w).f.terms())
        expect = classify_global(w, 31)
        for name, cycle in cycle_moves(tuple(m for _, m in w.blocks)).items():
            v = cycle_word(cycle)
            g = dict(trace_poly(v).f.terms())
            for _ in range(3):
                s, u, t = (rng.randrange(p) for _ in range(3))
                point = {
                    "rotation": (t, u, s),
                    "x-flip": (s, s * t - u, t),
                    "y-flip": (s, s * t - u, t),
                }.get(name, (s, u, t))
                assert tri_eval_mod(g, p, s, u, t) == tri_eval_mod(f, p, *point), name
            got = classify_global(v, 31)
            assert got.rational_class == expect.rational_class, name
            assert [x.verdict for x in got.per_prime] == [x.verdict for x in expect.per_prime], name

    def test_power_words_never_certified(self):
        # certified words are exactly the rationally noncomposite ones, and
        # every proper power is rationally composite
        reports = genericity_scan(6, mode="exhaustive", certify=True)
        assert all(r.certified + r.proper_powers <= r.total for r in reports)

    def test_sampled_mode_reproducible(self):
        a = genericity_scan(8, mode="sampled", samples=200, seed=5, certify=False)
        b = genericity_scan(8, mode="sampled", samples=200, seed=5, certify=False)
        assert [(r.total, r.proper_powers) for r in a] == [
            (r.total, r.proper_powers) for r in b
        ]

    def test_sampled_tracks_exhaustive(self):
        ex = {r.n: r for r in genericity_scan(8, mode="exhaustive", certify=False)}
        sm = genericity_scan(8, mode="sampled", samples=400, seed=9, certify=False)
        for rep in sm:
            mu_true = float(ex[rep.n].mu_power)
            mu_obs = float(rep.mu_power)
            sigma = (mu_true * (1 - mu_true) / rep.total) ** 0.5
            assert abs(mu_obs - mu_true) <= max(3 * sigma, 0.02)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sampled_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            genericity_scan(4, mode="sampled", samples=samples)

    def test_unknown_constraint_rejected(self):
        for mode in ("exhaustive", "sampled"):
            with pytest.raises(ValueError, match="unknown constraint 'bogus'"):
                genericity_scan(5, mode=mode, constraint="bogus", certify=False)

    def test_exhaustive_cap(self):
        assert EXHAUSTIVE_SCAN_LIMIT == 14
        with pytest.raises(ValueError):
            genericity_scan(15, mode="exhaustive")

    @pytest.mark.parametrize(
        "n_max, samples, message",
        [
            (SAMPLED_SCAN_LIMIT + 1, 1, "capped at n_max = 32"),
            (200, 1, "capped at n_max = 32"),
            (2, SAMPLED_SCAN_SAMPLES + 1, "capped at samples = 5000"),
            (2, 10**9, "capped at samples = 5000"),
        ],
    )
    def test_sampled_caps(self, n_max, samples, message):
        start = time.monotonic()
        with pytest.raises(ValueError, match=message):
            genericity_scan(n_max, mode="sampled", samples=samples)
        assert time.monotonic() - start <= 1

    def test_sampled_caps_are_accepted(self):
        top = genericity_scan(SAMPLED_SCAN_LIMIT, mode="sampled", samples=1, certify=False)
        assert [r.n for r in top] == list(range(2, SAMPLED_SCAN_LIMIT + 1))
        (widest,) = genericity_scan(2, mode="sampled", samples=SAMPLED_SCAN_SAMPLES, certify=False)
        assert widest.total == SAMPLED_SCAN_SAMPLES

    def test_csv_schema(self):
        reports = genericity_scan(4, mode="exhaustive", certify=False)
        lines = genericity_csv(reports).strip().splitlines()
        assert lines[0] == "n,total,proper_powers,certified,mu_power,mu_certified"
        assert len(lines) == len(reports) + 1
