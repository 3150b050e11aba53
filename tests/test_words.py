import dataclasses
import math
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tracelab.words import (
    CONSTRAINTS,
    DegenerateWordError,
    Word,
    WordSyntaxError,
    _candidate_cells,
    _orbit_representatives,
    canonicalize,
    enumerate_words,
    parse,
    proper_power_root,
    sample_words,
    stats,
)

from _oracles import (
    alternating_block_words,
    canonical_strings,
    enumerated_by_syllables,
    sampled_by_syllables,
    string_is_proper_power,
    syllable_stats,
    symmetry_orbits,
)

# letter strategy for random words, possibly unreduced
letters = st.text(alphabet="xXyY", min_size=0, max_size=14)


def syllable_words(max_r=4, lo=-4, hi=4):
    exps = st.integers(lo, hi).filter(lambda n: n != 0)
    return st.lists(st.tuples(exps, exps), min_size=1, max_size=max_r).map(
        Word.from_syllables
    )


class TestParseRender:
    def test_parse_blocks(self):
        w = parse("xxyXY")
        assert w.blocks == ((0, 2), (1, 1), (0, -1), (1, -1))
        assert w.length == 5
        assert w.render() == "x^2yx^-1y^-1"

    def test_parse_empty_is_identity(self):
        assert parse("").is_empty
        assert parse("xX").is_empty
        assert parse("x y").blocks == parse("xy").blocks  # whitespace skipped

    def test_parse_free_reduction(self):
        assert parse("xyY") == parse("x")
        assert parse("xYyX").is_empty

    def test_invalid_characters(self):
        for bad in ("xz", "x2", "abc"):
            with pytest.raises(WordSyntaxError):
                parse(bad)

    @pytest.mark.parametrize(
        "bad", ["x^\u00b2", "x^\u0663y", "x^-\u0663", "x^" + "1" * 5000 + "y"],
        ids=["superscript-two", "arabic-indic-three", "negative-arabic-indic-three", "5000-digits"],
    )
    def test_exponent_of_non_ascii_or_too_many_digits(self, bad):
        with pytest.raises(WordSyntaxError):
            parse(bad)

    @given(syllable_words())
    def test_syllable_round_trip(self, w):
        assert Word.from_syllables(w.syllables) == w


class TestGroupOps:
    @given(letters)
    def test_inverse_cancels(self, text):
        w = parse(text)
        assert (w * w.inverse()).is_empty
        assert (w.inverse() * w).is_empty

    @given(letters, st.integers(-3, 3))
    def test_pow_matches_repeated_product(self, text, k):
        w = parse(text)
        prod = parse("")
        base = w if k >= 0 else w.inverse()
        for _ in range(abs(k)):
            prod = prod * base
        assert w**k == prod

    def test_pow_negative(self):
        assert (parse("xy") ** -2) == parse("YXYX")


class TestCanonicalize:
    def test_cyclic_reduction(self):
        c, rec = canonicalize(parse("Yxy"))
        assert c == parse("x")
        assert rec.degenerate

    @given(letters.filter(lambda t: not parse(t).is_empty))
    def test_recomposition(self, text):
        w = parse(text)
        c, rec = canonicalize(w)
        assert rec.conjugator * c * rec.conjugator.inverse() == w

    def test_long_conjugate_within_budget(self):
        # (xy)^8000 x^2 (YX)^8000: 32 001 blocks, 16 000 merges, linear in the blocks
        w = parse("xy" * 8000 + "xx" + "YX" * 8000)
        assert len(w.blocks) == 32001
        t0 = time.monotonic()
        c, rec = canonicalize(w)
        elapsed = time.monotonic() - t0
        assert elapsed <= 0.25, f"budget exceeded: {elapsed:.2f}s > 0.25s"
        assert c == parse("xx") and rec.degenerate
        assert rec.conjugator == parse("xy" * 8000)
        assert rec.conjugator * c * rec.conjugator.inverse() == w

    def test_empty_word_rejected(self):
        with pytest.raises(DegenerateWordError):
            canonicalize(parse("yY"))

    @given(syllable_words())
    def test_canonical_words_are_fixed_points(self, w):
        c, rec = canonicalize(w)
        assert c is w  # returned as it is, not rebuilt
        assert rec.conjugator.is_empty
        assert not rec.degenerate

    def test_degenerate_flag_for_single_generator(self):
        c, rec = canonicalize(parse("xxx"))
        assert rec.degenerate
        c, rec = canonicalize(parse("yXY"))  # conjugate of x
        assert rec.degenerate


class TestComplexity:
    @pytest.mark.parametrize("text", ["x^3", "yx", ""])
    def test_non_canonical_word_raises_the_syllables_message(self, text):
        w = parse(text)
        with pytest.raises(DegenerateWordError) as err:
            w.complexity
        assert str(err.value) == f"word {w!r} is not in canonical form"
        with pytest.raises(DegenerateWordError) as from_syllables:
            w.syllables
        assert str(from_syllables.value) == str(err.value)


class TestStats:
    def test_commutator(self):
        st_ = stats(parse("xyXY"))
        assert (st_.r, st_.A, st_.B, st_.Abar, st_.Bbar) == (2, 0, 0, 2, 2)
        assert st_.length == 4

    def test_requires_canonical(self):
        with pytest.raises(DegenerateWordError):
            stats(parse("yx"))

    @given(syllable_words())
    def test_stats_match_syllables(self, w):
        assert dataclasses.astuple(stats(w)) == syllable_stats(w)

    @staticmethod
    def _agrees_with_the_syllable_oracle(w):
        if w.is_canonical:
            return dataclasses.astuple(stats(w)) == syllable_stats(w)
        for read in (stats, syllable_stats):
            with pytest.raises(DegenerateWordError):
                read(w)
        return True

    @given(letters)
    def test_matches_the_syllable_oracle_on_any_word(self, text):
        assert self._agrees_with_the_syllable_oracle(parse(text))

    def test_matches_the_syllable_oracle_on_every_small_word(self):
        # every reduced word of at most 10 blocks of +-1, and of at most 6 of +-1, +-2
        words = alternating_block_words(10, (1, -1)) + alternating_block_words(6, (1, -1, 2, -2))
        assert sum(Word(blocks).is_canonical for blocks in words) > 2000
        for blocks in words:
            assert self._agrees_with_the_syllable_oracle(Word(blocks)), blocks


class TestProperPowers:
    def test_examples(self):
        assert proper_power_root(parse("xyxy")) == (parse("xy"), 2)
        assert proper_power_root(parse("xxy")) == (parse("xxy"), 1)

    @given(syllable_words(max_r=3), st.integers(2, 4))
    def test_power_detected(self, v, k):
        root, mult = proper_power_root(v**k)
        assert mult % k == 0
        assert root**mult == v**k

    def test_matches_string_oracle(self):
        for n in range(2, 9):
            for text in canonical_strings(n):
                w = parse(text)
                _, mult = proper_power_root(w)
                assert (mult > 1) == string_is_proper_power(text), text


class TestEnumerate:
    def test_counts_match_string_oracle(self):
        # enumerate_words yields all canonical words of length 2..n
        for n in range(2, 7):
            got = {w.render() for w in enumerate_words(n)}
            expect = {
                parse(t).render() for m in range(2, n + 1) for t in canonical_strings(m)
            }
            assert got == expect

    def test_words_equal_the_syllable_construction(self):
        # built from their blocks, the words are those Word.from_syllables built, in order
        words = list(enumerate_words(9))
        assert len(words) > 9000
        assert words == enumerated_by_syllables(9)
        assert list(sample_words(9, 500, seed=3)) == sampled_by_syllables(9, 500, 3)

    def test_prime_complexity_filter(self):
        for w in enumerate_words(6, constraint="prime-complexity"):
            r = stats(w).r
            assert r in (2, 3)  # primes reachable at length <= 6

    def test_unknown_constraint_rejected(self):
        with pytest.raises(ValueError, match="unknown constraint"):
            enumerate_words(5, constraint="bogus")
        with pytest.raises(ValueError, match="unknown constraint"):
            sample_words(5, 1, constraint="bogus")

    def test_empty_candidate_set_rejected(self):
        # complexity 1 is the only one up to length 3, and it is not prime
        with pytest.raises(ValueError, match="no 'prime-complexity' candidate words"):
            sample_words(3, 1, constraint="prime-complexity")

    def test_sampler_reproducible(self):
        a = [str(w) for w in sample_words(12, 20, seed=7)]
        b = [str(w) for w in sample_words(12, 20, seed=7)]
        assert a == b
        c = [str(w) for w in sample_words(12, 20, seed=8)]
        assert a != c

    def test_sampler_constraint(self):
        def isprime(n):
            return n >= 2 and all(n % d for d in range(2, n))

        for w in sample_words(12, 40, seed=1, constraint="prime-complexity"):
            assert isprime(stats(w).r)

    def test_sampler_lengths(self):
        assert all(w.length <= 9 for w in sample_words(9, 50, seed=2))


class TestOrbitRepresentatives:
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_weights_sum_to_every_cell(self, constraint):
        weights = Counter()
        for w, weight in _orbit_representatives(14, constraint):
            weights[w.length, w.complexity] += weight
        cells = _candidate_cells(14, constraint)
        assert weights == {(n, r): math.comb(n - 1, 2 * r - 1) * 4**r for n, r, _ in cells}

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_one_representative_per_orbit(self, constraint):
        orbits = symmetry_orbits(9, constraint)
        orbit_of = {cycle: i for i, orbit in enumerate(orbits) for cycle in orbit}
        reps = list(_orbit_representatives(9, constraint))
        assert all(w.is_canonical for w, _ in reps)
        hit = [orbit_of[tuple(m for _, m in w.blocks)] for w, _ in reps]
        assert sorted(hit) == list(range(len(orbits)))  # every orbit once, none twice
        assert [weight for _, weight in reps] == [len(orbits[i]) for i in hit]
