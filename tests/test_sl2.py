import copy
import random
import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tracelab import probes, sl2
from tracelab.gf import field
from tracelab.sl2 import (
    MAX_FIBER_Q,
    build_class_table,
    delta_locus,
    equidist_epsilon,
    fiber_distribution,
    fraction_le_inv_sqrt,
    image_analysis,
    lang_weil_check,
    pi_fiber_table,
    psl_fiber_distribution,
    spectrum_probe,
)
from tracelab.trace import trace_poly
from tracelab.tripoly import TriPoly
from tracelab.words import Word, parse

from _oracles import (
    NIELSEN_MOVES,
    apply_move,
    brute_conjugacy_orbits,
    brute_pi_table,
    brute_psl_fibers,
    brute_sl_fibers,
    class_index,
    direct_fiber_totals,
    enumerate_group,
    epsilon_feasible,
    group_elements,
    group_pi_table,
    kappa_zero,
    mat_inv,
    mat_mul,
    mat_neg,
    prime_powers,
    trace_xy,
    word_eval_string,
    word_value,
)


class TestEnumerateGroup:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
    def test_count_and_determinants(self, q):
        F = field(q)
        a, b, c, d = enumerate_group(F)
        assert len(a) == q**3 - q
        mats = set(zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()))
        assert len(mats) == q**3 - q  # no duplicates
        for ma, mb, mc, md in list(mats)[:200]:
            det = F.add(F.mul(ma, md), F.neg(F.mul(mb, mc)))
            assert det == F.one

    @pytest.mark.parametrize("q", [2, 4, 5, 9])
    def test_order(self, q):
        # ascending a, then b, then the free coordinate (d when a = 0, else c)
        a, b, c, d = (v.tolist() for v in enumerate_group(field(q)))
        keys = [(ai, bi, di if ai == 0 else ci) for ai, bi, ci, di in zip(a, b, c, d)]
        assert all(k0 < k1 for k0, k1 in zip(keys, keys[1:]))


class TestWordValue:
    def test_hand_product(self):
        F = field(3)
        X = (1, 1, 0, 1)
        Y = (0, 2, 1, 1)
        # x^2 y = [[1,2],[0,1]] * [[0,2],[1,1]] = [[2,4],[1,1]] mod 3
        got = word_value(parse("xxy"), X, Y, F)
        assert got == (2, 1, 1, 1)

    def test_identity_word(self):
        F = field(5)
        X = (1, 1, 0, 1)
        Y = (2, 0, 0, 3)
        assert word_value(parse(""), X, Y, F) == (1, 0, 0, 1)

    def test_inverse_letters(self):
        F = field(7)
        X = (2, 3, 3, 2)  # det = 4 - 9 = -5 = 2... pick a real SL element below
        X = (1, 2, 0, 1)
        Y = (1, 0, 3, 1)
        assert word_value(parse("xX"), X, Y, F) == (1, 0, 0, 1)
        assert word_value(parse("yY"), X, Y, F) == (1, 0, 0, 1)

    @pytest.mark.parametrize("q", [4, 7, 9])
    def test_negative_and_repeated_blocks_match_oracle(self, q):
        F, mats = group_elements(q)
        pairs = [(mats[i], mats[(7 * i + 3) % len(mats)]) for i in range(0, len(mats), 17)]
        for text in ("XXXyyXXXyy", "xxYXXXyy", "xYxYxY", "yyyXX"):
            w = parse(text)
            for X, Y in pairs:
                assert word_value(w, X, Y, F) == word_eval_string(F, text, X, Y)

    def test_rejects_non_unimodular(self):
        F = field(5)
        with pytest.raises(ValueError):
            word_value(parse("xy"), (2, 0, 0, 1), (1, 0, 0, 1), F)

    @pytest.mark.parametrize("q", [2, 7, 9])
    def test_matrix_powers_match_repeated_products(self, q):
        F, mats = group_elements(q)
        for M in mats[:: len(mats) // 5]:
            for sign, base in ((1, M), (-1, mat_inv(F, M))):
                acc = (1, 0, 0, 1)
                for e in range(41):
                    assert tuple(int(v) for v in sl2._mat_pow(F, M, sign * e)) == acc
                    acc = mat_mul(F, acc, base)


class TestClassTable:
    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
    def test_odd_q_census(self, q):
        table = build_class_table(q)
        by_type = Counter(c.ctype for c in table.classes)
        assert by_type["central"] == 2
        assert by_type["unipotent-split-1"] == 2
        assert by_type["unipotent-split-2"] == 2
        assert by_type["semisimple-split"] + by_type["semisimple-nonsplit"] == q - 2
        assert sum(c.size for c in table.classes) == q**3 - q

    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_even_q_census(self, q):
        table = build_class_table(q)
        by_type = Counter(c.ctype for c in table.classes)
        assert by_type["central"] == 1
        assert sum(1 for c in table.classes if c.ctype.startswith("unipotent")) == 1
        assert sum(c.size for c in table.classes) == q**3 - q

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
    def test_unipotent_halves_balance(self, q):
        table = build_class_table(q)
        for c in table.classes:
            if c.ctype.startswith("unipotent"):
                assert c.size == (q * q - 1) // 2

    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    def test_semisimple_sizes(self, q):
        F = field(q)
        table = build_class_table(q)
        for c in table.classes:
            if c.ctype == "semisimple-split":
                assert c.size == q * (q + 1)
            elif c.ctype == "semisimple-nonsplit":
                assert c.size == q * (q - 1)
            if c.ctype.startswith("semisimple"):
                # split exactly when the characteristic roots live in F_q
                roots = sl2._quad_roots(F)[c.trace]
                assert (roots > 0) == (c.ctype == "semisimple-split")

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
    def test_partition_matches_brute_orbits(self, q):
        table = build_class_table(q)
        orbits = brute_conjugacy_orbits(q)
        assert len(orbits) == len(table.classes)
        seen_ids = set()
        for orb in orbits:
            ids = {class_index(table, m) for m in orb}
            assert len(ids) == 1, "orbit split across class ids"
            cid = ids.pop()
            assert cid not in seen_ids, "two orbits share a class id"
            seen_ids.add(cid)
            assert table.classes[cid].size == len(orb)

    @pytest.mark.parametrize("q", [16, 25, 27, 32, 49, 64, 81])
    def test_class_size_census(self, q):
        table = build_class_table(q)
        idx = table.classify_array(*enumerate_group(table.field))
        assert np.bincount(idx, minlength=len(table.classes)).tolist() == table.sizes.tolist()

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
    def test_rep_belongs_to_its_class(self, q):
        table = build_class_table(q)
        for c in table.classes:
            assert table.classes[class_index(table, c.rep)] is c

    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_table_is_built_once_per_q(self, q):
        assert build_class_table(q) is build_class_table(q)

    def test_shared_arrays_are_read_only(self):
        table = build_class_table(7)
        shared = (table.sizes, table._reps, table._index, table.trace_class, table.trace_open)
        for array in (*shared, table.roots):
            first = (0,) * array.ndim
            with pytest.raises(ValueError, match="read-only"):
                array[first] = array[first]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 16])
    def test_noncentral_reps_in_companion_form(self, q):
        # _locus_pairs solves one conic for every x_c = (0, b, -1/b, trace)
        table = build_class_table(q)
        F = table.field
        for c in table.classes:
            if c.ctype != "central":
                b = c.rep[1]
                assert c.rep == (0, b, F.neg(F.inv(b)), c.trace), c.class_id


class TestFiberDistribution:
    @pytest.mark.parametrize("q", [3, 4, 5, 7])
    def test_xy_is_exactly_uniform(self, q):
        rep = fiber_distribution(parse("xy"), q)
        order = q**3 - q
        for row in rep.rows:
            assert row.fiber_per_element == order
            assert row.deviation == 0

    @pytest.mark.parametrize("q", [3, 5])
    def test_matches_brute_enumeration(self, q):
        for wtext in ("xy", "xyxy", "xyXY", "xxy"):
            rep = fiber_distribution(parse(wtext), q)
            F, cnt = brute_sl_fibers(wtext, q)
            table = build_class_table(q)
            per_class = defaultdict(set)
            _, mats = group_elements(q)
            for m in mats:
                per_class[table.classes[class_index(table, m)].class_id].add(cnt.get(m, 0))
            for row in rep.rows:
                assert per_class[row.class_id] == {row.fiber_per_element}

    @pytest.mark.parametrize("q", [5, 7, 9])
    def test_partition_invariant(self, q):
        rep = fiber_distribution(parse("xyXY"), q)
        total = sum(r.class_size * r.fiber_per_element for r in rep.rows)
        assert total == rep.total_pairs == rep.order**2

    def test_commutator_central_fiber(self):
        rep = fiber_distribution(parse("xyXY"), 5)
        assert next(r for r in rep.rows if r.class_id == "central_tr2").fiber_per_element == 1080

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
    def test_matches_direct_evaluation(self, q):
        # characteristic 2 included, where the traces +2 and -2 coincide
        rng = random.Random(20121)
        texts = ["", "x", "y", "xX", "xy", "xyXY", "xyxy", "x^4yx^-2Yx^2yx^-2Y", "xxxYYY"]
        texts += ["".join(rng.choice("xXyY") for _ in range(rng.randint(1, 12))) for _ in range(3)]
        texts.append("x^17y^16")  # past sl2._MAX_TRACED_LENGTH from q = 4 on
        texts.append("x^7yx^12y")  # x^-5y^2 at q = 2, 3: wraps negative, drops x^12
        for wtext in texts:
            w = parse(wtext)
            rep = fiber_distribution(w, q)
            got = [r.class_size * r.fiber_per_element for r in rep.rows]
            assert got == direct_fiber_totals(w, q), wtext

    def test_length_cap_selects_the_path(self, monkeypatch):
        at_cap = "x^-1yx^2yx^-2y^-2x^2y^-1x^-1yx^-1y^-2x^-1yx^2yxy^-2xyx^-2y^-2x^-1"
        assert parse(at_cap).length == sl2._MAX_TRACED_LENGTH
        traced = []
        monkeypatch.setattr(sl2, "trace_poly", lambda w: traced.append(w.length) or trace_poly(w))
        # at q = 7 the first word's residue is x^3y^3, and that is what is traced
        for wtext in ("x^1000107y^-1000106x^1000104y^5", at_cap, at_cap + "y"):
            fiber_distribution(parse(wtext), 7)
        assert traced == [6, sl2._MAX_TRACED_LENGTH]

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            fiber_distribution(parse("xy"), 131)
        assert MAX_FIBER_Q == 128

    def test_untraceable_word_within_budget(self):
        # 34 letters after exponent reduction: f_w is read from one pair per point
        w = parse("xy" * 17)
        assert sl2._exponent_residues(w, 83).length > sl2._MAX_TRACED_LENGTH
        t0 = time.monotonic()
        rep = fiber_distribution(w, 83)
        elapsed = time.monotonic() - t0
        assert elapsed <= 2.5, f"budget exceeded: {elapsed:.2f}s > 2.5s"
        assert sum(r.class_size * r.fiber_per_element for r in rep.rows) == rep.order**2

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
    def test_word_slices_equal_the_traced_slices(self, q):
        # characteristic 2 included, where the traces +2 and -2 coincide
        table = build_class_table(q)
        F = table.field
        rng = random.Random(q)
        for _ in range(3):
            w = parse("".join(rng.choice("xXyY") for _ in range(rng.randint(1, 14))))
            f = trace_poly(w).f.reduce_mod(F.p)
            # the whole grid, then the orbit representatives the fiber pass visits
            s_maps, _, t_mirror, _ = probes._symmetries(F, *probes._parities(f))
            for select in ((np.arange(q), np.arange(q)), probes._representatives(s_maps, t_mirror)[0]):
                traced = sl2._u_slices(f, F, select)
                got_slices = sl2._word_slices(w, table, select)
                for got, want in zip(got_slices, traced, strict=True):
                    assert np.array_equal(got, want), str(w)

    @pytest.mark.parametrize("q", [25, 32])
    def test_matches_direct_evaluation_on_and_off_the_locus(self, q):
        # each word has f_w = +-2 both on and off the locus kappa = 0
        for wtext in ("xyXY", "xyxy", "x^4yX^2Yx^2yX^2Y", "xxyXYYxyXy"):
            w = parse(wtext)
            rep = fiber_distribution(w, q)
            got = [r.class_size * r.fiber_per_element for r in rep.rows]
            assert got == direct_fiber_totals(w, q), wtext

    def test_traced_report_within_budget(self):
        w = parse("xxyXYYxyXy")
        t0 = time.monotonic()
        rep = fiber_distribution(w, 81)
        elapsed = time.monotonic() - t0
        assert elapsed <= 1.2, f"budget exceeded: {elapsed:.2f}s > 1.2s"
        assert sum(r.class_size * r.fiber_per_element for r in rep.rows) == rep.order**2

    @pytest.mark.parametrize("q, budget", [(81, 1.2), (128, 3.0)])
    def test_commutator_report_within_budget(self, q, budget):
        # f_w = kappa + 2, so every locus point is a +-2 point: the most locus pairs
        t0 = time.monotonic()
        rep = fiber_distribution(parse("xyXY"), q)
        elapsed = time.monotonic() - t0
        assert elapsed <= budget, f"budget exceeded: {elapsed:.2f}s > {budget}s"
        assert sum(r.class_size * r.fiber_per_element for r in rep.rows) == rep.order**2

    def test_csv_shape(self):
        rep = fiber_distribution(parse("xy"), 3)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "class_id,trace,type,class_size,fiber_per_element,deviation"
        assert len(lines) == len(rep.rows) + 1


class TestFiberOrbits:
    # exponent sums (A, B) of each parity, then a word past _MAX_TRACED_LENGTH
    WORDS = ("xyXY", "xxy", "xyy", "xy", "xy" * 17)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32])
    def test_matches_direct_evaluation(self, q):
        for wtext in self.WORDS:
            w = parse(wtext)
            rep = fiber_distribution(w, q)
            got = [r.class_size * r.fiber_per_element for r in rep.rows]
            assert got == direct_fiber_totals(w, q), wtext

    @pytest.mark.parametrize("q,share", [(101, 3), (125, 5), (128, 5)])
    def test_commutator_visits_orbit_representatives(self, monkeypatch, q, share):
        sizes = []
        u_slices = sl2._u_slices

        def recording(f, F, *args):
            for val in u_slices(f, F, *args):
                sizes.append(val.size)
                yield val

        monkeypatch.setattr(sl2, "_u_slices", recording)
        fiber_distribution(parse("xyXY"), q)
        assert 0 < sum(sizes) <= q**3 / share

    def test_report_at_the_top_q_within_memory_budget(self):
        tracemalloc.start()
        try:
            rep = fiber_distribution(parse("xxyXYYxyXy"), MAX_FIBER_Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, f"budget exceeded: {peak / 2**20:.1f} MB > 16 MB"
        assert sum(r.class_size * r.fiber_per_element for r in rep.rows) == rep.order**2


EXPONENTS = st.sampled_from([-2, -1, 1, 2])


class TestNielsenInvariance:
    # (x, y) -> (alpha(x), alpha(y)) is a bijection of G^2 for alpha in Aut(F_2),
    # so w and alpha(w) have equal fiber rows.  f_w comes from the trace
    # polynomial up to _MAX_TRACED_LENGTH letters and from the word slices past
    # it; the identity uses neither, and the moves carry words across the cap.
    @given(
        w=st.lists(st.tuples(EXPONENTS, EXPONENTS), min_size=5, max_size=10).map(
            Word.from_syllables
        ),
        moves=st.lists(st.sampled_from(sorted(NIELSEN_MOVES)), min_size=2, max_size=4),
        q=st.sampled_from([5, 7, 8, 9]),
    )
    @example(w=parse("x^2y^2" * 8), moves=["x->xy"], q=7)  # 32 letters, then 48
    @settings(max_examples=25, deadline=None)
    def test_fiber_rows_are_invariant_under_nielsen_moves(self, w, moves, q):
        rows = fiber_distribution(w, q).rows
        for name in moves:
            w = apply_move(NIELSEN_MOVES[name], w)
            assert fiber_distribution(w, q).rows == rows, (name, str(w))

    def test_a_move_crosses_the_length_cap(self):
        w = parse("x^2y^2" * 8)
        moved = apply_move(NIELSEN_MOVES["x->xy"], w)
        assert w.length == sl2._MAX_TRACED_LENGTH < moved.length


class TestPSL:
    @pytest.mark.parametrize("q", [3, 5])
    def test_matches_brute_enumeration(self, q):
        for wtext in ("xy", "xyXY", "xyxy"):
            rep = psl_fiber_distribution(parse(wtext), q)
            F, reps, cnt = brute_psl_fibers(wtext, q)
            assert rep.order == len(reps) == (q**3 - q) // 2
            table = build_class_table(q)
            fused = {}
            for row in rep.rows:
                fused[row.class_id.removeprefix("psl:")] = row
            sizes = Counter()
            for m in reps:
                cid = table.classes[class_index(table, m)].class_id
                if cid not in fused:
                    cid = table.classes[class_index(table, mat_neg(F, m))].class_id
                row = fused[cid]
                assert cnt.get(m, 0) == row.fiber_per_element
                sizes[row.class_id] += 1
            for row in rep.rows:
                assert sizes[row.class_id] == row.class_size

    def test_even_q_rejected(self):
        with pytest.raises(ValueError):
            psl_fiber_distribution(parse("xy"), 4)

    def test_checksum(self):
        rep = psl_fiber_distribution(parse("xyXY"), 7)
        assert sum(r.class_size * r.fiber_per_element for r in rep.rows) == rep.order**2

    def test_seen_q_builds_no_table(self, monkeypatch):
        # the SL report inside and the PSL rows read the one class table of q
        psl_fiber_distribution(parse("xyXY"), 7)
        built = []

        def counting(name):
            builder = getattr(sl2, name)
            return lambda *args: built.append(name) or builder(*args)

        for name in ("ClassTable", "_quadratic_roots"):
            monkeypatch.setattr(sl2, name, counting(name))
        psl_fiber_distribution(parse("xyXY"), 7)
        assert built == []
        sl2.build_class_table.__wrapped__(7)  # an unmemoized build is counted
        assert built == ["ClassTable", "_quadratic_roots"]

    def test_rejects_the_report_of_another_word_or_q(self):
        for wtext, q in (("xyxy", 7), ("xy", 5)):
            other = fiber_distribution(parse(wtext), q)
            with pytest.raises(ValueError, match="sl_report"):
                psl_fiber_distribution(parse("xy"), 7, sl_report=other)

    @pytest.mark.parametrize("q", [q for q in prime_powers(3, 127) if q % 2])
    def test_negation_partners_equal_the_class_lookup(self, q):
        table = build_class_table(q)
        reps = np.array([c.rep for c in table.classes], dtype=np.int64)
        want = table.classify_array(*table.field.neg_table[reps].T).tolist()
        assert sl2._class_maps(table, table.field.neg_table).tolist() == want


class TestEquidistEpsilon:
    def test_uniform_word_needs_no_exclusions(self):
        rep = fiber_distribution(parse("xy"), 7)
        e = equidist_epsilon(rep)
        assert e.epsilon == 0
        assert e.excluded_classes == ()

    @pytest.mark.parametrize(
        "q,psl",
        [
            pytest.param(q, psl, id=f"{q}-psl" if psl else str(q))
            for q in (5, 7, 9)
            for psl in (False, True)
        ],
    )
    @pytest.mark.parametrize("wtext", ["xyXY", "xxy", "xyxYY"])
    def test_epsilon_is_minimal_feasible(self, wtext, q, psl):
        report = psl_fiber_distribution if psl else fiber_distribution
        rep = report(parse(wtext), q)
        e = equidist_epsilon(rep)
        assert epsilon_feasible(rep, e.epsilon)
        if e.epsilon > 0:
            assert not epsilon_feasible(rep, e.epsilon * Fraction(999, 1000))

    def test_partition_of_classes(self):
        rep = fiber_distribution(parse("xyXY"), 5)
        e = equidist_epsilon(rep)
        assert set(e.excluded_classes) | set(e.kept_classes) == {
            c.class_id for c in build_class_table(5).classes
        }
        assert not set(e.excluded_classes) & set(e.kept_classes)

    def test_parameter_pack(self):
        rep = fiber_distribution(parse("xyXY"), 5)
        e = equidist_epsilon(rep)
        d = e.degree
        assert d == 3
        assert e.A == 2 * (d + 8)
        assert e.alpha == 1
        assert e.B == 100 * d**4 + 1
        assert e.beta == Fraction(1, 2)
        assert e.q0 == 4 * (50 * d**4) ** 2
        assert e.cor311_epsilon == pytest.approx(3 * e.B * 5 ** (-0.5))

    def test_json_shape(self):
        rep = fiber_distribution(parse("xyXY"), 5)
        d = equidist_epsilon(rep).to_json_dict()
        assert d["epsilon"] == "13/24"
        assert d["params"]["beta"] == 0.5
        assert isinstance(d["excluded_classes"], list)

    def test_fraction_le_inv_sqrt_boundary(self):
        assert fraction_le_inv_sqrt(Fraction(1, 2), 5, 100)
        assert not fraction_le_inv_sqrt(Fraction(1, 2) + Fraction(1, 10**9), 5, 100)


class TestPiFibers:
    def test_matches_brute_q3(self):
        brute = brute_pi_table(3)
        tab = pi_fiber_table(3)
        for s in range(3):
            for u in range(3):
                for t in range(3):
                    assert tab[s, u, t] == brute.get((s, u, t), 0)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_table_total(self, q):
        tab = pi_fiber_table(q)
        assert int(tab.sum()) == (q**3 - q) ** 2

    def test_resource_guard(self, monkeypatch):
        def no_field(q):
            raise AssertionError("field built past the guard")

        monkeypatch.setattr(sl2, "field", no_field)
        with pytest.raises(ValueError, match="resource guard exceeded"):
            pi_fiber_table(131)

    @staticmethod
    def _check_point_pairs(q, on_locus):
        F = field(q)
        add, mul, neg = F.add_table, F.mul_table, F.neg_table

        def sub(a, b):
            return add[a, neg[b]]

        s, u, t = (v.ravel() for v in np.indices((q, q, q)))
        # kappa = s^2 + t^2 + u^2 - s u t - 4
        kappa = add[add[mul[s, s], mul[t, t]], sub(mul[u, u], mul[mul[s, u], t])]
        keep = (sub(kappa, F.embed_int(4)) == 0) == on_locus
        s, u, t = s[keep], u[keep], t[keep]
        pairs = sl2._point_pairs(build_class_table(q), s, u, t)
        (x0, x1, x2, x3), (y0, y1, y2, y3) = pairs
        assert (sub(mul[x0, x3], mul[x1, x2]) == F.one).all()
        assert (sub(mul[y0, y3], mul[y1, y2]) == F.one).all()
        assert np.array_equal(add[x0, x3], s)
        assert np.array_equal(add[y0, y3], t)
        # tr(x y) = x0 y0 + x1 y2 + x2 y1 + x3 y3
        tr_xy = add[add[mul[x0, y0], mul[x1, y2]], add[mul[x2, y1], mul[x3, y3]]]
        assert np.array_equal(tr_xy, u)

    @pytest.mark.parametrize(
        "q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128]
    )
    def test_kinds_read_from_the_root_table(self, q):
        F = field(q)
        zero = kappa_zero(F)
        assert int(zero.sum()) == q * q + 1
        kind = (sl2._quad_roots(F) + 1).astype(np.int8)
        s, u, t = kind[:, None, None], kind[None, :, None], kind[None, None, :]
        want = np.where(zero, np.where(s != 2, s, np.where(u != 2, u, t)), np.int8(0))
        table = build_class_table(q)
        assert np.array_equal(sl2._pi_fiber_kinds(table), want)
        rows, cols = np.arange(0, q, 3), np.arange(1, q, 2)
        picked = sl2._pi_fiber_kinds(table, (rows, cols))
        assert np.array_equal(picked, want[rows][:, :, cols])

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
    def test_off_locus_representatives(self, q):
        self._check_point_pairs(q, on_locus=False)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
    def test_locus_representatives(self, q):
        # with the off-locus test, every point of F_q^3
        self._check_point_pairs(q, on_locus=True)

    def test_point_reached_only_by_a_central_x(self):
        # at q = 3 the locus point (-2, 0, 0) is reached only with x = -I
        x, y = sl2._point_pairs(build_class_table(3), *(np.array([v]) for v in (1, 0, 0)))
        assert [int(v[0]) for v in x] == [2, 0, 0, 2]
        assert [int(v[0]) for v in y] == [0, 2, 1, 0]

    def test_point_without_representative_raises(self):
        # with no quadratic roots, only x = e I could serve, and (0, 1, 1) has s != +-2
        table = copy.copy(build_class_table(3))  # the shared table keeps its roots
        table.roots = np.full((3, 3, 2), -1)
        with pytest.raises(RuntimeError, match="no representative pair"):
            sl2._point_pairs(table, *(np.array([v]) for v in (0, 1, 1)))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
    def test_quadratic_roots_match_brute_force(self, q):
        F = field(q)
        add, mul = F.add_table, F.mul_table
        beta, gamma, c = np.ix_(range(q), range(q), range(q))
        zero = add[add[mul[c, c], mul[beta, c]], gamma] == 0  # [beta, gamma, c]
        table = sl2._quadratic_roots(F)
        for b in range(q):
            for g in range(q):
                roots = np.flatnonzero(zero[b, g]).tolist()
                want = [roots[0], roots[-1]] if roots else [-1, -1]
                assert table[b, g].tolist() == want, (b, g)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
    def test_locus_pairs_equal_the_group_filter(self, q):
        # every point of F_q^3 handed in, so each x_c meets every (u, t)
        table = build_class_table(q)
        F = table.field
        points = np.arange(q**3)
        xc, weight, k, y = sl2._locus_pairs(table, points)
        ys = enumerate_group(F)
        tr_y = trace_xy(F, sl2._IDENTITY, ys)
        for i, cls in enumerate(table.classes):
            mine = np.flatnonzero(xc == i)
            assert (points[k[mine]] // (q * q) == cls.trace).all()
            got_ut = points[k[mine]] % (q * q)  # u * q + t
            want_ut = trace_xy(F, cls.rep, ys) * q + tr_y
            if cls.ctype == "central":
                got = np.zeros(q * q, dtype=np.int64)
                np.add.at(got, got_ut, table.sizes[weight[mine]])
                assert np.array_equal(got, np.bincount(want_ut, minlength=q * q)), cls.class_id
                continue
            assert (weight[mine] == i).all()
            got = np.stack([got_ut, *(v[mine] for v in y)])
            want = np.stack([want_ut, *ys])
            got, want = (m[:, np.lexsort(m[::-1])] for m in (got, want))
            assert np.array_equal(got, want), cls.class_id

    def test_missing_locus_pair_raises(self, monkeypatch):
        locus_pairs = sl2._locus_pairs

        def one_short(table, points):
            xc, weight, k, y = locus_pairs(table, points)
            return xc[1:], weight[1:], k[1:], tuple(v[1:] for v in y)

        monkeypatch.setattr(sl2, "_locus_pairs", one_short)
        with pytest.raises(RuntimeError, match="do not account for every pi-fiber"):
            fiber_distribution(parse("xyXY"), 5)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
    def test_table_equals_group_pass(self, q):
        assert np.array_equal(pi_fiber_table(q), group_pi_table(q))

    def test_table_within_budget(self):
        t0 = time.monotonic()
        tab = pi_fiber_table(81)
        elapsed = time.monotonic() - t0
        assert elapsed <= 0.5, f"budget exceeded: {elapsed:.2f}s > 0.5s"
        assert int(tab.sum()) == (81**3 - 81) ** 2

    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    def test_fiber_bounds(self, q):
        tab = pi_fiber_table(q)
        locus = delta_locus(q)
        for s in range(q):
            for u in range(q):
                for t in range(q):
                    c = int(tab[s, u, t])
                    if (s, u, t) in locus:
                        assert c * q <= 2 * q**3 * (q + 1)
                    else:
                        assert abs(c - q**3) * q <= 3 * q**3


class TestDeltaLocus:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
    def test_membership_formula(self, q):
        F = field(q)
        locus = delta_locus(q)
        minus_four = F.embed_int(-4)
        for s in range(q):
            for u in range(q):
                for t in range(q):
                    f1 = F.add(F.mul(t, t), minus_four)
                    f2 = F.add(F.mul(s, s), minus_four)
                    ss = F.add(F.add(F.mul(s, s), F.mul(t, t)), F.mul(u, u))
                    f3 = F.add(F.add(ss, F.neg(F.mul(F.mul(s, u), t))), minus_four)
                    vanishes = F.mul(F.mul(f1, f2), f3) == F.zero
                    assert ((s, u, t) in locus) == vanishes

    def test_size_bound(self):
        for q in (3, 5, 7, 9):
            assert len(delta_locus(q)) <= 7 * q * q


class TestImageAnalysis:
    @pytest.mark.parametrize("q", [5, 7, 13])
    def test_square_word_omits_shifted_nonsquares(self, q):
        F = field(q)
        rep = image_analysis(parse("xyxy"), q)
        expect = sorted(z for z in range(q) if F.add(z, F.embed_int(2)) not in F.squares)
        assert sorted(rep.omitted_traces) == expect

    def test_commutator_covers_semisimple(self):
        rep = image_analysis(parse("xyXY"), 7)
        assert rep.semisimple_coverage
        assert rep.omitted_traces == ()

    def test_omitted_fraction_consistency(self):
        q = 7
        rep = image_analysis(parse("xyxy"), q)
        fib = fiber_distribution(parse("xyxy"), q)
        dead = sum(r.class_size for r in fib.rows if r.fiber_per_element == 0)
        assert rep.omitted_element_fraction == Fraction(dead, q**3 - q)

    def test_rejects_the_report_of_another_word_or_q(self):
        for wtext, q in (("xyxy", 7), ("xy", 5)):
            other = fiber_distribution(parse(wtext), q)
            with pytest.raises(ValueError, match="sl_report"):
                image_analysis(parse("xy"), 7, sl_report=other)


class TestLangWeil:
    def test_uniform_polynomial_passes(self):
        rep = lang_weil_check(TriPoly.var("u", 5), 5)
        assert rep.all_pass
        assert rep.max_residual == 0

    @pytest.mark.parametrize("q", [9, 11, 13])
    def test_commutator_passes(self, q):
        f = trace_poly(parse("xyXY")).f
        rep = lang_weil_check(f, q)
        assert rep.all_pass
        assert rep.degree == 3

    def test_exclusions_respected(self):
        f = trace_poly(parse("xyXY")).f
        rep = lang_weil_check(f, 5, spectrum_exclusions=(3, 4))
        assert len(rep.rows) == 3
        assert rep.excluded == (3, 4)

    def test_est01_gate(self):
        f = trace_poly(parse("xyXY")).f
        assert not lang_weil_check(f, 25).est01_applicable  # degree 3 <= 4
        jlo = trace_poly(parse("xxxxyXXYxxyXXY")).f
        assert lang_weil_check(jlo, 25).est01_applicable
        assert not lang_weil_check(jlo, 13).est01_applicable  # q <= 16


class TestSpectrumProbe:
    def test_uniform_polynomial_flags_nothing(self):
        pr = spectrum_probe(TriPoly.var("u", 5), 5, [1, 2])
        assert pr.flagged == ()

    def test_commutator_flags_nothing_with_two_fields(self):
        f = trace_poly(parse("xyXY")).f.reduce_mod(5)
        pr = spectrum_probe(f, 5, [1, 2])
        assert pr.flagged == ()

    def test_flag_cap_is_degree_bound(self):
        f = trace_poly(parse("xyXY")).f.reduce_mod(3)
        pr = spectrum_probe(f, 3, [1, 2])
        assert len(pr.flagged) <= f.total_degree() - 1

    def test_cap_violation_raises(self):
        # u^2 - 2 depends on u alone: every level set is a union of planes,
        # so the probe sees more deviant levels than a spectrum can hold
        f = trace_poly(parse("xyxy")).f.reduce_mod(3)
        with pytest.raises(RuntimeError):
            spectrum_probe(f, 3, [1])

    def test_empty_field_list_rejected(self):
        with pytest.raises(ValueError):
            spectrum_probe(TriPoly.var("u", 3), 3, [])

    def test_threshold_is_recorded(self):
        pr = spectrum_probe(TriPoly.var("u", 3), 3, [1])
        assert "2*|N_z - q^2| >= q^2" in pr.threshold
