"""Acceptance criteria, one test per criterion.

Each test is self-contained, pins its tolerance exactly, and enforces its
wall-clock budget.  Run with -v to get one pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction

from tracelab.decompose import (
    COMPOSITE_Q,
    NONCOMPOSITE_Q,
    classify_global,
    classify_rational,
    power_word_report,
)
from tracelab.experiments import genericity_scan
from tracelab.gf import field
from tracelab.sl2 import (
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
from tracelab.trace import TraceEngine, trace_poly
from tracelab.tripoly import TriPoly
from tracelab.unipoly import dickson, dickson_apply
from tracelab.words import enumerate_words, parse, sample_words, stats

from _oracles import (
    LAU_S,
    brute_psl_fibers,
    class_index,
    eval_trace_direct,
    lau_from_unipoly,
    mat_neg,
    poly_value,
    prime_powers,
)

S = TriPoly.var("s", None)
U = TriPoly.var("u", None)
T = TriPoly.var("t", None)


def C(c):
    return TriPoly.const(c, None)


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed <= self.seconds, (
                f"budget exceeded: {elapsed:.1f}s > {self.seconds}s"
            )
        return False


def test_criterion_01_trace_engine_closed_forms():
    """Symbolic equality with the complexity 1-3 closed forms; < 1 s."""
    with _Budget(1):
        eng = TraceEngine()
        a4 = -(U**3) + S * T * U**2 + U * (C(3) - T**2 - S**2) + S * T
        closed = {
            "xy": U,
            "xyxY": -(U**2) + S * T * U - T**2 + C(2),
            "xyXY": U**2 - S * T * U + S**2 + T**2 - C(2),
            "xyXy": -(U**2) + S * T * U - S**2 + C(2),
            "xyxYXY": a4,
        }
        for text, expect in closed.items():
            assert trace_poly(parse(text), engine=eng).f == expect, text
        # mirrored cubic equals the a4 form, rotated cubic is its u -> st-u twin
        assert trace_poly(parse("xyXYXy"), engine=eng).f == a4
        assert trace_poly(parse("xyXyxY"), engine=eng).f == a4.substitute(
            S, S * T - U, T
        )


def test_criterion_02_oracle_agreement():
    """100 random words (length <= 30) x 100 random points of F_101; < 30 s."""
    with _Budget(30):
        F = field(101)
        eng = TraceEngine()
        rng = random.Random(99)
        words = list(sample_words(30, 100, seed=20260814))
        assert len(words) == 100
        for w in words:
            f = trace_poly(w, engine=eng).f.reduce_mod(101)
            for _ in range(100):
                s, u, t = (rng.randrange(101) for _ in range(3))
                assert poly_value(f, F, s, u, t) == eval_trace_direct(w, F, s, u, t)


def test_criterion_03_specialization_suite():
    """Four Dickson specializations for 200 random words; < 1 min."""
    with _Budget(60):
        eng = TraceEngine()
        words = list(sample_words(12, 200, seed=31337))
        assert len(words) == 200
        for w in words:
            st_ = stats(w)
            f = trace_poly(w, engine=eng).f
            cases = [
                (S, S, C(2), S, st_.A),
                (C(2), T, T, T, st_.B),
                (S, C(2), S, S, st_.A - st_.B),
                (S, S**2 - C(2), S, S, st_.A + st_.B),
            ]
            for s_val, u_val, t_val, var, idx in cases:
                assert f.substitute(s_val, u_val, t_val) == dickson_apply(idx, var)


def test_criterion_04_dickson_algebra():
    """Composition law for n,m <= 12; functional equation for n <= 32; < 5 s."""
    with _Budget(5):
        for n in range(13):
            for m in range(13):
                assert dickson(n * m, None) == dickson(n, None).compose(
                    dickson(m, None)
                )
        for n in range(33):
            # exact identity in ZZ[x, 1/x]: D_n(x + 1/x) = x^n + x^-n
            lhs = lau_from_unipoly(dickson(n, None).coeffs, LAU_S)
            rhs = {0: 2} if n == 0 else {n: 1, -n: 1}
            assert lhs == rhs, n


def test_criterion_05_power_detection():
    """Every v of length <= 8 and k in {2,3,4}: composite witness; < 5 min."""
    with _Budget(300):
        for v in enumerate_words(8):
            for k in (2, 3, 4):
                w = v**k
                cls, wit = classify_rational(w)
                assert cls == COMPOSITE_Q, (v, k)
                assert wit is not None
                rep = power_word_report(w)
                assert rep.consistent, (v, k)
                assert rep.multiplicity % k == 0


def test_criterion_06_exhaustive_dichotomy():
    """x^a y^b x^c y^d over [-3,3]\\{0}: NotEquidistributed iff (a,b)=(c,d);
    zero exceptions; < 10 min."""
    with _Budget(600):
        eng = TraceEngine()
        x, y = parse("x"), parse("y")
        exponents = [e for e in range(-3, 4) if e != 0]
        exceptions = []
        for a in exponents:
            for b in exponents:
                for c in exponents:
                    for d in exponents:
                        w = x**a * y**b * x**c * y**d
                        verdict = classify_global(w, 7, engine=eng)
                        not_equi = verdict.conclusion == "NotEquidistributed"
                        if not_equi != ((a, b) == (c, d)):
                            exceptions.append((a, b, c, d))
        assert exceptions == []


def test_criterion_07_empirical_equidistribution():
    """Commutator on q in {5,...,17}: minimal epsilon positive, decreasing
    across the endpoints, and below 5*q^(-1/2); <= 2 min for the q=17 leg."""
    w = parse("xyXY")
    eps = {}
    for q in (5, 7, 9, 11, 13, 17):
        budget = 120 if q == 17 else 600
        with _Budget(budget):
            report = equidist_epsilon(fiber_distribution(w, q))
        eps[q] = report.epsilon
        assert report.epsilon > 0
        assert fraction_le_inv_sqrt(report.epsilon, 5, q)
    assert eps[17] < eps[5]


def test_criterion_08_non_equidistribution_witness():
    """(xy)^2 on odd q in {5,...,13}: omitted-element fraction of G_q is at
    least 1/4 - 3/q, from exact exhaustive fiber data."""
    w = parse("xyxy")
    for q in (5, 7, 9, 11, 13):
        rep = image_analysis(w, q)
        assert rep.omitted_element_fraction >= Fraction(1, 4) - Fraction(3, q)
        # the omitted traces are exactly the non-squares shifted by -2,
        # i.e. z such that z + 2 is not a square (image of D_2)
        F = field(q)
        expect = sorted(
            z for z in range(q) if F.add(z, F.embed_int(2)) not in F.squares
        )
        assert sorted(rep.omitted_traces) == expect


def test_criterion_09_pi_fiber_bounds():
    """Exhaustive for q in {3,5,7,9}: off-locus fibers within 3/q of q^3,
    on-locus fibers at most 2q^3(1+1/q); < 2 min total."""
    with _Budget(120):
        for q in (3, 5, 7, 9):
            table = pi_fiber_table(q)
            locus = delta_locus(q)
            for s in range(q):
                for u in range(q):
                    for t in range(q):
                        c = int(table[s, u, t])
                        if (s, u, t) in locus:
                            assert c * q <= 2 * q**3 * (q + 1)
                        else:
                            assert abs(c - q**3) * q <= 3 * q**3


def test_criterion_10_lang_weil_screen():
    """Commutator trace polynomial: every level set passes (est0) for all
    prime powers 5 <= q <= 27, after spectrum-probe exclusions; < 2 min."""
    with _Budget(120):
        f = trace_poly(parse("xyXY")).f
        for q in prime_powers(5, 27):
            F = field(q)
            fp = f.reduce_mod(F.p)
            probe = spectrum_probe(fp, F.p, [F.n])
            report = lang_weil_check(fp, q, spectrum_exclusions=probe.flagged)
            assert report.all_pass, q


def test_criterion_11_psl_consistency():
    """PSL fiber reports for the commutator at q in {5,7} equal an
    independent O(|PSL|^2) enumeration exactly; < 1 min."""
    with _Budget(60):
        for q in (5, 7):
            rep = psl_fiber_distribution(parse("xyXY"), q)
            F, reps, cnt = brute_psl_fibers("xyXY", q)
            assert rep.order == len(reps)
            table = build_class_table(q)
            rows = {r.class_id.removeprefix("psl:"): r for r in rep.rows}
            seen = {r.class_id: 0 for r in rep.rows}
            for m in reps:
                cid = table.classes[class_index(table, m)].class_id
                if cid not in rows:
                    cid = table.classes[class_index(table, mat_neg(F, m))].class_id
                row = rows[cid]
                assert cnt.get(m, 0) == row.fiber_per_element
                seen[row.class_id] += 1
            for r in rep.rows:
                assert seen[r.class_id] == r.class_size


def test_criterion_12_remark_word():
    """x^2(x^2yx^-2y^-1)^2: certified Q-noncomposite via the non-square
    certificate, spectrum probe flags z = 0 at p = 7, and the image at an
    admissible q omits the trace-0 classes; < 5 min."""
    with _Budget(300):
        w = parse("xx") * (parse("xxyXXY")) ** 2
        res = trace_poly(w)
        assert res.f.total_degree() == 12
        assert res.u_degree == 4

        cls, wit = classify_rational(w)
        assert cls == NONCOMPOSITE_Q and wit is None
        # only candidate outer degree is 2; f + 2 is not a full square
        assert (res.f + C(2)).nth_root(2) is None

        probe = spectrum_probe(res.f.reduce_mod(7), 7, [1, 2])
        assert 0 in probe.flagged

        def admissible(p, n):
            q = p**n
            return n % 2 == 1 and p != 5 and p * p % 16 != 1 and p * p % 5 != 1

        assert admissible(3, 1)
        assert not admissible(7, 1)  # 49 = 1 mod 16
        rep = image_analysis(w, 3)
        assert 0 in rep.omitted_traces
        zero_trace_classes = [
            c.class_id for c in build_class_table(3).classes if c.trace == 0
        ]
        assert zero_trace_classes
        assert set(zero_trace_classes) <= set(rep.zero_fiber_classes)


def test_criterion_13_genericity():
    """Exhaustive scan to n = 12: proper-power fraction below 2% at n = 12
    and strictly decreasing from n = 6 on; < 10 min."""
    with _Budget(600):
        reports = genericity_scan(12, mode="exhaustive", certify=False)
        by_n = {r.n: r for r in reports}
        last = by_n[12]
        assert last.total == 265720
        assert last.proper_powers == 404
        assert last.mu_power < Fraction(1, 50)
        tail = [by_n[n].mu_power for n in range(6, 13)]
        assert all(a > b for a, b in zip(tail, tail[1:]))
