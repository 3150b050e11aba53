"""End-to-end verification runs tying classifier verdicts to fiber data.

Three entry points: per-prime theorem runs (verdict vs. observed epsilon and
omitted-value fractions along a tower q = p^n), measure-preservation bound
sheets, and the genericity scan over the canonical-word ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .decompose import (
    NONCOMPOSITE_P,
    SPECIAL_P,
    PrimeVerdict,
    _verdict,
    _word_poly,
    classify_p,
)
from .gf import _factor_prime_power, field
from .sl2 import (
    MAX_FIBER_Q,
    _cor311_constants,
    equidist_epsilon,
    fiber_distribution,
    fraction_le_inv_sqrt,
    image_analysis,
)
from .trace import TraceEngine, trace_poly
from .words import (
    Word,
    _candidate_cells,
    _orbit_representatives,
    proper_power_root,
    sample_words,
)

# An exhaustive scan classifies one canonical word per symmetry orbit up to
# n_max letters, about 3x more per letter: genericity_scan(n) took 0.23-0.29 s
# at n = 12, 0.44-0.50 s at 13 and 1.7 s at 14, with 36 MB peak RSS, each in
# a fresh process on a 2-vCPU host.
EXHAUSTIVE_SCAN_LIMIT = 14
# A sampled scan draws ``samples`` words at each length up to n_max, and a
# word's certification grows about 6x per 16 letters, so both are capped:
# the slowest accepted scan, n_max = 32 with 5000 samples, took 12.4-12.9 s
# at 49 MB peak RSS on a 2-vCPU host (n_max = 20 with 2000 samples: 1.6-1.8 s).
SAMPLED_SCAN_LIMIT = 32
SAMPLED_SCAN_SAMPLES = 5000


@dataclass(frozen=True)
class TheoremRun:
    word: Word
    p: int
    q_list: tuple[int, ...]
    verdict: PrimeVerdict
    epsilons: tuple[Fraction, ...]
    omitted_fractions: tuple[Fraction, ...]
    consistent: bool
    note: str

    def to_csv(self) -> str:
        lines = ["word,p,q,verdict,epsilon,omitted_fraction,consistent"]
        for q, eps, om in zip(self.q_list, self.epsilons, self.omitted_fractions):
            lines.append(
                f"{self.word},{self.p},{q},{self.verdict.verdict},"
                f"{eps},{om},{str(self.consistent).lower()}"
            )
        return "\n".join(lines) + "\n"


def verify_theorem_p_equi(w: Word, p: int, q_list: Sequence[int]) -> TheoremRun:
    """Classify w at p and check the verdict against fibers along q = p^n.

    A noncomposite-or-special verdict must come with a nonincreasing epsilon
    trend across the q list (endpoint comparison); a composite-not-special
    verdict must come with omitted-element fractions at least
    (q-1)/(d1*q) - 2/q where d1 is the outer degree of the witness, and can
    never coexist with epsilon below the floor 1/(2*d1).
    """
    if not q_list:
        raise ValueError("q_list must be nonempty")
    qs = tuple(q_list)
    for q in qs:
        if q > MAX_FIBER_Q:
            raise ValueError(f"resource guard exceeded: q = {q} > {MAX_FIBER_Q}")
        if field(q).p != p:  # field raises ValueError on a non-prime power
            raise ValueError(f"{q} is not a power of {p}")
    verdict = classify_p(w, p)
    epsilons: list[Fraction] = []
    omitted: list[Fraction] = []
    for q in qs:
        report = fiber_distribution(w, q)
        epsilons.append(equidist_epsilon(report).epsilon)
        omitted.append(
            image_analysis(w, q, sl_report=report).omitted_element_fraction
        )
    if verdict.verdict in (NONCOMPOSITE_P, SPECIAL_P):
        consistent = epsilons[-1] <= epsilons[0]
        note = (
            "epsilon trend nonincreasing"
            if consistent
            else "epsilon increased across the q list"
        )
    else:
        d1 = verdict.witness.outer.degree
        floor = Fraction(1, 2 * d1)
        for q, eps in zip(qs, epsilons):
            if eps < floor:
                raise RuntimeError(
                    f"composite-not-special at p={p} but epsilon {eps} < {floor} "
                    f"at q={q}: verdict and fibers contradict each other"
                )
        checks = [
            om >= Fraction(q - 1, d1 * q) - Fraction(2, q)
            for q, om in zip(qs, omitted)
        ]
        consistent = all(checks)
        note = (
            f"omitted fractions meet the (q-1)/{d1}q - 2/q floor"
            if consistent
            else "omitted fraction fell below the floor"
        )
    return TheoremRun(
        word=w,
        p=p,
        q_list=qs,
        verdict=verdict,
        epsilons=tuple(epsilons),
        omitted_fractions=tuple(omitted),
        consistent=consistent,
        note=note,
    )


@dataclass(frozen=True)
class MeasureSheet:
    word: Word
    q: int
    degree: int
    q0: int
    theoretical_epsilon: float
    theoretical_active: bool
    observed_epsilon: Optional[Fraction]
    consistent: Optional[bool]
    note: str

    def to_text(self) -> str:
        lines = [
            f"word: {self.word}",
            f"q: {self.q}   degree d: {self.degree}   q0: {self.q0}",
            f"theoretical epsilon 3(100d^4+1)q^(-1/2): {self.theoretical_epsilon!r}"
            + ("" if self.theoretical_active else "   (not active at this q)"),
        ]
        if self.observed_epsilon is None:
            lines.append("observed epsilon: enumeration out of range at this q")
        else:
            lines.append(f"observed epsilon: {self.observed_epsilon}")
        lines.append(f"note: {self.note}")
        return "\n".join(lines) + "\n"


def measure_preserving_report(w: Word, q: int) -> MeasureSheet:
    """Theoretical measure-preservation bound next to the observed epsilon.

    The theoretical row only binds for q > q0 = 4(50d^4)^2, which no
    enumerable q reaches; it is still printed for reference.  The observed
    row is filled whenever q is within the enumeration guard.  ValueError
    for a q that is not a prime power, before any other work.
    """
    _factor_prime_power(q)
    d = trace_poly(w).f.total_degree()
    q0, b_const, theoretical = _cor311_constants(d, q)
    active = q > q0
    observed: Optional[Fraction] = None
    consistent: Optional[bool] = None
    if q <= MAX_FIBER_Q:
        observed = equidist_epsilon(fiber_distribution(w, q)).epsilon
        if active:
            consistent = fraction_le_inv_sqrt(observed, b_const, q)
    if active:
        note = "theoretical bound active; consistency checked"
    else:
        note = "not active at this q (q <= q0); observed row informative only"
    return MeasureSheet(
        word=w,
        q=q,
        degree=d,
        q0=q0,
        theoretical_epsilon=theoretical,
        theoretical_active=active,
        observed_epsilon=observed,
        consistent=consistent,
        note=note,
    )


@dataclass(frozen=True)
class GenericityReport:
    n: int
    ensemble: str
    mode: str
    total: int
    proper_powers: int
    certified: int
    mu_power: Fraction
    mu_certified: Fraction
    mu_nonpower: Fraction


def genericity_csv(reports: Sequence[GenericityReport]) -> str:
    lines = ["n,total,proper_powers,certified,mu_power,mu_certified"]
    for r in reports:
        lines.append(
            f"{r.n},{r.total},{r.proper_powers},{r.certified},"
            f"{float(r.mu_power)!r},{float(r.mu_certified)!r}"
        )
    return "\n".join(lines) + "\n"


def _scan_counts(
    words: Iterable[tuple[Word, int]], engine: TraceEngine, certify: bool
) -> dict[int, list[int]]:
    """[total, proper powers, certified] counts of (word, weight) pairs, by length.

    Each word counts as ``weight`` words, all with its length and verdicts.
    A certified word's power index is its memo entry's, whose key the
    engine cut at its least period as ``proper_power_root`` does.
    """
    by_len: dict[int, list[int]] = {}
    for w, weight in words:
        cell = by_len.setdefault(w.length, [0, 0, 0])
        cell[0] += weight
        if certify:
            entry = _word_poly(w, engine)[1]
            power = entry.k >= 2
            if _verdict(entry, None) is None:
                cell[2] += weight
        else:
            power = proper_power_root(w)[1] >= 2
        if power:
            cell[1] += weight
    return by_len


def _genericity_report(
    n: int, ensemble: str, mode: str, counts: Sequence[int]
) -> GenericityReport:
    """The report for length n from (total, proper powers, certified) counts."""
    total, powers, certified = counts
    return GenericityReport(
        n=n,
        ensemble=ensemble,
        mode=mode,
        total=total,
        proper_powers=powers,
        certified=certified,
        mu_power=Fraction(powers, total),
        mu_certified=Fraction(certified, total),
        mu_nonpower=1 - Fraction(powers, total),
    )


def genericity_scan(
    n_max: int,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
    constraint: str = "any",
    certify: bool = True,
) -> list[GenericityReport]:
    """Fractions of proper powers and certified-noncomposite words per length.

    Exhaustive mode reports exact cumulative counts over every canonical
    word of length <= n.  It classifies one word per orbit of D_2r x| (Z/2)^2,
    the group of order 16r for complexity r generated by the swap x <-> y,
    reversal and the flips x -> x^-1 and y -> y^-1, each up to conjugation,
    and counts it once per word of its orbit: each move keeps the length and
    proper-power status and changes f_w by a ring automorphism of Z[s, u, t],
    so it keeps every verdict.  Sampled mode draws ``samples`` >= 1 words
    uniformly from the length <= n candidate set per n, each counted once.
    Both are capped (``EXHAUSTIVE_SCAN_LIMIT``, ``SAMPLED_SCAN_LIMIT`` and
    ``SAMPLED_SCAN_SAMPLES``), with ValueError past a cap.  Each scan traces
    its words on a fresh engine.  ``certify=False`` skips the
    classifier column (it stays zero) when only power statistics are needed.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive" and n_max > EXHAUSTIVE_SCAN_LIMIT:
        raise ValueError(
            f"exhaustive scan capped at n_max = {EXHAUSTIVE_SCAN_LIMIT}"
        )
    if mode == "sampled" and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if mode == "sampled" and n_max > SAMPLED_SCAN_LIMIT:
        raise ValueError(f"sampled scan capped at n_max = {SAMPLED_SCAN_LIMIT}")
    if mode == "sampled" and samples > SAMPLED_SCAN_SAMPLES:
        raise ValueError(f"sampled scan capped at samples = {SAMPLED_SCAN_SAMPLES}")
    eng = TraceEngine()
    reports: list[GenericityReport] = []
    ensemble = f"canonical words, constraint={constraint}"
    if mode == "exhaustive":
        by_len = _scan_counts(_orbit_representatives(n_max, constraint), eng, certify)
        cum = [0, 0, 0]
        for n in sorted(by_len):
            cum = [x + y for x, y in zip(cum, by_len[n])]
            reports.append(_genericity_report(n, ensemble, "exhaustive", cum))
        return reports
    for n in sorted({n for n, _, _ in _candidate_cells(n_max, constraint)}):
        stream = ((w, 1) for w in sample_words(n, samples, seed=seed + n, constraint=constraint))
        counts = [sum(col) for col in zip(*_scan_counts(stream, eng, certify).values())]
        label = f"sampled({samples},seed={seed})"
        reports.append(_genericity_report(n, ensemble, label, counts))
    return reports
