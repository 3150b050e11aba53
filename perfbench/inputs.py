"""Seeded request streams for the four workloads.

Nothing here imports tracelab: the program under test only ever sees the
word texts and field sizes produced below.  Every stream is a pure function
of its seed, and each is built from fixed-composition blocks that are
shuffled, so that the mix of request kinds is the same in every run and
only the concrete words change with the seed.

Words are produced as syllable tuples ((a1, b1), ..., (ar, br)) meaning
x^a1 y^b1 ... x^ar y^br with nonzero exponents, i.e. already in the
canonical shape (starts with x, ends with y, freely reduced).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

Syllables = tuple[tuple[int, int], ...]

COMMUTATOR: Syllables = ((1, 1), (-1, -1))
XY_SQUARED: Syllables = ((1, 1), (1, 1))
# x^2 (x^2 y x^-2 y^-1)^2, conjugated into canonical shape
REMARK: Syllables = ((4, 1), (-2, -1), (2, 1), (-2, -1))

CLASSIFY_P_MAX = 13
# Per block of 50 classify requests: 34 random, 10 family, 5 powers, 1 heavy.
CLASSIFY_BLOCK = (("random", 34), ("family", 10), ("power", 5), ("heavy", 1))
CLASSIFY_REPEAT = 0.35
RANDOM_MAX_LENGTH = 24
FAMILY_EXPONENTS = (-3, -2, -1, 1, 2, 3)
HEAVY_ROOT_COMPLEXITY = 6

SCAN_N_MAX = 7

# Prime powers with characteristic 2 (16, 32) and 3 (27) present, since the
# class table branches on p = 2.  Larger q in [37, 49] cost 1-4 s a request
# and would leave too few requests in a run for a p90 with 10 samples above.
FIBER_QS = (16, 17, 19, 23, 25, 27, 32)
FIBER_SLOTS = ("commutator", "xy_squared", "remark", "random", "random")
FIBER_RANDOM_MAX_LENGTH = 12
BRUTE_Q = 7

LEVEL_QS = (101, 103, 107, 109, 113, 121, 125, 127, 128)
LEVEL_SLOTS = ("commutator", "remark", "random", "random")
LEVEL_RANDOM_POOL = 40
LEVEL_RANDOM_MAX_COMPLEXITY = 3
LEVEL_RANDOM_MAX_LENGTH = 10
LEVEL_CHECK_Q = 31


def render(syl: Syllables) -> str:
    """Word text in the tracelab syntax, e.g. ``x^2y^-1xy``."""
    parts = []
    for a, b in syl:
        parts.append("x" if a == 1 else f"x^{a}")
        parts.append("y" if b == 1 else f"y^{b}")
    return "".join(parts)


def power_index(syl: Syllables) -> int:
    """Largest k with syl equal to a block repeated k times."""
    r = len(syl)
    for k in range(r, 1, -1):
        if r % k == 0 and syl == syl[: r // k] * k:
            return k
    return 1


def exponent_sums(syl: Syllables) -> tuple[int, int]:
    return sum(a for a, _ in syl), sum(b for _, b in syl)


def canonical_count(n: int, r: int) -> int:
    """Canonical words of length n and complexity r: C(n-1, 2r-1) * 4^r."""
    return math.comb(n - 1, 2 * r - 1) * 4**r


def scan_total(n_max: int) -> int:
    """Closed form for the number of canonical words of length <= n_max."""
    return sum(
        canonical_count(n, r) for n in range(2, n_max + 1) for r in range(1, n // 2 + 1)
    )


def random_canonical(rng: random.Random, max_length: int, min_length: int = 2) -> Syllables:
    """A canonical word drawn uniformly from those with length in range."""
    cells = [
        (n, r, canonical_count(n, r))
        for n in range(max(min_length, 2), max_length + 1)
        for r in range(1, n // 2 + 1)
    ]
    idx = rng.randrange(sum(c for _, _, c in cells))
    for n, r, c in cells:
        if idx < c:
            break
        idx -= c
    cuts = sorted(rng.sample(range(1, n), 2 * r - 1))
    bounds = [0] + cuts + [n]
    exps = [
        (bounds[i + 1] - bounds[i]) * rng.choice((1, -1)) for i in range(2 * r)
    ]
    return tuple(zip(exps[::2], exps[1::2]))


def _zero_sum_root(rng: random.Random, r: int) -> Syllables:
    """Aperiodic syllables of complexity r with exponent sums (0, 0)."""
    choices = (-2, -1, 1, 2)
    while True:
        exps = [rng.choice(choices) for _ in range(2 * r)]
        syl = tuple(zip(exps[::2], exps[1::2]))
        if exponent_sums(syl) == (0, 0) and power_index(syl) == 1:
            return syl


def _power_root(rng: random.Random) -> Syllables:
    """Aperiodic root with nonzero exponent sums, length <= 8."""
    while True:
        syl = random_canonical(rng, 8, min_length=2)
        if power_index(syl) == 1 and exponent_sums(syl) != (0, 0):
            return syl


@dataclass(frozen=True)
class ClassifyRequest:
    kind: str  # random | family | power | heavy
    syllables: Syllables
    power: int  # free-group power index k with w = v^k; 1 if aperiodic


def classify_stream(seed: int) -> Iterator[ClassifyRequest]:
    """Endless popularity-skewed stream of classify requests.

    With probability CLASSIFY_REPEAT a request repeats an earlier request of
    its kind, chosen uniformly, so a word that has come often is likely to
    come again (a Yule-Simon popularity skew); otherwise it is a fresh word
    of that kind.  Every block of 50 requests holds the same number of each
    kind, in shuffled order.
    """
    rng = random.Random(f"classify-{seed}")
    family = list(itertools.product(FAMILY_EXPONENTS, repeat=4))

    def fresh(kind: str) -> Syllables:
        if kind == "random":
            return random_canonical(rng, RANDOM_MAX_LENGTH)
        if kind == "family":
            a, b, c, d = rng.choice(family)
            return ((a, b), (c, d))
        if kind == "power":
            return _power_root(rng) * rng.choice((2, 3))
        return _zero_sum_root(rng, HEAVY_ROOT_COMPLEXITY) * 2

    history: dict[str, list[ClassifyRequest]] = {kind: [] for kind, _ in CLASSIFY_BLOCK}
    block = [kind for kind, count in CLASSIFY_BLOCK for _ in range(count)]
    while True:
        rng.shuffle(block)
        for kind in block:
            past = history[kind]
            if past and rng.random() < CLASSIFY_REPEAT:
                req = rng.choice(past)
            else:
                syl = fresh(kind)
                req = ClassifyRequest(kind, syl, power_index(syl))
            past.append(req)
            yield req


@dataclass(frozen=True)
class WordAtQ:
    kind: str
    syllables: Syllables
    q: int


def fibers_stream(seed: int) -> Iterator[WordAtQ]:
    """Every q of FIBER_QS with every slot of FIBER_SLOTS, per shuffled block."""
    rng = random.Random(f"fibers-{seed}")
    fixed = {"commutator": COMMUTATOR, "xy_squared": XY_SQUARED, "remark": REMARK}
    while True:
        block = [(q, slot) for q in FIBER_QS for slot in FIBER_SLOTS]
        rng.shuffle(block)
        for q, slot in block:
            if slot == "random":
                syl = random_canonical(rng, FIBER_RANDOM_MAX_LENGTH, min_length=4)
            else:
                syl = fixed[slot]
            yield WordAtQ(slot, syl, q)


def level_random_pool(seed: int) -> list[Syllables]:
    """Distinct aperiodic random words of complexity <= 3 for the level-set workload.

    Proper powers are left out: their f_w is composite, and the spectrum
    probe rejects a composite f_w whose empty levels exceed its bound.
    """
    rng = random.Random(f"levelsets-pool-{seed}")
    pool: list[Syllables] = []
    while len(pool) < LEVEL_RANDOM_POOL:
        syl = random_canonical(rng, LEVEL_RANDOM_MAX_LENGTH, min_length=4)
        if len(syl) <= LEVEL_RANDOM_MAX_COMPLEXITY and power_index(syl) == 1 and syl not in pool:
            pool.append(syl)
    return pool


def levelsets_stream(seed: int, pool: Optional[list[Syllables]] = None) -> Iterator[WordAtQ]:
    """Every q of LEVEL_QS with every slot of LEVEL_SLOTS, per shuffled block."""
    rng = random.Random(f"levelsets-{seed}")
    pool = pool if pool is not None else level_random_pool(seed)
    fixed = {"commutator": COMMUTATOR, "remark": REMARK}
    while True:
        block = [(q, slot) for q in LEVEL_QS for slot in LEVEL_SLOTS]
        rng.shuffle(block)
        for q, slot in block:
            syl = rng.choice(pool) if slot == "random" else fixed[slot]
            yield WordAtQ(slot, syl, q)


def prime_power(q: int) -> tuple[int, int]:
    """(p, n) with q = p^n; raises for other q."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    n, m = 0, q
    while m % p == 0:
        m //= p
        n += 1
    if m != 1:
        raise ValueError(f"not a prime power: {q}")
    return p, n
