"""Reduced words in the free group on two generators x and y.

A word is stored as a tuple of blocks ``(gen, exp)`` with ``gen`` 0 for x
and 1 for y, nonzero integer exponents, and no two adjacent blocks on the
same generator (free reduction).  The canonical shape used everywhere else
in the package starts with an x-block and ends with a y-block, so the word
factors into syllables x^a_i y^b_i.  Words that cannot be brought to that
shape by conjugation -- the empty word and pure powers x^a, y^b -- are
*degenerate*; they are legal values, and operations that need complexity
r >= 1 reject them explicitly.

Text syntax: letters x, y, X, Y (capitals are inverses), each optionally
followed by ``^`` and a signed decimal exponent; whitespace is ignored.
Canonical rendering is lowercase with caret exponents, e.g. ``x^2y^-1xy``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from .gf import is_prime

X = 0
Y = 1

_LETTERS = {"x": (X, 1), "X": (X, -1), "y": (Y, 1), "Y": (Y, -1)}
_NAMES = {X: "x", Y: "y"}

Block = Tuple[int, int]


class WordSyntaxError(ValueError):
    """Malformed word text: bad character, malformed or zero exponent."""


class DegenerateWordError(ValueError):
    """The operation needs a non-degenerate (complexity >= 1) word."""


def _reduce(blocks: Sequence[Block]) -> Tuple[Block, ...]:
    out: list[Block] = []
    for gen, exp in blocks:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


def _invert(blocks: Tuple[Block, ...]) -> Tuple[Block, ...]:
    return tuple((g, -e) for g, e in reversed(blocks))


def _cyclic_reduce(blocks: Tuple[Block, ...]) -> Tuple[Tuple[Block, ...], int]:
    """(core, k) with blocks = c * core * c^-1 for c = blocks[:k], core cyclically reduced.

    Each of the k merges folds the first block into the last, so that core
    keeps an original block in front; blocks must be freely reduced.  Two
    indices walk inward, so the cost is linear in the blocks: core is
    blocks[i:j] followed by last, the merged last block.  A merge that
    cancels leaves at least one block, as adjacent blocks differ.
    """
    if len(blocks) < 2 or blocks[0][0] != blocks[-1][0]:
        return blocks, 0  # already cyclically reduced, the common case
    i, j, last = 0, len(blocks) - 1, blocks[-1]
    while i < j and blocks[i][0] == last[0]:
        e = blocks[i][1] + last[1]
        i += 1
        if e:
            last = (last[0], e)
        else:
            j -= 1
            last = blocks[j]
    return blocks[i:j] + (last,), i


def _period(blocks: Tuple[Block, ...]) -> int:
    """Least even m with blocks = blocks[:m] repeated; len(blocks) when there is none."""
    n = len(blocks)
    for m in range(2, n // 2 + 1, 2):
        if n % m == 0 and blocks == blocks[:m] * (n // m):
            return m
    return n


@dataclass(frozen=True)
class Word:
    """A freely reduced word; immutable and usable as a dict key."""

    blocks: Tuple[Block, ...] = ()

    @staticmethod
    def from_blocks(blocks: Sequence[Block]) -> "Word":
        return Word(_reduce(blocks))

    @staticmethod
    def from_syllables(syllables: Sequence[Tuple[int, int]]) -> "Word":
        blocks: list[Block] = []
        for a, b in syllables:
            blocks.append((X, a))
            blocks.append((Y, b))
        return Word(_reduce(blocks))

    @staticmethod
    def identity() -> "Word":
        return Word(())

    # -- basic structure -------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.blocks

    @property
    def is_degenerate(self) -> bool:
        return len(self.blocks) <= 1

    @property
    def is_canonical(self) -> bool:
        return (
            bool(self.blocks)
            and self.blocks[0][0] == X
            and self.blocks[-1][0] == Y
        )

    def _require_canonical(self) -> None:
        if not self.is_canonical:
            raise DegenerateWordError(f"word {self!r} is not in canonical form")

    @property
    def syllables(self) -> Tuple[Tuple[int, int], ...]:
        self._require_canonical()
        it = iter(self.blocks)
        return tuple((a, b) for (_, a), (_, b) in zip(it, it))

    @property
    def complexity(self) -> int:
        """The number of syllables, read from the block count of a canonical word."""
        self._require_canonical()
        return len(self.blocks) // 2

    @property
    def length(self) -> int:
        return sum(abs(e) for _, e in self.blocks)

    # -- group operations ------------------------------------------------

    def inverse(self) -> "Word":
        return Word(_invert(self.blocks))

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce(self.blocks + other.blocks))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        out = Word.identity()
        for _ in range(k):
            out = out * self
        return out

    def render(self) -> str:
        parts = []
        for gen, exp in self.blocks:
            name = _NAMES[gen]
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.render() or "1"

    def __repr__(self) -> str:
        return f"Word({self.render()!r})"


def parse(text: str) -> Word:
    """Parse word text into a freely reduced :class:`Word`.

    Cyclically unreduced input is preserved; use :func:`canonicalize` for
    the conjugation-normalized form.
    """
    blocks: list[Block] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in _LETTERS:
            raise WordSyntaxError(f"invalid character {ch!r} at position {i}")
        gen, sign = _LETTERS[ch]
        i += 1
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            j = i
            if j < n and text[j] == "-":
                j += 1
            k = j
            while k < n and "0" <= text[k] <= "9":  # ASCII only: str.isdigit admits '²' and '٣'
                k += 1
            if k == j:
                raise WordSyntaxError(f"malformed exponent at position {i}")
            try:
                exp = int(text[i:k])
            except ValueError:  # past the interpreter's limit on int-string digits
                raise WordSyntaxError(f"exponent too long at position {i}") from None
            if exp == 0:
                raise WordSyntaxError(f"zero exponent at position {i}")
            i = k
        blocks.append((gen, sign * exp))
    return Word(_reduce(blocks))


@dataclass(frozen=True)
class CanonicalizeRecord:
    """How the canonical word was obtained: original = c * canonical * c^-1."""

    conjugator: Word
    degenerate: bool


# the record of every word that is already canonical
_CANONICAL = CanonicalizeRecord(conjugator=Word(()), degenerate=False)


def canonicalize(w: Word) -> Tuple[Word, CanonicalizeRecord]:
    """Cyclically reduce and rotate so the word starts with an x-power.

    Pure powers of a single generator come back flagged degenerate; the
    empty word is an error.  Rotation and cyclic reduction are conjugations,
    so every trace-level quantity is unchanged.  The conjugator is a prefix
    of w: the blocks ``_cyclic_reduce`` merges away and a rotated y-block.
    A word that is already canonical, from an x-block to a y-block, is
    cyclically reduced and needs no rotation, so it comes back as it is,
    with an empty conjugator.
    """
    if w.is_canonical:
        return w, _CANONICAL
    if w.is_empty:
        raise DegenerateWordError("cannot canonicalize the empty word")
    blocks, k = _cyclic_reduce(w.blocks)
    if len(blocks) >= 2 and blocks[0][0] == Y:
        blocks = blocks[1:] + blocks[:1]
        k += 1
    out = Word(blocks)
    return out, CanonicalizeRecord(conjugator=Word(w.blocks[:k]), degenerate=out.is_degenerate)


@dataclass(frozen=True)
class WordStats:
    r: int
    A: int
    B: int
    Abar: int
    Bbar: int
    length: int


def _exponent_sums(blocks: Tuple[Block, ...]) -> Tuple[int, int, int, int]:
    """(A, B, Abar, Bbar): the signed and absolute exponent sums on x and on y, in one pass."""
    A = B = Abar = Bbar = 0
    for gen, exp in blocks:
        if gen == X:
            A += exp
            Abar += abs(exp)
        else:
            B += exp
            Bbar += abs(exp)
    return A, B, Abar, Bbar


def stats(w: Word) -> WordStats:
    r = w.complexity  # raises on non-canonical input
    A, B, Abar, Bbar = _exponent_sums(w.blocks)
    return WordStats(r=r, A=A, B=B, Abar=Abar, Bbar=Bbar, length=Abar + Bbar)


def proper_power_root(w: Word) -> Tuple[Word, int]:
    """Maximal (v, k) with w = v^k in the free group; k = 1 if aperiodic.

    v is the canonical w cut at its least period (``_period``), as in TraceEngine.
    """
    n = 2 * w.complexity  # raises on non-canonical input
    m = _period(w.blocks)
    return Word(w.blocks[:m]), n // m


# -- enumeration and sampling ---------------------------------------------

def _compositions(n: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _signed(word_shape: Tuple[int, ...], signbits: int) -> Tuple[Block, ...]:
    """The blocks x^m1 y^m2 x^m3 ... of a shape of even length, bit i of signbits negating m_(i+1).

    The exponents are nonzero and the generators alternate, so the blocks
    are freely reduced, and canonical.
    """
    return tuple(
        (Y if i & 1 else X, -m if (signbits >> i) & 1 else m) for i, m in enumerate(word_shape)
    )


# the candidate sets a scan or sampler may be restricted to
CONSTRAINTS = ("any", "prime-complexity")


def _candidate_cells(max_length: int, constraint: str):
    """(n, r, count) cells of the candidate set under a constraint, with exact counts.

    The candidate set is every canonical word of length <= max_length
    (syllable exponent lists with the stated sign choices), under
    "prime-complexity" only those of prime complexity.
    """
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    cells = []
    for n in range(2, max_length + 1):
        for r in range(1, n // 2 + 1):
            if constraint == "prime-complexity" and not is_prime(r):
                continue
            count = math.comb(n - 1, 2 * r - 1) * 4**r
            cells.append((n, r, count))
    return cells


def enumerate_words(max_length: int, constraint: str = "any") -> Iterator[Word]:
    """All candidate words of length <= max_length, in a fixed order."""
    return (
        Word(_signed(shape, bits))
        for n, r, _ in _candidate_cells(max_length, constraint)
        for shape in _compositions(n, 2 * r)
        for bits in range(1 << (2 * r))
    )


def _orbit_representatives(max_length: int, constraint: str) -> Iterator[Tuple[Word, int]]:
    """(word, orbit size) for one candidate word per symmetry orbit, in a fixed order.

    A canonical word of complexity r is the cycle of its 2r block exponents,
    x at the even positions.  Rotating the cycle by one position (swap x and
    y, then conjugate), the reflection that fixes position 0 (reverse, then
    conjugate) and negating the even or the odd positions (x -> x^-1 or
    y -> y^-1) generate D_2r acting on the positions and (Z/2)^2 on the
    signs, a group of order 16r that keeps the length and the complexity.
    A shape (the exponents' absolute values) is kept when it is the least of
    its 4r dihedral images; S is its stabiliser.  The flips clear bits 0 and
    1 of any sign pattern in exactly one way, so a pattern with both clear
    is kept when no element of S, followed by that clearing, makes it
    smaller.  Its orbit holds 4r / |S| shapes, each with 4 patterns per
    distinct cleared image under S.  Nothing is kept from one shape to the
    next, so memory stays flat.
    """
    for n, r, _ in _candidate_cells(max_length, constraint):
        size = 2 * r
        full = (1 << size) - 1
        evens = full // 3  # bits 0, 2, 4, ...
        for shape in _compositions(n, size):
            stabiliser = _least_shape_stabiliser(shape)
            if stabiliser is None:
                continue
            shapes = 4 * r // len(stabiliser)
            for bits in range(0, 1 << size, 4):
                images = set()
                for j, reflected in stabiliser:
                    q = _mirrored(bits, size) if reflected else bits
                    q = ((q >> j) | (q << (size - j))) & full
                    if q & 1:
                        q ^= evens
                    if q & 2:
                        q ^= full ^ evens
                    if q < bits:
                        break
                    images.add(q)
                else:
                    yield Word(_signed(shape, bits)), shapes * 4 * len(images)


def _mirrored(bits: int, size: int) -> int:
    """A sign pattern under the reflection that fixes position 0: bit i becomes bit -i."""
    return sum(((bits >> (-i % size)) & 1) << i for i in range(size))


def _least_shape_stabiliser(shape: Tuple[int, ...]):
    """The moves (j, reflected) that fix a cyclic shape, or None when one makes it smaller.

    Move (j, False) rotates the cycle by j positions and (j, True) rotates
    its mirror, the reflection that fixes position 0, by j positions.
    """
    size = len(shape)
    mirror = shape[:1] + shape[:0:-1]  # position i holds shape[-i]
    stabiliser = []
    for j in range(size):
        for reflected, seq in ((False, shape), (True, mirror)):
            image = seq[j:] + seq[:j]
            if image < shape:
                return None
            if image == shape:
                stabiliser.append((j, reflected))
    return stabiliser


def sample_words(
    max_length: int,
    count: int,
    seed: int = 0,
    constraint: str = "any",
) -> Iterator[Word]:
    """Deterministic stream of canonical words, uniform over the candidate set.

    The arguments are checked at the call, before the first word is drawn.
    """
    cells = _candidate_cells(max_length, constraint)
    if not cells:
        raise ValueError(f"no {constraint!r} candidate words of length <= {max_length}")
    return _sampled(cells, count, random.Random(seed))


def _sampled(cells, count: int, rng: random.Random) -> Iterator[Word]:
    total = sum(c for _, _, c in cells)
    for _ in range(count):
        idx = rng.randrange(total)
        for n, r, c in cells:
            if idx < c:
                break
            idx -= c
        cuts = sorted(rng.sample(range(1, n), 2 * r - 1))
        bounds = [0] + cuts + [n]
        shape = tuple(bounds[i + 1] - bounds[i] for i in range(2 * r))
        bits = rng.getrandbits(2 * r)
        yield Word(_signed(shape, bits))
