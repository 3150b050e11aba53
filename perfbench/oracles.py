"""Reference computations the output checks compare against.

None of this calls tracelab: matrices are plain integer 2x2 matrices modulo
a prime, F_q for prime powers q follows the element encoding documented in
``tracelab.gf`` (base-p digits over the lexicographically smallest monic
irreducible modulus), and the fiber and level-set counts are brute force.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable

import numpy as np

from inputs import Syllables, power_index

Mat = tuple[int, int, int, int]


# -- SL(2, p) over a prime field ----------------------------------------------


def mat_mul(m: Mat, n: Mat, p: int) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def mat_pow(m: Mat, e: int, p: int) -> Mat:
    if e < 0:
        a, b, c, d = m
        m, e = (d, -b % p, -c % p, a), -e  # adjugate inverts det-1 matrices
    out: Mat = (1, 0, 0, 1)
    while e:
        if e & 1:
            out = mat_mul(out, m, p)
        e >>= 1
        if e:
            m = mat_mul(m, m, p)
    return out


def random_sl2(rng: random.Random, p: int) -> Mat:
    while True:
        a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        if a:
            return (a, b, c, (1 + b * c) * pow(a, -1, p) % p)
        if b:
            return (0, b, -pow(b, -1, p) % p, rng.randrange(p))


def word_matrix(syl: Syllables, x: Mat, y: Mat, p: int) -> Mat:
    acc: Mat = (1, 0, 0, 1)
    for a, b in syl:
        acc = mat_mul(acc, mat_pow(x, a, p), p)
        acc = mat_mul(acc, mat_pow(y, b, p), p)
    return acc


def trace_point(syl: Syllables, rng: random.Random, p: int) -> tuple[int, int, int, int]:
    """(s, u, t, tr w(X, Y)) for a random pair X, Y in SL(2, p)."""
    x, y = random_sl2(rng, p), random_sl2(rng, p)
    w = word_matrix(syl, x, y, p)
    xy = mat_mul(x, y, p)
    return (x[0] + x[3]) % p, (xy[0] + xy[3]) % p, (y[0] + y[3]) % p, (w[0] + w[3]) % p


def _mod(c, p: int) -> int:
    if isinstance(c, Fraction):
        return c.numerator * pow(c.denominator, -1, p) % p
    return c % p


def eval_tripoly(f, s: int, u: int, t: int, p: int) -> int:
    """f(s, u, t) mod p from the polynomial's (s, u, t)-exponent terms."""
    return sum(_mod(c, p) * pow(s, i, p) * pow(u, j, p) * pow(t, k, p) for (i, j, k), c in f.terms()) % p


def eval_unipoly(h, z: int, p: int) -> int:
    acc = 0
    for i in range(h.degree, -1, -1):
        acc = (acc * z + _mod(h[i], p)) % p
    return acc


# -- F_q in the documented tracelab encoding ----------------------------------


class RefField:
    """F_q, q = p^n; element code sum(d_i p^i) stands for sum(d_i X^i)."""

    def __init__(self, p: int, n: int):
        self.p, self.n, self.q = p, n, p**n
        self.modulus = self._smallest_irreducible()

    def digits(self, e: int) -> list[int]:
        return [(e // self.p**i) % self.p for i in range(self.n)]

    def code(self, digits: Iterable[int]) -> int:
        return sum((d % self.p) * self.p**i for i, d in enumerate(digits))

    def _smallest_irreducible(self) -> list[int]:
        p, n = self.p, self.n
        if n == 1:
            return [0, 1]
        for low in itertools.product(range(p), repeat=n):
            cand = list(reversed(low)) + [1]  # code order: digit 0 varies fastest
            if not any(_divides(div, cand, p) for div in _monics_up_to(n // 2, p)):
                return cand
        raise AssertionError("no irreducible polynomial found")

    def mul(self, a: int, b: int) -> int:
        prod = [0] * (2 * self.n - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        return self.code(_poly_rem(prod, self.modulus, self.p))

    def add_prime(self, a: int, c: int) -> int:
        """a + c for c in the prime field."""
        d = self.digits(a)
        d[0] += c
        return self.code(d)

    def squares(self) -> set[int]:
        return {self.mul(a, a) for a in range(self.q)}


def _monics_up_to(deg: int, p: int):
    for d in range(1, deg + 1):
        for low in itertools.product(range(p), repeat=d):
            yield list(low) + [1]


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    num = [c % p for c in num]
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return (num + [0] * dd)[:dd]


def _divides(den: list[int], num: list[int], p: int) -> bool:
    return not any(_poly_rem(num, den, p))


def xy_squared_omitted(q: int, p: int, n: int) -> set[int]:
    """Traces missed by (xy)^2 on SL(2, q), q odd: z with z + 2 a non-square.

    tr (xy)^2 = u^2 - 2 with u = tr xy, and every u in F_q is a trace.
    """
    F = RefField(p, n)
    sq = F.squares()
    return {z for z in range(q) if F.add_prime(z, 2) not in sq}


# -- brute-force counts --------------------------------------------------------


def sl2_elements(p: int) -> np.ndarray:
    """All of SL(2, p), p prime, as an (|G|, 4) array of (a, b, c, d)."""
    rows = [m for m in itertools.product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p == 1]
    return np.array(rows, dtype=np.int64)


def _batch_mul(m: np.ndarray, n: np.ndarray, p: int) -> np.ndarray:
    a, b, c, d = m.T
    e, f, g, h = n.T
    return np.stack([(a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p], axis=1)


def _batch_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    if e < 0:
        a, b, c, d = m.T
        m, e = np.stack([d, -b % p, -c % p, a], axis=1), -e
    out = np.tile(np.array([1, 0, 0, 1], dtype=np.int64), (m.shape[0], 1))
    for _ in range(e):
        out = _batch_mul(out, m, p)
    return out


def brute_word_values(syl: Syllables, p: int) -> np.ndarray:
    """w(x, y) for every pair of SL(2, p), as an (|G|^2, 4) array."""
    g = sl2_elements(p)
    xs = np.repeat(g, g.shape[0], axis=0)
    ys = np.tile(g, (g.shape[0], 1))
    acc = np.tile(np.array([1, 0, 0, 1], dtype=np.int64), (xs.shape[0], 1))
    for a, b in syl:
        acc = _batch_mul(acc, _batch_pow(xs, a, p), p)
        acc = _batch_mul(acc, _batch_pow(ys, b, p), p)
    return acc


def brute_level_counts(f, q: int) -> np.ndarray:
    """N_z = #{(s, u, t) in F_q^3 : f = z} for prime q, by full evaluation."""
    grid = np.arange(q, dtype=np.int64)
    pows = [np.ones(q, dtype=np.int64)]
    for _ in range(max(max(key) for key, _ in f.terms())):
        pows.append(pows[-1] * grid % q)
    acc = np.zeros((q, q, q), dtype=np.int64)
    for (i, j, k), c in f.terms():
        st = _mod(c, q) * pows[i][:, None] % q * pows[k][None, :] % q
        acc = (acc + st[:, None, :] * pows[j][None, :, None]) % q
    return np.bincount(acc.ravel(), minlength=q)


def scan_reference(n_max: int) -> dict[int, tuple[int, int]]:
    """Cumulative (words, proper powers) by length, by direct enumeration."""
    by_len: dict[int, list[int]] = {}
    for n in range(2, n_max + 1):
        cell = by_len.setdefault(n, [0, 0])
        for r in range(1, n // 2 + 1):
            for cuts in itertools.combinations(range(1, n), 2 * r - 1):
                bounds = (0,) + cuts + (n,)
                mags = [bounds[i + 1] - bounds[i] for i in range(2 * r)]
                for signs in itertools.product((1, -1), repeat=2 * r):
                    exps = [m * s for m, s in zip(mags, signs)]
                    syl = tuple(zip(exps[::2], exps[1::2]))
                    cell[0] += 1
                    cell[1] += power_index(syl) > 1
    out, total, powers = {}, 0, 0
    for n in sorted(by_len):
        total += by_len[n][0]
        powers += by_len[n][1]
        out[n] = (total, powers)
    return out
