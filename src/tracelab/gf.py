"""Small finite fields F_q, q = p^n, with table-backed arithmetic.

Elements are encoded as integers 0..q-1: the element sum(d_i * X^i) in
the polynomial basis F_p[X]/(m) is encoded as sum(d_i * p^i).  The
modulus m is the lexicographically smallest monic irreducible of degree
n over F_p, which makes the encoding reproducible across runs.  Under
this encoding 0 and 1 are the additive and multiplicative identities and
the prime field sits at 0..p-1.

Addition and multiplication tables are q-by-q int64 arrays (2 * 8 * q^2
bytes), all built at once from the base-p digit vectors of the elements,
so that bulk work (enumerating SL(2, q), evaluating polynomials on grids)
can run as fancy indexing instead of per-element Python calls.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

import numpy as np

_MAX_Q = 2048


def _factor_prime_power(q: int) -> Tuple[int, int]:
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    # a q with no factor up to its square root is prime
    p = next((cand for cand in range(2, math.isqrt(q) + 1) if q % cand == 0), q)
    n = 0
    m = q
    while m % p == 0:
        m //= p
        n += 1
    if m != 1:
        raise ValueError(f"not a prime power: {q}")
    return p, n


def _poly_mod(num: List[int], den: List[int], p: int) -> List[int]:
    # dense, low-to-high; den monic; the remainder has exactly deg(den) entries
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return [c % p for c in num[:dd]] + [0] * (dd - len(num))


def _divides(den: List[int], num: List[int], p: int) -> bool:
    rem = _poly_mod(num, den, p)
    return not any(rem)


def _digits(count: int, p: int, n: int) -> np.ndarray:
    """Row e holds the n base-p digits of e, lowest first."""
    return np.arange(count)[:, None] // p ** np.arange(n) % p


def _find_modulus(p: int, n: int) -> List[int]:
    """Smallest monic irreducible of degree n over F_p (low-to-high)."""
    # trial division by monic polynomials of degree 1..n//2
    small = [
        coeffs + [1]
        for d in range(1, n // 2 + 1)
        for coeffs in _digits(p**d, p, d).tolist()
    ]
    for coeffs in _digits(p**n, p, n).tolist():
        cand = coeffs + [1]
        if all(not _divides(s, cand, p) for s in small):
            return cand
    raise RuntimeError("no irreducible found")  # unreachable


class GF:
    """The field with q elements; see module docstring for the encoding."""

    def __init__(self, q: int):
        if q > _MAX_Q:
            raise ValueError(f"field too large for table-based arithmetic: {q}")
        p, n = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.n = n
        self.modulus = _find_modulus(p, n)
        self.zero = 0
        self.one = 1

        digits = _digits(q, p, n)
        place = p ** np.arange(n)
        # reduced[e] holds the digits of X^e mod the modulus, so digit j of
        # a * b is the bilinear form sum_(i,k) a_i * b_k * reduced[i + k, j]
        powers = ([0] * e + [1] for e in range(2 * n - 1))
        reduced = np.array([_poly_mod(x, self.modulus, p) for x in powers])
        forms = reduced[np.add.outer(np.arange(n), np.arange(n))]
        self.add_table = add = np.zeros((q, q), dtype=np.int64)
        self.mul_table = mul = np.zeros((q, q), dtype=np.int64)
        plane = np.empty((q, q), dtype=np.int64)  # the one q-by-q temporary
        for j in range(n):
            for table, op, left, right in (
                (add, np.add, digits[:, j, None], digits[:, j]),
                (mul, np.matmul, digits @ forms[:, :, j], digits.T),
            ):
                op(left, right, out=plane)  # digit j of a + b or a * b, before mod p
                plane %= p
                plane *= place[j]
                table += plane
        self.neg_table = (-digits % p) @ place
        # row 0 of mul holds no 1, which leaves the sentinel inv_table[0] = 0
        self.inv_table = np.argmax(mul == 1, axis=1)
        self.squares = frozenset(mul.diagonal().tolist())

    # scalar ops -------------------------------------------------------------

    # ndarray.item returns a Python int and is about twice as fast as
    # int(table[...]) on these hot per-element paths.

    def add(self, a: int, b: int) -> int:
        return self.add_table.item(a, b)

    def neg(self, a: int) -> int:
        return self.neg_table.item(a)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table.item(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.inv_table.item(a)

    def embed_int(self, c) -> int:
        """Image of an integer (or Fraction) under ZZ -> F_p -> F_q."""
        if type(c) is int:  # the common case; skips the slower ABC isinstance check
            return c % self.p
        if isinstance(c, Fraction):
            if c.denominator % self.p == 0:
                raise ZeroDivisionError("denominator vanishes in this field")
            return (c.numerator * pow(c.denominator, -1, self.p)) % self.p
        return c % self.p

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    """Cached field constructor; fields are immutable once built."""
    return GF(q)


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def primes_in(lo: int, hi: int) -> List[int]:
    return [m for m in range(max(lo, 2), hi + 1) if is_prime(m)]
