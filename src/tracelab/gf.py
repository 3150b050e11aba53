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
can run as fancy indexing instead of per-element Python calls.  A third
table, q times the product (``GF.scaled_mul_table``), is built on its first
read and kept: a product read from it is already scaled for the next flat
index q x + y of a q-by-q table, so the matrix products of ``sl2`` scale
each entry of the left factor once rather than each product.

The module also owns the integer arithmetic under them, in time
polynomial in the digits: primality (``is_prime``), exact integer roots
and the factorization of a prime power q = p^n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import List, Optional, Tuple

import numpy as np

_MAX_Q = 2048


# The first 13 primes, and psi_k for k = 1..13, the least composite that
# passes strong probable-prime tests to the first k of them (Jaeschke,
# Math. Comp. 61, 1993; Jiang and Deng, Math. Comp. 83, 2014; Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017): an m below psi_k that passes the first k tests is prime.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


def _iroot(m: int, n: int) -> Optional[int]:
    """Exact n-th root of an integer m >= 0 by integer Newton iteration, or None."""
    if m < 2:
        return m
    x = 1 << ((m.bit_length() + n - 1) // n + 1)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x**n == m else None


def _factor_prime_power(q: int) -> Tuple[int, int]:
    """(p, n) with q = p^n and p prime, else ValueError, in time polynomial in q's digits.

    The exact k-th roots of q are tried from k = q.bit_length() down: if q
    = p^n, no k > n has one, so the first prime root is p at k = n.
    """
    for n in range(q.bit_length(), 0, -1):
        p = _iroot(q, n)
        if p is not None and is_prime(p):
            return p, n
    raise ValueError(f"not a prime power: {q}")


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

    @cached_property
    def scaled_mul_table(self) -> np.ndarray:
        """q * mul_table, read-only, built on first use and kept with the field."""
        table = self.mul_table * self.q
        table.flags.writeable = False
        return table

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
    """Whether m is prime: trial division by the first 13 primes, then strong probable-prime tests to them.

    The tests stop at the first k whose psi_k exceeds m, so every answer is
    exact; a probable prime past psi_13 is undecided, and ValueError.
    """
    if m <= 41:
        return m in _SMALL_PRIMES
    for a in _SMALL_PRIMES:
        if m % a == 0:
            return False
    if m < 43 * 43:  # a composite with no prime factor up to 41 is at least 43^2
        return True
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2^s with d odd
    d = (m - 1) >> s
    for a, psi in zip(_SMALL_PRIMES, _PSI):
        x = pow(a, d, m)
        if x != 1 and x != m - 1:
            for _ in range(s - 1):
                x = x * x % m
                if x == m - 1:
                    break
            else:
                return False
        if m < psi:
            return True
    raise ValueError(f"primality past {_PSI[-1]} is not decided: {m}")


def primes_in(lo: int, hi: int) -> List[int]:
    """The primes in [lo, hi], ascending: the small ones read off ``_SMALL_PRIMES``, the odd m past them tested."""
    small = [m for m in _SMALL_PRIMES if lo <= m <= hi]
    return small + [m for m in range(max(lo, 42) | 1, hi + 1, 2) if is_prime(m)]
