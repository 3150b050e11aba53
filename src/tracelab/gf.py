"""Small finite fields F_q, q = p^n, with table-backed arithmetic.

Elements are encoded as integers 0..q-1: the element sum(d_i * X^i) in
the polynomial basis F_p[X]/(m) is encoded as sum(d_i * p^i).  The
modulus m is the lexicographically smallest monic irreducible of degree
n over F_p, which makes the encoding reproducible across runs.  Under
this encoding 0 and 1 are the additive and multiplicative identities and
the prime field sits at 0..p-1.

Addition and multiplication tables are precomputed as numpy arrays so
that bulk work (enumerating SL(2, q), evaluating polynomials on grids)
can run as fancy indexing instead of per-element Python calls.  These
fields are meant for q up to a few hundred; the tables are q-by-q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np

_MAX_Q = 2048


def _factor_prime_power(q: int) -> Tuple[int, int]:
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = None
    for cand in range(2, q + 1):
        if q % cand == 0:
            p = cand
            break
    n = 0
    m = q
    while m % p == 0:
        m //= p
        n += 1
    if m != 1:
        raise ValueError(f"not a prime power: {q}")
    return p, n


def _poly_mod(num: List[int], den: List[int], p: int) -> List[int]:
    # dense, low-to-high; den monic
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    out = [c % p for c in num[:dd]]
    return out


def _poly_mul(a: List[int], b: List[int], p: int) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _divides(den: List[int], num: List[int], p: int) -> bool:
    rem = _poly_mod(num, den, p)
    return not any(rem)


def _find_modulus(p: int, n: int) -> List[int]:
    """Smallest monic irreducible of degree n over F_p (low-to-high)."""
    if n == 1:
        return [0, 1]
    # trial division by monic polynomials of degree 1..n//2
    small: List[List[int]] = []
    for d in range(1, n // 2 + 1):
        for code in range(p**d):
            coeffs = []
            c = code
            for _ in range(d):
                coeffs.append(c % p)
                c //= p
            small.append(coeffs + [1])
    for code in range(p**n):
        coeffs = []
        c = code
        for _ in range(n):
            coeffs.append(c % p)
            c //= p
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

        def decode(e: int) -> List[int]:
            digits = []
            for _ in range(n):
                digits.append(e % p)
                e //= p
            return digits

        def encode(digits: List[int]) -> int:
            e = 0
            for d in reversed(digits):
                e = e * p + (d % p)
            return e

        polys = [decode(e) for e in range(q)]
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            pa = polys[a]
            for b in range(a, q):
                pb = polys[b]
                s = encode([(x + y) % p for x, y in zip(pa, pb)])
                add[a, b] = add[b, a] = s
                prod = _poly_mod(_poly_mul(pa, pb, p), self.modulus, p)
                prod += [0] * (n - len(prod))
                m = encode(prod)
                mul[a, b] = mul[b, a] = m
        self.add_table = add
        self.mul_table = mul
        self.neg_table = np.array(
            [encode([(-x) % p for x in polys[a]]) for a in range(q)], dtype=np.int64
        )
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = np.argmax(mul[1:] == 1, axis=1)  # the column where a * b = 1
        self.inv_table = inv  # inv_table[0] = 0 is a sentinel, never valid
        self.squares = frozenset(int(mul[a, a]) for a in range(q))

    # scalar ops -------------------------------------------------------------

    @property
    def characteristic(self) -> int:
        return self.p

    # ndarray.item returns a Python int and is about twice as fast as
    # int(table[...]) on these hot per-element paths.

    def add(self, a: int, b: int) -> int:
        return self.add_table.item(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.add_table.item(a, self.neg_table.item(b))

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

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        acc = 1
        while e:
            if e & 1:
                acc = self.mul_table.item(acc, a)
            e >>= 1
            if e:
                a = self.mul_table.item(a, a)
        return acc

    def quad_root_count(self, z: int) -> int:
        """Number of roots in F_q of lambda^2 - z*lambda + 1."""
        count = 0
        for lam in range(self.q):
            lhs = self.add(
                self.mul(lam, lam),
                self.add(self.neg(self.mul(z, lam)), self.one),
            )
            if lhs == 0:
                count += 1
        return count

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    """Cached field constructor; fields are immutable once built."""
    return GF(q)


def prime_powers(lo: int, hi: int) -> List[int]:
    """All prime powers q with lo <= q <= hi, ascending."""
    out = []
    for q in range(max(lo, 2), hi + 1):
        try:
            _factor_prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


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
