"""Dense univariate polynomials and the classical recurrence families.

Two families built on one recurrence, f_{n+1} = z*f_n - f_{n-1}, whose
single loop is ``_recurrence``:

* ``chebyshev_v``: V_0 = 0, V_1 = 1.  These satisfy M^n = V_n(tr M)*M -
  V_{n-1}(tr M)*I for M in SL(2), which is how a block x^e of a word
  enters the trace engine's product.  Their coefficients have the closed
  form V_n(z) = sum_k (-1)^k C(n-1-k, k) z^(n-1-2k), which
  ``_chebyshev_terms`` fills in one pass over integers, O(n) operations
  where the recurrence takes O(n^2).
* ``dickson``: D_0 = 2, D_1 = z.  These satisfy D_n(tr M) = tr(M^n),
  D_{-n} = D_n, and D_{nm} = D_n(D_m); they are the permutation-like
  outer compositions that do not break equidistribution.

``dickson_apply`` evaluates D_n at any ring element supporting +, -, *
and a ``ring_const`` hook, without building D_n's coefficients first.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .tripoly import _norm_coeff, _power, _render_terms, _residue


class UniPoly:
    """Polynomial in one variable with exact scalar coefficients."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs: List, p: Optional[int] = None):
        cs = [_norm_coeff(c, p) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs
        self.p = p

    @staticmethod
    def const(c, p: Optional[int] = None) -> "UniPoly":
        return UniPoly([c], p)

    @staticmethod
    def var(p: Optional[int] = None) -> "UniPoly":
        return UniPoly([0, 1], p)

    def ring_const(self, c) -> "UniPoly":
        return UniPoly([c], self.p)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coeff(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, tuple(self.coeffs)))

    def _check(self, other: "UniPoly"):
        if self.p != other.p:
            raise ValueError(f"mixed coefficient rings: {self.p} vs {other.p}")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] + other[i] for i in range(n)], self.p)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] - other[i] for i in range(n)], self.p)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs], self.p)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return UniPoly([], self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out, self.p)

    def scale(self, c) -> "UniPoly":
        return UniPoly([a * c for a in self.coeffs], self.p)

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        return _power(self, n, UniPoly.__mul__) if n else UniPoly.const(1, self.p)

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner) by Horner over the polynomial ring."""
        self._check(inner)
        acc = UniPoly([], self.p)
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.const(c, self.p)
        return acc

    def reduce_mod(self, p: int) -> "UniPoly":
        if self.p is not None:
            raise ValueError("already over a prime field")
        return UniPoly([_residue(c, p) for c in self.coeffs], p)

    def render(self, var: str = "z") -> str:
        terms = (
            (c, "" if e == 0 else var if e == 1 else f"{var}^{e}")
            for e, c in reversed(list(enumerate(self.coeffs)))
            if c
        )
        return _render_terms(terms, self.p)

    def __repr__(self) -> str:
        ring = "QQ" if self.p is None else f"F{self.p}"
        return f"UniPoly[{ring}]({self.render()})"


def _recurrence(n: int, z, a, b):
    """(f_{n-1}, f_n) for f_0 = a, f_1 = b, f_{k+1} = z*f_k - f_{k-1}; n >= 1."""
    for _ in range(n - 1):
        a, b = b, z * b - a
    return a, b


def _chebyshev_terms(n: int) -> List[Tuple[int, int]]:
    """(degree, coefficient) of each term of V_n, n >= 0, from the top degree down.

    The coefficient of z^(m-2k), m = n - 1, is (-1)^k C(m-k, k), and
    C(m-k, k) = C(m-k+1, k-1) (m-2k+2)(m-2k+1) / (k (m-k+1)) exactly.
    """
    m = n - 1
    terms = []
    c = 1
    for k in range((n + 1) // 2):
        if k:
            c = -c * (m - 2 * k + 2) * (m - 2 * k + 1) // (k * (m - k + 1))
        terms.append((m - 2 * k, c))
    return terms


def chebyshev_v(n: int, p: Optional[int] = None) -> UniPoly:
    """V_n with V_0 = 0, V_1 = 1, V_{n+1} = z*V_n - V_{n-1}; V_{-n} = -V_n."""
    if n < 0:
        return -chebyshev_v(-n, p)
    coeffs = [0] * max(n, 0)
    for e, c in _chebyshev_terms(n):
        coeffs[e] = c
    return UniPoly(coeffs, p)


def dickson(n: int, p: Optional[int] = None) -> UniPoly:
    """D_n with D_0 = 2, D_1 = z, D_{n+1} = z*D_n - D_{n-1}; D_{-n} = D_n."""
    return dickson_apply(n, UniPoly.var(p))


def dickson_apply(n: int, g):
    """D_n(g) for any ring element with +, -, * and ring_const."""
    n = abs(n)
    two = g.ring_const(2)
    if n == 0:
        return two
    return _recurrence(n, g, two, g)[1]

