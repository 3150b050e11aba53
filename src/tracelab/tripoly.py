"""Exact sparse polynomials in the trace coordinates s, u, t.

Coefficients are arbitrary-precision integers (Fractions are allowed in
characteristic 0, where intermediate decompositions need them) or residues
modulo a prime p.  The rules for these scalars (normalizing, reduction
mod p, division, n-th roots and signed rendering) live here once, in
private helpers that ``unipoly`` and ``decompose`` share, as does
``_power``, the one square-and-multiply, with ``unipoly`` and ``sl2``.

Monomials are packed into a single integer key, 16 bits per exponent,
ordered (s, u, t) from high to low; packed keys add under monomial
multiplication and compare lexicographically, which keeps the arithmetic
loops tight.

The rendered text is output only, and its format is fixed: monomials
sorted by u-degree, then s-degree, then t-degree, all descending; each
monomial renders its variables alphabetically (s, t, u) with unit parts
omitted; terms join with `` + `` / `` - ``.  Example:
``u^2 - s*t*u + s^2 + t^2 - 2``.  Nothing in the library parses it back.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .gf import _iroot, is_prime

_SH_S = 32
_SH_U = 16
_MASK = (1 << 16) - 1
_MAX_EXP = (1 << 15) - 1  # headroom so one key addition never carries between fields


def _pack(i: int, j: int, k: int) -> int:
    if i > _MAX_EXP or j > _MAX_EXP or k > _MAX_EXP or min(i, j, k) < 0:
        raise ValueError(f"exponent out of range: {(i, j, k)}")
    return (i << _SH_S) | (j << _SH_U) | k


def _unpack(key: int) -> Tuple[int, int, int]:
    return key >> _SH_S, (key >> _SH_U) & _MASK, key & _MASK


# -- scalar rules for QQ (p is None) and F_p ------------------------------------


def _norm_coeff(c, p: Optional[int]):
    """Canonical scalar: a residue mod p, or over QQ an int when c is integral."""
    if p is not None:
        return c % p if type(c) is int else _residue(c, p)
    # exact type test: an ABC isinstance check costs several times more on this hot path
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _norm_dict(coeffs: Dict[int, object], p: Optional[int]) -> Dict[int, object]:
    """``_norm_coeff`` applied to every value of a coefficient dict, zeros dropped.

    One pass per ring: ints take the inline path and only Fractions reach
    the scalar rules.
    """
    if p is not None:
        return {
            key: r
            for key, c in coeffs.items()
            if (r := c % p if type(c) is int else _residue(c, p))
        }
    return {
        key: c.numerator if type(c) is Fraction and c.denominator == 1 else c
        for key, c in coeffs.items()
        if c
    }


def _residue(c, p: int) -> int:
    """Image of a rational scalar in F_p; ValueError when p divides its denominator."""
    if type(c) is Fraction:
        if c.denominator % p == 0:
            raise ValueError("denominator not invertible mod p")
        return c.numerator * pow(c.denominator, -1, p) % p
    return c % p


def _div(a, b, p: Optional[int]):
    """a / b in QQ or F_p, normalized; b must be a unit."""
    if p is not None:
        return a * pow(b, -1, p) % p
    return _norm_coeff(Fraction(a) / Fraction(b), None)


def _nth_roots(c, n: int, p: Optional[int]) -> list:
    """All n-th roots of the scalar c: ascending in F_p; over QQ the positive root first."""
    if p is not None:
        return _roots_mod_p(c % p, n, p)
    frac = Fraction(c)
    if frac == 0:
        return [0]
    if frac < 0 and n % 2 == 0:
        return []
    num = _iroot(abs(frac.numerator), n)
    den = _iroot(frac.denominator, n)
    if num is None or den is None:
        return []
    root = _norm_coeff(Fraction(num if frac > 0 else -num, den), None)
    return [root, -root] if n % 2 == 0 else [root]


def _roots_mod_p(c: int, n: int, p: int) -> list:
    """All x in F_p with x^n = c, ascending, for n >= 1, without a scan of F_p.

    F_p* is cyclic of order m = p - 1, and with g = gcd(n, m) the n-th
    powers are the g-th powers, the c with c^(m/g) = 1, each with g roots:
    one root times the g-th roots of unity.  Write m = mA * mB, with mA
    made of the primes of g and mB prime to g, and split c = cA * cB
    between the subgroups of those orders.  On the subgroup of order mB,
    x -> x^g is a bijection.  On the one of order mA, with a generator z,
    cA = z^L by Pohlig-Hellman (a search of l digits for each prime l of
    g), g divides L, and z^(L/g) is a g-th root.  With a*n = g (mod m),
    y^a is an n-th root of c when y^g = c, and z^(mA/g) generates the g-th
    roots of unity.
    """
    if c == 0:
        return [0]
    m = p - 1
    g = math.gcd(n, m)
    if pow(c, m // g, p) != 1:
        return []
    primes = [l for l in range(2, g + 1) if g % l == 0 and is_prime(l)]
    ma = 1
    for l in primes:
        while m % (ma * l) == 0:
            ma *= l
    mb = m // ma
    y = pow(c, ma * pow(ma, -1, mb) * pow(g, -1, mb), p)
    zeta = 1
    if g > 1:
        ca = pow(c, mb * pow(mb, -1, ma), p)
        z = next(
            z
            for z in (pow(b, mb, p) for b in range(2, p))
            if all(pow(z, ma // l, p) != 1 for l in primes)
        )
        y = y * pow(z, _discrete_log(ca, z, ma, primes, p) // g, p) % p
        zeta = pow(z, ma // g, p)
    x = pow(y, pow(n // g, -1, m // g), p)
    roots = [x]
    for _ in range(g - 1):
        roots.append(roots[-1] * zeta % p)
    return sorted(roots)


def _discrete_log(h: int, z: int, order: int, primes: list, p: int) -> int:
    """L in [0, order) with z^L = h mod p, z of that order, whose primes are all in ``primes``."""
    log, modulus = 0, 1
    for l in primes:
        e = 0
        while order % l ** (e + 1) == 0:
            e += 1
        cofactor = order // l**e
        gamma, target = pow(z, cofactor, p), pow(h, cofactor, p)
        base = pow(gamma, l ** (e - 1), p)  # of order l
        digits = 0
        for k in range(e):
            step = pow(target * pow(gamma, -digits, p), l ** (e - 1 - k), p)
            digits += next(d for d in range(l) if pow(base, d, p) == step) * l**k
        # CRT: log mod modulus and digits mod l^e
        log += modulus * ((digits - log) * pow(modulus, -1, l**e) % l**e)
        modulus *= l**e
    return log


def _render_terms(terms: Iterable[Tuple[object, str]], p: Optional[int]) -> str:
    """Join (coefficient, monomial text) pairs, nonzero coefficients in display order.

    The constant monomial has empty text.  Over QQ negative coefficients
    print as a subtraction; residues mod p print as they are.
    """
    pieces = []
    for c, mono in terms:
        neg = p is None and c < 0
        mag = -c if neg else c
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if pieces:
            pieces.append(" - " if neg else " + ")
        elif neg:
            pieces.append("-")
        pieces.append(body)
    return "".join(pieces) or "0"


def _power(base, n: int, mul):
    """base^n for n >= 1 by square-and-multiply, with mul(a, b) the product."""
    if n < 1:
        raise ValueError(f"power {n} < 1")
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


class TriPoly:
    """Immutable-by-convention sparse polynomial in s, u, t."""

    __slots__ = ("_c", "p")

    def __init__(self, coeffs: Dict[int, object], p: Optional[int] = None):
        # assumes packed keys; normalizes and drops zeros
        self._c = _norm_dict(coeffs, p)
        self.p = p

    @classmethod
    def _normal(cls, c: Dict[int, object], p: Optional[int]) -> "TriPoly":
        """Wrap a dict that is already normal for ``p``, without another pass."""
        self = object.__new__(cls)
        self._c = c
        self.p = p
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(p: Optional[int] = None) -> "TriPoly":
        return TriPoly({}, p)

    @staticmethod
    def const(c, p: Optional[int] = None) -> "TriPoly":
        return TriPoly({0: c}, p)

    @staticmethod
    def var(name: str, p: Optional[int] = None) -> "TriPoly":
        i, j, k = {"s": (1, 0, 0), "u": (0, 1, 0), "t": (0, 0, 1)}[name]
        return TriPoly({_pack(i, j, k): 1}, p)

    def ring_const(self, c) -> "TriPoly":
        """Constant polynomial in the same coefficient ring as self."""
        return TriPoly({0: c}, self.p)

    # -- inspection ---------------------------------------------------------

    def terms(self) -> Iterator[Tuple[Tuple[int, int, int], object]]:
        for key, c in self._c.items():
            yield _unpack(key), c

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_constant(self) -> bool:
        return not self._c or (len(self._c) == 1 and 0 in self._c)

    def constant_value(self):
        return self._c.get(0, 0)

    def __len__(self) -> int:
        return len(self._c)

    def deg(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self._c:
            return -1
        sh = {"s": _SH_S, "u": _SH_U, "t": 0}[name]
        return max([(key >> sh) & _MASK for key in self._c])

    def total_degree(self) -> int:
        if not self._c:
            return -1
        return max(sum(_unpack(key)) for key in self._c)

    def leading_key(self) -> int:
        return max(self._c)

    def leading_coeff(self):
        """Coefficient of the largest monomial in (s, u, t)-lex order."""
        return self._c[self.leading_key()]

    # -- ring structure ------------------------------------------------------

    def _check(self, other: "TriPoly"):
        if self.p != other.p:
            raise ValueError(f"mixed coefficient rings: {self.p} vs {other.p}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TriPoly)
            and self.p == other.p
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.p, frozenset(self._c.items())))

    def __add__(self, other: "TriPoly") -> "TriPoly":
        self._check(other)
        c = dict(self._c)
        for key, val in other._c.items():
            c[key] = c.get(key, 0) + val
        return TriPoly(c, self.p)

    def __sub__(self, other: "TriPoly") -> "TriPoly":
        self._check(other)
        c = dict(self._c)
        for key, val in other._c.items():
            c[key] = c.get(key, 0) - val
        return TriPoly(c, self.p)

    def __neg__(self) -> "TriPoly":
        return TriPoly({key: -val for key, val in self._c.items()}, self.p)

    def __mul__(self, other: "TriPoly") -> "TriPoly":
        self._check(other)
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        out: Dict[int, object] = {}
        get = out.get
        for ka, va in a.items():
            for kb, vb in b.items():
                key = ka + kb  # packed keys add without carries in range
                out[key] = get(key, 0) + va * vb
        return TriPoly(out, self.p)

    def scale(self, c) -> "TriPoly":
        return TriPoly({key: val * c for key, val in self._c.items()}, self.p)

    def __pow__(self, n: int) -> "TriPoly":
        if n < 0:
            raise ValueError("negative power")
        return _power(self, n, TriPoly.__mul__) if n else TriPoly.const(1, self.p)

    # -- coefficient-ring moves ----------------------------------------------

    def reduce_mod(self, p: int) -> "TriPoly":
        if self.p is not None:
            raise ValueError("already over a prime field")
        return TriPoly(self._c, p)  # ints reduce inline, Fractions through _residue

    # -- u-direction views -----------------------------------------------------

    def u_coefficients(self) -> list:
        """List [G_0, ..., G_r] of s,t-polynomials with self = sum u^j G_j.

        One pass over the terms; r is the u-degree, and the zero polynomial
        gives [0].
        """
        blocks: Dict[int, Dict[int, object]] = {}
        for key, c in self._c.items():
            j = (key >> _SH_U) & _MASK
            blk = blocks.get(j)
            if blk is None:
                blocks[j] = blk = {}
            blk[key - (j << _SH_U)] = c
        p = self.p
        return [TriPoly._normal(blocks.get(j, {}), p) for j in range(max(blocks, default=0) + 1)]

    @staticmethod
    def from_u_coefficients(blocks, p: Optional[int] = None) -> "TriPoly":
        out: Dict[int, object] = {}
        for j, blk in enumerate(blocks):
            if p is None:
                p = blk.p
            elif blk.p is not None and blk.p != p:
                raise ValueError("mixed coefficient rings in u-blocks")
            for key, c in blk._c.items():
                out[key + (j << _SH_U)] = out.get(key + (j << _SH_U), 0) + c
        return TriPoly(out, p)

    # -- substitution ---------------------------------------------------------

    def substitute(self, s_val: "TriPoly", u_val: "TriPoly", t_val: "TriPoly") -> "TriPoly":
        """Compose with polynomial values for the three variables; terms add up in one dict."""
        p = self.p
        vals = (s_val, u_val, t_val)
        powers: Dict[Tuple[int, int], "TriPoly"] = {}  # (variable, exponent) -> value ** exponent
        out: Dict[int, object] = {}
        for exps, c in self.terms():
            term = TriPoly.const(c, p)
            for v, e in enumerate(exps):
                if e:
                    if (v, e) not in powers:
                        powers[v, e] = vals[v] ** e
                    term = term * powers[v, e]
            for key, val in term._c.items():
                out[key] = out.get(key, 0) + val
        return TriPoly(out, p)

    # -- exact division and roots ----------------------------------------------

    def divide_exact(self, divisor: "TriPoly") -> Optional["TriPoly"]:
        """Return q with self = q * divisor, or None (division over QQ or F_p)."""
        self._check(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        p = self.p
        dlk = divisor.leading_key()
        di, dj, dk = _unpack(dlk)
        dlc = divisor._c[dlk]
        rem = dict(self._c)
        out: Dict[int, object] = {}
        while rem:
            lk = max(rem)
            i, j, k = _unpack(lk)
            if i < di or j < dj or k < dk:
                return None
            qkey = lk - dlk
            qc = _div(rem[lk], dlc, p)
            out[qkey] = qc
            for key, c in divisor._c.items():
                nk = key + qkey
                nv = rem.get(nk, 0) - qc * c
                nv = _norm_coeff(nv, p)
                if nv:
                    rem[nk] = nv
                elif nk in rem:
                    del rem[nk]
        return TriPoly(out, p)

    def nth_root(self, n: int) -> Optional["TriPoly"]:
        """Exact n-th root, or None.  In characteristic p requires p not | n."""
        if n < 1:
            raise ValueError("root index must be >= 1")
        if n == 1:
            return self
        if self.is_zero:
            return TriPoly.zero(self.p)
        if self.p is not None and n % self.p == 0:
            raise ValueError("wild root index (characteristic divides n)")
        lk = self.leading_key()
        li, lj, lkk = _unpack(lk)
        if li % n or lj % n or lkk % n:
            return None
        roots = _nth_roots(self._c[lk], n, self.p)
        if not roots:
            return None
        lc_root = roots[0]  # the least in F_p, the positive one over QQ
        root_key = _pack(li // n, lj // n, lkk // n)
        root = TriPoly({root_key: lc_root}, self.p)
        # each correction divides err's leading term by the one of n * root^(n-1)
        lead_key = root_key * (n - 1)
        bi, bj, bk = _unpack(lead_key)
        unit = n * lc_root ** (n - 1)
        prev_key = None
        while True:
            err = self - root**n
            if err.is_zero:
                return root
            ek = err.leading_key()
            if prev_key is not None and ek >= prev_key:
                return None
            prev_key = ek
            ei, ej, ekk = _unpack(ek)
            if ei < bi or ej < bj or ekk < bk:
                return None
            root = root + TriPoly({ek - lead_key: _div(err._c[ek], unit, self.p)}, self.p)

    # -- text format -------------------------------------------------------------

    def render(self) -> str:
        def mono(i: int, j: int, k: int) -> str:
            names = (("s", i), ("t", k), ("u", j))
            return "*".join(v if e == 1 else f"{v}^{e}" for v, e in names if e)

        items = sorted(self.terms(), key=lambda t: (-t[0][1], -t[0][0], -t[0][2]))
        return _render_terms(((c, mono(*m)) for m, c in items), self.p)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        ring = "ZZ" if self.p is None else f"F{self.p}"
        return f"TriPoly[{ring}]({self.render()})"


def frobenius_strip(f: TriPoly) -> Tuple[TriPoly, int]:
    """(core, k) with f = core^{p^k} and k maximal, over a prime field.

    p^k is the largest power of p dividing g, the gcd of every exponent of
    every non-constant monomial.  The scan stops with (f, 0) at the first
    monomial that leaves the running gcd prime to p: g divides the running
    gcd, so p cannot divide g either.  Over F_p the constant is absorbed
    into the core.  Constant input is rejected.
    """
    if f.p is None:
        raise ValueError("frobenius_strip needs a prime-field polynomial")
    if f.is_constant:
        raise ValueError("constant input")
    p = f.p
    g = 0
    for key in f._c:
        if key:
            g = math.gcd(g, key >> _SH_S, (key >> _SH_U) & _MASK, key & _MASK)
            if g % p:
                return f, 0
    q, k_max = 1, 0
    while g % p == 0:
        g //= p
        q *= p
        k_max += 1
    core: Dict[int, object] = {}
    for key, c in f._c.items():
        i, j, kk = _unpack(key)
        core[_pack(i // q, j // q, kk // q)] = c  # c^{p^k} = c over F_p
    return TriPoly._normal(core, p), k_max


def _layer_free(f: TriPoly, p: int) -> bool:
    """True when frobenius_strip(f mod p) finds no layer (k = 0), read off the integer f without reducing it.

    A term whose coefficient p does not divide stays in f mod p, so when
    its exponents' gcd is prime to p, so is the gcd that
    ``frobenius_strip`` takes, which divides it.  When every such term has
    its gcd divisible by p, so has their gcd: f mod p is constant or has a
    layer, and this returns False for the strip to decide.
    """
    return any(key and c % p and math.gcd(*_unpack(key)) % p for key, c in f._c.items())
