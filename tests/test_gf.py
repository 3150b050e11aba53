import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tracelab import sl2
from tracelab.gf import _PSI, _SMALL_PRIMES, GF, _factor_prime_power, field, is_prime, primes_in
from tracelab.tripoly import _power

from _oracles import prime_powers

SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


class TestConstruction:
    @pytest.mark.parametrize("q", SMALL_Q)
    def test_q_p_n(self, q):
        F = field(q)
        assert F.q == q
        assert F.p ** F.n == q
        assert is_prime(F.p)

    @pytest.mark.parametrize("q", [1, 6, 10, 12, 100])
    def test_rejects_non_prime_powers(self, q):
        with pytest.raises(ValueError):
            GF(q)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            GF(4096)

    def test_field_is_cached(self):
        assert field(9) is field(9)


class TestFieldAxioms:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_abelian_group_under_addition(self, q):
        F = field(q)
        els = range(F.q)
        for a in els:
            assert F.add(a, F.zero) == a
            assert F.add(a, F.neg(a)) == F.zero
            for b in els:
                assert F.add(a, b) == F.add(b, a)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_multiplicative_inverses(self, q):
        F = field(q)
        for a in range(F.q):
            if a != F.zero:
                assert F.mul(a, F.inv(a)) == F.one

    @pytest.mark.parametrize("q", [4, 5, 9])
    def test_distributivity(self, q):
        F = field(q)
        els = range(F.q)
        for a in els:
            for b in els:
                for c in els:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))

    @pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
    def test_characteristic_and_frobenius(self, q):
        F = field(q)
        for a in range(F.q):
            total = F.zero
            for _ in range(F.p):
                total = F.add(total, a)
            assert total == F.zero
        # x -> x^p is additive (freshman's dream)
        for a in range(F.q):
            for b in range(F.q)[:8]:
                lhs = _power(F.add(a, b), F.p, F.mul)
                rhs = F.add(_power(a, F.p, F.mul), _power(b, F.p, F.mul))
                assert lhs == rhs

    @pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 13])
    def test_multiplicative_group_order(self, q):
        F = field(q)
        for a in range(F.q):
            if a != F.zero:
                assert _power(a, q - 1, F.mul) == F.one


class TestSquares:
    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
    def test_odd_q_square_count(self, q):
        F = field(q)
        assert len(F.squares) == (q - 1) // 2 + 1  # zero included
        brute = {F.mul(a, a) for a in range(F.q)}
        assert brute == F.squares

    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_even_q_all_squares(self, q):
        F = field(q)
        assert F.squares == frozenset(range(F.q))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 81, 121, 125, 128])
    def test_quad_root_count(self, q):
        F = field(q)
        counts = sl2._quad_roots(F)
        for z in range(F.q):
            brute = sum(
                1
                for lam in range(F.q)
                if lam != F.zero
                and F.add(lam, F.inv(lam)) == z
            )
            # _quad_roots counts roots of X^2 - zX + 1
            roots = sum(
                1
                for x in range(F.q)
                if F.add(F.add(F.mul(x, x), F.neg(F.mul(z, x))), F.one) == F.zero
            )
            assert counts[z] == roots
            assert brute == roots


def _digits_of(e, p, n):
    return [e // p**i % p for i in range(n)]


def _encode(digits, p):
    return sum(d * p**i for i, d in enumerate(digits))


def _schoolbook_mul(a, b, modulus, p):
    """a * b mod the monic modulus, digit lists low-to-high, one pair at a time."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k] % p
        for j, m in enumerate(modulus):
            prod[k - n + j] -= c * m
    return [c % p for c in prod[:n]]


def _has_root_mod_p(coeffs, p):
    return any(sum(c * x**i for i, c in enumerate(coeffs)) % p == 0 for x in range(p))


class TestTablesAgainstReference:
    @pytest.mark.parametrize("q", prime_powers(2, 256) + [1024])
    def test_add_mul_neg_inv(self, q):
        F = field(q)
        p, n = F.p, F.n
        rng = random.Random(q)
        for _ in range(500):
            a, b = rng.randrange(q), rng.randrange(q)
            da, db = _digits_of(a, p, n), _digits_of(b, p, n)
            assert F.add(a, b) == _encode([(x + y) % p for x, y in zip(da, db)], p)
            assert F.mul(a, b) == _encode(_schoolbook_mul(da, db, F.modulus, p), p)
        els = np.arange(q)
        assert not F.add_table[els, F.neg_table].any()
        assert (F.mul_table[els[1:], F.inv_table[1:]] == 1).all()

    # a polynomial of degree 2 or 3 is irreducible iff it has no root
    @pytest.mark.parametrize(
        "q", [p**n for p in primes_in(2, 16) for n in (2, 3) if p**n <= 256]
    )
    def test_modulus_is_the_least_irreducible(self, q):
        F = field(q)
        p, n = F.p, F.n
        assert len(F.modulus) == n + 1 and F.modulus[-1] == 1
        assert not _has_root_mod_p(F.modulus, p)
        for code in range(_encode(F.modulus[:n], p)):
            assert _has_root_mod_p(_digits_of(code, p, n) + [1], p)


class TestEmbedding:
    def test_integers(self):
        F = field(7)
        assert F.embed_int(10) == 3
        assert F.embed_int(-1) == 6

    def test_fractions(self):
        F = field(5)
        assert F.embed_int(Fraction(1, 2)) == 3  # 2*3 = 6 = 1
        assert F.mul(F.embed_int(Fraction(2, 3)), F.embed_int(3)) == F.embed_int(2)

    def test_fraction_bad_denominator(self):
        with pytest.raises(ZeroDivisionError):
            field(3).embed_int(Fraction(1, 3))

    @pytest.mark.parametrize("q", [4, 9, 27])
    def test_prime_subfield_is_ring_embedding(self, q):
        F = field(q)
        for a in range(F.p):
            for b in range(F.p):
                assert F.add(F.embed_int(a), F.embed_int(b)) == F.embed_int(a + b)
                assert F.mul(F.embed_int(a), F.embed_int(b)) == F.embed_int(a * b)


class TestPrimeHelpers:
    def test_prime_powers_range(self):
        assert prime_powers(5, 27) == [5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]

    def test_primes_in(self):
        assert primes_in(2, 20) == [2, 3, 5, 7, 11, 13, 17, 19]

    @given(st.integers(-5, 200))
    def test_is_prime_brute(self, n):
        brute = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == brute

    @given(st.integers(1600, 3 * 10**6))
    def test_is_prime_brute_past_trial_division(self, n):
        # past 43^2 the strong probable-prime tests decide, through psi_1 = 2047 and psi_2 = 1373653
        assert is_prime(n) == all(n % d for d in range(2, math.isqrt(n) + 1))

    def test_psi_table_is_composites_passing_their_bases(self):
        def strong_probable_prime(m, a):
            d, s = m - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            x = pow(a, d, m)
            return x in (1, m - 1) or any(pow(x, 2**i, m) == m - 1 for i in range(1, s))

        for k, psi in enumerate(_PSI, 1):
            assert all(strong_probable_prime(psi, a) for a in _SMALL_PRIMES[:k]), k
            assert not all(strong_probable_prime(psi, a) for a in (43, 47, 53, 59, 61)), k  # so composite
            if k < 13:
                assert not is_prime(psi)

    def test_primes_in_matches_is_prime(self):
        for lo in range(-3, 50):
            for hi in range(lo - 2, 110):
                assert primes_in(lo, hi) == [m for m in range(lo, hi + 1) if is_prime(m)], (lo, hi)

    @pytest.mark.parametrize(
        "q, want", [(10**18 + 9, (10**18 + 9, 1)), (2**61 - 1, (2**61 - 1, 1)), (1009**6, (1009, 6)), (3**37, (3, 37))]
    )
    def test_large_prime_powers_factor_fast(self, q, want):
        start = time.monotonic()
        assert _factor_prime_power(q) == want
        assert time.monotonic() - start < 0.5

    @pytest.mark.parametrize("q", [10**18 + 7, 1009**6 * 1013, 2**89 - 1, _PSI[-1]])
    def test_composites_and_undecided_primes_are_refused(self, q):
        # 10^18 + 7 = 1370531 * 729644203597; the Mersenne prime 2^89 - 1 lies past
        # psi_13, where no test decides, and psi_13 passes all 13
        with pytest.raises(ValueError):
            _factor_prime_power(q)
