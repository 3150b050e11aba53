import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tracelab.tripoly import TriPoly, _nth_roots, _power, frobenius_strip

from _oracles import (
    frobenius_strip_brute,
    monomial,
    nth_roots_by_scan,
    poly_value,
    tri_add,
    tri_eval_mod,
    tri_mul,
    tripoly_from_terms,
)

S = TriPoly.var("s", None)
U = TriPoly.var("u", None)
T = TriPoly.var("t", None)


def C(c):
    return TriPoly.const(c, None)


monos = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
coeffs = st.integers(-9, 9)
term_dicts = st.dictionaries(monos, coeffs, max_size=6)


def as_tripoly(d, p=None):
    return tripoly_from_terms(d, p)


class TestPower:
    @pytest.mark.parametrize("p", [None, 7])
    def test_matches_repeated_products(self, p):
        s, u, t = (TriPoly.var(name, p) for name in "sut")
        f = s * u - t + TriPoly.const(2, p)
        acc = TriPoly.const(1, p)
        for n in range(41):
            assert f**n == acc
            acc = acc * f
        with pytest.raises(ValueError):
            f ** -1

    def test_square_and_multiply(self):
        for n in range(1, 41):
            assert _power(3, n, operator.mul) == 3**n
        for n in (0, -1):
            with pytest.raises(ValueError):
                _power(3, n, operator.mul)


class TestArithmetic:
    @given(term_dicts, term_dicts)
    def test_add_matches_dict_model(self, a, b):
        got = as_tripoly(a) + as_tripoly(b)
        assert got == as_tripoly(tri_add(a, b))

    @given(term_dicts, term_dicts)
    def test_mul_matches_dict_model(self, a, b):
        got = as_tripoly(a) * as_tripoly(b)
        assert got == as_tripoly(tri_mul(a, b))

    @given(term_dicts, term_dicts, term_dicts)
    def test_ring_laws(self, a, b, c):
        fa, fb, fc = as_tripoly(a), as_tripoly(b), as_tripoly(c)
        assert fa * (fb + fc) == fa * fb + fa * fc
        assert fa * fb == fb * fa
        assert (fa - fa).is_zero

    @given(term_dicts, st.integers(0, 4))
    def test_pow_is_repeated_mul(self, a, n):
        f = as_tripoly(a)
        prod = C(1)
        for _ in range(n):
            prod = prod * f
        assert f**n == prod

    def test_zero_and_constants(self):
        assert TriPoly.zero().is_zero
        assert C(5).is_constant
        assert C(5).constant_value() == 5
        assert not (S + C(1)).is_constant

    def test_fraction_coefficients(self):
        f = S.scale(Fraction(1, 2)) + U
        assert dict(f.terms()) == {(1, 0, 0): Fraction(1, 2), (0, 1, 0): 1}
        assert dict((f + f).terms()) == {(1, 0, 0): 1, (0, 1, 0): 2}

    def test_integral_rationals_come_back_as_int(self):
        # an integral QQ coefficient is stored as int, never Fraction(n, 1)
        results = [
            S.scale(Fraction(4, 2)),
            (S.scale(6) + C(Fraction(9, 3))).divide_exact(C(Fraction(3, 1))),
            ((S.scale(2) + C(3)) ** 2).nth_root(2),
            (S.scale(Fraction(1, 2)) + U).scale(Fraction(2)),
        ]
        for f in results:
            assert f is not None
            assert {type(c) for _, c in f.terms()} == {int}


class TestModularReduction:
    @given(term_dicts, st.sampled_from([2, 3, 5, 7]))
    def test_reduce_then_eval_matches_integer_eval(self, a, p):
        f = as_tripoly(a).reduce_mod(p)
        from tracelab.gf import field

        F = field(p)
        for s in range(p):
            got = poly_value(f, F, s, (s + 1) % p, (s + 2) % p)
            assert got == tri_eval_mod(a, p, s, (s + 1) % p, (s + 2) % p)

    def test_denominator_must_be_invertible(self):
        f = S.scale(Fraction(1, 2))
        assert dict(f.reduce_mod(3).terms()) == {(1, 0, 0): 2}  # 1/2 = 2 mod 3
        with pytest.raises(ValueError):
            f.reduce_mod(2)

    def test_fraction_scalars_over_fp_are_residues(self):
        s = TriPoly.var("s", 3)
        assert s.scale(Fraction(1, 2)) == s.scale(2)
        assert s.scale(Fraction(1, 2)).render() == "2*s"
        with pytest.raises(ValueError):
            TriPoly.const(Fraction(1, 3), 3)

    def test_integral_fraction_becomes_int(self):
        c = TriPoly.const(Fraction(4, 2)).constant_value()
        assert c == 2 and type(c) is int
        assert TriPoly.const(Fraction(1, 2)).constant_value() == Fraction(1, 2)

    @pytest.mark.parametrize("p", [None, 5])
    def test_zeros_dropped(self, p):
        f = tripoly_from_terms({(1, 0, 0): 0, (0, 1, 0): Fraction(0), (0, 0, 1): 3}, p)
        assert len(f) == 1 and dict(f.terms()) == {(0, 0, 1): 3}

    def test_ints_reduce_mod_p(self):
        terms = {(1, 0, 0): -1, (0, 1, 0): 14, (0, 0, 1): -15, (0, 0, 0): 23}
        f = tripoly_from_terms(terms, 7)
        assert dict(f.terms()) == {(1, 0, 0): 6, (0, 0, 1): 6, (0, 0, 0): 2}
        assert f == as_tripoly(terms).reduce_mod(7)

    def test_p_divisible_denominator_raises(self):
        with pytest.raises(ValueError):
            tripoly_from_terms({(1, 0, 0): 1, (0, 0, 0): Fraction(2, 7)}, 7)
        with pytest.raises(ValueError):
            (S + C(Fraction(2, 7))).reduce_mod(7)

    def test_mixed_characteristic_rejected(self):
        with pytest.raises(ValueError):
            S.reduce_mod(3) + S.reduce_mod(5)


class TestStructure:
    def test_degrees(self):
        f = U**2 - S * T * U + S**2 + T**2 - C(2)
        assert (f.deg("s"), f.deg("u"), f.deg("t")) == (2, 2, 2)
        assert f.total_degree() == 3  # from the s*t*u term
        assert f.deg("s") == 2

    def test_u_coefficients_round_trip(self):
        f = U**2 - S * T * U + S**2 + T**2 - C(2)
        blocks = f.u_coefficients()
        assert [b.render() for b in blocks] == ["s^2 + t^2 - 2", "-s*t", "1"]
        assert TriPoly.from_u_coefficients(blocks) == f

    def test_exponent_guard(self):
        with pytest.raises(ValueError):
            tripoly_from_terms({(40000, 0, 0): 1})
        with pytest.raises(ValueError):
            monomial(1, 0, -1, 0)


class TestRender:
    def test_spec_ordering(self):
        # monomials: deg_u desc, then deg_s desc, then deg_t desc;
        # variables alphabetical inside each monomial
        f = U**2 - S * T * U + S**2 + T**2 - C(2)
        assert f.render() == "u^2 - s*t*u + s^2 + t^2 - 2"
        assert (S * T - U).render() == "-u + s*t"

    def test_render_with_fractions(self):
        f = S.scale(Fraction(-3, 4)) + (U * T).scale(Fraction(1, 2)) + C(Fraction(5, 3))
        assert f.render() == "1/2*t*u - 3/4*s + 5/3"


class TestDivisionAndRoots:
    @given(term_dicts, term_dicts)
    def test_divide_exact_inverts_mul(self, a, b):
        fa, fb = as_tripoly(a), as_tripoly(b)
        if fb.is_zero:
            return
        q = (fa * fb).divide_exact(fb)
        assert q == fa

    def test_divide_non_divisor(self):
        assert (S + C(1)).divide_exact(T) is None

    @given(term_dicts.filter(lambda d: d), st.integers(2, 3))
    def test_nth_root_of_power(self, a, n):
        f = as_tripoly(a)
        assert (f**n).nth_root(n) in (f, -f)

    def test_nth_root_rejects_non_powers(self):
        assert (S**2 + C(1)).nth_root(2) is None
        assert (S**3).nth_root(2) is None

    def test_wild_root_index(self):
        s3 = TriPoly.var("s", 3)
        with pytest.raises(ValueError):
            (s3**3).nth_root(3)

    def test_coeff_nth_root(self):
        # the first root is the one TriPoly.nth_root takes
        assert _nth_roots(8, 3, None)[0] == 2
        assert _nth_roots(Fraction(9, 4), 2, None)[0] in (
            Fraction(3, 2),
            Fraction(-3, 2),
        )
        assert _nth_roots(2, 2, None) == []
        assert _nth_roots(4, 2, 7)[0] in (2, 5)
        assert _nth_roots(-8, 3, None)[0] == -2
        assert _nth_roots(-4, 2, None) == []

    def test_roots_mod_p_match_the_scan(self):
        primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
        for p in primes:
            for n in range(1, 13):
                expect = nth_roots_by_scan(n, p)
                for c in range(p):
                    assert _nth_roots(c, n, p) == expect[c], (c, n, p)
                    assert _nth_roots(c - p, n, p) == expect[c], (c - p, n, p)


class TestFrobeniusStrip:
    def test_strip_recovers_core(self):
        core = (U**2 - S * T + C(3)).reduce_mod(5)
        f = core**5
        stripped, k = frobenius_strip(f)
        assert k == 1
        # core recovered up to the p-th roots of its coefficients
        assert stripped.substitute(S.reduce_mod(5), U.reduce_mod(5), T.reduce_mod(5)) == stripped
        assert f == _frob_recompose(stripped, 5, 1)

    def test_strip_depth_two(self):
        core = (U + S * T).reduce_mod(3)
        f = core**9
        stripped, k = frobenius_strip(f)
        assert k == 2
        assert f == _frob_recompose(stripped, 3, 2)

    def test_no_strip_for_tame(self):
        f = (U**2 + S).reduce_mod(5)
        assert frobenius_strip(f) == (f, 0)

    def test_rejects_rational_input(self):
        with pytest.raises(ValueError):
            frobenius_strip(U**2)

    def test_late_exponent_prime_to_p(self):
        # every exponent but the last monomial's is divisible by p, so the
        # scan meets the one that decides k = 0 only at the end
        for p in (2, 3, 5):
            terms = {(p, 0, 0): 1, (0, 2 * p, p): 1, (0, 0, 0): 1, (p, p, 0): 1, (1, p, 0): 1}
            f = tripoly_from_terms(terms, p)
            assert list(f.terms())[-1][0] == (1, p, 0)
            assert frobenius_strip(f) == (f, 0)
            assert frobenius_strip_brute(terms, p) == (dict(f.terms()), 0)

    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(0, 2),
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            st.integers(1, 4),
            min_size=1,
            max_size=3,
        ),
        st.one_of(st.none(), st.tuples(*[st.integers(0, 3)] * 3)),
    )
    def test_matches_brute_force(self, p, k, core, extra):
        q = p**k
        terms = {tuple(e * q for e in m): c for m, c in core.items() if c % p}
        if extra is not None and extra != (0, 0, 0):
            terms[extra] = 1  # inserted last: the scan reaches it after the rest
        if not any(m != (0, 0, 0) for m in terms):
            return
        f = tripoly_from_terms(terms, p)
        got_core, got_k = frobenius_strip(f)
        want_core, want_k = frobenius_strip_brute(terms, p)
        assert got_k == want_k
        assert dict(got_core.terms()) == want_core
        assert got_core ** (p**got_k) == f


def _frob_recompose(core, p, k):
    """core composed with the p^k-power Frobenius, i.e. core evaluated at
    (s, u, t) then raised coefficient-wise; over F_p this equals core**p**k."""
    return core ** (p**k)
