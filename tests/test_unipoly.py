from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tracelab.tripoly import TriPoly
from tracelab.unipoly import (
    UniPoly,
    chebyshev_v,
    dickson,
    dickson_apply,
)

from _oracles import dickson_value, unipoly_value

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=8
).filter(lambda v: v != 0)


class TestPower:
    @pytest.mark.parametrize("p", [None, 5])
    def test_matches_repeated_products(self, p):
        f = UniPoly([2, -1, 3], p)
        acc = UniPoly.const(1, p)
        for n in range(41):
            assert (f**n).coeffs == acc.coeffs
            acc = acc * f
        with pytest.raises(ValueError):
            f ** -1


class TestChebyshev:
    def test_first_values(self):
        assert chebyshev_v(0, None).coeffs == []
        assert chebyshev_v(1, None).coeffs == [1]
        assert chebyshev_v(2, None).coeffs == [0, 1]
        assert chebyshev_v(3, None).coeffs == [-1, 0, 1]

    @given(st.integers(1, 20))
    def test_value_at_two(self, n):
        # V_n(2) = n: both sides of the 2x2 matrix power identity at s = 2
        assert unipoly_value(chebyshev_v(n, None), Fraction(2)) == n

    @given(st.integers(1, 16))
    def test_determinant_identity(self, n):
        vn = unipoly_value(chebyshev_v(n, None), Fraction(7, 3))
        vm = unipoly_value(chebyshev_v(n - 1, None), Fraction(7, 3))
        vp = unipoly_value(chebyshev_v(n + 1, None), Fraction(7, 3))
        assert vn * vn - vm * vp == 1

    @given(st.integers(0, 12), rationals)
    def test_matrix_power_identity(self, n, s):
        # X^n = V_n(s) X - V_{n-1}(s) I for X = [[s, -1], [1, 0]], det X = 1
        a, b, c, d = Fraction(s), Fraction(-1), Fraction(1), Fraction(0)
        pa, pb, pc, pd = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
        for _ in range(n):
            pa, pb, pc, pd = pa * a + pb * c, pa * b + pb * d, pc * a + pd * c, pc * b + pd * d
        vn = unipoly_value(chebyshev_v(n, None), s)
        vm = unipoly_value(chebyshev_v(n - 1, None), s)
        assert (pa, pb, pc, pd) == (vn * a - vm, vn * b, vn * c, -vm)


class TestDickson:
    @given(st.integers(0, 24), rationals)
    def test_functional_equation_reference(self, n, v):
        assert unipoly_value(dickson(n, None), v) == dickson_value(n, v)

    @given(st.integers(-10, 10))
    def test_negative_index(self, n):
        assert dickson(n, None) == dickson(abs(n), None)

    @given(st.integers(0, 8), st.integers(0, 8))
    def test_composition_law(self, n, m):
        assert dickson(n * m, None) == dickson(n, None).compose(dickson(m, None))

    @given(st.integers(1, 16))
    def test_chebyshev_bridge(self, n):
        # D_n = V_{n+1} - V_{n-1}
        lhs = dickson(n, None)
        rhs = chebyshev_v(n + 1, None) - chebyshev_v(n - 1, None)
        assert lhs == rhs

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_frobenius_degeneration(self, p):
        # D_p(z) = z^p in characteristic p
        zp = UniPoly([0] * p + [1], p)
        assert dickson(p, p) == zp

    def test_dickson_apply_matches_substitution(self):
        u = TriPoly.var("u", None)
        s = TriPoly.var("s", None)
        g = u * u - s + TriPoly.const(1, None)
        for n in (0, 1, 2, 3, 5, -3):
            expect = TriPoly.zero()
            for i, c in enumerate(dickson(n, None).coeffs):
                expect = expect + (g**i).scale(c)
            assert dickson_apply(n, g) == expect


class TestUniPolyBasics:
    def test_render(self):
        assert dickson(2, None).render("z") == "z^2 - 2"
        assert UniPoly([1, -1], None).render("z") == "-z + 1"

    def test_render_mod_p_and_fractions(self):
        # residues mod p print unsigned; QQ fractions keep their sign outside
        assert UniPoly([1, -2, 0, 3], 7).render() == "3*z^3 + 5*z + 1"
        assert UniPoly([-1], 5).render() == "4"
        f = UniPoly([Fraction(1, 2), -1, Fraction(-3, 4)], None)
        assert f.render("w") == "-3/4*w^2 - w + 1/2"
        assert UniPoly([Fraction(-5, 2)], None).render() == "-5/2"

    def test_integral_fraction_stored_as_int(self):
        f = UniPoly([Fraction(4, 2), Fraction(3, 2)], None)
        assert type(f.coeffs[0]) is int and f.coeffs[0] == 2
        assert type(f.scale(Fraction(2)).coeffs[1]) is int

    def test_fraction_coefficient_over_fp_is_a_residue(self):
        assert UniPoly([Fraction(1, 2)], 3) == UniPoly([2], 3)

    @given(
        st.lists(st.integers(-5, 5), max_size=5),
        st.lists(st.integers(-5, 5), max_size=5),
    )
    def test_mul_degree(self, a, b):
        fa, fb = UniPoly(a, None), UniPoly(b, None)
        prod = fa * fb
        val = Fraction(3, 2)
        assert unipoly_value(prod, val) == unipoly_value(fa, val) * unipoly_value(fb, val)

    @given(st.lists(st.integers(-5, 5), max_size=4), st.lists(st.integers(-5, 5), max_size=4))
    def test_compose_evaluates(self, a, b):
        fa, fb = UniPoly(a, None), UniPoly(b, None)
        val = Fraction(-2, 3)
        assert unipoly_value(fa.compose(fb), val) == unipoly_value(fa, unipoly_value(fb, val))

    def test_reduce_mod(self):
        f = UniPoly([Fraction(1, 2), 1], None)
        assert f.reduce_mod(3).coeffs == [2, 1]
        with pytest.raises(ValueError):
            f.reduce_mod(2)
