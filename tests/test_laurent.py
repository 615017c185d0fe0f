from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spets.cyclotomic import Cyclo, CycloField, zeta
from spets.laurent import (FracExpMonomial, LaurentPoly, k_cyclotomic_factors,
                           parse_poly)

x = LaurentPoly.x()


def rand_poly():
    coeff = st.tuples(st.integers(-6, 6),
                      st.integers(0, 5),
                      st.integers(-3, 3))
    return st.lists(coeff, max_size=5).map(
        lambda terms: sum((LaurentPoly({e: zeta(8, k) * c})
                           for c, k, e in terms), LaurentPoly.zero()))


class TestRing:
    def test_basic(self):
        p = (x + 1) * (x - 1)
        assert p == LaurentPoly({2: 1, 0: -1})
        assert p.degree() == 2 and p.valuation() == 0

    def test_laurent_division_strips_valuations(self):
        num = LaurentPoly({3: 1, 1: 1})          # x^3 + x
        den = LaurentPoly({2: zeta(3), 0: zeta(3)})  # zeta3*(x^2 + 1)
        q = num.exact_div(den)
        assert q * den == num
        assert den.divides(num)

    def test_non_exact_division(self):
        with pytest.raises(ArithmeticError):
            (x + 1).exact_div(x - 1)

    def test_evaluate(self):
        p = x ** 2 + x + 1
        assert p.evaluate(zeta(3)).is_zero()
        assert p.evaluate(1) == Cyclo.rational(3)

    def test_scale_x(self):
        p = x ** 2 + x
        assert p.scale_x(zeta(4)) == LaurentPoly({2: -1, 1: zeta(4)})

    @given(rand_poly())
    @settings(max_examples=50, deadline=None)
    def test_vee_involution(self, p):
        assert p.vee().vee() == p

    @given(rand_poly(), rand_poly())
    @settings(max_examples=40, deadline=None)
    def test_product_divides(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        prod = p * q
        assert p.divides(prod)
        assert prod.exact_div(p) == q

    @given(rand_poly())
    @settings(max_examples=50, deadline=None)
    def test_serialize_roundtrip(self, p):
        assert parse_poly(p.serialize()) == p

    def test_constant_hashes_like_coefficient(self):
        assert len({LaurentPoly.one(), 1}) == 1
        assert len({LaurentPoly.zero(), 0}) == 1
        assert len({LaurentPoly.constant(zeta(3)), zeta(3)}) == 1
        assert hash(LaurentPoly.constant(Fraction(1, 2))) == hash(Fraction(1, 2))

    @given(rand_poly(), st.sampled_from([1, -2, Fraction(1, 3)]))
    @settings(max_examples=50, deadline=None)
    def test_evaluate_matches_termwise_sum(self, p, v):
        v = zeta(8) * v
        want = sum((c * v ** e for e, c in p.coeffs), Cyclo.rational(0))
        assert p.evaluate(v) == want


class TestFracExpMonomial:
    def test_serialize(self):
        m = FracExpMonomial(zeta(4), Fraction(1, 2))
        assert m.serialize() == "(E(4,1))*x^(1/2)"
        assert FracExpMonomial.of(1).serialize() == "1"
        assert FracExpMonomial.of(-1, 3).serialize() == "-1*x^3"

    @pytest.mark.parametrize("text", ["1", "-1", "(E(4,1))*x^(1/2)",
                                      "x^3", "(E(3,2))*x", "x^(-2/3)"])
    def test_parse_roundtrip(self, text):
        m = FracExpMonomial.parse(text)
        assert FracExpMonomial.parse(m.serialize()) == m

    def test_vee(self):
        m = FracExpMonomial(zeta(3), Fraction(2))
        assert m.vee() == FracExpMonomial(zeta(3, 2), Fraction(-2))
        assert m.vee().vee() == m

    def test_mul_div(self):
        a = FracExpMonomial(zeta(3), Fraction(1, 2))
        b = FracExpMonomial(zeta(3, 2), Fraction(1, 2))
        assert a * b == FracExpMonomial(Cyclo.rational(1), Fraction(1))
        assert a / a == FracExpMonomial.of(1)


class TestFactors:
    def test_rational_cyclotomics(self):
        Q = CycloField.rationals()
        assert [f.poly for f in k_cyclotomic_factors(3, Q)] == [x * x + x + 1]
        assert [f.poly for f in k_cyclotomic_factors(1, Q)] == [x - 1]
        assert [f.poly for f in k_cyclotomic_factors(2, Q)] == [x + 1]

    @pytest.mark.parametrize("d", [0, -3])
    def test_nonpositive_index_is_value_error(self, d):
        with pytest.raises(ValueError, match="must be positive"):
            k_cyclotomic_factors(d, CycloField.rationals())

    def test_split_over_extension(self):
        K = CycloField.cyclotomic(3)
        fs = k_cyclotomic_factors(3, K)
        assert [f.poly for f in fs] == [x - zeta(3), x - zeta(3, 2)]

    def test_product_is_cyclotomic(self):
        K = CycloField.cyclotomic(12)
        fs = k_cyclotomic_factors(12, K)
        prod = LaurentPoly.one()
        for f in fs:
            assert f.poly.degree() == 1
            prod = prod * f.poly
        assert prod == k_cyclotomic_factors(12, CycloField.rationals())[0].poly
