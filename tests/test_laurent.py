import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from spets.cyclotomic import Cyclo, CycloField, zeta
from spets.laurent import (FracExpMonomial, LaurentPoly, k_cyclotomic_factors,
                           parse_poly)

from conftest import divides, divmod_poly, exact_div

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
        q = exact_div(num, den)
        assert q * den == num
        assert divides(den, num)
        # x^2 + 1 has the roots E(4, 1) and E(4, 3)
        roots = den.roots({(4, 1): 1, (4, 3): 1})
        assert roots == {(4, 1): 1, (4, 3): 1}
        assert num.divide_split(zeta(3), 0, roots) == q

    def test_non_exact_division(self):
        with pytest.raises(ArithmeticError):
            exact_div(x + 1, x - 1)
        assert (x + 1).peel([(1, 0, 1)]) is None
        assert (x + 1).divide_split(Cyclo.rational(-1), 0, {(1, 0): 1}) is None
        # a divisor with a root off the caps has no root multiset there
        assert (x - 1).roots({(2, 1): 1}) is None

    def test_evaluate(self):
        p = x ** 2 + x + 1
        assert p.evaluate(zeta(3)).is_zero()
        assert p.evaluate(1) == Cyclo.rational(3)

    def test_scale_x(self):
        p = x ** 2 + x
        assert p.scale_x(zeta(4)) == LaurentPoly({2: -1, 1: zeta(4)})

    @pytest.mark.parametrize("seed", range(12))
    def test_scale_x_matches_the_term_by_term_product(self, seed, monkeypatch):
        # at a root of unity s = E(d, k), s^e is read as the root
        # E(d, k e mod d) with no power taken; the oracle is c * s^e per term
        rng = random.Random(seed)
        p = LaurentPoly({rng.randint(-7, 7): zeta(n, rng.randrange(n)) * rng.randint(-4, 4)
                         + Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for n in rng.choices((1, 3, 4, 5, 8, 12), k=5)})
        roots = [zeta(d, rng.randrange(d)) for d in (1, 2, 3, 4, 5, 6, 8, 12, 15, 24)]
        roots += [-zeta(5, 2), 1 + zeta(3)]  # E(10, 9) and E(6, 5), not written as E(d, k)
        others = [Cyclo.rational(Fraction(-3, 2)), 1 + zeta(4)]
        want = {s: LaurentPoly([(e, c * s ** e) for e, c in p.coeffs]) for s in roots + others}
        for s in others:
            assert p.scale_x(s) == want[s]

        def refuse(*a):
            raise AssertionError("power taken at a root of unity")
        monkeypatch.setattr(Cyclo, "__pow__", refuse)
        for s in roots:
            assert p.scale_x(s) == want[s], (seed, s)

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
        assert divides(p, prod)
        assert exact_div(prod, p) == q

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


# -- term-by-term references built from Cyclo + and * alone -----------------

CONDUCTORS = [1, 3, 4, 5, 8, 12, 15, 24]


def mixed_cyclo():
    """Random sums c * E(n, k) over mixed conductors, c with small denominators."""
    root = st.sampled_from(CONDUCTORS).flatmap(
        lambda n: st.integers(0, n - 1).map(lambda k: zeta(n, k)))
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.lists(st.tuples(root, coef), max_size=3).map(ref_sum)


def mixed_poly(low, high):
    return st.dictionaries(st.integers(low, high), mixed_cyclo(),
                           max_size=4).map(LaurentPoly)


def ref_sum(terms):
    acc = Cyclo.rational(0)
    for z, c in terms:
        acc = acc + z * c
    return acc


def ref_mul(a, b):
    acc = {}
    for e1, c1 in a.coeffs:
        for e2, c2 in b.coeffs:
            acc[e1 + e2] = acc.get(e1 + e2, Cyclo.rational(0)) + c1 * c2
    return LaurentPoly(acc)


def ref_power(v, e):
    out, step = Cyclo.rational(1), v if e >= 0 else v.inverse()
    for _ in range(abs(e)):
        out = out * step
    return out


def ref_evaluate(p, v):
    acc = Cyclo.rational(0)
    for e, c in p.coeffs:
        acc = acc + c * ref_power(v, e)
    return acc


def assert_canonical(c):
    """Stored form of a reduced Cyclo: sorted nonzero terms, coprime
    denominator, and a conductor no Q(zeta_{n/p}) contains."""
    assert c.den > 0 and gcd(c.den, *(a for _, a in c.terms)) == 1
    assert list(c.terms) == sorted(c.terms) and all(a for _, a in c.terms)
    assert c.n % 4 != 2
    for p in (p for p in range(2, c.n + 1) if c.n % p == 0
              and all(p % q for q in range(2, p))):
        m = c.n // p
        assert any(c.galois(k) != c for k in range(1, c.n)
                   if gcd(k, c.n) == 1 and (k - 1) % m == 0), (c, p)


def assert_same(got, want):
    """Structurally equal, with == and hash agreeing, in canonical form."""
    assert got == want and hash(got) == hash(want)
    for _, c in (got.coeffs if isinstance(got, LaurentPoly) else [(0, got)]):
        assert_canonical(c)


def binomial(d, k, K):
    """1 - E(d, k) * x^K."""
    return LaurentPoly({0: 1, K: -zeta(d, k)})


BINOMIALS = st.integers(1, 24).flatmap(lambda d: st.tuples(
    st.just(d), st.integers(0, d - 1), st.integers(-4, 4).filter(bool)))


class TestPeel:
    @given(mixed_poly(-3, 4).filter(bool), st.lists(BINOMIALS, min_size=1, max_size=3),
           BINOMIALS)
    @settings(max_examples=60, deadline=None)
    def test_matches_long_division(self, a, factors, stray):
        # a times the binomials, the first one twice, peels back to a; one
        # binomial more gives the long division's quotient, or None
        factors = factors + factors[:1]
        prod = a
        for f in factors:
            prod = ref_mul(prod, binomial(*f))
        assert_same(prod.peel(factors), a)
        got = prod.peel(factors + [stray])
        try:
            assert_same(got, exact_div(a, binomial(*stray)))
        except ArithmeticError:
            assert got is None

    @given(mixed_poly(-3, 4), mixed_cyclo().filter(lambda c: c.n > 1),
           st.integers(-3, 3).filter(bool),
           st.dictionaries(st.integers(1, 12).flatmap(
               lambda d: st.tuples(st.just(d), st.integers(0, d - 1))), st.integers(1, 2),
               max_size=3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_divide_split_folds_the_constant(self, r, c, v, roots, exact):
        # x^-v c^-1 folded into the peeled lifts gives what peeling, then
        # shifting, then multiplying by c^-1 gives, on a multiple of the
        # divisor, on r itself (which it may not divide) and on zero
        divisor = LaurentPoly.monomial(c, v)
        for (d, k), m in roots.items():
            for _ in range(m):
                divisor = ref_mul(divisor, binomial(d, -k, 1))
        for p in (ref_mul(r, divisor) if exact else r, LaurentPoly.zero()):
            q = p.peel([(d, -k, 1) for (d, k), m in roots.items() for _ in range(m)])
            want = None if q is None else q.shift(-v) * c.inverse()
            got = p.divide_split(c, v, roots)
            assert (got is None) == (want is None)
            if want is not None:
                assert_same(got, want)
                assert got.serialize() == want.serialize()


class TestSumsOfProducts:
    @given(mixed_poly(-2, 4), mixed_poly(-2, 4))
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_termwise(self, a, b):
        assert_same(a * b, ref_mul(a, b))

    @given(mixed_poly(-2, 4), st.one_of(
        st.sampled_from(CONDUCTORS).flatmap(
            lambda n: st.integers(0, n - 1).map(lambda k: zeta(n, k))),
        mixed_cyclo()))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_matches_termwise(self, p, v):
        assume(not v.is_zero())
        assert_same(p.evaluate(v), ref_evaluate(p, v))

    @given(mixed_poly(0, 6), mixed_poly(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_divmod_identity(self, a, b):
        assume(not b.is_zero())
        q, r = divmod_poly(a, b)
        assert r.is_zero() or r.degree() < b.degree()
        for _, c in q.coeffs + r.coeffs:
            assert_canonical(c)
        assert ref_mul(q, b) + r == a

    @given(mixed_poly(-2, 4), mixed_poly(-2, 3))
    @settings(max_examples=40, deadline=None)
    def test_exact_div_round_trip(self, a, b):
        assume(not b.is_zero())
        prod = ref_mul(a, b)
        assert divides(b, prod)
        assert_same(exact_div(prod, b), a)

    @given(mixed_poly(-3, 4), mixed_cyclo(), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_monomial_division_matches_long_division(self, a, c, e):
        assume(not a.is_zero() and not c.is_zero())
        m = LaurentPoly.monomial(c, e)
        va = a.valuation()
        q, r = divmod_poly(a.shift(-va), m.shift(-e))
        assert r.is_zero()
        assert_same(exact_div(a, m), q.shift(va - e))
        # a monomial has no roots: its quotient is a shift and a scaling
        assert_same(a.divide_split(c, e, {}), q.shift(va - e))

    def test_group_ring_zero_reduces_to_zero(self):
        # 1 + E(3,1) + E(3,2) is nonzero in Z[x]/(x^3 - 1) but zero in Q(zeta3)
        p = LaurentPoly({0: 1, 1: 1, 2: 1})
        assert_same(p.evaluate(zeta(3)), Cyclo.rational(0))
        q, r = divmod_poly(x ** 3 - 1, x - zeta(3))
        assert r.is_zero() and q == (x - zeta(3, 2)) * (x - 1)
        # the peel zero-tests the same group-ring lifts: 1 - x^3 over 1 - E(3, 1) x
        assert (1 - x ** 3).peel([(3, 1, 1)]) == (1 - x * zeta(3, 2)) * (1 - x)


ROOT_ORDERS = [1, 2, 3, 4, 6, 8, 12, 24]


class TestRootOfUnityEvaluation:
    """Values at E(d, k) read from cached roots, against Cyclo + and *."""

    @given(mixed_poly(-6, 6), st.sampled_from(ROOT_ORDERS).flatmap(
        lambda d: st.integers(-d, 2 * d).map(lambda k: zeta(d, k))))
    @settings(max_examples=80, deadline=None)
    def test_matches_termwise(self, p, v):
        assert_same(p.evaluate(v), ref_evaluate(p, v))

    @pytest.mark.parametrize("v", [Cyclo.rational(2), 1 + zeta(4), zeta(3) / 2],
                             ids=["2", "1+E(4)", "E(3)/2"])
    @given(p=mixed_poly(-3, 4))
    @settings(max_examples=20, deadline=None)
    def test_non_roots_use_powers(self, v, p):
        assert v.root_of_unity_order() is None
        assert_same(p.evaluate(v), ref_evaluate(p, v))

    def test_roots_take_no_powers(self, monkeypatch):
        p = LaurentPoly({-5: zeta(5), 0: 3, 7: zeta(8) + Fraction(1, 2)})
        want = ref_evaluate(p, zeta(12, 5))

        def no_power(*_):
            raise AssertionError("power taken at a root of unity")
        monkeypatch.setattr(Cyclo, "__pow__", no_power)
        assert_same(p.evaluate(zeta(12, 5)), want)

    @pytest.mark.parametrize("v", [zeta(3), zeta(6, 5), zeta(4), Cyclo.rational(1), zeta(12, 7)],
                             ids=["E(3)", "E(6,5)", "E(4)", "1", "E(12,7)"])
    def test_g312_degrees_match_the_generic_sum(self, g312_result, v):
        # the constant 1 and x^6 + x^3 are lifted at the order of v^g, g the
        # gcd of their exponents; the other rows at lcm(d, 3)
        for row in g312_result.table.rows:
            p = row.degree
            assert_same(p.evaluate(v), sum([c * v ** e for e, c in p.coeffs], Cyclo.rational(0)))


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

    @pytest.mark.parametrize("exp", [1, 3, -2, Fraction(1, 2), Fraction(-2, 3)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_signed_power_roundtrip(self, sign, exp):
        m = FracExpMonomial.of(sign, exp)
        assert FracExpMonomial.parse(m.serialize()) == m
        # a bare power with its sign, as parse_poly reads it
        x_part = m.serialize().removeprefix("-1*")
        assert FracExpMonomial.parse(("-" if sign < 0 else "") + x_part) == m
        assert FracExpMonomial.parse(("-" if sign < 0 else "+") + x_part) == m

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


class TestNormalFormFastPaths:
    """Transforms that keep terms canonical equal their constructor-built forms."""

    @staticmethod
    def _same(p, terms):
        q = LaurentPoly(terms)
        assert p.coeffs == q.coeffs and hash(p) == hash(q) and p == q

    @given(rand_poly(), st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_transforms(self, p, k):
        self._same(-p, [(e, -c) for e, c in p.coeffs])
        self._same(p.shift(k), [(e + k, c) for e, c in p.coeffs])
        self._same(p.conjugate(), [(e, c.conjugate()) for e, c in p.coeffs])
        self._same(p.vee(), [(-e, c.conjugate()) for e, c in p.coeffs])

    def test_any_mapping_is_accepted(self):
        from types import MappingProxyType
        want = LaurentPoly([(2, zeta(3)), (0, 1)])
        assert LaurentPoly(MappingProxyType({2: zeta(3), 0: 1})) == want
        assert LaurentPoly({2: zeta(3), 0: 1}) == want

    def test_fast_path_values_are_immutable(self):
        for p in (-(x + 1), (x + 1).shift(2), (x + zeta(3)).vee()):
            with pytest.raises(AttributeError):
                p.coeffs = ()
