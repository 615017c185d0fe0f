import random
import re
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from spets.cyclotomic import (_NAMED_FIELDS, Cyclo, CycloField, _packed_phi, _signed_digits,
                              _zero_digits, field_from_name, parse_cyclo, sqrt_int, zeta)
from spets.hecke import CyclicHeckeParams
from spets.laurent import FracExpMonomial

from conftest import Matrix, eigenspace, row_reduce


def rand_cyclo(n):
    return st.lists(
        st.tuples(st.integers(0, n - 1),
                  st.fractions(min_value=-5, max_value=5)),
        max_size=4).map(
        lambda terms: sum((zeta(n, k) * c for k, c in terms),
                          Cyclo.rational(0)))


class TestArithmetic:
    def test_roots_of_unity_multiply(self):
        assert zeta(12, 4) == zeta(3)
        assert zeta(5) * zeta(5, 4) == Cyclo.rational(1)
        assert zeta(8) ** 8 == Cyclo.rational(1)

    def test_minimal_conductor(self):
        # 1 + zeta3 + zeta3^2 = 0 collapses to conductor 1
        z = zeta(3)
        assert (Cyclo.rational(1) + z + z * z).is_zero()
        assert (zeta(12, 3)).n == 4  # i written in conductor 12 canonicalizes

    def test_inverse(self):
        c = Cyclo.rational(2) + zeta(5)
        assert c * c.inverse() == Cyclo.rational(1)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            Cyclo.rational(0).inverse()

    @given(rand_cyclo(12), rand_cyclo(12))
    @settings(max_examples=50, deadline=None)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(rand_cyclo(15))
    @settings(max_examples=50, deadline=None)
    def test_conjugate_involution(self, a):
        assert a.conjugate().conjugate() == a

    @given(rand_cyclo(7))
    @settings(max_examples=30, deadline=None)
    def test_galois_composition(self, a):
        assert a.galois(2).galois(4) == a.galois(8 % 7)

    def test_root_of_unity_order(self):
        assert zeta(6).root_of_unity_order() == (6, 1)
        assert (-zeta(3)).root_of_unity_order() == (6, 5)
        assert (zeta(3) + 1).root_of_unity_order() == (6, 1)
        assert (zeta(3) + 2).root_of_unity_order() is None
        assert Cyclo.rational(1).root_of_unity_order() == (1, 0)

    def test_root_of_unity_order_matches_the_scan(self):
        # the scan tries E(m, j), gcd(j, m) = 1, for m the conductor and twice
        # it; each such root is E(m, j) for one pair only, so a dict stands in
        scan = {}
        for m in range(1, 241):
            scan.update({zeta(m, j): (m, j) for j in range(m) if gcd(j, m) == 1})
        for n in range(1, 121):
            for k in range(n):
                for z in (zeta(n, k), -zeta(n, k)):
                    assert z.root_of_unity_order() == scan[z], (n, k, z)

    def test_rational_hashes_like_fraction(self):
        assert len({Cyclo.rational(1), 1}) == 1
        assert len({Cyclo.rational(Fraction(-2, 3)), Fraction(-2, 3)}) == 1
        assert hash(zeta(3) + zeta(3, 2)) == hash(-1)


class TestElimination:
    def test_fraction_system(self):
        # the augmented matrix of x + 2y = 5, 3x + 4y = 6
        rows = [[Fraction(1), Fraction(2), Fraction(5)], [Fraction(3), Fraction(4), Fraction(6)]]
        assert row_reduce(rows) == [0, 1]
        assert rows == [[1, 0, -4], [0, 1, Fraction(9, 2)]]

    def test_inconsistent_system(self):
        m = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)], [Fraction(0), Fraction(1)]]
        # a pivot in the right-hand side column: no solution
        rows = [row + [b] for row, b in zip(m, [Fraction(1), Fraction(3), Fraction(0)])]
        assert row_reduce(rows) == [0, 1, 2]
        # the same columns with a right-hand side in their span
        rows = [row + [b] for row, b in zip(m, [Fraction(1), Fraction(2), Fraction(0)])]
        assert row_reduce(rows) == [0, 1]
        assert [row[2] for row in rows[:2]] == [1, 0]

    def test_kernel_of_singular_cyclo_matrix(self):
        z = zeta(3)
        # the second row is zeta^2 times the first, so the rank is 1
        m = Matrix([[1, z], [z ** 2, 1]])
        rows = [list(r) for r in m.rows]
        assert row_reduce(rows) == [0]
        assert rows == [[1, z], [0, 0]]
        (vec,) = eigenspace(m, Cyclo.rational(0))
        assert vec == [-z, 1]
        assert m.apply(vec) == [0, 0]


class TestSerialization:
    def test_large_conductor_prints_from_one_remainder(self):
        # E(4001, 4000) is a basis root above phi = 4000: one packed remainder
        t = time.perf_counter()
        text = zeta(4001, 4000).serialize()
        assert time.perf_counter() - t < 1
        assert text == "-1" + "".join(f"-E(4001,{k})" for k in range(1, 4000))

    def test_conductor_7999_reads_only_nonzero_digits(self):
        # 7999 = 19 * 421 and phi = 7560: each E(7999, k) on a basis root
        # above phi prints several power-basis terms from one packed
        # remainder; 200 of them took 7 s when every digit was shifted out
        roots = [z for z in (zeta(7999, k) for k in range(7560, 7999))
                 if z.n == 7999 and z.terms[0][0] >= 7560][:200]
        t = time.perf_counter()
        texts = [z.serialize() for z in roots]
        assert time.perf_counter() - t < 2
        assert len(roots) == 200 and all(text.count("E(") > 1 for text in texts)

    def test_signed_digits_are_the_nonzero_digits(self):
        # digits next to a zero slot, at both ends of the range and with zero
        # bytes inside a slot
        rng = random.Random(7)
        for _ in range(500):
            width, count = 16 * rng.randint(1, 4), rng.randint(1, 40)
            top = (1 << (width - 1)) - 1
            vs = [rng.choice([0, 0, 1, -1, 256, -256, top, -top, rng.randint(-top, top)])
                  for _ in range(count)]
            s = sum(v << width * t for t, v in enumerate(vs))
            assert list(_signed_digits(s, width, count)) == [(t, v) for t, v in enumerate(vs) if v]

    def test_zero_digits_test_each_digit(self):
        # signed digits that are multiples of Phi_n(2^b), or one off, at both
        # ends of the range, against the remainder of each digit alone
        rng = random.Random(11)
        for _ in range(300):
            n, b = rng.choice([1, 2, 3, 4, 5, 8, 12]), 16 * rng.randint(1, 2)
            width, count, phi = b * (2 * n - 1), rng.randint(1, 40), _packed_phi(n, b)
            top = (1 << (width - 1)) - 1
            vs = [rng.choice([v for v in (0, phi, -phi, phi + 1, 1, -1, top, -top, top // phi * phi,
                                          rng.randint(-(top // phi), top // phi) * phi - 1,
                                          rng.randint(-(top // phi), top // phi) * phi,
                                          rng.randint(-top, top)) if abs(v) <= top])
                  for _ in range(count)]
            s = sum(v << width * t for t, v in enumerate(vs))
            assert _zero_digits(s, width, count, n, b) == [v % phi == 0 for v in vs]

    def test_grammar(self):
        c = zeta(3) * Fraction(2, 3) - Fraction(1, 2)
        assert c.serialize() == "-1/2+2/3*E(3,1)"
        assert parse_cyclo(c.serialize()) == c

    def test_order_zero_root_is_value_error(self):
        with pytest.raises(ValueError, match=r"E\(0,1\)"):
            parse_cyclo("E(0,1)")
        with pytest.raises(ValueError, match="order 0"):
            parse_cyclo("1+2*E(0,3)")

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="'1/0'"):
            parse_cyclo("1/0")
        with pytest.raises(ValueError, match="'1/0'"):
            FracExpMonomial.parse("1/0")
        with pytest.raises(ValueError, match=r"x\^\(1/0\)"):
            FracExpMonomial.parse("x^(1/0)")
        with pytest.raises(ValueError, match="'1/0'"):
            CyclicHeckeParams.of(["1/0"])
        with pytest.raises(ValueError, match=r"'2\+3/0\*E\(3,1\)'"):
            parse_cyclo("2+3/0*E(3,1)")

    @pytest.mark.parametrize("text, offset", [
        ("E(3,1)*x^(2/0)", 6), ("1+E(3,1)?", 8), ("2*E(4,1) 3", 9)])
    def test_unexpected_character_names_literal_and_offset(self, text, offset):
        want = f"{text[offset]!r} at offset {offset} in cyclotomic literal {text!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            parse_cyclo(text)

    def test_monomial_parse_error_names_literal(self):
        want = "'*' at offset 6 in cyclotomic literal 'E(3,1)*x^(2/0)'"
        with pytest.raises(ValueError, match=re.escape(want)):
            FracExpMonomial.parse("E(3,1)*x^(2/0)")

    def test_huge_root_order_is_value_error(self):
        # rejected before any arithmetic at conductor n, which costs a power of phi(n)
        with pytest.raises(ValueError, match=r"E\(100000,1\)"):
            parse_cyclo("E(100000,1)")
        with pytest.raises(ValueError, match="order 1001"):
            parse_cyclo("1+E(1001,2)")
        assert parse_cyclo("E(1000,1)") == zeta(1000)

    @given(rand_cyclo(20))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, a):
        assert parse_cyclo(a.serialize()) == a


class TestSqrt:
    @pytest.mark.parametrize("n", [2, 3, 5, 6, -1, -2, -3, -7])
    def test_square(self, n):
        s = sqrt_int(n)
        assert s * s == Cyclo.rational(n)

    def test_conventions(self):
        assert sqrt_int(-3) == zeta(3) - zeta(3, 2)
        assert sqrt_int(-1) == zeta(4)
        assert sqrt_int(5) == Cyclo.rational(1) + (zeta(5) + zeta(5, 4)) * 2


class TestFields:
    def test_stabilizer_closure(self):
        f = CycloField(8, (3,))
        assert 1 in f.stabilizer and 3 in f.stabilizer

    def test_contains(self):
        f = field_from_name("Q(sqrt-2)")
        assert f.contains(sqrt_int(-2))
        assert not f.contains(zeta(8))

    def test_degrees(self):
        assert field_from_name("Q(sqrt5)").degree() == 2
        assert field_from_name("Q(zeta12)").degree() == 4
        assert field_from_name("Q(sqrt5,zeta3)").degree() == 4
        assert CycloField.rationals().degree() == 1

    def test_named_lookup(self):
        assert field_from_name("Q(zeta3)") == CycloField.cyclotomic(3)
        assert field_from_name("12") == CycloField.cyclotomic(12)

    def test_rationals_are_the_first_cyclotomic_field(self):
        # both close the stabilizer from 1 mod 1 = 0
        q, q1 = CycloField.rationals(), CycloField.cyclotomic(1)
        assert q == q1 and hash(q) == hash(q1)
        assert q.stabilizer == q1.stabilizer == {0} and q1.degree() == 1

    def test_galois_orbit_exponents_rationals(self):
        # the identity is the only element over any modulus base
        assert CycloField.rationals().galois_orbit_exponents(1) == [1]
        assert CycloField.rationals().galois_orbit_exponents(4) == [1, 3]

    @given(st.sampled_from([1, 3, 4, 5, 7, 8, 9, 12, 15, 20, 24]).flatmap(rand_cyclo),
           st.sampled_from(sorted(_NAMED_FIELDS) + ["6", "9", "20"]))
    @settings(max_examples=150, deadline=None)
    def test_contains_matches_galois_scan(self, z, name):
        field = field_from_name(name)
        assert field.contains(z) == _fixed_by_field_galois_group(z, field)
        # the relative trace of z down to the field always lies in it
        group = field.galois_orbit_exponents(lcm(z.n, field.conductor))
        trace = sum((z.galois(k) for k in group), Cyclo.rational(0))
        assert field.contains(trace) and _fixed_by_field_galois_group(trace, field)


def _fixed_by_field_galois_group(z, field):
    """Reference membership test: z lies in K exactly when every element of
    Gal(Q(zeta_N)/K) fixes it, for N = lcm(conductor of z, conductor of K)."""
    big = lcm(z.n, field.conductor)
    return all(z.galois(k) == z for k in field.galois_orbit_exponents(big))


def _parts(z):
    return z.n, z.terms, z.den, hash(z)


RATIONALS = [0, 1, -1, 6, -12, Fraction(1, 2), Fraction(-4, 6), Fraction(9, 3), True]


class TestNormalFormFastPaths:
    """Results built without the normaliser equal the general constructor's."""

    @pytest.mark.parametrize("q", RATIONALS)
    def test_rational(self, q):
        f = Fraction(q)
        assert _parts(Cyclo.rational(q)) == _parts(Cyclo(1, {0: f.numerator}, f.denominator))

    def test_shared_constants(self):
        from spets.cyclotomic import _ONE, _ZERO
        assert _parts(_ONE) == _parts(Cyclo(1, {0: 1}))
        assert _parts(_ZERO) == _parts(Cyclo(1, {}))

    @given(st.sampled_from([1, 3, 4, 5, 8, 9, 12, 15]).flatmap(rand_cyclo))
    @settings(max_examples=60, deadline=None)
    def test_negation(self, a):
        assert _parts(-a) == _parts(Cyclo(a.n, {i: -c for i, c in a.terms}, a.den))

    @given(st.sampled_from([1, 3, 4, 5, 8, 9, 12, 15]).flatmap(rand_cyclo),
           st.sampled_from(RATIONALS[:-1]))
    @settings(max_examples=60, deadline=None)
    def test_rational_multiple(self, a, q):
        f = Fraction(q)
        want = _parts(Cyclo(a.n, {i: c * f.numerator for i, c in a.terms},
                            a.den * f.denominator))
        assert _parts(a * q) == want
        assert _parts(q * a) == want
        assert _parts(a * Cyclo.rational(q)) == want

    @pytest.mark.parametrize("n", range(1, 25))
    def test_one_term_inverse(self, n):
        seen = 0
        for k in range(n):
            for q in (1, -1, 3, Fraction(-2, 5), Fraction(7, 4)):
                x = zeta(n, k) * q
                if len(x.terms) != 1:
                    continue
                seen += 1
                inv = x.inverse()
                assert x * inv == 1
                assert _parts(inv) == _parts(x._norm_inverse())
        assert seen

    @given(st.sampled_from([1, 1, 3, 4, 8]).flatmap(rand_cyclo),
           st.one_of(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3,
                                                      max_denominator=6)))
    @settings(max_examples=100, deadline=None)
    def test_eq_with_rational(self, a, q):
        for x in (a, Cyclo.rational(q)):
            assert (x == q) == (x == Cyclo.rational(q))
            assert (q == x) == (x == q)
            if x == q:
                assert hash(x) == hash(q) == hash(Cyclo.rational(q))

    @pytest.mark.parametrize("build", [
        lambda: Cyclo.rational(5), lambda: Cyclo.rational(Fraction(1, 3)),
        lambda: -zeta(3), lambda: zeta(5) * 3, lambda: zeta(4).inverse(),
        lambda: Cyclo.rational(0)])
    def test_fast_path_values_are_immutable(self, build):
        z = build()
        for name in ("n", "terms", "den", "_hash"):
            with pytest.raises(AttributeError):
                setattr(z, name, 2)
