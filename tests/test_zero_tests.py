"""The zero tests on integer lifts against the canonical values they replace.

``CycloSum.is_zero`` and ``LaurentPoly.vanishes_at`` decide zero from the
Zumbroich-basis rewrite of an integer lift, with no canonical form built.
Each is compared with ``is_zero`` of the canonical value: on coefficients of
conductors 1 to 24, with negative exponents, at roots of unity of order up
to 24, and on sums built to vanish, some only after the basis rewrite.
``LaurentPoly.multiplicities``, a run of such tests on Hasse derivatives, is
compared with repeated long division by x - E(d, k).
"""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from spets.cyclotomic import Cyclo, CycloSum, cyclotomic_int_coeffs, zeta
from spets.laurent import LaurentPoly

from conftest import divmod_poly

CONDUCTORS = [1, 3, 4, 8, 12, 24]

x = LaurentPoly.x()


def cyclo():
    """Sums c * E(n, k) over mixed conductors, c with small denominators."""
    root = st.sampled_from(CONDUCTORS).flatmap(
        lambda n: st.integers(0, n - 1).map(lambda k: zeta(n, k)))
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.lists(st.tuples(root, coef), max_size=3).map(
        lambda ts: sum((z * c for z, c in ts), Cyclo.rational(0)))


def poly(low=-5, high=5):
    return st.dictionaries(st.integers(low, high), cyclo(), max_size=4).map(LaurentPoly)


# (d, k) for E(d, k), k in any residue class and sign
roots = st.integers(1, 24).flatmap(lambda d: st.tuples(st.just(d), st.integers(-d, 2 * d)))


def canonical(p, ds):
    return [p.evaluate(zeta(d, k)).is_zero() for d, k in ds]


@given(st.lists(st.tuples(cyclo(), cyclo()), max_size=5))
@settings(max_examples=120, deadline=None)
def test_cyclo_sum_is_zero_matches_value(pairs):
    s = CycloSum()
    for a, b in pairs:
        s.add(a, b)
    assert s.is_zero() == s.value().is_zero()


@given(st.lists(st.tuples(cyclo(), cyclo()), max_size=4))
@settings(max_examples=80, deadline=None)
def test_cyclo_sum_minus_itself_is_zero(pairs):
    s = CycloSum()
    for a, b in pairs:
        s.add(a, b)
        s.add(-a, b)
    assert s.is_zero() and s.value().is_zero()


@given(cyclo(), st.sampled_from([(3, 1), (8, 4), (12, 4), (24, 8), (24, 12)]),
       st.integers(0, 23))
@settings(max_examples=80, deadline=None)
def test_cyclo_sum_of_a_root_relation_is_zero(a, rel, i):
    # sum_{t<p} E(n, i + t*n/p) = 0 for p = n/step prime
    n, step = rel
    s = CycloSum()
    for t in range(0, n, step):
        s.add(a, zeta(n, i + t))
    assert s.is_zero() and s.value().is_zero()
    s.add(a)
    assert s.is_zero() == a.is_zero()


@pytest.mark.parametrize("roots", [[(3, 0), (3, 1), (3, 2)], [(6, 1), (6, 3), (6, 5)],
                                   [(12, 1), (12, 5), (12, 9)], [(24, 7), (24, 15), (24, 23)]])
def test_cyclo_sum_vanishing_only_after_rewrite(roots):
    s = CycloSum()
    for n, k in roots:
        s.add(zeta(n, k))
    assert len([c for c in s.acc.values() if c]) == len(roots)  # nonzero in the group ring
    assert s.is_zero()


@given(poly(), st.lists(roots, max_size=6))
@settings(max_examples=120, deadline=None)
def test_vanishes_at_matches_evaluate(p, ds):
    assert p.vanishes_at(ds) == canonical(p, ds)


@given(poly(-3, 3), roots, st.lists(roots, max_size=4))
@settings(max_examples=80, deadline=None)
def test_vanishes_at_a_root_of_a_linear_factor(p, root, ds):
    d, k = root
    q = p * (x - zeta(d, k))
    ds = [root] + ds
    got = q.vanishes_at(ds)
    assert got[0]
    assert got == canonical(q, ds)


@given(poly(-3, 3), st.integers(1, 24), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_vanishes_at_the_primitive_roots_of_phi_d(p, d, shift):
    phi = LaurentPoly(dict(enumerate(cyclotomic_int_coeffs(d)))).shift(shift)
    q = p * phi
    ds = [(d, k) for k in range(-d, d + 1)]
    got = q.vanishes_at(ds)
    assert got == canonical(q, ds)
    assert all(hit for (_, k), hit in zip(ds, got) if gcd(k, d) == 1)


def test_vanishes_at_needs_the_basis_rewrite():
    # 1 + x + x^2 at E(3, 1) lifts to 1 + z + z^2, nonzero in Z[z]/(z^3 - 1)
    p = LaurentPoly({0: 1, 1: 1, 2: 1})
    assert p.vanishes_at([(3, 1), (3, 2), (3, 0), (6, 2), (1, 0)]) == [True, True, False,
                                                                         True, False]


def test_zero_polynomial_vanishes_everywhere():
    assert LaurentPoly.zero().vanishes_at([(1, 0), (5, 2)]) == [True, True]
    assert LaurentPoly.one().vanishes_at([]) == []


def divided_multiplicity(p, d, k):
    """How often x - E(d, k) divides the nonzero p, by repeated long division."""
    lin, m = x - zeta(d, k), 0
    while True:
        q, r = divmod_poly(p, lin)
        if not r.is_zero():
            return m
        p, m = q, m + 1


@given(poly(-3, 3).filter(bool), st.lists(st.tuples(roots, st.integers(0, 3)), max_size=3),
       st.lists(roots, max_size=3))
@settings(max_examples=60, deadline=None)
def test_multiplicities_match_repeated_division(p, planted, others):
    for (d, k), m in planted:
        p = p * (x - zeta(d, k)) ** m
    want = {r: divided_multiplicity(p, *r) for r in [r for r, _ in planted] + others}
    assert all(want[r] >= m for r, m in planted)
    for caps in [dict.fromkeys(want, c) for c in range(5)] + [
            {r: m + 1 for r, m in want.items()}, {r: max(m - 1, 0) for r, m in want.items()}]:
        assert p.multiplicities(caps) == {r: min(want[r], c) for r, c in caps.items()}


def test_multiplicities_of_zero_meet_every_cap():
    caps = {(3, 1): 2, (1, 0): 0, (24, -5): 7}
    assert LaurentPoly.zero().multiplicities(caps) == caps
    assert LaurentPoly.zero().multiplicities({}) == {}
