"""The zero tests on integer lifts against the canonical values they replace.

Every zero test packs an integer lift g as g(2^b) and takes one remainder
mod Phi_n(2^b) (``cyclotomic._is_zero_packed``), with no canonical form
built.  The kernel is compared with the emptiness of the Zumbroich-basis
rewrite ``_to_basis`` on lifts of degree below 2n, at conductors 105 and 385
(where max_k ||z^k mod Phi_n||_inf is 2 and 3, read from sympy remainders)
with coefficients up to +-10^6, at conductors above ``_PACK_PHI`` (where
``_is_zero_lift`` takes the rewrite itself, so the kernel is forced there),
and on lifts built to vanish at the packing point 2^b itself.  ``CycloSum.is_zero`` and
``LaurentPoly.vanishes_at`` are compared with ``is_zero`` of the canonical
value: on coefficients of conductors 1 to 24, with negative exponents, at
roots of unity of order up to 24, and on sums built to vanish, some only
after the basis rewrite.  ``LaurentPoly.multiplicities``, a run of such
tests on Hasse derivatives, is compared with repeated long division by
x - E(d, k) and with planted multiplicities up to 20.  ``root_multiplicities``,
which reads a whole table at once from one packed sum per root for each
block of rows, is compared with the one-polynomial loop of
``conftest.multiplicities``: on the verifier's degree tables, on batches
mixing conductors, zero rows and PackedLifts over several blocks, above
``_PACK_PHI``, and on rows whose norms set the block's slot width.
"""

from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import spets
from spets.cyclotomic import (_PACK_PHI, Cyclo, CycloSum, _is_zero_lift, _is_zero_packed, _pack,
                              _slot_bits, _to_basis, _zero_test_norms, cyclotomic_int_coeffs,
                              zeta)
from spets import reflection, tabledata, uch
from spets.laurent import _BLOCK_ROWS, LaurentPoly, PackedLift, root_multiplicities

from conftest import divmod_poly, multiplicities

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


# -- the packed kernel --------------------------------------------------------


def basis_is_empty(n, g):
    """The oracle: g folded mod z^n - 1 and rewritten on the Zumbroich basis."""
    folded = {}
    for i, c in g.items():
        folded[i % n] = folded.get(i % n, 0) + c
    return not _to_basis(n, folded)


def times_phi(n, h):
    """The lift h * Phi_n, zero at zeta_n."""
    g = {}
    for i, a in h.items():
        for j, c in enumerate(cyclotomic_int_coeffs(n)):
            g[i + j] = g.get(i + j, 0) + a * c
    return g


@lru_cache(maxsize=None)
def largest_power_coefficient(n):
    """max_k ||z^k mod Phi_n||_inf over 0 <= k < n, from sympy's remainders
    z^(k+1) mod Phi_n = z * (z^k mod Phi_n) mod Phi_n."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    phi, r, top = sympy.Poly(sympy.cyclotomic_poly(n, z), z), sympy.Poly(1, z), 0
    for _ in range(n):
        top = max(top, *map(abs, r.all_coeffs()))
        r = (r * sympy.Poly(z, z)).rem(phi, auto=False)
    return top


@pytest.mark.parametrize("n", list(range(1, 131)) + [210, 385])
def test_norm_bound_covers_every_power(n):
    c, h = _zero_test_norms(n)
    assert h == sum(map(abs, cyclotomic_int_coeffs(n)))
    assert c >= largest_power_coefficient(n)


def test_conductors_105_and_385_need_the_bound():
    assert [largest_power_coefficient(n) for n in (104, 105, 385)] == [1, 2, 3]


def lifts(n):
    """Lifts of degree below 2n with coefficients up to 10^6 in absolute
    value: multiples of Phi_n, those plus one unit term, and arbitrary ones."""
    phi = len(cyclotomic_int_coeffs(n)) - 1
    coef = st.integers(-10 ** 6, 10 ** 6)
    zero = st.dictionaries(st.integers(0, 2 * n - 1 - phi), coef, max_size=6).map(
        lambda h: times_phi(n, h))
    nudged = st.tuples(zero, st.integers(0, 2 * n - 1), st.sampled_from([-1, 1])).map(
        lambda t: {**t[0], t[1]: t[0].get(t[1], 0) + t[2]})
    return st.one_of(zero, nudged, st.dictionaries(st.integers(0, 2 * n - 1), coef, max_size=8))


@pytest.mark.parametrize("n", [105, 385])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_kernel_matches_the_basis_rewrite(n, data):
    g = data.draw(lifts(n))
    assert _is_zero_lift(n, g) == basis_is_empty(n, g)


@pytest.mark.parametrize("n", [1155, 2310, 4096, 6561, 9240])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_split_conductors_match_the_basis_rewrite(n, data):
    # phi(n) is above the packing bound, so _is_zero_lift rewrites the lift
    # on the basis; the packed remainder, forced at n, must agree
    g = data.draw(lifts(n))
    b = _slot_bits(n, sum(map(abs, g.values())))
    assert _is_zero_lift(n, g) == _is_zero_packed(n, _pack(g, b), b)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 12, 105])
def test_no_false_zero_at_the_packing_point(n):
    # (2^m - z) * h vanishes at z = 2^m and at no root of unity; the slot
    # width must exceed m for every m, and it is tightest where the bound
    # on max_k ||z^k mod Phi_n|| is 1 (n a power of 2)
    for m in range(1, 150):
        for h in ({0: 1}, {0: 1, 3: -2}, {1: 5}):
            g = {}
            for i, a in h.items():
                g[i] = g.get(i, 0) + a * 2 ** m
                g[i + 1] = g.get(i + 1, 0) - a
            assert not _is_zero_lift(n, g), (m, h)
            assert _slot_bits(n, sum(map(abs, g.values()))) > m


PLANTED = [{(1, 0): 20}, {(1, 0): 12, (4, 1): 5, (3, 2): 7}, {(6, 1): 9, (2, 1): 9},
           {(12, 5): 4, (8, 3): 6}]


@pytest.mark.parametrize("planted", PLANTED)
def test_multiplicities_above_one(planted):
    p = LaurentPoly.one()
    for (d, k), m in planted.items():
        p = p * (x - zeta(d, k)) ** m
    caps = {**dict.fromkeys([(1, 0), (2, 1), (3, 1), (4, 3), (24, 7)], 25),
            **dict.fromkeys(planted, 25)}
    assert p.multiplicities(caps) == {r: planted.get(r, 0) for r in caps}
    assert p.shift(-3).multiplicities({r: 3 for r in caps}) == {
        r: min(planted.get(r, 0), 3) for r in caps}


def test_x_minus_one_to_the_twentieth():
    assert ((x - 1) ** 20).multiplicities({(1, 0): 25}) == {(1, 0): 20}


@given(poly(-3, 3).filter(bool), roots, st.integers(-5, 5), cyclo(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_value_is_matches_evaluate(p, root, shift, w, hit):
    z = zeta(*root)
    value = z ** shift * p.evaluate(z)
    if hit:
        w = value
    assert p.packed().value_is(root, shift, w) == (value == w)


def test_to_basis_serves_only_the_canonical_form():
    # every zero test in the library goes through the packed kernel, or,
    # above the packing bound, through _is_zero_lift's basis rewrite; the
    # other calls are canonical forms: Cyclo's, and the root orbit's keys
    # at one fixed conductor
    src = Path(spets.__file__).parent
    calls = [(f.name, line.strip()) for f in sorted(src.glob("*.py"))
             for line in f.read_text().splitlines()
             if "_to_basis(" in line and "def _to_basis(" not in line]
    assert calls == [("cyclotomic.py", "return not _to_basis(n, folded)"),
                     ("cyclotomic.py", "coeffs = _to_basis(n, coeffs)"),
                     ("reflection.py", "coords = [_to_basis(n, c) for c in coords]")]


# -- whole tables ----------------------------------------------------------------


def verifier_caps(G):
    """The caps of the verifier's degree check: 1 at each regular
    eigenvalue's order, the order's multiplicity at its roots."""
    orders = [z.root_of_unity_order() for z in uch.regular_eigenvalues(G)]
    return {**dict.fromkeys(orders, 1), **G.order_roots}


def assert_matches_oracle(polys, caps):
    got = root_multiplicities(polys, caps)
    assert got == [multiplicities(p, caps) for p in polys]
    return got


@pytest.mark.parametrize("e", range(1, 33))
def test_table_matches_the_oracle_on_cyclic_degrees(e):
    table = uch.cyclic_uch(e)
    assert_matches_oracle([r.degree for r in table.rows],
                          verifier_caps(reflection.build_group(f"Z_{e}")))


@pytest.mark.parametrize("group, ref", [("G4", "uch_g4.txt"), ("G(3,1,2)", "uch_g312.txt")])
def test_table_matches_the_oracle_on_reference_and_constructed_degrees(group, ref):
    res = tabledata.construct_uch(group)
    caps = verifier_caps(res.group)
    for table in (res.table, tabledata.load_reference(ref)):
        assert_matches_oracle([r.degree for r in table.rows], caps)


def test_caps_of_two_at_plus_and_minus_one():
    # G4's order has the roots 1 and -1 twice: rows at both multiplicities
    # go on to the first derivative, and those at 2 meet the cap
    res = tabledata.construct_uch("G4")
    caps = verifier_caps(res.group)
    assert caps[1, 0] == caps[2, 1] == 2
    got = assert_matches_oracle([r.degree for r in res.table.rows], caps)
    by_name = {r.name: (m[1, 0], m[2, 1]) for r, m in zip(res.table.rows, got)}
    assert by_name["G_4"] == (2, 0) and by_name["phi_{2,5}"] == (0, 2)
    assert by_name["Z_3:2"] == (1, 1)


def mixed_rows():
    """Rows over conductors 1 to 24 with planted roots, a zero row and
    PackedLifts, more than two blocks at the common conductor 24, and
    x - E(24, 23) just after E(24, 23) x in its block."""
    rows = []
    for i in range(5 * _BLOCK_ROWS // 2):
        c = [zeta(3), zeta(4), zeta(8, 3), Cyclo.rational(-2), zeta(24, 7) + 1][i % 5]
        p = (x ** (i % 4) + c) * (x - zeta(*[(1, 0), (2, 1), (4, 3), (3, 2), (12, 5)][i % 5]))
        rows.append(p * (x - zeta(4, 3)) ** (i % 3) if i % 7 else p.packed())
    rows[40:40] = [LaurentPoly.zero(), x * zeta(24, 23), x - zeta(24, 23)]
    return rows


def test_table_mixes_conductors_zero_rows_and_blocks():
    caps = {(1, 0): 2, (2, 1): 1, (4, 3): 3, (3, 2): 2, (12, 5): 1, (8, 3): 1, (24, 7): 2,
            (24, 23): 1}
    got = assert_matches_oracle(mixed_rows(), caps)
    assert got[40] == caps
    assert got[41][24, 23] == 0 and got[42][24, 23] == 1
    assert {m[4, 3] for m in got} == {0, 1, 2, 3}


def test_table_above_the_packing_bound():
    # E(263, k) has phi(263) = 262 > _PACK_PHI: no row is lifted once for
    # every root, so each is read alone, on integer dicts at the roots of
    # order 263 and packed at lcm(its conductor, d) for the others
    assert _PACK_PHI < 262
    z = zeta(263, 5)
    rows = [x - z, (x - z) ** 2 * (x + 1), x ** 3 - 1, x ** 2 - 1, (x - 1) * (x - zeta(3)),
            LaurentPoly.zero(), x + z]
    rows += [(x - 1) ** (i % 3) * (x ** 2 + i) for i in range(40)]
    caps = {(263, 5): 3, (1, 0): 2, (2, 1): 2, (3, 1): 1, (263, 258): 1}
    got = assert_matches_oracle(rows, caps)
    assert [m[263, 5] for m in got[:3]] == [1, 2, 0]


def test_block_width_is_set_by_its_largest_row():
    # the first row of the block has a small norm and the second one sits
    # at the bound of a wider slot, its sum at E(3, 2) in the top slot 2 * 3
    # - 2 (the basis of Q(zeta_3) is E(3, 1), E(3, 2)): a width taken from
    # the first row lets that sum run into the third row's, which vanishes
    # at every root
    c, h = _zero_test_norms(3)
    big = (2 ** 32 - 1 - h) // (2 * c)
    assert _slot_bits(3, big) == 32 < _slot_bits(3, big + 1) and _slot_bits(3, 2) == 16
    wide = x * (zeta(3, 2) * (big - 1)) + 1
    assert wide.packed().norm == big
    rows = [x - 1, wide, x ** 3 - 1] * 3
    caps = {(1, 0): 1, (3, 1): 1, (3, 2): 1}
    got = assert_matches_oracle(rows, caps)
    assert got[2] == caps and got[1] == dict.fromkeys(caps, 0)
    # at the first derivative, binomial(4, 1) = 4 times the norm of x^4 E(3, 2)
    # * (big - 1) + 1 reaches the top slot and needs the wider slot; the
    # row after it vanishes twice at E(3, 2)
    deep = x ** 4 * (zeta(3, 2) * (big - 1)) + 1
    rows = [x - 1, deep, (x - zeta(3, 2)) ** 2 * (x + 1)] * 3
    caps = {(1, 0): 1, (3, 2): 2}
    got = assert_matches_oracle(rows, caps)
    assert got[2] == {(1, 0): 0, (3, 2): 2}


def test_a_batch_of_one_is_the_polynomial_method():
    p = (x - 1) ** 2 * (x - zeta(3)) * (x ** 2 + zeta(8))
    caps = {(1, 0): 3, (3, 1): 2, (8, 5): 1, (6, 1): 1}
    assert root_multiplicities([p], caps) == [p.multiplicities(caps)] == [
        p.packed().multiplicities(caps)] == [multiplicities(p, caps)]
    assert root_multiplicities([], caps) == []
    assert root_multiplicities([p, LaurentPoly.zero()], {}) == [{}, {}]
