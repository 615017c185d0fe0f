"""Reflection group construction, class data, and regular elements."""

from fractions import Fraction
from math import lcm

import pytest

from spets import reflection
from spets.cyclotomic import Cyclo, CycloField, divisors, zeta
from spets.laurent import LaurentPoly, k_cyclotomic_factors
from spets.orders import all_sylow_congruences, order_poly
from spets.reflection import (Matrix, ReflectionCoset, SubCoset, build_group,
                              row_reduce, sylow_subcoset)
from spets.tabledata import _levi_order

from conftest import ORACLE_GROUPS, extra_group


class TestBuiltins:
    def test_cyclic_orders(self):
        for e in range(2, 9):
            G = build_group(f"Z_{e}")
            assert G.order == e
            assert G.rank == 1
            assert G.degrees == [(e, Cyclo.rational(1))]
            assert G.n_ref == e - 1
            assert G.n_hyp == 1

    def test_g4(self, g4):
        assert g4.order == 24
        assert g4.rank == 2
        assert [d for d, _ in g4.degrees] == [4, 6]
        assert g4.n_ref == 8
        assert g4.n_hyp == 4
        assert len(g4.classes) == 7

    def test_g312(self, g312):
        assert g312.order == 18
        assert g312.rank == 2
        assert [d for d, _ in g312.degrees] == [3, 6]
        assert g312.n_ref == 7
        assert g312.n_hyp == 5
        assert len(g312.classes) == 9

    def test_degree_sum_counts_reflections(self, g4, g312):
        for G in (g4, g312, build_group("Z_5")):
            assert sum(d - 1 for d, _ in G.degrees) == G.n_ref

    def test_class_sizes_sum(self, g4, g312):
        for G in (g4, g312):
            assert sum(c.size for c in G.classes) == G.order


class TestGenerators:
    """Generators must be reflections or the identity: the action on the
    roots is faithful only then."""

    @pytest.mark.parametrize("gens, bad", [
        ([Matrix.diagonal([-1, 1]), Matrix.diagonal([-1, -1])], 1),  # rank(g - 1) = 2
        ([Matrix([[1, 1], [0, 1]])], 0),                              # a transvection
    ])
    def test_non_reflection_is_value_error(self, gens, bad):
        with pytest.raises(ValueError, match=f"generator {bad} is neither"):
            ReflectionCoset("bad", gens, CycloField.rationals())

    def test_identity_generator(self):
        # Z_1 is built from [[1]], which has no root
        G = build_group("Z_1")
        assert (G.order, G.rank, G.gens, G.words, len(G.classes)) == (1, 1, [0], [""], 1)
        assert G.matrix(0) == Matrix.identity(1)
        assert G.n_ref == G.n_hyp == 0

    def test_infinite_order_stops_at_the_bound(self, monkeypatch):
        # diag(2, 1) fixes a hyperplane but has infinite order: its root's
        # orbit grows until the bound on the root walk
        monkeypatch.setattr(reflection, "MAX_GROUP_ORDER", 50)
        with pytest.raises(ArithmeticError, match="enumeration exceeded bound"):
            ReflectionCoset("inf", [Matrix.diagonal([2, 1])], CycloField.rationals())

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)"])
    def test_matrix_is_built_once(self, name):
        G = build_group(name)
        assert all(G.matrix(i) is G.matrix(i) for i in range(G.order))


class TestMatrix:
    def test_identity_and_mul(self):
        I = Matrix.identity(2)
        m = Matrix.diagonal([zeta(3), zeta(3) ** 2])
        assert m @ I == m
        assert m != I
        assert m @ m != I
        assert (m @ m @ m) == I

    def test_det_trace(self):
        m = Matrix.diagonal([zeta(4), Cyclo.rational(1)])
        assert m.det() == zeta(4)
        assert m.trace() == zeta(4) + 1

    def test_eigenspace(self):
        m = Matrix.diagonal([zeta(3), Cyclo.rational(1)])
        space = m.eigenspace(Cyclo.rational(1))
        assert len(space) == 1
        assert m.apply(space[0]) == space[0]

    def test_charpoly_roots(self):
        m = Matrix.diagonal([zeta(6), zeta(6) ** 5])
        cp = m.charpoly()
        assert cp.evaluate(zeta(6)) == Cyclo.rational(0)


class TestRegular:
    def test_g4_regular(self, g4):
        # zeta_4-regular elements exist; the maximal eigenspace is a line
        # avoiding all reflecting hyperplanes.
        w = g4.regular_element(zeta(4))
        assert w is not None
        assert g4.element_order(w) % 4 == 0
        assert len(g4.matrix(w).eigenspace(zeta(4))) == 1

    def test_g4_minus_one_regular(self, g4):
        w = g4.regular_element(Cyclo.rational(-1))
        assert g4.matrix(w) == Matrix.diagonal([Cyclo.rational(-1)] * 2)

    def test_g312_regular(self, g312):
        for z in (zeta(6), zeta(6) ** 5, Cyclo.rational(-1)):
            assert g312.regular_element(z) is not None

    def test_centralizer_of_regular_is_cyclic(self, g4):
        w = g4.regular_element(zeta(4))
        cent = g4.centralizer(w)
        assert len(cent) == g4.element_order(w)
        # cyclic: generated by w itself
        powers = set()
        m = p = g4.matrix(w)
        for _ in range(g4.element_order(w)):
            powers.add(p)
            p = p @ m
        assert {g4.matrix(g) for g in cent} == powers


def _restricted_centralizer(G, w, z):
    """The image of C_W(w) acting on V(w, z): each member's matrix on a basis
    of V(w, z), its coordinates solved by row-reducing [basis | g b]."""
    basis = G.matrix(w).eigenspace(z)
    k = len(basis)
    images = set()
    for g in G.centralizer(w):
        cols = []
        for b in basis:
            gb = G.matrix(g).apply(b)
            rows = [[v[i] for v in basis] + [gb[i]] for i in range(G.rank)]
            assert row_reduce(rows) == list(range(k))  # g b lies in V(w, z)
            cols.append([rows[j][k] for j in range(k)])
        images.add(Matrix([[cols[j][i] for j in range(k)] for i in range(k)]))
    return images


def _matrix_order(m):
    one, p, order = Matrix.identity(m.n), m, 1
    while p != one:
        p, order = p @ m, order + 1
    return order


class TestEigenspaceCentralizer:
    def test_restriction_is_cyclic(self, g4):
        w = g4.regular_element(zeta(4))
        assert g4.cyclic_centralizer_order(w, zeta(4)) == 4
        assert len(g4.matrix(w).eigenspace(zeta(4))) == 1

    def test_g312_zeta6(self, g312):
        w = g312.regular_element(zeta(6))
        assert g312.cyclic_centralizer_order(w, zeta(6)) == 6

    def test_matches_restricted_group(self):
        """On every (class representative, distinct eigenvalue) pair, the
        predicate reads |C_W(w)| exactly when the restriction of C_W(w) to
        the eigenspace is a cyclic group of that order."""
        outcomes = []
        for name in ("G4", "G(3,1,2)", "Z_6", "Z_12"):
            G = build_group(name)
            for c in G.classes:
                w = c.rep_index
                for z in dict.fromkeys(c.eigenvalues):
                    image = _restricted_centralizer(G, w, z)
                    order = len(G.centralizer(w))
                    cyclic = any(_matrix_order(m) == len(image) for m in image)
                    want = order if cyclic and len(image) == order else None
                    assert G.cyclic_centralizer_order(w, z) == want, (name, c.rep_word, z)
                    outcomes.append(want is not None)
        assert (len(outcomes), sum(outcomes)) == (45, 27)

    def test_empty_eigenspace_is_value_error(self, g4):
        with pytest.raises(ValueError, match="empty eigenspace"):
            g4.cyclic_centralizer_order(0, Cyclo.rational(-1))


TABLE_GROUPS = ("G4", "G(3,1,2)", "Z_6")


class TestTables:
    @pytest.mark.parametrize("name", TABLE_GROUPS)
    def test_mul_matches_matrix_products(self, name):
        # products of root permutations against products of matrices
        G = build_group(name)
        for i in range(G.order):
            for j in range(G.order):
                assert G.matrix(G._mul(i, j)) == G.matrix(i) @ G.matrix(j)

    @pytest.mark.parametrize("name", TABLE_GROUPS)
    def test_words_spell_elements(self, name):
        # each word spells its element, and distinct elements have distinct
        # matrices: the action on the roots is faithful
        G = build_group(name)
        for i, word in enumerate(G.words):
            m = Matrix.identity(G.rank)
            for ch in word:
                m = m @ G.matrix(G.gens["stuvw".index(ch)])
            assert m == G.matrix(i)
        assert len({G.matrix(i) for i in range(G.order)}) == G.order

    @pytest.mark.parametrize("name", TABLE_GROUPS)
    def test_powers_match_matrix_powers(self, name):
        G = build_group(name)
        ident = Matrix.identity(G.rank)
        for g in range(G.order):
            want, p = [ident], G.matrix(g)
            while p != ident:
                want.append(p)
                p = p @ G.matrix(g)
            assert [G.matrix(k) for k in G.powers(g)] == want
            assert G.element_order(g) == len(want)

    def test_eigenvalues_give_det_one_minus_x(self, g4, g312):
        # det(1 - x g) is the coefficient reversal of the charpoly det(x - g)
        for G in (g4, g312):
            for c, det in zip(G.classes, G._class_dets):
                g = G.matrix(c.rep_index)
                want = LaurentPoly([(g.n - e, a) for e, a in g.charpoly().coeffs])
                assert det == want

    @pytest.mark.parametrize("name", ["Z_0", "Z0"])
    def test_cyclic_order_zero(self, name):
        with pytest.raises(ValueError, match="cyclic order must be positive"):
            build_group(name)

    def test_order_bound_stops_enumeration(self, monkeypatch):
        monkeypatch.setattr(reflection, "MAX_GROUP_ORDER", 5)
        with pytest.raises(ArithmeticError, match="enumeration"):
            build_group("Z_12")
        monkeypatch.setattr(reflection, "MAX_GROUP_ORDER", 12)
        assert build_group("Z_12").order == 12


def _brute_normalizer_order(G, w_l, w):
    """|{v : v W_L v^-1 = W_L and v w v^-1 in W_L w}| by matrix products."""
    ident = Matrix.identity(G.rank)
    elements = [G.matrix(i) for i in range(G.order)]
    w_l = [elements[i] for i in w_l]
    w = elements[w]
    w_l_set = set(w_l)
    coset = {g @ w for g in w_l}
    count = 0
    for v in elements:
        vinv = next(h for h in elements if h @ v == ident)
        if ({v @ g @ vinv for g in w_l} == w_l_set
                and v @ w @ vinv in coset):
            count += 1
    return count


def _conjugation_normalizer_order(G, w_l, w):
    """|{v : v W_L v^-1 = W_L and v w v^-1 in W_L w}|, conjugating w and every
    member of W_L by each v in turn, with v^-1 = v^(k-1) for v of order k."""
    w_l = set(w_l)
    coset = {G._mul(l, w) for l in w_l}
    count = 0
    for v in range(G.order):
        inv = G.powers(v)[-1]
        conj = {g: G._mul(G._mul(v, g), inv) for g in (w, *w_l)}
        if {conj[l] for l in w_l} == w_l and conj[w] in coset:
            count += 1
    return count


class TestSylowNormalizer:
    def test_matches_brute_force(self, g4, g312):
        for G in (g4, g312):
            order = order_poly(G)
            phis = [phi for d in sorted({dd for dd, _ in G.degrees
                                         for dd in divisors(dd)})
                    for phi in k_cyclotomic_factors(d, G.field)
                    if phi.poly.divides(order)]
            assert phis
            for phi in phis:
                _, L = sylow_subcoset(G, phi)
                assert L.normalizer_order == _brute_normalizer_order(
                    G, L.group_elements, L.twist)
                assert L.relative_order * len(L.group_elements) == L.normalizer_order

    def test_nontrivial_w_l_matches_direct_count(self):
        # every Sylow W_L of G4 and G(3,1,2) is trivial; G29's are of order 8
        # at the factors x^2 -+ i of Phi_8 over Q(i)
        G = extra_group("G29")
        for phi in k_cyclotomic_factors(8, G.field):
            _, L = sylow_subcoset(G, phi)
            assert len(L.group_elements) == 8
            assert L.normalizer_order == 64 == \
                _conjugation_normalizer_order(G, L.group_elements, L.twist)

    def test_relative_order_rejects_a_remainder(self, g4):
        # W_L is normal in N_W(L): a normaliser count that |W_L| does not
        # divide is wrong, and is reported with both numbers
        s = g4.gens[0]
        L = SubCoset(g4, tuple(g4.powers(s)), 0, 4)
        with pytest.raises(ArithmeticError, match=r"\|N_W\(L\)\| = 4 .* \|W_L\| = 3"):
            L.relative_order


@pytest.fixture(scope="module", params=ORACLE_GROUPS)
def oracle_group(request):
    return build_group(request.param)


def _roots_of_exponent(G):
    """Every E(d, a) with d dividing the exponent of G."""
    exponent = lcm(*(G.element_order(g) for g in range(G.order)))
    return [zeta(d, a) for d in divisors(exponent) for a in range(d)]


class TestEigenDataOracle:
    """Eigenvalue multiplicities from the class cache against row-reduced
    eigenspaces: a matrix of finite order is diagonalisable, so the two
    must agree everywhere."""

    def test_multiplicity_is_eigenspace_dimension(self, oracle_group):
        G = oracle_group
        for g in range(G.order):
            eig = G.eigenvalues(g)
            for z in _roots_of_exponent(G):
                assert eig.count(z) == len(G.matrix(g).eigenspace(z)), (G.name, g, z)

    def test_regular_classes_and_elements(self, oracle_group):
        G = oracle_group
        reps = [c.rep_index for c in G.classes]
        for z in _roots_of_exponent(G):
            dims = [len(G.matrix(w).eigenspace(z)) for w in reps]
            best = max(dims)
            want = [ci for ci, dim in enumerate(dims) if dim == best]
            assert G.max_eigenspace_dim(z) == best
            assert G.regular_classes(z) == want
            assert G.regular_element(z) == max((reps[ci] for ci in want),
                                               key=G.element_order)

    def test_reflections(self, oracle_group):
        G = oracle_group
        ident, one = Matrix.identity(G.rank), Cyclo.rational(1)
        assert G.reflections == [g for g in range(G.order) if G.matrix(g) != ident
                                 and len(G.matrix(g).eigenspace(one)) == G.rank - 1]

    def test_class_of(self, oracle_group):
        G = oracle_group
        for i in range(G.order):
            assert G.class_of(i) == next(ci for ci, c in enumerate(G.classes)
                                         if i in c.member_indices)

    def test_eigenvalues_return_a_copy(self, oracle_group):
        G = oracle_group
        g = G.order - 1
        want = G.eigenvalues(g)
        G.eigenvalues(g).append(Cyclo.rational(0))
        assert G.eigenvalues(g) == want


def _root_line(g):
    """im(g - 1) of a reflection g, scaled so its first nonzero entry is 1."""
    n, one, zero = g.n, Cyclo.rational(1), Cyclo.rational(0)
    cols = ([g.rows[i][j] - (one if i == j else zero) for i in range(n)]
            for j in range(n))
    col = next(c for c in cols if any(not v.is_zero() for v in c))
    inv = next(v for v in col if not v.is_zero()).inverse()
    return tuple(v * inv for v in col)


class TestHyperplaneOracle:
    def test_partition_matches_root_lines(self, oracle_group):
        # reflections share a hyperplane iff they share a root line
        G = oracle_group
        by_line, by_table = {}, {}
        for g in G.reflections:
            by_line.setdefault(_root_line(G.matrix(g)), set()).add(g)
        for r, h in G._hyperplanes.items():
            by_table.setdefault(h, set()).add(r)
        assert sorted(map(sorted, by_table.values())) == \
            sorted(map(sorted, by_line.values()))
        assert all(h == min(rs) for h, rs in by_table.items())
        assert G.n_hyp == len(by_line)


def _series_inverse(p, bound):
    """1/p up to x^bound, for p with constant term 1."""
    inv = [Cyclo.rational(1)]
    for e in range(1, bound + 1):
        inv.append(-sum((p.coeff(k) * inv[e - k] for k in range(1, e + 1)),
                        Cyclo.rational(0)))
    return LaurentPoly(dict(enumerate(inv)))


def _matrix_order_poly(L, variant):
    """The order of a sub-coset from its matrices l @ w: det(1 - x m) as the
    reversed charpoly of each, the Molien series as their mean inverse, and
    the hyperplanes of W_L grouped by root line."""
    G = L.parent
    mats = [G.matrix(g) @ G.matrix(L.twist) for g in L.group_elements]
    rank, one = G.rank, Cyclo.rational(1)
    bound = len(mats) * rank + 1  # at least the degree of P
    molien = LaurentPoly.zero()
    for m in mats:
        det = LaurentPoly([(rank - e, c) for e, c in m.charpoly().coeffs])
        molien = molien + _series_inverse(det, bound) * Fraction(1, len(mats))
    P = _series_inverse(molien, bound)
    core = LaurentPoly([(P.degree() - e, c) for e, c in P.coeffs])
    refl = [G.matrix(g) for g in L.group_elements]
    refl = [g for g in refl
            if g != Matrix.identity(rank) and len(g.eigenspace(one)) == rank - 1]
    if variant == "compact":
        return core.shift(len({_root_line(g) for g in refl}))
    zprod = P.leading_coeff() * ((-1) ** rank)
    return (core * zprod.conjugate() ** 2).shift(len(refl))


class TestSubCosetOracle:
    """Sub-coset orders read off the G-class counts against the Molien series
    summed over the sub-coset's own matrices."""

    def test_sylow_subcosets(self, oracle_group):
        G = oracle_group
        phis = [phi for phi, _ in all_sylow_congruences(G)]
        assert phis
        for phi in phis:
            _, L = sylow_subcoset(G, phi)
            for variant in ("compact", "noncompact"):
                assert order_poly(L, variant) == _matrix_order_poly(L, variant), \
                    (G.name, phi, variant)

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)"])
    def test_levi_orders(self, name):
        G = build_group(name)
        for gi, gen in enumerate(G.gens):
            elems = tuple(G.powers(gen))
            L = SubCoset(G, elems, 0, len(elems))
            assert _levi_order(G, gi) == _matrix_order_poly(L, "compact")
            assert order_poly(L, "noncompact") == _matrix_order_poly(L, "noncompact")


def _pointwise_stabilizer(G, vectors):
    """Every element of G that fixes each vector, in element order."""
    return [g for g in range(G.order) if all(G.matrix(g).apply(v) == v for v in vectors)]


class TestParabolicSubgroup:
    """W_L from the reflections on the hyperplanes containing V(w, zeta),
    against the scan over every element of G."""

    def test_matches_pointwise_stabilizer(self, oracle_group):
        G = oracle_group
        phis = [phi for phi, _ in all_sylow_congruences(G)]
        assert phis
        for phi in phis:
            d, k = phi.root_order, min(phi.root_exponents)
            eigval = zeta(d, k) if d > 1 else Cyclo.rational(1)
            basis = G.matrix(G.regular_element(eigval)).eigenspace(eigval)
            assert G.parabolic_subgroup(basis)[1] == _pointwise_stabilizer(G, basis), \
                (G.name, phi)

    def test_every_eigenspace(self, oracle_group):
        G = oracle_group
        for c in G.classes:
            g = G.matrix(c.rep_index)
            for lam in set(c.eigenvalues):
                basis = g.eigenspace(lam)
                assert G.parabolic_subgroup(basis)[1] == _pointwise_stabilizer(G, basis)
