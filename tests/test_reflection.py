"""Reflection group construction, class data, and regular elements."""

from fractions import Fraction
from math import lcm

import pytest

from spets import reflection
from spets.cyclotomic import Cyclo, CycloField, divisors, zeta
from spets.laurent import LaurentPoly, k_cyclotomic_factors
from spets.orders import all_sylow_congruences, order_poly
from spets.reflection import ReflectionCoset, SubCoset, build_group, sylow_subcoset
from spets.tabledata import _levi
from spets.uch import regular_eigenvalues

from conftest import (EXTRA_GROUPS, ORACLE_GROUPS, Matrix, _extra_gens, b3_gens, centralizer,
                      divides, dot, eigenspace, extra_group, matrix, row_reduce)


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

    def test_repeated_degree_is_a_named_error(self):
        # A1 x A1 has P = (1 - x^2)^2, whose coefficient -2 of x^2 is no root
        # of unity; the Shephard-Todd count t^2 + 2t + 1 = (t + 1)^2 reads
        # the repeated degree 2 twice, with no error
        G = ReflectionCoset("A1xA1", [((-1, 0), (0, 1)), ((1, 0), (0, -1))],
                            CycloField.rationals())
        assert [(d, z.serialize()) for d, z in G.degrees] == [(2, "1"), (2, "1")]
        assert G.poincare == LaurentPoly({0: 1, 2: -2, 4: 1})

    def test_class_sizes_sum(self, g4, g312):
        for G in (g4, g312):
            assert sum(c.size for c in G.classes) == G.order


class TestGenerators:
    """Generators must be reflections or the identity: the action on the
    roots is faithful only then."""

    @pytest.mark.parametrize("gens, bad", [
        ([((-1, 0), (0, 1)), ((-1, 0), (0, -1))], 1),  # rank(g - 1) = 2
        ([((1, 1), (0, 1))], 0),                        # a transvection
        ([((1, zeta(3)), (0, 1))], 0),                  # one over Q(zeta_3)
    ])
    def test_non_reflection_is_value_error(self, gens, bad):
        with pytest.raises(ValueError, match=f"generator {bad} is neither"):
            ReflectionCoset("bad", gens, CycloField.cyclotomic(3))

    def test_identity_generator(self):
        # Z_1 is built from [[1]], which has no root
        G = build_group("Z_1")
        assert (G.order, G.rank, G.gens, G.words, len(G.classes)) == (1, 1, [0], [""], 1)
        assert matrix(G, 0) == Matrix.identity(1)
        assert G.n_ref == G.n_hyp == 0

    @pytest.mark.parametrize("g, axis", [(((zeta(3), 0), (0, 1)), 0), (((1, 0), (0, -1)), 1)])
    def test_root_on_an_axis_is_the_unit_vector(self, g, axis):
        # any multiple of a root numbers the elements alike; the unit vector
        # is kept because its orbit has one-term coordinates, so each move of
        # the root walk is cheaper (G4's and G(3,1,2)'s s = diag(zeta3, 1))
        unit = [{0: 1} if i == axis else {} for i in range(2)]
        assert reflection._root(0, 3, *reflection._lift_rows(g, 3)) == \
            reflection._orbit_key(3, 1, unit)

    def test_infinite_order_stops_at_the_bound(self, monkeypatch):
        # diag(2, 1) fixes a hyperplane but has infinite order: its root's
        # orbit grows until the bound on the root walk
        monkeypatch.setattr(reflection, "MAX_GROUP_ORDER", 50)
        with pytest.raises(ArithmeticError, match="enumeration exceeded bound"):
            ReflectionCoset("inf", [((2, 0), (0, 1))], CycloField.rationals())

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)"])
    def test_lift_is_built_once(self, name):
        G = build_group(name)
        assert all(G._lift(i) is G._lift(i) for i in range(G.order))

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)", "B3", "G(4,1,2)"])
    def test_mixed_entries_match_cyclo_rows(self, name):
        # the generators conjugated by diag(1, 2, ...), so that rational
        # entries such as 1/2 appear, as rows of Cyclo (the Matrix oracle's
        # rows) and as rows with each rational entry an int or a Fraction
        gens = b3_gens() if name == "B3" else \
            _extra_gens()[name][0] if name in EXTRA_GROUPS else _builtin_gens(name)
        n = gens[0].n
        d = Matrix.diagonal(list(range(1, n + 1)))
        d_inv = Matrix.diagonal([Fraction(1, k) for k in range(1, n + 1)])
        gens = [d @ g @ d_inv for g in gens]

        def plain(c):
            q = c.as_rational()
            return c if q is None else int(q) if q.denominator == 1 else q
        mixed = [tuple(tuple(map(plain, row)) for row in g.rows) for g in gens]
        assert {type(c) for g in mixed for row in g for c in row} >= {int, Fraction}
        field = CycloField.cyclotomic(lcm(*[c.n for g in gens for row in g.rows for c in row]))
        want = ReflectionCoset(name, [g.rows for g in gens], field)
        got = ReflectionCoset(name, mixed, field)
        assert (got.order, got.words) == (want.order, want.words)
        assert [vars(c) for c in got.classes] == [vars(c) for c in want.classes]


class TestMatrix:
    def test_identity_and_mul(self):
        I = Matrix.identity(2)
        m = Matrix.diagonal([zeta(3), zeta(3) ** 2])
        assert m @ I == m
        assert m != I
        assert m @ m != I
        assert (m @ m @ m) == I

    def test_det_trace(self):
        # det(x - m) = x^2 - trace(m) x + det(m) for a 2 x 2 matrix
        m = Matrix.diagonal([zeta(4), Cyclo.rational(1)])
        assert m.charpoly().coeff(0) == zeta(4)
        assert -m.charpoly().coeff(1) == zeta(4) + 1
        assert m.charpoly().coeff(2) == 1

    def test_eigenspace(self):
        m = Matrix.diagonal([zeta(3), Cyclo.rational(1)])
        space = eigenspace(m, Cyclo.rational(1))
        assert len(space) == 1
        assert m.apply(space[0]) == space[0]

    def test_charpoly_roots(self):
        m = Matrix.diagonal([zeta(6), zeta(6) ** 5])
        cp = m.charpoly()
        assert cp.evaluate(zeta(6)) == Cyclo.rational(0)


def _count_cyclo(monkeypatch):
    """A list that grows by one per ``Cyclo.__init__`` call from here on."""
    built, init = [], Cyclo.__init__

    def counting(self, *a, **k):
        built.append(1)
        init(self, *a, **k)
    monkeypatch.setattr(Cyclo, "__init__", counting)
    return built


def _sympy_lift(c, n, z):
    """c as a polynomial in z = zeta_n, for n a multiple of c's conductor."""
    return sum(Fraction(a, c.den) * z ** (i * (n // c.n)) for i, a in c.terms)


@pytest.mark.parametrize("name", ORACLE_GROUPS + ("G(4,1,2)", "G6", "G8", "G25", "G26", "G29"))
def test_charpoly_matches_sympy(name):
    """Matrix.charpoly on every class representative against sympy's
    det(x I - M) over Q[z], each coefficient reduced mod Phi_N(z), N the
    lcm of the entries' conductors."""
    sympy = pytest.importorskip("sympy")
    G = extra_group(name) if name in EXTRA_GROUPS else build_group(name)
    x, z = sympy.symbols("x z")
    for c in G.classes:
        m = matrix(G, c.rep_index)
        n = lcm(*[e.n for row in m.rows for e in row])
        phi = sympy.Poly(sympy.cyclotomic_poly(n, z), z)
        lifted = sympy.Matrix([[_sympy_lift(e, n, z) for e in row] for row in m.rows])
        want = sympy.Poly((x * sympy.eye(m.n) - lifted).det(method="berkowitz"), x)
        cp = m.charpoly()
        assert cp.degree() == m.n and cp.valuation() >= 0
        for k in range(m.n + 1):
            diff = sympy.Poly(want.coeff_monomial(x ** k) - _sympy_lift(cp.coeff(k), n, z), z)
            assert diff.rem(phi).is_zero, (name, c.rep_word, k)


class TestRegular:
    def test_g4_regular(self, g4):
        # zeta_4-regular elements exist; the maximal eigenspace is a line
        # avoiding all reflecting hyperplanes.
        w = g4.regular_element(zeta(4))
        assert w is not None
        assert g4.element_order(w) % 4 == 0
        assert len(eigenspace(matrix(g4, w), zeta(4))) == 1

    def test_g4_minus_one_regular(self, g4):
        w = g4.regular_element(Cyclo.rational(-1))
        assert matrix(g4, w) == Matrix.diagonal([Cyclo.rational(-1)] * 2)

    def test_g312_regular(self, g312):
        for z in (zeta(6), zeta(6) ** 5, Cyclo.rational(-1)):
            assert g312.regular_element(z) is not None

    def test_centralizer_of_regular_is_cyclic(self, g4):
        w = g4.regular_element(zeta(4))
        cent = g4.centralizer(w)
        assert len(cent) == g4.element_order(w)
        # cyclic: generated by w itself
        powers = set()
        m = p = matrix(g4, w)
        for _ in range(g4.element_order(w)):
            powers.add(p)
            p = p @ m
        assert {matrix(g4, g) for g in cent} == powers


class TestCentralizer:
    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)", "Z_12", "G6"])
    def test_every_element_matches_the_word_products(self, name):
        G = extra_group(name) if name in EXTRA_GROUPS else build_group(name)
        for i in range(G.order):
            assert G.centralizer(i) == centralizer(G, i), (name, G.words[i])

    def test_g26_class_representatives(self):
        G = extra_group("G26")
        for c in G.classes:
            cent = G.centralizer(c.rep_index)
            assert cent == centralizer(G, c.rep_index), c.rep_word
            assert len(cent) * c.size == G.order  # orbit-stabilizer

    def test_makes_no_word_product(self, monkeypatch):
        G = build_group("G4")
        want = [centralizer(G, i) for i in range(G.order)]
        monkeypatch.setattr(ReflectionCoset, "_mul", None)
        assert [G.centralizer(i) for i in range(G.order)] == want


def _restricted_centralizer(G, w, z):
    """The image of C_W(w) acting on V(w, z): each member's matrix on a basis
    of V(w, z), its coordinates solved by row-reducing [basis | g b]."""
    basis = eigenspace(matrix(G, w), z)
    k = len(basis)
    images = set()
    for g in G.centralizer(w):
        cols = []
        for b in basis:
            gb = matrix(G, g).apply(b)
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
        assert len(eigenspace(matrix(g4, w), zeta(4))) == 1

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


def _builtin_gens(name):
    """The generator matrices build_group takes for G4 and G(3,1,2)."""
    z = zeta(3)
    t = Matrix([[(1 - z ** 2) / 3, 1], [-2 * z / 3, (2 * z + 1) / 3]]) if name == "G4" else \
        Matrix([[0, 1], [1, 0]])
    return [Matrix([[z, 0], [0, 1]]), t]


class TestTables:
    @pytest.mark.parametrize("name", TABLE_GROUPS)
    def test_mul_matches_matrix_products(self, name):
        # products of root permutations against products of matrices
        G = build_group(name)
        for i in range(G.order):
            for j in range(G.order):
                assert matrix(G, G._mul(i, j)) == matrix(G, i) @ matrix(G, j)

    @pytest.mark.parametrize("name", ["G(4,1,2)", "G6", "G8", "G25", "G26"])
    def test_right_table_matches_matrix_products(self, name):
        # element i times generator gi from the root orbit's keys, against
        # the matrices; G6's generator entries lie at conductor 12
        G = extra_group(name)
        for i in range(G.order):
            for gi, gen in enumerate(_extra_gens()[name][0]):
                assert matrix(G, G._right[i][gi]) == matrix(G, i) @ gen, (name, i, gi)

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)", "G(4,1,2)", "G6", "G8", "G25", "G26"])
    def test_lifted_matrices_match_matrix_products(self, name):
        # each element's matrix is kept as integer lifts at N, one orbit key
        # per row, built along its word; read back over Cyclo here (not by
        # G.matrix), it equals the Cyclo product of the matrix of the element
        # it was found from and the generator it was found along
        G = extra_group(name) if name in EXTRA_GROUPS else build_group(name)
        gens = _extra_gens()[name][0] if name in EXTRA_GROUPS else _builtin_gens(name)
        want = [Matrix.identity(G.rank)]
        for p, gi in G._found:
            want.append(want[p] @ gens[gi])
        for i, m in enumerate(want):
            lifted = Matrix([[Cyclo(G._N, dict(v), row[0]) for v in row[1:]]
                             for row in G._lift(i)])
            assert lifted == m, (name, i)
            assert G._lift(i) is G._lift(i)

    @pytest.mark.parametrize("name", ["G6", "G26", "G29"])
    def test_orbit_walk_builds_no_cyclo(self, name, monkeypatch):
        # the generators' roots are read off their integer lifts, and the
        # orbit of 72, 126 or 320 roots is walked on integer keys: from Cyclo
        # generators, the build constructs no Cyclo at all
        gens, conductor = _extra_gens()[name]
        rows, field = [g.rows for g in gens], CycloField.cyclotomic(conductor)
        built = _count_cyclo(monkeypatch)
        G = ReflectionCoset(name, rows, field)
        assert not built
        assert G.order == EXTRA_GROUPS[name][0]

    def test_groups_pass_builds_few_cyclo(self, monkeypatch):
        # a warm pass of the group-layer tasks on both built-in rank-two
        # groups: the generators, the rank-one test of each and the Sylow and
        # regular-eigenvalue data build at most 16 Cyclo (25 when the roots
        # took canonical Cyclo arithmetic)
        def run():
            for name in ("G4", "G(3,1,2)"):
                G = build_group(name)
                G.classes, G.degrees
                all_sylow_congruences(G)
                regular_eigenvalues(G)
        run()
        built = _count_cyclo(monkeypatch)
        run()
        assert len(built) <= 16

    @pytest.mark.parametrize("name", TABLE_GROUPS)
    def test_words_spell_elements(self, name):
        # each word spells its element, and distinct elements have distinct
        # matrices: the action on the roots is faithful
        G = build_group(name)
        for i, word in enumerate(G.words):
            m = Matrix.identity(G.rank)
            for ch in word:
                m = m @ matrix(G, G.gens["stuvw".index(ch)])
            assert m == matrix(G, i)
        assert len({matrix(G, i) for i in range(G.order)}) == G.order

    @pytest.mark.parametrize("name", TABLE_GROUPS)
    def test_powers_match_matrix_powers(self, name):
        G = build_group(name)
        ident = Matrix.identity(G.rank)
        for g in range(G.order):
            want, p = [ident], matrix(G, g)
            while p != ident:
                want.append(p)
                p = p @ matrix(G, g)
            assert [matrix(G, k) for k in G.powers(g)] == want
            assert G.element_order(g) == len(want)

    def test_eigenvalues_give_det_one_minus_x(self, g4, g312):
        # det(1 - x g) is the coefficient reversal of the charpoly det(x - g),
        # and the class fake degree is P / det(1 - x g)
        for G in (g4, g312):
            for ci, c in enumerate(G.classes):
                det = LaurentPoly.one()
                for lam in c.eigenvalues:
                    det = det * LaurentPoly({0: 1, 1: -lam})
                g = matrix(G, c.rep_index)
                want = LaurentPoly([(g.n - e, a) for e, a in g.charpoly().coeffs])
                assert det == want
                assert G.class_fake_degree(ci) * det == G.poincare

    def test_rank_one_eigenvalue_is_the_entry(self):
        # a 1 x 1 element is its own eigenvalue; the charpoly route agrees
        for e in range(1, 25):
            G = build_group(f"Z_{e}")
            for c in G.classes:
                g = matrix(G, c.rep_index)
                mults = g.charpoly().multiplicities({(c.order, k): 1 for k in range(c.order)})
                assert c.eigenvalues == tuple(zeta(c.order, k)
                                              for (_, k), m in mults.items() if m)

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
    elements = [matrix(G, i) for i in range(G.order)]
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
                    if divides(phi.poly, order)]
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


# The oracle groups and the extra groups small enough to scan every element.
SCAN_GROUPS = ORACLE_GROUPS + ("G(4,1,2)", "G6", "G8", "G25", "G26")


@pytest.fixture(scope="module", params=SCAN_GROUPS)
def scan_group(request):
    name = request.param
    return extra_group(name) if name in EXTRA_GROUPS else build_group(name)


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
                assert eig.count(z) == len(eigenspace(matrix(G, g), z)), (G.name, g, z)

    def test_regular_classes_and_elements(self, oracle_group):
        G = oracle_group
        reps = [c.rep_index for c in G.classes]
        for z in _roots_of_exponent(G):
            dims = [len(eigenspace(matrix(G, w), z)) for w in reps]
            best = max(dims)
            want = [ci for ci, dim in enumerate(dims) if dim == best]
            assert G.max_eigenspace_dim(z) == best
            assert G.regular_classes(z) == want
            assert G.regular_element(z) == max((reps[ci] for ci in want),
                                               key=G.element_order)

    def test_reflections(self, oracle_group):
        G = oracle_group
        ident, one = Matrix.identity(G.rank), Cyclo.rational(1)
        assert G.reflections == [g for g in range(G.order) if matrix(G, g) != ident
                                 and len(eigenspace(matrix(G, g), one)) == G.rank - 1]

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


def _fixed_space_hyperplanes(G):
    """Each reflection -> the least reflection with the same fixed space, from
    matrices alone.  A row-reduced eigenspace basis is determined by the
    space, so two reflections share a hyperplane iff their bases are equal."""
    ident, one, least, out = Matrix.identity(G.rank), Cyclo.rational(1), {}, {}
    for g in range(G.order):
        m = matrix(G, g)
        fixed = eigenspace(m, one)
        if m != ident and len(fixed) == G.rank - 1:
            out[g] = least.setdefault(tuple(map(tuple, fixed)), g)
    return out


class TestHyperplaneOracle:
    def test_partition_matches_root_lines(self, oracle_group):
        # reflections share a hyperplane iff they share a root line
        G = oracle_group
        by_line, by_table = {}, {}
        for g in G.reflections:
            by_line.setdefault(_root_line(matrix(G, g)), set()).add(g)
        for r, h in G._hyperplanes.items():
            by_table.setdefault(h, set()).add(r)
        assert sorted(map(sorted, by_table.values())) == \
            sorted(map(sorted, by_line.values()))
        assert all(h == min(rs) for h, rs in by_table.items())
        assert G.n_hyp == len(by_line)

    def test_hyperplanes_match_fixed_spaces(self, scan_group):
        G = scan_group
        assert G._hyperplanes == _fixed_space_hyperplanes(G)

    def test_form_vanishes_exactly_on_the_hyperplane(self, scan_group):
        # alpha_h is zero on the fixed space of every reflection on H_h and
        # not on that reflection's root, a nonzero column of r - 1; each
        # form is kept as lifts at N and read back as Cyclo here
        G, one = scan_group, Cyclo.rational(1)
        forms = {h: [Cyclo(G._N, dict(v), key[0]) for v in key[1:]]
                 for h, key in G._hyperplane_forms.items()}
        assert list(forms) == sorted(set(G._hyperplanes.values()))
        for r, h in G._hyperplanes.items():
            form, m = forms[h], matrix(G, r)
            for v in eigenspace(m, one):
                assert dot(form, v).is_zero(), (G.name, r)
            assert not dot(form, _root_line(m)).is_zero(), (G.name, r)


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
    mats = [matrix(G, g) @ matrix(G, L.twist) for g in L.group_elements]
    rank, one = G.rank, Cyclo.rational(1)
    bound = len(mats) * rank + 1  # at least the degree of P
    molien = LaurentPoly.zero()
    for m in mats:
        det = LaurentPoly([(rank - e, c) for e, c in m.charpoly().coeffs])
        molien = molien + _series_inverse(det, bound) * Fraction(1, len(mats))
    P = _series_inverse(molien, bound)
    core = LaurentPoly([(P.degree() - e, c) for e, c in P.coeffs])
    refl = [matrix(G, g) for g in L.group_elements]
    refl = [g for g in refl
            if g != Matrix.identity(rank) and len(eigenspace(g, one)) == rank - 1]
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
            assert order_poly(_levi(G, gi)) == _matrix_order_poly(L, "compact")
            assert order_poly(L, "noncompact") == _matrix_order_poly(L, "noncompact")


def _pointwise_stabilizer(G, vectors):
    """Every element of G that fixes each vector, in element order."""
    return [g for g in range(G.order) if all(matrix(G, g).apply(v) == v for v in vectors)]


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
            w = G.regular_element(eigval)
            want = _pointwise_stabilizer(G, eigenspace(matrix(G, w), eigval))
            assert G.parabolic(w, eigval)[1] == tuple(want), (G.name, phi)

    def test_every_eigenspace(self, scan_group):
        # parabolic(w, lam) on every class representative and eigenvalue: its
        # members, its generators (the reflections among them), and the
        # object kept after the first call
        G = scan_group
        for c in G.classes:
            w = c.rep_index
            for lam in dict.fromkeys(c.eigenvalues):
                gens, members = G.parabolic(w, lam)
                want = _pointwise_stabilizer(G, eigenspace(matrix(G, w), lam))
                assert members == tuple(want), (G.name, c.rep_word, lam)
                assert gens == tuple(r for r in G.reflections if r in set(want))
                assert G.parabolic(w, lam) is G.parabolic(w, lam)
        assert len(G._parabolics) <= sum(len(set(c.eigenvalues)) for c in G.classes)

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)"])
    def test_groups_tasks_multiply_no_cyclo_matrix(self, monkeypatch, name):
        # the group layer reads element matrices, the product of the w - lam
        # and the Molien sums of the Sylow congruences on integer lifts, and
        # has no matrix type over Cyclo: a build, its classes, every Sylow
        # congruence and the regular eigenvalues run with no canonical
        # relative Poincare polynomial
        def refuse(*a):
            raise AssertionError("called on the group layer's path")
        monkeypatch.setattr(SubCoset, "relative_poincare", property(refuse))
        G = build_group(name)
        G.classes, G.degrees
        assert all(ok for _, ok in all_sylow_congruences(G))
        assert regular_eigenvalues(G)
        assert not hasattr(reflection, "Matrix") and not hasattr(G, "matrix")

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)"])
    def test_applies_no_matrix_and_takes_no_inverse(self, monkeypatch, name):
        # V(w, zeta) is spanned by a product of the matrices w - lambda and
        # each containment is a zero test on integer lifts, so no Cyclo is
        # inverted (an inverse costs about phi^3)
        G = build_group(name)
        G.classes, G._hyperplane_forms  # built before the patch

        def refuse(what):
            def fail(*a):
                raise AssertionError(f"{what} called")
            return fail
        monkeypatch.setattr(Cyclo, "inverse", refuse("Cyclo.inverse"))
        for c in G.classes:
            for lam in set(c.eigenvalues):
                G.parabolic(c.rep_index, lam)
