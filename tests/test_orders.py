"""Order polynomials, fake degrees, character tables, and the Sylow-style
congruences |G|/(|W_G(L)||L|) = 1 mod Phi."""

import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from spets import chartables, orders
from spets.chartables import char_table, feg_map
from spets.cyclotomic import Cyclo, divisors, zeta
from spets.laurent import LaurentPoly, k_cyclotomic_factors
from spets.orders import (CharTable, all_sylow_congruences, cyclic_char_table,
                          fake_degree_torus, order_poly)
from spets.reflection import SubCoset, build_group, sylow_subcoset

from conftest import (EXTRA_GROUPS, ORACLE_GROUPS, divides, exact_div, extra_group,
                      fake_degree_char, matrix)


class TestPoincare:
    def test_g4(self, g4):
        assert g4.poincare.serialize() == "x^10 - x^6 - x^4 + 1"

    def test_semi_palindromic(self, g4, g312):
        # x^{N_ref + rank} P(1/x) == (-1)^rank P(x) for every builtin group
        for G in (g4, g312, build_group("Z_6")):
            P = G.poincare
            flipped = LaurentPoly([(-e, c) for e, c in P.coeffs])
            sign = (-1) ** G.rank
            assert LaurentPoly.x(G.n_ref + G.rank) * flipped == P * sign

    def test_product_of_degree_factors(self, g4):
        want = LaurentPoly.one()
        for d, _ in g4.degrees:
            want = want * (LaurentPoly.x(d) - 1)
        assert g4.poincare == want

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_degrees_rebuild_poincare(self, name):
        G = build_group(name)
        want = LaurentPoly.one()
        for d, z in G.degrees:
            want = want * LaurentPoly({0: 1, d: -z})
        assert G.poincare == want


class TestOrderPoly:
    def test_g4_compact(self, g4):
        assert order_poly(g4).serialize() == "x^14 - x^10 - x^8 + x^4"

    def test_variant_prefactors(self, g4, g312):
        # compact variant carries x^{N_hyp}, noncompact carries x^{N_ref}
        for G in (g4, g312, build_group("Z_5")):
            P = G.poincare
            assert order_poly(G, "compact") in \
                (LaurentPoly.x(G.n_hyp) * P, -LaurentPoly.x(G.n_hyp) * P)
            assert order_poly(G, "noncompact") in \
                (LaurentPoly.x(G.n_ref) * P, -LaurentPoly.x(G.n_ref) * P)

    def test_cyclic(self):
        G = build_group("Z_3")
        assert order_poly(G).serialize() == "x^4 - x"


def torus(G, w):
    """The twisted torus (V, w): the sub-coset with trivial W_L, whose
    normaliser is the centralizer of w, of order |G| / |class of w|."""
    return SubCoset(G, (0,), w, G.order // G.classes[G.class_of(w)].size)


class TestTorus:
    def test_identity_torus(self, g4):
        assert order_poly(torus(g4, 0)).serialize() == "x^2 - 2*x + 1"

    def test_fake_degree_times_torus(self, g4):
        # Feg(R_w) * |T_w| = prod (x^{d_i} - 1) for the identity twist
        fd = fake_degree_torus(g4, 0)
        assert fd * (LaurentPoly.x() - 1) ** 2 == g4.poincare


    @pytest.mark.parametrize("name", ORACLE_GROUPS + tuple(EXTRA_GROUPS))
    def test_every_class_against_charpoly(self, name):
        # |T_w| = det(x - w), scaled by conj(det w)^2 when noncompact, and
        # Feg(R_w) = conj(P) / conj(det(1 - x w)) with det(1 - x w) the
        # reversed charpoly, divided by the reference long division
        G = extra_group(name) if name in EXTRA_GROUPS else build_group(name)
        for c in G.classes:
            w = matrix(G, c.rep_index)
            cp = w.charpoly()
            T = torus(G, c.rep_index)
            assert order_poly(T) == cp
            det_w = cp.coeff(0) * (-1) ** w.n  # det(w), read off det(x - w) at x = 0
            assert order_poly(T, "noncompact") == cp * det_w.conjugate() ** 2
            det = LaurentPoly([(w.n - e, a) for e, a in cp.coeffs])
            assert fake_degree_torus(G, c.rep_index) == \
                exact_div(G.poincare.conjugate(), det.conjugate())

    def test_class_fake_degrees_on_first_use(self):
        G = build_group("G4")
        fake_degree_torus(G, G.classes[3].rep_index)
        assert list(G._class_fake_degrees) == [3]
        assert G.class_fake_degree(3) is G._class_fake_degrees[3]


def _monomial_data(g):
    """(is_diagonal, exponent sum, diag exponent 0, diag exponent 1) of a 2 x 2
    monomial matrix of powers of E(3), from its Cyclo entries."""
    diag = all(g.rows[i][j].is_zero() for i in range(2) for j in range(2) if i != j)
    exps = []
    for i in range(2):
        for j in range(2):
            c = g.rows[i][j]
            if not c.is_zero():
                d, a = c.root_of_unity_order()
                exps.append(a * (3 // d) % 3)
    return diag, sum(exps) % 3, exps[0], exps[1]


class TestCharTables:
    def test_cyclic_orthogonality(self):
        for e in (2, 3, 5, 6):
            cyclic_char_table(build_group(f"Z_{e}")).verify_orthogonality()

    def test_g4_orthogonality(self, g4):
        char_table(g4).verify_orthogonality()

    def test_g312_orthogonality(self, g312):
        char_table(g312).verify_orthogonality()

    def test_g312_monomial_data_matches_matrices(self, g312):
        # the table reads each class representative's monomial data off its
        # orbit keys; on every element, against the entries of its matrix
        assert g312.order == 18
        for i in range(g312.order):
            assert chartables._monomial(g312, i) == _monomial_data(matrix(g312, i)), i

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)"])
    def test_corrupted_entry_fails_orthogonality(self, name):
        # the trivial row pairs with a corrupted last row first; times E(3)
        # at a non-identity class, the row keeps its norm, so only an
        # off-diagonal pair can fail
        table = char_table(build_group(name))
        first, last = table.names[0], table.names[-1]
        good = table.values[last]
        ci = max(i for i, v in enumerate(good) if i and v)
        for i, value in ((len(good) - 1, good[-1] + zeta(3)), (ci, good[ci] * zeta(3))):
            row = list(good)
            row[i] = value
            bad = CharTable(table.group, table.names, {**table.values, last: tuple(row)})
            with pytest.raises(ArithmeticError, match=re.escape(
                    f"character table fails orthogonality at ({first}, {last})")):
                bad.verify_orthogonality()

    def test_g4_fake_degrees(self, g4, g4_fegs):
        want = {
            "phi_{1,0}": "1",
            "phi_{2,1}": "x^3 + x",
            "phi_{3,2}": "x^6 + x^4 + x^2",
            "phi_{2,3}": "x^5 + x^3",
            "phi_{1,4}": "x^4",
            "phi_{2,5}": "x^7 + x^5",
            "phi_{1,8}": "x^8",
        }
        assert {n: f.serialize() for n, f in g4_fegs.items()} == want

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_table_fake_degrees_match_each_row(self, name):
        # G4's rows are named by their fake degrees, which the named table keeps;
        # the table-wide pass against each row's own Molien sum
        table = char_table(build_group(name))
        assert list(table.fake_degrees) == list(table.names)
        assert table.fake_degrees == {n: fake_degree_char(table, n) for n in table.names}

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_table_fake_degree_identities(self, name):
        # Feg(theta)(1) = theta(1), and the coinvariant algebra carries the
        # graded regular representation: sum theta(1) Feg(theta) is its
        # Hilbert series prod (1 + x + ... + x^(d_i - 1))
        G = build_group(name)
        table = char_table(G)
        hilbert = LaurentPoly.one()
        for d, _ in G.degrees:
            hilbert = hilbert * LaurentPoly({e: 1 for e in range(d)})
        for n, f in table.fake_degrees.items():
            assert f.evaluate(1) == table.degree(n), n
        assert LaurentPoly.combination(
            (f, table.degree(n)) for n, f in table.fake_degrees.items()) == hilbert

    def test_fake_degree_sum(self, g4, g312, g4_fegs, g312_fegs):
        # sum theta(1) * Feg(theta) = Poincare polynomial
        for G, fegs in ((g4, g4_fegs), (g312, g312_fegs)):
            table = char_table(G)
            total = LaurentPoly.zero()
            for name, f in fegs.items():
                total = total + f * table.degree(name)
            assert total == fake_degree_torus(G, 0)

    def test_feg_at_regular_eigenvalue(self, g4, g312):
        # Feg(theta)(zeta) == theta(w) whenever w is zeta-regular
        cases = [(g4, (Cyclo.rational(-1), zeta(4), zeta(6))),
                 (g312, (Cyclo.rational(-1), zeta(3), zeta(6)))]
        for G, zs in cases:
            table = char_table(G)
            fegs = feg_map(table)
            for z in zs:
                assert G.regular_classes(z)
                w = G.regular_element(z)
                for name, f in fegs.items():
                    assert f.evaluate(z) == table.value(name, w), (name, z)


class TestSylow:
    def test_g4_all_pass(self, g4):
        results = all_sylow_congruences(g4)
        assert results and all(ok for _, ok in results)

    def test_g312_all_pass(self, g312):
        results = all_sylow_congruences(g312)
        assert results and all(ok for _, ok in results)

    def test_z6_all_pass(self):
        results = all_sylow_congruences(build_group("Z_6"))
        assert results and all(ok for _, ok in results)

    def test_g4_covers_all_order_divisors(self, g4):
        # every K-cyclotomic factor of |G| appears in the suite
        order = order_poly(g4)
        ds = sorted({phi.root_order for phi, _ in all_sylow_congruences(g4)})
        assert ds == [1, 2, 3, 4, 6]

    @pytest.mark.parametrize("name", ORACLE_GROUPS + tuple(EXTRA_GROUPS))
    def test_matches_polynomial_division(self, name):
        # the order polynomials divided and Phi | f tested by long division,
        # instead of root multisets and zero tests at the roots of Phi
        G = extra_group(name) if name in EXTRA_GROUPS else build_group(name)
        order, want = order_poly(G), []
        for d in sorted({dd for dd, _ in G.degrees for dd in divisors(dd)}):
            for phi in k_cyclotomic_factors(d, G.field):
                if not divides(phi.poly, order):
                    continue
                ok = all(_division_verdict(G, phi, v) for v in ("compact", "noncompact"))
                want.append((phi.poly.serialize(), ok))
        got = [(phi.poly.serialize(), ok) for phi, ok in all_sylow_congruences(G)]
        assert got == want

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)", "G6", "G26", "G29"])
    def test_factor_coefficients_lie_in_the_field(self, name, monkeypatch):
        # every factor of Phi_d the congruences reach, for each (d, field)
        # they ask for, has its coefficients in the field
        G = extra_group(name) if name in EXTRA_GROUPS else build_group(name)
        reached = []

        def recording(d, field):
            reached.append((d, field, k_cyclotomic_factors(d, field)))
            return reached[-1][2]
        monkeypatch.setattr(orders, "k_cyclotomic_factors", recording)
        all_sylow_congruences(G)
        assert reached and all(field is G.field for _, field, _ in reached)
        for d, field, factors in reached:
            assert all(field.contains(c) for f in factors for _, c in f.poly.coeffs), (name, d)

    @pytest.mark.parametrize("name, holds", [("G(4,1,2)", 6), ("G6", 12), ("G8", 10),
                                             ("G25", 11), ("G26", 11), ("G29", 12)])
    def test_extra_group_verdict_counts(self, name, holds):
        results = all_sylow_congruences(extra_group(name))
        assert sum(ok for _, ok in results) == holds

    def test_g26_fails_at_two_phi12_factors(self):
        # An open finding, not a regression: at both factors of Phi_12 over
        # Q(zeta_3) the compact congruence fails and the noncompact one holds
        G = extra_group("G26")
        assert (G.order, [d for d, _ in G.degrees], len(G.classes), G.n_ref, G.n_hyp) == \
            (1296, [6, 12, 18], 48, 33, 21)
        results = all_sylow_congruences(G)
        assert len(results) == 13
        failing = [phi for phi, ok in results if not ok]
        assert [phi.poly.serialize() for phi in failing] == ["x^2 + (-1-E(3,1))", "x^2 + (E(3,1))"]
        for phi in failing:
            assert [_division_verdict(G, phi, v) for v in ("compact", "noncompact")] == \
                [False, True]

    def test_g29_fails_at_two_phi12_factors(self):
        # the same open finding as G26's, at both factors of Phi_12 over Q(i)
        G = extra_group("G29")
        results = all_sylow_congruences(G)
        assert len(results) == 14
        failing = [phi for phi, ok in results if not ok]
        assert [phi.poly.serialize() for phi in failing] == \
            ["x^2 + (-E(4,1))*x - 1", "x^2 + (E(4,1))*x - 1"]
        for phi in failing:
            assert [_division_verdict(G, phi, v) for v in ("compact", "noncompact")] == \
                [False, True]

    def test_non_dividing_subcoset_raises(self, g4, monkeypatch):
        # a sub-coset order that does not divide |G| is an error, as in the
        # long division: a relative Poincare polynomial 1 - x^5 makes the
        # quotient x^5 - 1, which has four roots that G4's order lacks; the
        # polynomial is given as the integer lifts sylow_congruence reads
        fake = SimpleNamespace(_relative_lifts=(0, 1, 1, [{0: 1}, {}, {}, {}, {}, {0: -1}]))
        monkeypatch.setattr(orders, "sylow_subcoset", lambda G, phi: (1, fake))
        phi = k_cyclotomic_factors(1, g4.field)[0]
        with pytest.raises(ArithmeticError, match="non-exact"):
            orders.sylow_congruence(g4, phi)


@pytest.mark.parametrize("name", ORACLE_GROUPS + tuple(EXTRA_GROUPS))
def test_order_quotient_matches_the_canonical_reversal(name):
    # sylow_congruence packs q = rev(P_G / P_L) straight from the Molien
    # sums' integer lifts; against the pack of the canonical reversal, the
    # roots and every value test it runs agree, and so does lead(P_G / P_L)
    G = extra_group(name) if name in EXTRA_GROUPS else build_group(name)
    for phi, _ in all_sylow_congruences(G):
        _, L = sylow_subcoset(G, phi)
        q, lead = orders._order_quotient(L)
        rel = L.relative_poincare
        want = orders.reversal(rel).packed()
        # interior lifts may be zero at zeta_N unreduced; the end ones are not
        assert (q.exps[0], q.exps[-1], lead) == (0, want.exps[-1], rel.leading_coeff())
        assert q.roots(G.order_roots) == want.roots(G.order_roots)
        c = Cyclo.rational(L.relative_order)
        units = (c, c / lead.conjugate() ** 2, Cyclo.rational(1), zeta(3))
        for z in [(phi.root_order, k) for k in phi.root_exponents] + [(1, 0), (4, 1), (5, 2)]:
            for shift in (G.n_hyp - L.n_hyp, G.n_ref - L.n_ref, 0):
                for w in units:
                    assert q.value_is(z, shift, w) == want.value_is(z, shift, w), (name, z)


def _division_verdict(G, phi, variant):
    """Phi | |G| / (|W_G(L)| |L|) - 1 by long division of the order polynomials."""
    _, L = sylow_subcoset(G, phi)
    ratio = exact_div(order_poly(G, variant), order_poly(L, variant) * Fraction(L.relative_order))
    return divides(phi.poly, ratio - 1)


class TestExtraGroups:
    @pytest.mark.parametrize("name", EXTRA_GROUPS)
    def test_literature_data(self, name):
        order, degrees, codegrees, classes = EXTRA_GROUPS[name]
        G = extra_group(name)
        assert G.order == order
        assert tuple(d for d, _ in G.degrees) == degrees
        assert len(G.classes) == classes
        assert G.n_ref == sum(d - 1 for d in degrees)
        assert G.n_hyp == sum(d + 1 for d in codegrees)
