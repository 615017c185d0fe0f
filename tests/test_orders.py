"""Order polynomials, fake degrees, character tables, and the Sylow-style
congruences |G|/(|W_G(L)||L|) = 1 mod Phi."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from spets import orders
from spets.chartables import char_table, feg_map
from spets.cyclotomic import Cyclo, divisors, zeta
from spets.laurent import LaurentPoly, k_cyclotomic_factors
from spets.orders import (all_sylow_congruences, cyclic_char_table,
                          fake_degree_char, fake_degree_torus, order_poly,
                          poincare, torus_order)
from spets.reflection import build_group, sylow_subcoset

from conftest import EXTRA_GROUPS, ORACLE_GROUPS, extra_group


class TestPoincare:
    def test_g4(self, g4):
        assert poincare(g4).serialize() == "x^10 - x^6 - x^4 + 1"

    def test_semi_palindromic(self, g4, g312):
        # x^{N_ref + rank} P(1/x) == (-1)^rank P(x) for every builtin group
        for G in (g4, g312, build_group("Z_6")):
            P = poincare(G)
            flipped = LaurentPoly([(-e, c) for e, c in P.coeffs])
            sign = (-1) ** G.rank
            assert LaurentPoly.x(G.n_ref + G.rank) * flipped == P * sign

    def test_product_of_degree_factors(self, g4):
        want = LaurentPoly.one()
        for d, _ in g4.degrees:
            want = want * (LaurentPoly.x(d) - 1)
        assert poincare(g4) == want

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_degrees_rebuild_poincare(self, name):
        G = build_group(name)
        want = LaurentPoly.one()
        for d, z in G.degrees:
            want = want * LaurentPoly({0: 1, d: -z})
        assert poincare(G) == want


class TestOrderPoly:
    def test_g4_compact(self, g4):
        assert order_poly(g4).serialize() == "x^14 - x^10 - x^8 + x^4"

    def test_variant_prefactors(self, g4, g312):
        # compact variant carries x^{N_hyp}, noncompact carries x^{N_ref}
        for G in (g4, g312, build_group("Z_5")):
            P = poincare(G)
            assert order_poly(G, "compact") in \
                (LaurentPoly.x(G.n_hyp) * P, -LaurentPoly.x(G.n_hyp) * P)
            assert order_poly(G, "noncompact") in \
                (LaurentPoly.x(G.n_ref) * P, -LaurentPoly.x(G.n_ref) * P)

    def test_cyclic(self):
        G = build_group("Z_3")
        assert order_poly(G).serialize() == "x^4 - x"


class TestTorus:
    def test_identity_torus(self, g4):
        assert torus_order(g4, 0).serialize() == "x^2 - 2*x + 1"

    def test_fake_degree_times_torus(self, g4):
        # Feg(R_w) * |T_w| = prod (x^{d_i} - 1) for the identity twist
        fd = fake_degree_torus(g4, 0)
        assert fd * (LaurentPoly.x() - 1) ** 2 == poincare(g4)


    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_every_class_against_charpoly(self, name):
        # |T_w| = det(x - w), scaled by conj(det w)^2 when noncompact, and
        # Feg(R_w) = conj(P) / conj(det(1 - x w)) with det(1 - x w) the
        # reversed charpoly
        G = build_group(name)
        for c in G.classes:
            w = G.matrix(c.rep_index)
            cp = w.charpoly()
            assert torus_order(G, c.rep_index) == cp
            assert torus_order(G, c.rep_index, "noncompact") == cp * w.det().conjugate() ** 2
            det = LaurentPoly([(w.n - e, a) for e, a in cp.coeffs])
            assert fake_degree_torus(G, c.rep_index) == \
                poincare(G).conjugate().exact_div(det.conjugate())

    def test_class_fake_degrees_on_first_use(self):
        G = build_group("G4")
        fake_degree_torus(G, G.classes[3].rep_index)
        assert list(G._class_fake_degrees) == [3]
        assert G.class_fake_degree(3) is G._class_fake_degrees[3]


class TestCharTables:
    def test_cyclic_orthogonality(self):
        for e in (2, 3, 5, 6):
            cyclic_char_table(build_group(f"Z_{e}")).verify_orthogonality()

    def test_g4_orthogonality(self, g4):
        char_table(g4).verify_orthogonality()

    def test_g312_orthogonality(self, g312):
        char_table(g312).verify_orthogonality()

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

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)", "Z_4"])
    def test_table_fake_degrees_match_each_row(self, name):
        # G4's rows are named by their fake degrees, which the named table keeps
        table = char_table(build_group(name))
        assert list(table.fake_degrees) == list(table.names)
        assert table.fake_degrees == {n: fake_degree_char(table, n) for n in table.names}

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
                if not phi.poly.divides(order):
                    continue
                ok = all(_division_verdict(G, phi, v) for v in ("compact", "noncompact"))
                want.append((phi.poly.serialize(), ok))
        got = [(phi.poly.serialize(), ok) for phi, ok in all_sylow_congruences(G)]
        assert got == want

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
        # long division: 1 - x^5 has four roots that G4's order lacks
        fake = SimpleNamespace(poincare=LaurentPoly({0: 1, 5: -1}))
        monkeypatch.setattr(orders, "sylow_subcoset", lambda G, phi: (1, fake))
        phi = k_cyclotomic_factors(1, g4.field)[0]
        with pytest.raises(ArithmeticError, match="non-exact"):
            orders.sylow_congruence(g4, phi)


def _division_verdict(G, phi, variant):
    """Phi | |G| / (|W_G(L)| |L|) - 1 by long division of the order polynomials."""
    _, L = sylow_subcoset(G, phi)
    ratio = order_poly(G, variant).exact_div(order_poly(L, variant) * Fraction(L.relative_order))
    return phi.poly.divides(ratio - 1)


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
