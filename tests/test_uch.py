"""Unipotent-character tables: cyclic closed forms, construction pipeline
steps, family partitions, and the axiom checker."""

import itertools
from collections import Counter
from fractions import Fraction
from functools import partial
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from spets import laurent, tabledata, uch
from spets.cyclotomic import Cyclo, CycloField, zeta
from spets.hecke import SpetsialAlgebraSpec, check_spetsial, frobenius_model
from spets.laurent import LaurentPoly
from spets.orders import fake_degree_torus, order_poly, reversal
from spets.reflection import ReflectionCoset, build_group
from spets.tabledata import _g4_hc, _g312_hc, _levi, construct_uch
from spets.uch import (DeterminationError, SeriesDetermination, UchTable, UnipotentCharacter,
                       cyclic_uch, determine_parameters, ennola_transform,
                       hc_candidate_filter, regular_eigenvalues, verify_axioms)

from conftest import (EXTRA_GROUPS, ORACLE_GROUPS, b3_gens, check_inducing_sum, divides,
                      exact_div, extra_group, family_sum_failures, principal_series_failures,
                      row_reduce)


class TestCyclicTables:
    @pytest.mark.parametrize("e", range(2, 13))
    def test_size(self, e):
        assert len(cyclic_uch(e).rows) == 1 + e * (e - 1) // 2

    def test_z3_degrees(self):
        t = cyclic_uch(3)
        got = {r.name: r.degree.serialize() for r in t.rows}
        assert got == {
            "1": "1",
            "rho_{1,0}": "(1/3-1/3*E(3,1))*x^2 + (2/3+1/3*E(3,1))*x",
            "rho_{2,0}": "(2/3+1/3*E(3,1))*x^2 + (1/3-1/3*E(3,1))*x",
            "rho_{2,1}": "(1/3+2/3*E(3,1))*x^2 + (-1/3-2/3*E(3,1))*x",
        }

    def test_z3_frobenius(self):
        t = cyclic_uch(3)
        got = {r.name: r.fr.serialize() for r in t.rows}
        assert got == {"1": "1", "rho_{1,0}": "1", "rho_{2,0}": "1",
                       "rho_{2,1}": "(-1-E(3,1))"}

    def test_z3_families(self):
        t = cyclic_uch(3)
        fams = [(f.members, f.a, f.A, f.special, f.cospecial)
                for f in t.families]
        assert fams == [
            (["1"], 0, 0, "1", "1"),
            (["rho_{1,0}", "rho_{2,0}", "rho_{2,1}"], 1, 2,
             "rho_{1,0}", "rho_{2,0}"),
        ]

    @pytest.mark.parametrize("e", range(1, 13))
    def test_degrees_match_quotient_form(self, e):
        # Deg(rho_{i,k}) = ((z^k - z^i)/e) x (x^e - 1) / ((x - z^k)(x - z^i))
        x, z = LaurentPoly.x(), zeta(e)
        full = LaurentPoly({0: -1, e: 1}) * x
        want = {"1": LaurentPoly.one()}
        for i in range(1, e):
            for k in range(i):
                den = (x - z ** k) * (x - z ** i)
                want[f"rho_{{{i},{k}}}"] = exact_div(full, den) * ((z ** k - z ** i) / e)
        assert {r.name: r.degree for r in cyclic_uch(e).rows} == want

    def test_degree_sum_is_group_order_poly(self):
        # sum over the principal series theta(1) Deg = Feg of the 1-series
        for e in (2, 3, 4, 5):
            t = cyclic_uch(e)
            total = LaurentPoly.zero()
            for r in t.rows:
                if r.series[0] == "1":
                    total = total + r.degree
            want = LaurentPoly([(k, Cyclo.rational(1)) for k in range(e)])
            assert total == want


# The summary of a table that passes every check, the checks in report order.
PASSED_SUMMARY = """degree-divides-order: ok
family-sum: ok
principal-series-sum: ok
series-compatibility: ok
series-counting: ok
family-bounds: ok
galois-closure: ok"""


class TestAxioms:
    @pytest.mark.parametrize("e", [*range(1, 17), 24, 32])
    def test_cyclic(self, e):
        G = build_group(f"Z_{e}")
        from spets.uch import _cyclic_feg_map
        report = verify_axioms(cyclic_uch(e), G, _cyclic_feg_map(e))
        assert report.summary() == PASSED_SUMMARY

    def test_g4(self, g4, g4_result, g4_fegs):
        report = verify_axioms(g4_result.table, g4, g4_fegs)
        assert report.summary() == PASSED_SUMMARY

    def test_g312(self, g312, g312_result, g312_fegs):
        report = verify_axioms(g312_result.table, g312, g312_fegs)
        assert report.summary() == PASSED_SUMMARY

    def test_computes_one_class_fake_degree(self):
        # Feg(R_1) needs the quotient P / det(1 - x w) of the identity class only
        G = build_group("Z_12")
        report = verify_axioms(cyclic_uch(12), G, uch._cyclic_feg_map(12))
        assert report.passed
        assert list(G._class_fake_degrees) == [G.class_of(0)]

    def test_series_compatibility_reads_integer_residues(self, monkeypatch):
        # zeta^delta is compared as an integer residue mod the lcm of the regular orders
        table, G = cyclic_uch(12), build_group("Z_12")
        monkeypatch.setattr(uch, "Fraction", None)
        assert verify_axioms(table, G, uch._cyclic_feg_map(12)).passed

    @staticmethod
    def _with_degree(table, name, change):
        rows = [UnipotentCharacter(r.name, change(r.degree), r.fr, r.family,
                                   r.series, r.sign_resolved, r.marker)
                if r.name == name else r for r in table.rows]
        return type(table)(table.group, rows, table.families)

    def test_detects_sign_flip(self, g4, g4_result, g4_fegs):
        # a sign flip leaves Deg(X) conj(Deg)(Y) unchanged, so only the
        # principal-series sum can see it
        broken = self._with_degree(g4_result.table, "phi_{2,5}", lambda d: -d)
        report = verify_axioms(broken, g4, g4_fegs)
        assert not report.passed
        assert report.failures["principal-series-sum"]
        assert not report.failures["family-sum"]

    def test_no_two_rows_keep_a_family_sum_past_a_middle_monomial(self, g4_result, g4_fegs):
        # a family sum is sum d d^* over its rows' coefficient vectors d, and a
        # change of two rows a, b keeps it only as a unitary mix of d_a and d_b;
        # adding x^j to row a then needs x^j in the span of d_a and d_b, which
        # holds for no principal-series row a of G4, middle exponent j and row b
        table = g4_result.table
        for fam in table.families:
            exps = sorted({e for name in fam.members for e, _ in table.row(name).degree.coeffs})
            vecs = {name: [table.row(name).degree.coeff(e) for e in exps] for name in fam.members}
            for a in set(fam.members) & set(g4_fegs):
                for j, _ in table.row(a).degree.coeffs[1:-1]:
                    unit = [Cyclo.rational(int(e == j)) for e in exps]
                    for b in fam.members:
                        if b != a:
                            assert len(row_reduce([vecs[a], vecs[b], unit])) == 3, (a, j, b)

    def test_principal_series_sum_alone_sees_a_unit_multiple(self, g4, g4_result, g4_fegs):
        # with no such pair, the case takes the sign-flip shape with a
        # non-rational unit: E(3) Deg(phi_{2,1}) keeps every root multiplicity
        # and family sum, and only sigma_1 fixes Q(zeta3), so only the sum fails
        broken = self._with_degree(g4_result.table, "phi_{2,1}", lambda d: d * zeta(3))
        report = verify_axioms(broken, g4, g4_fegs)
        assert {k: v for k, v in report.failures.items() if v} == {
            "principal-series-sum": ["sum over the principal series"]}
        # theta(1) is read off the fake degree's own lifts: E(3)^-1 Feg(phi_{2,1})
        # weighs the unit back out
        fegs = {**g4_fegs, "phi_{2,1}": g4_fegs["phi_{2,1}"] * zeta(3, 2)}
        assert not verify_axioms(broken, g4, fegs).failures["principal-series-sum"]

    def test_detects_corrupted_family(self, g4, g4_result, g4_fegs):
        table = g4_result.table
        fam = table.row("phi_{2,5}").family
        # 1/2*x^8 + 1/2*x^7 + 1/2*x^5 + 1/2*x^4 doubled: the lowest
        # coefficient pair of the family sum moves first
        broken = self._with_degree(table, "phi_{2,5}", lambda d: d * 2)
        report = verify_axioms(broken, g4, g4_fegs)
        assert report.failures["family-sum"] == [f"family {fam} at x^4 y^4"]

    @pytest.mark.parametrize("factor, victim, want", [
        # x^2 + 1 vanishes at E(4,1) and -E(4,1): the row leaves the
        # zeta-series of its family there
        ({0: 1, 2: 1}, "rho_{3,1}", {
            "family-sum": ["family 1 at x^1 y^3"],
            "series-counting": ["family 1 at E(E(4,1))", "family 1 at E(-E(4,1))"]}),
        # x + 1 vanishes at -1 and raises the degree, so zeta^delta differs
        # between the regular zeta where the row survives
        ({0: 1, 1: 1}, "1", {
            "family-sum": ["family 0 at x^0 y^1"],
            "principal-series-sum": ["sum over the principal series"],
            "series-compatibility": ["1"],
            "series-counting": ["family 0 at E(-1)"]}),
        ({0: 1, 1: 1}, "rho_{3,1}", {
            "degree-divides-order": ["rho_{3,1}"],
            "family-sum": ["family 1 at x^1 y^2"],
            "series-compatibility": ["rho_{3,1}"]}),
    ])
    def test_series_checks_see_corrupted_cyclic_row(self, factor, victim, want):
        from spets.uch import _cyclic_feg_map
        broken = self._with_degree(cyclic_uch(4), victim,
                                   lambda d: d * LaurentPoly(factor))
        report = verify_axioms(broken, build_group("Z_4"), _cyclic_feg_map(4))
        assert {k: v for k, v in report.failures.items() if v} == want

    @pytest.mark.parametrize("e, victim, fr, unit, want", [
        # Fr = E(8) over Q(zeta4): sigma_5 fixes Q(zeta4) and moves E(8)
        (4, "rho_{1,0}", zeta(8), 1, ["sigma_5 does not permute the table"]),
        (3, "rho_{2,1}", zeta(4), 1, ["sigma_7 does not permute the table"]),
        # a unit multiple leaves every identity but Galois stability alone
        (4, "rho_{3,1}", None, zeta(8), ["sigma_5 does not permute the table"]),
        (3, "rho_{2,1}", None, zeta(9), ["sigma_4 does not permute the table",
                                         "sigma_7 does not permute the table"]),
    ])
    def test_galois_closure_sees_a_row_off_its_orbit(self, e, victim, fr, unit, want):
        from spets.laurent import FracExpMonomial
        table = cyclic_uch(e)
        rows = [UnipotentCharacter(r.name, r.degree * unit,
                                   FracExpMonomial(fr) if fr is not None else r.fr,
                                   r.family, r.series, r.sign_resolved, r.marker)
                if r.name == victim else r for r in table.rows]
        broken = UchTable(table.group, rows, table.families)
        report = verify_axioms(broken, build_group(f"Z_{e}"), uch._cyclic_feg_map(e))
        assert {k: v for k, v in report.failures.items() if v} == {"galois-closure": want}

    def test_galois_closure_over_the_rationals(self):
        # over Q every sigma_k but the identity is tested: sigma_2 moves E(3,1)
        G = ReflectionCoset("Z_2", [((-1,),)], CycloField.rationals())
        table = cyclic_uch(2)
        rows = [UnipotentCharacter(r.name, r.degree * zeta(3), r.fr, r.family, r.series,
                                   r.sign_resolved, r.marker)
                if r.name == "rho_{1,0}" else r for r in table.rows]
        broken = UchTable(table.group, rows, table.families)
        report = verify_axioms(broken, G, uch._cyclic_feg_map(2))
        assert report.failures["galois-closure"] == ["sigma_2 does not permute the table"]


def _one_coefficient_corruptions(res):
    """The table's rows as ``rows`` maps, each with one row's degree changed:
    for row r, its coefficient number r mod its length times, in turn, 2 and
    each root of unity of the field other than 1."""
    rows = {r.name: r for r in reversed(res.table.rows)}
    yield rows
    m = lcm(2, res.group.field.conductor)
    factors = [2] + [zeta(m, k) for k in range(1, m)]
    for r, row in enumerate(res.table.rows):
        if not row.degree.coeffs:
            continue
        e0, f = row.degree.coeffs[r % len(row.degree.coeffs)][0], factors[r % len(factors)]
        deg = LaurentPoly([(e, c * f if e == e0 else c) for e, c in row.degree.coeffs])
        yield {**rows, row.name: UnipotentCharacter(row.name, deg, row.fr, row.family)}


class TestVerifierOracles:
    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_family_sums(self, name):
        res, seen = construct_uch(name), 0
        for rows in _one_coefficient_corruptions(res):
            got = []
            uch._check_family_sums(res.table, rows, res.fegs, got)
            assert got == family_sum_failures(res.table, rows, res.fegs)
            seen += bool(got)
        assert seen  # row 0 is doubled; a unit times a monomial row keeps its sums

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_principal_series(self, name):
        res = construct_uch(name)
        for rows in _one_coefficient_corruptions(res):
            got = []
            uch._check_principal_series(rows, res.group, res.fegs, got)
            assert got == principal_series_failures(rows, res.group, res.fegs)


# degrees and codegrees (Lehrer-Taylor, Unitary Reflection Groups, 2009)
SPRINGER_DATA = {"G4": ((4, 6), (0, 2)), "G(3,1,2)": ((3, 6), (0, 3)),
                 "B3": ((2, 4, 6), (0, 2, 4)),
                 **{f"Z_{e}": ((e,), (0,)) for e in range(2, 13)},
                 **{name: (degrees, codegrees)
                    for name, (_, degrees, codegrees, _) in EXTRA_GROUPS.items()}}


def _b3():
    """G(2,1,3), the Weyl group of type B_3: it has elements of order 4, but
    E(4) is not regular, as one degree and two codegrees are divisible by 4."""
    return ReflectionCoset("B3", [g.rows for g in b3_gens()], CycloField.rationals())


class TestRegularEigenvalues:
    def test_g4(self, g4):
        got = {z.serialize() for z in regular_eigenvalues(g4)}
        assert {"1", "-1", "E(4,1)", "-E(4,1)", "E(3,1)",
                "-1-E(3,1)"} <= got

    def test_z5(self):
        got = {z.serialize() for z in regular_eigenvalues(build_group("Z_5"))}
        assert "E(5,1)" in got and "1" in got

    def test_z1(self):
        # the trivial group: degree 1, codegree 0, so 1 is regular
        assert [z.serialize() for z in regular_eigenvalues(build_group("Z_1"))] == ["1"]

    @pytest.mark.parametrize("name", list(SPRINGER_DATA))
    def test_lehrer_springer(self, name):
        # E(d, a) is regular iff as many degrees as codegrees are divisible by d
        degrees, codegrees = SPRINGER_DATA[name]
        want = {(d, a) for d in range(1, max(degrees) + 1)
                if sum(x % d == 0 for x in degrees) == sum(x % d == 0 for x in codegrees)
                for a in range(d) if gcd(a, d) == 1}
        G = (_b3() if name == "B3" else extra_group(name) if name in EXTRA_GROUPS
             else build_group(name))
        assert [d for d, _ in G.degrees] == list(degrees)
        got = [z.root_of_unity_order() for z in regular_eigenvalues(G)]
        assert len(got) == len(want) and set(got) == want


class TestHarishChandra:
    def test_g4_candidate_filter(self, g4, g4_result):
        hc = _g4_hc()
        levi = _levi(g4, hc.levi_gen)
        rows = hc_candidate_filter(levi, hc.deg_lambda, 2, g4_result.table)
        assert sorted(r.name for r in rows) == ["Z_3:11", "Z_3:2"]
        assert check_inducing_sum(levi, hc.deg_lambda, [(r, 1) for r in rows])

    def test_g312_candidate_filter(self, g312, g312_result):
        hc = _g312_hc()
        levi = _levi(g312, hc.levi_gen)
        rows = hc_candidate_filter(levi, hc.deg_lambda, 3, g312_result.table)
        assert sorted(r.name for r in rows) == \
            ["Z_3:1", "Z_3:zeta3", "Z_3:zeta3^2"]
        assert check_inducing_sum(levi, hc.deg_lambda, [(r, 1) for r in rows])


class TestRootMultisets:
    """The principal and Harish-Chandra series divide by Schur elements held
    as root multisets, never read back from a polynomial."""

    def test_pipelines_read_no_polynomial_roots(self, monkeypatch):
        refs = {g: tabledata.load_reference(f)
                for g, f in (("G4", "uch_g4.txt"), ("G(3,1,2)", "uch_g312.txt"))}

        def refuse(*args, **kwargs):
            raise AssertionError("a polynomial was parsed or had its roots read")
        # no polynomial division but LaurentPoly.peel is left to call
        assert not hasattr(LaurentPoly, "quotient")
        monkeypatch.setattr(LaurentPoly, "roots", refuse)
        monkeypatch.setattr(LaurentPoly, "parse", staticmethod(refuse))
        monkeypatch.setattr(laurent, "parse_poly", refuse)
        for group, ref in refs.items():
            diff = tabledata.diff_tables(construct_uch(group).table, ref)
            assert diff.empty and not diff.renames, diff.summary()

    def test_root_off_the_fake_degree_fails_before_any_lift(self, g4, monkeypatch):
        fake_degree_torus(g4, 0)  # the fake degree is built and held first

        def refuse(*args, **kwargs):
            raise AssertionError("lifted")
        monkeypatch.setattr(Cyclo, "_lift", refuse)
        monkeypatch.setattr(LaurentPoly, "peel", refuse)
        stray = ("stray", (Cyclo.rational(1), 0, Counter({(999983, 1): 1})), 1)
        with pytest.raises(ArithmeticError, match="Schur element of stray does not divide"):
            uch.principal_series(g4, 0, [stray])

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)"])
    def test_hc_ratio_is_the_order_quotient(self, name):
        # the Molien ratio P_G / P_L against the long division of the orders
        G = build_group(name)
        for gi in range(len(G.gens)):
            ratio = exact_div(order_poly(G), order_poly(_levi(G, gi)))
            assert reversal(_levi(G, gi).relative_poincare) == ratio.shift(-ratio.valuation())


class TestDetermination:
    def test_g4_order_four_series(self, g4, g4_result):
        det = determine_parameters(g4, zeta(4), g4_result.table)
        assert det.spec.serialize() == \
            "H_{Z_4}((E(4,1))*x^3, (E(4,1)), (E(4,1))*x, (-E(4,1)))"

    def test_g4_order_three_series(self, g4, g4_result):
        det = determine_parameters(g4, zeta(3), g4_result.table)
        assert det.spec.serialize() == \
            "H_{Z_6}((E(3,1))*x^2, (-E(3,1))*x, (E(3,1)), (1+E(3,1))*x, " \
            "(-1-E(3,1)), (-E(3,1)))"

    def test_g312_minus_one_series(self, g312, g312_result):
        det = determine_parameters(g312, Cyclo.rational(-1), g312_result.table)
        assert det.spec.serialize() == \
            "H_{Z_6}(x^2, (-1-E(3,1))*x, (E(3,1)), x, (-1-E(3,1)), " \
            "(E(3,1))*x)"

    @pytest.mark.parametrize("d, a", [(5, 1), (12, 7), (9, 2)])
    def test_refuses_a_non_eigenvalue(self, g4, g4_result, d, a):
        with pytest.raises(ValueError, match=rf"^E\({d},{a}\) is not an eigenvalue of G4$"):
            determine_parameters(g4, zeta(d, a), g4_result.table)

    def test_idempotent(self, g4, g4_result):
        d1 = determine_parameters(g4, zeta(4), g4_result.table)
        d2 = determine_parameters(g4, zeta(4), g4_result.table)
        assert d1.spec == d2.spec
        assert d1.assignment == d2.assignment

    @staticmethod
    def _outcome(search, G, z, table):
        try:
            det = search(G, z, table)
        except ValueError as exc:
            return type(exc), str(exc)
        return (det.spec.serialize(), det.assignment,
                {j: p.serialize() for j, p in det.degrees.items()},
                {j: f.serialize() if f else None for j, f in det.frs.items()},
                det.epsilons)

    @pytest.mark.parametrize("group", ["G4", "G(3,1,2)"])
    def test_matches_slot_permutation_search(self, group):
        # the exponent-vector search agrees with the search over slot
        # permutations of rows at every regular zeta, refusals included;
        # dropping one known member leaves a free slot or several survivors
        G, table = build_group(group), construct_uch(group).table
        for z in regular_eigenvalues(G):
            knowns = [table.rows]
            if G.cyclic_centralizer_order(G.regular_element(z), z) is not None:
                knowns += [[r for r in table.rows if r is not drop]
                           for drop in table.rows
                           if not drop.degree.evaluate(z).is_zero()]
            for rows in knowns:
                known = UchTable(group, rows)
                assert self._outcome(determine_parameters, G, z, known) == \
                    self._outcome(_permutation_search, G, z, known), z

    def test_checks_each_exponent_vector_once(self, monkeypatch):
        checked = []

        def record(spec, G=None, w=None):
            checked.append((spec.e, spec.d, spec.a, spec.m))
            return check_spetsial(spec, G, w)

        monkeypatch.setattr(uch, "check_spetsial", record)
        construct_uch("G(3,1,2)")
        assert checked
        assert len(checked) == len(set(checked))

    def test_placement_rejects_vectors_failing_sc3(self, g4, g4_result):
        # the search checks each vector with no coset, so SC3 (every S_j
        # divides Feg) is left to the exact quotients of the placement
        z = zeta(4)
        w = g4.regular_element(z)
        e = g4.cyclic_centralizer_order(w, z)
        feg = fake_degree_torus(g4, w)
        members = [r for r in g4_result.table.rows if not r.degree.evaluate(z).is_zero()]
        trivial = g4_result.table.row("phi_{1,0}")
        only_sc3 = []
        for m in uch._exponent_vectors(e, g4.n_hyp):
            spec = SpetsialAlgebraSpec(e=e, d=4, a=1, m=m, n_ref=g4.n_ref,
                                       n_hyp=g4.n_hyp)
            if check_spetsial(spec).passed and \
                    check_spetsial(spec, g4, w).failures() == ["SC3"]:
                only_sc3.append(spec)
                assert uch._match_series(spec, feg, members, trivial,
                                         partial(frobenius_model, e, 4, 1)) is None, m
        assert len(only_sc3) == 20
        assert only_sc3[0].m == (0, 0, 0, 4)

    def test_funnel_counts(self, g4, g4_result, g312_result):
        # search space C(N_hyp + e - 1, e - 1), candidates generated, failed
        # conditions, unplaced, survivors
        def funnel(*counts):
            return dict(zip(("space", "candidates", "failed_check", "unmatched",
                             "survivors"), counts))

        assert determine_parameters(g4, zeta(4), g4_result.table).funnel == \
            funnel(35, 1, 0, 0, 1)
        assert determine_parameters(g4, zeta(3), g4_result.table).funnel == \
            funnel(126, 2, 1, 0, 1)
        total = Counter()
        for res in (g4_result, g312_result):
            for det in res.specs.values():
                total.update(det.funnel)
        assert total == funnel(917, 6, 1, 0, 5)

    def test_error_carries_the_funnel(self, g4, g4_result):
        known = UchTable("G4", [r for r in g4_result.table.rows if r.name != "phi_{1,0}"])
        with pytest.raises(DeterminationError,
                           match="^expected a unique surviving assignment, found 2$") as info:
            determine_parameters(g4, zeta(3), known)
        assert info.value.survivors == 2
        assert info.value.funnel == dict(space=126, candidates=4, failed_check=2,
                                         unmatched=0, survivors=2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda e: st.tuples(
        st.just(e), st.integers(0, 7),
        st.lists(st.tuples(st.integers(0, 4),
                           st.lists(st.integers(0, e - 1), max_size=e, unique=True)),
                 max_size=e + 1))))
    def test_candidates_are_the_seated_vectors(self, case):
        # the generator equals enumerate-all-then-filter, in the same order;
        # pins may repeat m_r, have no slot, or outnumber the slots
        e, total, pinned = case
        want = [m for m in uch._exponent_vectors(e, total)
                if any(len(set(p)) == len(p) for p in itertools.product(
                    *[[j for j in slots if m[j] == m_r] for m_r, slots in pinned]))]
        assert uch._candidate_vectors(e, total, pinned) == want

    @pytest.mark.parametrize("group", ["G4", "G(3,1,2)"])
    def test_checked_vectors_seat_the_known_members(self, monkeypatch, group):
        # every vector checked against the algebra conditions must seat the
        # known series members on pairwise distinct slots, each with the
        # member's exponent and Frobenius residue (the trivial one at slot 0)
        pinned, unseated = [], []

        def determine(G, zeta_c, known):
            d, a = zeta_c.root_of_unity_order()
            e = G.cyclic_centralizer_order(G.regular_element(zeta_c), zeta_c)
            pinned.clear()
            for r in known.rows:
                if r.degree.evaluate(zeta_c).is_zero():
                    continue
                slots = {j for j in range(1 if r.degree == LaurentPoly.one() else e)
                         if r.fr is None
                         or r.fr in frobenius_model(e, d, a, j, Fraction(r.delta))}
                pinned.append(((G.n_ref + G.n_hyp - r.delta) // e, slots))
            return determine_parameters(G, zeta_c, known)

        def record(spec, G=None, w=None):
            if not any(all(spec.m[j] == m_r and j in slots
                           for j, (m_r, slots) in zip(seats, pinned))
                       for seats in itertools.permutations(range(spec.e), len(pinned))):
                unseated.append((spec.d, spec.a, spec.m))
            return check_spetsial(spec, G, w)

        monkeypatch.setattr(tabledata, "determine_parameters", determine)
        monkeypatch.setattr(uch, "check_spetsial", record)
        construct_uch(group)
        assert unseated == []


def _permutation_search(G, zeta_c, known):
    """Reference search: every distinct ordering of the known rows and free
    exponents over the slots, one spec per ordering, first match kept."""
    d, a = zeta_c.root_of_unity_order() or (1, 0)
    w = G.regular_element(zeta_c)
    e = G.cyclic_centralizer_order(w, zeta_c)
    if e is None:
        raise ValueError("cyclic reduction only: the centralizer is not cyclic")
    feg = fake_degree_torus(G, w)
    members = [r for r in known.rows if not r.degree.evaluate(zeta_c).is_zero()]
    pinned = []
    for r in members:
        m_r = Fraction(G.n_ref + G.n_hyp - r.delta, e)
        if m_r < 0 or m_r.denominator != 1:
            raise DeterminationError(
                f"known member {r.name} pins a non-integral exponent {m_r}", 0)
        pinned.append((r, int(m_r)))
    rem = G.n_hyp - sum(m for _, m in pinned)
    k_free = e - len(pinned)
    if rem < 0 or k_free < 0:
        raise DeterminationError("known series members overfill the exponent budget", 0)
    trivial = next((r for r in members if r.degree == LaurentPoly.one()), None)
    survivors, seen_specs = [], set()
    extras = [c for c in itertools.combinations_with_replacement(range(rem + 1), k_free)
              if sum(c) == rem]
    for extra in extras:
        items = pinned + [(None, m) for m in extra]
        seen_orders = set()
        for order in itertools.permutations(items):
            key = tuple((r.name if r else None, m) for r, m in order)
            if key in seen_orders:
                continue
            seen_orders.add(key)
            if trivial is not None and order[0][0] is not trivial:
                continue
            if not all(r.fr is None or r.fr in frobenius_model(
                    e, d, a, j, Fraction(r.delta))
                    for j, (r, _) in enumerate(order) if r is not None):
                continue
            spec = SpetsialAlgebraSpec(e=e, d=d, a=a, m=[m for _, m in order],
                                       n_ref=G.n_ref, n_hyp=G.n_hyp)
            if spec.m in seen_specs or not check_spetsial(spec, G, w).passed:
                continue
            result = _place_in_order(spec, feg, order)
            if result is not None:
                seen_specs.add(spec.m)
                survivors.append(result)
    if len(survivors) != 1:
        raise DeterminationError(
            f"expected a unique surviving assignment, found {len(survivors)}",
            len(survivors))
    return survivors[0]


def _place_in_order(spec, feg, order):
    degrees, frs, eps, assignment = {}, {}, {}, {}
    for j, ((row, _), s) in enumerate(zip(order, spec.schur())):
        quo = exact_div(feg, s.as_x())
        # sigma from the Schur element, independent of hecke.frobenius
        frs_j = frobenius_model(spec.e, spec.d, spec.a, j, spec.n_ref - s.sigma())
        frs[j] = frs_j[0] if len(frs_j) == 1 else None
        if row is not None:
            if row.degree not in (quo, -quo):
                return None
            if row.fr is not None and frs[j] is not None and row.fr != frs[j]:
                return None
            eps[j] = 1 if row.degree == quo else -1
        else:
            val = quo.evaluate(spec.zeta)
            if val not in (Cyclo.rational(1), Cyclo.rational(-1)):
                return None
            eps[j] = 1 if val == Cyclo.rational(1) else -1
        degrees[j] = quo if eps[j] == 1 else -quo
        assignment[j] = row.name if row is not None else None
    return SeriesDetermination(spec, assignment, degrees, frs, eps)


class TestEnnola:
    def test_closure(self, g4, g4_result):
        # twisting by the full center permutes the completed table: the
        # transform introduces no new characters and is a signed bijection
        table = g4_result.table
        res = ennola_transform(table, Cyclo.rational(-1))
        assert res.new_names == []
        assert sorted(dst for dst, _ in res.permutation.values()) == \
            sorted(table.names())

    def test_involution(self, g312_result):
        table = g312_result.table
        res = ennola_transform(table, zeta(3))
        assert res.new_names == []
        back = ennola_transform(res.table, zeta(3) ** 2)
        assert back.new_names == []

    def test_one_call_closes_the_table(self):
        # x - 1 -> E(3,2) x - 1 -> E(3,1) x - 1 -> x - 1: an orbit of three,
        # whose two new rows take names numbered across the whole closure
        table = UchTable("Z_3", [UnipotentCharacter("a", LaurentPoly.x() - 1)])
        res = ennola_transform(table, zeta(3))
        assert res.new_names == ["Z_3[1]", "Z_3[2]"]
        assert res.table.names() == ["a", "Z_3[1]", "Z_3[2]"]
        assert res.permutation == {"a": ("Z_3[1]", 1), "Z_3[1]": ("Z_3[2]", 1),
                                   "Z_3[2]": ("a", 1)}
        assert table.names() == ["a"]
        assert ennola_transform(res.table, zeta(3)).new_names == []

    def test_new_rows_take_the_given_names_first(self):
        table = UchTable("Z_3", [UnipotentCharacter("a", LaurentPoly.x() - 1)])
        res = ennola_transform(table, zeta(3), ["b"])
        assert res.new_names == ["b", "Z_3[2]"]

    def test_pipeline_specs_cover_series(self, g4_result, g312_result):
        assert set(g4_result.specs) == {(4, 1), (3, 1)}
        assert set(g312_result.specs) == {(6, 1), (6, 5), (2, 1)}


ORDER_ROOT_TABLES = {"G4": ["uch_g4.txt"], "G(3,1,2)": ["uch_g312.txt"],
                     "Z_3": ["uch_z3.txt", "uch_z3_rho.txt"], "Z_4": ["uch_z4.txt"]}


@pytest.mark.parametrize("name", ["G4", "G(3,1,2)"] + [f"Z_{e}" for e in range(1, 13)])
def test_divides_order_matches_long_division(name):
    """The root-multiplicity test against LaurentPoly.divides, on every
    shipped row and on rows given an extra factor."""
    from spets.orders import order_poly
    from spets.uch import _divides_order
    G = build_group(name)
    order, roots = order_poly(G, "compact"), G.order_roots
    rows = [r.degree for f in ORDER_ROOT_TABLES.get(name, [])
            for r in tabledata.load_reference(f).rows]
    if name.startswith("Z_"):
        rows += [r.degree for r in cyclic_uch(int(name[2:])).rows]
    x = LaurentPoly.x()
    extra = [x + 1, x - 1, x ** 2 + 1, x + 2]
    polys = rows + [r * f for r in rows for f in extra]
    verdicts = set()
    for p in polys:
        want = divides(p, order)
        assert _divides_order(p, p.multiplicities(roots), roots) == want, \
            (name, p.serialize())
        verdicts.add(want)
    assert verdicts == {True, False}
    # the verifier counts a zero degree as a failure
    zero = LaurentPoly.zero()
    assert not _divides_order(zero, zero.multiplicities(roots), roots)
