"""End-to-end acceptance gate: eight top-level criteria, one status line each."""

import random
from fractions import Fraction

from test_factor_lists import CASES

from spets.chartables import char_table, feg_map
from spets.cli import main
from spets.cyclotomic import Cyclo, field_from_name, zeta
from spets.hecke import (CyclicHeckeParams, compactify, noncompactify,
                         one_spetsial_spec, schur_cyclic)
from spets.laurent import (FracExpMonomial, LaurentPoly, k_cyclotomic_factors)
from spets.orders import all_sylow_congruences
from spets.reflection import build_group
from spets.tabledata import data_dir, diff_tables, load_reference
from spets.uch import _cyclic_feg_map, cyclic_uch, verify_axioms


def _report(tag, fn):
    try:
        fn()
    except BaseException:
        print(f"{tag}: FAIL")
        raise
    print(f"{tag}: PASS")


def test_ac1_cyclic_table_bit_exact(capsys):
    def check():
        assert main(["uch", "--cyclic", "3"]) == 0
        out = capsys.readouterr().out
        assert out == (data_dir() / "uch_z3_rho.txt").read_text()
    _report("AC1", check)


def test_ac2_cyclic_reference_tables():
    def check():
        for e, name in ((3, "uch_z3.txt"), (4, "uch_z4.txt")):
            d = diff_tables(cyclic_uch(e), load_reference(name))
            assert d.empty, d.summary()
        z4 = {r.name: r.fr.serialize() for r in cyclic_uch(4).rows}
        assert "-1" in z4.values() and "(-E(4,1))" in z4.values()
    _report("AC2", check)


def test_ac3_cyclic_count_and_family_sums():
    def check():
        for e in range(2, 9):
            t = cyclic_uch(e)
            assert len(t.rows) == 1 + e * (e - 1) // 2
            report = verify_axioms(t, build_group(f"Z_{e}"), _cyclic_feg_map(e))
            assert report.passed, (e, report.summary())
    _report("AC3", check)


def test_ac4_g4_pipeline(g4_result):
    def check():
        d = diff_tables(g4_result.table, load_reference("uch_g4.txt"))
        assert d.empty and not d.renames, d.summary()
        assert len(g4_result.table.rows) == 10
        spec4 = g4_result.specs[(4, 1)].spec
        assert spec4.serialize() == \
            "H_{Z_4}((E(4,1))*x^3, (E(4,1)), (E(4,1))*x, (-E(4,1)))"
        spec3 = g4_result.specs[(3, 1)].spec
        got = {u.serialize() for u in spec3.params().params}
        z3 = "(E(3,1))"
        z32 = "(-1-E(3,1))"
        want = {f"{z3}*x^2", f"(-E(3,1))", z3, f"(-E(3,1))*x",
                z32, f"(1+E(3,1))*x"}
        assert got == want, got
    _report("AC4", check)


def test_ac5_factor_lists():
    def check():
        for fname, d, expected in CASES:
            field = field_from_name(fname)
            got = {f.poly.serialize() for f in k_cyclotomic_factors(d, field)}
            assert got == {p.serialize() for p in expected}, (fname, d)
    _report("AC5", check)


def test_ac6_sylow_congruences(g4, g312):
    def check():
        for G in (g4, g312, build_group("Z_6")):
            results = all_sylow_congruences(G)
            assert results
            assert all(ok for _, ok in results), \
                [phi.poly.serialize() for phi, ok in results if not ok]
    _report("AC6", check)


def test_ac7_property_suite(g4, g312):
    def check():
        groups = [g4, g312, build_group("Z_6")]
        # order polynomial semi-palindromicity
        for G in groups:
            P = G.poincare
            flipped = LaurentPoly([(-e, c) for e, c in P.coeffs])
            assert LaurentPoly.x(G.n_ref + G.rank) * flipped == \
                P * ((-1) ** G.rank)
        # fake degrees evaluate to character values at regular elements
        for G, zs in ((g4, (Cyclo.rational(-1), zeta(4), zeta(6))),
                      (g312, (Cyclo.rational(-1), zeta(3), zeta(6)))):
            table = char_table(G)
            for z in zs:
                w = G.regular_element(z)
                for name, f in feg_map(table).items():
                    assert f.evaluate(z) == table.value(name, w)
        # reflection count from degrees
        for G in groups:
            assert sum(d - 1 for d, _ in G.degrees) == G.n_ref
        # Schur semi-palindromicity on random specializations
        rng = random.Random(7)
        roots = [Cyclo.rational(1), Cyclo.rational(-1),
                 zeta(3), zeta(3) ** 2, zeta(4), -zeta(4)]
        trials = 0
        while trials < 100:
            e = rng.randint(2, 5)
            coeffs = [rng.choice(roots) for _ in range(e)]
            exps = [rng.randint(0, 4) for _ in range(e)]
            if len({(c.serialize(), m)
                    for c, m in zip(coeffs, exps)}) < e:
                continue
            params = CyclicHeckeParams(
                e, tuple(FracExpMonomial(c, Fraction(m))
                         for c, m in zip(coeffs, exps)))
            for i, si in enumerate(schur_cyclic(params)):
                s = si.as_x()
                rc = Cyclo.rational((-1) ** (e - 1))
                re_ = 0
                for j in range(e):
                    if j != i:
                        rc = rc * coeffs[j] / coeffs[i]
                        re_ += exps[j] - exps[i]
                assert s.vee() == s * LaurentPoly.monomial(rc, re_)
            trials += 1
        # variant flips are inverse to each other
        for e in (2, 3, 4, 6):
            spec = one_spetsial_spec(e)
            assert compactify(noncompactify(spec)) == spec
        # coefficient-conjugating inversion is an involution
        p = LaurentPoly([(2, zeta(3)), (0, Cyclo.rational(1)),
                         (-1, zeta(4))])
        assert p.vee().vee() == p
    _report("AC7", check)


def test_ac8_g312_principal_series_and_filter(g312, g312_result):
    def check():
        ref = load_reference("uch_g312.txt")
        names = {r.name for r in g312_result.table.rows
                 if r.series and r.series[0] == "1"}
        assert len(names) == 9
        for name in names:
            got = g312_result.table.row(name)
            want = ref.row(name)
            assert got.degree in (want.degree, -want.degree)
            assert got.fr == want.fr
        from spets.tabledata import _g312_hc, _levi
        from spets.uch import hc_candidate_filter
        hc = _g312_hc()
        rows = hc_candidate_filter(_levi(g312, hc.levi_gen), hc.deg_lambda, 3,
                                   g312_result.table)
        assert sorted(r.name for r in rows) == \
            ["Z_3:1", "Z_3:zeta3", "Z_3:zeta3^2"]
    _report("AC8", check)
