"""Table file grammar, diffing, the spetsial classification, and data lookup."""

import re
import shutil
from functools import cached_property
from math import gcd, lcm

import pytest

from spets import orders, tabledata
from spets.chartables import char_table, feg_map
from spets.cyclotomic import Cyclo, zeta
from spets.laurent import LaurentPoly
from spets.orders import fake_degree_torus
from spets.reflection import build_group
from spets.tabledata import (construct_uch, data_dir, diff_tables, emit_uch,
                             is_spetsial, load_reference, load_schur_data,
                             parse_uch)
from spets.uch import UnipotentCharacter, UchTable, _cyclic_feg_map, cyclic_uch

from conftest import exact_div

ALL_TABLES = ["uch_z3_rho.txt", "uch_z3.txt", "uch_z4.txt",
              "uch_g4.txt", "uch_g312.txt"]


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_TABLES)
    def test_parse_emit_identity(self, name):
        text = (data_dir() / name).read_text()
        assert emit_uch(parse_uch(text)) == text

    def test_cyclic_emit_matches_reference(self):
        for e, name in ((3, "uch_z3.txt"), (4, "uch_z4.txt")):
            d = diff_tables(cyclic_uch(e), load_reference(name))
            assert d.empty, d.summary()

    def test_rho_named_table_bit_exact(self):
        text = (data_dir() / "uch_z3_rho.txt").read_text()
        assert emit_uch(cyclic_uch(3)) == text


class TestDiff:
    def test_identity(self):
        t = cyclic_uch(4)
        d = diff_tables(t, t)
        assert d.empty and not d.renames

    def test_sign_flip_detected(self):
        t = cyclic_uch(3)
        rows = [UnipotentCharacter(r.name, -r.degree, r.fr, r.family,
                                   r.series, True, r.marker)
                if r.name == "rho_{1,0}" else r for r in t.rows]
        other = UchTable(t.group, rows, t.families)
        d = diff_tables(t, other)
        assert not d.empty
        assert any("sign" in m for m in d.mismatches)

    def test_unresolved_sign_matches_silently(self):
        t = cyclic_uch(3)
        rows = [UnipotentCharacter(r.name, -r.degree, r.fr, r.family,
                                   r.series, False, r.marker)
                if r.name == "rho_{2,1}" else r for r in t.rows]
        other = UchTable(t.group, rows, t.families)
        assert diff_tables(t, other).empty

    def test_resolved_row_matches_an_unresolved_negated_row_silently(self):
        # rho_{1,0} is sign-resolved in the first table only
        t = cyclic_uch(3)
        assert t.row("rho_{1,0}").sign_resolved
        rows = [UnipotentCharacter(r.name, -r.degree, r.fr, r.family,
                                   r.series, False, r.marker)
                if r.name == "rho_{1,0}" else r for r in t.rows]
        other = UchTable(t.group, rows, t.families)
        d = diff_tables(t, other)
        assert d.empty and not d.renames

    def test_rename_is_informational(self):
        t = cyclic_uch(3)
        rows = [UnipotentCharacter("rho'", r.degree, r.fr, r.family,
                                   r.series, r.sign_resolved, r.marker)
                if r.name == "rho_{1,0}" else r for r in t.rows]
        fams = [type(f)(f.index,
                        ["rho'" if m == "rho_{1,0}" else m for m in f.members],
                        f.a, f.A,
                        "rho'" if f.special == "rho_{1,0}" else f.special,
                        f.cospecial)
                for f in t.families]
        other = UchTable(t.group, rows, fams)
        d = diff_tables(t, other)
        assert d.empty
        assert d.renames

    def test_missing_row(self):
        t = cyclic_uch(3)
        other = UchTable(t.group, t.rows[:-1], t.families)
        assert not diff_tables(t, other).empty


class TestGrammar:
    def test_parse_error_reports_line(self):
        text = "group Z_3\nconductor 3\norder x^4 - x\nfamily 0 a=0 A=0\nbogus line\n"
        with pytest.raises(ValueError, match="line 5"):
            parse_uch(text)

    def test_huge_root_order_reports_line(self):
        text = ("group Z_3\nconductor 3\norder x^4 - x\nfamily 0 a=0 A=0\n"
                "1 | E(100000,1)*x | 1 | special\n")
        with pytest.raises(ValueError, match=r"^line 5: .*E\(100000,1\)"):
            parse_uch(text)

    def test_zero_denominator_reports_line(self):
        text = ("group Z_3\nconductor 3\norder x^4 - x\nfamily 0 a=0 A=0\n"
                "1 | 1/0*x | 1 | special\n")
        with pytest.raises(ValueError, match=r"^line 5: .*'1/0'"):
            parse_uch(text)

    def test_empty_table(self):
        with pytest.raises(ValueError):
            parse_uch("")

    def test_unknown_fr(self):
        text = (data_dir() / "uch_g4.txt").read_text()
        table = parse_uch(text)
        assert all(r.fr is not None for r in table.rows)


class TestDataDir:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPETS_DATA", str(tmp_path))
        assert data_dir() == tmp_path

    def test_default_ships_tables(self, monkeypatch):
        monkeypatch.delenv("SPETS_DATA", raising=False)
        for name in ALL_TABLES:
            assert (data_dir() / name).exists()

    def test_schur_data(self):
        rows = load_schur_data("schur_g4.txt")
        names = [n for n, _, _ in rows]
        assert "phi_{1,0}" in names
        assert all(d >= 1 for _, _, d in rows)

    @pytest.mark.parametrize("row, message", [
        # rows of the former name | polynomial | degree grammar miss fields now
        ("phi_{1,0} | x + 1", "not enough values to unpack"),
        ("phi_{1,0} | x + 1 | one", "not enough values to unpack"),
        ("phi_{1,0} | x + E(3 | 1", "not enough values to unpack"),
        ("phi_{1,0} | 1 | 0 | 2:1 | 1 | 2", "too many values to unpack"),
        ("phi_{1,0} | x + 1 | 0 | 2:1 | 1", "cannot parse cyclotomic literal"),
        ("phi_{1,0} | 1/0 | 0 | 2:1 | 1", "zero denominator"),
        ("phi_{1,0} | 0 | 0 | 2:1 | 1", "the constant of a Schur element is zero"),
        ("phi_{1,0} | 1 | x | 2:1 | 1", "invalid literal for int"),
        ("phi_{1,0} | 1 | 0 | 0:0 | 1", "root '0:0' is not"),
        ("phi_{1,0} | 1 | 0 | 4:2 | 1", "root '4:2' is not"),
        ("phi_{1,0} | 1 | 0 | 3:1^0 | 1", "root '3:1^0' is not"),
        ("phi_{1,0} | 1 | 0 | 3:-1 | 1", "root '3:-1' is not"),
        ("phi_{1,0} | 1 | 0 | 3:4 | 1", "root '3:4' is not"),
    ])
    def test_schur_data_errors_name_file_and_line(self, tmp_path, monkeypatch,
                                                   row, message):
        # only a ValueError naming the file and line escapes, never a bare
        # ZeroDivisionError
        (tmp_path / "schur_bad.txt").write_text(
            "# name | c | v | roots | degree\n\nphi_{2,1} | 1 | 0 | 2:1^2 | 2\n" + row + "\n")
        monkeypatch.setenv("SPETS_DATA", str(tmp_path))
        with pytest.raises(ValueError, match=rf"schur_bad\.txt line 4: {re.escape(message)}"):
            load_schur_data("schur_bad.txt")

    def test_schur_element_off_the_fake_degree_names_its_row(self, tmp_path, monkeypatch):
        # Feg(R_1) of G4 has no root of order 5, so an S with one divides it not
        shutil.copytree(data_dir(), tmp_path, dirs_exist_ok=True)
        path = tmp_path / "schur_g4.txt"
        path.write_text(path.read_text().replace(
            "phi_{3,2} | 1 | -2 | 2:1^2 4:1 4:3 | 3", "phi_{3,2} | 1 | -2 | 2:1^2 5:1 | 3"))
        monkeypatch.setenv("SPETS_DATA", str(tmp_path))
        with pytest.raises(ArithmeticError, match=re.escape("Schur element of phi_{3,2}")):
            construct_uch("G4")


def _schur_elements(name):
    """(row, S, theta(1)) for each principal-series character: S expanded
    from the shipped G4 rows or from G(3,1,2)'s Ariki-Koike elements."""
    x = LaurentPoly.x()
    if name == "G4":
        data = load_schur_data("schur_g4.txt")
    else:
        data = tabledata._g312_schur(char_table(build_group(name)))
    out = []
    for row, (c, v, roots), dim in data:
        s = LaurentPoly.monomial(c, v)
        for (d, k), m in roots.items():
            s = s * (1 - x * zeta(d, -k)) ** m
        out.append((row, s, dim))
    return out


@pytest.mark.parametrize("name", ["G4", "G(3,1,2)"])
class TestShippedSchurData:
    """Identities every Schur element of the generic algebra obeys, checked
    on each of G4's shipped rows and of G(3,1,2)'s Ariki-Koike elements, with
    no formula for S itself."""

    def test_value_at_one_is_order_over_degree(self, name):
        G = build_group(name)
        for row, s, dim in _schur_elements(name):
            assert s.evaluate(1) * dim == Cyclo.rational(G.order), row

    def test_trace_of_one_is_one(self, name):
        # sum chi(1)/S_chi = 1, cleared of denominators by Feg(R_1)
        G = build_group(name)
        feg = fake_degree_torus(G, 0)
        total = LaurentPoly.combination((exact_div(feg, s), dim)
                                        for _, s, dim in _schur_elements(name))
        assert total == feg

    def test_splits_over_roots_of_the_degrees(self, name):
        G = build_group(name)
        top = lcm(*(d for d, _ in G.degrees))
        for row, s, _ in _schur_elements(name):
            width = s.degree() - s.valuation()
            roots = {(d, k): width for d in range(1, top + 1) if top % d == 0
                     for k in range(d) if gcd(k, d) == 1}
            assert sum(s.multiplicities(roots).values()) == width, row

    def test_root_multisets_are_feg_over_the_golden_degrees(self, name):
        # S = Feg(R_1) / Deg from the transcribed reference table, by long
        # division, against each element's constant, valuation and roots
        G = build_group(name)
        feg = fake_degree_torus(G, 0)
        ref = load_reference({"G4": "uch_g4.txt", "G(3,1,2)": "uch_g312.txt"}[name])
        elements = _schur_elements(name)
        assert len(elements) == len(char_table(G).names)
        for row, s, _ in elements:
            assert s == exact_div(feg, ref.row(row).degree), row


class TestSpetsial:
    def test_known_values(self):
        assert is_spetsial("Z_5")
        assert is_spetsial("G4")
        assert is_spetsial("G(3,1,2)")
        assert is_spetsial("G(4,1,3)")
        assert not is_spetsial("G5")
        assert not is_spetsial("G31")

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            is_spetsial("not-a-group")


class TestPipelineResult:
    """The pipeline hands its group and principal-series fake degrees on."""

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)"])
    def test_fegs_are_the_character_table_fegs(self, name):
        assert construct_uch(name).fegs == feg_map(char_table(build_group(name)))

    @pytest.mark.parametrize("e", range(1, 13))
    def test_cyclic_fegs(self, e):
        res = construct_uch(f"Z_{e}")
        assert res.fegs == _cyclic_feg_map(e)
        assert res.table.group == res.group.name == f"Z_{e}"

    @pytest.mark.parametrize("name", ["G4", "G(3,1,2)", "Z_5"])
    def test_group_is_the_one_built(self, monkeypatch, name):
        built = []

        def record(*args):
            built.append(build_group(*args))
            return built[-1]

        monkeypatch.setattr(tabledata, "build_group", record)
        res = construct_uch(name)
        assert len(built) == 1
        assert res.group is built[0]
        assert res.table.group == res.group.name

    def test_pipeline_computes_each_character_fake_degree_once(self, monkeypatch):
        # each table's fake degrees come from one table-wide pass: G4 has 7
        # characters and G(3,1,2) has 9; naming the rows of G4 shares its
        # fake degrees with feg_map
        calls = []
        table_wide = orders.CharTable.fake_degrees.func

        def record(table):
            calls.append((table.group.name, table.names))
            return table_wide(table)

        recorded = cached_property(record)
        recorded.__set_name__(orders.CharTable, "fake_degrees")
        monkeypatch.setattr(orders.CharTable, "fake_degrees", recorded)
        construct_uch("G4")
        construct_uch("G(3,1,2)")
        assert [g for g, _ in calls] == ["G4", "G(3,1,2)"]
        assert sum(len(names) for _, names in calls) == 16

    def test_over_bound_group_fails_before_table_work(self, monkeypatch):
        def never(e):
            raise AssertionError("cyclic table built for a rejected group")

        monkeypatch.setattr(tabledata, "cyclic_uch", never)
        with pytest.raises(ArithmeticError, match="enumeration"):
            construct_uch("Z_8192")
        with pytest.raises(ValueError, match="cyclic order must be positive"):
            construct_uch("Z_0")
