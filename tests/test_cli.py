"""Command-line entry points."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spets
from spets import cli, reflection, tabledata, uch
from spets.cli import main
from spets.tabledata import data_dir


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestUch:
    def test_cyclic_bit_exact(self, capsys):
        code, out = run(capsys, "uch", "--cyclic", "3")
        assert code == 0
        assert out == (data_dir() / "uch_z3_rho.txt").read_text()

    def test_group(self, capsys):
        code, out = run(capsys, "uch", "G4")
        assert code == 0
        assert "phi_{1,0}" in out and "G_4" in out

    def test_builds_the_group_once(self, capsys, monkeypatch):
        calls = []

        def record(*args, _f=reflection.build_group):
            calls.append(args)
            return _f(*args)
        # the CLI imports per subcommand, so the module attribute is what it reads
        for mod in (reflection, tabledata):
            monkeypatch.setattr(mod, "build_group", record)
        code, _ = run(capsys, "uch", "G4")
        assert code == 0
        assert calls == [("G4",)]


class TestAnalyze:
    def test_g4(self, capsys):
        code, out = run(capsys, "analyze", "G4")
        assert code == 0
        assert "order 24" in out
        assert "x^14 - x^10 - x^8 + x^4" in out


class TestSchur:
    def test_cyclic(self, capsys):
        code, out = run(capsys, "schur", "--cyclic", "2",
                        "--params", "x^3,-1")
        assert code == 0
        assert out == "S_0 = x^3 + 1\nS_1 = 1 + x^-3\n"

    def test_params_with_root_literals(self, capsys):
        # (x - E(3,1)) (x - E(3,2)) = x^2 + x + 1
        code, out = run(capsys, "schur", "--cyclic", "3",
                        "--params", "x,E(3,1),E(3,2)")
        assert code == 0
        assert out.splitlines()[0] == "S_0 = x^2 + x + 1"

    def test_malformed_params_exit_2(self, capsys):
        code = main(["schur", "--cyclic", "2", "--params", "x,E(3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("schur: ")


class TestSeries:
    def test_g4_zeta4(self, capsys):
        code, out = run(capsys, "series", "G4", "--zeta", "4/1")
        assert code == 0
        assert "H_{Z_4}((E(4,1))*x^3, (E(4,1)), (E(4,1))*x, (-E(4,1)))" in out


class TestVerify:
    def test_g4_against_reference(self, capsys):
        ref = str(data_dir() / "uch_g4.txt")
        code, out = run(capsys, "verify", "G4", "--ref", ref)
        assert code == 0

    def test_builds_the_group_and_its_table_once(self, capsys, monkeypatch):
        calls = []
        for mod in (cli, tabledata):
            for fn in ("build_group", "char_table"):
                if hasattr(mod, fn):
                    def record(*args, _f=getattr(mod, fn), _n=fn):
                        calls.append(_n)
                        return _f(*args)
                    monkeypatch.setattr(mod, fn, record)
        code, _ = run(capsys, "verify", "G4", "--ref", str(data_dir() / "uch_g4.txt"))
        assert code == 0
        assert sorted(calls) == ["build_group", "char_table"]

    def test_mismatch_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        text = (data_dir() / "uch_g4.txt").read_text()
        bad.write_text(text.replace("(1/3-1/3*E(3,1))*x^5 + x^3",
                                    "(1/3-1/3*E(3,1))*x^5 + x^2", 1))
        code, out = run(capsys, "verify", "G4", "--ref", str(bad))
        assert code == 1


class TestFactors:
    def test_sqrt3(self, capsys):
        code, out = run(capsys, "factors", "12", "--field", "Q(sqrt3)")
        assert code == 0
        assert "x^2" in out and "Phi_12" in out


class TestErrors:
    @pytest.mark.parametrize("argv", [
        ["series", "G4", "--zeta", "2/1"],    # the centralizer is not cyclic
        ["series", "G4", "--zeta", "x"],
        ["analyze", "Foo"],
        ["factors", "12", "--field", "Q(foo)"],
        ["uch", "--cyclic", "0"],
        ["factors", "0", "--field", "Q"],
        ["factors", "-3", "--field", "Q"],
        ["verify", "Z_3000"],                 # past the enumeration bound
        ["analyze", "Z_0"],
        ["verify", "Z_0"],
        ["uch", "--cyclic", "3000"],          # past the cyclic table bound
    ])
    def test_error_exits_2(self, capsys, monkeypatch, argv):
        # a cyclic table past the bound must be refused before its e^3 work,
        # whose first step takes a root of unity of order e
        def bounded_root(n, k=1, _f=uch.zeta_root):
            assert n <= uch.MAX_CYCLIC_ORDER, "cyclic table work started"
            return _f(n, k)
        monkeypatch.setattr(uch, "zeta_root", bounded_root)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"{argv[0]}: ")

    def test_verify_z0_message(self, capsys):
        assert main(["verify", "Z_0"]) == 2
        assert capsys.readouterr().err == "verify: cyclic order must be positive\n"

    def test_missing_reference_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        code = main(["verify", "G4", "--ref", str(missing)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("verify: ")
        assert str(missing) in captured.err


class TestColdImports:
    """A fresh interpreter loads only the layers a subcommand calls, and no
    module generates code at import (``dataclasses`` and ``inspect`` do)."""

    @staticmethod
    def loaded(*argv):
        script = "import sys, spets.cli\n"
        if argv:
            script += "spets.cli.main(sys.argv[1:])\n"
        script += "print(*sorted(sys.modules), file=sys.stderr)\n"
        env = dict(os.environ, PYTHONPATH=str(Path(spets.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, check=True)
        return set(proc.stderr.split())

    @staticmethod
    def layers(modules):
        return {m for m in modules if m.partition(".")[0] == "spets"}

    def test_import_loads_only_the_core(self):
        modules = self.loaded()
        assert "dataclasses" not in modules and "inspect" not in modules
        assert self.layers(modules) == {"spets", "spets.cyclotomic", "spets.cli"}

    def test_factors_loads_cyclotomic_and_laurent(self):
        modules = self.loaded("factors", "24", "--field", "Q(sqrt-2,zeta3)")
        assert self.layers(modules) == {"spets", "spets.cyclotomic", "spets.cli",
                                        "spets.laurent"}

    def test_analyze_loads_no_table_layers(self):
        layers = self.layers(self.loaded("analyze", "G4"))
        assert not layers & {"spets.hecke", "spets.uch", "spets.tabledata"}

    def test_verify_loads_every_layer_without_dataclasses(self):
        modules = self.loaded("verify", "G4")
        assert "spets.tabledata" in modules
        assert "dataclasses" not in modules and "inspect" not in modules
