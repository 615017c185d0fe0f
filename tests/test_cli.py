"""Command-line entry points."""

import os
import subprocess
import sys
import time
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

    def test_large_cyclic_group_is_bounded(self, capsys):
        # each class's order is read off its 1 x 1 entry and the degrees off
        # the fixed-space count, so Z_300 takes well under the bound
        start = time.perf_counter()
        code, out = run(capsys, "analyze", "Z_300")
        assert time.perf_counter() - start < 1.5
        assert code == 0
        assert "order 300\n" in out and "degrees (300,1)\n" in out

    def test_huge_cyclic_group_is_refused_first(self, capsys):
        # past MAX_GROUP_ORDER the group is refused before zeta(e) builds an
        # O(e) basis, which took 5 s and 525 MB for this e
        start = time.perf_counter()
        code = main(["analyze", "Z_4194304"])
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert capsys.readouterr().err == "analyze: group enumeration exceeded bound\n"


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

    def test_signed_bare_fractional_power(self, capsys):
        # (u_1 - u_0)/u_1 = 2 for u = x^(1/2), -x^(1/2)
        code, out = run(capsys, "schur", "--cyclic", "2",
                        "--params", "x^(1/2),-x^(1/2)")
        assert code == 0
        assert out == "S_0 = 2\nS_1 = 2\n"

    def test_fractional_exponents_use_the_polynomial_grammar(self, capsys):
        # decreasing exponents, and " - " before a negative term
        code, out = run(capsys, "schur", "--cyclic", "4",
                        "--params", "1,E(4,1)*x^(1/2),x,E(4,3)*x^(1/2)")
        assert code == 0
        assert out == ("S_0 = 1 - x^-2\n"
                       "S_1 = (-2*E(4,1))*x^(1/2) + (-2*E(4,1))*x^(-1/2)\n"
                       "S_2 = -x^2 + 1\n"
                       "S_3 = (2*E(4,1))*x^(1/2) + (2*E(4,1))*x^(-1/2)\n")

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

    def test_root_of_unity_past_the_group_order_is_refused_first(self, capsys):
        # an eigenvalue's order divides |G|, so E(4194304,1) is refused before
        # zeta builds its O(d) basis (2 s and 526 MB); the rest is G4's table
        start = time.perf_counter()
        code = main(["series", "G4", "--zeta", "4194304/1"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert capsys.readouterr().err == "series: E(4194304,1) is not an eigenvalue of G4\n"

    def test_reduced_order_is_compared(self, capsys):
        # E(4,2) = -1 is an eigenvalue of Z_2 though 4 > |Z_2|
        code, out = run(capsys, "series", "Z_2", "--zeta", "4/2")
        assert code == 0
        assert out.splitlines()[1:] == ["chi_0 -> 1 (eps +1, fr 1)",
                                        "chi_1 -> rho_{1,0} (eps -1, fr 1)"]


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

    def test_decides_each_cyclic_centralizer_once(self, capsys, monkeypatch):
        # the pipeline's determinations and the verifier's counting check ask
        # the same group the same question; it is computed once per zeta
        asked, computed = [], []
        cls = reflection.ReflectionCoset

        def ask(self, w, z, _f=cls.cyclic_centralizer_order):
            asked.append(z)
            return _f(self, w, z)

        def compute(self, w, z, _f=cls._cyclic_centralizer_order):
            computed.append(z)
            return _f(self, w, z)
        monkeypatch.setattr(cls, "cyclic_centralizer_order", ask)
        monkeypatch.setattr(cls, "_cyclic_centralizer_order", compute)
        code, _ = run(capsys, "verify", "G4", "--ref", str(data_dir() / "uch_g4.txt"))
        assert code == 0
        assert len(asked) > len(set(asked))
        assert sorted(computed, key=repr) == sorted(set(asked), key=repr)

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

    def test_phi_1000_over_q_is_read_off_its_coefficients(self, capsys):
        # Phi_1000 = Phi_10(x^100); multiplying out its 400 linear factors
        # over Q(zeta_1000) took 26 s
        start = time.perf_counter()
        code, out = run(capsys, "factors", "1000", "--field", "Q")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert out.endswith("] = x^400 - x^300 + x^200 - x^100 + 1\n")
        assert out.count("\n") == 1

    def test_order_past_the_literal_bound_is_refused(self, capsys):
        # Phi_1920 over Q took 93 s; the bound is MAX_LITERAL_ORDER on
        # lcm(d, conductor), here reached through the field
        start = time.perf_counter()
        for argv, n in ((["factors", "1920", "--field", "Q"], "lcm(1920, 1) = 1920"),
                        (["factors", "3", "--field", "Q(zeta1024)"], "lcm(3, 1024) = 3072")):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"factors: root of unity order {n} outside 1..1000\n"
        assert time.perf_counter() - start < 0.5


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

    @pytest.mark.parametrize("argv, message", [
        (["series", "G4", "--zeta", "0/1"], "series: root of unity order must be positive, got 0"),
        (["factors", "24", "--field", "0"], "factors: field conductor must be positive, got 0"),
        (["factors", "24", "--field", "Q(zeta0)"],
         "factors: field conductor must be positive, got 0"),
        (["series", "G4", "--zeta", "5/1"], "series: E(5,1) is not an eigenvalue of G4"),
        (["series", "G4", "--zeta", "12/7"], "series: E(12,7) is not an eigenvalue of G4"),
    ])
    def test_message(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n")

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
