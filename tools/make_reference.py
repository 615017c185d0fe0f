#!/usr/bin/env python3
"""Generate the shipped reference data files from transcribed golden tables.

Degrees, Frobenius eigenvalues, family blocks and markers are hard-coded in
factored form; Schur-element files are derived from the principal-series
degrees via S = Feg / Deg.  Output goes to src/spets/data/.
"""

from pathlib import Path

from spets.chartables import char_table
from spets.cyclotomic import Cyclo, CycloField, zeta
from spets.laurent import FracExpMonomial, LaurentPoly, k_cyclotomic_factors
from spets.orders import fake_degree_torus
from spets.reflection import build_group
from spets.tabledata import emit_uch
from spets.uch import Family, UchTable, UnipotentCharacter, cyclic_uch

OUT = Path(__file__).resolve().parent.parent / "src" / "spets" / "data"

Q = CycloField.rationals()
QI = CycloField.cyclotomic(4)
QZ3 = CycloField.cyclotomic(3)

x = LaurentPoly.x()
one = Cyclo.rational(1)
z3 = zeta(3)
i4 = zeta(4)
s3 = z3 - z3 ** 2  # a square root of -3


def phi(n):
    return k_cyclotomic_factors(n, Q)[0].poly


def phik(n, k, field):
    return k_cyclotomic_factors(n, field)[k].poly


def mono(c):
    return FracExpMonomial.of(c)


def row(name, deg, fr, marker=""):
    return UnipotentCharacter(name, deg, mono(fr), marker=marker)


def table(group, blocks):
    rows, fams = [], []
    for idx, members in enumerate(blocks):
        names = [r.name for r in members]
        a = members[0].degree.valuation()
        big = members[0].degree.degree()
        special = next((r.name for r in members if r.marker == "*"), None)
        cosp = next((r.name for r in members if r.marker == "#"), special)
        fams.append(Family(idx, names, a, big, special, cosp))
        for r in members:
            r.family = idx
            rows.append(r)
    return UchTable(group, rows, fams)


def rho_named_z3():
    z = z3
    deg1 = LaurentPoly.one()
    d10 = (x * (x - z ** 2)) * (one - z ** 2).inverse()
    d20 = (x * (x - z)) * (one - z).inverse()
    d21 = (x * (x - 1)) * (z * (one - z ** 2).inverse())
    return table("Z_3", [
        [row("1", deg1, 1, "*")],
        [row("rho_{1,0}", d10, 1, "*"),
         row("rho_{2,0}", d20, 1, "#"),
         row("rho_{2,1}", d21, z ** 2)],
    ])


def reference_z3():
    p3p = phik(3, 0, QZ3)   # x - zeta3
    p3pp = phik(3, 1, QZ3)  # x - zeta3^2
    return table("Z_3", [
        [row("1", LaurentPoly.one(), 1, "*")],
        [row("Z_3", (x * phi(1)) * (s3 / 3), z3 ** 2),
         row("zeta3^2", (x * p3p) * ((3 + s3) / Cyclo.rational(6)), 1, "#"),
         row("zeta3", (x * p3pp) * ((3 - s3) / Cyclo.rational(6)), 1, "*")],
    ])


def reference_z4():
    p4p = phik(4, 0, QI)   # x - i
    p4pp = phik(4, 1, QI)  # x + i
    quarter = Cyclo.rational(1) / 4
    return table("Z_4", [
        [row("1", LaurentPoly.one(), 1, "*")],
        [row("-1", (x * phi(4)) / 2, 1),
         row("i", (x * phi(2) * p4pp) * ((1 - i4) * quarter), 1, "*"),
         row("Z_4^{1022}", (x * phi(1) * p4p) * ((1 - i4) * quarter), -one),
         row("Z_4^{0212}", (x * phi(1) * phi(2)) * (i4 / 2), -i4),
         row("-i", (x * phi(2) * p4p) * ((1 + i4) * quarter), 1, "#"),
         row("Z_4^{1220}", (x * phi(1) * p4pp) * ((-1 - i4) * quarter), -one)],
    ])


def reference_g4():
    p3p, p3pp = phik(3, 0, QZ3), phik(3, 1, QZ3)
    p6p, p6pp = phik(6, 0, QZ3), phik(6, 1, QZ3)
    x4 = LaurentPoly.x(4)
    sixth = Cyclo.rational(1) / 6
    return table("G4", [
        [row("phi_{1,0}", LaurentPoly.one(), 1, "*")],
        [row("phi_{2,1}", (x * p3p * phi(4) * p6pp) * ((3 - s3) * sixth), 1, "*"),
         row("phi_{2,3}", (x * p3pp * phi(4) * p6p) * ((3 + s3) * sixth), 1, "#"),
         row("Z_3:2", (x * phi(1) * phi(2) * phi(4)) * (s3 / 3), z3 ** 2)],
        [row("phi_{3,2}", LaurentPoly.x(2) * phi(3) * phi(6), 1, "*")],
        [row("phi_{1,4}", (x4 * p3pp * phi(4) * p6pp) * (-s3 * sixth), 1, "*"),
         row("phi_{2,5}", (x4 * phi(2) * phi(2) * phi(6)) / 2, 1),
         row("G_4", (x4 * phi(1) * phi(1) * phi(3)) / 2, -one),
         row("Z_3:11", (x4 * phi(1) * phi(2) * phi(4)) * (s3 / 3), z3 ** 2),
         row("phi_{1,8}", (x4 * p3p * phi(4) * p6p) * (s3 * sixth), 1, "#")],
    ])


def reference_g312():
    p3p, p3pp = phik(3, 0, QZ3), phik(3, 1, QZ3)
    p6p, p6pp = phik(6, 0, QZ3), phik(6, 1, QZ3)
    x5 = LaurentPoly.x(5)
    third = Cyclo.rational(1) / 3
    sixth = Cyclo.rational(1) / 6
    return table("G(3,1,2)", [
        [row("11..", (x * phi(3) * phi(6)) * third, 1),
         row("Z_3:zeta3^2", (x * phi(1) * phi(2) * p3p * p6pp) * (-z3 ** 2 * third),
             z3 ** 2),
         row("Z_3:zeta3", (x * phi(1) * phi(2) * p3pp * p6p) * (z3 * third),
             z3 ** 2),
         row("..2", (x * p3p * p3p * phi(6)) * (-z3 ** 2 * third), 1),
         row("G_{3,1,2}^{130}", (x * phi(1) * phi(1) * phi(2) * p6pp) * (-z3 * third),
             z3),
         row("1..1", (x * phi(2) * p3pp * p3pp * p6p) * third, 1, "#"),
         row(".2.", (x * p3pp * p3pp * phi(6)) * (-z3 * third), 1),
         row("1.1.", (x * phi(2) * p3p * p3p * p6pp) * third, 1, "*"),
         row("G_{3,1,2}^{103}", (x * phi(1) * phi(1) * phi(2) * p6p) * (-z3 ** 2 * third),
             z3)],
        [row(".1.1", LaurentPoly.x(3) * phi(2) * phi(6), 1, "*")],
        [row("2..", LaurentPoly.one(), 1, "*")],
        [row("Z_3:1", (x5 * phi(1) * phi(2)) * (s3 / 3), z3 ** 2),
         row("..11", (x5 * p3pp * p6p) * ((3 + s3) * sixth), 1, "#"),
         row(".11.", (x5 * p3p * p6pp) * ((3 - s3) * sixth), 1, "*")],
    ])


def schur_file(group, ref_table, principal_names):
    G = build_group(group)
    T = char_table(G)
    feg = fake_degree_torus(G, 0)
    lines = []
    for name in T.names:
        deg = ref_table.row(name).degree if name in principal_names else None
        assert deg is not None, name
        s = feg.exact_div(deg)
        lines.append(f"{name} | {s.serialize()} | {T.degree(name)}")
    return "\n".join(lines) + "\n"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    files = {
        "uch_z3_rho.txt": emit_uch(rho_named_z3()),
        "uch_z3.txt": emit_uch(reference_z3()),
        "uch_z4.txt": emit_uch(reference_z4()),
        "uch_g4.txt": emit_uch(reference_g4()),
        "uch_g312.txt": emit_uch(reference_g312()),
        "schur_g4.txt": schur_file(
            "G4", reference_g4(),
            {f"phi_{{{d},{b}}}" for d, b in
             ((1, 0), (2, 1), (2, 3), (3, 2), (1, 4), (2, 5), (1, 8))}),
        "schur_g312.txt": schur_file(
            "G(3,1,2)", reference_g312(),
            {"2..", "11..", ".2.", ".11.", "..2", "..11", "1.1.", "1..1", ".1.1"}),
    }
    # sanity: the computed cyclic table round-trips against the rho-named file
    assert emit_uch(cyclic_uch(3)) == files["uch_z3_rho.txt"]
    for fn, text in files.items():
        (OUT / fn).write_text(text, encoding="utf-8")
        print(f"wrote {fn} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
