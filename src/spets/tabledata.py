"""Table file formats, reference-data access and the construction pipelines.

The canonical table file is plain UTF-8 text::

    group Z_3
    conductor 3
    order x^4 + ...
    family 0 a=0 A=0
    1 | 1 | 1 | special
    family 1 a=1 A=2
    rho_{1,0} | ... | 1 | special
    ...

Rows are ``name | degree | fr | marker`` with the polynomial and monomial
grammars of the core modules; ``fr`` is ``?`` when undetermined and the
marker is one of ``special``, ``cospecial``, ``none``.  The reference data
directory is resolved through the ``SPETS_DATA`` environment variable with
the packaged data as default.
"""

from __future__ import annotations

import os
import re
from functools import cache
from pathlib import Path

from .chartables import char_table, feg_map
from .cyclotomic import zeta
from .hecke import CyclicHeckeParams
from .laurent import FracExpMonomial, LaurentPoly
from .orders import order_poly
from .reflection import ReflectionCoset, SubCoset, build_group
from .uch import (Family, SeriesDetermination, SignedDegreeIndex, UchTable,
                  UnipotentCharacter, _cyclic_feg_map, assign_families, cyclic_uch,
                  determine_parameters, ennola_transform, hc_series,
                  principal_series)

__all__ = [
    "data_dir",
    "parse_uch",
    "emit_uch",
    "diff_tables",
    "TableDiff",
    "is_spetsial",
    "load_schur_data",
    "load_reference",
    "construct_uch",
]

_DEFAULT_DATA = Path(__file__).parent / "data"


def data_dir() -> Path:
    return Path(os.environ.get("SPETS_DATA", str(_DEFAULT_DATA)))


# -- the table file format ---------------------------------------------------------


def emit_uch(table: UchTable, G: ReflectionCoset | None = None) -> str:
    """Canonical text for a table whose group is a builtin.

    ``G`` is that group, when the caller has already built it.
    """
    if not table.rows:
        raise ValueError("cannot emit an empty table")
    if G is None:
        G = build_group(table.group)
    lines = [f"group {table.group}",
             f"conductor {G.field.conductor}",
             f"order {order_poly(G).serialize()}"]
    families = table.families or [Family(0, table.names(),
                                         min(r.a_val for r in table.rows),
                                         max(r.big_a for r in table.rows))]
    for fam in families:
        lines.append(f"family {fam.index} a={fam.a} A={fam.A}")
        for name in fam.members:
            row = table.row(name)
            fr = row.fr.serialize() if row.fr is not None else "?"
            if name == fam.special:
                marker = "special"
            elif name == fam.cospecial:
                marker = "cospecial"
            else:
                marker = "none"
            lines.append(f"{name} | {row.degree.serialize()} | {fr} | {marker}")
    return "\n".join(lines) + "\n"


def parse_uch(text: str) -> UchTable:
    """Parse the canonical table format; inverse of :func:`emit_uch`."""
    lines = text.splitlines()
    for lineno, key in enumerate(("group ", "conductor ", "order "), start=1):
        if len(lines) < lineno or not lines[lineno - 1].startswith(key):
            raise ValueError(f"line {lineno}: malformed table file: missing {key.strip()} header")
    group = lines[0][6:].strip()
    rows: list[UnipotentCharacter] = []
    families: list[Family] = []
    family_lines: list[int] = []  # the header line of each family
    current: Family | None = None
    for lineno, line in enumerate(lines[3:], start=4):
        if not line.strip():
            continue
        m = re.fullmatch(r"family (\d+) a=(-?\d+) A=(-?\d+)", line.strip())
        if m:
            current = Family(int(m.group(1)), [], int(m.group(2)), int(m.group(3)))
            families.append(current)
            family_lines.append(lineno)
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 4 '|'-separated fields")
        if current is None:
            raise ValueError(f"line {lineno}: row before any family header")
        name, deg_s, fr_s, marker = parts
        try:
            deg = LaurentPoly.parse(deg_s)
            fr = None if fr_s == "?" else FracExpMonomial.parse(fr_s)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if marker not in ("special", "cospecial", "none"):
            raise ValueError(f"line {lineno}: unknown marker {marker!r}")
        row = UnipotentCharacter(name, deg, fr, family=current.index,
                                 marker={"special": "*", "cospecial": "#",
                                         "none": ""}[marker])
        if marker == "special":
            current.special = name
        if marker == "cospecial":
            current.cospecial = name
        current.members.append(name)
        rows.append(row)
    for fam, fam_line in zip(families, family_lines):
        if fam.special is None:
            raise ValueError(f"line {fam_line}: family {fam.index} lacks a special member")
        if fam.cospecial is None:
            fam.cospecial = fam.special
    if not rows:
        raise ValueError(f"line {len(lines) + 1}: empty table: no row after the header")
    return UchTable(group, rows, families)


def load_reference(name: str) -> UchTable:
    path = data_dir() / name
    return parse_uch(path.read_text(encoding="utf-8"))


# -- structured diff ---------------------------------------------------------------


class TableDiff:
    def __init__(self):
        self.mismatches: list[str] = []
        self.renames: list[tuple[str, str]] = []

    @property
    def empty(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.empty and not self.renames:
            return "tables identical"
        out = [f"MISMATCH {m}" for m in self.mismatches]
        out.extend(f"renamed {a} -> {b}" for a, b in self.renames)
        return "\n".join(out)


def diff_tables(a: UchTable, b: UchTable) -> TableDiff:
    """Match rows by degree and Fr; report sign flips, renames, families.

    Rows whose sign is unresolved on either side are matched up to sign
    silently; a sign flip between two resolved rows is a mismatch entry.
    """
    diff = TableDiff()
    pair: dict[str, str] = {}
    used: set[str] = set()
    index = SignedDegreeIndex(r.degree for r in b.rows)

    def find(row, sign: int):
        for i, s in index.get(row.degree, ()):
            cand = b.rows[i]
            if s != sign or cand.name in used:
                continue
            if row.fr is not None and cand.fr is not None and row.fr != cand.fr:
                continue
            return cand
        return None

    ordered = sorted(a.rows, key=lambda r: not r.sign_resolved)
    for row in ordered:
        cand = find(row, 1)
        flip = False
        if cand is None and not row.sign_resolved:
            cand = find(row, -1)
        if cand is None:
            other = find(row, -1)
            if other is not None and not other.sign_resolved:
                cand = other
            elif other is not None:
                cand = other
                flip = True
        if cand is None:
            diff.mismatches.append(f"unmatched row {row.name} in first table")
            continue
        used.add(cand.name)
        pair[row.name] = cand.name
        if flip:
            diff.mismatches.append(f"sign-only difference on {row.name}")
        if row.name != cand.name:
            diff.renames.append((row.name, cand.name))
    for cand in b.rows:
        if cand.name not in used:
            diff.mismatches.append(f"unmatched row {cand.name} in second table")
    # family structure on matched rows
    if a.families and b.families:
        fam_a = {r.name: r.family for r in a.rows}
        fam_b = {r.name: r.family for r in b.rows}
        blocks_a: dict[int, set[str]] = {}
        for n, f in fam_a.items():
            if n in pair:
                blocks_a.setdefault(f, set()).add(pair[n])
        blocks_b: dict[int, set[str]] = {}
        for n, f in fam_b.items():
            if n in used:
                blocks_b.setdefault(f, set()).add(n)
        if sorted(map(sorted, blocks_a.values())) != sorted(map(sorted, blocks_b.values())):
            diff.mismatches.append("family partitions differ")
        else:
            for fa, names in blocks_a.items():
                fb = fam_b[next(iter(names))]
                sp_a = next(f for f in a.families if f.index == fa).special
                sp_b = next(f for f in b.families if f.index == fb).special
                if sp_a in pair and pair[sp_a] != sp_b:
                    diff.mismatches.append(
                        f"special member differs in family {fa}")
    return diff


# -- the spetsial classification ------------------------------------------------------


# well-generated exceptionals generated by involutive reflections,
# plus the listed extra spetsial exceptionals
_SPETSIAL_GN = {23, 24, 27, 28, 29, 30, 33, 34, 35, 36, 37} | {4, 6, 8, 14,
                                                               25, 26, 32}


def is_spetsial(name: str) -> bool:
    """Whether a group is in the spetsial classification list.

    Covers ``G(d,1,r)``, ``G(e,e,r)``, the well-generated genuine-reflection
    exceptional groups, and G4, G6, G8, G14, G25, G26, G32.
    """
    key = name.replace(" ", "")
    m = re.fullmatch(r"Z_?(\d+)", key)
    if m:
        return True  # Z_e = G(e,1,1)
    m = re.fullmatch(r"G\((\d+),(\d+),(\d+)\)", key)
    if m:
        d, e, r = map(int, m.groups())
        return e == 1 or d == e
    m = re.fullmatch(r"G_?(\d+)", key)
    if m:
        n = int(m.group(1))
        if not 4 <= n <= 37:
            raise ValueError(f"unknown exceptional group: {name!r}")
        return n in _SPETSIAL_GN
    raise ValueError(f"cannot identify group {name!r}")


# -- Schur reference data --------------------------------------------------------------


def load_schur_data(filename: str) -> list[tuple[str, LaurentPoly, int]]:
    """Rows ``name | Schur element | character degree`` from a data file."""
    out = []
    path = data_dir() / filename
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, poly_s, dim_s = (p.strip() for p in line.split("|"))
            out.append((name, LaurentPoly.parse(poly_s), int(dim_s)))
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from exc
    return out


# -- construction pipelines -------------------------------------------------------------


class HCDatum:
    """A 1-cuspidal pair with cyclic relative algebra; ``levi_gen`` is the
    index of the generating reflection of W_L."""

    def __init__(self, cusp_name: str, levi_gen: int, deg_lambda: LaurentPoly,
                 fr_lambda: FracExpMonomial, rel_params: CyclicHeckeParams,
                 rel_names: tuple[str, ...]):
        self.__dict__.update(cusp_name=cusp_name, levi_gen=levi_gen,
                             deg_lambda=deg_lambda, fr_lambda=fr_lambda,
                             rel_params=rel_params, rel_names=rel_names)

    def __setattr__(self, *a):
        raise AttributeError("HCDatum is immutable")


class PipelineResult:
    def __init__(self, table: UchTable, specs: dict[tuple[int, int], SeriesDetermination],
                 group: ReflectionCoset, fegs: dict[str, LaurentPoly]):
        self.table = table
        self.specs = specs
        self.group = group
        self.fegs = fegs  # principal-series fake degrees by row name


def _levi_order(G: ReflectionCoset, gen_index: int) -> LaurentPoly:
    elems = G.powers(G.gens[gen_index])
    sub = SubCoset(G, tuple(elems), 0, len(elems))
    return order_poly(sub, "compact")


def _z3_hc(rel_params: list[str], rel_names: tuple[str, ...]) -> HCDatum:
    """The cuspidal character of Z_3, degree sqrt(-3)/3 * x(x - 1), on the
    Levi of the first generator, with the given relative algebra."""
    x = LaurentPoly.x()
    return HCDatum(
        cusp_name="Z_3", levi_gen=0,
        deg_lambda=(x * (x - 1)) * ((zeta(3) - zeta(3, 2)) / 3),
        fr_lambda=FracExpMonomial.of(zeta(3, 2)),
        rel_params=CyclicHeckeParams.of(rel_params), rel_names=rel_names)


@cache
def _g4_hc() -> HCDatum:
    return _z3_hc(["x^3", "-1"], ("2", "11"))


@cache
def _g312_hc() -> HCDatum:
    return _z3_hc(["1", "(E(3,1))*x^2", "(E(3,2))*x^2"], ("1", "zeta3", "zeta3^2"))


# Harish-Chandra data are built on first use, Ennola roots E(d, a) are (d, a)
_PIPELINES: dict[str, dict] = {
    "G4": dict(
        schur_file="schur_g4.txt",
        hc=[_g4_hc],
        ennola=[(2, 1)],
        cuspidal_names=["G_4"],
        zeta_series=[(4, 1), (3, 1)],
    ),
    "G(3,1,2)": dict(
        schur_file="schur_g312.txt",
        hc=[_g312_hc],
        ennola=[(3, 1)],
        cuspidal_names=["G_{3,1,2}^{103}", "G_{3,1,2}^{130}"],
        zeta_series=[(6, 1), (6, 5), (2, 1)],
    ),
}


def construct_uch(name: str) -> PipelineResult:
    """Run the full construction pipeline for a builtin group.

    Stages: principal series from ingested Schur data; Harish-Chandra series
    above the shipped cuspidal data; Ennola closure under the center (new
    degrees become cuspidal characters); parameter determination of the
    regular eigenvalue series, fixing Frobenius eigenvalues; family
    partition.  The group is built first, so a name past the enumeration
    bound fails before any table work; the result hands the group and the
    principal-series fake degrees on to the verifier.
    """
    G = build_group(name)
    if G.name.startswith("Z_"):
        return PipelineResult(cyclic_uch(G.order), {}, G, _cyclic_feg_map(G.order))
    if G.name not in _PIPELINES:
        raise ValueError(f"no construction pipeline for {name!r}")
    cfg = _PIPELINES[G.name]
    fm = feg_map(char_table(G))

    rows = principal_series(G, 0,
                            schur_data=load_schur_data(cfg["schur_file"]))
    table = UchTable(G.name, rows)

    for make_datum in cfg["hc"]:
        datum = make_datum()
        table.rows.extend(hc_series(
            G, _levi_order(G, datum.levi_gen), datum.deg_lambda,
            datum.fr_lambda, datum.cusp_name, datum.rel_params,
            datum.rel_names))

    names = iter(cfg["cuspidal_names"])
    for d, a in cfg["ennola"]:
        table = ennola_transform(table, zeta(d, a), names).table

    specs: dict[tuple[int, int], SeriesDetermination] = {}
    for d, a in cfg["zeta_series"]:
        det = determine_parameters(G, zeta(d, a), table)
        specs[(d, a)] = det
        for j, rname in det.assignment.items():
            fr = det.frs[j]
            if rname is None or fr is None:
                continue
            row = table.row(rname)
            if row.fr is not None and row.fr != fr:
                raise ArithmeticError(
                    f"inconsistent Frobenius eigenvalue for {rname}")
            row.fr = fr

    assign_families(table, fm)
    return PipelineResult(table, specs, G, fm)
