"""Exact character tables for the built-in rank-two groups.

Constructed directly from the matrix groups: determinant powers and the
natural representation for the primitive group, torus characters and their
inductions for the imprimitive wreath group.  Row names follow the usual
conventions: ``phi_{d,b}`` (dimension and fake-degree valuation) for the
primitive group, multipartition strings for the wreath group.
"""

from __future__ import annotations

from .cyclotomic import Cyclo, zeta
from .orders import CharTable, cyclic_char_table
from .reflection import ReflectionCoset, _orbit_key

__all__ = ["char_table", "feg_map"]


def char_table(G: ReflectionCoset) -> CharTable:
    """Character table of a built-in group, verified for orthogonality."""
    if G.name.startswith("Z_"):
        return cyclic_char_table(G)
    if G.name == "G4":
        table = _table_g4(G)
    elif G.name == "G(3,1,2)":
        table = _table_g312(G)
    else:
        raise ValueError(f"no character table construction for {G.name!r}")
    table.verify_orthogonality()
    return table


def feg_map(table: CharTable) -> dict[str, "LaurentPoly"]:
    return dict(table.fake_degrees)


def _table_g4(G: ReflectionCoset) -> CharTable:
    # each class's eigenvalues (a, b) give det ab, trace a + b and the
    # symmetric square a^2 + ab + b^2
    eigs = [c.eigenvalues for c in G.classes]
    dets = [a * b for a, b in eigs]
    traces = [a + b for a, b in eigs]
    sym2 = [a * a + a * b + b * b for a, b in eigs]
    rows: list[tuple[int, tuple[Cyclo, ...]]] = []
    for k in range(3):
        rows.append((1, tuple(d ** k for d in dets)))
        rows.append((2, tuple(t * d ** k for t, d in zip(traces, dets))))
    rows.append((3, tuple(sym2)))
    # name each row phi_{d,b} by its dimension and fake-degree valuation; the
    # named table keeps the fake degrees computed for the names
    raw = CharTable(G, tuple(str(i) for i in range(len(rows))),
                    {str(i): vals for i, (_, vals) in enumerate(rows)})
    named = {f"phi_{{{dim},{raw.fake_degrees[k].valuation()}}}": k
             for k, (dim, _) in zip(raw.names, rows)}
    order = sorted(named, key=_phi_key)
    table = CharTable(G, tuple(order), {n: raw.values[named[n]] for n in order})
    # fills the cached_property, as its first read would
    object.__setattr__(table, "fake_degrees", {n: raw.fake_degrees[named[n]] for n in order})
    return table


def _phi_key(name: str) -> tuple[int, int]:
    d, b = name[5:-1].split(",")
    return int(b), int(d)


def _monomial(G: ReflectionCoset, i: int) -> tuple[bool, int, int, int]:
    """(is_diagonal, exponent sum, diag exponent 0, diag exponent 1) of element i
    of G(3,1,2), a monomial matrix of powers of zeta_3, read off its orbit keys
    at N = 3: a row with zeta_3^a in column j is the ``_orbit_key`` of zeta_3^a e_j,
    its coordinate zeta_3^a on the Zumbroich basis (1 is {1: -1, 2: -1})."""
    N = G._N
    cells = {_orbit_key(N, 1, [{a: 1} if k == j else {} for k in range(2)]): (j, a)
             for j in range(2) for a in range(N)}
    (j0, a0), (_, a1) = [cells[row] for row in G._lift(i)]
    return j0 == 0, (a0 + a1) % 3, a0, a1


def _table_g312(G: ReflectionCoset) -> CharTable:
    data = [_monomial(G, c.rep_index) for c in G.classes]
    names: list[str] = []
    values: dict[str, tuple[Cyclo, ...]] = {}

    def put(name, vals):
        names.append(name)
        values[name] = tuple(vals)

    for c in range(3):
        for eps in range(2):
            put(_mp_name_linear(c, eps),
                [zeta(3, c * s) * Cyclo.rational((-1) ** (eps * (0 if diag else 1)))
                 for diag, s, _, _ in data])
    for alpha, beta in ((0, 1), (0, 2), (1, 2)):
        vals = []
        for diag, _, a, b in data:
            if not diag:
                vals.append(Cyclo.rational(0))
            else:
                vals.append(zeta(3, alpha * a + beta * b) + zeta(3, alpha * b + beta * a))
        put(_mp_name_pair(alpha, beta), vals)
    return CharTable(G, tuple(names), values)


def _mp_name_linear(c: int, eps: int) -> str:
    slots = ["", "", ""]
    slots[c] = "11" if eps else "2"
    return ".".join(slots)


def _mp_name_pair(alpha: int, beta: int) -> str:
    slots = ["", "", ""]
    slots[alpha] = "1"
    slots[beta] = "1"
    return ".".join(slots)
