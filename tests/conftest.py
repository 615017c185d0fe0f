import weakref
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

import pytest

from spets.chartables import char_table, feg_map
from spets.cyclotomic import _PACK_PHI, Cyclo, CycloField, _slot_bits, totient, zeta
from spets.laurent import LaurentPoly
from spets.orders import fake_degree_torus, reversal
from spets.reflection import ReflectionCoset, _charpoly, _lift_rows, build_group
from spets.tabledata import construct_uch

# The built-in groups every oracle test runs on.
ORACLE_GROUPS = ("G4", "G(3,1,2)") + tuple(f"Z_{e}" for e in range(1, 13))


def dot(u, v):
    """sum(a * b) over the pairs of u and v, as a plain sum of canonical products."""
    return sum([a * b for a, b in zip(u, v)], Cyclo.rational(0))


class Matrix:
    """A small immutable matrix over ``Cyclo``: the test-only oracle for
    element products, charpolys and images of vectors.  The library keeps an
    element as integer lifts (``ReflectionCoset._lift``) and takes its
    generators as plain rows (``m.rows``)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        norm = tuple(
            tuple(c if isinstance(c, Cyclo) else Cyclo.rational(c) for c in row)
            for row in rows)
        object.__setattr__(self, "rows", norm)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n):
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(entries):
        n = len(entries)
        return Matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def n(self):
        return len(self.rows)

    def __matmul__(self, other):
        cols = list(zip(*other.rows))
        return Matrix([[dot(row, col) for col in cols] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def charpoly(self):
        """det(x*I - M), read off the library's ``_charpoly`` on the entries' lifts."""
        N = lcm(*[c.n for row in self.rows for c in row])
        p = _charpoly(N, *_lift_rows(self.rows, N))
        return LaurentPoly({e: Cyclo(n, dict(g), p.den // m) for e, n, g, m in p.coeffs})

    def apply(self, vec):
        return [dot(row, vec) for row in self.rows]

    def __repr__(self):
        rows = "; ".join(
            ", ".join(c.serialize() for c in row) for row in self.rows)
        return f"Matrix[{rows}]"


# each group's element matrices, built on first use and dropped with the group
_MATRICES = weakref.WeakKeyDictionary()


def matrix(G, i):
    """Element i's matrix over ``Cyclo``, read off its integer lifts, one
    ``_orbit_key`` at N per row."""
    kept = _MATRICES.setdefault(G, {})
    m = kept.get(i)
    if m is None:
        m = kept[i] = Matrix([[Cyclo(G._N, dict(v), r[0], in_basis=True) for v in r[1:]]
                              for r in G._lift(i)])
    return m


def r(v, lam):
    """The reflection 1 + (lam - 1) v v* / (v* v): it fixes the hyperplane
    orthogonal to v and scales v by lam."""
    v = [c if isinstance(c, Cyclo) else Cyclo.rational(c) for c in v]
    k = (lam - 1) / sum((c * c.conjugate() for c in v), Cyclo.rational(0))
    return Matrix([[(1 if i == j else 0) + k * a * b.conjugate() for j, b in enumerate(v)]
                   for i, a in enumerate(v)])


def _extra_gens():
    z3, i = zeta(3), zeta(4)
    g25 = [r((1, 0, 0), z3), r((1, 1, 1), z3), r((0, 0, 1), z3)]
    return {
        "G(4,1,2)": ([r((1, 0), i), r((1, 1), -1)], 4),
        "G6": ([r((1, 0), z3), r((1 + zeta(12), 1), -1)], 12),
        "G8": ([r((1, 0), i), r((1, 1), i)], 4),
        "G25": (g25, 3),
        "G26": (g25 + [r((1, -1, 0), -1)], 3),
        # G(4,4,4) and r((1,1,1,1), -1)
        "G29": ([r((1, -1, 0, 0), -1), r((0, 1, -1, 0), -1), r((0, 0, 1, -1), -1),
                 r((0, 0, 1, -i), -1), r((1, 1, 1, 1), -1)], 4),
    }


def b3_gens():
    """G(2,1,3), the Weyl group of type B_3, by a sign change and two
    coordinate swaps."""
    return [Matrix.diagonal([-1, 1, 1]), Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
            Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])]


# Groups with no built-in, as split cosets, with their order, degrees,
# codegrees and number of classes (Shephard-Todd; Lehrer-Taylor, Unitary
# Reflection Groups).
EXTRA_GROUPS = {
    "G(4,1,2)": (32, (4, 8), (0, 4), 14),
    "G6": (48, (4, 12), (0, 8), 14),
    "G8": (96, (8, 12), (0, 4), 16),
    "G25": (648, (6, 9, 12), (0, 3, 6), 24),
    "G26": (1296, (6, 12, 18), (0, 6, 12), 48),
    "G29": (7680, (4, 8, 12, 20), (0, 8, 12, 16), 37),
}


@lru_cache(maxsize=None)
def extra_group(name):
    """One of EXTRA_GROUPS, built once per session."""
    gens, conductor = _extra_gens()[name]
    return ReflectionCoset(name, [g.rows for g in gens], CycloField.cyclotomic(conductor))


def centralizer(G, i):
    """The elements commuting with element i, each product walked along a
    word (``ReflectionCoset._mul``): the reference for the table passes of
    ``ReflectionCoset.centralizer``."""
    return [j for j in range(G.order) if G._mul(j, i) == G._mul(i, j)]


def multiplicities(p, caps):
    """min(multiplicity of E(d, k), cap) for each (d, k): cap, for one
    LaurentPoly or PackedLift, one root and one Hasse derivative order at a
    time, each sum zero-tested alone (``PackedLift._is_zero``) at the
    polynomial's own slot width: the reference for the block sums of
    ``laurent.root_multiplicities``."""
    if isinstance(p, LaurentPoly):
        if not p.coeffs:
            return dict(caps)
        p = p.packed()
    es = p.exps
    top = es[-1]
    j_max = max(0, min(max(caps.values(), default=0) - 1, top))
    norm, at, out = comb(top, min(j_max, top // 2)) * p.norm, {}, {}
    for (d, k), cap in caps.items():
        if d not in at:
            n = lcm(p.cond, d)
            b = _slot_bits(n, norm) if totient(n) <= _PACK_PHI else 0
            at[d] = n, b, p._at(n, b)
        n, b, lifts = at[d]
        s = k * (n // d)
        j = 0
        while j < cap and p._is_zero(n, b, lifts, s, 0,
                                     [comb(e, j) for e in es] if j else None, {}):
            j += 1
        out[d, k] = j
    return out


def row_reduce(rows):
    """Gauss-Jordan elimination in place; returns the pivot column of each row.

    ``rows`` ends in reduced row echelon form.  Entries need only ``bool``,
    ``*``, ``-`` and ``1 / x``, so the same loop serves ``Fraction`` and
    :class:`Cyclo` matrices: the test-only reference for linear algebra,
    which the library does by products of (w - lambda) and zero tests.
    """
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    return pivots


def eigenspace(m, lam):
    """The row-reduced basis of ker(m - lam) as a list of vectors, one per
    free column of the reduced m - lam."""
    n, zero, one = m.n, Cyclo.rational(0), Cyclo.rational(1)
    rows = [[c - (lam if i == j else zero) for j, c in enumerate(row)]
            for i, row in enumerate(m.rows)]
    pivots = row_reduce(rows)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [zero] * n
        vec[fc] = one
        for ri, pc in enumerate(pivots):
            vec[pc] = -rows[ri][fc]
        basis.append(vec)
    return basis


def divmod_poly(a, b):
    """Long division with remainder after shifting both to valuation >= 0:
    the reference for the library's one division, ``LaurentPoly.peel``."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    va = 0 if a.is_zero() else min(0, a.valuation())
    vb = min(0, b.valuation())
    num, b = dict(a.shift(-va).coeffs), b.shift(-vb)
    deg_b, lead_b = b.coeffs[-1]
    quo = {}
    while num and max(num) >= deg_b:
        top = max(num)
        f = quo[top - deg_b] = num.pop(top) / lead_b
        for e, c in b.coeffs[:-1]:
            e += top - deg_b
            num[e] = num.get(e, Cyclo.rational(0)) - f * c
            if num[e].is_zero():
                del num[e]
    return LaurentPoly(quo).shift(va - vb), LaurentPoly(num).shift(va)


def exact_div(a, b):
    """a / b in the Laurent ring, by long division; ArithmeticError if inexact."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return a
    q, r = divmod_poly(a.shift(-a.valuation()), b.shift(-b.valuation()))
    if not r.is_zero():
        raise ArithmeticError("non-exact polynomial division")
    return q.shift(a.valuation() - b.valuation())


def divides(a, b):
    """Whether a divides b in the Laurent ring, by long division."""
    if a.is_zero():
        return b.is_zero()
    return b.is_zero() or divmod_poly(b.shift(-b.valuation()),
                                      a.shift(-a.valuation()))[1].is_zero()


def fake_degree_char(table, name):
    """Feg(theta) for one row of a character table, by its own Molien sum:
    (1/|W|) sum_c |c| conj(theta(c)) P / det(1 - x c), one canonical weight
    per class, added by ``ReflectionCoset.class_sum``.  The reference for the
    table-wide pass ``CharTable.fake_degrees``."""
    G, row = table.group, table.values[name]
    return LaurentPoly._of_lifts(*G.class_sum((ci, t.conjugate() * Fraction(c.size, G.order))
                                              for ci, (t, c) in enumerate(zip(row, G.classes))))


def check_inducing_sum(levi, deg_lambda, rows_with_dims):
    """Deg(lambda) (|G|/|L|)_{x'} = sum Deg(rho_chi) chi(1) over a proposed tuple."""
    total = LaurentPoly.combination((row.degree, dim) for row, dim in rows_with_dims)
    return total == deg_lambda * reversal(levi.relative_poincare)


@lru_cache(maxsize=4096)
def _member_products(deg, feg):
    """Deg_i conj(Deg_j) - Feg_i Feg_j by (i, j), by canonical ``Cyclo``
    products; ``feg`` None for a member with no fake degree."""
    out = {}
    for p, q, sign in [(deg, [(j, y.conjugate()) for j, y in deg.coeffs], 1)] + (
            [(feg, feg.coeffs, -1)] if feg is not None else []):
        for i, x in p.coeffs:
            for j, y in q:
                out[i, j] = out.get((i, j), 0) + x * y * sign
    return out


def family_sum_failures(table, rows, fegs):
    """For each family, the first (i, j) in sorted order where sum Deg_i
    conj(Deg_j) - sum Feg_i Feg_j over its members is nonzero, by canonical
    ``Cyclo`` arithmetic: the reference for ``uch._check_family_sums``."""
    failures = []
    for fam in table.families:
        total = {}
        for name in fam.members:
            for ij, v in _member_products(rows[name].degree, fegs.get(name)).items():
                total[ij] = total.get(ij, 0) + v
        bad = next((ij for ij in sorted(total) if total[ij]), None)
        if bad:
            failures.append(f"family {fam.index} at x^{bad[0]} y^{bad[1]}")
    return failures


def principal_series_failures(rows, G, fegs):
    """Whether sum theta(1) Deg(rho_theta) - Feg(R_1) over the principal
    series is nonzero, theta(1) = Feg_theta(1) the sum of its coefficients,
    by canonical ``Cyclo`` and ``LaurentPoly`` arithmetic: the reference for
    ``uch._check_principal_series``."""
    total = sum((rows[name].degree * sum([c for _, c in fg.coeffs], Cyclo.rational(0))
                 for name, fg in fegs.items()), -fake_degree_torus(G, 0))
    return ["sum over the principal series"] if total else []


@pytest.fixture(scope="session")
def g4():
    return build_group("G4")


@pytest.fixture(scope="session")
def g312():
    return build_group("G(3,1,2)")


@pytest.fixture(scope="session")
def g4_result():
    return construct_uch("G4")


@pytest.fixture(scope="session")
def g312_result():
    return construct_uch("G(3,1,2)")


@pytest.fixture(scope="session")
def g4_fegs(g4):
    return feg_map(char_table(g4))


@pytest.fixture(scope="session")
def g312_fegs(g312):
    return feg_map(char_table(g312))
