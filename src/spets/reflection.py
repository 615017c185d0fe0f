"""Finite complex reflection groups as split reflection cosets.

Groups are given by exact generator matrices over a cyclotomic field and
enumerated explicitly (the built-ins are tiny).  Enumeration is the only
place that multiplies group elements: one breadth-first pass records the
elements, their shortest words and an integer multiplication table.
Conjugacy classes, centralizers, powers, element orders and the Sylow
normaliser count are then lookups in that table.  The eigenvalues of each
class are computed once, with the classes; since an element of finite order
is diagonalisable, eigenspace dimensions, regular classes and reflections
are eigenvalue multiplicities read off that cache.  Two reflections share a
hyperplane exactly when their product is the identity or a reflection, so
hyperplanes are read off the table too.

A coset and its sub-cosets (V, W_L * w) share one model: det(1 - x w) is a
product over the cached eigenvalues of each class, and the Poincare
polynomial of a coset is the inverse of its Molien series, a sum over the
classes of G weighted by how many coset elements fall in each.  The module
also finds the reflection degrees, whether a centralizer is cyclic and
faithful on an eigenspace, and Sylow data for K-cyclotomic polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .cyclotomic import Cyclo, CycloField, CycloSum, sum_of_products, zeta
from .laurent import KCycloPoly, LaurentPoly

__all__ = [
    "Matrix",
    "ConjClass",
    "ReflectionCoset",
    "SubCoset",
    "build_group",
    "sylow_subcoset",
]


class Matrix:
    """Small immutable matrix over cyclotomic numbers."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows: Sequence[Sequence[Cyclo | int | Fraction]]):
        norm = tuple(
            tuple(c if isinstance(c, Cyclo) else Cyclo.rational(c) for c in row)
            for row in rows)
        object.__setattr__(self, "rows", norm)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(entries: Sequence[Cyclo | int]) -> "Matrix":
        n = len(entries)
        return Matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        cols = list(zip(*other.rows))
        return Matrix([[sum_of_products(zip(row, col)) for col in cols]
                       for row in self.rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(self.rows)
            object.__setattr__(self, "_hash", h)
        return h

    def trace(self) -> Cyclo:
        s = CycloSum()
        for i, row in enumerate(self.rows):
            s.add(row[i])
        return s.value()

    def det(self) -> Cyclo:
        return self.charpoly().coeff(0) * ((-1) ** self.n)

    def charpoly(self) -> LaurentPoly:
        """det(x*I - M) as a polynomial in x."""
        n = self.n
        entries = [[LaurentPoly.constant(-self.rows[i][j]) +
                    (LaurentPoly.x() if i == j else LaurentPoly.zero())
                    for j in range(n)] for i in range(n)]
        return _poly_det(entries)

    def apply(self, vec: Sequence[Cyclo]) -> list[Cyclo]:
        return [sum_of_products(zip(row, vec)) for row in self.rows]

    def eigenspace(self, eigval: Cyclo) -> list[list[Cyclo]]:
        """Basis of ker(M - eigval*I) as a list of vectors."""
        n = self.n
        mat = [[self.rows[i][j] - (eigval if i == j else Cyclo.rational(0))
                for j in range(n)] for i in range(n)]
        pivots = row_reduce(mat)
        basis = []
        for fc in range(n):
            if fc in pivots:
                continue
            vec = [Cyclo.rational(0)] * n
            vec[fc] = Cyclo.rational(1)
            for ri, pc in enumerate(pivots):
                vec[pc] = -mat[ri][fc]
            basis.append(vec)
        return basis

    def __repr__(self) -> str:
        rows = "; ".join(
            ", ".join(c.serialize() for c in row) for row in self.rows)
        return f"Matrix[{rows}]"


def row_reduce(rows: list[list]) -> list[int]:
    """Gauss-Jordan elimination in place; returns the pivot column of each row.

    ``rows`` ends in reduced row echelon form.  Entries need only ``bool``,
    ``*``, ``-`` and ``1 / x``, so the same loop serves ``Fraction`` and
    :class:`Cyclo` matrices.
    """
    pivots: list[int] = []
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


def _eigenvalues(g: Matrix, order: int) -> list[Cyclo]:
    """Eigenvalues of g, an element of the given order, with multiplicity, as
    powers of zeta(order): the roots of the charpoly, peeled off one at a time."""
    cp = g.charpoly()
    out: list[Cyclo] = []
    for k in range(order):
        lam = zeta(order, k)
        while cp.evaluate(lam).is_zero():
            cp = cp.exact_div(LaurentPoly.x() - LaurentPoly.constant(lam))
            out.append(lam)
    return out


def _poly_det(entries: list[list[LaurentPoly]]) -> LaurentPoly:
    n = len(entries)
    if n == 1:
        return entries[0][0]
    acc = LaurentPoly.zero()
    for j in range(n):
        if entries[0][j].is_zero():
            continue
        minor = [[entries[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entries[0][j] * _poly_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


class ConjClass:
    """A conjugacy class; ``eigenvalues`` are those of every member, with
    multiplicity."""

    def __init__(self, rep_index: int, rep_word: str, size: int,
                 member_indices: tuple[int, ...], eigenvalues: tuple[Cyclo, ...]):
        self.__dict__.update(rep_index=rep_index, rep_word=rep_word, size=size,
                             member_indices=member_indices, eigenvalues=eigenvalues)

    def __setattr__(self, *a):
        raise AttributeError("ConjClass is immutable")


class ReflectionCoset:
    """A split reflection coset: a finite reflection group with phi = 1."""

    def __init__(self, name: str, gens: Sequence[Matrix], field: CycloField):
        self.name = name
        self.field = field
        self.rank = gens[0].n if gens else 0
        self.gens = list(gens)
        # mul[i][j] is the index of elements[i] @ elements[j]; 0 is the identity
        self.elements, self.words, self.mul = _enumerate(gens)
        self.index = {m: i for i, m in enumerate(self.elements)}
        self._class_fake_degrees: dict[int, LaurentPoly] = {}

    # -- group structure ------------------------------------------------
    @cached_property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _inv(self) -> list[int]:
        return [row.index(0) for row in self.mul]

    def _conj(self, h: int, i: int) -> int:
        """Index of h g h^-1 for g = elements[i]."""
        return self.mul[self.mul[h][i]][self._inv[h]]

    @cached_property
    def classes(self) -> list[ConjClass]:
        seen: set[int] = set()
        found = []
        for i in range(self.order):
            if i in seen:
                continue
            members = sorted({self._conj(h, i) for h in range(self.order)})
            seen.update(members)
            rep = min(members, key=lambda j: (len(self.words[j]), self.words[j]))
            g = self.elements[rep]
            order = self.element_order(g)
            eig = _eigenvalues(g, order)
            key = (order, len(members), sorted(v.serialize() for v in eig), self.words[rep])
            found.append((key, ConjClass(rep, self.words[rep], len(members),
                                         tuple(members), tuple(eig))))
        return [c for _, c in sorted(found, key=lambda t: t[0])]

    @cached_property
    def _class_index(self) -> list[int]:
        """The index in ``classes`` of the class of every element."""
        out = [0] * self.order
        for ci, c in enumerate(self.classes):
            for i in c.member_indices:
                out[i] = ci
        return out

    def class_of(self, g: Matrix) -> int:
        return self._class_index[self.index[g]]

    def centralizer(self, g: Matrix) -> list[Matrix]:
        i, mul = self.index[g], self.mul
        return [h for j, h in enumerate(self.elements) if mul[j][i] == mul[i][j]]

    def powers(self, g: Matrix) -> list[Matrix]:
        """g^0, g^1, ..., g^(k-1) for g of order k."""
        i = self.index[g]
        out, k = [self.elements[0]], i
        while k:
            out.append(self.elements[k])
            k = self.mul[k][i]
        return out

    def element_order(self, g: Matrix) -> int:
        return len(self.powers(g))

    def eigenvalues(self, g: Matrix) -> list[Cyclo]:
        """Eigenvalues of g with multiplicity, as powers of zeta(order of g)."""
        return list(self.classes[self.class_of(g)].eigenvalues)

    def _eigenvalue_counts(self, eigval: Cyclo) -> list[int]:
        """dim V(w, eigval) for w in each class: the multiplicity of eigval."""
        return [c.eigenvalues.count(eigval) for c in self.classes]

    # -- reflections and hyperplanes ---------------------------------------
    @cached_property
    def _hyperplanes(self) -> dict[int, int]:
        """Index of each reflection -> the least reflection index on its
        hyperplane, in element order.  Reflections r, s share a hyperplane
        iff r s is the identity or a reflection: otherwise r s fixes only the
        intersection of the two hyperplanes, of codimension 2 (for an
        invariant Hermitian form, distinct hyperplanes have distinct root
        lines, their orthogonal complements)."""
        # the identity fixes all rank dimensions, so it is never counted
        fixed = self._eigenvalue_counts(Cyclo.rational(1))
        refl = [i for i, ci in enumerate(self._class_index) if fixed[ci] == self.rank - 1]
        on_hyperplane = set(refl) | {0}
        return {r: next(s for s in refl if self.mul[s][r] in on_hyperplane)
                for r in refl}

    @cached_property
    def reflections(self) -> list[Matrix]:
        return [self.elements[r] for r in self._hyperplanes]

    @property
    def n_ref(self) -> int:
        return len(self._hyperplanes)

    @cached_property
    def hyperplane_reflections(self) -> list[Matrix]:
        """The first reflection, in element order, on each hyperplane."""
        return [self.elements[h] for h in dict.fromkeys(self._hyperplanes.values())]

    @property
    def n_hyp(self) -> int:
        return len(self.hyperplane_reflections)

    def parabolic_subgroup(self, vectors: list[list[Cyclo]]) -> list[Matrix]:
        """The pointwise stabilizer of the vectors, in element order.  By
        Steinberg's theorem it is generated by the reflections whose
        hyperplane contains them: one reflection per hyperplane is tested,
        and every reflection on a passing hyperplane (of any order) is a
        generator of the closure in the multiplication table."""
        fixing = {h for h in dict.fromkeys(self._hyperplanes.values())
                  if all(self.elements[h].apply(v) == v for v in vectors)}
        gens = [r for r, h in self._hyperplanes.items() if h in fixing]
        members, frontier = {0}, [0]
        while frontier:
            row = self.mul[frontier.pop()]
            for r in gens:
                if row[r] not in members:
                    members.add(row[r])
                    frontier.append(row[r])
        return [self.elements[i] for i in sorted(members)]

    # -- the Molien series ------------------------------------------------
    @cached_property
    def _class_dets(self) -> list[LaurentPoly]:
        """det(1 - x w) = prod(1 - lambda x) over the eigenvalues of each class."""
        out = []
        for c in self.classes:
            p = LaurentPoly.one()
            for lam in c.eigenvalues:
                p = p * LaurentPoly({0: 1, 1: -lam})
            out.append(p)
        return out

    @cached_property
    def _class_series(self) -> list[list[tuple[int, Cyclo]]]:
        """1 / det(1 - x w) for each class, up to x^(n_ref + rank): the degree
        of the Poincare polynomial of G and a bound on that of each sub-coset."""
        bound = self.n_ref + self.rank
        return [_series_invert(p, bound) for p in self._class_dets]

    @cached_property
    def poincare(self) -> LaurentPoly:
        """The coset Poincare polynomial prod(1 - zeta_i x^{d_i})."""
        return coset_poincare(self, [c.size for c in self.classes])

    @cached_property
    def degrees(self) -> list[tuple[int, Cyclo]]:
        """Pairs (d_i, zeta_i), peeled off the Poincare polynomial."""
        out: list[tuple[int, Cyclo]] = []
        Q = self.poincare
        for _ in range(self.rank):
            d, c = next((e, c) for e, c in Q.coeffs if e > 0)
            out.append((d, -c))
            Q = Q.exact_div(LaurentPoly({0: 1, d: c}))
        assert Q == LaurentPoly.one()
        return sorted(out, key=lambda t: (t[0], t[1].serialize()))

    def class_fake_degree(self, ci: int) -> LaurentPoly:
        """P / det(1 - x w) for w in class ci, computed on first use: the
        complex conjugate of the torus fake degree Feg(R_w)."""
        q = self._class_fake_degrees.get(ci)
        if q is None:
            q = self._class_fake_degrees[ci] = self.poincare.exact_div(self._class_dets[ci])
        return q

    # -- eigenspace data ------------------------------------------------------
    def max_eigenspace_dim(self, eigval: Cyclo) -> int:
        return max(self._eigenvalue_counts(eigval))

    def regular_classes(self, eigval: Cyclo) -> list[int]:
        """Classes whose eigval-eigenspace has the maximal dimension."""
        dims = self._eigenvalue_counts(eigval)
        best = max(dims)
        return [ci for ci, dim in enumerate(dims) if dim == best]

    def regular_element(self, eigval: Cyclo) -> Matrix:
        """A representative with maximal eigval-eigenspace, of maximal order."""
        cands = [self.elements[self.classes[ci].rep_index]
                 for ci in self.regular_classes(eigval)]
        return max(cands, key=self.element_order)

    def cyclic_centralizer_order(self, w: Matrix, eigval: Cyclo) -> int | None:
        """|C| when C = C_W(w) is cyclic and acts faithfully on V(w, eigval),
        else None: exactly when the restriction of C to V(w, eigval) is a
        cyclic group of order |C|."""
        basis = w.eigenspace(eigval)
        if not basis:
            raise ValueError("empty eigenspace")
        cent = self.centralizer(w)
        if not any(self.element_order(g) == len(cent) for g in cent):
            return None
        # cent[0] is the identity; every other member must move V(w, eigval)
        if any(all(g.apply(b) == b for b in basis) for g in cent[1:]):
            return None
        return len(cent)


MAX_GROUP_ORDER = 2000  # largest group enumerated; mul has its square of entries


def _enumerate(gens: Sequence[Matrix]
               ) -> tuple[list[Matrix], list[str], list[list[int]]]:
    """Elements in breadth-first order, their shortest words, and ``mul``.

    The only products are ``right[i][gi]`` = elements[i] @ gens[gi].  Each
    element j > 0 was found as elements[p] @ gens[gi], so mul[i][j] is
    right[mul[i][p]][gi].
    """
    if not gens:
        return [Matrix.identity(1)], [""], [[0]]
    names = "stuvwabcdefghijklmnopqr"
    labels = [names[gi] if gi < len(names) else f"g{gi}." for gi in range(len(gens))]
    elements, words = [Matrix.identity(gens[0].n)], [""]
    seen = {elements[0]: 0}
    found: list[tuple[int, int]] = []  # (p, gi) for elements 1, 2, ...
    right: list[list[int]] = []
    for i, g in enumerate(elements):  # the list grows while it is walked
        row = []
        for gi, gen in enumerate(gens):
            h = g @ gen
            j = seen.setdefault(h, len(elements))
            if j == len(elements):
                elements.append(h)
                words.append(words[i] + labels[gi])
                found.append((i, gi))
            row.append(j)
        right.append(row)
        if len(elements) > MAX_GROUP_ORDER:
            raise ArithmeticError("group enumeration exceeded bound")
    mul = []
    for i in range(len(elements)):
        row = [i]
        for p, gi in found:
            row.append(right[row[p]][gi])
        mul.append(row)
    return elements, words, mul


def coset_poincare(G: ReflectionCoset, counts: Sequence[int]) -> LaurentPoly:
    """P = prod(1 - zeta_i x^{d_i}) of a coset of G whose elements fall
    counts[c] times into class c of G: the inverse of its Molien series."""
    bound = G.n_ref + G.rank
    total = sum(counts)
    sums = [CycloSum() for _ in range(bound + 1)]
    for series, n in zip(G._class_series, counts):
        if n:
            weight = Cyclo.rational(Fraction(n, total))
            for e, c in series:
                sums[e].add(c, weight)
    molien = LaurentPoly([(e, s.value()) for e, s in enumerate(sums)])
    return LaurentPoly(_series_invert(molien, bound))


def _series_invert(P: LaurentPoly, bound: int) -> list[tuple[int, Cyclo]]:
    """Coefficients of 1/P up to x^bound (P must have constant term 1)."""
    c0 = P.coeff(0)
    assert c0 == Cyclo.rational(1), "series inversion expects constant term 1"
    neg = [(k, -c) for k, c in P.coeffs if k > 0]
    inv = [c0]
    for e in range(1, bound + 1):
        inv.append(sum_of_products((c, inv[e - k]) for k, c in neg if k <= e))
    return [(e, c) for e, c in enumerate(inv) if not c.is_zero()]


# -- built-in groups ---------------------------------------------------------


def build_group(name: str) -> ReflectionCoset:
    """Construct a built-in split reflection coset by name.

    Supported: ``Z_e`` / ``Ze`` (cyclic, any e), ``G4``, ``G(3,1,2)``.
    """
    key = name.replace(" ", "")
    import re as _re
    m = _re.fullmatch(r"Z_?(\d+)", key)
    if m:
        e = int(m.group(1))
        if e < 1:
            raise ValueError("cyclic order must be positive")
        fld = CycloField.cyclotomic(e)
        return ReflectionCoset(f"Z_{e}", [Matrix([[zeta(e)]])], fld)
    if key in ("G4", "G_4"):
        z = zeta(3)
        s = Matrix([[z, 0], [0, 1]])
        a = (1 - z ** 2) / 3
        t = Matrix([[a, Cyclo.rational(1)],
                    [-2 * z / 3, (2 * z + 1) / 3]])
        return ReflectionCoset("G4", [s, t], CycloField.cyclotomic(3))
    if key in ("G(3,1,2)", "G312", "G_{3,1,2}"):
        z = zeta(3)
        s = Matrix([[z, 0], [0, 1]])
        t = Matrix([[0, 1], [1, 0]])
        return ReflectionCoset("G(3,1,2)", [s, t], CycloField.cyclotomic(3))
    raise ValueError(f"unknown built-in group: {name!r}")


# -- Sylow data ----------------------------------------------------------------


class SubCoset:
    """A sub-coset (V, W_L * w) of a split coset, e.g. a Sylow centralizer.

    ``group_elements`` lists W_L, ``twist`` is w and ``normalizer_order``
    is |N_W(L)|.
    """

    def __init__(self, parent: ReflectionCoset, group_elements: tuple[Matrix, ...],
                 twist: Matrix, normalizer_order: int):
        self.__dict__.update(parent=parent, group_elements=group_elements,
                             twist=twist, normalizer_order=normalizer_order)

    def __setattr__(self, *a):
        raise AttributeError("SubCoset is immutable")

    @property
    def relative_order(self) -> int:
        """|W_G(L)| = |N_W(L)| / |W_L|."""
        return self.normalizer_order // len(self.group_elements)

    @property
    def rank(self) -> int:
        return self.parent.rank

    @cached_property
    def _members(self) -> set[int]:
        return {self.parent.index[g] for g in self.group_elements}

    @cached_property
    def poincare(self) -> LaurentPoly:
        """prod(1 - zeta_i x^{d_i}) from the G-classes of the elements l w."""
        G = self.parent
        wi = G.index[self.twist]
        counts = [0] * len(G.classes)
        for l in self._members:
            counts[G._class_index[G.mul[l][wi]]] += 1
        return coset_poincare(G, counts)

    @cached_property
    def n_ref(self) -> int:
        # W_L is a subgroup of W, so its reflections are those of W lying in it
        return sum(1 for r in self.parent._hyperplanes if r in self._members)

    @cached_property
    def n_hyp(self) -> int:
        return len({h for r, h in self.parent._hyperplanes.items() if r in self._members})


def sylow_subcoset(G: ReflectionCoset, phi: KCycloPoly) -> tuple[int, SubCoset]:
    """The Phi-Sylow datum for a K-cyclotomic polynomial dividing |G|.

    Returns ``(a, L)`` where ``a`` is the exponent of Phi in a Sylow
    Phi-sub-coset and ``L`` describes the centralizer sub-coset.
    """
    d = phi.root_order
    k = min(phi.root_exponents) if phi.root_exponents else 0
    eigval = zeta(d, k) if d > 1 else Cyclo.rational(1)
    a = G.max_eigenspace_dim(eigval)
    if a == 0:
        raise ValueError("polynomial does not divide the group order polynomial")
    # among classes attaining the bound pick the representative of largest order
    w = G.regular_element(eigval)
    basis = w.eigenspace(eigval)
    w_l = G.parabolic_subgroup(basis)
    # |N_W(L)|: v with v W_L v^-1 = W_L and v w v^-1 in W_L w
    wi = G.index[w]
    w_l_set = {G.index[g] for g in w_l}
    coset = {G.mul[l][wi] for l in w_l_set}
    normalizer = sum(1 for v in range(G.order)
                     if all(G._conj(v, l) in w_l_set for l in w_l_set)
                     and G._conj(v, wi) in coset)
    return a, SubCoset(G, tuple(w_l), w, normalizer)
