"""Finite complex reflection groups as split reflection cosets.

A group is given by generator matrices over a cyclotomic field, each the
identity or a reflection, and acts faithfully on the orbit of their roots
(CHEVIE's ``PermRootGroup``: J. Michel, J. Algebra 435 (2015)).  The orbit
is walked once; one breadth-first pass then lists the elements and their
shortest words, and from there on an element is its integer index, with
products, powers, conjugacy classes (orbits under conjugation by the
generators), parabolic subgroups and Sylow normalisers read off index
tables of |G| rows, one column per generator.  ``ReflectionCoset.matrix``
builds an element's matrix from its word on first use, for eigenvalues and
eigenspaces.  Each class's eigenvalues are computed once; as an element of
finite order is diagonalisable, eigenspace dimensions, regular classes and
reflections are eigenvalue multiplicities.

The degrees are read off the fixed-space dimensions by Shephard-Todd, and
the Poincare polynomial P_G of G is prod(1 - x^{d_i}); its roots, the d_i-th
roots of unity, are ``order_roots``.  A class's fake degree is
P_G / det(1 - x w), its eigenvalues peeled off P_G, and for a sub-coset
(V, W_L * w) P_G / P is the mean of those of its elements (Molien), so P is
P_G with the roots of that mean peeled off: each polynomial division here
is a :meth:`LaurentPoly.peel`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd
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

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Cyclo | int | Fraction]]):
        norm = tuple(
            tuple(c if isinstance(c, Cyclo) else Cyclo.rational(c) for c in row)
            for row in rows)
        object.__setattr__(self, "rows", norm)

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
        return hash(self.rows)

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
    powers of zeta(order): the root multiplicities of the charpoly, or the
    entry itself when g is 1 x 1."""
    if g.n == 1:
        return [g.rows[0][0]]
    mults = g.charpoly().multiplicities({(order, k): g.n for k in range(order)})
    return [zeta(order, k) for (_, k), m in mults.items() for _ in range(m)]


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
    """A conjugacy class; ``order`` and ``eigenvalues`` are those of every
    member, the eigenvalues with multiplicity."""

    def __init__(self, rep_index: int, rep_word: str, size: int, order: int,
                 member_indices: tuple[int, ...], eigenvalues: tuple[Cyclo, ...]):
        self.__dict__.update(rep_index=rep_index, rep_word=rep_word, size=size,
                             order=order, member_indices=member_indices,
                             eigenvalues=eigenvalues)

    def __setattr__(self, *a):
        raise AttributeError("ConjClass is immutable")


# admits G29 (order 7,680); peak RSS 20 MB for G29 with its classes and
# 52 MB to enumerate Z_7999 (Python 3.11)
MAX_GROUP_ORDER = 8000


class ReflectionCoset:
    """A split reflection coset: a finite reflection group with phi = 1.

    Elements are integer indices in breadth-first order, 0 the identity;
    ``gens`` holds the index of each generator and ``words`` the shortest
    word of each element.
    """

    def __init__(self, name: str, gens: Sequence[Matrix], field: CycloField):
        self.name = name
        self.field = field
        self.rank = gens[0].n if gens else 0
        self._gen_matrices = list(gens)
        # G acts trivially on V modulo the span of the generators' roots, so
        # (Maschke) faithfully on their orbit, which has at most |G| points
        start = dict.fromkeys(r for k, g in enumerate(gens) if (r := _root(k, g)))
        _, images, _ = _walk(start, [lambda v, g=g: tuple(g.apply(v)) for g in gens],
                             len(gens) * MAX_GROUP_ORDER)
        inverses = [{row[gi]: k for k, row in enumerate(images)} for gi in range(len(gens))]
        # g is keyed by g^-1 r for the generators' roots r, as (g s)^-1 r =
        # s^-1 (g^-1 r); _right[i][gi] is element i times generator gi, and
        # element j > 0 was found as element p times generator gi for
        # (p, gi) = _found[j - 1]
        _, self._right, self._found = _walk(
            [tuple(range(len(start)))],
            [lambda key, inv=inv: tuple(inv[b] for b in key) for inv in inverses],
            MAX_GROUP_ORDER)
        names = "stuvwabcdefghijklmnopqr"
        labels = [names[gi] if gi < len(names) else f"g{gi}." for gi in range(len(gens))]
        self.words = [""]
        for p, gi in self._found:
            self.words.append(self.words[p] + labels[gi])
        self.gens = self._right[0]
        self._matrices = {0: Matrix.identity(self.rank)}
        self._class_fake_degrees: dict[int, LaurentPoly] = {}
        self._cyclic_centralizer_orders: dict[tuple[int, Cyclo], int | None] = {}

    def matrix(self, i: int) -> Matrix:
        """The matrix of element i, built on first use from its word (the
        matrix of each prefix times the next generator) and kept."""
        chain = []
        while i not in self._matrices:
            chain.append(i)
            i = self._found[i - 1][0]
        m = self._matrices[i]
        for j in reversed(chain):
            m = self._matrices[j] = m @ self._gen_matrices[self._found[j - 1][1]]
        return m

    # -- group structure ------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.words)

    def _mul(self, i: int, j: int) -> int:
        """Index of element i times element j, along the word of j."""
        steps = []
        while j:
            j, gi = self._found[j - 1]
            steps.append(gi)
        for gi in reversed(steps):
            i = self._right[i][gi]
        return i

    @cached_property
    def _gen_conjugates(self) -> list[list[int]]:
        """Per generator s, the index of s g s^-1 for each g: the h with h s = s g,
        where s g is read along the word of g, s (p t) = (s p) t."""
        out = []
        for gi, s in enumerate(self.gens):
            left = [s]
            for p, t in self._found:
                left.append(self._right[left[p]][t])
            back = [0] * self.order
            for h, row in enumerate(self._right):
                back[row[gi]] = h
            out.append([back[g] for g in left])
        return out

    @cached_property
    def classes(self) -> list[ConjClass]:
        """Orbits under conjugation by the generators, which generate G."""
        conj = self._gen_conjugates
        seen: set[int] = set()
        found = []
        for i in range(self.order):
            if i in seen:
                continue
            members = sorted(_walk([i], [c.__getitem__ for c in conj], self.order)[0])
            seen.update(members)
            rep = min(members, key=lambda j: (len(self.words[j]), self.words[j]))
            g = self.matrix(rep)  # a 1 x 1 element has the order of its entry
            order = g.rows[0][0].root_of_unity_order()[0] if g.n == 1 else len(self.powers(rep))
            eig = _eigenvalues(g, order)
            key = (order, len(members), sorted(v.serialize() for v in eig), self.words[rep])
            found.append((key, ConjClass(rep, self.words[rep], len(members), order,
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

    def class_of(self, i: int) -> int:
        return self._class_index[i]

    def centralizer(self, i: int) -> list[int]:
        return [j for j in range(self.order) if self._mul(j, i) == self._mul(i, j)]

    def powers(self, i: int) -> list[int]:
        """g^0, g^1, ..., g^(k-1) for g = element i of order k."""
        out, k = [0], i
        while k:
            out.append(k)
            k = self._mul(k, i)
        return out

    def element_order(self, i: int) -> int:
        return self.classes[self.class_of(i)].order

    def eigenvalues(self, i: int) -> list[Cyclo]:
        """Eigenvalues of element i with multiplicity, as powers of zeta(its order)."""
        return list(self.classes[self.class_of(i)].eigenvalues)

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
        return {r: next(s for s in refl if self._mul(s, r) in on_hyperplane)
                for r in refl}

    @property
    def reflections(self) -> list[int]:
        return list(self._hyperplanes)

    @property
    def n_ref(self) -> int:
        return len(self._hyperplanes)

    @property
    def n_hyp(self) -> int:
        return len(set(self._hyperplanes.values()))

    def parabolic_subgroup(self, vectors: list[list[Cyclo]]) -> tuple[list[int], list[int]]:
        """The pointwise stabilizer of the vectors: its generators, the
        reflections on the hyperplanes holding the vectors (Steinberg), and
        its members in element order.  One reflection per hyperplane is tested."""
        fixing = {h for h in set(self._hyperplanes.values())
                  if all(self.matrix(h).apply(v) == v for v in vectors)}
        gens = [r for r, h in self._hyperplanes.items() if h in fixing]
        members = _walk([0], [lambda m, r=r: self._mul(m, r) for r in gens], self.order)[0]
        return gens, sorted(members)

    # -- degrees and fake degrees ------------------------------------------
    @cached_property
    def degrees(self) -> list[tuple[int, Cyclo]]:
        """Pairs (d_i, 1), as the coset is split.  By Shephard-Todd,
        sum_w t^(dim V^w) = prod(t + d_i - 1), with dim V^w the multiplicity
        of the eigenvalue 1 of w; integer synthetic division by t + d - 1,
        for d = 1, 2, ... in turn, reads the d_i, repeated ones included."""
        poly = [0] * (self.rank + 1)  # coefficients of t^rank, ..., t^0
        for dim, c in zip(self._eigenvalue_counts(Cyclo.rational(1)), self.classes):
            poly[self.rank - dim] += c.size
        out, d = [], 1
        while len(poly) > 1:
            if d > self.order:
                raise ArithmeticError("the fixed-space dimensions give no degrees")
            *quo, rem = accumulate(poly, lambda acc, a: acc * (1 - d) + a)
            if rem:
                d += 1
            else:
                poly, out = quo, out + [(d, Cyclo.rational(1))]
        return out

    @cached_property
    def order_roots(self) -> Counter:
        """The nonzero roots of the order of G, those of prod(x^d_i - 1) as G
        is split: the d_i-th roots of unity, with multiplicity, as reduced pairs
        (m, r) for E(m, r)."""
        return Counter((d // gcd(k, d), k // gcd(k, d)) for d, _ in self.degrees for k in range(d))

    @cached_property
    def poincare(self) -> LaurentPoly:
        """The Poincare polynomial prod(1 - x^{d_i}), on integers."""
        coeffs = [1]
        for d, _ in self.degrees:
            coeffs = [a - (coeffs[i - d] if i >= d else 0)
                      for i, a in enumerate(coeffs + [0] * d)]
        return LaurentPoly(enumerate(coeffs))

    def class_fake_degree(self, ci: int) -> LaurentPoly:
        """P / det(1 - x w) for w in class ci, computed on first use: the
        complex conjugate of the torus fake degree Feg(R_w).  det(1 - x w) is
        prod(1 - lambda x) over the eigenvalues lambda of w, each peeled off P."""
        q = self._class_fake_degrees.get(ci)
        if q is None:
            q = self._class_fake_degrees[ci] = self.poincare.peel(
                [(*lam.root_of_unity_order(), 1) for lam in self.classes[ci].eigenvalues])
        return q

    # -- eigenspace data ------------------------------------------------------
    def max_eigenspace_dim(self, eigval: Cyclo) -> int:
        return max(self._eigenvalue_counts(eigval))

    def regular_classes(self, eigval: Cyclo) -> list[int]:
        """Classes whose eigval-eigenspace has the maximal dimension."""
        dims = self._eigenvalue_counts(eigval)
        best = max(dims)
        return [ci for ci, dim in enumerate(dims) if dim == best]

    def regular_element(self, eigval: Cyclo) -> int:
        """A representative with maximal eigval-eigenspace, of maximal order."""
        return max((self.classes[ci].rep_index for ci in self.regular_classes(eigval)),
                   key=self.element_order)

    def cyclic_centralizer_order(self, w: int, eigval: Cyclo) -> int | None:
        """|C| when C = C_W(w) is cyclic and acts faithfully on V(w, eigval),
        else None: exactly when the restriction of C to V(w, eigval) is a
        cyclic group of order |C|.  All three are invariant under
        conjugation, so the answer is computed on first use and held per
        (class of w, eigval)."""
        key = (self.class_of(w), eigval)
        if key not in self._cyclic_centralizer_orders:
            self._cyclic_centralizer_orders[key] = self._cyclic_centralizer_order(w, eigval)
        return self._cyclic_centralizer_orders[key]

    def _cyclic_centralizer_order(self, w: int, eigval: Cyclo) -> int | None:
        basis = self.matrix(w).eigenspace(eigval)
        if not basis:
            raise ValueError("empty eigenspace")
        cent = self.centralizer(w)
        if not any(self.element_order(g) == len(cent) for g in cent):
            return None
        # C is faithful on V(w, eigval) when it meets its pointwise stabilizer in 1
        _, fixing = self.parabolic_subgroup(basis)
        return len(cent) if len(set(cent).intersection(fixing)) == 1 else None


def _root(k: int, g: Matrix) -> tuple[Cyclo, ...] | None:
    """A root of generator k, spanning im(g - 1), or None for the identity;
    a generator that is neither the identity nor a reflection is an error."""
    cells = [(i, j) for i in range(g.n) for j in range(g.n)]
    a = {(i, j): g.rows[i][j] - (i == j) for i, j in cells}
    p, q = next((c for c in cells if a[c]), (0, None))
    if q is None:
        return None
    root = tuple(a[i, q] for i in range(g.n))
    # rank(g - 1) = 1 when every 2x2 minor through a[p, q] vanishes (no
    # division: an inverse at a large conductor such as 999 takes seconds),
    # and a reflection scales its root by an eigenvalue other than 1
    minors = (a[i, j] * a[p, q] - a[i, q] * a[p, j] for i, j in cells if i != p and j != q)
    if any(minors) or g.apply(root) == list(root):
        raise ValueError(f"generator {k} is neither the identity nor a reflection")
    if sum(map(bool, root)) == 1:  # on a coordinate axis: take the unit vector
        root = tuple(Cyclo.rational(int(bool(v))) for v in root)
    return root


def _walk(start, moves, bound: int) -> tuple[list, list[list[int]], list[tuple[int, int]]]:
    """The orbit of the start points under the moves in breadth-first order;
    per point, the index of its image under each move; and per point found
    beyond the start, the (point, move) it was found from.  More than bound
    points is an ``ArithmeticError``."""
    points = list(start)
    index = {x: k for k, x in enumerate(points)}
    images, found = [], []
    for k, x in enumerate(points):  # the list grows while it is walked
        row = []
        for mi, move in enumerate(moves):
            y = move(x)
            j = index.setdefault(y, len(points))
            if j == len(points):
                points.append(y)
                found.append((k, mi))
            row.append(j)
        images.append(row)
        if len(points) > bound:
            raise ArithmeticError("group enumeration exceeded bound")
    return points, images, found


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
        if e > MAX_GROUP_ORDER:  # refused before zeta(e) builds its basis
            raise ArithmeticError("group enumeration exceeded bound")
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

    ``group_elements`` lists the indices of W_L, ``twist`` is the index of w
    and ``normalizer_order`` is |N_W(L)|.
    """

    def __init__(self, parent: ReflectionCoset, group_elements: tuple[int, ...],
                 twist: int, normalizer_order: int):
        self.__dict__.update(parent=parent, group_elements=group_elements,
                             twist=twist, normalizer_order=normalizer_order)

    def __setattr__(self, *a):
        raise AttributeError("SubCoset is immutable")

    @property
    def relative_order(self) -> int:
        """|W_G(L)| = |N_W(L)| / |W_L|, exact as W_L is normal in N_W(L)."""
        q, r = divmod(self.normalizer_order, len(self.group_elements))
        if r:
            raise ArithmeticError(f"|N_W(L)| = {self.normalizer_order} is not a multiple "
                                  f"of |W_L| = {len(self.group_elements)}")
        return q

    @property
    def rank(self) -> int:
        return self.parent.rank

    @cached_property
    def relative_poincare(self) -> LaurentPoly:
        """P_G / P, with constant term 1.  By Molien, 1/P is the mean of
        1/det(1 - x l w) over the elements l w, so P_G / P is the mean of
        their class fake degrees P_G / det(1 - x l w)."""
        G, size = self.parent, len(self.group_elements)
        counts = Counter(G.class_of(G._mul(l, self.twist)) for l in self.group_elements)
        return LaurentPoly.combination((G.class_fake_degree(ci), Fraction(n, size))
                                       for ci, n in counts.items())

    @cached_property
    def poincare(self) -> LaurentPoly:
        """prod(1 - zeta_i x^{d_i}) = P_G / :attr:`relative_poincare`.  Both
        split over the roots of the order of G, so P_G's binomials at the
        roots of the relative polynomial are peeled off
        (:meth:`LaurentPoly.divide_split`)."""
        G = self.parent
        return G.poincare.divide_split(Cyclo.rational(1), 0,
                                       self.relative_poincare.roots(G.order_roots))

    @cached_property
    def n_ref(self) -> int:
        # W_L is a subgroup of W, so its reflections are those of W lying in it
        return sum(1 for r in self.group_elements if r in self.parent._hyperplanes)

    @cached_property
    def n_hyp(self) -> int:
        hyp = self.parent._hyperplanes
        return len({hyp[r] for r in self.group_elements if r in hyp})


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
    _, w_l = G.parabolic_subgroup(G.matrix(w).eigenspace(eigval))
    # |N_W(L)| counts the v with v w v^-1 = l w in W_L w.  Such a v maps
    # V(w, eigval) onto V(l w, eigval), which holds V(w, eigval) (l fixes it)
    # and is no larger (its dimension a is maximal), so v also normalises
    # W_L.  Each member of the class of w is v w v^-1 for |G| / |class| v.
    ci = G.class_of(w)
    hits = sum(1 for l in w_l if G.class_of(G._mul(l, w)) == ci)
    return a, SubCoset(G, tuple(w_l), w, hits * G.order // G.classes[ci].size)
