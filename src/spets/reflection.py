"""Finite complex reflection groups as split reflection cosets.

A group is given by generator matrices over a cyclotomic field, each a
sequence of rows of ``Cyclo``, ``int`` or ``Fraction`` entries and the
identity or a reflection, and acts faithfully on the orbit of their roots
(CHEVIE's ``PermRootGroup``: J. Michel, J. Algebra 435 (2015)).  The group
layer runs on integer lifts at N, the lcm of the generator entries'
conductors: a vector is keyed by its Zumbroich-basis coordinates at N over
its least denominator (canonical, as N is fixed), and a generator, lifted
once, moves it by one integer product.  A breadth-first pass over the root
orbit lists the elements and their shortest words; an element is then an
integer index, and products, powers, classes, hyperplanes and Sylow
normalisers are read off index tables.  An element's matrix is one key per
row, built along its word.  A class's eigenvalues are the roots of its
charpoly on those lifts.

Each reflecting hyperplane is the kernel of one linear form, a nonzero row
of h - 1 for a reflection h on it.  The pointwise stabilizer W_L of L =
V(w, zeta) is generated by the reflections whose hyperplanes contain L
(Steinberg).  As w is diagonalisable, L is spanned by the columns of
prod(w - lambda) over w's other eigenvalues lambda, lifted at the lcm of N
and their conductors; each containment is one packed zero test, and
``parabolic`` keeps W_L.

The degrees are read off the fixed-space dimensions by Shephard-Todd, and
P_G = prod(1 - x^{d_i}); its roots are ``order_roots``.  A class's fake
degree P_G / det(1 - x w) is its eigenvalues peeled off P_G, kept as integer
lifts (``_class_lifts``).  ``class_sum`` adds weighted fake degrees on those
lifts, unreduced, for one class's fake degree and for the Molien sum
(Broue-Malle-Michel, Towards spetses I, 1999) P_G / P of a sub-coset (V,
W_L * w), the mean over its elements; P is P_G with that mean's roots
peeled off, each division a ``peel``.  ``orders.CharTable.fake_degrees``
reads the same lifts for the Molien sums Feg(theta) of a whole table.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, combinations, permutations
from math import gcd, lcm
from typing import Iterable, Sequence

from .cyclotomic import Cyclo, CycloField, _convolve, _is_zero_lift, _to_basis, zeta
from .laurent import KCycloPoly, LaurentPoly, PackedLift

__all__ = [
    "ConjClass",
    "ReflectionCoset",
    "SubCoset",
    "build_group",
    "sylow_subcoset",
]


def _charpoly(n: int, den: int, lifts: list[list[dict[int, int]]]) -> PackedLift:
    """det(x*I - M) packed, M = lifts(zeta_n) / den: x^(r - k) has (-1)^k times the sum
    of the principal k x k minors, signed products over permutations, over den^k."""
    r, coeffs = len(lifts), [(len(lifts), n, ((0, 1),), den ** len(lifts))]
    for k in range(1, r + 1):
        acc: dict[int, int] = {}
        for rows in combinations(range(r), k):
            for cols in permutations(rows):
                prod = {0: (-1) ** (k + sum(a > b for a, b in combinations(cols, 2)))}
                for i, j in zip(rows[:-1], cols):
                    prod = _convolve(n, [(prod, lifts[i][j].items())])
                _convolve(n, [(prod, lifts[rows[-1]][cols[-1]].items())], acc)
        coeffs.append((r - k, n, acc.items(), den ** (r - k)))
    return PackedLift(0, den ** r, coeffs[::-1])


def _lift_rows(rows: Sequence[Sequence[Cyclo | int | Fraction]],
               N: int) -> tuple[int, list[list[dict]]]:
    """(den, lifts): entry (i, j) is lifts[i][j](zeta_N) / den, a dict {exponent: numerator};
    an entry is a ``Cyclo``, an ``int`` or a ``Fraction``."""
    den = lcm(*[c.den if isinstance(c, Cyclo) else c.denominator for row in rows for c in row])
    return den, [[c._lift(N, den // c.den) if isinstance(c, Cyclo)
                  else {0: c.numerator * (den // c.denominator)} if c else {}
                  for c in row] for row in rows]


def _orbit_key(n: int, den: int, coords: list[dict[int, int]]) -> tuple:
    """The point coords[i](zeta_n) / den as (least den, each coordinate's sorted
    Zumbroich-basis (exponent, numerator) pairs): canonical at a fixed n."""
    coords = [_to_basis(n, c) for c in coords]
    g = gcd(den, *[c for v in coords for c in v.values()])
    return (den // g, *[tuple(sorted(v.items() if g == 1 else [(i, c // g) for i, c in v.items()]))
                        for v in coords])


def _move(n: int, den: int, rows: Sequence[Sequence[dict[int, int]]], key: tuple) -> tuple:
    """The ``_orbit_key`` of (rows / den) v, rows lifted at n, for the point v = key."""
    return _orbit_key(n, key[0] * den, [_convolve(n, zip(row, key[1:])) for row in rows])


def _common(rows: Sequence[tuple], s: int = 1) -> tuple[int, list[list[dict[int, int]]]]:
    """(den, lifts) of the matrix of ``_orbit_key`` rows at n, lifted at n * s."""
    den = lcm(*[r[0] for r in rows])
    return den, [[{i * s: c * (den // r[0]) for i, c in v} for v in r[1:]] for r in rows]


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

    def __init__(self, name: str, gens: Sequence[Sequence[Sequence[Cyclo | int | Fraction]]],
                 field: CycloField):
        self.name = name
        self.field = field
        self.rank = len(gens[0]) if gens else 0
        # G acts trivially on V modulo the span of the generators' roots, so
        # (Maschke) faithfully on their orbit, which has at most |G| points,
        # each an ``_orbit_key`` at N, moved by a generator's integer lifts
        N = self._N = lcm(*[c.n for g in gens for row in g for c in row if isinstance(c, Cyclo)])
        lifted = [_lift_rows(g, N) for g in gens]
        moves = [lambda key, den=den, rows=rows: _move(N, den, rows, key) for den, rows in lifted]
        start = dict.fromkeys(r for k, (den, rows) in enumerate(lifted)
                              if (r := _root(k, N, den, rows)))
        _, images, _ = _walk(start, moves, len(gens) * MAX_GROUP_ORDER)
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
        self._gen_cols = [(den, list(zip(*rows))) for den, rows in lifted]  # the transposes
        self._lifts = {0: tuple(_orbit_key(N, 1, [{0: int(i == j)} for j in range(self.rank)])
                                for i in range(self.rank))}
        self._class_fake_lifts: dict[int, tuple] = {}
        self._class_fake_degrees: dict[int, LaurentPoly] = {}
        self._cyclic_centralizer_orders: dict[tuple[int, Cyclo], int | None] = {}
        self._parabolics: dict[tuple[int, Cyclo], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def _lift(self, i: int) -> tuple[tuple, ...]:
        """Element i's matrix, one ``_orbit_key`` at N per row, built on first
        use along its word (a row times g is g's transpose moving it) and kept."""
        chain = []
        while i not in self._lifts:
            chain.append(i)
            i = self._found[i - 1][0]
        m = self._lifts[i]
        for j in reversed(chain):
            den, cols = self._gen_cols[self._found[j - 1][1]]
            m = self._lifts[j] = tuple(_move(self._N, den, cols, row) for row in m)
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
            if self.rank == 1:  # a 1 x 1 element is its eigenvalue and has its order
                eig = [Cyclo(self._N, dict(v), den, in_basis=True) for den, v in self._lift(rep)]
                order = eig[0].root_of_unity_order()[0]
            else:  # the charpoly's roots on the lifts, all powers of zeta(order)
                order = len(self.powers(rep))
                mults = _charpoly(self._N, *_common(self._lift(rep))).multiplicities(
                    {(order, k): self.rank for k in range(order)})
                eig = [zeta(order, k) for (_, k), m in mults.items() for _ in range(m)]
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
        """The g with g w = w g, w = element i, from two passes over the table:
        w g for every g along ``_found``, w (p t) = (w p) t, and g w for every
        g at once, w's word applied letter by letter to the list of all g."""
        left, steps = [i], []
        for p, t in self._found:
            left.append(self._right[left[p]][t])
        while i:
            i, gi = self._found[i - 1]
            steps.append(gi)
        right = range(self.order)
        for gi in reversed(steps):
            right = [self._right[g][gi] for g in right]
        return [g for g, (a, b) in enumerate(zip(left, right)) if a == b]

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
        lines, their orthogonal complements).  r s is tested, not s r, as
        ``_mul`` walks the word of its second argument and s, an early
        reflection, has a short one; s r = s (r s) s^-1 gives the same verdict."""
        # the identity fixes all rank dimensions, so it is never counted
        fixed = self._eigenvalue_counts(Cyclo.rational(1))
        refl = [i for i, ci in enumerate(self._class_index) if fixed[ci] == self.rank - 1]
        on_hyperplane = set(refl) | {0}
        return {r: next(s for s in refl if self._mul(r, s) in on_hyperplane)
                for r in refl}

    @cached_property
    def _hyperplane_forms(self) -> dict[int, tuple]:
        """The least reflection h on each hyperplane H_h (the values of
        ``_hyperplanes``) -> a linear form alpha_h with kernel H_h: a nonzero
        row of matrix(h) - 1, an ``_orbit_key`` at N.  That matrix has rank one
        and kernel H_h, the fixed space of h, so each nonzero row has kernel H_h."""
        forms = {}
        for h in dict.fromkeys(self._hyperplanes.values()):
            den, rows = _common(self._lift(h))
            for i, row in enumerate(rows):
                row[i][0] = row[i].get(0, 0) - den
            forms[h] = next(key for key in (_orbit_key(self._N, den, row) for row in rows)
                            if any(key[1:]))
        return forms

    @property
    def reflections(self) -> list[int]:
        return list(self._hyperplanes)

    @property
    def n_ref(self) -> int:
        return len(self._hyperplanes)

    @property
    def n_hyp(self) -> int:
        return len(set(self._hyperplanes.values()))

    def parabolic(self, w: int, eigval: Cyclo) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """W_L for L = V(w, eigval) as tuples (generators, members), computed
        on first use and kept per (w, eigval).  Callers pass class
        representatives, so at most one entry per class and eigenvalue is
        kept.  w has finite order, so it is diagonalisable and L is spanned
        by the nonzero columns of prod(w - lam) over its other distinct
        eigenvalues lam (with none, L = V and W_L = 1), and by any one of
        them when eigval is a simple eigenvalue.  W_L is generated by
        the reflections on the hyperplanes containing L (Steinberg), and L
        lies on H_h when alpha_h (``_hyperplane_forms``) is zero at each of
        those columns, one packed zero test per hyperplane and column."""
        key = (w, eigval)
        got = self._parabolics.get(key)
        if got is None:
            eig = self.eigenvalues(w)
            lams = [lam for lam in dict.fromkeys(eig) if lam != eigval]
            fixing: set[int] = set()  # with no lam, w is scalar: L = V, on no hyperplane
            if lams:
                n = lcm(self._N, *[lam.n for lam in lams])
                s = n // self._N
                den, rows = _common(self._lift(w), s)  # den (w - lam); lam, a root of 1, has den 1
                factors = [[[{k: c.get(k, 0) - t.get(k, 0) for k in c.keys() | t.keys()} if i == j
                             else c for j, c in enumerate(r)] for i, r in enumerate(rows)]
                           for t in (lam._lift(n, den) for lam in lams)]
                # the factors commute, so column j of their product is e_j moved by each
                cols = filter(lambda v: any(v[1:]), (
                    reduce(lambda v, f: _move(n, den, f, v), factors,
                           _orbit_key(n, 1, [{0: int(i == j)} for i in range(self.rank)]))
                    for j in range(self.rank)))
                cols = [next(cols)] if eig.count(eigval) == 1 else list(cols)
                forms = [(h, [{i * s: c for i, c in v} for v in form[1:]])
                         for h, form in self._hyperplane_forms.items()]
                fixing = {h for h, form in forms
                          if all(_is_zero_lift(n, _convolve(n, zip(form, v[1:]))) for v in cols)}
            gens = tuple(r for r, h in self._hyperplanes.items() if h in fixing)
            members = _walk([0], [lambda m, r=r: self._mul(m, r) for r in gens], self.order)[0]
            got = self._parabolics[key] = gens, tuple(sorted(members))
        return got

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
        """P / det(1 - x w) for w in class ci, built from its lifts on first
        use: the complex conjugate of the torus fake degree Feg(R_w)."""
        q = self._class_fake_degrees.get(ci)
        if q is None:
            q = self._class_fake_degrees[ci] = LaurentPoly._of_lifts(
                *self.class_sum([(ci, Cyclo.rational(1))]))
        return q

    def _class_lifts(self, ci: int) -> tuple:
        """P / det(1 - x w), w in class ci, as ``_peel_lifts``' lifts, kept."""
        q = self._class_fake_lifts.get(ci)
        if q is None:
            q = self._class_fake_lifts[ci] = self.poincare._peel_lifts(
                [(*lam.root_of_unity_order(), 1) for lam in self.classes[ci].eigenvalues])
        return q

    def class_sum(self, weights: Iterable[tuple[int, Cyclo]]) -> tuple:
        """sum(w * P / det(1 - x c)) over the pairs (class index c, weight w)
        as lifts (val, N, den, lifts), x^(val + i) having lifts[i](zeta_N) / den,
        from ``_class_lifts``, added unreduced, so an end lift may be zero."""
        terms = [(self._class_lifts(ci), w) for ci, w in weights]
        N = lcm(*[lcm(n, w.n) for (_, n, _, _), w in terms])
        den = lcm(*[d * w.den for (_, _, d, _), w in terms])
        sums: dict[int, dict[int, int]] = {}
        for (val, n, d, lifts), w in terms:
            wl = w._lift(N, den // (d * w.den)).items()
            for i, g in enumerate(lifts):
                _convolve(N, [({t * (N // n): c for t, c in g.items()}, wl)],
                          sums.setdefault(val + i, {}))
        val = min(sums, default=0)
        return val, N, den, [sums.get(e, {}) for e in range(val, max(sums, default=-1) + 1)]

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
        c = self.classes[self.class_of(w)]
        if eigval not in c.eigenvalues:
            raise ValueError("empty eigenspace")
        w = c.rep_index  # the answer is invariant under conjugation
        cent = self.centralizer(w)
        if not any(self.element_order(g) == len(cent) for g in cent):
            return None
        # C is faithful on V(w, eigval) when it meets its pointwise stabilizer in 1
        _, fixing = self.parabolic(w, eigval)
        return len(cent) if len(set(cent).intersection(fixing)) == 1 else None


def _root(k: int, N: int, den: int, rows: list[list[dict[int, int]]]) -> tuple | None:
    """The ``_orbit_key`` of a root of generator k, rows(zeta_N) / den, spanning
    im(g - 1): its first nonzero column, or the unit vector when that lies on a
    coordinate axis; None for the identity.  A generator that is neither the
    identity nor a reflection is an error."""
    a = [[{**c, 0: c.get(0, 0) - den} if i == j else c for j, c in enumerate(row)]
         for i, row in enumerate(rows)]  # den (g - 1)
    cells = [(i, j) for i in range(len(a)) for j in range(len(a))]
    nonzero = {c for c in cells if not _is_zero_lift(N, a[c[0]][c[1]])}
    p, q = next((c for c in cells if c in nonzero), (0, None))
    if q is None:
        return None
    # rank(g - 1) = 1 when every 2x2 minor through a[p][q] vanishes (no inverse:
    # one at conductor 999 takes seconds); a reflection moves its root, and at
    # rank one (g - 1)^2 = trace(g - 1) (g - 1): g fixes it iff the trace is 0
    minors = (_convolve(N, [(a[i][j], a[p][q].items()),
                            (a[i][q], [(e, -c) for e, c in a[p][j].items()])])
              for i, j in cells if i != p and j != q)
    if not all(_is_zero_lift(N, m) for m in minors) or \
            _is_zero_lift(N, _convolve(N, [(a[i][i], ((0, 1),)) for i in range(len(a))])):
        raise ValueError(f"generator {k} is neither the identity nor a reflection")
    col = [(i, q) in nonzero for i in range(len(a))]
    if sum(col) == 1:
        # any multiple of a root numbers the elements alike, but the unit
        # vector's orbit has one-term coordinates, so each move is cheaper
        return _orbit_key(N, 1, [{0: int(v)} for v in col])
    return _orbit_key(N, den, [dict(a[i][q]) for i in range(len(a))])


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
        return ReflectionCoset(f"Z_{e}", [((zeta(e),),)], fld)
    if key in ("G4", "G_4"):
        z = zeta(3)
        s = ((z, 0), (0, 1))
        t = (((1 - z ** 2) / 3, 1),
             (-2 * z / 3, (2 * z + 1) / 3))
        return ReflectionCoset("G4", [s, t], CycloField.cyclotomic(3))
    if key in ("G(3,1,2)", "G312", "G_{3,1,2}"):
        s = ((zeta(3), 0), (0, 1))
        t = ((0, 1), (1, 0))
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
    def _relative_lifts(self) -> tuple:
        """P_G / P as ``class_sum`` lifts: by Molien, 1/P is the mean of
        1/det(1 - x l w), so P_G / P is that of the l w's class fake degrees."""
        G, size = self.parent, len(self.group_elements)
        counts = Counter(G.class_of(G._mul(l, self.twist)) for l in self.group_elements)
        return G.class_sum((ci, Cyclo.rational(Fraction(n, size))) for ci, n in counts.items())

    @cached_property
    def relative_poincare(self) -> LaurentPoly:
        """P_G / P, with constant term 1, read off :attr:`_relative_lifts`."""
        val, n, den, lifts = self._relative_lifts
        return LaurentPoly._of_lifts(val, n, den, [dict(g) for g in lifts])

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
    _, w_l = G.parabolic(w, eigval)
    # |N_W(L)| counts the v with v w v^-1 = l w in W_L w.  Such a v maps
    # V(w, eigval) onto V(l w, eigval), which holds V(w, eigval) (l fixes it)
    # and is no larger (its dimension a is maximal), so v also normalises
    # W_L.  Each member of the class of w is v w v^-1 for |G| / |class| v.
    ci = G.class_of(w)
    hits = sum(1 for l in w_l if G.class_of(G._mul(l, w)) == ci)
    return a, SubCoset(G, w_l, w, hits * G.order // G.classes[ci].size)
