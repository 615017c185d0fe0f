"""Order polynomials, torus orders, and fake degrees of reflection cosets.

Conventions (split coset, Poincare polynomial ``P = prod(1 - zeta_i x^{d_i})``):

* compact order       ``|G|_c  = conj(Delta) x^{n_hyp} prod (x^{d_i} - zeta_i)``
* non-compact order   ``|G|_nc = (prod conj(zeta_i))^2 x^{n_ref} prod (x^{d_i} - zeta_i)``
* torus order         ``|T_w|_c = det(x - w)``
* fake degree         ``Feg(R_w) = conj(P_G) / conj(det(1 - x w))``
* character fake degree ``Feg(theta) = (1/|W|) sum_c |c| conj(theta(c)) conj(Feg(R_c))``

Sylow counting: for each K-cyclotomic Phi dividing the order polynomial the
quotient ``|G| / (|W_G(L)| |L|)`` is congruent to 1 modulo Phi, in both
order variants, where L is the centralizer of a Sylow Phi-sub-coset.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .cyclotomic import Cyclo, divisors, sum_of_products, zeta
from .laurent import KCycloPoly, LaurentPoly, k_cyclotomic_factors
from .reflection import Matrix, ReflectionCoset, SubCoset, sylow_subcoset

__all__ = [
    "poincare",
    "order_poly",
    "torus_order",
    "fake_degree_torus",
    "fake_degree_char",
    "CharTable",
    "cyclic_char_table",
    "sylow_congruence",
    "all_sylow_congruences",
]


def poincare(G: ReflectionCoset) -> LaurentPoly:
    """The coset Poincare polynomial prod(1 - zeta_i x^{d_i})."""
    return G.poincare


def order_poly(C: ReflectionCoset | SubCoset, variant: str = "compact") -> LaurentPoly:
    """The order of a coset or sub-coset from its Poincare polynomial P:
    prod(x^{d_i} - zeta_i) is the coefficient reversal rev(P), and the
    leading coefficient of P is (-1)^rank prod(zeta_i)."""
    if variant not in ("compact", "noncompact"):
        raise ValueError(f"unknown order variant: {variant!r}")
    P = C.poincare
    core = LaurentPoly([(P.degree() - e, c) for e, c in P.coeffs])
    if variant == "compact":
        return core.shift(C.n_hyp)
    zprod = P.leading_coeff() * ((-1) ** C.rank)
    return (core * (zprod.conjugate() ** 2)).shift(C.n_ref)


def torus_order(G: ReflectionCoset, w: Matrix, variant: str = "compact") -> LaurentPoly:
    """Order polynomial of the twisted torus (V, w): the sub-coset with
    trivial W_L, whose normaliser is the centralizer of w."""
    torus = SubCoset(G, (G.elements[0],), w, len(G.centralizer(w)))
    return order_poly(torus, variant)


def fake_degree_torus(G: ReflectionCoset, w: Matrix) -> LaurentPoly:
    """Feg(R_w): the graded multiplicity polynomial of the torus induction."""
    return G.class_fake_degree(G.class_of(w)).conjugate()


class CharTable:
    """An exact character table aligned with ``G.classes``."""

    def __init__(self, group: ReflectionCoset, names: tuple[str, ...],
                 values: dict[str, tuple[Cyclo, ...]]):
        self.__dict__.update(group=group, names=names, values=values)

    def __setattr__(self, *a):
        raise AttributeError("CharTable is immutable")

    def degree(self, name: str) -> int:
        # classes sort by element order first, so class 0 is the identity
        d = self.values[name][0].as_rational()
        assert d is not None and d.denominator == 1
        return int(d)

    def value(self, name: str, g: Matrix) -> Cyclo:
        return self.values[name][self.group.class_of(g)]

    @cached_property
    def fake_degrees(self) -> dict[str, LaurentPoly]:
        """Feg(theta) for every row, computed once per table."""
        return {name: fake_degree_char(self, name) for name in self.names}

    def verify_orthogonality(self) -> None:
        W = self.group
        for i, a in enumerate(self.names):
            for b in self.names[i:]:
                acc = sum_of_products((u, v.conjugate() * cls.size) for u, v, cls
                                      in zip(self.values[a], self.values[b], W.classes))
                want = Cyclo.rational(W.order if a == b else 0)
                if acc != want:
                    raise ArithmeticError(
                        f"character table fails orthogonality at ({a}, {b})")


def cyclic_char_table(G: ReflectionCoset) -> CharTable:
    """Character table of a cyclic (rank-one or scalar-generated) group."""
    e = G.order
    gen = next(g for g in G.elements if G.element_order(g) == e)
    # identify each class representative as a power of gen
    powers = {m: k for k, m in enumerate(G.powers(gen))}
    names = []
    values: dict[str, tuple[Cyclo, ...]] = {}
    for j in range(e):
        name = f"chi{j}"
        names.append(name)
        values[name] = tuple(zeta(e, (j * powers[G.elements[c.rep_index]]) % e)
                             for c in G.classes)
    return CharTable(G, tuple(names), values)


def fake_degree_char(table: CharTable, name: str) -> LaurentPoly:
    """Feg(theta) for an irreducible character given by its table row."""
    G = table.group
    return LaurentPoly.combination(
        (G.class_fake_degree(ci), t.conjugate() * Fraction(cls.size, G.order))
        for ci, (t, cls) in enumerate(zip(table.values[name], G.classes)))


# -- Sylow congruences -------------------------------------------------------


def sylow_congruence(G: ReflectionCoset, phi: KCycloPoly) -> bool:
    """Check |G| / (|W_G(L)| |L|) = 1 mod Phi in both order variants."""
    a, L = sylow_subcoset(G, phi)
    for variant in ("compact", "noncompact"):
        num = order_poly(G, variant)
        den = order_poly(L, variant) * Fraction(L.relative_order)
        if not _divides(phi, num.exact_div(den) - 1):
            return False
    return True


def _divides(phi: KCycloPoly, f: LaurentPoly) -> bool:
    """Phi | f: Phi is squarefree, so exactly when f vanishes at its roots."""
    return all(f.vanishes_at([(phi.root_order, k) for k in phi.root_exponents]))


def all_sylow_congruences(G: ReflectionCoset) -> list[tuple[KCycloPoly, bool]]:
    """Sylow congruences for every K-cyclotomic divisor of the order polynomial."""
    order = order_poly(G)
    out = []
    for d in sorted({dd for dd, _ in G.degrees for dd in divisors(dd)}):
        for phi in k_cyclotomic_factors(d, G.field):
            if _divides(phi, order):
                out.append((phi, sylow_congruence(G, phi)))
    return out
