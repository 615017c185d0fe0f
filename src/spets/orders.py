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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cyclotomic import Cyclo, divisors, sum_of_products, zeta
from .laurent import KCycloPoly, LaurentPoly, k_cyclotomic_factors
from .reflection import (Matrix, ReflectionCoset, SubCoset, coset_poincare,
                         sylow_subcoset)

__all__ = [
    "poincare",
    "order_poly",
    "subcoset_order",
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


def order_poly(G: ReflectionCoset, variant: str = "compact") -> LaurentPoly:
    return _order_from_degrees(G.degrees, G.n_ref, G.n_hyp, variant)


def _order_from_degrees(degrees: Sequence[tuple[int, Cyclo]], n_ref: int,
                        n_hyp: int, variant: str) -> LaurentPoly:
    core = LaurentPoly.one()
    zprod = Cyclo.rational(1)
    for d, z in degrees:
        core = core * LaurentPoly({d: 1, 0: -z})
        zprod = zprod * z
    if variant == "compact":
        return core.shift(n_hyp)
    if variant == "noncompact":
        scale = (zprod.conjugate()) ** 2
        return (core * scale).shift(n_ref)
    raise ValueError(f"unknown order variant: {variant!r}")


def subcoset_order(L: SubCoset, variant: str = "compact") -> LaurentPoly:
    mats = L.coset_matrices()
    rank = mats[0].n
    p = coset_poincare([(m, 1) for m in mats], len(mats), rank)
    # prod(x^{d_i} - zeta_i) is the coefficient reversal of P
    deg = p.degree()
    core = LaurentPoly([(deg - e, c) for e, c in p.coeffs])
    zprod = p.leading_coeff() * ((-1) ** rank)
    # W_L is a subgroup of W, so its reflections are those of W lying in it
    members = set(L.group_elements)
    refl = [g for g in L.parent.reflections if g in members]
    n_ref = len(refl)
    n_hyp = len({tuple(c.serialize() for c in _root_line(g)) for g in refl})
    if variant == "compact":
        return core.shift(n_hyp)
    if variant == "noncompact":
        return (core * (zprod.conjugate() ** 2)).shift(n_ref)
    raise ValueError(f"unknown order variant: {variant!r}")


def _root_line(g: Matrix) -> tuple[Cyclo, ...]:
    from .reflection import _canonical_line, _image_vector
    return _canonical_line(_image_vector(g))


def torus_order(G: ReflectionCoset, w: Matrix, variant: str = "compact") -> LaurentPoly:
    """Order polynomial of the twisted torus (V, w)."""
    cp = w.charpoly()  # det(x - w)
    if variant == "compact":
        return cp
    if variant == "noncompact":
        scale = (w.det().conjugate()) ** 2
        return cp * scale
    raise ValueError(f"unknown order variant: {variant!r}")


def fake_degree_torus(G: ReflectionCoset, w: Matrix) -> LaurentPoly:
    """Feg(R_w): the graded multiplicity polynomial of the torus induction."""
    return G.poincare.conjugate().exact_div(w.det_one_minus_x().conjugate())


@dataclass(frozen=True)
class CharTable:
    """An exact character table aligned with ``G.classes``."""

    group: ReflectionCoset
    names: tuple[str, ...]
    values: dict[str, tuple[Cyclo, ...]]

    def degree(self, name: str) -> int:
        d = self.values[name][self._identity_class()].as_rational()
        assert d is not None and d.denominator == 1
        return int(d)

    def _identity_class(self) -> int:
        ident = Matrix.identity(self.group.rank)
        return self.group.class_of(ident)

    def value(self, name: str, g: Matrix) -> Cyclo:
        return self.values[name][self.group.class_of(g)]

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
        (q, t.conjugate() * Fraction(cls.size, G.order))
        for q, t, cls in zip(G.class_fake_degrees, table.values[name], G.classes))


# -- Sylow congruences -------------------------------------------------------


def sylow_congruence(G: ReflectionCoset, phi: KCycloPoly) -> bool:
    """Check |G| / (|W_G(L)| |L|) = 1 mod Phi in both order variants."""
    a, L = sylow_subcoset(G, phi)
    for variant in ("compact", "noncompact"):
        num = order_poly(G, variant)
        den = subcoset_order(L, variant) * Fraction(L.relative_order)
        ratio = num.exact_div(den)
        if not (ratio - 1).reduce_mod(phi.poly).is_zero():
            return False
    return True


def all_sylow_congruences(G: ReflectionCoset) -> list[tuple[KCycloPoly, bool]]:
    """Sylow congruences for every K-cyclotomic divisor of the order polynomial."""
    order = order_poly(G)
    out = []
    for d in sorted({dd for dd, _ in G.degrees for dd in divisors(dd)}):
        for phi in k_cyclotomic_factors(d, G.field):
            if phi.poly.divides(order):
                out.append((phi, sylow_congruence(G, phi)))
    return out
