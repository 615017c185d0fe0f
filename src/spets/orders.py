"""Order polynomials, torus orders, and fake degrees of reflection cosets.

Conventions (split coset, Poincare polynomial ``P = prod(1 - zeta_i x^{d_i})``):

* compact order       ``|G|_c  = x^{n_hyp} prod (x^{d_i} - zeta_i)``, with no unit
* non-compact order   ``|G|_nc = (prod conj(zeta_i))^2 x^{n_ref} prod (x^{d_i} - zeta_i)``
* torus order         ``|T_w|_c = det(x - w)``
* fake degree         ``Feg(R_w) = conj(P_G) / conj(det(1 - x w))``
* character fake degree ``Feg(theta) = (1/|W|) sum_c |c| conj(theta(c)) conj(Feg(R_c))``

For a twisted sub-coset with prod zeta_i != 1 the compact order may lack a
unit (``tests/test_orders.py::TestSylow::test_g26_fails_at_two_phi12_factors``).

Sylow counting: for each K-cyclotomic Phi dividing the order polynomial the
quotient ``|G| / (|W_G(L)| |L|)`` is congruent to 1 modulo Phi, in both
order variants, where L is the centralizer of a Sylow Phi-sub-coset.  Both
orders split into linear factors over roots of unity, so the congruence is
decided on root multisets: the quotient is a product of x - rho over the
roots of G's order not taken by L's, and its value at each root of Phi is
compared with |W_G(L)| by an exact zero test on an integer lift.  No order
polynomial is built or divided on this path.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .cyclotomic import Cyclo, CycloSum, _to_basis, divisors, zeta
from .laurent import KCycloPoly, LaurentPoly, k_cyclotomic_factors
from .reflection import ReflectionCoset, SubCoset, sylow_subcoset

__all__ = [
    "poincare",
    "order_poly",
    "torus_order",
    "fake_degree_torus",
    "fake_degree_char",
    "CharTable",
    "cyclic_char_table",
    "order_roots",
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
    core = _reversal(C.poincare)
    if variant == "compact":
        return core.shift(C.n_hyp)
    return (core * (_zeta_product(C).conjugate() ** 2)).shift(C.n_ref)


def _reversal(P: LaurentPoly) -> LaurentPoly:
    """rev(P) = x^deg(P) P(1/x), which is prod(x^{d_i} - zeta_i)."""
    return LaurentPoly([(P.degree() - e, c) for e, c in P.coeffs])


def _zeta_product(C: ReflectionCoset | SubCoset) -> Cyclo:
    """prod(zeta_i): the leading coefficient of P times (-1)^rank."""
    return C.poincare.leading_coeff() * ((-1) ** C.rank)


def torus_order(G: ReflectionCoset, w: int, variant: str = "compact") -> LaurentPoly:
    """Order polynomial of the twisted torus (V, w): the sub-coset with
    trivial W_L, whose normaliser is the centralizer of w, of order |G|
    divided by the size of the class of w."""
    torus = SubCoset(G, (0,), w, G.order // G.classes[G.class_of(w)].size)
    return order_poly(torus, variant)


def fake_degree_torus(G: ReflectionCoset, w: int) -> LaurentPoly:
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

    def value(self, name: str, g: int) -> Cyclo:
        return self.values[name][self.group.class_of(g)]

    @cached_property
    def fake_degrees(self) -> dict[str, LaurentPoly]:
        """Feg(theta) for every row, computed once per table."""
        return {name: fake_degree_char(self, name) for name in self.names}

    def verify_orthogonality(self) -> None:
        """sum_g a(g) conj(b(g)) = |W| delta_ab for all rows a, b, each row conjugated
        and weighted by the class sizes once, each pair a ``CycloSum.is_zero`` test."""
        W = self.group
        conj = {b: [v.conjugate() * cls.size for v, cls in zip(self.values[b], W.classes)]
                for b in self.names}
        for i, a in enumerate(self.names):
            for b in self.names[i:]:
                acc = CycloSum()
                for u, v in zip(self.values[a], conj[b]):
                    acc.add(u, v)
                acc.add(Cyclo.rational(-W.order if a == b else 0))
                if not acc.is_zero():
                    raise ArithmeticError(
                        f"character table fails orthogonality at ({a}, {b})")


def cyclic_char_table(G: ReflectionCoset) -> CharTable:
    """Character table of a cyclic (rank-one or scalar-generated) group."""
    e = G.order
    gen = next(g for g in range(e) if G.element_order(g) == e)
    # identify each class representative as a power of gen
    powers = {m: k for k, m in enumerate(G.powers(gen))}
    names = []
    values: dict[str, tuple[Cyclo, ...]] = {}
    for j in range(e):
        name = f"chi{j}"
        names.append(name)
        values[name] = tuple(zeta(e, (j * powers[c.rep_index]) % e)
                             for c in G.classes)
    return CharTable(G, tuple(names), values)


def fake_degree_char(table: CharTable, name: str) -> LaurentPoly:
    """Feg(theta) for an irreducible character given by its table row."""
    G = table.group
    return LaurentPoly.combination(
        (G.class_fake_degree(ci), t.conjugate() * Fraction(cls.size, G.order))
        for ci, (t, cls) in enumerate(zip(table.values[name], G.classes)))


# -- Sylow congruences -------------------------------------------------------


def order_roots(G: ReflectionCoset) -> Counter:
    """The nonzero roots of the order of G, those of prod(x^d_i - 1) as G
    is split: the d_i-th roots of unity, with multiplicity, as reduced pairs
    (m, r) for E(m, r)."""
    return Counter((d // gcd(k, d), k // gcd(k, d)) for d, _ in G.degrees for k in range(d))


def sylow_congruence(G: ReflectionCoset, phi: KCycloPoly) -> bool:
    """Check |G| / (|W_G(L)| |L|) = 1 mod Phi in both order variants.

    Both orders are x^N times a unit times rev(P) = prod(x^d_i - zeta_i), a
    monic product of linear factors over roots of unity.  The roots R_L of
    rev(P_L) are its multiplicities capped at R_G = ``order_roots(G)``, so
    rev(P_G) / rev(P_L) = prod(x - rho) over the multiset R_G - R_L; a
    shortfall means rev(P_L) does not divide rev(P_G), an ArithmeticError.
    Phi is squarefree, so it divides q - 1 exactly when q = 1 at each root
    z of Phi.  prod(z - rho) is formed once per z on Z[x]/(x^n - 1); each
    variant's power of z and unit conj(zeta_G / zeta_L)^2 are index shifts;
    and the value minus |W_G(L)| is zero exactly when its rewrite on the
    Zumbroich basis, a Q-basis, is empty.  No order polynomial is divided.
    """
    _, L = sylow_subcoset(G, phi)
    roots = order_roots(G)
    mults = _reversal(L.poincare).roots(roots)
    if mults is None:
        raise ArithmeticError("non-exact polynomial division")
    quotient = roots - mults
    (ng, g), (nl, l) = (_zeta_product(C).root_of_unity_order() for C in (G, L))
    d = phi.root_order
    n = lcm(d, ng, nl, *[m for m, _ in quotient])
    unit = 2 * (l * (n // nl) - g * (n // ng))
    c = L.relative_order
    for k in phi.root_exponents:
        a = k * (n // d)
        acc = {0: 1}
        for (m, r), mult in quotient.items():
            b = r * (n // m)
            for _ in range(mult):
                nxt: dict[int, int] = {}
                for e, v in acc.items():
                    i, j = (e + a) % n, (e + b) % n
                    nxt[i] = nxt.get(i, 0) + v
                    nxt[j] = nxt.get(j, 0) - v
                acc = nxt
        for s in (a * (G.n_hyp - L.n_hyp), a * (G.n_ref - L.n_ref) + unit):
            value = {(i + s) % n: v for i, v in acc.items()}
            value[0] = value.get(0, 0) - c
            if _to_basis(n, value):
                return False
    return True


def all_sylow_congruences(G: ReflectionCoset) -> list[tuple[KCycloPoly, bool]]:
    """Sylow congruences for every K-cyclotomic divisor of the order
    polynomial.  Phi is squarefree and the order splits into linear factors,
    so Phi divides it exactly when every root of Phi is in ``order_roots``."""
    roots = order_roots(G)
    out = []
    for d in sorted({dd for dd, _ in G.degrees for dd in divisors(dd)}):
        for phi in k_cyclotomic_factors(d, G.field):
            if all((d, k) in roots for k in phi.root_exponents):
                out.append((phi, sylow_congruence(G, phi)))
    return out
