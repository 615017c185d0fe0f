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
order variants, where L is the centralizer of a Sylow Phi-sub-coset.  The
quotient of the orders is read off L's relative Poincare polynomial
P_G / P_L (Molien), reversed, with each variant's power of x and unit; the
congruence is a zero test of the quotient less |W_G(L)| at the roots of Phi.
No order polynomial is built or divided on this path.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .cyclotomic import Cyclo, _convolve, _is_zero_lift, divisors, zeta
from .laurent import KCycloPoly, LaurentPoly, PackedLift, k_cyclotomic_factors
from .reflection import ReflectionCoset, SubCoset, sylow_subcoset

__all__ = [
    "order_poly",
    "reversal",
    "fake_degree_torus",
    "CharTable",
    "cyclic_char_table",
    "sylow_congruence",
    "all_sylow_congruences",
]


def order_poly(C: ReflectionCoset | SubCoset, variant: str = "compact") -> LaurentPoly:
    """The order of a coset or sub-coset from its Poincare polynomial P:
    prod(x^{d_i} - zeta_i) is the coefficient reversal rev(P), and the
    leading coefficient of P is (-1)^rank prod(zeta_i), so the noncompact
    unit conj(prod(zeta_i))^2 is its conjugate squared."""
    if variant not in ("compact", "noncompact"):
        raise ValueError(f"unknown order variant: {variant!r}")
    core = reversal(C.poincare)
    if variant == "compact":
        return core.shift(C.n_hyp)
    return (core * C.poincare.leading_coeff().conjugate() ** 2).shift(C.n_ref)


def reversal(P: LaurentPoly) -> LaurentPoly:
    """rev(P) = x^deg(P) P(1/x): prod(x^{d_i} - zeta_i) for a Poincare
    polynomial, and for a Levi's relative one P_G / P_L the order ratio
    |G| / |L| with its power of x divided out."""
    return LaurentPoly([(P.degree() - e, c) for e, c in P.coeffs])


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

    def _lifted(self, n: int = 1) -> tuple[int, int, dict[str, list[dict[int, int]]]]:
        """(N, den, lifts), N the lcm of n and the table's conductors: row a's
        value at class ci is lifts[a][ci](zeta_N) / den, each lifted once."""
        vs = [v for row in self.values.values() for v in row]
        N, den = lcm(n, *[v.n for v in vs]), lcm(*[v.den for v in vs])
        return N, den, {a: [v._lift(N, den // v.den) for v in self.values[a]] for a in self.names}

    @cached_property
    def fake_degrees(self) -> dict[str, LaurentPoly]:
        """Feg(theta) = (1/|W|) sum_c |c| conj(theta(c)) P / det(1 - x c) for
        every row, in one pass over the class fake degrees' lifts
        (``ReflectionCoset._class_lifts``), each rescaled once to N, the lcm
        of their conductors and the table's.  conj(theta(c)) is the lift of
        theta(c) at N with its exponents negated, times the integer |c|; |W|
        goes into the denominator, and one Cyclo is built per coefficient."""
        G = self.group
        fegs = [G._class_lifts(ci) for ci in range(len(G.classes))]
        N, dv, lifts = self._lifted(lcm(*[n for _, n, _, _ in fegs]))
        dc = lcm(*[d for _, _, d, _ in fegs])
        classes = [(val, [{t * (N // n): a for t, a in g.items()} for g in fl], c.size * (dc // d))
                   for (val, n, d, fl), c in zip(fegs, G.classes)]
        out = {}
        for name in self.names:
            sums: dict[int, dict[int, int]] = {}
            for (val, fl, k), v in zip(classes, lifts[name]):
                w = [(-t % N, a * k) for t, a in v.items()]
                for i, g in enumerate(fl):
                    _convolve(N, [(g, w)], sums.setdefault(val + i, {}))
            out[name] = LaurentPoly({e: Cyclo(N, g, G.order * dc * dv) for e, g in sums.items()})
        return out

    def verify_orthogonality(self) -> None:
        """sum_c |c| a(c) conj(b(c)) = |W| delta_ab for all rows a, b, with
        each value lifted once (``_lifted``) and conj(b(c)) its lift with the
        exponents negated: each pair is one integer lift, zero-tested once."""
        W = self.group
        N, den, lifts = self._lifted()
        conj = {b: [[(-t % N, a * c.size) for t, a in g.items()]
                    for g, c in zip(lifts[b], W.classes)] for b in self.names}
        for i, a in enumerate(self.names):
            for b in self.names[i:]:
                acc = _convolve(N, zip(lifts[a], conj[b]))
                if a == b:
                    acc[0] = acc.get(0, 0) - W.order * den * den
                if not _is_zero_lift(N, acc):
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


# -- Sylow congruences -------------------------------------------------------


def sylow_congruence(G: ReflectionCoset, phi: KCycloPoly) -> bool:
    """Check |G| / (|W_G(L)| |L|) = 1 mod Phi in both order variants.

    Both orders are x^N times a unit times rev(P) = prod(x^d_i - zeta_i), so
    their quotient is read off rel = P_G / P_L (``L._relative_lifts``):
    q = rev(rel) is monic, prod(x - rho) over the roots of |G| that |L|
    lacks; the compact quotient is x^(N_hyp(G) - N_hyp(L)) q, and the
    noncompact one x^(N_ref(G) - N_ref(L)) conj(zeta_G / zeta_L)^2 q, where
    zeta_G / zeta_L = lead(P_G) / lead(P_L) = lead(rel).  A q with a root
    off the roots of |G| means rev(P_L) does not divide rev(P_G), an
    ArithmeticError.  Phi is squarefree, so it divides the quotient over
    |W_G(L)| less 1 exactly when the quotient equals |W_G(L)| at each root
    z of Phi: z^(N_hyp(G) - N_hyp(L)) q(z) = |W_G(L)|, and the same with
    N_ref and |W_G(L)| over the unit.  q is packed once, from the integer
    sums at N (``_order_quotient``), for its roots and both tests.  No order
    polynomial is divided and no coefficient of rel is made canonical.
    """
    _, L = sylow_subcoset(G, phi)
    q, lead = _order_quotient(L)
    if q.roots(G.order_roots) is None:
        raise ArithmeticError("non-exact polynomial division")
    d, j = lead.root_of_unity_order()  # a root of unity, so 1 / conj(lead)^2 = lead^2
    c, roots = Cyclo.rational(L.relative_order), [(phi.root_order, k) for k in phi.root_exponents]
    return (all(q.value_is(z, G.n_hyp - L.n_hyp, c) for z in roots)
            and all(q.value_is(z, G.n_ref - L.n_ref, c * zeta(d, 2 * j)) for z in roots))


def _order_quotient(L: SubCoset) -> tuple[PackedLift, Cyclo]:
    """(q, lead(rel)), rel = P_G / P_L: q = rev(rel) packed from the sums of
    ``L._relative_lifts`` less their zero ends, and lead, the one Cyclo built."""
    _, n, den, lifts = L._relative_lifts
    lo = next(i for i, g in enumerate(lifts) if not _is_zero_lift(n, g))
    hi = next(i for i in range(len(lifts), lo, -1) if not _is_zero_lift(n, lifts[i - 1]))
    return (PackedLift(0, den, [(e, n, g.items(), 1) for e, g in enumerate(lifts[lo:hi][::-1])]),
            Cyclo(n, dict(lifts[hi - 1]), den))


def all_sylow_congruences(G: ReflectionCoset) -> list[tuple[KCycloPoly, bool]]:
    """Sylow congruences for every K-cyclotomic divisor of the order
    polynomial.  Phi is squarefree and the order splits into linear factors,
    so Phi divides it exactly when every root of Phi is in ``G.order_roots``."""
    roots = G.order_roots
    out = []
    for d in sorted({dd for dd, _ in G.degrees for dd in divisors(dd)}):
        for phi in k_cyclotomic_factors(d, G.field):
            if all((d, k) in roots for k in phi.root_exponents):
                out.append((phi, sylow_congruence(G, phi)))
    return out
