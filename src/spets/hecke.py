"""Cyclic Hecke algebras: Schur elements and one-variable spetsial specializations.

The central object is a cyclic algebra on parameters ``u_0, ..., u_{e-1}``.
Generic Schur elements specialize to Laurent polynomials once every parameter
is a monomial ``c * x^m``; the spetsial normal form fixes the parameters to
``u_j = zeta_e^j * (zeta^{-1} x)^{m_j}`` for a root of unity ``zeta`` and
rational exponents ``m_j``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm

from .cyclotomic import Cyclo, CycloField, zeta as zeta_root
from .laurent import FracExpMonomial, LaurentPoly

__all__ = [
    "CyclicHeckeParams",
    "SchurElement",
    "SpetsialAlgebraSpec",
    "ConditionReport",
    "schur_cyclic",
    "tau_pi",
    "check_spetsial",
    "compactify",
    "noncompactify",
    "ennola_twist",
    "omega_sigma_delta",
    "frobenius",
    "one_spetsial_spec",
    "parse_spec",
]


def _zeta_power(d: int, a: int, exp: Fraction) -> Cyclo:
    """A fixed choice of E(d, a) raised to the rational power ``exp``."""
    q = exp.denominator
    return zeta_root(d * q, a * exp.numerator)


@dataclass(frozen=True)
class CyclicHeckeParams:
    """Specialized parameters of a cyclic algebra of order ``e``."""

    e: int
    params: tuple[FracExpMonomial, ...]

    def __post_init__(self):
        if self.e != len(self.params):
            raise ValueError("parameter count must equal the cyclic order")
        if len(set(self.params)) != self.e:
            raise ValueError("parameters must be pairwise distinct")

    @staticmethod
    def of(items) -> "CyclicHeckeParams":
        conv = []
        for it in items:
            if isinstance(it, str):
                conv.append(FracExpMonomial.parse(it))
            elif isinstance(it, FracExpMonomial):
                conv.append(it)
            else:
                conv.append(FracExpMonomial.of(it))
        return CyclicHeckeParams(len(conv), tuple(conv))

    def v_denominator(self) -> int:
        return lcm(1, *(m.exp.denominator for m in self.params))


@dataclass(frozen=True)
class SchurElement:
    """A specialized Schur element, stored as a Laurent polynomial in ``v``.

    ``v^h = x``; when every parameter exponent is integral ``h = 1`` and the
    element is an honest Laurent polynomial in ``x``.
    """

    poly: LaurentPoly
    h: int
    index: int

    def sigma(self) -> Fraction:
        """Valuation plus degree, in units of ``x``."""
        return Fraction(self.poly.valuation() + self.poly.degree(), self.h)

    def as_x(self) -> LaurentPoly:
        if self.h != 1:
            raise ArithmeticError("Schur element has fractional x-exponents")
        return self.poly

    def serialize(self) -> str:
        if self.h == 1:
            return self.poly.serialize()
        terms = [FracExpMonomial(c, Fraction(e, self.h)).serialize()
                 for e, c in self.poly.coeffs]
        return " + ".join(terms)


def schur_cyclic(params: CyclicHeckeParams) -> list[SchurElement]:
    """Schur elements ``S_i = prod_{j != i} (u_j - u_i)/u_j``."""
    h = params.v_denominator()
    u = [LaurentPoly.monomial(m.coeff, int(m.exp * h)) for m in params.params]
    out = []
    for i in range(params.e):
        num = LaurentPoly.one()
        den = LaurentPoly.one()
        for j in range(params.e):
            if j == i:
                continue
            num = num * (u[j] - u[i])
            den = den * u[j]
        out.append(SchurElement(num.exact_div(den), h, i))
    return out


def tau_pi(params: CyclicHeckeParams, n_ref: int | None = None) -> FracExpMonomial:
    """The central monomial ``(-1)^{N^ref} prod_j u_j``."""
    if n_ref is None:
        n_ref = params.e - 1
    prod = FracExpMonomial.of((-1) ** (n_ref % 2))
    for m in params.params:
        prod = prod * m
    return prod


@dataclass(frozen=True)
class SpetsialAlgebraSpec:
    """A one-variable cyclic algebra in spetsial normal form.

    ``u_j = zeta_e^j (zeta^{-1} x)^{m_j}`` where ``zeta = E(d, a)`` is the
    eigenvalue attached to the series and ``delta`` is the twist order
    (1 for split cosets).  ``n_ref``/``n_hyp`` are reflection counts of the
    ambient group, used by the variant conditions and the sigma statistics.
    """

    e: int
    d: int
    a: int
    m: tuple[Fraction, ...]
    variant: str = "compact"
    delta: int = 1
    n_ref: int = 0
    n_hyp: int = 0
    label: str = ""

    def __post_init__(self):
        if self.variant not in ("compact", "noncompact"):
            raise ValueError(f"unknown variant: {self.variant!r}")
        if len(self.m) != self.e:
            raise ValueError("need one exponent per cyclic parameter")
        object.__setattr__(self, "m", tuple(Fraction(v) for v in self.m))

    @property
    def zeta(self) -> Cyclo:
        return zeta_root(self.d, self.a)

    @property
    def name(self) -> str:
        return self.label or f"Z_{self.e}"

    def params(self) -> CyclicHeckeParams:
        mons = []
        for j, mj in enumerate(self.m):
            coeff = zeta_root(self.e, j) * _zeta_power(self.d, -self.a, mj)
            mons.append(FracExpMonomial(coeff, mj))
        return CyclicHeckeParams(self.e, tuple(mons))

    @cached_property
    def _schur(self) -> tuple[SchurElement, ...]:
        return tuple(schur_cyclic(self.params()))

    def schur(self) -> list[SchurElement]:
        return list(self._schur)

    def normalize(self) -> "SpetsialAlgebraSpec":
        """Scale the parameters so the lowest x-exponent is zero."""
        low = min(self.m)
        if low == 0:
            return self
        return replace(self, m=tuple(v - low for v in self.m))

    def serialize(self) -> str:
        inner = ", ".join(u.serialize() for u in self.params().params)
        return f"H_{{{self.name}}}({inner})"

    @staticmethod
    def from_params(params: CyclicHeckeParams, d: int, a: int,
                    variant: str = "compact", delta: int = 1,
                    n_ref: int = 0, n_hyp: int = 0,
                    label: str = "") -> "SpetsialAlgebraSpec":
        """Recover the normal form (j, m_j) from a specialized parameter set."""
        e = params.e
        m = [None] * e
        for mon in params.params:
            root = mon.coeff * _zeta_power(d, a, mon.exp)
            order = root.root_of_unity_order()
            if order is None:
                raise ValueError(f"parameter {mon.serialize()} is not in spetsial form")
            n, k = order
            if e % n:
                raise ValueError(f"parameter {mon.serialize()} is not an e-th root slot")
            j = (k * (e // n)) % e
            if m[j] is not None:
                raise ValueError("two parameters occupy the same root-of-unity slot")
            m[j] = mon.exp
        if any(v is None for v in m):
            raise ValueError("parameters do not exhaust the e-th roots of unity")
        return SpetsialAlgebraSpec(e=e, d=d, a=a, m=tuple(m), variant=variant,
                                   delta=delta, n_ref=n_ref, n_hyp=n_hyp, label=label)

    def __repr__(self) -> str:
        return f"SpetsialAlgebraSpec({self.serialize()}, zeta=E({self.d},{self.a}))"


def one_spetsial_spec(e: int, n_ref: int | None = None,
                      n_hyp: int | None = None) -> SpetsialAlgebraSpec:
    """The compact 1-series algebra of a cyclic group: parameters (x, zeta_e, ...)."""
    m = (Fraction(1),) + (Fraction(0),) * (e - 1)
    return SpetsialAlgebraSpec(e=e, d=1, a=0, m=m, variant="compact",
                               n_ref=e - 1 if n_ref is None else n_ref,
                               n_hyp=1 if n_hyp is None else n_hyp)


_SPEC_RE = re.compile(r"H_\{(?P<label>[^}]*)\}\((?P<inner>.*)\)$")


def parse_spec(text: str, d: int, a: int, variant: str = "compact",
               delta: int = 1, n_ref: int = 0, n_hyp: int = 0) -> SpetsialAlgebraSpec:
    """Parse ``H_{Z_e}(p_0, ..., p_{e-1})`` given the series eigenvalue E(d, a)."""
    m = _SPEC_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"cannot parse algebra spec: {text!r}")
    parts = _split_top(m.group("inner"))
    params = CyclicHeckeParams.of(parts)
    return SpetsialAlgebraSpec.from_params(params, d, a, variant=variant, delta=delta,
                                           n_ref=n_ref, n_hyp=n_hyp,
                                           label=m.group("label"))


def _split_top(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts]


# -- variant transforms -----------------------------------------------------------


def noncompactify(spec: SpetsialAlgebraSpec) -> SpetsialAlgebraSpec:
    if spec.variant != "compact":
        raise ValueError("expected a compact-variant spec")
    return _flip_variant(spec, "noncompact")


def compactify(spec: SpetsialAlgebraSpec) -> SpetsialAlgebraSpec:
    if spec.variant != "noncompact":
        raise ValueError("expected a noncompact-variant spec")
    return _flip_variant(spec, "compact")


def _flip_variant(spec: SpetsialAlgebraSpec, new_variant: str) -> SpetsialAlgebraSpec:
    # parameters map to (zeta^{-1}x)^{m_I} / u_j with m_I = e_W / e_I
    m_i = Fraction(spec.n_ref + spec.n_hyp, spec.e)
    new_m = tuple(m_i - spec.m[(-j) % spec.e] for j in range(spec.e))
    return replace(spec, m=new_m, variant=new_variant)


def ennola_twist(spec: SpetsialAlgebraSpec, eps: Cyclo) -> SpetsialAlgebraSpec:
    """Substitute x -> eps^{-1} x, moving the spec to the eps*zeta series."""
    order = eps.root_of_unity_order()
    if order is None:
        raise ValueError("Ennola twist requires a root of unity")
    z = spec.zeta * eps
    d, a = z.root_of_unity_order() or (1, 0)
    return replace(spec, d=d, a=a)


# -- statistics attached to characters ---------------------------------------------


def omega_sigma_delta(spec: SpetsialAlgebraSpec, i: int
                      ) -> tuple[FracExpMonomial, Fraction, Fraction]:
    """Central character on pi, sigma and delta statistics of character ``i``."""
    sch = spec.schur()[i]
    sigma = sch.sigma()
    n = spec.n_hyp if spec.variant == "compact" else spec.n_ref
    expo = n + sigma
    omega = FracExpMonomial(_zeta_power(spec.d, -spec.a, Fraction(expo)), Fraction(expo))
    delta_chi = spec.n_ref - sigma
    if spec.variant == "compact":
        # cross-check: e * m_i = N^hyp + sigma for the spetsial normal form
        if spec.e * spec.m[i] != spec.n_hyp + sigma:
            raise ArithmeticError(
                f"sigma statistic inconsistent with exponent m_{i} = {spec.m[i]}")
    return omega, sigma, delta_chi


def frobenius_model(e: int, d: int, a: int, i: int, delta_rho: Fraction,
                    delta: int = 1) -> tuple[FracExpMonomial, ...]:
    """Frobenius eigenvalue candidates from the (a, A) statistics alone.

    Returns ``lam * x^mu`` with ``mu`` reduced mod 1; when ``mu = p/q`` with
    ``q > 1`` the full q-element set of candidates is returned.
    """
    k = Fraction(a * e * delta, d)
    if k.denominator != 1:
        raise ArithmeticError("central element is not a power of the braid generator")
    omega_theta = zeta_root(e, i * int(k))
    expo = Fraction(delta_rho * a * delta, d)
    lam = omega_theta * _zeta_power(d, a, expo) if a else omega_theta
    mu = (-expo) % 1
    q = mu.denominator
    if q == 1:
        return (FracExpMonomial(lam, Fraction(0)),)
    return tuple(FracExpMonomial(lam * zeta_root(q, t), mu) for t in range(q))


def frobenius(spec: SpetsialAlgebraSpec, i: int) -> tuple[FracExpMonomial, ...]:
    """Frobenius eigenvalue(s) of character ``i`` of the series."""
    delta_rho = spec.n_ref - spec.schur()[i].sigma()
    return frobenius_model(spec.e, spec.d, spec.a, i, delta_rho, spec.delta)


# -- the spetsial condition report --------------------------------------------------


@dataclass
class ConditionReport:
    conditions: dict[str, bool]
    messages: list[str]
    chi0: int | None = None

    @property
    def passed(self) -> bool:
        return all(self.conditions.values())

    def failures(self) -> list[str]:
        return [k for k, ok in self.conditions.items() if not ok]


def _elementary_symmetric(params: CyclicHeckeParams) -> list[dict[Fraction, Cyclo]]:
    """Coefficients of prod (t - u_j) as polynomials in x, lowest t-degree first."""
    # elem[k] accumulates e_k(u) with a sign (-1)^k folded in later by the caller
    elem: list[dict[Fraction, Cyclo]] = [{Fraction(0): Cyclo.rational(1)}]
    for mon in params.params:
        new = [dict(d) for d in elem] + [{}]
        for k in range(len(elem)):
            for ex, c in elem[k].items():
                tgt = new[k + 1]
                key = ex + mon.exp
                tgt[key] = tgt.get(key, Cyclo.rational(0)) + c * mon.coeff
        elem = new
    return elem


def check_spetsial(spec: SpetsialAlgebraSpec, G=None, w=None) -> ConditionReport:
    """Evaluate the defining conditions of a spetsial cyclotomic algebra.

    ``G`` and ``w`` (the ambient coset and regular element) enable the
    divisibility test of the Schur elements into the twisted fake degree.
    """
    conds: dict[str, bool] = {}
    msgs: list[str] = []
    params = spec.params()
    zeta = spec.zeta

    # CA1: coefficients of prod(t - u_j) lie in the character field of the series
    field = CycloField.cyclotomic(lcm(spec.e, spec.d))
    elem = _elementary_symmetric(params)
    conds["CA1"] = all(field.contains(c) for layer in elem for c in layer.values())
    q = params.v_denominator()
    if q > 1:
        # rationality of fractional exponents: v -> zeta_q v permutes parameters
        twist = {FracExpMonomial(mon.coeff * _zeta_power(q, 1, mon.exp * q), mon.exp)
                 for mon in params.params}
        ok = twist == set(params.params)
        conds["CA1"] = conds["CA1"] and ok
        if not ok:
            msgs.append("fractional exponents are not Galois-stable")

    # CA2: specializing x -> zeta yields the group algebra parameters
    at_zeta = {(mon.coeff * _zeta_power(spec.d, spec.a, mon.exp)).serialize()
               for mon in params.params}
    expected = {zeta_root(spec.e, j).serialize() for j in range(spec.e)}
    conds["CA2"] = at_zeta == expected

    # variant condition on the constant term prod(-u_j)
    const = FracExpMonomial.of((-1) ** (spec.e % 2))
    for mon in params.params:
        const = const * mon
    n_target = spec.n_hyp if spec.variant == "compact" else spec.n_ref
    want = FracExpMonomial(-_zeta_power(spec.d, -spec.a, Fraction(n_target)),
                           Fraction(n_target))
    key = "CS" if spec.variant == "compact" else "NCS"
    conds[key] = const == want

    schur = spec.schur()
    if any(s.h != 1 for s in schur):
        msgs.append("fractional exponents: Schur integrality checked in v")
    polys = [s.poly for s in schur]

    # SC1: Schur elements are integral Laurent polynomials
    conds["SC1"] = all(c.is_integral() for p in polys for _, c in p.coeffs)

    # SC2: a unique divisibility-maximal character; Laurent associates are
    # separated by the valuation-zero representative
    maximal = [i for i, p in enumerate(polys)
               if all(q_.divides(p) for q_ in polys)]
    if len(maximal) > 1:
        maximal = [i for i in maximal if polys[i].valuation() == 0]
    conds["SC2"] = len(maximal) == 1
    chi0 = maximal[0] if len(maximal) == 1 else None

    # SC3: every Schur element divides the fake degree of the series
    if G is not None and w is not None and all(s.h == 1 for s in schur):
        from .orders import fake_degree_torus
        feg = fake_degree_torus(G, w)
        conds["SC3"] = all(p.divides(feg) for p in polys)
    else:
        msgs.append("SC3 skipped: no ambient coset supplied")

    return ConditionReport(conditions=conds, messages=msgs, chi0=chi0)
