"""Cyclic Hecke algebras: Schur elements and one-variable spetsial specializations.

The central object is a cyclic algebra on parameters ``u_0, ..., u_{e-1}``.
Generic Schur elements specialize to Laurent polynomials once every parameter
is a monomial ``c * x^m``; the spetsial normal form fixes the parameters to
``u_j = zeta_e^j * (zeta^{-1} x)^{m_j}`` for a root of unity ``zeta`` and
rational exponents ``m_j``.

In that form every parameter is a root of unity times a power of
v = x^(1/h), so :func:`check_spetsial` decides rationality (CA1) by a Galois
permutation of the parameters and divisibility of Schur elements (SC2,
SC3) by inclusion of root multisets.  Each is exact, by unique factorisation
over the cyclotomic numbers, and no Schur element is built; CA2 and SC1
hold by the normal form.  A Schur element is kept as its binomials:
:func:`schur_quotients` peels them off a dividend, :func:`ariki_koike_schur`
lists them for the Ariki-Koike algebra, and only :func:`schur_cyclic`, for
``spets schur`` and :meth:`SpetsialAlgebraSpec.schur`, multiplies them out.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import Cyclo, _convolve, zeta as zeta_root
from .laurent import FracExpMonomial, LaurentPoly, _serialize_terms

__all__ = [
    "CyclicHeckeParams",
    "SchurElement",
    "SpetsialAlgebraSpec",
    "ConditionReport",
    "schur_cyclic",
    "check_spetsial",
    "compactify",
    "noncompactify",
    "ennola_twist",
    "omega_sigma_delta",
    "frobenius",
    "one_spetsial_spec",
    "parse_spec",
    "ariki_koike_schur",
]


def _zeta_power(d: int, a: int, exp: Fraction) -> Cyclo:
    """A fixed choice of E(d, a) raised to the rational power ``exp``."""
    q = exp.denominator
    return zeta_root(d * q, a * exp.numerator)


class CyclicHeckeParams:
    """Specialized parameters of a cyclic algebra of order ``e``."""

    def __init__(self, e: int, params: tuple[FracExpMonomial, ...]):
        self.__dict__.update(e=e, params=params)
        self.__post_init__()

    def __setattr__(self, *a):
        raise AttributeError("CyclicHeckeParams is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not CyclicHeckeParams:
            return NotImplemented
        return self.e == other.e and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.e, self.params))

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

    def angles(self) -> tuple[int, int, list[tuple[int, int]]]:
        """(h, T, [(k_j, t_j)]) with u_j = E(T, t_j) * v^(k_j) and v^h = x,
        when every coefficient is a root of unity."""
        orders = [m.coeff.root_of_unity_order() for m in self.params]
        if None in orders:
            raise ArithmeticError("a parameter's coefficient is not a root of unity")
        h, T = self.v_denominator(), lcm(1, *(n for n, _ in orders))
        return h, T, [(int(m.exp * h), k * (T // n)) for m, (n, k) in zip(self.params, orders)]


class SchurElement:
    """A specialized Schur element, stored as a Laurent polynomial in ``v``.

    ``v^h = x``; when every parameter exponent is integral ``h = 1`` and the
    element is an honest Laurent polynomial in ``x``.
    """

    def __init__(self, poly: LaurentPoly, h: int, index: int):
        self.__dict__.update(poly=poly, h=h, index=index)

    def __setattr__(self, *a):
        raise AttributeError("SchurElement is immutable")

    def sigma(self) -> Fraction:
        """Valuation plus degree, in units of ``x``."""
        return Fraction(self.poly.valuation() + self.poly.degree(), self.h)

    def as_x(self) -> LaurentPoly:
        if self.h != 1:
            raise ArithmeticError("Schur element has fractional x-exponents")
        return self.poly

    def serialize(self) -> str:
        """The ``LaurentPoly`` grammar in x, where v^k is x^(k/h)."""
        return _serialize_terms((Fraction(e, self.h), c) for e, c in reversed(self.poly.coeffs))


def schur_cyclic(params: CyclicHeckeParams) -> list[SchurElement]:
    """Schur elements ``S_i = prod_{j != i} (u_j - u_i)/u_j``.

    With ``u_j = c_j v^(k_j)``, ``S_i`` is the product of the binomials
    ``1 - q v^(k_i - k_j)``, ``q = c_i/c_j``, multiplied out."""
    h = params.v_denominator()
    cs = [m.coeff for m in params.params]
    ks = [int(m.exp * h) for m in params.params]
    if params.e > 1 and not all(cs):
        # a zero u_j is a factor of the denominator of every other S_i
        raise ZeroDivisionError("division by zero polynomial")
    out = []
    for i in range(params.e):
        poly = LaurentPoly.one()
        for j in range(params.e):
            if j != i:
                poly = poly * LaurentPoly([(0, 1), (ks[i] - ks[j], -(cs[i] / cs[j]))])
        out.append(SchurElement(poly, h, i))
    return out


class SpetsialAlgebraSpec:
    """A one-variable cyclic algebra in spetsial normal form.

    ``u_j = zeta_e^j (zeta^{-1} x)^{m_j}`` where ``zeta = E(d, a)`` is the
    eigenvalue attached to the series.  ``n_ref``/``n_hyp`` are reflection
    counts of the ambient group, used by the variant conditions and the
    sigma statistics.  Every coset here is split (phi = 1), so the twist
    order delta is 1; a non-split coset would bring it back as a factor of
    the central element's exponent in :func:`frobenius_model`.
    """

    def __init__(self, e: int, d: int, a: int, m: tuple[Fraction, ...],
                 variant: str = "compact", n_ref: int = 0, n_hyp: int = 0,
                 label: str = ""):
        self.__dict__.update(e=e, d=d, a=a, m=m, variant=variant,
                             n_ref=n_ref, n_hyp=n_hyp, label=label)
        self.__post_init__()

    def __setattr__(self, *a):
        raise AttributeError("SpetsialAlgebraSpec is immutable")

    def _key(self) -> tuple:
        return (self.e, self.d, self.a, self.m, self.variant,
                self.n_ref, self.n_hyp, self.label)

    def __eq__(self, other) -> bool:
        if other.__class__ is not SpetsialAlgebraSpec:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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

    def schur(self) -> list[SchurElement]:
        return schur_cyclic(self.params())

    def angles(self) -> tuple[int, int, list[tuple[int, int]]]:
        """(h, T, [(k_j, t_j)]) with u_j = E(T, t_j) * v^(k_j) and v^h = x.

        In the normal form u_j = E(e, j) * E(d * q, -a * p) * x^(m_j) for
        m_j = p/q, so T = lcm(e, d*h) makes t_j = j*T/e - a*p*T/(d*q) an
        integer and k_j = m_j * h."""
        h = lcm(1, *(m.denominator for m in self.m))
        T = lcm(self.e, self.d * h)
        out = []
        for j, m in enumerate(self.m):
            t = j * (T // self.e) - self.a * m.numerator * (T // (self.d * m.denominator))
            out.append((int(m * h), t % T))
        return h, T, out

    def sigma(self, i: int) -> Fraction:
        """Valuation plus degree of S_i in x, read off the exponents: S_i is
        a product of binomials 1 - c*x^(m_i - m_j), each adding m_i - m_j,
        so sigma_i = e*m_i - sum(m)."""
        return self.e * self.m[i] - sum(self.m)

    def serialize(self) -> str:
        inner = ", ".join(u.serialize() for u in self.params().params)
        return f"H_{{{self.name}}}({inner})"

    @staticmethod
    def from_params(params: CyclicHeckeParams, d: int, a: int,
                    variant: str = "compact", n_ref: int = 0, n_hyp: int = 0,
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
                                   n_ref=n_ref, n_hyp=n_hyp, label=label)

    def __repr__(self) -> str:
        return f"SpetsialAlgebraSpec({self.serialize()}, zeta=E({self.d},{self.a}))"


def one_spetsial_spec(e: int, n_ref: int | None = None,
                      n_hyp: int | None = None) -> SpetsialAlgebraSpec:
    """The compact 1-series algebra of a cyclic group: parameters (x, zeta_e, ...)."""
    m = (Fraction(1),) + (Fraction(0),) * (e - 1)
    return SpetsialAlgebraSpec(e=e, d=1, a=0, m=m, variant="compact",
                               n_ref=e - 1 if n_ref is None else n_ref,
                               n_hyp=1 if n_hyp is None else n_hyp)


def parse_spec(text: str, d: int, a: int, variant: str = "compact",
               n_ref: int = 0, n_hyp: int = 0) -> SpetsialAlgebraSpec:
    """Parse ``H_{Z_e}(p_0, ..., p_{e-1})`` given the series eigenvalue E(d, a)."""
    m = re.fullmatch(r"H_\{(?P<label>[^}]*)\}\((?P<inner>.*)\)$", text.strip())
    if not m:
        raise ValueError(f"cannot parse algebra spec: {text!r}")
    parts = _split_top(m.group("inner"))
    params = CyclicHeckeParams.of(parts)
    return SpetsialAlgebraSpec.from_params(params, d, a, variant=variant, n_ref=n_ref,
                                           n_hyp=n_hyp, label=m.group("label"))


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
    return SpetsialAlgebraSpec(spec.e, spec.d, spec.a, new_m, new_variant,
                               spec.n_ref, spec.n_hyp, spec.label)


def ennola_twist(spec: SpetsialAlgebraSpec, eps: Cyclo) -> SpetsialAlgebraSpec:
    """Substitute x -> eps^{-1} x, moving the spec to the eps*zeta series."""
    order = eps.root_of_unity_order()
    if order is None:
        raise ValueError("Ennola twist requires a root of unity")
    z = spec.zeta * eps
    d, a = z.root_of_unity_order() or (1, 0)
    return SpetsialAlgebraSpec(spec.e, d, a, spec.m, spec.variant,
                               spec.n_ref, spec.n_hyp, spec.label)


# -- statistics attached to characters ---------------------------------------------


def omega_sigma_delta(spec: SpetsialAlgebraSpec, i: int
                      ) -> tuple[FracExpMonomial, Fraction, Fraction]:
    """Central character on pi, sigma and delta statistics of character ``i``,
    with sigma read off the exponents (:meth:`SpetsialAlgebraSpec.sigma`)."""
    sigma = spec.sigma(i)
    n = spec.n_hyp if spec.variant == "compact" else spec.n_ref
    expo = n + sigma
    omega = FracExpMonomial(_zeta_power(spec.d, -spec.a, Fraction(expo)), Fraction(expo))
    delta_chi = spec.n_ref - sigma
    # the spetsial normal form has e * m_i = N^hyp + sigma_i, that is sum(m) = N^hyp
    if spec.variant == "compact" and sum(spec.m) != spec.n_hyp:
        raise ArithmeticError(f"exponents sum to {sum(spec.m)}, not N^hyp = {spec.n_hyp}")
    return omega, sigma, delta_chi


def frobenius_model(e: int, d: int, a: int, i: int, delta_rho: Fraction
                    ) -> tuple[FracExpMonomial, ...]:
    """Frobenius eigenvalue candidates from the (a, A) statistics alone.

    Returns ``lam * x^mu`` with ``mu`` reduced mod 1; when ``mu = p/q`` with
    ``q > 1`` the full q-element set of candidates is returned.  The coset
    is split: for a twist of order delta, a/d would become a*delta/d in
    both k and the exponent.
    """
    k = Fraction(a * e, d)
    if k.denominator != 1:
        raise ArithmeticError("central element is not a power of the braid generator")
    omega_theta = zeta_root(e, i * int(k))
    expo = Fraction(delta_rho * a, d)
    lam = omega_theta * _zeta_power(d, a, expo) if a else omega_theta
    mu = (-expo) % 1
    q = mu.denominator
    if q == 1:
        return (FracExpMonomial(lam, Fraction(0)),)
    return tuple(FracExpMonomial(lam * zeta_root(q, t), mu) for t in range(q))


def frobenius(spec: SpetsialAlgebraSpec, i: int) -> tuple[FracExpMonomial, ...]:
    """Frobenius eigenvalue(s) of character ``i`` of the series."""
    delta_rho = spec.n_ref - spec.sigma(i)
    return frobenius_model(spec.e, spec.d, spec.a, i, delta_rho)


# -- the spetsial condition report --------------------------------------------------


class ConditionReport:
    def __init__(self, conditions: dict[str, bool], messages: list[str],
                 chi0: int | None = None):
        self.conditions = conditions
        self.messages = messages
        self.chi0 = chi0

    @property
    def passed(self) -> bool:
        return all(self.conditions.values())

    def failures(self) -> list[str]:
        return [k for k, ok in self.conditions.items() if not ok]


def _binomial_roots(T: int, t: int, K: int):
    """The |K| roots of 1 - E(T, t) * v^K as reduced pairs: (d, k) with
    gcd(d, k) = 1 stands for the root E(d, k).  They are the v with
    v^K = E(T, -t), at the angles (s*T - t) / (T*K) mod 1; none for K = 0."""
    m, sign = T * abs(K), 1 if K > 0 else -1
    for s in range(abs(K)):
        num = sign * (s * T - t) % m
        g = gcd(num, m)
        yield m // g, num // g


def schur_quotients(spec: SpetsialAlgebraSpec | CyclicHeckeParams, p: LaurentPoly
                    ) -> list[LaurentPoly] | None:
    """p / S_j for every j, or None when some S_j does not divide p; no Schur
    element is built, and the exponents must be integral.

    With u_j/u_k = E(T, t_j - t_k) x^K, K = k_j - k_k (``spec.angles()``),
    the factor 1 - u_j/u_k of S_j is a binomial for K != 0, peeled off a
    copy of p's one lift (``LaurentPoly._peel``), and a nonzero constant for
    K = 0: their product is taken as one integer lift at T, one Cyclo is made
    of it, and its inverse is multiplied into the quotient's lifts."""
    h, T, angles = spec.angles()
    if h != 1:
        raise ArithmeticError("Schur element has fractional x-exponents")
    val, n, den, lifts = p._lifts(T)
    out = []
    for kj, tj in angles:
        q = LaurentPoly._peel((val, n, den, [dict(g) for g in lifts]),
                              [(T, tj - tk, kj - kk) for kk, tk in angles if kk != kj])
        if q is None:
            return None
        const = {0: 1}
        for kk, tk in angles:
            if kk == kj and tk != tj:
                const = _convolve(T, [(const, [(0, 1), ((tj - tk) % T, -1)])])
        out.append(LaurentPoly._of_lifts(*q, Cyclo(T, const).inverse()))
    return out


def ariki_koike_schur(lam: tuple[tuple[int, ...], ...], T: int,
                      Q: list[tuple[int, int]]) -> tuple[Cyclo, int, Counter]:
    """The Schur element of the Ariki-Koike algebra at the d-multipartition
    ``lam`` of n, for q = x and Q_s = E(T, t_s) x^(k_s), ``Q`` = [(k_s, t_s)],
    as (c, v, roots): S = c x^v prod(1 - x/rho) over the Counter ``roots`` of
    pairs (d, k) for rho = E(d, k).  By Geck-Iancu-Malle (Indag. Math. 11
    (2000)) and Chlouveraki-Jacon (J. Algebraic Combin. 35 (2012)),
    S = (-1)^(n(d-1)) x^(-N(lam-bar)) (x - 1)^(-n) prod_s prod_{(i,j) in lam^s}
    prod_t (x^h(s,t,i,j) Q_s/Q_t - 1), h(s,t,i,j) = lam^s_i - i + lam^t'_j - j + 1
    with lam^t' the conjugate partition, N(mu) = sum (i - 1) mu_i, and lam-bar
    the partition of all parts of lam.  A factor x^a E(T, r) - 1 has lowest
    term -1 (a > 0), E(T, r) x^a (a < 0), or is a nonzero constant (a = 0),
    and the |a| roots of :func:`_binomial_roots`; c's roots of unity are
    summed as one turn."""
    n = sum(map(sum, lam))
    conj = [[sum(1 for p in part if p > j) for j in range(max(part, default=0))]
            for part in lam]
    v = -sum(i * p for i, p in enumerate(sorted((p for part in lam for p in part), reverse=True)))
    turn = Fraction(n * len(lam), 2)  # (-1)^(n(d-1)) and the -1 of each x - 1
    c, roots = Cyclo.rational(1), Counter()
    for part, (ks, ts) in zip(lam, Q):
        for i, row in enumerate(part):
            for j in range(row):
                for cols, (kt, tt) in zip(conj, Q):
                    a = row - i + (cols[j] if j < len(cols) else 0) - j - 1 + ks - kt
                    if a == 0:
                        c = c * (zeta_root(T, ts - tt) - 1)
                    elif a > 0:
                        turn += Fraction(1, 2)
                    else:
                        turn, v = turn + Fraction(ts - tt, T), v + a
                    roots.update(_binomial_roots(T, ts - tt, a))
    roots[1, 0] -= n
    return c * zeta_root(turn.denominator, turn.numerator), v, +roots


def check_spetsial(spec: SpetsialAlgebraSpec, G=None, w=None) -> ConditionReport:
    """Evaluate the defining conditions of a spetsial cyclotomic algebra.

    ``G`` and ``w`` (the ambient coset and regular element) enable the
    divisibility test of the Schur elements into the twisted fake degree.

    Every parameter is u_j = E(T, t_j) v^(k_j) with v^h = x (:meth:`~SpetsialAlgebraSpec.angles`),
    so every condition is read off the pairs (k_j, t_j) and no Schur element
    is built:

    - CA1: the coefficients of prod(t - u_j) lie in Q(zeta_L), L = lcm(e, d),
      exactly when every sigma_k with k = 1 mod L, gcd(k, T) = 1, permutes
      the u_j.  By unique factorisation over Q(zeta_T)(v), sigma_k fixes
      the product exactly when it permutes its linear factors, and Q(zeta_L)
      is the fixed field of those sigma_k.  Fractional exponents must also
      be permuted by v -> zeta_h v.
    - SC2: in the Laurent ring over the cyclotomic numbers S_a divides S_b
      exactly when the root multiset of S_a lies in that of S_b, those of
      its factors 1 - u_a/u_j (:func:`_binomial_roots`); associates are
      separated by the valuation-zero representative: S_i has valuation
      sum_j min(0, k_i - k_j) in v, zero exactly when k_i is greatest.
    - SC3: S_i divides the fake degree exactly when the fake degree has
      each root of S_i with at least its multiplicity.

    Two conditions of the definition hold for every spec and are not tested.
    Specializing x -> zeta gives the group algebra parameters (CA2), as
    t_j + k_j * a*T/(d*h) = j*T/e by the normal form.  The Schur elements
    are integral (SC1), as each S_i is a product of binomials
    1 - (root of unity) * v^K, K != 0, and of constants 1 - (root of unity).
    """
    conds: dict[str, bool] = {}
    msgs: list[str] = []
    h, T, angles = spec.angles()
    base = set(angles)

    # CA1: coefficients of prod(t - u_j) lie in the character field of the series
    L = lcm(spec.e, spec.d)
    conds["CA1"] = all({(k, t * g % T) for k, t in angles} == base
                       for g in range(1 + L, T, L) if gcd(g, T) == 1)
    if h > 1:
        # rationality of fractional exponents: v -> zeta_h v permutes parameters
        ok = {(k, (t + k * (T // h)) % T) for k, t in angles} == base
        conds["CA1"] = conds["CA1"] and ok
        if not ok:
            msgs.append("fractional exponents are not Galois-stable")

    # variant condition on the constant term prod(-u_j) = -E(d, -a)^n x^n
    n_target = Fraction(spec.n_hyp if spec.variant == "compact" else spec.n_ref)
    angle = Fraction(spec.e, 2) + Fraction(sum(t for _, t in angles), T)
    want = Fraction(1, 2) - spec.a * n_target / spec.d
    key = "CS" if spec.variant == "compact" else "NCS"
    conds[key] = sum(spec.m) == n_target and (angle - want).denominator == 1

    # SC2: a unique divisibility-maximal character; Laurent associates are
    # separated by the valuation-zero representative
    roots = [Counter(r for kj, tj in angles for r in _binomial_roots(T, ti - tj, ki - kj))
             for ki, ti in angles]
    maximal = [i for i, r in enumerate(roots) if all(q_ <= r for q_ in roots)]
    if len(maximal) > 1:
        maximal = [i for i in maximal if angles[i][0] == max(k for k, _ in angles)]
    conds["SC2"] = len(maximal) == 1
    chi0 = maximal[0] if len(maximal) == 1 else None

    # SC3: every Schur element divides the fake degree of the series
    if G is not None and w is not None and h == 1:
        from .orders import fake_degree_torus
        feg = fake_degree_torus(G, w)
        conds["SC3"] = all(feg.multiplicities(r) == r for r in roots)
    else:
        msgs.append("SC3 skipped: no ambient coset supplied")

    return ConditionReport(conditions=conds, messages=msgs, chi0=chi0)
