"""Construction of unipotent-character tables.

Provides the cyclic-group tables, principal series built from Schur elements,
the Ennola closure, the parameter-determination search for cyclic series,
family partitioning and the axiom verification suite, which reads whether
a degree divides the split order off its root multiplicities.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import (Cyclo, CycloField, CycloSum, _to_basis, divisors,
                         zeta as zeta_root)
from .laurent import FracExpMonomial, LaurentPoly
from .hecke import (SpetsialAlgebraSpec, check_spetsial, frobenius,
                    frobenius_model, schur_cyclic, CyclicHeckeParams)
from .orders import fake_degree_torus, order_poly, order_roots
from .reflection import ReflectionCoset

__all__ = [
    "UnipotentCharacter",
    "Family",
    "UchTable",
    "SignedDegreeIndex",
    "SeriesDetermination",
    "DeterminationError",
    "AxiomReport",
    "cyclic_uch",
    "principal_series",
    "ennola_transform",
    "determine_parameters",
    "assign_families",
    "verify_axioms",
    "hc_candidate_filter",
    "hc_series",
    "regular_eigenvalues",
]


class UnipotentCharacter:
    def __init__(self, name: str, degree: LaurentPoly, fr: FracExpMonomial | None = None,
                 family: int | None = None, series: tuple[str, str] | None = None,
                 sign_resolved: bool = True, marker: str = ""):
        self.name = name
        self.degree = degree
        self.fr = fr
        self.family = family
        self.series = series
        self.sign_resolved = sign_resolved
        self.marker = marker

    @property
    def a_val(self) -> int:
        return self.degree.valuation()

    @property
    def big_a(self) -> int:
        return self.degree.degree()

    @property
    def delta(self) -> int:
        return self.a_val + self.big_a


class Family:
    def __init__(self, index: int, members: list[str], a: int, A: int,
                 special: str | None = None, cospecial: str | None = None):
        self.index = index
        self.members = members
        self.a = a
        self.A = A
        self.special = special
        self.cospecial = cospecial


class UchTable:
    def __init__(self, group: str, rows: list[UnipotentCharacter],
                 families: list[Family] | None = None):
        self.group = group
        self.rows = rows
        self.families = [] if families is None else families

    def row(self, name: str) -> UnipotentCharacter:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def names(self) -> list[str]:
        return [r.name for r in self.rows]


class SignedDegreeIndex(dict):
    """Polynomials indexed up to sign: the i-th appended p is filed as (i, +1)
    under p and as (i, -1) under -p, so ``self.get(q, ())`` lists every
    (i, s) with p_i == s * q, lowest i first."""

    def __init__(self, degrees=()):
        super().__init__()
        self.size = 0
        for p in degrees:
            self.append(p)

    def append(self, p: LaurentPoly) -> None:
        self.setdefault(p, []).append((self.size, 1))
        self.setdefault(-p, []).append((self.size, -1))
        self.size += 1


# -- cyclic tables ------------------------------------------------------------------

# Largest e accepted by cyclic_uch, whose cost grows like e^3.
MAX_CYCLIC_ORDER = 32


def cyclic_uch(e: int) -> UchTable:
    """The table of the rank-one cyclic group of order e.

    ``1 + e(e-1)/2`` characters: the identity and rho_{i,k} for 0 <= k < i < e
    with degree ((z^k - z^i)/e) x (x^e-1) / ((x-z^k)(x-z^i)) and Fr = z^{ik}.

    Time and memory grow like e^3, so e is bounded by ``MAX_CYCLIC_ORDER``.
    On a 2-core Intel Xeon under CPython 3.11, cyclic_uch(32) takes 0.3 s
    and 19 MB and ``spets verify Z_32`` 2.9 s; e = 48 takes 1.2 s and 30 MB,
    and ``spets verify Z_48`` 15 s.
    """
    if e < 1:
        raise ValueError("cyclic order must be positive")
    if e > MAX_CYCLIC_ORDER:
        raise ValueError(f"cyclic order {e} exceeds the bound {MAX_CYCLIC_ORDER}")
    one = FracExpMonomial.of(1)
    rows = [UnipotentCharacter("1", LaurentPoly.one(), one, series=("1", "chi_0"))]
    # 1/(x-a) - 1/(x-b) = (a-b)/((x-a)(x-b)) and (x^e-1)/(x-a) = sum_j a^(-1-j) x^j
    # for a^e = 1, so the coefficient of x^m is (z^(-km) - z^(-im))/e, 0 < m < e,
    # which is zero when the two roots agree, (i - k) m = 0 mod e
    diff = {(a, b): Cyclo(e, {a: 1, b: -1}, e)  # (z^a - z^b)/e
            for a in range(e) for b in range(e) if a != b}
    for i in range(1, e):
        for k in range(i):
            deg = LaurentPoly({m: diff[-k * m % e, -i * m % e]
                               for m in range(1, e) if (i - k) * m % e})
            fr = FracExpMonomial(zeta_root(e, i * k), Fraction(0))
            name = f"rho_{{{i},{k}}}"
            series = ("1", f"chi_{i}") if k == 0 else (name, "Id")
            rows.append(UnipotentCharacter(name, deg, fr, series=series,
                                           sign_resolved=(k == 0)))
    table = UchTable(f"Z_{e}", rows)
    assign_families(table, _cyclic_feg_map(e))
    return table


def _cyclic_feg_map(e: int) -> dict[str, LaurentPoly]:
    feg = {"1": LaurentPoly.one()}
    for i in range(1, e):
        feg[f"rho_{{{i},0}}"] = LaurentPoly.x(i)
    return feg


# -- principal series ----------------------------------------------------------------


def principal_series(G: ReflectionCoset, w: int,
                     schur_data: list[tuple[str, LaurentPoly, int]]
                     ) -> list[UnipotentCharacter]:
    """One character per algebra character, with degree eps * Feg / S.

    ``schur_data`` holds ingested ``(name, S, theta(1))`` triples; the sign
    eps makes the degree at x = 1 equal theta(1), and Fr = 1.
    """
    feg = fake_degree_torus(G, w)
    rows: list[UnipotentCharacter] = []
    for name, s, theta1 in schur_data:
        quo = feg.exact_div(s)
        val = quo.evaluate(1)
        if val == Cyclo.rational(theta1):
            deg = quo
        elif val == Cyclo.rational(-theta1):
            deg = -quo
        else:
            raise ArithmeticError(
                f"principal degree of {name} has value {val.serialize()} at 1")
        rows.append(UnipotentCharacter(
            name, deg, FracExpMonomial.of(1), series=("1", name)))
    return rows


# -- Ennola --------------------------------------------------------------------------


class EnnolaResult:
    def __init__(self, table: UchTable, permutation: dict[str, tuple[str, int]],
                 new_names: list[str]):
        self.table = table
        self.permutation = permutation
        self.new_names = new_names


def ennola_transform(table: UchTable, xi: Cyclo, names=()) -> EnnolaResult:
    """Close a table under the signed permutation x -> xi^{-1} x on degrees.

    One pass over the growing row list transforms each row, old or new, once:
    a transformed degree matching a row up to sign maps there (the lowest
    such row); otherwise it becomes a new character, named from ``names``
    in turn and then ``group[k]``, k counting the new rows of the closure.
    """
    if xi.root_of_unity_order() is None:
        raise ValueError("Ennola transform requires a root of unity")
    zinv = xi.inverse()
    names = iter(names)
    rows = list(table.rows)
    index = SignedDegreeIndex(r.degree for r in rows)
    perm: dict[str, tuple[str, int]] = {}
    new_names: list[str] = []
    for row in rows:  # also visits the rows appended below
        cand = row.degree.scale_x(zinv)
        hits = index.get(cand)
        if hits:
            i, sign = hits[0]
            perm[row.name] = (rows[i].name, sign)
            continue
        lead = cand.leading_coeff()
        resolved = lead.conjugate() == lead  # a real leading coefficient is taken positive
        if resolved and (lead.as_rational() or 0) < 0:
            cand = -cand
        name = next(names, None) or f"{table.group}[{len(new_names) + 1}]"
        rows.append(UnipotentCharacter(name, cand, None, sign_resolved=resolved))
        index.append(cand)
        new_names.append(name)
        perm[row.name] = (name, 1)
    return EnnolaResult(UchTable(table.group, rows, table.families), perm, new_names)


# -- parameter determination ----------------------------------------------------------


class DeterminationError(ValueError):
    def __init__(self, message: str, survivors: int):
        super().__init__(message)
        self.survivors = survivors


class SeriesDetermination:
    def __init__(self, spec: SpetsialAlgebraSpec, assignment: dict[int, str | None],
                 degrees: dict[int, LaurentPoly], frs: dict[int, FracExpMonomial | None],
                 epsilons: dict[int, int]):
        self.spec = spec
        self.assignment = assignment
        self.degrees = degrees
        self.frs = frs
        self.epsilons = epsilons


def determine_parameters(G: ReflectionCoset, zeta_c: Cyclo,
                         known: UchTable) -> SeriesDetermination:
    """Search for the spetsial algebra of the zeta-series of a coset.

    Scope: cyclic centralizer.  The unknown is the exponent vector m of the
    spetsial normal form u_j = zeta_e^j (zeta^{-1} x)^{m_j}.  The known
    series members pin exponents m_r from their (a, A) statistics, and every
    ordered m with sum(m) = N^hyp whose multiset contains them is a
    candidate.  A candidate is kept only if the known members fit pairwise
    distinct slots, each with its exponent and Frobenius residue (the
    trivial character only slot 0); it is then checked once against the
    algebra conditions, and the known members are placed by degree lookup,
    each at exactly one slot.  Condition SC3, that each Schur element
    divides the fake degree, is decided by that placement's exact quotients.
    """
    d, a = zeta_c.root_of_unity_order() or (1, 0)
    if G.max_eigenspace_dim(zeta_c) == 0:
        raise ValueError(f"E({d},{a}) is not an eigenvalue of {G.name}")
    w = G.regular_element(zeta_c)
    e = G.cyclic_centralizer_order(w, zeta_c)
    if e is None:
        raise ValueError("cyclic reduction only: the centralizer is not cyclic")
    n_ref, n_hyp = G.n_ref, G.n_hyp
    feg = fake_degree_torus(G, w)

    members = [r for r in known.rows if not r.degree.vanishes_at([(d, a)])[0]]
    trivial = next((r for r in members if r.degree == LaurentPoly.one()), None)
    pinned: list[tuple[int, list[int]]] = []
    for r in members:
        m_r = Fraction(n_ref + n_hyp - r.delta, e)
        if m_r < 0 or m_r.denominator != 1:
            raise DeterminationError(
                f"known member {r.name} pins a non-integral exponent {m_r}", 0)
        # the trivial character always indexes slot 0
        slots = [j for j in (range(1) if r is trivial else range(e))
                 if r.fr is None
                 or r.fr in frobenius_model(e, d, a, j, Fraction(r.delta))]
        pinned.append((int(m_r), slots))

    if sum(m for m, _ in pinned) > n_hyp or len(pinned) > e:
        raise DeterminationError("known series members overfill the exponent budget", 0)

    survivors: list[SeriesDetermination] = []
    for m in _exponent_vectors(e, n_hyp):
        fits = [[j for j in slots if m[j] == m_r] for m_r, slots in pinned]
        if not any(len(set(p)) == len(p) for p in itertools.product(*fits)):
            continue
        spec = SpetsialAlgebraSpec(e=e, d=d, a=a, m=m, n_ref=n_ref, n_hyp=n_hyp)
        if not check_spetsial(spec).passed:
            continue
        result = _match_series(spec, feg, members, trivial)
        if result is not None:
            survivors.append(result)

    if len(survivors) != 1:
        raise DeterminationError(
            f"expected a unique surviving assignment, found {len(survivors)}",
            len(survivors))
    return survivors[0]


def _exponent_vectors(e: int, total: int):
    """Ordered e-tuples of nonnegative integers with the given sum."""
    for cuts in itertools.combinations(range(total + e - 1), e - 1):
        bounds = (-1,) + cuts + (total + e - 1,)
        yield tuple(hi - lo - 1 for lo, hi in zip(bounds, bounds[1:]))


def _match_series(spec: SpetsialAlgebraSpec, feg: LaurentPoly,
                  members: list[UnipotentCharacter],
                  trivial: UnipotentCharacter | None
                  ) -> SeriesDetermination | None:
    """Place each known member at the one slot j where its degree is
    +-Feg/S_j and its Fr is a Frobenius eigenvalue of chi_j; every other slot
    takes the sign that makes its degree +-1 at zeta.  None when some S_j
    does not divide Feg (SC3) or no placement fits."""
    try:
        quos = [feg.exact_div(s.as_x()) for s in spec.schur()]
    except (ArithmeticError, ValueError):
        return None
    frs_all = [frobenius(spec, j) for j in range(spec.e)]
    index = SignedDegreeIndex(quos)
    assignment: dict[int, str | None] = dict.fromkeys(range(spec.e))
    eps = [0] * spec.e
    for row in members:
        hits = [(j, s) for j, s in index.get(row.degree, ())
                if (row.fr is None or row.fr in frs_all[j])
                and (row is not trivial or j == 0)]
        if len(hits) != 1 or assignment[hits[0][0]] is not None:
            return None
        j, eps[j] = hits[0]
        assignment[j] = row.name
    for j, quo in enumerate(quos):
        if assignment[j] is not None:
            continue
        val = quo.evaluate(spec.zeta)
        if val == Cyclo.rational(1):
            eps[j] = 1
        elif val == Cyclo.rational(-1):
            eps[j] = -1
        else:
            return None
    degrees = {j: quo if eps[j] == 1 else -quo for j, quo in enumerate(quos)}
    frs = {j: f[0] if len(f) == 1 else None for j, f in enumerate(frs_all)}
    return SeriesDetermination(spec, assignment, degrees, frs, dict(enumerate(eps)))


# -- Harish-Chandra series -------------------------------------------------------------


def _hc_ratio(G: ReflectionCoset, l_order: LaurentPoly) -> LaurentPoly:
    """(|G|/|L|)_{x'}: the order ratio with its power of x divided out."""
    ratio = order_poly(G, "compact").exact_div(l_order)
    return ratio.shift(-ratio.valuation())


def hc_series(G: ReflectionCoset, l_order: LaurentPoly, deg_lambda: LaurentPoly,
              fr_lambda: FracExpMonomial | None, cusp_name: str,
              rel_params: CyclicHeckeParams, rel_names: list[str]
              ) -> list[UnipotentCharacter]:
    """Characters above a cuspidal pair with cyclic relative algebra.

    Degrees are Deg(lambda) * (|G|/|L|)_{x'} / S_chi for the Schur elements of
    the relative algebra; Frobenius eigenvalues are inherited from lambda.
    """
    ratio = _hc_ratio(G, l_order)
    rows = []
    for s, rel_name in zip(schur_cyclic(rel_params), rel_names):
        deg = (deg_lambda * ratio).exact_div(s.as_x())
        rows.append(UnipotentCharacter(
            f"{cusp_name}:{rel_name}", deg, fr_lambda,
            series=(cusp_name, rel_name), sign_resolved=False))
    return rows


def hc_candidate_filter(G: ReflectionCoset, l_order: LaurentPoly,
                        deg_lambda: LaurentPoly, rel_order: int,
                        known: UchTable,
                        rel_char_degrees: tuple[int, ...] = (1,)
                        ) -> list[UnipotentCharacter]:
    """Rows of the table that can lie above the given cuspidal pair.

    Filters by divisibility by Deg(lambda), by the induced Schur element
    being a Laurent polynomial, and by the x = 1 specialization being a
    character degree of the relative group.
    """
    ratio = _hc_ratio(G, l_order)
    out = []
    for row in known.rows:
        if not deg_lambda.divides(row.degree):
            continue
        try:
            s = (deg_lambda * ratio).exact_div(row.degree)
        except ArithmeticError:
            continue
        s_one = s.evaluate(1)
        if s_one.is_zero():
            continue
        val = Cyclo.rational(rel_order) / s_one
        if any(val == Cyclo.rational(t) for t in rel_char_degrees):
            out.append(row)
    return out


def check_inducing_sum(G: ReflectionCoset, l_order: LaurentPoly,
                       deg_lambda: LaurentPoly,
                       rows_with_dims: list[tuple[UnipotentCharacter, int]]) -> bool:
    """Deg(lambda) (|G|/|L|)_{x'} = sum Deg(rho_chi) chi(1) over a proposed tuple."""
    ratio = _hc_ratio(G, l_order)
    total = LaurentPoly.combination((row.degree, dim) for row, dim in rows_with_dims)
    return total == deg_lambda * ratio


# -- families --------------------------------------------------------------------------


def assign_families(table: UchTable, feg_map: dict[str, LaurentPoly]) -> UchTable:
    """Partition the rows into families of constant (a, A).

    ``feg_map`` maps principal-series row names to their fake degrees and is
    used to locate the special (a = b) and cospecial (A = B) members.
    """
    classes: dict[tuple[int, int], list[UnipotentCharacter]] = {}
    for row in table.rows:
        classes.setdefault((row.a_val, row.big_a), []).append(row)

    table.families = []
    for idx, key in enumerate(sorted(classes)):
        rows = classes[key]
        a_v, big = key
        special = [r.name for r in rows
                   if r.name in feg_map and feg_map[r.name].valuation() == r.a_val]
        cospecial = [r.name for r in rows
                     if r.name in feg_map and feg_map[r.name].degree() == r.big_a]
        if len(special) != 1 or len(cospecial) != 1:
            raise ValueError(
                f"family {idx} lacks a unique special/cospecial member")
        fam = Family(idx, [r.name for r in rows], a_v, big,
                     special[0], cospecial[0])
        for r in rows:
            r.family = idx
            r.marker = ""
        table.row(fam.special).marker = "*"
        if fam.cospecial != fam.special:
            table.row(fam.cospecial).marker = "#"
        table.families.append(fam)
    return table


# -- regular eigenvalues ----------------------------------------------------------------


def regular_eigenvalues(G: ReflectionCoset) -> list[Cyclo]:
    """All roots of unity admitting a regular eigenvector, sorted by (d, a)."""
    exponent = lcm(*(c.order for c in G.classes))
    roots = (zeta_root(d, a) for d in divisors(exponent) for a in range(d) if gcd(a, d) == 1)
    return [z for z in roots if _has_regular_vector(G, z)]


def _has_regular_vector(G: ReflectionCoset, z: Cyclo) -> bool:
    """Whether some V(w, z) lies in no reflecting hyperplane.  A vector space
    over an infinite field is no finite union of proper subspaces, so V(w, z)
    then holds a vector on no hyperplane; w may be taken from a class where
    dim V(w, z) is maximal, and V(w, z) lies in a hyperplane exactly when a
    reflection on it fixes V(w, z) pointwise."""
    if G.max_eigenspace_dim(z) == 0:
        return False
    return any(not G.parabolic_subgroup(G.matrix(G.classes[ci].rep_index).eigenspace(z))[0]
               for ci in G.regular_classes(z))


# -- axiom verification ------------------------------------------------------------------


class AxiomReport:
    def __init__(self, failures: dict[str, list[str]]):
        self.failures = failures

    @property
    def passed(self) -> bool:
        return not any(self.failures.values())

    def summary(self) -> str:
        lines = []
        for check, fails in self.failures.items():
            status = "ok" if not fails else "FAIL: " + "; ".join(fails)
            lines.append(f"{check}: {status}")
        return "\n".join(lines)


def verify_axioms(table: UchTable, G: ReflectionCoset,
                  feg_map: dict[str, LaurentPoly]) -> AxiomReport:
    """Check the table against the degree, family, series and Galois axioms.

    Every identity but the principal-series sum and Galois closure is a zero
    test on integer lifts (``LaurentPoly.multiplicities``, ``is_zero``): each
    degree's root multiplicities at the regular eigenvalues and the order's
    roots (one call per row), whether a family sum differs from its
    fake-degree sum at x^i y^j, and whether sum |Feg(zeta)|^2 differs from
    the zeta-series count.  Each answer is exact, as an element of Q(zeta_N)
    is zero exactly when its rewrite on the Zumbroich basis, a Q-basis, is
    empty; no canonical form is built for a value that is only tested.
    """
    fails: dict[str, list[str]] = {k: [] for k in (
        "degree-divides-order", "family-sum", "principal-series-sum",
        "series-compatibility", "series-counting", "family-bounds",
        "galois-closure")}

    _check_family_sums(table, feg_map, fails["family-sum"])

    # principal 1-series: Feg(R_1) = sum theta(1) Deg(rho_theta)
    feg1 = fake_degree_torus(G, 0)
    total = LaurentPoly.combination((table.row(name).degree, fg.evaluate(1))
                                    for name, fg in feg_map.items())
    if total != feg1:
        fails["principal-series-sum"].append("sum over the principal series")

    regulars = regular_eigenvalues(G)
    orders = [z.root_of_unity_order() for z in regulars]
    roots = order_roots(G)
    # cap 1 at a regular eigenvalue, the order's multiplicity at its roots
    caps = {**dict.fromkeys(orders, 1), **roots}
    # vanishes[name, z]: whether the row's degree is zero at z
    vanishes: dict[tuple[str, Cyclo], bool] = {}
    for row in table.rows:
        mults = row.degree.multiplicities(caps)
        vanishes.update(((row.name, z), mults[o] > 0) for z, o in zip(regulars, orders))
        if not _divides_order(row.degree, mults, roots):
            fails["degree-divides-order"].append(row.name)

    _check_series_compat(table, regulars, vanishes, fails["series-compatibility"])
    _check_series_counting(table, G, feg_map, regulars, vanishes,
                           fails["series-counting"])

    for fam in table.families:
        for name in fam.members:
            if name not in feg_map:
                continue
            fg = feg_map[name]
            if not (fam.a <= fg.valuation() and fg.degree() <= fam.A):
                fails["family-bounds"].append(name)

    _check_galois_closure(table, G.field, fails["galois-closure"])
    return AxiomReport(fails)


def _divides_order(p: LaurentPoly, mults: dict[tuple[int, int], int],
                   roots: Counter) -> bool:
    """Whether p divides, in the Laurent ring, an order with these nonzero
    roots, given p's root multiplicities ``mults`` capped no lower.  The order
    splits into linear factors, so p divides it exactly when
    sum(min(mult_p(z), roots[z])) is the degree of p / x^val(p)."""
    if p.is_zero():
        return False
    return sum(min(mults[z], m) for z, m in roots.items()) == p.degree() - p.valuation()


def _check_family_sums(table, feg_map, failures):
    """Sum Deg_x(X) conj(Deg_x)(Y) = Sum Feg_chi(X) Feg_chi(Y) over each
    family, coefficient by coefficient in X and Y.  The coefficients are
    lifted onto Z[z]/(z^N - 1) over one denominator, conj taking z^t to
    z^-t, and lhs - rhs is zero-tested at each x^i y^j."""
    for fam in table.families:
        degs = [table.row(name).degree for name in fam.members]
        fegs = [feg_map[name] for name in fam.members if name in feg_map]
        coeffs = [c for p in degs + fegs for _, c in p.coeffs]
        n, den = lcm(*[c.n for c in coeffs]), lcm(*[c.den for c in coeffs])

        def lift(p, sign=1, conj=1):
            return [(i, [(conj * t % n, sign * a) for t, a in c._lift(n, den // c.den).items()])
                    for i, c in p.coeffs]

        pairs = [(lift(d), lift(d, conj=-1)) for d in degs] + [(lift(f, -1), lift(f)) for f in fegs]
        sums: defaultdict[tuple[int, int], dict[int, int]] = defaultdict(dict)
        for p, q in pairs:
            for i, xs in p:
                for j, ys in q:
                    acc = sums[i, j]
                    for s, x in xs:
                        for t, y in ys:
                            k = (s + t) % n
                            acc[k] = acc.get(k, 0) + x * y
        bad = [ij for ij in sorted(sums) if _to_basis(n, sums[ij])]
        if bad:
            failures.append(f"family {fam.index} at x^{bad[0][0]} y^{bad[0][1]}")


def _check_series_compat(table, regulars, vanishes, failures):
    """``vanishes`` maps (row name, zeta) to whether the row degree is zero
    at zeta; zeta^delta is compared as k * delta / d mod 1 for zeta = E(d, k)."""
    orders = [z.root_of_unity_order() for z in regulars]
    for row in table.rows:
        powers = {Fraction(k * row.delta, d) % 1 for z, (d, k) in zip(regulars, orders)
                  if not vanishes[row.name, z]}
        if len(powers) > 1:
            failures.append(row.name)


def _check_series_counting(table, G, feg_map, regulars, vanishes, failures):
    """sum |Feg_chi(zeta)|^2 over a family is the number of its members in
    the zeta-series, for each regular zeta with a cyclic centralizer."""
    for z in regulars:
        if z == Cyclo.rational(1):
            continue
        if G.cyclic_centralizer_order(G.regular_element(z), z) is None:
            continue
        for fam in table.families:
            s = CycloSum()
            for name in fam.members:
                if name in feg_map:
                    v = feg_map[name].evaluate(z)
                    s.add(v, v.conjugate())
            count = sum(1 for name in fam.members if not vanishes[name, z])
            s.add(Cyclo.rational(-count))
            if not s.is_zero():
                failures.append(f"family {fam.index} at E({z.serialize()})")


def _check_galois_closure(table, field: CycloField, failures):
    """Each sigma_k fixing the field permutes the table: it maps the multiset
    of canonical (degree, Fr coefficient, Fr exponent) triples onto itself."""
    cond = field.conductor
    for row in table.rows:
        if row.fr is not None:
            cond = lcm(cond, row.fr.coeff.n)
        for _, c in row.degree.coeffs:
            cond = lcm(cond, c.n)
    base = Counter((r.degree, r.fr.coeff if r.fr else None, r.fr.exp if r.fr else None)
                   for r in table.rows)
    for k in range(2, cond):
        if gcd(k, cond) != 1:
            continue
        if k % field.conductor not in field.stabilizer:
            continue
        mapped = Counter((LaurentPoly([(e, c.galois(k)) for e, c in r.degree.coeffs]),
                          r.fr.coeff.galois(k) if r.fr else None,
                          r.fr.exp if r.fr else None) for r in table.rows)
        if mapped != base:
            failures.append(f"sigma_{k} does not permute the table")
