"""Construction of unipotent-character tables.

Provides the cyclic-group tables, principal series built from Schur elements,
the Ennola closure, the parameter-determination search for cyclic series,
family partitioning and the axiom verification suite, which decides every
identity but Galois closure on integers (see ``verify_axioms``).
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, gcd, lcm

from .cyclotomic import (Cyclo, CycloField, _is_zero_lift, _is_zero_packed, _signed_digits,
                         _slot_bits, divisors, zeta as zeta_root)
from .laurent import FracExpMonomial, LaurentPoly, _lmake, root_multiplicities
from .hecke import (SpetsialAlgebraSpec, check_spetsial, frobenius_model,
                    schur_quotients, CyclicHeckeParams)
from .orders import fake_degree_torus, reversal
from .reflection import ReflectionCoset, SubCoset

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
    and 19 MB and ``spets verify Z_32`` 0.6 s; e = 48 takes 1.2 s and 30 MB,
    and ``spets verify Z_48``, run with the bound raised to 48, 3.6 s.
    """
    if e < 1:
        raise ValueError("cyclic order must be positive")
    if e > MAX_CYCLIC_ORDER:
        raise ValueError(f"cyclic order {e} exceeds the bound {MAX_CYCLIC_ORDER}")
    one = FracExpMonomial.of(1)
    rows = [UnipotentCharacter("1", LaurentPoly.one(), one, series=("1", "chi_0"))]
    # 1/(x-a) - 1/(x-b) = (a-b)/((x-a)(x-b)) and (x^e-1)/(x-a) = sum_j a^(-1-j) x^j
    # for a^e = 1, so the coefficient of x^m is diff[-km, -im] = (z^(-km) - z^(-im))/e,
    # 0 < m < e, zero when the roots agree, (i - k) m = 0 mod e; built for a < b
    diff = {(a, b): Cyclo(e, {a: 1, b: -1}, e) for a in range(e) for b in range(a + 1, e)}
    diff.update({(b, a): -c for (a, b), c in list(diff.items())})  # -c is canonical
    for i in range(1, e):
        for k in range(i):
            deg = _lmake(tuple([(m, diff[-k * m % e, -i * m % e])
                                for m in range(1, e) if (i - k) * m % e]))
            fr = FracExpMonomial(zeta_root(e, i * k))
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
                     schur_data: list[tuple[str, tuple[Cyclo, int, Counter], int]]
                     ) -> list[UnipotentCharacter]:
    """One character per algebra character, with degree eps * Feg / S.

    ``schur_data`` holds ``(name, (c, v, roots), theta(1))``: S = c x^v
    prod(1 - x / rho) over the Counter ``roots`` of pairs (d, k), rho = E(d, k).
    The sign eps makes the degree at x = 1 equal theta(1), and Fr = 1.
    Feg(R_w) splits over the roots of the order of G less the eigenvalues of
    w, so S divides it exactly when its roots lie among those, tested before
    any lift; S is then divided out (:meth:`LaurentPoly.divide_split`).
    """
    feg = fake_degree_torus(G, w)
    caps = G.order_roots - Counter(lam.root_of_unity_order() for lam in G.eigenvalues(w))
    rows: list[UnipotentCharacter] = []
    for name, (c, v, roots), theta1 in schur_data:
        quo = feg.divide_split(c, v, roots) if roots <= caps else None
        if quo is None:
            raise ArithmeticError(f"Schur element of {name} does not divide Feg(R_w)")
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
    def __init__(self, message: str, survivors: int, funnel: dict[str, int] | None = None):
        super().__init__(message)
        self.survivors = survivors
        self.funnel = funnel


class SeriesDetermination:
    def __init__(self, spec: SpetsialAlgebraSpec, assignment: dict[int, str | None],
                 degrees: dict[int, LaurentPoly], frs: dict[int, FracExpMonomial | None],
                 epsilons: dict[int, int]):
        self.spec = spec
        self.assignment = assignment
        self.degrees = degrees
        self.frs = frs
        self.epsilons = epsilons
        self.funnel: dict[str, int] | None = None


def determine_parameters(G: ReflectionCoset, zeta_c: Cyclo,
                         known: UchTable) -> SeriesDetermination:
    """Search for the spetsial algebra of the zeta-series of a coset.

    Scope: cyclic centralizer.  The unknown is the exponent vector m of the
    spetsial normal form u_j = zeta_e^j (zeta^{-1} x)^{m_j}, sum(m) = N^hyp.
    The known series members pin exponents m_r from their (a, A) statistics
    and slots by their Frobenius residue (the trivial character slot 0);
    only the vectors seating them at pairwise distinct slots are generated,
    each checked once against the algebra conditions, and the members are
    placed by degree lookup, each at exactly one slot.  SC3, that each Schur
    element divides the fake degree, is decided by the placement's exact
    quotients.  ``funnel`` counts the search space C(N^hyp + e - 1, e - 1),
    the candidates, those failing the conditions, those left unplaced, and
    the survivors.
    """
    d, a = zeta_c.root_of_unity_order() or (1, 0)
    if G.max_eigenspace_dim(zeta_c) == 0:
        raise ValueError(f"E({d},{a}) is not an eigenvalue of {G.name}")
    w = G.regular_element(zeta_c)
    e = G.cyclic_centralizer_order(w, zeta_c)
    if e is None:
        raise ValueError("cyclic reduction only: the centralizer is not cyclic")
    n_ref, n_hyp = G.n_ref, G.n_hyp
    funnel = dict(space=comb(n_hyp + e - 1, e - 1), candidates=0, failed_check=0,
                  unmatched=0, survivors=0)
    feg = fake_degree_torus(G, w)
    fr_model = lru_cache(maxsize=None)(partial(frobenius_model, e, d, a))  # (j, delta)

    members = [r for r, m in zip(known.rows, root_multiplicities(
        [r.degree for r in known.rows], {(d, a): 1})) if not m[d, a]]
    trivial = next((r for r in members if r.degree == LaurentPoly.one()), None)
    pinned: list[tuple[int, list[int]]] = []
    for r in members:
        m_r = Fraction(n_ref + n_hyp - r.delta, e)
        if m_r < 0 or m_r.denominator != 1:
            raise DeterminationError(
                f"known member {r.name} pins a non-integral exponent {m_r}", 0, funnel)
        # the trivial character always indexes slot 0
        slots = [j for j in (range(1) if r is trivial else range(e))
                 if r.fr is None or r.fr in fr_model(j, r.delta)]
        pinned.append((int(m_r), slots))

    if sum(m for m, _ in pinned) > n_hyp or len(pinned) > e:
        raise DeterminationError("known series members overfill the exponent budget",
                                 0, funnel)

    specs = [SpetsialAlgebraSpec(e=e, d=d, a=a, m=m, n_ref=n_ref, n_hyp=n_hyp)
             for m in _candidate_vectors(e, n_hyp, pinned)]
    passed = [spec for spec in specs if check_spetsial(spec).passed]
    survivors = [r for r in (_match_series(spec, feg, members, trivial, fr_model)
                             for spec in passed) if r is not None]
    funnel.update(candidates=len(specs), failed_check=len(specs) - len(passed),
                  unmatched=len(passed) - len(survivors), survivors=len(survivors))

    if len(survivors) != 1:
        raise DeterminationError(
            f"expected a unique surviving assignment, found {len(survivors)}",
            len(survivors), funnel)
    survivors[0].funnel = funnel
    return survivors[0]


def _exponent_vectors(e: int, total: int):
    """Ordered e-tuples of nonnegative integers with the given sum, in
    lexicographic order (that of the e - 1 cuts of stars and bars)."""
    if e == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(total + e - 1), e - 1):
        bounds = (-1,) + cuts + (total + e - 1,)
        yield tuple(hi - lo - 1 for lo, hi in zip(bounds, bounds[1:]))


def _candidate_vectors(e: int, total: int, pinned: list[tuple[int, list[int]]]
                       ) -> list[tuple[int, ...]]:
    """The vectors of ``_exponent_vectors(e, total)``, in its order, that seat
    each pinned (m_r, slots) at its own slot j from its slots, m_j = m_r:
    each injective seating, with the free slots filled by the compositions
    of the remaining budget."""
    rem = total - sum(m for m, _ in pinned)
    seatings: list[tuple[int, ...]] = [()] if rem >= 0 else []
    for _, slots in pinned:
        seatings = [seats + (j,) for seats in seatings for j in slots if j not in seats]
    out: set[tuple[int, ...]] = set()
    for seats in seatings:
        free = [j for j in range(e) if j not in seats]
        m = dict(zip(seats, [m_r for m_r, _ in pinned]))
        for fill in _exponent_vectors(len(free), rem):
            m.update(zip(free, fill))
            out.add(tuple(m[j] for j in range(e)))
    return sorted(out)


def _match_series(spec: SpetsialAlgebraSpec, feg: LaurentPoly,
                  members: list[UnipotentCharacter],
                  trivial: UnipotentCharacter | None, fr_model
                  ) -> SeriesDetermination | None:
    """Place each known member at the one slot j where its degree is
    +-Feg/S_j and its Fr is a Frobenius eigenvalue of chi_j, from
    ``fr_model(j, delta)`` (:func:`frobenius_model` of the series); every
    other slot takes the sign that makes its degree +-1 at zeta.  None when
    some S_j does not divide Feg (SC3) or no placement fits."""
    quos = schur_quotients(spec, feg)
    if quos is None:
        return None
    frs_all = [fr_model(j, spec.n_ref - spec.sigma(j)) for j in range(spec.e)]
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


def hc_series(levi: SubCoset, deg_lambda: LaurentPoly, fr_lambda: FracExpMonomial | None,
              cusp_name: str, rel_params: CyclicHeckeParams, rel_names: list[str]
              ) -> list[UnipotentCharacter]:
    """Characters above a cuspidal pair on a Levi, with cyclic relative algebra.

    Degrees are Deg(lambda) * (|G|/|L|)_{x'} / S_chi for the Schur elements of
    the relative algebra, whose binomials are peeled off from the parameters'
    roots of unity (:func:`hecke.schur_quotients`), with no Schur element built;
    Frobenius eigenvalues are inherited from lambda.
    """
    degs = schur_quotients(rel_params, deg_lambda * reversal(levi.relative_poincare))
    if degs is None:
        raise ArithmeticError(f"a Schur element above {cusp_name} does not divide the degree")
    return [UnipotentCharacter(f"{cusp_name}:{rel_name}", deg, fr_lambda,
                               series=(cusp_name, rel_name), sign_resolved=False)
            for deg, rel_name in zip(degs, rel_names)]


def hc_candidate_filter(levi: SubCoset, deg_lambda: LaurentPoly, rel_order: int,
                        known: UchTable, rel_char_degrees: tuple[int, ...] = (1,)
                        ) -> list[UnipotentCharacter]:
    """Rows of the table that can lie above the given cuspidal pair.

    Filters by divisibility by Deg(lambda), by the induced Schur element
    being a Laurent polynomial, and by the x = 1 specialization being a
    character degree of the relative group.  Every degree here divides |G|,
    so both divisibilities are inclusions of root multisets capped at the
    order's roots.
    """
    roots = levi.parent.order_roots
    num = deg_lambda * reversal(levi.relative_poincare)
    low, top = deg_lambda.roots(roots), Counter(num.multiplicities(roots))
    out = []
    for row in known.rows:
        mults = row.degree.roots(roots)
        if low is None or mults is None or not low <= mults <= top:
            continue
        v, c = row.degree.coeffs[0]
        s = num.divide_split(c, v, mults)
        s_one = s.evaluate(1)
        if s_one.is_zero():
            continue
        val = Cyclo.rational(rel_order) / s_one
        if any(val == Cyclo.rational(t) for t in rel_char_degrees):
            out.append(row)
    return out


def check_inducing_sum(levi: SubCoset, deg_lambda: LaurentPoly,
                       rows_with_dims: list[tuple[UnipotentCharacter, int]]) -> bool:
    """Deg(lambda) (|G|/|L|)_{x'} = sum Deg(rho_chi) chi(1) over a proposed tuple."""
    total = LaurentPoly.combination((row.degree, dim) for row, dim in rows_with_dims)
    return total == deg_lambda * reversal(levi.relative_poincare)


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
    return any(not G.parabolic(G.classes[ci].rep_index, z)[0] for ci in G.regular_classes(z))


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

    All but Galois closure run on integers.  Zero tests of integer lifts
    (``cyclotomic._is_zero_packed``, ``_is_zero_lift``) give the degrees'
    root multiplicities at the regular zeta and the order's roots (one
    ``laurent.root_multiplicities`` call for the table, one packed sum per
    root for each block of rows) and test the family sums at
    x^i y^j (one big-integer product per term and X-exponent), the
    principal-series sum at x^i and sum |Feg(zeta)|^2 against the zeta-series
    count; zeta^delta is a residue mod the lcm of the regular orders, and the
    centralizers are read off the multiplication table.  Galois closure
    compares canonical rows, only when some sigma_k other than 1 fixes the
    field.  No canonical form is built for a value that is only tested.
    """
    fails: dict[str, list[str]] = {k: [] for k in (
        "degree-divides-order", "family-sum", "principal-series-sum",
        "series-compatibility", "series-counting", "family-bounds",
        "galois-closure")}
    rows = {r.name: r for r in reversed(table.rows)}  # the first row of a name, as table.row

    _check_family_sums(table, rows, feg_map, fails["family-sum"])
    _check_principal_series(rows, G, feg_map, fails["principal-series-sum"])

    regulars = regular_eigenvalues(G)
    orders = [z.root_of_unity_order() for z in regulars]
    # vanishes[name][t]: whether the row's degree is zero at regulars[t]
    vanishes: dict[str, list[bool]] = {}
    _check_degrees_divide_order(table, orders, G.order_roots, vanishes,
                                fails["degree-divides-order"])
    _check_series_compat(table, orders, vanishes, fails["series-compatibility"])
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


def _check_degrees_divide_order(table, orders, roots, vanishes, failures):
    """Each degree divides the order (``_divides_order``), from its root
    multiplicities capped at 1 at each regular E(d, k) of ``orders`` and at
    the order's multiplicity at its ``roots``, read for the whole table by
    one ``laurent.root_multiplicities`` call; fills ``vanishes[name]`` with
    whether the row's degree is zero at each of ``orders``."""
    caps = {**dict.fromkeys(orders, 1), **roots}
    degrees = [row.degree for row in table.rows]
    for row, mults in zip(table.rows, root_multiplicities(degrees, caps)):
        vanishes[row.name] = [mults[o] > 0 for o in orders]
        if not _divides_order(row.degree, mults, roots):
            failures.append(row.name)


def _check_family_sums(table, rows, feg_map, failures):
    """Sum Deg_x(X) conj(Deg_x)(Y) = Sum Feg_chi(X) Feg_chi(Y) over each
    family, coefficient by coefficient in X and Y.  The coefficients are
    lifted onto Z[z] (exponents below N, the lcm of their conductors) over
    one denominator, conj taking z^t to z^(-t mod N), and packed at one
    slot width b, as g(2^b) for a lift g.  For each term (p, q) of either
    side, q's coefficients are packed into one row, the one of Y^j in block
    number j (j in the sorted Y-exponents of the family), and each X^i
    coefficient of p multiplies that row once, as a sum of shifted copies
    of it, one per term of its sparse lift.  Block j of the sum of these
    products over the terms is the lift of the X^i Y^j coefficient of
    lhs - rhs, of degree at most 2N - 2 and L1 norm at most ``norm``, the
    sum over the terms of max ||p_i||_1 * max ||q_j||_1, which sets b
    (``cyclotomic._slot_bits``).  As 2^b > 2 * norm + 1, the block's value
    is below 2^(b(2N - 1) - 1) in absolute value, so blocks of W = b(2N - 1)
    bits are read off as signed digits (``cyclotomic._signed_digits``), each
    nonzero one zero-tested by one remainder (``cyclotomic._is_zero_packed``)."""
    for fam in table.families:
        degs = [rows[name].degree for name in fam.members]
        fegs = [feg_map[name] for name in fam.members if name in feg_map]
        coeffs = [c for p in degs + fegs for _, c in p.coeffs]
        n, den = lcm(*[c.n for c in coeffs]), lcm(*[c.den for c in coeffs])

        def top(p):  # the largest L1 norm of a lifted coefficient of p or conj(p)
            return max([sum([abs(a) for _, a in c.terms]) * (den // c.den) for _, c in p.coeffs],
                       default=0)

        b = _slot_bits(n, sum([top(p) ** 2 for p in degs + fegs]))
        width = b * (2 * n - 1)

        def lift(p, conj=1):
            return [(i, [(b * (conj * t * (n // c.n) % n), a * (den // c.den)) for t, a in c.terms])
                    for i, c in p.coeffs]

        terms = [(lift(d), lift(d, -1), 1) for d in degs] + [(lift(f), lift(f), -1) for f in fegs]
        block = {j: width * t for t, j in enumerate(sorted({j for _, q, _ in terms for j, _ in q}))}
        sums: defaultdict[int, int] = defaultdict(int)
        for p, q, sign in terms:
            row = sign * sum([a << s + block[j] for j, g in q for s, a in g])
            for i, g in p:  # g times the row, one shifted copy per term of the sparse lift
                sums[i] += sum([a * row << s for s, a in g])
        bad = next(((i, list(block)[t]) for i in sorted(sums)
                    for t, v in _signed_digits(sums[i], width, len(block))
                    if not _is_zero_packed(n, v, b)), None)
        if bad:
            failures.append(f"family {fam.index} at x^{bad[0]} y^{bad[1]}")


def _check_principal_series(rows, G, feg_map, failures):
    """Feg(R_1) = sum theta(1) Deg(rho_theta) over the principal series, on
    integer lifts at N, the lcm of the conductors, over one denominator; the
    weight theta(1) = Feg_theta(1) is the sum of the lifts of Feg_theta's
    coefficients, and each x^e of the difference is zero-tested once."""
    terms = [(fake_degree_torus(G, 0), [Cyclo.rational(-1)])]
    terms += [(rows[name].degree, [c for _, c in fg.coeffs]) for name, fg in feg_map.items()]
    cs = [c for p, ws in terms for c in ws + [c for _, c in p.coeffs]]
    n, den = lcm(*[c.n for c in cs]), lcm(*[c.den for c in cs])
    sums: dict[int, dict[int, int]] = {}
    for p, ws in terms:
        w = [(j * (n // f.n), b * (den // f.den)) for f in ws for j, b in f.terms]
        for e, c in p.coeffs:
            acc, s, k = sums.setdefault(e, {}), n // c.n, den // c.den
            for t, v in [((i * s + j) % n, a * k * b) for i, a in c.terms for j, b in w]:
                acc[t] = acc.get(t, 0) + v
    if not all(_is_zero_lift(n, g) for g in sums.values()):
        failures.append("sum over the principal series")


def _check_series_compat(table, orders, vanishes, failures):
    """zeta^delta agrees at each regular E(d, k) of ``orders`` where the row is
    nonzero (``vanishes[name]``), as the residue k * delta * (m / d) mod m, m = lcm(d)."""
    m = lcm(*[d for d, _ in orders])
    steps = [k * (m // d) for d, k in orders]
    for row in table.rows:
        delta = row.delta
        if len({delta * s % m for s, v in zip(steps, vanishes[row.name]) if not v}) > 1:
            failures.append(row.name)


def _check_series_counting(table, G, feg_map, regulars, vanishes, failures):
    """sum |Feg_chi(zeta)|^2 over a family is the number of its members in
    the zeta-series, for each regular zeta with a cyclic centralizer.  As
    |zeta| = 1, conj(F(zeta)) = F.vee()(zeta), so the sum is Q(zeta) for
    Q = sum(Feg * Feg.vee()), built once per family; each (zeta, family) is
    one packed zero test, and an empty Q holds exactly when the count is 0."""
    zs = [(t, z) for t, z in enumerate(regulars) if z != Cyclo.rational(1)
          and G.cyclic_centralizer_order(G.regular_element(z), z) is not None]
    sums = [LaurentPoly.combination((feg_map[name] * feg_map[name].vee(), 1)
                                    for name in fam.members if name in feg_map)
            for fam in table.families]
    for t, z in zs:
        root = z.root_of_unity_order()
        for fam, q in zip(table.families, sums):
            count = sum(1 for name in fam.members if not vanishes[name][t])
            if not (q.packed().value_is(root, 0, Cyclo.rational(count)) if q.coeffs
                    else count == 0):
                failures.append(f"family {fam.index} at E({z.serialize()})")


def _check_galois_closure(table, field: CycloField, failures):
    """Each sigma_k fixing the field permutes the table: it maps the multiset
    of canonical (degree, Fr coefficient, Fr exponent) triples onto itself."""
    cond = lcm(field.conductor, *{r.fr.coeff.n for r in table.rows if r.fr is not None},
               *{c.n for r in table.rows for _, c in r.degree.coeffs})
    if not (ks := field.galois_orbit_exponents(cond)[1:]):  # only 1 fixes the field
        return
    base = Counter((r.degree, r.fr.coeff if r.fr else None, r.fr.exp if r.fr else None)
                   for r in table.rows)
    for k in ks:
        mapped = Counter((LaurentPoly([(e, c.galois(k)) for e, c in r.degree.coeffs]),
                          r.fr.coeff.galois(k) if r.fr else None,
                          r.fr.exp if r.fr else None) for r in table.rows)
        if mapped != base:
            failures.append(f"sigma_{k} does not permute the table")
