"""Cyclic algebra Schur elements, normal forms, and compatibility maps."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from spets import uch
from spets.cyclotomic import Cyclo, CycloField, zeta
from spets.hecke import (CyclicHeckeParams, SpetsialAlgebraSpec, ariki_koike_schur,
                         check_spetsial,
                         compactify, ennola_twist, frobenius, noncompactify,
                         frobenius_model, omega_sigma_delta, one_spetsial_spec,
                         parse_spec, schur_cyclic, schur_quotients)
from spets.laurent import FracExpMonomial, LaurentPoly
from spets.orders import fake_degree_torus
from spets.uch import regular_eigenvalues

from conftest import divides, exact_div


class TestSchurOracles:
    def test_rank_one_pair(self):
        p = CyclicHeckeParams.of(["x^3", "-1"])
        s = schur_cyclic(p)
        assert [e.serialize() for e in s] == ["x^3 + 1", "1 + x^-3"]
        assert [e.sigma() for e in s] == [Fraction(3), Fraction(-3)]

    def test_z3_relative_algebra(self):
        p = CyclicHeckeParams.of(["1", "(E(3,1))*x^2", "(-1-E(3,1))*x^2"])
        s = [e.serialize() for e in schur_cyclic(p)]
        assert s == ["1 + x^-2 + x^-4",
                     "(1-E(3,1))*x^2 + (2+E(3,1))",
                     "(2+E(3,1))*x^2 + (1-E(3,1))"]

    def test_one_series_z3(self):
        s = [e.serialize() for e in one_spetsial_spec(3).schur()]
        assert s == ["x^2 + x + 1",
                     "(2+E(3,1)) + (1-E(3,1))*x^-1",
                     "(1-E(3,1)) + (2+E(3,1))*x^-1"]

    def test_schur_sum_of_inverses(self):
        # evaluating at generic roots: S_i(u) has the defining interpolation
        # property prod_{j != i}(u_i - u_j)/u_j, checked against direct eval
        p = one_spetsial_spec(4).params()
        s = schur_cyclic(p)
        for i, si in enumerate(s):
            direct = Cyclo.rational(1)
            ui = p.params[i]
            for j, uj in enumerate(p.params):
                if j == i:
                    continue
                val_uj = uj.coeff
                val_ui = ui.coeff
                direct = direct * (val_uj - val_ui) / val_uj
            # at x = 1 every parameter collapses to its coefficient
            assert si.as_x().evaluate(Cyclo.rational(1)) == direct


def _schur_oracle(params):
    """(h, [S_i]) with S_i = prod_{j != i} (u_j - u_i) / prod_{j != i} u_j,
    expanded and divided with plain LaurentPoly arithmetic in v = x^(1/h)."""
    h = params.v_denominator()
    u = [LaurentPoly.monomial(m.coeff, int(m.exp * h)) for m in params.params]
    out = []
    for i in range(params.e):
        num = den = LaurentPoly.one()
        for j in range(params.e):
            if j != i:
                num = num * (u[j] - u[i])
                den = den * u[j]
        out.append(exact_div(num, den))
    return h, out


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


# roots of unity of orders up to 12, and coefficients that are not: 2, -1/2,
# 1 + E(3) (a unit of infinite order) and 0
_COEFFS = st.one_of(
    st.integers(1, 12).flatmap(lambda n: st.integers(0, n - 1).map(lambda k: zeta(n, k))),
    st.sampled_from([Cyclo.rational(2), Cyclo.rational(Fraction(-1, 2)),
                     1 + zeta(3), Cyclo.rational(0)]))
_EXPS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


class TestSchurCyclicOracle:
    @given(st.lists(st.tuples(_COEFFS, _EXPS), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_matches_expansion(self, pairs):
        mons = [FracExpMonomial(c, m) for c, m in pairs]
        params = _outcome(CyclicHeckeParams.of, mons)
        if isinstance(params, type):
            # a repeated parameter is refused before any Schur element
            assert params is ValueError and len(set(mons)) < len(mons)
            return
        got = _outcome(schur_cyclic, params)
        want = _outcome(_schur_oracle, params)
        if isinstance(want, type):
            # a zero parameter divides by zero when e > 1
            assert got is want is ZeroDivisionError
            return
        h, polys = want
        assert [(s.h, s.index, s.poly) for s in got] == \
            [(h, i, p) for i, p in enumerate(polys)]

    @pytest.mark.parametrize("items", [["0"], ["0", "x"], ["x", "0", "-1"],
                                       ["x", "x"], ["E(3,1)", "1", "E(3,1)"]])
    def test_zero_and_repeated_parameters(self, items):
        params = _outcome(CyclicHeckeParams.of, items)
        if isinstance(params, type):
            assert params is ValueError
            return
        got, want = _outcome(schur_cyclic, params), _outcome(_schur_oracle, params)
        if isinstance(want, type):
            assert got is want
        else:
            assert [s.poly for s in got] == want[1]


class TestArikiKoike:
    def test_one_component_is_the_poincare_polynomial(self):
        # d = 1 is the Iwahori-Hecke algebra of S_3: the trivial character's
        # Schur element is the Poincare polynomial (1 + x)(1 + x + x^2)
        c, v, roots = ariki_koike_schur(((3,),), 1, [(0, 0)])
        assert (c, v) == (Cyclo.rational(1), 0)
        assert roots == Counter({(2, 1): 1, (3, 1): 1, (3, 2): 1})

    def test_sign_character_of_s3(self):
        # the sign character's element is the bar image x^-3 (1 + x)(1 + x + x^2)
        c, v, roots = ariki_koike_schur(((1, 1, 1),), 1, [(0, 0)])
        assert (c, v) == (Cyclo.rational(1), -3)
        assert roots == Counter({(2, 1): 1, (3, 1): 1, (3, 2): 1})


class TestSpetsialConditions:
    @pytest.mark.parametrize("e", [2, 3, 4, 5, 6])
    def test_one_series_is_spetsial(self, e):
        assert check_spetsial(one_spetsial_spec(e)).passed

    def test_failure_reported(self):
        bad = SpetsialAlgebraSpec(e=3, d=1, a=0,
                                  m=(Fraction(5), Fraction(0), Fraction(0)),
                                  n_ref=2, n_hyp=1)
        report = check_spetsial(bad)
        assert not report.passed
        # the exponent sum 5 is not N^hyp = 1; the rest holds
        assert report.failures() == ["CS"]


class TestNormalForms:
    def test_parse_serialize_roundtrip(self):
        text = "H_{Z_4}((E(4,1))*x^3, (E(4,1)), (E(4,1))*x, (-E(4,1)))"
        spec = parse_spec(text, 4, 1, n_ref=8, n_hyp=4)
        assert spec.serialize() == text
        assert spec.m == (Fraction(3), Fraction(0), Fraction(1), Fraction(0))

    def test_parse_rejects_bad_slots(self):
        with pytest.raises(ValueError):
            parse_spec("H_{Z_2}(x, x)", 1, 0)

    @pytest.mark.parametrize("e", [2, 3, 4, 6])
    def test_compactify_noncompactify_inverse(self, e):
        spec = one_spetsial_spec(e)
        assert compactify(noncompactify(spec)) == spec
        nc = noncompactify(spec)
        assert noncompactify(compactify(nc)) == nc

    def test_noncompact_exponents(self):
        # the 1-series algebra flips to exponents (0, 1, ..., 1)
        spec = noncompactify(one_spetsial_spec(5))
        assert spec.m == (Fraction(0),) + (Fraction(1),) * 4

    def test_ennola_twist(self):
        spec = ennola_twist(one_spetsial_spec(4), zeta(4))
        assert spec.serialize() == \
            "H_{Z_4}((-E(4,1))*x, (E(4,1)), -1, (-E(4,1)))"


class TestEigenvalueData:
    def test_omega_sigma_delta_cyclic(self):
        spec = one_spetsial_spec(3)
        out = [omega_sigma_delta(spec, i) for i in range(3)]
        assert out[0][0].serialize() == "x^3"
        assert (out[0][1], out[0][2]) == (Fraction(2), Fraction(0))
        for i in (1, 2):
            assert out[i][0].serialize() == "1"
            assert (out[i][1], out[i][2]) == (Fraction(-1), Fraction(3))
        # sigma off the exponents is that of the expanded Schur elements
        assert [o[1] for o in out] == [s.sigma() for s in spec.schur()]

    def test_frobenius_order_four_series(self):
        spec = parse_spec(
            "H_{Z_4}((E(4,1))*x^3, (E(4,1)), (E(4,1))*x, (-E(4,1)))",
            4, 1, n_ref=8, n_hyp=4)
        frs = [frobenius(spec, i) for i in range(4)]
        assert [[f.serialize() for f in fr] for fr in frs] == \
            [["1"], ["1"], ["1"], ["-1"]]

    def test_frobenius_order_three_series(self):
        spec = parse_spec(
            "H_{Z_6}((E(3,1))*x^2, (-E(3,1))*x, (E(3,1)), (1+E(3,1))*x, "
            "(-1-E(3,1)), (-E(3,1)))",
            3, 1, n_ref=8, n_hyp=4)
        frs = [frobenius(spec, i) for i in range(6)]
        assert [[f.serialize() for f in fr] for fr in frs] == \
            [["1"], ["1"], ["1"], ["(-1-E(3,1))"], ["(-1-E(3,1))"], ["1"]]


class TestClosedFormSigma:
    def test_sigma_and_frobenius_match_the_schur_elements(self):
        # sigma_i = e*m_i - sum(m) against valuation plus degree of S_i, on
        # the grid specs, fractional exponents (h > 1) included
        fractional = 0
        for spec in _grid_specs():
            for i, s in enumerate(spec.schur()):
                assert spec.sigma(i) == s.sigma(), (spec, i)
                if Fraction(spec.a * spec.e, spec.d).denominator == 1:
                    assert frobenius(spec, i) == frobenius_model(
                        spec.e, spec.d, spec.a, i, spec.n_ref - s.sigma())
            fractional += any(v.denominator > 1 for v in spec.m)
        assert fractional > 0


class TestSchurQuotients:
    def test_match_exact_division_on_the_series_cosets(self, g4, g312):
        """Every exponent vector of the five series of G4 and G(3,1,2): the
        quotients are Feg / S_j, and None exactly when SC3 fails."""
        count = Counter()
        for G, series in ((g4, [(4, 1), (3, 1)]), (g312, [(6, 1), (6, 5), (2, 1)])):
            for d, a in series:
                w = G.regular_element(zeta(d, a))
                e = G.cyclic_centralizer_order(w, zeta(d, a))
                feg = fake_degree_torus(G, w)
                for m in uch._exponent_vectors(e, G.n_hyp):
                    spec = SpetsialAlgebraSpec(e=e, d=d, a=a, m=m, n_ref=G.n_ref,
                                               n_hyp=G.n_hyp)
                    quos = schur_quotients(spec, feg)
                    sc3 = "SC3" not in check_spetsial(spec, G, w).failures()
                    assert (quos is not None) == sc3, (G.name, d, a, m)
                    if quos is None:
                        with pytest.raises(ArithmeticError):
                            [exact_div(feg, s.as_x()) for s in spec.schur()]
                    else:
                        assert quos == [exact_div(feg, s.as_x()) for s in spec.schur()]
                    count[sc3] += 1
        assert sum(count.values()) == 917 and count[True] > 0

    @given(st.integers(1, 4).flatmap(lambda e: st.tuples(
        st.lists(st.integers(-2, 3), min_size=e, max_size=e),
        st.sampled_from([(1, 0), (2, 1), (3, 1), (4, 3), (6, 5)]),
        st.dictionaries(st.integers(-3, 3), _COEFFS.filter(bool), min_size=1, max_size=3),
        st.lists(st.booleans(), min_size=e, max_size=e))))
    @settings(max_examples=100, deadline=None)
    def test_match_exact_division_on_products(self, case):
        # p = r * prod of some S_j, with negative exponents and valuations
        m, (d, a), r, take = case
        spec = SpetsialAlgebraSpec(e=len(m), d=d, a=a, m=m)
        schur = [s.as_x() for s in spec.schur()]
        p = LaurentPoly(r)
        for s, t in zip(schur, take):
            p = p * s if t else p
        want = []
        for s in schur:
            try:
                want.append(exact_div(p, s))
            except ArithmeticError:
                want = None
                break
        assert schur_quotients(spec, p) == want

    @given(st.integers(2, 4).flatmap(lambda e: st.tuples(
        st.lists(st.integers(-2, 2), min_size=e, max_size=e).filter(
            lambda m: len(set(m)) < len(m)),
        st.sampled_from([(1, 0), (2, 1), (3, 1), (4, 3), (6, 5)]),
        st.dictionaries(st.integers(-3, 3), _COEFFS.filter(bool), max_size=3),
        st.lists(st.booleans(), min_size=e, max_size=e))))
    @settings(max_examples=60, deadline=None)
    def test_folded_constants_match_peel_then_multiply(self, case):
        # slots with equal exponents make K = 0 pairs, whose constants,
        # folded into the peeled lifts, give what peeling and then
        # multiplying by the constant's inverse gives; r may be zero
        m, (d, a), r, take = case
        spec = SpetsialAlgebraSpec(e=len(m), d=d, a=a, m=m)
        p = LaurentPoly(r)
        for s, t in zip(spec.schur(), take):
            p = p * s.as_x() if t else p
        _, T, angles = spec.angles()
        want = []
        for kj, tj in angles:
            q = p.peel([(T, tj - tk, kj - kk) for kk, tk in angles if kk != kj])
            if q is None:
                want = None
                break
            const = Cyclo.rational(1)
            for kk, tk in angles:
                if kk == kj and tk != tj:
                    const = const * (1 - zeta(T, tj - tk))
            want.append(q * const.inverse())
        got = schur_quotients(spec, p)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == want and [hash(q) for q in got] == [hash(q) for q in want]
            assert [q.serialize() for q in got] == [q.serialize() for q in want]

    def test_refuses_fractional_exponents(self):
        spec = SpetsialAlgebraSpec(e=2, d=1, a=0, m=(Fraction(1, 2), Fraction(0)))
        with pytest.raises(ArithmeticError, match="fractional"):
            schur_quotients(spec, LaurentPoly.one())


class TestPalindromicity:
    def test_schur_semi_palindromic_random(self):
        # For parameters u_j = c_j x^{m_j} with unit coefficients,
        # conj(S_i)(1/x) == sign * S_i(x) * prod_{j!=i} u_j / u_i^{e-1}.
        rng = random.Random(20260826)
        roots = [Cyclo.rational(1), Cyclo.rational(-1),
                 zeta(3), zeta(3) ** 2, zeta(4), -zeta(4)]
        trials = 0
        while trials < 100:
            e = rng.randint(2, 5)
            coeffs = [rng.choice(roots) for _ in range(e)]
            exps = [rng.randint(0, 4) for _ in range(e)]
            mons = [FracExpMonomial(c, Fraction(m))
                    for c, m in zip(coeffs, exps)]
            if len({(c.serialize(), m) for c, m in zip(coeffs, exps)}) < e:
                continue
            params = CyclicHeckeParams(e, tuple(mons))
            schur = schur_cyclic(params)
            for i, si in enumerate(schur):
                s = si.as_x()
                ratio_coeff = Cyclo.rational((-1) ** (e - 1))
                ratio_exp = 0
                for j in range(e):
                    if j == i:
                        continue
                    ratio_coeff = ratio_coeff * coeffs[j] / coeffs[i]
                    ratio_exp += exps[j] - exps[i]
                lhs = s.vee()
                rhs = s * LaurentPoly.monomial(ratio_coeff, ratio_exp)
                assert lhs == rhs
            trials += 1


# -- oracles: the condition report by expansion and long division -------------------


def _elementary_symmetric(params):
    """Coefficients of prod (t - u_j) as polynomials in x, lowest t-degree first."""
    elem = [{Fraction(0): Cyclo.rational(1)}]
    for mon in params.params:
        new = [dict(d) for d in elem] + [{}]
        for k in range(len(elem)):
            for ex, c in elem[k].items():
                tgt = new[k + 1]
                key = ex + mon.exp
                tgt[key] = tgt.get(key, Cyclo.rational(0)) + c * mon.coeff
        elem = new
    return elem


def _oracle_report(spec, G=None, w=None):
    """(conditions, messages, chi0) of the spetsial conditions, decided the
    direct way: CA1 by expanding every elementary symmetric function of the
    u_j and testing its coefficients for Q(zeta_lcm(e, d)); SC2 and SC3 by
    pairwise long division of the Schur elements.  CA2 and SC1 are computed
    too, asserted to hold, as the normal form guarantees, and then dropped,
    as ``check_spetsial`` does not test them."""
    conds, msgs = {}, []
    params = spec.params()
    field = CycloField.cyclotomic(lcm(spec.e, spec.d))
    conds["CA1"] = all(field.contains(c) for layer in _elementary_symmetric(params)
                       for c in layer.values())
    q = params.v_denominator()
    if q > 1:
        twist = {FracExpMonomial(mon.coeff * zeta(q, int(mon.exp * q)), mon.exp)
                 for mon in params.params}
        ok = twist == set(params.params)
        conds["CA1"] = conds["CA1"] and ok
        if not ok:
            msgs.append("fractional exponents are not Galois-stable")
    at_zeta = {mon.coeff * zeta(spec.d * mon.exp.denominator, spec.a * mon.exp.numerator)
               for mon in params.params}
    conds["CA2"] = at_zeta == {zeta(spec.e, j) for j in range(spec.e)}
    const = FracExpMonomial.of((-1) ** (spec.e % 2))
    for mon in params.params:
        const = const * mon
    n_target = Fraction(spec.n_hyp if spec.variant == "compact" else spec.n_ref)
    want = FracExpMonomial(-zeta(spec.d * n_target.denominator,
                                 -spec.a * n_target.numerator), n_target)
    conds["CS" if spec.variant == "compact" else "NCS"] = const == want
    schur = spec.schur()
    polys = [s.poly for s in schur]
    conds["SC1"] = all(c.den == 1 for p in polys for _, c in p.coeffs)
    ca2, sc1 = conds.pop("CA2"), conds.pop("SC1")
    assert ca2 and sc1, spec
    maximal = [i for i, p in enumerate(polys) if all(divides(q_, p) for q_ in polys)]
    if len(maximal) > 1:
        maximal = [i for i in maximal if polys[i].valuation() == 0]
    conds["SC2"] = len(maximal) == 1
    if G is not None and w is not None and all(s.h == 1 for s in schur):
        feg = fake_degree_torus(G, w)
        conds["SC3"] = all(divides(p, feg) for p in polys)
    else:
        msgs.append("SC3 skipped: no ambient coset supplied")
    return conds, msgs, maximal[0] if len(maximal) == 1 else None


# ten series eigenvalues E(d, a)
GRID_ZETAS = [(1, 0), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (6, 1), (6, 5), (12, 7)]


def _grid_vectors(e, rng):
    """Exponent vectors for one (e, zeta): integral ones, fractional ones
    with denominators 2 and 3, the constant fractional vectors, which the
    twist v -> zeta_q v can permute, and at e = 4 a fractional vector that
    meets every condition for most zeta."""
    out = {tuple(rng.randint(0, 3) for _ in range(e)) for _ in range(5)}
    out |= {tuple(Fraction(rng.randint(0, 6), q) for _ in range(e))
            for q in (2, 3) for _ in range(2)}
    out |= {(Fraction(1, 2),) * e, (Fraction(2, 3),) * e}
    if e == 4:
        out.add((0, Fraction(1, 2), 1, Fraction(1, 2)))
    return sorted(out)


def _grid_specs():
    rng = random.Random(20261018)
    for e in range(1, 7):
        for d, a in GRID_ZETAS:
            for m in _grid_vectors(e, rng):
                total = sum(Fraction(v) for v in m)
                n = int(total) if total.denominator == 1 else e
                for variant in ("compact", "noncompact"):
                    # the variant's reflection count is the exponent sum for
                    # half of the specs, so CS/NCS both pass and fail
                    n_hyp, n_ref = (n, n + e) if variant == "compact" else (n + 1, n)
                    if rng.random() < 0.5:
                        n_hyp, n_ref = n_hyp + 1, n_ref + 1
                    yield SpetsialAlgebraSpec(e=e, d=d, a=a, m=m, variant=variant,
                                              n_ref=n_ref, n_hyp=n_hyp)


class TestConditionOracles:
    def test_reports_match_the_oracle(self):
        seen = Counter()
        for spec in _grid_specs():
            report = check_spetsial(spec)
            conds, msgs, chi0 = _oracle_report(spec)
            assert (report.conditions, report.messages, report.chi0) == \
                (conds, msgs, chi0), spec
            seen.update(k for k, ok in conds.items() if not ok)
            seen["fractional twist"] += "fractional exponents are not Galois-stable" in msgs
            seen["passed"] += all(conds.values())
            seen["fractional passed"] += all(conds.values()) and \
                any(v.denominator > 1 for v in spec.m)
        # the grid reaches every kind of failure, and passes
        for key in ("CA1", "fractional twist", "CS", "NCS", "SC2",
                    "passed", "fractional passed"):
            assert seen[key] > 0, key

    @pytest.mark.parametrize("variant", ["compact", "noncompact"])
    def test_reports_with_the_g4_coset_match_the_oracle(self, g4, g312, variant):
        """On the cosets of G4 and G(3,1,2), SC3 included; G(3,1,2) adds 372
        specs over both variants, 351 of them failing SC3."""
        for G in (g4, g312):
            seen = Counter()
            for z in regular_eigenvalues(G):
                w = G.regular_element(z)
                e = G.cyclic_centralizer_order(w, z)
                if e is None:
                    continue
                d, a = z.root_of_unity_order()
                total = G.n_hyp if variant == "compact" else G.n_ref
                # every compact vector of G4; every k-th of the others, such
                # as the 1,287 noncompact ones of G4 at e = 6
                vectors = list(uch._exponent_vectors(e, total))
                for m in vectors[::max(1, len(vectors) // 60)]:
                    spec = SpetsialAlgebraSpec(e=e, d=d, a=a, m=m, variant=variant,
                                               n_ref=G.n_ref, n_hyp=G.n_hyp)
                    report = check_spetsial(spec, G, w)
                    conds, msgs, chi0 = _oracle_report(spec, G, w)
                    assert (report.conditions, report.messages, report.chi0) == \
                        (conds, msgs, chi0), spec
                    seen.update(k for k, ok in conds.items() if not ok)
                    seen["passed"] += all(conds.values())
            for key in ("SC2", "SC3", "passed"):
                assert seen[key] > 0, (G.name, key)
