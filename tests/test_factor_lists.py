"""Golden data for K-cyclotomic factorizations over the named quadratic and
quartic fields: every factor list must match exactly."""

import pytest

from spets.cyclotomic import Cyclo, field_from_name, sqrt_int, zeta
from spets.laurent import LaurentPoly, k_cyclotomic_factors

x = LaurentPoly.x()
one = LaurentPoly.one()
i = zeta(4)
z3 = zeta(3)
z12 = zeta(12)
r3 = sqrt_int(3)
r5 = sqrt_int(5)
r6 = sqrt_int(6)
rm2 = sqrt_int(-2)
rm7 = sqrt_int(-7)
half = Cyclo.rational(1) / 2


def conj(p):
    return p.conjugate()


Q_I = {
    4: [x - i, x + i],
    8: [x ** 2 - i, x ** 2 + i],
    12: [x ** 2 - x * i - 1, x ** 2 + x * i - 1],
    20: [x ** 4 + x ** 3 * i - x ** 2 - x * i + 1,
         x ** 4 - x ** 3 * i - x ** 2 + x * i + 1],
}

Q_Z3 = {
    3: [x - z3, x - z3 ** 2],
    6: [x + z3 ** 2, x + z3],
    9: [x ** 3 - z3, x ** 3 - z3 ** 2],
    12: [x ** 2 + z3 ** 2, x ** 2 + z3],
    15: [x ** 4 + x ** 3 * z3 ** 2 + x ** 2 * z3 + x + z3 ** 2,
         x ** 4 + x ** 3 * z3 + x ** 2 * z3 ** 2 + x + z3],
    18: [x ** 3 + z3 ** 2, x ** 3 + z3],
    21: [x ** 6 + x ** 5 * z3 + x ** 4 * z3 ** 2 + x ** 3 + x ** 2 * z3
         + x * z3 ** 2 + 1,
         conj(x ** 6 + x ** 5 * z3 + x ** 4 * z3 ** 2 + x ** 3 + x ** 2 * z3
              + x * z3 ** 2 + 1)],
    24: [x ** 4 + z3 ** 2, x ** 4 + z3],
    30: [x ** 4 - x ** 3 * z3 + x ** 2 * z3 ** 2 - x + z3,
         conj(x ** 4 - x ** 3 * z3 + x ** 2 * z3 ** 2 - x + z3)],
    42: [x ** 6 - x ** 5 * z3 ** 2 + x ** 4 * z3 - x ** 3 + x ** 2 * z3 ** 2
         - x * z3 + 1,
         conj(x ** 6 - x ** 5 * z3 ** 2 + x ** 4 * z3 - x ** 3
              + x ** 2 * z3 ** 2 - x * z3 + 1)],
}

Q_SQRT3 = {
    12: [x ** 2 - x * r3 + 1, x ** 2 + x * r3 + 1],
}

Q_SQRT5 = {
    5: [x ** 2 + x * ((1 - r5) * half) + 1, x ** 2 + x * ((1 + r5) * half) + 1],
    10: [x ** 2 + x * ((-1 - r5) * half) + 1,
         x ** 2 + x * ((-1 + r5) * half) + 1],
    15: [x ** 4 + (x ** 3 + x) * ((-1 - r5) * half)
         + x ** 2 * ((1 + r5) * half) + 1,
         x ** 4 + (x ** 3 + x) * ((-1 + r5) * half)
         + x ** 2 * ((1 - r5) * half) + 1],
    30: [x ** 4 + (x ** 3 + x ** 2 + x) * ((1 - r5) * half) + 1,
         x ** 4 + (x ** 3 + x ** 2 + x) * ((1 + r5) * half) + 1],
}

Q_SQRTM2 = {
    8: [x ** 2 - x * rm2 - 1, x ** 2 + x * rm2 - 1],
    24: [x ** 4 + x ** 3 * rm2 - x ** 2 - x * rm2 + 1,
         x ** 4 - x ** 3 * rm2 - x ** 2 + x * rm2 + 1],
}

Q_SQRTM7 = {
    7: [x ** 3 + x ** 2 * ((1 - rm7) * half) + x * ((-1 - rm7) * half) - 1,
        x ** 3 + x ** 2 * ((1 + rm7) * half) + x * ((-1 + rm7) * half) - 1],
    14: [x ** 3 + x ** 2 * ((-1 + rm7) * half) + x * ((-1 - rm7) * half) + 1,
         x ** 3 + x ** 2 * ((-1 - rm7) * half) + x * ((-1 + rm7) * half) + 1],
}

Q_SQRT6 = {
    24: [x ** 4 - x ** 3 * r6 + x ** 2 * 3 - x * r6 + 1,
         x ** 4 + x ** 3 * r6 + x ** 2 * 3 + x * r6 + 1],
}

Q_Z12 = {
    12: [x + z12 ** 7, x + z12 ** 11, x + z12, x + z12 ** 5],
}

Q_SQRT5_Z3 = {
    15: [x ** 2 + x * ((1 + r5) * half * z3 ** 2) + z3,
         x ** 2 + x * ((1 - r5) * half * z3 ** 2) + z3,
         x ** 2 + x * ((1 + r5) * half * z3) + z3 ** 2,
         x ** 2 + x * ((1 - r5) * half * z3) + z3 ** 2],
    30: [x ** 2 + x * ((-1 + r5) * half * z3 ** 2) + z3,
         x ** 2 + x * ((-1 - r5) * half * z3 ** 2) + z3,
         x ** 2 + x * ((-1 + r5) * half * z3) + z3 ** 2,
         x ** 2 + x * ((-1 - r5) * half * z3) + z3 ** 2],
}

Q_SQRTM2_Z3 = {
    24: [x ** 2 + x * (rm2 * z3 ** 2) - z3,
         x ** 2 - x * (rm2 * z3 ** 2) - z3,
         x ** 2 + x * (rm2 * z3) - z3 ** 2,
         x ** 2 - x * (rm2 * z3) - z3 ** 2],
}

ALL_LISTS = [
    ("Q(i)", Q_I),
    ("Q(zeta3)", Q_Z3),
    ("Q(sqrt3)", Q_SQRT3),
    ("Q(sqrt5)", Q_SQRT5),
    ("Q(sqrt-2)", Q_SQRTM2),
    ("Q(sqrt-7)", Q_SQRTM7),
    ("Q(sqrt6)", Q_SQRT6),
    ("Q(zeta12)", Q_Z12),
    ("Q(sqrt5,zeta3)", Q_SQRT5_Z3),
    ("Q(sqrt-2,zeta3)", Q_SQRTM2_Z3),
]

CASES = [(fname, d, polys)
         for fname, table in ALL_LISTS for d, polys in table.items()]


@pytest.mark.parametrize("fname,d,expected",
                         CASES, ids=[f"{f}-Phi{d}" for f, d, _ in CASES])
def test_factor_list(fname, d, expected):
    field = field_from_name(fname)
    got = {f.poly.serialize() for f in k_cyclotomic_factors(d, field)}
    want = {p.serialize() for p in expected}
    assert got == want


@pytest.mark.parametrize("fname,d,expected",
                         CASES, ids=[f"{f}-Phi{d}" for f, d, _ in CASES])
def test_factor_product(fname, d, expected):
    from spets.cyclotomic import CycloField
    prod = one
    for p in expected:
        prod = prod * p
    phi_d = k_cyclotomic_factors(d, CycloField.rationals())[0].poly
    assert prod == phi_d


# generators of each named field, for sympy's extension=; None is Q itself
SYMPY_GENERATORS = {
    "Q": None, "Q(i)": ["I"], "Q(zeta3)": ["sqrt(-3)"], "Q(zeta4)": ["I"],
    "Q(zeta12)": ["I", "sqrt(3)"], "Q(sqrt3)": ["sqrt(3)"], "Q(sqrt5)": ["sqrt(5)"],
    "Q(sqrt6)": ["sqrt(6)"], "Q(sqrt-2)": ["sqrt(-2)"], "Q(sqrt-7)": ["sqrt(-7)"],
    "Q(sqrt5,zeta3)": ["sqrt(5)", "sqrt(-3)"], "Q(sqrt-2,zeta3)": ["sqrt(-2)", "sqrt(-3)"],
}


@pytest.mark.parametrize("fname", sorted(SYMPY_GENERATORS))
def test_factor_degrees_match_sympy(fname):
    """The degrees of the factors of Phi_d over K, d <= 24, against sympy's
    factorization over the algebraic extension."""
    sympy = pytest.importorskip("sympy")
    from spets.cyclotomic import _NAMED_FIELDS
    assert set(SYMPY_GENERATORS) == set(_NAMED_FIELDS)
    gens = SYMPY_GENERATORS[fname]
    ext = None if gens is None else [sympy.sympify(g) for g in gens]
    field = field_from_name(fname)
    X = sympy.Symbol("x")
    for d in range(1, 25):
        _, factors = sympy.factor_list(sympy.cyclotomic_poly(d, X), X, extension=ext)
        want = sorted(sympy.degree(f, X) for f, m in factors for _ in range(m))
        got = sorted(len(f.root_exponents) for f in k_cyclotomic_factors(d, field))
        assert got == want, (fname, d)


@pytest.mark.parametrize("fname", ["Q", "Q(sqrt5)", "Q(i)"])
def test_each_factor_is_the_product_of_its_linear_factors(fname):
    """An orbit of all phi(d) primitive roots gives Phi_d from its integer
    coefficients; every factor equals the product of x - E(d, k) over its
    root exponents, d <= 36."""
    field = field_from_name(fname)
    for d in range(1, 37):
        for f in k_cyclotomic_factors(d, field):
            prod = one
            for k in sorted(f.root_exponents):
                prod = prod * (x - zeta(d, k))
            assert f.poly == prod, (fname, d)
