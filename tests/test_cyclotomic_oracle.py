"""Cyclo arithmetic against an independent numerical oracle.

Every result is read back from ``serialize()`` with this file's own parser and
evaluated with mpmath at 60 digits, so neither ``parse_cyclo`` nor the exact
kernel is on the oracle's side.  The expected values come from the drawn sums
``sum c * E(n, k)`` directly.  The printed power-basis form is also checked
against sympy's remainders mod Phi_n at conductors 1 to 130, 385 and 1155.
"""

import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from spets.cyclotomic import Cyclo, zeta

mpmath = pytest.importorskip("mpmath")

CONDUCTORS = [3, 4, 5, 7, 8, 9, 12, 15, 20, 24]

# c, c*E(n,k) or E(n,k), each signed; the first term may omit its sign
_TERM = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?(?:\*E\((\d+),(\d+)\))?|E\((\d+),(\d+)\))")


def power_basis(text):
    """{(n, k): coefficient} of a serialized element."""
    out, pos = {}, 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        assert m and m.end() > pos and (pos == 0 or m.group(1)), text
        sign, num, den, n1, k1, n2, k2 = m.groups()
        c = Fraction(int(num), int(den or 1)) if num else Fraction(1)
        n, k = (n1, k1) if n1 else (n2, k2) if n2 else (1, 0)
        out[int(n), int(k)] = -c if sign == "-" else c
        pos = m.end()
    return out


def value(terms, k=1):
    """sum c * E(n, j) over ((n, j), c) in terms, with E(n, j) -> E(n, j*k)."""
    return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator
                       * mpmath.expjpi(mpmath.mpf(2 * j * k) / n)
                       for (n, j), c in terms)


def evaluate(z, k=1):
    return value(power_basis(z.serialize()).items(), k)


def close(a, b):
    return abs(a - b) <= mpmath.mpf(10) ** -45 * (1 + abs(b))


def _element(n):
    coeff = st.one_of(st.integers(-4, 4).map(Fraction),
                      st.fractions(-4, 4, max_denominator=6))
    return st.lists(st.tuples(st.integers(0, n - 1), coeff), max_size=5).map(
        lambda ts: (sum((zeta(n, k) * c for k, c in ts), Cyclo.rational(0)),
                    n, [((n, k), c) for k, c in ts]))


# (element, conductor it was drawn at, its drawn terms)
elements = st.sampled_from(CONDUCTORS).flatmap(_element)


@pytest.fixture(autouse=True)
def sixty_digits():
    with mpmath.workdps(60):
        yield


@given(elements, elements)
@settings(max_examples=120, deadline=None)
def test_sum_and_product(a, b):
    (x, _, tx), (y, _, ty) = a, b
    vx, vy = value(tx), value(ty)
    assert close(evaluate(x), vx)
    assert close(evaluate(x + y), vx + vy)
    assert close(evaluate(x - y), vx - vy)
    assert close(evaluate(x * y), vx * vy)


@given(elements)
@settings(max_examples=120, deadline=None)
def test_inverse(a):
    x, _, tx = a
    assume(not x.is_zero())
    assert close(evaluate(x.inverse()), 1 / value(tx))
    assert x * x.inverse() == 1


@given(elements, st.integers(1, 200))
@settings(max_examples=120, deadline=None)
def test_galois_and_conjugate(a, k):
    x, n, tx = a
    assume(gcd(k, n) == 1)
    assert close(evaluate(x.galois(k)), value(tx, k))
    assert close(evaluate(x.conjugate()), mpmath.conj(value(tx)))


@given(elements)
@settings(max_examples=150, deadline=None)
def test_conductor_is_minimal(a):
    x, n, _ = a
    f = x.n
    assert n % f == 0 and f % 4 != 2
    # the printed form is on the power basis of Q(zeta_f)
    phi = sum(1 for k in range(1, f + 1) if gcd(k, f) == 1)
    assert all((m, k) == (1, 0) or (m == f and 0 < k < phi)
               for m, k in power_basis(x.serialize()))
    # x lies outside Q(zeta_{f/p}): some element of Gal(Q(zeta_f)/Q(zeta_{f/p}))
    # moves it
    v = evaluate(x)
    for p in (p for p in range(2, f + 1) if f % p == 0 and all(p % q for q in range(2, p))):
        ks = [k for k in range(1, f + 1, f // p) if gcd(k, f) == 1]
        assert any(not close(evaluate(x, k), v) for k in ks), (x, p)


@given(elements)
@settings(max_examples=150, deadline=None)
def test_integrality_matches_power_basis(a):
    x, _, _ = a
    coeffs = power_basis(x.serialize()).values()
    # the Zumbroich basis spans Z[zeta_n] over Z: integral exactly when den == 1
    assert (x.den == 1) == all(c.denominator == 1 for c in coeffs)


@pytest.mark.parametrize("n", list(range(1, 131)) + [385, 1155])
def test_serialize_matches_sympy_remainders(n):
    """Sums c * E(n, k) print on the power basis of Q(zeta_f), f the
    element's conductor: every exponent is below phi(f), and the printed sum,
    rewritten at n, differs from the drawn one by a multiple of Phi_n."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, z), z)
    rng = random.Random(n)
    draws = [[(n - 1, 1)], [(rng.randrange(n), -1)]] + [
        [(rng.randrange(n), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
         for _ in range(rng.randint(1, 6))] for _ in range(4)]
    for terms in draws:
        x = sum((zeta(n, k) * c for k, c in terms), Cyclo.rational(0))
        printed = power_basis(x.serialize())
        f = x.n
        assert all((m, k) == (1, 0) or (m == f and 0 < k < sympy.totient(f))
                   for m, k in printed), x
        diff = {}
        for e, c in [(k * n // m, c) for (m, k), c in printed.items()] + [
                (k, -c) for k, c in terms]:
            diff[e] = diff.get(e, 0) + c
        # over ZZ, cleared of denominators: Phi_n is monic
        den = lcm(*[c.denominator for c in diff.values()])
        diff = sympy.Poly.from_dict({(e,): int(c * den) for e, c in diff.items()}, z,
                                    domain="ZZ")
        assert diff.rem(phi, auto=False).is_zero, x
