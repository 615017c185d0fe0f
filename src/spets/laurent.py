"""Laurent polynomials over cyclotomic fields, and K-cyclotomic polynomials.

A :class:`LaurentPoly` is a finite sum ``sum c_e * x^e`` with ``c_e``
cyclotomic and ``e`` an integer (possibly negative).  Serialization lists
terms by decreasing exponent, joined with `` + `` / `` - ``; composite
cyclotomic coefficients are parenthesized, e.g. ``(1+2*E(3,1))*x^2 - 3``.

:func:`k_cyclotomic_factors` returns the irreducible factors over a given
field K of the d-th (rational) cyclotomic polynomial, computed by grouping
the primitive d-th roots of unity into Galois orbits over K.

:class:`FracExpMonomial` is a boundary type for quantities of the form
``c * x^(p/q)`` (Frobenius eigenvalues, monomial Schur ratios); it prints
fractional exponents as ``x^(p/q)``.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Union

from .cyclotomic import Cyclo, CycloField, CycloSum, zeta

__all__ = [
    "LaurentPoly",
    "FracExpMonomial",
    "KCycloPoly",
    "k_cyclotomic_factors",
    "parse_poly",
]

Scalar = Union[Cyclo, int, Fraction]


def _coerce(c: Scalar) -> Cyclo:
    return c if isinstance(c, Cyclo) else Cyclo.rational(c)


class LaurentPoly:
    """Immutable Laurent polynomial with exact cyclotomic coefficients."""

    __slots__ = ("coeffs", "_hash")

    coeffs: tuple[tuple[int, Cyclo], ...]  # sorted by exponent, no zeros

    def __init__(self, coeffs: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]]):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        acc: dict[int, Cyclo] = {}
        for e, c in items:
            c = _coerce(c)
            if e in acc:
                c = acc[e] + c
            acc[e] = c
        _set_coeffs(self, tuple(sorted([(e, c) for e, c in acc.items() if c.terms])))
        _set_lhash(self, None)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def x(e: int = 1) -> "LaurentPoly":
        return LaurentPoly({e: 1})

    @staticmethod
    def constant(c: Scalar) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def monomial(c: Scalar, e: int) -> "LaurentPoly":
        return LaurentPoly({e: c})

    @staticmethod
    def combination(terms: Iterable[tuple["LaurentPoly", Scalar]]) -> "LaurentPoly":
        """sum(c * p) over the pairs (p, c), each coefficient reduced once."""
        sums: defaultdict[int, CycloSum] = defaultdict(CycloSum)
        for p, c in terms:
            c = _coerce(c)
            for e, a in p.coeffs:
                sums[e].add(a, c)
        return LaurentPoly({e: s.value() for e, s in sums.items()})

    # -- queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def valuation(self) -> int:
        if not self.coeffs:
            raise ValueError("valuation of zero")
        return self.coeffs[0][0]

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of zero")
        return self.coeffs[-1][0]

    def leading_coeff(self) -> Cyclo:
        return self.coeffs[-1][1]

    def coeff(self, e: int) -> Cyclo:
        for ee, c in self.coeffs:
            if ee == e:
                return c
        return Cyclo.rational(0)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        other = _poly(other)
        return LaurentPoly(list(self.coeffs) + list(other.coeffs))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _lmake(tuple([(e, -c) for e, c in self.coeffs]))

    def __sub__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        return self + (-_poly(other))

    def __rsub__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        return _poly(other) + (-self)

    def __mul__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        other = _poly(other)
        if len(self.coeffs) == 1 or len(other.coeffs) == 1:  # nothing to sum
            return LaurentPoly([(e1 + e2, c1 * c2) for e1, c1 in self.coeffs
                                for e2, c2 in other.coeffs])
        sums: defaultdict[int, CycloSum] = defaultdict(CycloSum)
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                sums[e1 + e2].add(c1, c2)
        return LaurentPoly({e: s.value() for e, s in sums.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            if not self.is_monomial():
                raise ValueError("negative powers only for monomials")
            e, c = self.coeffs[0]
            return LaurentPoly({-e: c.inverse()}) ** (-k)
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            if k > 1:
                base = base * base
            k >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x^k."""
        if k == 0:
            return self
        return _lmake(tuple([(e + k, c) for e, c in self.coeffs]))

    def divmod_poly(self, other: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        """Division with remainder after normalizing both to valuation 0."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        va = 0 if self.is_zero() else min(0, self.valuation())
        vb = min(0, other.valuation())
        a = self.shift(-va)
        b = other.shift(-vb)
        # the pending coefficients stay unreduced sums; a sum that is not
        # zero in the group ring can still be zero, so test reduced values
        num: defaultdict[int, CycloSum] = defaultdict(CycloSum)
        for e, c in a.coeffs:
            num[e].add(c)
        deg_b, lead_b = b.coeffs[-1]
        inv_lead = lead_b.inverse()
        quo: dict[int, Cyclo] = {}
        while num:
            deg_n = max(num)
            if deg_n < deg_b:
                break
            lead = num.pop(deg_n).value()
            if lead.is_zero():
                continue
            f = lead * inv_lead
            quo[deg_n - deg_b] = f
            f = -f
            for e, c in b.coeffs[:-1]:  # f * lead_b cancels lead
                num[e + deg_n - deg_b].add(f, c)
        rem = LaurentPoly({e: s.value() for e, s in num.items()})
        return LaurentPoly(quo).shift(va - vb), rem.shift(va)

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        # Laurent-ring divisibility ignores valuations: strip them first.
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        va, vb = self.valuation(), other.valuation()
        q, r = self.shift(-va).divmod_poly(other.shift(-vb))
        if not r.is_zero():
            raise ArithmeticError("non-exact polynomial division")
        return q.shift(va - vb)

    def __truediv__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        other = _poly(other)
        if other.is_monomial():
            e, c = other.coeffs[0]
            inv = c.inverse()
            return LaurentPoly([(ee - e, cc * inv) for ee, cc in self.coeffs])
        return self.exact_div(other)

    def divides(self, other: "LaurentPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        if other.is_zero():
            return True
        return other.shift(-other.valuation()).divmod_poly(
            self.shift(-self.valuation()))[1].is_zero()

    # -- transforms ---------------------------------------------------------
    def evaluate(self, v: Scalar) -> Cyclo:
        """Value at v, reduced once: sum(c_e * E(d, k*e)) at a root of unity
        v = E(d, k), from cached roots; else sum(c_e * v^(e - val)) * v^val."""
        v = _coerce(v)
        if not self.coeffs:
            return Cyclo.rational(0)
        root = v.root_of_unity_order()
        if root is not None:
            d, k = root
            s = CycloSum()
            for e, c in self.coeffs:
                s.add(c, Cyclo.root_of_unity(d, k * e % d))
            return s.value()
        val = self.coeffs[0][0]
        s = CycloSum()
        p, k = Cyclo.rational(1), val  # p = v^(k - val)
        for e, c in self.coeffs:
            if e != k:
                p = p * v ** (e - k)
                k = e
            s.add(c, p)
        return s.value() * v ** val if val else s.value()

    def conjugate(self) -> "LaurentPoly":
        """Complex-conjugate the coefficients."""
        return _lmake(tuple([(e, c.conjugate()) for e, c in self.coeffs]))

    def vee(self) -> "LaurentPoly":
        """The involution P -> conj(P)(1/x)."""
        return _lmake(tuple([(-e, c.conjugate()) for e, c in reversed(self.coeffs)]))

    def scale_x(self, s: Scalar) -> "LaurentPoly":
        """Substitute x -> s*x."""
        s = _coerce(s)
        return LaurentPoly([(e, c * s ** e) for e, c in self.coeffs])

    # -- comparison / hashing ------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Cyclo)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            # a constant hashes like its coefficient, as == compares them equal
            if not self.coeffs:
                h = hash(0)
            elif len(self.coeffs) == 1 and self.coeffs[0][0] == 0:
                h = hash(self.coeffs[0][1])
            else:
                h = hash(self.coeffs)
            _set_lhash(self, h)
        return h

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- serialization ---------------------------------------------------------
    def serialize(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e, c in reversed(self.coeffs):
            sign, core = _term_str(c, e)
            if not parts:
                parts.append(core if sign > 0 else "-" + core)
            else:
                parts.append((" + " if sign > 0 else " - ") + core)
        return "".join(parts)

    @staticmethod
    def parse(text: str) -> "LaurentPoly":
        return parse_poly(text)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.serialize()})"


# the slot setters, which bypass the immutability guard
_set_coeffs, _set_lhash = LaurentPoly.coeffs.__set__, LaurentPoly._hash.__set__


def _lmake(coeffs: tuple[tuple[int, Cyclo], ...]) -> LaurentPoly:
    """A LaurentPoly from terms already sorted by exponent, merged and nonzero."""
    p = object.__new__(LaurentPoly)
    _set_coeffs(p, coeffs)
    _set_lhash(p, None)
    return p


def _poly(v: "LaurentPoly | Scalar") -> LaurentPoly:
    if isinstance(v, LaurentPoly):
        return v
    return LaurentPoly.constant(v)


def _term_str(c: Cyclo, e: int) -> tuple[int, str]:
    """(sign, unsigned term string) for c*x^e."""
    ser = c.serialize()
    sign = 1
    # a serialized Cyclo is a bare rational exactly when it names no E(n,k)
    if "E" not in ser:
        if ser.startswith("-"):
            sign, ser = -1, ser[1:]
        coeff_core = ser
        omit = coeff_core == "1"
    else:
        coeff_core = f"({ser})"
        omit = False
    if e == 0:
        return sign, coeff_core if not omit else "1"
    xpart = "x" if e == 1 else f"x^{e}"
    return sign, xpart if omit else f"{coeff_core}*{xpart}"


def parse_poly(text: str) -> LaurentPoly:
    """Parse the term-list grammar emitted by :meth:`LaurentPoly.serialize`."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial literal")
    if text == "0":
        return LaurentPoly.zero()
    # split into signed terms at top-level +/-
    terms: list[tuple[int, str]] = []
    depth = 0
    cur = []
    sign = 1
    i = 0
    if text[0] == "-":
        sign = -1
        i = 1
    elif text[0] == "+":
        i = 1
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and cur and cur[-1] not in "(^+-*/eE,":
            terms.append((sign, "".join(cur).strip()))
            cur = []
            sign = 1 if ch == "+" else -1
        else:
            cur.append(ch)
        i += 1
    terms.append((sign, "".join(cur).strip()))
    acc: list[tuple[int, Cyclo]] = []
    x_power = re.compile(r"x(?:\^(-?\d+))?$")
    for sg, term in terms:
        e, c = _parse_term(term, x_power)
        acc.append((e, c * sg))
    return LaurentPoly(acc)


def _parse_term(term: str, x_power: re.Pattern) -> tuple[int, Cyclo]:
    term = term.strip()
    m = x_power.search(term)
    if m and (m.start() == 0 or term[m.start() - 1] in "*) "):
        e = int(m.group(1)) if m.group(1) else 1
        head = term[: m.start()].rstrip()
        if head.endswith("*"):
            head = head[:-1].rstrip()
        if not head:
            return e, Cyclo.rational(1)
        return e, _parse_coeff(head)
    return 0, _parse_coeff(term)


def _parse_coeff(text: str) -> Cyclo:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return Cyclo.parse(text)


# -- fractional-exponent monomials ----------------------------------------------


class FracExpMonomial:
    """A monomial ``coeff * x^exp`` with rational exponent."""

    def __init__(self, coeff: Cyclo, exp: Fraction = Fraction(0)):
        self.__dict__.update(coeff=coeff, exp=exp)

    def __setattr__(self, *a):
        raise AttributeError("FracExpMonomial is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not FracExpMonomial:
            return NotImplemented
        return self.coeff == other.coeff and self.exp == other.exp

    def __hash__(self) -> int:
        return hash((self.coeff, self.exp))

    @staticmethod
    def of(c: Scalar, e: "Fraction | int" = 0) -> "FracExpMonomial":
        return FracExpMonomial(_coerce(c), Fraction(e))

    def __mul__(self, other: "FracExpMonomial") -> "FracExpMonomial":
        return FracExpMonomial(self.coeff * other.coeff, self.exp + other.exp)

    def __truediv__(self, other: "FracExpMonomial") -> "FracExpMonomial":
        return FracExpMonomial(self.coeff / other.coeff, self.exp - other.exp)

    def __pow__(self, k: int) -> "FracExpMonomial":
        return FracExpMonomial(self.coeff ** k, self.exp * k)

    def vee(self) -> "FracExpMonomial":
        return FracExpMonomial(self.coeff.conjugate(), -self.exp)

    def serialize(self) -> str:
        ser = self.coeff.serialize()
        if "E" in ser:
            ser = f"({ser})"
        if self.exp == 0:
            return ser
        if self.exp.denominator == 1:
            xpart = "x" if self.exp == 1 else f"x^{self.exp}"
        else:
            xpart = f"x^({self.exp})"
        return xpart if ser == "1" else f"{ser}*{xpart}"

    @staticmethod
    def parse(text: str) -> "FracExpMonomial":
        text = text.strip()
        # an exponent with a zero denominator is left to fail as a literal
        m = re.search(r"x(?:\^\(?(-?\d+(?:/0*[1-9]\d*)?)\)?)?$", text)
        if m and (m.start() == 0 or text[m.start() - 1] in "*) "):
            exp = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            head = text[: m.start()].rstrip()
            if head.endswith("*"):
                head = head[:-1].rstrip()
            coeff = _parse_coeff(head) if head else Cyclo.rational(1)
            return FracExpMonomial(coeff, exp)
        return FracExpMonomial(_parse_coeff(text), Fraction(0))

    def __repr__(self) -> str:
        return f"FracExpMonomial({self.serialize()})"


# -- K-cyclotomic polynomials ----------------------------------------------------


class KCycloPoly:
    """An irreducible factor over K of the d-th cyclotomic polynomial.

    ``root_exponents`` holds the exponents k of its roots zeta_d^k.
    """

    def __init__(self, poly: LaurentPoly, root_order: int, field: CycloField,
                 root_exponents: frozenset[int], label: str = ""):
        self.__dict__.update(poly=poly, root_order=root_order, field=field,
                             root_exponents=root_exponents, label=label)

    def __setattr__(self, *a):
        raise AttributeError("KCycloPoly is immutable")

    def serialize(self) -> str:
        return self.poly.serialize()

    def __repr__(self) -> str:
        mark = self.label or f"Phi_{self.root_order}"
        return f"KCycloPoly({mark}: {self.poly.serialize()})"


def k_cyclotomic_factors(d: int, field: CycloField) -> list[KCycloPoly]:
    """Irreducible factors of Phi_d over the field, in canonical order.

    Roots are grouped into orbits under Gal(Qbar/K) acting on primitive
    d-th roots of unity; factors are ordered by their smallest root
    exponent.
    """
    if d < 1:
        raise ValueError(f"cyclotomic polynomial index must be positive, got {d}")
    n = field.conductor
    lcm = d * n // gcd(d, n)
    galois = field.galois_orbit_exponents(lcm)
    prim = [k for k in range(1, d + 1) if gcd(k, d) == 1] if d > 1 else [0]
    remaining = set(prim)
    orbits: list[list[int]] = []
    while remaining:
        k0 = min(remaining)
        orbit = sorted({(k0 * g) % d for g in galois})
        remaining -= set(orbit)
        orbits.append(orbit)
    out = []
    for orbit in orbits:
        poly = LaurentPoly.one()
        for k in orbit:
            poly = poly * (LaurentPoly.x() - LaurentPoly.constant(zeta(d, k)))
        for _, c in poly.coeffs:
            if not field.contains(c):  # pragma: no cover - sanity
                raise ArithmeticError("factor coefficients escaped the field")
        out.append(KCycloPoly(poly, d, field, frozenset(orbit)))
    return out
