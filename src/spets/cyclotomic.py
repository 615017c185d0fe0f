"""Exact arithmetic in cyclotomic number fields.

Elements of ``Q(zeta_n)`` are stored on the rational power basis
``1, zeta, ..., zeta^{phi(n)-1}`` (coefficients are ``fractions.Fraction``)
after reduction modulo the ``n``-th cyclotomic polynomial.  Every element is
kept at its minimal conductor, so equality and hashing are structural and
arithmetic never accumulates spurious field extensions.

Serialization uses the grammar ``c`` / ``c*E(n,k)`` joined by ``+``, where
``E(n,k)`` denotes ``exp(2*pi*i*k/n)`` and terms are ordered by increasing
``k``; e.g. ``sqrt(-3)`` prints as ``1+2*E(3,1)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence, Union

__all__ = [
    "Cyclo",
    "CycloField",
    "zeta",
    "sqrt_int",
    "field_from_name",
    "parse_cyclo",
    "totient",
    "divisors",
    "row_reduce",
    "solve_linear",
    "cyclotomic_int_coeffs",
]

Rat = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of the n-th cyclotomic polynomial.

    Computed by exact division of ``x^n - 1`` by the product of ``Phi_d``
    over proper divisors ``d`` of ``n``.
    """
    # numerator x^n - 1
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n)[:-1]:
        den = cyclotomic_int_coeffs(d)
        num = _polydiv_exact_int(num, list(den))
    return tuple(num)


def _polydiv_exact_int(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:  # pragma: no cover - defensive
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, dc in enumerate(den):
                num[i + j] -= q * dc
    if any(num):  # pragma: no cover - defensive
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Representation of zeta_n^k on the power basis, for 0 <= k < n."""
    phi = totient(n)
    rows: list[tuple[Fraction, ...]] = []
    # seed with unit vectors, then reduce higher powers with Phi_n:
    # zeta^phi = -(c_0 + c_1 zeta + ... + c_{phi-1} zeta^{phi-1}) / c_phi,
    # and Phi_n is monic so c_phi = 1.
    coeffs = cyclotomic_int_coeffs(n)
    for k in range(n):
        if k < phi:
            row = [_ZERO] * phi
            row[k] = _ONE
        else:
            prev = rows[k - 1]
            shifted = [_ZERO] + list(prev[:-1])
            top = prev[-1]
            if top:
                for j in range(phi):
                    shifted[j] -= top * coeffs[j]
            row = shifted
        rows.append(tuple(row))
    return tuple(rows)


def row_reduce(rows: list[list]) -> list[int]:
    """Gauss-Jordan elimination in place; returns the pivot column of each row.

    ``rows`` ends in reduced row echelon form.  Entries need only ``bool``,
    ``*``, ``-`` and ``1 / x``, so the same loop serves ``Fraction`` and
    :class:`Cyclo` matrices.
    """
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    return pivots


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[list]:
    """The solution v of matrix @ v = rhs, or None when rhs is outside the
    column span; the columns of ``matrix`` must be linearly independent."""
    cols = len(matrix[0])
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = row_reduce(rows)
    if pivots[-1:] == [cols]:  # a pivot in the right-hand side
        return None
    if len(pivots) != cols:
        raise ArithmeticError("solve_linear needs linearly independent columns")
    return [row[cols] for row in rows[:cols]]


@lru_cache(maxsize=None)
def _subfield_basis_matrix(d: int, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix whose columns express the power basis of Q(zeta_d) in Q(zeta_n)."""
    step = n // d
    table = _power_table(n)
    phi_n, phi_d = totient(n), totient(d)
    cols = [table[(j * step) % n] for j in range(phi_d)]
    return tuple(tuple(cols[j][i] for j in range(phi_d)) for i in range(phi_n))


class Cyclo:
    """An element of a cyclotomic field, at minimal conductor."""

    __slots__ = ("n", "coeffs", "_hash")

    n: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, n: int, coeffs: Sequence[Rat], reduce: bool = True):
        phi = totient(n)
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != phi:
            raise ValueError(f"expected {phi} coefficients for conductor {n}")
        if reduce and n > 1:
            n, vec = _minimize_conductor(n, vec)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(vec))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyclo is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def rational(q: Rat) -> "Cyclo":
        return Cyclo(1, [Fraction(q)], reduce=False)

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "Cyclo":
        k %= n
        g = gcd(k, n) if k else n
        n2, k2 = n // g, k // g
        table = _power_table(n2)
        return Cyclo(n2, list(table[k2 % n2]))

    # -- basic queries -------------------------------------------------
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return self.n == 1

    def as_rational(self) -> Optional[Fraction]:
        return self.coeffs[0] if self.n == 1 else None

    def is_integral(self) -> bool:
        """True when the element lies in Z[zeta_n] (the ring of integers)."""
        return all(c.denominator == 1 for c in self.coeffs)

    # -- arithmetic ----------------------------------------------------
    def _lift(self, n: int) -> list[Fraction]:
        if n == self.n:
            return list(self.coeffs)
        step = n // self.n
        table = _power_table(n)
        out = [_ZERO] * totient(n)
        for j, c in enumerate(self.coeffs):
            if c:
                row = table[(j * step) % n]
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return out

    def __add__(self, other: "Cyclo | Rat") -> "Cyclo":
        other = _coerce(other)
        n = _lcm(self.n, other.n)
        a, b = self._lift(n), other._lift(n)
        return Cyclo(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.n, [-c for c in self.coeffs], reduce=False)

    def __sub__(self, other: "Cyclo | Rat") -> "Cyclo":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Cyclo | Rat") -> "Cyclo":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Cyclo | Rat") -> "Cyclo":
        other = _coerce(other)
        if self.n == 1:
            q = self.coeffs[0]
            return Cyclo(other.n, [q * c for c in other.coeffs],
                         reduce=False) if q else Cyclo.rational(0)
        if other.n == 1:
            q = other.coeffs[0]
            return Cyclo(self.n, [q * c for c in self.coeffs],
                         reduce=False) if q else Cyclo.rational(0)
        n = _lcm(self.n, other.n)
        a, b = self._lift(n), other._lift(n)
        table = _power_table(n)
        phi = totient(n)
        acc = [_ZERO] * phi
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                e = i + j
                c = ai * bj
                if e < phi:
                    acc[e] += c
                else:
                    row = table[e % n]
                    for t, r in enumerate(row):
                        if r:
                            acc[t] += c * r
        return Cyclo(n, acc)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.n == 1:
            return Cyclo.rational(1 / self.coeffs[0])
        phi = totient(self.n)
        # columns: self * zeta^j on the power basis
        cols = [(self * Cyclo.root_of_unity(self.n, j))._lift(self.n) for j in range(phi)]
        matrix = [[cols[j][i] for j in range(phi)] for i in range(phi)]
        rhs = [_ONE] + [_ZERO] * (phi - 1)
        return Cyclo(self.n, solve_linear(matrix, rhs))

    def __truediv__(self, other: "Cyclo | Rat") -> "Cyclo":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other: "Cyclo | Rat") -> "Cyclo":
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "Cyclo":
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclo.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- Galois --------------------------------------------------------
    def galois(self, k: int) -> "Cyclo":
        """Apply the automorphism zeta_n -> zeta_n^k (k coprime to n)."""
        if self.n == 1:
            return self
        if gcd(k, self.n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        # Galois conjugates share the conductor, so no reduction is needed
        return Cyclo(self.n, _galois_vec(self.n, self.coeffs, k), reduce=False)

    def conjugate(self) -> "Cyclo":
        """Complex conjugation (zeta -> zeta^{-1})."""
        return self.galois(self.n - 1) if self.n > 1 else self

    def root_of_unity_order(self) -> Optional[tuple[int, int]]:
        """Return (n, k) with self == E(n, k), or None when not a root of unity."""
        for n in (self.n, 2 * self.n):
            for k in range(n):
                if gcd(k, n) == 1 or (n == 1 and k == 0):
                    if self == Cyclo.root_of_unity(n, k):
                        g = gcd(k, n) if k else n
                        return (n // g, k // g) if k else (1, 0)
        return None

    # -- comparison / hashing -------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            # a rational hashes like its Fraction, as == compares them equal
            h = hash(self.coeffs[0] if self.n == 1 else (self.n, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- serialization ---------------------------------------------------
    def serialize(self) -> str:
        terms: list[str] = []
        if self.n == 1:
            return _fmt_fraction(self.coeffs[0])
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(_fmt_fraction(c))
            elif c == 1:
                terms.append(f"E({self.n},{k})")
            elif c == -1:
                terms.append(f"-E({self.n},{k})")
            else:
                terms.append(f"{_fmt_fraction(c)}*E({self.n},{k})")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    @staticmethod
    def parse(text: str) -> "Cyclo":
        return parse_cyclo(text)

    def __repr__(self) -> str:
        return f"Cyclo({self.serialize()})"


def _coerce(v: "Cyclo | Rat") -> Cyclo:
    if isinstance(v, Cyclo):
        return v
    return Cyclo.rational(v)


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _galois_vec(n: int, vec: Sequence[Fraction], k: int) -> list[Fraction]:
    table = _power_table(n)
    phi = totient(n)
    acc = [_ZERO] * phi
    for j, c in enumerate(vec):
        if c:
            row = table[(j * k) % n]
            for t, r in enumerate(row):
                if r:
                    acc[t] += c * r
    return acc


def _minimize_conductor(n: int, vec: list[Fraction]) -> tuple[int, list[Fraction]]:
    if all(c == 0 for c in vec[1:]):
        return 1, [vec[0]]
    for d in sorted(divisors(n)[:-1], key=lambda d: (totient(d), d)):
        # fixed by Gal(Q(zeta_n)/Q(zeta_d)) = {k : k = 1 mod d}?
        fixed = True
        for k in range(2, n):
            if gcd(k, n) == 1 and k % d == 1 % d:
                if _galois_vec(n, vec, k) != vec:
                    fixed = False
                    break
        if not fixed:
            continue
        basis = _subfield_basis_matrix(d, n)
        sol = solve_linear(basis, vec)
        if sol is not None:
            if d > 1:
                d2, sol2 = _minimize_conductor(d, sol)
                return d2, sol2
            return d, sol
    return n, vec


def _fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- convenience constructors ------------------------------------------------

def zeta(n: int, k: int = 1) -> Cyclo:
    """The root of unity E(n, k) = exp(2*pi*i*k/n)."""
    return Cyclo.root_of_unity(n, k)


def sqrt_int(d: int) -> Cyclo:
    """Exact square root of a nonzero integer, as a cyclotomic element.

    Uses quadratic Gauss sums; the sign convention is the principal branch
    (positive real part, or positive imaginary part on the imaginary axis).
    """
    if d == 0:
        return Cyclo.rational(0)
    if d < 0:
        return sqrt_int(-d) * _sqrt_minus_one()
    # factor out square part
    sq = 1
    rest = d
    f = 2
    while f * f <= rest:
        while rest % (f * f) == 0:
            rest //= f * f
            sq *= f
        f += 1
    out = Cyclo.rational(sq)
    for p in _prime_factors(rest):
        out = out * _sqrt_prime(p)
    return out


def _sqrt_minus_one() -> Cyclo:
    return zeta(4)


def _prime_factors(n: int) -> Iterator[int]:
    f = 2
    while f * f <= n:
        if n % f == 0:
            yield f
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        yield n


def _sqrt_prime(p: int) -> Cyclo:
    if p == 2:
        return zeta(8) + zeta(8, 7)
    # Gauss sum: sum of Legendre(k) zeta_p^k equals sqrt(p) or i*sqrt(p)
    squares = {(k * k) % p for k in range(1, p)}
    acc = Cyclo.rational(0)
    for k in range(1, p):
        term = zeta(p, k)
        acc = acc + (term if k in squares else -term)
    if p % 4 == 1:
        return acc
    # p = 3 mod 4: acc == i*sqrt(p) == sqrt(-p); convert to sqrt(p)
    return acc * zeta(4, 3)


# -- parsing ------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""\s*
    (?P<sign>[+-]?)\s*
    (?:
        (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*(?P<root1>E\(\s*\d+\s*,\s*-?\d+\s*\)))?
      | (?P<root2>E\(\s*\d+\s*,\s*-?\d+\s*\))
    )\s*""",
    re.VERBOSE,
)
_ROOT_RE = re.compile(r"E\(\s*(\d+)\s*,\s*(-?\d+)\s*\)")

# Largest n accepted in an ``E(n,k)`` literal: building E(n,k) costs
# O(n * phi(n)) time and memory.
MAX_LITERAL_ORDER = 1000


def parse_cyclo(text: str) -> Cyclo:
    """Parse the ``c*E(n,k)`` sum grammar produced by :meth:`Cyclo.serialize`."""
    pos = 0
    acc = Cyclo.rational(0)
    text = text.strip()
    if not text:
        raise ValueError("empty cyclotomic literal")
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse cyclotomic literal at: {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef = Fraction(m.group("coef")) if m.group("coef") else _ONE
        root_txt = m.group("root1") or m.group("root2")
        term = Cyclo.rational(sign * coef)
        if root_txt:
            rm = _ROOT_RE.match(root_txt)
            assert rm is not None
            n = int(rm.group(1))
            if not 0 < n <= MAX_LITERAL_ORDER:
                raise ValueError(f"root of unity of order {n} outside 1..{MAX_LITERAL_ORDER}"
                                 f" in cyclotomic literal {text!r}")
            term = term * zeta(n, int(rm.group(2)))
        acc = acc + term
        pos = m.end()
        if pos < len(text):
            if text[pos] == "+":
                pos += 1
            elif text[pos] == "-":
                pass  # sign handled by next term
            else:
                raise ValueError(f"unexpected character in cyclotomic literal: {text[pos]!r}")
    return acc


# -- fields -------------------------------------------------------------------

class CycloField:
    """A subfield of a cyclotomic field Q(zeta_n).

    Stored as the fixed field of a subgroup ``H`` of ``(Z/n)^*`` acting by
    ``zeta -> zeta^k``; ``H = {1}`` gives the full field Q(zeta_n) and
    ``n = 1`` gives Q.  Stable under complex conjugation is not required.
    """

    __slots__ = ("conductor", "stabilizer", "name")

    def __init__(self, conductor: int, stabilizer: Iterable[int] = (1,), name: str = ""):
        group = set()
        gens = [k % conductor for k in stabilizer]
        for g in gens:
            if gcd(g, conductor) != 1:
                raise ValueError("stabilizer exponents must be coprime to the conductor")
        # close under multiplication
        frontier = [1] + gens
        while frontier:
            g = frontier.pop()
            if g in group:
                continue
            group.add(g)
            for h in gens:
                frontier.append((g * h) % conductor)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "stabilizer", frozenset(group))
        object.__setattr__(self, "name", name or f"Q(zeta{conductor})")

    def __setattr__(self, *a):
        raise AttributeError("CycloField is immutable")

    @staticmethod
    def rationals() -> "CycloField":
        return CycloField(1, (), name="Q")

    @staticmethod
    def cyclotomic(n: int) -> "CycloField":
        return CycloField(n, (1,), name="Q" if n <= 2 else f"Q(zeta{n})")

    def degree(self) -> int:
        return totient(self.conductor) // len(self.stabilizer)

    def contains(self, z: Cyclo) -> bool:
        if z.n == 1:
            return True
        # z is kept at its minimal conductor, so z lies in Q(zeta_conductor)
        # exactly when z.n divides the conductor
        if self.conductor % z.n != 0:
            return False
        return all(z.galois(k) == z for k in self.stabilizer)

    def galois_orbit_exponents(self, modulus: int) -> list[int]:
        """Exponents k of Gal(Q(zeta_modulus)/K) for a modulus divisible by n."""
        n = self.conductor
        if modulus % n != 0:
            raise ValueError("modulus must be divisible by the field conductor")
        if n == 1:  # everything fixes the rationals
            return [k for k in range(1, modulus + 1) if gcd(k, modulus) == 1]
        return [k for k in range(1, modulus + 1)
                if gcd(k, modulus) == 1 and (k % n) in self.stabilizer]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloField):
            return NotImplemented
        return self.conductor == other.conductor and self.stabilizer == other.stabilizer

    def __hash__(self) -> int:
        return hash((self.conductor, self.stabilizer))

    def __repr__(self) -> str:
        return f"CycloField({self.name})"


_NAMED_FIELDS: dict[str, tuple[int, tuple[int, ...]]] = {
    "Q": (1, ()),
    "Q(i)": (4, (1,)),
    "Q(zeta3)": (3, (1,)),
    "Q(zeta4)": (4, (1,)),
    "Q(zeta12)": (12, (1,)),
    "Q(sqrt3)": (12, (11,)),
    "Q(sqrt5)": (5, (4,)),
    "Q(sqrt6)": (24, (5, 23)),
    "Q(sqrt-2)": (8, (3,)),
    "Q(sqrt-7)": (7, (2,)),
    "Q(sqrt5,zeta3)": (15, (4,)),
    "Q(sqrt-2,zeta3)": (24, (19,)),
}


def field_from_name(name: str) -> CycloField:
    """Look up a field by display name, or ``Q(zetaN)`` / integer conductor."""
    key = name.replace(" ", "")
    if key in _NAMED_FIELDS:
        n, stab = _NAMED_FIELDS[key]
        return CycloField(n, stab, name=key)
    if key.isdigit():
        return CycloField.cyclotomic(int(key))
    m = re.fullmatch(r"Q\(zeta(\d+)\)", key)
    if m:
        return CycloField.cyclotomic(int(m.group(1)))
    raise ValueError(f"unknown field name: {name!r}")
