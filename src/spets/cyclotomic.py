"""Exact arithmetic in cyclotomic number fields.

An element of ``Q(zeta_n)`` is stored as ``(n, terms, den)``: integer pairs
``(i, c)`` for ``sum(c * zeta_n^i) / den``, over one positive denominator
with no factor common to all numerators.  The exponents ``i`` index the
Zumbroich basis, the integral basis GAP and CHEVIE use (T. Breuer, "Integral
bases for subfields of cyclotomic fields", AAECC 8 (1997) 279-289), and ``n``
is the minimal conductor, so equality and hashing are structural.

Both normal forms are tests on integer exponents.  A root ``zeta^i`` outside
the basis is rewritten with ``sum_{t<p} zeta^{i + t*n/p} = 0``.  The element
lies in ``Q(zeta_{n/p})`` when ``p^2 | n`` or ``p = 2`` exactly if every
exponent is divisible by ``p``, and when ``p || n`` is odd exactly if each
class ``i + t*n/p`` carries one constant coefficient.  Products are cyclic
convolutions, ``zeta -> zeta^k`` maps ``i`` to ``i*k``, and the inverse of a
sum of several basis roots is the product of the other Galois conjugates over
the rational norm.

Some results are canonical by construction, so they skip the normaliser and
are assembled from their parts (``_make``): a rational, since conductor 1
has the basis ``{1}``; a negation and a rational multiple, which keep the
basis exponents and so the conductor, a multiple needing one gcd to make its
denominator coprime to the numerators again; and the inverse of a one-term
element ``c * zeta^i / den``, which is ``den * zeta^-i / c`` at the same
conductor, as ``Q(x) = Q(1/x)``, so only ``zeta^-i`` is rewritten on the
basis.  A canonical rational has conductor 1, so ``==`` against an ``int``
or ``Fraction`` is decided by the conductor and the two integers.

A sum of products ``sum a_i * b_i`` is accumulated by :class:`CycloSum` as
one integer dict in the group ring Z[x]/(x^N - 1), N the lcm of the
conductors, over one common denominator; that ring maps onto Z[zeta_N], so
the canonical form is taken once, for the whole sum.  Raw products are never
chained there (no powers or Horner steps in the group ring): x^N - 1 is not
the cyclotomic polynomial, and the coefficients of a chain grow binomially.
Only products of reduced numbers are accumulated.

Serialization converts to the power basis ``1, zeta, ..., zeta^{phi(n)-1}``
and uses the grammar ``c`` / ``c*E(n,k)`` joined by ``+``, where ``E(n,k)``
denotes ``exp(2*pi*i*k/n)`` and terms are ordered by increasing ``k``; e.g.
``sqrt(-3)`` prints as ``1+2*E(3,1)``.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Union

__all__ = [
    "Cyclo",
    "CycloSum",
    "sum_of_products",
    "CycloField",
    "zeta",
    "sqrt_int",
    "field_from_name",
    "parse_cyclo",
    "totient",
    "divisors",
    "cyclotomic_int_coeffs",
]

Rat = Union[int, Fraction]

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
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Representation of zeta_n^k on the power basis, for 0 <= k < n."""
    phi = totient(n)
    coeffs = cyclotomic_int_coeffs(n)
    rows = [tuple(int(j == k) for j in range(phi)) for k in range(phi)]
    for _ in range(phi, n):
        # zeta * row, with zeta^phi = -(c_0 + ... + c_{phi-1} zeta^{phi-1})
        # because Phi_n is monic
        prev = rows[-1]
        rows.append(tuple(s - prev[-1] * c for s, c in zip((0,) + prev[:-1], coeffs)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _zumbroich(n: int) -> tuple[tuple[int, int, int, frozenset[int]], ...]:
    """For each prime power p^e || n: (p, n // p, p^e, the residues mod p^e of
    the exponents whose p-digits the Zumbroich basis of Q(zeta_n) excludes).

    The basis exponents are the sums over p of sum_{k<e} (n / p^{k+1}) * j_k,
    with j_0 in 1..p-1 and j_k in -(p-1)/2..(p-1)/2 for k > 0 when p is odd,
    and j_0 = 0, j_k in {0, 1} when p = 2.  Mod p^e only p's digits count.
    """
    out = []
    for p in _prime_factors(n):
        digits = [range(1, p) if p > 2 else (0,)]
        while n % p ** (len(digits) + 1) == 0:
            digits.append(range(-(p // 2), p // 2 + 1) if p > 2 else (0, 1))
        q = p ** len(digits)
        good = {0}
        for k, js in enumerate(digits):
            good = {(g + n // p ** (k + 1) * j) % q for g in good for j in js}
        out.append((p, n // p, q, frozenset(range(q)) - good))
    return tuple(out)


def _to_basis(n: int, coeffs: dict[int, int]) -> dict[int, int]:
    """Rewrite sum(c * zeta_n^i) (with 0 <= i < n) on the Zumbroich basis
    through sum_{t<p} zeta^{i + t*n/p} = 0, one prime at a time; the other
    roots of each relation differ from zeta^i only in p's leading digit, which
    the basis admits.  Zero coefficients are dropped."""
    for p, step, q, excluded in _zumbroich(n):
        for i in [i for i in coeffs if i % q in excluded]:
            c = coeffs.pop(i)
            for t in range(1, p):
                j = (i + t * step) % n
                coeffs[j] = coeffs.get(j, 0) - c
    return {i: c for i, c in coeffs.items() if c}


def _descend(n: int, coeffs: dict[int, int]) -> tuple[int, dict[int, int]]:
    """The minimal conductor of a basis expansion, one prime at a time."""
    for p, m, _, _ in _zumbroich(n):
        if m % p == 0 or p == 2:
            # the basis of Q(zeta_m), scaled by p, is the part of the basis
            # of Q(zeta_n) with exponents divisible by p
            if all(i % p == 0 for i in coeffs):
                return _descend(m, {i // p: c for i, c in coeffs.items()})
        elif len(coeffs) % (p - 1) == 0:
            classes: dict[int, list[int]] = {}
            for i, c in coeffs.items():
                classes.setdefault(i % m, []).append(c)
            if all(len(cs) == p - 1 and len(set(cs)) == 1 for cs in classes.values()):
                # c times the p - 1 basis roots of a class is -c * zeta_n^{p*j}
                inv = pow(p, -1, m)
                return _descend(m, {r * inv % m: -cs[0] for r, cs in classes.items()})
    return n, coeffs


class Cyclo:
    """An element of a cyclotomic field, at minimal conductor."""

    __slots__ = ("n", "terms", "den", "_hash")

    n: int
    terms: tuple[tuple[int, int], ...]  # (basis exponent, numerator), sorted
    den: int

    def __init__(self, n: int, coeffs: dict[int, int], den: int = 1,
                 in_basis: bool = False, minimal: bool = False):
        """sum(c * zeta_n^i) / den over a dict {i: c} it consumes, 0 <= i < n, den > 0;
        ``in_basis``: the i index the Zumbroich basis; ``minimal``: n is minimal."""
        if in_basis:
            coeffs = {i: c for i, c in coeffs.items() if c}
        else:
            coeffs = _to_basis(n, coeffs)
        if not minimal and n > 1:
            n, coeffs = _descend(n, coeffs)
        g = gcd(den, *coeffs.values())
        if g == 1:
            terms = sorted(coeffs.items())
        else:
            terms = sorted([(i, c // g) for i, c in coeffs.items()])
            den //= g
        _set_n(self, n)
        _set_terms(self, tuple(terms))
        _set_den(self, den)
        _set_hash(self, None)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyclo is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def rational(q: Rat) -> "Cyclo":
        if type(q) is not int and not isinstance(q, Fraction):
            q = Fraction(q)
        return _make(1, ((0, q.numerator),), q.denominator) if q else _ZERO

    @staticmethod
    @lru_cache(maxsize=None)
    def root_of_unity(n: int, k: int = 1) -> "Cyclo":
        return Cyclo(n, {k % n: 1})

    # -- basic queries -------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def as_rational(self) -> Optional[Fraction]:
        if self.n != 1:
            return None
        return Fraction(self.terms[0][1], self.den) if self.terms else Fraction(0)

    def is_integral(self) -> bool:
        """True when the element lies in Z[zeta_n], which the basis spans over Z."""
        return self.den == 1

    # -- arithmetic ----------------------------------------------------
    def _lift(self, n: int, scale: int) -> dict[int, int]:
        """The numerators over ``den * scale`` at conductor n (off the basis)."""
        step = n // self.n
        return {i * step: c * scale for i, c in self.terms}

    def __add__(self, other: "Cyclo | Rat") -> "Cyclo":
        other = _coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        n, den = lcm(self.n, other.n), lcm(self.den, other.den)
        acc = self._lift(n, den // self.den)
        for i, c in other._lift(n, den // other.den).items():
            acc[i] = acc.get(i, 0) + c
        return Cyclo(n, acc, den, in_basis=self.n == other.n)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return _make(self.n, tuple([(i, -c) for i, c in self.terms]), self.den)

    def __sub__(self, other: "Cyclo | Rat") -> "Cyclo":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Cyclo | Rat") -> "Cyclo":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Cyclo | Rat") -> "Cyclo":
        other = _coerce(other)
        if self.n == 1 or other.n == 1:
            # a rational multiple keeps the basis exponents and the conductor
            q, z = (self, other) if self.n == 1 else (other, self)
            if not q.terms or not z.terms:
                return _ZERO
            num, den = q.terms[0][1], z.den * q.den
            terms = [(i, c * num) for i, c in z.terms]
            g = gcd(den, *[c for _, c in terms])
            if g > 1:
                terms = [(i, c // g) for i, c in terms]
                den //= g
            return _make(z.n, tuple(terms), den)
        n = lcm(self.n, other.n)
        sa, sb = n // self.n, n // other.n
        acc: dict[int, int] = {}
        for i, a in self.terms:
            for j, b in other.terms:
                k = (i * sa + j * sb) % n
                acc[k] = acc.get(k, 0) + a * b
        return Cyclo(n, acc, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if not self.terms:
            raise ZeroDivisionError("inverse of zero")
        if len(self.terms) == 1:
            # (c * zeta^i / den)^-1 = den * zeta^-i / c, at the same conductor
            (i, c), = self.terms
            num = self.den if c > 0 else -self.den
            if self.n == 1:
                return _make(1, ((0, num),), abs(c))
            return Cyclo(self.n, {-i % self.n: num}, abs(c), minimal=True)
        return self._norm_inverse()

    def _norm_inverse(self) -> "Cyclo":
        """The inverse through the rational norm, for any nonzero element."""
        # the distinct conjugates are the roots of the minimal polynomial, so
        # self times the others is the rational norm
        others = Cyclo.rational(1)
        for z in {self.galois(k) for k in range(2, self.n) if gcd(k, self.n) == 1} - {self}:
            others = others * z
        return others * (1 / (self * others).as_rational())

    def __truediv__(self, other: "Cyclo | Rat") -> "Cyclo":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other: "Cyclo | Rat") -> "Cyclo":
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "Cyclo":
        if k < 0:
            return self.inverse() ** (-k)
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return _ONE if out is None else out

    # -- Galois --------------------------------------------------------
    def galois(self, k: int) -> "Cyclo":
        """Apply the automorphism zeta_n -> zeta_n^k (k coprime to n)."""
        if self.n == 1:
            return self
        if gcd(k, self.n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        # Galois conjugates share the conductor, so no descent is needed
        return Cyclo(self.n, {i * k % self.n: c for i, c in self.terms}, self.den,
                     minimal=True)

    def conjugate(self) -> "Cyclo":
        """Complex conjugation (zeta -> zeta^{-1})."""
        return self.galois(self.n - 1) if self.n > 1 else self

    def root_of_unity_order(self) -> Optional[tuple[int, int]]:
        """Return (n, k) with self == E(n, k), or None when not a root of unity."""
        return _root_of_unity_order(self)

    # -- comparison / hashing -------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclo):
            return self.n == other.n and self.den == other.den and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            # a canonical rational has conductor 1
            if self.n != 1:
                return False
            num = self.terms[0][1] if self.terms else 0
            return num == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            # a rational hashes like its Fraction, as == compares them equal
            h = hash(self.as_rational() if self.n == 1 else (self.n, self.terms, self.den))
            _set_hash(self, h)
        return h

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- serialization ---------------------------------------------------
    def serialize(self) -> str:
        if self.n == 1:
            return _fmt_fraction(self.as_rational())
        # the printed form is on the power basis 1, zeta, ..., zeta^{phi-1}
        vec = [0] * totient(self.n)
        table = _power_table(self.n)
        for i, c in self.terms:
            for t, r in enumerate(table[i]):
                vec[t] += c * r
        terms: list[str] = []
        for k, v in enumerate(vec):
            if v == 0:
                continue
            c = Fraction(v, self.den)
            if k == 0:
                terms.append(_fmt_fraction(c))
            elif c == 1:
                terms.append(f"E({self.n},{k})")
            elif c == -1:
                terms.append(f"-E({self.n},{k})")
            else:
                terms.append(f"{_fmt_fraction(c)}*E({self.n},{k})")
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


@lru_cache(maxsize=None)
def _root_of_unity_order(z: Cyclo) -> Optional[tuple[int, int]]:
    # a root of unity of conductor n has order n or 2n
    for n in (z.n, 2 * z.n):
        for k in range(n):
            if gcd(k, n) == 1 or (n == 1 and k == 0):
                if z == Cyclo.root_of_unity(n, k):
                    g = gcd(k, n) if k else n
                    return (n // g, k // g) if k else (1, 0)
    return None


# the slot setters, which bypass the immutability guard
_set_n, _set_terms, _set_den, _set_hash = (
    Cyclo.n.__set__, Cyclo.terms.__set__, Cyclo.den.__set__, Cyclo._hash.__set__)


def _make(n: int, terms: tuple[tuple[int, int], ...], den: int) -> Cyclo:
    """A Cyclo from parts already in normal form: minimal n, sorted basis
    exponents with nonzero numerators, den > 0 sharing no factor with all of them."""
    z = object.__new__(Cyclo)
    _set_n(z, n)
    _set_terms(z, terms)
    _set_den(z, den)
    _set_hash(z, None)
    return z


_ZERO = _make(1, (), 1)
_ONE = _make(1, ((0, 1),), 1)


class CycloSum:
    """A sum of products ``a * b`` of cyclotomic numbers, reduced once.

    The numerators live in the group ring Z[x]/(x^n - 1) over one
    denominator ``den``: ``n`` is the lcm of the conductors seen and ``den``
    a common multiple of the ``a.den * b.den``.  Each ``add`` is one cyclic
    convolution; :meth:`value` maps the sum to Q(zeta_n) and takes the
    canonical form.  A sum that is nonzero in the group ring may still be
    zero, so test :meth:`value`, never ``acc``.
    """

    __slots__ = ("n", "den", "acc")

    def __init__(self):
        self.n, self.den, self.acc = 1, 1, {}

    def add(self, a: Cyclo, b: Cyclo = _ONE) -> None:
        """Add a * b (or a alone)."""
        n, den, acc = self.n, self.den, self.acc
        if n % a.n or n % b.n:
            m = lcm(n, a.n, b.n)
            s = m // n
            acc = self.acc = {i * s: c for i, c in acc.items()}
            n = self.n = m
        d = a.den * b.den
        if den % d:
            m = lcm(den, d)
            s = m // den
            acc = self.acc = {i: c * s for i, c in acc.items()}
            den = self.den = m
        sa, sb, s = n // a.n, n // b.n, den // d
        for i, x in a.terms:
            i *= sa
            x *= s
            for j, y in b.terms:
                k = (i + j * sb) % n
                acc[k] = acc.get(k, 0) + x * y

    def value(self) -> Cyclo:
        return Cyclo(self.n, dict(self.acc), self.den)


def sum_of_products(pairs: Iterable[tuple[Cyclo, Cyclo]]) -> Cyclo:
    """sum(a * b) over the pairs, reduced once."""
    s = CycloSum()
    for a, b in pairs:
        s.add(a, b)
    return s.value()


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
        return sqrt_int(-d) * zeta(4)
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

# One term ``c``, ``c*E(n,k)`` or ``E(n,k)`` of a literal; compiled on first use.
_TERM_PATTERN = r"""\s*
    (?P<sign>[+-]?)\s*
    (?:
        (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*E\(\s*(?P<n1>\d+)\s*,\s*(?P<k1>-?\d+)\s*\))?
      | E\(\s*(?P<n2>\d+)\s*,\s*(?P<k2>-?\d+)\s*\)
    )\s*"""

# Largest n accepted in an ``E(n,k)`` literal: printing an element of
# conductor n builds an n x phi(n) power table.
MAX_LITERAL_ORDER = 1000


def parse_cyclo(text: str) -> Cyclo:
    """Parse the ``c*E(n,k)`` sum grammar produced by :meth:`Cyclo.serialize`."""
    pos = 0
    acc = Cyclo.rational(0)
    text = text.strip()
    if not text:
        raise ValueError("empty cyclotomic literal")
    term_re = re.compile(_TERM_PATTERN, re.VERBOSE)
    while pos < len(text):
        m = term_re.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse cyclotomic literal {text!r}"
                             f" at offset {pos}: {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        try:
            coef = Fraction(m.group("coef") or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in cyclotomic literal {text!r}") from None
        n_txt = m.group("n1") or m.group("n2")
        term = Cyclo.rational(sign * coef)
        if n_txt:
            n = int(n_txt)
            if not 0 < n <= MAX_LITERAL_ORDER:
                raise ValueError(f"root of unity of order {n} outside 1..{MAX_LITERAL_ORDER}"
                                 f" in cyclotomic literal {text!r}")
            term = term * zeta(n, int(m.group("k1") or m.group("k2")))
        acc = acc + term
        pos = m.end()
        if pos < len(text):
            if text[pos] == "+":
                pos += 1
            elif text[pos] == "-":
                pass  # sign handled by next term
            else:
                raise ValueError(f"unexpected character {text[pos]!r} at offset {pos}"
                                 f" in cyclotomic literal {text!r}")
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
