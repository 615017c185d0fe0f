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
the canonical form is taken once, for the whole sum.  Raw products are not
chained there (no powers or Horner steps in the group ring): x^N - 1 is not
the cyclotomic polynomial, and the coefficients of a chain grow binomially.
Only products of reduced numbers are accumulated.  The bounded exception is
a chain of binomials 1 - q*x^k, the form Schur elements are kept in (only
``hecke.schur_cyclic``, for the CLI and serialisation, multiplies them out,
as reduced products).  ``LaurentPoly.peel``, the one polynomial division,
peels them off a polynomial p from one end on one lift, q_i = p_i + q *
q_(i-k): q is a root of unity, an index shift of the lift, so a peel only
adds shifted copies of p's coefficients, and the largest coefficient L1 norm
grows at most by the factor deg(p)/|k| + 1 per peel.

Where only "is it zero?" is asked, no canonical form is built at all.  An
integer lift g in Z[z] is packed as one Python integer g(2^b) (Kronecker
substitution), and g(zeta_N) = 0 exactly when Phi_N(2^b) divides it, for a
slot width b set by the L1 norm of g and a bound on the coefficients of
z^k mod Phi_N (``_is_zero_packed`` has the proof); the bignum multiply and
remainder do the convolutions and the reduction.  That one remainder is
every zero test in the library: :meth:`CycloSum.is_zero`, the remainder of
``LaurentPoly.peel``, ``laurent.root_multiplicities`` and the Sylow tests
(one per Hasse derivative or value, on lifts packed once per polynomial:
``laurent.PackedLift``), and the verifier's family sums.  Root
multiplicities, and with them every divisibility by a polynomial of known
roots (the verifier's and SC3's), are runs of such zero tests; for a table
of polynomials, the rows of a block are packed side by side, one sum per
root holds every row's lift, and the rows are read back as signed digits
(``_zero_digits``), one remainder each.  The remainder's cost grows as
phi(N)^2, so above phi(N) = ``_PACK_PHI`` a lift is rewritten on the basis
instead (``_is_zero_lift``): the packed remainder
and ``_to_basis`` are the two reductions mod Phi_N in the library.

Serialization uses the power basis ``1, zeta, ..., zeta^{phi(n)-1}`` and
the grammar ``c`` / ``c*E(n,k)`` joined by ``+``, where ``E(n,k)`` denotes
``exp(2*pi*i*k/n)`` and terms are ordered by increasing ``k``; e.g.
``sqrt(-3)`` prints as ``1+2*E(3,1)``.  Basis exponents below phi(n) are
already power-basis coordinates; any other element is reduced by one packed
remainder, read back as signed digits (:meth:`Cyclo.serialize`).
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
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
    for p in _prime_factors(n):
        n -= n // p
    return n


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of the n-th cyclotomic polynomial:
    for n > 1, prod (1 - x^(n/m))^mu(m) over the squarefree divisors m > 1
    of n (the factor 1 - x^n only acts above degree phi(n))."""
    return (-1, 1) if n == 1 else tuple(_mobius_series(n, totient(n), 1))


def _mobius_series(n: int, top: int, sign: int) -> list[int]:
    """prod (1 - x^(n/m))^(sign * mu(m)) over the squarefree divisors m > 1
    of n, each factor multiplied or divided out as an integer series to
    degree ``top``."""
    ps = list(_prime_factors(n))
    c = [1] + [0] * top
    for r in range(1, 1 << len(ps)):
        d = n // prod(p for i, p in enumerate(ps) if r >> i & 1)
        if bin(r).count("1") % 2 == (sign > 0):  # exponent -1: divide by 1 - x^d
            for i in range(d, top + 1):
                c[i] += c[i - d]
        else:
            for i in range(top, d - 1, -1):
                c[i] -= c[i - d]
    return c


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


# -- zero tests ----------------------------------------------------------------

# Largest phi(n) at which a lift is packed whole: a remainder costs about
# (phi(n) * b)^2 word operations, a basis rewrite p - 1 steps per term moved
# over each prime p of n
_PACK_PHI = 256


@lru_cache(maxsize=None)
def _zero_test_norms(n: int) -> tuple[int, int]:
    """(c, h): h = ||Phi_n||_1 and c = (h - 1) * ||Psi_n||_inf, a bound on
    C_n = max_k ||z^k mod Phi_n||_inf, where Psi_n = (z^n - 1) / Phi_n is
    -prod (1 - z^(n/m))^(-mu(m)) over the m of ``cyclotomic_int_coeffs``.

    For k < phi(n), z^k is its own remainder.  For k >= phi(n) and n > 1,
    Phi_n is self-reciprocal with constant term 1; write z^k = Q Phi_n + r
    and substitute z = 1/w, times w^k: 1 = Q~(w) Phi_n(w) + w^(k-phi+1) r~(w)
    with Q~, r~ the reversals.  So Q~ is the series 1/Phi_n = -Psi_n /
    (1 - w^n) cut at degree k - phi, and r~ is Phi_n times the tail of that
    series, cut below degree phi.  The series repeats the coefficients of
    Psi_n, of degree n - phi < n, and a coefficient of r~ below degree phi
    meets only the coefficients of Phi_n below its leading 1, of absolute
    sum h - 1.  For n = 1, z^k mod (z - 1) = 1 = c.  (c is 2 where C_n = 1
    at n = 12, and 218 where C_n = 3 at n = 385: 7 bits of slack.)"""
    h = sum(map(abs, cyclotomic_int_coeffs(n)))
    return (h - 1) * max(map(abs, _mobius_series(n, n - totient(n), -1))), h


def _slot_bits(n: int, norm: int) -> int:
    """A slot width b, a multiple of 16, with 2^b > 2 * norm * c + h
    (``_zero_test_norms``): every lift g with ||g||_1 <= norm is zero-tested
    exactly at conductor n from g(2^b) (``_is_zero_packed``)."""
    c, h = _zero_test_norms(n)
    return -(-(2 * norm * c + h).bit_length() // 16) * 16


def _pack(coeffs: dict[int, int], b: int) -> int:
    """g(2^b) for the lift g = sum(c * z^i) over {i: c}, i >= 0."""
    return sum([c << b * i for i, c in coeffs.items()])


@lru_cache(maxsize=64)
def _packed_phi(n: int, b: int) -> int:
    """Phi_n(2^b); b is a multiple of 16, so few widths recur per conductor."""
    return _pack(dict(enumerate(cyclotomic_int_coeffs(n))), b)


def _is_zero_packed(n: int, f: int, b: int) -> bool:
    """Whether g(zeta_n) = 0 for the lift g in Z[z] packed as f = g(B),
    B = 2^b, given b = ``_slot_bits(n, ||g||_1)``: exactly when Phi_n(B)
    divides f.

    Let r = g mod Phi_n, so g(zeta_n) = 0 exactly when r = 0, and let R =
    ||g||_1 * c >= ||r||_inf (r = sum g_k (z^k mod Phi_n)), H = ||Phi_n||_1,
    B > 2R + H.  As g - r = Phi_n s with s in Z[z], f = r(B) + Phi_n(B) s(B).
    If r != 0 has degree t < phi(n): |r(B)| >= B^t - R (B^t - 1)/(B - 1) > 0
    as B > R + 1; and |r(B)| <= R (B^phi - 1)/(B - 1) < 2R B^(phi-1) <
    B^(phi-1) (B - H + 1) <= Phi_n(B), the coefficients of Phi_n below its
    leading 1 having absolute sum H - 1.  So Phi_n(B) does not divide f."""
    return not f % _packed_phi(n, b)


def _is_zero_lift(n: int, coeffs: dict[int, int]) -> bool:
    """Whether sum(c * zeta_n^i) over {i: c}, i >= 0, is zero: one pack and
    one remainder (``_is_zero_packed``) when phi(n) <= _PACK_PHI.  Above
    that, the lift is folded mod z^n - 1 and rewritten on the Zumbroich basis
    (``_to_basis``), which leaves no term exactly for zero."""
    if totient(n) <= _PACK_PHI:
        b = _slot_bits(n, sum(map(abs, coeffs.values())))
        return _is_zero_packed(n, _pack(coeffs, b), b)
    folded: dict[int, int] = {}
    for i, c in coeffs.items():
        folded[i % n] = folded.get(i % n, 0) + c
    return not _to_basis(n, folded)


def _convolve(n: int, pairs: Iterable, out: dict[int, int] | None = None) -> dict[int, int]:
    """out + sum(a * b) in Z[z]/(z^n - 1) over pairs (a dict, b's (exponent, numerator) pairs)."""
    out = {} if out is None else out
    for a, b in pairs:
        for i, x in a.items():
            for j, y in b:
                k = (i + j) % n
                out[k] = out.get(k, 0) + x * y
    return out


_NONZERO_BYTE = re.compile(rb"[^\x00]")


def _digit_offset(width: int, count: int) -> int:
    """sum(2^(width-1) * 2^(width*t)) over t < count, width a multiple of 8.
    Added to s = sum(v_t * 2^(width*t)) with |v_t| < 2^(width - 1), it makes
    slot t v_t + 2^(width-1), in [1, 2^width), with no carry."""
    return int.from_bytes((1 << (width - 1)).to_bytes(width // 8, "little") * count, "little")


def _signed_digits(s: int, width: int, count: int):
    """The nonzero signed digits (t, v_t) of s = sum(v_t * 2^(width*t)), t <
    count, |v_t| < 2^(width - 1), width a multiple of 8: XOR of s plus the
    offset (``_digit_offset``) with the offset leaves v_t mod 2^width, zero
    exactly where v_t is, and a byte search finds each nonzero slot."""
    mask, half, size = (1 << width) - 1, 1 << (width - 1), width // 8
    offset = _digit_offset(width, count)
    buf, end = ((s + offset) ^ offset).to_bytes(size * count, "little"), 0
    while hit := _NONZERO_BYTE.search(buf, end):
        t = hit.start() // size
        end = (t + 1) * size
        v = int.from_bytes(buf[t * size:end], "little")
        yield t, v - mask - 1 if v >= half else v


def _zero_digits(s: int, width: int, count: int, n: int, b: int) -> list[bool]:
    """Whether each signed digit v_t of s (as in ``_signed_digits``) is a lift
    vanishing at zeta_n, packed at the slot width b (``_is_zero_packed``):
    slot t of s plus the offset (``_digit_offset``) is v_t + 2^(width-1), so
    Phi_n(2^b) divides v_t exactly when it leaves 2^(width-1)'s remainder."""
    phi, size = _packed_phi(n, b), width // 8
    half, buf = (1 << (width - 1)) % phi, (s + _digit_offset(width, count)).to_bytes(
        size * count, "little")
    return [int.from_bytes(buf[i:i + size], "little") % phi == half
            for i in range(0, size * count, size)]


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
        if n < 1:
            raise ValueError(f"root of unity order must be positive, got {n}")
        return Cyclo(n, {k % n: 1})

    # -- basic queries -------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def as_rational(self) -> Optional[Fraction]:
        if self.n != 1:
            return None
        return Fraction(self.terms[0][1], self.den) if self.terms else Fraction(0)

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
        """The printed form, on the power basis 1, zeta, ..., zeta^(phi-1).

        When every basis exponent is below phi = phi(n), the terms are the
        nonzero power-basis coordinates.  Otherwise the lift g = sum(c * z^i)
        is reduced once: f = g(B) mod Phi_n(B), B = 2^b and b =
        ``_slot_bits(n, ||g||_1)``, taken in (-Phi_n(B)/2, Phi_n(B)/2), is
        r(B) for r = g mod Phi_n, whose nonzero signed base-B digits are read
        (``_signed_digits``).  With R = ||g||_1 * c >= ||r||_inf and H =
        ||Phi_n||_1 (``_is_zero_packed``), B > 2R + H gives (B - 1)(B - H +
        1) >= (B - 1)(2R + 2) >= 2RB, so 2|r(B)| <= 2R (B^phi - 1)/(B - 1) <
        2R B^phi/(B - 1) <= B^(phi-1) (B - H + 1) <= Phi_n(B), and f is r(B)
        exactly; and |r_t| <= R < B/2, so each digit is r_t."""
        if self.n == 1:
            return _fmt_fraction(self.as_rational())
        phi = totient(self.n)
        if self.terms[-1][0] < phi:
            digits = self.terms
        else:
            b = _slot_bits(self.n, sum([abs(c) for _, c in self.terms]))
            m = _packed_phi(self.n, b)
            f = _pack(dict(self.terms), b) % m
            digits = _signed_digits(f - m if 2 * f > m else f, b, phi)
        terms: list[str] = []
        for k, v in digits:
            c = Fraction(v, self.den)
            if k == 0:
                terms.append(_fmt_fraction(c))
            elif c == 1:
                terms.append(f"E({self.n},{k})")
            elif c == -1:
                terms.append(f"-E({self.n},{k})")
            else:
                terms.append(f"{_fmt_fraction(c)}*E({self.n},{k})")
        return terms[0] + "".join([t if t.startswith("-") else "+" + t for t in terms[1:]])

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
    if z.den == 1 and len(z.terms) == 1 and abs(z.terms[0][1]) == 1:
        # c * zeta_n^i is E(n, i), or E(2n, 2i + n) for c = -1
        (i, c), = z.terms
        n, k = (z.n, i) if c == 1 else (2 * z.n, 2 * i + z.n)
        g = gcd(k, n)
        return n // g, k // g % (n // g)
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
    zero, so test :meth:`is_zero` (or :meth:`value`), never ``acc``.
    """

    __slots__ = ("n", "den", "acc")

    def __init__(self, pairs: Iterable[tuple[Cyclo, Cyclo]] = ()):
        """The sum of a * b over the pairs (zero when there are none)."""
        self.n, self.den, self.acc = 1, 1, {}
        for a, b in pairs:
            self.add(a, b)

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

    def is_zero(self) -> bool:
        """Whether the sum is zero: one packed remainder (``_is_zero_lift``)."""
        return _is_zero_lift(self.n, self.acc)


def sum_of_products(pairs: Iterable[tuple[Cyclo, Cyclo]]) -> Cyclo:
    """sum(a * b) over the pairs, reduced once."""
    return CycloSum(pairs).value()


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

# Largest n accepted in an ``E(n,k)`` literal: arithmetic at conductor n costs
# a power of phi(n) (an inverse multiplies up to phi(n) Galois conjugates).
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
        if conductor < 1:
            raise ValueError(f"field conductor must be positive, got {conductor}")
        group = set()
        gens = [k % conductor for k in stabilizer]
        for g in gens:
            if gcd(g, conductor) != 1:
                raise ValueError("stabilizer exponents must be coprime to the conductor")
        # close under multiplication, from the identity of (Z/n)^*: 1 mod n
        frontier = [1 % conductor] + gens
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
