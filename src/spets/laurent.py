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
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .cyclotomic import (_ONE, _PACK_PHI, Cyclo, CycloField, _convolve,
                         _is_zero_lift, _is_zero_packed, _pack, _slot_bits, _zero_digits,
                         cyclotomic_int_coeffs, totient, zeta)

__all__ = [
    "LaurentPoly",
    "FracExpMonomial",
    "KCycloPoly",
    "PackedLift",
    "k_cyclotomic_factors",
    "root_multiplicities",
    "parse_poly",
]

Scalar = Union[Cyclo, int, Fraction]


def _coerce(c: Scalar) -> Cyclo:
    return c if isinstance(c, Cyclo) else Cyclo.rational(c)


class LaurentPoly:
    """Immutable Laurent polynomial with exact cyclotomic coefficients."""

    __slots__ = ("coeffs", "_hash", "_lift")

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
        _set_llift(self, None)

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
        """sum(c * p) over the pairs (p, c), each coefficient reduced once: every
        product a * c is lifted at n, the lcm of the conductors, over one den,
        and the lifts of one x-exponent are summed into one Cyclo."""
        terms = [(p, _coerce(c)) for p, c in terms]
        n = lcm(*[c.n for _, c in terms], *[a.n for p, _ in terms for _, a in p.coeffs])
        den = lcm(*[a.den * c.den for p, c in terms for _, a in p.coeffs])
        sums: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for p, c in terms:
            w = c._lift(n, 1).items()
            for e, a in p.coeffs:
                _convolve(n, [(a._lift(n, den // (a.den * c.den)), w)], sums[e])
        return LaurentPoly({e: Cyclo(n, g, den) for e, g in sums.items()})

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
        if len(self.coeffs) == 1 or len(other.coeffs) == 1:
            # nothing to sum: the exponents stay sorted and distinct, and a
            # product of nonzero numbers is nonzero
            return _lmake(tuple([(e1 + e2, c1 * c2) for e1, c1 in self.coeffs
                                 for e2, c2 in other.coeffs]))
        # sum(c * x^e * self) over other's terms
        return LaurentPoly.combination((self.shift(e), c) for e, c in other.coeffs)

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

    def peel(self, factors: Iterable[tuple[int, int, int]]) -> "LaurentPoly | None":
        """self / prod(1 - E(d, k) * x^K) over the factors (d, k, K), K != 0,
        or None when one of them does not divide: the quotient's lifts
        (``_peel_lifts``), with one canonical Cyclo built per coefficient."""
        q = self._peel_lifts(factors)
        return None if q is None else LaurentPoly._of_lifts(*q)

    @staticmethod
    def _of_lifts(val: int, n: int, den: int, lifts: list[dict[int, int]],
                  c: Cyclo = _ONE) -> "LaurentPoly":
        """c * sum(lifts[i](zeta_n) x^(val + i)) / den, c.n dividing n, one Cyclo
        per coefficient: c is multiplied into the lifts; consumes lifts."""
        if c != 1:
            w = c._lift(n, 1).items()
            lifts, den = [_convolve(n, [(g, w)]) for g in lifts], den * c.den
        return LaurentPoly({val + i: Cyclo(n, g, den) for i, g in enumerate(lifts)})

    def _lifts(self, n: int) -> tuple[int, int, int, list[dict[int, int]]]:
        """(val, m, den, lifts), the x^(val + i) coefficient lifts[i](zeta_m) /
        den: lifted once at m, the lcm of n and the conductors, over one den."""
        if not self.coeffs:
            return 0, n, 1, []
        val, cs = self.coeffs[0][0], dict(self.coeffs)
        n, den = lcm(n, *[c.n for c in cs.values()]), lcm(*[c.den for c in cs.values()])
        return val, n, den, [cs[e]._lift(n, den // cs[e].den) if e in cs else {}
                             for e in range(val, self.degree() + 1)]

    def _peel_lifts(self, factors: Iterable[tuple[int, int, int]]) -> tuple | None:
        """The quotient of :meth:`peel` as lifts: ``_lifts`` at the orders d, then ``_peel``."""
        factors = list(factors)
        return LaurentPoly._peel(self._lifts(lcm(*[d for d, _, _ in factors])), factors)

    @staticmethod
    def _peel(lifted: tuple, factors: list[tuple[int, int, int]]) -> tuple | None:
        """The lifts (val, n, den, lifts) of p, each d dividing n, over
        prod(1 - E(d, k) * x^K), as lifts; or None.  Consumes the lifts.

        A binomial with K > 0 is peeled off from the low end, q_i = p_i +
        z^s q_(i-K) with s = k*n/d, an index shift of the lift, and one with
        K < 0 likewise from the high end; the last |K| of these make the
        remainder, each zero-tested by one packed remainder
        (``cyclotomic._is_zero_lift``)."""
        val, n, den, p = lifted
        for d, k, K in factors:  # in place: each lift is read once, then replaced
            s, m = k * (n // d) % n, abs(K)
            if K < 0:
                p.reverse()
            for i in range(m, len(p)):
                c = p[i]
                for t, a in p[i - m].items():
                    t = (t + s) % n
                    c[t] = c.get(t, 0) + a
            cut = max(0, len(p) - m)
            if not all(_is_zero_lift(n, c) for c in p[cut:]):
                return None
            del p[cut:]
            if K < 0:
                p.reverse()
                val += m
        return val, n, den, p

    def roots(self, caps: Mapping[tuple[int, int], int]) -> Counter | None:
        """The nonzero roots E(d, k) of self with multiplicity, as a Counter
        of (d, k), read by one ``multiplicities`` call capped at ``caps``; or
        None when self has a root off caps, or above its cap."""
        if not self.coeffs:
            raise ValueError("roots of zero")
        return self.packed().roots(caps)

    def divide_split(self, c: Cyclo, v: int, roots: Mapping[tuple[int, int], int]
                     ) -> "LaurentPoly | None":
        """self / (c * x^v * prod(1 - x / rho)), a split divisor with lowest
        term c x^v and roots rho = E(d, k) with the multiplicities ``roots``,
        or None when it does not divide: the binomials are peeled off self's
        lift, and x^(-v) c^(-1) is multiplied into the quotient's lifts."""
        factors = [(d, -k, 1) for (d, k), m in roots.items() for _ in range(m)]
        q = LaurentPoly._peel(self._lifts(lcm(c.n, *[d for d, _, _ in factors])), factors)
        return None if q is None else LaurentPoly._of_lifts(q[0] - v, *q[1:], c.inverse())

    # -- transforms ---------------------------------------------------------
    def evaluate(self, v: Scalar) -> Cyclo:
        """Value at v.  At a root of unity v = E(d, k), one lift reduced once:
        with g the gcd of the exponents present, every v^e is a power of v^g,
        of order d' = d / gcd(d, k*g), so each term a z_m^t of c_e is added
        at n, the lcm of d' and the conductors, over one den, shifted by
        e*k*n/d (an integer: g divides e, d' divides n); elsewhere sum(c_e * v^e)."""
        v = _coerce(v)
        root = v.root_of_unity_order()
        if root is None:
            return sum([c * v ** e for e, c in self.coeffs], Cyclo.rational(0))
        d, k = root
        n = lcm(d // gcd(d, k * gcd(*[e for e, _ in self.coeffs])), *[c.n for _, c in self.coeffs])
        den, acc = lcm(*[c.den for _, c in self.coeffs]), {}
        for e, c in self.coeffs:
            s, m, o = n // c.n, den // c.den, e * k * n // d
            for t, a in c.terms:
                acc[(t * s + o) % n] = acc.get((t * s + o) % n, 0) + a * m
        return Cyclo(n, acc, den)

    def vanishes_at(self, roots: list[tuple[int, int]]) -> list[bool]:
        """Whether the value at E(d, k) is zero, for each (d, k) in roots."""
        mults = self.multiplicities(dict.fromkeys(roots, 1))
        return [mults[r] == 1 for r in roots]

    def multiplicities(self, caps: Mapping[tuple[int, int], int]
                       ) -> dict[tuple[int, int], int]:
        """min(multiplicity of the root E(d, k), cap) for each (d, k): cap,
        a table of one row (:func:`root_multiplicities`).  The zero
        polynomial meets every cap."""
        return root_multiplicities([self], caps)[0]

    def packed(self) -> "PackedLift":
        """The coefficients of a nonzero self lifted and packed for zero
        tests, built on first use and kept with self."""
        lift = object.__getattribute__(self, "_lift")
        if lift is None:
            val, den = self.coeffs[0][0], lcm(*[c.den for _, c in self.coeffs])
            lift = PackedLift(val, den, [(e - val, c.n, c.terms, den // c.den)
                                         for e, c in self.coeffs])
            _set_llift(self, lift)
        return lift

    def conjugate(self) -> "LaurentPoly":
        """Complex-conjugate the coefficients."""
        return _lmake(tuple([(e, c.conjugate()) for e, c in self.coeffs]))

    def vee(self) -> "LaurentPoly":
        """The involution P -> conj(P)(1/x)."""
        return _lmake(tuple([(-e, c.conjugate()) for e, c in reversed(self.coeffs)]))

    def scale_x(self, s: Scalar) -> "LaurentPoly":
        """Substitute x -> s*x; at a root of unity s = E(d, k), s^e is read
        as the cached root E(d, k*e mod d)."""
        s = _coerce(s)
        d, k = s.root_of_unity_order() or (0, 0)
        return LaurentPoly([(e, c * (Cyclo.root_of_unity(d, k * e % d) if d else s ** e))
                            for e, c in self.coeffs])

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
        return _serialize_terms(reversed(self.coeffs))

    @staticmethod
    def parse(text: str) -> "LaurentPoly":
        return parse_poly(text)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.serialize()})"


# the slot setters, which bypass the immutability guard
_set_coeffs, _set_lhash, _set_llift = (
    LaurentPoly.coeffs.__set__, LaurentPoly._hash.__set__, LaurentPoly._lift.__set__)


def _lmake(coeffs: tuple[tuple[int, Cyclo], ...]) -> LaurentPoly:
    """A LaurentPoly from terms already sorted by exponent, merged and nonzero."""
    p = object.__new__(LaurentPoly)
    _set_coeffs(p, coeffs)
    _set_lhash(p, None)
    _set_llift(p, None)
    return p


def _poly(v: "LaurentPoly | Scalar") -> LaurentPoly:
    if isinstance(v, LaurentPoly):
        return v
    return LaurentPoly.constant(v)


class PackedLift:
    """A nonzero Laurent polynomial p = x^val * q packed for zero tests at
    roots of unity.

    For a root E(d, k), the coefficients c_e of q are lifted onto Z[z]
    (exponents below n, the lcm of their conductors and d) over one
    denominator ``den``, and each lift g_e is packed as one integer g_e(2^b)
    (``cyclotomic._pack``), once per (n, b).  With s = k*n/d, the Hasse
    derivative sum(binomial(e, j) * c_e * z^(e - j)) of q at z = E(d, k),
    times the unit z^j, lifts to sum(binomial(e, j) * z^(e*s mod n) * g_e):
    each term a packed lift shifted left by b * (e*s mod n), zero-tested by
    one remainder (``cyclotomic._is_zero_packed``).  The multiplicity of z
    is the least j where that is nonzero (:func:`root_multiplicities`).
    Where phi(n) exceeds ``cyclotomic._PACK_PHI`` the lifts stay integer
    dicts and the sum goes to ``cyclotomic._is_zero_lift``, which rewrites
    it on the basis."""

    __slots__ = ("cond", "den", "val", "coeffs", "exps", "norm", "_lifts")

    def __init__(self, val: int, den: int, coeffs: list[tuple[int, int, Iterable, int]]):
        """x^val * sum(m * g(zeta_n) x^e) / den over (e, n, g pairs, m), e rising, ends nonzero."""
        self.val, self.den, self.coeffs = val, den, coeffs
        self.cond = lcm(*[n for _, n, _, _ in coeffs])
        self.exps = [e for e, _, _, _ in coeffs]
        # the L1 norm of the lifts, the same at every n
        self.norm = sum([abs(a) * m for _, _, g, m in coeffs for _, a in g])
        self._lifts: dict[tuple[int, int], list] = {}

    def _at(self, n: int, b: int) -> list:
        """The coefficient lifts at conductor n: packed at the slot width b
        (``_width``), or integer dicts for b = 0."""
        lifts = self._lifts.get((n, b))
        if lifts is None:
            lifts = self._lifts[n, b] = [
                sum([a * m << b * (i * (n // cn)) for i, a in g]) if b
                else {i * (n // cn): a * m for i, a in g} for _, cn, g, m in self.coeffs]
        return lifts

    def _is_zero(self, n: int, b: int, lifts: list, s: int, o: int,
                 mults: list[int] | None, minus: dict[int, int]) -> bool:
        """Whether sum(a_e * z^(e*s + o) * g_e) - minus is zero at zeta_n,
        for the lifts g_e from ``_at`` and multipliers a_e (all 1 for None)."""
        es = self.exps
        if b:
            f = sum([g << b * ((e * s + o) % n) for e, g in zip(es, lifts)] if mults is None
                    else [a * g << b * ((e * s + o) % n) for a, e, g in zip(mults, es, lifts)])
            return _is_zero_packed(n, f - _pack(minus, b) if minus else f, b)
        acc = {i: -c for i, c in minus.items()}
        for a, e, g in zip(mults or [1] * len(es), es, lifts):
            for i, c in g.items():
                i = (i + e * s + o) % n
                acc[i] = acc.get(i, 0) + a * c
        return _is_zero_lift(n, acc)

    def multiplicities(self, caps: Mapping[tuple[int, int], int]
                       ) -> dict[tuple[int, int], int]:
        """min(multiplicity of E(d, k), cap) for each (d, k): cap, a table of
        one row (:func:`root_multiplicities`)."""
        return root_multiplicities([self], caps)[0]

    def roots(self, caps: Mapping[tuple[int, int], int]) -> Counter | None:
        """The nonzero roots E(d, k) of p with multiplicity, as a Counter of
        (d, k), or None when p has a root off caps, or above its cap."""
        mults = Counter(self.multiplicities(caps))
        return mults if sum(mults.values()) == self.exps[-1] else None

    def value_is(self, root: tuple[int, int], shift: int, w: Cyclo) -> bool:
        """Whether z^shift * p(z) = w at z = E(d, k) = root: den_w *
        z^(shift + val) * q(z) - den * w, lifted at n = lcm(d, w.n, the
        conductors of q), is one zero test."""
        d, k = root
        n = lcm(self.cond, d, w.n)
        s, lw = k * (n // d), w._lift(n, self.den)
        b = _width(n, w.den * self.norm + sum(map(abs, lw.values())))
        return self._is_zero(n, b, self._at(n, b), s, (shift + self.val) * s,
                             [w.den] * len(self.exps), lw)


def _width(n: int, norm: int) -> int:
    """The slot width of lifts of L1 norm up to ``norm`` at conductor n
    (``cyclotomic._slot_bits``), or 0, for integer dicts, where phi(n)
    exceeds ``_PACK_PHI``."""
    return _slot_bits(n, norm) if totient(n) <= _PACK_PHI else 0


# Rows packed side by side by root_multiplicities: blocks of 16, 64 and 128
# rows ran slower on the degree tables of Z_16 ... Z_32 (Z_8 and Z_12 did not
# tell them apart), and one integer for all rows took twice as long at Z_32
_BLOCK_ROWS = 32


def root_multiplicities(polys: Sequence["LaurentPoly | PackedLift"],
                        caps: Mapping[tuple[int, int], int]
                        ) -> list[dict[tuple[int, int], int]]:
    """min(multiplicity of E(d, k), cap) for each (d, k): cap, for each of
    ``polys`` (LaurentPoly or PackedLift).  The zero polynomial meets every cap.

    The j-th Hasse derivative sum of a row q is lifted and zero-tested as in
    :class:`PackedLift`; only orders j <= deg q are reached, as the deg q-th
    is q's leading coefficient, so binomial(e, j) <= binomial(deg q, min(j,
    deg q // 2)) bounds the sums' L1 norm by R_q.  A row of a table is lifted
    once, at the lcm n of its conductor and every d of caps, when phi(n) <=
    ``_PACK_PHI``.  The rows at one n are taken in blocks of up to
    ``_BLOCK_ROWS``, packed at one slot width b (``cyclotomic._slot_bits``)
    set by the largest R_q of the block: each x^e coefficient of the block is
    one integer, the sum over its rows t of the packed lift g_e(2^b) shifted
    left by W*t bits, W = b(2n - 1).  For each root and order j, one shifted
    sum over the x^e then holds every row's Hasse derivative sum in its own
    W bits: that lift has degree at most 2n - 2 and L1 norm at most R <
    2^(b - 1), so its value is below 2^(W - 1) in absolute value.  The rows
    are read back as signed digits, each zero-tested by one remainder by
    Phi_n(2^b) (``cyclotomic._zero_digits``, ``cyclotomic._is_zero_packed``),
    and only the rows still at zero go on to order j + 1.  A batch of one,
    and a row whose n exceeds ``_PACK_PHI``, is read alone, at lcm(its
    conductor, d) for the roots of order d, each sum its own zero test (on
    integer dicts where phi of that exceeds ``_PACK_PHI``,
    ``cyclotomic._is_zero_lift``)."""
    out, rows = [], []
    for p in polys:
        if isinstance(p, LaurentPoly) and not p.coeffs:
            out.append(dict(caps))
        else:  # every multiplicity 0 until a sum is seen to vanish
            out.append(dict.fromkeys(caps, 0))
            rows.append((out[-1], p if isinstance(p, PackedLift) else p.packed()))
    cap_top = max(caps.values(), default=0)
    norms = [comb(q.exps[-1], max(0, min(cap_top - 1, q.exps[-1] // 2))) * q.norm
             for _, q in rows]
    top = lcm(*{d for d, _ in caps}) if len(rows) > 1 else 0
    whole: defaultdict[int, list[int]] = defaultdict(list)  # n -> the rows lifted at n
    for i, (res, q) in enumerate(rows):
        if top and totient(n := lcm(q.cond, top)) <= _PACK_PHI:
            whole[n].append(i)
            continue
        at: dict[int, tuple] = {}  # d -> (n, b, the lifts at n)
        for (d, k), cap in caps.items():
            if d not in at:
                n = lcm(q.cond, d)
                b = _width(n, norms[i])
                at[d] = n, b, q._at(n, b)
            n, b, lifts = at[d]
            s, j = k * (n // d), 0
            while j < cap and q._is_zero(n, b, lifts, s, 0, [comb(e, j) for e in q.exps]
                                         if j else None, {}):
                j += 1
            res[d, k] = j
    for n, idx in whole.items():
        for lo in range(0, len(idx), _BLOCK_ROWS):
            blk = idx[lo:lo + _BLOCK_ROWS]
            b = _slot_bits(n, max([norms[i] for i in blk]))
            width, cols = b * (2 * n - 1), {}
            for t, i in enumerate(blk):
                for e, cn, g, m in rows[i][1].coeffs:
                    s = n // cn
                    cols[e] = cols.get(e, 0) + (sum([a * m << b * (u * s) for u, a in g])
                                                << width * t)
            for (d, k), cap in caps.items():
                s, live, j = k * (n // d), range(len(blk)), 0
                while live and j < cap:
                    f = sum([g << b * (e * s % n) for e, g in cols.items()] if not j else
                            [comb(e, j) * g << b * (e * s % n) for e, g in cols.items()])
                    zero = _zero_digits(f, width, len(blk), n, b)
                    live = [t for t in live if zero[t]]
                    j += 1
                    for t in live:
                        rows[blk[t]][0][d, k] = j
    return out


def _serialize_terms(terms: Iterable[tuple[int | Fraction, Cyclo]]) -> str:
    """The term-list grammar of :meth:`LaurentPoly.serialize` for nonzero
    terms (e, c) in decreasing exponent order: " - " before a negative term,
    and x^(p/q) for a fractional exponent."""
    parts: list[str] = []
    for e, c in terms:
        sign, core = _term_str(c, e)
        if not parts:
            parts.append(core if sign > 0 else "-" + core)
        else:
            parts.append((" + " if sign > 0 else " - ") + core)
    return "".join(parts) or "0"


def _term_str(c: Cyclo, e: int | Fraction) -> tuple[int, str]:
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
    xpart = "x" if e == 1 else f"x^{e}" if e.denominator == 1 else f"x^({e})"
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
        head = text[: m.start()].rstrip() if m else None
        # a bare power may carry a leading sign, as in parse_poly
        if m and (head in ("", "+", "-") or text[m.start() - 1] in "*) "):
            exp = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            if head.endswith("*"):
                head = head[:-1].rstrip()
            sign = {"": 1, "+": 1, "-": -1}.get(head)
            coeff = _parse_coeff(head) if sign is None else Cyclo.rational(sign)
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
    exponent.  An orbit of all phi(d) primitive roots (always, over Q) is
    Phi_d itself, read off its integer coefficients; any other is the
    product of its linear factors over Q(zeta_lcm(d, conductor)).
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
        if len(orbit) == totient(d):  # all primitive roots: Phi_d itself
            poly = LaurentPoly(dict(enumerate(cyclotomic_int_coeffs(d))))
        else:
            poly = LaurentPoly.one()
            for k in orbit:
                poly = poly * (LaurentPoly.x() - LaurentPoly.constant(zeta(d, k)))
        out.append(KCycloPoly(poly, d, field, frozenset(orbit)))
    return out
