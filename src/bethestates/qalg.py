"""Exact arithmetic in the variable q: one series type on a rational lattice.

A value stores a lattice denominator ``den``, an integer offset ``lo`` and a
dense, trimmed list of integer coefficients: coeffs[i] is the coefficient of
q**((lo + i)/den).  (Every exponent in this package lies on (1/D)Z, with
D = numerator(p0) the denominator of both Theta and 1/p0.)  Operands on
different lattices are rescaled to the lcm of their denominators, which
multiplies ``lo`` and ``cut`` by the factor and spreads the coefficients
with that stride.  ``terms`` gives the value as a Fraction-keyed mapping, built on
demand.  There is no floating point anywhere; coefficient lists are never
mutated once stored, and every operation returns a fresh object.

QSeries carries a cutoff, stored as ``cut`` on its lattice (which always
includes the cutoff's denominator, so the cutoff stays exact).  Exponents
above the cutoff are unknown and discarded, and binary operations only ever
tighten the region of validity: a sum is valid up to the smaller cutoff; a
product a*b up to min(cut_a + min(m_b, 0), cut_b + min(m_a, 0)), m the
minimal exponent (0 for zero), where the unknown tail of one factor,
shifted by the other's lowest term, begins; and an exact polynomial p times
a series s is first truncated at s.cutoff - min(p.min_exp(), 0).  Dividing
by 1 - q**s needs a cutoff: it is a prefix sum with stride s over the
coefficients, run per residue class mod s when s is short against the
window and per s-long block otherwise.

QPolynomial is the same type without a cutoff (``cut`` is None): an exact
finite Laurent-style polynomial.  An operation between polynomials returns
a polynomial, one involving a series returns a series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import lcm
from operator import add, mul

from .util import PreconditionError


def as_exp(e) -> Fraction:
    return e if isinstance(e, Fraction) else Fraction(e)


def _spread(coeffs: list, f: int) -> list:
    """The coefficient list rescaled from a lattice to one f times finer."""
    if f == 1 or len(coeffs) < 2:
        return coeffs
    out = [0] * ((len(coeffs) - 1) * f + 1)
    out[::f] = coeffs
    return out


def _on_lattice(v: "QSeries", den: int):
    """(lo, coeffs, cut) of v rescaled to the lattice (1/den)Z."""
    f = den // v.den
    return v.lo * f, _spread(v.coeffs, f), None if v.cut is None else v.cut * f


def _scaled(e: Fraction, den: int) -> int:
    """e * den for an exponent on the lattice (1/den)Z."""
    return e.numerator * (den // e.denominator)


def _min_cut(a, b):
    if a is None:
        return b
    return a if b is None else min(a, b)


def _new(den: int, lo: int, coeffs: list, cut) -> "QSeries":
    """A value from a coefficient list; a QPolynomial when there is no cutoff."""
    v = object.__new__(QPolynomial if cut is None else QSeries)
    v._set(den, lo, coeffs, cut)
    return v


def qsum(values) -> "QSeries":
    """The sum of the values, added in place into one coefficient list: the
    one addition routine, which QSeries.__add__ calls on two values.

    The list is rescaled when a value on a finer lattice arrives and padded
    at whichever end a value reaches past; otherwise a value costs its own
    length, not that of the sum so far.  A sum involving a series is valid
    up to the smallest cutoff; the sum of no values is the zero polynomial.
    """
    den, lo, acc, cut = 1, 0, [], None
    for v in values:
        if den % v.den:
            f = lcm(den, v.den) // den
            den, lo, acc = den * f, lo * f, _spread(acc, f)
            cut = None if cut is None else cut * f
        v_lo, coeffs, v_cut = _on_lattice(v, den)
        cut = _min_cut(cut, v_cut)
        if not coeffs:
            continue
        if not acc:
            lo, acc = v_lo, list(coeffs)
            continue
        acc[:0] = [0] * (lo - v_lo)
        lo = min(lo, v_lo)
        i, end = v_lo - lo, v_lo - lo + len(coeffs)
        acc += [0] * (end - len(acc))
        acc[i:end] = map(add, acc[i:end], coeffs)
    return _new(den, lo, acc, cut)


class QSeries:
    """Truncated formal series: terms known exactly for exponents <= cutoff."""

    __slots__ = ("den", "lo", "coeffs", "cut")

    def __init__(self, terms, cutoff):
        self._set_terms(terms, as_exp(cutoff))

    def _set_terms(self, terms, cutoff) -> None:
        """Fill from (exponent, coeff) pairs or a dict; like exponents add up."""
        if isinstance(terms, dict):
            terms = terms.items()
        pairs = [(as_exp(e), c) for e, c in terms if c]
        den = lcm(*(e.denominator for e, _ in pairs),
                  1 if cutoff is None else cutoff.denominator)
        cut = None if cutoff is None else _scaled(cutoff, den)
        scaled = [(_scaled(e, den), c) for e, c in pairs]
        if cut is not None:
            scaled = [(k, c) for k, c in scaled if k <= cut]
        lo = min((k for k, _ in scaled), default=0)
        coeffs = [0] * (max((k for k, _ in scaled), default=lo - 1) - lo + 1)
        for k, c in scaled:
            coeffs[k - lo] += c
        self._set(den, lo, coeffs, cut)

    def _set(self, den: int, lo: int, coeffs: list, cut) -> None:
        """Store coeffs truncated at the cutoff and trimmed of zeros at both ends."""
        end = len(coeffs) if cut is None else max(min(len(coeffs), cut - lo + 1), 0)
        start = 0
        while start < end and not coeffs[start]:
            start += 1
        while end > start and not coeffs[end - 1]:
            end -= 1
        if start or end != len(coeffs):
            coeffs = coeffs[start:end]
        self.den = den
        self.lo = lo + start if coeffs else 0
        self.coeffs = coeffs
        self.cut = cut

    @classmethod
    def zero(cls, cutoff) -> "QSeries":
        return cls({}, cutoff)

    @classmethod
    def one(cls, cutoff) -> "QSeries":
        return cls({0: 1}, cutoff)

    @classmethod
    def monomial(cls, exponent, coeff, cutoff) -> "QSeries":
        return cls({exponent: coeff}, cutoff)

    @property
    def terms(self) -> dict:
        """Exponent -> nonzero coefficient, in increasing exponent order."""
        den, lo = self.den, self.lo
        return {Fraction(lo + i, den): c for i, c in enumerate(self.coeffs) if c}

    @property
    def cutoff(self):
        return None if self.cut is None else Fraction(self.cut, self.den)

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self):
        return Fraction(self.lo, self.den) if self.coeffs else None

    def coeff(self, exponent) -> int:
        k = as_exp(exponent) * self.den
        if k.denominator != 1:
            return 0
        i = k.numerator - self.lo
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def shift(self, d) -> "QSeries":
        """Multiply by q**d: exact relabeling, so the cutoff moves along."""
        d = as_exp(d)
        den = lcm(self.den, d.denominator)
        lo, coeffs, cut = _on_lattice(self, den)
        k = _scaled(d, den)
        return _new(den, lo + k, coeffs, None if cut is None else cut + k)

    def truncated(self, cutoff) -> "QSeries":
        cutoff = as_exp(cutoff)
        if self.cut is not None and cutoff > self.cutoff:
            raise PreconditionError("cannot extend a series beyond its cutoff")
        den = lcm(self.den, cutoff.denominator)
        lo, coeffs, _ = _on_lattice(self, den)
        return _new(den, lo, coeffs, _scaled(cutoff, den))

    def __neg__(self) -> "QSeries":
        return _new(self.den, self.lo, [-c for c in self.coeffs], self.cut)

    def __add__(self, other):
        if isinstance(other, int):
            other = QPolynomial.monomial(0, other)
        elif not isinstance(other, QSeries):
            return NotImplemented
        return qsum((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return _new(self.den, self.lo, [c * other for c in self.coeffs], self.cut)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = (other, self) if self.cut is None else (self, other)
        if a.cut is not None and b.cut is None:
            b = b.truncated(a.cutoff - min(b.min_exp() or 0, 0))
        den = lcm(a.den, b.den)
        (lo_a, ca, cut_a), (lo_b, cb, cut_b) = _on_lattice(a, den), _on_lattice(b, den)
        cut = None
        if cut_a is not None:
            cut = min(cut_a + min(lo_b, 0), cut_b + min(lo_a, 0))
        lo = lo_a + lo_b
        n = len(ca) + len(cb) - 1 if ca and cb else 0
        if cut is not None:
            n = min(n, cut - lo + 1)
        if n <= 0:
            return _new(den, 0, [], cut)
        # Walk the nonzero entries of the sparser factor; the other one is
        # combined slice-wise.
        if len(ca) - ca.count(0) > len(cb) - cb.count(0):
            ca, cb = cb, ca
        out = [0] * n
        for i, c in enumerate(ca[:n]):
            if c:
                seg = cb[:n - i]
                out[i:i + len(seg)] = map(add, out[i:i + len(seg)], map(mul, seg, repeat(c)))
        return _new(den, lo, out, cut)

    __rmul__ = __mul__

    def div_cyclotomic(self, *steps) -> "QSeries":
        """Divide by the product of (1 - q**step) over the steps, each nonzero.

        Every negative step is first made positive through
        1/(1 - q**step) = -q**(-step)/(1 - q**(-step)), so together they give
        one shift and one sign.  Dividing by 1 - q**s, s > 0, multiplies by
        the geometric series 1 + q**s + q**(2 s) + ... up to the cutoff: the
        prefix sum c[k] += c[k - s] in increasing k, for every step on the
        same coefficient list of n entries.  A step with s*s <= n runs it as
        s running sums, one per residue mod s, each in C; a longer step, as
        the fewer than s passes that add each s-long block to the next.
        """
        steps = [as_exp(s) for s in steps]
        if 0 in steps:
            raise PreconditionError("cyclotomic step must be nonzero")
        if self.cut is None:
            raise PreconditionError("dividing by 1 - q**step needs a cutoff")
        den = lcm(self.den, *(s.denominator for s in steps))
        lo, coeffs, cut = _on_lattice(self, den)
        shift = -sum(_scaled(s, den) for s in steps if s < 0)
        if not coeffs:
            return _new(den, lo, [], cut + shift)
        n = cut - lo + 1
        c = coeffs + [0] * (n - len(coeffs))
        for s in steps:
            s = abs(_scaled(s, den))
            if s * s <= n:
                for r in range(s):
                    c[r::s] = accumulate(c[r::s])
            else:
                for k in range(s, n, s):
                    c[k:k + s] = map(add, c[k:k + s], c[k - s:k])
        if sum(s < 0 for s in steps) % 2:
            c = [-x for x in c]
        return _new(den, lo + shift, c, cut + shift)

    def first_discrepancy(self, other: "QSeries", upto=None):
        """First (exponent, own coeff, other coeff) difference within the
        common region of validity, or None when the series agree there."""
        limits = [c for c in (self.cutoff, other.cutoff, upto) if c is not None]
        ta, tb = self.terms, other.terms
        for e in sorted(ta.keys() | tb.keys()):
            if limits and e > min(limits):
                break
            if ta.get(e, 0) != tb.get(e, 0):
                return (e, ta.get(e, 0), tb.get(e, 0))
        return None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms and self.cutoff == other.cutoff

    def __repr__(self):
        tail = "" if self.cut is None else f" + O(q^{self.cutoff})"
        return f"{type(self).__name__}({_format_terms(self.terms)}{tail})"


class QPolynomial(QSeries):
    """Finite Laurent-style polynomial: a QSeries without a cutoff."""

    __slots__ = ()

    def __init__(self, terms=None):
        self._set_terms(terms or {}, None)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent, coeff: int = 1) -> "QPolynomial":
        return cls({exponent: coeff})

    def eval_at_one(self) -> int:
        return sum(self.coeffs)

    def subs_inverse(self) -> "QPolynomial":
        """Substitute q -> 1/q (negate every exponent)."""
        return _new(self.den, 1 - self.lo - len(self.coeffs), self.coeffs[::-1], None)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPolynomial.monomial(0, other)
        return super().__eq__(other)


def _format_terms(terms: dict) -> str:
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms):
        c = terms[e]
        if e == 0:
            parts.append(f"{c}")
        elif e.denominator == 1:
            parts.append(f"{c}*q^{e}")
        else:
            parts.append(f"{c}*q^({e})")
    return " + ".join(parts)


def pochhammer(step_sign: int, n: int) -> QPolynomial:
    """Product of (1 - x**i) for i = 1..n with x = q**step_sign."""
    if step_sign not in (1, -1):
        raise PreconditionError("step_sign must be +1 or -1")
    if n < 0:
        raise PreconditionError("pochhammer length must be nonnegative")
    out = QPolynomial.one()
    for i in range(1, n + 1):
        out = out - out.shift(step_sign * i)
    return out


@lru_cache(maxsize=1024)   # keyed by (m, min(n, m - n))
def _gauss_positive(m: int, small: int) -> QPolynomial:
    """[m, small]_q as the series prod_i (1 - q**(m-small+i)) / (1 - q**i),
    i = 1..small, cut at its degree small*(m-small), where it is exact."""
    num = QSeries.one(small * (m - small))
    for e in range(m - small + 1, m + 1):
        num = num - num.shift(e)
    ser = num.div_cyclotomic(*range(1, small + 1))
    return _new(ser.den, ser.lo, ser.coeffs, None)


def gauss_binomial(m: int, n: int, base_sign: int = 1) -> QPolynomial:
    """Gaussian binomial coefficient in base q**base_sign.

    Zero unless 0 <= n <= m; otherwise the quotient
    (x;x)_m / ((x;x)_n (x;x)_{m-n}) with x = q**base_sign.  It is a
    polynomial of degree n*(m-n), so its power series cut at that degree is
    exact.  The inverse base is an exponent relabeling.
    """
    if base_sign not in (1, -1):
        raise PreconditionError("base_sign must be +1 or -1")
    if not (0 <= n <= m):
        return QPolynomial.zero()
    poly = _gauss_positive(m, min(n, m - n))
    if base_sign == -1:
        return poly.subs_inverse()
    return poly


def product_expand(factors, cutoff) -> QSeries:
    """Expand a product of factors (1 - q**(a n + b))**(sign) over n >= 1.

    Each factor is a triple (sign, a, b) with sign in {+1, -1}; sign -1 means
    the reciprocal 1/(1 - q**(a n + b)).  Every progression must have a > 0
    and strictly positive exponents, otherwise the formal product diverges.
    """
    cutoff = as_exp(cutoff)
    out = QSeries.one(cutoff)
    steps = []
    for sign, a, b in factors:
        a = as_exp(a)
        b = as_exp(b)
        if sign not in (1, -1):
            raise PreconditionError("factor sign must be +1 or -1")
        if a <= 0 or a + b <= 0:
            raise PreconditionError(
                f"progression {a}*n+{b} must have positive slope and exponents")
        e = a + b
        while e <= cutoff:
            if sign == 1:
                out = out - out.shift(e)
            else:
                steps.append(e)
            e += a
    return out.div_cyclotomic(*steps)
