"""Takahashi-Suzuki string data for a rational anisotropy parameter p0 >= 1.

The continued fraction p0 = [nu_0, ..., nu_alpha] drives everything: zone
bounds m_i, convergent numerators y_i and denominators z_i, and the division
remainders p_i.  String lengths and remainder values are piecewise linear in
the position j, with one linear piece ("zone") per partial quotient plus a
final unbounded zone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .util import PreconditionError


@dataclass(frozen=True)
class TSData:
    p0: Fraction
    alpha: int
    quotients: tuple    # nu_0 .. nu_alpha
    remainders: tuple   # p_0 .. p_{alpha+2}
    ys: tuple           # y_{-1} .. y_{alpha+1}
    zs: tuple           # z_{-1} .. z_alpha
    bounds: tuple       # m_0 .. m_{alpha+1}
    p0_bar: Fraction | None  # [nu_0..nu_{alpha-1}]; None when alpha == 0

    def y(self, i: int) -> int:
        return self.ys[i + 1]

    def z(self, i: int) -> int:
        return self.zs[i + 1]

    def m(self, i: int) -> int:
        return self.bounds[i]

    @property
    def dim(self) -> int:
        """Number of string types, m_{alpha+1}."""
        return self.bounds[-1]

    @cached_property
    def signs(self) -> tuple:
        """Parities (-1)**zone(j) of the string types j = 1..dim."""
        return tuple((-1) ** zone(self, j) for j in range(1, self.dim + 1))

    def integer_p0(self, use: str, least: int = 1) -> int:
        """p0 as an int; PreconditionError naming the use when p0 is not an
        integer >= least."""
        if self.p0.denominator != 1 or self.p0 < least:
            bound = f" >= {least}" if least > 1 else ""
            raise PreconditionError(f"{use} needs integer p0{bound}")
        return int(self.p0)


def compute_ts(p0) -> TSData:
    """Run the continued-fraction recurrences for rational p0 >= 1."""
    p0 = Fraction(p0)
    if p0 < 1:
        raise PreconditionError(f"p0 must be >= 1, got {p0}")
    rem = [p0, Fraction(1)]
    quot = []
    while rem[-1] != 0:
        i = len(quot)
        nu = rem[i] // rem[i + 1]
        quot.append(int(nu))
        rem.append(rem[i] - nu * rem[i + 1])
    alpha = len(quot) - 1
    # p_{alpha+1} < p_alpha once alpha >= 1, so the last quotient is >= 2
    if alpha > 0 and quot[-1] < 2:
        raise AssertionError("continued fraction ends in a partial quotient 1")

    ys = [0, 1]
    for nu in quot:
        ys.append(ys[-2] + nu * ys[-1])
    zs = [0, 1]
    for j in range(1, alpha + 1):
        zs.append(zs[-2] + quot[j] * zs[-1])
    bounds = [0]
    for nu in quot:
        bounds.append(bounds[-1] + nu)

    if Fraction(ys[-1], zs[-1]) != p0:
        raise AssertionError("convergent reconstruction failed")
    p0_bar = Fraction(ys[-2], zs[-2]) if alpha > 0 else None
    return TSData(p0, alpha, tuple(quot), tuple(rem), tuple(ys), tuple(zs),
                  tuple(bounds), p0_bar)


def zone(ts: TSData, j) -> int:
    """Zone index i with m_i <= j < m_{i+1}; alpha+1 for j >= m_{alpha+1}."""
    if j < 0:
        raise PreconditionError("position must be nonnegative")
    for i in range(ts.alpha + 1):
        if j < ts.m(i + 1):
            return i
    return ts.alpha + 1


def string_length(ts: TSData, j) -> Fraction:
    """Piecewise linear length n_j; the final zone extends with slope y_{alpha+1}."""
    if j < 0:
        raise PreconditionError("position must be nonnegative")
    j = Fraction(j)
    i = zone(ts, j)
    return _zone_length(ts, j, i)


def string_weights(ts: TSData) -> tuple:
    """Integer string lengths n_k for k = 1..dim."""
    return tuple(int(string_length(ts, Fraction(k))) for k in range(1, ts.dim + 1))


def cf_remainder(ts: TSData, j) -> Fraction:
    """Alternating remainder value q_j on the zone of j; domain 0 <= j < m_{alpha+1}+1."""
    if j < 0 or j >= ts.dim + 1:
        raise PreconditionError(f"remainder argument out of domain: {j}")
    j = Fraction(j)
    i = zone(ts, j)
    return _zone_remainder(ts, j, i)


def _zone_length(ts: TSData, t: Fraction, i: int) -> Fraction:
    return ts.y(i - 1) + (t - ts.m(i)) * ts.y(i)


def _zone_remainder(ts: TSData, t: Fraction, i: int) -> Fraction:
    sign = -1 if i % 2 else 1
    return sign * (ts.remainders[i] - (t - ts.m(i)) * ts.remainders[i + 1])


def string_position(ts: TSData, n: int) -> Fraction:
    """The admissible position t with string length n.

    Restricted to even zones (positive parity) the length function is
    injective: even zone i covers lengths y_{i-1}..y_{i+1} with its closed
    right endpoint carrying the same (length, remainder) data as the start of
    zone i+2.  Lengths beyond the reach of the even zones have no admissible
    position and raise.
    """
    if n <= 1:
        raise PreconditionError("string length must be an integer > 1")
    t, _ = _string_position_zone(ts, n)
    return t


def _string_position_zone(ts: TSData, n: int):
    for i in range(0, ts.alpha + 2, 2):
        lo = ts.y(i - 1)
        if i == ts.alpha + 1:
            if n >= lo:
                return ts.m(i) + Fraction(n - lo, ts.y(i)), i
            continue
        hi = ts.y(i + 1)
        if lo <= n <= hi:
            if n == hi and i + 2 <= ts.alpha + 1:
                continue  # same data as the start of zone i+2; prefer that form
            return ts.m(i) + Fraction(n - lo, ts.y(i)), i
    raise PreconditionError(
        f"length {n} has no positive-parity position for p0 = {ts.p0}")


def admissible_spin(ts: TSData, two_s: int) -> bool:
    """Whether a spin with 2s = two_s fits the string classification.

    The site must correspond to a positive-parity string of length 2s+1,
    i.e. its position must be an integer within the string range
    1..m_{alpha+1}.  Chains containing other spins have fractional offset
    vectors and no Bethe states.
    """
    if two_s < 1:
        return False
    try:
        chi, _ = _string_position_zone(ts, two_s + 1)
    except PreconditionError:
        return False
    return chi.denominator == 1 and chi <= ts.dim


def admissible_spins(ts: TSData) -> list:
    """Every 2s that admissible_spin accepts, ascending.  2s + 1 is then the
    length of a string type, or y_{alpha+1} = numerator(p0) ending zone alpha."""
    lengths = set(string_weights(ts)) | {ts.p0.numerator}
    return sorted(n - 1 for n in lengths if n > 1 and admissible_spin(ts, n - 1))


def phase_shift(ts: TSData, k: int, two_s: int) -> Fraction:
    """Scattering phase Phi between string type k and a spin with 2s = two_s.

    The spin enters through the position chi with string length 2s+1; both
    the length and the remainder are evaluated on chi's own zone, which keeps
    the boundary case 2s+1 = y_{i+1} consistent.
    """
    if not (1 <= k <= ts.dim):
        raise PreconditionError(f"string index out of range: {k}")
    if two_s < 1:
        raise PreconditionError("two_s must be a positive integer")
    chi, zi = _string_position_zone(ts, two_s + 1)
    n_chi = Fraction(two_s + 1)
    q_chi = _zone_remainder(ts, chi, zi)
    n_k = string_length(ts, Fraction(k))
    q_k = cf_remainder(ts, Fraction(k))
    if n_k > two_s:
        return q_k * (1 - n_chi) / (2 * ts.p0)
    r = zone(ts, k)
    half = Fraction(-1, 2) if r % 2 == 0 else Fraction(1, 2)
    return (q_k - q_chi * n_k) / (2 * ts.p0) + half


def length_table(ts: TSData):
    """The linear pieces of the length function, for display.

    Returns a list of (j_lo, j_hi_or_None, value_at_lo, slope) tuples; the
    final entry has no upper bound.
    """
    rows = []
    for i in range(ts.alpha + 2):
        lo = ts.m(i)
        hi = ts.m(i + 1) if i <= ts.alpha else None
        rows.append((lo, hi, ts.y(i - 1), ts.y(i)))
    return rows
