"""Configurations and rigged-configuration counting for XXX and XXZ chains.

XXX configurations are partitions with nonnegative vacancy numbers.  XXZ
configurations at integer p0 additionally carry a count of negative-parity
length-1 strings (rendered as club rows).  The general counting route sums a
product of binomials over admissible string-multiplicity vectors, with tops
given by the vacancy linear form; at integer p0 this must agree with the
direct census route, which is checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, repeat
from math import comb, floor
from operator import floordiv, mod

from .spectral import ChainSpec, apply_form, linear_form
from .tsdata import TSData, string_weights
from .util import PreconditionError, frac_part


def signed_binom(a: int, b: int) -> int:
    """Generalized binomial a(a-1)...(a-b+1)/b! for any integer a, b >= 0.

    Negative tops contribute signed terms; the counting sum relies on the
    resulting cancellations above half filling.
    """
    if a >= 0:
        return comb(a, b)
    return (-1) ** b * comb(b - a - 1, b)


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts."""

    parts: tuple

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts if p)
        if any(p < 0 for p in parts) or any(
                parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise PreconditionError(f"not a partition: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def max_part(self) -> int:
        return self.parts[0] if self.parts else 0

    def conjugate(self) -> tuple:
        out = [0] * self.max_part
        for p in self.parts:
            for i in range(p):
                out[i] += 1
        return tuple(out)

    def mult(self, n: int) -> int:
        """Number of parts equal to n."""
        return sum(1 for p in self.parts if p == n)

    def __repr__(self):
        return f"Partition{self.parts}"


def partitions(n: int, max_part: int | None = None):
    """All partitions of n with parts bounded by max_part, largest-first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# -- XXX model ----------------------------------------------------------------

def xxx_vacancy(nu: Partition, mu, n: int) -> int:
    """P_n = sum_k min(n, mu_k) - 2 * sum_{k<=n} nu'_k."""
    if n < 1:
        raise PreconditionError("row length must be >= 1")
    conj = nu.conjugate()
    below = sum(conj[:n])
    return sum(min(n, m) for m in mu) - 2 * below


def _xxx_admissible(nu: Partition, mu) -> bool:
    top = max([nu.max_part, max(mu, default=0), 1])
    return all(xxx_vacancy(nu, mu, n) >= 0 for n in range(1, top + 1))


def enumerate_xxx_configs(l: int, mu) -> list:
    """Partitions of l whose vacancy numbers are all nonnegative."""
    if l < 0:
        raise PreconditionError("weight must be nonnegative")
    out = []
    for parts in partitions(l):
        nu = Partition(parts)
        if _xxx_admissible(nu, mu):
            out.append(nu)
    return out


def xxx_config_count(nu: Partition, mu) -> int:
    """Number of rigging choices for one configuration."""
    total = 1
    for n in sorted(set(nu.parts)):
        total *= comb(xxx_vacancy(nu, mu, n) + nu.mult(n), nu.mult(n))
    return total


def count_xxx(l: int, mu) -> int:
    """Total number of rigged configurations of the given type."""
    return sum(xxx_config_count(nu, mu) for nu in enumerate_xxx_configs(l, mu))


@dataclass(frozen=True)
class XXXRiggedConfig:
    nu: Partition
    riggings: tuple  # pairs (part size n, weakly increasing rigging tuple)


def enumerate_xxx_rigged(l: int, mu) -> list:
    """Materialize every rigged configuration (small inputs only)."""
    out = []
    for nu in enumerate_xxx_configs(l, mu):
        sizes = sorted(set(nu.parts), reverse=True)
        choices = [[]]
        for n in sizes:
            p_n = xxx_vacancy(nu, mu, n)
            rows = list(combinations_with_replacement(range(p_n + 1), nu.mult(n)))
            choices = [c + [(n, r)] for c in choices for r in rows]
        out.extend(XXXRiggedConfig(nu, tuple(c)) for c in choices)
    return out


# -- XXZ model, integer p0: direct census route -------------------------------

@dataclass(frozen=True)
class XXZConfig:
    """String multiplicities (lam_1..lam_{p0-1}) plus the club count."""

    lam: tuple
    clubs: int

    @property
    def level(self) -> int:
        return sum((j + 1) * m for j, m in enumerate(self.lam)) + self.clubs

    def partition(self) -> Partition:
        parts = []
        for j in range(len(self.lam), 0, -1):
            parts.extend([j] * self.lam[j - 1])
        return Partition(parts)


_DIRECT = "direct XXZ enumeration"


def xxz_vacancy_int(ts: TSData, chain: ChainSpec, cfg: XXZConfig, j: int) -> int:
    """Vacancy number P_j at integer p0, from the closed-form expressions."""
    p0 = ts.integer_p0(_DIRECT, 2)
    if not (1 <= j <= p0):
        raise PreconditionError(f"string index out of range: {j}")
    mu = chain.mu()
    l = cfg.level
    nu = cfg.partition()
    arg = Fraction(chain.n_total - 2 * l, p0)
    fl = floor(arg)
    if j == p0:
        return fl + (cfg.lam[p0 - 2] if p0 >= 2 else 0)
    if j == p0 - 1:
        return int(p0 * frac_part(arg)) + fl + cfg.clubs
    conj = nu.conjugate()
    return sum(min(j, m) for m in mu) - 2 * sum(conj[:j]) - j * fl


def xxz_vacancies_int(ts: TSData, chain: ChainSpec, cfg: XXZConfig) -> tuple:
    p0 = ts.integer_p0(_DIRECT, 2)
    return tuple(xxz_vacancy_int(ts, chain, cfg, j) for j in range(1, p0 + 1))


@dataclass(frozen=True)
class XXZRecord:
    cfg: XXZConfig
    vacancies: tuple
    count: int


def enumerate_xxz_int(ts: TSData, chain: ChainSpec, l: int) -> list:
    """All admissible configurations at level l, with their rigging counts.

    Admissibility requires every vacancy number nonnegative, including the
    ones of unoccupied string types.  Order: club count descending, then the
    partition in ascending lexicographic order.
    """
    p0 = ts.integer_p0(_DIRECT, 2)
    if l < 0:
        raise PreconditionError("level must be nonnegative")
    out = []
    for clubs in range(l, -1, -1):
        for parts in sorted(partitions(l - clubs, p0 - 1)):
            lam = [0] * (p0 - 1)
            for p in parts:
                lam[p - 1] += 1
            cfg = XXZConfig(tuple(lam), clubs)
            vac = xxz_vacancies_int(ts, chain, cfg)
            if any(v < 0 for v in vac):
                continue
            count = comb(vac[p0 - 1] + clubs, clubs)
            for j in range(1, p0):
                count *= comb(vac[j - 1] + lam[j - 1], lam[j - 1])
            out.append(XXZRecord(cfg, vac, count))
    return out


# -- XXZ model, general rational p0: linear-form route -------------------------

def enumerate_lambda(ts: TSData, l: int) -> list:
    """All multiplicity vectors with sum n_k lam_k = l, lexicographically.

    A depth-first search on an explicit stack.  Bit r of reach[k] is set when
    r is a sum of the weights from component k on, so only prefixes that
    complete are pushed and no branch ends without a vector.  A zero
    remainder closes the vector with zeros at once, components heavier than
    the remainder take 0 without a branch, and the last component is the
    quotient of the remainder.
    """
    if l < 0:
        raise PreconditionError("level must be nonnegative")
    weights = string_weights(ts)
    dim = len(weights)
    last = dim - 1
    wl = weights[last]
    low = (2 << l) - 1          # bits 0..l
    reach = [1] * (dim + 1)
    for k in range(last, -1, -1):
        w, below = weights[k], reach[k + 1]
        for shift in range(w, l + 1, w):
            below |= reach[k + 1] << shift
        reach[k] = below & low
    out = []
    if not reach[0] >> l & 1:
        return out
    stack = [(0, l, ())]
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        k, rem, acc = pop()
        if not rem:
            emit(acc + (0,) * (dim - k))
            continue
        start = k
        while weights[k] > rem:
            k += 1
        acc += (0,) * (k - start)
        w = weights[k]
        if k == last:
            emit(acc + (rem // w,))
            continue
        if k + 1 == last:
            for c in range(rem // w + 1):
                q, r = divmod(rem - c * w, wl)
                if not r:
                    emit(acc + (c, q))
            continue
        below = reach[k + 1]
        for c in range(rem // w, -1, -1):
            r = rem - c * w
            if below >> r & 1:
                push((k + 1, r, acc + (c,)))
    return out


class _CountContext:
    """The integer-scaled vacancy linear form of spectral.linear_form, kept
    for fast evaluation of the tops.

    tops(lam) returns the integer top vector.  On a chain inside the string
    classification every top of a level-l vector is an integer, so a
    fractional one raises AssertionError rather than being skipped.
    """

    __slots__ = ("columns", "b_scaled", "denom")

    def __init__(self, ts: TSData, chain: ChainSpec, l: int):
        self.denom, self.columns, self.b_scaled = linear_form(ts, chain, l)

    def tops(self, lam):
        scaled = apply_form(self.columns, self.b_scaled, lam)
        den = repeat(self.denom)
        if any(map(mod, scaled, den)):
            raise AssertionError(f"fractional top at lambda = {tuple(lam)}")
        return list(map(floordiv, scaled, den))


@dataclass(frozen=True)
class GeneralCount:
    total: int
    admissible: int        # lambda vectors with a nonzero contribution
    skipped_fractional: int = 0   # always 0: every top is an integer (v1 JSON key)


def count_xxz_general_detailed(ts: TSData, chain: ChainSpec, l: int) -> GeneralCount:
    """Binomial-product sum over multiplicity vectors at level l.

    A chain with a spin outside the string classification raises
    PreconditionError before any vector is enumerated.  Tops use the
    generalized binomial, so negative tops give signed contributions; below
    half filling every nonzero term is positive and the sum agrees with the
    direct census.
    """
    ctx = _CountContext(ts, chain, l)
    total = admissible = 0
    for lam in enumerate_lambda(ts, l):
        prod = 1
        for t, x in zip(ctx.tops(lam), lam):
            if x:
                prod *= signed_binom(t, x)
                if not prod:
                    break
        if prod:
            total += prod
            admissible += 1
    return GeneralCount(total, admissible)


def count_xxz_general(ts: TSData, chain: ChainSpec, l: int) -> int:
    return count_xxz_general_detailed(ts, chain, l).total


# -- diagrams ------------------------------------------------------------------

def render_xxz(record: XXZRecord) -> str:
    """ASCII diagram: one row per string, clubs marked, vacancy label on the
    first row of each group."""
    cfg = record.cfg
    vac = record.vacancies
    p0 = len(cfg.lam) + 1
    lines = []
    for j in range(p0 - 1, 0, -1):
        for i in range(cfg.lam[j - 1]):
            row = "#" * j
            if i == 0:
                row += f"  {vac[j - 1]}"
            lines.append(row)
    for i in range(cfg.clubs):
        row = "♣"
        if i == 0:
            row += f"  {vac[p0 - 1]}"
        lines.append(row)
    if not lines:
        lines.append(f"(empty)  {vac[p0 - 1]}")
    return "\n".join(lines)


def render_xxx(nu: Partition, mu) -> str:
    lines = []
    seen = set()
    for p in nu.parts:
        row = "#" * p
        if p not in seen:
            seen.add(p)
            row += f"  {xxx_vacancy(nu, mu, p)}"
        lines.append(row)
    if not lines:
        lines.append("(empty)")
    return "\n".join(lines)
