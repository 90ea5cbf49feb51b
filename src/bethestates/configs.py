"""Configurations and rigged-configuration counting for XXX and XXZ chains.

XXX configurations are partitions with nonnegative vacancy numbers.  XXZ
configurations at integer p0 additionally carry a count of negative-parity
length-1 strings (rendered as club rows).  The general counting route sums a
product of binomials over admissible string-multiplicity vectors, with tops
given by the vacancy linear form; at integer p0 this must agree with the
direct census route, which is checked in the tests.  enumerate_lambda lists
the vectors of a level: a depth-first search over the head components, pruned
by the counts N_k(r) of the tails that complete it, joins each prefix to a
table of the lex-sorted tails of the last components.  The count and q_count
share one walk over the vectors that reads the tops from g = G lam, G =
Theta~ + n n^t/p0 an integer matrix, by back-substitution in the tridiagonal
S C S: O(dim) per vector, stopping at the first vanishing binomial.
_CountContext.tops evaluates the form per vector from the dense adjugate of
S C S, built on demand, and E; it is the reference the walk is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from math import comb

from .spectral import (ChainSpec, _parity_entries, linear_form, offset_vector,
                       require_classified_spins, scaled_form, tridiagonal_adjugate)
from .tsdata import TSData, string_weights
from .util import PreconditionError, check_int, check_level, integral


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
        parts = integral(parts, "partition parts")
        if any(p < 0 for p in parts) or any(
                parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise PreconditionError(f"not a partition: {parts}")
        object.__setattr__(self, "parts", tuple(p for p in parts if p))     # trailing zeros

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
    """All partitions of n with parts bounded by max_part, largest-first.

    Iterative, so the number of parts is not bounded by the recursion limit:
    the next partition lowers the last part above 1 by one and refills what
    it and the trailing 1s held, largest-first, below the lowered part."""
    if max_part is None:
        max_part = n
    if n < 0 or (n > 0 and max_part < 1):
        return
    parts, rest, bound = [], n, min(n, max_part)
    while True:
        if rest:
            q, r = divmod(rest, bound)
            parts += [bound] * q + ([r] if r else [])
        yield tuple(parts)
        rest = 1
        while parts and parts[-1] == 1:
            rest += parts.pop()
        if not parts:
            return
        parts[-1] -= 1
        bound = parts[-1]


# -- XXX model ----------------------------------------------------------------

def xxx_vacancies(nu: Partition, mu) -> tuple:
    """(P_1, ..., P_top), top = max(nu_1, max mu, 1), in one pass:
    P_n = sum_{j<=n} (mu'_j - 2 nu'_j), as sum_k min(n, mu_k) = mu'_1 + ...
    + mu'_n.  Past top both conjugates vanish, so P_n = P_top for n > top."""
    if min(mu, default=1) < 1:
        raise PreconditionError(f"composition entries must be >= 1: {tuple(mu)}")
    top = max([nu.max_part, max(mu, default=0), 1])
    ends = [0] * (top + 1)          # ends[v]: mu entries minus twice nu parts equal to v
    for m in mu:
        ends[m] += 1
    for p in nu.parts:
        ends[p] -= 2
    cols = list(accumulate(reversed(ends[1:])))[::-1]     # mu'_j - 2 nu'_j
    return tuple(accumulate(cols))


def xxx_vacancy(nu: Partition, mu, n: int) -> int:
    """P_n = sum_k min(n, mu_k) - 2 * sum_{k<=n} nu'_k."""
    check_int(n, "row length")
    if n < 1:
        raise PreconditionError("row length must be >= 1")
    vac = xxx_vacancies(nu, mu)
    return vac[min(n, len(vac)) - 1]


def _xxx_admissible(nu: Partition, mu) -> bool:
    return min(xxx_vacancies(nu, mu)) >= 0


def enumerate_xxx_configs(l: int, mu) -> list:
    """Partitions of l whose vacancy numbers are all nonnegative."""
    check_level(l, "weight")
    out = []
    for parts in partitions(l):
        nu = Partition(parts)
        if _xxx_admissible(nu, mu):
            out.append(nu)
    return out


def xxx_config_count(nu: Partition, mu) -> int:
    """Number of rigging choices for one configuration."""
    vac = xxx_vacancies(nu, mu)
    total = 1
    for n in sorted(set(nu.parts)):
        total *= comb(vac[n - 1] + nu.mult(n), nu.mult(n))
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
        vac = xxx_vacancies(nu, mu)
        choices = [[]]
        for n in sizes:
            rows = list(combinations_with_replacement(range(vac[n - 1] + 1), nu.mult(n)))
            choices = [c + [(n, r)] for c in choices for r in rows]
        out.extend(XXXRiggedConfig(nu, tuple(c)) for c in choices)
    return out


# -- XXZ model, integer p0: direct census route -------------------------------

@dataclass(frozen=True)
class XXZConfig:
    """String multiplicities (lam_1..lam_{p0-1}) plus the club count, all
    nonnegative."""

    lam: tuple
    clubs: int

    def __post_init__(self):
        *lam, clubs = integral((*self.lam, self.clubs), "configuration entries")
        if clubs < 0 or any(m < 0 for m in lam):
            raise PreconditionError(
                f"negative multiplicity in configuration {self.lam}, {self.clubs} clubs")
        object.__setattr__(self, "lam", tuple(lam))
        object.__setattr__(self, "clubs", clubs)

    @classmethod
    def from_parts(cls, parts, p0: int, clubs: int) -> XXZConfig:
        """The configuration whose strings have the lengths parts, each
        below p0, next to the given number of clubs."""
        if not all(0 < p < p0 for p in parts):
            raise PreconditionError(f"string lengths must lie in 1..{p0 - 1}: {tuple(parts)}")
        lam = [0] * (p0 - 1)
        for p in parts:
            lam[p - 1] += 1
        return cls(tuple(lam), clubs)

    @property
    def level(self) -> int:
        return sum((j + 1) * m for j, m in enumerate(self.lam)) + self.clubs

    def partition(self) -> Partition:
        return Partition(j for j in range(len(self.lam), 0, -1)
                         for _ in range(self.lam[j - 1]))


_DIRECT = "direct XXZ enumeration"


@lru_cache(maxsize=16)
def _chain_terms(chain: ChainSpec, p0: int) -> tuple:
    """sum_m N_m min(j, 2s_m) for j = 1..p0-2, the same for every
    configuration of the chain."""
    return tuple(sum(n * min(j, two_s) for two_s, n in chain.species)
                 for j in range(1, p0 - 1))


def xxz_vacancies_int(ts: TSData, chain: ChainSpec, cfg: XXZConfig) -> tuple:
    """Vacancy numbers P_1..P_p0 at integer p0, from the closed forms in one
    pass.  With N - 2l = p0 f + r, 0 <= r < p0, and nu' the conjugate of the
    strings (nu'_j of length >= j, suffix sums of lam):
      P_j = sum_m N_m min(j, 2s_m) - 2 (nu'_1 + ... + nu'_j) - j f  (j <= p0-2),
      P_{p0-1} = r + f + clubs,  P_p0 = f + lam_{p0-1}."""
    p0 = ts.integer_p0(_DIRECT, 2)
    chain.require_p0(ts.p0)
    if len(cfg.lam) != p0 - 1:
        raise PreconditionError(
            f"expected {p0 - 1} string multiplicities at p0 = {p0}, got {len(cfg.lam)}")
    f, r = divmod(chain.n_total - 2 * cfg.level, p0)
    conj = list(accumulate(reversed(cfg.lam)))[::-1]
    heads = [spins - 2 * below - j * f for j, spins, below
             in zip(range(1, p0 - 1), _chain_terms(chain, p0), accumulate(conj))]
    return (*heads, r + f + cfg.clubs, f + cfg.lam[p0 - 2])


def xxz_vacancy_int(ts: TSData, chain: ChainSpec, cfg: XXZConfig, j: int) -> int:
    """Vacancy number P_j at integer p0 (see xxz_vacancies_int)."""
    p0 = ts.integer_p0(_DIRECT, 2)
    if not (1 <= j <= p0):
        raise PreconditionError(f"string index out of range: {j}")
    return xxz_vacancies_int(ts, chain, cfg)[j - 1]


@dataclass(frozen=True)
class XXZRecord:
    cfg: XXZConfig
    vacancies: tuple
    count: int


def enumerate_xxz_int(ts: TSData, chain: ChainSpec, l: int) -> list:
    """All admissible configurations at level l, with their rigging counts.

    Admissibility requires every vacancy number nonnegative, including the
    ones of unoccupied string types.  Order: club count descending, then the
    partition in ascending lexicographic order.  A chain with a spin outside
    the string classification raises, as in the linear-form route.
    """
    p0 = ts.integer_p0(_DIRECT, 2)
    check_level(l)
    require_classified_spins(ts, chain)
    out = []
    for clubs in range(l, -1, -1):
        for parts in sorted(partitions(l - clubs, p0 - 1)):
            cfg = XXZConfig.from_parts(parts, p0, clubs)
            vac = xxz_vacancies_int(ts, chain, cfg)
            if any(v < 0 for v in vac):
                continue
            count = comb(vac[p0 - 1] + clubs, clubs)
            for v, m in zip(vac, cfg.lam):
                count *= comb(v + m, m)
            out.append(XXZRecord(cfg, vac, count))
    return out


# -- XXZ model, general rational p0: linear-form route -------------------------

def enumerate_lambda(ts: TSData, l: int) -> list:
    """All multiplicity vectors with sum n_k lam_k = l, lexicographically.

    counts[k][r] = N_k(r) counts the tails over components k.. that sum to r:
    N_k(r) = N_{k+1}(r) + N_k(r - n_k), and N_0(l) is the size of the output.
    The lex-sorted tails of the last components, for every remainder r <= l,
    form a table built bottom-up.  It takes the last component, then each one
    before it while it holds at most a 32nd of the output's entries, so its
    time and memory stay small against the output's; components heavier
    than l join it as one run of zeros.  A depth-first search on an explicit
    stack runs over the head components, pushes only prefixes whose
    remainder the later components reach (N_{k+1}(r) > 0), and joins each
    prefix to its table row with one tuple concatenation per vector.  A zero
    remainder closes the vector with zeros at once, and head components
    heavier than the remainder take 0 without a branch.
    """
    check_level(l)
    weights = string_weights(ts)
    dim = len(weights)
    counts = [[1] + [0] * l]           # N_dim: the empty tail, at r = 0 only
    for w in reversed(weights):
        row = counts[-1][:]
        for r in range(w, l + 1):
            row[r] += row[r - w]
        counts.append(row)
    counts.reverse()
    split, entries = dim - 1, dim * counts[0][l]
    while split and 32 * (dim - split + 1) * sum(counts[split - 1]) <= entries:
        split -= 1
    table, pad = [[()]] + [[] for _ in range(l)], ()
    for w in reversed(weights[split:]):
        if w > l:
            pad = (0,) + pad
            continue
        rows = []
        for r in range(l + 1):
            row = []
            for c in range(r // w + 1):
                row += map(((c,) + pad).__add__, table[r - c * w])
            rows.append(row)
        table, pad = rows, ()
    if pad:
        table = [list(map(pad.__add__, row)) for row in table]
    out = []
    stack = [(0, l, ())]
    pop, push, emit, join = stack.pop, stack.append, out.append, out.extend
    while stack:
        k, rem, acc = pop()
        if not rem:
            emit(acc + (0,) * (dim - k))
            continue
        start = k
        while k < split and weights[k] > rem:
            k += 1
        acc += (0,) * (k - start)
        if k == split:
            join(map(acc.__add__, table[rem]))
            continue
        w = weights[k]
        below = counts[k + 1]
        for c in range(rem // w, -1, -1):
            r = rem - c * w
            if below[r]:
                push((k + 1, r, acc + (c,)))
    return out


class _CountContext:
    """The vacancy linear form scaled by denom = det C, evaluated densely per
    vector from det C * Theta~ = adj(S C S) and the entries of E: the
    reference for the counting walk, sharing no back-substitution with it.

    tops(lam) returns the integer top vector.  On a chain inside the string
    classification every top of a level-l vector is an integer, so a
    fractional one raises AssertionError rather than being skipped.
    """

    __slots__ = ("denom", "b_scaled", "theta", "signs", "parity")

    def __init__(self, ts: TSData, chain: ChainSpec, l: int):
        linear_form(ts, chain, l)           # a spin outside the classification raises
        self.denom, self.theta = tridiagonal_adjugate(scaled_form(ts).diag, scaled_form(ts).off)
        self.b_scaled = [int(x * self.denom) for x in offset_vector(ts, chain, l)]
        self.signs, self.parity = ts.signs, _parity_entries(ts)

    def tops(self, lam):
        den, signs = self.denom, self.signs
        scaled = list(self.b_scaled)
        for i, j, e in self.parity:         # den E lam~, lam~_j = s_j lam_j
            scaled[i] += den * e * signs[j] * lam[j]
        for k, x in enumerate(lam):
            if x:   # theta is symmetric, so row k is column k; s_k Theta_ik = s_i Theta~_ik
                for i, t in enumerate(self.theta[k]):
                    scaled[i] -= 2 * signs[i] * t * x
        if any(v % den for v in scaled):
            raise AssertionError(f"fractional top at lambda = {tuple(lam)}")
        return [v // den for v in scaled]


def _dual_walk(ts: TSData, chain: ChainSpec, l: int):
    """(factors, e) for each level-l multiplicity vector lam whose binomial
    product does not vanish, in the order of enumerate_lambda: factors lists
    (top, lam_i, i) for the nonzero lam_i, last component first, and the
    integer e = lam . g is the quadratic form lam G lam.

    g = G lam is ScaledForm.dual(lam, l), and each top is local in it:
    t_i = h_i - 2 s_i g_i + lam_i + corner_i, h = linear_form(ts, chain, l)
    and E's corner being -lam_dim at i = dim-1 and +lam_{dim-1} at i = dim.
    With g0 the dual at lam = 0 and level l, g = g0 + u for the integer
    back-substitution u of lam, u_{i-1} = b_{i-1} (lam_i - a_i u_i - b_i
    u_{i+1}) from u_dim = 0, which the walk runs per vector, last row first.
    g is integral, so linear_form's check of h is the level's one lattice
    check.  A signed or Gaussian binomial with lam_i > 0 vanishes only when
    0 <= t_i < lam_i, where the vector is dropped.  _CountContext.tops is the
    dense per-vector reference.
    """
    h = linear_form(ts, chain, l)
    form = scaled_form(ts)
    diag, last = form.diag, ts.dim - 1
    off_hi = (*form.off, 0)         # b_i, coupling i to i+1
    off_lo = (0, *form.off)         # b_{i-1}, coupling i to i-1
    coef = [2 * s for s in ts.signs]
    g0 = form.dual([0] * ts.dim, l)
    # t_i = h_i - 2 s_i u_i + lam_i + corner_i, g0 folded into h
    h = [hi - k * gi for hi, k, gi in zip(h, coef, g0)]
    if last:
        # the corner at dim-1, -lam_dim = -b_{dim-1} u_{dim-1}, joins its coefficient
        coef[last - 1] += off_lo[last]
    rows = [(h[i], coef[i], diag[i], off_lo[i], off_hi[i], g0[i], i)
            for i in range(last - 1, -1, -1)]
    h_last, g_last, b_last = h[last], g0[last], off_lo[last]
    for lam in enumerate_lambda(ts, l):
        x = lam[last]
        factors, e = [], 0
        if x:
            t = h_last + x + (lam[last - 1] if last else 0)
            if 0 <= t < x:
                continue
            factors.append((t, x, last))
            e = x * g_last
        u, u_hi = b_last * x, 0
        for (hi, k, a, b_lo, b_hi, gi, i), x in zip(rows, lam[last - 1::-1]):
            if x:
                t = hi - k * u + x
                if 0 <= t < x:
                    break
                factors.append((t, x, i))
                e += x * (gi + u)
            u, u_hi = b_lo * (x - a * u - b_hi * u_hi), u
        else:
            yield factors, e


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
    total = admissible = 0
    for factors, _ in _dual_walk(ts, chain, l):
        prod = 1
        for t, x, _ in factors:
            prod *= signed_binom(t, x)
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
    vac = xxx_vacancies(nu, mu)
    lines = []
    seen = set()
    for p in nu.parts:
        row = "#" * p
        if p not in seen:
            seen.add(p)
            row += f"  {vac[p - 1]}"
        lines.append(row)
    if not lines:
        lines.append("(empty)")
    return "\n".join(lines)
