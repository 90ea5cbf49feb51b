"""Independent ground truth: weight-space dimensions and completeness sums.

The dynamic-programming multiplicity oracle shares no code with the
configuration-counting route; the completeness checks compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import configs
from .spectral import ChainSpec
from .tsdata import TSData
from .util import PreconditionError, check_int, report_header


def _weight_counts(mu) -> list:
    """counts[w] = number of integer tuples with 0 <= a_i <= mu_i and
    sum a_i = w, for w = 0 .. sum(mu); every mu_i must be >= 1."""
    if min(mu, default=1) < 1:
        raise PreconditionError(f"composition entries must be >= 1: {tuple(mu)}")
    counts = [1]
    for m in mu:
        nxt = [0] * (len(counts) + m)
        for i, c in enumerate(counts):
            for a in range(m + 1):
                nxt[i + a] += c
        counts = nxt
    return counts


def weight_count(mu, w: int) -> int:
    """Number of integer tuples with 0 <= a_i <= mu_i and sum a_i = w."""
    check_int(w, "weight")
    counts = _weight_counts(mu)
    return counts[w] if 0 <= w < len(counts) else 0


def sl2_multiplicity(mu, l: int) -> int:
    """Multiplicity of the spin-(N/2 - l) irreducible in the tensor product."""
    check_int(l, "l")
    n = sum(mu)
    if l < 0 or 2 * l > n:
        raise PreconditionError(f"l out of range: {l}")
    counts = _weight_counts(mu)
    return counts[l] - (counts[l - 1] if l > 0 else 0)


@dataclass(frozen=True)
class CompletenessReport:
    chain: ChainSpec
    kind: str            # "xxx" or "xxz"
    lhs_total: int
    per_l: tuple         # (l, count, weight) triples
    matched: bool

    @property
    def rhs_total(self) -> int:
        return sum(count * weight for _, count, weight in self.per_l)

    def to_json_dict(self) -> dict:
        return {
            **report_header(self.chain.p0, self.chain),
            "kind": self.kind,
            "lhs_total": self.lhs_total,
            "per_l": [{"l": l, "count": c, "weight": w} for l, c, w in self.per_l],
            "rhs_total": self.rhs_total,
            "matched": self.matched,
        }


def check_completeness_xxx(chain: ChainSpec) -> CompletenessReport:
    """Total dimension against the weighted sum of XXX state counts."""
    mu = chain.mu()
    n = chain.n_total
    lhs = chain.dimension()
    per_l = tuple(
        (l, configs.count_xxx(l, mu), n - 2 * l + 1) for l in range(n // 2 + 1))
    rhs = sum(c * w for _, c, w in per_l)
    return CompletenessReport(chain, "xxx", lhs, per_l, lhs == rhs)


def check_completeness_xxz(ts: TSData, chain: ChainSpec) -> CompletenessReport:
    """Total dimension against the plain sum of XXZ state counts over levels;
    matched also needs the count at each level l to be weight_count(mu, l)."""
    chain.require_p0(ts.p0)
    lhs = chain.dimension()
    per_l = tuple((l, configs.count_xxz_general(ts, chain, l), 1)
                  for l in range(chain.n_total + 1))
    weights = _weight_counts(chain.mu())
    matched = lhs == sum(c for _, c, _ in per_l) and all(
        c == weights[l] for l, c, _ in per_l)
    return CompletenessReport(chain, "xxz", lhs, per_l, matched)
