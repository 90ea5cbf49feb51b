"""Pairing between XXZ and XXX configurations at integer p0 > sum of spins.

Every XXX configuration nu is paired with the XXZ configuration
(nu, floor(s_sum - |nu|)); the other admissible club counts are its
descendants.  The checks below verify, exhaustively over a chain, the
containment and equality claims behind the pairing plus the global count
identity, and report failures instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from . import configs, oracle
from .configs import Partition, XXZConfig
from .spectral import ChainSpec, require_classified_spins
from .tsdata import TSData
from .util import PreconditionError, rat_str, report_header


def _require_treated_case(ts: TSData, chain: ChainSpec) -> int:
    p0 = ts.integer_p0("pairing", 2)
    chain.require_p0(ts.p0)
    if not p0 > chain.s_sum:
        raise PreconditionError(
            f"outside treated case: need p0 > sum of spins ({rat_str(chain.s_sum)})")
    require_classified_spins(ts, chain)
    return p0


def _admissible(ts: TSData, chain: ChainSpec, cfg: XXZConfig) -> bool:
    return all(v >= 0 for v in configs.xxz_vacancies_int(ts, chain, cfg))


@dataclass(frozen=True)
class PairImage:
    xxx_config: Partition
    designated_clubs: int
    descendants: tuple  # admissible club counts below the designated one


def pair(ts: TSData, chain: ChainSpec, nu: Partition) -> PairImage:
    """The designated XXZ partner of an XXX configuration, plus descendants."""
    p0 = _require_treated_case(ts, chain)
    mu = chain.mu()
    if not configs._xxx_admissible(nu, mu):
        raise PreconditionError(f"not an XXX configuration: {nu}")
    designated = floor(chain.s_sum - nu.size)
    cfg = XXZConfig.from_parts(nu.parts, p0, designated)
    if not _admissible(ts, chain, cfg):
        raise AssertionError(f"designated partner of {nu} is not admissible")
    descendants = tuple(
        k for k in range(designated)
        if _admissible(ts, chain, XXZConfig.from_parts(nu.parts, p0, k)))
    return PairImage(nu, designated, descendants)


def forget(ts: TSData, chain: ChainSpec, cfg: XXZConfig) -> Partition:
    """Strip the club column.  Below half filling the result is asserted to
    be a valid XXX configuration; a failure would be a counterexample."""
    require_classified_spins(ts, chain)
    if not _admissible(ts, chain, cfg):
        raise PreconditionError("not an admissible XXZ configuration")
    nu = cfg.partition()
    if 2 * cfg.level <= chain.n_total and not configs._xxx_admissible(nu, chain.mu()):
        raise AssertionError(f"stripped configuration {nu} fails XXX admissibility")
    return nu


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    failures: tuple = ()


@dataclass(frozen=True)
class PairingReport:
    chain: ChainSpec
    checks: tuple
    range_notes: tuple = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            **report_header(self.chain.p0, self.chain),
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed,
                 "failures": [str(f) for f in c.failures[:10]]}
                for c in self.checks],
            "range_notes": [str(n) for n in self.range_notes],
        }


def verify_pairing(ts: TSData, chain: ChainSpec) -> PairingReport:
    """Exhaustive machine check of the pairing claims for one chain.

    (a) vacancy dominance P_j^XXX >= P_j^XXZ for j <= p0-1, below half
        filling (above it the floor term reverses the inequality);
    (b) downward closure in the club count, all levels;
    (c) on the zero-floor window the first p0-2 vacancies agree and the two
        tail vacancies take their closed forms;
    (d) the global count identity against the multiplicity oracle.
    Failures are collected, not raised.
    """
    p0 = _require_treated_case(ts, chain)
    mu = chain.mu()
    n = chain.n_total
    census = {}   # every admissible configuration -> its vacancy numbers
    for l in range(n + 1):
        for rec in configs.enumerate_xxz_int(ts, chain, l):
            census[rec.cfg] = rec.vacancies

    fail_a = []
    fail_b = []
    for cfg, vac in census.items():
        l = cfg.level
        if 2 * l <= n:
            xxx = configs.xxx_vacancies(cfg.partition(), mu)
            for j in range(1, p0):
                if xxx[min(j, len(xxx)) - 1] < vac[j - 1]:
                    fail_a.append((l, cfg, j))
        if cfg.clubs > 0 and XXZConfig(cfg.lam, cfg.clubs - 1) not in census:
            fail_b.append((l, cfg))

    fail_c = []
    range_notes = []
    for l0 in range(n // 2 + 1):
        for nu in configs.enumerate_xxx_configs(l0, mu):
            xxx = configs.xxx_vacancies(nu, mu)
            window = [k for k in range(n - 2 * l0 + 1) if 0 <= n - 2 * l0 - 2 * k < p0]
            for k in window:
                vac = census.get(XXZConfig.from_parts(nu.parts, p0, k))
                if vac is None:
                    fail_c.append((nu, k, "inadmissible"))
                    continue
                for j in range(1, p0 - 1):
                    if vac[j - 1] != xxx[min(j, len(xxx)) - 1]:
                        fail_c.append((nu, k, f"P_{j} differs"))
                if vac[p0 - 2] != n - 2 * l0 - k:
                    fail_c.append((nu, k, "tail vacancy p0-1"))
                if vac[p0 - 1] != nu.mult(p0 - 1):
                    fail_c.append((nu, k, "tail vacancy p0"))
            # the descendants of pair(ts, chain, nu), read from the census
            descendants = [k for k in range(floor(chain.s_sum - l0))
                           if XXZConfig.from_parts(nu.parts, p0, k) in census]
            printed_hi = chain.s_sum - nu.size - 1  # claimed open upper bound
            if any(Fraction(k) >= printed_hi for k in descendants):
                range_notes.append(
                    f"nu={nu.parts}: descendants {tuple(descendants)} exceed "
                    f"printed bound {rat_str(printed_hi)}")

    xxz_formula = sum(configs.count_xxz_general(ts, chain, l) for l in range(n + 1))
    weights = oracle._weight_counts(mu)   # sl2 multiplicity at l: weights[l] - weights[l - 1]
    xxx_weighted = sum((n - 2 * l + 1) * (weights[l] - (weights[l - 1] if l else 0))
                       for l in range(n // 2 + 1))
    dim = chain.dimension()
    ok_d = xxz_formula == xxx_weighted == dim
    fail_d = [] if ok_d else [(xxz_formula, xxx_weighted, dim)]

    checks = (
        CheckResult("vacancy_dominance", not fail_a, tuple(fail_a)),
        CheckResult("downward_closure", not fail_b, tuple(fail_b)),
        CheckResult("window_equality", not fail_c, tuple(fail_c)),
        CheckResult("global_count", ok_d, tuple(fail_d)),
    )
    return PairingReport(chain, checks, tuple(range_notes))
