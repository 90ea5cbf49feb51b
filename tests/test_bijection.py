from fractions import Fraction

import pytest

from bethestates import oracle
from bethestates.bijection import forget, pair, verify_pairing
from bethestates.configs import Partition, XXZConfig, enumerate_xxx_configs
from bethestates.qalg import QPolynomial, gauss_binomial
from bethestates.spectral import ChainSpec
from bethestates.tsdata import compute_ts
from bethestates.util import PreconditionError

F = Fraction


def test_pair_empty_partition():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(2, 5)])
    img = pair(ts, chain, Partition(()))
    assert img.designated_clubs == 5
    assert img.descendants == (0, 1, 2, 3, 4)


def test_pair_boundary_no_descendants():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(2, 5)])
    full = [nu for nu in enumerate_xxx_configs(5, chain.mu())]
    for nu in full:
        img = pair(ts, chain, nu)
        assert img.designated_clubs == 0
        assert img.descendants == ()


def test_pair_half_integer_spin_sum_uses_floor():
    ts = compute_ts(8)
    chain = ChainSpec(8, [(3, 5)])  # s_sum = 15/2
    img = pair(ts, chain, Partition(()))
    assert img.designated_clubs == 7


def test_pair_rejects_outside_case():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(3, 5)])  # s_sum = 15/2 > 6
    with pytest.raises(PreconditionError):
        pair(ts, chain, Partition(()))


def test_pair_rejects_invalid_xxx():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(2, 5)])
    with pytest.raises(PreconditionError):
        pair(ts, chain, Partition((1, 1, 1)))  # negative vacancy at row 1


def test_forget_example3_config():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(3, 5)])
    assert forget(ts, chain, XXZConfig((0, 1, 0, 0, 0), 4)) == Partition((2,))
    assert forget(ts, chain, XXZConfig((0, 0, 0, 0, 0), 5)) == Partition(())


def test_forget_all_example3_configs():
    from bethestates.configs import enumerate_xxz_int
    ts = compute_ts(6)
    chain = ChainSpec(6, [(3, 5)])
    for rec in enumerate_xxz_int(ts, chain, 5):
        nu = forget(ts, chain, rec.cfg)
        assert nu.size == 5 - rec.cfg.clubs


def test_forget_pair_roundtrip():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(2, 5)])
    for l0 in range(6):
        for nu in enumerate_xxx_configs(l0, chain.mu()):
            img = pair(ts, chain, nu)
            from bethestates.bijection import _config_from_partition
            cfg = _config_from_partition(nu, 6, img.designated_clubs)
            assert forget(ts, chain, cfg) == nu
            # descendants are admissible and sit in the same fiber
            for k in img.descendants:
                cfg_k = _config_from_partition(nu, 6, k)
                assert forget(ts, chain, cfg_k) == nu


def test_staircase_identity_exact():
    for m in range(1, 11):
        for k in range(11):
            lhs = gauss_binomial(m + k, k)
            rhs = QPolynomial.zero()
            for j in range(k + 1):
                rhs = rhs + QPolynomial.monomial(j, 1) * gauss_binomial(m + j - 1, j)
            assert lhs == rhs, (m, k)


def test_verify_pairing_acceptance_chains():
    for p0, species in [(6, [(2, 5)]), (8, [(3, 5)]), (7, [(1, 6)])]:
        ts = compute_ts(p0)
        rep = verify_pairing(ts, ChainSpec(p0, species))
        assert rep.all_passed, (p0, species,
                                [(c.name, c.failures[:3]) for c in rep.checks
                                 if not c.passed])


def test_verify_pairing_guard():
    ts = compute_ts(6)
    with pytest.raises(PreconditionError):
        verify_pairing(ts, ChainSpec(6, [(3, 5)]))


def test_verify_pairing_report_shape():
    ts = compute_ts(6)
    rep = verify_pairing(ts, ChainSpec(6, [(1, 4)]))
    d = rep.to_json_dict()
    assert d["schema"] == "v1" and d["all_passed"] is True
    assert {c["name"] for c in d["checks"]} == {
        "vacancy_dominance", "downward_closure", "window_equality", "global_count"}


def test_verify_pairing_runs_one_weight_dp(monkeypatch):
    # the global count reads the sl2 multiplicity of every level from one
    # pass of the weight DP
    calls = []
    weight_counts = oracle._weight_counts
    monkeypatch.setattr(oracle, "_weight_counts",
                        lambda mu: calls.append(mu) or weight_counts(mu))
    rep = verify_pairing(compute_ts(8), ChainSpec(8, [(1, 7)]))
    assert rep.all_passed
    assert calls == [(1,) * 7]
