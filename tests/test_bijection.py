from fractions import Fraction

import pytest

from bethestates import oracle
from bethestates.bijection import forget, pair, verify_pairing
from bethestates.configs import (Partition, XXZConfig, enumerate_xxx_configs,
                                 xxz_vacancies_int, xxz_vacancy_int)
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


def test_malformed_configurations_raise():
    # negative entries and string lengths outside 1..p0-1 at construction; a
    # multiplicity vector whose length is not p0 - 1 when its vacancies are
    # asked for
    ts, chain = compute_ts(6), ChainSpec(6, [(2, 5)])
    for lam, clubs in (((0,) * 5, -1), ((-1, 0, 0, 0, 0), 0)):
        with pytest.raises(PreconditionError, match="negative multiplicity"):
            XXZConfig(lam, clubs)
    for parts in ((0,), (2, -1), (6,)):
        with pytest.raises(PreconditionError, match="string lengths must lie in 1..5"):
            XXZConfig.from_parts(parts, 6, 0)
    for cfg in (XXZConfig((1, 0, 0, 0, 0, 0, 0), 0), XXZConfig((0,) * 4, 0)):
        with pytest.raises(PreconditionError, match="expected 5 string multiplicities"):
            forget(ts, chain, cfg)
        with pytest.raises(PreconditionError, match="expected 5 string multiplicities"):
            xxz_vacancy_int(ts, chain, cfg, 1)
        with pytest.raises(PreconditionError, match="expected 5 string multiplicities"):
            xxz_vacancies_int(ts, chain, cfg)


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
            cfg = XXZConfig.from_parts(nu.parts, 6, img.designated_clubs)
            assert forget(ts, chain, cfg) == nu
            # descendants are admissible and sit in the same fiber
            for k in img.descendants:
                cfg_k = XXZConfig.from_parts(nu.parts, 6, k)
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
    for p0, species in [(6, [(2, 5)]), (8, [(3, 5)]), (7, [(1, 6)]),
                        (9, [(1, 4), (2, 3)]), (11, [(1, 10), (2, 5)])]:
        ts = compute_ts(p0)
        rep = verify_pairing(ts, ChainSpec(p0, species))
        assert rep.all_passed, (p0, species,
                                [(c.name, c.failures[:3]) for c in rep.checks
                                 if not c.passed])


def test_verify_pairing_reads_the_census(monkeypatch):
    # one census per level; checks (b) and (c) evaluate no XXZ vacancy
    # number outside it
    from bethestates import configs
    levels, outside = [], []
    inside = [False]
    enumerate_xxz_int, xxz_vacancies_int = configs.enumerate_xxz_int, configs.xxz_vacancies_int

    def census(ts_, chain_, l):
        levels.append(l)
        inside[0] = True
        try:
            return enumerate_xxz_int(ts_, chain_, l)
        finally:
            inside[0] = False

    def vacancies(*args):
        if not inside[0]:
            outside.append(args)
        return xxz_vacancies_int(*args)

    monkeypatch.setattr(configs, "enumerate_xxz_int", census)
    monkeypatch.setattr(configs, "xxz_vacancies_int", vacancies)
    monkeypatch.setattr(configs, "xxz_vacancy_int", None)
    rep = verify_pairing(compute_ts(9), ChainSpec(9, [(1, 4), (2, 3)]))
    assert rep.all_passed
    assert levels == list(range(11))
    assert outside == []


def test_verify_pairing_reads_each_xxx_vacancy_vector_once(monkeypatch):
    # checks (a) and (c) take the XXX vacancy numbers of a configuration
    # from one xxx_vacancies call, not one xxx_vacancy call per index
    from bethestates import configs
    calls = []
    vacancies = configs.xxx_vacancies
    monkeypatch.setattr(configs, "xxx_vacancy", None)
    monkeypatch.setattr(configs, "xxx_vacancies",
                        lambda nu, mu: calls.append(nu) or vacancies(nu, mu))
    rep = verify_pairing(compute_ts(9), ChainSpec(9, [(1, 4), (2, 3)]))
    assert rep.all_passed
    assert calls


def test_pairing_rejects_a_chain_at_another_p0():
    ts, chain = compute_ts(6), ChainSpec(7, [(2, 3)])
    with pytest.raises(PreconditionError, match="disagree on p0"):
        pair(ts, chain, Partition(()))
    with pytest.raises(PreconditionError, match="disagree on p0"):
        forget(ts, chain, XXZConfig((0, 0, 0, 0, 0), 3))
    with pytest.raises(PreconditionError, match="disagree on p0"):
        verify_pairing(ts, chain)


def test_census_route_rejects_inadmissible_spins_once_per_chain(monkeypatch):
    # 2s = 5 lies outside the string classification at p0 = 4 (admissible
    # 2s: 1..3); every entry of the census route raises before a vacancy
    # number is computed, and enumerate_xxz_int checks the chain once
    from bethestates import configs
    ts, chain = compute_ts(4), ChainSpec(4, [(5, 1)])

    def no_vacancies(*args):
        raise AssertionError("census started")

    monkeypatch.setattr(configs, "xxz_vacancies_int", no_vacancies)
    for call in (lambda: pair(ts, chain, Partition(())),
                 lambda: forget(ts, chain, XXZConfig((0, 0, 0), 1)),
                 lambda: configs.enumerate_xxz_int(ts, chain, 1),
                 lambda: verify_pairing(ts, chain)):
        with pytest.raises(PreconditionError,
                           match="2s = 5 outside the string classification at p0 = 4; "
                                 "admissible 2s: 1..3$"):
            call()
    monkeypatch.undo()
    calls = []
    check = configs.require_classified_spins
    monkeypatch.setattr(configs, "require_classified_spins",
                        lambda *args: calls.append(args) or check(*args))
    chain = ChainSpec(4, [(3, 4)])
    assert len(configs.enumerate_xxz_int(ts, chain, 6)) > 1
    assert calls == [(ts, chain)]


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
