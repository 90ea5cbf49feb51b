"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact; the stated runtime budgets are asserted after a
warm-up call where relevant.  Sweep chains are restricted to species inside
the string classification (admissible_spin), since other spins carry no
Bethe states.
"""

import time
from fractions import Fraction

import pytest

from bethestates import (ChainSpec, QPolynomial, QSeries, check_completeness_xxx,
                         check_completeness_xxz, compute_ts, count_xxx,
                         count_xxz_general, enumerate_xxx_configs, enumerate_xxz_int,
                         gauss_binomial, sl2_multiplicity, verify_pairing)
from bethestates.configs import xxx_config_count, xxx_vacancy
from bethestates.identities import (bosonic_sum, bosonic_sum_collapsed,
                                    check_identity, divide_by_euler, fermionic_sum,
                                    gordon_andrews_products, gordon_andrews_sum,
                                    kernel_sum, level_series, q_count)
from bethestates.qalg import pochhammer
from bethestates.spectral import (RationalMatrix, coupling_bands, coupling_inverse,
                                  coupling_matrix, tridiagonal_adjugate)
from bethestates.tsdata import admissible_spin, string_length
from bethestates.util import PreconditionError

F = Fraction


def report(num, budget, started, note):
    elapsed = time.perf_counter() - started
    line = f"ACCEPTANCE {num:02d} PASS ({elapsed:8.3f}s, budget {budget}s): {note}"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.3f}s"


def sweep_chains(max_units=12):
    """(p0, species) pairs: admissible single-species chains plus mixed ones."""
    out = []
    for p0 in [2, 3, 4, 5, 6, 7, 8, F(5, 2), F(7, 3), F(16, 7)]:
        ts = compute_ts(p0)
        spins = [s for s in range(1, max_units + 1) if admissible_spin(ts, s)]
        for s in spins:
            for n in range(1, max_units // s + 1):
                out.append((p0, ((s, n),)))
        if len(spins) >= 2:
            a, b = spins[0], spins[1]
            if a + b <= max_units:
                out.append((p0, ((a, 1), (b, 1))))
            if 2 * a + b <= max_units:
                out.append((p0, ((a, 2), (b, 1))))
    return out


def test_criterion_01_string_data():
    compute_ts(F(16, 7))  # warm-up
    t0 = time.perf_counter()
    ts = compute_ts(F(16, 7))
    assert ts.quotients == (2, 3, 2)
    assert ts.bounds == (0, 2, 5, 7)
    assert ts.ys == (0, 1, 2, 7, 16)
    assert ts.zs == (0, 1, 3, 7)
    assert ts.p0_bar == F(7, 3)
    # the four linear pieces of the length function
    for j, want in [(1, 1), (F(3, 2), F(3, 2)), (3, 3), (4, 5), (5, 2),
                    (6, 9), (7, 7), (8, 23)]:
        assert string_length(ts, j) == want
    report(1, 0.001, t0, "continued-fraction data for 16/7")


def test_criterion_02_coupling_matrices():
    ts = compute_ts(F(16, 7))
    coupling_matrix(ts)  # warm-up (cached)
    t0 = time.perf_counter()
    printed_inverse = RationalMatrix([
        [1, 1, 0, 0, 0, 0, 0], [1, -2, 1, 0, 0, 0, 0], [0, 1, -2, 1, 0, 0, 0],
        [0, 0, 1, -1, -1, 0, 0], [0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, -1, 1, 1],
        [0, 0, 0, 0, 0, 1, -1]])
    printed_theta_16 = RationalMatrix([
        [9, 7, 5, 3, 2, 1, 1], [7, -7, -5, -3, -2, -1, -1],
        [5, -5, -15, -9, -6, -3, -3], [3, -3, -9, -15, -10, -5, -5],
        [2, -2, -6, -10, 4, 2, 2], [1, -1, -3, -5, 2, 9, 9],
        [1, -1, -3, -5, 2, 9, -7]])
    cinv = coupling_inverse(ts)
    assert cinv == printed_inverse
    assert coupling_matrix(ts) == RationalMatrix(
        [[x / 16 for x in row] for row in printed_theta_16.rows])
    det, _ = tridiagonal_adjugate(*coupling_bands(ts))
    assert abs(det) == 16 == ts.y(ts.alpha + 1)
    for p0 in [F(2), F(3), F(4), F(5, 2), F(7, 3), F(9, 4)]:
        t = compute_ts(p0)
        det, _ = tridiagonal_adjugate(*coupling_bands(t))
        assert abs(det) == t.y(t.alpha + 1)
    report(2, 0.010, t0, "coupling matrix, exact inverse, determinant law")


def test_criterion_03_xxx_example():
    mu = (2,) * 5
    count_xxx(0, mu)  # warm-up
    t0 = time.perf_counter()
    got = enumerate_xxx_configs(5, mu)
    shapes = {nu.parts: nu for nu in got}
    assert set(shapes) == {(5,), (4, 1), (3, 2)}
    assert [xxx_vacancy(shapes[(5,)], mu, 5)] == [0]
    assert [xxx_vacancy(shapes[(4, 1)], mu, n) for n in (4, 1)] == [0, 1]
    assert [xxx_vacancy(shapes[(3, 2)], mu, n) for n in (3, 2)] == [0, 2]
    assert [xxx_config_count(shapes[p], mu) for p in [(5,), (4, 1), (3, 2)]] == [1, 2, 3]
    assert count_xxx(5, mu) == 6
    assert [sl2_multiplicity(mu, l) for l in (5, 4, 3, 2, 1, 0)] == [6, 15, 15, 10, 4, 1]
    report(3, 0.010, t0, "XXX configurations and multiplicities for five doublets")


def test_criterion_04_xxz_example_both_routes():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(3, 5)])
    t0 = time.perf_counter()
    records = enumerate_xxz_int(ts, chain, 5)
    assert len(records) == 12
    assert sorted(r.count for r in records) == sorted(
        [1, 4, 3, 7, 10, 10, 6, 16, 8, 12, 18, 6])
    census_total = sum(r.count for r in records)
    formula_total = count_xxz_general(ts, chain, 5)
    assert census_total == formula_total == 101
    report(4, 0.100, t0, "12 configurations totalling 101, census and formula route")


def test_criterion_05_completeness_xxz_sweep():
    t0 = time.perf_counter()
    cases = sweep_chains() + [(6, ((3, 5),))]
    for p0, species in cases:
        ts = compute_ts(p0)
        rep = check_completeness_xxz(ts, ChainSpec(F(p0), species))
        assert rep.matched, (p0, species, rep.lhs_total, rep.rhs_total)
    flagship = check_completeness_xxz(compute_ts(6), ChainSpec(6, [(3, 5)]))
    assert flagship.lhs_total == 1024
    assert dict((l, c) for l, c, _ in flagship.per_l)[5] == 101
    report(5, 60, t0, f"XXZ completeness on {len(cases)} chains")


def test_criterion_06_completeness_xxx_and_multiplicity():
    # both counting routes are symmetric under permuting mu, so the weakly
    # decreasing shapes exhaust all compositions with total <= 12
    from bethestates.configs import partitions
    t0 = time.perf_counter()
    mus = [mu for total in range(1, 13) for mu in partitions(total)]
    checked = 0
    for mu in mus:
        n = sum(mu)
        for l in range(n // 2 + 1):
            assert count_xxx(l, mu) == sl2_multiplicity(mu, l), (mu, l)
        checked += 1
    for species in [((2, 5),), ((3, 5),), ((1, 4), (2, 2))]:
        rep = check_completeness_xxx(ChainSpec(2, species))
        assert rep.matched
    report(6, 30, t0, f"XXX multiplicity identity on {checked} shapes")


def test_criterion_07_identity_rational_sweep():
    t0 = time.perf_counter()
    for p0 in [F(2), F(3), F(4), F(5, 2), F(7, 3), F(16, 7)]:
        ts = compute_ts(p0)
        lhs = fermionic_sum(ts, 12)
        rhs = bosonic_sum(ts, 12)
        rhs2 = bosonic_sum_collapsed(ts, 12)
        assert lhs.first_discrepancy(rhs) is None, p0
        assert lhs.first_discrepancy(rhs2) is None, p0
    report(7, 120, t0, "fermionic = bosonic = collapsed bosonic to cutoff 12")


def test_criterion_08_integer_ladder():
    t0 = time.perf_counter()
    for k in range(1, 13):
        assert kernel_sum(k) == QPolynomial({0: 1, k: 1}) * pochhammer(1, k)
    for p0 in (2, 3, 4):
        ts = compute_ts(p0)
        lhs = fermionic_sum(ts, 30)
        assert lhs.first_discrepancy(gordon_andrews_sum(ts, 30)) is None, p0
        triple, residue = gordon_andrews_products(ts, 30)
        assert lhs.first_discrepancy(triple) is None, p0
        assert divide_by_euler(lhs).first_discrepancy(residue) is None, p0
    report(8, 60, t0, "kernel sums and the three integer-p0 product forms to cutoff 30")


def test_criterion_09_q_specialization():
    t0 = time.perf_counter()
    cases = [(p0, species) for p0, species in sweep_chains()
             if Fraction(p0).denominator == 1] + [(6, ((3, 5),))]
    checked = 0
    for p0, species in cases:
        ts = compute_ts(p0)
        chain = ChainSpec(F(p0), species)
        for l in range(chain.n_total + 1):
            got = q_count(ts, chain, l).eval_at_one()
            assert got == count_xxz_general(ts, chain, l)
            checked += 1
    report(9, 60, t0, f"q-count at q=1 equals the plain count ({checked} levels)")


def test_criterion_10_pairing():
    t0 = time.perf_counter()
    for p0, species in [(6, ((2, 5),)), (8, ((3, 5),)), (7, ((1, 6),))]:
        ts = compute_ts(p0)
        rep = verify_pairing(ts, ChainSpec(p0, species))
        assert rep.all_passed, (p0, species)
    for m in range(1, 11):
        for k in range(11):
            lhs = gauss_binomial(m + k, k)
            rhs = QPolynomial.zero()
            for j in range(k + 1):
                rhs = rhs + QPolynomial.monomial(j, 1) * gauss_binomial(m + j - 1, j)
            assert lhs == rhs
    with pytest.raises(PreconditionError):
        verify_pairing(compute_ts(6), ChainSpec(6, [(3, 5)]))
    report(10, 30, t0, "pairing checks, staircase identity, treated-case guard")


def test_criterion_11_identity_past_first_bosonic_term():
    # the cutoffs pass the first nontrivial bosonic exponents (112 for 16/7,
    # 21 for 7/3, whose kernel starts at q^1), so the sides are compared on
    # real terms, not 1 against 1
    t0 = time.perf_counter()
    firsts = []
    for p0, cutoff in [(F(16, 7), 130), (F(7, 3), 30)]:
        ts = compute_ts(p0)
        lhs = fermionic_sum(ts, cutoff)
        rhs = bosonic_sum(ts, cutoff)
        nontrivial = [e for e, c in rhs.terms.items() if e > 0 and c]
        assert nontrivial, p0
        firsts.append(min(nontrivial))
        assert lhs.first_discrepancy(rhs) is None, p0
        assert lhs.first_discrepancy(bosonic_sum_collapsed(ts, cutoff)) is None, p0
    assert firsts == [112, 22]
    report(11, 30, t0, "fermionic = bosonic = collapsed past the first real terms "
                       f"(q^{firsts[0]} at 16/7, q^{firsts[1]} at 7/3)")


def test_criterion_12_dead_level_window(monkeypatch):
    # fermionic_sum stops after max(string_weights(ts)) consecutive levels
    # with nothing within the cutoff; summing twice as many levels must
    # change nothing
    from bethestates import identities
    t0 = time.perf_counter()
    for p0, cutoff in [(F(16, 7), 120), (F(7, 3), 40), (F(5, 2), 30)]:
        ts = compute_ts(p0)
        levels = []
        enumerate_lambda = identities.enumerate_lambda
        monkeypatch.setattr(identities, "enumerate_lambda",
                            lambda ts_, l: levels.append(l) or enumerate_lambda(ts_, l))
        lhs = fermionic_sum(ts, cutoff)
        monkeypatch.undo()
        visited = max(levels) + 1
        assert levels == list(range(visited))
        total = QSeries.zero(cutoff)
        for l in range(2 * visited):
            lead = F(l * l) / ts.p0
            total = total + level_series(ts, l, cutoff - lead).shift(lead)
        assert total == lhs, p0
    report(12, 60, t0, "level sums over twice the visited levels change nothing")


def test_criterion_13_identity_16_7_at_240():
    # the frontier case of the level loop: 16/7 well past its first real
    # bosonic term (112), with every q-factorial divided once
    t0 = time.perf_counter()
    rep = check_identity(compute_ts(F(16, 7)), 240)
    assert rep.agree
    assert any(c for e, c in rep.rhs.terms.items() if e > 112)
    report(13, 5, t0, "fermionic = bosonic at 16/7 up to q^240")


def test_criterion_14_pairing_13_1x24():
    # the census of every level is the one source of the pairing checks'
    # XXZ vacancy numbers, so a 24-site chain at p0 = 13 checks in seconds
    t0 = time.perf_counter()
    rep = verify_pairing(compute_ts(13), ChainSpec(13, [(1, 24)]))
    assert rep.all_passed
    report(14, 10, t0, "pairing checks at p0 = 13 on 24 spin-1/2 sites")
