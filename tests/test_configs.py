import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from bethestates.configs import (Partition, XXZConfig, _CountContext, count_xxx,
                                 count_xxz_general, count_xxz_general_detailed,
                                 enumerate_lambda, enumerate_xxx_configs, enumerate_xxx_rigged,
                                 enumerate_xxz_int, partitions, render_xxx,
                                 render_xxz, signed_binom, string_weights,
                                 xxx_config_count, xxx_vacancy, xxz_vacancy_int)
from bethestates.oracle import sl2_multiplicity
from bethestates.spectral import ChainSpec, scaled_form, vacancy_linear_form
from bethestates.tsdata import admissible_spins, compute_ts
from bethestates.util import PreconditionError

F = Fraction


def test_partition_basics():
    nu = Partition((3, 2))
    assert nu.size == 5
    assert nu.conjugate() == (2, 2, 1)
    assert nu.mult(2) == 1 and nu.mult(1) == 0
    with pytest.raises(PreconditionError):
        Partition((1, 2))


def test_partitions_generator():
    assert sorted(partitions(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])
    assert list(partitions(0)) == [()]
    assert sorted(partitions(4, 2)) == sorted([(2, 2), (2, 1, 1), (1, 1, 1, 1)])


def falling_factorial_binom(a, b):
    num = 1
    for i in range(b):
        num *= a - i
    return num // factorial(b)


def test_signed_binom():
    from math import comb
    for a in range(0, 8):
        for b in range(0, 8):
            assert signed_binom(a, b) == comb(a, b)
    assert signed_binom(-1, 1) == -1
    assert signed_binom(-2, 2) == 3
    assert signed_binom(-1, 0) == 1
    for a in range(-15, 16):
        for b in range(13):
            assert signed_binom(a, b) == falling_factorial_binom(a, b), (a, b)


# -- XXX --------------------------------------------------------------------------

MU25 = (2, 2, 2, 2, 2)


def test_xxx_vacancy_diagram_labels():
    assert xxx_vacancy(Partition((5,)), MU25, 5) == 0
    assert xxx_vacancy(Partition((3, 2)), MU25, 2) == 2
    assert xxx_vacancy(Partition((3, 2)), MU25, 3) == 0
    assert xxx_vacancy(Partition((4, 1)), MU25, 4) == 0
    assert xxx_vacancy(Partition((4, 1)), MU25, 1) == 1
    assert xxx_vacancy(Partition(()), MU25, 3) >= 0


def test_enumerate_xxx_weight_five():
    got = enumerate_xxx_configs(5, MU25)
    assert {nu.parts for nu in got} == {(5,), (4, 1), (3, 2)}
    counts = sorted(xxx_config_count(nu, MU25) for nu in got)
    assert counts == [1, 2, 3]
    assert count_xxx(5, MU25) == 6


def test_enumerate_xxx_trivia():
    assert [nu.parts for nu in enumerate_xxx_configs(0, MU25)] == [()]
    got = enumerate_xxx_configs(1, MU25)
    assert [nu.parts for nu in got] == [(1,)]
    assert xxx_vacancy(got[0], MU25, 1) == 3


def test_count_xxx_matches_multiplicity_oracle():
    mus = [MU25, (3, 3, 3), (2, 2, 1, 1), (4, 2), (1, 1, 1, 1, 1, 1)]
    for mu in mus:
        n = sum(mu)
        for l in range(n // 2 + 1):
            assert count_xxx(l, mu) == sl2_multiplicity(mu, l), (mu, l)


def test_rigged_enumeration_matches_binomial_count():
    for mu in [MU25, (3, 3, 3)]:
        for l in range(4):
            assert len(enumerate_xxx_rigged(l, mu)) == count_xxx(l, mu)
    riggeds = enumerate_xxx_rigged(5, MU25)
    assert len(riggeds) == 6
    for rc in riggeds:
        for n, rows in rc.riggings:
            assert list(rows) == sorted(rows)
            assert all(0 <= r <= xxx_vacancy(rc.nu, MU25, n) for r in rows)


# -- XXZ integer p0 -----------------------------------------------------------------

def example3():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(3, 5)])
    return ts, chain


def test_example3_census():
    ts, chain = example3()
    recs = enumerate_xxz_int(ts, chain, 5)
    assert len(recs) == 12
    assert sorted(r.count for r in recs) == sorted(
        [1, 4, 3, 7, 10, 10, 6, 16, 8, 12, 18, 6])
    assert sum(r.count for r in recs) == 101
    by_cfg = {(r.cfg.partition().parts, r.cfg.clubs): r for r in recs}
    assert by_cfg[((), 5)].count == 1
    assert by_cfg[((1,), 4)].vacancies[0] == 3
    assert by_cfg[((2,), 3)].vacancies[1] == 6
    assert by_cfg[((5,), 0)].vacancies[4] == 5
    # club vacancy is zero whenever clubs are present at this level
    for r in recs:
        if r.cfg.clubs:
            assert r.vacancies[5] == 0


def test_example3_vacancy_probes():
    ts, chain = example3()
    cfg = XXZConfig((0, 1, 0, 0, 0), 4)
    assert xxz_vacancy_int(ts, chain, cfg, 2) == 6
    assert xxz_vacancy_int(ts, chain, cfg, 1) == 3
    cfg_all_clubs = XXZConfig((0, 0, 0, 0, 0), 5)
    assert xxz_vacancy_int(ts, chain, cfg_all_clubs, 6) == 0
    cfg5 = XXZConfig((0, 0, 0, 0, 1), 0)
    assert xxz_vacancy_int(ts, chain, cfg5, 5) == 5


def test_example3_formula_route():
    ts, chain = example3()
    detail = count_xxz_general_detailed(ts, chain, 5)
    assert detail.total == 101
    assert detail.admissible == 12
    assert detail.skipped_fractional == 0


def test_xxz_level_zero():
    ts, chain = example3()
    recs = enumerate_xxz_int(ts, chain, 0)
    assert len(recs) == 1 and recs[0].count == 1
    assert count_xxz_general(ts, chain, 0) == 1


def test_routes_agree_below_half_filling():
    cases = [(2, [(1, 4)]), (3, [(1, 3)]), (6, [(3, 5)]), (5, [(2, 2), (1, 1)])]
    for p0, species in cases:
        ts = compute_ts(p0)
        chain = ChainSpec(p0, species)
        n = chain.n_total
        for l in range(n // 2 + 1):
            census = sum(r.count for r in enumerate_xxz_int(ts, chain, l))
            assert census == count_xxz_general(ts, chain, l), (p0, species, l)


def test_level_sum_is_dimension():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(2, 5)])
    total = sum(count_xxz_general(ts, chain, l) for l in range(chain.n_total + 1))
    assert total == 3 ** 5


def test_nonineger_p0_completeness_small():
    ts = compute_ts(F(16, 7))
    chain = ChainSpec(F(16, 7), [(1, 3)])
    per_l = [count_xxz_general(ts, chain, l) for l in range(4)]
    assert per_l == [1, 3, 3, 1]
    assert sum(per_l) == 8


def test_enumerate_lambda_lex_and_weights():
    ts = compute_ts(F(16, 7))
    lams = enumerate_lambda(ts, 2)
    assert lams == sorted(lams)
    weights = (1, 1, 3, 5, 2, 9, 7)
    for lam in lams:
        assert sum(w * x for w, x in zip(weights, lam)) == 2
    assert (0, 0, 0, 0, 1, 0, 0) in lams
    assert (1, 1, 0, 0, 0, 0, 0) in lams
    assert (2, 0, 0, 0, 0, 0, 0) in lams


def brute_force_lambda(weights, l):
    ranges = [range(l // w + 1) for w in weights]
    return sorted(lam for lam in product(*ranges)
                  if sum(w * x for w, x in zip(weights, lam)) == l)


def test_enumerate_lambda_matches_brute_force():
    for p0, top in [(F(1), 10), (F(3), 10), (F(16, 7), 10), (F(55, 34), 10), (F(201, 2), 7)]:
        ts = compute_ts(p0)
        weights = string_weights(ts)
        assert enumerate_lambda(ts, 0) == [(0,) * ts.dim]
        for l in range(top + 1):
            lams = enumerate_lambda(ts, l)
            assert type(lams) is list
            assert lams == brute_force_lambda(weights, l), (p0, l)


def test_context_shares_scaled_columns():
    # inside the string classification every level reads the cached columns
    ts = compute_ts(F(201, 2))
    chain = ChainSpec(ts.p0, [(1, 4)])
    form = scaled_form(ts)
    for l in range(chain.n_total + 1):
        ctx = _CountContext(ts, chain, l)
        assert ctx.denom == form.den == 201, l
        assert ctx.columns is form.columns, l


def test_tops_match_vacancy_linear_form():
    # tops is the linear form when every component is an integer and raises
    # as soon as one is not; seeded lam on admissible chains.  There a
    # fractional lam gives fractional rows only, so a one-row shift of the
    # offset checks that a single fractional row raises too.
    rng = random.Random(20261018)
    cases = [(F(16, 7), ((1, 3),)), (F(6), ((3, 2),)), (F(55, 34), ((2, 2), (7, 1))),
             (F(7, 2), ((1, 3),))]
    seen = {"integer": 0, "fractional": 0, "first row integer": 0, "last row integer": 0}
    for p0, species in cases:
        ts = compute_ts(p0)
        chain = ChainSpec(p0, species)
        for l in range(chain.n_total + 1):
            ctx = _CountContext(ts, chain, l)
            for _ in range(8):
                lam = [rng.randint(0, 3) for _ in range(ts.dim)]
                exact = vacancy_linear_form(ts, chain, l, lam)
                if all(x.denominator == 1 for x in exact):
                    assert ctx.tops(lam) == [int(x) for x in exact], (p0, species, l, lam)
                    seen["integer"] += 1
                    for row, key in ((-1, "first row integer"), (0, "last row integer")):
                        shifted = _CountContext.__new__(_CountContext)
                        shifted.denom, shifted.columns = ctx.denom, ctx.columns
                        shifted.b_scaled = list(ctx.b_scaled)
                        shifted.b_scaled[row] += 1
                        with pytest.raises(AssertionError, match="fractional top"):
                            shifted.tops(lam)
                        seen[key] += 1
                else:
                    with pytest.raises(AssertionError, match="fractional top"):
                        ctx.tops(lam)
                    seen["fractional"] += 1
    assert all(n >= 10 for n in seen.values()), seen


def test_inadmissible_chains_raise_before_enumerating(monkeypatch):
    # a spin outside the string classification is rejected at every level,
    # naming the offending 2s and the admissible ones, and every counting
    # route refuses the chain before a single lambda vector
    from bethestates import configs, identities
    from bethestates.oracle import check_completeness_xxz

    def no_lambda(*args):
        raise AssertionError("lambda enumeration started")

    monkeypatch.setattr(configs, "enumerate_lambda", no_lambda)
    monkeypatch.setattr(identities, "enumerate_lambda", no_lambda)
    for p0, species, msg in [(F(16, 7), ((1, 2), (6, 1)), "2s = 6 .*admissible 2s: 1, 8, 15$"),
                             (F(27, 11), ((8, 1),), "2s = 8 .*admissible 2s: 1, 6, 11, 16"),
                             (F(7, 3), ((2, 3),), "2s = 2 .*admissible 2s: 1$"),
                             (F(5, 2), ((1, 2), (2, 1)), "2s = 2 .*admissible 2s: 1$")]:
        ts = compute_ts(p0)
        chain = ChainSpec(p0, species)
        for l in range(chain.n_total + 1):
            with pytest.raises(PreconditionError, match=msg):
                _CountContext(ts, chain, l)
        for route in (lambda: count_xxz_general(ts, chain, 1),
                      lambda: identities.q_count(ts, chain, 1),
                      lambda: check_completeness_xxz(ts, chain)):
            with pytest.raises(PreconditionError, match=msg):
                route()


def test_tops_are_integers_for_every_admissible_spin():
    # the fact behind the fractional-top assertion, checked on the exact
    # Fraction form: every admissible 2s, alone and in pairs, with N <= 10
    vectors = 0
    for p0 in (F(16, 7), F(27, 11), F(55, 34), F(7, 2), F(6), F(13, 5)):
        ts = compute_ts(p0)
        spins = [s for s in admissible_spins(ts) if s <= 10]
        chains = [((s, n),) for s in spins for n in range(1, 10 // s + 1)]
        chains += [((s, 1), (t, 1)) for s in spins for t in spins if s < t and s + t <= 10]
        for species in chains:
            chain = ChainSpec(p0, species)
            for l in range(chain.n_total + 1):
                for lam in enumerate_lambda(ts, l):
                    tops = vacancy_linear_form(ts, chain, l, lam)
                    assert all(x.denominator == 1 for x in tops), (p0, species, l, lam)
                    vectors += 1
    assert vectors > 1000


def test_enumerate_xxz_rejects_noninteger_p0():
    ts = compute_ts(F(16, 7))
    chain = ChainSpec(F(16, 7), [(1, 3)])
    with pytest.raises(PreconditionError):
        enumerate_xxz_int(ts, chain, 1)


def test_render_diagrams():
    ts, chain = example3()
    recs = enumerate_xxz_int(ts, chain, 5)
    by_cfg = {(r.cfg.partition().parts, r.cfg.clubs): r for r in recs}
    art = render_xxz(by_cfg[((1,), 4)])
    lines = art.splitlines()
    assert lines[0] == "#  3"
    assert lines[1] == "♣  0"
    assert lines[2] == "♣"
    assert render_xxx(Partition((3, 2)), MU25).splitlines() == ["###  0", "##  2"]
