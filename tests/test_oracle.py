from fractions import Fraction

import pytest

from bethestates.oracle import (check_completeness_xxx, check_completeness_xxz,
                                sl2_multiplicity, weight_count)
from bethestates.spectral import ChainSpec
from bethestates.tsdata import compute_ts
from bethestates.util import PreconditionError

F = Fraction


def test_weight_count_basics():
    mu = (2,) * 5
    assert weight_count(mu, 0) == 1
    assert weight_count(mu, 5) == 51
    assert weight_count(mu, -1) == 0
    assert weight_count(mu, 11) == 0
    total = sum(weight_count(mu, w) for w in range(11))
    assert total == 3 ** 5
    # symmetric about the middle weight
    assert all(weight_count(mu, w) == weight_count(mu, 10 - w) for w in range(11))


def test_weight_counts_reject_a_nonpositive_entry():
    # a nonpositive entry gave a silent count: weight_count((2, -1), 1) was 0
    for mu in ((2, -1), (2, 0), (0,)):
        with pytest.raises(PreconditionError, match="entries must be >= 1"):
            weight_count(mu, 1)
        with pytest.raises(PreconditionError, match="entries must be >= 1"):
            sl2_multiplicity(mu, 0)


def test_weight_count_mixed():
    mu = (3, 1, 2)
    assert sum(weight_count(mu, w) for w in range(sum(mu) + 1)) == 4 * 2 * 3


def test_sl2_decomposition_of_five_spin_halves_squared():
    mu = (2,) * 5
    mults = [sl2_multiplicity(mu, l) for l in range(6)]
    assert mults == [1, 4, 10, 15, 15, 6]


def test_sl2_multiplicity_edges():
    assert sl2_multiplicity((2, 2), 0) == 1
    with pytest.raises(PreconditionError):
        sl2_multiplicity((2, 2), 3)


def test_completeness_xxx_spin_one_chain():
    rep = check_completeness_xxx(ChainSpec(6, [(2, 5)]))
    assert rep.lhs_total == 3 ** 5 == 243
    assert rep.matched
    assert rep.per_l[0] == (0, 1, 11)


def test_completeness_xxx_single_site():
    rep = check_completeness_xxx(ChainSpec(6, [(4, 1)]))
    assert rep.lhs_total == 5 and rep.matched


def test_completeness_xxx_spin_three_halves():
    rep = check_completeness_xxx(ChainSpec(8, [(3, 5)]))
    assert rep.lhs_total == 4 ** 5 == 1024
    assert rep.matched


def test_completeness_xxz_flagship():
    ts = compute_ts(6)
    rep = check_completeness_xxz(ts, ChainSpec(6, [(3, 5)]))
    assert rep.lhs_total == 1024
    assert rep.matched
    assert dict((l, c) for l, c, _ in rep.per_l)[5] == 101


def test_completeness_xxz_small_cases():
    ts = compute_ts(6)
    rep = check_completeness_xxz(ts, ChainSpec(6, [(2, 3)]))
    assert rep.lhs_total == 27 and rep.matched

    ts2 = compute_ts(2)
    rep2 = check_completeness_xxz(ts2, ChainSpec(2, [(1, 1)]))
    assert rep2.lhs_total == 2 and rep2.matched


def test_completeness_fails_for_inadmissible_spin(monkeypatch):
    # negative control: a spin outside the string classification carries no
    # Bethe states, so the check refuses the chain before counting anything
    from bethestates import configs
    from bethestates.tsdata import admissible_spin

    def no_lambda(*args):
        raise AssertionError("lambda enumeration started")

    monkeypatch.setattr(configs, "enumerate_lambda", no_lambda)
    ts = compute_ts(F(5, 2))
    assert not admissible_spin(ts, 6)
    with pytest.raises(PreconditionError, match="2s = 6 outside .*admissible 2s: 1$"):
        check_completeness_xxz(ts, ChainSpec(F(5, 2), [(6, 1)]))


def test_completeness_matches_every_level(monkeypatch):
    # the count at each level equals the number of weight-l states, not only
    # in total; a count moved between two levels is a mismatch
    from bethestates import configs
    for p0, species in [(F(16, 7), [(1, 20)]), (F(55, 34), [(2, 12)]),
                        (F(3), [(2, 4), (1, 3)]), (F(27, 11), [(6, 2), (1, 3)])]:
        chain = ChainSpec(p0, species)
        rep = check_completeness_xxz(compute_ts(p0), chain)
        assert rep.matched, (p0, species)
        assert [c for _, c, _ in rep.per_l] == [weight_count(chain.mu(), l)
                                                for l in range(chain.n_total + 1)]
    count = configs.count_xxz_general
    monkeypatch.setattr(configs, "count_xxz_general",
                        lambda ts, chain, l: count(ts, chain, l) + {3: -1, 4: 1}.get(l, 0))
    rep = check_completeness_xxz(compute_ts(F(16, 7)), ChainSpec(F(16, 7), [(1, 8)]))
    assert rep.rhs_total == rep.lhs_total == 256
    assert not rep.matched


def test_completeness_json_shape():
    ts = compute_ts(2)
    rep = check_completeness_xxz(ts, ChainSpec(2, [(1, 2)]))
    d = rep.to_json_dict()
    assert d["schema"] == "v1"
    assert d["p0"] == "2"
    assert d["matched"] is True
    assert d["per_l"][0] == {"l": 0, "count": 1, "weight": 1}
