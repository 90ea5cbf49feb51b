import copy
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial
from operator import mul

import pytest

from bethestates.configs import (GeneralCount, Partition, XXZConfig, _CountContext,
                                 count_xxx, count_xxz_general, count_xxz_general_detailed,
                                 enumerate_lambda, enumerate_xxx_configs, enumerate_xxx_rigged,
                                 enumerate_xxz_int, partitions,
                                 render_xxz, signed_binom, string_weights,
                                 xxx_config_count, xxx_vacancies, xxx_vacancy,
                                 xxz_vacancy_int)
from bethestates.oracle import sl2_multiplicity
from bethestates.qalg import QPolynomial, QSeries
from bethestates.spectral import (ChainSpec, coupling_matrix, offset_vector, scaled_form,
                                  vacancy_linear_form)
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


def test_partition_strips_only_trailing_zeros():
    assert Partition((3, 2, 0)) == Partition((3, 2))
    assert Partition((0, 0)) == Partition(())
    for parts in ((3, 0, 2), (0, 1), (2, -1)):
        with pytest.raises(PreconditionError, match="not a partition"):
            Partition(parts)


def test_partitions_generator():
    assert sorted(partitions(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])
    assert list(partitions(0)) == [()]
    assert sorted(partitions(4, 2)) == sorted([(2, 2), (2, 1, 1), (1, 1, 1, 1)])


def _partitions_reference(n, max_part=None):
    # the recursive definition: each first part, largest first, then the
    # partitions of the rest with parts bounded by it
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_reference(n - first, first):
            yield (first,) + rest


def test_partitions_match_recursive_reference():
    for n in range(13):
        for max_part in (None, *range(n + 2)):
            assert list(partitions(n, max_part)) == list(_partitions_reference(n, max_part))


def test_partitions_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 10
    assert list(partitions(n, 1)) == [(1,) * n]
    twos = list(partitions(n, 2))
    assert len(twos) == n // 2 + 1
    assert twos[0] == (2,) * (n // 2) and twos[-1] == (1,) * n


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


def test_xxx_vacancies_match_the_definition():
    # one pass over the conjugates gives P_1..P_top, top = max(nu_1, max mu,
    # 1); xxx_vacancy reads it, and past top P_n stays P_top
    for mu in [MU25, (3, 3, 3), (2, 2, 1, 1), (4, 2), (1,) * 6, (5, 1), ()]:
        for size in range(9):
            for parts in partitions(size):
                nu = Partition(parts)
                top = max([nu.max_part, max(mu, default=0), 1])
                conj = nu.conjugate()
                want = [sum(min(n, m) for m in mu) - 2 * sum(conj[:n])
                        for n in range(1, top + 4)]
                assert xxx_vacancies(nu, mu) == tuple(want[:top]), (mu, parts)
                assert [xxx_vacancy(nu, mu, n) for n in range(1, top + 4)] == want
    for n in (0, -1):
        with pytest.raises(PreconditionError, match="row length must be >= 1"):
            xxx_vacancy(Partition((2, 1)), MU25, n)


def test_xxx_routes_reject_a_noninteger_weight():
    # a float weight raised TypeError inside the partition or vacancy code;
    # integer weights keep their behaviour and messages
    for call in (lambda: count_xxx(2.0, (1, 1, 1)), lambda: count_xxx(1.5, (1, 1, 1)),
                 lambda: enumerate_xxx_configs(F(1), MU25),
                 lambda: enumerate_xxx_rigged(1.0, MU25)):
        with pytest.raises(PreconditionError, match="^weight must be an integer: "):
            call()
    for n in (1.0, 1.5):
        with pytest.raises(PreconditionError, match="^row length must be an integer: "):
            xxx_vacancy(Partition((2, 1)), MU25, n)
    with pytest.raises(PreconditionError, match="^weight must be nonnegative$"):
        count_xxx(-1, (1, 1, 1))
    assert count_xxx(1, (1, 1, 1)) == 2
    assert xxx_vacancy(Partition((2, 1)), MU25, 1) == xxx_vacancies(Partition((2, 1)), MU25)[0]


def test_xxx_vacancies_reject_a_nonpositive_entry():
    # a negative entry once wrapped around the end of the column counts:
    # xxx_vacancies(Partition((1,)), (2, -1)) gave (0, 2), count_xxx 1
    for mu in ((2, -1), (2, 0), (0,)):
        with pytest.raises(PreconditionError, match="entries must be >= 1"):
            xxx_vacancies(Partition((1,)), mu)
        with pytest.raises(PreconditionError, match="entries must be >= 1"):
            count_xxx(1, mu)


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


def census_calls(monkeypatch):
    """The configurations passed to xxz_vacancies_int; xxz_vacancy_int and
    Partition fail."""
    from bethestates import configs
    calls = []
    vacancies = configs.xxz_vacancies_int
    monkeypatch.setattr(configs, "xxz_vacancies_int",
                        lambda ts_, chain_, cfg: calls.append(cfg) or vacancies(ts_, chain_, cfg))
    monkeypatch.setattr(configs, "xxz_vacancy_int", None)
    monkeypatch.setattr(Partition, "__init__", None)
    return calls


def test_census_evaluates_the_closed_form_once_per_configuration(monkeypatch):
    # one xxz_vacancies_int call per candidate configuration, no per-index
    # call and no Partition built; the candidates are the partitions whose
    # P_{p0-1} = r + f + clubs and P_p0 = f + lam_{p0-1}, N - 2l = p0 f + r,
    # are >= 0: at 11 with 1x20 P_p0 leaves 12 of 494 configurations, at 4
    # with 1x8 P_{p0-1} 1 of 4, and at 9 with 1x4,2x3 the other closed forms
    # reject some
    for p0, spec, l, scored, kept in ((11, [(1, 20)], 14, 12, 12), (4, [(1, 8)], 8, 1, 1),
                                      (9, [(1, 4), (2, 3)], 5, 19, 16)):
        ts, chain = compute_ts(p0), ChainSpec(p0, spec)
        calls = census_calls(monkeypatch)
        recs = enumerate_xxz_int(ts, chain, l)
        monkeypatch.undo()
        f, r = divmod(chain.n_total - 2 * l, p0)
        candidates = sum(1 for clubs in range(l + 1) for parts in partitions(l - clubs, p0 - 1)
                         if r + f + clubs >= 0 and f + parts.count(p0 - 1) >= 0)
        assert len(calls) == len(set(calls)) == candidates == scored, p0
        assert len(recs) == kept, p0


def test_census_scores_only_admissible_candidates_at_13_1x24(monkeypatch):
    # the closed-form bounds leave no candidate to reject on this chain: 965
    # admissible configurations over all 25 levels, one call each, where a
    # scan of every partition at every level scores 30,292
    ts, chain = compute_ts(13), ChainSpec(13, [(1, 24)])
    calls = census_calls(monkeypatch)
    recs = [rec for l in range(25) for rec in enumerate_xxz_int(ts, chain, l)]
    assert len(calls) == len(recs) == 965


def test_census_computes_the_chain_term_once_per_chain(monkeypatch):
    # sum_m N_m min(j, 2s_m) is fixed by the chain, so a census over every
    # level builds it once, and each of its 48 candidates after the first
    # reads it from the cache
    from bethestates import configs
    ts, chain = compute_ts(9), ChainSpec(9, [(1, 4), (2, 3)])
    calls = census_calls(monkeypatch)
    configs._chain_terms.cache_clear()
    for l in range(chain.n_total + 1):
        enumerate_xxz_int(ts, chain, l)
    info = configs._chain_terms.cache_info()
    assert info.misses == 1 and info.hits == len(calls) - 1 == 47, info
    assert configs._chain_terms(chain, 9) == (7, 10, 10, 10, 10, 10, 10)


def test_census_rejects_a_chain_at_another_p0():
    ts, chain = compute_ts(6), ChainSpec(7, [(2, 3)])
    with pytest.raises(PreconditionError, match="disagree on p0"):
        enumerate_xxz_int(ts, chain, 2)
    with pytest.raises(PreconditionError, match="disagree on p0"):
        xxz_vacancy_int(ts, chain, XXZConfig((0,) * 5, 0), 1)


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


def lambda_counts(weights, l):
    """Coefficients of q^0..q^l in prod_k 1/(1 - q^{n_k})."""
    series = QSeries.one(l).div_cyclotomic(*weights)
    return [series.coeff(r) for r in range(l + 1)]


def table_start(weights, l):
    """The first component of enumerate_lambda's tail table at level l: the
    table grows from the last component while it holds at most a 32nd of
    the output's entries, its size read from the generating function."""
    dim = len(weights)
    entries = dim * lambda_counts(weights, l)[l]
    split = dim - 1
    while split and 32 * (dim - split + 1) * sum(lambda_counts(weights[split - 1:], l)) <= entries:
        split -= 1
    return split


def test_enumerate_lambda_matches_brute_force():
    regimes = set()
    for p0, top in [(F(1), 10), (F(3), 10), (F(16, 7), 10), (F(55, 34), 10), (F(201, 2), 7),
                    (F(27, 11), 12), (F(6), 8)]:
        ts = compute_ts(p0)
        weights = string_weights(ts)
        last = len(weights) - 1
        assert enumerate_lambda(ts, 0) == [(0,) * ts.dim]
        for l in range(top + 1):
            lams = enumerate_lambda(ts, l)
            assert type(lams) is list
            assert lams == brute_force_lambda(weights, l), (p0, l)
            split = table_start(weights, l)
            regimes.add("whole table" if not split else "last only" if split == last
                        else "middle split")
            if any(w > l for w in weights[:split]) and any(w > l for w in weights[split:]):
                regimes.add("heavy in head and table")
            if max(lambda_counts(weights[split:], l)) > 1:
                regimes.add("several tails in a row")
            # the search closes a head prefix at remainder 0 before its last component
            if any(max(k for k, x in enumerate(lam) if x) < split - 1 for lam in lams if any(lam)):
                regimes.add("early zero")
    assert regimes == {"whole table", "last only", "middle split", "heavy in head and table",
                       "several tails in a row", "early zero"}


def test_enumerate_lambda_sizes_match_the_generating_function():
    # an oracle that shares no code with the search: the number of vectors
    # at level l is the q^l coefficient of prod_k 1/(1 - q^{n_k}); with every
    # vector of weight l and the list strictly increasing, that many vectors
    # are all of them, in lexicographic order
    for p0, top, total in [(F(16, 7), 50, 453164), (F(201, 2), 16, 3370),
                           (F(55, 34), 30, 25861), (F(27, 11), 30, None), (F(6), 30, None),
                           (F(1), 30, 31)]:
        ts = compute_ts(p0)
        weights = string_weights(ts)
        sizes = []
        for l in range(top + 1):
            lams = enumerate_lambda(ts, l)
            assert all(map(tuple.__lt__, lams, lams[1:])), (p0, l)
            assert {(len(lam), sum(map(mul, weights, lam))) for lam in lams} == {(ts.dim, l)}, \
                (p0, l)
            sizes.append(len(lams))
        assert sizes == lambda_counts(weights, top), p0
        assert total is None or sum(sizes) == total, p0


def test_enumerate_lambda_set_up_memory_is_a_fraction_of_the_output():
    # the counts and the tail table stay within a tenth of the result's own
    # size: at 16/7, level 50 a table of every component would hold as many
    # vectors again as the result; at 1997/2, level 8 (dim 1,000, 67
    # vectors) a copied count row for each of the components heavier than
    # l would hold 30 % of it
    for p0, l, size in [(F(16, 7), 50, 47910), (F(1997, 2), 8, 67)]:
        ts = compute_ts(p0)
        enumerate_lambda(ts, 1)
        tracemalloc.start()
        try:
            lams = enumerate_lambda(ts, l)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sys.getsizeof(lams) + sum(map(sys.getsizeof, lams))
        assert len(lams) == size, p0
        assert peak - out <= out // 10, (p0, peak, out)


def test_context_shares_scaled_theta():
    # inside the string classification every level reads the lattice (1/den)Z
    # of scaled_form, scaled by det C = +-den: the offset vector times det C,
    # and the rows of det C * Theta~, the adjugate of the bands S C S, against
    # the Theta of coupling_matrix, the adjugate of C itself
    for p0, species, sign in [(F(201, 2), ((1, 4),), 1), (F(55, 34), ((2, 2),), -1),
                              (F(6), ((3, 2),), -1)]:
        ts = compute_ts(p0)
        chain = ChainSpec(p0, species)
        form = scaled_form(ts)
        det = sign * form.den
        theta = [[det * si * sj * x for sj, x in zip(ts.signs, row)]
                 for si, row in zip(ts.signs, coupling_matrix(ts).rows)]
        for l in range(chain.n_total + 1):
            ctx = _CountContext(ts, chain, l)
            assert ctx.denom == det and form.den == p0.numerator, (p0, l)
            assert ctx.theta == theta, (p0, l)
            assert ctx.b_scaled == [det * x for x in offset_vector(ts, chain, l)], (p0, l)


def test_fractional_entries_are_rejected_not_truncated():
    # int() would take 1.5 as 1 and 2.5 as 2; integral values of another
    # type are still taken, as ints
    for build in (lambda: ChainSpec(F(16, 7), [(1.5, 2)]),
                  lambda: ChainSpec(F(16, 7), [(1, F(3, 2))]),
                  lambda: Partition((2.5, 1)),
                  lambda: XXZConfig((0.5,), 0),
                  lambda: XXZConfig((1,), 0.5)):
        with pytest.raises(PreconditionError, match="must be integers"):
            build()
    assert ChainSpec(F(16, 7), [(1.0, F(2))]).species == ((1, 2),)
    assert Partition((2.0, 1)).parts == (2, 1)
    cfg = XXZConfig((1.0,), F(0))
    assert cfg == XXZConfig((1,), 0) and all(type(x) is int for x in (*cfg.lam, cfg.clubs))


def test_tops_match_vacancy_linear_form():
    # tops, the dense rows of theta, is the linear form read from the bands
    # when every component is an integer and raises as soon as one is not;
    # seeded lam on admissible chains.  There a
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
                        shifted = copy.copy(ctx)
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


# Chains whose every level the counting walk is compared on.
WALK_CASES = [(F(16, 7), ((1, 12), (8, 1))), (F(55, 34), ((2, 2), (7, 1))),
              (F(201, 2), ((1, 6), (7, 1))), (F(27, 11), ((6, 2), (1, 3))),
              (F(6), ((3, 5),)), (F(7, 2), ((1, 6), (2, 3))), (F(13, 5), ((1, 8), (4, 2)))]


def test_walk_matches_per_vector_reference():
    # the walk reads each top from g = G lam on the suffix sums of lam and
    # drops a vector at its first vanishing binomial; the reference
    # evaluates the dense form at every vector and multiplies every factor.
    # q_count's exponents, lam . g in the walk, are checked against the
    # quadratic form lam~ Theta lam~ of the Fractions of coupling_matrix,
    # over the nonzero entries of lam~ only.
    from bethestates.identities import gauss_general, q_count
    seen = Counter()
    for p0, species in WALK_CASES:
        ts = compute_ts(p0)
        chain = ChainSpec(p0, species)
        theta = coupling_matrix(ts).rows
        for l in range(chain.n_total + 1):
            ctx = _CountContext(ts, chain, l)
            total = admissible = 0
            q_ref = QPolynomial.zero()
            for lam in enumerate_lambda(ts, l):
                tops = ctx.tops(lam)
                prod, term = 1, QPolynomial.one()
                for t, x, eps in zip(tops, lam, ts.signs):
                    if x:
                        prod *= signed_binom(t, x)
                        term = term * gauss_general(t, x, eps)
                        seen["negative top"] += t < 0
                seen["vector"] += 1
                assert (prod == 0) == term.is_zero(), (p0, species, l, lam)
                if prod:
                    total += prod
                    admissible += 1
                    signed = [(k, s * x) for k, (x, s) in enumerate(zip(lam, ts.signs)) if x]
                    q_ref = q_ref + term.shift(
                        sum(a * theta[k][j] * b for k, a in signed for j, b in signed))
            got = count_xxz_general_detailed(ts, chain, l)
            assert got == GeneralCount(total, admissible), (p0, species, l)
            assert q_count(ts, chain, l) == q_ref, (p0, species, l)
            seen["admissible"] += admissible
    assert seen["negative top"] > 100 and 0 < seen["admissible"] < seen["vector"] / 2, seen


def test_walk_steps_through_each_tail_once_per_level():
    # _lambda_walk keeps the state of the last dim - dim // 2 components once
    # per distinct tail of a level: a recording step that drops a vector at
    # its first entry 2 is called at a tail component once per distinct tail,
    # up to that entry, and at a head component once per vector whose tail
    # was kept; the expected calls and the 12,184 distinct tails (453,164
    # vectors) of 16/7, chain 1x50 are counted here from enumerate_lambda
    from bethestates.configs import _lambda_walk
    from bethestates.spectral import linear_form
    ts = compute_ts(F(16, 7))
    chain = ChainSpec(ts.p0, [(1, 50)])
    split = ts.dim // 2
    calls, want = Counter(), Counter()

    def step(acc, e, t, x, i):
        calls["tail" if i >= split else "head"] += 1
        return None if x == 2 else acc + 1

    def steps(xs):
        """Calls on xs, last first, up to the first 2: (calls, kept)."""
        nonzero = [x for x in reversed(xs) if x]
        return (nonzero.index(2) + 1, False) if 2 in nonzero else (len(nonzero), True)

    tails = vectors = unshared = 0
    for l in range(chain.n_total + 1):
        lams = enumerate_lambda(ts, l)
        shared = {lam[split:]: steps(lam[split:]) for lam in lams}
        tails += len(shared)
        vectors += len(lams)
        want["tail"] += sum(n for n, _ in shared.values())
        unshared += sum(shared[lam[split:]][0] for lam in lams)
        want["head"] += sum(steps(lam[:split])[0] for lam in lams if shared[lam[split:]][1])
        kept = _lambda_walk(ts, l, linear_form(ts, chain, l), step, 0)
        assert [(n, lam) for n, _, lam in kept] == \
            [(sum(map(bool, lam)), lam) for lam in lams if 2 not in lam], l
    assert (tails, vectors) == (12184, 453164)
    assert calls == want and 10 * want["tail"] < unshared, (calls, want, unshared)


def test_q_count_exponents_lie_on_the_level_coset():
    # every exponent of q_count at level l lies in -l^2/p0 + Z, and some
    # level of each chain has a fractional one, so the check is not vacuous
    from bethestates.identities import q_count
    for p0, species in WALK_CASES:
        ts = compute_ts(p0)
        chain = ChainSpec(p0, species)
        fractional = False
        for l in range(chain.n_total + 1):
            lead = F(l * l) / p0
            exps = q_count(ts, chain, l).terms
            assert all((e + lead).denominator == 1 for e in exps), (p0, species, l)
            fractional |= any(e.denominator != 1 for e in exps)
        assert fractional, (p0, species)


def test_walk_checks_the_lattice_once_per_level(monkeypatch):
    # the walk checks that every top is an integer once per level, in
    # linear_form, which builds h(0) from the offset vector once per chain
    # and adds an integer step per level; an offset vector shifted off the
    # lattice by 1/den in its first or its last row raises on both routes at
    # every level.  The per-chain cache is cleared before each patch, so
    # h(0) is read from the patched offset vector.
    from bethestates import configs, identities, spectral
    offset_vector = spectral.offset_vector
    for row in (0, -1):
        def shifted(ts_, chain_, l_, row=row):
            b = list(offset_vector(ts_, chain_, l_))
            b[row] += F(1, ts_.p0.numerator)
            return b

        spectral._level_zero_form.cache_clear()
        monkeypatch.setattr(spectral, "offset_vector", shifted)
        for p0, species in WALK_CASES:
            ts = compute_ts(p0)
            chain = ChainSpec(p0, species)
            for l in range(chain.n_total + 1):
                for route in (count_xxz_general, identities.q_count):
                    with pytest.raises(AssertionError, match=f"fractional top at level {l}$"):
                        route(ts, chain, l)
    monkeypatch.undo()
    ts = compute_ts(F(16, 7))
    chain = ChainSpec(ts.p0, [(1, 3)])
    assert count_xxz_general(ts, chain, 1) == 3
    calls = []
    linear_form = configs.linear_form
    for module in (configs, identities):
        monkeypatch.setattr(module, "linear_form",
                            lambda *args: calls.append(args[2]) or linear_form(*args))
    for l in range(chain.n_total + 1):
        count_xxz_general(ts, chain, l)
        identities.q_count(ts, chain, l)
    assert calls == [l for l in range(chain.n_total + 1) for _ in range(2)]


def test_linear_form_is_the_fraction_definition_at_every_level():
    # linear_form builds h(0) once per chain and adds an integer step per
    # level; it equals b + 2 l S n/p0 on the Fractions of offset_vector at
    # every level 0..N+2, on the walk's chains and on every reduced a/b with
    # a <= 22 whose string data classify the chain.  As a negative control
    # the definition one level on differs somewhere on every chain, since
    # floor((N - 2l)/p0) drops as N - 2l passes from 0 to -2.
    from math import gcd
    from bethestates.spectral import linear_form
    from bethestates.tsdata import admissible_spin
    sweep = [(F(a, b), species) for a in range(1, 23) for b in range(1, a + 1)
             if gcd(a, b) == 1 for species in (((1, 4),), ((1, 2), (2, 1)))]
    checked = 0
    for p0, species in WALK_CASES + sweep:
        ts = compute_ts(p0)
        chain = ChainSpec(p0, species)
        if not all(admissible_spin(ts, two_s) for two_s, _ in species):
            continue

        def definition(l):
            return [b + 2 * l * s * n / p0 for b, s, n in
                    zip(offset_vector(ts, chain, l), ts.signs, string_weights(ts))]

        levels = range(chain.n_total + 3)
        forms = [linear_form(ts, chain, l) for l in levels]
        assert all(type(x) is int for h in forms for x in h), (p0, species)
        assert forms == [definition(l) for l in levels], (p0, species)
        assert any(h != definition(l + 1) for l, h in zip(levels, forms)), (p0, species)
        checked += 1
    assert checked == len(WALK_CASES) + 125     # 75 p0 classify 1x4, 50 also 1x2,2x1


def test_inadmissible_chains_raise_before_enumerating(monkeypatch):
    # a spin outside the string classification is rejected at every level,
    # naming the offending 2s and the admissible ones, and every counting
    # route refuses the chain before a single lambda vector
    from bethestates import configs, identities
    from bethestates.oracle import check_completeness_xxz

    def no_lambda(*args):
        raise AssertionError("lambda enumeration started")

    monkeypatch.setattr(configs, "enumerate_lambda", no_lambda)
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
