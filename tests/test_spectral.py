import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from operator import add, mul

import pytest

from bethestates.configs import enumerate_xxz_int
from bethestates.qalg import QSeries
from bethestates.spectral import (ChainSpec, RationalMatrix, ScaledForm, _disagreeing_rows,
                                  _runs, coupling_bands,
                                  coupling_inverse, coupling_matrix, leading_minors,
                                  offset_vector, parity_matrix, scaled_form,
                                  tridiagonal_adjugate, vacancy_linear_form)
from bethestates.tsdata import compute_ts, string_weights, zone
from bethestates.util import PreconditionError

F = Fraction

PRINTED_INVERSE_16_7 = [
    [1, 1, 0, 0, 0, 0, 0],
    [1, -2, 1, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0],
    [0, 0, 1, -1, -1, 0, 0],
    [0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, -1, 1, 1],
    [0, 0, 0, 0, 0, 1, -1],
]

PRINTED_THETA_16 = [
    [9, 7, 5, 3, 2, 1, 1],
    [7, -7, -5, -3, -2, -1, -1],
    [5, -5, -15, -9, -6, -3, -3],
    [3, -3, -9, -15, -10, -5, -5],
    [2, -2, -6, -10, 4, 2, 2],
    [1, -1, -3, -5, 2, 9, 9],
    [1, -1, -3, -5, 2, 9, -7],
]


def test_coupling_inverse_16_7_matches_printed():
    ts = compute_ts(F(16, 7))
    assert coupling_inverse(ts) == RationalMatrix(PRINTED_INVERSE_16_7)


def test_theta_16_7_matches_printed():
    ts = compute_ts(F(16, 7))
    assert coupling_matrix(ts) == RationalMatrix(
        [[F(x, 16) for x in row] for row in PRINTED_THETA_16])


def dense(diag, off):
    """Integer rows of the symmetric tridiagonal matrix with these bands."""
    n = len(diag)
    return [[diag[i] if i == j else off[min(i, j)] if abs(i - j) == 1 else 0
             for j in range(n)] for i in range(n)]


def int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def cofactor_adjugate(rows):
    n = len(rows)
    return [[(-1) ** (i + j) * cofactor_det([r[:i] + r[i + 1:]
                                              for k, r in enumerate(rows) if k != j])
             for j in range(n)] for i in range(n)]


def random_bands(rng, n):
    return ([rng.randint(-3, 3) for _ in range(n)],
            [rng.choice([-2, -1, 1, 2]) for _ in range(n - 1)])


DEEP_P0 = [F(55, 34), F(89, 55), F(101, 100), F(201, 2)]


def check_coupling_laws(p0):
    # C is the symmetric tridiagonal matrix of its bands, |det C| = y_{alpha+1},
    # adj C . C = C . adj C = det C . I in integers, and Theta = adj C / det C
    ts = compute_ts(p0)
    diag, off = coupling_bands(ts)
    rows = dense(diag, off)
    assert coupling_inverse(ts) == RationalMatrix(rows)
    det, adj = tridiagonal_adjugate(diag, off)
    assert abs(det) == ts.y(ts.alpha + 1) == F(p0).numerator, p0
    n = len(diag)
    ident = [[det * int(i == j) for j in range(n)] for i in range(n)]
    assert int_matmul(adj, rows) == ident, p0
    assert int_matmul(rows, adj) == ident, p0
    assert coupling_matrix(ts) == RationalMatrix(
        [[F(x, det) for x in row] for row in adj]), p0


def test_det_law():
    for p0 in [F(1), F(2), F(3), F(4), F(5), F(5, 2), F(7, 3), F(16, 7),
               F(9, 4), F(355, 113)] + DEEP_P0:
        ts = compute_ts(p0)
        det, _ = tridiagonal_adjugate(*coupling_bands(ts))
        assert abs(det) == ts.y(ts.alpha + 1)


def test_dual_bands_send_the_string_lengths_to_the_last_row():
    # (S C S) n = sigma den e_dim is what lets scaled_form solve the bands
    # for r = G e_1 with only the last right-hand side raised: the last
    # column of den Theta~, taken from the dense Theta of coupling_matrix,
    # is sigma n
    for p0 in [F(1), F(2), F(6), F(5, 2), F(16, 7), F(27, 11)] + DEEP_P0:
        ts = compute_ts(p0)
        form = scaled_form(ts)
        diag, off = coupling_bands(ts)
        signs = ts.signs
        assert form.diag == tuple(diag), p0
        assert form.off == tuple(b * s * t for b, s, t in zip(off, signs, signs[1:])), p0
        assert set(form.off) <= {1, -1} and form.sigma in (1, -1), p0
        assert [form.den * s * signs[-1] * row[-1]
                for s, row in zip(signs, coupling_matrix(ts).rows)] == \
            [form.sigma * x for x in string_weights(ts)], p0


def test_dual_band_check_can_fail(monkeypatch):
    from bethestates import spectral
    ts = compute_ts(F(16, 7))
    weights = string_weights(ts)
    scaled_form.cache_clear()
    monkeypatch.setattr(spectral, "string_weights", lambda ts_: (weights[0] + 1, *weights[1:]))
    try:
        with pytest.raises(AssertionError, match=r"\(S C S\) n = .* is not \+-16 e_dim"):
            scaled_form(ts)
    finally:
        scaled_form.cache_clear()


def test_generator_check_needs_each_of_its_parts():
    # the bands 1, 1, 1, 1 with off-diagonal 1 have det -1, the leading
    # minors 1, 1, 0, -1, so n = (1, -1, 0, 1) solves (S C S) n = e_4, and
    # v = -adj_1. = (1, 0, -1, 1) gives -adj = n_min v_max; with q = den =
    # 1, r = v + n passes.  Each perturbation of r is flagged by one part of
    # the check alone: n on rows 1..2, as n_3 = 0, keeps the diagonal and
    # breaks the recurrence of v at row 3, and v on every row (v doubled)
    # keeps the recurrence and breaks the diagonal.  Real string data has
    # no zero minor, so only bands like these tell the parts apart.
    diag, off = (1, 1, 1, 1), (1, 1, 1)
    det, adj = tridiagonal_adjugate(diag, off)
    n, v = (1, -1, 0, 1), (1, 0, -1, 1)
    assert (det, leading_minors(diag, off)) == (-1, [1, 1, 0, -1, -1])
    assert [[n[min(i, j)] * v[max(i, j)] for j in range(4)] for i in range(4)] == \
        [[-a for a in row] for row in adj]
    form = ScaledForm(1, diag, off, 1, n, tuple(map(add, v, n)))
    assert list(_disagreeing_rows(form, 1)) == []
    for step, rows in ((tuple(n_i * (i <= 1) for i, n_i in enumerate(n)), [3]),
                       (v, [1, 2, 3, 4])):
        bad = replace(form, r=tuple(map(add, form.r, step)))
        assert list(_disagreeing_rows(bad, 1)) == rows, step


def test_dual_is_theta_times_lambda():
    # ScaledForm.dual, on the suffix sums of lam, against the row products of
    # the dense adjugate of its bands S C S, adj = det Theta~, on seeded
    # vectors at the level n . lam, at dim 1000 too: it is G lam = adj lam/det
    # + q (n . lam) n/den, q = denominator(p0), an integer vector; another
    # level gives another g, and at lam = 0 the level alone sets the last entry
    rng = random.Random(20261018)
    for p0 in DEEP_P0 + [F(1997, 2)]:
        ts = compute_ts(p0)
        form = scaled_form(ts)
        det, adj = tridiagonal_adjugate(form.diag, form.off)
        assert abs(det) == form.den, p0
        weights = string_weights(ts)
        q = p0.denominator
        for _ in range(4):
            lam = [rng.choice((0, 0, 0, 1, 2, 5)) for _ in range(ts.dim)]
            level = sum(map(mul, weights, lam))
            g = [F(sum(map(mul, row, lam)), det) + F(q * level * n, form.den)
                 for row, n in zip(adj, weights)]
            assert all(x.denominator == 1 for x in g), p0
            assert form.dual(lam, level) == g, p0
            assert form.dual(lam, level + 1) != g, p0
        for l in (0, 1, 7):
            assert form.dual([0] * ts.dim, l)[-1] == F(l * (form.sigma + q * weights[-1]),
                                                       form.den), (p0, l)


def test_production_paths_build_no_dense_form(monkeypatch, capsys):
    # counts, q-counts, identities and the vacancy form read the O(dim)
    # generators n and r of scaled_form only; the dense adjugate serves
    # coupling_matrix and the per-vector reference.  The cache of scaled_form
    # is cleared, so it runs under the patch; live_levels reads its
    # generators, from the leading minors only, so the identity is checked
    # at 201/2 too.  The bands of S C S serve only scaled_form's checks:
    # with diag and off taken out of the form it returns, the routes return
    # what they return with them, on five chains of test_configs' WALK_CASES.
    from test_configs import WALK_CASES

    from bethestates import configs, identities, spectral
    from bethestates.cli import main
    from bethestates.configs import count_xxz_general, count_xxz_general_detailed
    from bethestates.identities import check_identity, fermionic_sum, level_series, q_count
    from bethestates.oracle import check_completeness_xxz

    def no_dense(*args):
        raise AssertionError("dense adjugate built")

    for module in (spectral, configs):
        monkeypatch.setattr(module, "tridiagonal_adjugate", no_dense)
    scaled_form.cache_clear()
    try:
        for p0, sites in ((F(16, 7), 6), (F(201, 2), 4)):
            ts = compute_ts(p0)
            chain = ChainSpec(p0, [(1, sites)])
            assert check_completeness_xxz(ts, chain).matched, p0
            for l in range(sites + 1):
                assert q_count(ts, chain, l).eval_at_one() == \
                    count_xxz_general(ts, chain, l), (p0, l)
            lam = [1] + [0] * (ts.dim - 2) + [1]
            level = sum(map(mul, string_weights(ts), lam))
            assert all(x.denominator == 1
                       for x in vacancy_linear_form(ts, chain, level, lam)), p0
        assert check_identity(compute_ts(F(16, 7)), 40).agree
        ts = compute_ts(F(201, 2))
        assert level_series(ts, 0, 3) == QSeries.one(3)
        assert all(level_series(ts, l, 3).is_zero() for l in range(1, 4))
        assert check_identity(ts, 6).agree
        assert main(["count", "--p0", "1997/2", "--chain", "1x2", "--l", "1"]) == 0
        assert "Z(l=1) = 2 with 2 summands" in capsys.readouterr().out
    finally:
        scaled_form.cache_clear()

    def routes(ts, chain):
        levels = range(chain.n_total + 1)
        lam = [1] + [0] * (ts.dim - 2) + [2]
        level = sum(map(mul, string_weights(ts), lam))
        return ([count_xxz_general_detailed(ts, chain, l) for l in levels],
                [q_count(ts, chain, l) for l in levels], fermionic_sum(ts, 20),
                vacancy_linear_form(ts, chain, level, lam))

    cases = [(compute_ts(p0), ChainSpec(p0, species)) for p0, species in WALK_CASES[2:]]
    want = [routes(*case) for case in cases]
    checked = spectral.scaled_form
    for module in (spectral, configs, identities):
        monkeypatch.setattr(module, "scaled_form",
                            lambda ts_: replace(checked(ts_), diag=None, off=None))
    assert [routes(*case) for case in cases] == want


def test_scaled_form_memory_is_linear_in_dim():
    # dim 1000: the bands are O(dim) small integers, under 1 MiB; the dense
    # adjugate of dim^2 integers peaked at about 30 MiB
    ts = compute_ts(F(1997, 2))
    scaled_form.cache_clear()
    tracemalloc.start()
    try:
        form = scaled_form(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(form.diag) == 1000
    assert peak < 2 ** 20, peak


def test_levels_and_lambda_entries_must_be_integers():
    # a float level or lambda entry would compute in floats or fail deep in
    # the walk; each is refused at the level check or on entry, and a
    # negative level keeps its message.  Integral values of another type
    # give the exact form.
    from bethestates.configs import count_xxz_general, enumerate_lambda
    from bethestates.identities import q_count
    ts = compute_ts(F(16, 7))
    chain = ChainSpec(ts.p0, [(1, 6)])
    zero = [0] * ts.dim
    for call in (lambda: vacancy_linear_form(ts, chain, 1, [0.5] + zero[1:]),
                 lambda: vacancy_linear_form(ts, chain, 0.5, zero),
                 lambda: count_xxz_general(ts, chain, 1.0),
                 lambda: q_count(ts, chain, 1.0),
                 lambda: enumerate_lambda(ts, 2.0),
                 lambda: offset_vector(ts, chain, 0.5)):
        with pytest.raises(PreconditionError, match="must be (an )?integers?: "):
            call()
    for call in (lambda: offset_vector(ts, chain, -1), lambda: enumerate_lambda(ts, -1)):
        with pytest.raises(PreconditionError, match="^level must be nonnegative$"):
            call()
    exact = vacancy_linear_form(ts, chain, 1, [1] + zero[1:])
    assert vacancy_linear_form(ts, chain, 1, [1.0, F(0)] + zero[2:]) == exact
    assert all(type(x) is Fraction for x in exact)


def test_integral_form_check_can_fail():
    # the string data of 16/7 with p0 relabelled 16/5: |det C| and the bands
    # still pass, but 16 does not divide sigma + 5 n_dim = -1 + 35
    ts = replace(compute_ts(F(16, 7)), p0=F(16, 5))
    with pytest.raises(AssertionError,
                       match=r"G = Theta~ \+ n n\^t/p0 is not integral at p0 = 16/5$"):
        scaled_form(ts)


def test_coupling_shape_and_inverse_exact():
    for p0 in [F(2), F(3), F(7, 3), F(16, 7), F(27, 11)] + DEEP_P0:
        check_coupling_laws(p0)


def test_coupling_laws_random_rationals():
    rng = random.Random(99)
    seen = set()
    for _ in range(30):
        num = rng.randint(2, 60)
        den = rng.randint(1, num - 1)
        p0 = F(num, den)
        if p0 in seen or p0.denominator > 12:
            continue
        seen.add(p0)
        check_coupling_laws(p0)


def test_continuant_adjugate_matches_cofactors():
    rng = random.Random(11)
    checked = zero_leading = 0
    while checked < 60:
        diag, off = random_bands(rng, rng.randint(1, 6))
        rows = dense(diag, off)
        det = cofactor_det(rows)
        if det == 0:
            continue
        leading = [cofactor_det([r[:k] for r in rows[:k]]) for k in range(1, len(diag))]
        zero_leading += 0 in leading
        assert tridiagonal_adjugate(diag, off) == (det, cofactor_adjugate(rows))
        checked += 1
    # a leading minor of zero needs a row swap in Gaussian elimination
    assert zero_leading >= 5
    assert tridiagonal_adjugate([0, 1], [1]) == (-1, [[1, -1], [-1, 0]])


def test_invert_identity_and_involution():
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert tridiagonal_adjugate([1] * 4, [0] * 3) == (1, ident)
    rng = random.Random(11)
    checked = 0
    while checked < 10:
        n = rng.randint(1, 5)
        diag = [rng.randint(-3, 3) for _ in range(n)]
        off = [rng.randint(-3, 3) for _ in range(n - 1)]
        rows = dense(diag, off)
        if cofactor_det(rows) == 0:
            continue
        det, adj = tridiagonal_adjugate(diag, off)
        # the inverse of Theta = adj / det is det * adj(adj) / det(adj): the matrix itself
        d_adj = cofactor_det(adj)
        assert [[F(det * x, d_adj) for x in row]
                for row in cofactor_adjugate(adj)] == rows
        checked += 1


def test_bareiss_det_matches_cofactor_on_small():
    rng = random.Random(3)
    nonsingular = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        diag = [rng.randint(-4, 4) for _ in range(n)]
        off = [rng.randint(-4, 4) for _ in range(n - 1)]
        det = cofactor_det(dense(diag, off))
        if det == 0:
            with pytest.raises(PreconditionError):
                tridiagonal_adjugate(diag, off)
            continue
        assert tridiagonal_adjugate(diag, off)[0] == det
        nonsingular += 1
    assert nonsingular >= 15


def test_invert_rejects_singular():
    with pytest.raises(PreconditionError):
        tridiagonal_adjugate([1, 1], [1])
    with pytest.raises(PreconditionError):
        tridiagonal_adjugate([0], [])
    rng = random.Random(3)
    found = 0
    while found < 10:
        diag, off = random_bands(rng, rng.randint(2, 5))
        if cofactor_det(dense(diag, off)) == 0:
            found += 1
            with pytest.raises(PreconditionError):
                tridiagonal_adjugate(diag, off)


def test_parity_matrix_16_7():
    ts = compute_ts(F(16, 7))
    e = parity_matrix(ts)
    for k in range(1, 8):
        assert e.entry(k - 1, k - 1) == (-1) ** zone(ts, k)
    assert e.entry(5, 6) == -(-1) ** zone(ts, 7)  # == +1
    assert e.entry(6, 5) == (-1) ** zone(ts, 6)   # == +1
    assert e.entry(5, 6) == 1 and e.entry(6, 5) == 1


def test_parity_matrix_integer_p0():
    ts = compute_ts(5)
    e = parity_matrix(ts)
    for k in range(1, 5):
        assert e.entry(k - 1, k - 1) == 1
    assert e.entry(4, 4) == -1
    assert e.entry(3, 4) == 1 and e.entry(4, 3) == 1


def test_parity_matrix_dim_one():
    ts = compute_ts(1)
    e = parity_matrix(ts)
    assert e.dim == 1 and e.entry(0, 0) == -1


def test_offset_vector_zero_fraction_case():
    # p0 divides N - 2l: the fractional term vanishes
    ts = compute_ts(3)
    chain = ChainSpec(3, [(1, 6)])
    b = offset_vector(ts, chain, 0)
    from bethestates.tsdata import phase_shift
    for j in range(1, 4):
        expect = -((-1) ** zone(ts, j)) * 6 * 2 * phase_shift(ts, j, 1)
        assert b[j - 1] == expect


def test_linear_form_zero_lambda_is_offset():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(3, 5)])
    assert vacancy_linear_form(ts, chain, 5, [0] * 6) == offset_vector(ts, chain, 5)


def test_linear_form_reproduces_example_labels():
    # (parts, clubs) -> expected vacancies P_1..P_6 for p0=6, five spin-3/2
    # sites, level 5; labels cross-checked against the diagram values
    ts = compute_ts(6)
    chain = ChainSpec(6, [(3, 5)])
    cases = {
        ((), 5): None,
        ((1,), 4): {1: 3, 6: 0},
        ((2,), 3): {2: 6, 6: 0},
        ((2, 1), 2): {2: 4, 1: 1, 6: 0},
        ((5,), 0): {5: 5},
        ((3, 2), 0): {3: 5, 2: 2},
    }
    for (parts, clubs), labels in cases.items():
        lam = [0] * 6
        for p in parts:
            lam[p - 1] += 1
        lam[5] = clubs
        tops = vacancy_linear_form(ts, chain, 5, lam)
        vac = [t - x for t, x in zip(tops, lam)]
        assert all(v == int(v) for v in vac)
        if labels:
            for j, val in labels.items():
                assert vac[j - 1] == val, (parts, clubs, j)


def test_linear_form_equals_closed_forms_exhaustively():
    # the two independent vacancy routes agree on every admissible
    # configuration of several small chains, at every level
    sweeps = [(2, [(1, 4)]), (3, [(2, 3)]), (6, [(3, 2)]), (4, [(1, 2), (3, 1)]),
              (5, [(1, 3), (3, 2)]), (8, [(2, 2), (5, 1)]), (9, [(1, 3), (4, 2)])]
    for p0, species in sweeps:
        ts = compute_ts(p0)
        chain = ChainSpec(p0, species)
        n = chain.n_total
        for l in range(n + 1):
            for rec in enumerate_xxz_int(ts, chain, l):
                lam = list(rec.cfg.lam) + [rec.cfg.clubs]
                tops = vacancy_linear_form(ts, chain, l, lam)
                vac = tuple(t - x for t, x in zip(tops, lam))
                assert vac == tuple(rec.vacancies), (p0, species, l, rec.cfg)


def test_phase_shifts_computed_once_per_chain(monkeypatch):
    # the level-independent part of the offset vector is built once per
    # chain: dim x species phases for all levels, here 1000 x 5
    from bethestates import spectral
    calls = []
    phase_shift = spectral.phase_shift
    monkeypatch.setattr(spectral, "phase_shift",
                        lambda ts_, k, two_s: calls.append(k) or phase_shift(ts_, k, two_s))
    spectral._phase_vector.cache_clear()
    ts = compute_ts(F(1997, 2))
    chain = ChainSpec(ts.p0, [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)])
    vectors = [offset_vector(ts, chain, l) for l in range(chain.n_total + 1)]
    assert ts.dim == 1000 and len(calls) == 5 * ts.dim
    assert vectors[0] != vectors[1]


def test_linear_form_matches_dense_reference():
    # ((E - 2 Theta) lam~ + b) by a Fraction matvec over the dense matrices,
    # also for spins outside the classification, whose offsets lie off the
    # lattice of Theta (every component then stays fractional)
    rng = random.Random(7)
    for p0, species in [(F(16, 7), [(1, 2), (8, 1)]), (F(16, 7), [(2, 3)]),
                        (F(27, 11), [(9, 2)]), (F(55, 34), [(2, 1), (7, 2)]),
                        (F(201, 2), [(1, 4)]), (3, [(1, 3)])]:
        ts = compute_ts(p0)
        chain = ChainSpec(p0, species)
        theta, e = coupling_matrix(ts).rows, parity_matrix(ts).rows
        for l in range(4):
            lam = [rng.randint(0, 2) for _ in range(ts.dim)]
            signed = [(-1) ** zone(ts, k) * x for k, x in enumerate(lam, 1)]
            want = [sum((e[i][k] - 2 * theta[i][k]) * x for k, x in enumerate(signed)) + c
                    for i, c in enumerate(offset_vector(ts, chain, l))]
            assert vacancy_linear_form(ts, chain, l, lam) == want, (p0, species, l)


def test_linear_form_validates_input():
    ts = compute_ts(3)
    chain = ChainSpec(3, [(1, 2)])
    with pytest.raises(PreconditionError):
        vacancy_linear_form(ts, chain, 0, [0, 0])
    with pytest.raises(PreconditionError):
        vacancy_linear_form(ts, chain, 0, [0, -1, 0])


def test_linear_form_rejects_what_offset_vector_rejects():
    # the integer form checks the level itself, as offset_vector does
    from bethestates.spectral import linear_form
    ts = compute_ts(F(16, 7))
    chain = ChainSpec(ts.p0, [(1, 3)])
    for l in (-1, F(1, 2)):
        for route in (linear_form, offset_vector):
            with pytest.raises(PreconditionError):
                route(ts, chain, l)


def test_runs_of_three_or_more_become_ranges():
    # the admissible-2s list of the exit-3 message; a pair stays a list
    assert [_runs(v) for v in ([], [1, 2], [1, 2, 3], [1, 8, 15], [1, 2, 4, 5, 6, 9])] == \
        ["", "1, 2", "1..3", "1, 8, 15", "1, 2, 4..6, 9"]


def test_chain_spec_validation():
    for p0 in (2.2, 3.0):
        with pytest.raises(PreconditionError, match="not a float: "):
            ChainSpec(p0, [(1, 2)])
    assert ChainSpec("16/7", [(1, 2)]).p0 == ChainSpec(F(16, 7), [(1, 2)]).p0 == F(16, 7)
    with pytest.raises(PreconditionError):
        ChainSpec(3, [(0, 1)])
    with pytest.raises(PreconditionError):
        ChainSpec(3, [(1, 0)])
    ch = ChainSpec(F(16, 7), [(1, 2), (8, 1)])
    assert ch.n_total == 10 and ch.s_sum == 5 and ch.sites == 3
    assert ch.mu() == (1, 1, 8)
    assert ch.dimension() == 4 * 9
