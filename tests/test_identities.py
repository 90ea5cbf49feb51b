import itertools
import random
import sys
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from bethestates.identities import (bosonic_sum, bosonic_sum_collapsed,
                                    check_identity, collapsed_kernel,
                                    divide_by_euler, fermionic_sum, gauss_general,
                                    gordon_andrews_products, gordon_andrews_sum,
                                    kernel_offset, kernel_poly, kernel_sum,
                                    level_series, live_levels, q_count)
from bethestates.configs import count_xxz_general, enumerate_lambda, string_weights
from bethestates.qalg import QPolynomial, QSeries, gauss_binomial, pochhammer
from bethestates.spectral import (ChainSpec, ScaledForm, _disagreeing_rows, _nonmonotone_rows,
                                  coupling_matrix, scaled_form, tridiagonal_adjugate)
from bethestates.tsdata import compute_ts
from bethestates.util import PreconditionError

F = Fraction


# -- kernels -----------------------------------------------------------------------

def test_kernel_poly_basics():
    assert kernel_poly(1, 1, 0) == QPolynomial.one()
    assert kernel_poly(-1, 1, 0) == QPolynomial.monomial(1, 1)
    # both binomials vanish once m exceeds the window
    assert kernel_poly(1, 2, 2) == QPolynomial.monomial(2, 1)  # only second term
    with pytest.raises(PreconditionError):
        kernel_poly(1, 1, 2)


def test_kernel_offset_parity():
    from math import comb
    for k in range(6):
        for m in range(k + 1):
            assert kernel_offset(0, k, m) == comb(k - m, 2)
            assert kernel_offset(1, k, m) == comb(m, 2)


def test_kernel_sum_closed_form():
    for k in range(1, 13):
        want = QPolynomial({0: 1, k: 1}) * pochhammer(1, k)
        assert kernel_sum(k) == want


def test_collapsed_kernel_at_one_vanishes_for_integer_p0():
    ts = compute_ts(5)
    for k in range(1, 9):
        assert collapsed_kernel(ts, k).eval_at_one() == 0


def test_gauss_general_negative_top():
    assert gauss_general(-1, 1) == QPolynomial.monomial(-1, -1)
    assert gauss_general(-1, 0) == QPolynomial.one()
    from bethestates.configs import signed_binom
    for t in range(-4, 3):
        for b in range(5):
            assert gauss_general(t, b).eval_at_one() == signed_binom(t, b)


def test_gauss_general_rejects_a_base_sign_other_than_plus_minus_one():
    # negative and nonnegative tops alike, also where the result would be 0
    for top, b in ((-1, 1), (1, 1), (-3, 0), (2, -1)):
        with pytest.raises(PreconditionError, match="base_sign"):
            gauss_general(top, b, 2)


# -- q-analog of the count -----------------------------------------------------------

def test_q_count_example3():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(3, 5)])
    poly = q_count(ts, chain, 5)
    assert poly.eval_at_one() == 101


def test_q_count_level_zero():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(3, 5)])
    assert q_count(ts, chain, 0) == QPolynomial.one()


def test_q_count_specializes_to_count_all_levels():
    ts = compute_ts(6)
    chain = ChainSpec(6, [(3, 5)])
    for l in range(16):
        assert q_count(ts, chain, l).eval_at_one() == count_xxz_general(ts, chain, l)


def _equal_up_to_a_monomial(a: QPolynomial, b: QPolynomial) -> bool:
    if a.is_zero() or b.is_zero():
        return a == b
    return a.shift(-min(a.terms)) == b.shift(-min(b.terms))


def test_q_count_multiplies_only_the_kept_vectors(monkeypatch):
    # q_count hands sum_of_products one term per kept vector, the product of
    # its nnz(lam) Gaussian binomials, and none for a vector dropped at a
    # vanishing binomial (0 <= top < lam_i) however late; the expected counts
    # come from enumerate_lambda and the dense tops of _CountContext, not
    # from the walk: 780 terms with 2,074 polynomials at 201/2 with chain 1x16
    from bethestates import identities
    from bethestates.configs import _CountContext
    ts = compute_ts(F(201, 2))
    chain = ChainSpec(ts.p0, [(1, 16)])
    want_terms = want_polys = 0
    for l in range(chain.n_total + 1):
        ctx = _CountContext(ts, chain, l)
        for lam in enumerate_lambda(ts, l):
            if not any(0 <= t < x for t, x in zip(ctx.tops(lam), lam)):
                want_terms += 1
                want_polys += sum(1 for x in lam if x)
    seen = []
    sum_of_products = identities.sum_of_products

    def record(terms):
        terms = [(e, list(polys)) for e, polys in terms]
        seen.extend(terms)
        return sum_of_products(terms)

    monkeypatch.setattr(identities, "sum_of_products", record)
    total = sum(q_count(ts, chain, l).eval_at_one() for l in range(chain.n_total + 1))
    assert total == chain.dimension()
    assert len(seen) == want_terms == 780
    assert sum(len(polys) for _, polys in seen) == want_polys == 2074


# The monomial q**c in q_count(1xN, l) = q**c [N, l] for l = 0, 1, ...:
# frozen values, so that a wrong exponent cannot pass as another shift.
GAUSS_SHIFTS = {
    (F(16, 7), 12): "0 -71/16 -31/4 -159/16 -11 -175/16 -63/4 -231/16 -12 -135/16 -15/4 "
                    "33/16 9",
    (F(16, 7), 20): "0 -119/16 -63/4 -351/16 -27 -495/16 -135/4 -567/16 -36 -567/16 -175/4 "
                    "-671/16 -39 -559/16 -119/4 -375/16",
    (F(7, 3), 10): "0 -24/7 -40/7 -48/7 -48/7 -75/7 -66/7",
    (F(3), 8): "0 -7/3 -10/3",
    (F(5, 2), 8): "0 -12/5 -18/5 -18/5 -32/5",
    (F(12, 5), 10): "0 -41/12 -17/3 -27/4 -20/3 -125/12 -9 -77/12 -8/3 9/4 25/3",
    (F(201, 2), 10): "0 -2/201 -8/201 -6/67 -32/201 -50/201 378/67 1309/201 1480/201 549/67 "
                     "1810/201",
    (F(27, 11), 12): "0 -119/27 -206/27 -29/3 -284/27 -275/27 -44/3 -350/27 -272/27 -6 -20/27 "
                     "154/27 4/3",
}


@pytest.mark.parametrize("p0, n", [
    (F(16, 7), 12), (F(16, 7), 20), (F(7, 3), 10), (F(3), 8), (F(5, 2), 8),
    (F(12, 5), 10), (F(201, 2), 10), (F(27, 11), 12)])
def test_q_count_is_a_shifted_gauss_binomial_on_spin_half_chains(p0, n):
    # an oracle for the q-grading coded apart from the counting walk: on a
    # 1xN chain, q_count at every level below numerator(p0) is the Gaussian
    # binomial [N, l] times a frozen monomial, so a wrong m0 fails it
    ts = compute_ts(p0)
    chain = ChainSpec(p0, [(1, n)])
    shifts = [F(c) for c in GAUSS_SHIFTS[p0, n].split()]
    assert len(shifts) == min(n, p0.numerator - 1) + 1
    for l, c in enumerate(shifts):
        assert q_count(ts, chain, l) == gauss_binomial(n, l).shift(c), l


def test_gauss_shifts_lie_on_the_level_coset():
    # every frozen shift has the fractional part of -l^2/p0: q_count is a
    # polynomial on Z shifted once by -l^2/p0
    for (p0, n), text in GAUSS_SHIFTS.items():
        for l, c in enumerate(text.split()):
            assert (F(c) + F(l * l) / p0).denominator == 1, (p0, n, l)


def test_q_count_gauss_oracle_fails_from_the_numerator_on():
    # negative control: at 16/7 on 1x20 the levels from numerator(p0) = 16 on
    # are not all shifted Gaussian binomials, so the comparison can fail
    ts = compute_ts(F(16, 7))
    chain = ChainSpec(ts.p0, [(1, 20)])
    fails = [l for l in range(21)
             if not _equal_up_to_a_monomial(q_count(ts, chain, l), gauss_binomial(20, l))]
    assert fails == [16, 17, 20]


# Kostka-Foulkes oracle: coded apart from q_count and the lambda walk.  mu is
# the chain's spins sorted into a partition, each 2s repeated by its
# multiplicity, and a two-row semistandard tableau of content mu is the
# content a_i <= mu_i of its second row, which never holds a 1.

def _charge(word) -> int:
    """Lascoux-Schutzenberger charge of a word of partition content: split
    off standard subwords, each from its rightmost 1 cyclically leftward to
    2, 3, ..., with an index that rises by one at each wrap; sum the indices."""
    word, total = list(word), 0
    while word:
        taken, pos, index, letter = [], len(word), 0, 1
        while True:
            left = [i for i in range(pos - 1, -1, -1) if word[i] == letter]
            right = [i for i in range(len(word) - 1, pos, -1) if word[i] == letter]
            if not left and not right:
                break
            if not left:
                index += 1
            pos = (left or right)[0]
            taken.append(pos)
            total += index
            letter += 1
        word = [w for i, w in enumerate(word) if i not in taken]
    return total


def _cocharge_kostka(mu) -> dict:
    """l' -> K~_{(N - l', l'), mu}(q) = q**n(mu) K(1/q) for every two-row
    shape, K the charge sum over the semistandard tableaux of content mu,
    whose reading word is the second row, then the first."""
    n = sum(mu)
    n_mu = sum(i * m for i, m in enumerate(mu))
    out = {}
    for tail in itertools.product(*(range(m + 1) for m in mu[1:])):
        content = list(zip(mu, (0,) + tail))
        second = [i for i, (_, a) in enumerate(content, 1) for _ in range(a)]
        first = [i for i, (m, a) in enumerate(content, 1) for _ in range(m - a)]
        if 2 * len(second) > n or any(b <= t for b, t in zip(second, first)):
            continue
        term = QPolynomial.monomial(n_mu - _charge(second + first))
        out[len(second)] = out.get(len(second), QPolynomial.zero()) + term
    return out


def _kostka_mismatches(p0, chain_text) -> list:
    """The levels l where q_count differs from sum_{l' <= min(l, N - l)}
    K~_{(N - l', l'), mu} by more than a monomial."""
    species = [tuple(int(v) for v in part.split("x")) for part in chain_text.split(",")]
    ts, chain = compute_ts(p0), ChainSpec(p0, species)
    mu = sorted((two_s for two_s, count in species for _ in range(count)), reverse=True)
    n, kostka = chain.n_total, _cocharge_kostka(mu)
    return [l for l in range(n + 1) if not _equal_up_to_a_monomial(
        q_count(ts, chain, l),
        sum((kostka.get(k, QPolynomial.zero()) for k in range(min(l, n - l) + 1)),
            QPolynomial.zero()))]


def test_cocharge_kostka_foulkes_small_cases():
    # K_{(2),(1,1)} = q and K_{(1,1),(1,1)} = 1, so K~ = 1 and q (n(mu) = 1)
    assert _charge([1, 2]) == 1 and _charge([2, 1]) == 0
    assert _cocharge_kostka([1, 1]) == {0: QPolynomial.one(), 1: QPolynomial.monomial(1)}
    # K_{(2,1),(1,1,1)} = q + q^2, from the reading words 312 and 213, and
    # K_{(3),(1,1,1)} = q^3; n(mu) = 3
    assert _charge([3, 1, 2]) == 2 and _charge([2, 1, 3]) == 1 and _charge([1, 2, 3]) == 3
    assert _cocharge_kostka([1, 1, 1]) == {0: QPolynomial.one(), 1: QPolynomial({1: 1, 2: 1})}


@pytest.mark.parametrize("p0, chain", [
    (F(21), "2x4"), (F(21), "2x5"), (F(23, 2), "3x3"), (F(9), "3x3"),
    (F(21), "1x3,2x2,3x1"), (F(31, 3), "2x3,1x2"), (F(64, 3), "4x2,1x2"),
    (F(16, 7), "1x12"), (F(27, 11), "1x12"), (F(12, 5), "1x12"), (F(201, 2), "1x10")])
def test_q_count_is_a_cocharge_kostka_foulkes_sum(p0, chain):
    # up to a monomial, q_count at level l is the sum of the cocharge
    # Kostka-Foulkes polynomials of the two-row shapes (N - l', l'),
    # l' <= min(l, N - l), at every level of these chains
    assert _kostka_mismatches(p0, chain) == []


@pytest.mark.parametrize("p0, chain, levels", [
    (F(7, 3), "1x10", [8, 9, 10]), (F(5, 2), "1x6", [6]), (F(5), "2x4", [5, 6]),
    (F(7), "2x4", [7]), (F(6), "3x2,1x2", [6, 7]), (F(3), "2x3", [3, 4]),
    (F(3), "1x3,2x2", [3, 4, 5, 6]), (F(4), "3x3", [4, 5, 6]),
    (F(16, 7), "8x1,1x4", list(range(3, 10))), (F(16, 7), "1x6,8x1", list(range(3, 12)))])
def test_q_count_kostka_foulkes_oracle_fails_where_p0_is_small(p0, chain, levels):
    # negative control: where p0 is small against the chain's length or
    # spins, these levels are not cocharge Kostka-Foulkes sums, so the
    # comparison can fail; the failing levels are frozen
    assert _kostka_mismatches(p0, chain) == levels


# -- fermionic side -------------------------------------------------------------------

def test_level_series_zero():
    ts = compute_ts(F(16, 7))
    assert level_series(ts, 0, 10) == QSeries.one(10)


def test_level_series_one_integer_p0():
    # level 1 has exactly two unit vectors (the two length-1 strings);
    # at p0 = 2 their contributions cancel exactly
    ts = compute_ts(2)
    assert level_series(ts, 1, 12).is_zero()


def test_level_series_one_p0_three():
    # hand expansion: q^(2/3)/(1-q) - q^(1/3)(q/(1-q)) = (q^(2/3)-q^(4/3))/(1-q)...
    # computed independently below from the quadratic form values
    ts = compute_ts(3)
    theta = [[F(2, 3), F(1, 3), F(1, 3)],
             [F(1, 3), F(2, 3), F(2, 3)],
             [F(1, 3), F(2, 3), F(-1, 3)]]
    s1 = QSeries.monomial(theta[0][0], 1, 8).div_cyclotomic(1)
    s3 = QSeries.monomial(theta[2][2], 1, 8).div_cyclotomic(-1)
    want = s1 + s3
    assert level_series(ts, 1, 8).first_discrepancy(want) is None


def test_fermionic_sum_leading_term():
    for p0 in (2, 3, F(5, 2), F(16, 7)):
        ts = compute_ts(p0)
        s = fermionic_sum(ts, 6)
        assert s.coeff(0) == 1


def test_integer_p0_exponents_are_integers():
    for p0 in (2, 3, 4):
        ts = compute_ts(p0)
        s = fermionic_sum(ts, 15)
        assert all(e.denominator == 1 for e in s.terms)


def reduced_p0(top):
    """Every reduced a/b >= 1 with a <= top."""
    return [F(a, b) for a in range(1, top + 1) for b in range(1, a + 1) if gcd(a, b) == 1]


def test_lattice_denominator_is_numerator_of_p0():
    # |det C| = y_{alpha+1} = numerator(p0), so Theta = C^-1 and 1/p0 share
    # that denominator; scaled_form asserts it, and the adjugate of its
    # bands S C S is det C * Theta~
    for p0 in (1, 2, 3, 6, F(5, 2), F(7, 3), F(16, 7), F(9, 4), F(13, 5), F(55, 34),
               F(201, 2)):
        ts = compute_ts(p0)
        form = scaled_form(ts)
        assert form.den == F(p0).numerator, p0
        det, adj = tridiagonal_adjugate(form.diag, form.off)
        assert abs(det) == form.den, p0
        assert [[F(si * sj * x, det) for sj, x in zip(ts.signs, row)]
                for si, row in zip(ts.signs, adj)] == \
            [list(row) for row in coupling_matrix(ts).rows]
    sweep = reduced_p0(60)
    assert len(sweep) == 1102
    for p0 in sweep:
        assert scaled_form(compute_ts(p0)).den == p0.numerator, p0


def test_fermionic_exponent_grows_in_every_component():
    # scaled_form builds over the sweep, so its O(dim) checks of the
    # generators and of G >= 0 pass, and n_min(i,j) r_max(i,j) is the dense
    # G = Theta~ + n n^t/p0 entry by entry, which is >= 0, with G_kk > 0
    # wherever s_k > 0
    for p0 in reduced_p0(60):
        ts = compute_ts(p0)
        r, n = scaled_form(ts).r, string_weights(ts)
        G = dense_form(ts)
        assert [[n[min(i, j)] * r[max(i, j)] for j in range(ts.dim)]
                for i in range(ts.dim)] == G, p0
        assert all(G[k][k] > 0 for k, s_k in enumerate(ts.signs) if s_k > 0), p0


def perturbed_row(monkeypatch, index, by):
    """Raise r_index, the entry of G's first row, by `by` as scaled_form
    reads it from the back-substitution, with its cache cleared."""
    from bethestates import spectral
    solve = spectral._back_substitute

    def raised(diag, off, last, lift):
        g = solve(diag, off, last, lift)
        g[index] += by
        return g

    monkeypatch.setattr(spectral, "_back_substitute", raised)
    scaled_form.cache_clear()


def no_level_enumerated(monkeypatch):
    """The levels passed to enumerate_lambda, which lists no vector."""
    from bethestates import configs
    levels = []
    monkeypatch.setattr(configs, "enumerate_lambda", lambda ts_, l: levels.append(l) or [])
    return levels


def every_route(ts):
    chain = ChainSpec(ts.p0, [(1, 4)])
    return (lambda: fermionic_sum(ts, 40), lambda: live_levels(ts, 40),
            lambda: level_series(ts, 1, 40), lambda: count_xxz_general(ts, chain, 1),
            lambda: q_count(ts, chain, 1))


def test_positivity_check_raises_on_a_negative_entry(monkeypatch):
    # the check can fail: r_1 = G_11 at 16/7, lowered by 2 from 1 to -1,
    # takes G_11 below zero.  Every route that reads scaled_form raises
    # before any level is enumerated, among them the fermionic sums and
    # level_series, whose early drop of a vector relies on G >= 0
    ts = compute_ts(F(16, 7))
    assert scaled_form(ts).r[0] == 1
    try:
        perturbed_row(monkeypatch, 0, -2)
        levels = no_level_enumerated(monkeypatch)
        for run in every_route(ts):
            with pytest.raises(AssertionError, match="not monotone at p0 = 16/7, row 1"):
                run()
        assert levels == []
    finally:
        monkeypatch.undo()
        scaled_form.cache_clear()


def dense_form(ts):
    """G = Theta~ + n n^t/p0 from the dense coupling_matrix in Fractions,
    checked integral and >= 0 entrywise."""
    n = string_weights(ts)
    theta = coupling_matrix(ts).rows
    G = [[si * sj * theta[i][j] + F(n[i] * n[j]) / ts.p0 for j, sj in enumerate(ts.signs)]
         for i, si in enumerate(ts.signs)]
    assert all(x.denominator == 1 and x >= 0 for row in G for x in row), ts.p0
    return [[int(x) for x in row] for row in G]


def dense_least_exponent(ts, G, lam):
    """(lam G lam, lam G lam + sum_{s_k < 0} lam_k (lam_k + 1)/2)."""
    nz = [(k, x) for k, x in enumerate(lam) if x]
    e = sum(x * G[k][j] * y for k, x in nz for j, y in nz)
    return e, e + sum(x * (x + 1) // 2 for k, x in nz if ts.signs[k] < 0)


@pytest.mark.parametrize("p0, cutoff", [
    (F(16, 7), 120), (F(16, 7), 240), (F(55, 34), 60), (F(27, 11), 60), (F(7, 3), 40),
    (F(5, 2), 30), (F(2), 40), (F(3), 40), (F(7, 2), 40)])
def test_level_terms_match_the_dense_least_exponent(p0, cutoff):
    # _level_terms drops a vector at its first partial least exponent past
    # the cutoff; here every vector of every level up to max n_k dead levels
    # in a row is kept or not by its whole least exponent
    # lam G lam + sum_{s_k < 0} lam_k (lam_k + 1)/2, with the dense G =
    # Theta~ + n n^t/p0 of coupling_matrix in Fractions.  A limit lowered by
    # one, or G_11 raised by one, gives other terms.
    from bethestates.identities import _level_terms
    ts = compute_ts(p0)
    G = dense_form(ts)
    got, exact, dead, l = {}, {}, 0, 0
    while dead < max(string_weights(ts)):
        exact[l] = [dense_least_exponent(ts, G, lam) + (lam,) for lam in enumerate_lambda(ts, l)]
        got[l] = list(_level_terms(ts, l, F(cutoff)))
        dead = 0 if any(least <= cutoff for _, least, _ in exact[l]) else dead + 1
        l += 1

    def kept(limit, raise_g11=0):
        return {l: [(e + raise_g11 * lam[0] ** 2, lam) for e, least, lam in rows
                    if least + raise_g11 * lam[0] ** 2 <= limit] for l, rows in exact.items()}

    assert got == kept(cutoff)
    assert sum(map(len, got.values())) > 10
    assert got != kept(cutoff - 1) and got != kept(cutoff, 1)
    # the zero vector takes no step, and its least exponent 0 is past -1
    assert list(_level_terms(ts, 0, F(-1))) == []


@pytest.mark.parametrize("p0, cutoff, g11_seen", [
    (F(16, 7), 120, True), (F(16, 7), 240, True), (F(55, 34), 60, True),
    (F(27, 11), 60, True), (F(7, 3), 40, True), (F(5, 2), 30, True), (F(2), 40, True),
    (F(3), 40, False), (F(7, 2), 40, False), (F(201, 2), 16, False)])
def test_live_levels_match_the_dense_least_exponent(p0, cutoff, g11_seen):
    # live_levels enumerates no vector.  Here every vector of every level up
    # to twice the last live level takes its least exponent from the dense G,
    # and a level must be live at a cutoff c exactly when one of its vectors
    # has a least exponent <= floor(c), for every c from -1 to the cutoff.
    # Controls: a limit just below the least exponent of the last live level
    # drops that level.  Level 1 holds the unit vectors of the strings of
    # length 1, each with least exponent 1; at 3, 7/2 and 201/2 every level
    # keeps a least vector with lam_1 = 0, so G_11 raised by one alone moves
    # no live level there, while G_kk raised by one for each such string
    # moves level 1 everywhere.
    ts = compute_ts(p0)
    G = dense_form(ts)
    got = live_levels(ts, cutoff)
    units = [k for k, n_k in enumerate(string_weights(ts)) if n_k == 1]
    least = {}      # level -> least exponents at G, G_11 + 1, G_kk + 1 for k in units
    for l in range(2 * got[-1] + 1):
        for lam in enumerate_lambda(ts, l):
            e = dense_least_exponent(ts, G, lam)[1]
            row = (e, e + lam[0] ** 2, e + sum(lam[k] ** 2 for k in units))
            least[l] = tuple(map(min, least.get(l, row), row))

    def live(limit, which=0):
        return [l for l, row in least.items() if row[which] <= limit]

    cuts = range(-1, cutoff + 1)
    sweep = [live_levels(ts, c) for c in cuts]
    assert sweep[-1] == got == live(cutoff)
    assert sweep == [live(c) for c in cuts]
    assert live_levels(ts, F(2 * cutoff + 1, 2)) == got
    assert got != live(least[got[-1]][0] - 1)
    assert (sweep != [live(c, 1) for c in cuts]) == g11_seen
    assert sweep != [live(c, 2) for c in cuts]


@pytest.mark.parametrize("up, index", [(0, 2), (1, 3)])
def test_generator_check_raises_before_any_level(monkeypatch, up, index):
    # the check can fail: r_3 = 1 at 16/7 lowered by one, to 0 where s_3 < 0
    # so that G stays >= 0, or r_4 = 2 raised by one gives generators that
    # no longer invert the bands of S C S, so every route that reads
    # scaled_form raises before any level is enumerated
    ts = compute_ts(F(16, 7))
    assert (scaled_form(ts).r[index], ts.signs[index]) == ((1, -1), (2, -1))[up]
    try:
        perturbed_row(monkeypatch, index, 1 if up else -1)
        levels = no_level_enumerated(monkeypatch)
        for run in every_route(ts):
            with pytest.raises(AssertionError, match="generators of G disagree with"):
                run()
        assert levels == []
    finally:
        monkeypatch.undo()
        scaled_form.cache_clear()


def column_scan(ts, form):
    """The rows k (from 1) that the O(dim^2) scan of the columns of G flags:
    G_ik = n_i r_k < 0 for some i <= k, or G_kk = 0 with s_k > 0."""
    n = string_weights(ts)
    bad = []
    for k, (r_k, s_k) in enumerate(zip(form.r, ts.signs)):
        column = [n_i * r_k for n_i in n[:k + 1]]
        if min(column) < 0 or (column[k] == 0 and s_k > 0):
            bad.append(k + 1)
    return bad


def test_positivity_check_agrees_with_the_column_scan():
    # two-sided: on real string data the O(dim) check and the dense scan
    # both pass, and n_min r_max is each column of G that ScaledForm.dual
    # gives on the suffix sums of e_k; on perturbed rows r they flag the same
    # rows.  r_j lowered by one at 16/7 fails at 3 of 7 components, and
    # seeded perturbations of r elsewhere too.
    for p0 in reduced_p0(40):
        ts = compute_ts(p0)
        form, n = scaled_form(ts), string_weights(ts)
        assert list(_nonmonotone_rows(form, ts)) == column_scan(ts, form) == [], p0
        for k, n_k in enumerate(n):
            assert form.dual([int(j == k) for j in range(ts.dim)], n_k) == \
                [n[min(i, k)] * form.r[max(i, k)] for i in range(ts.dim)], (p0, k)
    ts = compute_ts(F(16, 7))
    form = scaled_form(ts)
    flagged = []
    for j in range(ts.dim):
        bad = replace(form, r=tuple(v - (i == j) for i, v in enumerate(form.r)))
        flagged.append(list(_nonmonotone_rows(bad, ts)))
        assert flagged[-1] == column_scan(ts, bad), j
    assert flagged == [[1], [2], [], [], [5], [], []]
    rng = random.Random(20261019)
    seen = 0
    for p0 in (F(16, 7), F(55, 34), F(201, 2), F(7, 3), F(3), F(27, 11)):
        ts = compute_ts(p0)
        form = scaled_form(ts)
        for _ in range(60):
            r = list(form.r)
            for j in rng.sample(range(ts.dim), rng.randint(1, 2)):
                r[j] += rng.choice((-50, -7, -1, 1, 7, 50))
            bad = replace(form, r=tuple(r))
            rows = list(_nonmonotone_rows(bad, ts))
            assert rows == column_scan(ts, bad), p0
            seen += bool(rows)
    assert 100 < seen < 260, seen     # both outcomes occur


def test_generator_check_flags_every_unit_perturbation_of_r():
    # r_j raised or lowered by one, for every j, at six values of p0 (270
    # perturbations): the check of (S C S) M = den I alone flags each
    count = 0
    for p0 in (F(16, 7), F(55, 34), F(201, 2), F(7, 3), F(3), F(27, 11)):
        ts = compute_ts(p0)
        form = scaled_form(ts)
        assert list(_disagreeing_rows(form, p0.denominator)) == [], p0
        for j in range(ts.dim):
            for by in (-1, 1):
                bad = replace(form, r=tuple(v + by * (i == j) for i, v in enumerate(form.r)))
                assert list(_disagreeing_rows(bad, p0.denominator)), (p0, j, by)
                count += 1
    assert count == 270


def test_identity_at_dim_1000_solves_the_bands_once(monkeypatch):
    # the checks of G are O(dim) in scaled_form: during the identity at
    # 1997/2 the bands are solved once, for r in scaled_form, and
    # ScaledForm.dual never runs, so nothing runs once per column of G
    from bethestates import spectral
    ts = compute_ts(F(1997, 2))
    solve, callers = spectral._back_substitute, []

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return solve(*args)

    def no_dual(*args):
        raise AssertionError("ScaledForm.dual called")

    monkeypatch.setattr(spectral, "_back_substitute", counted)
    monkeypatch.setattr(ScaledForm, "dual", no_dual)
    scaled_form.cache_clear()
    try:
        assert check_identity(ts, 3).agree
        assert len(live_levels(ts, 3)) >= 2
    finally:
        scaled_form.cache_clear()
    assert callers == ["scaled_form"]


@pytest.mark.parametrize("p0, cutoff, smaller", [
    (F(2), 20, None), (F(3), 20, None), (F(7, 2), 20, None), (F(27, 11), 16, None),
    (F(55, 34), 10, None), (F(201, 2), 16, 6)])
def test_fermionic_sum_equals_per_vector_reference(monkeypatch, p0, cutoff, smaller):
    # fermionic_sum divides each q-factorial once, for the sum of all vectors
    # whose paths share that prefix; level_series divides vector by vector.
    # fermionic_sum enumerates exactly the live levels, and the reference
    # sums every level up to twice the last of them, at the cutoff and at a
    # smaller one where given.
    from bethestates import configs
    ts = compute_ts(p0)
    enumerate_lambda = configs.enumerate_lambda
    for cut in (cutoff,) if smaller is None else (cutoff, smaller):
        levels = []
        monkeypatch.setattr(configs, "enumerate_lambda",
                            lambda ts_, l: levels.append(l) or enumerate_lambda(ts_, l))
        lhs = fermionic_sum(ts, cut)
        monkeypatch.undo()
        assert levels == live_levels(ts, cut)
        reference = QSeries.zero(cut)
        for l in range(2 * levels[-1] + 1):
            lead = F(l * l) / p0
            reference = reference + level_series(ts, l, cut - lead).shift(lead)
        assert lhs == reference, cut


@pytest.mark.parametrize("p0, cutoff, divisions",
                         [(F(16, 7), 120, 240), (F(55, 34), 60, 46), (F(16, 7), 240, 773)])
def test_fermionic_sum_divides_once_per_shared_prefix(monkeypatch, p0, cutoff, divisions):
    # a live vector's path is its nonzero lam_k, sorted descending, without
    # their bases: qalg._qfactorial_sum makes a base q**-1 its term's shift
    # and sign as the term enters.  Every distinct nonempty prefix of the
    # paths divides once, for all the vectors below it; a division per path,
    # or paths of (lam_k, s_k), would divide shared prefixes again.  The
    # fold takes the prefixes in reverse sorted order and divides each by
    # (q; q)_x, x its last length, with the one kernel div_steps on
    # 1 - q**i, i = 1..x, and never through QSeries.div_cyclotomic
    from bethestates import identities, qalg
    ts = compute_ts(p0)
    prefixes, steps, series_divisions = set(), [], []
    level_terms, div_steps = identities._level_terms, qalg.div_steps

    def recorded(ts_, l, cut):
        for e, lam in level_terms(ts_, l, cut):
            path = sorted((x for x in lam if x), reverse=True)
            prefixes.update(tuple(path[:i]) for i in range(1, len(path) + 1))
            yield e, lam

    monkeypatch.setattr(identities, "_level_terms", recorded)
    monkeypatch.setattr(qalg, "div_steps",
                        lambda c, s: steps.append(tuple(s)) or div_steps(c, s))
    monkeypatch.setattr(QSeries, "div_cyclotomic",
                        lambda self, *s: series_divisions.append(s))
    fermionic_sum(ts, cutoff)
    assert len(steps) == len(prefixes) == divisions
    # in the fold's order, (q; q)_x is divided at the prefix whose last length is x
    assert steps == [tuple(range(1, prefix[-1] + 1))
                     for prefix in sorted(prefixes, reverse=True)]
    assert series_divisions == []


# -- identity checks -------------------------------------------------------------------

def test_identity_rational_5_2_frozen():
    # both sides reduce to 1 + q^11 + q^12 at this cutoff (hand-derived from
    # the k=1, m=0 bosonic term q^10 * q/(1-q))
    ts = compute_ts(F(5, 2))
    lhs = fermionic_sum(ts, 12)
    rhs = bosonic_sum(ts, 12)
    want = {F(0): 1, F(11): 1, F(12): 1}
    assert lhs.terms == want
    assert rhs.terms == want


def test_identity_rational_7_2_frozen():
    # first bosonic term: exponent y_2*z_1 = 14 times the kernel q, giving
    # q^15/(1-q); at cutoff 15 both sides are exactly 1 + q^15
    ts = compute_ts(F(7, 2))
    want = {F(0): 1, F(15): 1}
    assert fermionic_sum(ts, 15).terms == want
    assert bosonic_sum(ts, 15).terms == want


def test_identity_wider_rational_sweep():
    for p0 in (F(9, 4), F(13, 5), F(8, 5)):
        ts = compute_ts(p0)
        lhs = fermionic_sum(ts, 14)
        assert lhs.first_discrepancy(bosonic_sum(ts, 14)) is None, p0
        assert lhs.first_discrepancy(bosonic_sum_collapsed(ts, 14)) is None, p0


def test_q_count_full_polynomial_rational_p0():
    ts = compute_ts(F(16, 7))
    chain = ChainSpec(F(16, 7), [(1, 3)])
    for l in range(4):
        assert q_count(ts, chain, l).eval_at_one() == count_xxz_general(ts, chain, l)


def test_identity_p0_2_vs_modulus5_product():
    ts = compute_ts(2)
    lhs = fermionic_sum(ts, 10)
    triple, _ = gordon_andrews_products(ts, 10)
    assert lhs.first_discrepancy(triple) is None
    assert lhs.coeff(0) == 1 and lhs.coeff(2) == -1 and lhs.coeff(3) == -1


def test_identity_report():
    ts = compute_ts(F(7, 3))
    rep = check_identity(ts, 10)
    assert rep.agree and rep.first_discrepancy is None
    d = rep.to_json_dict()
    assert d["schema"] == "v1" and d["agree"] is True and d["p0"] == "7/3"


def test_float_cutoffs_raise():
    # a float cutoff of 2.1 would put the fermionic sum on a lattice of
    # denominator 2**51, where it runs out of memory; ints, Fractions and
    # strings agree
    ts = compute_ts(2)
    for call in (lambda: check_identity(ts, 2.1), lambda: check_identity(ts, 3.0),
                 lambda: level_series(ts, 1, 0.5)):
        with pytest.raises(PreconditionError, match="not a float: "):
            call()
    reports = [check_identity(ts, c) for c in (10, F(10), "10")]
    assert all(r.agree and r.cutoff == 10 and r.lhs == reports[0].lhs for r in reports)
    assert level_series(ts, 1, 8) == level_series(ts, 1, F(8)) == level_series(ts, 1, "8")


def test_collapsed_equals_double_sum():
    for p0 in (2, 3, F(5, 2), F(7, 3)):
        ts = compute_ts(p0)
        a = bosonic_sum(ts, 14)
        b = bosonic_sum_collapsed(ts, 14)
        assert a.first_discrepancy(b) is None, p0


def _bosonic_sum_per_term(ts, cutoff):
    # the double sum with one division per in-range (k, m) term, the
    # exponent (k y_(a+1) + m y_a)(k z_a + m z_(a-1)) + offset written out
    a = ts.alpha
    eps = 1 if a % 2 == 0 else -1
    acc = QSeries.one(cutoff)
    k = 1
    while True:
        exps = [(k * ts.y(a + 1) + m * ts.y(a)) * (k * ts.z(a) + m * ts.z(a - 1))
                + kernel_offset(a, k, m) for m in range(k + 1)]
        if min(exps) > cutoff:
            return acc
        for m, e in enumerate(exps):
            if e > cutoff:
                continue
            sgn = (-1) ** (k + m) if a % 2 == 0 else (-1) ** m
            poly = kernel_poly(eps, k, m) * QPolynomial.monomial(e, sgn)
            acc = acc + poly.truncated(cutoff).div_cyclotomic(*range(1, k + 1))
        k += 1


@pytest.mark.parametrize("p0, cutoff", [
    (F(2), 30), (F(3), 40), (F(7, 3), 150), (F(5, 2), 100), (F(16, 7), 930),
    (F(27, 11), 1700), (F(55, 34), 14300)])
def test_bosonic_sum_equals_per_term_reference(p0, cutoff):
    # every (k, m) term of k = 1 and 2 lies within the cutoff; both parities
    # of alpha are covered (odd at 7/3, 5/2 and 55/34)
    ts = compute_ts(p0)
    reference = _bosonic_sum_per_term(ts, cutoff)
    assert len(reference.terms) > 1
    assert bosonic_sum(ts, cutoff) == reference
    assert bosonic_sum_collapsed(ts, cutoff) == reference


def test_bosonic_sums_divide_once_per_k(monkeypatch):
    # at p0 = 2, cutoff 200, k runs to 9; with the Gaussian binomials cached,
    # the only divisions left are the one by (q; q)_k per k
    ts = compute_ts(2)
    for fn in (bosonic_sum, bosonic_sum_collapsed):
        fn(ts, 200)
    steps = []
    div = QSeries.div_cyclotomic
    monkeypatch.setattr(QSeries, "div_cyclotomic",
                        lambda self, *s: steps.append(s) or div(self, *s))
    for fn in (bosonic_sum, bosonic_sum_collapsed):
        steps.clear()
        fn(ts, 200)
        assert steps == [tuple(range(1, k + 1)) for k in range(1, 10)], fn.__name__


def test_gordon_andrews_sum_matches():
    for p0 in (2, 3):
        ts = compute_ts(p0)
        lhs = fermionic_sum(ts, 15)
        assert lhs.first_discrepancy(gordon_andrews_sum(ts, 15)) is None


def test_residue_product_form():
    ts = compute_ts(2)
    lhs = fermionic_sum(ts, 12)
    _, residue = gordon_andrews_products(ts, 12)
    assert divide_by_euler(lhs).first_discrepancy(residue) is None


def test_divide_by_euler_is_the_partition_series_to_2000():
    """Every step up to the cutoff divides a 2001-long window, so steps past
    its square root are summed block-wise and the rest strided."""
    p = [1]
    for m in range(1, 2001):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
    out = divide_by_euler(QSeries.one(2000))
    assert out.cutoff == 2000
    assert [out.coeff(m) for m in range(2001)] == p
    assert p[2000] == 4720819175619413888601432406799959512200344166


def test_divide_by_euler_needs_a_cutoff():
    with pytest.raises(PreconditionError, match="cutoff"):
        divide_by_euler(QPolynomial.one())


def test_gordon_andrews_needs_integer():
    ts = compute_ts(F(5, 2))
    with pytest.raises(PreconditionError):
        gordon_andrews_sum(ts, 5)
    with pytest.raises(PreconditionError):
        gordon_andrews_products(ts, 5)
