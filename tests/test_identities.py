from fractions import Fraction
from math import gcd

import pytest

from bethestates.identities import (bosonic_sum, bosonic_sum_collapsed,
                                    check_identity, collapsed_kernel, dead_level_window,
                                    divide_by_euler, fermionic_sum, gauss_general,
                                    gordon_andrews_products, gordon_andrews_sum,
                                    kernel_offset, kernel_poly, kernel_sum,
                                    level_series, q_count)
from bethestates.configs import count_xxz_general, string_weights
from bethestates.qalg import QPolynomial, QSeries, gauss_binomial, pochhammer
from bethestates.spectral import (ChainSpec, ScaledForm, coupling_matrix, scaled_form,
                                  tridiagonal_adjugate)
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
    # the precondition of the dead-level stopping rule holds over the sweep,
    # and the window is the largest string weight
    for p0 in reduced_p0(60):
        ts = compute_ts(p0)
        assert dead_level_window(ts) == max(string_weights(ts)), p0


def test_dead_level_window_raises_on_a_negative_entry(monkeypatch):
    # the check can fail: the form it reads, G column by column from
    # ScaledForm.dual, with one entry lowered below zero is rejected before
    # any level is summed
    ts = compute_ts(F(16, 7))
    first = (1,) + (0,) * (ts.dim - 1)
    n_1 = string_weights(ts)[0]
    assert scaled_form(ts).dual(first, n_1)[1] >= 0
    dual = ScaledForm.dual

    def lowered(form, lam, level):
        g = dual(form, lam, level)
        if tuple(lam) == first and level == n_1:     # column 1 of G
            g[1] = -1
        return g

    monkeypatch.setattr(ScaledForm, "dual", lowered)
    with pytest.raises(AssertionError, match="not monotone at p0 = 16/7, row 1"):
        fermionic_sum(ts, 6)


@pytest.mark.parametrize("p0, cutoff, window", [
    (F(2), 20, None), (F(3), 20, None), (F(7, 2), 20, None), (F(27, 11), 16, None),
    (F(55, 34), 10, None), (F(201, 2), 16, 6)])
def test_fermionic_sum_equals_per_vector_reference(monkeypatch, p0, cutoff, window):
    # fermionic_sum divides each q-factorial once, for the sum of all vectors
    # whose paths share that prefix; level_series divides vector by vector.
    # At 201/2 the proved window, 101 dead levels, is out of reach, so a
    # shorter one stops the loop early; the sides are compared on the visited
    # levels.
    from bethestates import identities
    ts = compute_ts(p0)
    if window is not None:
        monkeypatch.setattr(identities, "dead_level_window", lambda ts_: window)
    levels = []
    enumerate_lambda = identities.enumerate_lambda
    monkeypatch.setattr(identities, "enumerate_lambda",
                        lambda ts_, l: levels.append(l) or enumerate_lambda(ts_, l))
    lhs = fermionic_sum(ts, cutoff)
    monkeypatch.undo()
    assert levels == list(range(len(levels)))
    reference = QSeries.zero(cutoff)
    for l in levels:
        lead = F(l * l) / p0
        reference = reference + level_series(ts, l, cutoff - lead).shift(lead)
    assert lhs == reference


@pytest.mark.parametrize("p0, cutoff, divisions", [(F(16, 7), 120, 719), (F(55, 34), 60, 112)])
def test_fermionic_sum_divides_once_per_shared_prefix(monkeypatch, p0, cutoff, divisions):
    # a live vector's path is its signed lengths s_k lam_k, largest |.| first;
    # every distinct nonempty prefix of the paths divides once, for all the
    # vectors below it, so a division per path would divide shared prefixes
    # again
    from bethestates import identities
    ts = compute_ts(p0)
    prefixes, steps = set(), []
    level_terms = identities._level_terms

    def recorded(ts_, l, cut):
        for e, lam in level_terms(ts_, l, cut):
            path = sorted((s * x for x, s in zip(lam, ts.signs) if x),
                          key=lambda f: (abs(f), f), reverse=True)
            prefixes.update(tuple(path[:i]) for i in range(1, len(path) + 1))
            yield e, lam

    div = QSeries.div_cyclotomic
    monkeypatch.setattr(identities, "_level_terms", recorded)
    monkeypatch.setattr(QSeries, "div_cyclotomic",
                        lambda self, *s: steps.append(s) or div(self, *s))
    fermionic_sum(ts, cutoff)
    assert len(steps) == len(prefixes) == divisions
    # (q**s; q**s)_x divides by 1 - q**(s i) for i = 1..x, s * x last
    assert sorted(s[-1] for s in steps) == sorted(prefix[-1] for prefix in prefixes)


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
