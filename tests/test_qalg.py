import random
from fractions import Fraction
from math import isqrt

import pytest

from bethestates.qalg import (QPolynomial, QSeries, _qfactorial_sum, div_steps, gauss_binomial,
                              gauss_general, mul_lists, pochhammer, product_expand, qsum,
                              sum_of_products)
from bethestates.util import PreconditionError


def poly(d):
    return QPolynomial({Fraction(k): v for k, v in d.items()})


# -- independent oracles -------------------------------------------------------

def pascal_rows(m_max):
    """Rows 0..m_max of Gaussian binomials by the q-Pascal recurrence
    (test oracle)."""
    rows = [[QPolynomial.one()]]
    for mm in range(1, m_max + 1):
        row = rows[-1]
        nxt = [QPolynomial.one()]
        for nn in range(1, mm):
            nxt.append(row[nn - 1] + QPolynomial.monomial(nn, 1) * row[nn])
        nxt.append(QPolynomial.one())
        rows.append(nxt)
    return rows


def pentagonal_euler(cutoff):
    """(q;q)_inf by the pentagonal-number series (test oracle)."""
    terms = {Fraction(0): 1}
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 > cutoff and e2 > cutoff:
            break
        sign = (-1) ** k
        if e1 <= cutoff:
            terms[Fraction(e1)] = sign
        if e2 <= cutoff:
            terms[Fraction(e2)] = sign
        k += 1
    return QSeries(terms, cutoff)


# -- series operations ----------------------------------------------------------

def test_add_cancellation():
    a = QSeries({0: 1, 1: 1}, 20)
    b = QSeries({1: -1}, 20)
    assert a + b == QSeries({0: 1}, 20)


def test_add_like_terms_fractional_exponent():
    h = Fraction(1, 2)
    a = QSeries({h: 1}, 10)
    assert (a + a).terms == {h: 2}


def test_constructor_drops_beyond_cutoff():
    s = QSeries({0: 1, 25: 1}, 20)
    assert s.terms == {Fraction(0): 1}
    assert (s + QSeries.zero(20)).cutoff == 20


def test_add_takes_min_cutoff():
    a = QSeries({0: 1}, 20)
    b = QSeries({0: 1}, 10)
    assert (a + b).cutoff == 10


def test_qsum_adds_in_place_across_lattices():
    # qsum against a Fraction-keyed tally of the terms: seeded values on the
    # lattices Z, Z/2 and Z/3, added in an order that grows the list at both
    # ends and refines its lattice midway; the inputs stay unchanged, and a
    # series among them cuts the sum at the smallest cutoff
    rng = random.Random(12)
    values = []
    for den in (1, 1, 2, 1, 3, 2):
        lo = rng.randint(-6, 6)
        values.append(QPolynomial({Fraction(lo + i, den): rng.randint(-2, 2)
                                   for i in range(rng.randint(0, 9))}))
    values.append(-values[0])
    before = [v.coeffs[:] for v in values]
    tally = {}
    for v in values:
        for e, c in v.terms.items():
            tally[e] = tally.get(e, 0) + c
    total = qsum(iter(values))
    assert type(total) is QPolynomial
    assert total.terms == {e: c for e, c in sorted(tally.items()) if c}
    assert [v.coeffs for v in values] == before
    series = qsum([*values, QSeries.zero(Fraction(5, 2)), QSeries.one(4)])
    tally[Fraction(0)] = tally.get(Fraction(0), 0) + 1
    assert series.cutoff == Fraction(5, 2)
    assert series.terms == {e: c for e, c in sorted(tally.items()) if c and e <= Fraction(5, 2)}
    assert qsum([]) == QPolynomial.zero()


def test_mul_geometric_inverse():
    one_minus_q = QSeries({0: 1, 1: -1}, 15)
    geo = QSeries({i: 1 for i in range(16)}, 15)
    assert (one_minus_q * geo) == QSeries({0: 1}, 15)


def test_mul_exponent_addition():
    a = QSeries({-1: 1}, 10)
    b = QSeries({Fraction(3, 2): 1}, 10)
    prod = a * b
    assert prod.terms == {Fraction(1, 2): 1}


def test_mul_square():
    a = QSeries({0: 1, 1: 1}, 10)
    assert (a * a).terms == {Fraction(0): 1, Fraction(1): 2, Fraction(2): 1}


def test_mul_cutoff_tightens_for_negative_min_exponent():
    a = QSeries({-2: 1}, 10)
    b = QSeries({0: 1}, 10)
    assert (a * b).cutoff == 8


def test_div_cyclotomic_geometric():
    one = QSeries.one(8)
    out = one.div_cyclotomic(1)
    assert out.terms == {Fraction(i): 1 for i in range(9)}


def test_div_cyclotomic_exact_factor():
    s = QSeries({0: 1, 2: -1}, 10)
    assert s.div_cyclotomic(1).terms == {Fraction(0): 1, Fraction(1): 1}


def test_div_cyclotomic_negative_step_roundtrip():
    out = QSeries.one(8).div_cyclotomic(-1)
    # -q - q^2 - ...; the exact shift moves the cutoff from 8 to 9
    assert out.cutoff == 9
    assert out.terms == {Fraction(i): -1 for i in range(1, 10)}
    back = out * QPolynomial({Fraction(0): 1, Fraction(-1): -1})
    assert back.first_discrepancy(QSeries.one(8)) is None


def test_div_then_mul_roundtrip_property():
    rng = random.Random(7)
    for _ in range(25):
        terms = {Fraction(rng.randint(0, 6)): rng.randint(-4, 4) for _ in range(4)}
        s = QSeries(terms, 12)
        step = rng.choice([1, 2, 3, -1, -2])
        roundtrip = s.div_cyclotomic(step) * QPolynomial(
            {Fraction(0): 1, Fraction(step): -1})
        assert roundtrip.first_discrepancy(s) is None


def test_div_zero_series_is_zero():
    assert QSeries.zero(10).div_cyclotomic(1).is_zero()


def test_div_step_zero_rejected():
    with pytest.raises(PreconditionError):
        QSeries.one(5).div_cyclotomic(0)


def schoolbook(a, b, n):
    """The first n coefficients of the product of coefficient lists a and b,
    term by term (test oracle)."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[:n - i]):
            out[i + j] += x * y
    return out


def test_div_steps_multiplies_back_to_its_input():
    # random signed lists with coefficients up to 10**40, divided in place
    # by 1-6 steps of both branches: s*s <= n (strided running sums) and
    # s*s > n, up to and past the window (s-long blocks); multiplying the
    # result back by each 1 - q**s gives the input on the window
    rng = random.Random(20261020)
    strided = blocks = 0
    for _ in range(60):
        n = rng.randint(1, 150)
        given = [rng.randint(-10**40, 10**40) if rng.random() < 0.3 else 0 for _ in range(n)]
        steps = [rng.choice([rng.randint(1, isqrt(n)), rng.randint(isqrt(n) + 1, n + 2)])
                 for _ in range(rng.randint(1, 6))]
        strided += sum(s * s <= n for s in steps)
        blocks += sum(s * s > n for s in steps)
        c = list(given)
        div_steps(c, steps)
        assert len(c) == n
        for s in steps:
            c = schoolbook(c, [1] + [0] * (s - 1) + [-1], n)
        assert c == given, (n, steps)
    assert strided > 50 and blocks > 50


def test_mul_lists_matches_a_dict_schoolbook_product():
    # seeded signed lists with coefficients up to 10**40, sparse and dense,
    # empty among them; n below, at and past the length of the product,
    # whose entries past it are zero
    rng = random.Random(27)
    cases = [([], []), ([], [3, -1]), ([5], []), ([0, 0, 7], [1])]
    for _ in range(60):
        density = rng.random()
        cases.append(tuple([rng.randint(-10**40, 10**40) if rng.random() < density else 0
                            for _ in range(rng.randint(0, 25))] for _ in range(2)))
    for a, b in cases:
        prod = {}
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = prod.get(i + j, 0) + x * y
        full = len(a) + len(b) - 1 if a and b else 0
        for n in {0, full // 2, max(full - 1, 0), full, full + 1, full + 5}:
            assert mul_lists(list(a), list(b), n) == [prod.get(k, 0) for k in range(n)], \
                (a, b, n)


def test_sum_of_products_matches_a_dict_schoolbook():
    # the sum of q**e times products of polynomials on the integers against
    # dict products and sums: seeded signed coefficients up to 10**40, offsets
    # and shifts below zero and polynomial objects shared between terms; a
    # zero factor, an empty product (q**e), no terms and terms that cancel;
    # coefficients of 8 bits, which need a slot's spare sign bit; and a
    # polynomial on a finer lattice is refused
    def schoolbook(terms):
        out = {}
        for e, factors in terms:
            term = {e: 1}
            for d in factors:
                nxt = {}
                for a, x in term.items():
                    for b, y in d.items():
                        nxt[a + b] = nxt.get(a + b, 0) + x * y
                term = nxt
            for k, c in term.items():
                out[k] = out.get(k, 0) + c
        return {Fraction(k): c for k, c in sorted(out.items()) if c}

    rng = random.Random(31)
    cases = [[], [(2, [{1: 1}, {}])], [(0, [{0: 10**30}, {}]), (1, [{0: 3}])], [(-3, [])],
             [(1, [{0: 1, 1: -1}]), (0, [{1: -1, 2: 1}])], [(0, [{0: 200}])],
             [(0, [{0: -200}])], [(0, [{0: 100}]), (0, [{0: 100}]), (1, [{0: 1}])],
             [(0, [{0: 127}]), (-1, [{1: -128}])]]
    for _ in range(60):
        pool = [{rng.randint(-5, 5): rng.choice((-1, 1)) * rng.randint(0, 10 ** rng.randint(0, 40))
                 for _ in range(rng.randint(1, 5))} for _ in range(4)]
        cases.append([(rng.randint(-6, 6), [pool[rng.randrange(4)] for _ in range(rng.randint(0, 3))])
                      for _ in range(rng.randint(0, 6))])
    for terms in cases:
        polys = {id(d): poly(d) for _, factors in terms for d in factors}
        got = sum_of_products((e, [polys[id(d)] for d in factors]) for e, factors in terms)
        assert type(got) is QPolynomial and got.terms == schoolbook(terms), terms
    with pytest.raises(PreconditionError):
        sum_of_products([(0, [QPolynomial.monomial(Fraction(1, 2))])])


def test_div_cyclotomic_mixed_signs_frozen():
    # QSeries.div_cyclotomic with mixed-sign steps, on the integer and on the
    # half-integer lattice: one shift and one sign for all negative steps
    s = QSeries({0: 3, 2: -1, 5: 7}, 12).div_cyclotomic(2, -1, 3, -2)
    assert s.cutoff == 15
    assert s.terms == {Fraction(e): c for e, c in zip(
        range(3, 16), [3, 3, 8, 11, 18, 30, 42, 63, 86, 119, 153, 204, 252])}
    s = QSeries({Fraction(-1, 2): 2, 1: -5}, 6).div_cyclotomic(
        Fraction(-3, 2), 1, Fraction(1, 2))
    assert s.cutoff == Fraction(15, 2)
    assert s.terms == {Fraction(e, 2): c for e, c in zip(
        [2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15],
        [-2, -2, -4, -1, -3, 1, 4, 5, 11, 12, 18, 22, 28])}


def test_qfactorial_sum_matches_each_term_divided_on_its_own(monkeypatch):
    # seeded random terms q**e / prod (q**s; q**s)_x, e <= floor(cutoff), over
    # both bases with repeated factors, given in any order; a small pool of
    # factors makes paths share prefixes, some of which are no term's path.
    # The reference divides each term on its own by QSeries.div_cyclotomic
    # and sums them with qsum, cut at the caller's cutoff.  The fold divides
    # once per distinct nonempty prefix of the length paths, the lengths x
    # sorted descending, of the terms still within the cutoff after the
    # shift x (x + 1)/2 of each factor of base q**-1: both bases of a length
    # share one node
    from bethestates import qalg
    rng = random.Random(20261021)
    pool = [(x, s) for x in (1, 2, 3, 5) for s in (1, -1)]
    shared = bare = pushed_past = 0
    for _ in range(80):
        cutoff = rng.choice([0, 6, 20, 30, Fraction(29, 2)])
        limit = int(cutoff)
        terms = [(rng.randint(-3, limit), [rng.choice(pool) for _ in range(rng.randint(0, 4))])
                 for _ in range(rng.randint(1, 12))]
        paths = [tuple(sorted(f, reverse=True)) for _, f in terms]
        prefixes = [p[:i] for p in set(paths) for i in range(1, len(p))]
        shared += len(prefixes) > len(set(prefixes))
        bare += any(p not in paths for p in prefixes)
        pushed_past += sum(e + x * (x + 1) // 2 > cutoff
                           for e, f in terms for x, s in f if s < 0)
        kept = {tuple(sorted((x for x, _ in f), reverse=True)) for e, f in terms
                if e + sum(x * (x + 1) // 2 for x, s in f if s < 0) <= limit}
        want = qsum([QSeries.zero(cutoff)] + [
            QSeries.monomial(e, 1, cutoff).div_cyclotomic(
                *(s * i for x, s in f for i in range(1, x + 1))) for e, f in terms])
        calls = []
        with monkeypatch.context() as m:
            m.setattr(qalg, "div_steps", lambda c, s: calls.append(s) or div_steps(c, s))
            got = _qfactorial_sum(((e, rng.sample(f, len(f))) for e, f in terms), cutoff)
        assert got == want, (terms, cutoff)
        assert len(calls) == len({p[:i] for p in kept for i in range(1, len(p) + 1)}), terms
    assert shared > 20 and bare > 20 and pushed_past > 20
    # no terms: zero, with the caller's cutoff
    assert _qfactorial_sum([], Fraction(29, 2)) == QSeries.zero(Fraction(29, 2))
    assert _qfactorial_sum(iter(()), -1) == QSeries.zero(-1)


# -- polynomials -----------------------------------------------------------------

def test_float_exponents_raise():
    # the float 0.1 is 3602879701896397/2**55: as an exponent, shift or
    # cutoff it would put the series on that lattice, where dividing runs
    # out of memory; ints, Fractions and strings are taken as before
    s = QSeries({0: 1, 1: 2}, 6)
    for call in (lambda: QPolynomial({0.5: 1}), lambda: QSeries({0: 1}, 0.1),
                 lambda: QSeries.one(0.1), lambda: s.shift(0.5), lambda: s.truncated(2.0),
                 lambda: s.div_cyclotomic(1.0), lambda: s.div_cyclotomic(1, -0.5),
                 lambda: s.coeff(1.0)):
        with pytest.raises(PreconditionError, match="q exponent must be .*not a float: "):
            call()
    for x in (1, Fraction(1), "1"):
        assert QPolynomial({x: 3}).terms == {Fraction(1): 3}
        assert QSeries.one(x).cutoff == Fraction(1)
        assert s.shift(x) == QSeries({1: 1, 2: 2}, 7)
        assert s.truncated(x) == QSeries({0: 1, 1: 2}, 1)
        assert s.div_cyclotomic(x) == QSeries({0: 1, 1: 3, 2: 3, 3: 3, 4: 3, 5: 3, 6: 3}, 6)
        assert s.coeff(x) == 2
    assert s.shift("1/2").coeff("3/2") == 2


def test_pochhammer_empty():
    assert pochhammer(1, 0) == QPolynomial.one()


def test_pochhammer_two():
    assert pochhammer(1, 2) == poly({0: 1, 1: -1, 2: -1, 3: 1})


def test_pochhammer_negative_base():
    assert pochhammer(-1, 1) == poly({0: 1, -1: -1})


def test_gauss_4_2():
    assert gauss_binomial(4, 2) == poly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


def test_gauss_edges():
    for m in range(8):
        assert gauss_binomial(m, 0) == QPolynomial.one()
    assert gauss_binomial(2, 3).is_zero()
    assert gauss_binomial(-1, 0).is_zero()


def test_gauss_matches_pascal_oracle():
    rows = pascal_rows(30)
    for m in range(31):
        for n in range(m + 1):
            assert gauss_binomial(m, n) == rows[m][n], (m, n)


def test_gauss_general_negative_tops_follow_q_pascal_downward():
    # the q-Pascal rule [t, b] = [t-1, b-1] + q**b [t-1, b] holds for every
    # integer top, so run downward from the oracle's row at top 0 as
    # [t-1, b] = q**-b ([t, b] - [t-1, b-1]) it gives tops -1..-15 without
    # the negation identity; base q**-1 inverts the exponents
    width = 13
    row = pascal_rows(0)[0] + [QPolynomial.zero()] * (width - 1)
    for top in range(-1, -16, -1):
        below = [QPolynomial.one()]
        for b in range(1, width):
            below.append((row[b] - below[b - 1]).shift(-b))
        row = below
        for b, want in enumerate(row):
            assert gauss_general(top, b) == want, (top, b)
            inverted = {-e: c for e, c in want.terms.items()}
            got = gauss_general(top, b, -1)
            assert type(got) is QPolynomial and got.terms == inverted, (top, b)


def test_gauss_at_one_is_binomial():
    from math import comb
    for m in range(31):
        for n in range(m + 1):
            assert gauss_binomial(m, n).eval_at_one() == comb(m, n)


def test_gauss_symmetry():
    for m in range(16):
        for n in range(m + 1):
            assert gauss_binomial(m, n) == gauss_binomial(m, m - n)


def test_gauss_base_flip_law():
    for m in range(21):
        for n in range(m + 1):
            flipped = QPolynomial.monomial(-n * (m - n), 1) * gauss_binomial(m, n, 1)
            assert gauss_binomial(m, n, -1) == flipped


def test_polynomial_ring_axioms_randomized():
    rng = random.Random(20240817)

    def rand_poly():
        return QPolynomial(
            {Fraction(rng.randint(-3, 6), rng.choice([1, 1, 2])): rng.randint(-5, 5)
             for _ in range(rng.randint(0, 5))})

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


# -- products ---------------------------------------------------------------------

def test_product_expand_euler_prefix():
    out = product_expand([(1, 1, 0)], 3)
    assert out.terms == {Fraction(0): 1, Fraction(1): -1, Fraction(2): -1}


def test_product_expand_euler_vs_pentagonal_oracle():
    out = product_expand([(1, 1, 0)], 30)
    assert out.first_discrepancy(pentagonal_euler(30)) is None


def test_product_expand_empty():
    assert product_expand([], 7) == QSeries.one(7)


def test_product_expand_reciprocal_is_partition_series():
    out = product_expand([(-1, 1, 0)], 10)
    partitions = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [out.coeff(i) for i in range(11)] == partitions


def test_product_expand_rejects_bad_progression():
    with pytest.raises(PreconditionError):
        product_expand([(1, 0, 1)], 5)
    with pytest.raises(PreconditionError):
        product_expand([(1, 2, -2)], 5)


# -- lattice series against an independent dict-of-Fraction reference ------------
#
# A reference value is (terms, cutoff): a {Fraction: int} dict without zeros and
# a Fraction cutoff, or None for an exact polynomial.

def ref_clean(terms, cutoff):
    return {e: c for e, c in terms.items() if c and (cutoff is None or e <= cutoff)}


def ref_min(terms):
    return min(terms, default=Fraction(0))


def ref_add(a, b):
    cutoffs = [c for c in (a[1], b[1]) if c is not None]
    cutoff = min(cutoffs) if cutoffs else None
    out = dict(a[0])
    for e, c in b[0].items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out, cutoff), cutoff


def ref_mul(a, b):
    (ta, ca), (tb, cb) = a, b
    if ca is None and cb is not None:
        (ta, ca), (tb, cb) = (tb, cb), (ta, ca)
    if ca is not None and cb is None:
        # the exact factor is truncated where its tail could still matter
        cb = ca - min(ref_min(tb), 0)
        tb = ref_clean(tb, cb)
    cutoff = None
    if ca is not None:
        cutoff = min(ca + min(ref_min(tb), 0), cb + min(ref_min(ta), 0))
    out = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return ref_clean(out, cutoff), cutoff


def ref_shift(a, d):
    return {e + d: c for e, c in a[0].items()}, None if a[1] is None else a[1] + d


def ref_div_cyclotomic(a, step):
    """Term-by-term geometric expansion of 1/(1 - q**step)."""
    if step < 0:
        terms, cutoff = ref_div_cyclotomic(ref_shift(a, -step), -step)
        return {e: -c for e, c in terms.items()}, cutoff
    terms, cutoff = a
    out = {}
    for e, c in terms.items():
        while e <= cutoff:
            out[e] = out.get(e, 0) + c
            e += step
    return ref_clean(out, cutoff), cutoff


def ref_first_discrepancy(a, b, upto=None):
    limits = [c for c in (a[1], b[1], upto) if c is not None]
    for e in sorted(set(a[0]) | set(b[0])):
        if limits and e > min(limits):
            break
        if a[0].get(e, 0) != b[0].get(e, 0):
            return (e, a[0].get(e, 0), b[0].get(e, 0))
    return None


def test_lattice_series_matches_dict_reference():
    rng = random.Random(20261017)
    step_rng = random.Random(20261018)

    def rand_exp(lo, hi):
        den = rng.choice([1, 2, 3])
        return Fraction(rng.randint(lo * den, hi * den), den)

    def rand_value(exact=None):
        """(QSeries or QPolynomial, reference) on a random 1/2, 1/3 or integer lattice."""
        pairs = [(rand_exp(-4, 10), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6))]
        if exact is None:
            exact = rng.random() < 0.3
        cutoff = None if exact else rand_exp(0, 14)
        merged = {}
        for e, c in pairs:
            merged[e] = merged.get(e, 0) + c
        value = QPolynomial(pairs) if exact else QSeries(pairs, cutoff)
        return value, (ref_clean(merged, cutoff), cutoff)

    def check(got, ref):
        assert got.terms == ref[0]
        assert got.cutoff == ref[1]
        assert isinstance(got, QPolynomial) == (ref[1] is None)

    steps = [Fraction(s) for s in (1, 2, 3, -1, -2)] + [
        Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(-1, 2), Fraction(-3, 2)]
    for _ in range(300):
        (a, ra), (b, rb) = rand_value(), rand_value()
        check(a, ra)
        check(a + b, ref_add(ra, rb))
        check(a * b, ref_mul(ra, rb))
        d = rand_exp(-3, 3)
        check(a.shift(d), ref_shift(ra, d))
        s, rs = rand_value(exact=False)
        step = rng.choice(steps)
        check(s.div_cyclotomic(step), ref_div_cyclotomic(rs, step))
        # 0-4 mixed-sign factors in one call against one reference division
        # per factor; a zero anywhere among them is refused
        many = [step_rng.choice(steps) for _ in range(step_rng.randint(0, 4))]
        ref = rs
        for one in many:
            ref = ref_div_cyclotomic(ref, one)
        check(s.div_cyclotomic(*many), ref)
        many.insert(step_rng.randint(0, len(many)), step_rng.choice([0, Fraction(0)]))
        with pytest.raises(PreconditionError, match="nonzero"):
            s.div_cyclotomic(*many)
        # series times an exact polynomial, in both operand orders
        p, rp = rand_value(exact=True)
        check(s * p, ref_mul(rs, rp))
        check(p * s, ref_mul(rp, rs))
        upto = rng.choice([None, rand_exp(0, 10)])
        assert s.first_discrepancy(a, upto) == ref_first_discrepancy(rs, ra, upto)
        nudged, rn = s + QPolynomial.monomial(d, 1), ref_add(rs, ({d: 1}, None))
        assert s.first_discrepancy(nudged) == ref_first_discrepancy(rs, rn)
    # long windows, up to about 200 lattice points, with large signed
    # coefficients, divided by 1-20 steps in one call: steps up to the square
    # root of the window, past it and past the window itself, of either sign,
    # some of them finer than the lattice; both ways of running the prefix
    # sums meet the reference
    wide = random.Random(20261019)
    for _ in range(40):
        den, n, lo = wide.choice([1, 2, 3]), wide.randint(2, 200), wide.randint(-20, 20)
        cutoff = Fraction(lo + n - 1, den)
        terms = {Fraction(wide.randint(lo, lo + n - 1), den): wide.randint(-10**30, 10**30)
                 for _ in range(wide.randint(1, 12))}
        s, ref = QSeries(terms, cutoff), (ref_clean(terms, cutoff), cutoff)
        many = []
        for _ in range(wide.randint(1, 20)):
            k = wide.choice([wide.randint(1, isqrt(n)), wide.randint(isqrt(n) + 1, n),
                             wide.randint(n + 1, 2 * n)])
            many.append(Fraction(k * wide.choice([1, -1]), den * wide.choice([1, 1, 1, 2])))
        for one in many:
            ref = ref_div_cyclotomic(ref, one)
        check(s.div_cyclotomic(*many), ref)
