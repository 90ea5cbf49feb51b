"""q-series identities: fermionic level sums against bosonic alternating sums.

The fermionic side sums q**(l^2/p0) * V_l over the live levels, where V_l is
the generating series of states at level l: a level-l vector lam adds
q**(lam G lam) / prod_k (q**s_k; q**s_k)_{lam_k} to the sum, G = Theta~ + n
n^t/p0 an integer matrix, G_ij = n_min(i,j) r_max(i,j) with r = G e_1 an
integer row.  live_levels finds the levels with a term within the cutoff
before any is enumerated, by a min-plus pass over the components on the
level so far.  The vectors and their exponents come from the lambda walk of
configs, which drops a vector at its first component where the partial
least exponent passes the cutoff.  Both prunes are sound as G >= 0
entrywise, that is r >= 0, which spectral.scaled_form checks.  Each vector
goes to qalg._qfactorial_sum as its exponent and its q-factorials; that fold
makes a base q**-1 its term's shift and sign as the term enters, then
divides once per shared prefix of the lengths.  Every sum of terms goes
through qalg.qsum but q_count's, which qalg.sum_of_products forms by
Kronecker substitution, and the bosonic k-loop, which adds each k's divided
term to the sum so far; every Gaussian binomial is qalg.gauss_general.
The bosonic side is an alternating double sum whose kernel polynomials are
the same for every rational p0.  For integer p0 the bosonic side collapses
further to the classical Gordon-Andrews alternating sum and, via the Jacobi
triple product, to modulus-(2 p0 + 1) products.  All comparisons are exact
and term-by-term up to a truncation cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from math import comb, floor

from .configs import _lambda_walk
from .qalg import (QPolynomial, QSeries, _qfactorial_sum, as_exp, gauss_binomial, gauss_general,
                   product_expand, qsum, sum_of_products)
from .spectral import ChainSpec, linear_form, scaled_form
from .tsdata import TSData
from .util import PreconditionError, rat_str, report_header


# -- q-analog of the state count ------------------------------------------------

def q_count(ts: TSData, chain: ChainSpec, l: int) -> QPolynomial:
    """q-analog of the state count at level l (a Laurent polynomial).

    Each admissible multiplicity vector contributes its quadratic-form
    monomial q**(lam Theta~ lam) times a product of Gaussian binomials in base
    q**(parity).  Evaluating at q = 1 recovers the plain count.  The vectors,
    their tops and lam G lam = lam Theta~ lam + l^2/p0 come from the lambda
    walk of configs, whose step only records (top, lam_i, s_i) and drops a
    vector at its first vanishing binomial, 0 <= top < lam_i, before any
    product is taken.  Each kept vector is one term of
    qalg.sum_of_products, its exponent and its binomials (gauss_general,
    cached): the level's sum of products on Z, formed on packed integers,
    then shifted once by -l^2/p0.
    """
    signs = ts.signs

    def step(acc, e, t, x, i):
        return None if 0 <= t < x else acc + ((t, x, signs[i]),)

    walk = _lambda_walk(ts, l, linear_form(ts, chain, l), step, ())
    return sum_of_products((e, [gauss_general(*f) for f in acc])
                           for acc, e, _ in walk).shift(-l * l / ts.p0)


# -- fermionic side --------------------------------------------------------------

def level_series(ts: TSData, l: int, cutoff) -> QSeries:
    """V_l: sum over level-l multiplicity vectors of the quadratic-form
    monomial divided by finite q-factorials in base q**(parity).

    Each vector is divided on its own: the reference for fermionic_sum,
    which divides each q-factorial once for all vectors that share it.  It
    sums on Z up to the cutoff + l^2/p0 and shifts back by -l^2/p0.  The
    vectors come from _level_terms."""
    lead = l * l / ts.p0
    cutoff = as_exp(cutoff) + lead
    terms = (QSeries.monomial(e, 1, cutoff).div_cyclotomic(
        *(eps * i for x, eps in zip(lam, ts.signs) for i in range(1, x + 1)))
        for e, lam in _level_terms(ts, l, cutoff))
    # the zero leads, so a level with no vector keeps the series type and cutoff
    return qsum(chain((QSeries.zero(cutoff),), terms)).shift(-lead)


def _level_terms(ts: TSData, l: int, cutoff: Fraction):
    """(e, lam) for each level-l multiplicity vector lam whose series
    q**e / prod_k (q**s_k; q**s_k)_{lam_k}, e = lam G lam, has a term within
    the cutoff: its least exponent e + sum_{s_k < 0} lam_k (lam_k + 1)/2, an
    integer, is at most floor(cutoff).  The vectors go through _lambda_walk,
    whose step adds each component's part of the least exponent and drops
    the vector at the first partial sum past floor(cutoff), with all the
    vectors sharing its tail if that is where it passed.  Each part,
    lam_k g_k and lam_k (lam_k + 1)/2, is >= 0 as G >= 0 entrywise (checked
    by scaled_form), so every partial sum is a lower bound."""
    signs, limit = ts.signs, floor(cutoff)

    def step(acc, e, t, x, i):
        if signs[i] < 0:
            acc += x * (x + 1) // 2
        return acc if e + acc <= limit else None

    for acc, e, lam in _lambda_walk(ts, l, [0] * ts.dim, step, 0):
        if e + acc <= limit:        # the zero vector takes no step
            yield e, lam


def live_levels(ts: TSData, cutoff) -> list:
    """The sorted levels l with a vector lam, n . lam = l, whose least
    exponent lam G lam + sum_{s_k < 0} lam_k (lam_k + 1)/2 is at most
    floor(cutoff); no vector is enumerated.

    A min-plus pass over the components: as G_ik = n_i r_k for i <= k, the
    prefix lam_0 .. lam_{k-1} enters the rest only through the level so far,
    B = sum n_i lam_i.  Choosing lam_k = c adds c (2 gamma_k + G_kk c), plus
    c (c + 1)/2 if s_k < 0, with gamma_k = r_k B = sum_{i<k} G_ik lam_i and
    G_kk = n_k r_k.  Each state B keeps its least partial exponent, and c
    stops at the first value past the cutoff.  Both are sound because every
    unit of c adds >= 1 and no step lowers the exponent, as scaled_form
    checks r >= 0 with r_k > 0 where s_k > 0; so c <= limit + 1, and a c
    past it raises AssertionError.  The live levels are the final states.
    """
    limit, form = floor(as_exp(cutoff)), scaled_form(ts)   # wide string data fails first
    states = {0: 0} if limit >= 0 else {}
    for n_k, s_k, r_k in zip(form.n, ts.signs, form.r):
        g_kk, half = n_k * r_k, 1 if s_k < 0 else 0
        nxt = {}
        for b, e in states.items():
            gamma, c = r_k * b, 0
            while e <= limit:
                key = b + c * n_k
                if e < nxt.get(key, e + 1):
                    nxt[key] = e
                c += 1
                if c > limit + 1:
                    raise AssertionError(f"live_levels stalls at p0 = {rat_str(ts.p0)}")
                e += 2 * gamma + g_kk * (2 * c - 1) + half * c
        states = nxt
    return sorted(states)


def fermionic_sum(ts: TSData, cutoff) -> QSeries:
    """Sum of q**(l^2/p0) V_l over levels l >= 0, truncated at the cutoff.

    Only the levels of live_levels(ts, cutoff) are enumerated; every other
    level has no term within the cutoff.  Each surviving vector of every
    level is the term (lam G lam, its nonzero (lam_k, s_k)) of
    qalg._qfactorial_sum, which makes a base q**-1 the term's shift and
    sign and divides once per shared prefix of lengths.
    """
    cutoff = as_exp(cutoff)
    signs = ts.signs
    return _qfactorial_sum(((e, [(x, s) for x, s in zip(lam, signs) if x])
                            for l in live_levels(ts, cutoff)
                            for e, lam in _level_terms(ts, l, cutoff)), cutoff)


# -- bosonic side ----------------------------------------------------------------

def kernel_poly(sign: int, k: int, m: int) -> QPolynomial:
    """The universal kernel polynomial; the same for every rational p0."""
    if sign not in (1, -1):
        raise PreconditionError("kernel sign must be +1 or -1")
    if k < m or m < 0:
        raise PreconditionError("kernel needs k >= m >= 0")
    if sign == 1:
        first, second = 0, 2 * k - m
    else:
        first, second = k + m, 0
    return gauss_binomial(k - 1, m, 1).shift(first) + gauss_binomial(k - 1, m - 1, 1).shift(second)


def kernel_offset(alpha: int, k: int, m: int) -> int:
    """Quadratic exponent correction; parity of alpha selects the binomial."""
    if alpha % 2 == 0:
        return comb(k - m, 2) if k - m >= 0 else 0
    return comb(m, 2)


def kernel_sum(k: int) -> QPolynomial:
    """Alternating m-sum of the positive-base kernels at fixed k."""
    if k < 1:
        raise PreconditionError("kernel sum needs k >= 1")
    return qsum(kernel_poly(1, k, m).shift(m * (m + 1) // 2) * (-1) ** m for m in range(k + 1))


def _bosonic_exponent(ts: TSData, k: int, m: int) -> int:
    a = ts.alpha
    quad = (k * ts.y(a + 1) + m * ts.y(a)) * (k * ts.z(a) + m * ts.z(a - 1))
    return quad + kernel_offset(a, k, m)


def _bosonic_k_sum(ts: TSData, cutoff, term) -> QSeries:
    """1 + sum over k >= 1 of term(k, exps) / (q; q)_k up to the cutoff, with
    exps the exponents _bosonic_exponent(ts, k, m), m = 0..k.  The sum stops
    at the first k whose exponents all lie past the cutoff; each k divides
    once."""
    acc = QSeries.one(cutoff)
    for k in count(1):
        exps = [_bosonic_exponent(ts, k, m) for m in range(k + 1)]
        if min(exps) > cutoff:
            return acc
        acc = acc + term(k, exps).truncated(cutoff).div_cyclotomic(*range(1, k + 1))


def bosonic_sum(ts: TSData, cutoff) -> QSeries:
    """Alternating double sum over k >= m >= 0, (k, m) != (0, 0)."""
    cutoff = as_exp(cutoff)
    eps = 1 if ts.alpha % 2 == 0 else -1

    def term(k, exps):
        return qsum(kernel_poly(eps, k, m).shift(e) * (-1) ** (k + m if eps == 1 else m)
                    for m, e in enumerate(exps) if e <= cutoff)

    return _bosonic_k_sum(ts, cutoff, term)


def collapsed_kernel(ts: TSData, k: int) -> QPolynomial:
    """The single-sum kernel L_k obtained by resumming the m index."""
    if k < 1:
        raise PreconditionError("collapsed kernel needs k >= 1")
    a = ts.alpha
    eps = 1 if a % 2 == 0 else -1
    ya, za1 = ts.y(a), ts.z(a - 1)
    cross = ts.y(a + 1) * za1 + 2 * ya * za1 + ya * ts.z(a)
    return qsum(kernel_poly(eps, k, k - m).shift(
        m * m * ya * za1 - k * m * cross + kernel_offset(a, k, k - m)) * (-1) ** m
        for m in range(k + 1))


def bosonic_sum_collapsed(ts: TSData, cutoff) -> QSeries:
    """The bosonic side reorganized as a single sum over k."""
    cutoff = as_exp(cutoff)
    a = ts.alpha
    base = (ts.y(a + 1) + ts.y(a)) * (ts.z(a) + ts.z(a - 1))
    sgn = -1 if a % 2 else 1
    return _bosonic_k_sum(
        ts, cutoff, lambda k, _: collapsed_kernel(ts, k).shift(k * k * base) * sgn ** k)


# -- integer p0: Gordon-Andrews forms ---------------------------------------------

def gordon_andrews_sum(ts: TSData, cutoff) -> QSeries:
    """1 + sum over k of (-1)**k q**(k^2 p0 + k(k-1)/2) (1 + q**k), integer p0."""
    p0 = ts.integer_p0("this form")
    cutoff = as_exp(cutoff)
    terms = [(0, 1)]
    for k in count(1):
        e = k * k * p0 + k * (k - 1) // 2
        if e > cutoff:
            return QSeries(terms, cutoff)
        terms += [(e, (-1) ** k), (e + k, (-1) ** k)]


def gordon_andrews_products(ts: TSData, cutoff) -> tuple:
    """Modulus-(2 p0 + 1) product forms for integer p0.

    Returns (triple_product, residue_product): the first equals the fermionic
    sum itself; the second is the reciprocal product over residue classes
    n != 0, p0, p0+1 mod 2p0+1 and equals the fermionic sum divided by the
    Euler product.
    """
    p0 = ts.integer_p0("this form")
    cutoff = as_exp(cutoff)
    mod = 2 * p0 + 1
    triple = product_expand(
        [(1, mod, 0), (1, mod, -(p0 + 1)), (1, mod, -p0)], cutoff)
    residues = [r for r in range(1, mod) if r not in (p0, p0 + 1)]
    residue_prod = product_expand([(-1, mod, r - mod) for r in residues], cutoff)
    return triple, residue_prod


def divide_by_euler(series: QSeries) -> QSeries:
    """Divide by the Euler product, i.e. multiply by the partition series."""
    if series.cutoff is None:
        raise PreconditionError("dividing by the Euler product needs a cutoff")
    span = floor(series.cutoff - (series.min_exp() or 0))
    return series.div_cyclotomic(*range(1, span + 1))


# -- reports ----------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    p0: Fraction
    cutoff: Fraction
    lhs: QSeries
    rhs: QSeries
    agree: bool
    first_discrepancy: tuple | None

    def to_json_dict(self) -> dict:
        def series_terms(s: QSeries):
            return [[rat_str(e), c] for e, c in s.terms.items()]
        disc = None
        if self.first_discrepancy is not None:
            e, a, b = self.first_discrepancy
            disc = {"exponent": rat_str(e), "lhs": a, "rhs": b}
        return {
            **report_header(self.p0),
            "cutoff": rat_str(self.cutoff),
            "lhs": series_terms(self.lhs),
            "rhs": series_terms(self.rhs),
            "agree": self.agree,
            "first_discrepancy": disc,
        }


def check_identity(ts: TSData, cutoff) -> IdentityReport:
    """Compare the fermionic and bosonic sides term-by-term up to the cutoff."""
    cutoff = as_exp(cutoff)
    if cutoff < 0:
        raise PreconditionError(f"identity cutoff must be nonnegative, got {rat_str(cutoff)}")
    lhs = fermionic_sum(ts, cutoff)
    rhs = bosonic_sum(ts, cutoff)
    disc = lhs.first_discrepancy(rhs)
    return IdentityReport(ts.p0, cutoff, lhs, rhs, disc is None, disc)
