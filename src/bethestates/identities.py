"""q-series identities: fermionic level sums against bosonic alternating sums.

The fermionic side sums q**(l^2/p0) * V_l over all levels, where V_l is the
generating series of states at level l: a level-l vector lam adds q**(lam G
lam) / prod_k (q**s_k; q**s_k)_{lam_k} to the sum, G = Theta~ + n n^t/p0 an
integer matrix.  The bosonic side is an alternating double sum whose kernel
polynomials are the same for every rational p0.  For integer p0 the bosonic
side collapses further to the classical
Gordon-Andrews alternating sum and, via the Jacobi triple product, to
modulus-(2 p0 + 1) products.  All comparisons are exact and term-by-term up
to a truncation cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import comb, floor
from operator import mul

from .configs import _dual_walk, enumerate_lambda
from .qalg import QPolynomial, QSeries, as_exp, gauss_binomial, product_expand, qsum
from .spectral import ChainSpec, scaled_form
from .tsdata import TSData, string_weights
from .util import PreconditionError, rat_str, report_header


# -- q-analog of the state count ------------------------------------------------

def gauss_general(top: int, b: int, base_sign: int = 1) -> QPolynomial:
    """Gaussian binomial extended to negative tops.

    For top < 0 the standard negation identity gives a signed Laurent
    polynomial whose value at q = 1 is the generalized binomial.
    """
    if base_sign not in (1, -1):
        raise PreconditionError("base_sign must be +1 or -1")
    if b < 0:
        return QPolynomial.zero()
    if top >= 0:
        return gauss_binomial(top, b, base_sign)
    poly = gauss_binomial(b - top - 1, b, 1).shift(top * b - b * (b - 1) // 2) * (-1) ** b
    return poly.subs_inverse() if base_sign == -1 else poly


def q_count(ts: TSData, chain: ChainSpec, l: int) -> QPolynomial:
    """q-analog of the state count at level l (a Laurent polynomial).

    Each admissible multiplicity vector contributes its quadratic-form
    monomial q**(lam Theta~ lam) times a product of Gaussian binomials in base
    q**(parity).  Evaluating at q = 1 recovers the plain count.  The vectors,
    their tops and lam G lam = lam Theta~ lam + l^2/p0 come from the counting
    walk of configs, which skips every vector with a vanishing binomial; the
    terms are added in place on Z by one qsum, shifted once by -l^2/p0.
    """
    def terms():
        for factors, e in _dual_walk(ts, chain, l):
            term = QPolynomial.one()
            for t, x, i in factors:
                term = term * gauss_general(t, x, ts.signs[i])
            yield term.shift(e)

    return qsum(terms()).shift(-l * l / ts.p0)


# -- fermionic side --------------------------------------------------------------

def level_series(ts: TSData, l: int, cutoff) -> QSeries:
    """V_l: sum over level-l multiplicity vectors of the quadratic-form
    monomial divided by finite q-factorials in base q**(parity).

    Each vector is divided on its own: the reference for fermionic_sum,
    which divides each q-factorial once for all vectors that share it.  It
    sums on Z up to the cutoff + l^2/p0 and shifts back by -l^2/p0."""
    lead = l * l / ts.p0
    cutoff = as_exp(cutoff) + lead
    acc = QSeries.zero(cutoff)
    for e, lam in _level_terms(ts, l, cutoff):
        acc = acc + QSeries.monomial(e, 1, cutoff).div_cyclotomic(
            *(eps * i for x, eps in zip(lam, ts.signs) for i in range(1, x + 1)))
    return acc.shift(-lead)


def _level_terms(ts: TSData, l: int, cutoff: Fraction):
    """(e, lam) for each level-l multiplicity vector lam whose series
    q**e / prod_k (q**s_k; q**s_k)_{lam_k}, e = lam . g = lam G lam,
    g = ScaledForm.dual(lam, l), has a term within the cutoff.  Its least
    exponent is e + sum_{s_k < 0} lam_k (lam_k + 1)/2, an integer, so vectors
    whose series lies wholly past the cutoff are skipped without any series
    work."""
    dual, signs, limit = scaled_form(ts).dual, ts.signs, floor(cutoff)
    for lam in enumerate_lambda(ts, l):
        e = sum(map(mul, lam, dual(lam, l)))
        if e + sum(x * (x + 1) for x, s in zip(lam, signs) if s < 0) // 2 <= limit:
            yield e, lam


def _trie_sum(groups: dict, cutoff: Fraction) -> QSeries:
    """Sum over groups {path: [e, ...]} of q**e divided by the q-factorials
    on the path, each (q**s; q**s)_x written as the signed length s * x.

    The paths are the leaves of a trie whose nodes are their prefixes; in
    sorted order, paths that share a prefix are adjacent.  Bottom-up, a
    node's value is its own monomials plus its children's values, each
    divided by that child's q-factorial in one div_cyclotomic call.  The walk
    is iterative, as a path can be dim deep; only the sums along the current
    path are held, and each group is dropped once read.
    """
    path, sums = [], [QSeries.zero(cutoff)]

    def close():
        f = path.pop()
        s = 1 if f > 0 else -1
        top = sums.pop()
        sums[-1] = sums[-1] + top.div_cyclotomic(*range(s, f + s, s))

    for key in sorted(groups):
        common = 0
        while common < min(len(path), len(key)) and path[common] == key[common]:
            common += 1
        while len(path) > common:
            close()
        for factor in key[common:]:
            path.append(factor)
            sums.append(QSeries.zero(cutoff))
        sums[-1] = sums[-1] + QSeries([(e, 1) for e in groups.pop(key)], cutoff)
    while path:
        close()
    return sums[0]


def dead_level_window(ts: TSData) -> int:
    """W = max n_k: fermionic_sum stops after W consecutive dead levels,
    levels with no vector that has a term within the cutoff.

    The least exponent of the series of lam is e(lam) = lam G lam +
    sum_{s_k < 0} lam_k (lam_k + 1)/2, an integer, with G = Theta~ + n n^t/p0
    (l^2/p0 included, l = n . lam), whose column k is ScaledForm.dual(e_k,
    n_k).  Checked here (AssertionError otherwise): G >= 0 entrywise, and
    G_kk = 0 only where s_k < 0.  So raising lam_k by one adds 2 (G lam)_k +
    G_kk, plus lam_k + 1 if s_k < 0: e grows by >= 1 in every component.
    Proof: if levels l0 .. l0 + W - 1 are dead, lower a vector at a level
    >= l0 + W one unit at a time.  Each step drops the level by n_k <= W, so
    it meets a vector it dominates in that window, which is past the cutoff,
    and so is it.  The loop ends, as e(lam) >= sum lam_k >= l / W.
    """
    form, weights = scaled_form(ts), string_weights(ts)
    for k, (n_k, s_k) in enumerate(zip(weights, ts.signs)):
        column = form.dual([int(j == k) for j in range(ts.dim)], n_k)
        if min(column) < 0 or (column[k] == 0 and s_k > 0):
            raise AssertionError(
                f"fermionic exponent not monotone at p0 = {ts.p0}, row {k + 1}")
    return max(weights)


def fermionic_sum(ts: TSData, cutoff) -> QSeries:
    """Sum of q**(l^2/p0) V_l over levels l >= 0, truncated at the cutoff.

    The level loop stops after dead_level_window(ts) consecutive dead levels;
    that function proves that no later level has a term within the cutoff.
    The surviving vectors of all levels are grouped by their q-factorials
    and summed in one _trie_sum, so each q-factorial divides once.
    """
    cutoff = as_exp(cutoff)
    window = dead_level_window(ts)
    # signed lengths s_k * lam_k of the nonzero lam_k, largest |.| first (so
    # the longest divisions sit nearest the root) -> e of each such vector
    groups = {}
    dead = l = 0
    while dead < window:
        live = False
        for e, lam in _level_terms(ts, l, cutoff):
            live = True
            path = tuple(sorted((s * x for x, s in zip(lam, ts.signs) if x),
                                key=lambda f: (abs(f), f), reverse=True))
            groups.setdefault(path, []).append(e)
        dead = 0 if live else dead + 1
        l += 1
    return _trie_sum(groups, cutoff)


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
    out = QPolynomial.zero()
    for m in range(k + 1):
        out = out + kernel_poly(1, k, m).shift(m * (m + 1) // 2) * (-1) ** m
    return out


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
        out = QPolynomial.zero()
        for m, e in enumerate(exps):
            if e <= cutoff:
                sgn = (-1) ** (k + m) if eps == 1 else (-1) ** m
                out = out + kernel_poly(eps, k, m).shift(e) * sgn
        return out

    return _bosonic_k_sum(ts, cutoff, term)


def collapsed_kernel(ts: TSData, k: int) -> QPolynomial:
    """The single-sum kernel L_k obtained by resumming the m index."""
    if k < 1:
        raise PreconditionError("collapsed kernel needs k >= 1")
    a = ts.alpha
    eps = 1 if a % 2 == 0 else -1
    ya, za1 = ts.y(a), ts.z(a - 1)
    cross = ts.y(a + 1) * za1 + 2 * ya * za1 + ya * ts.z(a)
    out = QPolynomial.zero()
    for m in range(k + 1):
        e = m * m * ya * za1 - k * m * cross + kernel_offset(a, k, k - m)
        out = out + kernel_poly(eps, k, k - m).shift(e) * (-1) ** m
    return out


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
    acc = QSeries.one(cutoff)
    k = 1
    while True:
        e = k * k * p0 + k * (k - 1) // 2
        if e > cutoff:
            break
        poly = QPolynomial({Fraction(e): (-1) ** k, Fraction(e + k): (-1) ** k})
        acc = acc + poly.truncated(cutoff)
        k += 1
    return acc


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
