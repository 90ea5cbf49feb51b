"""Exact linear algebra for the string coupling matrix and vacancy forms.

The symmetric tridiagonal integer matrix C (the inverse coupling matrix) is
built from the zone ends and the parities s_j, and the offset vector from
s_j and the lengths n_j, both read from TSData.signs and string_weights.
Its exact inverse Theta defines the quadratic form B = 2*Theta.  The
continuant recurrence for the leading minors of C gives |det C| = den in
integers, and with the trailing minors the signed adjugate
den * Theta, so no dense elimination is needed.  The parity matrix E and
the offset vector b complete the linear form whose j-th component equals
P_j(lambda) + lambda_j.  scaled_form is the one coding of the integer
matrix G = Theta~ + n n^t/p0, n the string lengths, by its generators: r =
G e_1, an integer row from one back-substitution in the signed bands of
S C S = Theta~^-1, and G_ij = n_min(i,j) r_max(i,j).  So g = G lam is
r_i B_i + n_i R_i on suffix sums of lam (ScaledForm.dual), every top is
local in g, and vacancy_linear_form, the lambda walk of configs and the
live-level pass of identities read n and r alone.  scaled_form checks once
per p0, in O(dim), that n and r generate the inverse of the bands and that
r >= 0, so G >= 0.  The dense rows of Theta are built on demand only, for
coupling_matrix (display) and the per-vector reference of configs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import mul

from .tsdata import TSData, admissible_spin, admissible_spins, phase_shift, string_weights
from .util import PreconditionError, check_level, exact_rational, frac_part, integral

# Widest string data (number of string types) accepted.  scaled_form is O(dim);
# the ceiling guards the dim^2 theta display and the level loops over
# dim-long vectors.  201/2 has dim 102.
MAX_DIM = 1000


class RationalMatrix:
    """Dense square matrix of exact rationals, as a value for display and tests."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise PreconditionError("matrix must be square")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix[{body}]"


def leading_minors(diag, off) -> list:
    """[1, theta_1, ..., theta_n], the leading minors of the symmetric tridiagonal
    matrix with diagonal diag and off-diagonal off, by the continuant recurrence
    theta_k = a_k theta_{k-1} - b_{k-1}^2 theta_{k-2}; theta_n is the determinant."""
    theta = [1, diag[0]]
    for k in range(1, len(diag)):
        theta.append(diag[k] * theta[k] - off[k - 1] ** 2 * theta[k - 1])
    return theta


def tridiagonal_adjugate(diag, off) -> tuple:
    """(det, adj) of the symmetric tridiagonal integer matrix with diagonal
    diag and off-diagonal off, from the continuant recurrences.

    theta_k are the leading minors, and phi_k, the trailing minor from row k,
    the leading minors of the reversed bands; the adjugate is
    adj_ij = (-1)^(i+j) b_i ... b_{j-1} theta_{i-1} phi_{j+1} for i <= j.
    No minor is divided by, so a vanishing leading minor needs no pivoting.
    """
    n = len(diag)
    theta = leading_minors(diag, off)
    phi = leading_minors(diag[::-1], off[::-1])[::-1]
    det = theta[n]
    if det == 0:
        raise PreconditionError("tridiagonal matrix is singular")
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        p = theta[i]
        for j in range(i, n):
            adj[i][j] = adj[j][i] = p * phi[j + 1]
            if j + 1 < n:
                p *= -off[j]
    return det, adj


@dataclass(frozen=True)
class ChainSpec:
    """A spin chain: species (two_s, multiplicity) at anisotropy p0."""

    p0: Fraction
    species: tuple

    def __init__(self, p0, species):
        object.__setattr__(self, "p0", exact_rational(p0, "p0"))
        object.__setattr__(self, "species",
                           tuple(integral((s, n), "species entries") for s, n in species))
        for two_s, count in self.species:
            if two_s < 1 or count < 1:
                raise PreconditionError("species need two_s >= 1 and multiplicity >= 1")

    @property
    def n_total(self) -> int:
        """N = sum of 2*s_m*N_m (total number of spin-1/2 units)."""
        return sum(two_s * count for two_s, count in self.species)

    @property
    def s_sum(self) -> Fraction:
        return Fraction(self.n_total, 2)

    @property
    def sites(self) -> int:
        return sum(count for _, count in self.species)

    def mu(self) -> tuple:
        """The composition (2s_1, ..., 2s_1, 2s_2, ...) with repetitions."""
        out = []
        for two_s, count in self.species:
            out.extend([two_s] * count)
        return tuple(out)

    def require_p0(self, p0) -> None:
        """PreconditionError unless the chain was specified at anisotropy p0."""
        if self.p0 != p0:
            raise PreconditionError("chain and string data disagree on p0")

    def dimension(self) -> int:
        """Total Hilbert-space dimension, the product of (2s_m+1)**N_m."""
        out = 1
        for two_s, count in self.species:
            out *= (two_s + 1) ** count
        return out


def coupling_bands(ts: TSData) -> tuple:
    """Diagonal and off-diagonal of the coupling inverse, from the parities
    s_j of TSData.signs: diag_j = s_j on the last type of each zone and on
    type dim, 2 s_j elsewhere, and off_j = -s_j for j >= 2.

    String data wider than MAX_DIM is rejected here, before any caller builds
    a matrix.
    """
    dim = ts.dim
    if dim < 1:
        raise PreconditionError("coupling matrix needs at least one string type")
    if dim > MAX_DIM:
        raise PreconditionError(
            f"string data too wide: dim {dim} exceeds the ceiling of {MAX_DIM}")
    ends = {m - 1 for m in ts.bounds[1:]} | {dim}
    diag = [s if j in ends else 2 * s for j, s in enumerate(ts.signs, 1)]
    return diag, [-s for s in ts.signs[1:]]


def coupling_inverse(ts: TSData) -> RationalMatrix:
    """Symmetric tridiagonal integer matrix fixed by the zone structure."""
    diag, off = coupling_bands(ts)
    rows = [[0] * len(diag) for _ in diag]
    for k, d in enumerate(diag):
        rows[k][k] = d
    for k, b in enumerate(off):
        rows[k][k + 1] = rows[k + 1][k] = b
    return RationalMatrix(rows)


def _parity_entries(ts: TSData) -> list:
    """(i, j, value) of the nonzero entries of the parity matrix E."""
    signs = ts.signs
    out = [(k, k, sign) for k, sign in enumerate(signs)]
    if len(signs) >= 2:
        last = len(signs) - 1
        out += [(last - 1, last, -signs[-1]), (last, last - 1, signs[-2])]
    return out


def parity_matrix(ts: TSData) -> RationalMatrix:
    """Diagonal parity signs with a swap in the last corner block."""
    rows = [[0] * ts.dim for _ in range(ts.dim)]
    for i, j, e in _parity_entries(ts):
        rows[i][j] = e
    return RationalMatrix(rows)


def _back_substitute(diag, off, last: int, lift: int) -> list:
    """g with g_dim = last and rows 2..dim of B g = lift e_dim, B the
    symmetric tridiagonal matrix with the bands diag and off, every off entry
    +-1, last row first: g_{i-1} = -b_{i-1} (a_i g_i + b_i g_{i+1})."""
    g = [0] * len(diag)
    g[-1] = last
    below = -lift                   # b_i g_{i+1}, or the last row's raise
    for i in range(len(g) - 1, 0, -1):
        g[i - 1] = -off[i - 1] * (diag[i] * g[i] + below)
        below = off[i - 1] * g[i]
    return g


@dataclass(frozen=True)
class ScaledForm:
    """The integer matrix G = Theta~ + n n^t/p0 by its generators, in O(dim)
    integers; no dense row is kept.

    den = |det C| = numerator(p0), Theta~_ij = s_i s_j Theta_ij with
    s = ts.signs, and den * Theta~ is integral, as den * Theta = sign(det) adj C.

    n holds the string lengths and r = G e_1 an integer row, and G_ij =
    n_min(i,j) r_max(i,j): G is semiseparable, generated by n and r (Meurant,
    SIAM J. Matrix Anal. Appl. 13, 1992), so G >= 0 exactly when r >= 0.
    diag and off are the bands of S C S = Theta~^-1, S = diag(s), every off
    entry +-1, with (S C S) n = sigma den e_dim; scaled_form checks the
    generators against them.
    """

    den: int
    diag: tuple
    off: tuple
    sigma: int
    n: tuple
    r: tuple

    def dual(self, lam, level: int) -> list:
        """g = G lam + (level - n . lam) r in O(dim), last component first:
        g_i = r_i B_i + n_i R_i with B_i = level - sum_{j>i} n_j lam_j and
        R_i = sum_{j>i} r_j lam_j.  At level = n . lam this is G lam."""
        g, b, rs = [], level, 0
        for n_i, r_i, x in zip(reversed(self.n), reversed(self.r), reversed(lam)):
            g.append(r_i * b + n_i * rs)
            b -= n_i * x
            rs += r_i * x
        return g[::-1]


def _nonmonotone_rows(form: ScaledForm, ts: TSData):
    """The rows k (from 1) where G_ik < 0 for some i <= k, or G_kk = 0 with
    s_k > 0, in O(dim).  G_ik = n_i r_k for i <= k and n > 0, so these are
    the k with r_k < 0, or r_k = 0 and s_k > 0."""
    for k, (r_k, s_k) in enumerate(zip(form.r, ts.signs), 1):
        if r_k < 0 or (r_k == 0 and s_k > 0):
            yield k


def _disagreeing_rows(form: ScaledForm, q: int):
    """The rows k (from 1) where (S C S) M = den I fails, M_ij = n_min(i,j)
    v_max(i,j), v = den r - q n, in O(dim); where none fails, den G = M + q n
    n^t.  Off the diagonal, column j of (S C S) M is v_j (S C S) n = 0 above
    row j, as scaled_form checks, and n_j (S C S) v below it, so v must solve
    the band recurrence on rows k > 1, and the diagonal be den."""
    n, off, z = form.n, form.off, (0,)
    v = [form.den * r_k - q * n_k for r_k, n_k in zip(form.r, n)]
    # row k: b_{k-1}, a_k, b_k, the entries k-1, k of n and k-1, k, k+1 of v
    for k, (b0, a, b1, n0, n1, v0, v1, v2) in enumerate(zip(
            z + off, form.diag, off + z, (0, *n), n, (0, *v), v, (*v[1:], 0)), 1):
        if (k > 1 and b0 * v0 + a * v1 + b1 * v2) or \
                (b0 * n0 + a * n1) * v1 + b1 * n1 * v2 != form.den:
            yield k


@lru_cache(maxsize=16)
def scaled_form(ts: TSData) -> ScaledForm:
    """The one exact coding of G; every production consumer reads its
    integers from here.  O(dim): |det C| is the last leading minor, and r
    solves rows 2..dim of (S C S) r = sigma q e_dim from r_dim = (sigma +
    q n_dim)/den by back-substitution, q = denominator(p0).  The
    prunes of the fermionic sum need G >= 0 entrywise and G_kk > 0 where s_k
    > 0, and n and r to generate G: both are checked here, once per p0 and
    in O(dim), and raise AssertionError otherwise."""
    diag, off = coupling_bands(ts)
    signs = ts.signs
    # S C S, S = diag(signs), has the same determinant and the inverse Theta~
    off = [b * s * t for b, s, t in zip(off, signs, signs[1:])]
    den = abs(leading_minors(diag, off)[-1])
    if den != ts.p0.numerator:
        raise AssertionError(f"|det C| = {den} is not the numerator of p0 = {ts.p0}")
    n = string_weights(ts)
    scs_n = [d * x for d, x in zip(diag, n)]
    for k, b in enumerate(off):
        scs_n[k] += b * n[k + 1]
        scs_n[k + 1] += b * n[k]
    sigma = scs_n[-1] // den
    if any(scs_n[:-1]) or sigma not in (1, -1) or scs_n[-1] != sigma * den:
        raise AssertionError(f"(S C S) n = {scs_n} is not +-{den} e_dim at p0 = {ts.p0}")
    q = ts.p0.denominator
    last, rest = divmod(sigma + q * n[-1], den)
    if rest:
        raise AssertionError(f"G = Theta~ + n n^t/p0 is not integral at p0 = {ts.p0}")
    r = _back_substitute(diag, off, last, sigma * q)
    form = ScaledForm(den, tuple(diag), tuple(off), sigma, n, tuple(r))
    for k in _nonmonotone_rows(form, ts):
        raise AssertionError(f"fermionic exponent not monotone at p0 = {ts.p0}, row {k}")
    for k in _disagreeing_rows(form, q):
        raise AssertionError(
            f"generators of G disagree with the bands of S C S at p0 = {ts.p0}, row {k}")
    return form


def coupling_matrix(ts: TSData) -> RationalMatrix:
    """Theta = adj C / det C, the exact inverse, as dense rows built on demand."""
    det, adj = tridiagonal_adjugate(*coupling_bands(ts))
    return RationalMatrix([[Fraction(x, det) for x in row] for row in adj])


@lru_cache(maxsize=16)
def _phase_vector(ts: TSData, chain: ChainSpec) -> tuple:
    """(s_j n_j, s_j sum_m 2 N_m Phi(j, 2s_m)) for j = 1..dim: the parts of
    the offset vector that do not depend on the level, once per chain."""
    return tuple((sign * n, sign * sum(2 * phase_shift(ts, j, two_s) * count
                                       for two_s, count in chain.species))
                 for j, (sign, n) in enumerate(zip(ts.signs, string_weights(ts)), 1))


def offset_vector(ts: TSData, chain: ChainSpec, l: int):
    """The inhomogeneous vector b of the vacancy linear form at level l."""
    chain.require_p0(ts.p0)
    check_level(l)
    f = frac_part(Fraction(chain.n_total - 2 * l) / ts.p0)
    return [n * f - phases for n, phases in _phase_vector(ts, chain)]


def _runs(values) -> str:
    """Ascending integers as text, each run of three or more consecutive
    values written a..b: [1, 2, 3, 4, 7, 8] -> '1..4, 7, 8'."""
    parts = []
    for _, run in groupby(enumerate(values), lambda iv: iv[1] - iv[0]):
        run = [v for _, v in run]
        parts += [f"{run[0]}..{run[-1]}"] if len(run) >= 3 else map(str, run)
    return ", ".join(parts)


def require_classified_spins(ts: TSData, chain: ChainSpec) -> None:
    """PreconditionError, naming the offending 2s and the admissible ones,
    unless every spin of the chain lies inside the string classification:
    a chain with another spin has no Bethe states.  Checked once per chain
    by each counting route, never per configuration."""
    bad = sorted({two_s for two_s, _ in chain.species if not admissible_spin(ts, two_s)})
    if bad:
        ok = _runs(admissible_spins(ts)) or "none"
        raise PreconditionError(
            f"chain has 2s = {', '.join(map(str, bad))} outside the string classification "
            f"at p0 = {ts.p0}; admissible 2s: {ok}")


@lru_cache(maxsize=16)
def _level_zero_form(ts: TSData, chain: ChainSpec) -> tuple:
    """h(0) = b(0), the offset vector at level 0, as integers, once per
    chain; AssertionError if it is fractional, which lru_cache does not keep."""
    h = offset_vector(ts, chain, 0)
    if any(x.denominator != 1 for x in h):
        raise AssertionError("fractional top at level 0")
    return tuple(map(int, h))


def linear_form(ts: TSData, chain: ChainSpec, l: int) -> list:
    """h = b + 2 l S n/p0, b the offset vector at level l, as integers.

    The entry of the linear-form counting routes: a chain with a spin outside
    the string classification is rejected here, before any lambda is
    enumerated.  A top is h_i - 2 s_i g_i + lam_i + E's corner with
    g = G lam integral, so a fractional h raises AssertionError.  As b_j =
    s_j n_j frac((N - 2l)/p0) - phases_j, h(l) - h(0) = S n (floor(N/p0) -
    floor((N - 2l)/p0)) is an integer vector: h(0) is built and checked
    once per chain (_level_zero_form), and every level adds that integer
    step to it, so the lattice check holds at every level.
    """
    form = scaled_form(ts)      # string data wider than MAX_DIM is rejected first
    require_classified_spins(ts, chain)
    check_level(l)
    try:
        h0 = _level_zero_form(ts, chain)
    except AssertionError:
        raise AssertionError(f"fractional top at level {l}") from None
    p, q, big_n = ts.p0.numerator, ts.p0.denominator, chain.n_total
    step = big_n * q // p - (big_n - 2 * l) * q // p
    return [h + s * n * step for h, s, n in zip(h0, ts.signs, form.n)]


def vacancy_linear_form(ts: TSData, chain: ChainSpec, l: int, lam):
    """((E - B) lam~ + b) componentwise; subtract lambda_j to get P_j.

    lam~ flips the sign of odd-zone components; component i is b_i -
    2 s_i (g_i - n_i L/p0) + (E lam~)_i, g = ScaledForm.dual(lam, L) = G lam
    at L = n . lam.  Any spin is accepted, also one outside the string
    classification that the counting routes reject; components may then be
    non-integral rationals, but never floats: lam must be integral.
    """
    lam = integral(lam, "lambda entries")
    if len(lam) != ts.dim:
        raise PreconditionError("lambda vector has wrong length")
    if any(x < 0 for x in lam):
        raise PreconditionError("lambda entries must be nonnegative")
    form = scaled_form(ts)
    level = sum(map(mul, form.n, lam))
    out = [b - 2 * s * (x - n * level / ts.p0)
           for s, x, n, b in zip(ts.signs, form.dual(lam, level), form.n,
                                 offset_vector(ts, chain, l))]
    for i, j, e in _parity_entries(ts):
        out[i] += e * ts.signs[j] * lam[j]
    return out
