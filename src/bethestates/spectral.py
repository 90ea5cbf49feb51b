"""Exact linear algebra for the string coupling matrix and vacancy forms.

The symmetric tridiagonal integer matrix C (the inverse coupling matrix) is
built zone by zone; its exact inverse Theta defines the quadratic form
B = 2*Theta.  The continuant recurrence for the leading minors of C gives
|det C| = den in integers, and with the trailing minors the signed adjugate
den * Theta, so no dense elimination is needed.  The parity matrix E and
the offset vector b complete the linear form whose j-th component equals
P_j(lambda) + lambda_j.  scaled_form is the one coding of the integer
matrix G = Theta~ + n n^t/p0, n the string lengths, kept as the signed bands
of S C S = Theta~^-1 in O(dim): ScaledForm.dual gives g = G lam by
back-substitution, and every top is local in g, so vacancy_linear_form, the
quadratic form of the fermionic sum and the counting walk of configs all
read the bands.  The dense rows of Theta are built on demand only, for
coupling_matrix (display) and the per-vector reference of configs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import mul

from .tsdata import (TSData, admissible_spin, admissible_spins, phase_shift,
                     string_length, string_weights, zone)
from .util import PreconditionError, check_level, exact_p0, frac_part, integral

# Widest string data (number of string types) accepted.  scaled_form is O(dim);
# the ceiling guards the dim^2 theta display, dead_level_window's O(dim^2)
# column scan and the level loops over dim-long vectors.  201/2 has dim 102.
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
        object.__setattr__(self, "p0", exact_p0(p0))
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
    """Diagonal and off-diagonal of the coupling inverse, fixed by the zones.

    String data wider than MAX_DIM is rejected here, before any caller builds
    a matrix.
    """
    dim = ts.dim
    if dim < 1:
        raise PreconditionError("coupling matrix needs at least one string type")
    if dim > MAX_DIM:
        raise PreconditionError(
            f"string data too wide: dim {dim} exceeds the ceiling of {MAX_DIM}")
    diag, off = [], []
    for j in range(1, dim + 1):
        i = zone(ts, j)
        if j == ts.m(ts.alpha + 1):
            diag.append((-1) ** (ts.alpha + 1))
        elif j == ts.m(i + 1) - 1:
            diag.append((-1) ** i)
        else:
            diag.append(2 * (-1) ** i)
        if j >= 2:
            off.append(-((-1) ** i))
    return diag, off


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


@dataclass(frozen=True)
class ScaledForm:
    """Theta~ as the bands of its inverse, which also give the integer matrix
    G = Theta~ + n n^t/p0, in O(dim) integers; no dense row is kept.

    den = |det C| = numerator(p0), Theta~_ij = s_i s_j Theta_ij with
    s = ts.signs, and den * Theta~ is integral, as den * Theta = sign(det) adj C.

    diag and off are the bands of S C S = Theta~^-1, S = diag(s); every off
    entry is +-1.  With n the string lengths, (S C S) n = sigma den e_dim, so
    g = G lam solves (S C S) g = lam + lift (n . lam) e_dim, lift = sigma q,
    q = denominator(p0), and g_dim = last (n . lam), last = (sigma + q n_dim)/den.
    """

    den: int
    diag: tuple
    off: tuple
    sigma: int
    lift: int
    last: int

    def dual(self, lam, level: int) -> list:
        """g with g_dim = last * level and rows 2..dim of (S C S) g = lam +
        lift * level * e_dim, last row first: g_{i-1} = b_{i-1} (lam_i - a_i g_i
        - b_i g_{i+1}).  At level = n . lam this is g = G lam, in O(dim)."""
        diag, off = self.diag, self.off
        g = [0] * len(diag)
        g[-1] = self.last * level
        below = -self.lift * level      # b_i g_{i+1}, or the last row's raise
        for i in range(len(g) - 1, 0, -1):
            g[i - 1] = off[i - 1] * (lam[i] - diag[i] * g[i] - below)
            below = off[i - 1] * g[i]
        return g


@lru_cache(maxsize=16)
def scaled_form(ts: TSData) -> ScaledForm:
    """The one exact coding of G; every production consumer reads its
    integers from here.  O(dim): |det C| is the last leading minor."""
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
    return ScaledForm(den, tuple(diag), tuple(off), sigma, sigma * q, last)


def coupling_matrix(ts: TSData) -> RationalMatrix:
    """Theta = adj C / det C, the exact inverse, as dense rows built on demand."""
    det, adj = tridiagonal_adjugate(*coupling_bands(ts))
    return RationalMatrix([[Fraction(x, det) for x in row] for row in adj])


@lru_cache(maxsize=16)
def _phase_vector(ts: TSData, chain: ChainSpec) -> tuple:
    """(s_j n_j, s_j sum_m 2 N_m Phi(j, 2s_m)) for j = 1..dim: the parts of
    the offset vector that do not depend on the level, once per chain."""
    return tuple((sign * string_length(ts, Fraction(j)),
                  sign * sum(2 * phase_shift(ts, j, two_s) * count
                             for two_s, count in chain.species))
                 for j, sign in enumerate(ts.signs, 1))


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


def linear_form(ts: TSData, chain: ChainSpec, l: int) -> list:
    """h = b + 2 l S n/p0, b the offset vector at level l, as integers.

    The entry of the counting routes: a chain with a spin outside the string
    classification has no Bethe states and is rejected here, before any
    lambda is enumerated.  A top is h_i - 2 s_i g_i + lam_i + E's corner with
    g = ScaledForm.dual(lam, l) integral, so a fractional h raises AssertionError.
    """
    scaled_form(ts)             # string data wider than MAX_DIM is rejected first
    bad = sorted({two_s for two_s, _ in chain.species if not admissible_spin(ts, two_s)})
    if bad:
        ok = _runs(admissible_spins(ts)) or "none"
        raise PreconditionError(
            f"chain has 2s = {', '.join(map(str, bad))} outside the string classification "
            f"at p0 = {ts.p0}; admissible 2s: {ok}")
    h = [b + 2 * l * s * n / ts.p0
         for b, s, n in zip(offset_vector(ts, chain, l), ts.signs, string_weights(ts))]
    if any(x.denominator != 1 for x in h):
        raise AssertionError(f"fractional top at level {l}")
    return [int(x) for x in h]


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
    form, weights = scaled_form(ts), string_weights(ts)
    level = sum(map(mul, weights, lam))
    out = [b - 2 * s * (x - n * level / ts.p0)
           for s, x, n, b in zip(ts.signs, form.dual(lam, level), weights,
                                 offset_vector(ts, chain, l))]
    for i, j, e in _parity_entries(ts):
        out[i] += e * ts.signs[j] * lam[j]
    return out
