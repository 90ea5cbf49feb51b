"""Exact linear algebra for the string coupling matrix and vacancy forms.

The symmetric tridiagonal integer matrix C (the inverse coupling matrix) is
built zone by zone; its exact inverse Theta defines the quadratic form
B = 2*Theta.  Theta comes from the continuant recurrences for the leading and
trailing minors of C, in integers: |det C| = den and den * Theta is the
signed adjugate, so no dense elimination is needed.  The parity matrix E and
the offset vector b complete the linear form whose j-th component equals
P_j(lambda) + lambda_j.  scaled_form is the one coding of Theta and E - B on
the lattice (1/den)Z, den = numerator(p0); the counting routes, the quadratic
form and vacancy_linear_form all read it.  E - B is kept as parity-signed
columns, so apply_form evaluates the form in O(dim) per nonzero lambda
component."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, repeat
from operator import add, mul

from .tsdata import (TSData, admissible_spin, admissible_spins, phase_shift,
                     string_length, zone)
from .util import PreconditionError, frac_part

# Widest string data (number of string types) whose Theta and linear form are
# built; wider data is rejected before any O(dim^2) work.  201/2 has dim 102.
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


def tridiagonal_adjugate(diag, off) -> tuple:
    """(det, adj) of the symmetric tridiagonal integer matrix with diagonal
    diag and off-diagonal off, from the continuant recurrences.

    theta_k (leading k x k minor) and phi_k (trailing minor from row k) obey
    theta_k = a_k theta_{k-1} - b_{k-1}^2 theta_{k-2}, and the adjugate is
    adj_ij = (-1)^(i+j) b_i ... b_{j-1} theta_{i-1} phi_{j+1} for i <= j.
    No minor is divided by, so a vanishing leading minor needs no pivoting.
    """
    n = len(diag)
    theta = [1, diag[0]]
    for k in range(1, n):
        theta.append(diag[k] * theta[k] - off[k - 1] ** 2 * theta[k - 1])
    phi = [1, diag[-1]]
    for k in range(n - 2, -1, -1):
        phi.append(diag[k] * phi[-1] - off[k] ** 2 * phi[-2])
    phi.reverse()
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
        object.__setattr__(self, "p0", Fraction(p0))
        object.__setattr__(self, "species", tuple((int(s), int(n)) for s, n in species))
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
    """Theta and the vacancy matrix E - 2 Theta on the lattice (1/den)Z.

    den = |det C| = numerator(p0); theta = den * Theta~ (a tuple of rows),
    Theta~_ij = s_i s_j Theta_ij with s = ts.signs, is integral as den * Theta
    = sign(det) adj C.  columns[k] = s_k * (column k of den * (E - 2 Theta)),
    so the matrix part of the form at lambda is sum_k lambda_k * columns[k].
    """

    den: int
    theta: tuple
    columns: tuple


@lru_cache(maxsize=16)
def scaled_form(ts: TSData) -> ScaledForm:
    """The one exact coding of Theta and of the matrix part of the vacancy
    linear form; every consumer reads its integers from here."""
    diag, off = coupling_bands(ts)
    signs = ts.signs
    # S C S, S = diag(signs), has the same determinant and the inverse Theta~
    off = [b * s * t for b, s, t in zip(off, signs, signs[1:])]
    det, adj = tridiagonal_adjugate(diag, off)
    den = abs(det)
    if den != ts.p0.numerator:
        raise AssertionError(f"|det C| = {den} is not the numerator of p0 = {ts.p0}")
    theta = [row if det > 0 else [-x for x in row] for row in adj]
    # theta is symmetric, so its rows are its columns; s_k Theta_ik = s_i Theta~_ik
    columns = [[-2 * si * x for si, x in zip(signs, row)] for row in theta]
    for i, j, e in _parity_entries(ts):
        columns[j][i] += signs[j] * den * e
    return ScaledForm(den, tuple(map(tuple, theta)), tuple(map(tuple, columns)))


def coupling_matrix(ts: TSData) -> RationalMatrix:
    """Theta, the exact inverse of the tridiagonal coupling matrix."""
    form = scaled_form(ts)
    return RationalMatrix([[Fraction(si * sj * x, form.den) for sj, x in zip(ts.signs, row)]
                           for si, row in zip(ts.signs, form.theta)])


@lru_cache(maxsize=4 * MAX_DIM)   # dim x species phases of one chain
def two_phi(ts: TSData, k: int, two_s: int) -> Fraction:
    return 2 * phase_shift(ts, k, two_s)


def offset_vector(ts: TSData, chain: ChainSpec, l: int):
    """The inhomogeneous vector b of the vacancy linear form at level l."""
    if chain.p0 != ts.p0:
        raise PreconditionError("chain and string data disagree on p0")
    if l < 0:
        raise PreconditionError("level must be nonnegative")
    f = frac_part(Fraction(chain.n_total - 2 * l) / ts.p0)
    out = []
    for j, sign in enumerate(ts.signs, 1):
        phases = sum(two_phi(ts, j, two_s) * count for two_s, count in chain.species)
        out.append(sign * (string_length(ts, Fraction(j)) * f - phases))
    return out


def _runs(values) -> str:
    """Ascending integers as text, each run of three or more consecutive
    values written a..b: [1, 2, 3, 4, 7, 8] -> '1..4, 7, 8'."""
    parts = []
    for _, run in groupby(enumerate(values), lambda iv: iv[1] - iv[0]):
        run = [v for _, v in run]
        parts += [f"{run[0]}..{run[-1]}"] if len(run) >= 3 else map(str, run)
    return ", ".join(parts)


def linear_form(ts: TSData, chain: ChainSpec, l: int) -> tuple:
    """(den, columns, c) with ((E - B) lam~ + b) = apply_form(columns, c, lam) / den.

    The entry of the counting routes: a chain with a spin outside the string
    classification has no Bethe states and is rejected here, before any
    lambda is enumerated.  For the others b lies on the lattice (1/den)Z, so
    c is an integer vector and every level shares the columns of scaled_form.
    """
    form = scaled_form(ts)
    bad = sorted({two_s for two_s, _ in chain.species if not admissible_spin(ts, two_s)})
    if bad:
        ok = _runs(admissible_spins(ts)) or "none"
        raise PreconditionError(
            f"chain has 2s = {', '.join(map(str, bad))} outside the string classification "
            f"at p0 = {ts.p0}; admissible 2s: {ok}")
    c = [x * form.den for x in offset_vector(ts, chain, l)]
    if any(x.denominator != 1 for x in c):
        raise AssertionError(f"offset vector off the lattice (1/{form.den})Z at level {l}")
    return form.den, form.columns, [int(x) for x in c]


def apply_form(columns, c, lam) -> list:
    """c + sum of lam_k * columns[k] over the nonzero lam_k, as a list.

    The terms form one chain of lazy maps, summed row by row by the list.
    """
    out = c
    for col, x in zip(columns, lam):
        if x:
            out = map(add, out, col if x == 1 else map(mul, col, repeat(x)))
    return list(out)


def vacancy_linear_form(ts: TSData, chain: ChainSpec, l: int, lam):
    """((E - B) lam~ + b) componentwise; subtract lambda_j to get P_j.

    lam~ flips the sign of odd-zone components.  Any spin is accepted, also
    one outside the string classification that the counting routes reject;
    components may then be non-integral rationals.
    """
    if len(lam) != ts.dim:
        raise PreconditionError("lambda vector has wrong length")
    if any(x < 0 for x in lam):
        raise PreconditionError("lambda entries must be nonnegative")
    form = scaled_form(ts)
    return [Fraction(v, form.den) + x for v, x in
            zip(apply_form(form.columns, [0] * ts.dim, lam), offset_vector(ts, chain, l))]
