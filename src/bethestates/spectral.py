"""Exact rational linear algebra for the string coupling matrix and vacancy forms.

The tridiagonal integer matrix C (the inverse coupling matrix) is built zone
by zone; its exact inverse Theta defines the quadratic form B = 2*Theta.  The
parity matrix E and the offset vector b complete the linear form whose j-th
component equals P_j(lambda) + lambda_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .tsdata import TSData, phase_shift, string_length, zone
from .util import PreconditionError, frac_part


class RationalMatrix:
    """Dense square matrix of exact rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise PreconditionError("matrix must be square")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        n = self.dim
        return RationalMatrix(
            [[sum(self.rows[i][k] * other.rows[k][j] for k in range(n))
              for j in range(n)] for i in range(n)])

    def matvec(self, vec):
        n = self.dim
        if len(vec) != n:
            raise PreconditionError("vector length mismatch")
        return [sum(self.rows[i][k] * vec[k] for k in range(n)) for i in range(n)]

    def scaled(self, c) -> "RationalMatrix":
        c = Fraction(c)
        return RationalMatrix([[x * c for x in row] for row in self.rows])

    def sub(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def det(self) -> Fraction:
        """Determinant by fraction-free (Bareiss) elimination."""
        n = self.dim
        if n == 0:
            return Fraction(1)
        a = [list(row) for row in self.rows]
        sign = 1
        prev = Fraction(1)
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return Fraction(0)
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
                a[i][k] = Fraction(0)
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def invert(self) -> "RationalMatrix":
        """Exact inverse by Gauss-Jordan elimination with exact pivoting."""
        n = self.dim
        a = [list(row) for row in self.rows]
        b = [list(row) for row in RationalMatrix.identity(n).rows]
        for col in range(n):
            piv = None
            for i in range(col, n):
                if a[i][col] != 0:
                    piv = i
                    break
            if piv is None:
                raise PreconditionError("matrix is singular")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                b[col], b[piv] = b[piv], b[col]
            p = a[col][col]
            a[col] = [x / p for x in a[col]]
            b[col] = [x / p for x in b[col]]
            for i in range(n):
                if i == col:
                    continue
                f = a[i][col]
                if f:
                    a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                    b[i] = [x - f * y for x, y in zip(b[i], b[col])]
        return RationalMatrix(b)

    def is_symmetric(self) -> bool:
        return all(self.rows[i][j] == self.rows[j][i]
                   for i in range(self.dim) for j in range(i))

    def is_tridiagonal(self) -> bool:
        return all(self.rows[i][j] == 0
                   for i in range(self.dim) for j in range(self.dim)
                   if abs(i - j) >= 2)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix[{body}]"


def invert(m: RationalMatrix) -> RationalMatrix:
    return m.invert()


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


def coupling_inverse(ts: TSData) -> RationalMatrix:
    """Symmetric tridiagonal integer matrix fixed by the zone structure."""
    dim = ts.dim
    if dim < 1:
        raise PreconditionError("coupling matrix needs at least one string type")
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for j in range(1, dim + 1):
        i = zone(ts, j)
        if j == ts.m(ts.alpha + 1):
            d = (-1) ** (ts.alpha + 1)
        elif j == ts.m(i + 1) - 1:
            d = (-1) ** i
        else:
            d = 2 * (-1) ** i
        rows[j - 1][j - 1] = Fraction(d)
        if j >= 2:
            off = (-1) ** (i - 1)
            rows[j - 2][j - 1] = Fraction(off)
            rows[j - 1][j - 2] = Fraction(off)
    return RationalMatrix(rows)


@lru_cache(maxsize=None)
def coupling_matrix(ts: TSData) -> RationalMatrix:
    """Theta, the exact inverse of the tridiagonal coupling matrix."""
    return coupling_inverse(ts).invert()


def parity_matrix(ts: TSData) -> RationalMatrix:
    """Diagonal parity signs with a swap in the last corner block."""
    dim = ts.dim
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for k, sign in enumerate(ts.signs):
        rows[k][k] = Fraction(sign)
    if dim >= 2:
        s_prev, s_dim = ts.signs[-2:]
        rows[dim - 2][dim - 1] = Fraction(-s_dim)
        rows[dim - 1][dim - 2] = Fraction(s_prev)
    return RationalMatrix(rows)


@lru_cache(maxsize=None)
def interaction_delta(ts: TSData) -> RationalMatrix:
    """E - B with B = 2*Theta; the matrix part of the vacancy linear form."""
    return parity_matrix(ts).sub(coupling_matrix(ts).scaled(2))


@lru_cache(maxsize=None)
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


def vacancy_linear_form(ts: TSData, chain: ChainSpec, l: int, lam):
    """((E - B) lam~ + b) componentwise; subtract lambda_j to get P_j.

    lam~ flips the sign of odd-zone components.  Components may be
    non-integral rationals; a non-integer value flags the (l, lam) pair as
    inadmissible downstream.
    """
    dim = ts.dim
    if len(lam) != dim:
        raise PreconditionError("lambda vector has wrong length")
    if any(x < 0 for x in lam):
        raise PreconditionError("lambda entries must be nonnegative")
    signed = [s * x for s, x in zip(ts.signs, lam)]
    mv = interaction_delta(ts).matvec([Fraction(x) for x in signed])
    b = offset_vector(ts, chain, l)
    return [a + c for a, c in zip(mv, b)]
