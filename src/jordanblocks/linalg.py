"""Dense exact matrices and Jordan partitions of nilpotent operators.

Matrices over F_p are stored as int64 numpy arrays with entries in
``range(p)``; matrices over Q hold ``Fraction`` entries in object arrays.
Products over F_p go through float64 BLAS, which is exact as long as the
accumulated dot products stay below 2**53; a product that could pass that
bound raises ``BadPrime`` instead of rounding.  Ranks over F_p come from
forward elimination alone (an echelon form, no back substitution) that
touches only the rows with a nonzero in the pivot column and only the
columns from the pivot onward; RREF is kept for ``inverse`` and
``solve_in_columns``.  Partitions are read off an operator through the
kernel-dimension sequence of its powers, never through a similarity
transform.  Over F_p that sequence comes from a shrinking chain: an echelon
basis E_k of the row space of N^k gives the next one as the echelon form of
E_k N, so step k works on a rank(N^k)-by-n matrix instead of N^(k+1).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadPrime,
    FactorialNotInvertible,
    NonzeroConstantTerm,
    NotContained,
    NotNilpotent,
    NotSquare,
    NotUnipotent,
    TruncationTooShort,
)
from .fields import Field


class Partition:
    """A weakly decreasing sequence of positive parts (a Jordan type).

    Compares equal to any iterable with the same parts, so tests can say
    ``assert part == (4, 4, 2)``.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(int(x) for x in parts)
        for i, x in enumerate(parts):
            if x < 1:
                raise ValueError(f"parts must be positive, got {parts}")
            if i and parts[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        self.parts = parts

    @property
    def dim(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        try:
            return self.parts == tuple(other)
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def __str__(self):
        return self.compressed()

    def compressed(self) -> str:
        """Exponent notation, e.g. ``(8^2,5)``; the empty partition is ``()``."""
        pieces = []
        for size, grp in itertools.groupby(self.parts):
            mult = len(list(grp))
            pieces.append(f"{size}^{mult}" if mult > 1 else f"{size}")
        return "(" + ",".join(pieces) + ")"

    def union(self, other: "Partition") -> "Partition":
        return Partition(sorted(list(self.parts) + list(tuple(other)), reverse=True))

    def difference(self, other: "Partition") -> "Partition":
        """Multiset difference; raises NotContained if ``other`` is not a sub-multiset."""
        remaining = list(self.parts)
        for x in tuple(other):
            try:
                remaining.remove(x)
            except ValueError:
                raise NotContained(f"{tuple(other)} not contained in {self.parts}") from None
        return Partition(sorted(remaining, reverse=True))

    def multiplicity(self, size: int) -> int:
        return sum(1 for x in self.parts if x == size)

    def to_json(self) -> list:
        return list(self.parts)


def partition_union(lam, mu) -> Partition:
    return Partition(lam).union(Partition(mu))


def partition_difference(lam, mu) -> Partition:
    return Partition(lam).difference(Partition(mu))


class Matrix:
    """Immutable-by-convention dense matrix over a :class:`Field`."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, a: np.ndarray):
        self.field = field
        self.a = a

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        if field.p:
            a = np.array([[field(x) for x in row] for row in rows], dtype=np.int64)
            if a.ndim != 2:
                a = a.reshape(len(rows), -1)
        else:
            a = np.empty((len(rows), len(rows[0])), dtype=object)
            for i, row in enumerate(rows):
                for j, x in enumerate(row):
                    a[i, j] = Fraction(x)
        return cls(field, a)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        if field.p:
            return cls(field, np.zeros((nrows, ncols), dtype=np.int64))
        a = np.empty((nrows, ncols), dtype=object)
        a[:] = Fraction(0)
        return cls(field, a)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        one = field.one
        for i in range(n):
            m.a[i, i] = one
        return m

    # -- shape ----------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # -- arithmetic -----------------------------------------------------------

    def _wrap(self, a: np.ndarray) -> "Matrix":
        return Matrix(self.field, a % self.field.p if self.field.p else a)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._wrap(self.a + other.a)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._wrap(self.a - other.a)

    def __neg__(self) -> "Matrix":
        return self._wrap(-self.a)

    def scale(self, c) -> "Matrix":
        c = self.field(c)
        return self._wrap(self.a * c)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        p = self.field.p
        if p:
            return Matrix(self.field, _matmul_mod(self.a, other.a, p))
        return Matrix(self.field, np.dot(self.a, other.a))

    def kron(self, other: "Matrix") -> "Matrix":
        return self._wrap(np.kron(self.a, other.a))

    @property
    def T(self) -> "Matrix":
        return Matrix(self.field, self.a.T.copy())

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square():
            raise NotSquare("matrix power of a non-square matrix")
        out = Matrix.identity(self.field, self.nrows)
        for _ in range(k):
            out = out @ self
        return out

    def is_zero(self) -> bool:
        if self.field.p:
            return not self.a.any()
        return all(x == 0 for x in self.a.flat)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash((self.field, self.a.tobytes() if self.field.p else tuple(self.a.flat)))

    def __repr__(self):
        return f"Matrix({self.field}, shape={self.shape})"

    # -- elimination ----------------------------------------------------------

    def rank(self) -> int:
        if self.field.p:
            return _echelon_mod(self.a, self.field.p).shape[0]
        return _rank_frac(self.a)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        n = self.nrows
        field = self.field
        if field.p:
            aug = np.hstack([self.a % field.p, np.eye(n, dtype=np.int64)])
            red, pivots = _row_reduce_mod(aug, field.p, stop_col=n)
            if len(pivots) < n:
                raise ZeroDivisionError("matrix is singular")
            return Matrix(field, red[:, n:])
        rows = [[self.a[i, j] for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
                for i in range(n)]
        red, pivots = _row_reduce_frac(rows, stop_col=n)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        out = Matrix.zeros(field, n, n)
        for i in range(n):
            for j in range(n):
                out.a[i, j] = red[i][n + j]
        return out

    def flatten(self) -> np.ndarray:
        return self.a.reshape(-1)


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product of two arrays reduced mod p, through float64 BLAS.

    Each entry of the product is a sum of a.shape[1] terms below (p-1)**2;
    float64 holds every integer below 2**53 exactly, so past that bound the
    product could round and a wrong partition could follow.
    """
    inner = a.shape[1]
    if (p - 1) ** 2 * inner >= 2**53:
        raise BadPrime(
            f"F_{p} products of length {inner} can reach 2**53, past float64 exactness")
    prod = np.rint(a.astype(np.float64) @ b.astype(np.float64))
    return prod.astype(np.int64) % p


def _echelon_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Nonzero rows of an echelon form of ``a`` over F_p (rank = row count).

    Forward elimination only.  A column that is zero in every row stays zero
    under row operations, so only the initially nonzero columns are scanned.
    At each pivot only the rows below it with a nonzero in the pivot column
    change, and only from the pivot column onward.
    """
    a = a % p
    m = a.shape[0]
    r = 0
    for c in np.flatnonzero(a.any(axis=0)):
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            a[[r, r + nz[0]], c:] = a[[r + nz[0], r], c:]
        below = r + nz[1:]
        if below.size:
            factor = a[below, c, None] * pow(int(a[r, c]), -1, p)
            a[below, c:] = (a[below, c:] - factor % p * a[r, c:]) % p
        r += 1
        if r == m:
            break
    return a[:r]


def _row_reduce_mod(a: np.ndarray, p: int, stop_col: int | None = None):
    """RREF over F_p; returns (reduced, pivot column list).

    Pivots are sought in the columns before ``stop_col``; the row operations
    still run over every column, so an augmented block is carried along.
    Entries left of a pivot are already zero in the pivot row, so each step
    touches only the rows with a nonzero in the pivot column, and only from
    the pivot column onward.
    """
    a = a % p
    m, n = a.shape
    stop = n if stop_col is None else stop_col
    r = 0
    pivots = []
    for c in range(stop):
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            a[[r, r + nz[0]], c:] = a[[r + nz[0], r], c:]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        rows = np.flatnonzero(col)
        a[rows, c:] = (a[rows, c:] - col[rows, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def _rank_frac(a: np.ndarray) -> int:
    rows = [list(row) for row in a]
    _, pivots = _row_reduce_frac(rows)
    return len(pivots)


def _row_reduce_frac(rows: list, stop_col: int | None = None):
    """RREF over Q on a list-of-lists of Fractions."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    stop = n if stop_col is None else stop_col
    r = 0
    pivots = []
    for c in range(stop):
        piv = None
        for i in range(r, m):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def solve_in_columns(b: Matrix, rhs: Matrix) -> Matrix | None:
    """Solve b @ x = rhs for x, all columns of rhs at once; None when inconsistent.

    Free coordinates (columns of b without a pivot) are set to zero.  The
    answer is None as soon as one column of rhs lies outside the column span
    of b.
    """
    field = b.field
    k = b.ncols
    x = Matrix.zeros(field, k, rhs.ncols)
    if field.p:
        red, pivots = _row_reduce_mod(np.hstack([b.a, rhs.a]), field.p, stop_col=k)
        if red[len(pivots):, k:].any():
            return None
        x.a[pivots] = red[:len(pivots), k:]
        return x
    rows = [list(b.a[i]) + list(rhs.a[i]) for i in range(b.nrows)]
    red, pivots = _row_reduce_frac(rows, stop_col=k)
    if any(v != 0 for row in red[len(pivots):] for v in row[k:]):
        return None
    for row, col in enumerate(pivots):
        x.a[col] = red[row][k:]
    return x


# -- Jordan structure ---------------------------------------------------------

def jordan_block(field: Field, n: int) -> Matrix:
    """The n-by-n upper-shift nilpotent block (zero matrix for n == 1)."""
    if n < 1:
        raise ValueError("block size must be >= 1")
    m = Matrix.zeros(field, n, n)
    one = field.one
    for i in range(n - 1):
        m.a[i, i + 1] = one
    return m


def nilpotent_from_partition(field: Field, lam) -> Matrix:
    """Block-diagonal canonical nilpotent with Jordan type ``lam``."""
    lam = Partition(lam)
    m = Matrix.zeros(field, lam.dim, lam.dim)
    one = field.one
    off = 0
    for size in lam:
        for i in range(size - 1):
            m.a[off + i, off + i + 1] = one
        off += size
    return m


def nilpotency_degree(n_mat: Matrix) -> int:
    """Least d with N^d == 0; raises NotNilpotent when there is none."""
    if not n_mat.is_square():
        raise NotSquare("nilpotency degree of a non-square matrix")
    power = n_mat
    d = 1
    while not power.is_zero():
        if d > n_mat.nrows:
            raise NotNilpotent("matrix is not nilpotent")
        power = power @ n_mat
        d += 1
    return d


def _power_ranks(n_mat: Matrix):
    """Yield rank N, rank N^2, rank N^3, ... without end."""
    p = n_mat.field.p
    if p:
        # rowspace(N^(k+1)) = rowspace(N^k) N, so an echelon basis of the
        # previous row space times N spans the next one
        basis = _echelon_mod(n_mat.a, p)
        while True:
            yield basis.shape[0]
            basis = _echelon_mod(_matmul_mod(basis, n_mat.a, p), p)
    power = n_mat
    while True:
        yield power.rank()
        power = power @ n_mat


def jordan_partition(n_mat: Matrix) -> Partition:
    """Jordan type of a nilpotent matrix via kernel dimensions of its powers.

    The k-th kernel dimension d_k = dim ker N^k gives the conjugate of the
    partition through the difference sequence (d_1, d_2 - d_1, ...).
    """
    if not n_mat.is_square():
        raise NotSquare("Jordan partition of a non-square matrix")
    n = n_mat.nrows
    if n == 0:
        return Partition(())
    kernel_dims = []
    prev = 0
    for rank in _power_ranks(n_mat):
        d = n - rank
        if d == prev:
            raise NotNilpotent("matrix is not nilpotent")
        kernel_dims.append(d)
        if d == n:
            break
        prev = d
    diffs = [kernel_dims[0]] + [b - a for a, b in zip(kernel_dims, kernel_dims[1:])]
    parts = [sum(1 for c in diffs if c >= i) for i in range(1, diffs[0] + 1)]
    out = Partition(sorted(parts, reverse=True))
    assert out.dim == n
    return out


def unipotent_partition(u: Matrix) -> Partition:
    """Partition of the nilpotent u - 1."""
    x = u - Matrix.identity(u.field, u.nrows)
    try:
        return jordan_partition(x)
    except NotNilpotent:
        raise NotUnipotent("u - 1 is not nilpotent") from None


def apply_series(f, n_mat: Matrix) -> Matrix:
    """Evaluate a univariate zero-constant-term series at a nilpotent matrix.

    ``f`` is a univariate TruncatedPoly; its truncation must cover the
    nilpotency degree of ``n_mat`` so no term is silently dropped.
    """
    coeffs = f.univariate_coeffs()
    if coeffs and coeffs[0] != 0:
        raise NonzeroConstantTerm("series has a nonzero constant term")
    d = nilpotency_degree(n_mat)
    if f.trunc[0] < d:
        raise TruncationTooShort(
            f"series truncated at degree {f.trunc[0] - 1} applied to nilpotency degree {d}")
    out = Matrix.zeros(n_mat.field, n_mat.nrows, n_mat.nrows)
    power = Matrix.identity(n_mat.field, n_mat.nrows)
    for k in range(1, min(len(coeffs), d)):
        power = power @ n_mat
        if coeffs[k] != 0:
            out = out + power.scale(coeffs[k])
    return out


def exp_nilpotent(n_mat: Matrix) -> Matrix:
    """exp(N) = sum N^k / k! for nilpotent N; needs (d-1)! invertible."""
    field = n_mat.field
    d = nilpotency_degree(n_mat)
    if field.p and d > field.p:
        raise FactorialNotInvertible(
            f"exp needs 1/{d - 1}! but the characteristic is {field.p}")
    out = Matrix.identity(field, n_mat.nrows)
    power = Matrix.identity(field, n_mat.nrows)
    for k in range(1, d):
        power = power @ n_mat
        out = out + power.scale(field.factorial_inv(k))
    return out


def random_invertible(field: Field, n: int, rng) -> Matrix:
    """Uniform-ish random invertible matrix, by rejection."""
    while True:
        m = Matrix.from_rows(field, [[field.random_element(rng) for _ in range(n)]
                                     for _ in range(n)])
        if m.rank() == n:
            return m
