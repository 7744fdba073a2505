"""Dense exact matrices and Jordan partitions of nilpotent operators.

Matrices over F_p are stored as int64 numpy arrays with entries in
``range(p)``; matrices over Q hold ``Fraction`` entries in object arrays.
Products over F_p go through float64 BLAS, which is exact as long as the
accumulated dot products stay below 2**53; a product that could pass that
bound raises ``BadPrime`` instead of rounding, and so does elimination at a
prime whose int64 products could wrap.  Ranks over F_p come from
forward elimination alone (an echelon form, no back substitution) that
touches only the rows with a nonzero in the pivot column and only the
columns from the pivot onward; RREF is kept for ``inverse`` and
``solve_in_columns``.  Products and ranks over Q work on integers: each row
(or column) is scaled once by the lcm of its denominators, a product is one
dot product of Python integers, and a rank is Bareiss's fraction-free
elimination, so no Fraction arithmetic runs inside the inner loops.
Partitions are read off an operator through the
kernel-dimension sequence of its powers, never through a similarity
transform.  Over F_p that sequence comes from a shrinking chain: an echelon
basis E_k of the row space of N^k gives the next one as the echelon form of
E_k N, so step k works on a rank(N^k)-by-n matrix instead of N^(k+1).
Each pivot of the F_p elimination finds its rows with one ``nonzero`` on
the column and updates them with one outer product.

A series at canonical nilpotents, sum of c_a phi_1^{a_1} (x) ... (x)
phi_m^{a_m} with phi_k the block-diagonal shift of a partition, is built as
one gather from a dense coefficient array (``canonical_series_operator``):
no power and no Kronecker product is formed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlgebraError,
    BadPrime,
    FactorialNotInvertible,
    InvalidInput,
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
                raise InvalidInput(f"parts must be positive, got {parts}")
            if i and parts[i - 1] < x:
                raise InvalidInput(f"parts must be weakly decreasing, got {parts}")
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
        return Matrix(self.field, _matmul_frac(self.a, other.a))

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


def _require_int64_elimination(p: int) -> None:
    """Elimination forms x - y*z in int64 with x, y, z in range(p); once
    (p-1)**2 + (p-1) reaches 2**63 that could wrap without an error."""
    if (p - 1) ** 2 + (p - 1) >= 2**63:
        raise BadPrime(f"F_{p} elimination products overflow int64")


def _echelon_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Nonzero rows of an echelon form of ``a`` over F_p (rank = row count).

    Forward elimination only.  A column that is zero in every row stays zero
    under row operations, so only the initially nonzero columns are scanned.
    At each pivot only the rows below it with a nonzero in the pivot column
    change, and only from the pivot column onward.
    """
    _require_int64_elimination(p)
    a = a % p
    m = a.shape[0]
    r = 0
    for c in np.flatnonzero(a.any(axis=0)).tolist():
        nz = a[r:, c].nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            a[[r, r + nz[0]], c:] = a[[r + nz[0], r], c:]
        if nz.size > 1:
            below = nz[1:] + r
            factor = a[below, c] * pow(int(a[r, c]), -1, p) % p
            a[below, c:] = (a[below, c:] - np.outer(factor, a[r, c:])) % p
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
    _require_int64_elimination(p)
    a = a % p
    m, n = a.shape
    stop = n if stop_col is None else stop_col
    r = 0
    pivots = []
    for c in range(stop):
        nz = a[r:, c].nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            a[[r, r + nz[0]], c:] = a[[r + nz[0], r], c:]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        rows = a[:, c].nonzero()[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows, c:] = (a[rows, c:] - np.outer(a[rows, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def _clear_denominators(rows) -> tuple[list, list]:
    """Scale each row of rationals by the lcm of its denominators.

    Returns the rows as lists of Python integers, and the scales.
    """
    ints, scales = [], []
    for row in rows:
        d = math.lcm(*[x.denominator for x in row])
        ints.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    return ints, scales


def _matmul_frac(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two Fraction arrays through one integer dot product.

    With the rows of ``a`` scaled by da_i and the columns of ``b`` by db_j,
    entry (i, j) of the product is c_ij / (da_i db_j), where c is the
    product of the integer arrays; each output Fraction is built once.
    """
    left, da = _clear_denominators(a)
    right, db = _clear_denominators(b.T)
    left = np.array(left, dtype=object).reshape(a.shape)
    right = np.array(right, dtype=object).reshape(b.shape[::-1]).T
    out = np.empty((a.shape[0], b.shape[1]), dtype=object)
    for i, (row, d) in enumerate(zip(np.dot(left, right).tolist(), da)):
        out[i] = [Fraction(c, d * e) for c, e in zip(row, db)]
    return out


def _rank_frac(a: np.ndarray) -> int:
    """Rank over Q by Bareiss's fraction-free elimination.

    Rows are scaled to integers first, which keeps the rank.  Each pivot
    replaces every other remaining row by (pivot*row - f*pivot_row) // prev,
    prev being the previous pivot; by Sylvester's identity the division is
    exact and the entries are minors of the scaled rows, so they stay
    integers of bounded size.  Only the columns after the pivot are kept, and rows that
    become zero are dropped.
    """
    rows = [row for row in _clear_denominators(a)[0] if any(row)]
    rank, prev = 0, 1
    while rows:
        leads = [next(j for j, x in enumerate(row) if x) for row in rows]
        k = min(range(len(rows)), key=leads.__getitem__)
        c = leads[k]
        pivot_row = rows.pop(k)
        pivot, tail = pivot_row[c], pivot_row[c + 1:]
        reduced = []
        for row in rows:
            f = row[c]
            row = [(pivot * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
            if any(row):
                reduced.append(row)
        rows, prev = reduced, pivot
        rank += 1
    return rank


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
        raise InvalidInput(f"block size must be >= 1, got {n}")
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


def _block_offsets(lam: Partition, stride: int, invalid: int) -> np.ndarray:
    """(s - r) * stride where indices r <= s share a Jordan block of ``lam``,
    ``invalid`` elsewhere: the flat exponent offset that phi^(s - r) puts at
    entry (r, s) of the canonical nilpotent's powers."""
    block = np.repeat(np.arange(len(lam)), lam.parts)
    index = np.arange(lam.dim)
    shift = index[None, :] - index[:, None]
    valid = (block[:, None] == block[None, :]) & (shift >= 0)
    return np.where(valid, shift * stride, invalid)


def canonical_series_operator(field: Field, lams: Sequence, coeffs: dict) -> Matrix:
    """sum of c_a phi_1^{a_1} (x) ... (x) phi_m^{a_m} over ``coeffs`` {a: c_a},
    with phi_k = nilpotent_from_partition(field, lams[k]).

    Entry (r, s), with r and s read as index tuples (first factor most
    significant), is the coefficient of the exponent s - r when r_k and s_k
    lie in a common block with r_k <= s_k in every factor, and 0 otherwise.
    So the whole operator is one gather from a dense coefficient array; an
    exponent that reaches past the largest block of its factor is dropped,
    as phi_k vanishes to that power.
    """
    lams = [Partition(lam) for lam in lams]
    shape = [lam[0] if len(lam) else 1 for lam in lams]
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    size = math.prod(shape)
    if field.p:
        flat = np.zeros(size + 1, dtype=np.int64)
    else:
        flat = np.empty(size + 1, dtype=object)
        flat[:] = field.zero
    for exp, c in coeffs.items():
        if len(exp) != len(shape):
            raise InvalidInput(f"exponent {exp} for {len(shape)} tensor factors")
        if all(e < d for e, d in zip(exp, shape)):
            flat[sum(e * s for e, s in zip(exp, strides))] = c
    # entry `size` of flat is the zero that every invalid position reads
    index = np.zeros((1, 1), dtype=np.int64)
    for lam, stride in zip(lams, strides):
        offsets = _block_offsets(lam, stride, size)
        n, k = index.shape[0], lam.dim
        index = (index[:, None, :, None] + offsets[None, :, None, :]).reshape(n * k, n * k)
    return Matrix(field, flat[np.minimum(index, size)])


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
    if out.dim != n:
        raise AlgebraError(f"kernel dimensions {kernel_dims} give a partition of "
                           f"{out.dim}, not {n}")
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
