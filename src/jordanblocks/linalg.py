"""Dense exact matrices and Jordan partitions of nilpotent operators.

Matrices over F_p are stored as int64 numpy arrays with entries in
``range(p)``; matrices over Q hold ``Fraction`` entries in object arrays.
Products over F_p go through float64 BLAS, which is exact as long as the
accumulated dot products stay below 2**53; a product that could pass that
bound raises ``BadPrime`` instead of rounding.  Products over Q work on
integers: each row (or column) is scaled once by the lcm of its
denominators, and a product is one dot product of Python integers.

Each field has one elimination, and rank, Jordan type, inverse and solve all
come from it: the packed-row echelon form over F_p (``_echelon_rows``) and
Bareiss's fraction-free elimination over Q (``_bareiss``), which both return
the pivot rows of an echelon form.  A rank is their count; a linear system
is inconsistent when a pivot row of [b | rhs] has its lead in the rhs
columns, and is otherwise solved by one back substitution for both fields,
run on the pivot rows as Python integers (``_solve``).
Partitions are read off an operator through the kernel-dimension sequence of
its powers, never through a similarity transform.  That sequence comes from
a shrinking chain: an echelon basis E_k of the row space of N^k gives the
next one as the echelon form of E_k N, so step k works on a rank(N^k)-by-n
matrix instead of N^(k+1).  Over Q the chain runs on N scaled to integers,
and each basis row is divided by the gcd of its entries.

The F_p echelon form works on packed rows: each row is one Python int
holding column j in the bits [j w, (j + 1) w), with w the least multiple of
64 that is at least 4L + 2 for p of bit length L.  Rows wait in buckets
keyed by their leading column, the lowest set bit; at each pivot every other
row of the pivot's bucket is reduced by one multiply-add with the negated
pivot row and one Barrett step on all fields at once, which is exact because
every field holds less than p**2 before it and 2**(3L) > p**3 (see
``_echelon_rows``).  A row operation is thus a few big-int operations, not a
round of numpy calls.

A series at canonical nilpotents, sum of c_a phi_1^{a_1} (x) ... (x)
phi_m^{a_m} with phi_k the block-diagonal shift of a partition, is built as
one gather from a dense coefficient array (``canonical_series_operator``):
no power and no Kronecker product is formed.
"""

from __future__ import annotations

import functools
import heapq
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
            return len(_echelon_rows(self.a, self.field.p))
        return len(_bareiss(_clear_denominators(self.a)[0]))

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        out = _solve(self, Matrix.identity(self.field, self.nrows))
        if out is None:
            raise ZeroDivisionError("matrix is singular")
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
    """The supported characteristics of F_p elimination: the primes with
    (p-1)**2 + (p-1) < 2**63, that is p <= 3037000500."""
    if (p - 1) ** 2 + (p - 1) >= 2**63:
        raise BadPrime(f"F_{p} is past the supported range of elimination, p <= 3037000500")


@functools.lru_cache(maxsize=None)
def _packing(p: int, n: int) -> tuple:
    """Constants of packed rows of length n over F_p: the field width w (a
    multiple of 64 bits), the Barrett shift s and multiplier M, the mask LOW
    of the low w - s bits of every field, and P, which holds p in every
    field."""
    bits = p.bit_length()
    w = 64 * -(-(4 * bits + 2) // 64)
    s = 3 * bits
    ones = sum(1 << (j * w) for j in range(n))
    return w, s, (1 << s) // p + 1, ((1 << (w - s)) - 1) * ones, p * ones


def _pack(a: np.ndarray, p: int, w: int) -> list:
    """The rows of ``a`` reduced mod p as Python ints, column j in the bits
    [j w, (j + 1) w); zero rows are dropped."""
    m, n = a.shape
    if not n:
        return []
    words = np.zeros((m, n, w // 64), dtype="<u8")
    words[:, :, 0] = a % p
    rows = words.reshape(m, n * w // 64).view(f"V{n * w // 8}").ravel().tolist()
    return list(filter(None, map(int.from_bytes, rows, itertools.repeat("little"))))


def _unpack(rows: list, n: int, w: int) -> np.ndarray:
    """Inverse of ``_pack``: an int64 array with one row per packed row."""
    step = n * w // 8
    raw = b"".join([r.to_bytes(step, "little") for r in rows])
    words = np.frombuffer(raw, dtype="<u8").reshape(len(rows), n, w // 64)
    return words[:, :, 0].astype(np.int64)


def _echelon_rows(a: np.ndarray, p: int) -> list:
    """Packed nonzero rows of an echelon form of ``a`` over F_p, leads ascending.

    Each row is one Python int (see ``_pack``), and the leading column of a
    row is its lowest set bit divided by w.  Rows wait in buckets keyed by
    their leading column, and a heap gives the next open column.  There one
    row of the bucket becomes the pivot and every other row r is reduced
    with two big-int operations: r += f (P - piv), which adds p - v fieldwise
    for each pivot entry v, then r -= (((r M) >> s) & LOW) p.  Before that
    Barrett step every field holds x <= (p - 1) + (p - 1) p < p**2, and with
    L the bit length of p, s = 3L and M = floor(2**s / p) + 1:
    - x M / 2**s exceeds x / p by less than x / 2**s < p**2 / p**3 = 1 / p, so
      (x M) >> s is the exact quotient floor(x / p) and x becomes x mod p;
    - x M < 2**(4L + 2) <= 2**w, so no product carries into the next field,
      and the quotient (below 2**(L + 2)) is kept apart by LOW from the low s
      bits that the shift brings down from the next field (w >= s + L + 2).
    A reduced row that is not zero joins the bucket of its new lead, which is
    always past the pivot column.
    """
    _require_int64_elimination(p)
    n = a.shape[1]
    w, s, mult, low, ps = _packing(p, n)
    field = (1 << w) - 1
    buckets: dict = {}
    for r in _pack(a, p, w):
        buckets.setdefault(((r & -r).bit_length() - 1) // w, []).append(r)
    heap = list(buckets)
    heapq.heapify(heap)
    echelon = []
    while heap:
        lead = heapq.heappop(heap)
        bucket = buckets.pop(lead)
        piv = bucket[0]
        echelon.append(piv)
        if len(bucket) == 1:
            continue
        shift = lead * w
        inv = pow((piv >> shift) & field, -1, p)
        neg = ps - piv
        for r in bucket[1:]:
            r += ((r >> shift) & field) * inv % p * neg
            r -= ((r * mult >> s) & low) * p
            if r:
                c = ((r & -r).bit_length() - 1) // w
                waiting = buckets.get(c)
                if waiting is None:
                    buckets[c] = [r]
                    heapq.heappush(heap, c)
                else:
                    waiting.append(r)
    return echelon


def _echelon_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Nonzero rows of an echelon form of ``a`` over F_p (rank = row count),
    with strictly increasing leading columns."""
    n = a.shape[1]
    return _unpack(_echelon_rows(a, p), n, _packing(p, n)[0])


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


#: the zero every rational product shares (Fractions are immutable)
_ZERO = Fraction(0)


def _matmul_frac(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two Fraction arrays through one integer dot product.

    With the rows of ``a`` scaled by da_i and the columns of ``b`` by db_j,
    entry (i, j) of the product is c_ij / (da_i db_j), where c is the
    product of the integer arrays; each nonzero output Fraction is built
    once, and every zero entry is one shared ``Fraction(0)``.
    """
    left, da = _clear_denominators(a)
    right, db = _clear_denominators(b.T)
    left = np.array(left, dtype=object).reshape(a.shape)
    right = np.array(right, dtype=object).reshape(b.shape[::-1]).T
    out = np.empty((a.shape[0], b.shape[1]), dtype=object)
    for i, (row, d) in enumerate(zip(np.dot(left, right).tolist(), da)):
        out[i] = [Fraction(c, d * e) if c else _ZERO for c, e in zip(row, db)]
    return out


def _bareiss(rows: list) -> list:
    """Pivot rows of an echelon form over Q of integer ``rows``, leads ascending.

    Bareiss's fraction-free elimination: each pivot replaces every other
    remaining row by (pivot*row - f*pivot_row) // prev, prev being the
    previous pivot; by Sylvester's identity the division is exact and the
    entries are minors of ``rows``, so they stay integers of bounded size.
    Only the columns after the pivot are kept, and rows that become zero are
    dropped.  Each pivot row is returned as (lead, tail), its entries from
    the leading column on; every entry before the lead is zero.
    """
    rows = [row for row in rows if any(row)]
    pivots, prev, offset = [], 1, 0
    while rows:
        leads = [next(j for j, x in enumerate(row) if x) for row in rows]
        k = min(range(len(rows)), key=leads.__getitem__)
        c = leads[k]
        pivot_row = rows.pop(k)
        pivots.append((offset + c, pivot_row[c:]))
        pivot, tail = pivot_row[c], pivot_row[c + 1:]
        reduced = []
        for row in rows:
            f = row[c]
            row = [(pivot * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
            if any(row):
                reduced.append(row)
        rows, prev, offset = reduced, pivot, offset + c + 1
    return pivots


def _echelon_int(a: np.ndarray) -> np.ndarray:
    """Nonzero rows of an echelon form over Q of the integer array ``a``,
    each divided by the gcd of its entries so that the chain of
    ``_power_ranks`` keeps its integers small."""
    rows = []
    for lead, tail in _bareiss(a.tolist()):
        g = math.gcd(*tail)
        rows.append([0] * lead + [x // g for x in tail])
    return np.array(rows, dtype=object).reshape(len(rows), a.shape[1])


def _solve(b: Matrix, rhs: Matrix) -> Matrix | None:
    """x with b @ x = rhs and every free coordinate zero, or None.

    One echelon form of [b | rhs] decides everything: the system is
    inconsistent exactly when a pivot row leads at or past column k =
    b.ncols.  Otherwise back substitution on the pivot rows, as (lead,
    entries from the lead on) in Python integers from ``_echelon_mod`` over
    F_p and ``_bareiss`` over Q, gives x from the last pivot up: each pivot
    coordinate is the pivot row's rhs part minus f times every coordinate
    already found, f the row's entry at that coordinate, times the inverse
    of the pivot.
    """
    field, k = b.field, b.ncols
    a = np.hstack([b.a, rhs.a])
    if field.p:
        pivots = []
        for row in _echelon_mod(a, field.p).tolist():
            lead = next(j for j, v in enumerate(row) if v)
            pivots.append((lead, row[lead:]))
    else:
        pivots = _bareiss(_clear_denominators(a)[0])
    if pivots and pivots[-1][0] >= k:
        return None
    x = Matrix.zeros(field, k, rhs.ncols)
    found: dict = {}
    for lead, tail in reversed(pivots):
        acc = tail[k - lead:]
        for c, z in found.items():
            f = tail[c - lead]
            if f:
                acc = [y - f * v for y, v in zip(acc, z)]
        inv = field.inv(field(tail[0]))
        found[lead] = x.a[lead] = [field.mul(y, inv) for y in acc]
    return x


def solve_in_columns(b: Matrix, rhs: Matrix) -> Matrix | None:
    """Solve b @ x = rhs for x, all columns of rhs at once; None when inconsistent.

    Free coordinates (columns of b without a pivot) are set to zero.  The
    answer is None as soon as one column of rhs lies outside the column span
    of b.
    """
    return _solve(b, rhs)


# -- Jordan structure ---------------------------------------------------------

def jordan_block(field: Field, n: int) -> Matrix:
    """The n-by-n upper-shift nilpotent block (zero matrix for n == 1)."""
    return nilpotent_from_partition(field, (n,))


def nilpotent_from_partition(field: Field, lam) -> Matrix:
    """Block-diagonal canonical nilpotent with Jordan type ``lam``: the series
    Y gathered at the partition's shift."""
    return canonical_series_operator(field, (lam,), {(1,): field.one})


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


def nilpotent_powers(n_mat: Matrix) -> list:
    """[N^0, N^1, ..., N^(d-1)] for the least d >= 1 with N^d == 0.

    The products stop at the first zero power; N is not nilpotent when N^n
    is still nonzero for n = N.nrows, and then NotNilpotent is raised.
    """
    if not n_mat.is_square():
        raise NotSquare("powers of a non-square matrix")
    out = [Matrix.identity(n_mat.field, n_mat.nrows)]
    for _ in range(max(n_mat.nrows, 1)):
        power = out[-1] @ n_mat
        if power.is_zero():
            return out
        out.append(power)
    raise NotNilpotent("matrix is not nilpotent")


def _power_ranks(n_mat: Matrix):
    """Yield rank N, rank N^2, rank N^3, ... without end.

    rowspace(N^(k+1)) = rowspace(N^k) N, so an echelon basis of the previous
    row space times N spans the next one.  Over Q, N is scaled to integers
    once by the lcm of its denominators, which keeps every rank.
    """
    p = n_mat.field.p
    if p:
        n = n_mat.a
        echelon = functools.partial(_echelon_mod, p=p)
        product = functools.partial(_matmul_mod, p=p)
    else:
        ints, _ = _clear_denominators([n_mat.a.ravel()])
        n = np.array(ints[0], dtype=object).reshape(n_mat.shape)
        echelon, product = _echelon_int, np.dot
    basis = echelon(n)
    while True:
        yield basis.shape[0]
        basis = echelon(product(basis, n))


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
    powers = nilpotent_powers(n_mat)
    d = len(powers)
    if f.trunc[0] < d:
        raise TruncationTooShort(
            f"series truncated at degree {f.trunc[0] - 1} applied to nilpotency degree {d}")
    out = Matrix.zeros(n_mat.field, n_mat.nrows, n_mat.nrows)
    for c, power in zip(coeffs[1:], powers[1:]):
        if c != 0:
            out = out + power.scale(c)
    return out


def exp_nilpotent(n_mat: Matrix) -> Matrix:
    """exp(N) = sum N^k / k! for nilpotent N; needs (d-1)! invertible."""
    field = n_mat.field
    powers = nilpotent_powers(n_mat)
    d = len(powers)
    if field.p and d > field.p:
        raise FactorialNotInvertible(
            f"exp needs 1/{d - 1}! but the characteristic is {field.p}")
    out = powers[0]
    for k in range(1, d):
        out = out + powers[k].scale(field.factorial_inv(k))
    return out


def random_invertible(field: Field, n: int, rng) -> Matrix:
    """Uniform-ish random invertible matrix, by rejection."""
    while True:
        m = Matrix.from_rows(field, [[field.random_element(rng) for _ in range(n)]
                                     for _ in range(n)])
        if m.rank() == n:
            return m
