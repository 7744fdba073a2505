"""Dense exact matrices and Jordan partitions of nilpotent operators.

A matrix, like a truncated series (``series.TruncatedPoly``), is one
integer array over one denominator in both fields (``_Exact``), so
transpose, stacking and the Kronecker product are each one integer
expression on ``num`` over a combined ``den`` too; no kernel builds a
``Fraction``.  Writers build their integer array first and wrap it
afterwards.  The field elements ``a`` are ``num`` itself over F_p, and over
Q a read-only ``Fraction`` array built on each read.

Products over F_p go through float64 BLAS, which is exact as long as the
accumulated dot products stay below 2**53; a product that could pass that
bound raises ``BadPrime`` instead of rounding.  Over Q a product is the
integer product num @ num over den * den.

Both fields have one elimination, and rank, Jordan type, inverse and solve
all come from it (``_echelon``): rows go one at a time into a dict from
leading column to pivot row, packed rows over F_p (``_insert_rows``) and
lists of Python ints over Q (``_insert_int_rows``), where every pivot is
primitive with a positive lead.  A rank is the count of the dict; a linear
system is inconsistent when a pivot row of [b | rhs] has its lead in the rhs
columns, and is otherwise solved by one back substitution for both fields,
one vector-matrix product per pivot on integer rows (``_solve``).
Partitions are read off an operator through the ranks of its powers, never
through a similarity transform (``_partition_from_ranks``).  In both fields
they come from one Krylov elimination of a stack of matrices of one shape
(``_power_ranks``, ``jordan_partitions``): the echelon of each N gives a
complement R_0 of its row space, the rows R_0 N^l of all take one stacked
product per level and one packing, and each N's, inserted into its own
echelon from the top power down (``_prefix_masks``, the one reader of
packed rows that ``repring`` shares for its cells and squares), leave the
leads of rank N^l pivots after each level.

The F_p echelon form works on packed rows: each row is one Python int
holding column j in the bits [j w, (j + 1) w), w as ``_packing`` picks it.
A row is reduced by one XOR at p = 2, and otherwise by one multiply-add and
one Barrett step on all fields at once (``_insert_rows``): a row operation
is a few big-int operations, not a round of numpy calls.

A series at canonical nilpotents, sum of c_a phi_1^{a_1} (x) ... (x)
phi_m^{a_m} with phi_k the block-diagonal shift of a partition, is one
gather from a series' num / den cut to the box of the largest blocks
(``canonical_series_operator``): no power and no Kronecker product is formed.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
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
    ShapeMismatch,
    TruncationTooShort,
)
from .fields import Field, _count, _counts


class Partition(tuple):
    """A weakly decreasing tuple of positive parts (a Jordan type), equal to
    and hashing as its plain tuple, never equal to a list; each part is a
    count (``fields._count``): a bool, a float or a string is InvalidInput."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]):
        parts = _counts(parts, 1, "a part")
        for i, x in enumerate(parts):
            if i and parts[i - 1] < x:
                raise InvalidInput(f"parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def _trusted(cls, parts: Iterable[int]) -> "Partition":
        """Wrap parts known to be positive ints in weakly decreasing order,
        with no checks (the partitions that this library builds itself)."""
        return tuple.__new__(cls, parts)

    @property
    def dim(self) -> int:
        return sum(self)

    def __repr__(self):
        return f"Partition{tuple(self)}"

    def __str__(self):
        return self.compressed()

    def compressed(self) -> str:
        """Exponent notation, e.g. ``(8^2,5)``; the empty partition is ``()``."""
        pieces = []
        for size, grp in itertools.groupby(self):
            mult = len(list(grp))
            pieces.append(f"{size}^{mult}" if mult > 1 else f"{size}")
        return "(" + ",".join(pieces) + ")"

    def difference(self, other: "Partition") -> "Partition":
        """Multiset difference; raises NotContained if ``other`` is not a sub-multiset."""
        remaining = list(self)
        for x in tuple(other):
            try:
                remaining.remove(x)
            except ValueError:
                raise NotContained(f"{tuple(other)} not contained in {tuple(self)}") from None
        return Partition(sorted(remaining, reverse=True))

    def multiplicity(self, size: int) -> int:
        return self.count(size)

    def to_json(self) -> list:
        return list(self)


def _fields_json(renames: dict):
    """The ``to_json`` of a dataclass report: its fields in order, each under
    its name in ``renames`` or its own, tuples (partitions too) as lists."""
    def to_json(self) -> dict:
        values = {renames.get(f.name, f.name): getattr(self, f.name) for f in dataclasses.fields(self)}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}
    return to_json


class _Exact:
    """An exact array over a :class:`Field`, immutable by convention: one
    integer array ``num`` over one positive int ``den`` in both fields.

    Over F_p ``num`` is int64 in ``range(p)`` and ``den`` is 1; over Q
    ``num`` holds Python ints (object dtype) and gcd(num, den) = 1, so equal
    values have equal (num, den).  So equality, the hash, negation, scaling
    and sums are each one integer expression on ``num`` over a combined
    ``den``, which ``_from_ints`` reduces mod p or divides by the gcd
    (``_normalized``).  A subclass gives the meaning of the array's axes, and
    ``_mismatch`` refuses a sum, product or Kronecker product with an unfit
    shape, another field or type, or any operand that is not exact.
    """

    __slots__ = ("field", "num", "den")

    @classmethod
    def _trusted(cls, field: Field, num: np.ndarray, den: int = 1):
        """num / den as it is: integers already normalized, no copy."""
        out = object.__new__(cls)
        out.field, out.num, out.den = field, num, den
        return out

    @classmethod
    def _from_ints(cls, field: Field, num: np.ndarray, den: int = 1):
        """num / den from an integer array, normalized (``_normalized``)."""
        out = object.__new__(cls)
        out.field = field
        out.num, out.den = _normalized(field, num, den)
        return out

    def _over(self, den: int) -> np.ndarray:
        """The numerator over ``den``, a multiple of ``self.den``."""
        return self.num if den == self.den else self.num * (den // self.den)

    def _sum(self, other: "_Exact", sign: int):
        if (type(other) is type(self) and self.field.p == other.field.p
                and self.num.shape == other.num.shape):
            den = math.lcm(self.den, other.den)
            x, y = self._over(den), other._over(den)
            return self._from_ints(self.field, x + y if sign > 0 else x - y, den)
        raise self._mismatch(other, "sum" if sign > 0 else "difference")

    def _mismatch(self, other, op: str) -> ShapeMismatch:
        what = other._what() if isinstance(other, _Exact) else type(other).__name__
        return ShapeMismatch(f"{op} of {self._what()} and {what}")

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self._from_ints(self.field, -self.num, self.den)

    def scale(self, c):
        c = self.field(c)
        return self._from_ints(self.field, self.num * c.numerator, self.den * c.denominator)

    def is_zero(self) -> bool:
        return not self.num.any()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.field == other.field and self.den == other.den
                and np.array_equal(self.num, other.num))

    def __hash__(self):
        return hash((self.field, self.num.shape, self.den, tuple(self.num.ravel().tolist())))


class Matrix(_Exact):
    """Dense matrix over a :class:`Field` (``_Exact``): ``num`` has the shape
    (rows, columns), and ``a`` is the array of field elements."""

    __slots__ = ()

    def __init__(self, field: Field, a: np.ndarray):
        """The matrix of an array of field elements: over F_p an array of any
        integer dtype, reduced mod p; otherwise each entry goes through the
        field, which takes any rationals over Q and refuses floats and
        complex numbers (InvalidInput), as they are not exact."""
        a = np.asarray(a)
        self.field, self.den = field, 1
        if field.p and a.dtype.kind in "biu":
            self.num = np.asarray(a % field.p, dtype=np.int64)
            return
        values = [field(x) for x in a.ravel().tolist()]
        if not field.p:
            values, self.den = _common_denominator(values)
        self.num = np.array(values, dtype=np.int64 if field.p else object).reshape(a.shape)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        """The matrix of these rows, ``[]`` the 0 x 0; InvalidInput if ragged."""
        rows = [list(row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise InvalidInput(f"ragged rows of lengths {[len(row) for row in rows]}")
        return cls(field, np.array(rows, dtype=object).reshape(len(rows), ncols))

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        shape = _count(nrows, 0, "a row count"), _count(ncols, 0, "a column count")
        return cls._from_ints(field, np.zeros(shape, dtype=np.int64))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._from_ints(field, np.eye(_count(n, 0, "a dimension"), dtype=np.int64))

    @classmethod
    def hstack(cls, blocks: Sequence["Matrix"]) -> "Matrix":
        """The blocks side by side; all over one field with one row count."""
        first = blocks[0]
        for block in blocks[1:]:
            if block.field != first.field or block.nrows != first.nrows:
                raise first._mismatch(block, "hstack")
        den = math.lcm(*[block.den for block in blocks])
        num = np.hstack([block._over(den) for block in blocks])
        return cls._from_ints(first.field, num, den)

    # -- entries and shape ----------------------------------------------------

    @property
    def a(self) -> np.ndarray:
        """The entries as field elements (kernels read ``num``)."""
        if self.field.p:
            return self.num
        view = np.array([Fraction(x, self.den) for x in self.num.flat],
                        dtype=object).reshape(self.num.shape)
        view.flags.writeable = False
        return view

    @property
    def shape(self) -> tuple:
        return self.num.shape

    @property
    def nrows(self) -> int:
        return self.num.shape[0]

    @property
    def ncols(self) -> int:
        return self.num.shape[1]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # -- arithmetic -----------------------------------------------------------

    def _what(self) -> str:
        return f"a {self.shape} matrix over {self.field}"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        p = self.field.p
        if type(other) is Matrix and p == other.field.p and self.num.shape[1] == other.num.shape[0]:
            if p:
                return Matrix._trusted(self.field, _matmul_mod(self.num, other.num, p))
            return Matrix._from_ints(self.field, np.dot(self.num, other.num),
                                     self.den * other.den)
        raise self._mismatch(other, "product")

    def kron(self, other: "Matrix") -> "Matrix":
        if type(other) is not Matrix or self.field.p != other.field.p:
            raise self._mismatch(other, "Kronecker product")
        return Matrix._from_ints(self.field, np.kron(self.num, other.num),
                                 self.den * other.den)

    @property
    def T(self) -> "Matrix":
        return Matrix._trusted(self.field, self.num.T.copy(), self.den)

    def __repr__(self):
        return f"Matrix({self.field}, shape={self.shape})"

    # -- elimination ----------------------------------------------------------

    def rank(self) -> int:
        """The pivot count of one echelon of ``num`` (``_echelon``)."""
        return len(_echelon(self.num, self.field.p))

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        out = _solve(self, Matrix.identity(self.field, self.nrows))
        if out is None:
            raise ZeroDivisionError("matrix is singular")
        return out


def _normalized(field: Field, num: np.ndarray, den: int = 1) -> tuple:
    """(num, den) for num / den from an integer array: int64 in range(p) and
    den 1 over F_p; over Q Python ints with gcd 1 over a positive den."""
    if field.p:
        return np.asarray(num % field.p, dtype=np.int64), 1
    num = num.astype(object, copy=False)
    if den < 0:
        num, den = -num, -den
    if den != 1:
        g = math.gcd(den, *num.ravel().tolist())
        if g != 1:
            num, den = num // g, den // g
    return num, den


def _common_denominator(values: list) -> tuple[list, int]:
    """Rationals as integers over their least common denominator: (ints, den)."""
    den = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def _float_exact(p: int, inner: int) -> bool:
    """Whether every F_p product of inner length ``inner`` is exact in
    float64: each entry is a sum of ``inner`` terms below (p-1)**2, and
    float64 holds every integer below 2**53 exactly."""
    return (p - 1) ** 2 * inner < 2**53


def _require_float_exact(p: int, inner: int) -> None:
    """Past the ``_float_exact`` bound a float64 product could round and a
    wrong partition could follow, so this raises BadPrime."""
    if not _float_exact(p, inner):
        raise BadPrime(
            f"F_{p} products of length {inner} can reach 2**53, past float64 exactness")


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product of two arrays, or of stacks of them as ``@`` takes
    them, reduced mod p, through float64 BLAS; BadPrime past float64
    exactness (``_require_float_exact``)."""
    _require_float_exact(p, a.shape[-1])
    prod = np.rint(a.astype(np.float64) @ b.astype(np.float64, copy=False))
    return prod.astype(np.int64) % p


@functools.lru_cache(maxsize=None)
def _packing(p: int, n: int) -> tuple:
    """Constants of packed rows of length n over F_p: the field width w, the
    Barrett shift s and multiplier M, the mask LOW of the low w - s bits of
    every field, and P, which holds p in every field.

    w is the least of 16 and 32 bits that is at least 4L + 2 for p of bit
    length L (p <= 127), and past that the least multiple of 64 that is; at
    p = 2 it is one bit, and rows are reduced by XOR with no Barrett
    constants (all 0).
    """
    if p == 2:
        return 1, 0, 0, 0, 0
    bits = p.bit_length()
    need = 4 * bits + 2
    w = 16 if need <= 16 else 32 if need <= 32 else 64 * -(-need // 64)
    s = 3 * bits
    ones = sum(1 << (j * w) for j in range(n))
    return w, s, (1 << s) // p + 1, ((1 << (w - s)) - 1) * ones, p * ones


def _field_dtype(w: int) -> np.dtype:
    """The unsigned dtype that holds one field of width w: uint8 bits at
    w = 1, ``<u2`` and ``<u4`` at 16 and 32, and 64-bit words past that."""
    return np.dtype(f"<u{max(min(w, 64) // 8, 1)}")


#: rows that ``_pack`` widens and converts at a time, so that neither the
#: widened copy nor the row bytes of a whole level stack are held at once
_PACK_ROWS = 256


def _pack(a: np.ndarray, w: int) -> list:
    """The rows of ``a``, entries in range(p), as Python ints, column j in the
    bits [j w, (j + 1) w).

    At w = 1 a row is its bits (``np.packbits``), at w = 16 and 32 its
    ``<u2``/``<u4`` bytes; past that each field is w / 64 little-endian
    words, the value in the first.  The rows go ``_PACK_ROWS`` at a time.
    """
    m, n = a.shape
    out = []
    for lo in range(0, m if n else 0, _PACK_ROWS):
        chunk = a[lo:lo + _PACK_ROWS]
        if w == 1:
            words = np.ascontiguousarray(np.packbits(chunk, axis=1, bitorder="little"))
        elif w < 64:
            words = np.ascontiguousarray(chunk, dtype=_field_dtype(w))
        else:
            words = np.zeros((len(chunk), n, w // 64), dtype="<u8")
            words[:, :, 0] = chunk
            words = words.reshape(len(chunk), n * w // 64)
        rows = words.view(f"V{words.shape[1] * words.itemsize}").ravel().tolist()
        out += map(int.from_bytes, rows, itertools.repeat("little"))
    return out


def _unpack(rows: list, n: int, w: int) -> np.ndarray:
    """Inverse of ``_pack``: an int64 array with one row per packed row."""
    step = -(-n * w // 8)
    raw = np.frombuffer(b"".join([r.to_bytes(step, "little") for r in rows]),
                        dtype=_field_dtype(w))
    if w == 1:
        raw = np.unpackbits(raw.reshape(len(rows), step), axis=1, count=n,
                            bitorder="little")
    return raw.reshape(len(rows), n, max(w // 64, 1))[:, :, 0].astype(np.int64)


def _echelon(a: np.ndarray, p: int) -> dict:
    """An echelon form of the integer array ``a`` over F_p, or over Q at
    p = 0, as {leading column: pivot row}; its count is the rank of ``a``.

    Over F_p each row is one Python int (see ``_pack``), its leading column
    its lowest set bit divided by w; over Q it is a list of Python ints.
    The rows go one at a time into ``_insert_rows``.
    """
    return _insert_rows({}, _rows(a, p), p, a.shape[1])


def _rows(a: np.ndarray, p: int) -> list:
    """The rows of an integer array as ``_insert_rows`` takes them: packed
    over F_p and lists of Python ints over Q."""
    if not p:
        return a.tolist()
    return _pack(a, _packing(p, a.shape[1])[0])


def _insert_rows(pivots: dict, rows: Iterable, p: int, n: int) -> dict:
    """Reduce rows of length n over F_p into the echelon ``pivots``
    {leading column: pivot row}, every pivot scaled to lead 1; returns it.
    Over Q (p = 0) the rows are lists of ints and go to ``_insert_int_rows``.

    At p = 2 (w = 1) every lead is 1, and a row is reduced by r ^= piv.
    Otherwise, while a row's lead already has a pivot, the row is reduced by
    it with two big-int operations: r += f (P - piv), which adds f (p - v)
    fieldwise for each pivot entry v and so clears the lead f, then
    r -= (((r M) >> s) & LOW) p.  Before that Barrett step every field holds
    x <= (p - 1) + (p - 1) p < p**2, and with L the bit length of p,
    s = 3L and M = floor(2**s / p) + 1:
    - x M / 2**s exceeds x / p by less than x / 2**s < p**2 / p**3 = 1 / p, so
      (x M) >> s is the exact quotient floor(x / p) and x becomes x mod p;
    - x M < 2**(4L + 2) <= 2**w, so no product carries into the next field,
      and the quotient (below 2**(L + 2)) is kept apart by LOW from the low s
      bits that the shift brings down from the next field (w >= s + L + 2).
    So any w >= 4L + 2 is exact, the 16 and 32 bits of ``_packing`` too.
    Each reduction moves the lead right.  A row that reaches a free lead is
    scaled to lead 1 (fields below p**2 again, one more Barrett step) and
    becomes its pivot; a row that reaches zero is dropped.
    """
    if not p:
        return _insert_int_rows(pivots, rows)
    w, s, mult, low, ps = _packing(p, n)
    field = (1 << w) - 1
    for r in rows:
        while r:
            lead = ((r & -r).bit_length() - 1) // w
            piv = pivots.get(lead)
            if piv is None:
                if p != 2:
                    r *= pow((r >> lead * w) & field, -1, p)
                    r -= ((r * mult >> s) & low) * p
                pivots[lead] = r
                break
            if p == 2:
                r ^= piv
            else:
                r += ((r >> lead * w) & field) * (ps - piv)
                r -= ((r * mult >> s) & low) * p
    return pivots


def _insert_int_rows(pivots: dict, rows: Iterable[list]) -> dict:
    """Reduce integer rows over Q into the echelon ``pivots`` {leading
    column: pivot row}, every pivot primitive with a positive lead; returns it.

    While a row r has a pivot P at its lead c, r becomes
    (P[c] r - r[c] P) / g, the multipliers P[c] and r[c] first divided by
    their gcd and g the gcd of the result: column c clears, and only the
    columns past it are computed, as both rows are zero before it.  Each
    reduction moves the lead right.  A row that reaches a free lead is
    divided by the gcd of its entries, with the sign of its lead, and
    becomes its pivot; a row that reaches zero is dropped.
    """
    for r in rows:
        lead = next((j for j, x in enumerate(r) if x), None)
        while lead in pivots:
            piv = pivots[lead]
            g = math.gcd(piv[lead], r[lead])
            a, b = piv[lead] // g, r[lead] // g
            tail = [a * x - b * y for x, y in zip(r[lead + 1:], piv[lead + 1:])]
            g = math.gcd(*tail)
            if g > 1:
                tail = [x // g for x in tail]
            r = [0] * (lead + 1) + tail
            lead = next((j for j, x in enumerate(tail, lead + 1) if x), None)
        if lead is not None:
            g = math.gcd(*r) if r[lead] > 0 else -math.gcd(*r)
            pivots[lead] = [x // g for x in r]
    return pivots


def _solve(b: Matrix, rhs: Matrix) -> Matrix | None:
    """x with b @ x = rhs and every free coordinate zero, or None.

    One echelon of the integer rows [b.num rhs.den | rhs.num b.den] of the
    system decides everything (``_echelon``); over F_p both den are 1.  The
    system is inconsistent exactly when a pivot row leads at or past column
    k = b.ncols.  Otherwise x = X / d, found by back substitution from the
    last pivot up, one vector-matrix product per pivot: a pivot row t with
    lead c, pivot t_c and rhs part r gives row c of X as
    (r d - t[c + 1:k] X[c + 1:]) / t_c (the rows of X past c hold the
    coordinates found so far, and zero at the free ones).  Over F_p every
    t_c is 1, d is 1 and each row is reduced mod p, so X stays int64 while a
    product of k terms stays below the ``_matmul_mod`` bound.  Over Q, d is
    a running denominator that starts at 1: when t_c does not divide the
    numerator, X and d are first multiplied by t_c / gcd(t_c, content),
    which scales the numerator too, so the division is exact.
    """
    field, k, p = b.field, b.ncols, b.field.p
    if rhs.field != field or rhs.nrows != b.nrows:
        raise b._mismatch(rhs, "linear system")
    system = np.hstack([b.num * rhs.den, rhs.num * b.den])
    n, pivots = system.shape[1], _echelon(system, p)
    leads = sorted(pivots)
    if leads and leads[-1] >= k:
        return None
    rows = [pivots[c] for c in leads]
    if p:
        rows = _unpack(rows, n, _packing(p, n)[0])
        dtype = np.int64 if _float_exact(p, k) else object
    else:
        rows, dtype = np.array(rows, dtype=object).reshape(len(leads), n), object
    x, den = np.zeros((k, rhs.ncols), dtype=dtype), 1
    for lead, t in zip(reversed(leads), rows[::-1]):
        row = t[k:] * den - t[lead + 1:k] @ x[lead + 1:]
        if p:
            x[lead] = row % p
            continue
        scale = t[lead] // math.gcd(t[lead], *row.tolist())
        if scale != 1:
            x, den, row = x * scale, den * scale, row * scale
        x[lead] = row // t[lead]
    return Matrix._from_ints(field, x, den)


def solve_in_columns(b: Matrix, rhs: Matrix) -> Matrix | None:
    """Solve b @ x = rhs for x, all columns of rhs at once; None when inconsistent.

    Free coordinates (columns of b without a pivot) are set to zero.  The
    answer is None as soon as one column of rhs lies outside the column span
    of b.
    """
    return _solve(b, rhs)


# -- Jordan structure ---------------------------------------------------------

def nilpotent_from_partition(field: Field, lam) -> Matrix:
    """Block-diagonal canonical nilpotent with Jordan type ``lam``: the series
    Y gathered at the partition's shift."""
    return canonical_series_operator(field, (lam,), np.array([0, 1]))


@functools.lru_cache(maxsize=256)
def _block_offsets(lam: Partition, stride: int, invalid: int) -> np.ndarray:
    """(s - r) * stride where indices r <= s share a Jordan block of ``lam``,
    ``invalid`` elsewhere: the flat exponent offset that phi^(s - r) puts at
    entry (r, s) of the canonical nilpotent's powers.

    Memoized, so the array is read-only; ``repring.clear_memo`` drops the
    cache.  An entry holds lam.dim**2 int64, at most 128 MiB at the operator
    bound."""
    block = np.repeat(np.arange(len(lam)), lam)
    index = np.arange(lam.dim)
    shift = index[None, :] - index[:, None]
    valid = (block[:, None] == block[None, :]) & (shift >= 0)
    out = np.where(valid, shift * stride, invalid)
    out.flags.writeable = False
    return out


#: The largest operator the gather builds: J_64 (x) J_64, whose gather index
#: of 4096**2 int64 entries takes 128 MiB.
_MAX_OPERATOR_DIM = 4096


def _require_operator_dim(dim: int) -> None:
    if dim > _MAX_OPERATOR_DIM:
        raise InvalidInput(f"an operator of dimension {dim} is past the supported "
                           f"{_MAX_OPERATOR_DIM}")


def _fit(num: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """``num`` cut or padded with zeros to ``shape``, of the same length."""
    out = np.zeros(shape, dtype=num.dtype)
    common = tuple(slice(0, min(a, b)) for a, b in zip(num.shape, shape))
    out[common] = num[common]
    return out


def canonical_series_operator(field: Field, lams: Sequence, num: np.ndarray,
                              den: int = 1) -> Matrix:
    """sum of c_a phi_1^{a_1} (x) ... (x) phi_m^{a_m} over the coefficients
    c_a = num[a] / den, with phi_k = nilpotent_from_partition(field, lams[k]);
    ``num`` is an integer array with one axis per factor.

    Entry (r, s), with r and s read as index tuples (first factor most
    significant), is the coefficient of the exponent s - r when r_k and s_k
    lie in a common block with r_k <= s_k in every factor, and 0 otherwise.
    So the whole operator is one gather from the coefficient array cut to
    the box of the largest blocks; an exponent that reaches past the largest
    block of its factor is dropped, as phi_k vanishes to that power.
    """
    lams = [Partition(lam) for lam in lams]
    _require_operator_dim(math.prod(lam.dim for lam in lams))
    shape = [max(lam, default=0) for lam in lams]
    if np.ndim(num) != len(shape):
        raise InvalidInput(f"coefficients in {np.ndim(num)} variables for "
                           f"{len(shape)} tensor factors")
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    size = math.prod(shape)
    # every exponent in the box shows up, at an entry (r, r + a) of the
    # largest blocks (the box is empty when a partition is), so normalizing
    # the box normalizes the whole operator; entry `size` of flat is the
    # zero that every invalid position reads
    flat, den = _normalized(field, np.append(_fit(np.asarray(num), shape).ravel(), 0), den)
    index = np.zeros((1, 1), dtype=np.int64)
    for lam, stride in zip(lams, strides):
        offsets = _block_offsets(lam, stride, size)
        n, k = index.shape[0], lam.dim
        index = (index[:, None, :, None] + offsets[None, :, None, :]).reshape(n * k, n * k)
    return Matrix._trusted(field, flat[np.minimum(index, size)], den)


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


def _power_ranks(stack: np.ndarray, p: int) -> list:
    """[rank N, rank N^2, ..., 0] for each N of a stack (B, D, D) of integer
    arrays over F_p, or over Q at p = 0, from one batched Krylov elimination.

    An echelon of N (over Q of its integer numerator) gives rank N and its
    lead columns L.  The unit rows e_j, j not in L, span a complement R_0 of
    the row space of N, so k^D N^l = span{R_0 N^j : j >= l} (Nakayama).
    The levels R_l = R_(l-1) N of all B matrices, each complement padded
    with zero rows to the widest, take one stacked product per level up to
    the first that is zero for all: over F_p in the packed field's unsigned
    dtype, over Q with each row divided by its gcd (``_primitive``).  The
    stack and then all levels are packed in one call each (``_rows``), and
    each matrix's R_(e-1), ..., R_1 go into its own echelon, top power first
    (``_prefix_masks``): its masks[l] count rank N^(l+1).  The levels span
    k^D N only when N is nilpotent, so their count must be rank N for each
    matrix, and R_D must be zero; otherwise NotNilpotent.  So a Jordan type
    of c blocks and nilpotency index e costs one echelon of N, c (e - 1)
    more rows and e - 1 stacked products.
    """
    count, dim = stack.shape[:2]
    rows = _rows(stack.reshape(count * dim, dim), p)
    leads = [set(_insert_rows({}, rows[b * dim:(b + 1) * dim], p, dim)) for b in range(count)]
    dtype = _field_dtype(_packing(p, dim)[0]) if p else object
    width = dim - min(map(len, leads))
    level = np.zeros((count, width, dim), dtype=dtype)
    for b, lead in enumerate(leads):
        level[b, :dim - len(lead)] = stack[b, sorted(set(range(dim)) - lead)]
    factor = stack.astype(np.float64) if p else stack
    levels = []
    while level.any():
        if len(levels) == dim - 1:
            raise NotNilpotent("matrix is not nilpotent")
        levels.append(level)
        level = (_matmul_mod(level, factor, p).astype(dtype) if p
                 else _primitive(np.matmul(level, factor).reshape(-1, dim)).reshape(level.shape))
    del factor
    # level k of matrix b is the row block k count + b of the packed rows
    levels = np.array(levels, dtype=dtype).reshape(len(levels), count, width * dim)
    depths, rows = levels.any(axis=2).sum(axis=0), _rows(levels.reshape(-1, dim), p)
    out = []
    for b, lead in enumerate(leads):
        tops = [(k * count + b) * width for k in reversed(range(depths[b]))]
        ranks = [m.bit_count() for m in _prefix_masks([rows[t:t + width] for t in tops], p, dim)]
        if ranks[0] != len(lead):
            raise NotNilpotent("matrix is not nilpotent")
        out.append(ranks)
    return out


def _primitive(rows: np.ndarray) -> np.ndarray:
    """Integer rows over Q, each divided by the gcd of its entries (zero rows stay)."""
    gcds = [math.gcd(*row) or 1 for row in rows.tolist()]
    return rows // np.array(gcds, dtype=object)[:, None]


def _prefix_masks(levels: Iterable[list], p: int, dim: int) -> list:
    """masks[l]: the leads of the pivots of the levels j >= l of ``levels``,
    lists of rows of length ``dim`` as ``_insert_rows`` takes them, from any
    iterable, top power j = count - 1 first, as the bits of one int;
    masks[count] is 0.  A pivot is zero before its lead, so the rank of the
    rows of those levels cut to their first K columns is (masks[l] &
    ((1 << K) - 1)).bit_count(), and masks[l].bit_count() is their rank.

    The levels go into one echelon (``_insert_rows``) as they are yielded,
    so no row is reduced twice and a generator's levels are never all held.
    The echelon keeps its pivots in the order of insertion, so each mask is
    the OR of the bits of the leads up to the pivot count after its level.
    """
    pivots, ends = {}, [0]
    for rows in levels:
        ends.append(len(_insert_rows(pivots, rows, p, dim)))
    prefix = list(itertools.accumulate(map(operator.lshift, itertools.repeat(1), pivots),
                                       operator.or_, initial=0))
    return [prefix[end] for end in reversed(ends)]


def _partition_from_ranks(ranks: Iterable[int], n: int) -> Partition:
    """The Jordan type of a nilpotent N on k^n from rank N, rank N^2, ...

    The k-th kernel dimension d_k = n - rank N^k grows by the number s_k of
    blocks of size >= k, so the multiplicity of size k is s_k - s_(k+1),
    read in one pass; the ranks are read up to the first zero.  Kernel
    dimensions that stop growing before n raise NotNilpotent.  No nilpotent
    has a step s_k larger than the one before it, so each step is cut to
    the least step before it: steps that grow, or that do not add up to n,
    leave a partition of less than n, and AlgebraError is raised.
    """
    kernel_dims, steps = [], []
    prev, step = 0, n
    for rank in ranks:
        d = n - rank
        if d == prev:
            raise NotNilpotent("matrix is not nilpotent")
        kernel_dims.append(d)
        step = min(step, d - prev)
        steps.append(step)
        if d == n:
            break
        prev = d
    steps.append(0)
    parts = []
    for k in range(len(kernel_dims), 0, -1):
        parts += [k] * (steps[k - 1] - steps[k])
    # positive and weakly decreasing by construction
    out = Partition._trusted(parts)
    if out.dim != n:
        raise AlgebraError(f"kernel dimensions {kernel_dims} give a partition of "
                           f"{out.dim}, not {n}")
    return out


def jordan_partitions(mats: Sequence[Matrix]) -> list:
    """Jordan types of nilpotent matrices of one shape over one field, from
    one batched elimination (``_power_ranks``, ``_partition_from_ranks``).
    InvalidInput for no matrices, ShapeMismatch for mixed types, shapes or
    fields, NotSquare and NotNilpotent."""
    if not mats:
        raise InvalidInput("Jordan partitions of no matrices")
    first = mats[0]
    if any(type(mat) is not Matrix or mat.field != first.field or mat.shape != first.shape
           for mat in mats):
        raise ShapeMismatch("Jordan partitions of mixed types, shapes or fields")
    if not first.is_square():
        raise NotSquare("Jordan partition of a non-square matrix")
    if not first.nrows:
        return [Partition(())] * len(mats)
    return [_partition_from_ranks(ranks, first.nrows)
            for ranks in _power_ranks(np.array([mat.num for mat in mats]), first.field.p)]


def jordan_partition(n_mat: Matrix) -> Partition:
    """Jordan type of a nilpotent matrix: the batch of one."""
    return jordan_partitions([n_mat])[0]


def unipotent_partition(u: Matrix) -> Partition:
    """Partition of the nilpotent u - 1."""
    x = u - Matrix.identity(u.field, u.nrows)
    try:
        return jordan_partition(x)
    except NotNilpotent:
        raise NotUnipotent("u - 1 is not nilpotent") from None


def apply_series(f, n_mat: Matrix) -> Matrix:
    """Evaluate a univariate zero-constant-term series at a nilpotent matrix.

    ``f`` is a univariate TruncatedPoly over the matrix's field (else
    ShapeMismatch); its truncation must cover the nilpotency degree of
    ``n_mat`` so no term is silently dropped.
    """
    from .series import TruncatedPoly  # series imports this module

    if type(f) is not TruncatedPoly or f.field != n_mat.field:
        raise ShapeMismatch(f"a {type(f).__name__} over {f.field} applied to a matrix over {n_mat.field}")
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
