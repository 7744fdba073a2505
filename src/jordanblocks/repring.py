"""Tensor products of nilpotents under a law, and the ring they generate.

The class of a nilpotent operator is its Jordan partition, written as an
integer combination of block classes J_n.  The tensor product of (V, phi) and
(W, psi) with respect to a law F is the operator F(phi (x) 1, 1 (x) psi) on
V (x) W; the structure constants of the resulting ring are independent of the
law, which the verification suite checks by brute force.  Structure
constants and the squares of single blocks are memoized; in characteristic
0 both have closed forms (Clebsch-Gordan and the sl_2 plethysm).

A tensor product of partitions is the ring product of their block classes,
and no tensor operator is built for a cell J_n (x) J_m: it is multiplication
by t = F(x, y) on k[x, y]/(x^n, y^m), whose ranks come from the rows
x^i F^j sliced out of one memoized table of the law's powers F^j per law
(``_cell_partition``, ``_law_powers``).  The table is built by products
of Toeplitz slices of the powers, about log2 rounds per box and no operator
on A; boxes grow by powers of two, so a law's table is rebuilt about log2
times per side.  ``tensor_operator`` (Kronecker products of powers) is the
tests' reference.

Exterior and symmetric powers are realized as quotients of the m-fold tensor
power.  The induced matrix takes the columns of the power operator at the
basis words and straightens the words of its rows in one pass: every tensor
word is added into the row of its sorted word (with the sign of the sort for
the wedge, where a word with a repeated letter vanishes).  An operator
induces a map on the quotient only if it commutes with permuting the tensor
factors, that is, for a canonical nilpotent, only if the law's m-fold series
is symmetric; otherwise ``InvalidInput`` is raised.  A law over a field
other than the one given raises ``InvalidLaw``.

The constructive intertwiners are the automorphisms Y_i -> f_i for a
term-by-term split of the law's series f = f_1 + ... + f_m with Y_i | f_i;
the pieces go to ``build_automorphism`` as they are, as the images.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator

import numpy as np

from .errors import AlgebraError, InvalidInput, InvalidLaw
from .fields import Field
from .fgl import GeneralizedLaw, iterated_tensor_series
from .linalg import (
    _MAX_OPERATOR_DIM,
    Matrix,
    Partition,
    _block_offsets,
    _coefficient_arrays,
    _float_exact,
    _level_ranks,
    _partition_from_ranks,
    _require_float_exact,
    _require_operator_dim,
    canonical_series_operator,
    jordan_partition,
    nilpotent_powers,
)
from .series import TruncatedPoly, build_automorphism, symmetric_split


class RingElement:
    """Integer combination of block classes J_n (negative coefficients allowed)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for n, mult in dict(terms or {}).items():
            try:
                n, mult = operator.index(n), operator.index(mult)
            except TypeError:
                raise InvalidInput(f"block size and multiplicity must be integers, "
                                   f"got {n!r}: {mult!r}") from None
            if n < 1:
                raise InvalidInput(f"block size must be >= 1, got {n}")
            if mult:
                clean[n] = mult
        self.terms = clean

    @classmethod
    def from_partition(cls, lam) -> "RingElement":
        return cls(collections.Counter(lam))

    def to_partition(self) -> Partition:
        if any(m < 0 for m in self.terms.values()):
            raise InvalidInput("negative multiplicity is not a class of an object")
        return Partition(sorted(collections.Counter(self.terms).elements(), reverse=True))

    def dim(self) -> int:
        return sum(n * m for n, m in self.terms.items())

    def __add__(self, other):
        out = dict(self.terms)
        for n, m in other.terms.items():
            out[n] = out.get(n, 0) + m
        return RingElement(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k: int):
        return RingElement({n: k * m for n, m in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"RingElement({self.pretty()})"

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for n in sorted(self.terms, reverse=True):
            mult = self.terms[n]
            pieces.append(f"J{n}" if mult == 1 else f"{mult}·J{n}")
        return " + ".join(pieces)

    def to_json(self) -> dict:
        return {"terms": [{"n": n, "a": self.terms[n]} for n in sorted(self.terms, reverse=True)]}

    @classmethod
    def from_json(cls, data: dict) -> "RingElement":
        return cls({t["n"]: t["a"] for t in data["terms"]})


# -- tensor operators ------------------------------------------------------------

def _require_field(law: GeneralizedLaw, field: Field) -> None:
    if law.field != field:
        raise InvalidLaw("law and field characteristics disagree")


def tensor_operator(phi: Matrix, psi: Matrix, law: GeneralizedLaw) -> Matrix:
    """F(phi (x) 1, 1 (x) psi) for any nilpotent matrices, from Kronecker products
    of powers: the gathered operators' test reference, wrapped by name by the
    benchmark's tracer."""
    field = phi.field
    _require_field(law, field)
    phi_pow = nilpotent_powers(phi)
    psi_pow = nilpotent_powers(psi)
    law.require_degree(len(phi_pow) + len(psi_pow) - 2)
    out = Matrix.zeros(field, phi.nrows * psi.nrows, phi.nrows * psi.nrows)
    for (a, b), c in law.coeffs.items():
        if a < len(phi_pow) and b < len(psi_pow):
            out = out + phi_pow[a].kron(psi_pow[b]).scale(c)
    return out


def tensor_partition(lam, mu, law: GeneralizedLaw, field: Field) -> Partition:
    """Jordan type of F(phi (x) 1, 1 (x) psi) for the canonical nilpotents of
    ``lam`` and ``mu``: for two single blocks the cell J_n (x) J_m, read off
    the law's memoized table of powers (``_cell_partition``); else (the
    operator is block-diagonal) the ring product of the block classes'
    memoized cells."""
    _require_field(law, field)
    lam, mu = Partition(lam), Partition(mu)
    if len(lam) != 1 or len(mu) != 1:
        return ring_multiply(RingElement.from_partition(lam), RingElement.from_partition(mu),
                             law, field).to_partition()
    return _cell_partition(lam[0], mu[0], law, field)


def _cell_partition(n: int, m: int, law: GeneralizedLaw, field: Field) -> Partition:
    """Jordan type of multiplication by t = F(x, y) on A = k[x, y]/(x^n, y^m),
    which is the operator of J_n (x)_F J_m, from the rows x^i F^j.

    With c = min(n, m), A/tA is k[x]/(x^c): solving F(x, y) = 0 for y, which
    the invertible linear part allows, gives y a unit multiple of x, so
    y^m = 0 becomes x^m = 0.  So 1, x, ..., x^(c-1) generate A as a
    k[t]-module (Nakayama), and t^l A = span{x^i F^j : i < c, j >= l}.  The
    levels j = n+m-2 down to 0 go into one echelon (``_level_ranks``), and
    the count after the levels j >= l is rank t^l.  F^(n+m-1) vanishes on A.
    The count after level 0 must be nm, or AlgebraError: that certifies the
    generators for this cell, so the ranks do not rest on the argument above.

    Each F^j mod (x^n, y^m) is a slice of the law's table (``_law_powers``),
    as truncation is a ring map, and x^i F^j is that slice shifted down i
    rows in the x direction; no operator on A is built.
    """
    law.require_degree(n + m - 2)
    _require_operator_dim(n * m)
    powers = _law_powers(law, field, n, m)
    c = min(n, m)
    # F^(n+m-2), ..., F^0 mod (x^n, y^m); levels[k, i] is x^i times cell[k]
    cell = powers[n + m - 2::-1, :n, :m]
    levels = np.zeros((len(cell), c, n, m),
                      dtype=np.min_scalar_type(field.p - 1) if field.p else object)
    for i in range(c):
        levels[:, i, i:] = cell[:, :n - i]
    ranks = _level_ranks(levels.reshape(len(cell), c, n * m), field.p)
    if ranks[-1] != n * m:
        raise AlgebraError(f"x^i F^j for i < {c} span {ranks[-1]} dimensions of "
                           f"J_{n} (x) J_{m}, not {n * m}")
    return _partition_from_ranks(reversed(ranks[:-1]), n * m)


def _law_powers(law: GeneralizedLaw, field: Field, n: int, m: int) -> np.ndarray:
    """The law's powers F^j mod (x^bx, y^by), j <= bx + by - 2, as an array
    (j, a, b) of the coefficient of x^a y^b, for a box that holds n x m.

    Memoized per law in ``_constants_memo`` as (bx, by, powers, terms), with
    the law's exponent and coefficient arrays (``_coefficient_arrays``), and
    built cold at (n, m).  A cell that does
    not fit the box rebuilds it, with each side that must grow rounded up to
    a power of two, so that cells met one row or column larger at a time
    rebuild about log2 times per side.  When that box passes the operator
    bound or the float64 products at its size are not exact, the rebuild
    takes the union (max(bx, n), max(by, m)), and when that passes them
    too, the cell's own (n, m).  So each cell's answer and refusals do not
    depend on the cells before it.
    """
    key = ("powers", law.fingerprint())
    table = _constants_memo.get(key)
    if table is not None and n <= table[0] and m <= table[1]:
        return table[2]
    box = (n, m)
    if table is None:
        terms = _coefficient_arrays(field, law.coeffs, 2)
    else:
        bx, by, _, terms = table
        rounded = (bx if n <= bx else 1 << (n - 1).bit_length(),
                   by if m <= by else 1 << (m - 1).bit_length())
        union = (max(bx, n), max(by, m))
        for grown in (rounded, union):
            size = grown[0] * grown[1]
            if size <= _MAX_OPERATOR_DIM and _float_exact(field.p, size):
                box = grown
                break
    powers = _power_table(field, box, terms)
    _constants_memo[key] = (*box, powers, terms)
    return powers


def _power_table(field: Field, box: tuple, terms: tuple) -> np.ndarray:
    """F^j mod (x^bx, y^by) for j <= bx + by - 2, from the law's ``terms``
    (``_coefficient_arrays``), with no operator on the box.

    A product G = P F^s mod (x^bx, y^by) is one matrix product X K of inner
    length bx by: K is the stack over a of the upper triangular Toeplitz
    matrices of the x-rows of F^s, K[(a, b0), b1] = F^s[a, b1 - b0] for
    b1 >= b0, and row a' of X holds P shifted down a rows at column block a.
    Both are read from the powers, padded with a zero row and a zero column,
    through two fixed gather indices.  Known powers F^0..F^s give
    F^(s+1)..F^(2s) as F^i F^s, so about log2(bx + by) rounds build the
    table.  Each round goes in chunks of powers whose stacked X holds no
    more entries than the table.

    Over F_p the products are float64, exact while ``_float_exact`` holds
    at inner length bx by, and BadPrime past it once the table has a power
    past F^0; the entries come out in range(p).  Over Q the law's
    coefficients are integers over a common denominator, so each power is
    an integer multiple of F^j, divided by the gcd of its entries, which
    leaves every rank alone.
    """
    bx, by = box
    top = bx + by - 2
    p = field.p
    if p and top:
        _require_float_exact(p, bx * by)

    def primitive(rows: np.ndarray) -> np.ndarray:
        # over Q, each row divided by the gcd of its entries
        return np.array([row // max(math.gcd(*row.tolist()), 1) for row in rows])

    # row bx and column by of every power are the zeros that the gathers read
    powers = np.zeros((top + 1, bx + 1, by + 1), dtype=np.float64 if p else object)
    powers[0, 0, 0] = 1
    if top:
        exps, values, _ = terms
        inbox = (exps < box).all(axis=1)
        powers[1, exps[inbox, 0], exps[inbox, 1]] = (
            values[inbox] if p else primitive(values[None, inbox])[0])
    # shift[a', a] = a' - a and toeplitz_index[b0, b1] = b1 - b0, or the zero
    # row or column where negative: the offsets of one block
    shift = _block_offsets(Partition((bx,)), 1, bx).T
    toeplitz_index = _block_offsets(Partition((by,)), 1, by)
    chunk = (top + 1) // bx
    known = 2
    while known <= top:
        # F^0..F^step are known, and F^i F^step for i >= 1 gives the next
        step = known - 1
        toeplitz = powers[step][:bx, toeplitz_index].reshape(bx * by, by)
        stop = min(known, top + 1 - step)
        for lo in range(1, stop, chunk):
            hi = min(lo + chunk, stop)
            left = powers[lo:hi, shift, :by].reshape((hi - lo) * bx, bx * by)
            prod = np.dot(left, toeplitz).reshape(hi - lo, bx * by)
            prod = np.remainder(prod, p) if p else primitive(prod)
            powers[lo + step:hi + step, :bx, :by] = prod.reshape(hi - lo, bx, by)
        known = stop + step
    table = powers[:, :bx, :by]
    return table.astype(np.int64) if p else table


_constants_memo: dict = {}


def structure_constants(n: int, m: int, law: GeneralizedLaw, field: Field) -> RingElement:
    """Class of J_n (x)_F J_m.  Memoized on (n, m, law, characteristic).

    Reached through the module attribute ``tensor_partition``, which reads
    the cell off the law's memoized table of powers.  Accepts any law with
    invertible linear part: the decomposition is law-independent even
    without associativity, so the ring interpretation is available whenever
    the law validates as a formal group law.
    """
    _require_field(law, field)
    key = (n, m, law.fingerprint())
    hit = _constants_memo.get(key)
    if hit is not None:
        return hit
    out = RingElement.from_partition(tensor_partition((n,), (m,), law, field))
    if out.dim() != n * m:
        raise AlgebraError(f"J_{n} (x) J_{m} came out of dimension {out.dim()}, not {n * m}")
    _constants_memo[key] = out
    return out


def square_constants(n: int, shape: str, law: GeneralizedLaw) -> RingElement:
    """Class of Sym^2 J_n (``shape == "sym"``) or wedge^2 J_n under the law.

    Memoized next to the structure constants, under a key of its own; an
    unknown shape raises InvalidInput.
    """
    if shape not in ("sym", "wedge"):
        raise InvalidInput(f"unknown square {shape!r}")
    key = (shape, n, law.fingerprint())
    hit = _constants_memo.get(key)
    if hit is None:
        square = sym_partition if shape == "sym" else wedge_partition
        hit = _constants_memo[key] = RingElement.from_partition(
            square((n,), 2, law, law.field))
    return hit


def ring_multiply(x: RingElement, y: RingElement, law: GeneralizedLaw,
                  field: Field) -> RingElement:
    """Bilinear extension of the structure constants."""
    out = RingElement()
    for n, cx in x.terms.items():
        for m, cy in y.terms.items():
            out = out + (cx * cy) * structure_constants(n, m, law, field)
    return out


def cg_tensor(n: int, m: int) -> RingElement:
    """Characteristic-0 structure constants: J_{n+m-1} + J_{n+m-3} + ..."""
    if n < 1 or m < 1:
        raise InvalidInput("block sizes must be >= 1")
    return RingElement({n + m - 1 - 2 * i: 1 for i in range(min(n, m))})


def cg_square(n: int, shape: str) -> RingElement:
    """Characteristic-0 squares of one block (the sl_2 plethysm):
    Sym^2 J_n = J_{2n-1} + J_{2n-5} + ... and wedge^2 J_n = J_{2n-3} + J_{2n-7} + ...
    """
    if n < 1:
        raise InvalidInput("block size must be >= 1")
    if shape not in ("sym", "wedge"):
        raise InvalidInput(f"unknown square {shape!r}")
    top = 2 * n - 1 if shape == "sym" else 2 * n - 3
    return RingElement({top - 4 * i: 1 for i in range((top - 1) // 4 + 1)})


# -- m-fold powers ----------------------------------------------------------------

def power_operator(lam, m: int, law: GeneralizedLaw, field: Field) -> Matrix:
    """The operator of the m-fold tensor power of (V, phi) on V^(x)m, phi the
    canonical nilpotent of ``lam``.

    The m-fold tensor series of the law evaluated at
    Y_i -> 1 (x)..(x) phi (x)..(x) 1, gathered from the series' coefficients;
    the first tensor factor is the most significant index, matching the
    monomial basis order of the series algebra.
    """
    _require_field(law, field)
    lam = Partition(lam)
    _require_operator_dim(lam.dim ** m)
    series = iterated_tensor_series(law, m, (max(lam, default=1),) * m)
    return canonical_series_operator(field, (lam,) * m, series.coeffs)


def _swap_index(d: int, m: int, i: int) -> np.ndarray:
    """Entry u of the result is the index of the tensor word u with its
    letters i and i + 1 swapped, words of length m over range(d) indexed
    with the first letter most significant."""
    return np.arange(d ** m).reshape((d,) * m).swapaxes(i, i + 1).ravel()


def sigma_matrices(m: int, d: int, field: Field) -> list:
    """Adjacent-transposition generators of the symmetric group on (k^d)^(x)m.

    sigma sends a basis word w to the word w' with w'_k = w_{sigma^{-1}(k)}.
    Past the gather's dimension bound this raises InvalidInput.
    """
    _require_operator_dim(d ** m)
    out = []
    for i in range(m - 1):
        perm = np.zeros((d ** m, d ** m), dtype=np.int64)
        perm[_swap_index(d, m, i), np.arange(d ** m)] = 1
        out.append(Matrix._from_ints(field, perm))
    return out


# -- exterior / symmetric quotients -------------------------------------------------

@functools.lru_cache(maxsize=None)
def _straightening(d: int, m: int, kind: str) -> tuple:
    """The word tables of the wedge^m or Sym^m quotient of (k^d)^(x)m:
    (targets, signs, columns, spare).  Tensor word u goes to row targets[u],
    the index of its sorted word among the basis words, or ``spare`` (their
    count) when the wedge kills it, with the sign signs[u] of the sort;
    ``columns`` holds the tensor indices of the basis words.  The tables
    depend on no law and no field, so each is built once."""
    if kind == "wedge":
        words = list(itertools.combinations(range(d), m))
    elif kind == "sym":
        words = list(itertools.combinations_with_replacement(range(d), m))
    else:
        raise InvalidInput(f"unknown quotient kind {kind!r}")
    index = {w: k for k, w in enumerate(words)}
    spare = len(words)
    targets, signs, columns = [], [], []
    for flat, u in enumerate(itertools.product(range(d), repeat=m)):
        w = tuple(sorted(u))
        k = index.get(w, spare)
        targets.append(k)
        odd = kind == "wedge" and sum(a > b for a, b in itertools.combinations(u, 2)) % 2
        signs.append(-1 if odd else 1)
        if u == w and k != spare:
            columns.append(flat)
    tables = (np.array(targets, dtype=np.intp), np.array(signs, dtype=np.int64)[:, None],
              np.array(columns, dtype=np.intp))
    for table in tables:
        table.flags.writeable = False
    return (*tables, spare)


def induced_quotient_operator(x: Matrix, d: int, m: int, kind: str) -> Matrix:
    """The endomorphism that x, acting on (k^d)^(x)m, induces on wedge^m or
    Sym^m of k^d (``kind`` "wedge" or "sym").

    The basis words are the strictly (wedge) or weakly (Sym) increasing
    words.  Column w of the induced map is x applied to the plain tensor w,
    straightened: take the columns of x at the basis words and add the row
    of every tensor word u into the row of its sorted word.  For the wedge
    the row is negated when u has an odd number of inversions, and dropped
    when u repeats a letter.  The word tables are built once per (d, m,
    kind) (``_straightening``).

    x induces a map only if it preserves the kernel of the quotient, and it
    does when it commutes with the symmetric group (its commutant, the Schur
    algebra, preserves every such kernel).  So x must commute with each
    adjacent swap of tensor factors; otherwise InvalidInput.
    """
    if x.shape != (d ** m, d ** m):
        raise InvalidInput(f"a {x.shape} operator does not act on the {m}-fold "
                           f"tensor power of dimension {d}")
    targets, signs, columns, spare = _straightening(d, m, kind)
    ints = x.num
    for i in range(m - 1):
        swap = _swap_index(d, m, i)
        if not np.array_equal(ints[swap][:, swap], ints):
            raise InvalidInput("the operator does not commute with swapping tensor factors "
                               f"{i + 1} and {i + 2}, so it induces no map on the quotient "
                               "(the law's m-fold series is not symmetric)")
    out = np.zeros((spare + 1, spare), dtype=ints.dtype)
    np.add.at(out, targets, ints[:, columns] * signs)
    return Matrix._from_ints(x.field, out[:spare], x.den)


def wedge_partition(lam, m: int, law: GeneralizedLaw, field: Field) -> Partition:
    x = power_operator(lam, m, law, field)
    return jordan_partition(induced_quotient_operator(x, Partition(lam).dim, m, "wedge"))


def sym_partition(lam, m: int, law: GeneralizedLaw, field: Field) -> Partition:
    x = power_operator(lam, m, law, field)
    return jordan_partition(induced_quotient_operator(x, Partition(lam).dim, m, "sym"))


# -- constructive intertwiners ---------------------------------------------------

def build_intertwiner_pair(n: int, m: int, law: GeneralizedLaw) -> Matrix:
    """Invertible map on k[Y,Z]/(Y^n,Z^m) conjugating mult by y+z into mult by F(y,z).

    Realized as the algebra automorphism Y -> f_1, Z -> f_2, where f_1 is the
    sum of the terms of F that Y divides and f_2 the rest; any
    characteristic.
    """
    f = law.as_poly((n, m))
    f1, f2 = {}, {}
    for e, c in f.coeffs.items():
        (f1 if e[0] else f2)[e] = c
    return build_automorphism([TruncatedPoly(f.field, f.trunc, f1),
                               TruncatedPoly(f.field, f.trunc, f2)])


def build_symmetric_intertwiner(n: int, m: int, law: GeneralizedLaw) -> Matrix:
    """Sigma_m-equivariant automorphism of k[Y_1..Y_m]/(Y_i^n) conjugating
    mult by Y_1+...+Y_m into mult by the m-fold tensor series of the law.

    Needs m! invertible; the images Y_i -> f_i are the pieces of the
    term-by-term symmetric split of the tensor series.
    """
    return build_automorphism(symmetric_split(iterated_tensor_series(law, m, (n,) * m)))


def clear_memo() -> None:
    """Drop the memoized structure constants, block squares and tables of
    law powers, and the gather's block offsets (used by tests and benchmark
    passes)."""
    _constants_memo.clear()
    _block_offsets.cache_clear()
