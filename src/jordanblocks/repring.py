"""Tensor products of nilpotents under a law, and the ring they generate.

The class of a nilpotent is its Jordan partition, an integer combination of
block classes J_n.  The tensor product of (V, phi) and (W, psi) under a law
F is F(phi (x) 1, 1 (x) psi) on V (x) W; over Q the cells and squares have
closed forms (Clebsch-Gordan and the sl_2 plethysm).

The classes do not depend on the law where the paper's intertwiners exist:
``build_intertwiner_pair`` carries y + z to F(y, z) on k[Y, Z]/(Y^n, Z^m)
for every law, and ``build_symmetric_intertwiner`` carries Y_1 + ... + Y_i
to the law's i-fold series Sigma_i-equivariantly when i! is invertible and
that series is symmetric.  So each cell, ("cell", n, m, p), and each block
power Sym^i J_a or wedge^i J_a with p = 0 or i < p, (kind, a, i, p), is
memoized per characteristic and computed under the additive law.  The asked
law is read only for its refusals (its field, its degree, the 4096 bound,
the symmetry of its series), before the memo read, so every answer and
refusal is the law's own.  A block power at i >= p under another law is the
law's own, keyed by its fingerprint.

A cell J_n (x) J_m is multiplication by t = x + y on k[x, y]/(x^n, y^m),
with no operator built: its ranks come from the rows x^i t^j (t^j packed
once and shifted i rows of x, ``_column_masks``) of the one table of powers
of the characteristic (``_law_powers``), Pascal's triangle mod p
(``_power_table``), so the ring layer makes no F_p product.  With the
columns x-first, k[x, y]/(x^n, y^s) is a prefix of k[x, y]/(x^N, y^s), so
one elimination at (N, s) gives every J_n (x) J_s with n <= N
(``_table_partition``), asked long side first.  The squares Sym^2 J_n and
wedge^2 J_n fold their rows onto the pairs (a, b), ordered by b and then a,
so they are prefixes too.

Sym^m and wedge^m of a partition fold its blocks in (``_fold``) through the
cells' bilinear product (``_product``) and the block powers
(``_block_power``); past the square, and for a law's own square, these
gather the power operator's columns at the basis words
(``canonical_series_operator``) from one memoized m-fold series per law
(``_quotient_class``), which must be symmetric, else ``InvalidInput``; J_a
needs a^i <= 4096.  Past m = 3 the fold of two or more blocks rests on the
series splitting (``_splits``), else the whole partition is gathered, within
d^m <= 4096.  The whole power operator straightened onto the quotient
(``power_operator``, ``induced_quotient_operator``) is the tests' reference.
A law over another field is ``InvalidLaw`` (``_require_field``).

The intertwiners are the automorphisms Y_i -> f_i of a term-by-term split of
the law's series f = f_1 + ... + f_m with Y_i | f_i (``build_automorphism``).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math

import numpy as np

from .errors import AlgebraError, InvalidInput, InvalidLaw
from .fields import Field, _count
from .fgl import GeneralizedLaw, _require_law, additive, iterated_tensor_series
from .linalg import (
    _MAX_OPERATOR_DIM,
    Matrix,
    Partition,
    _block_offsets,
    _partition_from_ranks,
    _packing,
    _prefix_masks,
    _require_operator_dim,
    _rows,
    canonical_series_operator,
    jordan_partition,
    nilpotent_powers,
)
from .series import build_automorphism, symmetric_split


class RingElement:
    """Integer combination of block classes J_n (negative coefficients allowed);
    InvalidInput for a block size that is not a count >= 1 or a multiplicity
    that is not an integer (``fields._count``)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for n, mult in dict(terms or {}).items():
            n, mult = _count(n, 1, "a block size"), _count(mult, None, "a multiplicity")
            if mult:
                clean[n] = mult
        self.terms = clean

    @classmethod
    def _trusted(cls, terms: dict) -> "RingElement":
        """From checked terms, zeros dropped (this module's sums and products)."""
        out = cls.__new__(cls)
        out.terms = {n: mult for n, mult in terms.items() if mult}
        return out

    @classmethod
    def from_partition(cls, lam) -> "RingElement":
        return cls(collections.Counter(lam))

    def to_partition(self) -> Partition:
        if any(m < 0 for m in self.terms.values()):
            raise InvalidInput("negative multiplicity is not a class of an object")
        return Partition._trusted(sorted(collections.Counter(self.terms).elements(), reverse=True))

    def dim(self) -> int:
        return sum(n * m for n, m in self.terms.items())

    def __add__(self, other):
        out = dict(self.terms)
        for n, m in other.terms.items():
            out[n] = out.get(n, 0) + m
        return RingElement._trusted(out)

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


# -- tensor operators ------------------------------------------------------------

def _require_field(law: GeneralizedLaw, field: Field) -> None:
    _require_law(law)
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
    ``lam`` and ``mu``, which does not depend on F (``build_intertwiner_pair``):
    for two single blocks the cell J_n (x) J_m, after the law's refusals
    (``_require_cell``), read long side first off the columns of the
    characteristic (``_table_partition``); else (the operator is
    block-diagonal) the ring product of the block classes' memoized cells."""
    _require_field(law, field)
    lam, mu = Partition(lam), Partition(mu)
    if len(lam) != 1 or len(mu) != 1:
        return ring_multiply(RingElement.from_partition(lam), RingElement.from_partition(mu),
                             law, field).to_partition()
    _require_cell(lam[0], mu[0], "tensor", law)
    return _table_partition(max(lam[0], mu[0]), min(lam[0], mu[0]), "tensor", field)


def _table_partition(n: int, m: int, shape: str, field: Field) -> Partition:
    """Jordan type of multiplication by t = x + y on A = k[x, y]/(x^n, y^m),
    n >= m: the cell J_n (x) J_m under every law (``shape == "tensor"``), or
    at m = n the additive law's Sym^2 J_n (``"sym"``) or wedge^2 J_n
    (``"wedge"``), from the rows x^i t^j of the table of the characteristic.

    A/tA is k[x]/(x^m), as y = -x there and y^m = 0 becomes x^m = 0.  So 1,
    x, ..., x^(m-1) generate A as a k[t]-module (Nakayama), and t^l A =
    span{x^i t^j : i < m, j >= l}.  Sym^2 is A/(1 - s)A for the swap s of x
    and y, and wedge^2 is A modulo (1 + s)A and the diagonal; the quotient
    map sends x^a y^b to the column (min(a, b), max(a, b)), with the sign of
    the sort for the wedge, and commutes with t, which s fixes.  So a square
    is a column fold of the rows: x^a y^b plus (Sym^2, the diagonal once) or
    minus (wedge^2) x^b y^a.  Every x^i generates at p = 2 (i >= 1 for the
    wedge); elsewhere s acts on A/tA as x -> -x, so the even i generate
    Sym^2 and the odd i wedge^2.

    Prefixes: truncation is a ring map, so with the columns x^a y^b of
    A_N = k[x, y]/(x^N, y^s) in the order a s + b, the rows of A_n, n <= N,
    are those of A_N cut to the first n s columns, and a square's columns,
    ordered by b and then a, restrict the same way.  So one elimination of
    the levels j = N+s-2 down to 0 gives rank t^l for every n <= N, from the
    leads of its pivots (``_prefix_masks``).

    A column, its N and the leads of each level's pivots as the bits of one
    int, is memoized per (shape, short side, p) and built to N = max(n, the
    table's extent) within N s <= 4096.  The count after level 0 must be the
    dimension, or AlgebraError: that certifies the generators, so the ranks
    do not rest on the argument above.  The callers check the law's
    refusals (``_require_cell``) first.
    """
    tensor, wedge = shape == "tensor", shape == "wedge"
    dim = n * m if tensor else n * (n + 1 - 2 * wedge) // 2
    if not dim:
        return Partition(())
    powers = _law_powers(field, n, m)
    key = ("column", shape, m if tensor else 0, field.p)
    column = _constants_memo.get(key)
    if column is None or column[0] < n:
        cap = _MAX_OPERATOR_DIM // m if tensor else math.isqrt(_MAX_OPERATOR_DIM)
        N = max(n, min(powers.shape[1] if tensor else min(powers.shape[1:]), cap))
        column = _constants_memo[key] = N, _column_masks(
            powers, N, m if tensor else N, shape, field.p)
    low = (1 << dim) - 1
    ranks = [(mask & low).bit_count() for mask in column[1]]
    if ranks[0] != dim:
        gens = m if tensor else len(range(wedge, n, 1 if field.p == 2 else 2))
        what = f"J_{n} (x) J_{m}" if tensor else f"the {shape} square of J_{n}"
        raise AlgebraError(f"{gens} generators span {ranks[0]} dimensions of {what}, not {dim}")
    return _partition_from_ranks(ranks[1:], dim)


def _require_cell(n: int, m: int, shape: str, law: GeneralizedLaw) -> None:
    """The law's refusals of J_n (x) J_m (``shape == "tensor"``) or of a
    square of J_n, in order: its degree, the operator bound, and for a
    square the symmetry of its series on (n, n)."""
    law.require_degree(n + m - 2)
    _require_operator_dim(n * m)
    if shape != "tensor" and n > law._symmetric_to:
        raise InvalidInput("the law's series is not symmetric, so its operator does not "
                           "commute with swapping the tensor factors and induces no map "
                           f"on the square of J_{n}")


def _column_masks(powers: np.ndarray, N: int, side: int, shape: str, p: int) -> list:
    """``_prefix_masks`` of the generators' rows x^i t^j mod (x^N, y^side),
    from the table of the powers t^j; a square's are folded, at side == N.
    A cell packs t^(N+side-2), ..., t^0 once (``_rows``) and yields a level
    at a time, x^i t^j as (row << i side w) & mask over F_p, with w the
    field width, and a list shift over Q.  A square gathers x^i t^j at
    (a, b) as t^j[a - i, b] + or - t^j[b - i, a] (Sym^2 off the diagonal,
    wedge^2), in a dtype that holds 2p - 1, from the powers flattened below
    zero rows that a negative row reads, and packs all its levels at once."""
    tensor, wedge = shape == "tensor", shape == "wedge"
    cell = powers[N + side - 2::-1, :N, :side]
    if tensor:
        dim, w = N * side, _packing(p, N * side)[0] if p else 0
        rows, mask = _rows(np.ascontiguousarray(cell).reshape(len(cell), dim), p), (1 << dim * w) - 1
        levels = (([row << i * side * w & mask for i in range(side)] for row in rows) if p
                  else ([([0] * i * side + row)[:dim] for i in range(side)] for row in rows))
        return _prefix_masks(levels, p, dim)
    flat = np.zeros((len(cell), 2 * N, N), dtype=np.min_scalar_type(2 * p) if p else object)
    flat[:, N:] = cell
    flat = flat.reshape(len(cell), -1)
    # the columns a <= b (Sym^2) or a < b (wedge^2), by b and then a; below
    # N zero rows, t^j[a - i, b] is at (a + N - i) N + b, and the Sym^2
    # diagonal's second term reads the zero at 0
    b, a = np.nonzero(np.arange(N)[:, None] >= np.arange(N) + wedge)
    shift = N - np.arange(wedge, N, 1 if p == 2 else 2)[:, None]
    levels = flat.take((a + shift) * N + b, axis=1)
    levels += (p - flat if wedge else flat).take(((b + shift) * N + a) * (a != b), axis=1)
    if p:
        np.remainder(levels, p, out=levels)
    count, c, dim = levels.shape
    rows = _rows(levels.reshape(count * c, dim), p)
    return _prefix_masks([rows[k * c:(k + 1) * c] for k in range(count)], p, dim)


def _law_powers(field: Field, n: int, m: int) -> np.ndarray:
    """The one table of the characteristic (``_power_table``), the powers
    t^j = (x + y)^j mod (x^bx, y^by) at a box that holds n x m.

    Memoized per characteristic in ``_constants_memo`` as (bx, by, powers).
    The first table is built at (n, m).  A cell past the box rebuilds it,
    each side that must grow rounded up to a power of two, so cells met one
    row or column larger at a time rebuild about log2 times per side.  A box
    past the operator bound gives way to the union (max(bx, n), max(by, m)),
    then to (n, m).
    """
    key = ("powers", field.p)
    table = _constants_memo.get(key)
    if table is not None and n <= table[0] and m <= table[1]:
        return table[2]
    box = (n, m)
    if table is not None:
        bx, by, _ = table
        rounded = (bx if n <= bx else 1 << (n - 1).bit_length(),
                   by if m <= by else 1 << (m - 1).bit_length())
        grows = (rounded, (max(bx, n), max(by, m)))
        box = next((g for g in grows if g[0] * g[1] <= _MAX_OPERATOR_DIM), box)
    powers = _power_table(field, box)
    _constants_memo[key] = (*box, powers)
    return powers


def _power_table(field: Field, box: tuple) -> np.ndarray:
    """(x + y)^j mod (x^bx, y^by) for j <= bx + by - 2, as an array (j, a, b)
    of the coefficient of x^a y^b, by Pascal's rule: each power is the last
    shifted one row plus the last shifted one column, mod p over F_p (int64)
    and exact over Q.  It makes no product, so it answers at every prime."""
    bx, by = box
    powers = np.zeros((bx + by - 1, bx, by), dtype=np.int64 if field.p else object)
    powers[0, 0, 0] = 1
    for j in range(1, bx + by - 1):
        powers[j, 1:] = powers[j - 1, :-1]
        powers[j, :, 1:] += powers[j - 1, :, :-1]
        if field.p:
            powers[j] %= field.p
    return powers


_constants_memo: dict = {}


def structure_constants(n: int, m: int, law: GeneralizedLaw, field: Field) -> RingElement:
    """Class of J_n (x)_F J_m under any law with invertible linear part,
    law-free by ``build_intertwiner_pair``: memoized per ("cell", n, m, p),
    each miss calling the module attribute ``tensor_partition`` once under
    ``additive(field)``.  The law is read for its refusals alone, before the
    memo: its field, a block size other than an int (2.0 hashes as 2), its
    degree and the operator bound (``_require_cell``)."""
    _require_field(law, field)
    if type(n) is not int or type(m) is not int:
        n, m = _count(n, 1, "a block size"), _count(m, 1, "a block size")
    _require_cell(n, m, "tensor", law)
    key = ("cell", n, m, field.p)
    hit = _constants_memo.get(key)
    if hit is not None:
        return hit
    out = RingElement.from_partition(tensor_partition((n,), (m,), additive(field), field))
    if out.dim() != n * m:
        raise AlgebraError(f"J_{n} (x) J_{m} came out of dimension {out.dim()}, not {n * m}")
    _constants_memo[key] = out
    return out


def _product(x: RingElement, y: RingElement, pair) -> RingElement:
    """The bilinear extension of ``pair(a, b)``, the class of J_a (x) J_b, x's
    blocks on the left; AlgebraError unless of dimension dim x * dim y."""
    terms = collections.Counter()
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            for c, cc in pair(a, b).terms.items():
                terms[c] += ca * cb * cc
    out = RingElement._trusted(terms)
    if out.dim() != x.dim() * y.dim():
        raise AlgebraError(f"{x.pretty()} (x) {y.pretty()} came out of dimension {out.dim()}, "
                           f"not {x.dim() * y.dim()}")
    return out


def ring_multiply(x: RingElement, y: RingElement, law: GeneralizedLaw,
                  field: Field) -> RingElement:
    """Bilinear extension of the structure constants."""
    _require_field(law, field)
    return _product(x, y, lambda a, b: structure_constants(a, b, law, field))


def _fold(lam: Partition, m: int, kind: str, pair, power) -> RingElement:
    """Class of L^m = Sym^m (``kind == "sym"``) or wedge^m of ``lam`` from the
    classes ``pair(a, b)`` of J_a (x) J_b and ``power(a, i)`` of the block powers L^i J_a.

    The blocks go in largest first, by L^j(R + J_a) = sum over i of
    L^(j-i) R (x) L^i J_a from the levels L^0 = J_1, ..., L^m of the part R
    folded so far, the factor of more letters on the left (R's on a tie); a
    lone block is its own power.  Each block's powers go from i = m down, so
    refusals come before the first table or series, built at the largest
    box.  A dimension other than C(d + m - 1, m) or C(d, m) is AlgebraError.
    """
    one = RingElement({1: 1})
    levels = [one] + [RingElement()] * m
    if len(lam) == 1:
        levels[m] = power(lam[0], m)
    else:
        for a, k in collections.Counter(lam).items():
            own = [one, RingElement({a: 1})] + [None] * (m - 1)
            for i in range(m, 1, -1):
                own[i] = power(a, i)
            for _ in range(k):
                levels = [one] + [sum((_product(levels[j - i], own[i], pair) if j - i >= i
                                       else _product(own[i], levels[j - i], pair)
                                       for i in range(1, j)), levels[j] + own[j])
                                  for j in range(1, m + 1)]
    want = math.comb(lam.dim + m - 1 if kind == "sym" else lam.dim, m)
    if levels[m].dim() != want:
        raise AlgebraError(f"the {kind} power {m} of {tuple(lam)} came out of dimension "
                           f"{levels[m].dim()}, not {want}")
    return levels[m]


def cg_tensor(n: int, m: int) -> RingElement:
    """Characteristic-0 structure constants: J_{n+m-1} + J_{n+m-3} + ...
    Block sizes that are not integers >= 1 raise InvalidInput."""
    n, m = _count(n, 1, "a block size"), _count(m, 1, "a block size")
    return RingElement({n + m - 1 - 2 * i: 1 for i in range(min(n, m))})


def cg_square(n: int, shape: str) -> RingElement:
    """Characteristic-0 squares of one block (the sl_2 plethysm):
    Sym^2 J_n = J_{2n-1} + J_{2n-5} + ... and wedge^2 J_n = J_{2n-3} + J_{2n-7} + ...
    A block size that is not an integer >= 1 raises InvalidInput.
    """
    n = _count(n, 1, "a block size")
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
    return canonical_series_operator(field, (lam,) * m, series.num, series.den)


def _swap_index(d: int, m: int, i: int) -> np.ndarray:
    """Entry u of the result is the index of the tensor word u with its
    letters i and i + 1 swapped, words of length m over range(d) indexed
    with the first letter most significant."""
    return np.arange(d ** m).reshape((d,) * m).swapaxes(i, i + 1).ravel()


def sigma_matrices(m: int, d: int, field: Field) -> list:
    """Adjacent-transposition generators of the symmetric group on (k^d)^(x)m.

    sigma sends a basis word w to the word w' with w'_k = w_{sigma^{-1}(k)}.
    An m or a d that is not an integer >= 0, or a d^m past the gather's
    dimension bound, raises InvalidInput.
    """
    m, d = _count(m, 0, "m"), _count(d, 0, "the dimension")
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


#: rows of an operator that ``_commutes`` permutes at a time
_SWAP_ROWS = 256


def _commutes(ints: np.ndarray, swap: np.ndarray) -> bool:
    """Whether permuting both the rows and the columns of ``ints`` by ``swap``
    leaves it unchanged, compared ``_SWAP_ROWS`` rows at a time, so no
    permuted copy of the whole operator is made."""
    for lo in range(0, len(ints), _SWAP_ROWS):
        rows = slice(lo, lo + _SWAP_ROWS)
        if not np.array_equal(ints.take(swap[rows], axis=0).take(swap, axis=1), ints[rows]):
            return False
    return True


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
    adjacent swap of tensor factors (``_commutes``); otherwise InvalidInput.
    """
    if x.shape != (d ** m, d ** m):
        raise InvalidInput(f"a {x.shape} operator does not act on the {m}-fold "
                           f"tensor power of dimension {d}")
    targets, signs, columns, spare = _straightening(d, m, kind)
    ints = x.num
    for i in range(m - 1):
        if not _commutes(ints, _swap_index(d, m, i)):
            raise InvalidInput("the operator does not commute with swapping tensor factors "
                               f"{i + 1} and {i + 2}, so it induces no map on the quotient "
                               "(the law's m-fold series is not symmetric)")
    out = np.zeros((spare + 1, spare), dtype=ints.dtype)
    np.add.at(out, targets, ints[:, columns] * signs)
    return Matrix._from_ints(x.field, out[:spare], x.den)


def _quotient_class(lam: Partition, m: int, law: GeneralizedLaw, kind: str) -> Partition:
    """Jordan type of wedge^m (``kind == "wedge"``) or Sym^m of the canonical
    nilpotent of ``lam`` under the law's own symmetric m-fold series
    (``_law_series``), with no d^m x d^m operator: its columns at the basis
    words, d^m x q entries (``canonical_series_operator``), folded onto the
    quotient by ``_straightening``'s targets and signs.  No bound is checked
    here: the callers hold d^m within 4096."""
    cut = _law_series(law, m, lam, kind)
    targets, signs, columns, spare = _straightening(lam.dim, m, kind)
    gathered = canonical_series_operator(law.field, (lam,) * m, cut.num, cut.den, columns)
    values = gathered.num
    values *= signs
    out = np.zeros((spare + 1, spare), dtype=values.dtype)
    np.add.at(out, targets, values)
    return jordan_partition(Matrix._from_ints(law.field, out[:spare], gathered.den))


def _law_series(law: GeneralizedLaw, m: int, lam: tuple, kind: str):
    """The law's m-fold series cut to (n)^m, n the largest block of ``lam``,
    memoized per m and law and rebuilt past its box.  It must be symmetric
    (the power operator commutes with every swap of tensor factors), else
    InvalidInput and nothing is memoized; so every cut of a memoized series
    is symmetric."""
    n = max(lam, default=1)
    key = ("series", m, law.fingerprint())
    series = _constants_memo.get(key)
    if series is None or series.trunc[0] < n:
        series = iterated_tensor_series(law, m, (n,) * m)
        if not series.is_symmetric():
            raise InvalidInput(f"the law's {m}-fold series is not symmetric, so its operator "
                               "does not commute with permuting the tensor factors and induces "
                               f"no map on the {kind} power of {tuple(lam)}")
        _constants_memo[key] = series
    return series._in_box((n,) * m)


def _block_power(a: int, i: int, kind: str, law: GeneralizedLaw) -> RingElement:
    """Class of Sym^i J_a (``kind == "sym"``) or wedge^i J_a for a checked a:
    J_a at i = 1.  The law's refusals come first: the square's
    ``_require_cell``, else a^i <= 4096 and then the symmetry of its i-fold
    series (``_law_series``).  Where i! is invertible (p = 0 or i < p),
    ``build_symmetric_intertwiner`` makes the class law-free: it and the
    additive law's own are memoized per (kind, a, i, p), the square read off
    the table of the characteristic (``_table_partition``), a higher power
    the additive law's ``_quotient_class``.  At i >= p under another law
    (the squares at p = 2, the cubes at p <= 3) it is that law's
    ``_quotient_class``, memoized per (kind, a, i, law)."""
    if i == 1:
        return RingElement({a: 1})
    if i == 2:
        _require_cell(a, a, kind, law)
    else:
        _require_operator_dim(a ** i)
        _law_series(law, i, (a,), kind)
    field = law.field
    own = 0 < field.p <= i and law != additive(field)
    key = (kind, a, i, law.fingerprint() if own else field.p)
    hit = _constants_memo.get(key)
    if hit is None:
        hit = _constants_memo[key] = RingElement.from_partition(
            _table_partition(a, a, kind, field) if i == 2 and not own
            else _quotient_class(Partition((a,)), i, law if own else additive(field), kind))
    return hit


def _splits(law: GeneralizedLaw, m: int, n: int) -> bool:
    """Whether each j-fold series G_j, 4 <= j <= m, is on the box (n)^j
    F(G_(j-i)(Y_1..Y_(j-i)), G_i(Y_(j-i+1)..Y_j)) for 2 <= i <= j/2, from the
    memoized series; memoized per (m, n, law).  Under a symmetric G_j these
    are all splits into groups of two or more letters, the larger left."""
    key = ("split", m, n, law.fingerprint())
    if key not in _constants_memo:
        def series(i, j):
            cut = law.as_poly((n, n)) if i == 2 else _constants_memo["series", i, law.fingerprint()]
            return cut._in_box((n,) * j)

        _constants_memo[key] = all(
            law.eval(series(j - i, j), series(i, j).permute_variables([*range(i, j), *range(i)]))
            == series(j, j) for j in range(4, m + 1) for i in range(2, j // 2 + 1))
    return _constants_memo[key]


def wedge_partition(lam, m: int, law: GeneralizedLaw, field: Field) -> Partition:
    return _quotient_partition(lam, m, law, field, "wedge")


def sym_partition(lam, m: int, law: GeneralizedLaw, field: Field) -> Partition:
    return _quotient_partition(lam, m, law, field, "sym")


def _quotient_partition(lam, m: int, law: GeneralizedLaw, field: Field, kind: str) -> Partition:
    """Jordan type of wedge^m or Sym^m of the canonical nilpotent of ``lam``,
    its blocks folded in (``_fold``) from the cells and block powers
    (``_block_power``).  At m <= 3 each split of the letters leaves one
    alone, which the left-nested series and its symmetry give.  Past it the
    largest of two or more blocks has its powers first, then the split check
    (``_splits``); where that fails, the whole partition is gathered within
    d^m <= 4096.  An m that is not an integer >= 1 (a bool or a float too)
    raises InvalidInput, then a law over another field InvalidLaw, first."""
    lam = Partition(lam)
    m = _count(m, 1, "m")
    _require_field(law, field)
    power = functools.partial(_block_power, kind=kind, law=law)
    if m >= 4 and len(lam) > 1:
        for i in range(m, 1, -1):
            power(lam[0], i)
        if not _splits(law, m, lam[0]):
            _require_operator_dim(lam.dim ** m)
            return _quotient_class(lam, m, law, kind)
    return _fold(lam, m, kind, lambda a, b: structure_constants(a, b, law, field),
                 power).to_partition()


# -- constructive intertwiners ---------------------------------------------------

def build_intertwiner_pair(n: int, m: int, law: GeneralizedLaw) -> Matrix:
    """Invertible map on k[Y,Z]/(Y^n,Z^m) conjugating mult by y+z into mult by F(y,z).

    Realized as the algebra automorphism Y -> f_1, Z -> f_2, where f_1 is the
    sum of the terms of F that Y divides and f_2 the rest; any
    characteristic.
    """
    _require_law(law)
    f = law.as_poly((n, m))
    f1 = f._where(np.arange(n)[:, None] > 0)
    return build_automorphism([f1, f - f1])


def build_symmetric_intertwiner(n: int, m: int, law: GeneralizedLaw) -> Matrix:
    """Sigma_m-equivariant automorphism of k[Y_1..Y_m]/(Y_i^n) conjugating
    mult by Y_1+...+Y_m into mult by the m-fold tensor series of the law.

    Needs m! invertible; the images Y_i -> f_i are the pieces of the
    term-by-term symmetric split of the tensor series.
    """
    _require_law(law)
    m = _count(m, 1, "m")
    return build_automorphism(symmetric_split(iterated_tensor_series(law, m, (n,) * m)))


def clear_memo() -> None:
    """Drop every memoized class, per characteristic or per law, the tables
    and columns of each characteristic, the laws' m-fold series and splits,
    and the gather's block offsets (for tests and benchmark passes); a law
    keeps its ``_symmetric_to``, and the built-in laws stay built."""
    _constants_memo.clear()
    _block_offsets.cache_clear()
