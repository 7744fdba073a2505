import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanblocks import linalg
from jordanblocks.errors import (
    AlgebraError,
    BadPrime,
    FactorialNotInvertible,
    InvalidInput,
    NotContained,
    NotNilpotent,
    NotUnipotent,
    ShapeMismatch,
    TruncationTooShort,
)
from jordanblocks.fgl import random_generalized_law
from jordanblocks.fields import GF, QQ, Field
from jordanblocks.linalg import (
    Matrix,
    Partition,
    apply_series,
    canonical_series_operator,
    exp_nilpotent,
    jordan_block,
    jordan_partition,
    nilpotent_from_partition,
    nilpotent_powers,
    solve_in_columns,
    unipotent_partition,
)
from jordanblocks.series import TruncatedPoly
from oracles import (
    dense_coefficients,
    fraction_matmul,
    full_power_partition,
    random_invertible,
    rref_rank_frac,
    rref_rank_mod,
    rref_solve,
)

partitions = st.lists(st.integers(1, 6), min_size=1, max_size=5).map(
    lambda xs: Partition(sorted(xs, reverse=True)))
PRIMES = [2, 3, 5, 7, 13]


def with_entry(m: Matrix, i: int, j: int, value) -> Matrix:
    """A copy of m with entry (i, j) set to value."""
    a = m.a.copy()
    a[i, j] = value
    return Matrix(m.field, a)


def random_conjugate(field, lam, rng) -> Matrix:
    """g N_lam g^-1 for a random invertible g."""
    g = random_invertible(field, Partition(lam).dim, rng)
    return g @ nilpotent_from_partition(field, lam) @ g.inverse()


def fraction_array(rows, shape) -> np.ndarray:
    """An object array of Fractions of the given shape (rows may be empty)."""
    a = np.empty(shape, dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            a[i, j] = Fraction(x)
    return a


def random_fractions(rng, shape, height=10, zeros=0.5) -> np.ndarray:
    """Seeded rationals of height at most ``height``, about ``zeros`` of them 0."""
    return fraction_array(
        [[0 if rng.random() < zeros else
          Fraction(rng.randint(-height, height), rng.randint(1, height))
          for _ in range(shape[1])] for _ in range(shape[0])], shape)


#: rationals with numerator and denominator up to 10**30 in absolute value,
#: and often zero, as the multiplication matrices are mostly zero
fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)))


@st.composite
def fraction_arrays(draw, nrows, ncols):
    return fraction_array(
        [[draw(fractions) for _ in range(ncols)] for _ in range(nrows)], (nrows, ncols))


def random_low_rank(p, nrows, ncols, rank, seed) -> np.ndarray:
    """A reduced nrows-by-ncols array of rank at most ``rank`` over F_p."""
    rng = np.random.default_rng(seed)
    left = rng.integers(0, p, size=(nrows, rank))
    right = rng.integers(0, p, size=(rank, ncols))
    return (left @ right) % p


#: primes on either side of each width edge of packed rows, with the field
#: width ``_packing`` gives them: one bit at p = 2, else the least of 16, 32
#: or a multiple of 64 bits that is at least 4L + 2 for p of bit length L
FIELD_WIDTHS = {2: 1, 7: 16, 11: 32, 127: 32, 131: 64, 32749: 64, 32771: 128,
                3037000493: 192}
#: small primes; the width edges whose F_p products stay float64-exact; the
#: largest prime below 2**20, whose quotients overflow a narrower field; and
#: the largest prime whose F_p products of length 2 stay float64-exact
PACKED_PRIMES = [2, 3, 5, 7, 11, 13, 127, 131, 32749, 32771, 1048573, 67108859]
#: the primes at which the conjugates in these tests stay float64-exact
CONJUGATE_PRIMES = PACKED_PRIMES[:-1]


def check_echelon(a, p):
    """The echelon form of ``a`` and its rank against the RREF oracle."""
    n, pivots = a.shape[1], linalg._echelon(a, p)
    e = linalg._unpack([pivots[c] for c in sorted(pivots)], n, linalg._packing(p, n)[0])
    rank = rref_rank_mod(a, p)
    assert Matrix(GF(p), a).rank() == e.shape[0] == rank, a.shape
    assert e.shape[1] == a.shape[1] and e.dtype == np.int64
    assert ((0 <= e) & (e < p)).all()
    leads = [int(np.flatnonzero(row)[0]) for row in e]
    assert leads == sorted(pivots) and all(row[c] == 1 for row, c in zip(e, leads))
    assert rref_rank_mod(np.vstack([a % p, e]), p) == rank


@st.composite
def prime_matrices(draw):
    """A prime and an array over it, its entries often 0, 1 or p - 1."""
    p = draw(st.sampled_from(PACKED_PRIMES))
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    entry = st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return p, np.array(rows, dtype=np.int64).reshape(nrows, ncols)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_equality_with_tuples(self):
        assert Partition((3, 1)) == (3, 1)
        assert Partition((3, 1)) != (3, 2)
        assert Partition(()) == ()
        assert isinstance(Partition((3, 1)), tuple)
        assert hash(Partition((3, 1))) == hash((3, 1))
        assert Partition((3, 1)) != [3, 1]

    @pytest.mark.parametrize("parts", [(2.5, 1), (2.0,), ("3",), [None], 5, "32"])
    def test_non_integers_are_refused(self, parts):
        with pytest.raises(InvalidInput, match="integer"):
            Partition(parts)

    def test_numpy_integers_pass(self):
        lam = Partition(np.array([3, 3, 1]))
        assert lam == (3, 3, 1) and lam.dim == 7 and all(type(x) is int for x in lam)
        assert repr(lam) == "Partition(3, 3, 1)" and str(lam) == "(3^2,1)"
        assert lam.multiplicity(3) == 2 and lam[1:] == (3, 1)

    def test_compressed(self):
        assert Partition((8, 8, 5)).compressed() == "(8^2,5)"
        assert Partition((4,)).compressed() == "(4)"

    def test_difference(self):
        assert Partition((5, 3, 3, 3, 3, 3, 1)).difference((3, 3, 1)) == (5, 3, 3, 3)
        assert Partition((3, 1)).difference(Partition((3, 1))) == ()
        with pytest.raises(NotContained):
            Partition((3, 1)).difference((2,))

    def test_json(self):
        assert Partition((4, 2)).to_json() == [4, 2]


class TestOperatorSizeBound:
    def test_bound_admits_j64_squared(self):
        linalg._require_operator_dim(64 * 64)
        with pytest.raises(InvalidInput, match="4097"):
            linalg._require_operator_dim(64 * 64 + 1)

    def test_gather_refuses_before_allocating(self):
        # a flat coefficient array of 10**10 entries would come first
        with pytest.raises(InvalidInput, match="past the supported"):
            canonical_series_operator(GF(5), ((100000,), (100000,)), np.eye(2, dtype=np.int64))


class TestJordanPartition:
    def test_two_visible_chains(self):
        # e3 -> e2, e2 -> 0, e1 -> 0
        f = GF(5)
        n = Matrix.from_rows(f, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        assert jordan_partition(n) == (2, 1)

    def test_zero_matrix(self):
        assert jordan_partition(Matrix.zeros(GF(3), 5, 5)) == (1, 1, 1, 1, 1)

    def test_char2_tensor_square(self):
        # J4 (x) 1 + 1 (x) J4 over F2 on 16 dimensions
        f = GF(2)
        j4 = jordan_block(f, 4)
        eye = Matrix.identity(f, 4)
        n = j4.kron(eye) + eye.kron(j4)
        assert jordan_partition(n) == (4, 4, 4, 4)

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            jordan_partition(Matrix.identity(GF(3), 2))

    def test_not_square(self):
        from jordanblocks.errors import NotSquare

        with pytest.raises(NotSquare):
            jordan_partition(Matrix.zeros(GF(3), 2, 3))

    def test_rational_field(self):
        n = nilpotent_from_partition(QQ, (3, 2))
        assert jordan_partition(n) == (3, 2)

    def test_canonical_blocks(self):
        f = GF(3)
        assert jordan_block(f, 1).is_zero()
        n = nilpotent_from_partition(f, (2, 1))
        assert n.a.tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]

    def test_block_size_below_one(self):
        with pytest.raises(InvalidInput):
            jordan_block(GF(3), 0)

    @given(partitions, st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, lam, p):
        assert jordan_partition(nilpotent_from_partition(GF(p), lam)) == lam

    @given(partitions, st.sampled_from([2, 5]))
    @settings(max_examples=20, deadline=None)
    def test_shape_reads_off_kernel_and_degree(self, lam, p):
        n = nilpotent_from_partition(GF(p), lam)
        part = jordan_partition(n)
        assert part.dim == n.nrows
        assert len(part) == n.nrows - n.rank()
        assert len(nilpotent_powers(n)) == max(lam)

    @given(partitions, st.sampled_from(CONJUGATE_PRIMES), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_conjugation_invariance(self, lam, p, seed):
        n = random_conjugate(GF(p), lam, random.Random(seed))
        assert jordan_partition(n) == lam
        assert full_power_partition(n) == lam


class TestEchelonKernel:
    """The packed-row echelon kernel and the restricted RREF against the
    full-RREF oracle."""

    @given(st.sampled_from(PACKED_PRIMES), st.integers(0, 14), st.integers(0, 14),
           st.integers(0, 14), st.integers(0, 10**6))
    @settings(max_examples=250, deadline=None)
    def test_rank_matches_oracle(self, p, nrows, ncols, rank, seed):
        a = random_low_rank(p, nrows, ncols, rank, seed)
        assert Matrix(GF(p), a).rank() == rref_rank_mod(a, p)

    @pytest.mark.parametrize("p", PACKED_PRIMES)
    def test_edge_shapes(self, p):
        rng = np.random.default_rng(p)
        top = np.full((6, 6), p - 1, dtype=np.int64)
        cases = [np.zeros((0, 3), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
                 np.zeros((0, 0), dtype=np.int64),
                 np.zeros((1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64),
                 np.full((1, 1), p - 1, dtype=np.int64),
                 np.zeros((4, 4), dtype=np.int64), np.eye(5, dtype=np.int64),
                 top, top - np.eye(6, dtype=np.int64) * (p > 2),
                 rng.integers(0, p, size=(2, 7)), rng.integers(0, p, size=(3, 11)),
                 rng.integers(0, p, size=(8, 3)), rng.integers(0, p, size=(3, 17)),
                 rng.integers(0, p, size=(17, 3)), rng.integers(0, p, size=(40, 40)),
                 random_low_rank(p, 12, 12, 4, p), random_low_rank(p, 20, 9, 6, p),
                 random_low_rank(p, 30, 30, 1, p),
                 np.vstack([random_low_rank(p, 5, 8, 2, p)] * 4)]
        for a in cases:
            check_echelon(a, p)

    @given(st.sampled_from(PACKED_PRIMES), st.integers(1, 14), st.integers(1, 14),
           st.integers(0, 14), st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_echelon_basis(self, p, nrows, ncols, rank, seed):
        check_echelon(random_low_rank(p, nrows, ncols, rank, seed), p)

    @given(prime_matrices())
    @settings(max_examples=100, deadline=None)
    def test_echelon_of_arbitrary_entries(self, case):
        check_echelon(*case[::-1])

    def test_one_reduction_at_p3(self):
        # [1, 2] reduced by the pivot [1, 1] is [0, 1] over F_3; a reduction
        # that acts fieldwise by XOR, as at p = 2, leaves [0, 3], whose lead
        # has no inverse, so this ends at once where the seeded shapes loop
        w = linalg._packing(3, 2)[0]
        pivots = linalg._insert_rows({}, linalg._pack(np.array([[1, 1], [1, 2]]), w), 3, 2)
        assert list(pivots) == [0, 1]
        assert linalg._unpack(list(pivots.values()), 2, w).tolist() == [[1, 1], [0, 1]]

    def test_field_width(self):
        assert {p: linalg._packing(p, 5)[0] for p in FIELD_WIDTHS} == FIELD_WIDTHS

    @pytest.mark.parametrize("p", FIELD_WIDTHS)
    def test_pack_layout(self, p):
        # column j of a packed row is bits [j w, (j + 1) w); at p = 2 a row is
        # its bits, and the rows unpack to the array
        w, rng = linalg._packing(p, 7)[0], random.Random(p)
        a = np.array([[rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(7)]
                      for _ in range(5)], dtype=np.int64)
        rows = linalg._pack(a, w)
        for row, packed in zip(a.tolist(), rows):
            assert packed == sum(x << (j * w) for j, x in enumerate(row))
        assert (linalg._unpack(rows, 7, w) == a).all()
        assert linalg._pack(a[:0], w) == [] and linalg._unpack([], 7, w).shape == (0, 7)

    @pytest.mark.parametrize("p", [2, 7, 11, 131, 32771])
    def test_transposed_input(self, p):
        # a transposed array is Fortran-ordered; at p = 2 its packed bits
        # were not C-contiguous and the row view raised ValueError
        rng = np.random.default_rng(p)
        nilpotent = np.triu(np.ones((20, 20), dtype=np.int64), 1)
        for a in (nilpotent, rng.integers(0, p, size=(9, 300))):
            w = linalg._packing(p, len(a))[0]
            assert linalg._pack(a.T, w) == linalg._pack(a.T.copy(), w)
            assert Matrix(GF(p), a.T).rank() == Matrix(GF(p), a.T.copy()).rank()
        assert (jordan_partition(Matrix(GF(p), nilpotent.T))
                == jordan_partition(Matrix(GF(p), nilpotent.T.copy())) == (20,))

    @pytest.mark.parametrize("p", [2, 7, 11, 131, 32771])
    def test_pack_chunk_boundaries(self, p, monkeypatch):
        # rows go _PACK_ROWS at a time: row counts on either side of each
        # multiple of a small chunk give the same rows, ranks and levels
        monkeypatch.setattr(linalg, "_PACK_ROWS", 3)
        w, rng = linalg._packing(p, 9)[0], np.random.default_rng(p)
        assert w == FIELD_WIDTHS[p]
        for m in range(11):
            a = rng.integers(0, p, size=(m, 9))
            rows = linalg._pack(a, w)
            assert rows == [sum(int(x) << (j * w) for j, x in enumerate(row)) for row in a]
            assert (linalg._unpack(rows, 9, w) == a).all()
            assert Matrix(GF(p), a).rank() == rref_rank_mod(a, p)
        assert linalg._pack(np.zeros((7, 0), dtype=np.int64), w) == []
        levels = rng.integers(0, p, size=(4, 2, 9))
        want = [rref_rank_mod(levels[:k].reshape(-1, 9), p) for k in range(5)]
        rows = linalg._rows(levels.reshape(8, 9), p)
        masks = linalg._prefix_masks([rows[2 * k:2 * k + 2] for k in range(4)], p, 9)
        assert [mask.bit_count() for mask in masks[::-1]] == want

    @staticmethod
    def sample(p, nrows, ncols, rank, seed) -> Matrix:
        """A seeded nrows-by-ncols matrix of rank at most ``rank`` over F_p, or
        over Q with non-integer entries when p == 0."""
        if p:
            return Matrix(GF(p), random_low_rank(p, nrows, ncols, rank, seed))
        return Matrix(QQ, TestRationalKernel.low_rank(random.Random(seed), nrows, ncols, rank))

    @staticmethod
    def exact_product(b, x) -> Matrix:
        if b.field.p:
            prod = b.a.astype(object) @ x.a.astype(object) % b.field.p
            return Matrix(b.field, prod.astype(np.int64).reshape(b.nrows, x.ncols))
        return Matrix(QQ, fraction_array(fraction_matmul(b.a, x.a).tolist(), (b.nrows, x.ncols)))

    @given(st.sampled_from(PACKED_PRIMES + [0]), st.integers(0, 8), st.integers(0, 8),
           st.integers(0, 8), st.integers(0, 3), st.booleans(), st.integers(0, 10**6))
    @settings(max_examples=250, deadline=None)
    def test_solve_and_inverse_match_oracle(self, p, nrows, ncols, rank, nrhs, consistent, seed):
        # wide and tall b, right-hand sides b x (consistent) or drawn freely
        # (mostly inconsistent once rank b < nrows), zero-column ones, and
        # squares of rank below their size, which must be refused as singular
        b = self.sample(p, nrows, ncols, rank, seed)
        if consistent:
            rhs = self.exact_product(b, self.sample(p, ncols, nrhs, ncols, seed + 1))
        else:
            rhs = self.sample(p, nrows, nrhs, nrows, seed + 2)
        got, want = solve_in_columns(b, rhs), rref_solve(b, rhs)
        assert (got is None) == (want is None)
        if consistent:
            assert got is not None
        if got is not None:
            assert got.shape == (ncols, nrhs) and got == want
            assert self.exact_product(b, got) == rhs
            assert all(type(x) is (Fraction if p == 0 else np.int64) for x in got.a.flat)
        square = self.sample(p, nrows, nrows, rank, seed + 3)
        want = rref_solve(square, Matrix.identity(square.field, nrows))
        if want is None:
            with pytest.raises(ZeroDivisionError, match="singular"):
                square.inverse()
        else:
            assert square.inverse() == want

    @pytest.mark.parametrize("p", PRIMES)
    def test_inverse_and_solve(self, p):
        field = GF(p)
        g = random_invertible(field, 7, random.Random(p))
        assert g @ g.inverse() == Matrix.identity(field, 7)
        b = Matrix(field, random_low_rank(p, 9, 5, 3, p))
        x = Matrix(field, np.random.default_rng(p).integers(0, p, size=(5, 4)))
        sol = solve_in_columns(b, b @ x)
        assert sol.shape == (5, 4)
        assert b @ sol == b @ x
        outside = Matrix.identity(field, 9)
        assert solve_in_columns(b, outside) is None

    def test_solve_over_q(self):
        b = Matrix.from_rows(QQ, [[1, 2], [0, 1], [3, 0]])
        x = Matrix.from_rows(QQ, [["1/2", -1], [2, "3/4"]])
        assert solve_in_columns(b, b @ x) == x
        assert solve_in_columns(b, Matrix.from_rows(QQ, [[1], [0], [0]])) is None

    def test_solve_and_inverse_at_the_largest_supported_prime(self):
        # past PACKED_PRIMES: a product of two entries can pass 2**63 here,
        # so the checks multiply in Python integers
        p = 3037000493
        field, rng = GF(p), random.Random(p)

        def sample(nrows, ncols) -> Matrix:
            return Matrix.from_rows(field, [[rng.randrange(p) for _ in range(ncols)]
                                            for _ in range(nrows)])

        g = random_invertible(field, 6, rng)
        assert self.exact_product(g, g.inverse()) == Matrix.identity(field, 6)
        b = self.exact_product(sample(8, 3), sample(3, 5))
        rhs = self.exact_product(b, sample(5, 4))
        sol = solve_in_columns(b, rhs)
        assert sol.shape == (5, 4) and self.exact_product(b, sol) == rhs
        assert solve_in_columns(b, Matrix.identity(field, 8)) is None


class TestChainAgainstOracle:
    """The ranks of the powers against the full-power chain."""

    @pytest.mark.parametrize("p", CONJUGATE_PRIMES)
    def test_seeded_conjugates(self, p):
        rng = random.Random(1000 + p)
        field = GF(p)
        for lam in [(1,), (2,), (4, 1), (3, 3, 2), (5, 2, 2, 1), (6, 4, 4, 1, 1), (9, 7, 1),
                    (12, 6, 6, 3)]:
            n = random_conjugate(field, lam, rng)
            assert jordan_partition(n) == full_power_partition(n) == lam

    def test_conjugates_at_the_largest_prime(self):
        # past dimension 2 the products at this prime raise BadPrime
        rng = random.Random(67)
        field = GF(PACKED_PRIMES[-1])
        for lam in [(1,), (2,), (1, 1)]:
            n = random_conjugate(field, lam, rng)
            assert jordan_partition(n) == full_power_partition(n) == lam

    @pytest.mark.parametrize("p", PRIMES)
    def test_zero_and_one_by_one(self, p):
        field = GF(p)
        for n in (Matrix.zeros(field, 1, 1), Matrix.zeros(field, 6, 6)):
            assert jordan_partition(n) == full_power_partition(n) == (1,) * n.nrows
        with pytest.raises(NotNilpotent):
            jordan_partition(Matrix.identity(field, 1))

    @given(partitions, st.sampled_from(CONJUGATE_PRIMES), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_not_nilpotent(self, lam, p, seed):
        # an upper-triangular matrix with a nonzero diagonal entry has a
        # nonzero eigenvalue, and so does each of its conjugates
        field = GF(p)
        rng = random.Random(seed)
        i = rng.randrange(lam.dim)
        t = with_entry(nilpotent_from_partition(field, lam), i, i, field.random_nonzero(rng))
        g = random_invertible(field, lam.dim, rng)
        u = g @ t @ g.inverse()
        with pytest.raises(NotNilpotent):
            jordan_partition(u)
        with pytest.raises(NotNilpotent):
            full_power_partition(u)

    def test_rational_levels_are_primitive(self, monkeypatch):
        # over Q the Krylov levels are integer rows: R_1 rows of the
        # numerator of N, each later level R_(l-1) N made primitive; the
        # count after the levels of the powers >= k is rank N^k
        seen = []
        prefix_masks = linalg._prefix_masks

        def spy(levels, p, dim):
            masks = prefix_masks(levels, p, dim)
            seen.append((np.array(levels, dtype=object).reshape(len(levels), -1, dim),
                         [mask.bit_count() for mask in masks]))
            return masks

        monkeypatch.setattr(linalg, "_prefix_masks", spy)
        rng = random.Random(5)
        for lam in [(3, 2, 2), (4, 2, 1), (5,), (2, 1, 1, 1)]:
            n = random_conjugate(QQ, lam, rng)
            assert any(x.denominator != 1 for x in n.a.flat)
            seen.clear()
            assert jordan_partition(n) == full_power_partition(n) == lam
            [(levels, ranks)] = seen
            dim = sum(lam)
            assert levels.shape == (max(lam) - 1, len(lam), dim)
            assert all(type(x) is int for x in levels.flat)
            assert all(row in n.num.tolist() for row in levels[-1].tolist())
            assert all(math.gcd(*row) in (0, 1) for row in levels[:-1].reshape(-1, dim).tolist())
            assert ranks[0] == n.rank() == dim - len(lam)
            assert [ranks] == power_ranks(n) == [ranks_of_type(lam)]


#: small primes, and each width edge of packed rows (``FIELD_WIDTHS``) whose
#: products stay float64-exact: every width from 1 to 128 bits
KRYLOV_PRIMES = [2, 3, 5, 7, 11, 127, 131, 32749, 32771]
#: the same over Q as well (characteristic 0)
KRYLOV_FIELDS = KRYLOV_PRIMES + [0]


def power_ranks(*mats) -> list:
    """``linalg._power_ranks`` of the stack of the matrices' numerators."""
    return linalg._power_ranks(np.stack([mat.num for mat in mats]), mats[0].field.p)


def ranks_of_type(lam) -> list:
    """rank N^k for k = 1, ..., max(lam) of a nilpotent of Jordan type lam."""
    return [sum(max(x - k, 0) for x in lam) for k in range(1, max(lam) + 1)]


@st.composite
def krylov_types(draw):
    """Skewed (e, 1^k), equal-block, single-block and arbitrary partitions."""
    kind = draw(st.sampled_from(["skewed", "equal", "single", "any"]))
    if kind == "skewed":
        return Partition((draw(st.integers(1, 12)),) + (1,) * draw(st.integers(0, 8)))
    if kind == "equal":
        return Partition((draw(st.integers(1, 6)),) * draw(st.integers(1, 5)))
    if kind == "single":
        return Partition((draw(st.integers(1, 16)),))
    return draw(partitions)


class TestKrylovRanks:
    """The F_p and Q ranks of N^k from one Krylov elimination against the
    ranks of the full powers, and the NotNilpotent and BadPrime refusals."""

    TYPES = [(1,), (2,), (7,), (16,), (9, 1, 1, 1, 1), (12, 1, 1, 1, 1, 1), (6, 1),
             (3, 3, 3, 3), (5, 5), (2, 2, 2, 2, 2, 2), (4, 3, 3, 1), (1,) * 6]

    @staticmethod
    def check(n, lam):
        assert jordan_partition(n) == full_power_partition(n) == lam
        assert power_ranks(n) == [ranks_of_type(lam)]

    @pytest.mark.parametrize("p", KRYLOV_FIELDS)
    def test_seeded_conjugates(self, p):
        field, rng = Field(p), random.Random(3000 + p)
        for lam in self.TYPES:
            # the canonical nilpotent's leads skip column 0: no prefix
            self.check(nilpotent_from_partition(field, lam), lam)
            self.check(random_conjugate(field, lam, rng), lam)
        self.check(Matrix.zeros(field, 5, 5), (1,) * 5)
        empty = Matrix.zeros(field, 0, 0)
        assert jordan_partition(empty) == full_power_partition(empty) == ()

    @given(krylov_types(), st.sampled_from(KRYLOV_FIELDS), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_conjugates_match_oracle(self, lam, p, seed):
        self.check(random_conjugate(Field(p), lam, random.Random(seed)), lam)

    @staticmethod
    def not_nilpotent(field, rng) -> list:
        """The identity, diag(1, 0), diag(1) + J_2, a matrix whose Krylov rows
        never vanish (e_1 and e_2 swap), and a conjugate with one nonzero
        diagonal entry."""
        cycle = Matrix.from_rows(field, [[0, 1, 0], [0, 0, 1], [0, 1, 0]])
        t = with_entry(nilpotent_from_partition(field, (3, 2, 1)), 4, 4,
                       field.random_nonzero(rng))
        g = random_invertible(field, 6, rng)
        return [Matrix.identity(field, 1), Matrix.identity(field, 4),
                Matrix.from_rows(field, [[1, 0], [0, 0]]),
                Matrix.from_rows(field, [[1, 0, 0], [0, 0, 1], [0, 0, 0]]),
                cycle, g @ t @ g.inverse()]

    @pytest.mark.parametrize("p", KRYLOV_FIELDS)
    def test_not_nilpotent(self, p):
        field = Field(p)
        for n in self.not_nilpotent(field, random.Random(p)):
            with pytest.raises(NotNilpotent):
                jordan_partition(n)
            with pytest.raises(NotNilpotent):
                power_ranks(n)
            with pytest.raises(NotNilpotent):
                full_power_partition(n)

    def test_prime_past_the_float_bound(self):
        field = GF(PRIME_PAST_BOUND)
        for lam in [(3,), (2, 1), (4, 4)]:
            with pytest.raises(BadPrime):
                jordan_partition(nilpotent_from_partition(field, lam))

    @pytest.mark.parametrize("p", [2, 5])
    def test_one_elimination_whatever_the_index(self, p, monkeypatch):
        # the stack packed once and its levels packed once, then one stacked
        # product per level R_2, ..., R_e of the deepest member
        field, rng = GF(p), random.Random(p)
        cases = [[(lam, random_conjugate(field, lam, rng))]
                 for lam in [(1,), (2,), (4, 1), (7, 7), (12,), (20, 1, 1)]]
        cases.append([(lam, random_conjugate(field, lam, rng))
                      for lam in [(2, 2, 2, 1), (7,), (1,) * 7, (4, 3)]])
        calls = {"pack": 0, "product": 0}
        pack, matmul_mod = linalg._pack, linalg._matmul_mod

        def pack_spy(*args):
            calls["pack"] += 1
            return pack(*args)

        def product_spy(*args):
            calls["product"] += 1
            return matmul_mod(*args)

        monkeypatch.setattr(linalg, "_pack", pack_spy)
        monkeypatch.setattr(linalg, "_matmul_mod", product_spy)
        for case in cases:
            calls.update(pack=0, product=0)
            lams, mats = zip(*case)
            assert linalg.jordan_partitions(mats) == list(lams)
            assert calls == {"pack": 2, "product": max(map(max, lams)) - 1}, lams


#: the batch's fields: small primes, a prime of 64-bit fields, and Q
BATCH_FIELDS = [2, 3, 5, 13, 32771, 0]


@st.composite
def batch_types(draw):
    """One to six partitions of one dimension up to 9, of mixed index."""
    dim = draw(st.integers(1, 9))
    lams = []
    for _ in range(draw(st.integers(1, 6))):
        parts, left = [], dim
        while left:
            parts.append(draw(st.integers(1, left)))
            left -= parts[-1]
        lams.append(Partition(sorted(parts, reverse=True)))
    return lams


class TestBatchedPartitions:
    """``jordan_partitions`` of a stack against the full-power oracle, member
    by member, and its refusals."""

    @staticmethod
    def check(mats, lams):
        assert linalg.jordan_partitions(mats) == [full_power_partition(n) for n in mats] == lams
        assert power_ranks(*mats) == [ranks_of_type(lam) for lam in lams]

    @pytest.mark.parametrize("p", BATCH_FIELDS)
    def test_seeded_stacks(self, p):
        # canonical and conjugated members of every index at one dimension,
        # in either order, so that each member's complement is the widest
        # in some stack and the narrowest in another
        field, rng = Field(p), random.Random(4000 + p)
        for lams in [[(7,), (4, 3), (1,) * 7, (2, 2, 2, 1), (5, 1, 1), (3, 3, 1)],
                     [(12,), (1,) * 12], [(6, 6), (9, 2, 1), (4, 4, 4)], [(1,)], [(3,)]]:
            lams = [Partition(lam) for lam in lams]
            mats = [random_conjugate(field, lam, rng) for lam in lams]
            mats += [nilpotent_from_partition(field, lam) for lam in lams]
            self.check(mats, lams + lams)
            self.check(mats[::-1], (lams + lams)[::-1])
        n = random_conjugate(field, (5, 2), rng)
        assert linalg.jordan_partitions([n]) == [jordan_partition(n)] == [(5, 2)]
        empty = Matrix.zeros(field, 0, 0)
        assert linalg.jordan_partitions([empty] * 3) == [()] * 3
        assert full_power_partition(empty) == ()

    @given(batch_types(), st.sampled_from(BATCH_FIELDS), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_stacks_match_oracle(self, lams, p, seed):
        field, rng = Field(p), random.Random(seed)
        self.check([random_conjugate(field, lam, rng) for lam in lams], lams)

    @pytest.mark.parametrize("p", BATCH_FIELDS)
    def test_one_member_not_nilpotent(self, p):
        # any member that is not nilpotent refuses the whole stack, wherever
        # it stands among nilpotent members of every index
        field, rng = Field(p), random.Random(p)
        for bad in TestKrylovRanks.not_nilpotent(field, rng):
            dim = bad.nrows
            good = [nilpotent_from_partition(field, (dim,)),
                    random_conjugate(field, (1,) * dim, rng)]
            for at in range(3):
                with pytest.raises(NotNilpotent):
                    linalg.jordan_partitions(good[:at] + [bad] + good[at:])

    def test_mixed_stacks_and_no_matrices(self):
        n5 = jordan_block(GF(5), 3)
        for other in (jordan_block(GF(5), 4), Matrix.zeros(GF(5), 3, 2), jordan_block(GF(7), 3),
                      jordan_block(QQ, 3), TruncatedPoly(GF(5), (3, 3), {(0, 1): 1}), "J_3"):
            with pytest.raises(ShapeMismatch):
                linalg.jordan_partitions([n5, other])
            with pytest.raises(ShapeMismatch):
                linalg.jordan_partitions([n5, n5, other])
            with pytest.raises(ShapeMismatch):
                linalg.jordan_partitions([other, n5])
        with pytest.raises(InvalidInput):
            linalg.jordan_partitions([])
        with pytest.raises(linalg.NotSquare):
            linalg.jordan_partitions([Matrix.zeros(GF(5), 2, 3)] * 2)


class TestRationalKernel:
    """Integer products and echelon ranks over Q against the Fraction oracles."""

    @staticmethod
    def check_product(a, b):
        got = (Matrix(QQ, a) @ Matrix(QQ, b)).a
        assert got.shape == (a.shape[0], b.shape[1])
        assert np.array_equal(got, fraction_matmul(a, b))
        assert all(type(x) is Fraction for x in got.flat)

    def test_product_edge_shapes(self):
        rng = random.Random(7)
        big = 10**30
        for m, k, n in [(0, 3, 2), (2, 3, 0), (3, 0, 2), (0, 0, 0), (1, 1, 1)]:
            self.check_product(random_fractions(rng, (m, k)), random_fractions(rng, (k, n)))
        zero = fraction_array([[0] * 4] * 3, (3, 4))
        self.check_product(zero, random_fractions(rng, (4, 5), zeros=0))
        self.check_product(random_fractions(rng, (2, 3), zeros=0), zero)
        mixed = fraction_array([[Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 7)],
                                [Fraction(big - 1, big), Fraction(-big, 3), 0]], (2, 3))
        heights = fraction_array([[Fraction(-big, big + 1), 1], [Fraction(7, big), -3],
                                  [0, Fraction(big, 9)]], (3, 2))
        self.check_product(mixed, heights)
        self.check_product(mixed, mixed.T.copy())
        self.check_product(random_fractions(rng, (9, 12), height=big),
                           random_fractions(rng, (12, 7), height=big))

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_product_matches_oracle(self, m, k, n, data):
        self.check_product(data.draw(fraction_arrays(m, k)), data.draw(fraction_arrays(k, n)))

    @staticmethod
    def low_rank(rng, nrows, ncols, rank, zero_rows=(), height=10):
        """L R for random rational L (nrows x rank) and R (rank x ncols), with
        the rows in ``zero_rows`` set to zero."""
        a = fraction_matmul(random_fractions(rng, (nrows, rank), height, zeros=0.3),
                            random_fractions(rng, (rank, ncols), height, zeros=0.3))
        a = fraction_array(a.tolist(), (nrows, ncols))
        for i in zero_rows:
            a[i] = Fraction(0)
        return a

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9),
           st.sampled_from([1, 10, 10**30]), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_rank_matches_oracle(self, nrows, ncols, rank, height, seed):
        rng = random.Random(seed)
        zero_rows = [i for i in range(nrows) if rng.random() < 0.2]
        a = self.low_rank(rng, nrows, ncols, rank, zero_rows, height)
        assert Matrix(QQ, a).rank() == rref_rank_frac(a)

    def seeded_rank_cases(self):
        rng = random.Random(11)
        return [fraction_array([], (0, 4)), fraction_array([[], [], []], (3, 0)),
                fraction_array([[0]], (1, 1)), fraction_array([["-3/7"]], (1, 1)),
                fraction_array([[0] * 5] * 4, (4, 5)),
                self.low_rank(rng, 3, 11, 2), self.low_rank(rng, 2, 9, 5),
                self.low_rank(rng, 12, 4, 3, zero_rows=(0, 5)),
                self.low_rank(rng, 10, 3, 7, zero_rows=(9,)),
                self.low_rank(rng, 8, 8, 5, zero_rows=(2, 3), height=10**30),
                random_fractions(rng, (7, 7), zeros=0.8)]

    def test_seeded_ranks(self):
        for a in self.seeded_rank_cases():
            assert Matrix(QQ, a).rank() == rref_rank_frac(a), a.shape

    def test_ranks_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        for a in self.seeded_rank_cases():
            if a.size:
                want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                     for row in a]).rank()
                assert Matrix(QQ, a).rank() == want, a.shape

    def test_seeded_conjugates(self):
        rng = random.Random(2024)
        for lam in [(1,), (3,), (2, 2), (4, 2, 1), (3, 3, 1, 1)]:
            n = random_conjugate(QQ, lam, rng)
            assert jordan_partition(n) == full_power_partition(n) == lam

    def test_partitions_match_sympy_jordan_form(self):
        sympy = pytest.importorskip("sympy")

        def jordan_type(m: Matrix) -> Partition:
            # block sizes of sympy's Jordan form, cut where its superdiagonal is 0
            a = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                              for row in m.a])
            j = a.jordan_form(calc_transform=False)
            assert all(j[i, i] == 0 for i in range(a.rows))
            cuts = [i + 1 for i in range(a.rows - 1) if j[i, i + 1] == 0]
            sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [a.rows])]
            return Partition(sorted(sizes, reverse=True))

        rng = random.Random(77)
        for lam in [(2,), (3, 1), (2, 2, 1), (4, 2, 2), (3, 3, 2)]:
            n = random_conjugate(QQ, lam, rng)
            assert any(x.denominator != 1 for x in n.a.flat)
            assert jordan_partition(n) == jordan_type(n) == lam
        for seed, (n, m) in enumerate([(1, 3), (2, 2), (2, 4), (3, 3), (3, 4)]):
            law = random_generalized_law(seed, n + m, QQ)
            op = canonical_series_operator(QQ, ((n,), (m,)),
                                           *dense_coefficients(QQ, law.coeffs, (n, m)))
            assert jordan_partition(op) == jordan_type(op)


#: rationals of both signs, a third of them zero, with numerators and
#: denominators past 2**63
wide_fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**70)),
    st.integers(-5, 5).map(Fraction))


class TestIntegerRationals:
    """Q matrices as num / den against Fraction arithmetic on object arrays."""

    @staticmethod
    def check(got: Matrix, want: np.ndarray, field: Field = QQ):
        # over Q the entries of the Fraction oracle, held in lowest terms, so
        # that the matrix built from the oracle's entries has the same
        # (num, den); over F_p the exact integer result, which must come back
        # as int64 entries in range(p) over den 1
        assert got.shape == want.shape
        if field.p:
            assert got.num.dtype == np.int64 and got.den == 1
            assert ((0 <= got.num) & (got.num < field.p)).all()
            want = want % field.p
        else:
            assert all(type(x) is int for x in got.num.flat)
            assert got.den > 0 and math.gcd(got.den, *got.num.flat) == 1
        assert np.array_equal(got.a, want)
        built = Matrix(field, want)
        assert got.den == built.den and np.array_equal(got.num, built.num)
        assert got == built and hash(got) == hash(built)

    def check_operations(self, a, b, c, scalar, field: Field = QQ):
        """a and b of one shape, c with as many rows as a has columns."""
        x, y, z = Matrix(field, a), Matrix(field, b), Matrix(field, c)
        self.check(x, a, field)
        self.check(x + y, a + b, field)
        self.check(x - y, a - b, field)
        self.check(-x, -a, field)
        self.check(x.scale(scalar), a * scalar, field)
        self.check(x @ z, fraction_matmul(a, c).reshape(a.shape[0], c.shape[1]), field)
        self.check(x.kron(z), np.kron(a, c), field)
        self.check(x.T, a.T.copy(), field)
        self.check(Matrix.hstack([x, y]), np.hstack([a, b]), field)
        p = field.p
        assert (x == y) == (np.array_equal(a % p, b % p) if p else np.array_equal(a, b))
        assert x.rank() == (rref_rank_mod(a, p) if p else rref_rank_frac(a))
        assert x.is_zero() == all((v % p if p else v) == 0 for v in a.flat)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (4, 4)])
    @pytest.mark.parametrize("height", [10, 2**64 + 13])
    def test_seeded_operations(self, shape, height):
        rng = random.Random(shape[0] * 10 + shape[1] + height % 97)
        a = random_fractions(rng, shape, height)
        b = random_fractions(rng, shape, height, zeros=0.2)
        c = random_fractions(rng, shape[::-1], height)
        for scalar in (Fraction(-2**70, 3), Fraction(0), Fraction(7, 5), Fraction(-1)):
            self.check_operations(a, b, c, scalar)
        self.check_operations(a, a.copy(), c, 1)

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), wide_fractions,
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_operations_match_fraction_arithmetic(self, m, n, k, scalar, data):
        def draw(rows, cols):
            entries = st.lists(wide_fractions, min_size=rows * cols, max_size=rows * cols)
            return np.array(data.draw(entries), dtype=object).reshape(rows, cols)

        self.check_operations(draw(m, n), draw(m, n), draw(n, k), scalar)

    @given(st.integers(0, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverse_matches_fraction_elimination(self, n, data):
        entries = st.lists(wide_fractions, min_size=n * n, max_size=n * n)
        a = np.array(data.draw(entries), dtype=object).reshape(n, n)
        x, eye = Matrix(QQ, a), Matrix.identity(QQ, n)
        want = rref_solve(x, eye)
        if want is None:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            return
        inverse = x.inverse()
        self.check(inverse, want.a)
        assert x @ inverse == eye == inverse @ x

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=2).map(
        lambda xs: Partition(sorted(xs, reverse=True))), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_jordan_type_under_wide_conjugation(self, lam, seed):
        # conjugating by a matrix with entries past 2**63 keeps the type
        rng = random.Random(seed)
        while True:
            g = Matrix(QQ, random_fractions(rng, (lam.dim, lam.dim), 2**64, zeros=0.3))
            if g.rank() == lam.dim:
                break
        n = g @ nilpotent_from_partition(QQ, lam) @ g.inverse()
        assert jordan_partition(n) == full_power_partition(n) == lam

    def test_equal_matrices_share_num_den_and_hash(self):
        half = Matrix.from_rows(QQ, [["1/2", 1], [0, "-3/4"]])
        routes = [
            Matrix.from_rows(QQ, [["1/2", 1], [0, "-3/4"]]),
            Matrix(QQ, np.array([[Fraction(2, 4), Fraction(6, 6)], [0, Fraction(-6, 8)]])),
            half.scale(6).scale(Fraction(1, 6)),
            (half + half).scale(Fraction(1, 2)),
            half - Matrix.zeros(QQ, 2, 2),
            Matrix.identity(QQ, 2) @ half,
            half.T.T,
            Matrix.from_rows(QQ, [[2]]).kron(half).scale(Fraction(1, 2)),
            half.inverse().inverse(),
        ]
        for m in routes:
            assert (m.den, m.num.tolist()) == (4, [[2, 4], [0, -3]])
            assert m == half and hash(m) == hash(half)
        row = Matrix.from_rows(QQ, [["1/3", "2/3"]])
        for m in (Matrix.from_rows(QQ, [[1, 2]]), row.scale(3), row + row + row,
                  row.scale(0) + Matrix.from_rows(QQ, [["3/3", 2]])):
            assert (m.den, m.num.tolist()) == (1, [[1, 2]])
        assert Matrix.zeros(QQ, 2, 2) == half.scale(0)
        # one numerator over two denominators
        assert Matrix.from_rows(QQ, [["1/2", "3/2"]]) != Matrix.from_rows(QQ, [["1/3", 1]])
        assert (half.scale(0).den, hash(half.scale(0))) == (1, hash(Matrix.zeros(QQ, 2, 2)))

    @pytest.mark.parametrize("p", [2, 5, 32749, 1048573])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (4, 4)])
    def test_fp_operations_are_reduced(self, p, shape):
        # F_p as one more field: unreduced and negative Python ints in
        # object arrays, and every result reduced into range(p) over den 1
        field, rng = GF(p), random.Random(p * 100 + shape[0] * 10 + shape[1])

        def draw(nrows, ncols):
            return np.array([[rng.randint(-3 * p, 3 * p) for _ in range(ncols)]
                             for _ in range(nrows)], dtype=object).reshape(nrows, ncols)

        a = draw(*shape)
        self.check_operations(a, draw(*shape), draw(*shape[::-1]), rng.randint(-3 * p, 3 * p),
                              field)
        self.check(Matrix.from_rows(field, a.tolist()), a if len(a) else a.reshape(0, 0), field)
        self.check(Matrix.zeros(field, *shape), np.zeros(shape, dtype=object), field)
        self.check(Matrix.identity(field, shape[0]),
                   np.eye(shape[0], dtype=np.int64).astype(object), field)
        x = Matrix(field, a)
        if shape[0] == shape[1] and x.rank() == shape[0]:
            inverse = x.inverse()
            self.check(inverse, inverse.num.astype(object), field)
            assert x @ inverse == Matrix.identity(field, shape[0])

    def test_rational_pivots_are_primitive_with_positive_leads(self):
        # a row over a common denominator is divided by the gcd of its
        # entries, so its size is that of the row's own denominators; a
        # zero row is dropped
        assert linalg._echelon(np.array([[6, 12, 18], [0, 0, 0], [0, 10**40, 3 * 10**40]],
                                        dtype=object), 0) == {0: [1, 2, 3], 1: [0, 1, 3]}
        rng = random.Random(8)
        for nrows, ncols, rank in [(6, 6, 4), (9, 5, 5), (4, 10, 3), (8, 8, 8)]:
            a = Matrix(QQ, TestRationalKernel.low_rank(rng, nrows, ncols, rank, height=10**6))
            pivots = linalg._echelon(-a.num, 0)
            assert len(pivots) == a.rank() == rref_rank_frac(a.a)
            for lead, row in pivots.items():
                assert not any(row[:lead]) and row[lead] > 0 and math.gcd(*row) == 1

    def test_entries_are_a_read_only_fraction_view(self):
        m = Matrix.from_rows(QQ, [["1/2", 3]])
        assert m.a.tolist() == [[Fraction(1, 2), 3]]
        assert all(type(x) is Fraction for x in m.a.flat)
        with pytest.raises(ValueError, match="read-only"):
            m.a[0, 0] = 5
        assert m.a[0, 0] == Fraction(1, 2) and m.num.tolist() == [[1, 6]]
        # over F_p the entries are the writable int64 storage itself
        f = Matrix.from_rows(GF(5), [[1, 2]])
        assert f.a is f.num and f.a.flags.writeable and f.a.dtype == np.int64

    def test_products_and_ranks_build_no_fraction(self, monkeypatch):
        # a product is one integer dot product over den * den, a rank one
        # echelon of num
        import fractions

        a = Matrix(QQ, random_fractions(random.Random(3), (6, 6), 10**6, zeros=0.1))
        built = []
        real = fractions.Fraction.__new__
        monkeypatch.setattr(fractions.Fraction, "__new__",
                            lambda cls, *args, **kw: built.append(args) or real(cls, *args, **kw))
        product = a @ a @ a
        assert product.rank() == a.rank() and not built
        assert product.a.shape == (6, 6) and built  # the view is built on its first read


class TestConstructor:
    """Matrix(field, a) validates and normalizes in both fields."""

    def test_fp_entries_are_reduced(self):
        five = Matrix(GF(5), np.array([[5]]))
        assert five.rank() == 0 and five.is_zero() and five == Matrix.zeros(GF(5), 1, 1)
        assert hash(five) == hash(Matrix.zeros(GF(5), 1, 1))
        got = Matrix(GF(5), np.array([[7, -1], [10, -6]]))
        assert got.num.dtype == np.int64 and got.num.tolist() == [[2, 4], [0, 4]]
        assert got == Matrix.from_rows(GF(5), [[2, 4], [0, 4]])

    @pytest.mark.parametrize("a", [
        np.array([[True, False]]),
        np.array([[6, 9]], dtype=np.int8),
        np.array([[6, 2**64 - 1]], dtype=np.uint64),
        np.array([[6, -1]], dtype=object),
        np.array([[2**70 + 1, np.int64(-1)]], dtype=object),
    ], ids=["bool", "int8", "uint64", "object", "object-wide"])
    def test_fp_integer_dtypes_are_accepted(self, a):
        got = Matrix(GF(5), a)
        want = [[int(x) % 5 for x in row] for row in a.tolist()]
        assert got.num.dtype == np.int64 and got.den == 1 and got.num.tolist() == want

    @pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
    @pytest.mark.parametrize("a", [
        np.array([[0.5, 1]]),
        np.array([[2.0]]),
        np.array([[1j]]),
        np.array([[0.5, 1]], dtype=object),
    ], ids=["float", "integral-float", "complex", "object-float"])
    def test_inexact_entries_are_invalid(self, field, a):
        with pytest.raises(InvalidInput):
            Matrix(field, a)

    def test_the_matrix_owns_its_entries(self):
        a = np.array([[1, 2]])
        m = Matrix(GF(5), a)
        a[0, 0] = 3
        assert m.num.tolist() == [[1, 2]]

    def test_numpy_integers_over_q_stay_exact(self):
        # a Fraction of an int64 would keep int64 parts and wrap
        for m in (Matrix.from_rows(QQ, [[np.int64(2**40), Fraction(1, 2**30)]]),
                  Matrix(QQ, np.array([[np.int64(2**40), Fraction(1, 2**30)]], dtype=object))):
            assert (m.den, m.num.tolist()) == (2**30, [[2**70, 1]])
            assert all(type(x) is int for x in m.num.flat)


class TestOperandChecks:
    """Arithmetic refuses operands over another field or of unfit shapes."""

    @pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
    def test_sum_and_difference_need_one_shape(self, field):
        square = Matrix.identity(field, 2)
        row = Matrix.from_rows(field, [[1, 2]])
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(ShapeMismatch):
                op(square, row)
            with pytest.raises(ShapeMismatch):
                op(row, square)

    @pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
    def test_product_needs_inner_dimensions_to_agree(self, field):
        a = Matrix.zeros(field, 2, 3)
        with pytest.raises(ShapeMismatch):
            a @ a
        with pytest.raises(ShapeMismatch):
            solve_in_columns(a, Matrix.zeros(field, 3, 1))
        assert (a @ a.T).shape == (2, 2)

    @pytest.mark.parametrize("ops", ["+", "-", "@", "kron"])
    @pytest.mark.parametrize("fields", [(GF(5), GF(7)), (GF(5), QQ), (QQ, GF(2))], ids=str)
    def test_operands_over_different_fields(self, ops, fields):
        x, y = (Matrix.identity(field, 2) for field in fields)
        op = {"+": lambda: x + y, "-": lambda: x - y, "@": lambda: x @ y,
              "kron": lambda: x.kron(y)}[ops]
        with pytest.raises(ShapeMismatch):
            op()

    def test_different_fields_are_unequal(self):
        assert Matrix.identity(GF(5), 2) != Matrix.identity(QQ, 2)

    @pytest.mark.parametrize("ops", ["+", "-", "@", "kron", "series *"])
    def test_operands_that_are_not_exact_arrays(self, ops):
        x = Matrix.identity(GF(5), 2)
        g = TruncatedPoly.variable(GF(5), (3,), 0)
        op = {"+": lambda: x + 3, "-": lambda: x - 3, "@": lambda: x @ 3,
              "kron": lambda: x.kron(3), "series *": lambda: g * 3}[ops]
        with pytest.raises(ShapeMismatch, match="and int$"):
            op()


class TestFromRows:
    @pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
    def test_ragged_rows_are_invalid(self, field):
        for rows in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]]):
            with pytest.raises(InvalidInput, match="ragged"):
                Matrix.from_rows(field, rows)

    @pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
    def test_empty_shapes(self, field):
        assert Matrix.from_rows(field, []) == Matrix.zeros(field, 0, 0)
        assert Matrix.from_rows(field, []).shape == (0, 0)
        assert Matrix.from_rows(field, [[], []]).shape == (2, 0)

    def test_entries_go_through_the_field(self):
        assert Matrix.from_rows(GF(5), [[7, -1]]).a.tolist() == [[2, 4]]
        assert Matrix.from_rows(QQ, [["2/4", 3]]).a.tolist() == [[Fraction(1, 2), 3]]
        with pytest.raises(InvalidInput):
            Matrix.from_rows(QQ, [[0.5]])


class TestTypedPostconditions:
    def test_partition_dimension_check(self, monkeypatch):
        # kernel dimensions 1, 3 of a 3x3 operator jump by 2 after a jump of
        # 1, which no nilpotent allows: their conjugate is (2), not of size 3
        def wrong_ranks(stack, p):
            return [[2, 0]]

        monkeypatch.setattr(linalg, "_power_ranks", wrong_ranks)
        with pytest.raises(AlgebraError, match="partition of 2, not 3"):
            jordan_partition(Matrix.zeros(GF(5), 3, 3))

    def test_growing_steps_are_refused(self):
        # kernel dimensions 2, 3, 5 grow by 2, 1, 2, which adds up to 5, but
        # no nilpotent has more blocks of size >= 3 than of size >= 2: the
        # last step is cut to 1, which leaves a partition of 4
        with pytest.raises(AlgebraError, match=r"\[2, 3, 5\] give a partition of 4, not 5"):
            linalg._partition_from_ranks([3, 2, 0], 5)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_partition_from_its_ranks(self, n):
        # rank N^k of the canonical nilpotent is the sum of max(part - k, 0)
        def partitions(n, top):
            if not n:
                yield ()
            for first in range(min(n, top), 0, -1):
                for rest in partitions(n - first, first):
                    yield (first, *rest)

        for lam in partitions(n, n):
            ranks = [sum(max(x - k, 0) for x in lam) for k in range(1, lam[0] + 1)]
            assert linalg._partition_from_ranks(ranks, n) == lam


#: around the float64 exactness bound (p-1)**2 * n < 2**53 at inner length n = 2
PRIME_BELOW_BOUND = 67108859
PRIME_PAST_BOUND = 67108879
#: (p-1)**2 passes 2**63, past the supported range of elimination
PRIME_PAST_INT64 = 4000000007


class TestExactnessGuard:
    def test_product_below_bound_is_exact(self):
        p = PRIME_BELOW_BOUND
        a = Matrix.from_rows(GF(p), [[p - 1, p - 2], [p - 3, p - 1]])
        want = [[sum(int(a.a[i, k]) * int(a.a[k, j]) for k in range(2)) % p
                 for j in range(2)] for i in range(2)]
        assert (a @ a).a.tolist() == want

    def test_product_past_bound_raises(self):
        field = GF(PRIME_PAST_BOUND)
        with pytest.raises(BadPrime):
            Matrix.identity(field, 2) @ Matrix.identity(field, 2)
        with pytest.raises(BadPrime):
            jordan_partition(jordan_block(field, 2))

    def test_elimination_past_int64_raises(self):
        # the field itself is refused, so no matrix over it is ever made
        with pytest.raises(BadPrime):
            Matrix.from_rows(GF(PRIME_PAST_INT64), [[2, 1, 0], [1, 1, 5], [0, 7, 1]])

    def test_scale_and_kron_past_int64_raise(self):
        # (p - 1)**2 wraps int64 here: the field is refused, so no scale
        # or Kronecker product can give 2572250462 for 1
        p = PRIME_PAST_INT64
        with pytest.raises(BadPrime):
            Matrix.from_rows(GF(p), [[p - 1]])
        # the largest supported prime still scales exactly
        q = 3037000493
        b = Matrix.from_rows(GF(q), [[q - 1]])
        assert b.scale(q - 1).num.tolist() == b.kron(b).num.tolist() == [[1]]

    def test_sums_scale_and_kron_exact_at_the_largest_supported_prime(self):
        # entries near q, whose sums, products and Kronecker products come
        # closest to 2**63 inside the supported range, all stay exact
        q = 3037000493
        field = GF(q)
        a = Matrix.from_rows(field, [[q - 1, q - 2], [1, q - 1]])
        b = Matrix.from_rows(field, [[q - 1, 2], [q - 3, q - 1]])
        want = lambda f: [[f(int(x), int(y)) % q for x, y in zip(r, t)]
                          for r, t in zip(a.num.tolist(), b.num.tolist())]
        assert (a + b).num.tolist() == want(lambda x, y: x + y)
        assert (a - b).num.tolist() == want(lambda x, y: x - y)
        assert (-a).num.tolist() == [[1, 2], [q - 1, 1]]
        assert a.scale(q - 2).num.tolist() == [[(x * (q - 2)) % q for x in r]
                                               for r in a.num.tolist()]
        kron = [[(x * y) % q for x in r for y in t] for r in a.num.tolist()
                for t in b.num.tolist()]
        assert a.kron(b).num.tolist() == kron

    def test_guard_survives_optimize_flag(self):
        code = textwrap.dedent(f"""
            import sys
            from jordanblocks.errors import BadPrime
            from jordanblocks.fields import GF
            from jordanblocks.linalg import jordan_block, jordan_partition
            assert False, "asserts must be stripped in this run"
            try:
                jordan_partition(jordan_block(GF({PRIME_PAST_BOUND}), 2))
            except BadPrime:
                sys.exit(0)
            sys.exit(1)
        """)
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        if proc.returncode != 0:
            pytest.fail(f"expected BadPrime under -O: {proc.stdout}{proc.stderr}")


class TestUnipotent:
    def test_identity(self):
        assert unipotent_partition(Matrix.identity(GF(7), 4)) == (1, 1, 1, 1)

    def test_single_block(self):
        f = GF(3)
        u = Matrix.identity(f, 2) + jordan_block(f, 2)
        assert unipotent_partition(u) == (2,)

    def test_regular_from_series(self):
        # 1 + eps(X) for the regular lambda = (4) at p = 3 keeps the partition
        from jordanblocks.classical import cayley_series, springer_image

        f = GF(3)
        x = nilpotent_from_partition(f, (4,))
        u = springer_image(cayley_series(5, f), x)
        assert unipotent_partition(u) == (4,)

    def test_not_unipotent(self):
        with pytest.raises(NotUnipotent):
            unipotent_partition(Matrix.zeros(GF(3), 2, 2))


class TestApplySeries:
    def test_identity_series(self):
        f = GF(5)
        n = nilpotent_from_partition(f, (3, 1))
        t = TruncatedPoly.univariate(f, 4, [0, 1])
        assert apply_series(t, n) == n

    def test_cayley_on_j2(self):
        # N^2 = 0 kills everything past the linear term
        f = GF(5)
        n = jordan_block(f, 2)
        cayley = TruncatedPoly.univariate(f, 4, [0, -2, 2, -2])
        assert apply_series(cayley, n) == n.scale(-2)

    def test_partition_preserved(self):
        f = GF(7)
        n = jordan_block(f, 3)
        g = TruncatedPoly.univariate(f, 3, [0, 1, 1])
        assert jordan_partition(apply_series(g, n)) == (3,)

    def test_truncation_too_short(self):
        f = GF(5)
        n = jordan_block(f, 4)
        g = TruncatedPoly.univariate(f, 3, [0, 1, 1])
        with pytest.raises(TruncationTooShort):
            apply_series(g, n)

    def test_series_over_another_field_is_refused(self):
        # the F_7 series 6t would read as t over F_5
        g = TruncatedPoly.univariate(GF(7), 4, [0, 6])
        with pytest.raises(ShapeMismatch, match="over F7"):
            apply_series(g, jordan_block(GF(5), 3))


class TestExpNilpotent:
    def test_zero(self):
        assert exp_nilpotent(Matrix.zeros(GF(5), 3, 3)) == Matrix.identity(GF(5), 3)

    def test_degree_two(self):
        f = GF(3)
        n = jordan_block(f, 2)
        assert exp_nilpotent(n) == Matrix.identity(f, 2) + n

    def test_partition_preserved(self):
        f = GF(5)
        n = nilpotent_from_partition(f, (3, 3, 1))
        assert unipotent_partition(exp_nilpotent(n)) == (3, 3, 1)

    def test_factorial_not_invertible(self):
        with pytest.raises(FactorialNotInvertible):
            exp_nilpotent(nilpotent_from_partition(GF(3), (4,)))


class TestNilpotentPowers:
    @pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=str)
    def test_powers_up_to_the_first_zero(self, field):
        n = nilpotent_from_partition(field, (3, 1))
        powers = nilpotent_powers(n)
        assert powers == [Matrix.identity(field, 4), n, n @ n]
        assert nilpotent_powers(Matrix.zeros(field, 0, 0)) == [Matrix.identity(field, 0)]

    @pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
    def test_power_users_reject_a_non_nilpotent_matrix(self, field):
        from jordanblocks.fgl import additive
        from jordanblocks.repring import tensor_operator

        # nilpotent but for one unit in the corner: N^n never vanishes
        x = with_entry(nilpotent_from_partition(field, (3,)), 2, 0, field.one)
        series = TruncatedPoly.univariate(field, 4, [0, 1])
        with pytest.raises(NotNilpotent):
            nilpotent_powers(x)
        with pytest.raises(NotNilpotent):
            tensor_operator(x, nilpotent_from_partition(field, (2,)), additive(field))
        with pytest.raises(NotNilpotent):
            apply_series(series, x)
        with pytest.raises(NotNilpotent):
            exp_nilpotent(x)


def test_field_validation():
    from fractions import Fraction

    with pytest.raises(ValueError):
        Field(6)
    assert Field(0).characteristic == 0
    assert GF(13)(Fraction(1, 2)) == 7
    assert GF(13)("1/2") == 7 and QQ("-2/4") == Fraction(-1, 2)


@pytest.mark.parametrize("field", [GF(5), QQ], ids=["F5", "Q"])
@pytest.mark.parametrize("x", [2.7, 0.1, 2.0, np.float64(2.0), np.float32(1.5)],
                         ids=["2.7", "0.1", "2.0", "np.float64", "np.float32"])
def test_float_is_invalid_input(field, x):
    # GF(5)(2.7) must not truncate to 2, nor QQ(0.1) become a binary fraction
    with pytest.raises(InvalidInput, match="float"):
        field(x)


@pytest.mark.parametrize("field, text", [
    (GF(5), "1/5"), (GF(5), "x"), (GF(5), "abc"), (QQ, "1/0"), (QQ, "1/2/3"), (QQ, "0.5"),
])
def test_bad_scalar_is_invalid_input(field, text):
    with pytest.raises(InvalidInput):
        field(text)
    if field.p:
        with pytest.raises(InvalidInput, match="no image"):
            field(Fraction(2, field.p))
