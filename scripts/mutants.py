#!/usr/bin/env python3
"""Mutant register: deliberate faults that the named tests must catch.

Each entry names a file, an exact piece of its text, the text that replaces
it, and a pytest selection.  For each entry the script copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, makes the one
replacement there (the old text must occur exactly once) and runs the
selection on the copy.  The mutant is killed when pytest reports failing
tests (exit status 1), or when the selection runs past ``TIMEOUT`` seconds,
as a reduction that never ends does; it survives when the tests pass.
Before the mutants, the union of the selections runs once on an unchanged
copy and must pass, so that a kill means the fault was caught; when it does
not, the script prints pytest's exit status, named for exits 4 and 5 (a
selection names no test), and the last lines of its output.

Usage: python scripts/mutants.py [--list] [NAME ...]

With names, only those entries run.  Exits 1 when a mutant survives, an
entry no longer applies, the unchanged selections fail, or two entries share
a name.  ``--list`` prints the entries and runs no tests; it exits 1,
marking them STALE, when any entry's old text does not occur exactly once in
the source tree.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
#: seconds one selection may run; each takes a few seconds on a sound tree
TIMEOUT = 60
#: lines of pytest's output shown when the unchanged selections fail
TAIL = 20


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple


LINALG = "src/jordanblocks/linalg.py"
REPRING = "src/jordanblocks/repring.py"
SERIES = "src/jordanblocks/series.py"
FGL = "src/jordanblocks/fgl.py"
FIELDS = "src/jordanblocks/fields.py"
G2 = "src/jordanblocks/g2.py"
VERIFY = "src/jordanblocks/verify.py"
OFFSETS_TEST = ("tests/test_repring.py::TestStructureConstants::"
                "test_gather_offsets_are_memoized_read_only")
CELL_TESTS = "tests/test_repring.py::TestCellRoute::"
DENSE_TESTS = "tests/test_series.py::TestDictOracle::"
SQUARE_TESTS = "tests/test_repring.py::TestSquareRoute::"
COLUMN_TESTS = "tests/test_repring.py::TestColumnRoute::"
SHARED_TESTS = "tests/test_repring.py::TestSharedMemo::"
BLOCK_SUM_TESTS = "tests/test_repring.py::TestBlockSum::"
CUBE_SUM_TESTS = "tests/test_repring.py::TestCubeSum::"
QUOTIENT_TESTS = "tests/test_repring.py::TestQuotientClass::"
GATHER_TESTS = "tests/test_repring.py::TestColumnGather::"
FOLD_TESTS = "tests/test_repring.py::TestFold::"
G2_BATCH_TESTS = "tests/test_g2.py::TestBatchedRoutes::"
BATCH_TESTS = "tests/test_linalg.py::TestBatchedPartitions::"
COUNT_TESTS = "tests/test_integer_arguments.py::"
#: ``repring._block_power`` from its refusals to its memo read
POWER_GUARDS = ("    if i == 2:\n"
                "        _require_cell(a, a, kind, law)\n"
                "    else:\n"
                "        _require_operator_dim(a ** i)\n"
                "        _law_series(law, i, (a,), kind)\n")
POWER_READ = ("    field = law.field\n"
              "    own = 0 < field.p <= i and law != additive(field)\n"
              "    key = (kind, a, i, law.fingerprint() if own else field.p)\n"
              "    hit = _constants_memo.get(key)\n"
              "    if hit is None:\n")

MUTANTS = [
    # 4 * bits + 1 would pick the same width as 4 * bits + 2 for every p:
    # 4L + 2 is 2 mod 4, so no width 16, 32 or 64k lies between the two
    Mutant("width-rule-short", LINALG,
           "need = 4 * bits + 2", "need = 4 * bits - 2",
           ("tests/test_linalg.py::TestEchelonKernel::test_field_width",)),
    Mutant("xor-at-p3", LINALG,
           "            if p == 2:\n                r ^= piv",
           "            if p <= 3:\n                r ^= piv",
           ("tests/test_linalg.py::TestEchelonKernel::test_one_reduction_at_p3",)),
    # each level of a stacked matrix takes the first row of the next
    # matrix's level: harmless alone (the next level's row, already reduced),
    # caught in a stack
    Mutant("level-slice-off-by-one", LINALG,
           "rows[t:t + width]", "rows[t:t + width + 1]",
           (BATCH_TESTS + "test_seeded_stacks",)),
    # each matrix's rows start one row late: its first complement row is
    # lost and a row of the next matrix joins
    Mutant("member-rows-off-by-one", LINALG,
           "(k * count + b) * width", "(k * count + b) * width + 1",
           (BATCH_TESTS + "test_seeded_stacks",)),
    # a Matrix plus a TruncatedPoly of the same shape passes as a Matrix
    Mutant("exact-sum-any-type", LINALG,
           "        if (type(other) is type(self) and self.field.p == other.field.p\n",
           "        if (self.field.p == other.field.p\n",
           ("tests/test_series.py::TestExactBase::test_a_matrix_and_a_series_never_mix",)),
    # a matrix times a series of fitting shape passes as a matrix product
    Mutant("matmul-any-type", LINALG,
           "if type(other) is Matrix and p == other.field.p", "if p == other.field.p",
           ("tests/test_series.py::TestExactBase::"
            "test_products_and_substitution_refuse_the_other_type",)),
    # Krylov levels that vanish before they span k^D N, as for diag(1) + J_2,
    # read as the ranks of a nilpotent
    Mutant("power-ranks-nilpotency-unchecked", LINALG,
           "        if ranks[0] != len(lead):\n            raise NotNilpotent(\"matrix is not nilpotent\")\n",
           "",
           ("tests/test_linalg.py::TestKrylovRanks::test_not_nilpotent",
            BATCH_TESTS + "test_one_member_not_nilpotent")),
    Mutant("writable-offsets", LINALG,
           "    out.flags.writeable = False\n", "",
           (OFFSETS_TEST,)),
    Mutant("clear-memo-keeps-offsets", REPRING,
           "    _block_offsets.cache_clear()\n", "",
           (OFFSETS_TEST,)),
    # one generator short: the rows x^i F^j no longer span J_N (x) J_s
    Mutant("cell-generators-short", REPRING,
           "mask for i in range(side)]", "mask for i in range(side - 1)]",
           (CELL_TESTS + "test_seeded_cells",)),
    # x^i F^j moved one field short of i s: the rows of another module
    Mutant("cell-shift-one-field-short", REPRING,
           "row << i * side * w & mask", "row << max(i * side - 1, 0) * w & mask",
           (CELL_TESTS + "test_seeded_cells",
            COLUMN_TESTS + "test_shifted_rows_match_the_sliced_levels")),
    # every level's rows listed before the first goes into the echelon
    Mutant("cell-levels-held", REPRING,
           "return _prefix_masks(levels, p, dim)", "return _prefix_masks(list(levels), p, dim)",
           (COLUMN_TESTS + "test_cell_column_streams_its_levels",)),
    # the top power t^(N+s-2) dropped: one Jordan block loses its top vector
    Mutant("cell-levels-short", REPRING,
           "_rows(powers, p)", "_rows(powers[1:], p)",
           (CELL_TESTS + "test_seeded_cells",)),
    # leads <= K counted for a prefix of K columns: the lead n s, the first
    # of the next block, joins J_n (x) J_s, whose span count then fails
    Mutant("prefix-one-block-too-far", REPRING,
           "low = (1 << dim) - 1", "low = (1 << dim + 1) - 1",
           (COLUMN_TESTS + "test_answers_do_not_depend_on_the_memo",)),
    # a square's columns a-major: the square of J_n is no prefix of J_N's
    Mutant("square-columns-a-major", REPRING,
           "b, a = np.nonzero(np.arange(N)[:, None] >= np.arange(N) + wedge)",
           "a, b = np.nonzero(np.arange(N)[:, None] + wedge <= np.arange(N))",
           (COLUMN_TESTS + "test_squares_are_prefixes",)),
    # the extent never grows past the first long side asked: every answer
    # holds, as a column is built to at least its cell, but cells met one
    # row larger at a time rebuild their column every time
    Mutant("extent-never-grows", REPRING,
           "= 1 << (n - 1).bit_length()", "= extent",
           (CELL_TESTS + "test_growth_rule",)),
    # below the diagonal a gathered operator reads the coefficients of
    # exponents that wrap around a block: the additive law's gathered powers
    # are no longer the binomials of the columns
    Mutant("toeplitz-mask-dropped", LINALG,
           "valid = (block[:, None] == block[None, :]) & (shift >= 0)",
           "valid = block[:, None] == block[None, :]",
           ("tests/test_repring.py::TestPowerTable::test_seeded_tables",)),
    # kernel-dimension steps that grow give a partition of n with a
    # negative multiplicity dropped, so of more than n
    Mutant("concavity-guard-removed", LINALG,
           "step = min(step, d - prev)", "step = d - prev",
           ("tests/test_linalg.py::TestTypedPostconditions",)),
    # the extent of each characteristic outlives clear_memo
    Mutant("clear-memo-keeps-tables", REPRING,
           "    _constants_memo.clear()\n",
           "    for key in [k for k in _constants_memo if k[0] != \"extent\"]:\n"
           "        del _constants_memo[key]\n",
           (CELL_TESTS + "test_clear_memo_drops_the_tables",)),
    # each law's refusal checked only on a miss: a class that the additive
    # law memoized answers a law over another field, a law too short for
    # the cell, a square past the law's symmetry or a cube whose 3-fold
    # series is not symmetric
    Mutant("cell-field-guard-after-memo", REPRING,
           "    _require_field(law, field)\n"
           "    if type(n) is not int or type(m) is not int:\n"
           "        n, m = _count(n, 1, \"a block size\"), _count(m, 1, \"a block size\")\n"
           "    _require_cell(n, m, \"tensor\", law)\n"
           "    key = (\"cell\", n, m, field.p)\n"
           "    hit = _constants_memo.get(key)\n"
           "    if hit is not None:\n"
           "        return hit\n",
           "    if type(n) is not int or type(m) is not int:\n"
           "        n, m = _count(n, 1, \"a block size\"), _count(m, 1, \"a block size\")\n"
           "    key = (\"cell\", n, m, field.p)\n"
           "    hit = _constants_memo.get(key)\n"
           "    if hit is not None:\n"
           "        return hit\n"
           "    _require_field(law, field)\n"
           "    _require_cell(n, m, \"tensor\", law)\n",
           (SHARED_TESTS + "test_warm_memo_keeps_the_refusal[field]",)),
    Mutant("cell-degree-guard-after-memo", REPRING,
           "    _require_cell(n, m, \"tensor\", law)\n"
           "    key = (\"cell\", n, m, field.p)\n"
           "    hit = _constants_memo.get(key)\n"
           "    if hit is not None:\n"
           "        return hit\n",
           "    key = (\"cell\", n, m, field.p)\n"
           "    hit = _constants_memo.get(key)\n"
           "    if hit is not None:\n"
           "        return hit\n"
           "    _require_cell(n, m, \"tensor\", law)\n",
           (SHARED_TESTS + "test_warm_memo_keeps_the_refusal[degree]",)),
    Mutant("square-symmetry-guard-after-memo", REPRING,
           POWER_GUARDS + POWER_READ,
           "    if i > 2:\n"
           "        _require_operator_dim(a ** i)\n"
           "        _law_series(law, i, (a,), kind)\n"
           + POWER_READ +
           "        if i == 2:\n"
           "            _require_cell(a, a, kind, law)\n",
           (SHARED_TESTS + "test_warm_memo_keeps_the_refusal[square]",)),
    Mutant("series-symmetry-guard-after-memo", REPRING,
           POWER_GUARDS + POWER_READ,
           "    if i == 2:\n"
           "        _require_cell(a, a, kind, law)\n"
           + POWER_READ +
           "        if i > 2:\n"
           "            _require_operator_dim(a ** i)\n"
           "            _law_series(law, i, (a,), kind)\n",
           (SHARED_TESTS + "test_warm_memo_keeps_the_refusal[series]",)),
    # an image with a term that Y_i does not divide, or with no Y_i term,
    # gives a matrix that may not be invertible
    Mutant("automorphism-skips-divisibility", SERIES,
           "if np.any(np.take(g.num, 0, axis=i)):", "if False:",
           ("tests/test_series.py::TestBuildAutomorphism::test_refusals",)),
    Mutant("automorphism-skips-zero-linear", SERIES,
           "if trunc[i] > 1 and g.coefficient(", "if False and g.coefficient(",
           ("tests/test_series.py::TestBuildAutomorphism::test_refusals",)),
    Mutant("partition-skips-order", LINALG,
           "if i and parts[i - 1] < x:", "if False:",
           ("tests/test_linalg.py::TestPartition::test_validation",)),
    # xi_1 = 5 at p = 5 passes as a nonzero linear coefficient
    Mutant("law-keeps-unreduced-coefficients", FGL,
           "            c = field(c)\n", "",
           ("tests/test_fgl.py::TestValidation::"
            "test_linear_part_vanishing_mod_p_is_refused",)),
    # an F_7 series applied over F_5 is read mod 5
    Mutant("apply-series-any-field", LINALG,
           "if type(f) is not TruncatedPoly or f.field != n_mat.field:",
           "if type(f) is not TruncatedPoly:",
           ("tests/test_linalg.py::TestApplySeries::"
            "test_series_over_another_field_is_refused",)),
    Mutant("tensor-operator-any-field", REPRING,
           "    _require_field(law, field)\n    phi_pow", "    phi_pow",
           ("tests/test_repring.py::TestTensorOperator::"
            "test_law_over_another_field_is_refused",)),
    # over Q the complement R_0 taken from the first rank-N columns, not
    # from the columns past the echelon's leads
    Mutant("rational-leads-by-pivot-order", LINALG,
           "leads = [set(_insert_rows({}, rows[b * dim:(b + 1) * dim], p, dim))",
           "leads = [set(range(len(_insert_rows({}, rows[b * dim:(b + 1) * dim], p, dim))))",
           ("tests/test_linalg.py::TestKrylovRanks::test_seeded_conjugates[0]",)),
    # a rational pivot keeps the sign of the row that reached its lead
    Mutant("q-pivot-sign-unnormalized", LINALG,
           "g = math.gcd(*r) if r[lead] > 0 else -math.gcd(*r)", "g = math.gcd(*r)",
           ("tests/test_linalg.py::TestIntegerRationals::"
            "test_rational_pivots_are_primitive_with_positive_leads",)),
    # back substitution floor-divides by a pivot that does not divide the row
    Mutant("q-solve-denominator-skipped", LINALG,
           "        if scale != 1:\n", "        if False:\n",
           ("tests/test_linalg.py::TestEchelonKernel::test_solve_over_q",
            "tests/test_linalg.py::TestEchelonKernel::test_solve_and_inverse_match_oracle")),
    # 7 stays 7 in a series over F_5, and 5 stays a nonzero coefficient
    Mutant("series-keeps-unreduced-coefficients", SERIES,
           "            c = field(c)\n", "",
           ("tests/test_series.py::TestConstructorCoercion",)),
    # F_p past the bound: a sum of two entries wraps int64 with no error
    Mutant("field-range-unchecked", FIELDS,
           "        if characteristic > _MAX_CHARACTERISTIC:\n", "        if False:\n",
           ("tests/test_fields.py::TestSupportedRange::test_primes_past_the_bound_are_refused",)),
    # Field(5.0) passes as F_5 with float elements
    Mutant("field-any-characteristic", FIELDS,
           'characteristic = _count(characteristic, None, "the characteristic")',
           "characteristic = characteristic",
           ("tests/test_fields.py::TestField::test_non_integer_characteristics_are_refused",)),
    # the exponent (1.5, 0) is read as (1, 0) by the coefficient arrays
    Mutant("law-any-exponent", FGL,
           'a, b = (_count(e, 0, "an exponent", InvalidLaw) for e in (a, b))', "a, b = a, b",
           ("tests/test_fgl.py::TestValidation::test_non_integer_exponents_are_refused",)),
    # the last row of every chunk is never packed
    Mutant("pack-chunk-short", LINALG,
           "chunk = a[lo:lo + _PACK_ROWS]", "chunk = a[lo:lo + _PACK_ROWS - 1]",
           ("tests/test_linalg.py::TestEchelonKernel::test_pack_chunk_boundaries",)),
    # True passes as the count 1: Partition((True,)) is (1,)
    Mutant("count-takes-bool", FIELDS,
           "index = None if isinstance(value, bool) else operator.index(value)",
           "index = operator.index(value)",
           (COUNT_TESTS + "test_refused_with_the_typed_error",)),
    # a numpy integer at the least value is refused: Partition((np.int64(1),))
    Mutant("count-least-exclusive", FIELDS,
           "if index is None or least is not None and index < least:",
           "if index is None or least is not None and index <= least:",
           (COUNT_TESTS + "test_numpy_integers_pass",)),
    # Decimal("2.5") truncated to 2 over F_p, as int() reads it
    Mutant("scalar-falls-back-to-int", FIELDS,
           '            raise InvalidInput(f"{x!r} is a {type(x).__name__}, not a scalar")\n',
           "            x = Fraction(int(x))\n",
           ("tests/test_fields.py::TestField::test_other_numbers_are_not_scalars",)),
    # the key 1 of a law's coefficients leaks a bare TypeError
    Mutant("law-key-unguarded", FGL,
           "            try:\n                a, b = key\n"
           "            except (TypeError, ValueError):\n"
           '                raise InvalidLaw(f"a coefficient key must be a pair, got {key!r}") from None\n',
           "            a, b = key\n",
           ("tests/test_fgl.py::TestValidation::test_keys_that_are_not_pairs_are_refused",)),
    # homogeneous_part("1") is the zero series: the degree array equals no string
    Mutant("degree-unchecked", SERIES,
           '== _count(d, 0, "a degree"))', "== d)",
           (COUNT_TESTS + "test_refused_with_the_typed_error",)),
    # 2047 = 23 * 89 is a strong pseudoprime to the base 2
    Mutant("one-witness", FIELDS,
           "_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
           "_WITNESSES = (2,)",
           ("tests/test_fields.py::TestIsPrime::test_pseudoprimes_are_composite",)),
    # the law's series moved into a box of more variables puts the new
    # variables first: it reads as F(Y_2, Y_3), not F(Y_1, Y_2)
    Mutant("tensor-series-pad-in-front", SERIES,
           "self.trunc + (1,) * (len(trunc) - self.num_vars)",
           "(1,) * (len(trunc) - self.num_vars) + self.trunc",
           ("tests/test_fgl.py::TestIteratedSeries::"
            "test_three_factors_nest_the_law_on_the_left",)),
    # a sum of series products left unreduced: entries past p over F_p,
    # and no division by the gcd over Q
    Mutant("series-sum-unreduced", SERIES,
           "    return TruncatedPoly._from_ints(field, acc, den)\n",
           "    out = TruncatedPoly._from_ints(field, acc, den)\n"
           "    out.num, out.den = acc, den\n    return out\n",
           (DENSE_TESTS + "test_dense_products_near_p",)),
    # each term of a product read one place further along the other operand
    Mutant("product-slice-off-by-one", SERIES,
           "num[tuple(slice(0, r - x) for x, r in zip(e, trunc))]",
           "num[tuple(slice(min(1, x), r - x + min(1, x)) for x, r in zip(e, trunc))]",
           (DENSE_TESTS + "test_dense_products_near_p",)),
    # int64 sums never reduced per term: at p = 2**31 - 1 three terms
    # (p-1)**2 wrap past 2**63
    Mutant("product-skips-per-term-reduction", SERIES,
           "each = p and len(terms) * (p - 1) ** 2 >= 2**63", "each = False",
           (DENSE_TESTS + "test_dense_products_near_p",)),
    # x_k divided by xi once, not by xi^k: wrong wherever xi != +-1
    Mutant("inverse-divides-by-xi-once", SERIES,
           "xi_inv_k = field.mul(xi_inv_k, lin_inv)", "xi_inv_k = lin_inv",
           (DENSE_TESTS + "test_compose_inverse",)),
    # at p = 2 the swap is trivial on A/tA, so the even (Sym^2) or odd
    # (wedge^2) x^i do not generate the square: the span count falls short
    Mutant("square-parity-generators-at-p2", REPRING,
           "range(wedge, N, 1 if p == 2 else 2)", "range(wedge, N, 2)",
           (SQUARE_TESTS + "test_seeded_squares",)),
    # folds onto (1 + s)A, not the wedge: wrong wherever p != 2
    Mutant("square-wedge-sign-plus", REPRING,
           "(p - flat if wedge else flat)", "flat",
           (SQUARE_TESTS + "test_seeded_squares",)),
    # 2 c_aa on the diagonal: a column scale at p != 2, a zero column at p = 2
    Mutant("square-sym-diagonal-doubled", REPRING,
           "((b + shift) * N + a) * (a != b)", "((b + shift) * N + a)",
           (SQUARE_TESTS + "test_seeded_squares",)),
    # the folded rows in one byte: entries past 255 wrap at p = 65521, which
    # no answer shows, as p > 2n - 1 keeps the generic types
    Mutant("square-levels-narrow", REPRING,
           "np.min_scalar_type(p - 1) if p", "np.uint8 if p",
           (SQUARE_TESTS + "test_folded_rows_match_a_python_fold",)),
    # J_2 (x) J_2 in the memo answers J_2.0 (x) J_2, as 2.0 hashes as 2
    Mutant("constants-memo-before-block-check", REPRING,
           "    if type(n) is not int or type(m) is not int:\n"
           '        n, m = _count(n, 1, "a block size"), _count(m, 1, "a block size")\n', "",
           ("tests/test_repring.py::TestStructureConstants::"
            "test_non_integer_block_sizes_cold_and_warm",)),
    # binomials that vanish past t^0 then read as t = 0
    Mutant("span-postcondition-removed", REPRING,
           "if ranks[0] != dim:", "if False:",
           (SQUARE_TESTS + "test_span_postcondition_is_a_typed_error",
            CELL_TESTS + "test_span_postcondition_is_a_typed_error")),
    Mutant("square-any-law", REPRING,
           "if shape != \"tensor\" and n > law._symmetric_to:", "if False:",
           (SQUARE_TESTS + "test_non_symmetric_law",)),
    # a pair c_ab != c_ba read as asymmetric only from max(a, b) + 2 on: the
    # square of J_5 under a law symmetric to degree 6 answers, unsound
    Mutant("law-symmetry-bound-off-by-one", FGL,
           "min((max(a, b) for (a, b), c", "min((max(a, b) + 1 for (a, b), c",
           ("tests/test_repring.py::TestLawSymmetry",
            COLUMN_TESTS + "test_symmetric_only_at_low_degree")),
    # binomials not reduced mod p: entries past p in an F_p column
    Mutant("pascal-unreduced", REPRING,
           "[c % p for c in out] if p else out", "out",
           ("tests/test_repring.py::TestPowerTable::test_seeded_tables",)),
    # the p = 2 squares of a law other than the additive one read the
    # additive law's class: Ad u of the regular Sp_4 nilpotent at p = 2
    # becomes ad X's, and the split of classical-bad is gone
    Mutant("own-square-reads-additive", REPRING,
           "own = 0 < field.p <= i and law != additive(field)",
           "own = 0 < field.p <= i and i > 2 and law != additive(field)",
           ("tests/test_acceptance.py::test_criterion_06_bad_characteristic_splits",)),
    # x^a y^b twice for every column: Sym^2 doubled off the diagonal, so a
    # zero column at p = 2, and wedge^2 zero
    Mutant("square-fold-lower-is-upper", REPRING,
           "((b + shift) * N + a) * (a != b)", "((a + shift) * N + b) * (a != b)",
           (SQUARE_TESTS + "test_seeded_squares",)),
    # Sym^2 J_3 of an F_7 law answered over F_3: the cells check the field,
    # the block powers read the law's own
    Mutant("fold-any-field", REPRING,
           "    _require_field(law, field)\n    power = functools", "    power = functools",
           ("tests/test_repring.py::test_law_over_another_field_is_refused",
            QUOTIENT_TESTS + "test_refusals_at_m4_in_order")),
    # the characteristic-0 cells have the right dimensions, so only the
    # classes tell them apart, as at p = 2
    Mutant("square-sum-cg-cells", REPRING,
           "lambda a, b: structure_constants(a, b, law, field),", "cg_tensor,",
           (BLOCK_SUM_TESTS + "test_seeded_squares[F2]",)),
    # smallest block first: the extent grows from 1, and the columns are
    # built again at 2, 4 and 8
    Mutant("fold-smallest-first", REPRING,
           "for a, k in collections.Counter(lam).items():",
           "for a, k in reversed(collections.Counter(lam).items()):",
           (BLOCK_SUM_TESTS + "test_cold_memo_builds_the_table_once",)),
    # a block's square before its higher powers: its column is built,
    # and the square memoized, before the cube is refused
    Mutant("fold-powers-ascending", REPRING,
           "for i in range(m, 1, -1):\n                own[i]",
           "for i in range(2, m + 1):\n                own[i]",
           (FOLD_TESTS + "test_refusals_come_before_any_table_or_series",
            CUBE_SUM_TESTS + "test_non_symmetric_series_is_refused")),
    # the fold trusted where the law's series does not split: (5, 4) at
    # m = 4 answers instead of being refused on d^4 = 6561
    Mutant("fold-split-guard-disabled", REPRING,
           "if not _splits(law, m, lam[0]):", "if False:",
           (FOLD_TESTS + "test_split_guard",)),
    # L^(j-i-1) R in place of L^(j-i) R: every class of the wrong dimension
    Mutant("fold-level-off-by-one", REPRING,
           "_product(levels[j - i], own[i], pair)", "_product(levels[j - i - 1], own[i], pair)",
           (BLOCK_SUM_TESTS + "test_seeded_squares[F5]",)),
    # an m-fold series that is not symmetric answers, folded as if its
    # operator commuted with the swaps, and is memoized
    Mutant("cube-any-law", REPRING,
           "        if not series.is_symmetric():", "        if False:",
           (CUBE_SUM_TESTS + "test_non_symmetric_series_is_refused",)),
    Mutant("clear-memo-keeps-cube-series", REPRING,
           "    _constants_memo.clear()\n",
           "    for key in [k for k in _constants_memo if k[0] != \"series\"]:\n"
           "        del _constants_memo[key]\n",
           (CUBE_SUM_TESTS + "test_clear_memo_drops_the_series_and_the_cubes",)),
    # the fold adds every tensor word into its sorted word with sign +1; only
    # a law with higher terms and a block past p tells: wedge^3 J_7 at p = 7
    # under random_fgl(0, 27) becomes (9, 7^3, 5), not (7^5)
    Mutant("quotient-wedge-sign-dropped", REPRING,
           "    values *= signs\n", "",
           (QUOTIENT_TESTS + "test_wedge_signs_at_blocks_past_p",)),
    # the first letter's exponent read with a stride one short: the
    # coefficient of another exponent, or of none
    Mutant("quotient-first-stride-short", LINALG,
           "_block_offsets(lam, stride, size)",
           "_block_offsets(lam, stride - (lam is lams[0]), size)",
           (QUOTIENT_TESTS + "test_seeded_powers[F5]", GATHER_TESTS + "test_seeded_subsets[F5]")),
    # each factor reads the letters of the factor mirrored to it: for a
    # power of one partition the columns come out in another order
    Mutant("gather-wrong-factor-letters", LINALG,
           "zip(lams, strides, letters)", "zip(lams, strides, letters[::-1])",
           (QUOTIENT_TESTS + "test_seeded_powers[F5]",
            "tests/test_repring.py::TestGatheredOperators::test_power_seeded_multi_block")),
    # a set of columns over Q is returned over the box's denominator, which
    # may share a factor with every gathered entry
    Mutant("column-gather-unnormalized", LINALG,
           "Matrix._trusted if field.p or whole", "Matrix._trusted if True",
           (GATHER_TESTS + "test_columns_are_normalized_over_q",)),
    # a series memoized at a smaller block is cut to a larger one: the
    # exponents past its box read as zero
    Mutant("quotient-series-read-past-its-box", REPRING,
           "if series is None or series.trunc[0] < n:", "if series is None:",
           (QUOTIENT_TESTS + "test_series_is_rebuilt_past_its_box",)),
    # a suite that is defined but never runs in verify paper
    Mutant("suite-not-registered", VERIFY,
           "        SUITES[name] = run\n", "",
           ("tests/test_cli.py::TestVerify::test_every_suite_is_registered_once_in_order",)),
    # the term moves only a[l, i] with l > i, which every raising
    # representative has zero: the dense matrices catch it
    Mutant("wedge-compound-sign", G2,
           "- x[_L, _I] * (_K == _J)", "+ x[_L, _I] * (_K == _J)",
           (G2_BATCH_TESTS + "test_compound_operators_are_the_straightened_kronecker_forms[5]",)),
    # the second compound of u is not nilpotent
    Mutant("unipotent-compound-without-minus-1", G2,
           "minors, a.den ** 2) - Matrix.identity(a.field, 21)", "minors, a.den ** 2)",
           (G2_BATCH_TESTS + "test_compound_operators_are_the_straightened_kronecker_forms[5]",)),
    Mutant("coordinate-block-off-by-one", G2,
           "coords.num[:, i * k:(i + 1) * k]", "coords.num[:, (i + 1) * k:(i + 2) * k]",
           (G2_BATCH_TESTS + "test_table_matches_the_oracles[7]",)),
    Mutant("swap-check-first-row-block", REPRING,
           "for lo in range(0, len(ints), _SWAP_ROWS)", "for lo in range(0, _SWAP_ROWS, _SWAP_ROWS)",
           ("tests/test_repring.py::TestNonSymmetricLaw::"
            "test_swap_checked_in_the_last_row_block",)),
    # the table's representatives go unchecked on V
    Mutant("g2-table-skips-v-guard", G2,
           "    for orbit, part in zip(ORBITS + ORBITS, v_parts):\n        _require_partition(orbit, part)\n",
           "",
           ("tests/test_g2.py::TestTable::test_table_keeps_every_check",)),
    # a model at p answers with the closure cached by another model at p
    Mutant("g2-subalgebra-cached-per-p", G2,
           "_subalgebra_cache.get(model)",
           "next((v for k, v in _subalgebra_cache.items() if k.p == model.p), None)",
           ("tests/test_g2.py::TestLieClosure::test_subalgebra_is_cached_per_model",)),
    # 1 and 2 * 1 stabilize the span, so the direct route answers (1^14)
    Mutant("g2-skips-nilpotency-check", G2,
           "        if power.any():\n", "        if False:\n",
           ("tests/test_g2.py::TestAdjointRoutes::"
            "test_not_nilpotent_or_not_unipotent_is_refused",
            G2_BATCH_TESTS + "test_one_non_nilpotent_representative_among_the_stack")),
    # u^-1 read as (1 - N)(1 + N^2): wrong wherever N^4 != 0, as for G2reg
    Mutant("g2-inverse-drops-a-factor", G2,
           "for square in squares[1:-1]:", "for square in squares[1:-2]:",
           (G2_BATCH_TESTS + "test_table_matches_the_oracles[7]",)),
    # every additive(field) call builds a new law
    Mutant("builtin-laws-rebuilt", FGL,
           "@functools.cache\ndef additive(", "def additive(",
           ("tests/test_fgl.py::TestBuiltinLaws::test_built_once_per_field",)),
    # a Field or a Matrix in the law's place reaches the law's attributes
    Mutant("law-guard-skipped", FGL,
           "    if not isinstance(law, GeneralizedLaw):\n"
           "        raise InvalidInput(f\"a law is due, got {type(law).__name__}\")\n", "",
           ("tests/test_repring.py::test_anything_but_a_law_is_invalid_input",)),
    # Sym^2 and Sym^3 of one block share a memo entry: the fold reads the
    # first power asked for every later one
    Mutant("block-power-key-drops-i", REPRING,
           "key = (kind, a, i, law.fingerprint() if own else field.p)",
           "key = (kind, a, law.fingerprint() if own else field.p)",
           (QUOTIENT_TESTS + "test_seeded_powers[F5]",)),
    # every g2_table call rebuilds and re-validates its model
    Mutant("so7-model-rebuilt", G2,
           "return _so7_model(_count(", "return _so7_model.__wrapped__(_count(",
           ("tests/test_g2.py::TestModel::test_model_is_built_once_per_prime",)),
]


def run_tests(tree: Path, tests) -> tuple:
    """pytest's exit status on the selection and its output, or None and
    "" past ``TIMEOUT``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout + done.stderr


def describe(status: int | None) -> str:
    """pytest's exit status in words."""
    if status is None:
        return f"past the {TIMEOUT} s timeout"
    if status in (4, 5):
        return f"pytest exit status {status}: a selection names no test"
    return f"pytest exit status {status}"


def copy_tree(dest: Path) -> Path:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, dest / name)
    return dest


def stale(mutant: Mutant, tree: Path) -> str | None:
    """Why the entry does not apply to ``tree``, or None when its old text
    occurs exactly once."""
    count = (tree / mutant.file).read_text().count(mutant.old)
    return None if count == 1 else f"old text found {count} times in {mutant.file}"


def check(mutant: Mutant, scratch: Path) -> str:
    """'killed', 'SURVIVED', or why the entry does not apply."""
    tree = copy_tree(scratch / mutant.name)
    why = stale(mutant, tree)
    if why:
        return f"NOT APPLIED: {why}"
    path = tree / mutant.file
    path.write_text(path.read_text().replace(mutant.old, mutant.new))
    status, _ = run_tests(tree, mutant.tests)
    if status is None or status == 1:
        return "killed"
    if status == 0:
        return "SURVIVED"
    return f"NOT RUN: {describe(status)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the entries and exit")
    args = parser.parse_args(argv)
    names = [m.name for m in MUTANTS]
    twice = sorted({name for name in names if names.count(name) > 1})
    if twice:
        print(f"entries share a name: {', '.join(twice)}")
        return 1
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or MUTANTS
    if args.list:
        failed = False
        for m in chosen:
            why = stale(m, ROOT)
            failed |= why is not None
            print(f"{m.name}: {m.file}: {m.old.strip()!r} -> {m.new.strip()!r}"
                  + (f"  STALE: {why}" if why else ""))
        return int(failed)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        scratch = Path(tmp)
        selections = sorted({t for m in chosen for t in m.tests})
        status, output = run_tests(copy_tree(scratch / "unchanged"), selections)
        if status != 0:
            print(f"the selected tests fail on the unchanged tree: {describe(status)}")
            print("\n".join(output.splitlines()[-TAIL:]))
            return 1
        failed = False
        for m in chosen:
            start = time.perf_counter()
            outcome = check(m, scratch)
            failed |= outcome != "killed"
            print(f"{m.name}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
