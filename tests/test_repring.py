import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jordanblocks import linalg, repring
from jordanblocks.errors import (
    AlgebraError,
    BadPrime,
    InvalidInput,
    InvalidLaw,
    TruncationTooShort,
)
from jordanblocks.fgl import (
    GeneralizedLaw,
    additive,
    iterated_tensor_series,
    multiplicative,
    random_fgl,
    random_generalized_law,
    scaled_multiplicative,
    validate_fgl,
)
from jordanblocks.fields import GF, QQ
from jordanblocks.linalg import (
    Matrix,
    Partition,
    canonical_series_operator,
    jordan_partition,
    nilpotent_from_partition,
)
from jordanblocks.repring import (
    RingElement,
    _block_power,
    build_intertwiner_pair,
    build_symmetric_intertwiner,
    cg_square,
    cg_tensor,
    induced_quotient_operator,
    power_operator,
    ring_multiply,
    sigma_matrices,
    structure_constants,
    sym_partition,
    tensor_operator,
    tensor_partition,
    wedge_partition,
)
from jordanblocks.series import (
    TruncatedPoly,
    elementary_symmetric,
    endomorphism_matrix,
    mult_matrix,
    symmetric_split,
)
from oracles import (
    dense_coefficients,
    dense_quotient_operator,
    gathered_power_table,
    gathered_tensor_partition,
    kron_power_operator,
    monomial_endomorphism_matrix,
    operator_power_partition,
    operator_square_partition,
    random_invertible,
    tensor_levels,
)

F2, F3, F5, F7 = GF(2), GF(3), GF(5), GF(7)


class TestRingElement:
    def test_dim(self):
        assert RingElement({8: 6, 1: 1}).dim() == 49

    def test_pretty(self):
        assert RingElement({8: 6, 1: 1}).pretty() == "6·J8 + J1"
        assert RingElement({4: 1}).pretty() == "J4"

    def test_partition_round_trip(self):
        lam = Partition((5, 3, 3, 1))
        assert RingElement.from_partition(lam).to_partition() == lam

    def test_negative_multiplicity_rejected_as_object(self):
        x = RingElement({3: 1}) - RingElement({3: 2})
        with pytest.raises(ValueError):
            x.to_partition()

    def test_json(self):
        x = RingElement({8: 6, 1: 1})
        assert x.to_json() == {"terms": [{"n": 8, "a": 6}, {"n": 1, "a": 1}]}
        assert RingElement().to_json() == {"terms": []}

    def test_difference(self):
        x = RingElement({3: 1, 2: 2}) - RingElement({3: 1, 1: 4})
        assert x == RingElement({2: 2, 1: -4})
        assert x - x == RingElement()

    @pytest.mark.parametrize("terms", [{2.7: 1.9}, {2: 1.0}, {2.0: 1}, {"2": 1}, {2: None}])
    def test_non_integers_are_refused(self, terms):
        with pytest.raises(InvalidInput, match="must be an integer"):
            RingElement(terms)

    def test_numpy_integers_pass(self):
        x = RingElement({np.int64(3): np.int32(2)})
        assert x == RingElement({3: 2}) and all(type(k) is int for k in x.terms)


class TestTensorOperator:
    def test_additive_j2_squared_char2(self):
        phi = nilpotent_from_partition(F2, (2,))
        assert jordan_partition(tensor_operator(phi, phi, additive(F2))) == (2, 2)

    def test_j1_is_unit_for_multiplicative(self):
        phi = nilpotent_from_partition(F5, (1,))
        psi = nilpotent_from_partition(F5, (3, 2))
        top = tensor_operator(phi, psi, multiplicative(F5))
        assert jordan_partition(top) == (3, 2)

    def test_char2_square_of_j4(self):
        phi = nilpotent_from_partition(F2, (4,))
        assert jordan_partition(tensor_operator(phi, phi, multiplicative(F2))) == (4, 4, 4, 4)

    def test_law_over_another_field_is_refused(self):
        # c = 6 of an F_7 law would read as 1 in F_5
        x = nilpotent_from_partition(F5, (3,))
        with pytest.raises(InvalidLaw, match="disagree"):
            tensor_operator(x, x, scaled_multiplicative(GF(7), 6))


class TestTensorPartition:
    def test_j3_j3_additive(self):
        assert tensor_partition((3,), (3,), additive(F7), F7) == (5, 3, 1)

    def test_j2_j2_additive(self):
        assert tensor_partition((2,), (2,), additive(F5), F5) == (3, 1)

    def test_j5_j5_multiplicative_char2(self):
        assert tensor_partition((5,), (5,), multiplicative(F2), F2) == (8, 8, 4, 4, 1)

    def test_dimension_multiplicative(self):
        part = tensor_partition((3, 1), (2, 2), additive(F3), F3)
        assert part.dim == 16

    def test_blocks_come_from_memoized_cells(self, monkeypatch):
        # the operator is block-diagonal over pairs of blocks, so the only
        # table is the powers of x + y at the box of the cell J_3 (x) J_2,
        # which holds J_2 (x) J_2 too, and a second call reads every cell
        # from the memo
        built = []
        build = repring._power_table

        def spy(field, box):
            built.append(box)
            return build(field, box)

        monkeypatch.setattr(repring, "_power_table", spy)
        repring.clear_memo()
        law = random_generalized_law(12, 4, F5)
        lam, mu = Partition((3, 3, 2)), Partition((2, 2))
        got = tensor_partition(lam, mu, law, F5)
        assert built == [(3, 2)]
        built.clear()
        assert tensor_partition(lam, mu, law, F5) == got
        assert not built
        phi, psi = nilpotent_from_partition(F5, lam), nilpotent_from_partition(F5, mu)
        assert got == jordan_partition(tensor_operator(phi, psi, law))


def test_law_over_another_field_is_refused():
    # the scalar 6 of an F_7 law has no meaning in F_3
    law = scaled_multiplicative(GF(7), 6)
    with pytest.raises(InvalidLaw, match="disagree"):
        tensor_partition((3,), (3,), law, F3)
    with pytest.raises(InvalidLaw, match="disagree"):
        power_operator((2,), 2, law, F3)
    for square in (wedge_partition, sym_partition):
        for m in (2, 3):
            with pytest.raises(InvalidLaw, match="disagree"):
                square((3,), m, law, F3)
    with pytest.raises(InvalidLaw, match="disagree"):
        structure_constants(3, 3, law, F3)


LAW_ENTRIES = {
    "structure_constants": lambda law: structure_constants(3, 3, law, F5),
    "tensor_partition": lambda law: tensor_partition((3,), (2,), law, F5),
    # an empty class asks no structure constant, and is still refused
    "ring_multiply": lambda law: ring_multiply(RingElement(), RingElement({2: 1}), law, F5),
    "wedge_partition": lambda law: wedge_partition((3,), 2, law, F5),
    "sym_partition": lambda law: sym_partition((3,), 2, law, F5),
    # these read the law's series and take no field, so only the law's type is checked
    "iterated_tensor_series": lambda law: iterated_tensor_series(law, 2, (3, 3)),
    "validate_fgl": validate_fgl,
    "build_intertwiner_pair": lambda law: build_intertwiner_pair(2, 2, law),
    "build_symmetric_intertwiner": lambda law: build_symmetric_intertwiner(2, 2, law),
}


@pytest.mark.parametrize("entry", LAW_ENTRIES)
@pytest.mark.parametrize("not_a_law", [F5, Matrix.identity(F5, 2)], ids=["Field", "Matrix"])
def test_anything_but_a_law_is_invalid_input(entry, not_a_law):
    # a Matrix over F_5 has the law's field, so only the type tells
    with pytest.raises(InvalidInput, match=f"a law is due, got {type(not_a_law).__name__}"):
        LAW_ENTRIES[entry](not_a_law)


class TestStructureConstants:
    def test_unit(self):
        assert structure_constants(1, 6, multiplicative(F3), F3) == RingElement({6: 1})

    def test_char2_j7_square(self):
        got = structure_constants(7, 7, multiplicative(F2), F2)
        assert got == RingElement({8: 6, 1: 1})

    def test_free_over_truncated_algebra(self):
        # J_{a+1} (x) J_p at char p is free: (a+1) J_p
        got = structure_constants(3, 5, additive(F5), F5)
        assert got == RingElement({5: 3})

    def test_memoized(self):
        law = multiplicative(F3)
        a = structure_constants(4, 5, law, F3)
        b = structure_constants(4, 5, law, F3)
        assert a is b

    def test_gather_offsets_are_memoized_read_only(self):
        # the operator of J_3 (x) J_4 gathers the offsets of (3,) at stride 4
        # and of (4,) at stride 1, each reading 12, the box size, where it is
        # invalid
        offsets = linalg._block_offsets
        repring.clear_memo()
        assert offsets.cache_info().currsize == 0
        canonical_series_operator(F5, ((3,), (4,)), additive(F5).as_poly((3, 4)).num)
        hits = offsets.cache_info().hits
        first = offsets(Partition((3,)), 4, 12)
        assert offsets.cache_info().hits == hits + 1
        assert first.tolist() == [[0, 4, 8], [12, 0, 4], [12, 12, 0]]
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1
        repring.clear_memo()
        assert offsets.cache_info().currsize == 0

    def test_a_miss_calls_tensor_partition_once(self, monkeypatch):
        # the benchmark's tracer counts a memo miss by this module
        # attribute, so every miss goes through it, a prefix read too
        calls = []
        real = repring.tensor_partition

        def spy(*args):
            calls.append(args[:2])
            return real(*args)

        monkeypatch.setattr(repring, "tensor_partition", spy)
        law = random_generalized_law(8, 20, F5)
        repring.clear_memo()
        for n, m in [(3, 9), (3, 4), (9, 3), (3, 4), (2, 2), (2, 2), (4, 3)]:
            structure_constants(n, m, law, F5)
        assert calls == [((3,), (9,)), ((3,), (4,)), ((9,), (3,)), ((2,), (2,)), ((4,), (3,))]

    @pytest.mark.parametrize("n, m", [(2.0, 2), (2, 2.0)])
    def test_non_integer_block_sizes_cold_and_warm(self, n, m):
        # 2.0 hashes as 2, so J_2 (x) J_2 in the memo must not answer it
        law = additive(F5)
        repring.clear_memo()
        for _ in ("cold", "warm"):
            with pytest.raises(InvalidInput, match="block size must be an integer"):
                structure_constants(n, m, law, F5)
            assert structure_constants(2, 2, law, F5) == RingElement({3: 1, 1: 1})

    def test_dimension_check_is_a_typed_error(self, monkeypatch):
        # a brute force that lost a dimension must not reach the memo
        monkeypatch.setattr(repring, "tensor_partition", lambda *args: Partition((5,)))
        repring.clear_memo()
        with pytest.raises(AlgebraError, match="dimension 5, not 6"):
            structure_constants(2, 3, additive(F5), F5)
        assert not repring._constants_memo


class TestStructureConstantsAgainstOracle:
    """Every cell J_n (x) J_m with n, m <= 12, under three laws, against the
    full-power ranks of the additive law's Kronecker-product operator: each
    law's own operator gathered from its coefficients
    (``oracles.gathered_tensor_partition``), an independent construction
    and an independent rank, and the memoized class of the characteristic
    through ``structure_constants`` and ``tensor_partition``.  The class does
    not depend on the law or on the order of n and m, so one oracle serves
    every law and both orders."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_cell_up_to_twelve(self, p):
        from oracles import full_power_partition

        field = GF(p)
        laws = [additive(field), multiplicative(field),
                random_generalized_law(p, 22, field, unit_linear=p % 2 == 1)]
        blocks = {n: nilpotent_from_partition(field, (n,)) for n in range(1, 13)}
        repring.clear_memo()
        for n, m in itertools.combinations_with_replacement(range(1, 13), 2):
            op = tensor_operator(blocks[n], blocks[m], laws[0])
            want = RingElement.from_partition(full_power_partition(op))
            for law in laws:
                own = gathered_tensor_partition(field, (n,), (m,), law.coeffs)
                assert RingElement.from_partition(own) == want, (p, law, n, m)
                for a, b in ((n, m), (m, n)):
                    assert structure_constants(a, b, law, field) == want, (p, law, a, b)
                    cell = tensor_partition((a,), (b,), law, field)
                    assert RingElement.from_partition(cell) == want, (p, law, a, b)


#: the 64-bit packed width
F131 = GF(131)
#: (p-1)**2 * 4 < 2**53 <= (p-1)**2 * 6: float64 products of inner length 4
#: are exact and products of length 6 are not; the cells and the law-free
#: squares make no product, and answer here
PRIME_BETWEEN_BOUNDS = 38745323


def table_box(field):
    """The box of the memoized table of powers of the characteristic, or None."""
    table = repring._constants_memo.get(("powers", field.p))
    return None if table is None else table[:2]


class TestCellRoute:
    """The cells J_n (x) J_m read off the table of powers of x + y of the
    characteristic, after the asked law's refusals, against the Jordan type
    of the law's whole gathered operator; the table's growth, its memo and
    the span postcondition."""

    @staticmethod
    def check(field, n, m, law):
        want = gathered_tensor_partition(field, (n,), (m,), law.coeffs)
        assert tensor_partition((n,), (m,), law, field) == want, (field, n, m)

    @pytest.mark.parametrize("field", [F2, F5, F131, QQ], ids=str)
    def test_seeded_cells(self, field):
        rng = random.Random(f"cell-route:{field.p}")
        top = 10
        laws = [random_generalized_law(rng.randrange(10**6), 2 * top, field),
                random_generalized_law(rng.randrange(10**6), 2 * top, field, unit_linear=True),
                multiplicative(field)]
        if field != F2:
            # F_2 has no other linear part than u + v
            assert not laws[0].has_unit_linear_part()
        repring.clear_memo()
        for law in laws:
            for _ in range(6):
                n, m = rng.randint(1, top), rng.randint(1, top)
                self.check(field, n, m, law)
                self.check(field, m, n, law)
            self.check(field, top, top - 2, law)
            self.check(field, 1, top, law)

    @given(st.sampled_from([F2, F5, F131, QQ]), st.integers(1, 7), st.integers(1, 7),
           st.integers(0, 10**6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_cells(self, field, n, m, seed, unit):
        law = random_generalized_law(seed, max(2, n + m - 2), field, unit_linear=unit)
        self.check(field, n, m, law)
        self.check(field, m, n, law)

    def test_rational_pivot_growth(self, monkeypatch):
        # the pivots of J_16 (x) J_16 over Q peak at 20 bits, below the 28
        # bits of the largest binomial of the table, C(30, 15); 2**32 leaves
        # 12 bits of room
        seen = []
        insert = linalg._insert_int_rows

        def spy(pivots, rows):
            seen.append(pivots)
            return insert(pivots, rows)

        monkeypatch.setattr(linalg, "_insert_int_rows", spy)
        repring.clear_memo()
        law = random_generalized_law(5, 32, QQ, unit_linear=True)
        assert structure_constants(16, 16, law, QQ) == cg_tensor(16, 16)
        pivots = seen[-1]
        assert len(pivots) == 256
        assert max(abs(x) for row in pivots.values() for x in row) < 2**32

    @pytest.mark.parametrize("field", [F3, F131, QQ], ids=str)
    def test_shuffled_order_matches_cold_answers(self, field):
        # each cold answer starts from an empty memo; the shuffled pass grows
        # one table, asked long side first, with no side past 8, the power of
        # two that holds 7, and a degree-10 law refuses the cells with
        # n + m > 12 before any table
        law = random_generalized_law(17, 10, field)
        cells = [(n, m) for n in range(1, 8) for m in range(1, 8)]
        cold = {}
        for n, m in cells:
            repring.clear_memo()
            try:
                cold[n, m] = tensor_partition((n,), (m,), law, field)
            except AlgebraError as exc:
                cold[n, m] = type(exc)
                assert table_box(field) is None
        assert cold[7, 7] is TruncationTooShort and cold[6, 6] != TruncationTooShort
        random.Random(field.p).shuffle(cells)
        repring.clear_memo()
        for n, m in cells:
            if cold[n, m] is TruncationTooShort:
                with pytest.raises(TruncationTooShort):
                    tensor_partition((n,), (m,), law, field)
            else:
                assert tensor_partition((n,), (m,), law, field) == cold[n, m], (n, m)
            box = table_box(field)
            assert box is None or max(box) <= 8
        assert table_box(field)[0] >= 7 and table_box(field)[1] >= 6

    def test_growth_rule(self):
        law, field = random_generalized_law(5, 200, F5), F5
        cells = [(3, 5), (5, 3), (6, 4), (2, 2), (200, 1), (17, 17), (1, 200), (3, 1)]
        cold = {}
        for n, m in cells:
            repring.clear_memo()
            cold[n, m] = tensor_partition((n,), (m,), law, field)
        repring.clear_memo()
        # a cold table at the cell, long side first; each side that must
        # grow rounded up to a power of two; past the 4096 bound the cell's
        # own box, at (17, 17) after (256, 4), where the union is past it
        # too, and then the union of the boxes, at (200, 1) after (17, 17)
        boxes = [(5, 3), (5, 3), (8, 4), (8, 4), (256, 4), (17, 17), (200, 17), (200, 17)]
        for (n, m), box in zip(cells, boxes):
            assert tensor_partition((n,), (m,), law, field) == cold[n, m], (n, m)
            assert table_box(field) == box, (n, m)
        for n, m in cells:
            assert cold[n, m] == gathered_tensor_partition(field, (n,), (m,), law.coeffs), (n, m)

    def test_cells_with_no_product_past_the_float_bound(self):
        # the boxes (1, 2) and (2, 1) have no power past t^1, so they answer
        # at a prime past every float64 bound
        field = GF(2147483647)
        for law in (additive(field), multiplicative(field), random_generalized_law(5, 6, field)):
            repring.clear_memo()
            assert structure_constants(1, 2, law, field) == RingElement({2: 1})
            assert structure_constants(2, 1, law, field) == RingElement({2: 1})
        repring.clear_memo()

    def test_clear_memo_drops_the_tables(self):
        repring.clear_memo()
        structure_constants(4, 6, multiplicative(F3), F3)
        assert table_box(F3) == (6, 4)
        repring.clear_memo()
        assert not repring._constants_memo

    def test_span_postcondition_is_a_typed_error(self, monkeypatch):
        # a table whose powers past t^0 vanish spans only the rows x^i
        build = repring._power_table

        def broken(field, box):
            powers = build(field, box).copy()
            powers[1:] = 0
            return powers

        monkeypatch.setattr(repring, "_power_table", broken)
        repring.clear_memo()
        law = additive(F5)
        with pytest.raises(AlgebraError,
                           match=r"3 generators span 3 dimensions of J_4 \(x\) J_3, not 12"):
            structure_constants(3, 4, law, F5)
        assert ("cell", 3, 4, 5) not in repring._constants_memo
        repring.clear_memo()

    def test_past_the_operator_bound(self):
        repring.clear_memo()
        with pytest.raises(InvalidInput, match="dimension 4160 is past the supported 4096"):
            structure_constants(65, 64, additive(F5), F5)
        assert not repring._constants_memo


class TestPastTheFloatBound:
    """The cells, and the squares of blocks at i < p, make no float64
    product (the table of powers is Pascal's triangle), so they answer at
    every supported prime; every other F_p route, such as wedge^3 and
    wedge^4 of a block through its gathered operator, still raises
    BadPrime past the float64 bound of its products."""

    @pytest.mark.parametrize("p, n", [(2147483647, 8), (3037000493, 32)])
    def test_cells_at_large_primes(self, p, n):
        # p > 2n - 1, so the cell is the characteristic-0 class
        field = GF(p)
        repring.clear_memo()
        for law in (additive(field), multiplicative(field)):
            assert structure_constants(n, n, law, field) == cg_tensor(n, n), law
        repring.clear_memo()

    def test_squares_and_the_sp_adjoint(self):
        from jordanblocks.classical import nilpotent_adjoint_partition

        field = GF(2147483647)
        repring.clear_memo()
        assert sym_partition((4, 3), 2, additive(field), field) == (7, 6, 5, 4, 3, 2, 1)
        assert nilpotent_adjoint_partition("Sp", (4, 2), field) == (7, 5, 3, 3, 3)
        repring.clear_memo()

    def test_tiny_wedges_of_two_blocks(self):
        # the squares inside these folds come from the table; the quotient
        # classes left are of dimension at most 1, which the products hold
        field = GF(1000000007)
        law = multiplicative(field)
        repring.clear_memo()
        assert wedge_partition((3, 1), 4, law, field) == (1,)
        assert wedge_partition((2, 1), 5, law, field) == ()
        repring.clear_memo()

    @pytest.mark.parametrize("m", [3, 4])
    def test_gathered_powers_still_refuse(self, m):
        field = GF(2147483647)
        repring.clear_memo()
        with pytest.raises(BadPrime):
            wedge_partition((5,), m, additive(field), field)
        repring.clear_memo()


def primitive_powers(powers) -> np.ndarray:
    """Each power of a table over Q divided by the gcd of its entries, as
    ``oracles.gathered_power_table`` gives them."""
    out = powers.copy()
    for j, power in enumerate(powers):
        out[j] = power // max(math.gcd(*power.ravel().tolist()), 1)
    return out


class TestPowerTable:
    """The table of powers (x + y)^j mod (x^bx, y^by), Pascal's triangle,
    against the powers of the additive law's whole gathered operator."""

    @staticmethod
    def check(field, box):
        got = repring._power_table(field, box)
        want = gathered_power_table(field, box, additive(field).coeffs)
        if not field.p:
            got = primitive_powers(got)
        assert got.shape == want.shape and np.array_equal(got, want), (field, box)

    @pytest.mark.parametrize("field", [F2, F3, F5, F131, QQ], ids=str)
    def test_seeded_tables(self, field):
        rng = random.Random(f"power-table:{field.p}")
        top = 6 if field == QQ else 12
        boxes = [(1, 1), (1, top), (top, 1), (top, top - 1), (2, 5)]
        boxes += [(rng.randint(1, top), rng.randint(1, top)) for _ in range(6)]
        for box in boxes:
            self.check(field, box)

    @given(st.sampled_from([F2, F3, F5, F131, QQ]), st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_tables(self, field, bx, by):
        self.check(field, (bx, by))

    def test_memory_stays_near_the_table(self):
        # Pascal's rule builds each power from the last in place, so the
        # build never holds an operator on the box: here the gathered
        # operator would take 20 times the table's bytes
        tracemalloc.start()
        try:
            table = repring._power_table(F5, (40, 40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == 79 * 1600 * 8
        assert peak < 4 * table.nbytes


class TestRingMultiply:
    def test_unit_class(self):
        x = RingElement({1: 1})
        y = RingElement({5: 2, 3: 1})
        assert ring_multiply(x, y, additive(F7), F7) == y

    def test_bilinear(self):
        x = RingElement({2: 2})
        y = RingElement({2: 1})
        assert ring_multiply(x, y, additive(F5), F5) == RingElement({3: 2, 1: 2})

    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_commutative_multiplicative_law(self, seed):
        rng = random.Random(seed)
        x = RingElement({rng.randint(1, 4): rng.randint(1, 3) for _ in range(2)})
        y = RingElement({rng.randint(1, 4): rng.randint(1, 3) for _ in range(2)})
        law = multiplicative(F3)
        assert ring_multiply(x, y, law, F3) == ring_multiply(y, x, law, F3)


class TestPowerOperator:
    def test_m1(self):
        phi = nilpotent_from_partition(F5, (3, 1))
        assert power_operator((3, 1), 1, additive(F5), F5) == phi

    def test_m2_additive(self):
        phi = nilpotent_from_partition(F5, (3,))
        eye = Matrix.identity(F5, 3)
        expected = phi.kron(eye) + eye.kron(phi)
        assert power_operator((3,), 2, additive(F5), F5) == expected

    def test_m2_multiplicative_is_group_tensor(self):
        phi = nilpotent_from_partition(F3, (3,))
        eye = Matrix.identity(F3, 3)
        got = power_operator((3,), 2, multiplicative(F3), F3)
        expected = (eye + phi).kron(eye + phi) - eye.kron(eye)
        assert got == expected

    def test_past_the_size_bound_refused_before_the_series(self, monkeypatch):
        # 17**3 = 4913 > 4096; checked by arithmetic, nothing is allocated
        monkeypatch.setattr(repring, "iterated_tensor_series",
                            lambda *args: pytest.fail("the series was computed"))
        with pytest.raises(InvalidInput, match="4913"):
            power_operator((17,), 3, additive(F5), F5)

    def test_commutes_with_symmetric_group(self):
        op = power_operator((2, 1), 3, multiplicative(F5), F5)
        for s in sigma_matrices(3, 3, F5):
            assert (op @ s) == (s @ op)


FIELDS = [F2, F3, F5, F7, QQ]


def seeded_partition(rng, dim, top=4) -> Partition:
    parts = []
    while sum(parts) < dim:
        parts.append(rng.randint(1, min(top, dim - sum(parts))))
    return Partition(sorted(parts, reverse=True))


def seeded_law(rng, field, degree):
    """A generalized law with a seeded, in general non-unit, linear part."""
    return random_generalized_law(rng.randrange(10**6), degree, field)


gathered_fields = st.sampled_from(FIELDS)
small_partitions = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
    lambda xs: Partition(sorted(xs, reverse=True)))


class TestGatheredOperators:
    """The gathered law operators against the Kronecker sums of dense powers."""

    def _check_tensor(self, field, lam, mu, law):
        phi = nilpotent_from_partition(field, lam)
        psi = nilpotent_from_partition(field, mu)
        kron = tensor_operator(phi, psi, law)
        box = (max(lam, default=0), max(mu, default=0))
        coeffs = dense_coefficients(field, law.coeffs, box)
        assert canonical_series_operator(field, (lam, mu), *coeffs) == kron
        assert tensor_partition(lam, mu, law, field) == jordan_partition(kron)

    def _check_power(self, field, lam, m, law):
        phi = nilpotent_from_partition(field, lam)
        assert power_operator(lam, m, law, field) == kron_power_operator(phi, m, law)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_tensor_seeded_multi_block(self, field):
        rng = random.Random(f"gather-tensor:{field.p}")
        for _ in range(6):
            lam = seeded_partition(rng, rng.randint(1, 7))
            mu = seeded_partition(rng, rng.randint(1, 7))
            # degree 10 reaches past every block of size <= 4
            self._check_tensor(field, lam, mu, seeded_law(rng, field, 10))
        self._check_tensor(field, Partition((3, 1)), Partition((2, 2, 1)), multiplicative(field))
        # the zero module: every operator on it is 0 x 0
        self._check_tensor(field, Partition(()), Partition((3, 1)), seeded_law(rng, field, 10))
        self._check_tensor(field, Partition((2,)), Partition(()), seeded_law(rng, field, 10))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_power_seeded_multi_block(self, field, m):
        rng = random.Random(f"gather-power:{field.p}:{m}")
        for dim in (1, 3, 4, 5) if m < 3 else (1, 3, 4):
            lam = seeded_partition(rng, dim, top=3)
            self._check_power(field, lam, m, seeded_law(rng, field, 3 * m + 2))
        self._check_power(field, Partition((2, 1)), m, multiplicative(field))
        empty = power_operator(Partition(()), m, seeded_law(rng, field, 3), field)
        assert empty == Matrix.zeros(field, 0, 0)

    @given(gathered_fields, small_partitions, small_partitions, st.integers(0, 10**6),
           st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_tensor_hypothesis(self, field, lam, mu, seed, extra):
        degree = max(2, lam[0] + mu[0] - 2 + extra)
        self._check_tensor(field, lam, mu, random_generalized_law(seed, degree, field))

    @given(gathered_fields, small_partitions, st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_power_hypothesis(self, field, lam, m, seed):
        if lam.dim ** m > 216:
            lam = Partition(lam[:1])
        self._check_power(field, lam, m, random_generalized_law(seed, m * lam[0] + 1, field))

    def test_exponents_past_the_largest_block_are_dropped(self):
        # a coefficient array larger than the box of the largest blocks, (2, 3)
        coeffs = np.zeros((3, 4), dtype=np.int64)
        coeffs[2, 0], coeffs[0, 3], coeffs[1, 2] = 1, 4, 3
        op = canonical_series_operator(F5, ((2, 1), (3,)), coeffs)
        phi = nilpotent_from_partition(F5, (2, 1))
        psi = nilpotent_from_partition(F5, (3,))
        assert op == phi.kron(psi @ psi).scale(3)


def random_coefficients(rng, field, lams):
    """A seeded coefficient array on the box of the largest blocks, with a
    denominator over Q."""
    box = tuple(max(lam, default=0) for lam in lams)
    num = np.array([rng.randint(-9, 9) for _ in range(math.prod(box))], dtype=np.int64)
    return num.reshape(box), 1 if field.p else rng.randint(1, 12)


class TestColumnGather:
    """``canonical_series_operator`` at a set of columns against the same
    columns of the whole operator, which ``TestGatheredOperators`` checks
    against the dense Kronecker powers."""

    def _check(self, field, lams, num, den, columns):
        whole = canonical_series_operator(field, lams, num, den)
        got = canonical_series_operator(field, lams, num, den, np.asarray(columns, dtype=np.intp))
        assert got == Matrix._from_ints(field, whole.num[:, columns], whole.den)
        assert got.shape == (whole.nrows, len(columns))

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=str)
    def test_seeded_subsets(self, field):
        rng = random.Random(f"column-gather:{field.p}")
        for factors in range(1, 5):
            for _ in range(5):
                lams = [seeded_partition(rng, rng.randint(1, 5 if factors < 4 else 3), top=3)
                        for _ in range(factors)]
                dim = math.prod(lam.dim for lam in lams)
                num, den = random_coefficients(rng, field, lams)
                self._check(field, lams, num, den, [])
                self._check(field, lams, num, den, range(dim))
                self._check(field, lams, num, den, rng.sample(range(dim), rng.randint(1, dim)))

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=str)
    @pytest.mark.parametrize("kind", ["sym", "wedge"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_basis_words(self, field, kind, m):
        rng = random.Random(f"column-gather:{field.p}:{kind}:{m}")
        for lam in ((3,), (2, 1), (2, 1, 1), (1, 1, 1)):
            lam = Partition(lam)
            num, den = random_coefficients(rng, field, (lam,) * m)
            columns = repring._straightening(lam.dim, m, kind)[2]
            self._check(field, (lam,) * m, num, den, columns)

    def test_columns_are_normalized_over_q(self):
        # c_0 = 2/2 and c_1 = 1/2: column 0 reads c_0 alone, so it is 1 over 1
        got = canonical_series_operator(QQ, ((2,),), np.array([2, 1]), 2, np.array([0]))
        assert got.num.tolist() == [[1], [0]] and got.den == 1

    def test_no_factors(self):
        # a series in no variables is its constant, a 1 x 1 operator
        assert canonical_series_operator(F5, (), np.array(3)).num.tolist() == [[3]]
        got = canonical_series_operator(QQ, (), np.array(3), 2, np.array([0, 0]))
        assert got.num.tolist() == [[3, 3]] and got.den == 2

    def test_columns_check_no_bound(self):
        # J_8^(x)5 has dimension 32768, past 4096; one column is 32768 x 1
        num = np.ones((8,) * 5, dtype=np.int64)
        with pytest.raises(InvalidInput, match="past the supported 4096"):
            canonical_series_operator(F5, ((8,),) * 5, num)
        got = canonical_series_operator(F5, ((8,),) * 5, num, 1, np.array([8 ** 5 - 1]))
        assert got.shape == (8 ** 5, 1) and got.num.sum() == 8 ** 5

    @given(st.sampled_from([F2, F5, QQ]), st.lists(small_partitions, min_size=1, max_size=3),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis(self, field, lams, seed):
        rng = random.Random(seed)
        dim = math.prod(lam.dim for lam in lams)
        num, den = random_coefficients(rng, field, lams)
        columns = [rng.randrange(dim) for _ in range(rng.randint(0, 2 * dim))]
        self._check(field, lams, num, den, columns)

    def test_whole_gather_holds_two_index_arrays(self):
        # J_32 (x) J_64 is 2048 x 2048: the index and the gathered entries
        # are 32 MiB of int64 each, where a third such array peaks at 96 MiB
        num = np.arange(32 * 64, dtype=np.int64).reshape(32, 64) % 5
        canonical_series_operator(F5, ((32,), (64,)), num, 1, np.array([0]))
        tracemalloc.start()
        try:
            op = canonical_series_operator(F5, ((32,), (64,)), num)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.shape == (2048, 2048) and peak < 80 * 2**20


QUOTIENT_LAWS = ("additive", "multiplicative", "scaled", "fgl")


def symmetric_law(kind, field, degree, rng):
    """A built-in law, or a seeded formal group law of at least ``degree``:
    every m-fold series of these is symmetric."""
    if kind == "additive":
        return additive(field)
    if kind == "multiplicative":
        return multiplicative(field)
    if kind == "scaled":
        return scaled_multiplicative(field, field.random_nonzero(rng))
    return random_fgl(rng.randrange(10**6), max(2, degree), field)


class TestQuotientOperator:
    """The one-pass straightening against the dense proj @ x @ inj."""

    def _check(self, x, d, m):
        for kind in ("wedge", "sym"):
            got = induced_quotient_operator(x, d, m, kind)
            assert got == dense_quotient_operator(x, d, m, kind)

    def _check_power(self, field, lam, m, kind, rng):
        law = symmetric_law(kind, field, m * (lam[0] - 1), rng)
        self._check(power_operator(lam, m, law, field), lam.dim, m)

    def _check_conjugate(self, field, lam, kind, rng):
        g = random_invertible(field, lam.dim, rng)
        x = g @ nilpotent_from_partition(field, lam) @ g.inverse()
        law = symmetric_law(kind, field, 2 * (lam[0] - 1), rng)
        self._check(tensor_operator(x, x, law), lam.dim, 2)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_power_seeded(self, field, m):
        rng = random.Random(f"quotient-power:{field.p}:{m}")
        for kind in QUOTIENT_LAWS:
            # dimensions 1 and 2 put d < m for m = 2, 3
            for dim in (1, 2, 4):
                self._check_power(field, seeded_partition(rng, dim, top=3), m, kind, rng)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_tensor_square_of_conjugates_seeded(self, field):
        rng = random.Random(f"quotient-conjugate:{field.p}")
        for kind in QUOTIENT_LAWS:
            self._check_conjugate(field, seeded_partition(rng, rng.randint(1, 5), top=3), kind, rng)

    @given(gathered_fields, small_partitions, st.integers(1, 3),
           st.sampled_from(QUOTIENT_LAWS), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_power_hypothesis(self, field, lam, m, kind, seed):
        if lam.dim ** m > 216:
            lam = Partition(lam[:1])
        self._check_power(field, lam, m, kind, random.Random(seed))

    @given(gathered_fields, small_partitions, st.sampled_from(QUOTIENT_LAWS),
           st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_tensor_square_of_conjugates_hypothesis(self, field, lam, kind, seed):
        self._check_conjugate(field, lam, kind, random.Random(seed))

    def test_wrong_shape_is_rejected(self):
        with pytest.raises(InvalidInput):
            induced_quotient_operator(Matrix.zeros(F5, 8, 8), 3, 2, "sym")


class TestNonSymmetricLaw:
    """A law whose m-fold series is not symmetric induces no map on the
    quotients; the answer is an error, never a partition."""

    def test_linear_part_2u_plus_v_is_rejected(self):
        # 2 phi (x) 1 + 1 (x) phi does not commute with the swap
        law = GeneralizedLaw(F5, 4, {(1, 0): 2, (0, 1): 1})
        x = power_operator((3,), 2, law, F5)
        for kind in ("wedge", "sym"):
            with pytest.raises(InvalidInput, match="commute"):
                induced_quotient_operator(x, 3, 2, kind)

    def test_swap_checked_in_the_last_row_block(self):
        # the only entries that the swap moves sit in rows (16, 15) and
        # (15, 16) of the 289 words, both in the last block of rows checked
        d = 17
        n, u, v = d * d, 16 * d + 15, 15 * d + 16
        last = (n - 1) // repring._SWAP_ROWS * repring._SWAP_ROWS
        assert 0 < last <= min(u, v)
        num = np.zeros((n, n), dtype=np.int64)
        num[u, 0] = 1
        for kind in ("wedge", "sym"):
            with pytest.raises(InvalidInput, match="commute"):
                induced_quotient_operator(Matrix(F5, num), d, 2, kind)
        num[v, 0] = 1
        x = Matrix(F5, num)
        for kind in ("wedge", "sym"):
            assert induced_quotient_operator(x, d, 2, kind) == dense_quotient_operator(x, d, 2, kind)

    @given(st.sampled_from([F5, F7]), small_partitions, st.integers(2, 3),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_generalized_law_raises_or_matches_additive(self, field, lam, m, seed):
        # the law's own class of the whole partition (``_quotient_class``)
        # against the ring, which reads the additive law's classes
        if lam.dim ** m > 216:
            lam = Partition(lam[:1])
        law = random_generalized_law(seed, max(2, m * (lam[0] - 1)), field)
        for kind, power in (("wedge", wedge_partition), ("sym", sym_partition)):
            try:
                want = repring._quotient_class(lam, m, law, kind)
            except InvalidInput:
                with pytest.raises(InvalidInput, match="commute"):
                    power(lam, m, law, field)
                continue
            assert power(lam, m, law, field) == want
            assert power(lam, m, additive(field), field) == want


SQUARE_FIELDS = [QQ, F2, F3, F5, F7, GF(13)]


class TestSquareRoute:
    """Sym^2 J_n and wedge^2 J_n as the memoized block power (``_block_power``
    at i = 2): folded from the table of powers of x + y of the
    characteristic (``_table_partition``) at odd p and under the additive
    law, else the law's own quotient class, against the operator route: the
    gathered n^2 x n^2 operator straightened onto the quotient and its
    Jordan type (``oracles.operator_square_partition``)."""

    @staticmethod
    def check(n, law):
        for shape, square in (("sym", sym_partition), ("wedge", wedge_partition)):
            want = RingElement.from_partition(
                operator_square_partition((n,), shape, law, law.field))
            assert _block_power(n, 2, shape, law) == want, (law.field, law, n, shape)
            got = RingElement.from_partition(square((n,), 2, law, law.field))
            assert got == want, (law.field, law, n, shape)

    @pytest.mark.parametrize("field", SQUARE_FIELDS, ids=str)
    def test_seeded_squares(self, field):
        # every n up to the top, then cold in a shuffled order, so that the
        # squares read tables of several boxes
        rng = random.Random(f"square-route:{field.p}")
        top = 12
        sizes = list(range(1, top + 1))
        for kind in QUOTIENT_LAWS:
            law = symmetric_law(kind, field, 2 * top - 2, rng)
            repring.clear_memo()
            for n in sizes:
                self.check(n, law)
            rng.shuffle(sizes)
            repring.clear_memo()
            for n in sizes[:4]:
                self.check(n, law)

    @given(st.sampled_from(SQUARE_FIELDS), st.integers(1, 12),
           st.sampled_from(QUOTIENT_LAWS), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_squares(self, field, n, kind, seed):
        repring.clear_memo()
        self.check(n, symmetric_law(kind, field, 2 * n - 2, random.Random(seed)))

    @pytest.mark.parametrize("field", SQUARE_FIELDS, ids=str)
    def test_one_block_of_size_one(self, field):
        rng = random.Random(f"square-one:{field.p}")
        for kind in QUOTIENT_LAWS:
            law = symmetric_law(kind, field, 2, rng)
            assert _block_power(1, 2, "sym", law) == RingElement({1: 1})
            assert _block_power(1, 2, "wedge", law) == RingElement()
            self.check(1, law)

    def test_one_memo_entry_per_square(self):
        # the square is the block power at i = 2, under the key of every power:
        # at p = 5 that of the characteristic, which every law reads
        law = multiplicative(F5)
        repring.clear_memo()
        assert sym_partition((3,), 2, law, F5) == (5, 1)
        key = ("sym", 3, 2, 5)
        classes = [k for k, v in repring._constants_memo.items() if isinstance(v, RingElement)]
        assert classes == [key]
        for law in (law, additive(F5), random_fgl(3, 4, F5)):
            assert _block_power(3, 2, "sym", law) is repring._constants_memo[key]

    @pytest.mark.parametrize("n", [0, -2, 2.5])
    def test_block_sizes_that_are_not_positive_integers(self, n):
        repring.clear_memo()
        for square in (sym_partition, wedge_partition):
            with pytest.raises(InvalidInput, match="a part must be an integer >= 1"):
                square((n,), 2, additive(F5), F5)
        assert not repring._constants_memo

    def test_law_of_too_low_a_degree(self):
        law = random_fgl(3, 5, F5)
        repring.clear_memo()
        for shape in ("sym", "wedge"):
            with pytest.raises(TruncationTooShort):
                _block_power(4, 2, shape, law)
        assert not repring._constants_memo
        self.check(3, law)

    @pytest.mark.parametrize("seed", range(4))
    def test_non_symmetric_law(self, seed):
        law = random_generalized_law(seed, 6, F5)
        for shape, square in (("sym", sym_partition), ("wedge", wedge_partition)):
            with pytest.raises(InvalidInput, match="commute"):
                operator_square_partition((4,), shape, law, F5)
            with pytest.raises(InvalidInput, match="commute"):
                square((4, 2), 2, law, F5)
        repring.clear_memo()
        for shape in ("sym", "wedge"):
            with pytest.raises(InvalidInput, match="commute"):
                _block_power(4, 2, shape, law)
        assert not repring._constants_memo

    def test_symmetry_is_read_from_the_law(self, monkeypatch):
        # a square reads the law's ``_symmetric_to``, worked out once from
        # its coefficients, and checks no series: for a symmetric law and
        # for a law skew above degree 6 (whose squares up to J_4 answer)
        laws = (random_fgl(3, 24, F5), skewed_above(F5, 6, 24, random.Random("skewed-above")))
        squares = [(law, n, shape) for law in laws for n in range(1, 5)
                   for shape in ("sym", "wedge")]
        want = [RingElement.from_partition(operator_square_partition((n,), shape, law, F5))
                for law, n, shape in squares]
        calls = []
        is_symmetric = TruncatedPoly.is_symmetric

        def spy(series):
            calls.append(series.trunc)
            return is_symmetric(series)

        monkeypatch.setattr(TruncatedPoly, "is_symmetric", spy)
        repring.clear_memo()
        assert [_block_power(n, 2, shape, law) for law, n, shape in squares] == want
        assert not calls

    def test_no_operator_is_built(self, monkeypatch):
        laws = [additive(F2), multiplicative(F5), scaled_multiplicative(F7, F7(3)),
                random_fgl(5, 14, QQ)]
        want = {}
        for law in laws:
            for n in range(1, 7):
                want[law, n] = tuple(RingElement.from_partition(
                    operator_square_partition((n,), shape, law, law.field))
                    for shape in ("sym", "wedge"))

        def refuse(*args, **kwargs):
            pytest.fail("the square built an operator")

        for name in ("power_operator", "induced_quotient_operator", "jordan_partition"):
            monkeypatch.setattr(repring, name, refuse)
        monkeypatch.setattr(linalg, "jordan_partition", refuse)
        repring.clear_memo()
        for (law, n), (sym, wedge) in want.items():
            assert _block_power(n, 2, "sym", law) == sym, (law, n)
            assert _block_power(n, 2, "wedge", law) == wedge, (law, n)

    def test_span_postcondition_is_a_typed_error(self, monkeypatch):
        # a table whose powers past t^0 vanish leaves the generators x^0 and
        # x^2 alone, folded onto two columns of the six of Sym^2 J_3
        build = repring._power_table

        def broken(field, box):
            powers = build(field, box).copy()
            powers[1:] = 0
            return powers

        monkeypatch.setattr(repring, "_power_table", broken)
        repring.clear_memo()
        law = additive(F5)
        with pytest.raises(AlgebraError,
                           match=r"2 generators span 2 dimensions of the sym square of J_3, not 6"):
            _block_power(3, 2, "sym", law)
        assert ("sym", 3, 2, 5) not in repring._constants_memo
        repring.clear_memo()

    @pytest.mark.parametrize("field", [F2, F3], ids=str)
    def test_blocks_thirteen_to_twenty(self, field):
        # past the seeded sizes, where the fold's columns and generators
        # outnumber the tables of the smaller squares
        rng = random.Random(f"square-large:{field.p}")
        laws = [multiplicative(field), symmetric_law("fgl", field, 38, rng)]
        repring.clear_memo()
        for n in range(13, 21):
            self.check(n, laws[n % 2])

    @pytest.mark.parametrize("p", [2, 5, 251, 65521])
    def test_folded_rows_match_a_python_fold(self, p, monkeypatch):
        # the rows handed to the echelon, entry by entry, against the fold in
        # Python ints: at p = 251 and 65521 the sum upper + (p - lower)
        # passes the uint8 or uint16 of the rows, where the answers alone
        # cannot tell (p > 2n - 1 gives the characteristic-0 types, which a
        # perturbed row keeps); the columns go by b and then a, so the
        # squares of J_k, k <= n, are their prefixes; each square is built
        # at its own n on a cleared memo (``_table_partition``), and read
        # against the table at (8, 8), which truncation cuts
        seen = []
        masks = repring._prefix_masks

        def spy(levels, q, dim):
            w = linalg._packing(q, dim)[0]
            seen.append([linalg._unpack(rows, dim, w).tolist() for rows in levels])
            return masks(levels, q, dim)

        monkeypatch.setattr(repring, "_prefix_masks", spy)
        field = GF(p)
        repring.clear_memo()
        table = repring._law_powers(field, 8, 8).tolist()

        def x(j, i, a, b):
            # the coefficient of x^a y^b in x^i t^j, t = x + y
            return table[j][a - i][b] if a >= i else 0

        for n in range(1, 9):
            for shape in ("sym", "wedge"):
                wedge = shape == "wedge"
                cols = [(a, b) for b in range(n) for a in range(b + 1 - wedge)]
                if not cols:
                    continue
                want = [[[(x(j, i, a, b) + (a != b) * (-1) ** wedge * x(j, i, b, a)) % p
                          for a, b in cols]
                         for i in range(wedge, n, 1 if p == 2 else 2)]
                        for j in range(2 * n - 2, -1, -1)]
                repring.clear_memo()
                seen.clear()
                repring._table_partition(n, n, shape, field)
                assert seen == [want], (n, shape)

    def test_refusal_order(self):
        # the cell's order for cells and squares alike: the law's degree,
        # then the 4096 bound, then the symmetry of the series, and nothing
        # memoized for a refusal
        short_symmetric = random_fgl(3, 5, F5)
        short_skew = random_generalized_law(0, 5, F5)
        long_skew = random_generalized_law(0, 128, F5)
        series = long_skew.as_poly((4, 4)).num
        assert not np.array_equal(series, series.T)
        refusals = [
            (lambda: _block_power(65, 2, "sym", short_symmetric), TruncationTooShort, "degree 128"),
            (lambda: _block_power(4, 2, "wedge", short_skew), TruncationTooShort, "degree 6"),
            (lambda: _block_power(65, 2, "wedge", long_skew), InvalidInput, "past the supported"),
            (lambda: _block_power(65, 2, "sym", additive(F5)), InvalidInput, "past the supported"),
            (lambda: _block_power(4, 2, "sym", long_skew), InvalidInput, "commute"),
            (lambda: structure_constants(65, 64, short_symmetric, F5), TruncationTooShort,
             "degree 127"),
            (lambda: structure_constants(65, 64, additive(F5), F5), InvalidInput,
             "past the supported"),
        ]
        for call, error, match in refusals:
            repring.clear_memo()
            with pytest.raises(error, match=match):
                call()
            assert not repring._constants_memo, match


def symmetric_generalized_law(rng, field, degree):
    """A seeded law with linear part xi (u + v), xi != 0 seeded too, and
    seeded coefficients c_ab = c_ba above: symmetric, and in general not
    associative."""
    xi = field.random_nonzero(rng)
    coeffs = {(1, 0): xi, (0, 1): xi}
    for total in range(2, degree + 1):
        for a in range(total // 2 + 1):
            coeffs[a, total - a] = coeffs[total - a, a] = field.random_element(rng)
    return GeneralizedLaw(field, degree, coeffs)


def skewed_above(field, degree, top, rng):
    """A seeded law whose series is symmetric up to degree ``degree`` and
    seeded term by term above it, up to ``top``: its squares answer up to
    J_(degree/2 + 1) only."""
    coeffs = dict(symmetric_generalized_law(rng, field, degree).coeffs)
    for total in range(degree + 1, top + 1):
        for a in range(total + 1):
            coeffs[a, total - a] = field.random_element(rng)
    return GeneralizedLaw(field, top, coeffs)


def column_builds(monkeypatch) -> list:
    """The (shape, N, side) of every column built from here on."""
    built = []
    build = repring._column_masks

    def spy(powers, N, side, shape, p):
        built.append((shape, N, side))
        return build(powers, N, side, shape, p)

    monkeypatch.setattr(repring, "_column_masks", spy)
    return built


#: the laws of the memo-history test: a law that is not symmetric (squares
#: refused), one of degree 9 (cells near n + m = 11), one symmetric only to
#: degree 6 (squares past J_4 refused), one over Q, one at a prime where
#: products of length 6 are past float64 (which the cells and the law-free
#: squares make none of) and an exact one at p = 2 (its own squares)
HISTORY_LAWS = {
    "skew": random_generalized_law(31, 24, F5),
    "degree-9": random_generalized_law(32, 9, F3, unit_linear=True),
    "symmetric-to-6": skewed_above(F5, 6, 24, random.Random("skewed-above")),
    "rational": random_generalized_law(33, 12, QQ, unit_linear=True),
    "between-bounds": additive(GF(PRIME_BETWEEN_BOUNDS)),
    "exact": multiplicative(F2),
}


class TestLawSymmetry:
    """The law's ``_symmetric_to``, worked out once from its coefficients,
    against the symmetry of its series cut to (n, n)."""

    @pytest.mark.parametrize("name", sorted(HISTORY_LAWS))
    def test_the_series_is_symmetric_to_the_bound(self, name):
        law = HISTORY_LAWS[name]
        for n in range(1, law.degree + 3):
            assert law._poly((n, n)).is_symmetric() == (n <= law._symmetric_to), n

    def test_pinned_bounds(self):
        u_plus_2v = GeneralizedLaw(F5, 1, {(1, 0): 1, (0, 1): 2}, exact=True)
        for law, bound in ((additive(F5), math.inf), (multiplicative(F2), math.inf),
                           (random_fgl(3, 24, F5), math.inf), (u_plus_2v, 1),
                           (HISTORY_LAWS["symmetric-to-6"], 4)):
            assert law._symmetric_to == bound, law


REQUEST = st.one_of(
    st.tuples(st.sampled_from(("tensor", "sym", "wedge")), st.integers(1, 12), st.integers(1, 12)),
    st.sampled_from([("tensor", 65, 64), ("tensor", 64, 65), ("sym", 65, 65), ("wedge", 65, 65)]))
REQUESTS = st.lists(REQUEST, min_size=1, max_size=14)


def ask(law, request):
    """The class a request gives, or the type of its refusal, through the
    memo of the characteristic (``structure_constants``, ``_block_power``)
    and through the public entry (``tensor_partition``, ``sym_partition``,
    ``wedge_partition``)."""
    shape, n, m = request
    m = m if shape == "tensor" else n
    field = law.field
    square = sym_partition if shape == "sym" else wedge_partition
    routes = (lambda: structure_constants(n, m, law, field) if shape == "tensor"
              else _block_power(n, 2, shape, law),
              lambda: RingElement.from_partition(
                  tensor_partition((n,), (m,), law, field) if shape == "tensor"
                  else square((n,), 2, law, field)))
    out = []
    for route in routes:
        try:
            out.append(route())
        except AlgebraError as exc:
            out.append(type(exc))
    return tuple(out)


#: the oracles' classes of answered requests, per law name and request
ORACLE_CLASSES = {}


def check_against_oracle(name, law, request, answers):
    """Where ``ask`` answers, both routes give the law's own class: its
    gathered cell (``oracles.gathered_tensor_partition``) or its gathered
    square (``oracles.operator_square_partition``); past the float64 bound,
    where the oracles' products refuse, the characteristic-0 classes, as
    p > 2 max(n, m)."""
    shape, n, m = request
    if not isinstance(answers[0], RingElement):
        assert answers[1] is answers[0], (name, request)
        return
    if (name, request) not in ORACLE_CLASSES:
        field = law.field
        if field.p > 2**20:
            want = cg_tensor(n, m) if shape == "tensor" else cg_square(n, shape)
        elif shape == "tensor":
            want = RingElement.from_partition(
                gathered_tensor_partition(field, (n,), (m,), law.coeffs))
        else:
            want = RingElement.from_partition(operator_square_partition((n,), shape, law, field))
        ORACLE_CLASSES[name, request] = want
    assert answers == (ORACLE_CLASSES[name, request],) * 2, (name, request)


class TestColumnRoute:
    """Cells J_n (x) J_s and squares of J_n for every n <= N from one
    elimination at N: the shifted rows, the prefix counts and the extent
    rule, and answers that do not depend on what the memo holds."""

    @pytest.mark.parametrize("p", [2, 3, 5, 131, 32771, 0])
    def test_shifted_rows_match_the_sliced_levels(self, p, monkeypatch):
        # the packed rows x^i t^j of every cell's column, row by row, and its
        # masks, against the levels sliced as arrays (``tensor_levels``),
        # packed by the kernel's own ``_rows``: every N <= 8 and short side
        # s <= N
        field = GF(p) if p else QQ
        repring.clear_memo()
        powers = repring._law_powers(field, 8, 8)
        seen = []
        masks = repring._prefix_masks

        def spy(levels, q, dim):
            # the column hands its levels over one at a time
            levels = list(levels)
            seen.append(levels)
            return masks(levels, q, dim)

        monkeypatch.setattr(repring, "_prefix_masks", spy)
        for N, side in ((N, s) for N in range(1, 9) for s in range(1, N + 1)):
            want = tensor_levels(powers, N, side, p)
            count, gens, dim = want.shape
            rows = linalg._rows(want.reshape(count * gens, dim), p)
            levels = [rows[k * gens:(k + 1) * gens] for k in range(count)]
            seen.clear()
            assert repring._column_masks(powers, N, side, "tensor", p) == masks(
                levels, p, dim), (N, side)
            assert seen == [levels], (N, side)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_one_column_per_short_side(self, symmetric, monkeypatch):
        # cells n <= m, n m <= 48, row by row, each read long side first
        # with its short side s across, under a symmetric law or not, which
        # is read only for its refusals: a column is built out to the
        # table's extent on its long axis, so the column of s = 1 is rebuilt
        # as the first row grows the table to 2, 4, 8 and 16, and each later
        # s is built once, at N = 16
        law = (random_fgl(3, 14, F5) if symmetric
               else random_generalized_law(3, 14, F5, unit_linear=True))
        cells = [(n, m) for n in range(1, 13) for m in range(n, 13) if n * m <= 48]
        built = column_builds(monkeypatch)
        repring.clear_memo()
        for n, m in cells:
            want = gathered_tensor_partition(F5, (n,), (m,), law.coeffs)
            assert tensor_partition((n,), (m,), law, F5) == want, (n, m)
        columns = [("tensor", 16, s) for s in range(2, 7)]
        assert built == [("tensor", N, 1) for N in (1, 2, 4, 8, 16)] + columns
        # the other order reads the same columns
        built.clear()
        for n, m in cells:
            want = gathered_tensor_partition(F5, (m,), (n,), law.coeffs)
            assert tensor_partition((m,), (n,), law, F5) == want, (m, n)
        assert built == []

    def test_squares_are_prefixes(self, monkeypatch):
        # largest first, one column per shape serves every smaller square;
        # smallest first, a column is built out to the table, which grows to
        # 2, 4, 8 and 16; after a larger cell, a square is built out to the
        # cell's table
        law = random_fgl(4, 24, F3)
        built = column_builds(monkeypatch)
        for order in (range(9, 0, -1), range(1, 10)):
            repring.clear_memo()
            built.clear()
            for n in order:
                for shape in ("sym", "wedge"):
                    want = RingElement.from_partition(
                        operator_square_partition((n,), shape, law, F3))
                    assert _block_power(n, 2, shape, law) == want, (n, shape)
            # J_1 has no wedge^2, which builds nothing
            if order[0] == 9:
                assert built == [("sym", 9, 9), ("wedge", 9, 9)]
            else:
                assert built == [("sym", 1, 1)] + [(shape, N, N) for N in (2, 4, 8, 16)
                                                   for shape in ("sym", "wedge")]
        repring.clear_memo()
        structure_constants(11, 11, law, F3)
        built.clear()
        _block_power(2, 2, "sym", law)
        assert built == [("sym", 11, 11)]

    def test_symmetric_only_at_low_degree(self, monkeypatch):
        # a law symmetric to degree 6 reads the squares of the
        # characteristic up to J_4, built out to the 10 x 10 table of a
        # larger cell, and is refused past J_4, on a warm memo too
        law = HISTORY_LAWS["symmetric-to-6"]
        assert law._symmetric_to == 4
        built = column_builds(monkeypatch)
        repring.clear_memo()
        structure_constants(10, 10, law, F5)
        built.clear()
        for n in range(1, 5):
            want = RingElement.from_partition(operator_square_partition((n,), "sym", law, F5))
            assert _block_power(n, 2, "sym", law) == want, n
        assert built == [("sym", 10, 10)]
        _block_power(5, 2, "sym", additive(F5))
        for n in (5, 6):
            with pytest.raises(InvalidInput, match="commute"):
                _block_power(n, 2, "sym", law)
            with pytest.raises(InvalidInput, match="commute"):
                operator_square_partition((n,), "sym", law, F5)

    @given(st.sampled_from(sorted(HISTORY_LAWS)), REQUESTS)
    @example("symmetric-to-6", [("tensor", 8, 8), ("sym", 3, 3), ("wedge", 4, 4),
                                ("sym", 5, 5), ("wedge", 2, 2), ("sym", 4, 4)])
    @example("degree-9", [("tensor", 2, 9), ("tensor", 6, 5), ("tensor", 6, 6), ("tensor", 3, 8),
                          ("tensor", 1, 10), ("tensor", 1, 11), ("tensor", 10, 1), ("sym", 5, 5)])
    @example("skew", [("tensor", 3, 9), ("tensor", 9, 3), ("tensor", 3, 5), ("tensor", 5, 3),
                      ("tensor", 4, 4), ("tensor", 12, 12), ("tensor", 2, 2), ("sym", 3, 3)])
    @example("between-bounds", [("tensor", 2, 2), ("tensor", 1, 4), ("tensor", 3, 2),
                                ("sym", 2, 2), ("sym", 3, 3), ("tensor", 4, 1), ("tensor", 1, 1)])
    @example("rational", [("tensor", 2, 7), ("tensor", 7, 2), ("tensor", 3, 6), ("tensor", 6, 3),
                          ("tensor", 1, 2)])
    @example("exact", [("tensor", 65, 64), ("tensor", 12, 3), ("sym", 12, 12), ("wedge", 65, 65),
                       ("sym", 5, 5), ("tensor", 2, 3)])
    @settings(max_examples=60, deadline=None)
    def test_answers_do_not_depend_on_the_memo(self, name, requests):
        # each request against a cleared memo and the oracles, then the
        # whole sequence on one memo, request by request: the same class or
        # the same refusal
        law = HISTORY_LAWS[name]
        cold = []
        for request in requests:
            repring.clear_memo()
            cold.append(ask(law, request))
            check_against_oracle(name, law, request, cold[-1])
        repring.clear_memo()
        for request, want in zip(requests, cold):
            assert ask(law, request) == want, (name, request)

    @staticmethod
    def column_peak(N, shape, field):
        """The tracemalloc peak of building the column of J_N's cells or
        squares from the table of the characteristic, which is built before
        the trace."""
        repring.clear_memo()
        powers = repring._law_powers(field, N, N)
        tracemalloc.start()
        try:
            masks = repring._column_masks(powers, N, N, shape, field.p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return masks, peak

    def test_cell_column_streams_its_levels(self):
        # J_32 (x) J_32 at p = 5 has 63 levels of 32 rows of 1024 16-bit
        # fields, 3.9 MiB as packed ints: the levels go to the echelon one
        # at a time, which peaks at 2.1 MiB, where listing them all first
        # peaks at 4.9 MiB
        law = multiplicative(F5)
        masks, peak = self.column_peak(32, "tensor", F5)
        assert peak < 63 * 32 * 1024 * 16 // 8
        want = RingElement.from_partition(gathered_tensor_partition(F5, (32,), (32,), law.coeffs))
        assert RingElement.from_partition(
            linalg._partition_from_ranks([m.bit_count() for m in masks[1:]], 1024)) == want

    @pytest.mark.parametrize("shape", ["sym", "wedge"])
    def test_square_column_holds_no_level_stack(self, shape):
        # a stack of the square of J_32 at p = 2 is 63 levels x 32
        # generators x 32 x 32 entries (2 MiB as uint8); built, taken at its
        # columns twice and summed, it peaks at 2.5 stacks.  The gathers
        # from the powers hold the folded rows and one gather of their size,
        # each about half a stack, and their indices: 1.15 stacks
        gens = len(range(shape == "wedge", 32))
        _, peak = self.column_peak(32, shape, F2)
        assert peak < 1.5 * 63 * gens * 32 * 32


def table_builds(monkeypatch) -> list:
    """The box of every table of powers built from here on."""
    built = []
    build = repring._power_table

    def spy(field, box):
        built.append(box)
        return build(field, box)

    monkeypatch.setattr(repring, "_power_table", spy)
    return built


#: the ring's cells n <= m, n m <= 48, row by row: the box (6, 12)
GRID = [(n, m) for n in range(1, 13) for m in range(n, 13) if n * m <= 48]

#: the laws of the interleaved-history test: those of the memo-history
#: test, with a second law at F_5, at F_3 and at the prime between the
#: float bounds, so that a law meets columns that other laws asked for
INTERLEAVED_LAWS = {
    **HISTORY_LAWS,
    "fgl": random_fgl(34, 24, F5),
    "additive-3": additive(F3),
    "multiplicative-between-bounds": multiplicative(GF(PRIME_BETWEEN_BOUNDS)),
}


#: a law of each refusal, asked after the additive law at p = 5 memoized
#: J_5 (x) J_5, Sym^2 J_5 and Sym^3 J_3: its field, a degree below 5 + 5 - 2,
#: a series asymmetric on (5, 5), and a 3-fold series that is not symmetric
#: on (3, 3, 3); each with the calls it must refuse and one it answers
WARM_REFUSALS = {
    "field": (multiplicative(GF(7)), InvalidLaw, "disagree",
              ("cell", "square", "cube"), None),
    "degree": (random_fgl(1, 7, F5), TruncationTooShort, "degree 8",
               ("cell", "square"), "cube"),
    "square": (skewed_above(F5, 6, 24, random.Random("skewed-above")), InvalidInput, "commute",
               ("square",), "cell"),
    "series": (symmetric_generalized_law(random.Random(0), F5, 9), InvalidInput, "commute",
               ("cube",), "square"),
}

#: the warm classes of ``WARM_REFUSALS`` under a law, asked at F_5
WARM_CALLS = {
    "cell": lambda law: structure_constants(5, 5, law, F5),
    "square": lambda law: sym_partition((5,), 2, law, F5),
    "cube": lambda law: sym_partition((3,), 3, law, F5),
}


class TestSharedMemo:
    """One memo per characteristic: the cells, and the block powers with i!
    invertible, are computed once under the additive law and read by every
    law at that characteristic, after that law's own refusals."""

    def test_later_laws_build_no_table(self, monkeypatch):
        # the ring's grid under five laws at one prime, law by law: the first
        # grows the table of the characteristic eight times; each later one
        # reads every cell from the memo, with no table and no column, and
        # its own gathered cells agree
        rng = random.Random("working-set")
        laws = [additive(F5), multiplicative(F5), scaled_multiplicative(F5, 3),
                random_generalized_law(rng.randrange(10**6), 14, F5, unit_linear=True),
                random_fgl(rng.randrange(10**6), 14, F5)]
        tables, columns = table_builds(monkeypatch), column_builds(monkeypatch)
        repring.clear_memo()
        first = {}
        for n, m in GRID:
            first[n, m] = structure_constants(n, m, laws[0], F5)
        assert len(tables) == 8 and tables[-1] == (16, 8)
        for law in laws[1:]:
            tables.clear()
            columns.clear()
            for n, m in GRID:
                assert structure_constants(n, m, law, F5) is first[n, m], (law, n, m)
            assert not tables and not columns, law
            for n, m in GRID:
                own = gathered_tensor_partition(F5, (n,), (m,), law.coeffs)
                assert RingElement.from_partition(own) == first[n, m], (law, n, m)

    def test_one_memo_per_characteristic(self, monkeypatch):
        # the grid at p = 2 answers no cell at p = 3: the first p = 3 law
        # builds the table of p = 3 at its own box, long side first, and a
        # second p = 3 law reads the cell
        tables = table_builds(monkeypatch)
        repring.clear_memo()
        for n, m in GRID:
            structure_constants(n, m, multiplicative(F2), F2)
        tables.clear()
        assert structure_constants(2, 3, multiplicative(F3), F3) == RingElement({3: 2})
        assert structure_constants(2, 3, additive(F3), F3) == RingElement({3: 2})
        assert tables == [(3, 2)]
        assert {key[3] for key in repring._constants_memo if key[0] == "cell"} == {2, 3}

    def test_clear_memo_drops_the_shared_classes(self, monkeypatch):
        tables = table_builds(monkeypatch)
        repring.clear_memo()
        structure_constants(4, 6, multiplicative(F3), F3)
        _block_power(7, 2, "sym", multiplicative(F5))
        assert {("cell", 4, 6, 3), ("sym", 7, 2, 5)} <= set(repring._constants_memo)
        repring.clear_memo()
        assert not repring._constants_memo
        tables.clear()
        structure_constants(2, 2, multiplicative(F3), F3)
        assert tables == [(2, 2)]

    def test_block_powers_below_p_are_shared(self):
        # Sym^i J_a at i < p is keyed by the characteristic, at i >= p by the
        # law, save the additive law's, which is the characteristic's: at
        # p = 3 the square is shared and the cube is each law's own
        laws = (additive(F3), multiplicative(F3))
        repring.clear_memo()
        squares = [_block_power(4, 2, "sym", law) for law in laws]
        cubes = [_block_power(4, 3, "sym", law) for law in laws]
        assert squares[0] is squares[1]
        assert cubes[0] != cubes[1]
        keys = {key for key, value in repring._constants_memo.items()
                if isinstance(value, RingElement)}
        assert keys == {("sym", 4, 2, 3), ("sym", 4, 3, 3), ("sym", 4, 3, laws[1].fingerprint())}

    @pytest.mark.parametrize("refusal", WARM_REFUSALS)
    def test_warm_memo_keeps_the_refusal(self, refusal):
        # the law's refusals come before the memo read, so a class that the
        # additive law memoized answers no law that refuses it
        law, error, match, refused, answered = WARM_REFUSALS[refusal]
        base = additive(F5)
        repring.clear_memo()
        warm = {name: call(base) for name, call in WARM_CALLS.items()}
        keys = {key for key in repring._constants_memo if key[0] != "series"}
        assert {("cell", 5, 5, 5), ("sym", 5, 2, 5), ("sym", 3, 3, 5)} <= keys
        for name in refused:
            with pytest.raises(error, match=match):
                WARM_CALLS[name](law)
        if answered:
            assert WARM_CALLS[answered](law) == warm[answered]
        assert {key for key in repring._constants_memo if key[0] != "series"} == keys
        assert warm == {name: call(base) for name, call in WARM_CALLS.items()}

    @given(st.lists(st.tuples(st.sampled_from(sorted(INTERLEAVED_LAWS)), REQUEST),
                    min_size=1, max_size=14))
    @example([("additive-3", ("tensor", 12, 12)), ("degree-9", ("tensor", 2, 2)),
              ("degree-9", ("tensor", 6, 6)), ("degree-9", ("sym", 5, 5)),
              ("degree-9", ("tensor", 2, 9)), ("degree-9", ("tensor", 6, 5))])
    @example([("between-bounds", ("tensor", 3, 1)),
              ("multiplicative-between-bounds", ("tensor", 2, 2)),
              ("multiplicative-between-bounds", ("sym", 2, 2)),
              ("between-bounds", ("tensor", 1, 4)), ("between-bounds", ("tensor", 3, 2))])
    @example([("fgl", ("tensor", 12, 12)), ("symmetric-to-6", ("sym", 3, 3)),
              ("symmetric-to-6", ("wedge", 4, 4)), ("symmetric-to-6", ("sym", 5, 5)),
              ("skew", ("tensor", 3, 9)), ("skew", ("tensor", 9, 3)), ("exact", ("tensor", 9, 3)),
              ("skew", ("tensor", 12, 12)), ("degree-9", ("tensor", 3, 8))])
    @example([("exact", ("tensor", 12, 4)), ("rational", ("tensor", 2, 7)),
              ("skew", ("tensor", 5, 3)), ("rational", ("tensor", 7, 2)),
              ("fgl", ("wedge", 2, 2)), ("exact", ("sym", 12, 12)), ("fgl", ("tensor", 4, 4))])
    @settings(max_examples=40, deadline=None)
    def test_answers_do_not_depend_on_other_laws(self, requests):
        # requests under several laws at several characteristics on one memo,
        # request by request, against each request on a cleared memo
        cold = []
        for name, request in requests:
            repring.clear_memo()
            cold.append(ask(INTERLEAVED_LAWS[name], request))
            check_against_oracle(name, INTERLEAVED_LAWS[name], request, cold[-1])
        repring.clear_memo()
        for (name, request), want in zip(requests, cold):
            assert ask(INTERLEAVED_LAWS[name], request) == want, (name, request)


class TestBlockSum:
    """wedge^2 and Sym^2 of a partition folded over its blocks
    (``repring._fold``), against the gathered operator on V (x) V
    straightened onto the quotient (``oracles.operator_square_partition``)."""

    @staticmethod
    def check(lam, law):
        for shape, square in (("sym", sym_partition), ("wedge", wedge_partition)):
            want = operator_square_partition(lam, shape, law, law.field)
            assert square(lam, 2, law, law.field) == want, (law.field, law, lam, shape)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_seeded_squares(self, field):
        rng = random.Random(f"block-sum:{field.p}")
        for kind in QUOTIENT_LAWS + ("non-associative",):
            if kind == "non-associative":
                law = symmetric_generalized_law(rng, field, 8)
            else:
                law = symmetric_law(kind, field, 8, rng)
            # repeated and distinct parts, then seeded ones of 1-4 blocks <= 5
            lams = [(3, 3, 1), (4, 2, 1), (2, 2, 2, 2)]
            lams += [sorted((rng.randint(1, 5) for _ in range(rng.randint(1, 4))), reverse=True)
                     for _ in range(8)]
            repring.clear_memo()
            for lam in lams:
                self.check(Partition(lam), law)

    def test_no_operator_is_built(self, monkeypatch):
        laws = [additive(F2), multiplicative(F5), scaled_multiplicative(F7, F7(3)),
                symmetric_generalized_law(random.Random(5), F3, 8), random_fgl(5, 8, QQ)]
        lams = [Partition(lam) for lam in [(5, 5, 2), (4, 3, 1, 1), (2, 2, 2)]]
        want = {(law, lam, shape): operator_square_partition(lam, shape, law, law.field)
                for law in laws for lam in lams for shape in ("sym", "wedge")}

        def refuse(*args, **kwargs):
            pytest.fail("the square built an operator")

        for name in ("power_operator", "induced_quotient_operator", "jordan_partition",
                     "tensor_operator"):
            monkeypatch.setattr(repring, name, refuse)
        monkeypatch.setattr(linalg, "jordan_partition", refuse)
        repring.clear_memo()
        for (law, lam, shape), partition in want.items():
            square = sym_partition if shape == "sym" else wedge_partition
            assert square(lam, 2, law, law.field) == partition, (law, lam, shape)

    def test_distinct_parts_request_no_diagonal_cell(self, monkeypatch):
        # J_a (x) J_a has weight C(1, 2) = 0 in the square of a lone J_a
        calls = []
        real = repring.structure_constants

        def spy(n, m, law, field):
            calls.append((n, m))
            return real(n, m, law, field)

        monkeypatch.setattr(repring, "structure_constants", spy)
        law = multiplicative(F5)
        repring.clear_memo()
        for square in (sym_partition, wedge_partition):
            square((5, 3, 2, 1), 2, law, F5)
        assert sorted(set(calls)) == [(2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (5, 3)]
        calls.clear()
        sym_partition((3, 3, 1), 2, law, F5)
        assert sorted(set(calls)) == [(3, 1), (3, 3)]

    def test_cold_memo_builds_the_table_once(self, monkeypatch):
        # the largest block goes first, so its box holds every later cell
        built = []
        build = repring._power_table

        def spy(field, box):
            built.append(box)
            return build(field, box)

        monkeypatch.setattr(repring, "_power_table", spy)
        law = random_fgl(7, 8, F5)
        for square in (sym_partition, wedge_partition):
            repring.clear_memo()
            built.clear()
            square((5, 3, 2, 1, 1), 2, law, F5)
            assert built == [(5, 5)]
        repring.clear_memo()

    @pytest.mark.parametrize("kind", QUOTIENT_LAWS)
    def test_many_blocks_past_the_operator_bound(self, kind):
        # Sym^2 of 10 J_8 has dimension 3240, and its class is
        # 10 Sym^2 J_8 + 45 J_8 (x) J_8, though the 6400 x 6400 operator on
        # V (x) V is past the bound
        law = symmetric_law(kind, F5, 14, random.Random(f"ten-blocks:{kind}"))
        repring.clear_memo()
        got = RingElement.from_partition(sym_partition((8,) * 10, 2, law, F5))
        square = RingElement.from_partition(operator_square_partition((8,), "sym", law, F5))
        cell = RingElement.from_partition(gathered_tensor_partition(F5, (8,), (8,), law.coeffs))
        assert got == 10 * square + 45 * cell and got.dim() == 3240
        # Sym^3 of J_9 + J_8 is Sym^3 J_9 + Sym^3 J_8 + Sym^2 J_9 (x) J_8 +
        # Sym^2 J_8 (x) J_9, though its operator of dimension 17^3 is past the
        # bound; a block past J_16 is refused
        law = symmetric_law(kind, F5, 24, random.Random(f"cube-of-two-blocks:{kind}"))

        def cube(a):
            return RingElement.from_partition(operator_power_partition((a,), 3, "sym", law, F5))

        def square_times(a, b):
            square = RingElement.from_partition(operator_square_partition((a,), "sym", law, F5))
            out = RingElement()
            for c, mult in square.terms.items():
                out = out + mult * RingElement.from_partition(
                    gathered_tensor_partition(F5, (c,), (b,), law.coeffs))
            return out

        repring.clear_memo()
        got = RingElement.from_partition(sym_partition((9, 8), 3, law, F5))
        assert got == cube(9) + cube(8) + square_times(9, 8) + square_times(8, 9)
        assert got.dim() == 969
        with pytest.raises(InvalidInput, match="4913"):
            sym_partition((17,), 3, law, F5)


def check_power(lam, m, law):
    """wedge^m and Sym^m of ``lam`` against the gathered power operator
    straightened onto the quotient; where that refuses a law whose m-fold
    series is not symmetric, the library must refuse it too."""
    for kind, power in (("sym", sym_partition), ("wedge", wedge_partition)):
        try:
            want = operator_power_partition(lam, m, kind, law, law.field)
        except InvalidInput:
            with pytest.raises(InvalidInput, match="commute"):
                power(lam, m, law, law.field)
            continue
        assert power(lam, m, law, law.field) == want, (law.field, law, lam, m, kind)


class TestCubeSum:
    """wedge^3 and Sym^3 of a partition folded over its blocks
    (``repring._fold`` with the cubes of single blocks), against the
    gathered operator on V (x) V (x) V straightened onto the quotient
    (``oracles.operator_power_partition``); a law whose 3-fold series is not
    symmetric is refused by both."""

    @pytest.mark.parametrize("field", SQUARE_FIELDS, ids=str)
    def test_seeded_cubes(self, field):
        rng = random.Random(f"cube-sum:{field.p}")
        for kind in QUOTIENT_LAWS + ("non-associative",):
            if kind == "non-associative":
                law = symmetric_generalized_law(rng, field, 9)
            else:
                law = symmetric_law(kind, field, 9, rng)
            # one size three times, a size twice, distinct sizes, then seeded
            # ones of 1-4 blocks <= 4 and dimension <= 7
            lams = [(4, 2, 1), (2, 2, 2), (3, 3, 1), (1, 1, 1), (2, 1, 1, 1)]
            while len(lams) < 9:
                lam = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 4))), reverse=True)
                if sum(lam) <= 7:
                    lams.append(lam)
            repring.clear_memo()
            for lam in lams:
                check_power(Partition(lam), 3, law)

    @given(st.sampled_from(SQUARE_FIELDS), small_partitions,
           st.sampled_from(QUOTIENT_LAWS + ("non-associative",)), st.integers(0, 10**6),
           st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_cubes(self, field, lam, kind, seed, extra):
        if lam.dim > 8:
            lam = Partition(lam[:2])
        rng = random.Random(seed)
        degree = max(2, 3 * (lam[0] - 1) + extra)
        if kind == "non-associative":
            law = symmetric_generalized_law(rng, field, degree)
        else:
            law = symmetric_law(kind, field, degree, rng)
        repring.clear_memo()
        check_power(lam, 3, law)

    def test_no_operator_on_the_partition(self, monkeypatch):
        # neither the cubes of the blocks nor the powers past m = 3 gather an
        # operator: every class comes from the series' basis-word columns (a
        # gather with ``columns``), and m = 1 is the partition itself, with
        # no series
        laws = [additive(F2), multiplicative(F5), scaled_multiplicative(F7, F7(3)),
                random_fgl(5, 9, QQ), random_fgl(6, 9, GF(13))]
        # the first largest block is the largest of all at each m
        lams = {1: [(4, 2), (3, 1)], 3: [(4, 2, 1), (3, 3, 1), (4, 1, 1, 1)],
                4: [(3, 1), (2, 2, 1)], 5: [(2, 1), (1, 1, 1)]}
        want = {(law, m, lam, kind): operator_power_partition(lam, m, kind, law, law.field)
                for law in laws for m, group in lams.items() for lam in group
                for kind in ("sym", "wedge")}
        built = []
        series = repring.iterated_tensor_series

        def series_spy(law, m, trunc):
            built.append((law, m, trunc))
            return series(law, m, trunc)

        def refuse(*args, **kwargs):
            pytest.fail("the power built an operator on the partition")

        gather = repring.canonical_series_operator

        def columns_only(field, lams, num, den=1, columns=None):
            if columns is None:
                refuse()
            return gather(field, lams, num, den, columns)

        monkeypatch.setattr(repring, "iterated_tensor_series", series_spy)
        monkeypatch.setattr(repring, "canonical_series_operator", columns_only)
        for name in ("power_operator", "induced_quotient_operator", "tensor_operator"):
            monkeypatch.setattr(repring, name, refuse)
        for law in laws:
            repring.clear_memo()
            built.clear()
            for m, group in lams.items():
                for lam in group:
                    for kind, power in (("sym", sym_partition), ("wedge", wedge_partition)):
                        got = power(Partition(lam), m, law, law.field)
                        assert got == want[law, m, lam, kind], (law, m, lam, kind)
            # the law's own series, for its refusals and at m >= p, and the
            # additive law's, once, for the law-free powers at m < p
            boxes = [(3, (4, 4, 4)), (4, (3, 3, 3, 3)), (5, (2, 2, 2, 2, 2))]
            assert [b[1:] for b in built if b[0] is law] == boxes, law
            p = law.field.p
            assert [b[1:] for b in built if b[0] is not law] == [
                (m, box) for m, box in boxes if not 0 < p <= m], law
            assert all(b[0] is additive(law.field) for b in built if b[0] is not law)

    @pytest.mark.parametrize("seed", range(4))
    def test_non_symmetric_series_is_refused(self, seed):
        # a symmetric law whose 3-fold series is not symmetric, and a law that
        # is not symmetric; wedge^3 J_3 has dimension 1 and builds no operator
        laws = [symmetric_generalized_law(random.Random(seed), F5, 9),
                random_generalized_law(seed, 9, F5)]
        for law in laws:
            for kind, power in (("sym", sym_partition), ("wedge", wedge_partition)):
                for lam in ((3, 3, 2), (4, 1)):
                    with pytest.raises(InvalidInput, match="commute"):
                        operator_power_partition(lam, 3, kind, law, F5)
                    repring.clear_memo()
                    with pytest.raises(InvalidInput, match="commute"):
                        power(lam, 3, law, F5)
                    assert not repring._constants_memo

    def test_series_growth_stays_within_the_law_degree(self):
        # a degree-6 law reaches the 3-fold series of J_3 (3 * 2 = 6), cold
        # and past a memoized series of J_2, but not that of J_4
        law = random_fgl(11, 6, F5)
        for first in ((), (2, 1)):
            repring.clear_memo()
            if first:
                sym_partition(first, 3, law, F5)
            check_power(Partition((3,)), 3, law)
            check_power(Partition((3, 2)), 3, law)
        with pytest.raises(TruncationTooShort):
            sym_partition((4,), 3, law, F5)

    def test_clear_memo_drops_the_series_and_the_cubes(self):
        law = multiplicative(F5)
        repring.clear_memo()
        sym_partition((3, 2), 3, law, F5)
        sym_partition((2, 1), 4, law, F5)
        assert {key[:2] for key in repring._constants_memo
                if key[0] == "series"} == {("series", 3), ("series", 4)}
        assert ("sym", 3, 3, 5) in repring._constants_memo
        repring.clear_memo()
        assert not repring._constants_memo


class TestQuotientClass:
    """wedge^m and Sym^m from the basis-word columns of the law's m-fold
    series (``repring._quotient_class``): of single blocks, folded into a
    partition at m = 1, 4 and 5, and up to J_10 at m = 3, against the gathered
    power operator straightened onto the quotient
    (``oracles.operator_power_partition``); a law whose m-fold series is
    not symmetric is refused by both."""

    @staticmethod
    def law(kind, field, degree, rng):
        if kind == "non-associative":
            return symmetric_generalized_law(rng, field, degree)
        return symmetric_law(kind, field, degree, rng)

    @pytest.mark.parametrize("field", SQUARE_FIELDS, ids=str)
    def test_seeded_powers(self, field):
        rng = random.Random(f"quotient-class:{field.p}")
        for kind in QUOTIENT_LAWS + ("non-associative",):
            law = self.law(kind, field, 10, rng)
            # the empty partition, d < m, one block, a repeated and distinct
            # parts, then a seeded partition of dimension 2-5 (m = 4) or 2-3
            # (m = 5); the largest block comes first at each m
            lams = {1: [(), (6, 2, 2), (5, 1), (1,)],
                    4: [(3, 2), (), (2, 1), (3,), (2, 2, 1), (1, 1, 1, 1)],
                    5: [(3, 1), (), (1, 1, 1), (2,)]}
            for m, dim in ((4, 5), (5, 3)):
                lams[m].append(seeded_partition(rng, rng.randint(2, dim), top=3))
            repring.clear_memo()
            for m, group in lams.items():
                for lam in group:
                    check_power(Partition(lam), m, law)

    @pytest.mark.parametrize("field", SQUARE_FIELDS, ids=str)
    def test_single_block_cubes(self, field):
        # up to J_10, or J_7 over Q, where the oracle's operator is of
        # Python integers
        rng = random.Random(f"single-block-cubes:{field.p}")
        top = 10 if field.p else 7
        for kind in QUOTIENT_LAWS + ("non-associative",):
            law = self.law(kind, field, 3 * top - 3, rng)
            repring.clear_memo()
            for n in range(top, 0, -1):
                check_power(Partition((n,)), 3, law)

    def test_wedge_signs_at_blocks_past_p(self):
        # a law whose terms are linear in each letter moves no word that is
        # unsorted without a repeated letter, and small blocks keep their
        # generic type: the wedge's signs show under a law with higher terms
        # and a block past p, as in wedge^3 J_7 = (7^5) at p = 7; the ring
        # reads the additive law's cubes at m < p, so the law's own
        # (``_quotient_class``) is checked by name
        law = random_fgl(0, 27, F7)
        repring.clear_memo()
        for n in range(10, 6, -1):
            for kind in ("sym", "wedge"):
                want = operator_power_partition((n,), 3, kind, law, F7)
                assert repring._quotient_class(Partition((n,)), 3, law, kind) == want, (n, kind)
            check_power(Partition((n,)), 3, law)
        assert wedge_partition((7,), 3, law, F7) == (7,) * 5

    @given(st.sampled_from(SQUARE_FIELDS), small_partitions, st.sampled_from([1, 4, 5]),
           st.sampled_from(QUOTIENT_LAWS + ("non-associative",)), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_powers(self, field, lam, m, kind, seed):
        while lam.dim ** m > 256:
            lam = Partition(lam[1:])
        law = self.law(kind, field, max(2, m * (max(lam, default=1) - 1)), random.Random(seed))
        repring.clear_memo()
        check_power(lam, m, law)

    def test_refusals_at_m4_in_order(self, monkeypatch):
        # another field, then a block J_a with a^4 past 4096, then a law too
        # short for the 4-fold series of J_3 (degree 8), then a law that is
        # not symmetric; nothing is memoized for a refusal
        skew = random_generalized_law(3, 8, F5)
        short = random_generalized_law(3, 7, F5)
        for power in (wedge_partition, sym_partition):
            repring.clear_memo()
            with pytest.raises(InvalidLaw, match="disagree"):
                power((9,), 4, scaled_multiplicative(F7, 6), F5)
            with monkeypatch.context() as patch:
                patch.setattr(repring, "iterated_tensor_series",
                              lambda *args: pytest.fail("a series was built"))
                for law in (multiplicative(F5), short, skew):
                    with pytest.raises(InvalidInput, match="6561"):
                        power((9,), 4, law, F5)
            with pytest.raises(TruncationTooShort):
                power((3,), 4, short, F5)
            with pytest.raises(InvalidInput, match="commute"):
                power((3,), 4, skew, F5)
            with pytest.raises(InvalidInput, match="commute"):
                operator_power_partition((3,), 4, "sym", skew, F5)
            assert not repring._constants_memo

    def test_series_is_rebuilt_past_its_box(self):
        # a memoized 4-fold series of J_2 is read past its box only after a
        # rebuild at J_3
        law = random_fgl(4, 8, F7)
        repring.clear_memo()
        check_power(Partition((2, 1)), 4, law)
        assert repring._constants_memo["series", 4, law.fingerprint()].trunc == (2,) * 4
        check_power(Partition((3, 1)), 4, law)
        assert repring._constants_memo["series", 4, law.fingerprint()].trunc == (3,) * 4
        check_power(Partition((2, 2)), 4, law)

    def test_no_whole_operator_is_gathered(self):
        # the whole operator on J_8^(x)4 and its gather index are 4096 x 4096
        # int64 arrays of 128 MiB each; wedge^4 J_8 gathers 4096 x 70 columns
        law = multiplicative(F5)
        repring.clear_memo()
        tracemalloc.start()
        try:
            got = wedge_partition((8,), 4, law, F5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.dim == 70 and peak < 16 * 2**20

    def test_cube_fold_holds_two_gathered_arrays(self):
        # Sym^3 J_16 gathers 4096 x 816 entries, 26.7 MB as int64: the index
        # is dropped once read and the signs go on in place, where holding
        # the index, the gathered entries and their signed copy peaks at 82 MiB
        law = multiplicative(F5)
        repring.clear_memo()
        tracemalloc.start()
        try:
            got = sym_partition((16,), 3, law, F5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (25,) * 28 + (20, 20, 15, 15, 15, 15, 10, 6)
        assert peak < 64 * 2**20


class TestFold:
    """wedge^m and Sym^m of a partition folded over its blocks
    (``repring._fold``) against ``_quotient_class`` of the whole partition,
    called directly, which has no d^m bound; past m = 3 the fold rests on
    the law's series splitting on the largest block's box (``_splits``)."""

    @pytest.mark.parametrize("kind, lam, m, want", [
        ("wedge", (5, 4), 4, (5,) * 25 + (1,)), ("sym", (5, 4), 4, (5,) * 99),
        ("sym", (4, 3), 5, (5,) * 92 + (1, 1))])
    def test_partitions_past_the_whole_bound(self, kind, lam, m, want):
        # d^m is 6561 or 16807, past 4096, so only the fold answers
        law = multiplicative(F5)
        power = sym_partition if kind == "sym" else wedge_partition
        repring.clear_memo()
        got = power(lam, m, law, F5)
        assert got == want
        assert got == repring._quotient_class(Partition(lam), m, law, kind)

    def test_three_blocks_of_eight(self):
        # wedge^4 of 3 J_8 (d^4 = 331776, a whole gather of 28 GB) is the sum
        # over i + j + k = 4 of the products of the blocks' own powers
        law = multiplicative(F5)
        repring.clear_memo()
        got = RingElement.from_partition(wedge_partition((8, 8, 8), 4, law, F5))
        own = [RingElement({1: 1}), RingElement({8: 1})] + [
            RingElement.from_partition(repring._quotient_class(Partition((8,)), i, law, "wedge"))
            for i in range(2, 5)]
        want = RingElement()
        for i, j in itertools.product(range(5), repeat=2):
            if i + j <= 4:
                want = want + ring_multiply(ring_multiply(own[i], own[j], law, F5),
                                            own[4 - i - j], law, F5)
        assert got == want and got.dim() == 10626
        # and three blocks where the whole gather is small
        for kind, lam in (("wedge", (3, 3, 3)), ("sym", (3, 3, 2))):
            power = sym_partition if kind == "sym" else wedge_partition
            assert power(lam, 4, law, F5) == repring._quotient_class(Partition(lam), 4, law, kind)

    @given(st.sampled_from(SQUARE_FIELDS), small_partitions, st.integers(2, 5),
           st.sampled_from(QUOTIENT_LAWS + ("non-associative",)), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_fold(self, field, lam, m, kind, seed):
        while lam.dim ** m > 1024:
            lam = Partition(lam[1:])
        rng = random.Random(seed)
        degree = max(2, m * (max(lam, default=1) - 1))
        if kind == "non-associative":
            law = symmetric_generalized_law(rng, field, degree)
        else:
            law = symmetric_law(kind, field, degree, rng)
        for quotient, power in (("sym", sym_partition), ("wedge", wedge_partition)):
            repring.clear_memo()
            try:
                want = repring._quotient_class(lam, m, law, quotient)
            except InvalidInput:
                repring.clear_memo()
                with pytest.raises(InvalidInput, match="commute"):
                    power(lam, m, law, field)
                continue
            repring.clear_memo()
            assert power(lam, m, law, field) == want, (field, law, lam, m, quotient)

    def test_split_guard(self, monkeypatch):
        # u + v + uv + 2 u^5 v^5 is symmetric, and so is its 4-fold series on
        # (4)^4 and (5)^4, but that series is not F(G_2, G_2) there: (4, 1)
        # goes through the whole partition, and (5, 4), of d^4 = 6561, is
        # refused; the multiplicative law splits
        law = GeneralizedLaw(F7, 16, {(1, 0): 1, (0, 1): 1, (1, 1): 1, (5, 5): 2})
        for n in (4, 5):
            assert iterated_tensor_series(law, 4, (n,) * 4).is_symmetric()
        whole = []
        quotient_class = repring._quotient_class

        def spy(lam, m, law, kind):
            whole.append(tuple(lam))
            return quotient_class(lam, m, law, kind)

        monkeypatch.setattr(repring, "_quotient_class", spy)
        for kind, power in (("sym", sym_partition), ("wedge", wedge_partition)):
            repring.clear_memo()
            whole.clear()
            assert power((4, 1), 4, law, F7) == operator_power_partition((4, 1), 4, kind, law, F7)
            assert whole[-1] == (4, 1)
            assert repring._constants_memo["split", 4, 4, law.fingerprint()] is False
            with pytest.raises(InvalidInput, match="6561"):
                power((5, 4), 4, law, F7)
            assert repring._constants_memo["split", 4, 5, law.fingerprint()] is False
            repring.clear_memo()
            power((5, 4), 4, multiplicative(F7), F7)
            assert repring._constants_memo["split", 4, 5, multiplicative(F7).fingerprint()]

    def test_refusals_come_before_any_table_or_series(self, monkeypatch):
        # Sym^3 J_17 and its sum with J_1 are refused on 17^3 = 4913 first
        monkeypatch.setattr(repring, "_power_table",
                            lambda *args: pytest.fail("a table was built"))
        monkeypatch.setattr(repring, "iterated_tensor_series",
                            lambda *args: pytest.fail("a series was built"))
        repring.clear_memo()
        for power in (sym_partition, wedge_partition):
            for lam in ((17,), (17, 1), (17, 17, 2)):
                with pytest.raises(InvalidInput, match="4913"):
                    power(lam, 3, multiplicative(F5), F5)
        assert not repring._constants_memo


class TestSigmaMatrices:
    def test_swap_on_two_dims(self):
        (swap,) = sigma_matrices(2, 2, F3)
        assert swap.a.tolist() == [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ]

    def test_involutions(self):
        for s in sigma_matrices(3, 2, F5):
            assert (s @ s) == Matrix.identity(F5, 8)

    def test_negative_dimension(self):
        with pytest.raises(InvalidInput, match="dimension must be an integer >= 0"):
            sigma_matrices(2, -1, F5)

    def test_past_the_size_bound_refused_before_allocation(self, monkeypatch):
        # 17**3 = 4913 > 4096; checked by arithmetic, nothing is allocated
        monkeypatch.setattr(Matrix, "zeros",
                            classmethod(lambda *args: pytest.fail("a matrix was allocated")))
        with pytest.raises(InvalidInput, match="4913"):
            sigma_matrices(3, 17, F5)


WEDGE_SYM_CELLS = [
    # (lam, m, law name, p, wedge expected, sym expected)
    ((4,), 2, "a", 2, (3, 3), (4, 4, 1, 1)),
    ((6,), 2, "m", 2, (8, 6, 1), (8, 8, 4, 1)),
    ((7,), 2, "a", 2, (7, 7, 7), (8, 8, 8, 1, 1, 1, 1)),
    ((7,), 2, "a", 5, (11, 7, 3), (13, 9, 5, 1)),
]


class TestWedgeSym:
    @pytest.mark.parametrize("lam,m,which,p,wedge_expected,sym_expected", WEDGE_SYM_CELLS)
    def test_cells(self, lam, m, which, p, wedge_expected, sym_expected):
        field = GF(p)
        law = additive(field) if which == "a" else multiplicative(field)
        assert wedge_partition(lam, m, law, field) == wedge_expected
        assert sym_partition(lam, m, law, field) == sym_expected

    def test_dimensions(self):
        lam = (3, 2)
        w = wedge_partition(lam, 2, additive(F7), F7)
        s = sym_partition(lam, 2, additive(F7), F7)
        assert w.dim == 10 and s.dim == 15

    @pytest.mark.parametrize("m", [True, False, 2.0, 2.5, "2", None, 0, -1])
    def test_m_that_is_not_an_integer_at_least_one(self, m):
        for power in (wedge_partition, sym_partition):
            with pytest.raises(InvalidInput, match="m must be an integer >= 1"):
                power((2, 1), m, additive(F5), F5)

    def test_numpy_integer_m(self):
        for power in (wedge_partition, sym_partition):
            for m in (2, 3, 4):
                assert power((2, 1), np.int64(m), additive(F5), F5) == power((2, 1), m,
                                                                           additive(F5), F5)

    def test_unknown_quotient_kind(self):
        with pytest.raises(InvalidInput):
            induced_quotient_operator(Matrix.zeros(F7, 9, 9), 3, 2, "alternating")

    def test_char0_tensor_square_split(self):
        # W (x) W = Sym^2 W + wedge^2 W away from characteristic 2
        lam = (3, 1)
        law = additive(F7)
        full = RingElement.from_partition(tensor_partition(lam, lam, law, F7))
        split = (RingElement.from_partition(wedge_partition(lam, 2, law, F7))
                 + RingElement.from_partition(sym_partition(lam, 2, law, F7)))
        assert full == split


class TestCgTensor:
    def test_unit(self):
        assert cg_tensor(1, 6) == RingElement({6: 1})

    def test_33_against_big_prime_oracle(self):
        field = GF(101)
        oracle = tensor_partition((3,), (3,), additive(field), field)
        assert cg_tensor(3, 3) == RingElement.from_partition(oracle)
        assert cg_tensor(3, 3) == RingElement({5: 1, 3: 1, 1: 1})

    def test_42(self):
        field = GF(11)
        oracle = tensor_partition((4,), (2,), additive(field), field)
        assert cg_tensor(4, 2) == RingElement.from_partition(oracle)
        assert cg_tensor(4, 2) == RingElement({5: 1, 3: 1})

    def test_law_independence_over_q(self):
        # in characteristic 0 every cell is the Clebsch-Gordan class,
        # whatever the law: each law's own gathered operator, n <= m, and
        # the memoized class in both orders
        laws = [random_generalized_law(26, 24, QQ),
                random_generalized_law(2026, 24, QQ, unit_linear=True)]
        repring.clear_memo()
        for law in laws:
            for n in range(1, 13):
                for m in range(1, 13):
                    want = cg_tensor(n, m)
                    if n <= m:
                        own = gathered_tensor_partition(QQ, (n,), (m,), law.coeffs)
                        assert RingElement.from_partition(own) == want, (law, n, m)
                    assert structure_constants(n, m, law, QQ) == want, (law, n, m)
                    cell = tensor_partition((n,), (m,), law, QQ)
                    assert RingElement.from_partition(cell) == want, (law, n, m)

    @pytest.mark.parametrize("f, args", [(cg_tensor, (2.5, 3)), (cg_tensor, ("3", 2)),
                                         (cg_tensor, (3, None)), (cg_tensor, (0, 2)),
                                         (cg_square, (2.5, "sym")), (cg_square, (-1, "wedge"))])
    def test_non_integer_block_sizes_are_refused(self, f, args):
        with pytest.raises(InvalidInput, match="block size"):
            f(*args)


class TestIntertwinerPair:
    def _verify(self, n, m, law):
        lam = build_intertwiner_pair(n, m, law)
        field = law.field
        y_plus_z = TruncatedPoly(field, (n, m), {(1, 0): field.one, (0, 1): field.one})
        f = law.as_poly((n, m))
        assert (lam @ mult_matrix(y_plus_z)) == (mult_matrix(f) @ lam)
        assert lam.rank() == n * m
        # the images are the terms of F that Y divides and the rest, as they are
        f1 = TruncatedPoly(field, (n, m), {e: c for e, c in f.coeffs.items() if e[0]})
        assert lam == monomial_endomorphism_matrix([f1, f - f1])
        return lam

    def test_additive_is_identity(self):
        lam = self._verify(3, 3, additive(F5))
        assert lam == Matrix.identity(F5, 9)

    def test_multiplicative_2x2_p3(self):
        self._verify(2, 2, multiplicative(F3))

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (3, 1)])
    def test_a_block_of_size_one(self, n, m):
        # Y = 0 in k[Y]/(Y): its linear term is gone from the truncated series
        self._verify(n, m, random_generalized_law(n + 7 * m, n + m, F5, unit_linear=False))

    def test_pieces_are_the_terms_each_variable_divides(self):
        # F = 2u + 3v + uv + v^2 over F_5: Y -> 2Y + YZ, Z -> 3Z + Z^2
        law = GeneralizedLaw(F5, 2, {(1, 0): 2, (0, 1): 3, (1, 1): 1, (0, 2): 1}, exact=True)
        trunc = (2, 3)
        y, z = TruncatedPoly.variable(F5, trunc, 0), TruncatedPoly.variable(F5, trunc, 1)
        want = endomorphism_matrix([y.scale(2) + y * z, z.scale(3) + z * z])
        assert self._verify(2, 3, law) == want

    def test_random_law_4x4_p5(self):
        law = random_generalized_law(12, 8, F5)
        self._verify(4, 4, law)

    def test_char0(self):
        law = random_generalized_law(3, 8, QQ)
        self._verify(3, 4, law)

    @pytest.mark.parametrize("field", [F2, F3, F5, QQ], ids=str)
    def test_seeded_laws(self, field):
        for seed, (n, m) in enumerate(itertools.product(range(1, 5), repeat=2)):
            self._verify(n, m, random_generalized_law(seed, n + m, field))


class TestSymmetricIntertwiner:
    def _verify(self, n, m, law):
        lam = build_symmetric_intertwiner(n, m, law)
        field = law.field
        trunc = (n,) * m
        s1 = elementary_symmetric(field, trunc, 1)
        series = iterated_tensor_series(law, m, trunc)
        assert (lam @ mult_matrix(s1)) == (mult_matrix(series) @ lam)
        assert lam.rank() == n**m
        for s in sigma_matrices(m, n, field):
            assert (lam @ s) == (s @ lam)
        assert lam == monomial_endomorphism_matrix(symmetric_split(series))
        return lam

    def test_additive_is_identity(self):
        lam = self._verify(3, 2, additive(F5))
        assert lam == Matrix.identity(F5, 9)

    def test_multiplicative_m2_char0(self):
        self._verify(3, 2, multiplicative(QQ))

    def test_multiplicative_m3_p5(self):
        self._verify(3, 3, multiplicative(F5))

    def test_scaled_m3_p7(self):
        self._verify(2, 3, scaled_multiplicative(F7, 4))

    @pytest.mark.parametrize("m", [2, 3])
    def test_blocks_of_size_one(self, m):
        assert self._verify(1, m, multiplicative(F5)) == Matrix.identity(F5, 1)

    @pytest.mark.parametrize("field", [F5, F7, QQ], ids=str)
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
    def test_seeded_laws(self, field, n, m):
        self._verify(n, m, random_fgl(10 * n + m, m * (n - 1), field))


@pytest.mark.parametrize("n", range(1, 13))
def test_cg_square_matches_brute_force(n):
    # at p > 2n every block of Sym^2 J_n and wedge^2 J_n is below p, as over Q
    p = next(q for q in (3, 5, 7, 11, 13, 17, 19, 23, 29) if q > 2 * n)
    law = additive(GF(p))
    for shape in ("sym", "wedge"):
        assert cg_square(n, shape) == RingElement.from_partition(
            operator_square_partition((n,), shape, law, GF(p)))
