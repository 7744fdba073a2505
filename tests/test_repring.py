import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
)
from jordanblocks.fields import GF, QQ
from jordanblocks.linalg import (
    Matrix,
    Partition,
    canonical_series_operator,
    jordan_block,
    jordan_partition,
    nilpotent_from_partition,
    random_invertible,
)
from jordanblocks.repring import (
    RingElement,
    build_intertwiner_pair,
    build_symmetric_intertwiner,
    cg_square,
    cg_tensor,
    induced_quotient_operator,
    power_operator,
    ring_multiply,
    sigma_matrices,
    square_constants,
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
    dense_quotient_operator,
    gathered_power_table,
    gathered_tensor_partition,
    kron_power_operator,
    monomial_endomorphism_matrix,
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
        assert RingElement.from_json(x.to_json()) == x

    def test_difference(self):
        x = RingElement({3: 1, 2: 2}) - RingElement({3: 1, 1: 4})
        assert x == RingElement({2: 2, 1: -4})
        assert x - x == RingElement()

    @pytest.mark.parametrize("terms", [{2.7: 1.9}, {2: 1.0}, {2.0: 1}, {"2": 1}, {2: None}])
    def test_non_integers_are_refused(self, terms):
        with pytest.raises(InvalidInput, match="integers"):
            RingElement(terms)

    def test_numpy_integers_pass(self):
        x = RingElement({np.int64(3): np.int32(2)})
        assert x == RingElement({3: 2}) and all(type(k) is int for k in x.terms)


class TestTensorOperator:
    def test_additive_j2_squared_char2(self):
        phi = jordan_block(F2, 2)
        assert jordan_partition(tensor_operator(phi, phi, additive(F2))) == (2, 2)

    def test_j1_is_unit_for_multiplicative(self):
        phi = jordan_block(F5, 1)
        psi = nilpotent_from_partition(F5, (3, 2))
        top = tensor_operator(phi, psi, multiplicative(F5))
        assert jordan_partition(top) == (3, 2)

    def test_char2_square_of_j4(self):
        phi = jordan_block(F2, 4)
        assert jordan_partition(tensor_operator(phi, phi, multiplicative(F2))) == (4, 4, 4, 4)

    def test_law_over_another_field_is_refused(self):
        # c = 6 of an F_7 law would read as 1 in F_5
        x = jordan_block(F5, 3)
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
        # table is the law's powers at the box of the cell J_3 (x) J_2, which
        # holds J_2 (x) J_2 too, and a second call reads every cell from the
        # memo
        built = []
        build = repring._power_table

        def spy(field, box, terms):
            built.append(box)
            return build(field, box, terms)

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
        with pytest.raises(InvalidLaw, match="disagree"):
            square((3,), 2, law, F3)
    with pytest.raises(InvalidLaw, match="disagree"):
        structure_constants(3, 3, law, F3)


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

    def test_square_of_unknown_shape_is_refused(self):
        law = additive(F5)
        repring.clear_memo()
        with pytest.raises(InvalidInput, match="unknown square 'bogus'"):
            square_constants(3, "bogus", law)
        assert not repring._constants_memo
        assert square_constants(3, "wedge", law) == RingElement.from_partition(
            wedge_partition((3,), 2, law, F5))

    def test_gather_offsets_are_memoized_read_only(self):
        # the operator of J_3 (x) J_4 gathers the offsets of (3,) at stride 4
        # and of (4,) at stride 1, each reading 12, the box size, where it is
        # invalid
        offsets = linalg._block_offsets
        repring.clear_memo()
        assert offsets.cache_info().currsize == 0
        canonical_series_operator(F5, ((3,), (4,)), additive(F5).coeffs)
        hits = offsets.cache_info().hits
        first = offsets(Partition((3,)), 4, 12)
        assert offsets.cache_info().hits == hits + 1
        assert first.tolist() == [[0, 4, 8], [12, 0, 4], [12, 12, 0]]
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1
        repring.clear_memo()
        assert offsets.cache_info().currsize == 0

    def test_dimension_check_is_a_typed_error(self, monkeypatch):
        # a brute force that lost a dimension must not reach the memo
        monkeypatch.setattr(repring, "tensor_partition", lambda *args: Partition((5,)))
        repring.clear_memo()
        with pytest.raises(AlgebraError, match="dimension 5, not 6"):
            structure_constants(2, 3, additive(F5), F5)
        assert not repring._constants_memo


class TestStructureConstantsAgainstOracle:
    """Every cell J_n (x) J_m with n, m <= 12, under three laws, against the
    full-power ranks of the additive law's Kronecker-product operator: the
    ranks of the rows x^i F^j against an independent construction and an
    independent rank.  The class does not depend on the law or on the order
    of n and m, so one oracle serves six cells."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_cell_up_to_twelve(self, p):
        from oracles import full_power_partition

        field = GF(p)
        laws = [additive(field), multiplicative(field),
                random_generalized_law(p, 22, field, unit_linear=p % 2 == 1)]
        blocks = {n: jordan_block(field, n) for n in range(1, 13)}
        repring.clear_memo()
        for n, m in itertools.combinations_with_replacement(range(1, 13), 2):
            op = tensor_operator(blocks[n], blocks[m], laws[0])
            want = RingElement.from_partition(full_power_partition(op))
            for law in laws:
                assert structure_constants(n, m, law, field) == want, (p, law, n, m)
                assert structure_constants(m, n, law, field) == want, (p, law, m, n)


#: the 64-bit packed width
F131 = GF(131)
#: (p-1)**2 * 4 < 2**53 <= (p-1)**2 * 6: products of inner length 4 are
#: exact in float64 and products of length 6 are not
PRIME_BETWEEN_BOUNDS = 38745323


def table_box(law):
    """The box of the law's memoized table of powers, or None."""
    table = repring._constants_memo.get(("powers", law.fingerprint()))
    return None if table is None else table[:2]


class TestCellRoute:
    """The cells J_n (x) J_m read off the law's table of powers, against the
    Jordan type of the whole gathered operator; the table's growth, its memo
    and the span postcondition."""

    @staticmethod
    def check(field, n, m, law):
        want = gathered_tensor_partition(field, (n,), (m,), law.coeffs)
        assert tensor_partition((n,), (m,), law, field) == want, (field, n, m)

    @pytest.mark.parametrize("field", [F2, F5, F131, QQ], ids=str)
    def test_seeded_cells(self, field):
        rng = random.Random(f"cell-route:{field.p}")
        top = 6 if field == QQ else 10
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

    @pytest.mark.parametrize("field", [F3, F131, QQ], ids=str)
    def test_shuffled_order_matches_cold_answers(self, field):
        # each cold answer starts from an empty memo; the shuffled pass grows
        # one table, with no side past 8, the power of two that holds 7, and
        # a degree-10 law refuses the cells with n + m > 12
        law = random_generalized_law(17, 10, field)
        cells = [(n, m) for n in range(1, 8) for m in range(1, 8)]
        cold = {}
        for n, m in cells:
            repring.clear_memo()
            try:
                cold[n, m] = structure_constants(n, m, law, field)
            except AlgebraError as exc:
                cold[n, m] = type(exc)
        assert cold[7, 7] is TruncationTooShort and cold[6, 6] != TruncationTooShort
        random.Random(field.p).shuffle(cells)
        repring.clear_memo()
        for n, m in cells:
            if cold[n, m] is TruncationTooShort:
                with pytest.raises(TruncationTooShort):
                    structure_constants(n, m, law, field)
            else:
                assert structure_constants(n, m, law, field) == cold[n, m], (n, m)
            box = table_box(law)
            assert box is None or max(box) <= 8
        assert min(table_box(law)) >= 7

    def test_growth_rule(self):
        law, field = random_generalized_law(5, 140, F5), F5
        cells = [(3, 5), (5, 3), (2, 2), (70, 2), (2, 60), (3, 1), (65, 1)]
        cold = {}
        for n, m in cells:
            repring.clear_memo()
            cold[n, m] = structure_constants(n, m, law, field)
        repring.clear_memo()
        # a cold table at the cell; each side that must grow rounded up to a
        # power of two; past the 4096 bound the union of the boxes, at
        # (65, 1) after (4, 60), and past it too the cell's own, at (2, 60)
        # after (128, 5)
        boxes = [(3, 5), (8, 5), (8, 5), (128, 5), (2, 60), (4, 60), (65, 60)]
        for (n, m), box in zip(cells, boxes):
            assert structure_constants(n, m, law, field) == cold[n, m], (n, m)
            assert table_box(law) == box, (n, m)
        for n, m in cells:
            want = gathered_tensor_partition(field, (n,), (m,), law.coeffs)
            assert cold[n, m] == RingElement.from_partition(want), (n, m)

    def test_grown_box_past_the_float_bound(self):
        # the union (3, 2) of the two boxes has products of inner length 6,
        # past the float64 bound at this prime, so the cell builds its own
        field = GF(PRIME_BETWEEN_BOUNDS)
        law = additive(field)
        want = {(3, 1): RingElement({3: 1}), (2, 2): RingElement({3: 1, 1: 1})}
        for order in ([(3, 1), (2, 2)], [(2, 2), (3, 1)]):
            repring.clear_memo()
            for n, m in order:
                assert structure_constants(n, m, law, field) == want[n, m]
            assert table_box(law) == order[-1]
            # the cell alone is past the bound: refused, and the table kept
            with pytest.raises(BadPrime):
                structure_constants(3, 2, law, field)
            assert table_box(law) == order[-1]

    def test_clear_memo_drops_the_tables(self):
        law = multiplicative(F3)
        repring.clear_memo()
        structure_constants(4, 6, law, F3)
        assert table_box(law) == (4, 6)
        repring.clear_memo()
        assert not repring._constants_memo

    def test_span_postcondition_is_a_typed_error(self, monkeypatch):
        # a table whose powers past F^0 vanish spans only the rows x^i
        build = repring._power_table

        def broken(field, box, coeffs):
            powers = build(field, box, coeffs).copy()
            powers[1:] = 0
            return powers

        monkeypatch.setattr(repring, "_power_table", broken)
        repring.clear_memo()
        law = additive(F5)
        with pytest.raises(AlgebraError, match=r"span 3 dimensions of J_3 \(x\) J_4, not 12"):
            structure_constants(3, 4, law, F5)
        assert (3, 4, law.fingerprint()) not in repring._constants_memo
        repring.clear_memo()

    def test_past_the_operator_bound(self):
        repring.clear_memo()
        with pytest.raises(InvalidInput, match="dimension 4160 is past the supported 4096"):
            structure_constants(65, 64, additive(F5), F5)
        assert not repring._constants_memo


class TestPowerTable:
    """The table of a law's powers F^j mod (x^bx, y^by) from Toeplitz
    products, against the powers of the law's whole gathered operator."""

    @staticmethod
    def check(field, box, law):
        got = repring._power_table(field, box, linalg._coefficient_arrays(field, law.coeffs, 2))
        want = gathered_power_table(field, box, law.coeffs)
        assert got.shape == want.shape and np.array_equal(got, want), (field, box)

    @pytest.mark.parametrize("field", [F2, F3, F5, F131, QQ], ids=str)
    def test_seeded_tables(self, field):
        rng = random.Random(f"power-table:{field.p}")
        top = 6 if field == QQ else 12
        boxes = [(1, 1), (1, top), (top, 1), (top, top - 1), (2, 5)]
        boxes += [(rng.randint(1, top), rng.randint(1, top)) for _ in range(6)]
        for unit in (False, True):
            law = random_generalized_law(rng.randrange(10**6), 2 * top, field,
                                         unit_linear=unit)
            if field != F2:
                # F_2 has no other linear part than u + v
                assert law.has_unit_linear_part() == unit
            for box in boxes:
                self.check(field, box, law)

    @given(st.sampled_from([F2, F3, F5, F131, QQ]), st.integers(1, 7), st.integers(1, 7),
           st.integers(0, 10**6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_tables(self, field, bx, by, seed, unit):
        self.check(field, (bx, by), random_generalized_law(seed, bx + by, field,
                                                           unit_linear=unit))

    def test_the_prime_between_the_bounds(self):
        # the products have inner length bx by: exact up to 4, and refused
        # at 6 like every F_p product of that length
        field = GF(PRIME_BETWEEN_BOUNDS)
        law = random_generalized_law(3, 6, field)
        for box in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 4), (4, 1)]:
            self.check(field, box, law)
        with pytest.raises(BadPrime):
            repring._power_table(field, (3, 2), linalg._coefficient_arrays(field, law.coeffs, 2))

    def test_memory_stays_near_the_table(self):
        # each round goes in chunks whose stacked shifts hold no more entries
        # than the table, so the build never holds an operator on the box:
        # here the gathered operator and one unchunked round of 39 powers
        # would each take 20 times the table's bytes
        law = random_generalized_law(4, 80, F5)
        terms = linalg._coefficient_arrays(F5, law.coeffs, 2)
        tracemalloc.start()
        try:
            table = repring._power_table(F5, (40, 40), terms)
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
        phi = jordan_block(F5, 3)
        eye = Matrix.identity(F5, 3)
        expected = phi.kron(eye) + eye.kron(phi)
        assert power_operator((3,), 2, additive(F5), F5) == expected

    def test_m2_multiplicative_is_group_tensor(self):
        phi = jordan_block(F3, 3)
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
        assert canonical_series_operator(field, (lam, mu), law.coeffs) == kron
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
        op = canonical_series_operator(F5, ((2, 1), (3,)), {(2, 0): 1, (0, 3): 4, (1, 2): 3})
        phi = nilpotent_from_partition(F5, (2, 1))
        psi = jordan_block(F5, 3)
        assert op == phi.kron(psi @ psi).scale(3)


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

    @given(st.sampled_from([F5, F7]), small_partitions, st.integers(2, 3),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_generalized_law_raises_or_matches_additive(self, field, lam, m, seed):
        if lam.dim ** m > 216:
            lam = Partition(lam[:1])
        law = random_generalized_law(seed, max(2, m * (lam[0] - 1)), field)
        for power in (wedge_partition, sym_partition):
            try:
                got = power(lam, m, law, field)
            except InvalidInput:
                continue
            assert got == power(lam, m, additive(field), field)


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
    assert cg_square(n, "sym") == RingElement.from_partition(
        sym_partition((n,), 2, law, GF(p)))
    assert cg_square(n, "wedge") == RingElement.from_partition(
        wedge_partition((n,), 2, law, GF(p)))
