import pytest

from jordanblocks.char0 import (
    WeylTypeData,
    ad_partition_char0,
    check_theorem,
    exponents,
    is_distinguished,
    predict_blocks,
    springer_condition,
)
from jordanblocks import char0
from jordanblocks.errors import (
    AlgebraError,
    BlocksNotAllOdd,
    ExponentDivisible,
    InvalidInput,
    NotDistinguished,
    UnknownType,
)
from jordanblocks.linalg import Partition


class TestExponents:
    def test_a2(self):
        data = exponents("A", 2)
        assert data.exponents == (1, 2)
        # oracle: adjoint blocks of the regular traceless nilpotent
        assert check_theorem("GL", (3,)).ad == (5, 3)

    def test_b2(self):
        data = exponents("B", 2)
        assert data.exponents == (1, 3)
        assert sum(data.exponents) == 4  # positive root count

    def test_g2(self):
        assert exponents("G2").exponents == (1, 5)

    def test_d_rank(self):
        assert exponents("D", 4).exponents == (1, 3, 3, 5)
        assert exponents("D", 2).exponents == (1, 1)

    def test_exceptional_list(self):
        assert exponents("E8").exponents == (1, 7, 11, 13, 17, 19, 23, 29)
        assert exponents("F4").dim_lie_algebra == 52

    def test_unknown(self):
        with pytest.raises(UnknownType):
            exponents("H", 3)
        with pytest.raises(UnknownType):
            exponents("G2", 3)

    @pytest.mark.parametrize("family,rank", [("A", 4), ("B", 5), ("C", 3), ("D", 5),
                                             ("G2", 2), ("F4", 4), ("E6", 6),
                                             ("E7", 7), ("E8", 8)])
    def test_identities_validated(self, family, rank):
        data = exponents(family, rank)
        assert isinstance(data, WeylTypeData)


class TestAdPartitionChar0:
    def test_gl_single_block(self):
        for n in (2, 3, 5):
            expected = Partition(sorted(range(1, 2 * n, 2), reverse=True))
            assert ad_partition_char0("GL", (n,)) == expected

    def test_sp_rank1(self):
        assert ad_partition_char0("Sp", (2,)) == (3,)

    def test_so_53(self):
        part = ad_partition_char0("SO", (5, 3))
        assert part.dim == 28

    def test_all_blocks_odd_for_distinguished(self):
        for kind, lam in [("GL", (4,)), ("Sp", (6, 2)), ("SO", (5, 3)), ("SO", (7, 3, 1))]:
            assert all(x % 2 == 1 for x in ad_partition_char0(kind, lam))


class TestSpringerCondition:
    def test_regular_sl3(self):
        assert springer_condition((5, 3))

    def test_subregular_exceptional_shape(self):
        assert not springer_condition((5, 3, 3, 3))

    def test_sl2(self):
        assert springer_condition((3,))

    def test_even_block_is_an_error(self):
        with pytest.raises(BlocksNotAllOdd):
            springer_condition((4, 2))


class TestPredictBlocks:
    def test_a2_regular(self):
        assert predict_blocks((1, 2), 2) == (5, 3)

    def test_g2_regular(self):
        assert predict_blocks(exponents("G2"), 5) == (11, 3)

    def test_sl2(self):
        assert predict_blocks((1,), 1) == (3,)

    def test_exponent_divisible(self):
        with pytest.raises(ExponentDivisible):
            predict_blocks((3,), 2)

    @pytest.mark.parametrize("n", [-1, -2, 1.5, True])
    def test_n_that_is_not_an_integer_at_least_zero(self, n):
        # n = -1 would take every exponent modulo 0
        with pytest.raises(InvalidInput, match="n must be an integer >= 0"):
            predict_blocks((1, 3), n)


class TestCheckTheorem:
    def test_gl_regular_exhausts(self):
        report = check_theorem("GL", (4,))
        assert report.gate and report.contained
        assert report.predicted == (7, 5, 3)
        assert report.ad == (7, 5, 3)

    def test_sp_rank1(self):
        report = check_theorem("Sp", (2,))
        assert report.predicted == (3,) and report.contained

    def test_sp_62_pipeline(self):
        report = check_theorem("Sp", (6, 2))
        assert report.ad == (11, 7, 7, 5, 3, 3)
        assert report.n == 5
        assert not report.gate  # two blocks of size 3
        assert report.to_json()["type"] == "Sp"

    def test_so_d3_regular(self):
        report = check_theorem("SO", (5, 1))
        assert report.family == "D" and report.rank == 3
        assert report.predicted == (7, 5, 3) == report.ad

    def test_failed_containment_is_a_typed_error(self, monkeypatch):
        # the gate holds for the regular GL nilpotent, so a prediction that
        # does not embed in its adjoint partition must be refused
        monkeypatch.setattr(char0, "predict_blocks", lambda data, n: Partition((99,)))
        with pytest.raises(AlgebraError, match="not contained"):
            check_theorem("GL", (4,))

    def test_not_distinguished(self):
        with pytest.raises(NotDistinguished):
            check_theorem("GL", (2, 2))
        with pytest.raises(NotDistinguished):
            check_theorem("Sp", (4, 4))
        with pytest.raises(NotDistinguished):
            check_theorem("SO", (3, 3, 1))


class TestDistinguished:
    def test_gl(self):
        assert is_distinguished("GL", (5,))
        assert not is_distinguished("GL", (4, 1))

    def test_sp(self):
        assert is_distinguished("Sp", (6, 2))
        assert not is_distinguished("Sp", (6, 6))
        assert not is_distinguished("Sp", (5, 3))

    def test_so(self):
        assert is_distinguished("SO", (7, 3, 1))
        assert not is_distinguished("SO", (5, 5))


@pytest.mark.parametrize("check,what", [
    ("positive_root_count", "sum of the exponents"),
    ("weyl_group_order", "product of the exponents"),
    ("lie_algebra_dim", "Lie algebra dimension"),
])
def test_exponent_checks_are_typed_errors(monkeypatch, check, what):
    real = getattr(char0, check)
    monkeypatch.setattr(char0, check, lambda family, rank: real(family, rank) + 1)
    with pytest.raises(AlgebraError, match=what):
        exponents("B", 3)
