import random

import pytest

from jordanblocks.char0 import ad_partition_char0
from jordanblocks.classical import (
    adjoint_partition,
    cayley_series,
    good_char_report,
    is_good_prime,
    nilpotent_adjoint_partition,
    springer_image,
    unipotent_adjoint_partition,
    validate_classical_partition,
)
from jordanblocks.errors import AlgebraError, CharTwo, InvalidInput
from jordanblocks.fields import GF, QQ
from jordanblocks.linalg import jordan_partition, nilpotent_from_partition, unipotent_partition
from jordanblocks.repring import RingElement, cg_tensor
from jordanblocks.verify import sample_classical_case
from oracles import whole_matrix_adjoint


class TestValidatePartition:
    def test_gl_anything(self):
        assert validate_classical_partition("GL", (5, 3, 3, 1))

    def test_sp(self):
        assert validate_classical_partition("Sp", (4,))
        assert not validate_classical_partition("Sp", (3, 1))
        assert validate_classical_partition("Sp", (3, 3, 2))

    def test_so(self):
        assert validate_classical_partition("SO", (7,))
        assert not validate_classical_partition("SO", (4, 3))
        assert validate_classical_partition("SO", (4, 4, 1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            validate_classical_partition("E8", (3,))


class TestNilpotentAdjoint:
    def test_sp4_regular_p2(self):
        assert nilpotent_adjoint_partition("Sp", (4,), GF(2)) == (4, 4, 1, 1)

    def test_sp6_regular_p2(self):
        assert nilpotent_adjoint_partition("Sp", (6,), GF(2)) == (8, 8, 2, 1, 1, 1)

    def test_so7_regular_p2(self):
        assert nilpotent_adjoint_partition("SO", (7,), GF(2)) == (7, 7, 7)

    def test_gl2_char0(self):
        assert nilpotent_adjoint_partition("GL", (2,), QQ) == (3, 1)

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            nilpotent_adjoint_partition("Sp", (3, 1), GF(5))

    def test_dimensions(self):
        f = GF(5)
        assert nilpotent_adjoint_partition("GL", (3, 1), f).dim == 16
        assert nilpotent_adjoint_partition("Sp", (4, 2), f).dim == 21
        assert nilpotent_adjoint_partition("SO", (5, 3), f).dim == 28


class TestUnipotentAdjoint:
    def test_sp4_regular_p2(self):
        assert unipotent_adjoint_partition("Sp", (4,), GF(2)) == (4, 4, 2)

    def test_sp6_regular_p2(self):
        assert unipotent_adjoint_partition("Sp", (6,), GF(2)) == (8, 8, 4, 1)

    def test_so7_regular_p2(self):
        assert unipotent_adjoint_partition("SO", (7,), GF(2)) == (8, 8, 5)

    def test_gl_matches_nilpotent_char0(self):
        for lam in [(3,), (2, 1)]:
            assert (unipotent_adjoint_partition("GL", lam, QQ)
                    == nilpotent_adjoint_partition("GL", lam, QQ))


class TestCayley:
    def test_char0_coefficients(self):
        eps = cayley_series(4, QQ)
        assert eps.univariate_coeffs() == [0, -2, 2, -2]

    def test_mod3(self):
        eps = cayley_series(4, GF(3))
        assert eps.univariate_coeffs() == [0, 1, 2, 1]

    def test_linear_coefficient_nonzero(self):
        for p in (3, 5, 7, 13):
            assert cayley_series(3, GF(p)).univariate_coeffs()[1] != 0

    def test_char_two(self):
        with pytest.raises(CharTwo):
            cayley_series(4, GF(2))


class TestSpringerImage:
    def test_linear_series(self):
        from jordanblocks.series import TruncatedPoly

        f = GF(7)
        x = nilpotent_from_partition(f, (3, 2))
        u = springer_image(TruncatedPoly.univariate(f, 6, [0, 1]), x)
        assert unipotent_partition(u) == (3, 2)

    def test_cayley_on_j3(self):
        f = GF(5)
        x = nilpotent_from_partition(f, (3,))
        u = springer_image(cayley_series(4, f), x)
        assert unipotent_partition(u) == (3,)

    def test_random_series_preserves_partitions(self):
        import random

        from jordanblocks.verify import random_series_with_unit

        rng = random.Random("springer-test")
        f = GF(7)
        for lam in [(4, 2), (5, 3, 1), (2, 2, 2)]:
            x = nilpotent_from_partition(f, lam)
            eps = random_series_with_unit(rng, f, max(lam) + 1)
            assert unipotent_partition(springer_image(eps, x)) == jordan_partition(x)

    def test_zero_linear_coefficient_is_invalid_input(self):
        from jordanblocks.series import TruncatedPoly

        f = GF(7)
        x = nilpotent_from_partition(f, (3,))
        with pytest.raises(InvalidInput, match="nonzero linear coefficient"):
            springer_image(TruncatedPoly.univariate(f, 4, [0, 0, 1]), x)


class TestGoodCharReport:
    def test_good_prime_equal(self):
        report = good_char_report("Sp", (4, 2), 5)
        assert report.equal and report.good_characteristic

    def test_bad_prime_unequal(self):
        report = good_char_report("Sp", (4,), 2)
        assert not report.equal and not report.good_characteristic
        assert report.nilpotent == (4, 4, 1, 1)
        assert report.unipotent == (4, 4, 2)

    def test_gl_has_no_bad_primes(self):
        report = good_char_report("GL", (3, 1), 2)
        assert report.equal and report.good_characteristic
        assert is_good_prime("GL", 2)

    def test_kernel_dimensions_at_bad_prime(self):
        # number of parts = fixed-space dimension; the bad-prime pair differs
        report = good_char_report("Sp", (4,), 2)
        assert len(report.unipotent) == 3
        assert len(report.nilpotent) == 4

    def test_json_schema(self):
        data = good_char_report("Sp", (4,), 2).to_json()
        assert data == {
            "type": "Sp", "lambda": [4], "p": 2,
            "ad": [4, 4, 1, 1], "Ad": [4, 4, 2],
            "equal": False, "good_characteristic": False,
        }


class TestBlockAdditivePath:
    """The block-by-block sum against the whole-matrix oracle, ad and Ad."""

    @staticmethod
    def both_sides_match(kind, lam, field):
        for unipotent, side in ((False, nilpotent_adjoint_partition),
                                (True, unipotent_adjoint_partition)):
            want = whole_matrix_adjoint(kind, lam, field, unipotent)
            assert side(kind, lam, field) == want, (kind, tuple(lam), field, unipotent)

    def test_seeded_good_cases(self):
        rng = random.Random("block-additive")
        for _ in range(40):
            kind, lam, p = sample_classical_case(rng)
            self.both_sides_match(kind, lam, GF(p))

    @pytest.mark.parametrize("kind,lam", [
        ("Sp", (4, 2)), ("Sp", (3, 3, 2)), ("Sp", (2, 2, 1, 1)), ("Sp", (6, 4)),
        ("SO", (7, 1)), ("SO", (5, 3, 1)), ("SO", (4, 4, 3)), ("SO", (3, 2, 2, 1)),
        ("GL", (4, 3, 1)),
    ])
    def test_multi_block_at_p2(self, kind, lam):
        self.both_sides_match(kind, lam, GF(2))

    @pytest.mark.parametrize("kind,lam", [("GL", (3, 1)), ("Sp", (2, 2)), ("SO", (3, 1, 1))])
    def test_over_q(self, kind, lam):
        self.both_sides_match(kind, lam, QQ)
        assert ad_partition_char0(kind, lam) == whole_matrix_adjoint(kind, lam, QQ, False)

    def test_dimension_mismatch_is_typed(self):
        with pytest.raises(AlgebraError):
            adjoint_partition("SO", (3, 1), cg_tensor, lambda a, shape: RingElement({a: 1}))


class TestSamplerGuards:
    """The verify-suite guards that were asserts, fired through wrong intermediates."""

    def test_sampled_partition_outside_the_kind(self, monkeypatch):
        from jordanblocks import verify

        monkeypatch.setattr(verify, "validate_classical_partition", lambda kind, lam: False)
        with pytest.raises(AlgebraError, match="not a nilpotent class"):
            sample_classical_case(random.Random(0))

    def test_sampled_prime_that_is_not_good(self, monkeypatch):
        from dataclasses import replace

        from jordanblocks import verify

        real = verify.good_char_report
        monkeypatch.setattr(verify, "good_char_report", lambda kind, lam, p: replace(
            real(kind, lam, p), good_characteristic=False))
        with pytest.raises(AlgebraError, match="sampled as good"):
            verify.suite_classical_good()
