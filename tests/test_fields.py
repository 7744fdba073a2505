import random
from fractions import Fraction

import numpy as np
import pytest

from jordanblocks import fields
from jordanblocks.errors import BadPrime, InvalidInput
from jordanblocks.fields import GF, QQ, Field, is_prime

#: Carmichael numbers, which pass every Fermat test to a base prime to them
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
              62745063, 9999109081, 3825123056546413051]
#: the least strong pseudoprimes to the bases 2, to 2 and 3, ..., to the first
#: eleven primes (OEIS A014233): each passes every witness before its index
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051,
                       318665857834031151167461]
#: primes of 16 to 22 digits, past any trial division
LARGE_PRIMES = [10**15 + 37, 2**61 - 1, 1000000000000000000117]
#: the largest prime p <= fields._MAX_CHARACTERISTIC
LARGEST_SUPPORTED_PRIME = 3037000493


class TestIsPrime:
    def test_matches_sympy_on_seeded_ranges(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(22)
        ranges = [range(-10, 5000)]
        for digits in (6, 9, 12, 15, 18, 24):
            lo = rng.randrange(10 ** (digits - 1), 10**digits)
            ranges.append(range(lo, lo + 400))
        for numbers in ranges:
            got = [n for n in numbers if is_prime(n)]
            assert got == [n for n in numbers if sympy.isprime(n)], numbers

    @pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES)
    def test_pseudoprimes_are_composite(self, n):
        sympy = pytest.importorskip("sympy")
        assert not sympy.isprime(n) and not is_prime(n)

    @pytest.mark.parametrize("n", LARGE_PRIMES)
    def test_large_primes(self, n):
        sympy = pytest.importorskip("sympy")
        assert sympy.isprime(n) and is_prime(n)
        assert not is_prime(n * 3) and not is_prime(n * 1009)
        # prime, but past the characteristics that F_p arrays hold in int64
        with pytest.raises(BadPrime):
            Field(n)

    def test_range_of_the_test(self):
        bound = fields._PRIME_BOUND
        assert not is_prime(bound - 2)
        for n in (bound, bound + 2, 2**127 - 1):
            with pytest.raises(InvalidInput, match="range"):
                is_prime(n)
            with pytest.raises(InvalidInput, match="range"):
                Field(n)


class TestSupportedRange:
    """Field is the one place that bounds p: F_p arrays are int64, and a
    product of two entries plus one more stays below 2**63 up to the bound."""

    def test_bound(self):
        bound = fields._MAX_CHARACTERISTIC
        assert bound * (bound - 1) < 2**63 <= (bound + 1) * bound

    def test_largest_supported_prime(self):
        sympy = pytest.importorskip("sympy")
        p = LARGEST_SUPPORTED_PRIME
        assert sympy.prevprime(fields._MAX_CHARACTERISTIC + 1) == p
        assert GF(p).p == p

    # a sum of two entries over F_9223372036854775783 would wrap int64, and
    # 2**63 + 29 does not fit in int64 at all
    @pytest.mark.parametrize("p", [4000000007, 2**61 - 1, 9223372036854775783, 2**63 + 29])
    def test_primes_past_the_bound_are_refused(self, p):
        assert is_prime(p)
        with pytest.raises(BadPrime, match="supported range"):
            Field(p)

    def test_primality_comes_first(self):
        # a composite past the bound is not a prime; past the test's range,
        # the test's own refusal
        with pytest.raises(InvalidInput, match="0 or prime"):
            Field(4000000007 * 3)
        with pytest.raises(InvalidInput, match="range"):
            Field(fields._PRIME_BOUND)


class TestField:
    @pytest.mark.parametrize("p", [5.0, 5.5, "5", None, Fraction(5)])
    def test_non_integer_characteristics_are_refused(self, p):
        with pytest.raises(InvalidInput, match="integer"):
            Field(p)

    @pytest.mark.parametrize("p", [-5, 1, 4, 561, 2047])
    def test_composite_characteristics_are_refused(self, p):
        with pytest.raises(InvalidInput, match="0 or prime"):
            Field(p)

    def test_numpy_characteristic_is_a_python_int(self):
        field = Field(np.int64(5))
        assert field == GF(5) and type(field.p) is int and str(field) == "F5"
        assert field(7) == 2 and field.inv(2) == 3

    def test_int_fast_path_agrees(self):
        with pytest.raises(BadPrime):
            GF(2**61 - 1)
        for field in (GF(2), GF(5), GF(LARGEST_SUPPORTED_PRIME), QQ):
            for x in (0, 1, -1, 7, -12, 2**62 - 1):
                got = field(x)
                assert got == field(Fraction(x)) == field(str(x)) == field(np.int64(x))
                assert type(got) is (Fraction if field == QQ else int)
        assert GF(5)(True) == 1 and QQ(False) == 0

    @pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
    @pytest.mark.parametrize("x", [None, [1], object()], ids=["None", "list", "object"])
    def test_non_numbers_are_not_scalars(self, field, x):
        # int(None) and Fraction(None) raise TypeError
        with pytest.raises(InvalidInput, match="not a scalar"):
            field(x)
