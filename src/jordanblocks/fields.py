"""Exact scalar arithmetic over prime fields and the rationals.

A :class:`Field` bundles the arithmetic for either F_p (elements are plain
ints reduced into ``range(p)``) or Q (elements are ``Fraction``).  The
characteristic is 0 or a prime p <= ``_MAX_CHARACTERISTIC``, where
(p-1)**2 + (p-1) < 2**63, so that the F_p arrays of ``linalg`` and
``series`` stay exact in int64; a larger prime raises ``BadPrime``.  All
downstream code is exact; the one use of floating point is the float64
BLAS product of F_p matrices in ``linalg``, which refuses any product that
could round.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import numpy as np

from .errors import BadPrime, InvalidInput


#: the first 13 primes, as Miller-Rabin witnesses; together they decide
#: every n below ``_PRIME_BOUND`` (Sorenson and Webster, 2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981
#: the largest characteristic that F_p arrays hold in int64 (module docstring)
_MAX_CHARACTERISTIC = 3037000500


def _count(value, least: int | None, what: str, error: type = InvalidInput) -> int:
    """The one rule for integer arguments (block sizes, m, p, degrees,
    exponents): ``value`` as a plain int.  ``error`` for a bool, for what
    ``operator.index`` refuses (a float, a string, None) and for an int
    below ``least`` (None for no bound), all with one message; a numpy
    integer passes as the int it holds."""
    if type(value) is int and (least is None or value >= least):
        return value
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None or least is not None and index < least:
        bound = "" if least is None else f" >= {least}"
        raise error(f"{what} must be an integer{bound}, got {value!r}")
    return index


def _counts(values, least: int | None, what: str) -> tuple:
    """A tuple of counts (``_count``); InvalidInput for a bare number too."""
    try:
        return tuple([_count(value, least, what) for value in values])
    except TypeError:
        raise InvalidInput(f"{values!r} is not a sequence of integers") from None


def is_prime(n: int) -> bool:
    """Whether n is prime, by the Miller-Rabin test at ``_WITNESSES``, which
    is exact below ``_PRIME_BOUND``; InvalidInput at or past it.  n - 1 =
    d 2^s with d odd, and n passes at a when a^d = 1 or a^(d 2^k) = -1 mod n
    for some k < s."""
    if n >= _PRIME_BOUND:
        raise InvalidInput(f"{n} is past the primality test's range, below {_PRIME_BOUND}")
    if n < 2 or any(n % q == 0 for q in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or n - 1 in [pow(a, d << k, n) for k in range(s)]
               for a in _WITNESSES)


class Field:
    """F_p for a prime p, or the rationals when ``characteristic == 0``."""

    __slots__ = ("p",)

    def __init__(self, characteristic: int):
        characteristic = _count(characteristic, None, "the characteristic")
        if characteristic != 0 and not is_prime(characteristic):
            raise InvalidInput(f"characteristic must be 0 or prime, got {characteristic}")
        if characteristic > _MAX_CHARACTERISTIC:
            raise BadPrime(f"F_{characteristic} is past the supported range, p <= {_MAX_CHARACTERISTIC}")
        self.p = characteristic

    @property
    def characteristic(self) -> int:
        return self.p

    def __repr__(self):
        return "Q" if self.p == 0 else f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __call__(self, x):
        """Coerce an int, Fraction or string like ``"2/3"`` into the field.

        InvalidInput for a float or complex number (numpy's included), which
        is not an exact scalar, for a string that is not an integer or a
        fraction, for None or any other non-number, and for a fraction whose
        denominator p divides.  A bool is an int here: a scalar is no count.
        """
        if type(x) is int:
            return x % self.p if self.p else Fraction(x)
        if type(x) is Fraction and not self.p:
            return x
        if isinstance(x, (float, complex, np.inexact)):
            raise InvalidInput(f"{x!r} is a {type(x).__name__}, not an exact scalar")
        if isinstance(x, str):
            try:
                if "/" in x:
                    num, den = x.split("/")
                    x = Fraction(int(num), int(den))
                else:
                    x = int(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise InvalidInput(f"{x!r} is not a scalar") from exc
        try:
            if self.p == 0:
                # the Fraction of a numpy integer would keep int64 parts, which wrap
                return Fraction(int(x) if isinstance(x, np.integer) else x)
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise InvalidInput(f"{x} has no image in F{self.p}")
                return x.numerator * pow(x.denominator, -1, self.p) % self.p
            return int(x) % self.p
        except TypeError:
            raise InvalidInput(f"{x!r} is not a scalar") from None

    @property
    def zero(self):
        return Fraction(0) if self.p == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.p == 0 else 1

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p) if self.p else 1 / a

    def factorial_inv(self, k: int):
        """1/k!, raising ZeroDivisionError when k! vanishes in the field."""
        out = self.one
        for i in range(2, k + 1):
            out = self.mul(out, self.inv(self(i)))
        return out

    def random_element(self, rng):
        if self.p:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def random_nonzero(self, rng):
        while True:
            a = self.random_element(rng)
            if a != 0:
                return a

    def to_string(self, a) -> str:
        """Serialize one element the way the JSON formats expect."""
        if self.p == 0 and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a) if self.p else a.numerator)


#: The rationals, shared instance.
QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)
