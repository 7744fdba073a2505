"""Structured exceptions raised across the library.

Every error that a caller might reasonably catch has its own class; all
inherit from ``AlgebraError`` so a blanket ``except AlgebraError`` works.
"""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(AlgebraError, ValueError):
    """An argument outside the domain a function accepts: a characteristic
    that is neither 0 nor prime, a block size below 1, an unknown classical
    kind, a partition that is not a nilpotent class of that kind.

    It is also a ``ValueError``, so callers catching either keep working.
    """


# -- matrix / partition layer -------------------------------------------------

class NotSquare(AlgebraError):
    pass


class NotNilpotent(AlgebraError):
    pass


class NotUnipotent(AlgebraError):
    pass


class NotContained(AlgebraError):
    """Multiset difference requested with a subtrahend that is not contained."""


# -- truncated series layer ---------------------------------------------------

class ShapeMismatch(AlgebraError):
    """Operands live in truncated algebras with different shapes."""


class TruncationTooShort(AlgebraError):
    pass


class NonzeroConstantTerm(AlgebraError):
    pass


class NotInvertibleLinearPart(AlgebraError):
    pass


class ZeroLinearScalar(AlgebraError):
    pass


class NotSymmetric(AlgebraError):
    pass


class FactorialNotInvertible(AlgebraError):
    pass


# -- laws and higher layers ---------------------------------------------------

class InvalidLaw(AlgebraError):
    pass


class CharTwo(AlgebraError):
    pass


class BadPrime(AlgebraError):
    pass


class DoesNotStabilize(AlgebraError):
    """An operator does not stabilize the subalgebra it was tested against."""


class UnknownType(AlgebraError):
    pass


class ExponentDivisible(AlgebraError):
    pass


class NotDistinguished(AlgebraError):
    pass


class BlocksNotAllOdd(AlgebraError):
    pass
