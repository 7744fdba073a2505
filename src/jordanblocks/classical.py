"""Adjoint partitions for the classical groups GL, Sp and SO.

The adjoint module is V (x) V* for GL, Sym^2 V for Sp and wedge^2 V for SO.
Each splits over the blocks of V under any commutative law, so
:func:`adjoint_partition` builds no operator: GL is the ring product of
lambda with itself, Sp/SO the fold at m = 2 of the squares (``repring._block_power``).
The nilpotent side takes the classes under the additive law, the unipotent
side under the multiplicative law (group conjugation), and in good
characteristic the two partitions agree.  In bad characteristic (p = 2 for
Sp/SO) they are the Sym^2/wedge^2 model rather than a certified
identification with the honest adjoint action, and reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CharTwo, InvalidInput
from .fields import Field, _count
from .fgl import GeneralizedLaw, additive, multiplicative
from .linalg import Matrix, Partition, _fields_json, apply_series
from .repring import RingElement, _block_power, _fold, _product, structure_constants
from .series import TruncatedPoly

KINDS = ("GL", "Sp", "SO")


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise InvalidInput(f"unknown classical kind {kind!r}")


def validate_classical_partition(kind: str, lam) -> bool:
    """Whether lam occurs as the partition of a nilpotent in the Lie algebra.

    GL: everything.  Sp: odd parts have even multiplicity.  SO: even parts
    have even multiplicity.  (Good-characteristic classification.)
    """
    check_kind(kind)
    lam = Partition(lam)
    if kind == "GL":
        return True
    paired = 1 if kind == "Sp" else 0
    return all(lam.multiplicity(x) % 2 == 0 for x in set(lam) if x % 2 == paired)


def is_good_prime(kind: str, p: int) -> bool:
    """p = 2 is bad for Sp and SO; every characteristic is fine for GL."""
    check_kind(kind)
    return kind == "GL" or p != 2


def adjoint_partition(kind: str, lam, pair, square) -> Partition:
    """Adjoint partition of a nilpotent of type lam, from the classes
    ``pair(a, b)`` of J_a (x) J_b and ``square(a, shape)`` of Sym^2 J_a
    (``shape == "sym"``) or wedge^2 J_a (``"wedge"``): GL is lam's class
    times itself (``repring._product``), Sp and SO the block fold at m = 2
    (``repring._fold``), each AlgebraError when of the wrong dimension."""
    lam = Partition(lam)
    if not validate_classical_partition(kind, lam):
        raise InvalidInput(f"{tuple(lam)} is not a nilpotent partition for {kind}")
    if kind == "GL":
        x = RingElement.from_partition(lam)
        return _product(x, x, pair).to_partition()
    shape = "sym" if kind == "Sp" else "wedge"
    return _fold(lam, 2, shape, pair, lambda a, i: square(a, shape)).to_partition()


def _adjoint_under(kind: str, lam, law: GeneralizedLaw) -> Partition:
    return adjoint_partition(kind, lam, lambda a, b: structure_constants(a, b, law, law.field),
                             lambda a, shape: _block_power(a, 2, shape, law))


def nilpotent_adjoint_partition(kind: str, lam, field: Field) -> Partition:
    """Partition of ad(X) for X nilpotent of type lam: the additive law."""
    return _adjoint_under(kind, lam, additive(field))


def unipotent_adjoint_partition(kind: str, lam, field: Field) -> Partition:
    """Partition of Ad(u) for u unipotent of type lam: the multiplicative law,
    whose tensor operator (1+X) (x) (1+Y) - 1 is the shift of Ad(u)."""
    return _adjoint_under(kind, lam, multiplicative(field))


def cayley_series(trunc: int, field: Field) -> TruncatedPoly:
    """(1-t)(1+t)^{-1} - 1 = 2 sum (-1)^i t^i, truncated; needs p != 2."""
    trunc = _count(trunc, 1, "the truncation")
    if field.p == 2:
        raise CharTwo("the Cayley transform needs 2 invertible")
    two = field(2)
    coeffs = [field.zero]
    for i in range(1, trunc):
        c = two if i % 2 == 0 else field.neg(two)
        coeffs.append(c)
    return TruncatedPoly.univariate(field, trunc, coeffs)


def springer_image(eps: TruncatedPoly, x: Matrix) -> Matrix:
    """1 + eps(X): a unipotent with the same partition as X when eps has a
    nonzero linear coefficient."""
    coeffs = eps.univariate_coeffs()
    if len(coeffs) < 2 or coeffs[1] == 0:
        raise InvalidInput("Springer series needs a nonzero linear coefficient")
    return Matrix.identity(x.field, x.nrows) + apply_series(eps, x)


@dataclass(frozen=True)
class AdjointReport:
    """Both adjoint partitions for one (kind, lambda, p) with the equality flag."""

    kind: str
    lam: tuple
    p: int
    nilpotent: Partition
    unipotent: Partition
    equal: bool
    good_characteristic: bool

    to_json = _fields_json({"kind": "type", "lam": "lambda", "nilpotent": "ad", "unipotent": "Ad"})


def good_char_report(kind: str, lam, p: int) -> AdjointReport:
    field = Field(p)
    nil = nilpotent_adjoint_partition(kind, lam, field)
    uni = unipotent_adjoint_partition(kind, lam, field)
    return AdjointReport(
        kind=kind,
        lam=tuple(Partition(lam)),
        p=p,
        nilpotent=nil,
        unipotent=uni,
        equal=nil == uni,
        good_characteristic=is_good_prime(kind, p),
    )
