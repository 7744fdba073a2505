"""Characteristic-0 predictor: Weyl-group exponents vs adjoint Jordan blocks.

For a distinguished nilpotent whose even grading reaches top degree 2n, the
eigenvalue bookkeeping on a regular semisimple element pins r adjoint block
sizes: each exponent e contributes a block of size 2f+1 where f is the unique
representative of -e in 1..n modulo n+1.  The adjoint partitions themselves
come block by block from :func:`classical.adjoint_partition`, fed
with the closed characteristic-0 classes: the Clebsch-Gordan series for
J_n (x) J_m and the sl_2 plethysm for Sym^2 J_n and wedge^2 J_n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial, prod

from .errors import (
    AlgebraError,
    BlocksNotAllOdd,
    ExponentDivisible,
    NotDistinguished,
    UnknownType,
)
from .classical import adjoint_partition, check_kind
from .fields import _count, _counts
from .linalg import Partition, _fields_json
from .repring import cg_square, cg_tensor

FAMILIES = ("A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8")

_EXCEPTIONAL_EXPONENTS = {
    "G2": (1, 5),
    "F4": (1, 5, 7, 11),
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}

_EXCEPTIONAL_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}


@dataclass(frozen=True)
class WeylTypeData:
    family: str
    rank: int
    exponents: tuple

    @property
    def dim_lie_algebra(self) -> int:
        return sum(2 * e + 1 for e in self.exponents)


def positive_root_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    return {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}[family]


def weyl_group_order(family: str, rank: int) -> int:
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2**rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {"G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}[family]


def lie_algebra_dim(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 2)
    if family in ("B", "C"):
        return rank * (2 * rank + 1)
    if family == "D":
        return rank * (2 * rank - 1)
    return {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}[family]


def exponents(family: str, rank: int | None = None) -> WeylTypeData:
    """Built-in exponent lists, validated against |W| and the root count;
    UnknownType for a rank other than None that is not an integer >= 0."""
    if family not in FAMILIES:
        raise UnknownType(f"unknown family {family!r}")
    rank = None if rank is None else _count(rank, 0, "a rank", UnknownType)
    if family in _EXCEPTIONAL_EXPONENTS:
        expected_rank = _EXCEPTIONAL_RANK[family]
        if rank not in (None, expected_rank):
            raise UnknownType(f"{family} has rank {expected_rank}")
        rank = expected_rank
        exps = _EXCEPTIONAL_EXPONENTS[family]
    else:
        if rank is None:
            raise UnknownType("classical families need a non-negative rank")
        if family == "A":
            exps = tuple(range(1, rank + 1))
        elif family in ("B", "C"):
            exps = tuple(range(1, 2 * rank, 2))
        else:
            if rank < 2:
                raise UnknownType("type D starts at rank 2")
            exps = tuple(sorted(list(range(1, 2 * rank - 2, 2)) + [rank - 1]))
    data = WeylTypeData(family=family, rank=rank, exponents=exps)
    checks = (("sum of the exponents", sum(exps), positive_root_count(family, rank)),
              ("product of the exponents + 1", prod(e + 1 for e in exps),
               weyl_group_order(family, rank)),
              ("Lie algebra dimension", data.dim_lie_algebra, lie_algebra_dim(family, rank)))
    for what, got, want in checks:
        if got != want:
            raise AlgebraError(f"{family} rank {rank}: {what} is {got}, not {want}")
    return data


# -- exact Clebsch-Gordan adjoint oracle -----------------------------------------

def ad_partition_char0(kind: str, lam) -> Partition:
    """Adjoint partition over Q: GL on V (x) V*, Sp on Sym^2 V, SO on wedge^2 V."""
    return adjoint_partition(kind, lam, cg_tensor, cg_square)


# -- the predictor ----------------------------------------------------------------

def springer_condition(ad) -> bool:
    """Sufficiency gate: dim g(4) = dim g(2) - 1, i.e. exactly one block of size 3.

    Only meaningful for adjoint partitions of distinguished nilpotents, where
    every block is odd; a non-odd block is an error, not a False.
    """
    ad = Partition(ad)
    if any(x % 2 == 0 for x in ad):
        raise BlocksNotAllOdd(f"{tuple(ad)} has an even block")
    return ad.multiplicity(3) == 1


def predict_blocks(data, n: int) -> Partition:
    """Block sizes 2f_i + 1 with f_i = -e_i mod (n+1), each in 1..n.  An n
    that is not an integer >= 0 raises InvalidInput."""
    n = _count(n, 0, "n")
    exps = _counts(data.exponents if isinstance(data, WeylTypeData) else data, None, "an exponent")
    modulus = n + 1
    blocks = []
    for e in exps:
        if e % modulus == 0:
            raise ExponentDivisible(
                f"exponent {e} is divisible by {modulus}; the torus would have a fixed vector")
        f = (-e) % modulus
        blocks.append(2 * f + 1)
    return Partition(sorted(blocks, reverse=True))


def is_distinguished(kind: str, lam) -> bool:
    """GL: one part; Sp: distinct even parts; SO: distinct odd parts."""
    check_kind(kind)
    parts = tuple(Partition(lam))
    if kind == "GL":
        return len(parts) == 1
    parity = 0 if kind == "Sp" else 1
    return len(set(parts)) == len(parts) and all(x % 2 == parity for x in parts)


def _weyl_family(kind: str, dim: int):
    if kind == "GL":
        return "A", dim - 1
    if kind == "Sp":
        return "C", dim // 2
    return ("B", (dim - 1) // 2) if dim % 2 else ("D", dim // 2)


@dataclass(frozen=True)
class PredictorReport:
    kind: str
    lam: tuple
    family: str
    rank: int
    n: int
    gate: bool
    predicted: Partition | None
    ad: Partition
    contained: bool

    to_json = _fields_json({"kind": "type", "lam": "lambda"})


def check_theorem(kind: str, lam) -> PredictorReport:
    """Full predictor pipeline for a distinguished classical nilpotent.

    GL is taken traceless: the adjoint partition drops the central J_1.  When
    the sufficiency gate holds the predicted multiset must embed in the
    adjoint partition; that containment is asserted, everything else is data.
    """
    lam = Partition(lam)
    if not is_distinguished(kind, lam):
        raise NotDistinguished(f"{tuple(lam)} is not distinguished for {kind}")
    ad = ad_partition_char0(kind, lam)
    if kind == "GL":
        ad = ad.difference(Partition((1,)))
    family, rank = _weyl_family(kind, lam.dim)
    data = exponents(family, rank)
    n = (max(ad) - 1) // 2 if len(ad) else 0
    gate = springer_condition(ad)
    try:
        predicted = predict_blocks(data, n)
        contained = not Counter(predicted) - Counter(ad)
    except ExponentDivisible:
        if gate:
            raise
        predicted = None
        contained = False
    if gate and not contained:
        raise AlgebraError(
            f"gate passed but prediction {tuple(predicted)} not contained in {tuple(ad)}")
    return PredictorReport(kind=kind, lam=tuple(lam), family=family, rank=rank,
                           n=n, gate=gate, predicted=predicted, ad=ad,
                           contained=contained)
