"""One-dimensional formal group laws and generalized two-variable laws.

A law is a truncated two-variable series F(u, v) with invertible linear part
xi_1 u + xi_2 v.  A *formal group law* additionally has xi_1 = xi_2 = 1 and
passes the unit, commutativity and associativity axioms up to its truncation;
:func:`validate_fgl` reports each axiom separately, since the tensor
constructions downstream only need the invertible linear part.  F(g, h) is
the law's series (built once from its coefficients), cut to the degree the
target algebra can hold, substituted at (g, h) with
:meth:`TruncatedPoly.substitute`.

The built-in laws (additive u+v and multiplicative u+v+uv, each built once
per field as a law is immutable, and u+v+cuv) are exact: their coefficient
support is finite, so they can be used at any truncation.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .errors import InvalidInput, InvalidLaw, TruncationTooShort
from .fields import Field, _count
from .series import TruncatedPoly, _box, compose_inverse


class GeneralizedLaw:
    """Two-variable series with invertible linear part, degree-truncated.

    Each coefficient is taken into the field first, so a linear coefficient
    that vanishes there raises InvalidLaw, and laws equal over the field
    have equal fingerprints.  A key that is not a pair (a, b), and a degree
    or exponent that is not a count (``fields._count``), raise InvalidLaw.
    The series cut to (n, n) is symmetric exactly for n <= ``_symmetric_to``,
    the least max(a, b) with c_ab != c_ba (infinity where there is none).
    """

    __slots__ = ("field", "degree", "coeffs", "exact", "name", "_fingerprint", "_symmetric_to",
                 "_series")

    def __init__(self, field: Field, degree: int, coeffs: dict, exact: bool = False,
                 name: str | None = None):
        self.field = field
        self.degree = _count(degree, None, "the degree", InvalidLaw)
        self.exact = exact
        self.name = name
        clean = {}
        for key, c in coeffs.items():
            try:
                a, b = key
            except (TypeError, ValueError):
                raise InvalidLaw(f"a coefficient key must be a pair, got {key!r}") from None
            a, b = (_count(e, 0, "an exponent", InvalidLaw) for e in (a, b))
            if a + b > self.degree:
                raise InvalidLaw(f"coefficient ({a},{b}) outside degree bound {self.degree}")
            c = field(c)
            if c != 0:
                clean[(a, b)] = c
        if clean.get((0, 0)):
            raise InvalidLaw("law has a nonzero constant term")
        if not clean.get((1, 0)) or not clean.get((0, 1)):
            raise InvalidLaw("linear part must be invertible (xi_1, xi_2 nonzero)")
        #: read-only, so the fingerprint, taken on first use, stays the law's identity
        self.coeffs = MappingProxyType(clean)
        self._fingerprint = None
        self._symmetric_to = min((max(a, b) for (a, b), c in clean.items()
                                  if clean.get((b, a)) != c), default=math.inf)
        self._series = None

    @property
    def xi1(self):
        return self.coeffs[(1, 0)]

    @property
    def xi2(self):
        return self.coeffs[(0, 1)]

    def coefficient(self, a: int, b: int):
        return self.coeffs.get((a, b), self.field.zero)

    def has_unit_linear_part(self) -> bool:
        return self.xi1 == self.field.one and self.xi2 == self.field.one

    def fingerprint(self):
        """Hashable identity used for memoization keys, built on the first
        call: a law that no memo key reads holds its coefficients once."""
        if self._fingerprint is None:
            self._fingerprint = (self.field.p, self.degree, self.exact,
                                 frozenset(self.coeffs.items()))
        return self._fingerprint

    def __eq__(self, other):
        if not isinstance(other, GeneralizedLaw):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self):
        return hash(self.fingerprint())

    def __repr__(self):
        if self.name:
            return f"<law {self.name} over {self.field}>"
        return f"<law deg<={self.degree} over {self.field}>"

    def require_degree(self, d: int) -> None:
        if not self.exact and self.degree < d:
            raise TruncationTooShort(
                f"law truncated at degree {self.degree} but degree {d} is needed")

    def _poly(self, trunc: tuple) -> TruncatedPoly:
        """The law's series cut to the box ``trunc``."""
        if self._series is None:
            self._series = TruncatedPoly(self.field, (self.degree + 1,) * 2, self.coeffs)
        return self._series._in_box(trunc)

    def as_poly(self, trunc: Sequence[int]) -> TruncatedPoly:
        """The series as an element of k[u,v]/(u^{r_1}, v^{r_2})."""
        if len(trunc) != 2:
            raise InvalidInput("a law is a two-variable series")
        trunc = _box(trunc)
        self.require_degree(trunc[0] + trunc[1] - 2)
        return self._poly(trunc)

    def eval(self, g: TruncatedPoly, h: TruncatedPoly,
             degree_cap: int | None = None) -> TruncatedPoly:
        """F(g, h) for two series with zero constant term in a common algebra.

        The law's terms up to the degree that the algebra (or ``degree_cap``)
        can hold form a series in k[u, v], which is substituted at (g, h).
        With ``degree_cap`` set, only terms of total degree <= cap are kept;
        those are fully determined by the law's coefficients up to the cap.
        """
        needed = sum(r - 1 for r in g.trunc)
        if degree_cap is not None:
            needed = min(needed, degree_cap)
        self.require_degree(needed)
        out = self._poly((needed + 1,) * 2).truncate_degree(needed).substitute([g, h])
        return out if degree_cap is None else out.truncate_degree(degree_cap)


def _require_law(law) -> None:
    """The one law-type rule: anything but a law in a law's place is InvalidInput."""
    if not isinstance(law, GeneralizedLaw):
        raise InvalidInput(f"a law is due, got {type(law).__name__}")


@functools.cache
def additive(field: Field) -> GeneralizedLaw:
    one = field.one
    return GeneralizedLaw(field, 2, {(1, 0): one, (0, 1): one}, exact=True, name="additive")


@functools.cache
def multiplicative(field: Field) -> GeneralizedLaw:
    one = field.one
    return GeneralizedLaw(field, 2, {(1, 0): one, (0, 1): one, (1, 1): one},
                          exact=True, name="multiplicative")


def scaled_multiplicative(field: Field, c) -> GeneralizedLaw:
    """u + v + c uv; a formal group law for any c (c = 0 degenerates to additive)."""
    one = field.one
    coeffs = {(1, 0): one, (0, 1): one}
    c = field(c)
    if c != 0:
        coeffs[(1, 1)] = c
    return GeneralizedLaw(field, 2, coeffs, exact=True, name=f"u+v+{c}uv")


@dataclass(frozen=True)
class LawReport:
    """Axiom-by-axiom validation result for a candidate formal group law."""

    unit: bool
    commutative: bool
    associative: bool
    degree: int

    @property
    def ok(self) -> bool:
        return self.unit and self.commutative and self.associative


def validate_fgl(law: GeneralizedLaw, degree: int | None = None) -> LawReport:
    """Check F(u,0)=u, F(0,v)=v, symmetry and associativity up to a degree.

    Associativity compares F(F(u,v),w) with F(u,F(v,w)) coefficient-wise on
    all terms of total degree <= degree; higher terms are not determined by a
    truncated law and are ignored.
    """
    _require_law(law)
    field = law.field
    if degree is None:
        degree = max(law.degree, 6) if law.exact else law.degree
    degree = _count(degree, 0, "the degree")
    series = law._poly((degree + 1,) * 2).truncate_degree(degree)
    unit = law.has_unit_linear_part() and not (series.num[0, 2:].any() or series.num[2:, 0].any())
    commutative = np.array_equal(series.num, series.num.T)

    trunc = (degree + 1, degree + 1, degree + 1)
    u = TruncatedPoly.variable(field, trunc, 0)
    v = TruncatedPoly.variable(field, trunc, 1)
    w = TruncatedPoly.variable(field, trunc, 2)
    left = law.eval(law.eval(u, v, degree_cap=degree), w, degree_cap=degree)
    right = law.eval(u, law.eval(v, w, degree_cap=degree), degree_cap=degree)
    return LawReport(unit=unit, commutative=commutative, associative=left == right,
                     degree=degree)


def random_generalized_law(seed: int, degree: int, field: Field,
                           unit_linear: bool = False) -> GeneralizedLaw:
    """Seed-deterministic random law: random coefficients for a+b >= 2."""
    import random

    degree = _count(degree, 1, "the degree", InvalidLaw)
    rng = random.Random(f"law:{seed}:{degree}:{field.p}")
    one = field.one
    coeffs = {}
    if unit_linear:
        coeffs[(1, 0)] = one
        coeffs[(0, 1)] = one
    else:
        coeffs[(1, 0)] = field.random_nonzero(rng)
        coeffs[(0, 1)] = field.random_nonzero(rng)
    for total in range(2, degree + 1):
        for a in range(total + 1):
            c = field.random_element(rng)
            if c != 0:
                coeffs[(a, total - a)] = c
    return GeneralizedLaw(field, degree, coeffs, exact=False, name=f"random#{seed}")


def random_fgl(seed: int, degree: int, field: Field) -> GeneralizedLaw:
    """Seeded valid formal group law: the additive law transported along a
    random invertible series g, i.e. F(u, v) = g(g^{-1}(u) + g^{-1}(v)).

    Unit, commutativity and associativity hold by construction, so these are
    honest formal group laws in every characteristic.
    """
    import random

    degree = _count(degree, 1, "the degree")
    rng = random.Random(f"fgl:{seed}:{degree}:{field.p}")
    r = degree + 1
    g_coeffs = [field.zero, field.one] + [field.random_element(rng) for _ in range(2, r)]
    g = TruncatedPoly.univariate(field, r, g_coeffs)
    g_inv = compose_inverse(g)

    along_u = g_inv._in_box((r, r))  # g^{-1}(u), and g^{-1}(v) with u and v swapped
    inner = along_u + along_u.permute_variables([1, 0])
    series = g.substitute([inner]).truncate_degree(degree)
    return GeneralizedLaw(field, degree, series.coeffs, exact=False, name=f"transported#{seed}")


def iterated_tensor_series(law: GeneralizedLaw, m: int, trunc: Sequence[int]) -> TruncatedPoly:
    """The m-fold tensor series: Y_1 for m=1, F(Y_1, Y_2) (the law's own
    series) for m=2, then F(previous, Y_m).

    For a valid formal group law the result is symmetric in the variables and
    congruent to Y_1 + ... + Y_m modulo degree 2.
    """
    _require_law(law)
    m, trunc = _count(m, 1, "m"), _box(trunc)
    if len(trunc) != m:
        raise InvalidInput("truncation vector must have one entry per factor")
    field = law.field
    if m == 1:
        return TruncatedPoly.variable(field, trunc, 0)
    out = law.as_poly(trunc[:2])._in_box(_box(trunc))
    for i in range(2, m):
        out = law.eval(out, TruncatedPoly.variable(field, trunc, i))
    return out


# -- law files ------------------------------------------------------------------

def law_to_json(law: GeneralizedLaw) -> dict:
    coeffs = [{"a": a, "b": b, "c": law.field.to_string(c)}
              for (a, b), c in sorted(law.coeffs.items())]
    return {"p": law.field.p, "trunc": law.degree, "coeffs": coeffs}


def _integer(data: dict, key: str) -> int:
    """The integer entry ``key`` of a law file, a string of digits too;
    InvalidLaw for what is not a count (``fields._count``)."""
    value = data[key]
    return _count(int(value) if isinstance(value, str) else value, None, key, InvalidLaw)


def _scalar(field: Field, value):
    """A coefficient c of a law file: a number or a string the field reads.
    A bool would read as the int it subclasses, so it is refused."""
    if isinstance(value, bool):
        raise InvalidLaw(f"{value!r} is a bool, not a scalar")
    return field(value)


def law_from_json(data: dict) -> GeneralizedLaw:
    try:
        field = Field(_integer(data, "p"))
        degree = _integer(data, "trunc")
        coeffs = {}
        for entry in data["coeffs"]:
            coeffs[(_integer(entry, "a"), _integer(entry, "b"))] = _scalar(field, entry["c"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidLaw(f"malformed law data: {exc}") from exc
    # the linear part defaults to u + v unless overridden explicitly
    coeffs.setdefault((1, 0), field.one)
    coeffs.setdefault((0, 1), field.one)
    return GeneralizedLaw(field, max(degree, 2), coeffs, exact=False, name="file")


def load_law(path: str) -> GeneralizedLaw:
    """The law in a JSON file; ``os.fspath`` refuses an int or a bool, which
    ``open`` would take for a file descriptor and close, so nothing opens."""
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, TypeError) as exc:
        raise InvalidLaw(f"cannot read the law file: {exc}") from exc
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise InvalidLaw(f"{path}: not valid JSON ({exc})") from exc
    return law_from_json(data)
