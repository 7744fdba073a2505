"""Arithmetic in truncated power-series algebras k[Y_1..Y_m]/(Y_i^{r_i}).

Coefficients are stored sparsely as a dict from exponent tuples to nonzero
field elements; the constructor takes each coefficient through the field
(7 is 2 in F_5, and 5 is dropped there).  The truncation vector is part of
the type: binary operations require identical truncation, and products
drop any monomial whose exponent leaves the box.  Sums, negatives, scalar
multiples, products, constants and degree parts (and a law's own series)
skip the constructor's per-term checks and coercion, which the validated
operands already guarantee; arithmetic drops only the coefficients that
cancel.  On top of the ring arithmetic this module provides substitution,
series composition and inversion, matrices of multiplication operators
(gathered from the coefficients in one step) and algebra endomorphisms on
the monomial basis, and the constructive splitting of a symmetric series
f = f_1 + ... + f_m with Y_i | f_i: each term goes in equal shares to the
variables that divide it.  Substitution and powers read one memoized
table of monomials g_1^{e_1} ... g_m^{e_m}, each entry one product of the
entry below it with a g_i; an endomorphism matrix is the same recursion on
whole columns, one matrix product by mult_matrix(g_i) per step.
``build_automorphism`` takes the images g_i themselves and checks that Y_i
divides g_i with a nonzero Y_i coefficient, which makes the endomorphism
invertible.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence

import numpy as np

from .errors import (
    AlgebraError,
    FactorialNotInvertible,
    InvalidInput,
    NonzeroConstantTerm,
    NotInvertibleLinearPart,
    NotSymmetric,
    ShapeMismatch,
    ZeroLinearScalar,
)
from .fields import Field
from .linalg import Matrix, canonical_series_operator


def _box(trunc: Sequence[int]) -> tuple:
    """The truncation vector as a tuple of ints, each at least 1."""
    trunc = tuple(int(r) for r in trunc)
    if any(r < 1 for r in trunc):
        raise InvalidInput(f"truncation exponents must be >= 1, got {trunc}")
    return trunc


class TruncatedPoly:
    """Element of k[Y_1..Y_m] modulo (Y_1^{r_1}, ..., Y_m^{r_m})."""

    __slots__ = ("field", "trunc", "coeffs")

    def __init__(self, field: Field, trunc: Sequence[int], coeffs: dict | None = None):
        """Coefficients go through ``field``, exponents through ``operator.index``."""
        self.field = field
        self.trunc = _box(trunc)
        clean = {}
        for exp, c in (coeffs or {}).items():
            try:
                exp = tuple(map(operator.index, exp))
            except TypeError:
                raise InvalidInput(f"exponent {exp!r} is not a tuple of integers") from None
            if len(exp) != len(self.trunc):
                raise ShapeMismatch(f"exponent {exp} in a {len(self.trunc)}-variable algebra")
            c = field(c)
            if all(0 <= e < r for e, r in zip(exp, self.trunc)):
                if c != 0:
                    clean[exp] = c
            elif min(exp) < 0:
                raise InvalidInput(f"negative exponent {exp}")
        self.coeffs = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, trunc):
        return cls(field, trunc, {})

    @classmethod
    def constant(cls, field, trunc, c):
        trunc, c = _box(trunc), field(c)
        return cls._unchecked(field, trunc, {(0,) * len(trunc): c} if c != 0 else {})

    @classmethod
    def variable(cls, field, trunc, i: int):
        exp = tuple(1 if j == i else 0 for j in range(len(trunc)))
        return cls(field, trunc, {exp: field.one})

    @classmethod
    def univariate(cls, field, r: int, coeffs: Sequence) -> "TruncatedPoly":
        """From a list of coefficients indexed by degree, truncated at Y^r."""
        return cls(field, (r,), {(k,): c for k, c in enumerate(coeffs) if k < r})

    # -- basics ---------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.trunc)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exp):
        return self.coeffs.get(tuple(exp), self.field.zero)

    def constant_term(self):
        return self.coefficient((0,) * self.num_vars)

    def __eq__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return (self.field == other.field and self.trunc == other.trunc
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.trunc, frozenset(self.coeffs.items())))

    def __repr__(self):
        if self.is_zero():
            return "0"
        names = "YZWVU" if self.num_vars <= 5 else None
        terms = []
        for exp in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            c = self.coeffs[exp]
            mono = "".join(
                (f"{names[i]}" if names else f"Y{i + 1}") + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp) if e)
            if not mono:
                terms.append(str(c))
            elif c == 1:
                terms.append(mono)
            else:
                terms.append(f"{c}*{mono}")
        return " + ".join(terms)

    def _check_shape(self, other):
        if self.field != other.field or self.trunc != other.trunc:
            raise ShapeMismatch(
                f"operands over {self.field}{self.trunc} vs {other.field}{other.trunc}")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        self._check_shape(other)
        out = dict(self.coeffs)
        add = self.field.add
        for exp, c in other.coeffs.items():
            if exp in out:
                c = add(out[exp], c)
                if c == 0:
                    del out[exp]
                    continue
            out[exp] = c
        return TruncatedPoly._unchecked(self.field, self.trunc, out)

    def __neg__(self):
        neg = self.field.neg
        return TruncatedPoly._unchecked(self.field, self.trunc,
                                        {e: neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "TruncatedPoly":
        c = self.field(c)
        mul = self.field.mul
        return TruncatedPoly._unchecked(self.field, self.trunc,
                                        {e: x for e, v in self.coeffs.items()
                                         if (x := mul(c, v)) != 0})

    def __mul__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        self._check_shape(other)
        field = self.field
        add, mul = field.add, field.mul
        out: dict = {}
        trunc = self.trunc
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                if any(e >= r for e, r in zip(exp, trunc)):
                    continue
                prod = mul(c1, c2)
                out[exp] = add(out[exp], prod) if exp in out else prod
        # every exponent is already in the box: only cancelled terms need dropping
        return TruncatedPoly._unchecked(field, trunc, {e: c for e, c in out.items() if c != 0})

    @classmethod
    def _unchecked(cls, field: Field, trunc: tuple, coeffs: dict) -> "TruncatedPoly":
        """Wrap data that already satisfies the constructor's checks: ``trunc``
        a tuple of ints >= 1, every exponent a tuple inside the box, every
        coefficient a nonzero field element."""
        out = cls.__new__(cls)
        out.field, out.trunc, out.coeffs = field, trunc, coeffs
        return out

    def __pow__(self, k: int) -> "TruncatedPoly":
        if k < 0:
            raise InvalidInput(f"negative power {k} of a truncated series")
        if self.constant_term() == 0:  # powers past the box's top degree are 0
            k = min(k, sum(self.trunc) - len(self.trunc) + 1)
        return _monomial_table([self])((k,))

    # -- degree helpers -------------------------------------------------------

    def homogeneous_part(self, d: int) -> "TruncatedPoly":
        return TruncatedPoly._unchecked(self.field, self.trunc,
                                        {e: c for e, c in self.coeffs.items() if sum(e) == d})

    def truncate_degree(self, d: int) -> "TruncatedPoly":
        """Drop all terms of total degree > d."""
        return TruncatedPoly._unchecked(self.field, self.trunc,
                                        {e: c for e, c in self.coeffs.items() if sum(e) <= d})

    def univariate_coeffs(self) -> list:
        if self.num_vars != 1:
            raise ShapeMismatch("univariate access on a multivariate series")
        out = [self.field.zero] * self.trunc[0]
        for (k,), c in self.coeffs.items():
            out[k] = c
        return out

    # -- substitution ---------------------------------------------------------

    def substitute(self, gs: Sequence["TruncatedPoly"]) -> "TruncatedPoly":
        """f(g_1, ..., g_m); every g_i must have zero constant term."""
        if len(gs) != self.num_vars:
            raise ShapeMismatch(f"{self.num_vars} variables but {len(gs)} substitutions")
        for g in gs:
            gs[0]._check_shape(g)
            if g.constant_term() != 0:
                raise NonzeroConstantTerm("substitution with nonzero constant term")
        monomial = _monomial_table(gs)
        return sum((monomial(e).scale(c) for e, c in self.coeffs.items()),
                   TruncatedPoly.zero(gs[0].field, gs[0].trunc))

    def permute_variables(self, sigma: Sequence[int]) -> "TruncatedPoly":
        """Apply sigma(Y_i) = Y_{sigma^{-1}(i)}; exponent vectors map to e o sigma."""
        if sorted(sigma) != list(range(self.num_vars)):
            raise InvalidInput(f"{tuple(sigma)} is not a permutation of {self.num_vars} variables")
        out = {}
        for exp, c in self.coeffs.items():
            out[tuple(exp[sigma[j]] for j in range(len(exp)))] = c
        return TruncatedPoly(self.field, self.trunc, out)

    def is_symmetric(self) -> bool:
        if len(set(self.trunc)) > 1:
            raise NotSymmetric("symmetry is only meaningful with equal truncations")
        m = self.num_vars
        for i in range(m - 1):
            sigma = list(range(m))
            sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
            if self.permute_variables(sigma) != self:
                return False
        return True

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        terms = [{"exp": list(e), "c": self.field.to_string(c)}
                 for e, c in sorted(self.coeffs.items())]
        return {"vars": self.num_vars, "trunc": list(self.trunc), "terms": terms}

    @classmethod
    def from_json(cls, field: Field, data: dict) -> "TruncatedPoly":
        trunc = tuple(data["trunc"])
        if len(trunc) != data["vars"]:
            raise ShapeMismatch("vars/trunc length mismatch")
        coeffs = {tuple(t["exp"]): field(t["c"]) for t in data["terms"]}
        return cls(field, trunc, coeffs)


def _monomial_table(bases: Sequence[TruncatedPoly]):
    """``monomial(e)`` = prod of bases[i]**e[i], memoized: each entry is the
    entry with the last nonzero exponent of e lowered by one, times that base.
    Missing entries below e are filled in a loop, not by recursion, so an
    exponent may pass the recursion limit.  All bases share one algebra."""
    one = TruncatedPoly.constant(bases[0].field, bases[0].trunc, bases[0].field.one)
    table = {(0,) * len(bases): one}

    def monomial(e: tuple) -> TruncatedPoly:
        chain = []
        while e not in table:
            i = max(j for j, x in enumerate(e) if x)
            chain.append((e, i))
            e = e[:i] + (e[i] - 1,) + e[i + 1:]
        for top, i in reversed(chain):
            table[top] = table[e] * bases[i]
            e = top
        return table[e]

    return monomial


# -- monomial basis and operator matrices --------------------------------------

def monomial_basis(trunc: Sequence[int]) -> list:
    """All exponent tuples in the box, ordered to match iterated Kronecker
    products (first variable most significant)."""
    return list(itertools.product(*[range(r) for r in trunc]))


def mult_matrix(g: TruncatedPoly) -> Matrix:
    """Matrix of multiplication by g on the monomial basis.

    Multiplication by Y_i is the transposed shift J_{r_i}^T in factor i, so
    the matrix is the transpose of g evaluated at the single blocks
    J_{r_1}, ..., J_{r_m}.
    """
    blocks = [(r,) for r in g.trunc]
    return canonical_series_operator(g.field, blocks, g.coeffs).T


def endomorphism_matrix(images: Sequence[TruncatedPoly]) -> Matrix:
    """Matrix of the algebra endomorphism Y_i -> images[i] on the monomial basis.

    Column e holds the coefficients of g^e = g_i g^(e - u_i), that is
    mult_matrix(g_i) times column e - u_i.  So the columns are built by
    variable, the last one first: if C holds the columns of the exponents
    with e_j = 0 for all j <= i, the columns with e_j = 0 for all j < i are
    [C, M C, ..., M^(r_i - 1) C] with M = mult_matrix(g_i), in basis order,
    and the whole matrix costs sum(r_i - 1) products.
    """
    trunc, field = images[0].trunc, images[0].field
    if len(images) != len(trunc):
        raise ShapeMismatch(f"{len(images)} images for {len(trunc)} variables")
    for g in images:
        images[0]._check_shape(g)
    # the one column of the exponent 0: the constant 1
    columns = Matrix._from_ints(field, np.eye(math.prod(trunc), 1, dtype=np.int64))
    for g, r in zip(reversed(images), reversed(trunc)):
        mult = mult_matrix(g)
        blocks = [columns]
        for _ in range(r - 1):
            blocks.append(mult @ blocks[-1])
        columns = Matrix.hstack(blocks)
    return columns


def build_automorphism(images: Sequence[TruncatedPoly]) -> Matrix:
    """Matrix of the automorphism Y_i -> images[i] on the monomial basis.

    Each image g_i must have no constant term, Y_i must divide every term of
    it, and its Y_i coefficient must be nonzero wherever r_i > 1 (where
    r_i = 1, Y_i = 0 and so g_i = 0).  Then g_i = Y_i (xi_i + higher) with
    xi_i != 0, and the map is invertible.
    """
    if not images:
        raise InvalidInput("need at least one variable")
    trunc = images[0].trunc
    if len(images) != len(trunc):
        raise ShapeMismatch(f"{len(images)} images for {len(trunc)} variables")
    for i, g in enumerate(images):
        images[0]._check_shape(g)
        if g.constant_term() != 0:
            raise NonzeroConstantTerm(f"g_{i + 1} has a constant term")
        if any(exp[i] == 0 for exp in g.coeffs):
            raise InvalidInput(f"Y_{i + 1} does not divide every term of g_{i + 1}")
        if trunc[i] > 1 and g.coefficient(tuple(int(j == i) for j in range(len(trunc)))) == 0:
            raise ZeroLinearScalar(f"g_{i + 1} has no Y_{i + 1} term")
    return endomorphism_matrix(images)


# -- composition inverse --------------------------------------------------------

def compose(f: TruncatedPoly, g: TruncatedPoly) -> TruncatedPoly:
    return f.substitute([g])


def compose_inverse(f: TruncatedPoly) -> TruncatedPoly:
    """g with f(g) = g(f) = t modulo the truncation, solved degree by degree."""
    coeffs = f.univariate_coeffs()
    r = f.trunc[0]
    field = f.field
    if coeffs[0] != 0:
        raise NotInvertibleLinearPart("constant term is nonzero")
    if r < 2 or coeffs[1] == 0:
        raise NotInvertibleLinearPart("linear coefficient is zero")
    lin_inv = field.inv(coeffs[1])
    g = TruncatedPoly.univariate(field, r, [field.zero, lin_inv])
    for k in range(2, r):
        err = compose(f, g).univariate_coeffs()[k]
        if err != 0:
            correction = TruncatedPoly(field, (r,), {(k,): field.mul(field.neg(err), lin_inv)})
            g = g + correction
    t = TruncatedPoly.variable(field, (r,), 0)
    if compose(f, g) != t or compose(g, f) != t:
        raise AlgebraError("compose_inverse: the result is not a two-sided inverse")
    return g


# -- symmetric splitting --------------------------------------------------------

def elementary_symmetric(field: Field, trunc, j: int) -> TruncatedPoly:
    m = len(trunc)
    out = {}
    for subset in itertools.combinations(range(m), j):
        exp = tuple(1 if i in subset else 0 for i in range(m))
        out[exp] = field.one
    return TruncatedPoly(field, trunc, out)


def symmetric_split(f: TruncatedPoly) -> list:
    """Split a symmetric series f = Y_1 + ... + Y_m + higher into f_1..f_m.

    Term by term: a term c Y^e goes to the k variables that divide it, c/k
    to each.  The pieces satisfy, and this function verifies before
    returning: f_i = Y_i modulo degree 2, Y_i | f_i, sigma f_i =
    f_{sigma^{-1}(i)}, and sum f_i = f.  Requires m! invertible, so that
    every share 1/k with k <= m exists.
    """
    field = f.field
    trunc = f.trunc
    m = f.num_vars
    if field.p and field.p <= m:
        raise FactorialNotInvertible(f"{m}! vanishes in characteristic {field.p}")
    if f.constant_term() != 0:
        raise NonzeroConstantTerm("a series with a constant term has no split")
    if not f.is_symmetric():
        raise NotSymmetric("input series is not symmetric")
    linear = f.homogeneous_part(1)
    if linear != elementary_symmetric(field, trunc, 1):
        raise NotSymmetric("series is not Y_1 + ... + Y_m modulo degree 2")

    share = {k: field.inv(field(k)) for k in range(1, m + 1)}
    pieces: list = [{} for _ in range(m)]
    for exp, c in f.coeffs.items():
        support = [i for i, e in enumerate(exp) if e]
        c = field.mul(c, share[len(support)])
        for i in support:
            pieces[i][exp] = c
    out = [TruncatedPoly(field, trunc, coeffs) for coeffs in pieces]
    _verify_split(f, out)
    return out


def _verify_split(f: TruncatedPoly, fs: list) -> None:
    field, trunc, m = f.field, f.trunc, f.num_vars
    total = TruncatedPoly.zero(field, trunc)
    for i, fi in enumerate(fs):
        if fi.homogeneous_part(1) != TruncatedPoly.variable(field, trunc, i):
            raise AlgebraError(f"f_{i + 1} is not Y_{i + 1} modulo degree 2")
        if any(exp[i] == 0 for exp in fi.coeffs):
            raise AlgebraError(f"Y_{i + 1} does not divide f_{i + 1}")
        total = total + fi
    if total != f:
        raise AlgebraError("split does not sum back to f")
    for k in range(m - 1):
        sigma = list(range(m))
        sigma[k], sigma[k + 1] = sigma[k + 1], sigma[k]
        for i in range(m):
            if fs[i].permute_variables(sigma) != fs[sigma[i]]:
                raise AlgebraError("split is not permutation equivariant")
