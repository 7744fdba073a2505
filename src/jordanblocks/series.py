"""Arithmetic in truncated power-series algebras k[Y_1..Y_m]/(Y_i^{r_i}).

A series is an exact array (``linalg._Exact``, as a ``Matrix`` is) whose
``num`` holds at index e the coefficient of Y^e, so its shape is the
truncation ``trunc``; no kernel builds a ``Fraction``.  The constructor
takes a dict {exponent: c}, each coefficient through the field (7 is 2 in
F_5, and 5 is dropped there), and ``coeffs`` is that dict of the nonzero
terms again, built on each read.  Binary operations and substitution take
only series of one field and truncation (else ShapeMismatch).  A product
adds, for each nonzero term c Y^e of the sparser operand, c times the other
operand shifted by e and cut to the box; over F_p the int64 sum is reduced
once at the end while terms (p-1)^2 < 2**63, else after each term
(``_accumulate``).  Substitution and powers read one memoized table of
monomials g_1^{e_1} ... g_m^{e_m}, each one product of the entry below it
with a g_i; the inverse under composition solves the linear g(f) = t one
degree at a time.  Multiplication matrices are gathered from ``num``
(``canonical_series_operator``), and an endomorphism's matrix is the
monomial recursion on whole columns.  The symmetric split f = f_1 + ... +
f_m with Y_i | f_i gives each term in equal shares to the variables that
divide it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
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
from .fields import Field, _count, _counts
from .linalg import (
    Matrix,
    _Exact,
    _common_denominator,
    _fit,
    canonical_series_operator,
)


def _box(trunc: Sequence[int]) -> tuple:
    """The truncation vector as a tuple of counts >= 1 (``fields._counts``)."""
    return _counts(trunc, 1, "a truncation exponent")


class TruncatedPoly(_Exact):
    """Element of k[Y_1..Y_m] modulo (Y_1^{r_1}, ..., Y_m^{r_m}), the
    truncation ``trunc`` the shape of ``num`` (``_Exact``)."""

    __slots__ = ()

    def __init__(self, field: Field, trunc: Sequence[int], coeffs: dict | None = None):
        """Coefficients go through ``field``, exponents are counts >= 0."""
        trunc = _box(trunc)
        values = np.zeros(trunc, dtype=np.int64 if field.p else object)
        for exp, c in (coeffs or {}).items():
            exp = _counts(exp, 0, "an exponent")
            if len(exp) != len(trunc):
                raise ShapeMismatch(f"exponent {exp} in a {len(trunc)}-variable algebra")
            c = field(c)
            if all(e < r for e, r in zip(exp, trunc)):
                values[exp] = c
        self.field, self.num, self.den = field, values, 1
        if not field.p:
            # an lcm of denominators in lowest terms is prime to the numerators
            ints, self.den = _common_denominator(values.ravel().tolist())
            self.num = np.array(ints, dtype=object).reshape(trunc)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, trunc):
        return cls(field, trunc, {})

    @classmethod
    def constant(cls, field, trunc, c):
        return cls(field, trunc, {(0,) * len(trunc): c})

    @classmethod
    def variable(cls, field, trunc, i: int):
        """Y_i; InvalidInput unless i is a count below the number of variables."""
        trunc = _box(trunc)
        if _count(i, 0, "a variable index") >= len(trunc):
            raise InvalidInput(f"no variable {i} in a {len(trunc)}-variable algebra")
        return cls(field, trunc, {tuple(int(j == i) for j in range(len(trunc))): field.one})

    @classmethod
    def univariate(cls, field, r: int, coeffs: Sequence) -> "TruncatedPoly":
        """From a list of coefficients indexed by degree, truncated at Y^r."""
        r = _count(r, 1, "a truncation exponent")
        return cls(field, (r,), {(k,): c for k, c in enumerate(coeffs) if k < r})

    # -- basics ---------------------------------------------------------------

    @property
    def trunc(self) -> tuple:
        return self.num.shape

    @property
    def num_vars(self) -> int:
        return self.num.ndim

    def _elements(self, ints: list) -> list:
        """Entries of ``num`` as field elements."""
        return ints if self.field.p else [Fraction(x, self.den) for x in ints]

    @property
    def coeffs(self) -> MappingProxyType:
        """The nonzero terms {exponent: field element}, read-only, built on each read."""
        exps = map(tuple, np.argwhere(self.num).tolist())
        return MappingProxyType(dict(zip(exps, self._elements(self.num[self.num != 0].tolist()))))

    def coefficient(self, exp):
        exp = tuple(exp)
        if len(exp) != self.num_vars or not all(0 <= e < r for e, r in zip(exp, self.trunc)):
            return self.field.zero
        return self._elements([int(self.num[exp])])[0]

    def constant_term(self):
        return self.coefficient((0,) * self.num_vars)

    def __repr__(self):
        if self.is_zero():
            return "0"
        names = "YZWVU" if self.num_vars <= 5 else None
        terms = []
        for exp, c in sorted(self.coeffs.items(), key=lambda t: (sum(t[0]), t[0])):
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

    def _what(self) -> str:
        return f"a series over {self.field}{self.trunc}"

    def _check_shape(self, other):
        if type(other) is not TruncatedPoly or self.field != other.field or self.trunc != other.trunc:
            raise self._mismatch(other, "operation")

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        """For each nonzero term c Y^e of the sparser operand, c times the
        other operand shifted by e, the part past the box cut off."""
        self._check_shape(other)
        sparse, dense = sorted((self, other), key=lambda f: np.count_nonzero(f.num))
        trunc, num = self.trunc, dense.num
        terms = [(c, tuple(slice(x, None) for x in e),
                  num[tuple(slice(0, r - x) for x, r in zip(e, trunc))])
                 for e, c in zip(np.argwhere(sparse.num).tolist(),
                                 sparse.num[sparse.num != 0].tolist())]
        return _accumulate(self.field, trunc, terms, sparse.den * dense.den)

    def __pow__(self, k: int) -> "TruncatedPoly":
        k = _count(k, 0, "the power of a truncated series")
        if self.constant_term() == 0:  # powers past the box's top degree are 0
            k = min(k, sum(self.trunc) - len(self.trunc) + 1)
        return _monomial_table([self])((k,))

    # -- degree helpers -------------------------------------------------------

    def _where(self, keep: np.ndarray) -> "TruncatedPoly":
        """The terms at the entries where ``keep`` is true."""
        return TruncatedPoly._from_ints(self.field, np.where(keep, self.num, 0), self.den)

    def homogeneous_part(self, d: int) -> "TruncatedPoly":
        return self._where(np.indices(self.trunc).sum(axis=0) == d)

    def truncate_degree(self, d: int) -> "TruncatedPoly":
        """Drop all terms of total degree > d."""
        return self._where(np.indices(self.trunc).sum(axis=0) <= d)

    def _in_box(self, trunc: tuple) -> "TruncatedPoly":
        """The same terms in the box ``trunc`` of at least as many variables:
        new variables come last, and terms outside the box are dropped."""
        num = self.num.reshape(self.trunc + (1,) * (len(trunc) - self.num_vars))
        return TruncatedPoly._from_ints(self.field, _fit(num, trunc), self.den)

    def univariate_coeffs(self) -> list:
        if self.num_vars != 1:
            raise ShapeMismatch("univariate access on a multivariate series")
        return self._elements(self.num.tolist())

    # -- substitution ---------------------------------------------------------

    def substitute(self, gs: Sequence["TruncatedPoly"]) -> "TruncatedPoly":
        """f(g_1, ..., g_m); every g_i must have zero constant term."""
        if len(gs) != self.num_vars:
            raise ShapeMismatch(f"{self.num_vars} variables but {len(gs)} substitutions")
        for g in gs:
            if type(g) is not TruncatedPoly:
                raise self._mismatch(g, "substitution")
            gs[0]._check_shape(g)
            if g.constant_term() != 0:
                raise NonzeroConstantTerm("substitution with nonzero constant term")
        monomial = _monomial_table(gs)
        monomials = [monomial(tuple(e)) for e in np.argwhere(self.num).tolist()]
        den = math.lcm(*[g.den for g in monomials])
        terms = [(c, ..., g._over(den))
                 for c, g in zip(self.num[self.num != 0].tolist(), monomials)]
        return _accumulate(gs[0].field, gs[0].trunc, terms, den * self.den)

    def permute_variables(self, sigma: Sequence[int]) -> "TruncatedPoly":
        """Apply sigma(Y_i) = Y_{sigma^{-1}(i)}; exponent vectors map to e o sigma."""
        if sorted(sigma) != list(range(self.num_vars)):
            raise InvalidInput(f"{tuple(sigma)} is not a permutation of {self.num_vars} variables")
        return TruncatedPoly._from_ints(self.field, _fit(self.num.transpose(sigma), self.trunc),
                                        self.den)

    def is_symmetric(self) -> bool:
        if len(set(self.trunc)) > 1:
            raise NotSymmetric("symmetry is only meaningful with equal truncations")
        return all(np.array_equal(self.num, self.num.swapaxes(i, i + 1))
                   for i in range(self.num_vars - 1))

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


def _accumulate(field: Field, trunc: tuple, terms: list, den: int) -> TruncatedPoly:
    """The sum of c * x over den for the ``terms`` (c, where, x), x added into
    the entries ``where`` of the box.  Over F_p each c * x is below (p-1)**2,
    so int64 holds len(terms) of them while that is below 2**63 / (p-1)**2;
    past that each term is reduced, and an entry stays below p + (p-1)**2."""
    p = field.p
    acc = np.zeros(trunc, dtype=np.int64 if p else object)
    each = p and len(terms) * (p - 1) ** 2 >= 2**63
    for c, where, x in terms:
        acc[where] += c * x
        if each:
            acc[where] %= p
    return TruncatedPoly._from_ints(field, acc, den)


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


# -- operator matrices ----------------------------------------------------------

def mult_matrix(g: TruncatedPoly) -> Matrix:
    """Matrix of multiplication by g on the monomial basis.

    Multiplication by Y_i is the transposed shift J_{r_i}^T in factor i, so
    the matrix is the transpose of g evaluated at the single blocks
    J_{r_1}, ..., J_{r_m}.
    """
    blocks = [(r,) for r in g.trunc]
    return canonical_series_operator(g.field, blocks, g.num, g.den).T


def _check_images(images: Sequence[TruncatedPoly]) -> tuple:
    """The truncation of the images' algebra: InvalidInput for no images,
    ShapeMismatch unless every image is a series in its box, one per
    variable."""
    if not images:
        raise InvalidInput("need at least one variable")
    if type(images[0]) is not TruncatedPoly:
        raise ShapeMismatch(f"the images must be series, not a {type(images[0]).__name__}")
    trunc = images[0].trunc
    if len(images) != len(trunc):
        raise ShapeMismatch(f"{len(images)} images for {len(trunc)} variables")
    for g in images:
        images[0]._check_shape(g)
    return trunc


def endomorphism_matrix(images: Sequence[TruncatedPoly]) -> Matrix:
    """Matrix of the algebra endomorphism Y_i -> images[i] on the monomial basis.

    Column e holds the coefficients of g^e = g_i g^(e - u_i), that is
    mult_matrix(g_i) times column e - u_i.  So the columns are built by
    variable, the last one first: if C holds the columns of the exponents
    with e_j = 0 for all j <= i, the columns with e_j = 0 for all j < i are
    [C, M C, ..., M^(r_i - 1) C] with M = mult_matrix(g_i), in basis order,
    and the whole matrix costs sum(r_i - 1) products.  Refusals as
    ``_check_images``.
    """
    trunc, field = _check_images(images), images[0].field
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
    trunc = _check_images(images)
    for i, g in enumerate(images):
        if g.constant_term() != 0:
            raise NonzeroConstantTerm(f"g_{i + 1} has a constant term")
        if np.any(np.take(g.num, 0, axis=i)):
            raise InvalidInput(f"Y_{i + 1} does not divide every term of g_{i + 1}")
        if trunc[i] > 1 and g.coefficient(tuple(int(j == i) for j in range(len(trunc)))) == 0:
            raise ZeroLinearScalar(f"g_{i + 1} has no Y_{i + 1} term")
    return endomorphism_matrix(images)


# -- composition inverse --------------------------------------------------------

def compose(f: TruncatedPoly, g: TruncatedPoly) -> TruncatedPoly:
    return f.substitute([g])


def compose_inverse(f: TruncatedPoly) -> TruncatedPoly:
    """g with f(g) = g(f) = t modulo the truncation.  g(f) = sum x_k f^k = t
    is linear in g, and f^k = xi^k t^k + higher for xi the linear coefficient
    of f, so x_k is the coefficient of t^k that the terms below k leave, over
    xi^k.  The inverse on one side is the inverse on both; both are checked.
    """
    coeffs, r, field = f.univariate_coeffs(), f.trunc[0], f.field
    if coeffs[0] != 0:
        raise NotInvertibleLinearPart("constant term is nonzero")
    if r < 2 or coeffs[1] == 0:
        raise NotInvertibleLinearPart("linear coefficient is zero")
    lin_inv = field.inv(coeffs[1])
    power = _monomial_table([f])
    t = TruncatedPoly.variable(field, (r,), 0)
    # rest = t - g(f) for the terms of g found so far
    rest, xs, xi_inv_k = t, [field.zero], field.one
    for k in range(1, r):
        xi_inv_k = field.mul(xi_inv_k, lin_inv)
        xs.append(field.mul(rest.coefficient((k,)), xi_inv_k))
        rest = rest - power((k,)).scale(xs[k])
    g = TruncatedPoly.univariate(field, r, xs)
    if not rest.is_zero() or compose(f, g) != t:
        raise AlgebraError("compose_inverse: the result is not a two-sided inverse")
    return g


# -- symmetric splitting --------------------------------------------------------

def elementary_symmetric(field: Field, trunc, j: int) -> TruncatedPoly:
    trunc = _box(trunc)
    exps = np.indices(trunc)
    terms = (exps <= 1).all(axis=0) & (exps.sum(axis=0) == j)
    return TruncatedPoly._from_ints(field, terms.astype(np.int64))


def symmetric_split(f: TruncatedPoly) -> list:
    """Split a symmetric series f = Y_1 + ... + Y_m + higher into f_1..f_m.

    Term by term: a term c Y^e goes to the k variables that divide it, c/k
    to each.  The pieces satisfy, and this function verifies before
    returning: f_i = Y_i modulo degree 2, Y_i | f_i, sigma f_i =
    f_{sigma^{-1}(i)}, and sum f_i = f.  Requires m! invertible, so that
    every share 1/k with k <= m exists.
    """
    field, trunc, m = f.field, f.trunc, f.num_vars
    if field.p and field.p <= m:
        raise FactorialNotInvertible(f"{m}! vanishes in characteristic {field.p}")
    if f.constant_term() != 0:
        raise NonzeroConstantTerm("a series with a constant term has no split")
    if not f.is_symmetric():
        raise NotSymmetric("input series is not symmetric")
    if f.homogeneous_part(1) != elementary_symmetric(field, trunc, 1):
        raise NotSymmetric("series is not Y_1 + ... + Y_m modulo degree 2")

    # the share 1/k of a term in k variables, as an integer over `den`
    den = 1 if field.p else math.lcm(*range(1, m + 1))
    shares = [0] + [field.inv(field(k)) if field.p else den // k for k in range(1, m + 1)]
    exps = np.indices(trunc)
    each = f.num * np.array(shares, dtype=f.num.dtype)[(exps > 0).sum(axis=0)]
    out = [TruncatedPoly._from_ints(field, np.where(exps[i] > 0, each, 0), f.den * den)
           for i in range(m)]
    _verify_split(f, out)
    return out


def _verify_split(f: TruncatedPoly, fs: list) -> None:
    field, trunc, m = f.field, f.trunc, f.num_vars
    for i, fi in enumerate(fs):
        if fi.homogeneous_part(1) != TruncatedPoly.variable(field, trunc, i):
            raise AlgebraError(f"f_{i + 1} is not Y_{i + 1} modulo degree 2")
        if np.any(np.take(fi.num, 0, axis=i)):
            raise AlgebraError(f"Y_{i + 1} does not divide f_{i + 1}")
    if sum(fs, TruncatedPoly.zero(field, trunc)) != f:
        raise AlgebraError("split does not sum back to f")
    for k in range(m - 1):
        sigma = list(range(m))
        sigma[k], sigma[k + 1] = k + 1, k
        if any(fs[i].permute_variables(sigma) != fs[sigma[i]] for i in range(m)):
            raise AlgebraError("split is not permutation equivariant")
