"""Slow reference implementations that the fast paths are checked against.

``rref_mod`` is full Gauss-Jordan elimination over F_p that scans for each
pivot row by row and rewrites the whole matrix at every pivot; ``rref_frac``
is the same over Q in Fraction arithmetic, and ``rref_solve`` reads the
solution of a linear system off either; ``fraction_matmul`` is ``np.dot``
over Fraction objects;
``full_power_partition`` reads a Jordan type off the ranks of the full
powers N, N^2, ... ; ``gathered_tensor_partition`` is the Jordan type of
the law's operator on V (x) W, gathered as a whole matrix, and
``gathered_power_table`` the powers F^j of a law's gathered operator from
e_0, one vector-matrix product each; ``whole_matrix_adjoint`` builds the
classical adjoint operator on all of V (x) V*, Sym^2 V or wedge^2 V;
``operator_power_partition`` is wedge^m or Sym^m of a partition from
the gathered power operator straightened onto the quotient, and
``operator_square_partition`` the same at m = 2;
``kron_power_operator`` sums Kronecker products of the dense powers of phi
over the terms of the m-fold tensor series; ``quotient_maps`` builds the
dense projection onto wedge^m or Sym^m of k^d and the injection back, and
``dense_quotient_operator`` multiplies an operator through them;
``g2_direct_adjoint`` is the adjoint partition on the span of a basis, one
bracket or conjugate per basis element, and ``kron_wedge_operator`` the
operator on wedge^2 straightened from a (x) 1 + 1 (x) a or a (x) a - 1, with
``kron_wedge_adjoint`` its partition minus the one on the module;
``rank_probe_closure`` a Lie closure that ranks every candidate's probe
from scratch;
``loop_mult_matrix`` fills a multiplication matrix one monomial at a time,
and ``monomial_endomorphism_matrix`` an algebra endomorphism's matrix one
image monomial at a time; ``dense_coefficients`` writes a coefficient dict
into the array that ``canonical_series_operator`` reads, one entry at a
time.  ``DictSeries`` is the truncated-series layer as a dict of field
elements, one field operation per pair of terms, and the ``dict_*``
functions build on it series inversion, the symmetric split, law
evaluation, the m-fold tensor series and transported formal group laws.
``random_invertible`` draws a random invertible matrix by rejection,
``flatten`` lists a matrix's entries row after row, and ``monomial_basis``
the exponents of a box in Kronecker order.
All are deliberately plain so that they are easy to trust.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from jordanblocks.errors import InvalidInput, NotNilpotent
from jordanblocks.fgl import additive, iterated_tensor_series, multiplicative
from jordanblocks.linalg import (
    Matrix,
    Partition,
    canonical_series_operator,
    jordan_partition,
    nilpotent_from_partition,
    unipotent_partition,
)
from jordanblocks.repring import induced_quotient_operator, power_operator, tensor_operator
from jordanblocks.series import TruncatedPoly


def random_invertible(field, n: int, rng) -> Matrix:
    """Uniform-ish random invertible matrix, by rejection."""
    while True:
        m = Matrix.from_rows(field, [[field.random_element(rng) for _ in range(n)]
                                     for _ in range(n)])
        if m.rank() == n:
            return m


def flatten(mat: Matrix) -> np.ndarray:
    """The entries of a matrix as field elements, row after row."""
    return mat.a.reshape(-1)


def monomial_basis(trunc) -> list:
    """All exponent tuples in the box, ordered to match iterated Kronecker
    products (first variable most significant)."""
    return list(itertools.product(*[range(r) for r in trunc]))


def rref_mod(a: np.ndarray, p: int, stop_col: int | None = None):
    """RREF over F_p with pivots before ``stop_col``; returns (reduced, pivots)."""
    a = a.copy() % p
    m, n = a.shape
    stop = n if stop_col is None else stop_col
    r = 0
    pivots = []
    for c in range(stop):
        piv = None
        for i in range(r, m):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def rref_rank_mod(a: np.ndarray, p: int) -> int:
    return len(rref_mod(a, p)[1])


def fraction_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two Fraction object arrays, one Fraction operation per term."""
    return np.dot(a, b)


def rref_frac(a: np.ndarray, stop_col: int | None = None):
    """Gauss-Jordan elimination over Q in Fraction arithmetic with pivots
    before ``stop_col``; returns (reduced object array, pivots)."""
    a = np.array([[Fraction(x) for x in row] for row in a], dtype=object).reshape(a.shape)
    m, n = a.shape
    stop = n if stop_col is None else stop_col
    r = 0
    pivots = []
    for c in range(stop):
        piv = next((i for i in range(r, m) if a[i, c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] / a[r, c]
        for i in range(m):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def rref_rank_frac(a: np.ndarray) -> int:
    """Rank over Q by Gauss-Jordan elimination in Fraction arithmetic."""
    return len(rref_frac(a)[1])


def rref_solve(b: Matrix, rhs: Matrix) -> Matrix | None:
    """x with b x = rhs and every free coordinate zero, read off the RREF of
    [b | rhs]; None when a column of rhs is outside the column span of b."""
    field, k = b.field, b.ncols
    aug = np.hstack([b.a, rhs.a])
    red, pivots = rref_mod(aug, field.p, stop_col=k) if field.p else rref_frac(aug, k)
    if any(x != 0 for x in red[len(pivots):, k:].flat):
        return None
    x = Matrix.zeros(field, k, rhs.ncols).a.copy()
    x[pivots] = red[:len(pivots), k:]
    return Matrix(field, x)


def full_power_partition(n_mat) -> Partition:
    """Jordan type from dim ker N^k, ranking every full power N^k from scratch."""
    n = n_mat.nrows
    p = n_mat.field.p
    if n == 0:
        return Partition(())
    kernel_dims = []
    power = n_mat
    prev = 0
    while True:
        d = n - (rref_rank_mod(power.a, p) if p else rref_rank_frac(power.a))
        if d == prev:
            raise NotNilpotent("matrix is not nilpotent")
        kernel_dims.append(d)
        if d == n:
            break
        prev = d
        power = power @ n_mat if p else Matrix(n_mat.field, fraction_matmul(power.a, n_mat.a))
    diffs = [kernel_dims[0]] + [b - a for a, b in zip(kernel_dims, kernel_dims[1:])]
    parts = [sum(1 for c in diffs if c >= i) for i in range(1, diffs[0] + 1)]
    return Partition(sorted(parts, reverse=True))


def dense_coefficients(field, coeffs, shape) -> tuple:
    """(num, den) of the coefficients {a: c_a} in the box ``shape``, one
    entry at a time: the rationals over their least common denominator."""
    values = np.zeros(shape, dtype=object)
    for exp, c in coeffs.items():
        if all(e < r for e, r in zip(exp, shape)):
            values[exp] = Fraction(field(c))
    den = math.lcm(1, *[Fraction(x).denominator for x in values.flat])
    return np.array([int(x * den) for x in values.flat], dtype=object).reshape(shape), den


def gathered_tensor_partition(field, lam, mu, coeffs) -> Partition:
    """Jordan type of F(phi (x) 1, 1 (x) psi) for the canonical nilpotents
    of ``lam`` and ``mu``, from the whole operator gathered from the law's
    coefficients ``coeffs`` and the Krylov ranks of ``jordan_partition``."""
    box = (max(lam, default=0), max(mu, default=0))
    return jordan_partition(canonical_series_operator(
        field, (lam, mu), *dense_coefficients(field, coeffs, box)))


def whole_matrix_adjoint(kind: str, lam, field, unipotent: bool) -> Partition:
    """ad(X) (or Ad(u) with ``unipotent``) of type lam on the whole adjoint module.

    GL: X (x) 1 + 1 (x) X^T, or (1+X) (x) (1+X^T) - 1; Sp/SO: Sym^2/wedge^2
    of X with the additive law, or with the multiplicative law, whose unit
    shift is Ad(u) - 1.
    """
    lam = Partition(lam)
    x = nilpotent_from_partition(field, lam)
    if kind == "GL":
        if unipotent:
            eye = Matrix.identity(field, lam.dim)
            return unipotent_partition((eye + x).kron(eye + x.T))
        return jordan_partition(tensor_operator(x, x.T, additive(field)))
    law = multiplicative(field) if unipotent else additive(field)
    top = tensor_operator(x, x, law)
    shape = "sym" if kind == "Sp" else "wedge"
    return jordan_partition(induced_quotient_operator(top, lam.dim, 2, shape))


def operator_power_partition(lam, m: int, kind: str, law, field) -> Partition:
    """Jordan type of wedge^m (``kind == "wedge"``) or Sym^m of the canonical
    nilpotent of ``lam`` under the law: the gathered power operator on
    V^(x)m straightened onto the quotient, with no block sum."""
    lam = Partition(lam)
    x = power_operator(lam, m, law, field)
    return jordan_partition(induced_quotient_operator(x, lam.dim, m, kind))


def operator_square_partition(lam, shape: str, law, field) -> Partition:
    """``operator_power_partition`` at m = 2."""
    return operator_power_partition(lam, 2, shape, law, field)


def kron_power_operator(phi, m: int, law):
    """sum of c * phi^{a_1} (x) ... (x) phi^{a_m} over the m-fold tensor series,
    for any nilpotent phi, from its dense powers and Kronecker products."""
    field = phi.field
    pows = [Matrix.identity(field, phi.nrows)]
    while not pows[-1].is_zero():
        pows.append(pows[-1] @ phi)
    pows.pop()
    series = iterated_tensor_series(law, m, (len(pows),) * m)
    out = Matrix.zeros(field, phi.nrows ** m, phi.nrows ** m)
    for exp, c in series.coeffs.items():
        term = pows[exp[0]]
        for a in exp[1:]:
            term = term.kron(pows[a])
        out = out + term.scale(c)
    return out


def quotient_maps(field, d: int, m: int, kind: str):
    """(projection, injection, basis words) for wedge^m or Sym^m of k^d.

    wedge basis: strictly increasing words; Sym basis: weakly increasing.
    The projection straightens an arbitrary tensor word; the injection lifts
    a basis word to the plain tensor.
    """
    if kind == "wedge":
        words = list(itertools.combinations(range(d), m))
    elif kind == "sym":
        words = list(itertools.combinations_with_replacement(range(d), m))
    else:
        raise InvalidInput(f"unknown quotient kind {kind!r}")
    index = {w: i for i, w in enumerate(words)}
    strides = [d ** (m - 1 - i) for i in range(m)]

    def tindex(w):
        return sum(a * s for a, s in zip(w, strides))

    proj = Matrix.zeros(field, len(words), d ** m).a.copy()
    one = field.one
    for u in itertools.product(range(d), repeat=m):
        if kind == "wedge":
            if len(set(u)) < m:
                continue
            inversions = sum(1 for i in range(m) for j in range(i + 1, m) if u[i] > u[j])
            proj[index[tuple(sorted(u))], tindex(u)] = field.neg(one) if inversions % 2 else one
        else:
            proj[index[tuple(sorted(u))], tindex(u)] = one
    inj = Matrix.zeros(field, d ** m, len(words)).a.copy()
    for w in words:
        inj[tindex(w), index[w]] = one
    return Matrix(field, proj), Matrix(field, inj), words


def dense_quotient_operator(x, d: int, m: int, kind: str):
    """proj @ x @ inj: the map x induces on wedge^m or Sym^m of k^d, for an x
    that preserves the kernel of the projection."""
    proj, inj, _ = quotient_maps(x.field, d, m, kind)
    return proj @ x @ inj


def loop_mult_matrix(g):
    """Matrix of multiplication by g, one basis monomial and one term at a time."""
    basis = monomial_basis(g.trunc)
    index = {e: i for i, e in enumerate(basis)}
    out = Matrix.zeros(g.field, len(basis), len(basis)).a.copy()
    for j, exp in enumerate(basis):
        for e, c in g.coeffs.items():
            target = tuple(a + b for a, b in zip(exp, e))
            if all(t < r for t, r in zip(target, g.trunc)):
                i = index[target]
                out[i, j] = g.field.add(out[i, j], c)
    return Matrix(g.field, out)


def monomial_endomorphism_matrix(images):
    """Matrix of the algebra endomorphism Y_i -> images[i]: column e is the
    coefficient vector of the product of images[i] ** e_i, each power from
    the series arithmetic, written one coefficient at a time."""
    field, trunc = images[0].field, images[0].trunc
    basis = monomial_basis(trunc)
    index = {e: i for i, e in enumerate(basis)}
    out = Matrix.zeros(field, len(basis), len(basis)).a.copy()
    for j, exp in enumerate(basis):
        image = TruncatedPoly.constant(field, trunc, field.one)
        for g, e in zip(images, exp):
            image = image * g ** e
        for e, c in image.coeffs.items():
            out[index[e], j] = c
    return Matrix(field, out)


def gathered_power_table(field, box, coeffs) -> np.ndarray:
    """F^j mod (x^bx, y^by) for j <= bx + by - 2, as an array (j, a, b): the
    law's operator on k[x, y]/(x^bx, y^by) gathered as a whole matrix, and
    its powers from e_0 by one row product each.  Over F_p the entries are
    in range(p); over Q each power is divided by the gcd of its entries."""
    bx, by = box
    op = canonical_series_operator(field, ((bx,), (by,)),
                                   *dense_coefficients(field, coeffs, box)).num.astype(object)
    powers = np.zeros((bx + by - 1, bx * by), dtype=object)
    powers[0, 0] = 1
    for j in range(1, bx + by - 1):
        row = np.dot(powers[j - 1], op)
        if field.p:
            powers[j] = row % field.p
        else:
            powers[j] = row // max(math.gcd(*row.tolist()), 1)
    return powers.reshape(bx + by - 1, bx, by).astype(np.int64 if field.p else object)


# -- the dict reference of the truncated-series layer -----------------------------

class DictSeries:
    """A truncated series in k[Y_1..Y_m]/(Y_i^{r_i}) as a dict from exponent
    tuples to nonzero field elements, with one field operation per pair of
    terms: the reference for ``series.TruncatedPoly``."""

    def __init__(self, field, trunc, coeffs=None):
        self.field, self.trunc = field, tuple(trunc)
        self.coeffs = {}
        for exp, c in (coeffs or {}).items():
            c = field(c)
            if c != 0 and all(0 <= e < r for e, r in zip(exp, self.trunc)):
                self.coeffs[tuple(exp)] = c

    @classmethod
    def of(cls, poly) -> "DictSeries":
        return cls(poly.field, poly.trunc, dict(poly.coeffs))

    @classmethod
    def variable(cls, field, trunc, i):
        return cls(field, trunc, {tuple(int(j == i) for j in range(len(trunc))): 1})

    def coefficient(self, exp):
        return self.coeffs.get(tuple(exp), self.field.zero)

    def __add__(self, other):
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = self.field.add(out.get(exp, self.field.zero), c)
        return DictSeries(self.field, self.trunc, out)

    def __neg__(self):
        return DictSeries(self.field, self.trunc,
                          {e: self.field.neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.field(c)
        return DictSeries(self.field, self.trunc,
                          {e: self.field.mul(c, v) for e, v in self.coeffs.items()})

    def __mul__(self, other):
        field, out = self.field, {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = field.add(out.get(exp, field.zero), field.mul(c1, c2))
        return DictSeries(field, self.trunc, out)

    def substitute(self, gs) -> "DictSeries":
        """f(g_1, ..., g_m), every monomial a product of powers g_i^e, each
        power the one below it times g_i."""
        field, trunc = gs[0].field, gs[0].trunc
        powers = {}

        def power(i, e):
            if (i, e) not in powers:
                powers[i, e] = (power(i, e - 1) * gs[i] if e else
                                DictSeries(field, trunc, {(0,) * len(trunc): 1}))
            return powers[i, e]

        out = DictSeries(field, trunc)
        for exp, c in self.coeffs.items():
            term = DictSeries(field, trunc, {(0,) * len(trunc): c})
            for i, e in enumerate(exp):
                term = term * power(i, e)
            out = out + term
        return out

    def permute_variables(self, sigma) -> "DictSeries":
        return DictSeries(self.field, self.trunc,
                          {tuple(e[s] for s in sigma): c for e, c in self.coeffs.items()})

    def homogeneous_part(self, d: int) -> "DictSeries":
        return DictSeries(self.field, self.trunc,
                          {e: c for e, c in self.coeffs.items() if sum(e) == d})

    def truncate_degree(self, d: int) -> "DictSeries":
        return DictSeries(self.field, self.trunc,
                          {e: c for e, c in self.coeffs.items() if sum(e) <= d})


def dict_compose_inverse(f: DictSeries) -> DictSeries:
    """g with f(g) = t, one degree at a time: the coefficient of t^k in
    f(g) fixes g's coefficient of t^k."""
    field, r = f.field, f.trunc[0]
    lin_inv = field.inv(f.coefficient((1,)))
    g = DictSeries(field, (r,), {(1,): lin_inv})
    for k in range(2, r):
        err = f.substitute([g]).coefficient((k,))
        g = g + DictSeries(field, (r,), {(k,): field.mul(field.neg(err), lin_inv)})
    return g


def dict_symmetric_split(f: DictSeries) -> list:
    """Each term c Y^e of f in equal shares c/k to the k variables dividing it."""
    field, m = f.field, len(f.trunc)
    pieces = [{} for _ in range(m)]
    for exp, c in f.coeffs.items():
        support = [i for i, e in enumerate(exp) if e]
        for i in support:
            pieces[i][exp] = field.mul(c, field.inv(field(len(support))))
    return [DictSeries(field, f.trunc, piece) for piece in pieces]


def dict_law_eval(law, g: DictSeries, h: DictSeries, degree_cap=None) -> DictSeries:
    """F(g, h) from the law's coefficients dict, cut to the degree the
    algebra (or ``degree_cap``) holds."""
    needed = sum(r - 1 for r in g.trunc)
    if degree_cap is not None:
        needed = min(needed, degree_cap)
    series = DictSeries(law.field, (needed + 1, needed + 1),
                        {e: c for e, c in law.coeffs.items() if sum(e) <= needed})
    out = series.substitute([g, h])
    return out if degree_cap is None else out.truncate_degree(degree_cap)


def dict_iterated_tensor_series(law, m: int, trunc) -> DictSeries:
    """Y_1, then F(Y_1, Y_2), then F(previous, Y_i) for i = 3..m."""
    field = law.field
    ys = [DictSeries.variable(field, trunc, i) for i in range(m)]
    out = ys[0]
    for y in ys[1:]:
        out = dict_law_eval(law, out, y)
    return out


def dict_random_fgl_coeffs(seed: int, degree: int, field) -> dict:
    """The coefficients of ``fgl.random_fgl(seed, degree, field)``: the same
    seeded series g, and g(g^-1(u) + g^-1(v)) in dict arithmetic."""
    import random

    rng = random.Random(f"fgl:{seed}:{degree}:{field.p}")
    r = degree + 1
    g_coeffs = [field.zero, field.one] + [field.random_element(rng) for _ in range(2, r)]
    g = DictSeries(field, (r,), {(k,): c for k, c in enumerate(g_coeffs)})
    g_inv = dict_compose_inverse(g)
    u, v = DictSeries.variable(field, (r, r), 0), DictSeries.variable(field, (r, r), 1)
    inner = g_inv.substitute([u]) + g_inv.substitute([v])
    return g.substitute([inner]).truncate_degree(degree).coeffs


def g2_direct_adjoint(a: Matrix, basis: list, mode: str) -> Partition:
    """Jordan type of ad a (``mode == "nilpotent"``) or Ad a - 1 on the span
    of ``basis``: one Matrix bracket or conjugate per basis element, their
    coordinates by RREF, and the type by full powers; None when an image
    leaves the span."""
    field = a.field
    if mode == "unipotent":
        a_inv = a.inverse()
        images = [a @ z @ a_inv - z for z in basis]
    else:
        images = [a @ z - z @ a for z in basis]
    columns = Matrix(field, np.column_stack([flatten(z) for z in basis]))
    coords = rref_solve(columns, Matrix(field, np.column_stack([flatten(z) for z in images])))
    return None if coords is None else full_power_partition(coords)


def kron_wedge_operator(a: Matrix, mode: str) -> Matrix:
    """The operator on wedge^2 of a's space: a (x) 1 + 1 (x) a for a nilpotent
    a, a (x) a - 1 for a unipotent a, straightened onto the quotient."""
    eye = Matrix.identity(a.field, a.nrows)
    if mode == "nilpotent":
        top = a.kron(eye) + eye.kron(a)
    else:
        top = a.kron(a) - eye.kron(eye)
    return induced_quotient_operator(top, a.nrows, 2, "wedge")


def kron_wedge_adjoint(a: Matrix, mode: str) -> Partition:
    """Jordan type on wedge^2 (``kron_wedge_operator``) minus the one on the
    module, both by full powers."""
    v = a if mode == "nilpotent" else a - Matrix.identity(a.field, a.nrows)
    wedge = full_power_partition(kron_wedge_operator(a, mode))
    return wedge.difference(full_power_partition(v))


def rank_probe_closure(generators) -> list:
    """Basis of the Lie algebra generated by the matrices: a bracket is kept
    when stacking its flattening under the kept ones raises the RREF rank."""
    basis, rows = [], []

    def try_add(mat):
        probe = np.vstack(rows + [flatten(mat)])
        p = mat.field.p
        if (rref_rank_mod(probe, p) if p else rref_rank_frac(probe)) > len(rows):
            rows.append(flatten(mat))
            basis.append(mat)
            return True
        return False

    for g in generators:
        try_add(g)
    frontier = list(basis)
    while frontier:
        new = []
        for a in frontier:
            for b in list(basis):
                br = a @ b - b @ a
                if not br.is_zero() and try_add(br):
                    new.append(br)
        frontier = new
    return basis
