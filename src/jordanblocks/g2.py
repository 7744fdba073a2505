"""An explicit so_7 model of the exceptional 14-dimensional subalgebra (p > 3).

The 7-dimensional space carries the split symmetric form pairing e_i with
e_{-i} and e_0 with itself (basis order 1, 2, 3, 0, -3, -2, -1, so the Gram
matrix is the anti-diagonal identity).  Simple root vectors y_1, y_2, y_3 of
so_7 are fixed shear matrices; the subalgebra is generated by

    x_{a1} = y_1 + y_3 (short),  x_{a2} = y_2 (long),

together with lowering counterparts built from the transposes.  The relative
coefficient in the lowering short generator is forced by the Cartan-matrix
relations and the build certifies dim = 14 by bracket closure.  Orbit
representatives and their adjoint partitions are computed two independent
ways, in ``g2_table`` from three batches of Jordan types
(``jordan_partitions``).  The direct route stacks the 14 basis matrices,
forms the images [x, z] and u z u^-1 - z of every representative with a few
float64 products, and reads their coordinates in the basis off one linear
solve.  The wedge route takes the multiset difference of the partition on
wedge^2 of the 7-dimensional module and the partition on the module itself;
the 21 x 21 operator on wedge^2 is the additive compound of a nilpotent x,
or the second compound (the 2 x 2 minors) of a unipotent u minus 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlgebraError,
    BadPrime,
    DoesNotStabilize,
    InvalidInput,
    NotNilpotent,
    NotUnipotent,
    ShapeMismatch,
)
from .fields import Field, _count
from .linalg import (
    Matrix,
    Partition,
    _fields_json,
    _insert_rows,
    _matmul_mod,
    _rows,
    exp_nilpotent,
    jordan_partition,
    jordan_partitions,
    solve_in_columns,
    unipotent_partition,
)

ORBITS = ("A1", "A1tilde", "G2a1", "G2reg")

#: Jordan type of each orbit on the 7-dimensional module.
V_PARTITIONS = {
    "A1": (2, 2, 1, 1, 1),
    "A1tilde": (3, 2, 2),
    "G2a1": (3, 3, 1),
    "G2reg": (7,),
}

#: Torus weights of the ordered basis (e_1, e_2, e_3, e_0, e_-3, e_-2, e_-1).
BASIS_WEIGHTS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0), (0, 0, -1), (0, -1, 0), (-1, 0, 0),
)

SIMPLE_ROOTS = ((1, -1, 0), (0, 1, -1), (0, 0, 1))  # gamma_1, gamma_2, gamma_3


@dataclass(frozen=True)
class SO7Model:
    """Validated ambient data: the form, the three simple root vectors, p > 3."""

    p: int
    field: Field
    gram: Matrix
    y: tuple      # (y_1, y_2, y_3)
    y_neg: tuple  # transposes, weights -gamma_i


def bracket(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


def _unit(field, i, j):
    a = np.zeros((7, 7), dtype=np.int64)
    a[i, j] = 1
    return Matrix(field, a)


def build_so7_model(p: int) -> SO7Model:
    """The model at a prime p > 3; BadPrime for a p that is not an integer >= 4."""
    field = Field(_count(p, 4, "the model's p", BadPrime))
    gram = Matrix(field, np.eye(7, dtype=np.int64)[::-1].copy())
    y1 = _unit(field, 0, 1) - _unit(field, 5, 6)
    y2 = _unit(field, 1, 2) - _unit(field, 4, 5)
    y3 = _unit(field, 2, 3) - _unit(field, 3, 4)
    ys = (y1, y2, y3)
    for y, root in zip(ys, SIMPLE_ROOTS):
        if not (y.T @ gram + gram @ y).is_zero():
            raise AlgebraError("root vector leaves so_7")
        if weight_components(y) != {root}:
            raise AlgebraError("root vector has the wrong torus weight")
    if not bracket(y1, y3).is_zero():
        raise AlgebraError("y_1 and y_3 must commute")
    return SO7Model(p=field.p, field=field, gram=gram, y=ys, y_neg=tuple(y.T for y in ys))


def weight_components(mat: Matrix) -> set:
    """Set of nonzero torus weights of a matrix in this basis."""
    out, entries = set(), mat.num
    for i in range(7):
        for j in range(7):
            if entries[i, j] != 0:
                out.add(tuple(a - b for a, b in zip(BASIS_WEIGHTS[i], BASIS_WEIGHTS[j])))
    return out


def g2_generators(model: SO7Model) -> tuple:
    """Raising and lowering generators of the 14-dimensional subalgebra.

    The lowering short generator is y_1^T + 2 y_3^T: the factor 2 makes
    h = [x_{a1}, x_{-a1}] act as +2 on x_{a1} and -3 on x_{a2}, the Cartan
    integers of the short/long pair.
    """
    y1, y2, y3 = model.y
    n1, n2, n3 = model.y_neg
    return (y1 + y3, y2, n1 + n3.scale(2), n2)


def lie_closure(generators) -> list:
    """Basis of the Lie subalgebra generated by the given matrices.

    A bracket joins the basis when its flattened numerator grows one echelon
    of the basis kept so far (``linalg._insert_rows``)."""
    basis: list = []
    pivots: dict = {}

    def try_add(mat: Matrix) -> bool:
        p, flat = mat.field.p, mat.num.reshape(1, -1)
        count = len(pivots)
        _insert_rows(pivots, _rows(flat, p), p, flat.shape[1])
        if len(pivots) > count:
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
                br = bracket(a, b)
                if not br.is_zero() and try_add(br):
                    new.append(br)
        frontier = new
    return basis


_subalgebra_cache: dict = {}


def g2_subalgebra(model: SO7Model) -> list:
    """The 14-dimensional bracket closure of the four generators (cached per model)."""
    basis = _subalgebra_cache.get(model)
    if basis is None:
        basis = lie_closure(g2_generators(model))
        if len(basis) != 14:
            raise AlgebraError(f"closure has dimension {len(basis)}, expected 14")
        _subalgebra_cache[model] = basis
    return basis


def _nilpotent_rep(orbit: str, model: SO7Model) -> Matrix:
    """``g2_nilpotent_rep`` before its check of the type on the module."""
    xa1, xa2, _, _ = g2_generators(model)
    if orbit == "G2a1":
        x12 = bracket(xa1, xa2)
        return x12 + bracket(xa1, x12)
    if orbit not in ORBITS:
        raise InvalidInput(f"unknown orbit {orbit!r}")
    return {"A1": xa2, "A1tilde": xa1, "G2reg": xa1 + xa2}[orbit]


def g2_nilpotent_rep(orbit: str, model: SO7Model) -> Matrix:
    """Nilpotent orbit representative on the 7-dimensional module.

    A1 is the long simple root vector, A1tilde the short one, the regular
    class is the sum, and G2a1 is the Richardson representative
    [x_{a1}, x_{a2}] + [x_{a1}, [x_{a1}, x_{a2}]].
    """
    out = _nilpotent_rep(orbit, model)
    _require_partition(orbit, jordan_partition(out))
    return out


def _unipotent_rep(orbit: str, model: SO7Model) -> Matrix:
    """``g2_unipotent_rep`` before its check of the type on the module."""
    y1, y2, y3 = model.y
    if orbit == "A1":
        out = exp_nilpotent(y2)
    elif orbit == "A1tilde":
        out = exp_nilpotent(y1) @ exp_nilpotent(y3)
    elif orbit == "G2reg":
        out = exp_nilpotent(y1) @ exp_nilpotent(y3) @ exp_nilpotent(y2)
    elif orbit == "G2a1":
        out = exp_nilpotent(_nilpotent_rep("G2a1", model))
    else:
        raise InvalidInput(f"unknown orbit {orbit!r}")
    if (out.T @ model.gram @ out) != model.gram:
        raise AlgebraError(f"{orbit} unipotent representative does not preserve the form")
    return out


def g2_unipotent_rep(orbit: str, model: SO7Model) -> Matrix:
    """Unipotent orbit representative, built from exponentials of root vectors."""
    out = _unipotent_rep(orbit, model)
    _require_partition(orbit, unipotent_partition(out))
    return out


def _require_partition(orbit: str, got: Partition) -> None:
    """Raise unless an orbit representative has the tabled type on the module."""
    if got != V_PARTITIONS[orbit]:
        raise AlgebraError(f"{orbit} representative has Jordan type {got} on the "
                           f"7-dimensional module, not {V_PARTITIONS[orbit]}")


def _coordinate_blocks(reps: list, basis: list) -> list:
    """The matrix of ad a (mode "nilpotent") or Ad a - 1 ("unipotent") on the
    span of ``basis``, in its coordinates, for each (a, mode) of ``reps``.

    Every image is a z r - z s with the basis stacked as z, from stacked
    float64 products (``linalg._matmul_mod``, BadPrime past its bound):
    r = 1, s = a gives [a, z], and r = a^-1, s = 1 gives a z a^-1 - z.  The
    coordinates of all images come from one solve against the basis, and
    block i holds the columns of representative i.  Raises DoesNotStabilize when any image
    leaves the span, which signals a representative outside the subalgebra
    or its group, ShapeMismatch for an a of another shape or field than the
    basis, NotUnipotent for a singular a in unipotent mode, and, from
    ceil(log2 d) stacked squarings of every a or a - 1 (d x d), NotNilpotent
    or NotUnipotent unless each is nilpotent.
    """
    field, shape = basis[0].field, basis[0].shape
    if not field.p:
        raise InvalidInput("the direct route works over F_p")
    p, zs, eye = field.p, np.stack([z.num for z in basis]), np.eye(shape[0], dtype=np.int64)
    k = len(zs)
    factors, nilpotents = [], []
    for a, mode in reps:
        if a.shape != shape or a.field != field:
            raise ShapeMismatch(f"a {a.shape} matrix over {a.field} does not act on the span "
                                f"of {shape} matrices over {field}")
        if mode == "nilpotent":
            factors.append((a.num, eye, a.num))
            nilpotents.append(a.num)
        elif mode == "unipotent":
            try:
                factors.append((a.num, a.inverse().num, eye))
            except ZeroDivisionError:
                raise NotUnipotent("a singular matrix is not unipotent") from None
            nilpotents.append((a.num - eye) % p)
        else:
            raise InvalidInput(f"unknown mode {mode!r}")
    # N^(2^s) with 2^s >= the dimension vanishes exactly when N is nilpotent
    powers = np.stack(nilpotents)
    for _ in range((shape[0] - 1).bit_length()):
        powers = _matmul_mod(powers, powers, p)
    for (_, mode), power in zip(reps, powers):
        if power.any():
            raise (NotNilpotent("matrix is not nilpotent") if mode == "nilpotent"
                   else NotUnipotent("u - 1 is not nilpotent"))
    left, right, sub = (np.stack(f)[:, None] for f in zip(*factors))
    images = (_matmul_mod(_matmul_mod(left, zs, p), right, p) - _matmul_mod(zs, sub, p)) % p
    coords = solve_in_columns(Matrix._trusted(field, zs.reshape(k, -1).T.copy()),
                              Matrix._trusted(field, images.reshape(len(reps) * k, -1).T.copy()))
    if coords is None:
        raise DoesNotStabilize("a representative does not stabilize the subalgebra")
    return [Matrix._trusted(field, coords.num[:, i * k:(i + 1) * k].copy())
            for i in range(len(reps))]


def adjoint_partition_direct(a: Matrix, basis: list, mode: str) -> Partition:
    """Partition of ad a (nilpotent mode) or Ad a - 1 (unipotent mode) on the
    span of ``basis``, through ``_coordinate_blocks``.

    Raises DoesNotStabilize when the operator moves the span out of itself,
    ShapeMismatch unless a has the shape and field of the basis (7 x 7 over
    F_p for the model's), NotNilpotent for an a that is not nilpotent in
    nilpotent mode, and NotUnipotent for one that is not unipotent in
    unipotent mode.
    """
    return jordan_partition(_coordinate_blocks([(a, mode)], basis)[0])


#: rows (k, l) and columns (i, j) of wedge^2 of the module, the pairs
#: k < l in the order of ``repring.induced_quotient_operator``
_K, _L = (np.array(c)[:, None] for c in zip(*itertools.combinations(range(7), 2)))
_I, _J = _K.T, _L.T


def _wedge_square(a: Matrix, mode: str) -> Matrix:
    """The operator on wedge^2 V of a 7 x 7 matrix, no Kronecker product built.

    A nilpotent a sends e_i ^ e_j to a e_i ^ e_j + e_i ^ a e_j, whose
    coordinate at e_k ^ e_l (k < l) is
    a[k,i] d[l,j] - a[l,i] d[k,j] + d[k,i] a[l,j] - d[l,i] a[k,j], d the
    Kronecker delta: the additive compound.  A unipotent a sends it to
    a e_i ^ a e_j, whose coordinate is the 2 x 2 minor of a at rows k, l and
    columns i, j: the second compound, and the operator is that minus 1.
    """
    x = a.num
    if mode == "nilpotent":
        out = (x[_K, _I] * (_L == _J) - x[_L, _I] * (_K == _J)
               + (_K == _I) * x[_L, _J] - (_L == _I) * x[_K, _J])
        return Matrix._from_ints(a.field, out, a.den)
    if mode == "unipotent":
        minors = x[_K, _I] * x[_L, _J] - x[_L, _I] * x[_K, _J]
        return Matrix._from_ints(a.field, minors, a.den ** 2) - Matrix.identity(a.field, 21)
    raise InvalidInput(f"unknown mode {mode!r}")


def wedge_route_adjoint(a: Matrix, mode: str) -> Partition:
    """Adjoint partition as (partition on wedge^2 V) minus (partition on V).

    Valid because wedge^2 of the 7-dimensional module splits off one copy of
    it, with the adjoint module as the complement, and both actions stabilize
    the splitting.  The operator on wedge^2 V is ``_wedge_square``.  Raises
    ShapeMismatch unless a is 7 x 7, and NotUnipotent for a singular a in
    unipotent mode.
    """
    if a.shape != (7, 7):
        raise ShapeMismatch(f"a {a.shape} matrix does not act on the 7-dimensional module")
    if mode == "nilpotent":
        v_part = jordan_partition(a)
    elif mode == "unipotent":
        v_part = unipotent_partition(a)
    else:
        raise InvalidInput(f"unknown mode {mode!r}")
    return jordan_partition(_wedge_square(a, mode)).difference(v_part)


def expected_adjoint(orbit: str, p: int) -> Partition:
    """The published adjoint table, including the p = 7 regular special case."""
    table = {
        "A1": (3, 2, 2, 2, 2, 1, 1, 1),
        "A1tilde": (4, 4, 3, 1, 1, 1),
        "G2a1": (5, 3, 3, 3),
    }
    if orbit == "G2reg":
        return Partition((7, 7) if p == 7 else (11, 3))
    return Partition(table[orbit])


@dataclass(frozen=True)
class G2Row:
    orbit: str
    p: int
    v_partition: Partition
    adjoint_nilpotent: Partition
    adjoint_unipotent: Partition
    routes_agree: bool
    matches_table: bool

    to_json = _fields_json({"v_partition": "V"})


def g2_table(p: int) -> list:
    """All four orbit rows at the given prime, adjoint partitions by both
    routes, from three batches of Jordan types (``jordan_partitions``): x
    and u - 1 on V, checked as the builders check them, the coordinate
    blocks, and wedge^2 V less those types on V (the wedge route)."""
    model = build_so7_model(p)
    xs = [_nilpotent_rep(orbit, model) for orbit in ORBITS]
    us = [_unipotent_rep(orbit, model) for orbit in ORBITS]
    reps = [(x, "nilpotent") for x in xs] + [(u, "unipotent") for u in us]
    blocks = _coordinate_blocks(reps, g2_subalgebra(model))
    v_parts = jordan_partitions(xs + [u - Matrix.identity(model.field, 7) for u in us])
    for orbit, part in zip(ORBITS + ORBITS, v_parts):
        _require_partition(orbit, part)
    direct = jordan_partitions(blocks)
    wedge = [part.difference(v_part) for part, v_part in
             zip(jordan_partitions([_wedge_square(a, mode) for a, mode in reps]), v_parts)]
    rows = []
    for orbit, ad_direct, big_ad_direct, ad_wedge, big_ad_wedge in zip(
            ORBITS, direct[:4], direct[4:], wedge[:4], wedge[4:]):
        expected = expected_adjoint(orbit, p)
        rows.append(G2Row(
            orbit=orbit,
            p=p,
            # both representatives are certified to have this type on V
            v_partition=Partition(V_PARTITIONS[orbit]),
            adjoint_nilpotent=ad_direct,
            adjoint_unipotent=big_ad_direct,
            routes_agree=ad_direct == ad_wedge and big_ad_direct == big_ad_wedge,
            matches_table=ad_direct == expected and big_ad_direct == expected,
        ))
    return rows
