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
ways: directly on the 14-dimensional subalgebra, and as the multiset
difference of the partition on wedge^2 of the 7-dimensional module and the
partition on the module itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadPrime, DoesNotStabilize
from .fields import Field
from .fgl import additive, multiplicative
from .linalg import (
    Matrix,
    Partition,
    exp_nilpotent,
    jordan_partition,
    solve_in_columns,
    unipotent_partition,
)
from .repring import induced_quotient_operator, tensor_operator

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
    m = Matrix.zeros(field, 7, 7)
    m.a[i, j] = field.one
    return m


def build_so7_model(p: int) -> SO7Model:
    if p <= 3:
        raise BadPrime(f"the construction needs p > 3, got {p}")
    field = Field(p)
    gram = Matrix.zeros(field, 7, 7)
    for i in range(7):
        gram.a[i, 6 - i] = field.one
    y1 = _unit(field, 0, 1) - _unit(field, 5, 6)
    y2 = _unit(field, 1, 2) - _unit(field, 4, 5)
    y3 = _unit(field, 2, 3) - _unit(field, 3, 4)
    ys = (y1, y2, y3)
    for y, root in zip(ys, SIMPLE_ROOTS):
        if not (y.T @ gram + gram @ y).is_zero():
            raise AssertionError("root vector leaves so_7")
        if weight_components(y) != {root}:
            raise AssertionError("root vector has the wrong torus weight")
    if not bracket(y1, y3).is_zero():
        raise AssertionError("y_1 and y_3 must commute")
    return SO7Model(p=p, field=field, gram=gram, y=ys, y_neg=tuple(y.T for y in ys))


def weight_components(mat: Matrix) -> set:
    """Set of nonzero torus weights of a matrix in this basis."""
    out = set()
    for i in range(7):
        for j in range(7):
            if mat.a[i, j] != 0:
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
    """Basis of the Lie subalgebra generated by the given matrices."""
    basis: list = []
    rows: list = []

    def try_add(mat: Matrix) -> bool:
        vec = mat.flatten()
        probe = Matrix(mat.field, np.vstack(rows + [vec]))
        if probe.rank() > len(rows):
            rows.append(vec)
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
    """The 14-dimensional bracket closure of the four generators (cached per p)."""
    basis = _subalgebra_cache.get(model.p)
    if basis is None:
        basis = lie_closure(g2_generators(model))
        if len(basis) != 14:
            raise AssertionError(f"closure has dimension {len(basis)}, expected 14")
        _subalgebra_cache[model.p] = basis
    return basis


def g2_nilpotent_rep(orbit: str, model: SO7Model) -> Matrix:
    """Nilpotent orbit representative on the 7-dimensional module.

    A1 is the long simple root vector, A1tilde the short one, the regular
    class is the sum, and G2a1 is the Richardson representative
    [x_{a1}, x_{a2}] + [x_{a1}, [x_{a1}, x_{a2}]].
    """
    xa1, xa2, _, _ = g2_generators(model)
    if orbit == "A1":
        out = xa2
    elif orbit == "A1tilde":
        out = xa1
    elif orbit == "G2reg":
        out = xa1 + xa2
    elif orbit == "G2a1":
        x12 = bracket(xa1, xa2)
        out = x12 + bracket(xa1, x12)
    else:
        raise ValueError(f"unknown orbit {orbit!r}")
    assert jordan_partition(out) == V_PARTITIONS[orbit]
    return out


def g2_unipotent_rep(orbit: str, model: SO7Model) -> Matrix:
    """Unipotent orbit representative, built from exponentials of root vectors."""
    y1, y2, y3 = model.y
    if orbit == "A1":
        out = exp_nilpotent(y2)
    elif orbit == "A1tilde":
        out = exp_nilpotent(y1) @ exp_nilpotent(y3)
    elif orbit == "G2reg":
        out = exp_nilpotent(y1) @ exp_nilpotent(y3) @ exp_nilpotent(y2)
    elif orbit == "G2a1":
        out = exp_nilpotent(g2_nilpotent_rep("G2a1", model))
    else:
        raise ValueError(f"unknown orbit {orbit!r}")
    assert (out.T @ model.gram @ out) == model.gram
    assert unipotent_partition(out) == V_PARTITIONS[orbit]
    return out


def adjoint_partition_direct(a: Matrix, basis: list, mode: str) -> Partition:
    """Partition of ad a (nilpotent mode) or Ad a - 1 (unipotent mode) on the span.

    Raises DoesNotStabilize when the operator moves the span out of itself,
    which signals a representative outside the subalgebra or its group.
    """
    field = a.field
    columns = Matrix(field, np.column_stack([z.flatten() for z in basis]))
    if mode == "unipotent":
        a_inv = a.inverse()
        images = [a @ z @ a_inv - z for z in basis]
    elif mode == "nilpotent":
        images = [bracket(a, z) for z in basis]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    coords = solve_in_columns(columns, Matrix(field, np.column_stack([z.flatten() for z in images])))
    if coords is None:
        raise DoesNotStabilize(f"{mode} representative does not stabilize the subalgebra")
    return jordan_partition(coords)


def wedge_route_adjoint(a: Matrix, mode: str) -> Partition:
    """Adjoint partition as (partition on wedge^2 V) minus (partition on V).

    Valid because wedge^2 of the 7-dimensional module splits off one copy of
    it, with the adjoint module as the complement, and both actions stabilize
    the splitting.
    """
    field = a.field
    if mode == "nilpotent":
        x = a
        law = additive(field)
        v_part = jordan_partition(a)
    elif mode == "unipotent":
        x = a - Matrix.identity(field, a.nrows)
        law = multiplicative(field)
        v_part = unipotent_partition(a)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    top = tensor_operator(x, x, law)
    wedge = jordan_partition(induced_quotient_operator(top, a.nrows, 2, "wedge"))
    return wedge.difference(v_part)


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

    def to_json(self) -> dict:
        return {
            "orbit": self.orbit,
            "p": self.p,
            "V": self.v_partition.to_json(),
            "adjoint_nilpotent": self.adjoint_nilpotent.to_json(),
            "adjoint_unipotent": self.adjoint_unipotent.to_json(),
            "routes_agree": self.routes_agree,
            "matches_table": self.matches_table,
        }


def g2_table(p: int) -> list:
    """All four orbit rows at the given prime, adjoint partitions by both routes."""
    model = build_so7_model(p)
    basis = g2_subalgebra(model)
    rows = []
    for orbit in ORBITS:
        x = g2_nilpotent_rep(orbit, model)
        u = g2_unipotent_rep(orbit, model)
        ad_direct = adjoint_partition_direct(x, basis, "nilpotent")
        ad_wedge = wedge_route_adjoint(x, "nilpotent")
        big_ad_direct = adjoint_partition_direct(u, basis, "unipotent")
        big_ad_wedge = wedge_route_adjoint(u, "unipotent")
        routes_agree = ad_direct == ad_wedge and big_ad_direct == big_ad_wedge
        expected = expected_adjoint(orbit, p)
        matches = (jordan_partition(x) == V_PARTITIONS[orbit]
                   and unipotent_partition(u) == V_PARTITIONS[orbit]
                   and ad_direct == expected and big_ad_direct == expected)
        rows.append(G2Row(
            orbit=orbit,
            p=p,
            v_partition=jordan_partition(x),
            adjoint_nilpotent=ad_direct,
            adjoint_unipotent=big_ad_direct,
            routes_agree=routes_agree,
            matches_table=matches,
        ))
    return rows
