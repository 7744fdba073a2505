"""The one integer-argument rule (``fields._count``) at every public entry
point that takes a count: a block size, m, p, a degree, a truncation, an
exponent, a rank.  Each row refuses a float, a bool, a string, None and the
least value less one with its own typed error, and takes a numpy integer.
"""

import numpy as np
import pytest

from jordanblocks import (
    Field,
    GeneralizedLaw,
    Matrix,
    Partition,
    RingElement,
    TruncatedPoly,
    additive,
    build_intertwiner_pair,
    build_symmetric_intertwiner,
    cayley_series,
    cg_square,
    cg_tensor,
    exponents,
    g2_table,
    iterated_tensor_series,
    predict_blocks,
    random_generalized_law,
    sigma_matrices,
    structure_constants,
    sym_partition,
    validate_fgl,
    wedge_partition,
)
from jordanblocks.errors import BadPrime, InvalidInput, InvalidLaw, UnknownType
from jordanblocks.fgl import random_fgl
from jordanblocks.fields import GF
from jordanblocks.g2 import build_so7_model

F5 = GF(5)
LAW = additive(F5)
Y = TruncatedPoly.variable(F5, (3,), 0)
LINEAR = {(1, 0): 1, (0, 1): 1}

#: (id, call of the count v, least accepted value, error, a value that must
#: pass as a numpy integer: the least itself where that one is valid)
ROWS = [
    ("Field", lambda v: Field(v), 0, InvalidInput, 0),
    ("Partition", lambda v: Partition((v,)), 1, InvalidInput, 1),
    ("RingElement", lambda v: RingElement({v: 1}), 1, InvalidInput, 1),
    ("Matrix.identity", lambda v: Matrix.identity(F5, v), 0, InvalidInput, 0),
    ("Matrix.zeros-rows", lambda v: Matrix.zeros(F5, v, 2), 0, InvalidInput, 0),
    ("Matrix.zeros-columns", lambda v: Matrix.zeros(F5, 2, v), 0, InvalidInput, 0),
    ("TruncatedPoly-trunc", lambda v: TruncatedPoly(F5, (v,), {}), 1, InvalidInput, 1),
    ("TruncatedPoly-exponent", lambda v: TruncatedPoly(F5, (3,), {(v,): 1}), 0, InvalidInput, 0),
    ("TruncatedPoly.univariate", lambda v: TruncatedPoly.univariate(F5, v, [0, 1]), 1,
     InvalidInput, 1),
    ("TruncatedPoly-power", lambda v: Y ** v, 0, InvalidInput, 0),
    ("TruncatedPoly.variable", lambda v: TruncatedPoly.variable(F5, (3, 2), v), 0,
     InvalidInput, 0),
    ("TruncatedPoly.homogeneous_part", lambda v: Y.homogeneous_part(v), 0, InvalidInput, 0),
    ("TruncatedPoly.truncate_degree", lambda v: Y.truncate_degree(v), 0, InvalidInput, 0),
    ("GeneralizedLaw-degree", lambda v: GeneralizedLaw(F5, v, LINEAR), 1, InvalidLaw, 1),
    ("GeneralizedLaw-exponent", lambda v: GeneralizedLaw(F5, 3, {**LINEAR, (v, 1): 1}), 0,
     InvalidLaw, 0),
    ("validate_fgl", lambda v: validate_fgl(LAW, v), 0, InvalidInput, 0),
    ("random_generalized_law", lambda v: random_generalized_law(1, v, F5), 1, InvalidLaw, 1),
    ("random_fgl", lambda v: random_fgl(1, v, F5), 1, InvalidInput, 1),
    ("iterated_tensor_series", lambda v: iterated_tensor_series(LAW, v, (2, 2)), 1,
     InvalidInput, 2),
    ("structure_constants", lambda v: structure_constants(v, 2, LAW, F5), 1, InvalidInput, 1),
    ("cg_tensor", lambda v: cg_tensor(2, v), 1, InvalidInput, 1),
    ("cg_square", lambda v: cg_square(v, "wedge"), 1, InvalidInput, 1),
    ("sigma_matrices-m", lambda v: sigma_matrices(v, 2, F5), 0, InvalidInput, 0),
    ("sigma_matrices-d", lambda v: sigma_matrices(2, v, F5), 0, InvalidInput, 0),
    ("wedge_partition", lambda v: wedge_partition((2,), v, LAW, F5), 1, InvalidInput, 1),
    ("sym_partition", lambda v: sym_partition((2,), v, LAW, F5), 1, InvalidInput, 1),
    ("sym_partition-part", lambda v: sym_partition((v,), 2, LAW, F5), 1, InvalidInput, 1),
    ("build_intertwiner_pair", lambda v: build_intertwiner_pair(v, 2, LAW), 1, InvalidInput, 2),
    ("build_symmetric_intertwiner-n", lambda v: build_symmetric_intertwiner(v, 2, LAW), 1,
     InvalidInput, 2),
    ("build_symmetric_intertwiner-m", lambda v: build_symmetric_intertwiner(2, v, LAW), 1,
     InvalidInput, 1),
    ("cayley_series", lambda v: cayley_series(v, F5), 1, InvalidInput, 1),
    ("build_so7_model", lambda v: build_so7_model(v), 4, BadPrime, 5),
    ("g2_table", lambda v: g2_table(v), 4, BadPrime, 5),
    ("exponents", lambda v: exponents("A", v), 0, UnknownType, 0),
    ("predict_blocks", lambda v: predict_blocks(exponents("A", 3), v), 0, InvalidInput, 3),
]
IDS = [row[0] for row in ROWS]
#: None is validate_fgl's default degree, not a refusal
REFUSALS = [pytest.param(call, bad, error, id=f"{name}-{bad!r}")
            for name, call, least, error, _ in ROWS
            for bad in (2.0, True, "3", None, least - 1)
            if not (name == "validate_fgl" and bad is None)]


@pytest.mark.parametrize("call, bad, error", REFUSALS)
def test_refused_with_the_typed_error(call, bad, error):
    with pytest.raises(error):
        call(bad)


@pytest.mark.parametrize("_, call, least, error, good", ROWS, ids=IDS)
def test_numpy_integers_pass(_, call, least, error, good):
    call(np.int64(good))


def test_variable_index_past_the_variables():
    # Y_2 of a two-variable algebra once came out as the constant 1
    with pytest.raises(InvalidInput, match="no variable 2"):
        TruncatedPoly.variable(F5, (3, 2), 2)
    with pytest.raises(InvalidInput, match="not a sequence"):
        TruncatedPoly.variable(F5, 3, 0)
