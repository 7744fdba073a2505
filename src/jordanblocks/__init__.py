"""Exact Jordan-block partitions under formal-group-law tensor products.

Everything is exact arithmetic over prime fields or the rationals: Jordan
partitions of nilpotent and unipotent operators, tensor products twisted by a
formal group law, the representation ring they generate, exterior and
symmetric powers, adjoint partitions for classical groups and the so_7 model
of the exceptional 14-dimensional algebra, and the characteristic-0 exponent
predictor.
"""

from .fields import GF, QQ, Field
from .linalg import (
    Matrix,
    Partition,
    apply_series,
    exp_nilpotent,
    jordan_partition,
    jordan_partitions,
    nilpotent_from_partition,
    unipotent_partition,
)
from .series import (
    TruncatedPoly,
    build_automorphism,
    compose_inverse,
    mult_matrix,
    symmetric_split,
)
from .fgl import (
    GeneralizedLaw,
    additive,
    iterated_tensor_series,
    load_law,
    multiplicative,
    random_generalized_law,
    scaled_multiplicative,
    validate_fgl,
)
from .repring import (
    RingElement,
    build_intertwiner_pair,
    build_symmetric_intertwiner,
    cg_square,
    cg_tensor,
    ring_multiply,
    sigma_matrices,
    structure_constants,
    sym_partition,
    tensor_partition,
    wedge_partition,
)
from .classical import (
    adjoint_partition,
    cayley_series,
    good_char_report,
    nilpotent_adjoint_partition,
    springer_image,
    unipotent_adjoint_partition,
    validate_classical_partition,
)
from .g2 import g2_table
from .char0 import (
    ad_partition_char0,
    check_theorem,
    exponents,
    predict_blocks,
)

#: the public names, grouped by module as imported above; README.md lists the same
__all__ = [
    "Field", "GF", "QQ",
    "Matrix", "Partition", "apply_series", "exp_nilpotent", "jordan_partition",
    "jordan_partitions", "nilpotent_from_partition", "unipotent_partition",
    "TruncatedPoly", "build_automorphism", "compose_inverse", "mult_matrix", "symmetric_split",
    "GeneralizedLaw", "additive", "iterated_tensor_series", "load_law", "multiplicative",
    "random_generalized_law", "scaled_multiplicative", "validate_fgl",
    "RingElement", "build_intertwiner_pair", "build_symmetric_intertwiner", "cg_square",
    "cg_tensor", "ring_multiply", "sigma_matrices", "structure_constants", "sym_partition",
    "tensor_partition", "wedge_partition",
    "adjoint_partition", "cayley_series", "good_char_report", "nilpotent_adjoint_partition",
    "springer_image", "unipotent_adjoint_partition", "validate_classical_partition",
    "g2_table",
    "ad_partition_char0", "check_theorem", "exponents", "predict_blocks",
]

__version__ = "0.1.0"
