"""Exact integer linear algebra for complete simplicial toric data.

Computes, from a fan matrix, the universal 1-covering, the torsion of the
divisor class group with explicit generators and residue matrix, Picard and
Cartier bases per fan, and conversely rebuilds a fan matrix from quotient
data (weight matrix plus torsion matrix).  All arithmetic is exact.
"""

from .intmat import IntMatrix, PreconditionError, ShapeError, det, shared_tables, vector_content
from .lattices import Lattice, kernel_saturation
from .normal_forms import (
    HnfResult,
    SnfResult,
    hnf,
    rank,
    snf,
    unimodular_inverse,
)
from .gale import (
    FMatrixReport,
    WMatrixReport,
    classify_F,
    classify_W,
    gale_dual,
    positive_span_is_full,
    require_F,
    require_W,
)
from .fans import (
    Fan,
    FanValidation,
    PicardIndexFamily,
    enumerate_fans,
    fans_correspond,
    make_fan,
    picard_index_sets,
    validate_fan,
)
from .covering import (
    CoveringData,
    TorsionMatrix,
    beta_factor,
    covering_decomposition,
    torsion_generators,
    torsion_matrix,
    torsion_order,
    universal_covering,
)
from .divisors import (
    ClassGroupData,
    PicardData,
    cartier_basis,
    free_part_generators,
    picard_basis,
    weight_transform,
    weil_inclusion,
)
from .reconstruction import (
    QuotientPresentation,
    Reconstruction,
    SearchLimitExceeded,
    fan_matrix_equivalence,
    reconstruct,
)
from .pipeline import FanAnalysis, PipelineResult, analyze, verify_result

__version__ = "0.1.0"

__all__ = [
    "IntMatrix",
    "Lattice",
    "ShapeError",
    "PreconditionError",
    "det",
    "shared_tables",
    "rank",
    "vector_content",
    "kernel_saturation",
    "HnfResult",
    "SnfResult",
    "hnf",
    "snf",
    "unimodular_inverse",
    "FMatrixReport",
    "WMatrixReport",
    "classify_F",
    "classify_W",
    "gale_dual",
    "positive_span_is_full",
    "require_F",
    "require_W",
    "Fan",
    "FanValidation",
    "PicardIndexFamily",
    "enumerate_fans",
    "fans_correspond",
    "make_fan",
    "picard_index_sets",
    "validate_fan",
    "CoveringData",
    "TorsionMatrix",
    "beta_factor",
    "covering_decomposition",
    "torsion_generators",
    "torsion_matrix",
    "torsion_order",
    "universal_covering",
    "ClassGroupData",
    "PicardData",
    "cartier_basis",
    "free_part_generators",
    "picard_basis",
    "weight_transform",
    "weil_inclusion",
    "QuotientPresentation",
    "Reconstruction",
    "SearchLimitExceeded",
    "fan_matrix_equivalence",
    "reconstruct",
    "FanAnalysis",
    "PipelineResult",
    "analyze",
    "verify_result",
]
