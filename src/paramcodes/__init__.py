"""Parameters of parameterized affine codes over finite fields.

The pipeline: enumerate the point set cut out by an exponent matrix,
read its vanishing ideal and standard monomials off one walk over the
classes of exponent vectors that agree on the set, homogenize to the
projective closure, read length and dimension off the Hilbert function,
and certify the minimum distance by the footprint bound, a witness
codeword and, where those differ, a codeword search.
"""

from .errors import DomainError, InternalInconsistencyError, ResourceLimitError
from .gf import FieldSpec
from .mpoly import (
    BlockElim,
    GrevLex,
    Lex,
    MonomialOrder,
    Polynomial,
    RingContext,
    divide,
    homogenize,
)
from .groebner import GroebnerBasis, buchberger, eliminate, homogenize_basis, normal_form, s_polynomial
from .ideals import (
    ExponentMatrix,
    ParameterizedSet,
    enumerate_points,
    vanishing_ideal_affine,
    vanishing_ideal_projective,
)
from .hilbert import HilbertProfile, affine_hilbert_value, hilbert_profile, hilbert_value, ring_degree
from .codes import (
    CodeParameters,
    EvaluationMatrix,
    MinDistance,
    build_evaluation_matrix,
    code_dimension,
    is_mds,
    minimum_distance,
    parameter_table,
    run_pipeline,
    torus_dimension,
    torus_min_distance,
    verify_instance,
    weight_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "BlockElim",
    "CodeParameters",
    "DomainError",
    "EvaluationMatrix",
    "ExponentMatrix",
    "FieldSpec",
    "GrevLex",
    "GroebnerBasis",
    "HilbertProfile",
    "InternalInconsistencyError",
    "Lex",
    "MinDistance",
    "MonomialOrder",
    "ParameterizedSet",
    "Polynomial",
    "ResourceLimitError",
    "RingContext",
    "affine_hilbert_value",
    "buchberger",
    "build_evaluation_matrix",
    "code_dimension",
    "divide",
    "eliminate",
    "enumerate_points",
    "hilbert_profile",
    "hilbert_value",
    "homogenize",
    "homogenize_basis",
    "is_mds",
    "minimum_distance",
    "normal_form",
    "parameter_table",
    "ring_degree",
    "run_pipeline",
    "s_polynomial",
    "torus_dimension",
    "torus_min_distance",
    "vanishing_ideal_affine",
    "vanishing_ideal_projective",
    "verify_instance",
    "weight_distribution",
]
