"""Parameters of parameterized affine codes over finite fields.

The pipeline: enumerate the point set cut out by an exponent matrix,
read its vanishing ideal, a basis of pure binomials, and its standard
monomials off one walk over the classes of exponent vectors that agree on
the set, read length and dimension off the Hilbert function of the
projective closure, which counts those standard monomials by degree, and
certify the minimum distance by the footprint bound, a witness codeword
and, where those differ, a codeword search.  The basis is certified by
counting: binomials that vanish on the set and have as many standard
monomials as it has points form a Groebner basis of its vanishing ideal.
"""

import os

# The package does no floating-point linear algebra, so OpenBLAS needs no
# worker thread; an idle one was seen taking CPU time during short runs.
# This must be set before numpy first loads; a value set by the caller wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import DomainError, InternalInconsistencyError, ResourceLimitError
from .gf import FieldSpec
from .ideals import (
    Binomial,
    BinomialBasis,
    ExponentMatrix,
    ParameterizedSet,
    enumerate_points,
    vanishing_ideal_affine,
    vanishing_ideal_projective,
)
from .hilbert import HilbertProfile, hilbert_profile, hilbert_value
from .codes import (
    CodeParameters,
    EvaluationMatrix,
    MinDistance,
    build_evaluation_matrix,
    code_dimension,
    minimum_distance,
    run_pipeline,
    torus_dimension,
    torus_min_distance,
)

__version__ = "0.1.0"

__all__ = [
    "Binomial",
    "BinomialBasis",
    "CodeParameters",
    "DomainError",
    "EvaluationMatrix",
    "ExponentMatrix",
    "FieldSpec",
    "HilbertProfile",
    "InternalInconsistencyError",
    "MinDistance",
    "ParameterizedSet",
    "ResourceLimitError",
    "build_evaluation_matrix",
    "code_dimension",
    "enumerate_points",
    "hilbert_profile",
    "hilbert_value",
    "minimum_distance",
    "run_pipeline",
    "torus_dimension",
    "torus_min_distance",
    "vanishing_ideal_affine",
    "vanishing_ideal_projective",
]
