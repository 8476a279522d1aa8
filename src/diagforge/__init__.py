"""Matrices with prescribed diagonals: similarity rewrites and
nonnegative realizations, every construction certified post hoc by an
independent eigenvalue engine."""

from .errors import CertificationError, ConvergenceError, FeasibilityError
from .scalars import ComplexRational, exact_complex
from .matrix import (
    DenseMatrix,
    diag_similarity,
    exact_nullspace,
    is_constant_row_sum,
    permute_similarity,
    rank_one_add,
    row_sums,
)
from .eigen import (
    EigenPair,
    MatchResult,
    SpectrumEstimate,
    all_nonzero_eigenvector,
    char_poly,
    eigenvalues,
    match_multisets,
    right_eigenvector,
)
from .similarity import (
    DiagonalTarget,
    SimilarityTrace,
    TraceStep,
    brauer_shift,
    embed_anchor,
    set_diagonal_cs,
    similar_with_diagonal,
)
from .nonneg import (
    ListClass,
    PerfectReport,
    RealizationPlan,
    Spectrum,
    SpectrumClass,
    check_trace,
    classify,
    construct_3x3,
    perfect_feasible,
    realize_mixed,
    realize_smigoc,
    realize_suleimanova,
    smigoc_glue,
    suleimanova_primitive,
)
from .certify import RealizationCertificate, certify

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "ComplexRational",
    "ConvergenceError",
    "DenseMatrix",
    "DiagonalTarget",
    "EigenPair",
    "FeasibilityError",
    "ListClass",
    "MatchResult",
    "PerfectReport",
    "RealizationCertificate",
    "RealizationPlan",
    "SimilarityTrace",
    "Spectrum",
    "SpectrumClass",
    "SpectrumEstimate",
    "TraceStep",
    "all_nonzero_eigenvector",
    "brauer_shift",
    "certify",
    "char_poly",
    "check_trace",
    "classify",
    "construct_3x3",
    "diag_similarity",
    "eigenvalues",
    "embed_anchor",
    "exact_complex",
    "exact_nullspace",
    "is_constant_row_sum",
    "match_multisets",
    "perfect_feasible",
    "permute_similarity",
    "rank_one_add",
    "realize_mixed",
    "realize_smigoc",
    "realize_suleimanova",
    "right_eigenvector",
    "row_sums",
    "set_diagonal_cs",
    "similar_with_diagonal",
    "smigoc_glue",
    "suleimanova_primitive",
    "__version__",
]
