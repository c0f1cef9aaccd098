"""Critical points of complex spectra.

Given a finite list of complex numbers, this package computes the
critical points of its polynomial, checks the standard necessary
conditions for those critical points to be the spectrum of a
nonnegative matrix, and builds explicit certificate matrices through
companion, d-companion, circulant, and Hadamard-similarity routes.  A
seeded randomized harness stress-tests the whole pipeline.
"""

from .errors import NonConvergenceError, NumericError, ParseError
from .spectra import (
    Classification,
    SpectrumList,
    as_spectrum,
    classify,
    interlaces,
    multiset_equal,
    pairing_residual,
)
from .polynomial import (
    MonicPolynomial,
    antiderivative_monic,
    critical_points,
    derivative_monic,
    evaluate,
    from_roots,
    roots,
)
from .moments import (
    ConditionReport,
    JllCheck,
    MomentCheck,
    check_necessary_conditions,
    critical_moment,
    critical_moments,
    jll_pair_equivalence,
    monov_det,
    power_sums,
)
from .realizers import (
    MatrixSignClass,
    charpoly,
    circulant,
    companion,
    d_companion,
    dft_matrix,
    hadamard_similarity,
    matrix_sign_class,
    principal_submatrix,
    real_d_companion,
    spectrum,
)
from .differentiator import (
    compression,
    compression_critical_points,
    critical_compression,
    is_differentiator,
    is_trace_vector,
    power_traces,
    trace_moments,
    unit_vector,
)
from .harness import (
    ENSEMBLES,
    ChainReport,
    ChainStep,
    HuntConfig,
    HuntReport,
    RealizabilityReport,
    RouteResult,
    VerifyConfig,
    antiderivative_chain,
    hunt,
    random_realizable,
    verify_critical_realizability,
)

__version__ = "0.1.0"

__all__ = [
    "NonConvergenceError",
    "NumericError",
    "ParseError",
    "Classification",
    "SpectrumList",
    "as_spectrum",
    "classify",
    "interlaces",
    "multiset_equal",
    "pairing_residual",
    "MonicPolynomial",
    "antiderivative_monic",
    "critical_points",
    "derivative_monic",
    "evaluate",
    "from_roots",
    "roots",
    "ConditionReport",
    "JllCheck",
    "MomentCheck",
    "check_necessary_conditions",
    "critical_moment",
    "critical_moments",
    "jll_pair_equivalence",
    "monov_det",
    "power_sums",
    "MatrixSignClass",
    "charpoly",
    "circulant",
    "companion",
    "d_companion",
    "dft_matrix",
    "hadamard_similarity",
    "matrix_sign_class",
    "principal_submatrix",
    "real_d_companion",
    "spectrum",
    "compression",
    "compression_critical_points",
    "critical_compression",
    "is_differentiator",
    "is_trace_vector",
    "power_traces",
    "trace_moments",
    "unit_vector",
    "ENSEMBLES",
    "ChainReport",
    "ChainStep",
    "HuntConfig",
    "HuntReport",
    "RealizabilityReport",
    "RouteResult",
    "VerifyConfig",
    "antiderivative_chain",
    "hunt",
    "random_realizable",
    "verify_critical_realizability",
    "__version__",
]
