"""Coefficient patterns of powers of polynomials over prime fields.

Rows of f^k mod p form a two-dimensional pattern; this package counts its
length-n windows (line complexity), evaluates the associated recursions and
generating functions, derives the piecewise-quadratic limit of a(n)/n^2, and
extracts nonzero-count growth rates and fractal dimensions from exact
transfer-matrix spectra (with class surveys for p=2).
"""

from .asympt import (
    ExtremaResult,
    Piece,
    PiecewiseQuadratic,
    empirical_ratio,
    extrema,
    limit_function,
    oscillation_csv,
    oscillation_table,
)
from .blocks import (
    InferenceError,
    RecursionSpec,
    a_1px,
    a_from_recursion,
    a_from_recursion_range,
    infer_recursion,
    line_complexity,
    line_complexity_range,
    recursion_1px,
    scan_accessible,
    verify_ab_equivalence,
)
from .fpoly import (
    TOTAL,
    Bitmap,
    FpPoly,
    count_coeff,
    cumulative_count,
    format_poly,
    is_prime,
    iter_rows,
    parse_poly,
    poly_pow,
    render_fractal,
    row_blocks,
    to_pbm,
)
from .genfun import (
    closed_form,
    series,
    series_1px,
    series_to_csv,
)
from .willson import (
    SpectralMismatchError,
    SpectralResult,
    SurveyResult,
    SurveyRow,
    TransferSystem,
    build_transfer,
    canonicalize,
    eigen_bound,
    enumerate_classes,
    perron,
    spectrum,
    survey,
    survey_tsv,
    verify_counts,
)

__version__ = "0.1.0"

__all__ = [
    "TOTAL",
    "FpPoly",
    "is_prime",
    "poly_pow",
    "iter_rows",
    "row_blocks",
    "count_coeff",
    "cumulative_count",
    "parse_poly",
    "format_poly",
    "scan_accessible",
    "line_complexity",
    "line_complexity_range",
    "a_1px",
    "verify_ab_equivalence",
    "RecursionSpec",
    "a_from_recursion",
    "a_from_recursion_range",
    "recursion_1px",
    "infer_recursion",
    "InferenceError",
    "closed_form",
    "series",
    "series_1px",
    "series_to_csv",
    "Piece",
    "PiecewiseQuadratic",
    "ExtremaResult",
    "limit_function",
    "extrema",
    "empirical_ratio",
    "oscillation_table",
    "oscillation_csv",
    "TransferSystem",
    "SpectralResult",
    "SurveyRow",
    "SurveyResult",
    "SpectralMismatchError",
    "build_transfer",
    "verify_counts",
    "perron",
    "spectrum",
    "canonicalize",
    "enumerate_classes",
    "survey",
    "survey_tsv",
    "eigen_bound",
    "Bitmap",
    "render_fractal",
    "to_pbm",
]
