"""Statistical utilities underpinning the confidence-interval machinery.

This package provides the generic statistics the paper leans on (normal
quantiles, binomial proportion intervals, covariance estimation, and the
linear-algebra helpers used by the k-ary spectral estimator), implemented
directly on numpy/scipy so the core algorithms stay readable.
"""

from repro.stats.normal import (
    normal_cdf,
    normal_pdf,
    normal_quantile,
    two_sided_z,
)
from repro.stats.intervals import (
    wald_interval,
    wilson_interval,
)
from repro.stats.covariance import (
    bernoulli_variance,
    sample_covariance,
    nearest_positive_semidefinite,
    is_positive_semidefinite,
    regularize_covariance,
)
from repro.stats.linalg import (
    safe_inverse,
    eigendecompose,
    matrix_inverse_sqrt,
    align_rows_to_diagonal,
    optimal_min_variance_weights,
)

__all__ = [
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "two_sided_z",
    "wald_interval",
    "wilson_interval",
    "bernoulli_variance",
    "sample_covariance",
    "nearest_positive_semidefinite",
    "is_positive_semidefinite",
    "regularize_covariance",
    "safe_inverse",
    "eigendecompose",
    "matrix_inverse_sqrt",
    "align_rows_to_diagonal",
    "optimal_min_variance_weights",
]
