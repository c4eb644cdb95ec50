"""repro — reproduction of "Comprehensive and Reliable Crowd Assessment
Algorithms" (Joglekar, Garcia-Molina, Parameswaran; ICDE 2015).

The library computes **confidence intervals on crowd-worker quality without
gold-standard answers**, under the paper's general conditions: any number of
workers, non-regular data (workers answer only some tasks), k-ary tasks, and
per-worker response bias.

Quickstart
----------

>>> import numpy as np
>>> from repro import evaluate_workers
>>> from repro.simulation import simulate_binary_responses
>>> rng = np.random.default_rng(0)
>>> matrix, true_error_rates = simulate_binary_responses(
...     n_workers=7, n_tasks=200, rng=rng, density=0.8)
>>> estimates = evaluate_workers(matrix, confidence=0.9)
>>> interval = estimates[0].interval           # worker 0's error-rate interval
>>> bool(interval.lower <= interval.upper)
True
"""

from repro.types import (
    ConfidenceInterval,
    EstimateStatus,
    KaryWorkerEstimate,
    ResponseProbabilityEstimate,
    TripleEstimate,
    WorkerErrorEstimate,
)
from repro.exceptions import (
    ConfigurationError,
    CrowdAssessmentError,
    DataValidationError,
    DegenerateEstimateError,
    InsufficientDataError,
)
from repro.data.response_matrix import UNANSWERED, ResponseMatrix
from repro.core.estimator import (
    WorkerEvaluator,
    evaluate_kary_workers,
    evaluate_workers,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # value types
    "ConfidenceInterval",
    "EstimateStatus",
    "WorkerErrorEstimate",
    "TripleEstimate",
    "KaryWorkerEstimate",
    "ResponseProbabilityEstimate",
    # exceptions
    "CrowdAssessmentError",
    "DataValidationError",
    "InsufficientDataError",
    "DegenerateEstimateError",
    "ConfigurationError",
    # data
    "ResponseMatrix",
    "UNANSWERED",
    # estimators
    "WorkerEvaluator",
    "evaluate_workers",
    "evaluate_kary_workers",
]
