"""Core contribution of the paper: confidence intervals on worker quality.

Public entry points
-------------------

* :func:`repro.core.estimator.evaluate_workers` — binary tasks, any number of
  workers, non-regular data (Algorithms A1/A2).
* :func:`repro.core.estimator.evaluate_kary_workers` — k-ary tasks, 3 workers
  at a time (Algorithm A3).
* :class:`repro.core.estimator.WorkerEvaluator` — configurable façade over
  both.

The lower-level modules expose the individual pieces (Theorem 1 delta-method
engine, per-lemma covariance formulas, triple pairing, weight optimization,
the k-ary spectral point estimator) for users who want to compose them
differently.
"""

from repro.core.delta_method import DeltaMethodModel, confidence_interval_from_moments
from repro.core.agreement import AgreementStatistics, compute_agreement_statistics
from repro.core.three_worker import (
    ThreeWorkerResult,
    error_rate_from_agreements,
    error_rate_gradient,
    evaluate_three_workers,
)
from repro.core.pairing import form_triples
from repro.core.weights import optimal_weights, uniform_weights
from repro.core.m_worker import MWorkerEstimator, evaluate_worker, evaluate_all_workers
from repro.core.kary import KaryEstimator, prob_estimate, evaluate_kary_triple
from repro.core.spammer_filter import SpammerFilterResult, filter_spammers
from repro.core.task_inference import (
    infer_binary_labels,
    infer_kary_labels,
    label_accuracy,
)
from repro.core.incremental import IncrementalEvaluator
from repro.core.estimator import WorkerEvaluator, evaluate_workers, evaluate_kary_workers

__all__ = [
    "DeltaMethodModel",
    "confidence_interval_from_moments",
    "AgreementStatistics",
    "compute_agreement_statistics",
    "ThreeWorkerResult",
    "error_rate_from_agreements",
    "error_rate_gradient",
    "evaluate_three_workers",
    "form_triples",
    "optimal_weights",
    "uniform_weights",
    "MWorkerEstimator",
    "evaluate_worker",
    "evaluate_all_workers",
    "KaryEstimator",
    "prob_estimate",
    "evaluate_kary_triple",
    "SpammerFilterResult",
    "filter_spammers",
    "infer_binary_labels",
    "infer_kary_labels",
    "label_accuracy",
    "IncrementalEvaluator",
    "WorkerEvaluator",
    "evaluate_workers",
    "evaluate_kary_workers",
]
