"""Hybrid estimation: combining agreement-based intervals with a few gold tasks.

The paper's introduction argues that gold-standard tasks are expensive and
go stale, but in practice a requester often has a *small* number of them.
When both sources exist, the natural estimator combines them: the
agreement-based estimate of Algorithms A1/A2 and the gold-based binomial
estimate are (approximately) independent, approximately normal estimates of
the same error rate, so the minimum-variance combination is the classical
inverse-variance (precision) weighting — the same principle as Lemma 5,
applied across evidence sources instead of across triples.

The resulting interval is never wider than the better of the two inputs and
degrades gracefully: with no gold answers it equals the paper's interval,
with abundant gold answers it approaches the gold-standard interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError, InsufficientDataError
from repro.baselines.gold_standard import gold_standard_intervals
from repro.core.delta_method import confidence_interval_from_moments
from repro.core.m_worker import MWorkerEstimator
from repro.data.response_matrix import ResponseMatrix
from repro.types import EstimateStatus, WorkerErrorEstimate

__all__ = ["GoldAugmentedEvaluator", "combine_estimates"]

#: Deviations below this are treated as "essentially exact" to avoid dividing
#: by a zero variance when one source is degenerate the other way around.
_MIN_DEVIATION = 1e-6


def combine_estimates(
    agreement_estimate: WorkerErrorEstimate,
    gold_estimate: WorkerErrorEstimate | None,
    confidence: float,
) -> WorkerErrorEstimate:
    """Inverse-variance combination of an agreement-based and a gold-based estimate.

    Either input may be missing or degenerate, in which case the other one is
    returned (re-leveled to ``confidence``).  When *both* sources are
    degenerate the agreement estimate is preferred — it carries the
    ``triples``/``weights`` provenance — and its interval is still re-leveled
    to the requested ``confidence``, keeping the degenerate status.
    """
    usable_agreement = (
        agreement_estimate is not None
        and agreement_estimate.status is not EstimateStatus.DEGENERATE
        and agreement_estimate.interval.deviation > 0.0
    )
    usable_gold = (
        gold_estimate is not None
        and gold_estimate.status is not EstimateStatus.DEGENERATE
        and gold_estimate.interval.deviation > 0.0
    )
    if not usable_gold:
        # Single-source result: the agreement estimate when present (whether
        # usable or merely degenerate — it carries the triples/weights
        # provenance), else whatever gold evidence exists, re-leveled either
        # way.
        source = agreement_estimate if agreement_estimate is not None else gold_estimate
        interval = confidence_interval_from_moments(
            source.interval.mean, source.interval.deviation, confidence
        )
        return WorkerErrorEstimate(
            worker=source.worker,
            interval=interval,
            n_tasks=source.n_tasks,
            triples=source.triples,
            weights=source.weights,
            status=source.status,
        )
    if usable_gold and not usable_agreement:
        source = gold_estimate
        interval = confidence_interval_from_moments(
            source.interval.mean, source.interval.deviation, confidence
        )
        return WorkerErrorEstimate(
            worker=source.worker,
            interval=interval,
            n_tasks=source.n_tasks,
            status=source.status,
        )

    deviation_a = max(agreement_estimate.interval.deviation, _MIN_DEVIATION)
    deviation_g = max(gold_estimate.interval.deviation, _MIN_DEVIATION)
    precision_a = 1.0 / (deviation_a**2)
    precision_g = 1.0 / (deviation_g**2)
    total_precision = precision_a + precision_g
    mean = (
        precision_a * agreement_estimate.interval.mean
        + precision_g * gold_estimate.interval.mean
    ) / total_precision
    deviation = (1.0 / total_precision) ** 0.5
    interval = confidence_interval_from_moments(mean, deviation, confidence)
    status = (
        EstimateStatus.CLAMPED
        if EstimateStatus.CLAMPED
        in (agreement_estimate.status, gold_estimate.status)
        else EstimateStatus.OK
    )
    return WorkerErrorEstimate(
        worker=agreement_estimate.worker,
        interval=interval,
        n_tasks=max(agreement_estimate.n_tasks, gold_estimate.n_tasks),
        triples=agreement_estimate.triples,
        weights=agreement_estimate.weights,
        status=status,
    )


@dataclass
class GoldAugmentedEvaluator:
    """Evaluator that fuses agreement-based intervals with gold-task evidence.

    Parameters
    ----------
    confidence:
        Confidence level of the produced intervals.
    optimize_weights:
        Passed through to the agreement-based m-worker estimator.
    gold_method:
        Which gold-based interval to use (``"wilson"`` or ``"wald"``).
    backend, shards:
        Passed through to the inner
        :class:`~repro.core.m_worker.MWorkerEstimator`, so the fused
        evaluator rides the same vectorized/sharded paths as plain batch
        evaluation.  Throughput only — fused intervals are bit-identical
        across all settings.
    """

    confidence: float = 0.95
    optimize_weights: bool = True
    gold_method: str = "wilson"
    backend: str = "auto"
    shards: int | str = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.confidence < 1.0):
            raise ConfigurationError(
                f"confidence must lie strictly between 0 and 1, got {self.confidence}"
            )
        from repro.core.parallel import parse_shard_spec

        parse_shard_spec(self.shards)

    def evaluate_all(self, matrix: ResponseMatrix) -> dict[int, WorkerErrorEstimate]:
        """Fused intervals for every worker.

        Gold labels may cover any subset of tasks (including none, in which
        case the result equals the plain m-worker estimator's).
        """
        if not matrix.is_binary:
            raise ConfigurationError("gold-augmented evaluation handles binary data")
        if matrix.n_workers < 3:
            raise InsufficientDataError("at least 3 workers are required")
        agreement_estimates = MWorkerEstimator(
            confidence=self.confidence,
            optimize_weights=self.optimize_weights,
            backend=self.backend,
            shards=self.shards,
        ).evaluate_all(matrix)
        gold_estimates: dict[int, WorkerErrorEstimate] = {}
        if matrix.has_gold:
            gold_estimates = gold_standard_intervals(
                matrix, confidence=self.confidence, method=self.gold_method
            )
        fused: dict[int, WorkerErrorEstimate] = {}
        for estimate in agreement_estimates:
            fused[estimate.worker] = combine_estimates(
                estimate, gold_estimates.get(estimate.worker), self.confidence
            )
        return fused
