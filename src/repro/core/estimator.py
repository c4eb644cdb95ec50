"""High-level façade over the paper's estimators.

Most downstream users only need two calls:

* :func:`evaluate_workers` — binary tasks, any number of workers, regular or
  non-regular data: confidence intervals on every worker's error rate
  (Algorithms A1/A2).
* :func:`evaluate_kary_workers` — k-ary tasks: confidence intervals on every
  entry of each worker's response-probability matrix (Algorithm A3), run per
  triple of workers.

:class:`WorkerEvaluator` bundles the configuration (confidence level, weight
optimization, spammer filtering, pairing strategy) behind one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError, InsufficientDataError
from repro.core.kary import KaryEstimator
from repro.core.m_worker import MWorkerEstimator
from repro.core.spammer_filter import DEFAULT_SPAMMER_THRESHOLD, filter_spammers
from repro.data.response_matrix import ResponseMatrix
from repro.types import KaryWorkerEstimate, TripleEstimate, WorkerErrorEstimate

__all__ = ["WorkerEvaluator", "evaluate_workers", "evaluate_kary_workers"]


@dataclass
class WorkerEvaluator:
    """Configurable entry point for worker assessment.

    Parameters
    ----------
    confidence:
        Confidence level ``c`` of the produced intervals.
    optimize_weights:
        Use Lemma 5's minimum-variance weights across triples (recommended).
    remove_spammers:
        Run the Section III-E2 spammer filter before estimating.  Estimates
        are still reported against original worker ids; pruned workers are
        simply absent from the result.
    spammer_threshold:
        Majority-disagreement level above which a worker is pruned.
    pairing_strategy:
        ``"greedy"`` (paper default) or ``"random"``.
    kary_epsilon:
        Step size for the numerical derivatives in the k-ary estimator.
    rng:
        Random generator, only used by the random pairing strategy.
    backend:
        Agreement-statistics backend: ``"dense"`` (vectorized NumPy),
        ``"dict"`` (original dict-of-dicts loops) or ``"auto"`` (dense when
        the matrix is small enough to materialize).  The choice affects
        throughput only; intervals are bit-identical across backends.
    shards:
        Execution spec for the binary stages: an integer thread count
        (``1`` = serial) or ``"auto"`` (see
        :class:`~repro.core.m_worker.MWorkerEstimator` for the tier
        threshold and determinism contract).  Binary batch evaluation
        shards the worker loop and the spammer filter chunks its proxy
        scan; k-ary evaluation ignores it (Algorithm A3 evaluates one
        triple — there is no worker loop to shard).
    """

    confidence: float = 0.95
    optimize_weights: bool = True
    remove_spammers: bool = False
    spammer_threshold: float = DEFAULT_SPAMMER_THRESHOLD
    pairing_strategy: str = "greedy"
    kary_epsilon: float = 0.01
    rng: np.random.Generator | None = field(default=None, repr=False)
    backend: str = "auto"
    shards: int | str = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.confidence < 1.0):
            raise ConfigurationError(
                f"confidence must lie strictly between 0 and 1, got {self.confidence}"
            )
        from repro.core.parallel import parse_shard_spec

        parse_shard_spec(self.shards)

    # ------------------------------------------------------------------ #

    def evaluate_binary(self, matrix: ResponseMatrix) -> dict[int, WorkerErrorEstimate]:
        """Error-rate intervals for every (retained) worker, keyed by original id."""
        if not matrix.is_binary:
            raise ConfigurationError(
                "evaluate_binary expects binary data; call evaluate_kary instead"
            )
        if matrix.n_workers < 3:
            raise InsufficientDataError(
                "at least 3 workers are needed to evaluate without gold answers"
            )
        working_matrix = matrix
        id_map = list(range(matrix.n_workers))
        if self.remove_spammers:
            filtered = filter_spammers(
                matrix,
                threshold=self.spammer_threshold,
                backend=self.backend,
                shards=self.shards,
            )
            working_matrix = filtered.filtered
            id_map = list(filtered.kept_workers)
        estimator = MWorkerEstimator(
            confidence=self.confidence,
            optimize_weights=self.optimize_weights,
            pairing_strategy=self.pairing_strategy,
            rng=self.rng,
            backend=self.backend,
            shards=self.shards,
        )
        estimates = estimator.evaluate_all(working_matrix)
        identity_map = id_map == list(range(matrix.n_workers))
        if identity_map:
            return {estimate.worker: estimate for estimate in estimates}
        results: dict[int, WorkerErrorEstimate] = {}
        for estimate in estimates:
            original_id = id_map[estimate.worker]
            # Estimates computed on the filtered matrix carry filtered-space
            # worker ids inside their per-triple records too; remap worker,
            # partners and derivative keys so the whole result is expressed
            # in original ids.
            triples = tuple(
                TripleEstimate(
                    worker=id_map[triple.worker],
                    partners=(
                        id_map[triple.partners[0]],
                        id_map[triple.partners[1]],
                    ),
                    error_rate=triple.error_rate,
                    deviation=triple.deviation,
                    derivatives={
                        id_map[partner]: derivative
                        for partner, derivative in triple.derivatives.items()
                    },
                    status=triple.status,
                )
                for triple in estimate.triples
            )
            results[original_id] = WorkerErrorEstimate(
                worker=original_id,
                interval=estimate.interval,
                n_tasks=estimate.n_tasks,
                triples=triples,
                weights=estimate.weights,
                status=estimate.status,
            )
        return results

    def evaluate_kary(
        self,
        matrix: ResponseMatrix,
        workers: tuple[int, int, int] | None = None,
    ) -> dict[int, KaryWorkerEstimate]:
        """Response-probability intervals for a triple of workers."""
        estimator = KaryEstimator(
            confidence=self.confidence,
            epsilon=self.kary_epsilon,
            backend=self.backend,
        )
        estimates = estimator.evaluate(matrix, workers=workers)
        return {estimate.worker: estimate for estimate in estimates}

    def evaluate(
        self,
        matrix: ResponseMatrix,
        workers: tuple[int, int, int] | None = None,
    ) -> dict[int, WorkerErrorEstimate] | dict[int, KaryWorkerEstimate]:
        """Dispatch on arity: binary matrices get error-rate intervals,
        k-ary matrices get response-probability intervals."""
        if matrix.is_binary:
            return self.evaluate_binary(matrix)
        return self.evaluate_kary(matrix, workers=workers)


def evaluate_workers(
    matrix: ResponseMatrix,
    confidence: float = 0.95,
    optimize_weights: bool = True,
    remove_spammers: bool = False,
) -> dict[int, WorkerErrorEstimate]:
    """Confidence intervals on every worker's error rate (binary data).

    This is the library's main entry point for the paper's Section III
    setting.  See :class:`WorkerEvaluator` for the full set of knobs.
    """
    evaluator = WorkerEvaluator(
        confidence=confidence,
        optimize_weights=optimize_weights,
        remove_spammers=remove_spammers,
    )
    return evaluator.evaluate_binary(matrix)


def evaluate_kary_workers(
    matrix: ResponseMatrix,
    confidence: float = 0.95,
    workers: tuple[int, int, int] | None = None,
) -> dict[int, KaryWorkerEstimate]:
    """Confidence intervals on worker response probabilities (k-ary data).

    This is the library's main entry point for the paper's Section IV
    setting; it evaluates one triple of workers at a time.
    """
    evaluator = WorkerEvaluator(confidence=confidence)
    return evaluator.evaluate_kary(matrix, workers=workers)
