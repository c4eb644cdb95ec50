"""Algorithm A2: m-worker binary non-regular confidence intervals.

For each worker ``w_i``:

1. the remaining workers are paired up (Section III-C1, greedy by default),
   each pair plus ``w_i`` forming a triple;
2. the 3-worker procedure of Section III-B is run on every triple, producing
   an estimate ``p_{k,i}``, its deviation ``Dev_{k,i}`` and the partial
   derivatives of the estimate with respect to the agreement rates of ``w_i``
   with its two partners;
3. the cross-triple covariances of the estimates are computed (Lemma 4), the
   minimum-variance weights are obtained (Lemma 5, or uniform weights), and
   Theorem 1 applied to the weighted combination yields the final interval.

Step 3 is the batch-evaluation hot path: with ``l ~ m/2`` triples per worker
it assembles an ``l x l`` covariance whose every entry needs a triple count
``c_{i,j,j'}`` and a partner agreement rate, i.e. O(m^3) Lemma-4 terms over
all workers.

The statistics backend alone picks the implementation.  The dict backend
runs the scalar reference loops (:func:`~repro.core.pairing.greedy_pairs`,
:func:`~repro.core.three_worker.evaluate_worker_in_triple`,
:func:`_cross_triple_covariance`), which the cross-backend differential
suite compares every other path against.  A vectorized backend (see
:mod:`repro.data.dense_backend`) always runs the batched path: greedy
Step 1 reads the dense count matrix
(:func:`~repro.core.pairing.greedy_pairs_dense`), Step 2 evaluates all triples in one NumPy pass
(:func:`~repro.core.three_worker.evaluate_triples_batched_arrays`), and
during ``evaluate_all`` Step 3 is batched *across* workers: workers are
grouped by triple count, the groups' covariance grids are stacked into 3-D
tensors over the backend's triple-count tensor, and the Lemma-5 weight
solve runs as one batched factorization per group.  Every elementwise
expression replicates the scalar code's floating-point operation order, so
both paths return bit-identical intervals.  ``evaluate_all`` can
additionally be sharded across threads over one shared statistics object
(``shards=``; see :class:`MWorkerEstimator` for the determinism contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.exceptions import ConfigurationError, InsufficientDataError
from repro.core.agreement import AgreementStatistics, compute_agreement_statistics
from repro.core.delta_method import DeltaMethodModel, confidence_interval_from_moments
from repro.core.deps import WorkerFootprint
from repro.core.pairing import form_triples
from repro.core.three_worker import (
    MIN_AGREEMENT_MARGIN,
    clamp_agreement,
    evaluate_triples_batched_arrays,
    evaluate_worker_in_triple,
    smoothed_variance_rate,
)
from repro.core.weights import batched_optimal_weights, optimal_weights, uniform_weights
from repro.data.response_matrix import ResponseMatrix
from repro.types import (
    ConfidenceInterval,
    EstimateStatus,
    TripleEstimate,
    WorkerErrorEstimate,
)

__all__ = ["MWorkerEstimator", "evaluate_worker", "evaluate_all_workers"]


#: Upper bound on triples per batched-stage invocation (memory chunking of
#: the cross-worker batch; worker-aligned chunks may overshoot by one
#: worker's triples).
_BATCH_STAGE_CHUNK_TRIPLES: int = 2**18

#: Upper bound on the cells of one stacked Lemma-4 covariance tensor
#: (``g x l x l`` float64); groups larger than this are processed in
#: sub-batches.  2^24 cells keeps the stack around 128 MB.  Sub-batching
#: cannot change results: every batched operation is per-slice.
_LEMMA4_GROUP_CELLS: int = 2**24


@lru_cache(maxsize=128)
def _upper_triangle_indices_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, k=1)


def _upper_triangle_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, memoized for small ``n`` only.

    Batch evaluation reuses a few sizes thousands of times, but each cached
    entry holds two ``n(n-1)/2`` int64 arrays — memoizing large sizes would
    retain far more memory than it saves, so those fall through to a fresh
    computation.
    """
    if n > 256:
        return np.triu_indices(n, k=1)
    return _upper_triangle_indices_cached(n)


def _pair_covariance_term(
    stats: AgreementStatistics,
    worker: int,
    partner_a: int,
    partner_b: int,
    p_worker: float,
    clamp_margin: float,
) -> float:
    """The quantity ``C(i, j, j')`` of Lemma 4.

    ``C(i, j, j') = c_ijj' * p_i (1 - p_i) (2 q_jj' - 1) / (c_ij * c_ij')``.
    When the two partners share no task, ``c_ijj' = 0`` and the term vanishes.
    """
    if partner_a == partner_b:
        # Same partner appears in both triples: the shared agreement rate is
        # identical, so the covariance term is Var(Q_{i,j}).
        c_ij = stats.common_count(worker, partner_a)
        q_ij, _ = clamp_agreement(stats.agreement_rate(worker, partner_a), clamp_margin)
        q_var = smoothed_variance_rate(q_ij, c_ij)
        return q_var * (1.0 - q_var) / c_ij
    c_triple = stats.triple_common_count(worker, partner_a, partner_b)
    if c_triple == 0:
        return 0.0
    c_ia = stats.common_count(worker, partner_a)
    c_ib = stats.common_count(worker, partner_b)
    if stats.common_count(partner_a, partner_b) == 0:
        return 0.0
    q_ab, _ = clamp_agreement(stats.agreement_rate(partner_a, partner_b), clamp_margin)
    return c_triple * p_worker * (1.0 - p_worker) * (2.0 * q_ab - 1.0) / (c_ia * c_ib)


def _cross_triple_covariance(
    stats: AgreementStatistics,
    worker: int,
    triple_a: TripleEstimate,
    triple_b: TripleEstimate,
    p_worker: float,
    clamp_margin: float,
) -> float:
    """Lemma 4: covariance between the estimates from two different triples.

    Only the agreement rates involving the evaluated worker contribute: the
    partners' mutual agreement rates live on disjoint worker pairs across
    triples and are therefore uncorrelated under the model.
    """
    total = 0.0
    for partner_a, derivative_a in triple_a.derivatives.items():
        for partner_b, derivative_b in triple_b.derivatives.items():
            term = _pair_covariance_term(
                stats, worker, partner_a, partner_b, p_worker, clamp_margin
            )
            total += derivative_a * derivative_b * term
    return total


def _vectorized_cross_covariances(
    stats: AgreementStatistics,
    worker: int,
    triple_estimates: list[TripleEstimate],
    p_worker: float,
    clamp_margin: float,
) -> np.ndarray:
    """All Lemma-4 cross-triple covariances for one worker, in one shot.

    Returns the full ``l x l`` grid of off-diagonal covariance values (the
    diagonal entries are meaningless and must be overwritten by the
    caller).  Requires a vectorized backend and pairwise-distinct partners,
    which both pairing strategies guarantee (each candidate is paired at
    most once).

    Every elementwise expression below mirrors the exact floating-point
    operation order of :func:`_pair_covariance_term` /
    :func:`_cross_triple_covariance`, so the result is bit-identical to the
    scalar loop.
    """
    n = len(triple_estimates)
    first_partners = [t.partners[0] for t in triple_estimates]
    second_partners = [t.partners[1] for t in triple_estimates]
    partners = np.asarray(first_partners + second_partners, dtype=np.int64)
    c_with_worker, two_q_minus_1, c_triple = stats.lemma4_inputs(
        worker, partners, clamp_margin
    )
    numerator = ((c_triple * p_worker) * (1.0 - p_worker)) * two_q_minus_1
    denominator = c_with_worker[:, None] * c_with_worker[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        term = numerator / denominator
    term = np.where(c_triple > 0, term, 0.0)

    d_first = np.array(
        [t.derivatives[p] for t, p in zip(triple_estimates, first_partners)]
    )
    d_second = np.array(
        [t.derivatives[p] for t, p in zip(triple_estimates, second_partners)]
    )
    # Same term order and summation order as the scalar double loop:
    # (first, first), (first, second), (second, first), (second, second).
    u_1 = (d_first[:, None] * d_first[None, :]) * term[:n, :n]
    u_2 = (d_first[:, None] * d_second[None, :]) * term[:n, n:]
    u_3 = (d_second[:, None] * d_first[None, :]) * term[n:, :n]
    u_4 = (d_second[:, None] * d_second[None, :]) * term[n:, n:]
    return ((u_1 + u_2) + u_3) + u_4


def _full_grid_cross_covariances(
    c3: np.ndarray,
    common_with_worker: np.ndarray,
    two_q_minus_1: np.ndarray,
    d_first: np.ndarray,
    d_second: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    p_worker: float,
) -> np.ndarray:
    """One worker's Lemma-4 cross-covariance grid from whole-matrix inputs.

    Equivalent to :func:`_vectorized_cross_covariances`, restructured for
    the grouped fast path: the term grid is evaluated over *all* worker
    pairs (``c3`` is the worker's full ``(m, m)`` triple-count grid,
    ``two_q_minus_1`` the global pre-clamped rate matrix,
    ``common_with_worker`` the worker's pair-count row) and the partner
    quadrants are gathered afterwards.  Gathering after instead of before
    cannot change any value — every term is a pure elementwise function of
    its own entry's inputs, in the exact operation order of the per-worker
    helper — and the term grid is bit-exactly symmetric (every input matrix
    is, and IEEE multiplication commutes), so the ``(second, first)``
    quadrant is served by the transpose of the ``(first, second)`` gather.
    The quadrant sum order matches the scalar double loop.
    """
    # The grid arrives float32 (exact integers); the term arithmetic must
    # run in float64 to replay the per-worker helper's operations.
    c3 = np.asarray(c3, dtype=np.float64)
    denominator = common_with_worker[:, None] * common_with_worker[None, :]
    numerator = ((c3 * p_worker) * (1.0 - p_worker)) * two_q_minus_1
    with np.errstate(divide="ignore", invalid="ignore"):
        term = numerator / denominator
    term = np.where(c3 > 0, term, 0.0)
    t_ff = term[first[:, None], first[None, :]]
    t_fs = term[first[:, None], second[None, :]]
    t_ss = term[second[:, None], second[None, :]]
    u_1 = (d_first[:, None] * d_first[None, :]) * t_ff
    u_2 = (d_first[:, None] * d_second[None, :]) * t_fs
    u_3 = (d_second[:, None] * d_first[None, :]) * t_fs.T
    u_4 = (d_second[:, None] * d_second[None, :]) * t_ss
    return ((u_1 + u_2) + u_3) + u_4


@dataclass
class MWorkerEstimator:
    """Configurable m-worker binary estimator (Algorithm A2).

    Parameters
    ----------
    confidence:
        Confidence level ``c`` of the produced intervals.
    optimize_weights:
        Use Lemma 5's minimum-variance weights (True, the paper's default) or
        uniform weights (False, the Fig 2(c) ablation).
    pairing_strategy:
        ``"greedy"`` (Section III-C1) or ``"random"`` (ablation).
    clamp_margin:
        Numerical guard keeping agreement rates away from the Eq. (1)
        singularity at 1/2.
    min_overlap:
        Minimum number of common tasks required between members of a triple.
    rng:
        Only needed for the random pairing strategy.
    backend:
        Agreement-statistics backend: ``"dense"`` (vectorized NumPy),
        ``"sparse"`` (scipy.sparse CSR pair counts + fill-restricted triple
        grids), ``"bitset"`` (packed-rows low-memory mode), ``"dict"``
        (original lazy set intersections) or ``"auto"`` (cost-based
        selection over grid size and observed fill; see
        :func:`~repro.data.dense_backend.auto_backend_choice`).  All
        produce bit-identical intervals; the vectorized backends are
        ~10-100x faster for batch evaluation, and sparse/bitset open
        low-fill grids the dense arrays cannot hold.  Ignored when a
        prebuilt ``stats`` object is supplied.
    shards:
        Execution spec for :meth:`evaluate_all` (parsed by
        :func:`~repro.core.parallel.parse_shard_spec`).  ``1`` (the
        default) stays serial; an integer ``N > 1`` partitions the worker
        loop across ``N`` threads of the reusable
        :class:`~repro.core.parallel.ShardExecutor`, which share the
        parent's statistics object (the NumPy kernels release the GIL);
        ``"auto"`` picks serial or threads from the
        :func:`~repro.core.parallel.auto_shard_choice` cost model.

    Shard/merge determinism contract
    --------------------------------
    Sharded evaluation is bit-identical to serial evaluation by
    construction, and the cross-backend differential suite enforces it:

    * every statistic a shard reads comes from the *same* frozen arrays the
      serial path reads (the shards share the parent's statistics object,
      with every lazily-built cache materialized before the fan-out);
    * each worker's estimate depends only on those arrays and the estimator
      configuration — never on which shard computed it, on shard count, or
      on evaluation order across workers;
    * workers are partitioned into contiguous index ranges, each shard
      returns its estimates in worker order, and the parent concatenates
      the shard results in shard order, which *is* worker order ``0..m-1``.

    On a vectorized backend each shard runs the grouped Lemma-4/5
    aggregation over its own worker range (grouping by triple count
    *within* the shard).  Because every batched operation is per-slice,
    group membership — and therefore shard membership — cannot influence
    any worker's numbers, so ``shards=N`` remains bit-identical to the
    serial dict reference.

    Execution tiers and thresholds
    ------------------------------
    ``shards="auto"`` resolves through the
    :func:`~repro.core.parallel.auto_shard_choice` cost model on the work
    proxy ``m^2 * n * fill`` (the Lemma-4 term count): below
    :data:`~repro.core.parallel.AUTO_SHARD_THREAD_MIN_WORK` (2^22) the
    batch stays **serial** — chunking overhead dominates; above it the
    batch uses **threads** (the NumPy kernels release the GIL).  Shard
    count is ``min(usable cores, 8, m)``, and hosts with fewer than two
    usable cores always resolve serial — threads cannot beat serial
    without parallel hardware.

    Threads fall back to serial whenever the contract cannot hold or
    sharding cannot help: no vectorized backend (the dict path), fewer
    workers than shards, a custom ``rng`` (the random pairing strategy
    consumes the generator sequentially across workers, which no pool can
    replicate), or non-binary data.  Dependency tracking forces no
    fallback: the incremental evaluator consumes the footprints
    :meth:`evaluate_worker_range` returns, so its recomputes shard like any
    batch run.
    """

    confidence: float = 0.95
    optimize_weights: bool = True
    pairing_strategy: str = "greedy"
    clamp_margin: float = MIN_AGREEMENT_MARGIN
    min_overlap: int = 1
    rng: np.random.Generator | None = None
    backend: str = "auto"
    shards: int | str = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.confidence < 1.0):
            raise ConfigurationError(
                f"confidence must lie strictly between 0 and 1, got {self.confidence}"
            )
        if self.min_overlap < 1:
            raise ConfigurationError(
                f"min_overlap must be at least 1, got {self.min_overlap}"
            )
        # Reject malformed specs at construction, not at the first
        # evaluate_all (imported lazily: parallel imports this module in
        # its shard workers).
        from repro.core.parallel import parse_shard_spec

        parse_shard_spec(self.shards)

    # ------------------------------------------------------------------ #

    def evaluate_worker(
        self,
        matrix: ResponseMatrix,
        worker: int,
        stats: AgreementStatistics | None = None,
    ) -> WorkerErrorEstimate:
        """Confidence interval for one worker's error rate."""
        if not matrix.is_binary:
            raise ConfigurationError(
                "the m-worker estimator handles binary data; use the k-ary "
                "estimator for higher arities"
            )
        if matrix.n_workers < 3:
            raise InsufficientDataError(
                "at least 3 workers are required to estimate error rates "
                "without a gold standard"
            )
        if stats is None:
            stats = compute_agreement_statistics(matrix, backend=self.backend)
        return self._evaluate_worker_impl(matrix, stats, worker)

    def _evaluate_worker_impl(
        self,
        matrix: ResponseMatrix,
        stats: AgreementStatistics,
        worker: int,
        footprint_sink: list | None = None,
    ) -> WorkerErrorEstimate:
        """One worker's estimate, optionally recording its read footprint.

        When ``footprint_sink`` is given, a
        :class:`~repro.core.deps.WorkerFootprint` summarizing every
        statistic the evaluation reads is appended (greedy pairing only) —
        derived from the pairing scan log and the formed partners, so it
        works on every backend and fast path.
        """
        candidates = [w for w in range(matrix.n_workers) if w != worker]
        probe_log: list[tuple[int, int]] | None = (
            [] if footprint_sink is not None else None
        )
        triples = form_triples(
            stats,
            worker,
            candidates,
            strategy=self.pairing_strategy,
            rng=self.rng,
            min_overlap=self.min_overlap,
            probe_log=probe_log,
        )
        if footprint_sink is not None:
            footprint_sink.append(
                WorkerFootprint.from_evaluation(
                    worker,
                    (p for _, a, b in triples for p in (a, b)),
                    probe_log or (),
                )
            )
        if not triples:
            return self._degenerate_estimate(matrix, worker)

        pairs = [(partner_a, partner_b) for _, partner_a, partner_b in triples]
        if stats.has_dense_backend:
            # Batched Step 2: all triples in one vectorized pass; unusable
            # slots are the triples the scalar loop would have skipped with
            # InsufficientDataError.
            arrays = evaluate_triples_batched_arrays(
                stats, worker, pairs, clamp_margin=self.clamp_margin
            )
            triple_estimates, worst_status = self._triples_from_arrays(
                stats, worker, pairs, arrays
            )
        else:
            triple_estimates = []
            worst_status = EstimateStatus.OK
            for pair in pairs:
                try:
                    result = evaluate_worker_in_triple(
                        stats, worker, pair, clamp_margin=self.clamp_margin
                    )
                except InsufficientDataError:
                    continue
                triple_estimates.append(
                    TripleEstimate(
                        worker=worker,
                        partners=pair,
                        error_rate=result.error_rate,
                        deviation=result.deviation,
                        derivatives=result.derivative_by_partner,
                        status=result.status,
                    )
                )
                if result.status is EstimateStatus.CLAMPED:
                    worst_status = EstimateStatus.CLAMPED
        return self._finalize_worker(
            matrix, stats, worker, triple_estimates, worst_status
        )

    def _triples_from_arrays(
        self,
        stats: AgreementStatistics,
        worker: int,
        pairs: list[tuple[int, int]],
        arrays,
    ) -> tuple[list[TripleEstimate], EstimateStatus]:
        """Materialize TripleEstimate records from batched stage arrays."""
        triple_estimates: list[TripleEstimate] = []
        worst_status = EstimateStatus.OK
        estimates = arrays.estimates.tolist()
        deviations = arrays.deviations.tolist()
        d_a = arrays.d_partner_a.tolist()
        d_b = arrays.d_partner_b.tolist()
        clamped = arrays.clamped.tolist()
        needs_scalar = arrays.needs_scalar.tolist()
        for t in np.flatnonzero(arrays.usable).tolist():
            pair = pairs[t]
            if needs_scalar[t]:
                result = evaluate_worker_in_triple(
                    stats, worker, pair, clamp_margin=self.clamp_margin
                )
                error_rate, deviation = result.error_rate, result.deviation
                derivatives = result.derivative_by_partner
                status = result.status
            else:
                error_rate = estimates[t]
                deviation = deviations[t]
                derivatives = {pair[0]: d_a[t], pair[1]: d_b[t]}
                status = EstimateStatus.CLAMPED if clamped[t] else EstimateStatus.OK
            triple_estimates.append(
                TripleEstimate(
                    worker=worker,
                    partners=pair,
                    error_rate=error_rate,
                    deviation=deviation,
                    derivatives=derivatives,
                    status=status,
                )
            )
            if status is EstimateStatus.CLAMPED:
                worst_status = EstimateStatus.CLAMPED
        return triple_estimates, worst_status

    def _finalize_worker(
        self,
        matrix: ResponseMatrix,
        stats: AgreementStatistics,
        worker: int,
        triple_estimates: list[TripleEstimate],
        worst_status: EstimateStatus,
    ) -> WorkerErrorEstimate:
        """Step 3 plus result packaging, shared by all execution paths."""
        if not triple_estimates:
            return self._degenerate_estimate(matrix, worker)
        interval, weights = self._aggregate(stats, worker, triple_estimates)
        return WorkerErrorEstimate(
            worker=worker,
            interval=interval,
            n_tasks=matrix.n_tasks_of(worker),
            triples=tuple(triple_estimates),
            weights=tuple(float(w) for w in weights),
            status=worst_status,
        )

    def evaluate_all(self, matrix: ResponseMatrix) -> list[WorkerErrorEstimate]:
        """Confidence intervals for every worker in the matrix.

        The ``shards`` spec selects the execution tier — serial or
        thread-chunked through the reusable executor; see the class
        docstring for the tier threshold, the determinism contract and the
        serial-fallback guards.
        """
        from repro.core.parallel import evaluate_worker_subset

        stats = compute_agreement_statistics(matrix, backend=self.backend)
        return evaluate_worker_subset(
            self, matrix, stats, list(range(matrix.n_workers))
        )

    def evaluate_worker_range(
        self,
        matrix: ResponseMatrix,
        stats: AgreementStatistics,
        workers: list[int],
        collect_footprints: bool = False,
    ) -> (
        list[WorkerErrorEstimate]
        | tuple[list[WorkerErrorEstimate], list["WorkerFootprint"]]
    ):
        """Evaluate a set of workers sharing one statistics object.

        This is the common entry point of the serial batch path and of each
        thread shard (which passes its contiguous worker chunk): when the
        batched stage applies, the workers' triples are evaluated in
        cross-worker batches, otherwise each worker goes through
        :meth:`evaluate_worker`.  Results are returned in the order of
        ``workers``.

        With ``collect_footprints=True`` the return value is the pair
        ``(estimates, footprints)``: one
        :class:`~repro.core.deps.WorkerFootprint` per worker, aligned with
        ``workers``, summarizing the statistics each estimate read.  This
        is the footprint protocol the incremental evaluator's dependency
        ledger consumes — it works on every backend and execution path
        (scalar dict, batched and thread-sharded), and requires the greedy
        pairing strategy.
        """
        if collect_footprints and (
            self.pairing_strategy != "greedy" or self.rng is not None
        ):
            raise ConfigurationError(
                "footprint collection requires the greedy pairing strategy "
                "without a custom rng"
            )
        if stats.has_dense_backend and matrix.is_binary and matrix.n_workers >= 3:
            return self._evaluate_workers_batched(
                matrix, stats, workers, collect_footprints
            )
        if not collect_footprints:
            return [
                self.evaluate_worker(matrix, worker, stats=stats)
                for worker in workers
            ]
        if not matrix.is_binary:
            raise ConfigurationError(
                "the m-worker estimator handles binary data; use the k-ary "
                "estimator for higher arities"
            )
        if matrix.n_workers < 3:
            raise InsufficientDataError(
                "at least 3 workers are required to estimate error rates "
                "without a gold standard"
            )
        footprints: list[WorkerFootprint] = []
        results = [
            self._evaluate_worker_impl(
                matrix, stats, worker, footprint_sink=footprints
            )
            for worker in workers
        ]
        return results, footprints

    def _evaluate_workers_batched(
        self,
        matrix: ResponseMatrix,
        stats: AgreementStatistics,
        workers: list[int],
        collect_footprints: bool = False,
    ) -> (
        list[WorkerErrorEstimate]
        | tuple[list[WorkerErrorEstimate], list["WorkerFootprint"]]
    ):
        """The cross-worker batch: every worker's triples in one stage pass.

        Pairing runs per worker (exactly as the serial loop does, including
        ``rng`` consumption order for the random strategy), then all formed
        triples are concatenated and evaluated in a single invocation of the
        batched triple stage; the Lemma-4 aggregation consumes contiguous
        row windows of the result, grouped across workers by triple count
        (workers with fewer than two triples finish alone).  Bit-identical to
        calling :meth:`evaluate_worker` per worker — elementwise arithmetic
        on a concatenation is elementwise arithmetic on each window.

        Footprints depend only on pairing (the scan log and the formed
        partners), so collecting them here yields exactly what the serial
        per-worker path would collect.
        """
        n_workers = matrix.n_workers
        per_worker_pairs: list[list[tuple[int, int]]] = []
        footprints: list[WorkerFootprint] = []
        for worker in workers:
            candidates = [w for w in range(n_workers) if w != worker]
            probe_log: list[tuple[int, int]] | None = (
                [] if collect_footprints else None
            )
            triples = form_triples(
                stats,
                worker,
                candidates,
                strategy=self.pairing_strategy,
                rng=self.rng,
                min_overlap=self.min_overlap,
                probe_log=probe_log,
            )
            per_worker_pairs.append([(a, b) for _, a, b in triples])
            if collect_footprints:
                footprints.append(
                    WorkerFootprint.from_evaluation(
                        worker,
                        (p for _, a, b in triples for p in (a, b)),
                        probe_log or (),
                    )
                )
        results: list[WorkerErrorEstimate] = []
        # Stage chunking: concatenating *all* workers' triples would peak at
        # O(m^2) transient memory on worker-heavy matrices; processing
        # worker-aligned chunks of bounded triple count keeps the identical
        # elementwise results (and the worker-major error ordering) while
        # bounding the spike.  2^18 triples is a few-hundred-MB ceiling.
        chunk_indices: list[int] = []
        chunk_size = 0
        for index in range(len(workers)):
            chunk_indices.append(index)
            chunk_size += len(per_worker_pairs[index])
            if chunk_size >= _BATCH_STAGE_CHUNK_TRIPLES and index < len(workers) - 1:
                self._evaluate_worker_chunk(
                    matrix,
                    stats,
                    [workers[i] for i in chunk_indices],
                    [per_worker_pairs[i] for i in chunk_indices],
                    results,
                )
                chunk_indices, chunk_size = [], 0
        if chunk_indices:
            self._evaluate_worker_chunk(
                matrix,
                stats,
                [workers[i] for i in chunk_indices],
                [per_worker_pairs[i] for i in chunk_indices],
                results,
            )
        if collect_footprints:
            return results, footprints
        return results

    def _evaluate_worker_chunk(
        self,
        matrix: ResponseMatrix,
        stats: AgreementStatistics,
        chunk_workers: list[int],
        chunk_pairs: list[list[tuple[int, int]]],
        results: list[WorkerErrorEstimate],
    ) -> None:
        """Run the batched stage for one worker-aligned chunk, appending to
        ``results`` in worker order."""
        counts = [len(pairs) for pairs in chunk_pairs]
        flat_pairs = [pair for pairs in chunk_pairs for pair in pairs]
        arrays = None
        if flat_pairs:
            worker_ids = np.repeat(
                np.asarray(chunk_workers, dtype=np.int64), counts
            )
            arrays = evaluate_triples_batched_arrays(
                stats, worker_ids, flat_pairs, clamp_margin=self.clamp_margin
            )
        chunk_results: list[WorkerErrorEstimate | None] = [None] * len(chunk_workers)
        # Workers eligible for the grouped Lemma-4 batch, keyed by triple
        # count; each value holds (position in chunk, worker, triples,
        # worst status, optional stage-array views).
        groups: dict[int, list[tuple]] = {}
        offset = 0
        for position, (worker, pairs) in enumerate(zip(chunk_workers, chunk_pairs)):
            if not pairs:
                chunk_results[position] = self._degenerate_estimate(matrix, worker)
                continue
            window = arrays.slice(offset, offset + len(pairs))
            offset += len(pairs)
            triple_estimates, worst_status = self._triples_from_arrays(
                stats, worker, pairs, window
            )
            if len(triple_estimates) < 2:
                chunk_results[position] = self._finalize_worker(
                    matrix, stats, worker, triple_estimates, worst_status
                )
                continue
            # The common case — every triple usable straight from the stage
            # arrays — hands the group the array views; otherwise the group
            # re-extracts from the materialized records (same values).
            ext = None
            if bool(window.usable.all()) and not bool(window.needs_scalar.any()):
                ext = (
                    window.estimates,
                    window.deviations,
                    window.d_partner_a,
                    window.d_partner_b,
                    np.asarray(pairs, dtype=np.int64),
                )
            groups.setdefault(len(triple_estimates), []).append(
                (position, worker, triple_estimates, worst_status, ext)
            )
        for group in groups.values():
            estimates = self._finalize_worker_group(
                matrix, stats, [entry[1:] for entry in group]
            )
            for (position, *_), estimate in zip(group, estimates):
                chunk_results[position] = estimate
        results.extend(chunk_results)

    def _finalize_worker_group(
        self,
        matrix: ResponseMatrix,
        stats: AgreementStatistics,
        group: list[tuple],
    ) -> list[WorkerErrorEstimate]:
        """Step 3 for a group of workers sharing one triple count ``l``.

        The group's ``l x l`` Lemma-4 covariance grids are assembled into
        one stacked ``(g, l, l)`` tensor — each grid evaluated over the
        worker's full-matrix term grid (:func:`_full_grid_cross_covariances`
        over the cached triple-count tensor) — the diagonal and symmetric
        mirror are applied across the whole stack at once, and the Lemma-5
        weights come from one batched Cholesky + solve
        (:func:`~repro.core.weights.batched_optimal_weights`, with
        per-matrix fallback for rejected slices).  The O(l) packaging —
        plug-in means, squared deviations, the final Theorem-1 interval —
        replays the scalar code per worker, so every estimate is
        bit-identical to :meth:`_finalize_worker` on the same inputs.
        Group entries are ``(worker, triples, worst_status, ext)`` where
        ``ext`` optionally carries the stage-array views to skip
        re-extracting per-triple scalars.  Groups larger than the memory
        cap are processed in sub-batches, which cannot change results
        (every batched operation is per-slice).
        """
        n = len(group[0][1])
        max_group = max(1, _LEMMA4_GROUP_CELLS // max(1, n * n))
        if len(group) > max_group:
            results: list[WorkerErrorEstimate] = []
            for start in range(0, len(group), max_group):
                results.extend(
                    self._finalize_worker_group(
                        matrix, stats, group[start : start + max_group]
                    )
                )
            return results
        common_f64, two_q_minus_1 = stats.lemma4_group_inputs(
            self.clamp_margin
        )
        backend = stats.backend
        g = len(group)
        values = np.empty((g, n))
        diagonals = np.empty((g, n))
        weights_rows: np.ndarray
        covariance = np.empty((g, n, n))
        for index, (worker, triples, _, ext) in enumerate(group):
            if ext is not None:
                estimates_row, deviations_row, d_first, d_second, pairs_array = ext
                first = pairs_array[:, 0]
                second = pairs_array[:, 1]
                squared = [d**2 for d in deviations_row.tolist()]
            else:
                estimates_row = np.array([t.error_rate for t in triples])
                squared = [t.deviation**2 for t in triples]
                first_list = [t.partners[0] for t in triples]
                second_list = [t.partners[1] for t in triples]
                first = np.asarray(first_list, dtype=np.int64)
                second = np.asarray(second_list, dtype=np.int64)
                d_first = np.array(
                    [t.derivatives[p] for t, p in zip(triples, first_list)]
                )
                d_second = np.array(
                    [t.derivatives[p] for t, p in zip(triples, second_list)]
                )
            values[index] = estimates_row
            diagonals[index] = squared
            # Same plug-in clamp as the scalar path, on the same values.
            p_plugin = min(max(float(np.mean(estimates_row)), 0.0), 0.5)
            covariance[index] = _full_grid_cross_covariances(
                backend.triple_count_grid_full(worker),
                common_f64[worker],
                two_q_minus_1,
                d_first,
                d_second,
                first,
                second,
                p_plugin,
            )
        # Batched finish of the Lemma-4 assembly: mirror the upper triangle
        # over the lower (exactly as the per-worker path does) and overwrite
        # the meaningless cross diagonal with the squared deviations.
        upper = _upper_triangle_indices(n)
        covariance[:, upper[1], upper[0]] = covariance[:, upper[0], upper[1]]
        diagonal_index = np.arange(n)
        covariance[:, diagonal_index, diagonal_index] = diagonals
        if self.optimize_weights:
            weights_rows = batched_optimal_weights(covariance)
        else:
            # Materialized (not broadcast) rows so the per-worker Theorem-1
            # dot products below run on the same contiguous layout as the
            # scalar path.
            weights_rows = np.tile(uniform_weights(n), (g, 1))
        estimates: list[WorkerErrorEstimate] = []
        for index, (worker, triples, worst_status, _) in enumerate(group):
            weights = weights_rows[index]
            # DeltaMethodModel.linear_combination + .interval, inlined with
            # the identical operations (its finiteness validation is skipped;
            # every input here is finite by construction).
            value = float(weights @ values[index])
            raw = float(weights @ covariance[index] @ weights)
            deviation = math.sqrt(max(raw, 0.0))
            estimates.append(
                WorkerErrorEstimate(
                    worker=worker,
                    interval=confidence_interval_from_moments(
                        value, deviation, self.confidence
                    ),
                    n_tasks=matrix.n_tasks_of(worker),
                    triples=tuple(triples),
                    weights=tuple(float(w) for w in weights),
                    status=worst_status,
                )
            )
        return estimates

    # ------------------------------------------------------------------ #

    def _aggregate(
        self,
        stats: AgreementStatistics,
        worker: int,
        triple_estimates: list[TripleEstimate],
    ) -> tuple[ConfidenceInterval, np.ndarray]:
        """Step 3 of Algorithm A2: combine triple estimates via Theorem 1."""
        n = len(triple_estimates)
        values = np.array([t.error_rate for t in triple_estimates])
        # Plug-in error rate of the evaluated worker for Lemma 4's C(i, j, j');
        # the simple average of the triple estimates is a consistent plug-in.
        # (Scalar min/max: np.clip on a 0-d value costs ~0.2ms per call.)
        p_plugin = min(max(float(np.mean(values)), 0.0), 0.5)
        covariance = np.zeros((n, n))
        np.fill_diagonal(
            covariance, [t.deviation**2 for t in triple_estimates]
        )
        if n >= 2 and stats.has_dense_backend:
            cross = _vectorized_cross_covariances(
                stats, worker, triple_estimates, p_plugin, self.clamp_margin
            )
            # Mirror the upper triangle (as the scalar loop does) rather than
            # taking both halves of the grid: the two halves can differ in
            # the last ulp because the four Lemma-4 terms sum in a different
            # order on each side.
            upper = _upper_triangle_indices(n)
            covariance[upper] = cross[upper]
            covariance[(upper[1], upper[0])] = cross[upper]
        else:
            for a in range(n):
                for b in range(a + 1, n):
                    value = _cross_triple_covariance(
                        stats,
                        worker,
                        triple_estimates[a],
                        triple_estimates[b],
                        p_plugin,
                        self.clamp_margin,
                    )
                    covariance[a, b] = value
                    covariance[b, a] = value
        if self.optimize_weights:
            weights = optimal_weights(covariance)
        else:
            weights = uniform_weights(n)
        model = DeltaMethodModel.linear_combination(values, weights, covariance)
        return model.interval(self.confidence), weights

    def _degenerate_estimate(
        self, matrix: ResponseMatrix, worker: int
    ) -> WorkerErrorEstimate:
        """Trivial full-range interval when no usable triple exists."""
        interval = ConfidenceInterval(
            mean=0.25,
            lower=0.0,
            upper=1.0,
            confidence=self.confidence,
            deviation=1.0,
        )
        return WorkerErrorEstimate(
            worker=worker,
            interval=interval,
            n_tasks=matrix.n_tasks_of(worker),
            triples=(),
            weights=(),
            status=EstimateStatus.DEGENERATE,
        )


def evaluate_worker(
    matrix: ResponseMatrix,
    worker: int,
    confidence: float,
    optimize_weights: bool = True,
    pairing_strategy: str = "greedy",
    rng: np.random.Generator | None = None,
    backend: str = "auto",
) -> WorkerErrorEstimate:
    """One-call wrapper around :class:`MWorkerEstimator` for a single worker."""
    estimator = MWorkerEstimator(
        confidence=confidence,
        optimize_weights=optimize_weights,
        pairing_strategy=pairing_strategy,
        rng=rng,
        backend=backend,
    )
    return estimator.evaluate_worker(matrix, worker)


def evaluate_all_workers(
    matrix: ResponseMatrix,
    confidence: float,
    optimize_weights: bool = True,
    pairing_strategy: str = "greedy",
    rng: np.random.Generator | None = None,
    backend: str = "auto",
    shards: int | str = 1,
) -> list[WorkerErrorEstimate]:
    """One-call wrapper around :class:`MWorkerEstimator` for all workers."""
    estimator = MWorkerEstimator(
        confidence=confidence,
        optimize_weights=optimize_weights,
        pairing_strategy=pairing_strategy,
        rng=rng,
        backend=backend,
        shards=shards,
    )
    return estimator.evaluate_all(matrix)
