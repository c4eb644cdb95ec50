"""Incremental worker evaluation.

The paper's conclusion notes that the methods "can be easily modified to be
incremental, to keep efficiently updating worker error rates as more tasks
get done."  This module provides that mode of operation: an
:class:`IncrementalEvaluator` accepts responses one at a time (or in
batches), maintains the response store, and recomputes confidence intervals
on demand — only for the workers whose estimate can actually have changed
since the last computation, which is the efficient path when a stream of
task completions trickles in.

The estimates themselves are identical to running the batch estimator on the
accumulated data (the class delegates to :class:`MWorkerEstimator`); the
value added is the bookkeeping of what changed and the per-worker caching.

Correct invalidation: the dependency ledger
-------------------------------------------

A response by worker ``w`` on task ``t`` changes exactly the pair statistics
``(w, u)`` for the workers ``u`` who also answered ``t`` (and the triple
counts of triples contained in ``{w} | answered(t)``).  Which *cached
estimates* that invalidates is subtler than "``w`` and everyone on ``t``":
worker ``x``'s estimate also reads the partners' mutual rate ``q_{w,u}``
inside its Lemma-4 covariance whenever ``w`` and ``u`` are partners in
``x``'s triples, and the greedy pairing inspects arbitrary candidate pairs.
An earlier version of this class invalidated only ``{w} | answered(t)`` and
therefore served stale intervals for such third-party workers.

On the vectorized backends every recompute *returns* a compact
:class:`~repro.core.deps.WorkerFootprint` alongside the estimate — the
pairing scan log, the formed partners' support set and the touch-target
flag, derived from the array operations the evaluation actually executed
(see :mod:`repro.core.deps` for the exact semantics).  Footprints are
aggregated into a :class:`~repro.core.deps.DependencyLedger`, and each
micro-batch's invalidation is a handful of NumPy membership tests against
the batch's changed-pair array — one vectorized intersection pass, not a
per-pair Python set probe.  Because the estimator is deterministic, a
cached estimate stays valid exactly as long as none of the statistics its
computation read have changed; streamed responses therefore invalidate
precisely the cached estimates whose footprints intersect the changed
pairs, preserving the "identical to batch" guarantee while letting
unrelated cached intervals survive.

Footprints are recorded on **every** execution tier — the batched serial
path and the thread/process shards ship their per-shard dependency logs
back with the estimates (see
:func:`~repro.core.parallel.evaluate_worker_subset`) — so incremental
recomputes honour ``shards=`` like any batch run.  The remaining serial
fallbacks are the documented ones: the dict backend (whose scalar path
still records dependencies through the legacy per-read observer,
:class:`~repro.core.deps.ObserverDependencyTracker`), a custom ``rng``,
and fewer dirty workers than shards.  The ledger is durable: it is
persisted by :meth:`IncrementalEvaluator.export_state` together with the
clean cached estimates, so a resumed session serves warm caches without
recomputing untouched workers.

Delta-updated statistics
------------------------

The evaluator maintains a vectorized statistics backend alongside the
response matrix (unless ``backend="dict"``): each ingested response patches
the cached pairwise common/agreement count matrices, bitset rows/planes and
vote table in O(co-attempters) time, so recomputation after a burst of
updates pays only for the affected workers' covariance assembly, never for
rebuilding the statistics from scratch.  Every backend of the
``backend=`` knob — dense, sparse, bitset — implements the same
``apply_response`` delta update, so streaming works identically under the
cost-based ``"auto"`` choice whichever backend it lands on.

Micro-batched ingestion
-----------------------

:meth:`IncrementalEvaluator.apply_batch` is the batched form the async
ingestion subsystem (:mod:`repro.serve`) drives: one backend
``apply_responses`` call per micro-batch (a single derived-cache
invalidation pass, grouped per-worker-row storage writes while no count
matrix is materialized), unseen worker/task ids grown once per batch via
the delta extension path (no backend rebuild —
:attr:`IncrementalEvaluator.backend_rebuilds` counts the exceptions), and
the dependency-tracked cache invalidation run over the batch's changed
pairs as a set.  Results are bit-identical to per-event ingestion for any
chopping of the stream; see the streaming determinism contract in
:mod:`repro.core.agreement`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    InsufficientDataError,
)
from repro.core.agreement import AgreementStatistics, pair_key
from repro.core.deps import (
    DependencyLedger,
    ObserverDependencyTracker,
    WorkerFootprint,
)
from repro.core.m_worker import MWorkerEstimator
from repro.data.dense_backend import (
    AgreementBackendBase,
    auto_backend_choice,
    resolve_backend,
)
from repro.data.response_matrix import ResponseMatrix
from repro.types import (
    ConfidenceInterval,
    EstimateStatus,
    TripleEstimate,
    WorkerErrorEstimate,
)

__all__ = ["BatchApplyStats", "IncrementalEvaluator"]


@dataclass(frozen=True)
class BatchApplyStats:
    """Bookkeeping of one :meth:`IncrementalEvaluator.apply_batch` call.

    Attributes
    ----------
    n_events:
        Number of records in the batch (including reaffirmations).
    n_changed:
        Records that actually changed a statistic (fresh or flipped labels).
    invalidated:
        Worker ids whose estimate was invalidated by the batch (responders,
        co-attempters, and third-party readers of a changed pair).
    cached_invalidated:
        How many of those had a live cached estimate before the batch (the
        recomputation the batch actually costs at the next query).
    backend_invalidations:
        Derived-cache invalidation passes the statistics backend paid for
        this batch (1 for any statistic-changing batch on the vectorized
        backends, 0 for a pure reaffirmation batch or the dict path) — the
        number a singleton-apply stream pays *per event*.
    """

    n_events: int
    n_changed: int
    invalidated: frozenset[int]
    cached_invalidated: int
    backend_invalidations: int


def _backend_class(kind: str) -> type[AgreementBackendBase]:
    """Concrete backend class for a persisted ``backend_kind`` name.

    Imported lazily so the snapshot-restore path does not widen this
    module's import graph; attaching never needs scipy, even for a
    persisted sparse backend (its CSR index is consumed before export).
    """
    from repro.data.dense_backend import DenseAgreementBackend
    from repro.data.sparse_backend import (
        BitsetAgreementBackend,
        SparseAgreementBackend,
    )

    classes: dict[str, type[AgreementBackendBase]] = {
        "dense": DenseAgreementBackend,
        "sparse": SparseAgreementBackend,
        "bitset": BitsetAgreementBackend,
    }
    try:
        return classes[kind]
    except KeyError:
        raise DataValidationError(
            f"unknown persisted backend kind {kind!r}"
        ) from None


class IncrementalEvaluator:
    """Streaming wrapper around the m-worker binary estimator.

    Parameters
    ----------
    n_workers, n_tasks:
        Dimensions of the response matrix being filled in over time.  Tasks
        can be added lazily beyond ``n_tasks`` via :meth:`extend_tasks`.
    confidence:
        Confidence level of the produced intervals.
    optimize_weights:
        Passed through to :class:`MWorkerEstimator`.
    backend:
        Statistics backend: ``"dense"``/``"sparse"``/``"bitset"`` keep
        delta-updated count structures (recommended), ``"dict"`` recomputes
        from the sparse store, ``"auto"`` applies the cost model over grid
        size and observed fill.  Results are identical either way.
    shards:
        Execution spec for incremental recomputes, passed through to the
        wrapped :class:`MWorkerEstimator` (validated here, so a malformed
        spec fails at construction).  On the vectorized backends dirty
        workers are re-evaluated in bulk through
        :func:`~repro.core.parallel.evaluate_worker_subset` with dependency
        footprints shipped back alongside the estimates, so
        ``"auto"``/``"thread:N"``/``"process:N"`` engage exactly as they do
        for a batch ``evaluate_all`` — no silent serial degradation.  The
        documented serial fallbacks are the dict backend (scalar path, the
        legacy per-read observer), a custom rng, and fewer dirty workers
        than shards.
    dependency_tracking:
        ``"auto"`` (default) uses the vectorized dependency ledger on the
        vectorized backends and the per-read observer on the dict path;
        ``"observer"`` forces the legacy observer everywhere (serial
        recomputes) — the reference mode the differential suite checks
        ledger invalidation decisions against.

    Notes
    -----
    Estimates are cached per worker.  Each cached estimate records the exact
    pair statistics its computation read; a streamed response invalidates the
    caches whose dependencies it touches (see the module docstring).  On
    sparse streams most cached intervals still survive, and every interval
    served equals what a fresh batch run over the accumulated data would
    produce.
    """

    def __init__(
        self,
        n_workers: int,
        n_tasks: int,
        confidence: float = 0.95,
        optimize_weights: bool = True,
        backend: str = "auto",
        shards: int | str = 1,
        dependency_tracking: str = "auto",
    ) -> None:
        if n_workers < 3:
            raise ConfigurationError(
                "incremental evaluation needs at least 3 workers to ever produce "
                "an estimate"
            )
        if dependency_tracking not in ("auto", "observer"):
            raise ConfigurationError(
                "dependency_tracking must be 'auto' or 'observer', got "
                f"{dependency_tracking!r}"
            )
        self._matrix = ResponseMatrix(n_workers=n_workers, n_tasks=n_tasks, arity=2)
        self._estimator = MWorkerEstimator(
            confidence=confidence,
            optimize_weights=optimize_weights,
            backend=backend,
            shards=shards,
        )
        self._backend_choice = backend
        self._backend: AgreementBackendBase | None = resolve_backend(
            self._matrix, backend
        )
        self._dependency_tracking = dependency_tracking
        self._tracker = ObserverDependencyTracker()
        self._ledger = DependencyLedger()
        self._cache: dict[int, WorkerErrorEstimate] = {}
        self._dirty: set[int] = set(range(n_workers))
        self._responses_seen = 0
        self._backend_rebuilds = 0
        self._recompute_count = 0

    # ------------------------------------------------------------------ #
    # Data ingestion
    # ------------------------------------------------------------------ #

    @property
    def matrix(self) -> ResponseMatrix:
        """The accumulated response data (do not mutate directly)."""
        return self._matrix

    @property
    def n_responses(self) -> int:
        """Number of responses ingested so far."""
        return self._responses_seen

    @property
    def dirty_workers(self) -> set[int]:
        """Workers whose cached estimate is stale (or missing)."""
        return set(self._dirty)

    @property
    def backend_rebuilds(self) -> int:
        """How many times the statistics backend was rebuilt from scratch.

        Growing the id space takes the O(added ids) delta path whenever the
        backend class is unchanged; a rebuild happens only when the
        ``"auto"`` cost model flips the backend *kind* for the grown grid.
        The regression suite counts these to pin the delta path.
        """
        return self._backend_rebuilds

    def extend_tasks(self, additional_tasks: int) -> None:
        """Grow the task space (e.g. when a new batch of tasks is published).

        Cached estimates stay valid: the added tasks carry no responses, so
        no statistic any cached computation read has changed.  The matrix
        and backend grow in place (O(added cells) array padding — no count
        recomputation); only when the ``"auto"`` cost model flips the
        backend kind for the grown cell count (and the now-lower observed
        fill) is the backend rebuilt, and the flip is invisible in results
        — backends are bit-identical by contract, and the
        threshold-crossing regression tests
        (``tests/unit/test_incremental_and_new_baselines.py`` and
        ``tests/unit/test_sparse_backend.py``) pin that served intervals
        still equal a fresh batch run across every flip.
        """
        if additional_tasks <= 0:
            raise ConfigurationError(
                f"additional_tasks must be positive, got {additional_tasks}"
            )
        self._grow(0, additional_tasks)

    def extend_workers(self, additional_workers: int) -> None:
        """Grow the worker space (new workers joining the live pool).

        New workers carry no responses, so cached estimates stay valid;
        they are marked dirty (nothing cached) and served once they have
        data.  Same delta-vs-rebuild contract as :meth:`extend_tasks`.
        """
        if additional_workers <= 0:
            raise ConfigurationError(
                f"additional_workers must be positive, got {additional_workers}"
            )
        self._grow(additional_workers, 0)

    def _grow(self, additional_workers: int, additional_tasks: int) -> None:
        old_workers = self._matrix.n_workers
        self._matrix.extend(additional_workers, additional_tasks)
        self._dirty.update(range(old_workers, self._matrix.n_workers))
        current = "dict" if self._backend is None else self._backend.name
        if self._backend_choice == "auto":
            target = auto_backend_choice(
                self._matrix.n_workers,
                self._matrix.n_tasks,
                self._matrix.n_responses,
                arity=self._matrix.arity,
            )
        else:
            # An explicit choice never flips kinds mid-stream (including a
            # degraded "sparse" request: the degradation held at
            # construction and growth only lowers density / raises cells,
            # so the instance we already have keeps serving).
            target = current
        if target == current:
            if self._backend is not None:
                self._backend.extend(additional_workers, additional_tasks)
        else:
            self._backend = resolve_backend(self._matrix, self._backend_choice)
            self._backend_rebuilds += 1

    def _auto_extend_for(self, records: list[tuple[int, int, int]]) -> None:
        """Grow the id space to cover any unseen worker/task ids (one pass)."""
        max_worker = max(record[0] for record in records)
        max_task = max(record[1] for record in records)
        additional_workers = max(0, max_worker + 1 - self._matrix.n_workers)
        additional_tasks = max(0, max_task + 1 - self._matrix.n_tasks)
        if additional_workers or additional_tasks:
            self._grow(additional_workers, additional_tasks)

    def add_response(self, worker: int, task: int, label: int) -> None:
        """Ingest one response and invalidate exactly the affected caches.

        Ids unseen at construction are routed through the delta growth path
        of :meth:`extend_tasks` / :meth:`extend_workers` first (no backend
        rebuild), so a live stream can outgrow the constructed dimensions.
        """
        if worker >= self._matrix.n_workers or task >= self._matrix.n_tasks:
            if worker >= 0 and task >= 0:
                self._auto_extend_for([(worker, task, label)])
        previous = self._matrix.response(worker, task)
        co_attempters = [
            other for other in self._matrix.workers_of(task) if other != worker
        ]
        self._matrix.add_response(worker, task, label)
        if self._backend is not None:
            self._backend.apply_response(worker, task, label, previous)
        self._responses_seen += 1
        if previous is not None and previous == label:
            return  # re-affirmed response: no statistic changed, caches stay
        self._invalidate(worker)
        changed = [pair_key(worker, other) for other in co_attempters]
        for reader in self._readers_of(changed):
            self._invalidate(reader)

    def apply_batch(
        self,
        records: Iterable[tuple[int, int, int]],
        auto_extend: bool = True,
    ) -> BatchApplyStats:
        """Ingest one micro-batch of ``(worker, task, label)`` records.

        Bit-identical to calling :meth:`add_response` per record (the
        backend replays the same deltas in the same order; the
        estimator-facing counts are equal, and recomputation is
        deterministic from the counts), but the bookkeeping is paid per
        batch, not per event: the backend invalidates its derived caches
        once (and takes its grouped per-row storage path while no count
        matrix is materialized), unseen ids grow the id space once, and the
        dependency-tracked cache invalidation runs over the batch's changed
        pairs as a set.  Returns the per-batch stats the streaming session
        reports.

        Batches of disjoint workers commute: they touch disjoint response
        cells under the last-write-wins upserts, and the ledger's
        invalidation is order-free over the changed-pair set.  Resuming a
        legacy per-partition WAL layout relies on this: its merged replay
        keeps each worker's events in order but interleaves workers
        differently from the original stream, and still accumulates the
        same matrix and serves the same bits.
        """
        batch = [(int(w), int(t), int(label)) for w, t, label in records]
        if not batch:
            return BatchApplyStats(0, 0, frozenset(), 0, 0)
        if auto_extend and all(w >= 0 and t >= 0 for w, t, _ in batch):
            self._auto_extend_for(batch)
        # Validate the WHOLE batch before mutating anything: a mid-batch
        # failure after partial application would leave the matrix and the
        # statistics backend divergent (silently wrong estimates for any
        # caller that catches the error and continues).  With every id and
        # label pre-checked here, neither the matrix writes nor the
        # backend's apply_responses below can fail, so the batch applies
        # atomically.
        for worker, task, label in batch:
            if not (0 <= worker < self._matrix.n_workers):
                raise DataValidationError(
                    f"worker id {worker} out of range "
                    f"[0, {self._matrix.n_workers})"
                )
            if not (0 <= task < self._matrix.n_tasks):
                raise DataValidationError(
                    f"task id {task} out of range [0, {self._matrix.n_tasks})"
                )
            if not (0 <= label < self._matrix.arity):
                raise DataValidationError(
                    f"label {label} out of range [0, {self._matrix.arity})"
                )
        events: list[tuple[int, int, int, int | None]] = []
        changed_pairs: set[tuple[int, int]] = set()
        changed_workers: set[int] = set()
        n_changed = 0
        for worker, task, label in batch:
            previous = self._matrix.response(worker, task)
            if previous is None or previous != label:
                n_changed += 1
                changed_workers.add(worker)
                for other in self._matrix.workers_of(task):
                    if other != worker:
                        changed_pairs.add(pair_key(worker, other))
            self._matrix.add_response(worker, task, label)
            events.append((worker, task, label, previous))
            self._responses_seen += 1
        backend_invalidations = 0
        if self._backend is not None:
            before = self._backend.invalidation_events
            self._backend.apply_responses(events)
            backend_invalidations = self._backend.invalidation_events - before
        invalidated = set(changed_workers) | self._readers_of(changed_pairs)
        cached_invalidated = sum(
            1
            for worker in invalidated
            if worker in self._cache and worker not in self._dirty
        )
        for worker in invalidated:
            self._invalidate(worker)
        return BatchApplyStats(
            n_events=len(batch),
            n_changed=n_changed,
            invalidated=frozenset(invalidated),
            cached_invalidated=cached_invalidated,
            backend_invalidations=backend_invalidations,
        )

    # ------------------------------------------------------------------ #
    # State (de)serialization — the durable-session snapshot hooks
    # ------------------------------------------------------------------ #

    def export_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Serializable snapshot: ``(JSON-safe meta, named arrays)``.

        The arrays are the response records and gold labels of the matrix
        plus — when a vectorized backend is live — its full
        ``export_shared_state()`` payload (packed planes, count matrices,
        vote table, dense triple tensor where cacheable) under
        ``backend.``-prefixed keys, so :meth:`from_state` restores the
        derived caches without rebuilding any count.  Clean cached
        estimates whose dependencies live in the ledger are persisted too
        (``cache.*`` arrays: interval rows, CSR triple records, weights)
        together with the ledger itself (``deps.*`` arrays), so a resumed
        session serves warm intervals for untouched workers with zero
        recomputation — float64 round-trips exactly, making restored
        estimates bit-identical to the ones exported.  Workers tracked by
        the legacy observer (dict-backend recomputes) restore cold; they
        are recomputed deterministically from the counts, so omitting them
        cannot change a served interval (only when it is recomputed).
        Exporting materializes the backend's lazy caches as a side effect,
        exactly like the process-sharding export this reuses.
        """
        matrix = self._matrix
        count = matrix.n_responses
        workers = np.empty(count, dtype=np.int64)
        tasks = np.empty(count, dtype=np.int64)
        labels = np.empty(count, dtype=np.int64)
        for position, (worker, task, label) in enumerate(matrix.iter_responses()):
            workers[position] = worker
            tasks[position] = task
            labels[position] = label
        gold = matrix.gold_labels
        arrays: dict[str, np.ndarray] = {
            "resp_worker": workers,
            "resp_task": tasks,
            "resp_label": labels,
            "gold_task": np.fromiter(gold.keys(), dtype=np.int64, count=len(gold)),
            "gold_label": np.fromiter(gold.values(), dtype=np.int64, count=len(gold)),
        }
        backend_kind = "dict" if self._backend is None else self._backend.name
        if self._backend is not None:
            for key, array in self._backend.export_shared_state().items():
                arrays[f"backend.{key}"] = array
        ledger_workers = sorted(
            worker
            for worker in self._ledger.workers
            if worker in self._cache and worker not in self._dirty
        )
        if ledger_workers:
            arrays.update(self._ledger.export_arrays())
            arrays.update(self._export_cache_arrays(ledger_workers))
        meta = {
            "n_workers": matrix.n_workers,
            "n_tasks": matrix.n_tasks,
            "arity": matrix.arity,
            "confidence": self._estimator.confidence,
            "optimize_weights": self._estimator.optimize_weights,
            "backend_choice": self._backend_choice,
            "backend_kind": backend_kind,
            "responses_seen": self._responses_seen,
            "backend_rebuilds": self._backend_rebuilds,
            "estimate_status_names": [status.name for status in EstimateStatus],
        }
        return meta, arrays

    def _export_cache_arrays(
        self, workers: list[int]
    ) -> dict[str, np.ndarray]:
        """Flat ``cache.*`` arrays for the given clean cached workers.

        Interval rows are ``(mean, lower, upper, confidence, deviation)``;
        triples are stored CSR-style (``triple_offsets`` indexes into the
        flat partner/value/status/weight arrays) with value rows
        ``(error_rate, deviation, d_partner_a, d_partner_b)`` — the
        derivative mapping of a binary triple has exactly the two partners
        as keys, so two columns round-trip it losslessly.
        """
        status_index = {status: i for i, status in enumerate(EstimateStatus)}
        k = len(workers)
        interval = np.empty((k, 5), dtype=np.float64)
        n_tasks = np.empty(k, dtype=np.int64)
        status = np.empty(k, dtype=np.int64)
        triple_offsets = np.zeros(k + 1, dtype=np.int64)
        partners: list[tuple[int, int]] = []
        values: list[tuple[float, float, float, float]] = []
        triple_status: list[int] = []
        weights: list[float] = []
        for i, worker in enumerate(workers):
            estimate = self._cache[worker]
            bounds = estimate.interval
            interval[i] = (
                bounds.mean,
                bounds.lower,
                bounds.upper,
                bounds.confidence,
                bounds.deviation,
            )
            n_tasks[i] = estimate.n_tasks
            status[i] = status_index[estimate.status]
            triple_offsets[i + 1] = triple_offsets[i] + len(estimate.triples)
            for triple, weight in zip(estimate.triples, estimate.weights):
                a, b = triple.partners
                partners.append((a, b))
                values.append(
                    (
                        triple.error_rate,
                        triple.deviation,
                        triple.derivatives[a],
                        triple.derivatives[b],
                    )
                )
                triple_status.append(status_index[triple.status])
                weights.append(weight)
        return {
            "cache.workers": np.asarray(workers, dtype=np.int64),
            "cache.interval": interval,
            "cache.n_tasks": n_tasks,
            "cache.status": status,
            "cache.triple_offsets": triple_offsets,
            "cache.triple_partners": np.asarray(
                partners, dtype=np.int64
            ).reshape(-1, 2),
            "cache.triple_values": np.asarray(
                values, dtype=np.float64
            ).reshape(-1, 4),
            "cache.triple_status": np.asarray(triple_status, dtype=np.int64),
            "cache.weights_flat": np.asarray(weights, dtype=np.float64),
        }

    @classmethod
    def from_state(
        cls,
        meta: dict,
        arrays: dict[str, np.ndarray],
        *,
        confidence: float | None = None,
        optimize_weights: bool | None = None,
        backend: str | None = None,
        shards: int | str = 1,
        dependency_tracking: str = "auto",
    ) -> "IncrementalEvaluator":
        """Rebuild an evaluator from :meth:`export_state` output.

        The matrix is bulk-loaded via
        :meth:`~repro.data.response_matrix.ResponseMatrix.from_arrays` and
        the backend re-attached from its exported caches
        (``attach_shared_state`` — no count is recomputed, which is what
        makes resuming O(delta)).  Arrays are adopted as-is and must be
        writable (the durable snapshot loader hands out fresh copies).
        When the snapshot carries ``deps.*``/``cache.*`` arrays and the
        effective configuration matches the persisted one, the dependency
        ledger and the clean cached estimates are restored warm —
        untouched workers are served with zero recomputation,
        bit-identical to the exported intervals.  Otherwise (dict backend,
        changed ``confidence``/``optimize_weights``, forced observer mode,
        or an old snapshot) caches start cold and are recomputed on
        demand, bit-identical to an uninterrupted evaluator by the
        determinism contract.  ``confidence`` / ``optimize_weights`` /
        ``backend`` default to the persisted configuration; passing a
        different ``backend`` choice rebuilds the backend from the
        restored matrix instead of re-attaching (results are identical
        either way).
        """
        self = cls.__new__(cls)
        n_workers = int(meta["n_workers"])
        n_tasks = int(meta["n_tasks"])
        arity = int(meta["arity"])
        self._matrix = ResponseMatrix.from_arrays(
            arrays["resp_worker"],
            arrays["resp_task"],
            arrays["resp_label"],
            n_workers=n_workers,
            n_tasks=n_tasks,
            arity=arity,
            gold_tasks=arrays.get("gold_task"),
            gold_labels=arrays.get("gold_label"),
        )
        confidence = (
            float(meta["confidence"]) if confidence is None else float(confidence)
        )
        optimize_weights = (
            bool(meta["optimize_weights"])
            if optimize_weights is None
            else bool(optimize_weights)
        )
        choice = meta["backend_choice"] if backend is None else backend
        self._estimator = MWorkerEstimator(
            confidence=confidence,
            optimize_weights=optimize_weights,
            backend=choice,
            shards=shards,
        )
        self._backend_choice = choice
        kind = meta["backend_kind"]
        if choice != meta["backend_choice"]:
            self._backend = resolve_backend(self._matrix, choice)
        elif kind == "dict":
            self._backend = None
        else:
            backend_arrays = {
                key.split(".", 1)[1]: value
                for key, value in arrays.items()
                if key.startswith("backend.")
            }
            self._backend = _backend_class(kind).attach_shared_state(
                backend_arrays,
                n_workers=n_workers,
                n_tasks=n_tasks,
                arity=arity,
            )
        if dependency_tracking not in ("auto", "observer"):
            raise ConfigurationError(
                "dependency_tracking must be 'auto' or 'observer', got "
                f"{dependency_tracking!r}"
            )
        self._dependency_tracking = dependency_tracking
        self._tracker = ObserverDependencyTracker()
        self._ledger = DependencyLedger()
        self._cache = {}
        self._dirty = set(range(n_workers))
        self._responses_seen = int(meta["responses_seen"])
        self._backend_rebuilds = int(meta["backend_rebuilds"])
        self._recompute_count = 0
        if (
            self._use_ledger()
            and "deps.workers" in arrays
            and "cache.workers" in arrays
            and confidence == float(meta["confidence"])
            and optimize_weights == bool(meta["optimize_weights"])
            and "estimate_status_names" in meta
        ):
            self._restore_cache(meta, arrays)
        return self

    def _restore_cache(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        """Re-adopt the persisted ledger and warm estimate caches."""
        statuses = [
            EstimateStatus[name] for name in meta["estimate_status_names"]
        ]
        self._ledger = DependencyLedger.from_arrays(arrays)
        workers = np.asarray(arrays["cache.workers"], dtype=np.int64)
        interval = np.asarray(arrays["cache.interval"], dtype=np.float64)
        n_tasks = np.asarray(arrays["cache.n_tasks"], dtype=np.int64)
        status = np.asarray(arrays["cache.status"], dtype=np.int64)
        offsets = np.asarray(arrays["cache.triple_offsets"], dtype=np.int64)
        partners = np.asarray(arrays["cache.triple_partners"], dtype=np.int64)
        values = np.asarray(arrays["cache.triple_values"], dtype=np.float64)
        triple_status = np.asarray(arrays["cache.triple_status"], dtype=np.int64)
        weights_flat = np.asarray(arrays["cache.weights_flat"], dtype=np.float64)
        for i, worker in enumerate(workers.tolist()):
            start, stop = int(offsets[i]), int(offsets[i + 1])
            triples = []
            for t in range(start, stop):
                a, b = int(partners[t, 0]), int(partners[t, 1])
                error_rate, deviation, d_a, d_b = values[t].tolist()
                triples.append(
                    TripleEstimate(
                        worker=worker,
                        partners=(a, b),
                        error_rate=error_rate,
                        deviation=deviation,
                        derivatives={a: d_a, b: d_b},
                        status=statuses[int(triple_status[t])],
                    )
                )
            mean, lower, upper, confidence, deviation = interval[i].tolist()
            self._cache[worker] = WorkerErrorEstimate(
                worker=worker,
                interval=ConfidenceInterval(
                    mean=mean,
                    lower=lower,
                    upper=upper,
                    confidence=confidence,
                    deviation=deviation,
                ),
                n_tasks=int(n_tasks[i]),
                triples=tuple(triples),
                weights=tuple(weights_flat[start:stop].tolist()),
                status=statuses[int(status[i])],
            )
            self._dirty.discard(worker)

    def add_responses(self, records: Iterable[tuple[int, int, int]]) -> int:
        """Ingest a batch of ``(worker, task, label)`` records; returns the count.

        Delegates to :meth:`apply_batch` (one invalidation pass for the
        whole batch; results identical to per-record ingestion).
        """
        return self.apply_batch(records).n_events

    def _invalidate(self, worker: int) -> None:
        self._dirty.add(worker)
        self._tracker.forget(worker)
        self._ledger.forget(worker)

    def _readers_of(self, changed_pairs) -> set[int]:
        """Cached-estimate owners whose recorded reads touch the pairs.

        Consults both dependency structures: a cached worker lives in the
        ledger when its last recompute took the footprint path and in the
        observer tracker when it took the scalar dict path, so the union is
        exact whichever mix of paths produced the current caches (e.g.
        across a mid-stream dict-to-dense backend flip).
        """
        changed_pairs = list(changed_pairs)
        if not changed_pairs:
            return set()
        readers = self._ledger.invalidated(changed_pairs)
        for key in changed_pairs:
            readers |= self._tracker.readers_of(key)
        return readers

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #

    def _use_ledger(self) -> bool:
        """Whether recomputes take the footprint path (vs the observer).

        The footprint protocol needs the greedy pairing strategy without a
        custom rng and a vectorized backend; ``dependency_tracking=
        "observer"`` forces the legacy path for reference runs.
        """
        return (
            self._dependency_tracking == "auto"
            and self._backend is not None
            and self._estimator.pairing_strategy == "greedy"
            and self._estimator.rng is None
        )

    def _recompute_many(self, workers: list[int]) -> None:
        """Re-evaluate ``workers``, recording each estimate's dependencies.

        Ledger mode: one :func:`~repro.core.parallel.evaluate_worker_subset`
        call, which honours the estimator's ``shards=`` spec (footprints
        ship back through the shard result channel in worker order).
        Observer mode: the legacy serial loop under the per-read observer.
        """
        if not workers:
            return
        self._recompute_count += len(workers)
        if self._use_ledger():
            from repro.core.parallel import evaluate_worker_subset

            stats = AgreementStatistics(
                matrix=self._matrix, backend=self._backend
            )
            estimates, footprints = evaluate_worker_subset(
                self._estimator,
                self._matrix,
                stats,
                list(workers),
                collect_footprints=True,
            )
            for worker, estimate, footprint in zip(
                workers, estimates, footprints
            ):
                self._cache[worker] = estimate
                self._ledger.record(worker, footprint)
                self._dirty.discard(worker)
            return
        stats = AgreementStatistics(
            matrix=self._matrix, backend=self._backend, observer=self._tracker
        )
        for worker in workers:
            self._tracker.begin(worker)
            try:
                estimate = self._estimator.evaluate_worker(
                    self._matrix, worker, stats=stats
                )
            finally:
                self._tracker.finish()
            self._cache[worker] = estimate
            self._dirty.discard(worker)

    @property
    def recompute_count(self) -> int:
        """Total worker re-evaluations over this instance's lifetime.

        A resumed session whose snapshot carried warm caches serves
        untouched workers at zero recomputes; the durable-resume regression
        test pins this counter.
        """
        return self._recompute_count

    def cached_estimate(self, worker: int) -> WorkerErrorEstimate | None:
        """``worker``'s cached estimate if provably current, else ``None``.

        "Provably current" means a live cache entry none of whose recorded
        dependencies changed since it was computed — the read path
        streaming sessions use to serve clean workers without serializing
        behind the ingestion lock.
        """
        if worker in self._cache and worker not in self._dirty:
            return self._cache[worker]
        return None

    @property
    def needs_recompute(self) -> bool:
        """True when any worker with responses would recompute on query."""
        return any(
            self._matrix.n_tasks_of(worker) > 0 for worker in self._dirty
        )

    def estimate(self, worker: int, force: bool = False) -> WorkerErrorEstimate:
        """Current confidence interval for one worker.

        Cached results are reused unless a statistic their computation read
        changed (or ``force`` is set).
        """
        if worker in self._cache and worker not in self._dirty and not force:
            return self._cache[worker]
        if self._matrix.n_tasks_of(worker) == 0:
            raise InsufficientDataError(
                f"worker {worker} has no responses yet; nothing to estimate"
            )
        if force:
            self._invalidate(worker)
        self._recompute_many([worker])
        return self._cache[worker]

    def estimate_all(self, force: bool = False) -> dict[int, WorkerErrorEstimate]:
        """Current intervals for every worker that has any responses.

        Workers with unchanged dependencies are served from the cache; the
        rest are recomputed in one bulk pass sharing a single
        agreement-statistics object (sharded per the ``shards=`` spec in
        ledger mode).
        """
        to_recompute = [
            worker
            for worker in range(self._matrix.n_workers)
            if self._matrix.n_tasks_of(worker) > 0
            and (force or worker in self._dirty or worker not in self._cache)
        ]
        if force:
            for worker in to_recompute:
                self._invalidate(worker)
        self._recompute_many(to_recompute)
        return {
            worker: self._cache[worker]
            for worker in range(self._matrix.n_workers)
            if worker in self._cache
        }
