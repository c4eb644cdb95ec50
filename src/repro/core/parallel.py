"""Thread-parallel execution layer for batch worker evaluation.

The m-worker batch (``MWorkerEstimator.evaluate_all``) is embarrassingly
parallel across workers: each worker's interval is computed from that
worker's own triples over read-only pair and triple counts.  This module
partitions the worker loop across threads that share one statistics object:

* **One thread tier** — the batch spends its time in NumPy kernels that
  release the GIL, so :func:`evaluate_all_threaded` hands contiguous worker
  chunks to a thread pool over the *same* statistics object.  Every
  lazily-built cache is materialized before the fan-out, so the chunks
  only ever read frozen arrays: no export, no spawn, no per-shard memory.
* **A process-wide reusable executor** — :class:`ShardExecutor` lazily
  builds and caches one thread pool per shard count, so repeated
  ``evaluate_all`` / ``filter_spammers`` calls reuse it.  Pools are shut
  down at interpreter exit (or explicitly; the executor is a context
  manager).
* **A cost model** — :func:`auto_shard_choice` resolves ``shards="auto"``
  from the work proxy ``m^2 * n * fill`` (the Lemma-4 term count) and the
  host's usable core count:

  ===========================================  ==========================
  work proxy ``m^2 * n * fill``                resolved tier
  ===========================================  ==========================
  ``< AUTO_SHARD_THREAD_MIN_WORK`` (2^22)      serial (overhead dominates)
  otherwise                                    thread
  ===========================================  ==========================

  On hosts with fewer than two usable cores ``"auto"`` always resolves to
  serial: threads cannot beat the serial path without real parallel
  hardware.

Threads are bit-identical to serial evaluation: chunks evaluate contiguous
worker ranges against the same frozen statistics and the results are
concatenated in chunk order, which is worker order.  The cross-backend
differential suite enforces this over every vectorized backend.  See
:class:`~repro.core.m_worker.MWorkerEstimator` for the full determinism
contract.

The thread tier can additionally return per-chunk **dependency footprints**
(:mod:`repro.core.deps`) alongside the estimates (``collect_footprints=``),
merged in worker order like the estimates — which is what lets the
incremental evaluator's recomputes run sharded via
:func:`evaluate_worker_subset`, with the same dependency records the
serial path would return.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import TYPE_CHECKING

import numpy as np

from repro.core.agreement import AgreementStatistics
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.m_worker import MWorkerEstimator
    from repro.data.response_matrix import ResponseMatrix

__all__ = [
    "AUTO_SHARD_THREAD_MIN_WORK",
    "MAX_AUTO_SHARDS",
    "ShardExecutor",
    "auto_shard_choice",
    "available_cores",
    "contiguous_ranges",
    "evaluate_all_threaded",
    "evaluate_worker_subset",
    "get_executor",
    "parse_shard_spec",
    "resolve_execution",
]

#: Below this much Lemma-4 work (``m^2 * n * fill``) thread chunking costs
#: more than it saves — ``"auto"`` stays serial.  2^22 is roughly the
#: 60x1500 half-filled smoke matrix.
AUTO_SHARD_THREAD_MIN_WORK: int = 1 << 22

#: ``"auto"`` never resolves to more shards than this: the worker loop's
#: parallel efficiency falls off well before the per-shard overhead stops
#: growing.
MAX_AUTO_SHARDS: int = 8


def available_cores() -> int:
    """Usable CPU cores (affinity-aware where the platform reports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def parse_shard_spec(spec: int | str) -> tuple[str, int | None]:
    """Validate a ``shards=`` knob value into ``(tier, shard count)``.

    Accepted values:

    * a positive integer (or its string form) — ``1`` means serial,
      ``N > 1`` means ``N`` threads;
    * ``"auto"`` — defer to :func:`auto_shard_choice` (returned count is
      ``None``).

    Zero, negatives and anything else — including the retired
    tier-prefixed specs such as ``"thread:2"`` — raise
    :class:`~repro.exceptions.ConfigurationError`: a silently-serial typo
    would hide a misconfiguration forever.
    """
    if isinstance(spec, bool):
        raise ConfigurationError(f"shards must be an integer or 'auto', got {spec!r}")
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text == "auto":
            return ("auto", None)
        try:
            count = int(text)
        except ValueError:
            raise ConfigurationError(
                f"invalid shards spec {spec!r}: expected a positive integer "
                "N (N > 1 runs N threads) or 'auto'"
            ) from None
    elif isinstance(spec, int):
        count = spec
    else:
        raise ConfigurationError(
            f"shards must be an integer or 'auto', got {type(spec).__name__}"
        )
    if count < 1:
        raise ConfigurationError(f"shards must be at least 1, got {count}")
    return ("serial", 1) if count == 1 else ("thread", count)


def auto_shard_choice(
    n_workers: int,
    n_tasks: int,
    n_responses: int,
    cores: int | None = None,
) -> tuple[str, int]:
    """Cost model behind ``shards="auto"``: pick ``(tier, shard count)``.

    The work proxy is ``m^2 * n * fill`` — the Lemma-4 term count that
    dominates batch evaluation — weighed against
    :data:`AUTO_SHARD_THREAD_MIN_WORK` (see the module docstring for the
    decision table).  The shard count is ``min(cores, MAX_AUTO_SHARDS, m)``
    so shards never idle or outnumber the workers they evaluate.
    ``cores`` overrides the probed host core count (tests pin both branches
    with it); hosts with fewer than two usable cores always resolve serial.
    """
    if cores is None:
        cores = available_cores()
    if cores < 2 or n_workers < 4:
        return ("serial", 1)
    cells = n_workers * n_tasks
    fill = n_responses / cells if cells else 1.0
    work = n_workers * n_workers * n_tasks * fill
    if work < AUTO_SHARD_THREAD_MIN_WORK:
        return ("serial", 1)
    return ("thread", max(2, min(cores, MAX_AUTO_SHARDS, n_workers)))


def resolve_execution(
    estimator: "MWorkerEstimator",
    matrix: "ResponseMatrix",
    stats: AgreementStatistics,
) -> tuple[str, int]:
    """Resolve an estimator's ``shards`` knob for one ``evaluate_all`` call.

    Returns ``(tier, shard count)`` with tier ``"serial"`` or ``"thread"``.
    Beyond the spec itself the guards force serial whenever the determinism
    contract cannot hold or parallelism cannot help: a custom ``rng``
    (sequential generator consumption cannot be replicated across shards),
    the dict path (no vectorized backend to chunk), non-binary data and
    fewer workers than shards.  Dependency footprints shard freely.
    """
    tier, shards = parse_shard_spec(estimator.shards)
    if tier == "auto":
        tier, shards = auto_shard_choice(
            matrix.n_workers, matrix.n_tasks, matrix.n_responses
        )
    if (
        tier == "serial"
        or estimator.rng is not None
        or not stats.has_dense_backend
        or not matrix.is_binary
        or matrix.n_workers < shards
    ):
        return ("serial", 1)
    return (tier, shards)


def contiguous_ranges(n_workers: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(n_workers)`` into ``shards`` contiguous ``[start, stop)``.

    Contiguity is what makes concatenating per-shard results in shard order
    equal worker order 0..m-1 (the merge step of the determinism contract).
    """
    boundaries = np.linspace(0, n_workers, shards + 1).astype(int)
    return [
        (int(boundaries[index]), int(boundaries[index + 1]))
        for index in range(shards)
    ]


# --------------------------------------------------------------------------- #
# The reusable executor
# --------------------------------------------------------------------------- #


class ShardExecutor:
    """Process-wide cache of thread pools, keyed by size.

    Each pool is created lazily on first use and kept alive, so repeated
    calls (the benchmark's warm loop, a long-lived service answering many
    evaluations) reuse it.  Pools carry **no** per-call state.

    Use :func:`get_executor` for the shared instance; construct directly
    (the class is a context manager) for an isolated, explicitly-scoped
    executor.  ``shutdown`` drains and joins every pool and is idempotent.
    """

    def __init__(self) -> None:
        self._thread_pools: dict[int, ThreadPoolExecutor] = {}
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def thread_pool(self, shards: int) -> ThreadPoolExecutor:
        """The cached thread pool with ``shards`` workers (lazily built)."""
        if self._closed:
            raise ConfigurationError(
                "the shard executor has been shut down; call get_executor() "
                "for a fresh one"
            )
        pool = self._thread_pools.get(shards)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=shards, thread_name_prefix="repro-shard"
            )
            self._thread_pools[shards] = pool
        return pool

    def shutdown(self) -> None:
        """Close every cached pool (graceful drain); safe to call twice."""
        if self._closed:
            return
        self._closed = True
        for thread_pool in self._thread_pools.values():
            thread_pool.shutdown(wait=True)
        self._thread_pools.clear()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


_EXECUTOR: ShardExecutor | None = None


def get_executor() -> ShardExecutor:
    """The process-wide shared executor (recreated after a shutdown)."""
    global _EXECUTOR
    if _EXECUTOR is None or _EXECUTOR.closed:
        _EXECUTOR = ShardExecutor()
    return _EXECUTOR


@atexit.register
def _shutdown_executor_at_exit() -> None:  # pragma: no cover - interpreter exit
    if _EXECUTOR is not None:
        _EXECUTOR.shutdown()


# --------------------------------------------------------------------------- #
# Thread tier
# --------------------------------------------------------------------------- #


def evaluate_all_threaded(
    estimator: "MWorkerEstimator",
    matrix: "ResponseMatrix",
    stats: AgreementStatistics,
    shards: int,
    *,
    workers: list[int],
    collect_footprints: bool = False,
):
    """Evaluate the ordered ``workers`` across the cached thread pool.

    The chunks share the parent's statistics object directly, which is only
    sound because every lazily-built cache they could race to build is
    materialized **before** the fan-out; afterwards the chunks exclusively
    read frozen arrays (the NumPy kernels release the GIL, which is where
    the tier's parallelism comes from).  Each chunk runs
    :meth:`~repro.core.m_worker.MWorkerEstimator.evaluate_worker_range`,
    so it gets the same cross-worker batched stage the serial path runs.
    Results are concatenated in chunk order — worker order — and are
    bit-identical to serial evaluation: each worker's numbers depend only
    on the frozen statistics and the estimator configuration, never on
    chunk membership (the determinism contract of
    :class:`~repro.core.m_worker.MWorkerEstimator`).

    With ``collect_footprints`` the return value is
    ``(estimates, footprints)``, the per-chunk dependency logs merged in
    worker order.  Callers must have checked :func:`resolve_execution`.
    """
    backend = stats.backend
    assert backend is not None, "the thread tier requires a vectorized backend"
    # Materialize every lazily-built cache the chunks read: pair counts,
    # their float64/list mirrors, the pre-clamped rates for this estimator's
    # margin, packed rows (triple counts) and the triple tensor / float32
    # attempts where the backend caches them.
    backend.common_counts
    backend.agreement_counts
    backend.common_counts_f64
    backend.common_counts_list
    backend.clamped_rate_data(estimator.clamp_margin)
    backend._packed_rows
    backend.triple_count_tensor()
    getattr(backend, "_attempts_as_f32", None)
    pool = get_executor().thread_pool(shards)
    futures = [
        pool.submit(
            estimator.evaluate_worker_range,
            matrix,
            stats,
            workers[start:stop],
            collect_footprints=collect_footprints,
        )
        for start, stop in contiguous_ranges(len(workers), shards)
    ]
    # Let every chunk finish before raising a chunk's error, so no chunk is
    # still reading statistics the caller may update after a failed call.
    wait(futures)
    chunks = [future.result() for future in futures]
    if collect_footprints:
        return (
            [estimate for estimates, _ in chunks for estimate in estimates],
            [footprint for _, footprints in chunks for footprint in footprints],
        )
    return [estimate for estimates in chunks for estimate in estimates]


def evaluate_worker_subset(
    estimator: "MWorkerEstimator",
    matrix: "ResponseMatrix",
    stats: AgreementStatistics,
    workers: list[int],
    *,
    collect_footprints: bool = False,
):
    """Evaluate an ordered worker subset under the estimator's ``shards`` spec.

    The one dispatch behind both ``evaluate_all`` (every worker) and the
    incremental evaluator's bulk recomputes (the dirty subset): resolves the
    tier with :func:`resolve_execution` — same cost model, same
    serial-fallback guards — plus the guard that fewer workers than shards
    stay serial (a shard per worker cannot amortize its overhead).  Returns
    the estimates in ``workers`` order, or ``(estimates, footprints)`` when
    ``collect_footprints`` is set.
    """
    tier, shards = resolve_execution(estimator, matrix, stats)
    if tier == "thread" and len(workers) >= shards:
        return evaluate_all_threaded(
            estimator,
            matrix,
            stats,
            shards,
            workers=workers,
            collect_footprints=collect_footprints,
        )
    return estimator.evaluate_worker_range(
        matrix, stats, workers, collect_footprints=collect_footprints
    )
