"""Reusable parallel execution layer for batch worker evaluation.

The m-worker batch (``MWorkerEstimator.evaluate_all``) is embarrassingly
parallel across workers, but the first sharded implementation (the removed
``repro.core.sharded`` module) paid two costs that routinely made it *slower* than serial: every call
spawned a fresh process pool, and every shard rebuilt the count matrices,
vote table and triple-count tensor from the raw arrays.  This module fixes
both and generalizes the machinery to every vectorized backend:

* **Shared-state export** — every backend with
  ``supports_shared_export`` (dense, sparse *and* bitset) serializes its
  precomputed state (packed bit planes, count matrices, vote table, the
  dense triple-count tensor) into ``multiprocessing.shared_memory``
  segments via
  :meth:`~repro.data.dense_backend.AgreementBackendBase.export_shared_state`;
  shard processes attach read-only views
  (:meth:`~repro.data.dense_backend.AgreementBackendBase.attach_shared_state`)
  instead of rebuilding anything.
* **A process-wide reusable executor** — :class:`ShardExecutor` lazily
  spawns and caches one pool per shard count (plus thread pools for the
  thread tier), so the spawn cost amortizes across repeated
  ``evaluate_all`` / ``filter_spammers`` calls.  Pools are shut down at
  interpreter exit (or explicitly; the executor is a context manager).
* **A thread tier** — medium-sized matrices spend their time in NumPy
  kernels that release the GIL; :func:`evaluate_all_threaded` partitions
  the worker loop across a thread pool over the *same* statistics object
  (every lazily-built cache is materialized up front so the chunks only
  ever read frozen arrays).  No export, no spawn, no per-shard memory.
* **A cost model** — :func:`auto_shard_choice` resolves ``shards="auto"``
  to a tier and shard count from the work proxy ``m^2 * n * fill``
  (the Lemma-4 term count) and the host's usable core count:

  ===========================================  ==========================
  work proxy ``m^2 * n * fill``                resolved tier
  ===========================================  ==========================
  ``< AUTO_SHARD_THREAD_MIN_WORK`` (2^22)      serial (overhead dominates)
  ``< AUTO_SHARD_PROCESS_MIN_WORK`` (2^27)     thread
  otherwise                                    process
  ===========================================  ==========================

  On hosts with fewer than two usable cores ``"auto"`` always resolves to
  serial: no tier can beat the serial path without real parallel hardware,
  and pretending otherwise would regress the very benchmarks sharding is
  meant to win.

Every tier is bit-identical to serial evaluation — shards evaluate
contiguous worker ranges against the same frozen statistics and the parent
concatenates the per-range results in range order, which is worker order.
The cross-backend differential suite enforces this for the thread tier and
for process sharding over each exportable backend.  See
:class:`~repro.core.m_worker.MWorkerEstimator` for the full determinism
contract.

Both tiers can additionally ship per-shard **dependency footprints**
(:mod:`repro.core.deps`) back through the same result channel
(``collect_footprints=``), merged in worker order like the estimates —
which is what lets the incremental evaluator's recomputes run sharded via
:func:`evaluate_worker_subset` instead of falling back to serial under the
legacy per-read observer.
"""

from __future__ import annotations

import atexit
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import TYPE_CHECKING

import numpy as np

from repro.core.agreement import AgreementStatistics
from repro.data.dense_backend import _popcount
from repro.exceptions import ConfigurationError
from repro.types import WorkerErrorEstimate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.m_worker import MWorkerEstimator
    from repro.data.dense_backend import AgreementBackendBase
    from repro.data.response_matrix import ResponseMatrix

__all__ = [
    "AUTO_SHARD_PROCESS_MIN_WORK",
    "AUTO_SHARD_THREAD_MIN_WORK",
    "MAX_AUTO_SHARDS",
    "ShardExecutor",
    "SharedMatrixView",
    "auto_shard_choice",
    "available_cores",
    "contiguous_ranges",
    "evaluate_all_process",
    "evaluate_all_threaded",
    "evaluate_worker_subset",
    "get_executor",
    "parse_shard_spec",
    "resolve_execution",
]

#: Below this much Lemma-4 work (``m^2 * n * fill``) even thread-tier
#: chunking costs more than it saves — ``"auto"`` stays serial.  2^22 is
#: roughly the 60x1500 half-filled smoke matrix.
AUTO_SHARD_THREAD_MIN_WORK: int = 1 << 22

#: Above this much work the per-call shared-memory export (a memcpy of the
#: precomputed state) amortizes against the evaluation itself and process
#: shards beat threads; between the two limits ``"auto"`` picks the thread
#: tier (no export, no spawn, NumPy kernels release the GIL).
AUTO_SHARD_PROCESS_MIN_WORK: int = 1 << 27

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

    * a positive integer — ``1`` means serial, ``N > 1`` the process tier
      (the historical meaning of ``shards=N``);
    * ``"auto"`` — defer to :func:`auto_shard_choice` (returned count is
      ``None``);
    * ``"thread:N"`` / ``"process:N"`` — pin the tier explicitly
      (``N == 1`` collapses to serial).

    Zero, negatives and anything else raise
    :class:`~repro.exceptions.ConfigurationError` — a silently-serial typo
    would hide a misconfiguration forever.
    """
    if isinstance(spec, bool):
        raise ConfigurationError(f"shards must be an integer or spec string, got {spec!r}")
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text == "auto":
            return ("auto", None)
        tier = "serial"
        for prefix in ("thread", "process"):
            if text.startswith(prefix + ":"):
                tier, text = prefix, text[len(prefix) + 1 :]
                break
        try:
            count = int(text)
        except ValueError:
            raise ConfigurationError(
                f"invalid shards spec {spec!r}: expected a positive integer, "
                "'auto', 'thread:N' or 'process:N'"
            ) from None
        if count < 1:
            raise ConfigurationError(f"shards must be at least 1, got {count}")
        if count == 1:
            return ("serial", 1)
        return (tier if tier != "serial" else "process", count)
    if not isinstance(spec, int):
        raise ConfigurationError(
            f"shards must be an integer or spec string, got {type(spec).__name__}"
        )
    if spec < 1:
        raise ConfigurationError(f"shards must be at least 1, got {spec}")
    return ("serial", 1) if spec == 1 else ("process", spec)


def auto_shard_choice(
    n_workers: int,
    n_tasks: int,
    n_responses: int,
    cores: int | None = None,
) -> tuple[str, int]:
    """Cost model behind ``shards="auto"``: pick ``(tier, shard count)``.

    The work proxy is ``m^2 * n * fill`` — the Lemma-4 term count that
    dominates batch evaluation — weighed against the documented
    :data:`AUTO_SHARD_THREAD_MIN_WORK` / :data:`AUTO_SHARD_PROCESS_MIN_WORK`
    thresholds (see the module docstring for the decision table).  The
    shard count is ``min(cores, MAX_AUTO_SHARDS, m)`` so shards never idle
    or outnumber the workers they evaluate.  ``cores`` overrides the probed
    host core count (tests pin both branches with it); hosts with fewer
    than two usable cores always resolve serial.
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
    shards = max(2, min(cores, MAX_AUTO_SHARDS, n_workers))
    if work < AUTO_SHARD_PROCESS_MIN_WORK:
        return ("thread", shards)
    return ("process", shards)


def resolve_execution(
    estimator: "MWorkerEstimator",
    matrix: "ResponseMatrix",
    stats: AgreementStatistics,
) -> tuple[str, int]:
    """Resolve an estimator's ``shards`` knob for one ``evaluate_all`` call.

    Returns ``(tier, shard count)`` with tier one of ``"serial"``,
    ``"thread"`` or ``"process"``.  Beyond the spec itself the guards force
    serial whenever the determinism contract cannot hold or parallelism
    cannot help: a custom ``rng`` (sequential generator consumption cannot
    be replicated across shards), an attached statistics observer (the
    legacy per-read recorder must see every read — only the dict backend
    and the differential suite's reference path still attach one; ledger
    footprints shard freely), the dict path (no vectorized backend to
    chunk or export), non-binary data, fewer workers than shards, and —
    for the process tier — a backend without ``supports_shared_export``.
    """
    tier, shards = parse_shard_spec(estimator.shards)
    if tier == "auto":
        tier, shards = auto_shard_choice(
            matrix.n_workers, matrix.n_tasks, matrix.n_responses
        )
    if tier == "serial":
        return ("serial", 1)
    if (
        estimator.rng is not None
        or stats.observer is not None
        or not stats.has_dense_backend
        or not matrix.is_binary
        or matrix.n_workers < shards
    ):
        return ("serial", 1)
    if tier == "process" and not getattr(
        stats.backend, "supports_shared_export", False
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
# Shared-memory plumbing
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _ArraySpec:
    """Name/shape/dtype triplet describing one shared-memory array."""

    name: str
    shape: tuple[int, ...]
    dtype: str


class SharedMatrixView:
    """The slice of the :class:`ResponseMatrix` interface shards need.

    Worker evaluation only consults the matrix for its dimensions, arity
    and per-worker response counts — everything else flows through the
    statistics backend.  The per-worker counts are computed **once** by the
    exporting parent (one popcount pass over the attempt plane) and shipped
    as a length-``m`` array, so ``n_tasks_of`` is an O(1) lookup instead of
    the O(n) row sum every estimate used to pay.
    """

    def __init__(self, task_counts: np.ndarray, n_tasks: int, arity: int) -> None:
        self._task_counts = task_counts
        self._n_tasks = int(n_tasks)
        self._arity = int(arity)

    @property
    def n_workers(self) -> int:
        return self._task_counts.shape[0]

    @property
    def n_tasks(self) -> int:
        return self._n_tasks

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def is_binary(self) -> bool:
        return self._arity == 2

    def n_tasks_of(self, worker: int) -> int:
        return int(self._task_counts[worker])


def _export_array(array: np.ndarray) -> tuple[SharedMemory, _ArraySpec]:
    """Copy ``array`` into a fresh shared-memory segment."""
    array = np.ascontiguousarray(array)
    segment = SharedMemory(create=True, size=max(array.nbytes, 1))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[...] = array
    return segment, _ArraySpec(segment.name, array.shape, array.dtype.str)


def _attach_array(spec: _ArraySpec) -> tuple[SharedMemory, np.ndarray]:
    """Map an exported segment without adopting ownership of it.

    Before Python 3.13 every ``SharedMemory`` attachment registers with the
    resource tracker, which then unlinks the segment when *any* attaching
    process exits; the parent owns these segments, so child attachments are
    de-registered (or created with ``track=False`` where available).
    """
    try:
        segment = SharedMemory(name=spec.name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        # Suppress registration during the attach instead of registering and
        # unregistering: with several shards attaching the same segment, the
        # register/unregister pairs race in the shared tracker process and
        # spray KeyError tracebacks on exit.
        original_register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None  # type: ignore[assignment]
        try:
            segment = SharedMemory(name=spec.name)
        finally:
            resource_tracker.register = original_register  # type: ignore[assignment]
    array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
    return segment, array


def _backend_class(name: str) -> type["AgreementBackendBase"]:
    """Map an exported backend's ``name`` to its class (in any process)."""
    if name == "dense":
        from repro.data.dense_backend import DenseAgreementBackend

        return DenseAgreementBackend
    if name == "sparse":
        from repro.data.sparse_backend import SparseAgreementBackend

        return SparseAgreementBackend
    if name == "bitset":
        from repro.data.sparse_backend import BitsetAgreementBackend

        return BitsetAgreementBackend
    raise ConfigurationError(f"backend {name!r} has no shared-state export")


# --------------------------------------------------------------------------- #
# The reusable executor
# --------------------------------------------------------------------------- #


class ShardExecutor:
    """Process-wide cache of spawn pools and thread pools, keyed by size.

    The first sharded implementation spawned a fresh ``"spawn"`` pool per
    ``evaluate_all`` call, which cost more than the evaluation it
    parallelized.  This executor creates each pool lazily on first use and
    keeps it alive, so repeated calls (the benchmark's best-of-N loop, a
    long-lived service answering many evaluations) pay the spawn once.
    Pools carry **no** per-call state: every task payload ships the
    shared-memory specs it needs and the pool workers cache their
    attachment keyed by export token (:func:`_run_shard`).

    Use :func:`get_executor` for the shared instance; construct directly
    (the class is a context manager) for an isolated, explicitly-scoped
    executor.  ``shutdown`` closes pools gracefully — workers drain and
    exit — and is idempotent.
    """

    def __init__(self) -> None:
        self._process_pools: dict[int, object] = {}
        self._thread_pools: dict[int, ThreadPoolExecutor] = {}
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def process_pool(self, shards: int):
        """The cached ``"spawn"`` pool with ``shards`` workers (lazily built)."""
        self._ensure_open()
        pool = self._process_pools.get(shards)
        if pool is None:
            pool = get_context("spawn").Pool(processes=shards)
            self._process_pools[shards] = pool
        return pool

    def thread_pool(self, shards: int) -> ThreadPoolExecutor:
        """The cached thread pool with ``shards`` workers (lazily built)."""
        self._ensure_open()
        pool = self._thread_pools.get(shards)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=shards, thread_name_prefix="repro-shard"
            )
            self._thread_pools[shards] = pool
        return pool

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "the shard executor has been shut down; call get_executor() "
                "for a fresh one"
            )

    def shutdown(self) -> None:
        """Close every cached pool (graceful drain); safe to call twice."""
        if self._closed:
            return
        self._closed = True
        for pool in self._process_pools.values():
            pool.close()
            pool.join()
        for thread_pool in self._thread_pools.values():
            thread_pool.shutdown(wait=True)
        self._process_pools.clear()
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
# Process tier
# --------------------------------------------------------------------------- #

#: Parent-side export token source: pool workers cache their shared-memory
#: attachment keyed by this, so the several ranges one call maps onto a
#: worker attach once per call, not once per range.
_EXPORT_TOKENS = itertools.count()

#: Pool-worker-side state: the current attachment (segments kept alive),
#: backend, matrix view and estimator, keyed by the export token.
_WORKER_STATE: dict[str, object] = {}


def _estimator_config(estimator: "MWorkerEstimator") -> dict[str, object]:
    """Every estimator field except the ones the sharded path redefines.

    ``shards`` (pool workers must stay serial) and ``rng`` (guarded to None
    by :func:`resolve_execution` — generators cannot be consumed in a pool
    without diverging from the serial sequence) are excluded; deriving the
    set from ``dataclasses.fields`` keeps future fields from being silently
    dropped.
    """
    return {
        field.name: getattr(estimator, field.name)
        for field in fields(estimator)
        if field.name not in ("shards", "rng")
    }


def _install_shard_state(
    token: str,
    specs: dict[str, _ArraySpec],
    meta: tuple[str, int, int, int, dict[str, object]],
) -> None:
    """Attach this call's shared arrays and rebuild the evaluation objects.

    Runs in a pool worker on the first range of a new export token.  Any
    previously attached segments are closed first — a long-lived pool must
    not pin the shared memory of every evaluation it ever served.
    """
    from repro.core.m_worker import MWorkerEstimator

    backend_name, arity, n_workers, n_tasks, estimator_config = meta
    for segment in _WORKER_STATE.get("segments", ()):  # type: ignore[union-attr]
        segment.close()
    _WORKER_STATE.clear()
    segments = []
    arrays: dict[str, np.ndarray] = {}
    for key, spec in specs.items():
        segment, array = _attach_array(spec)
        segments.append(segment)
        arrays[key] = array
    task_counts = arrays.pop("task_counts")
    backend = _backend_class(backend_name).attach_shared_state(
        arrays, n_workers=n_workers, n_tasks=n_tasks, arity=arity
    )
    _WORKER_STATE["token"] = token
    _WORKER_STATE["segments"] = segments
    _WORKER_STATE["matrix"] = SharedMatrixView(task_counts, n_tasks, arity)
    _WORKER_STATE["stats"] = AgreementStatistics(matrix=None, backend=backend)
    _WORKER_STATE["estimator"] = MWorkerEstimator(shards=1, **estimator_config)


def _run_shard(payload):
    """Evaluate one contiguous worker chunk in a pool worker.

    Delegates to :meth:`MWorkerEstimator.evaluate_worker_range`, so a shard
    runs the same cross-worker batched stage — and, with ``batch_lemma4``,
    the same grouped Lemma-4/5 aggregation — over its range that the serial
    path runs over all workers; results are identical either way because
    every batched operation is per-slice.  The chunk is either a
    ``(start, stop)`` range (the full-matrix batch) or an explicit worker
    id list (the incremental evaluator's dirty subset).  With
    ``collect_footprints`` the shard returns ``(estimates, footprints)`` —
    the per-shard dependency log rides the same result channel as the
    estimates and is merged in worker order by the parent.
    """
    token, specs, meta, chunk, collect_footprints = payload
    if _WORKER_STATE.get("token") != token:
        _install_shard_state(token, specs, meta)
    estimator = _WORKER_STATE["estimator"]
    matrix = _WORKER_STATE["matrix"]
    stats = _WORKER_STATE["stats"]
    if isinstance(chunk, tuple):
        workers = list(range(chunk[0], chunk[1]))
    else:
        workers = list(chunk)
    return estimator.evaluate_worker_range(
        matrix, stats, workers, collect_footprints=collect_footprints
    )


def _worker_chunks(
    matrix: "ResponseMatrix", shards: int, workers: list[int] | None
) -> list:
    """Contiguous per-shard chunks: ranges for a full batch, lists otherwise."""
    if workers is None:
        return contiguous_ranges(matrix.n_workers, shards)
    return [
        chunk.tolist()
        for chunk in np.array_split(np.asarray(workers, dtype=np.int64), shards)
        if chunk.size
    ]


def evaluate_all_process(
    estimator: "MWorkerEstimator",
    matrix: "ResponseMatrix",
    stats: AgreementStatistics,
    shards: int,
    *,
    workers: list[int] | None = None,
    collect_footprints: bool = False,
):
    """Evaluate every worker, sharded across the reusable process pool.

    The parent materializes the backend's precomputed state once, exports
    it through shared memory, and maps contiguous worker ranges over the
    cached spawn pool; shard workers attach views (no rebuilds) and the
    segments are closed and unlinked when the call returns — including when
    the export, pool dispatch or a shard fails partway, so an aborted call
    never leaks shared memory.

    ``workers`` restricts evaluation to an ordered subset (the incremental
    evaluator's dirty workers) and ``collect_footprints`` makes the return
    value ``(estimates, footprints)`` with each shard's dependency log
    shipped back through the result channel and merged in worker order.

    Callers must have checked :func:`resolve_execution`; in particular
    ``stats`` must carry a backend with ``supports_shared_export`` and
    at least ``shards`` workers to evaluate.
    """
    backend = stats.backend
    assert backend is not None and backend.supports_shared_export, (
        "process-sharded evaluation requires a backend with shared-state export"
    )
    exports = dict(backend.export_shared_state())
    exports["task_counts"] = _popcount(backend._packed_rows).sum(
        axis=1, dtype=np.int64
    )
    meta = (
        backend.name,
        matrix.arity,
        matrix.n_workers,
        matrix.n_tasks,
        _estimator_config(estimator),
    )
    token = f"{os.getpid()}:{next(_EXPORT_TOKENS)}"
    chunks = _worker_chunks(matrix, shards, workers)
    segments: list[SharedMemory] = []
    specs: dict[str, _ArraySpec] = {}
    try:
        for key, array in exports.items():
            segment, spec = _export_array(array)
            segments.append(segment)
            specs[key] = spec
        pool = get_executor().process_pool(shards)
        shard_results = pool.map(
            _run_shard,
            [(token, specs, meta, c, collect_footprints) for c in chunks],
        )
    finally:
        for segment in segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already reclaimed
                pass
    # Contiguous ranges concatenated in shard order == worker order 0..m-1.
    if collect_footprints:
        return (
            [estimate for ests, _ in shard_results for estimate in ests],
            [footprint for _, fps in shard_results for footprint in fps],
        )
    return [estimate for shard in shard_results for estimate in shard]


# --------------------------------------------------------------------------- #
# Thread tier
# --------------------------------------------------------------------------- #


def evaluate_all_threaded(
    estimator: "MWorkerEstimator",
    matrix: "ResponseMatrix",
    stats: AgreementStatistics,
    shards: int,
    *,
    workers: list[int] | None = None,
    collect_footprints: bool = False,
):
    """Evaluate every worker across the cached thread pool, no export needed.

    The chunks share the parent's statistics object directly, which is only
    sound because every lazily-built cache they could race to build is
    materialized **before** the fan-out; afterwards the chunks exclusively
    read frozen arrays (the NumPy kernels release the GIL, which is where
    the tier's parallelism comes from).  Results are concatenated in range
    order — worker order — and are bit-identical to serial evaluation: each
    worker's numbers depend only on the frozen statistics and the estimator
    configuration, never on chunk membership (the determinism contract of
    :class:`~repro.core.m_worker.MWorkerEstimator`).

    ``workers`` / ``collect_footprints`` mirror
    :func:`evaluate_all_process`: evaluate an ordered subset, and return
    ``(estimates, footprints)`` with the per-chunk dependency logs merged
    in worker order.
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
            list(range(chunk[0], chunk[1])) if isinstance(chunk, tuple) else chunk,
            collect_footprints=collect_footprints,
        )
        for chunk in _worker_chunks(matrix, shards, workers)
    ]
    if collect_footprints:
        results: list[WorkerErrorEstimate] = []
        footprints = []
        for future in futures:
            chunk_results, chunk_footprints = future.result()
            results.extend(chunk_results)
            footprints.extend(chunk_footprints)
        return results, footprints
    results = []
    for future in futures:
        results.extend(future.result())
    return results


def evaluate_worker_subset(
    estimator: "MWorkerEstimator",
    matrix: "ResponseMatrix",
    stats: AgreementStatistics,
    workers: list[int],
    *,
    collect_footprints: bool = False,
):
    """Evaluate an ordered worker subset under the estimator's ``shards`` spec.

    The incremental evaluator's bulk-recompute entry point: resolves the
    execution tier exactly like ``evaluate_all`` (same cost model, same
    serial-fallback guards) but partitions only the given workers — with
    the additional guard that fewer dirty workers than shards stay serial
    (a shard per worker cannot amortize its overhead).  Returns the
    estimates in ``workers`` order, or ``(estimates, footprints)`` when
    ``collect_footprints`` is set.
    """
    tier, shards = resolve_execution(estimator, matrix, stats)
    if len(workers) < shards:
        tier = "serial"
    if tier == "process":
        return evaluate_all_process(
            estimator,
            matrix,
            stats,
            shards,
            workers=workers,
            collect_footprints=collect_footprints,
        )
    if tier == "thread":
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
