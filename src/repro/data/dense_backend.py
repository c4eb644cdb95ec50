"""Vectorized NumPy backend for agreement statistics.

The estimators in this library are driven by a small set of counting
quantities over a :class:`~repro.data.response_matrix.ResponseMatrix`:

* ``c_ij`` — pairwise common-task counts,
* pairwise agreement counts,
* ``c_ijk`` — triple common-task counts,
* the ``(k+1)^3`` response count tensor of Algorithm A3, and
* the majority-disagreement proxy of the spammer filter.

The reference implementation computes these from the dict-of-dicts sparse
layout with Python set intersections, which makes batch evaluation
(``MWorkerEstimator.evaluate_all``) O(m^2 * n) in pure Python.  This module
provides the vectorized alternatives behind one interface:

* :class:`AgreementBackendBase` — the shared skeleton every vectorized
  backend implements: exact-integer pair/triple count queries, the derived
  float caches (``common_counts_f64``, pre-clamped rate matrices), and
  generic vote-table / majority-disagreement / A3-tensor computations built
  on per-worker row accessors;
* :class:`DenseAgreementBackend` — dense indicator/label arrays; **all**
  pairwise counts in one boolean matrix product (O(m^2 n) flops, in BLAS),
  triple counts from packed bitset rows, masked matrix products or a
  cached tensor built over each worker's own tasks;
* :class:`~repro.data.sparse_backend.SparseAgreementBackend` — scipy.sparse
  CSR matmuls for the pairwise counts (work scales with the observed fill,
  not with m*n) over bitset-only row storage;
* :class:`~repro.data.sparse_backend.BitsetAgreementBackend` — packed rows
  only (one bit per cell per label plane), the low-memory fallback for
  grids whose dense arrays cannot be materialized.

Because every quantity is an exact integer count (all sums stay far below
2^53, so float matrix products and popcounts are exact), estimators produce
**bit-identical** results whichever backend computes the statistics; the
cross-backend differential suite in
``tests/property/test_cross_backend_differential.py`` enforces this for
every backend and every public entry point.

Backend selection (:func:`resolve_backend`) is cost-based: ``"auto"``
consults :func:`auto_backend_choice`, which weighs the grid size ``m * n``
against the observed fill (``n_responses / (m * n)``) to pick the cheapest
backend that can hold the data — see the function docstring for the exact
decision table.  An explicit ``backend=`` request always wins.

The dense backend additionally supports O(row) *delta updates*
(:meth:`DenseAgreementBackend.apply_response`), which the incremental
evaluator uses to keep the cached count matrices in sync with a response
stream without rebuilding; the bitset and sparse backends implement the
same method against their packed planes.

Every vectorized backend is *footprint-capable*: the pairing fast path
reads straight from the cached count matrices
(:func:`~repro.core.pairing.greedy_pairs_dense` replicates the reference
scan step for step, probe log included), so an evaluation's dependency
footprint is the one the dict path derives from the reference scan, and
the incremental evaluator's recomputes shard on these backends (see
:mod:`repro.core.deps` and the capability matrix in
:mod:`repro.core.agreement`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DataValidationError
from repro.data.response_matrix import UNANSWERED, ResponseMatrix

__all__ = [
    "AUTO_BITSET_CELL_LIMIT",
    "AUTO_DENSE_CELL_LIMIT",
    "AUTO_DENSE_WORKER_LIMIT",
    "AUTO_SPARSE_DENSITY",
    "AUTO_SPARSE_MIN_CELLS",
    "BACKEND_CHOICES",
    "AgreementBackendBase",
    "DenseAgreementBackend",
    "auto_backend_choice",
    "resolve_backend",
    "resolve_triple_backend",
]

#: ``backend="auto"`` uses the dense backend only while the worker-by-task
#: grid stays below this many cells (the indicator/label arrays are O(m*n)).
AUTO_DENSE_CELL_LIMIT: int = 50_000_000

#: ``backend="auto"`` also requires this many workers or fewer: the pair-count
#: caches are O(m^2) int64 matrices, so worker-heavy matrices would allocate
#: gigabytes even when m*n is modest.
AUTO_DENSE_WORKER_LIMIT: int = 4096

#: Observed-fill threshold of the cost model: below this density the
#: CSR-driven pair-count products (work proportional to the fill) beat the
#: dense O(m^2 n) products, and the fill-restricted triple grids dominate
#: the full masked matmuls.
AUTO_SPARSE_DENSITY: float = 0.05

#: Grids at or below this many cells always take the dense backend under
#: ``"auto"``: the dense build is trivially cheap there and avoids the
#: packed-row bookkeeping (this also keeps historical auto behaviour for
#: every small matrix).
AUTO_SPARSE_MIN_CELLS: int = 1 << 20

#: Ceiling for the bitset fallback, expressed in *binary-matrix* cells:
#: packed storage costs one bit per cell per plane and a binary matrix has
#: 3 planes (attempts + 2 labels), so grids up to 8x the dense cell limit
#: still fit when the dense arrays (1 byte + 2 bytes per cell) cannot be
#: materialized.  Higher arities carry ``arity + 1`` planes; the cost model
#: scales the ceiling down accordingly (``cells * (arity + 1) <= 3x`` this
#: limit) so the low-memory fallback never outgrows the budget that made it
#: reject the dense backend.
AUTO_BITSET_CELL_LIMIT: int = 8 * AUTO_DENSE_CELL_LIMIT

#: Valid values for the ``backend=`` knobs exposed across the library.
BACKEND_CHOICES: tuple[str, ...] = ("auto", "dense", "dict", "sparse", "bitset")

#: Popcount lookup table for the packed bitset rows (fallback for NumPy
#: builds without the native ``bitwise_count`` ufunc).
_POPCOUNT = np.array([bin(value).count("1") for value in range(256)], dtype=np.int64)

if hasattr(np, "bitwise_count"):

    def _popcount(packed: np.ndarray) -> np.ndarray:
        return np.bitwise_count(packed)

else:  # pragma: no cover - NumPy < 1.26

    def _popcount(packed: np.ndarray) -> np.ndarray:
        return _POPCOUNT[packed]

#: Largest task count for which 0/1 matrix products stay exact in float32:
#: every partial sum of a boolean product is a non-negative integer bounded
#: by the final count <= n_tasks, and integers up to 2^24 are exactly
#: representable in float32.  Above this the products fall back to float64.
_FLOAT32_EXACT_TASK_LIMIT: int = 2**24


def _indicator_product(indicator: np.ndarray, n_tasks: int) -> np.ndarray:
    """``indicator @ indicator.T`` with the cheapest exact dtype.

    ``indicator`` is a boolean (0/1) matrix; the product entries are exact
    integer counts in float32 whenever ``n_tasks`` fits
    :data:`_FLOAT32_EXACT_TASK_LIMIT` (SGEMM moves twice the elements per
    cycle of DGEMM), and in float64 always.
    """
    dtype = np.float32 if n_tasks <= _FLOAT32_EXACT_TASK_LIMIT else np.float64
    converted = indicator.astype(dtype)
    return converted @ converted.T


class AgreementBackendBase:
    """Shared skeleton of every vectorized agreement-statistics backend.

    A backend serves exact integer counts (pairwise common tasks and
    agreements, triple common tasks, per-task votes, the A3 count tensor)
    plus a handful of derived float caches the batched estimator stages
    slice from.  Because every count is an exact integer, two backends that
    agree on the counts produce bit-identical estimates — the concrete
    subclasses differ only in *storage* and in how the counts are computed:

    ==========  =======================  ==================================
    backend     storage                  pairwise counts
    ==========  =======================  ==================================
    ``dense``   bool/int16 ``(m, n)``    boolean matrix products (BLAS)
    ``sparse``  packed bits + CSR index  scipy.sparse CSR matmuls (~ fill)
    ``bitset``  packed bits only         AND + popcount over packed rows
    ==========  =======================  ==================================

    Subclass contract
    -----------------
    Concrete backends must provide the storage hooks ``_packed_rows``
    (packed attempt bitsets, big-endian bit order as ``np.packbits``),
    ``_attempt_row`` / ``_label_row`` (one worker's boolean attempt row and
    int label row with :data:`~repro.data.response_matrix.UNANSWERED` in
    unattempted cells), the count builders ``common_counts`` /
    ``agreement_counts``, the triple-grid queries ``triple_count_matrix`` /
    ``triple_count_grid_full``, and ``apply_response`` (the O(row) delta
    update).  Everything else — scalar pair/triple queries, the derived
    float caches, the vote table, the majority-disagreement proxy and the
    A3 count tensor — is inherited.  New backends must also register in the
    differential suite's path tables (see
    ``tests/property/test_cross_backend_differential.py``) so the
    bit-identity contract is enforced for them on every public entry point.
    """

    #: Knob value the backend answers to (``resolve_backend`` choice name).
    name: str = "base"

    #: Cap on the Python-list mirror of the pair-count matrix (~28 bytes per
    #: int object; 1024^2 is ~30 MB).
    _COMMON_LIST_WORKER_LIMIT = 1024

    _n_workers: int
    _n_tasks: int
    _arity: int

    def _init_caches(
        self,
        common_counts: np.ndarray | None = None,
        agreement_counts: np.ndarray | None = None,
    ) -> None:
        """Reset every lazily-built derived cache.

        Single source of truth for the shared cache attribute set — called
        by every concrete constructor (and by
        :meth:`DenseAgreementBackend.from_arrays`, which builds instances
        via ``__new__``).  Caches are kept in sync by ``apply_response``.
        """
        self._common: np.ndarray | None = common_counts
        self._agree: np.ndarray | None = agreement_counts
        self._task_votes: np.ndarray | None = None
        self._common_f64: np.ndarray | None = None
        self._common_list: list[list[int]] | None = None
        self._clamped_rates: dict[
            float, tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        #: Number of derived-cache invalidation passes taken so far.  Each
        #: singleton ``apply_response`` that changes a statistic pays one;
        #: ``apply_responses`` pays one for a whole micro-batch — the
        #: counter is what the streaming benchmark/tests use to assert the
        #: batch path actually coalesces the invalidation work.
        self.invalidation_events: int = 0

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #

    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def n_tasks(self) -> int:
        return self._n_tasks

    @property
    def arity(self) -> int:
        return self._arity

    def _validate_workers(self, *workers: int) -> None:
        for worker in workers:
            if not (0 <= worker < self._n_workers):
                raise DataValidationError(
                    f"worker id {worker} out of range [0, {self._n_workers})"
                )

    # ------------------------------------------------------------------ #
    # Storage hooks (concrete backends implement these)
    # ------------------------------------------------------------------ #

    @property
    def _packed_rows(self) -> np.ndarray:
        """Packed per-worker attempt bitsets (``np.packbits`` rows)."""
        raise NotImplementedError

    def _attempt_row(self, worker: int) -> np.ndarray:
        """Boolean attempt indicator row of one worker, length ``n_tasks``."""
        raise NotImplementedError

    def _label_row(self, worker: int) -> np.ndarray:
        """Integer label row of one worker (``UNANSWERED`` where absent)."""
        raise NotImplementedError

    @property
    def common_counts(self) -> np.ndarray:
        """The full ``(m, m)`` matrix of pairwise common-task counts ``c_ij``."""
        raise NotImplementedError

    @property
    def agreement_counts(self) -> np.ndarray:
        """The full ``(m, m)`` matrix of pairwise agreement counts."""
        raise NotImplementedError

    def triple_count_matrix(
        self, worker: int, partners: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """All ``c_{worker, x, y}`` for ``x, y`` in ``partners`` (float64,
        exact integer counts)."""
        raise NotImplementedError

    def triple_count_grid_full(self, worker: int) -> np.ndarray:
        """All ``c_{worker, x, y}`` over *every* worker pair, exact counts."""
        raise NotImplementedError

    def _validate_event(self, worker: int, task: int, label: int) -> None:
        if not (0 <= worker < self._n_workers):
            raise DataValidationError(f"worker id {worker} out of range")
        if not (0 <= task < self._n_tasks):
            raise DataValidationError(f"task id {task} out of range")
        if not (0 <= label < self._arity):
            raise DataValidationError(f"label {label} out of range")

    def _invalidate_derived(self) -> None:
        """Drop the derived read-only caches (a count is about to change)."""
        self.invalidation_events += 1
        self._common_f64 = None
        self._common_list = None
        self._clamped_rates.clear()

    def _apply_delta(
        self, worker: int, task: int, label: int, previous_label: int | None
    ) -> None:
        """Patch the storage and materialized counts for one changed cell.

        Called with pre-validated, statistic-changing events only; the
        derived caches have already been invalidated by the caller.
        """
        raise NotImplementedError

    def apply_response(
        self, worker: int, task: int, label: int, previous_label: int | None = None
    ) -> None:
        """O(row) delta update after one ``(worker, task, label)`` ingestion.

        ``previous_label`` must be the worker's prior response on ``task``
        (``None`` when this is a fresh response).  Every built cache —
        count matrices, bit planes, vote table — is patched in place
        instead of recomputed; derived read-only caches are dropped once.
        """
        self._validate_event(worker, task, label)
        if previous_label is not None and int(previous_label) == int(label):
            return
        self._invalidate_derived()
        self._apply_delta(worker, task, label, previous_label)

    def apply_responses(
        self, events: Sequence[tuple[int, int, int, int | None]]
    ) -> int:
        """Batched delta update for a micro-batch of ingested responses.

        ``events`` are ``(worker, task, label, previous_label)`` tuples in
        application order (``previous_label`` relative to the sequentially
        applied stream, exactly as :meth:`apply_response` would have seen
        them).  The result is bit-identical to applying the events one by
        one; the difference is cost: the derived caches are invalidated
        **once** for the whole batch, and while no count matrix / vote
        table is materialized yet the per-event O(m) co-attempter scans are
        replaced by grouped per-worker-row storage writes
        (:meth:`_apply_batch_storage`).  Returns the number of
        statistic-changing events applied.
        """
        effective = []
        for worker, task, label, previous in events:
            self._validate_event(worker, task, label)
            if previous is not None and int(previous) == int(label):
                continue
            effective.append((worker, task, label, previous))
        if not effective:
            return 0
        self._invalidate_derived()
        if not self._apply_batch_storage(effective):
            for worker, task, label, previous in effective:
                self._apply_delta(worker, task, label, previous)
        return len(effective)

    def _apply_batch_storage(
        self, events: list[tuple[int, int, int, int | None]]
    ) -> bool:
        """Grouped per-worker-row fast path for a whole micro-batch.

        Returns True when the batch was fully absorbed by storage writes
        (only legal while no count matrix / vote table is materialized —
        those must be patched per event).  The default declines; backends
        whose storage is authoritative override it.
        """
        return False

    # ------------------------------------------------------------------ #
    # Delta growth (streaming ingestion of unseen ids)
    # ------------------------------------------------------------------ #

    def extend(self, additional_workers: int = 0, additional_tasks: int = 0) -> None:
        """Grow the backend in place for new (empty) workers and/or tasks.

        Added rows/columns carry no responses, so every materialized count
        is either unchanged (new tasks) or extends with zeros (new
        workers); nothing is recomputed — this is the delta alternative to
        a full rebuild when the response stream brings ids unseen at
        construction.  Worker growth resizes the ``(m, m)`` count caches,
        so the derived per-pair caches are dropped; task-only growth keeps
        them (no pair statistic changed).
        """
        if additional_workers < 0 or additional_tasks < 0:
            raise DataValidationError("extension sizes must be non-negative")
        if additional_workers == 0 and additional_tasks == 0:
            return
        self._extend_storage(additional_workers, additional_tasks)
        if additional_workers:
            m = self._n_workers + additional_workers
            for attr in ("_common", "_agree"):
                matrix = getattr(self, attr)
                if matrix is not None:
                    grown = np.zeros((m, m), dtype=matrix.dtype)
                    grown[: self._n_workers, : self._n_workers] = matrix
                    setattr(self, attr, grown)
            self._common_f64 = None
            self._common_list = None
            self._clamped_rates.clear()
        if additional_tasks and self._task_votes is not None:
            self._task_votes = np.vstack(
                [
                    self._task_votes,
                    np.zeros((additional_tasks, self._arity), dtype=np.int64),
                ]
            )
        self._n_workers += additional_workers
        self._n_tasks += additional_tasks

    def _extend_storage(self, additional_workers: int, additional_tasks: int) -> None:
        """Grow the concrete storage arrays (rows and/or columns of zeros)."""
        raise NotImplementedError

    def triple_count_tensor(self) -> np.ndarray | None:
        """The full cached triple-count tensor, or None when unavailable.

        Only the dense backend materializes the tensor; the default is the
        documented fallback signal — callers fall back to
        :meth:`triple_count_grid_full` / per-worker grids.
        """
        return None

    # ------------------------------------------------------------------ #
    # Shared-state export (durable snapshots)
    # ------------------------------------------------------------------ #

    def export_shared_state(self) -> dict[str, np.ndarray]:
        """Every precomputed array, keyed for :meth:`attach_shared_state`.

        Materializes the precomputed state (storage planes, count matrices,
        vote table) and returns the arrays by name.  Keys are
        backend-specific; the only contract is that ``attach_shared_state``
        of the same class understands them.

        The durable streaming layer (:mod:`repro.serve.durable`) persists
        these arrays as its snapshot payload (prefixed ``backend.`` in the
        snapshot manifest) and a resume hands *writable copies* back to
        ``attach_shared_state``, so the restored backend skips the
        from-scratch count rebuild and keeps delta-updating the attached
        arrays in place.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support shared-state export"
        )

    @classmethod
    def attach_shared_state(
        cls,
        arrays: dict[str, np.ndarray],
        *,
        n_workers: int,
        n_tasks: int,
        arity: int,
    ) -> "AgreementBackendBase":
        """Rebuild a backend over the views of an exported state.

        Inverse of :meth:`export_shared_state`.  On a durable-snapshot
        restore ``arrays`` are the loader's fresh writable copies, which
        the attached backend adopts without copying and keeps
        delta-updating in place; no count is recomputed.
        """
        raise NotImplementedError(
            f"backend {cls.name!r} does not support shared-state export"
        )

    # ------------------------------------------------------------------ #
    # Derived float caches (shared)
    # ------------------------------------------------------------------ #

    @property
    def common_counts_f64(self) -> np.ndarray:
        """Float64 view of :attr:`common_counts` (exact; cached for slicing)."""
        if self._common_f64 is None:
            self._common_f64 = self.common_counts.astype(np.float64)
        return self._common_f64

    @property
    def common_counts_list(self) -> list[list[int]] | None:
        """Python-list mirror of :attr:`common_counts` for hot scalar scans.

        The greedy pairing's partner scan reads single counts millions of
        times per batch; plain-list indexing is several times cheaper than
        NumPy scalar indexing.  ``None`` for worker counts too large to
        mirror affordably (callers then scan the array directly).
        """
        if self._n_workers > self._COMMON_LIST_WORKER_LIMIT:
            return None
        if self._common_list is None:
            self._common_list = self.common_counts.tolist()
        return self._common_list

    def clamped_rate_data(
        self, clamp_margin: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rates, 2*rates - 1, clamp flags)`` for all pairs, cached.

        ``rates`` applies exactly the elementwise sequence of
        ``clamp_agreement`` to ``agreements / common``; pairs without common
        tasks come out NaN (callers mask them).  The batched evaluation
        stages read per-worker slices of these matrices, so the divisions,
        clamps and ``2q - 1`` terms are computed once per batch instead of
        once per evaluated worker.  Cached per margin and invalidated by
        ``apply_response``.
        """
        cached = self._clamped_rates.get(clamp_margin)
        if cached is not None:
            return cached
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = self.agreement_counts.astype(np.float64) / self.common_counts_f64
        over = raw > 1.0
        rates = np.where(over, 1.0, raw)
        lower = 0.5 + clamp_margin
        under = rates < lower
        rates = np.where(under, lower, rates)
        data = (rates, 2.0 * rates - 1.0, over | under)
        self._clamped_rates[clamp_margin] = data
        return data

    @property
    def task_votes(self) -> np.ndarray:
        """Per-task label vote counts, shape ``(n_tasks, arity)``.

        Generic row-by-row accumulation; the dense backend overrides this
        with a single vectorized pass over its label matrix (same counts).
        """
        if self._task_votes is None:
            votes = np.zeros((self._n_tasks, self._arity), dtype=np.int64)
            for worker in range(self._n_workers):
                tasks = np.nonzero(self._attempt_row(worker))[0]
                if tasks.size == 0:
                    continue
                # Tasks are unique within a row, so plain fancy-index
                # addition is safe (no duplicate-index collapse).
                votes[tasks, self._label_row(worker)[tasks].astype(np.int64)] += 1
            self._task_votes = votes
        return self._task_votes

    # ------------------------------------------------------------------ #
    # Pair / triple statistics (shared)
    # ------------------------------------------------------------------ #

    def pair(self, worker_a: int, worker_b: int) -> tuple[int, int]:
        """``(c_ab, agreement count)`` for one pair of workers."""
        self._validate_workers(worker_a, worker_b)
        return (
            int(self.common_counts[worker_a, worker_b]),
            int(self.agreement_counts[worker_a, worker_b]),
        )

    def triple_common_count(self, worker_a: int, worker_b: int, worker_c: int) -> int:
        """``c_abc`` via one AND + popcount over the packed bitset rows."""
        self._validate_workers(worker_a, worker_b, worker_c)
        packed = self._packed_rows
        joint = packed[worker_a] & packed[worker_b] & packed[worker_c]
        return int(_popcount(joint).sum())

    def triple_common_counts(
        self,
        worker: int | np.ndarray,
        partners_a: Sequence[int] | np.ndarray,
        partners_b: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """``c_{w_t, a_t, b_t}`` for aligned triple arrays, in one pass.

        Unlike :meth:`triple_count_matrix` (which produces the full partner
        grid for the Lemma-4 assembly), this evaluates only the ``l``
        requested triples — one AND + popcount over the packed bitset rows
        per triple, vectorized across the whole batch.  This is what the
        batched per-triple stage consumes: one count per formed triple.
        ``worker`` may be a single id shared by every triple, or an array
        aligned with the partner arrays (the cross-worker batch of
        ``evaluate_all``).
        """
        a_index = np.asarray(partners_a, dtype=np.int64)
        b_index = np.asarray(partners_b, dtype=np.int64)
        if a_index.shape != b_index.shape:
            raise DataValidationError(
                "partners_a and partners_b must have identical shapes"
            )
        for index in (a_index, b_index):
            if index.size and (index.min() < 0 or index.max() >= self._n_workers):
                raise DataValidationError("partner id out of range")
        packed = self._packed_rows
        if np.ndim(worker) == 0:
            self._validate_workers(int(worker))
            worker_rows = packed[int(worker)][None, :]
        else:
            worker_index = np.asarray(worker, dtype=np.int64)
            if worker_index.shape != a_index.shape:
                raise DataValidationError(
                    "a worker array must align with the partner arrays"
                )
            if worker_index.size and (
                worker_index.min() < 0 or worker_index.max() >= self._n_workers
            ):
                raise DataValidationError("worker id out of range")
            worker_rows = packed[worker_index]
        if a_index.size == 0:
            return np.zeros(0, dtype=np.int64)
        joint = worker_rows & packed[a_index] & packed[b_index]
        return _popcount(joint).sum(axis=1, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Algorithm A3 count tensor (shared, via the row accessors)
    # ------------------------------------------------------------------ #

    def response_count_tensor(
        self, workers: tuple[int, int, int] | list[int]
    ) -> np.ndarray:
        """The ``(k+1)^3`` Counts tensor of Algorithm A3, via one bincount.

        Exactly matches :meth:`ResponseMatrix.response_count_tensor`: index 0
        in any coordinate means "did not attempt" and tasks attempted by none
        of the three workers are not counted.
        """
        if len(workers) != 3:
            raise DataValidationError(
                f"response_count_tensor expects exactly 3 workers, got {len(workers)}"
            )
        w1, w2, w3 = workers
        self._validate_workers(w1, w2, w3)
        if len({w1, w2, w3}) != 3:
            raise DataValidationError("the three workers must be distinct")
        k = self._arity
        side = k + 1
        indices = []
        for worker in (w1, w2, w3):
            shifted = self._label_row(worker).astype(np.int64) + 1
            indices.append(np.where(self._attempt_row(worker), shifted, 0))
        flat = (indices[0] * side + indices[1]) * side + indices[2]
        counts = np.bincount(flat, minlength=side**3).astype(float)
        counts = counts.reshape(side, side, side)
        counts[0, 0, 0] = 0.0
        return counts

    # ------------------------------------------------------------------ #
    # Spammer-filter proxy (shared, via the row accessors)
    # ------------------------------------------------------------------ #

    def majority_disagreement_rates(
        self, workers: Sequence[int] | None = None
    ) -> list[float | None]:
        """Majority-disagreement proxy per worker, vectorized.

        Mirrors :meth:`ResponseMatrix.disagreement_with_majority` exactly
        (own vote excluded, ties count as agreement) but computes the vote
        table once for all workers.  Workers that cannot be scored — no
        responses, or no task shared with anyone — map to ``None`` instead of
        raising.  ``workers`` restricts the scan to a subset (rates returned
        in the given order); the sharded spammer filter chunks the worker
        range with it, with the vote table built once up front.
        """
        if workers is None:
            workers = range(self._n_workers)
        else:
            self._validate_workers(*workers)
        votes = self.task_votes
        rates: list[float | None] = []
        for worker in workers:
            tasks = np.nonzero(self._attempt_row(worker))[0]
            if tasks.size == 0:
                rates.append(None)
                continue
            own = self._label_row(worker)[tasks].astype(np.int64)
            others = votes[tasks].copy()
            others[np.arange(tasks.size), own] -= 1
            judged = others.sum(axis=1) > 0
            n_judged = int(judged.sum())
            if n_judged == 0:
                rates.append(None)
                continue
            own_count = others[np.arange(tasks.size), own]
            best = others.max(axis=1)
            disagreements = int(((own_count < best) & judged).sum())
            rates.append(disagreements / n_judged)
        return rates


class DenseAgreementBackend(AgreementBackendBase):
    """Vectorized agreement-statistics provider for one response matrix.

    The backend keeps two dense arrays — a boolean attempt matrix ``A`` of
    shape ``(m, n)`` and an integer label matrix ``L`` (with
    :data:`~repro.data.response_matrix.UNANSWERED` in unattempted cells) —
    plus lazily-built derived caches:

    * ``common_counts``: the full ``(m, m)`` matrix of ``c_ij`` (one matmul);
    * ``agreement_counts``: the ``(m, m)`` pairwise agreement counts (one
      matmul per label value);
    * packed bitset rows for popcount-based triple counts;
    * the ``(m, m, m)`` triple-count tensor (:meth:`triple_count_tensor`);
    * the ``(n, arity)`` per-task vote table for the spammer filter.

    All counts are exact integers; see the module docstring for why the
    float64 matrix products cannot lose precision.
    """

    name = "dense"

    def __init__(self, matrix: ResponseMatrix) -> None:
        self._n_workers = matrix.n_workers
        self._n_tasks = matrix.n_tasks
        self._arity = matrix.arity
        m, n = self._n_workers, self._n_tasks
        self._attempts = np.zeros((m, n), dtype=bool)
        self._labels = np.full((m, n), UNANSWERED, dtype=np.int16)
        for worker in range(m):
            responses = matrix.worker_responses(worker)
            if not responses:
                continue
            tasks = np.fromiter(responses.keys(), dtype=np.int64, count=len(responses))
            labels = np.fromiter(responses.values(), dtype=np.int64, count=len(responses))
            self._attempts[worker, tasks] = True
            self._labels[worker, tasks] = labels
        self._init_caches()

    def _init_caches(
        self,
        common_counts: np.ndarray | None = None,
        agreement_counts: np.ndarray | None = None,
    ) -> None:
        """Reset the shared caches plus the dense-only derived arrays.

        Called by both ``__init__`` and :meth:`from_arrays` (which builds
        instances via ``__new__``), so a cache added here exists on
        snapshot-restored backends too.
        """
        super()._init_caches(
            common_counts=common_counts, agreement_counts=agreement_counts
        )
        self._packed: np.ndarray | None = None
        self._attempts_f32: np.ndarray | None = None
        self._triple_tensor: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_matrix(cls, matrix: ResponseMatrix) -> "DenseAgreementBackend":
        """Build a backend snapshot of ``matrix``."""
        return cls(matrix)

    @classmethod
    def from_arrays(
        cls,
        attempts: np.ndarray,
        labels: np.ndarray,
        arity: int,
        common_counts: np.ndarray | None = None,
        agreement_counts: np.ndarray | None = None,
    ) -> "DenseAgreementBackend":
        """Wrap existing indicator/label arrays without copying them.

        This is how a snapshot restore reconstructs a backend: the
        ``attempts``/``labels`` arrays (and optionally the precomputed count
        matrices, so the O(m^2 n) matmuls are not redone) are adopted as-is,
        so callers must not mutate them behind the backend's back.
        """
        if attempts.ndim != 2 or attempts.shape != labels.shape:
            raise DataValidationError(
                "attempts and labels must be 2-D arrays of identical shape, "
                f"got {attempts.shape} and {labels.shape}"
            )
        if arity < 2:
            raise DataValidationError(f"arity must be at least 2, got {arity}")
        self = cls.__new__(cls)
        self._n_workers, self._n_tasks = attempts.shape
        self._arity = arity
        self._attempts = attempts
        self._labels = labels
        self._init_caches(
            common_counts=common_counts, agreement_counts=agreement_counts
        )
        return self

    # ------------------------------------------------------------------ #
    # Shared-state export
    # ------------------------------------------------------------------ #

    def export_shared_state(self) -> dict[str, np.ndarray]:
        """Storage, count matrices, packed rows and votes — the state every
        delta update patches in place, so a restore would otherwise rebuild
        it.  Materializes lazily-built state as a side effect, which is the
        point: pay each build once at export instead of once per restore.

        The triple tensor is not exported: the next statistic-changing
        batch drops it anyway, and a warm resume serves cached estimates
        without it.  Snapshots that still carry a ``triple_tensor`` array
        resume with it ignored.
        """
        return {
            "attempts": self._attempts,
            "labels": self._labels,
            "common": self.common_counts,
            "agree": self.agreement_counts,
            "packed": self._packed_rows,
            "task_votes": self.task_votes,
        }

    @classmethod
    def attach_shared_state(
        cls,
        arrays: dict[str, np.ndarray],
        *,
        n_workers: int,
        n_tasks: int,
        arity: int,
    ) -> "DenseAgreementBackend":
        self = cls.from_arrays(
            arrays["attempts"],
            arrays["labels"],
            arity,
            common_counts=arrays["common"],
            agreement_counts=arrays["agree"],
        )
        self._packed = arrays["packed"]
        self._task_votes = arrays["task_votes"]
        return self

    # ------------------------------------------------------------------ #
    # Storage hooks
    # ------------------------------------------------------------------ #

    def _attempt_row(self, worker: int) -> np.ndarray:
        return self._attempts[worker]

    def _label_row(self, worker: int) -> np.ndarray:
        return self._labels[worker]

    @property
    def _packed_rows(self) -> np.ndarray:
        if self._packed is None:
            self._packed = np.packbits(self._attempts, axis=1)
        return self._packed

    # ------------------------------------------------------------------ #
    # Lazy derived caches
    # ------------------------------------------------------------------ #

    @property
    def common_counts(self) -> np.ndarray:
        """The full ``(m, m)`` matrix of pairwise common-task counts ``c_ij``."""
        if self._common is None:
            self._common = np.rint(
                _indicator_product(self._attempts, self._n_tasks)
            ).astype(np.int64)
        return self._common

    @property
    def agreement_counts(self) -> np.ndarray:
        """The full ``(m, m)`` matrix of pairwise agreement counts."""
        if self._agree is None:
            agree = np.zeros((self._n_workers, self._n_workers), dtype=np.int64)
            for label in range(self._arity):
                agree += np.rint(
                    _indicator_product(self._labels == label, self._n_tasks)
                ).astype(np.int64)
            self._agree = agree
        return self._agree

    #: Cap on the float32 attempt-matrix cache: 4 bytes/cell, so this keeps
    #: the extra footprint under ~128 MB even at the dense auto-limit.
    _ATTEMPTS_F32_CELL_LIMIT = 2**25

    @property
    def _attempts_as_f32(self) -> np.ndarray | None:
        """Cached float32 attempt matrix (None when too large to cache)."""
        if self._n_workers * self._n_tasks > self._ATTEMPTS_F32_CELL_LIMIT:
            return None
        if self._attempts_f32 is None:
            self._attempts_f32 = self._attempts.astype(np.float32)
        return self._attempts_f32

    @property
    def task_votes(self) -> np.ndarray:
        """Per-task label vote counts, shape ``(n_tasks, arity)``."""
        if self._task_votes is None:
            votes = np.zeros((self._n_tasks, self._arity), dtype=np.int64)
            workers, tasks = np.nonzero(self._attempts)
            np.add.at(votes, (tasks, self._labels[workers, tasks].astype(np.int64)), 1)
            self._task_votes = votes
        return self._task_votes

    # ------------------------------------------------------------------ #
    # Triple-count grids
    # ------------------------------------------------------------------ #

    def triple_count_matrix(
        self, worker: int, partners: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """All ``c_{worker, x, y}`` for ``x, y`` in ``partners``, in one matmul.

        Returns a ``(len(partners), len(partners))`` float64 array of exact
        integer counts; entry ``[s, t]`` is the number of tasks attempted by
        ``worker``, ``partners[s]`` and ``partners[t]`` alike.  The product
        runs in float32 while the task count keeps it exact (see
        :data:`_FLOAT32_EXACT_TASK_LIMIT`) and in float64 above that.
        """
        partner_index = np.asarray(partners, dtype=np.int64)
        self._validate_workers(worker)
        if partner_index.size and (
            partner_index.min() < 0 or partner_index.max() >= self._n_workers
        ):
            raise DataValidationError("partner id out of range")
        if self._n_tasks <= _FLOAT32_EXACT_TASK_LIMIT:
            attempts_f32 = self._attempts_as_f32
            if attempts_f32 is not None and partner_index.size >= 0.75 * self._n_workers:
                # Dense partner sets (the evaluate_all case: every other
                # worker): mask the whole matrix with one contiguous 0/1
                # multiply (== AND), run the full symmetric product, and
                # gather the requested grid — cheaper than fancy-copying
                # the partner rows first.
                masked = attempts_f32 * attempts_f32[worker]
                full = masked @ masked.T
                return full[np.ix_(partner_index, partner_index)].astype(np.float64)
            if attempts_f32 is not None:
                product = attempts_f32[partner_index] * attempts_f32[worker]
            else:
                product = (
                    self._attempts[partner_index] & self._attempts[worker]
                ).astype(np.float32)
            return (product @ product.T).astype(np.float64)
        masked = self._attempts[partner_index] & self._attempts[worker]
        converted = masked.astype(np.float64)
        return converted @ converted.T

    #: Cap on the cached full triple-count tensor: ``m^3`` float32 cells must
    #: stay under this (2^26 cells is a 256 MB ceiling, reached around
    #: m ~ 400 workers).  Above the cap :meth:`triple_count_tensor` returns
    #:  None and callers fall back to per-worker grids.
    _TRIPLE_TENSOR_CELL_LIMIT = 2**26

    def triple_count_tensor(self) -> np.ndarray | None:
        """The full triple-count tensor ``C[w, x, y] = c_{w,x,y}``, cached.

        Built progressively in one ascending pass over workers, exploiting
        the full symmetry of the counts: worker ``w``'s rows for partners
        ``x < w`` are copied from the already-computed grids
        (``C[w, x, y] = C[x, w, y]``), and only the ``x, y >= w`` block is
        computed fresh.  Only the tasks ``w`` attempted can count towards
        ``c_{w,x,y}``, so that block is the product of the suffix
        workers' attempt columns restricted to those tasks: worker ``w``'s
        product has ``fill * n`` rows instead of ``n``, and the whole build
        costs about ``fill`` times the triangular third of ``m`` full
        ``m x n`` products.  Every entry stays the exact integer count
        (float32 products of 0/1 matrices are exact up to 2^24 tasks, and
        copies are copies).

        Returns None when the ``m^3`` tensor would exceed the memory cap or
        the task count would overflow float32 exactness; callers fall back
        to :meth:`triple_count_matrix` / per-worker products.
        """
        if (
            self._n_workers**3 > self._TRIPLE_TENSOR_CELL_LIMIT
            or self._n_tasks > _FLOAT32_EXACT_TASK_LIMIT
        ):
            return None
        if self._triple_tensor is not None:
            return self._triple_tensor
        m = self._n_workers
        # Task-major attempts (1 byte a cell): a worker's task set gathers
        # contiguous rows.
        by_task = np.ascontiguousarray(self._attempts.T)
        tensor = np.empty((m, m, m), dtype=np.float32)
        for worker in range(m):
            grid = tensor[worker]
            if worker:
                # Rows for already-processed partners, by symmetry in the
                # first two indices.
                grid[:worker, :] = tensor[:worker, worker, :]
            tasks = np.flatnonzero(self._attempts[worker])
            sub = by_task[tasks, worker:].astype(np.float32)
            grid[worker:, worker:] = sub.T @ sub
            if worker:
                # Mirror the remaining block, by symmetry in the partners.
                grid[worker:, :worker] = grid[:worker, worker:].T
        self._triple_tensor = tensor
        return tensor

    def triple_count_grid_full(self, worker: int) -> np.ndarray:
        """All ``c_{worker, x, y}`` over *every* worker pair, exact counts.

        The ``(m, m)`` float32 grid for one worker — a view into the cached
        tensor when it fits, otherwise one masked matrix product.  Row and
        column ``worker`` hold the (valid) degenerate counts
        ``c_{w,w,x} = c_{w,x}``; callers that only consume partner pairs
        never read them.
        """
        self._validate_workers(worker)
        tensor = self.triple_count_tensor()
        if tensor is not None:
            return tensor[worker]
        if self._n_tasks > _FLOAT32_EXACT_TASK_LIMIT:
            masked = (self._attempts & self._attempts[worker]).astype(np.float64)
        elif self._attempts_as_f32 is not None:
            masked = self._attempts_as_f32 * self._attempts_as_f32[worker]
        else:
            masked = (self._attempts & self._attempts[worker]).astype(np.float32)
        return masked @ masked.T

    # ------------------------------------------------------------------ #
    # Delta updates (incremental evaluation)
    # ------------------------------------------------------------------ #

    def _invalidate_derived(self) -> None:
        super()._invalidate_derived()
        self._attempts_f32 = None
        self._triple_tensor = None

    def _apply_delta(
        self, worker: int, task: int, label: int, previous_label: int | None
    ) -> None:
        """O(m) delta update after one ``(worker, task, label)`` ingestion.

        Every built cache — common/agreement count matrices, bitset rows,
        vote table — is patched in place instead of being recomputed, which
        is what makes streaming ingestion O(co-attempters) per response
        rather than O(m^2 n).
        """
        co_attempters = np.nonzero(self._attempts[:, task])[0]
        co_attempters = co_attempters[co_attempters != worker]
        their_labels = self._labels[co_attempters, task].astype(np.int64)

        if previous_label is None:
            self._attempts[worker, task] = True
            if self._common is not None:
                self._common[worker, co_attempters] += 1
                self._common[co_attempters, worker] += 1
                self._common[worker, worker] += 1
            if self._packed is not None:
                self._packed[worker, task >> 3] |= np.uint8(0x80 >> (task & 7))
            if self._agree is not None:
                self._agree[worker, worker] += 1
        elif self._agree is not None:
            stale = (their_labels == int(previous_label)).astype(np.int64)
            self._agree[worker, co_attempters] -= stale
            self._agree[co_attempters, worker] -= stale
        if self._agree is not None:
            fresh = (their_labels == int(label)).astype(np.int64)
            self._agree[worker, co_attempters] += fresh
            self._agree[co_attempters, worker] += fresh
        if self._task_votes is not None:
            if previous_label is not None:
                self._task_votes[task, int(previous_label)] -= 1
            self._task_votes[task, int(label)] += 1
        self._labels[worker, task] = label

    def _apply_batch_storage(
        self, events: list[tuple[int, int, int, int | None]]
    ) -> bool:
        """Absorb a micro-batch with grouped per-worker-row writes.

        Legal only while no count matrix / vote table is materialized: then
        the dense arrays are the sole authority and the whole batch reduces
        to fancy-indexed assignments per touched worker row — no per-event
        O(m) co-attempter scan.  Duplicate ``(worker, task)`` cells within
        the batch are deduplicated keeping the last label (assignment
        semantics of the sequential replay).
        """
        if (
            self._common is not None
            or self._agree is not None
            or self._task_votes is not None
        ):
            return False
        by_worker: dict[int, tuple[list[int], list[int]]] = {}
        for worker, task, label, _previous in events:
            tasks, labels = by_worker.setdefault(worker, ([], []))
            tasks.append(task)
            labels.append(label)
        for worker, (tasks, labels) in by_worker.items():
            task_array = np.asarray(tasks, dtype=np.int64)
            label_array = np.asarray(labels, dtype=np.int64)
            # Keep the last occurrence per task: unique() on the reversed
            # array returns first occurrences, i.e. the stream's last.
            _, reversed_first = np.unique(task_array[::-1], return_index=True)
            keep = task_array.size - 1 - reversed_first
            self._attempts[worker, task_array[keep]] = True
            self._labels[worker, task_array[keep]] = label_array[keep]
            if self._packed is not None:
                self._packed[worker] = np.packbits(self._attempts[worker])
        return True

    def _extend_storage(self, additional_workers: int, additional_tasks: int) -> None:
        m, n = self._attempts.shape
        grown_attempts = np.zeros(
            (m + additional_workers, n + additional_tasks), dtype=bool
        )
        grown_attempts[:m, :n] = self._attempts
        grown_labels = np.full(
            (m + additional_workers, n + additional_tasks),
            UNANSWERED,
            dtype=self._labels.dtype,
        )
        grown_labels[:m, :n] = self._labels
        self._attempts = grown_attempts
        self._labels = grown_labels
        self._attempts_f32 = None
        if additional_workers:
            # (m, m, m) tensor shapes change; task-only growth keeps the
            # counts (the added columns are empty).
            self._triple_tensor = None
        if self._packed is not None:
            n_bytes = (n + additional_tasks + 7) // 8
            grown_packed = np.zeros(
                (m + additional_workers, n_bytes), dtype=np.uint8
            )
            # Valid because np.packbits zero-pads the trailing bits of the
            # final byte: existing bytes describe the old columns verbatim.
            grown_packed[:m, : self._packed.shape[1]] = self._packed
            self._packed = grown_packed


def auto_backend_choice(
    n_workers: int,
    n_tasks: int,
    n_responses: int,
    sparse_available: bool | None = None,
    arity: int = 2,
) -> str:
    """Cost model behind ``backend="auto"``: pick the cheapest viable backend.

    The decision weighs the grid size ``cells = m * n`` against the observed
    fill ``density = n_responses / cells``:

    * ``m > AUTO_DENSE_WORKER_LIMIT`` → ``"dict"`` — every vectorized
      backend caches O(m^2) pair-count matrices, which worker-heavy
      matrices cannot afford regardless of fill;
    * grid fits densely (``cells <= AUTO_DENSE_CELL_LIMIT``):
      ``"dense"``, except that large very-sparse grids
      (``cells > AUTO_SPARSE_MIN_CELLS`` and
      ``density < AUTO_SPARSE_DENSITY``) take ``"sparse"`` when scipy is
      importable — there the CSR pair-count products and the
      fill-restricted triple grids do work proportional to
      ``density * m * n`` instead of ``m * n`` per worker;
    * grid does *not* fit densely: ``"sparse"`` when it is sparse enough
      and scipy is importable, else ``"bitset"`` while the packed planes —
      ``arity + 1`` of them, one bit per cell each — stay under the
      binary-equivalent ``AUTO_BITSET_CELL_LIMIT`` budget, else ``"dict"``.

    An explicit ``backend=`` request bypasses this model entirely
    (:func:`resolve_backend` honours it even beyond every limit above).
    ``sparse_available`` overrides the scipy-importability probe (tests use
    this to pin both branches deterministically).
    """
    if sparse_available is None:
        from repro.data.sparse_backend import scipy_available

        sparse_available = scipy_available()
    cells = n_workers * n_tasks
    if n_workers > AUTO_DENSE_WORKER_LIMIT:
        return "dict"
    density = n_responses / cells if cells else 1.0
    sparse_enough = density < AUTO_SPARSE_DENSITY
    if cells <= AUTO_DENSE_CELL_LIMIT:
        if sparse_enough and sparse_available and cells > AUTO_SPARSE_MIN_CELLS:
            return "sparse"
        return "dense"
    if sparse_enough and sparse_available:
        return "sparse"
    if cells * (arity + 1) <= 3 * AUTO_BITSET_CELL_LIMIT:
        return "bitset"
    return "dict"


def resolve_backend(
    matrix: ResponseMatrix,
    backend: str | AgreementBackendBase | None = "auto",
) -> AgreementBackendBase | None:
    """Resolve a backend knob into a concrete backend (or None for dict).

    Parameters
    ----------
    matrix:
        The response data the backend will serve.
    backend:
        ``"dense"`` forces the vectorized dense backend, ``"sparse"`` the
        scipy.sparse CSR backend, ``"bitset"`` the packed-rows low-memory
        backend, ``"dict"`` the original dict-of-dicts path, and ``"auto"``
        (and None) applies the :func:`auto_backend_choice` cost model over
        the grid size and observed fill.  An explicit choice always wins
        (even beyond the auto limits), with one documented degradation:
        ``"sparse"`` without an importable scipy falls back to the dense
        backend (or bitset when the dense arrays cannot be materialized) —
        counts, and therefore estimates, are identical either way.  An
        existing backend instance is passed through unchanged (the
        incremental evaluator reuses its delta-updated backend this way).
    """
    if isinstance(backend, AgreementBackendBase):
        return backend
    if backend is None:
        backend = "auto"
    if backend not in BACKEND_CHOICES:
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of {BACKEND_CHOICES}"
        )
    if backend == "auto":
        backend = auto_backend_choice(
            matrix.n_workers,
            matrix.n_tasks,
            matrix.n_responses,
            arity=matrix.arity,
        )
    if backend == "dict":
        return None
    if backend == "sparse":
        from repro.data.sparse_backend import SparseAgreementBackend, scipy_available

        if scipy_available():
            return SparseAgreementBackend.from_matrix(matrix)
        # Graceful degradation when scipy is absent: serve the same exact
        # counts from a scipy-free backend instead of failing.
        backend = (
            "dense"
            if matrix.n_workers * matrix.n_tasks <= AUTO_DENSE_CELL_LIMIT
            and matrix.n_workers <= AUTO_DENSE_WORKER_LIMIT
            else "bitset"
        )
    if backend == "bitset":
        from repro.data.sparse_backend import BitsetAgreementBackend

        return BitsetAgreementBackend.from_matrix(matrix)
    return DenseAgreementBackend.from_matrix(matrix)


def resolve_triple_backend(
    matrix: ResponseMatrix,
    backend: str | AgreementBackendBase | None = "auto",
) -> AgreementBackendBase | None:
    """Backend resolution for queries scoped to a single worker triple.

    Building a vectorized backend costs O(m*n) (plus O(m^2 n) on the first
    pair read), which is pure waste when the caller —
    ``evaluate_three_workers``, ``KaryEstimator.evaluate`` — only ever reads
    three workers.  Under ``"auto"`` the vectorized path is therefore used
    only when the matrix itself is triple-sized (the common Algorithm A1/A3
    shape, where the build is trivially cheap); an explicit backend request
    is still honoured.
    """
    if backend in ("auto", None) and matrix.n_workers > 16:
        return None
    return resolve_backend(matrix, backend)
