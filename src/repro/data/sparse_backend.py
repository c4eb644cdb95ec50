"""Sparse and low-memory agreement-statistics backends.

Real crowdsourcing matrices live in the *sparse* regime: each worker answers
a small fraction of the tasks, so the dense backend's O(m*n) indicator/label
arrays (and the O(m^2 n) masked products behind its triple grids) spend
almost all of their work on empty cells.  This module provides two backends
that exploit the observed fill while serving the **same exact integer
counts** — and therefore bit-identical estimates — as the dense and dict
paths:

* :class:`BitsetAgreementBackend` — keeps *only* packed bitset rows: one
  attempt plane plus one plane per label value, each one bit per cell
  (``(arity + 1) / 8`` bytes per cell versus the dense backend's 3 bytes).
  Pairwise counts come from AND + popcount over the packed rows; triple
  grids from fill-restricted matrix products (below).  This is the
  low-memory fallback for grids whose dense arrays cannot be materialized.
* :class:`SparseAgreementBackend` — the bitset storage plus a CSR index of
  the responses; the full pairwise common/agreement count matrices are
  built with scipy.sparse CSR matrix products whose work scales with the
  fill (O(sum of row-overlap) instead of O(m^2 n) dense flops).  Requires
  scipy; :func:`~repro.data.dense_backend.resolve_backend` degrades the
  request gracefully when scipy is absent.

Fill-restricted triple grids
----------------------------

The Lemma-4 grids ``c_{w, x, y}`` only involve tasks worker ``w`` attempted:
both backends therefore gather the partners' attempt bits at exactly those
``c_w = density * n`` columns and run one ``(l, c_w) @ (c_w, l)`` product —
work proportional to ``density * m * n * observed fill`` per worker instead
of the dense backend's full ``m * n`` masked product.  Products of 0/1
matrices are exact integers (float32 up to 2^24 tasks, float64 beyond), so
the grids equal the dense/dict values bit for bit.

Both backends inherit every shared query (scalar pairs/triples, the clamped
rate caches, vote table, majority-disagreement proxy, A3 count tensor) from
:class:`~repro.data.dense_backend.AgreementBackendBase` and implement the
same O(row) ``apply_response`` delta update the incremental evaluator uses.
Both also implement the shared-state export protocol durable snapshots
use (:mod:`repro.serve.durable`): the packed bit planes, count matrices and
vote table are persisted, so a resume attaches the precomputed state
instead of rebuilding it — the sparse backend's CSR index is never
persisted (it is consumed building the count matrices before export).
Like the dense backend, both are
footprint-capable: the incremental evaluator's dependency ledger derives
each recompute's read set analytically (:mod:`repro.core.deps`), so
dependency-tracked recomputes shard on these backends too.

New backends (like these two) must register in the differential suite's
path tables (``tests/property/test_cross_backend_differential.py``) so the
bit-identity contract is enforced on every public entry point.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DataValidationError
from repro.data.dense_backend import (
    _FLOAT32_EXACT_TASK_LIMIT,
    _popcount,
    AgreementBackendBase,
)
from repro.data.response_matrix import UNANSWERED, ResponseMatrix

__all__ = [
    "BitsetAgreementBackend",
    "SparseAgreementBackend",
    "scipy_available",
]

#: Transient-memory bound for chunked bit unpacking: at most this many
#: unpacked cells (1 byte each) are materialized at a time.
_UNPACK_CHUNK_CELLS: int = 1 << 25

#: Test hook: force :func:`scipy_available` to a fixed answer so both the
#: scipy-present and scipy-absent code paths can be exercised from one
#: environment.  ``None`` means "probe the real import".
_SCIPY_OVERRIDE: bool | None = None


def scipy_available() -> bool:
    """Whether ``scipy.sparse`` is importable (the ``repro[sparse]`` extra)."""
    if _SCIPY_OVERRIDE is not None:
        return bool(_SCIPY_OVERRIDE)
    try:
        import scipy.sparse  # noqa: F401
    except ImportError:  # pragma: no cover - depends on the environment
        return False
    return True


class BitsetAgreementBackend(AgreementBackendBase):
    """Packed-rows-only agreement backend (the low-memory mode).

    Storage is ``arity + 1`` bit planes of shape ``(m, ceil(n / 8))``: one
    attempt plane and one plane per label value (a worker's bit is set in
    exactly the plane of the label they gave).  Every count is computed from
    these planes:

    * pairwise common counts: AND + popcount between attempt rows;
    * pairwise agreement counts: AND + popcount within each label plane,
      summed over planes;
    * triple counts: AND + popcount across three attempt rows (inherited),
      or fill-restricted products for whole grids (module docstring);
    * vote table / majority rates / A3 tensor: the generic row-accessor
      implementations of the base class over unpacked rows.

    All counts are exact integers, so estimates are bit-identical to the
    dense and dict backends; the differential suite enforces this.
    """

    name = "bitset"

    def __init__(self, matrix: ResponseMatrix) -> None:
        self._n_workers = matrix.n_workers
        self._n_tasks = matrix.n_tasks
        self._arity = matrix.arity
        m, n = self._n_workers, self._n_tasks
        n_bytes = (n + 7) // 8
        self._packed = np.zeros((m, n_bytes), dtype=np.uint8)
        self._packed_labels = np.zeros((self._arity, m, n_bytes), dtype=np.uint8)
        row = np.zeros(n, dtype=bool)
        for worker in range(m):
            responses = matrix.worker_responses(worker)
            if not responses:
                continue
            tasks = np.fromiter(responses.keys(), dtype=np.int64, count=len(responses))
            labels = np.fromiter(
                responses.values(), dtype=np.int64, count=len(responses)
            )
            row[:] = False
            row[tasks] = True
            self._packed[worker] = np.packbits(row)
            for label in np.unique(labels):
                row[:] = False
                row[tasks[labels == label]] = True
                self._packed_labels[label, worker] = np.packbits(row)
            self._ingest_row(worker, tasks, labels)
        self._init_caches()

    def _ingest_row(self, worker: int, tasks: np.ndarray, labels: np.ndarray) -> None:
        """Hook for subclasses that keep extra per-row structure.

        Called once per non-empty worker row during construction with the
        raw (unsorted) task/label arrays, so a subclass can build its own
        index without re-iterating the response store.
        """

    @classmethod
    def from_matrix(cls, matrix: ResponseMatrix) -> "BitsetAgreementBackend":
        """Build a backend snapshot of ``matrix``."""
        return cls(matrix)

    # ------------------------------------------------------------------ #
    # Shared-state export
    # ------------------------------------------------------------------ #

    def export_shared_state(self) -> dict[str, np.ndarray]:
        """The packed planes plus every precomputed count evaluation reads.

        Materializes the count matrices and vote table as a side effect so
        a restore never pays the popcount/CSR builds; for the sparse
        subclass this also consumes and releases the CSR index, which
        therefore never needs exporting.  The durable snapshot layer
        (:mod:`repro.serve.durable`) persists exactly these keys, which is
        also why a sparse-backed session restores without scipy present:
        :meth:`attach_shared_state` needs only the packed planes and
        counts.
        """
        return {
            "packed": self._packed,
            "packed_labels": self._packed_labels,
            "common": self.common_counts,
            "agree": self.agreement_counts,
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
    ) -> "BitsetAgreementBackend":
        self = cls.__new__(cls)
        self._n_workers = n_workers
        self._n_tasks = n_tasks
        self._arity = arity
        self._packed = arrays["packed"]
        self._packed_labels = arrays["packed_labels"]
        self._init_caches(
            common_counts=arrays["common"], agreement_counts=arrays["agree"]
        )
        self._task_votes = arrays["task_votes"]
        return self

    # ------------------------------------------------------------------ #
    # Storage hooks
    # ------------------------------------------------------------------ #

    @property
    def _packed_rows(self) -> np.ndarray:
        return self._packed

    def _attempt_row(self, worker: int) -> np.ndarray:
        return np.unpackbits(self._packed[worker], count=self._n_tasks).view(bool)

    def _label_row(self, worker: int) -> np.ndarray:
        row = np.full(self._n_tasks, UNANSWERED, dtype=np.int16)
        for label in range(self._arity):
            bits = np.unpackbits(
                self._packed_labels[label, worker], count=self._n_tasks
            ).view(bool)
            row[bits] = label
        return row

    # ------------------------------------------------------------------ #
    # Pairwise count matrices (popcounts over the packed planes)
    # ------------------------------------------------------------------ #

    def _pairwise_popcounts(self, plane: np.ndarray) -> np.ndarray:
        """``counts[i, j] = popcount(plane[i] & plane[j])`` for all pairs."""
        m = plane.shape[0]
        counts = np.empty((m, m), dtype=np.int64)
        for row in range(m):
            counts[row] = _popcount(plane & plane[row]).sum(axis=1, dtype=np.int64)
        return counts

    @property
    def common_counts(self) -> np.ndarray:
        if self._common is None:
            self._common = self._pairwise_popcounts(self._packed)
        return self._common

    @property
    def agreement_counts(self) -> np.ndarray:
        if self._agree is None:
            agree = np.zeros((self._n_workers, self._n_workers), dtype=np.int64)
            for label in range(self._arity):
                agree += self._pairwise_popcounts(self._packed_labels[label])
            self._agree = agree
        return self._agree

    # ------------------------------------------------------------------ #
    # Fill-restricted triple-count grids
    # ------------------------------------------------------------------ #

    def _attempt_submatrix(self, worker: int, row_index: np.ndarray) -> np.ndarray:
        """0/1 matrix of the requested rows' attempts at ``worker``'s tasks.

        Shape ``(len(row_index), c_worker)``; the grid product over it
        yields exact triple counts because every count is bounded by the
        task count (float32 exact up to 2^24 tasks, float64 beyond).  Rows
        are unpacked in bounded chunks so the transient footprint never
        exceeds :data:`_UNPACK_CHUNK_CELLS` cells.
        """
        tasks = np.nonzero(self._attempt_row(worker))[0]
        dtype = (
            np.float32 if self._n_tasks <= _FLOAT32_EXACT_TASK_LIMIT else np.float64
        )
        out = np.empty((row_index.size, tasks.size), dtype=dtype)
        chunk = max(1, _UNPACK_CHUNK_CELLS // max(1, self._n_tasks))
        for start in range(0, row_index.size, chunk):
            block = np.unpackbits(
                self._packed[row_index[start : start + chunk]],
                axis=1,
                count=self._n_tasks,
            )
            out[start : start + chunk] = block[:, tasks]
        return out

    def triple_count_matrix(
        self, worker: int, partners: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """All ``c_{worker, x, y}`` for ``x, y`` in ``partners``.

        One fill-restricted product (module docstring), exact counts.
        """
        partner_index = np.asarray(partners, dtype=np.int64)
        self._validate_workers(worker)
        if partner_index.size and (
            partner_index.min() < 0 or partner_index.max() >= self._n_workers
        ):
            raise DataValidationError("partner id out of range")
        sub = self._attempt_submatrix(worker, partner_index)
        return (sub @ sub.T).astype(np.float64)

    def triple_count_grid_full(self, worker: int) -> np.ndarray:
        """All ``c_{worker, x, y}`` over *every* worker pair, exact counts."""
        self._validate_workers(worker)
        sub = self._attempt_submatrix(worker, np.arange(self._n_workers))
        return sub @ sub.T

    # ------------------------------------------------------------------ #
    # Delta updates (incremental evaluation)
    # ------------------------------------------------------------------ #

    def _apply_delta(
        self, worker: int, task: int, label: int, previous_label: int | None
    ) -> None:
        """O(m) delta update mirroring the dense backend's semantics.

        The packed planes are the authoritative storage here, so the
        attempt/label bits are always patched; the lazily-built count
        matrices and vote table are patched only when materialized (exactly
        as the dense backend patches its caches).
        """
        byte_index = task >> 3
        bit = np.uint8(0x80 >> (task & 7))
        attempted = (self._packed[:, byte_index] & bit) != 0
        co_attempters = np.nonzero(attempted)[0]
        co_attempters = co_attempters[co_attempters != worker]
        their_labels = np.zeros(co_attempters.size, dtype=np.int64)
        for value in range(1, self._arity):
            marked = (
                self._packed_labels[value][co_attempters, byte_index] & bit
            ) != 0
            their_labels[marked] = value

        if previous_label is None:
            self._packed[worker, byte_index] |= bit
            if self._common is not None:
                self._common[worker, co_attempters] += 1
                self._common[co_attempters, worker] += 1
                self._common[worker, worker] += 1
            if self._agree is not None:
                self._agree[worker, worker] += 1
        else:
            self._packed_labels[int(previous_label)][worker, byte_index] &= np.uint8(
                0xFF ^ int(bit)
            )
            if self._agree is not None:
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
        self._packed_labels[int(label)][worker, byte_index] |= bit

    def _apply_batch_storage(
        self, events: list[tuple[int, int, int, int | None]]
    ) -> bool:
        """Absorb a micro-batch with grouped per-worker bit writes.

        Legal only while no count matrix / vote table is materialized (the
        packed planes are then the sole authority).  Per touched cell only
        the *net* transition matters for the planes — the pre-batch label
        (the first event's ``previous``) is cleared and the last label set —
        so the per-event O(m) co-attempter scans vanish entirely.
        """
        if (
            self._common is not None
            or self._agree is not None
            or self._task_votes is not None
        ):
            return False
        # (worker, task) -> [pre-batch previous, final label]; dict order
        # preserves the stream order within each worker row.
        net: dict[tuple[int, int], list[int | None]] = {}
        for worker, task, label, previous in events:
            cell = net.get((worker, task))
            if cell is None:
                net[(worker, task)] = [previous, label]
            else:
                cell[1] = label
        for (worker, task), (previous, label) in net.items():
            byte_index = task >> 3
            bit = np.uint8(0x80 >> (task & 7))
            if previous is None:
                self._packed[worker, byte_index] |= bit
            elif int(previous) == int(label):
                continue
            else:
                self._packed_labels[int(previous)][worker, byte_index] &= np.uint8(
                    0xFF ^ int(bit)
                )
            self._packed_labels[int(label)][worker, byte_index] |= bit
        return True

    def _extend_storage(self, additional_workers: int, additional_tasks: int) -> None:
        m = self._packed.shape[0]
        n_bytes = (self._n_tasks + additional_tasks + 7) // 8
        grown = np.zeros((m + additional_workers, n_bytes), dtype=np.uint8)
        # np.packbits zero-pads the trailing bits of the final byte, so the
        # existing bytes describe the old columns verbatim.
        grown[:m, : self._packed.shape[1]] = self._packed
        self._packed = grown
        grown_labels = np.zeros(
            (self._arity, m + additional_workers, n_bytes), dtype=np.uint8
        )
        grown_labels[:, :m, : self._packed_labels.shape[2]] = self._packed_labels
        self._packed_labels = grown_labels


class SparseAgreementBackend(BitsetAgreementBackend):
    """scipy.sparse CSR backend for very large sparse grids.

    Inherits the bitset storage (packed planes drive the triple counts, the
    delta updates and every row-accessor query) and adds a CSR index of the
    responses used exclusively to build the full pairwise common/agreement
    count matrices with sparse matrix products — O(fill)-driven work where
    the bitset popcount build is O(m^2 n / 8) and the dense build O(m^2 n).

    Requires scipy (install the ``repro[sparse]`` extra);
    :func:`~repro.data.dense_backend.resolve_backend` degrades a
    ``backend="sparse"`` request to a scipy-free backend with identical
    counts when the import is unavailable, so only direct construction
    raises.
    """

    name = "sparse"

    def __init__(self, matrix: ResponseMatrix) -> None:
        if not scipy_available():
            raise ConfigurationError(
                "the sparse backend requires scipy; install the "
                "'repro[sparse]' extra or pick backend='bitset'"
            )
        # Filled by the _ingest_row hook during the single construction pass
        # of the bitset plane build (one (worker, tasks, labels) triple per
        # non-empty row, in ascending worker order).
        self._pending_rows: list[tuple[int, np.ndarray, np.ndarray]] = []
        super().__init__(matrix)
        # Assemble the CSR structure of the responses (rows = workers,
        # sorted column indices), consumed only by the one-shot count-matrix
        # builds below.
        m = self._n_workers
        lengths = np.zeros(m, dtype=np.int64)
        index_chunks: list[np.ndarray] = []
        label_chunks: list[np.ndarray] = []
        for worker, tasks, labels in self._pending_rows:
            lengths[worker] = tasks.size
            order = np.argsort(tasks)
            index_chunks.append(tasks[order])
            label_chunks.append(labels[order])
        del self._pending_rows
        self._csr_indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lengths)]
        )
        self._csr_indices = (
            np.concatenate(index_chunks)
            if index_chunks
            else np.zeros(0, dtype=np.int64)
        )
        self._csr_labels = (
            np.concatenate(label_chunks)
            if label_chunks
            else np.zeros(0, dtype=np.int64)
        )

    def _ingest_row(self, worker: int, tasks: np.ndarray, labels: np.ndarray) -> None:
        self._pending_rows.append((worker, tasks, labels))

    @classmethod
    def attach_shared_state(
        cls,
        arrays: dict[str, np.ndarray],
        *,
        n_workers: int,
        n_tasks: int,
        arity: int,
    ) -> "SparseAgreementBackend":
        """Attach with the CSR index marked consumed.

        The exported state already contains the CSR-built count matrices,
        so an attached backend never runs a sparse product — it does not
        even need scipy, which keeps sparse-backed snapshots restorable on
        scipy-free hosts.
        """
        self = super().attach_shared_state(
            arrays, n_workers=n_workers, n_tasks=n_tasks, arity=arity
        )
        self._csr_indptr = None
        self._csr_indices = None
        self._csr_labels = None
        return self

    def _csr_pair_product(
        self, indices: np.ndarray, indptr: np.ndarray
    ) -> np.ndarray:
        """``(M @ M.T).toarray()`` for the all-ones CSR with this pattern."""
        from scipy import sparse

        csr = sparse.csr_matrix(
            (np.ones(indices.size, dtype=np.int64), indices, indptr),
            shape=(self._n_workers, self._n_tasks),
        )
        return np.asarray((csr @ csr.T).toarray(), dtype=np.int64)

    def _release_csr_if_done(self) -> None:
        """Drop the CSR arrays once both count matrices are materialized.

        They are consumed only by the one-shot builds below and are never
        patched (``apply_response`` materializes both matrices first, after
        which the packed planes are the only authoritative storage), so on
        the backend's target workloads keeping them would pin ~16 bytes of
        dead index data per response for the backend's lifetime.
        """
        if self._common is not None and self._agree is not None:
            self._csr_indices = None
            self._csr_labels = None
            self._csr_indptr = None

    @property
    def common_counts(self) -> np.ndarray:
        if self._common is None:
            self._common = self._csr_pair_product(
                self._csr_indices, self._csr_indptr
            )
            self._release_csr_if_done()
        return self._common

    @property
    def agreement_counts(self) -> np.ndarray:
        if self._agree is None:
            # One product per label value over just that label's entries:
            # scipy SpGEMM works proportionally to the *stored* pattern, so
            # the sliced per-label CSRs (no explicit zeros) keep the total
            # agreement build at one full-fill's worth of work instead of
            # arity x full fill.
            agree = np.zeros((self._n_workers, self._n_workers), dtype=np.int64)
            rows = np.repeat(
                np.arange(self._n_workers), np.diff(self._csr_indptr)
            )
            for label in range(self._arity):
                mask = self._csr_labels == label
                label_indptr = np.concatenate(
                    [
                        np.zeros(1, dtype=np.int64),
                        np.cumsum(
                            np.bincount(rows[mask], minlength=self._n_workers)
                        ),
                    ]
                )
                agree += self._csr_pair_product(
                    self._csr_indices[mask], label_indptr
                )
            self._agree = agree
            self._release_csr_if_done()
        return self._agree

    def apply_response(
        self, worker: int, task: int, label: int, previous_label: int | None = None
    ) -> None:
        """Delta update; materializes the CSR-built matrices first.

        The CSR index arrays describe the *construction-time* responses and
        are never patched; the count matrices must therefore exist before
        the first delta lands so the update is applied to them in place
        (afterwards the packed planes are the only authoritative storage,
        exactly as in the bitset backend).
        """
        if not (previous_label is not None and int(previous_label) == int(label)):
            self.common_counts
            self.agreement_counts
        super().apply_response(worker, task, label, previous_label)

    def apply_responses(
        self, events: Sequence[tuple[int, int, int, int | None]]
    ) -> int:
        """Batched delta update; materializes the CSR-built matrices first.

        Same reasoning as :meth:`apply_response`: the CSR index describes
        the construction-time responses only, so both count matrices must
        exist before the first delta lands (this also means the grouped
        storage-only fast path never applies here — the materialized
        matrices are patched per event, exactly like the singleton path).
        """
        if any(
            not (previous is not None and int(previous) == int(label))
            for _worker, _task, label, previous in events
        ):
            self.common_counts
            self.agreement_counts
        return super().apply_responses(events)

    def _extend_storage(self, additional_workers: int, additional_tasks: int) -> None:
        super()._extend_storage(additional_workers, additional_tasks)
        # Task growth leaves the CSR index valid (column count is read from
        # the backend shape at product time); new workers are empty rows.
        if additional_workers and self._csr_indptr is not None:
            self._csr_indptr = np.concatenate(
                [
                    self._csr_indptr,
                    np.full(
                        additional_workers, self._csr_indptr[-1], dtype=np.int64
                    ),
                ]
            )
