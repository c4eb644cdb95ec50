"""Pairwise agreement statistics over a :class:`ResponseMatrix`.

The binary algorithms are driven entirely by three kinds of quantities:

* ``q_ij`` — the empirical agreement rate of workers ``i`` and ``j`` over the
  tasks they both attempted,
* ``c_ij`` — the number of tasks both attempted,
* ``c_ijk`` — the number of tasks all three of ``i``, ``j``, ``k`` attempted.

:class:`AgreementStatistics` caches these for a fixed set of workers so the
m-worker estimator (which revisits many overlapping triples) does not
recompute them from the raw responses each time.

Two computation strategies are supported:

* the original lazy **dict** path — a pair or triple is computed from the
  sparse dict-of-dicts store (Python set intersections) the first time it is
  requested and memoized afterwards; O(n) per pair, O(m^2 n) for a full
  batch evaluation;
* the vectorized **dense** path — a
  :class:`~repro.data.dense_backend.DenseAgreementBackend` precomputes all
  pairwise counts with NumPy matrix products and serves triples from packed
  bitset rows; O(m^2 n) in BLAS once, O(1) per pair afterwards;
* the **sparse** path — scipy.sparse CSR matmuls for the pairwise counts
  and fill-restricted products for the triple grids
  (:class:`~repro.data.sparse_backend.SparseAgreementBackend`), the cheap
  choice for large low-fill matrices;
* the **bitset** path — packed bit planes only
  (:class:`~repro.data.sparse_backend.BitsetAgreementBackend`), the
  low-memory fallback when the dense arrays cannot be materialized.

All paths produce exactly the same integer counts, so every estimator is
bit-identical across backends.  Use :meth:`AgreementStatistics.precompute`
(or ``compute_agreement_statistics(matrix, backend="dense")``) for the fast
path; ``backend="auto"`` (the default) applies the
:func:`~repro.data.dense_backend.auto_backend_choice` cost model over the
grid size and observed fill.

Backend capability matrix
-------------------------

The backend alone picks the Algorithm-A2 implementation: every vectorized
backend runs the batched triple stage plus the grouped Lemma-4/5
aggregation and shards across threads; the dict path runs the scalar
reference the differential suite compares against and falls back to serial
for every non-serial ``shards=`` spec:

============  =============  ==========  ==============  =========  ==========
backend       shared export  footprints  executor tiers  streaming  durability
============  =============  ==========  ==============  =========  ==========
``dict``      no             yes         serial only     yes        WAL replay
``dense``     yes            yes         thread          yes        snapshots
``sparse``    yes            yes         thread          yes        snapshots
``bitset``    yes            yes         thread          yes        snapshots
============  =============  ==========  ==============  =========  ==========

The scenario gauntlet (:mod:`repro.evaluation.gauntlet`) measures the grid
``scenario family x backend x estimator path``, where the estimator paths
depend on the family kind alone (:func:`supported_estimator_paths`) —

* ``"batch"`` — a from-scratch ``evaluate_all`` over a sampled matrix
  (the m-worker estimator for binary families, Algorithm A3's single
  triple for k-ary ones) on every backend;
* ``"streamed"`` — responses applied incrementally (micro-batched
  ``apply_responses`` under :class:`~repro.serve.session.StreamSession`)
  and estimates served from the last batch boundary; every backend
  streams (the *streaming* column), dict included.  Binary families only:
  Algorithm A3 has no incremental path.

Coverage numbers across those cells are comparable because every gauntlet
cell goes through the shared accounting of
:mod:`repro.evaluation.coverage`: one degenerate-filtering predicate
(``usable_estimate``), with ``n_degenerate`` and skipped repetitions
surfaced per cell instead of silently dropped.  The gauntlet's
gap-detection pass recomputes the full grid from
:data:`~repro.simulation.gauntlet.GAUNTLET_FAMILIES` x every backend in
:data:`~repro.data.dense_backend.BACKEND_CHOICES` (``"auto"`` aside) and
flags any (scenario, backend, path) cell a report failed to plan — so
adding a backend (or a family) makes an untested combination loud, not
invisible.

The *shared export* column serves durable snapshots only: the backend
can export its delta-patched state (packed planes, count matrices, vote
table; not the triple tensor, which the next batch would drop) by name and
rebuild itself from those arrays
(:meth:`~repro.data.dense_backend.AgreementBackendBase.export_shared_state`
/ ``attach_shared_state``), which is what the *durability* column's
snapshots persist.  The *executor tiers* column lists which
:mod:`repro.core.parallel` tiers can engage: threads need only a
vectorized backend (chunks share the parent's statistics object, with
every lazy cache pre-materialized).  ``shards="auto"`` picks serial or
threads from the :func:`~repro.core.parallel.auto_shard_choice` cost
model; see the :class:`~repro.core.m_worker.MWorkerEstimator` determinism
contract for the size threshold and serial-fallback guards.

The *footprints* column is the dependency protocol the incremental
evaluator consumes.  On every backend ``evaluate_worker_range`` *returns* a
compact :class:`~repro.core.deps.WorkerFootprint` per worker (pairing scan
log + formed-partner support + touch-target flag — see
:mod:`repro.core.deps`), derived from the greedy scan rather than recorded
read by read: the dict path takes it from the probe log of the reference
:func:`~repro.core.pairing.greedy_pairs`, the vectorized backends from
:func:`~repro.core.pairing.greedy_pairs_dense`, which logs the same probes.
Footprints ride the shard result channel, so dependency-tracked
recomputes engage the same executor tiers as any batch run.

The *streaming* column covers the delta-update protocol the incremental
evaluator and the async ingestion subsystem (:mod:`repro.serve`) drive:
O(row) ``apply_response`` singleton deltas plus the micro-batched
``apply_responses`` (one derived-cache invalidation pass per batch, with
grouped per-worker-row storage writes while no count matrix is
materialized) and the O(added ids) ``extend`` growth for worker/task ids
unseen at construction.

The *durability* column describes how a crashed durable session
(:mod:`repro.serve.durable`) gets its statistics back.  The vectorized
backends persist their full precomputed state in the periodic snapshots —
the same packed planes / count matrices / vote tables the shared-export
protocol names, restored through
``attach_shared_state`` with no count recomputation — so resume pays only
the WAL delta beyond the newest snapshot.  The dict path has no arrays to
snapshot; its statistics are rebuilt by replaying responses (the response
triples themselves *are* snapshotted, so a dict-backed resume is still
O(delta) over the WAL, it just re-derives pair counts from the restored
matrix).  Either way the restored backend keeps delta-updating in place,
and — per the resume contract below — serves the same bits it would have
without the crash.

Streaming determinism contract
------------------------------

The streaming paths inherit the bit-identity promise, with three
guarantees locked by the differential suite's ``streamed`` column
(25-seed micro-batch interleaving fuzz in
``tests/property/test_cross_backend_differential.py``):

* **ordering** — a response stream is applied in submission order,
  whether it arrives as singletons, batches, or through the asyncio
  session (FIFO queue, single applier);
* **batch-boundary invariance** — however the stream is chopped into
  micro-batches, the estimates served afterwards equal a from-scratch
  batch build over the accumulated responses, bit for bit, on every
  backend (batching moves bookkeeping, never arithmetic);
* **snapshot consistency** — concurrent readers observe whole applied
  batches only: an estimate served mid-stream equals a fresh batch run
  over exactly the responses whose batches have been applied (the
  dependency-tracked invalidation of
  :class:`~repro.core.incremental.IncrementalEvaluator` guarantees no
  stale interval survives a statistic its computation read).

Resume determinism contract
---------------------------

Durable sessions extend the streaming contract across process death: a
session resumed by :func:`repro.serve.open_session` serves estimates
**bit-identical** to a session that was never interrupted, on every
backend.  The guarantee decomposes into:

* **acknowledged writes survive** — each micro-batch is appended to the
  write-ahead log and fsynced *before* ``apply_batch`` runs, so any event
  whose ``flush()`` was acknowledged is on disk (WAL format: one
  versioned NDJSON header line, then per-batch records carrying the
  inclusive sequence range, the events, and a CRC-32 over the canonical
  encoding — see :mod:`repro.serve.durable`);
* **crash residue is inert** — a torn WAL tail (truncated line, flipped
  bytes, missing newline) is detected by the record CRC and discarded;
  a snapshot killed mid-write is invisible (atomic temp-file + rename)
  or fails its SHA-256 footer and falls back to an older snapshot, down
  to pure WAL replay;
* **replay is idempotent** — WAL records whose sequence range is already
  covered by the restored snapshot are skipped, and a record straddling
  the snapshot boundary is sliced to its uncovered suffix, so duplicated
  batches or a double replay cannot double-apply (a true sequence *gap*
  raises :class:`~repro.exceptions.DurableStateError` instead — that is
  data loss, not crash residue);
* **bit-identity** — estimates depend only on the accumulated counts,
  never on how application was chopped across the crash, so the
  batch-boundary invariance above carries the promise across resume.

The contract is locked by the differential suite's ``resumed`` column
(kill/resume fuzz over every backend with random cut points, snapshot
cadences and corruption modes) and the crash-smoke CI job, which SIGKILLs
a live durable ingest process and byte-compares the resumed output table.

Directories in the legacy multi-writer layout (per-partition WAL
segments ``wal-<p>.ndjson``, written by older releases) resume under the
same contract: the segments are a frozen history prefix, k-way merged in
an order that keeps every worker's events in submission order — events of
different workers update disjoint cells and commute, so the merge rebuilds
the same matrix — and the single ``wal.ndjson`` continues from there.  The
differential suite's ``legacy-layout`` column locks this on committed
fixture directories.

A new backend implements the
:class:`~repro.data.dense_backend.AgreementBackendBase` contract, gets the
bulk fast paths (and the streaming protocol's shared machinery, including
snapshot persistence through the shared-export shapes) for free, and
**must** register in the differential suite's path tables — including the
``streamed`` and ``resumed`` columns — so the bit-identity promise is
enforced for it on every public entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DataValidationError, InsufficientDataError
from repro.data.dense_backend import AgreementBackendBase, resolve_backend
from repro.data.response_matrix import ResponseMatrix

__all__ = [
    "AgreementStatistics",
    "ESTIMATOR_PATHS",
    "compute_agreement_statistics",
    "pair_key",
    "supported_estimator_paths",
]


#: Estimator paths per scenario kind, in canonical grid order.
ESTIMATOR_PATHS: dict[str, tuple[str, ...]] = {
    "binary": ("batch", "streamed"),
    "kary": ("batch",),
}


def supported_estimator_paths(kind: str = "binary") -> tuple[str, ...]:
    """Estimator paths measured for a scenario family of ``kind``.

    ``"binary"`` (the m-worker estimator: batch and streamed) or
    ``"kary"`` (Algorithm A3 evaluates one triple per batch — no
    incremental path).  Every backend serves every path of its kind.
    """
    if kind not in ESTIMATOR_PATHS:
        raise DataValidationError(
            f"unknown estimator kind {kind!r}; expected 'binary' or 'kary'"
        )
    return ESTIMATOR_PATHS[kind]


def pair_key(a: int, b: int) -> tuple[int, int]:
    """Canonical (sorted) dictionary key for an unordered worker pair.

    The statistics caches and the incremental evaluator's changed-pair sets
    share this convention.
    """
    return (a, b) if a < b else (b, a)


_pair_key = pair_key


def _triple_key(a: int, b: int, c: int) -> tuple[int, int, int]:
    return tuple(sorted((a, b, c)))  # type: ignore[return-value]


@dataclass
class AgreementStatistics:
    """Cached agreement rates and co-attempt counts for one response matrix.

    With no ``backend`` the cache is lazy: a pair or triple is computed the
    first time it is requested and memoized afterwards.  With a dense
    backend, lookups read straight from the precomputed count matrices (no
    per-pair memoization is needed, and the arrays stay authoritative when
    the backend is delta-updated by the incremental evaluator).
    """

    matrix: ResponseMatrix
    backend: AgreementBackendBase | None = field(default=None, repr=False)
    _pair_cache: dict[tuple[int, int], tuple[int, int]] = field(
        default_factory=dict, repr=False
    )
    _triple_cache: dict[tuple[int, int, int], int] = field(
        default_factory=dict, repr=False
    )

    @classmethod
    def precompute(
        cls,
        matrix: ResponseMatrix,
        backend: str | AgreementBackendBase | None = "dense",
    ) -> "AgreementStatistics":
        """Build statistics with a vectorized fast path.

        All pairwise common-task and agreement counts are obtained in one
        shot (boolean matrix products for ``"dense"``, CSR products for
        ``"sparse"``, popcounts for ``"bitset"``); triple counts are served
        on demand from packed row bitsets.  Pass ``backend="auto"`` to let
        the cost model decide, or an existing backend instance to reuse one.
        """
        return cls(matrix=matrix, backend=resolve_backend(matrix, backend))

    def _pair(self, a: int, b: int) -> tuple[int, int]:
        """(common task count, agreement count) for a pair, cached."""
        if a == b:
            raise DataValidationError("agreement requires two distinct workers")
        key = _pair_key(a, b)
        if self.backend is not None:
            return self.backend.pair(*key)
        if key not in self._pair_cache:
            stats = self.matrix.pair_statistics(*key)
            self._pair_cache[key] = (stats.common_tasks, stats.agreements)
        return self._pair_cache[key]

    def common_count(self, a: int, b: int) -> int:
        """``c_ab`` — number of tasks attempted by both workers."""
        return self._pair(a, b)[0]

    def agreement_count(self, a: int, b: int) -> int:
        """Number of common tasks on which the two workers agree."""
        return self._pair(a, b)[1]

    def agreement_rate(self, a: int, b: int) -> float:
        """``q_ab`` — empirical agreement rate over common tasks."""
        common, agreements = self._pair(a, b)
        if common == 0:
            raise InsufficientDataError(
                f"workers {a} and {b} share no common task; "
                "agreement rate is undefined"
            )
        return agreements / common

    def has_overlap(self, a: int, b: int, minimum: int = 1) -> bool:
        """True if the pair shares at least ``minimum`` common tasks."""
        return self.common_count(a, b) >= minimum

    def triple_common_count(self, a: int, b: int, c: int) -> int:
        """``c_abc`` — number of tasks attempted by all three workers."""
        if len({a, b, c}) != 3:
            raise DataValidationError("triple counts require three distinct workers")
        key = _triple_key(a, b, c)
        if self.backend is not None:
            return self.backend.triple_common_count(*key)
        if key not in self._triple_cache:
            self._triple_cache[key] = self.matrix.n_common_tasks(*key)
        return self._triple_cache[key]

    # ------------------------------------------------------------------ #
    # Vectorized bulk reads (dense backend only)
    # ------------------------------------------------------------------ #

    @property
    def has_dense_backend(self) -> bool:
        """True when a vectorized bulk fast path is available.

        The name predates the sparse/bitset backends: it is True for *any*
        :class:`~repro.data.dense_backend.AgreementBackendBase` (all of
        them serve the bulk reads), not only for the dense one.
        """
        return self.backend is not None

    def lemma4_inputs(
        self, worker: int, partners: np.ndarray, clamp_margin: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pre-clamped bulk inputs for the Lemma-4 assembly.

        Returns ``(common_with_worker, partner_2q_minus_1, triple_counts)``
        — the Lemma-4 term grid only ever consumes the partner rates through
        ``2 q - 1``, so that matrix is gathered pre-computed from the
        backend's batch-level cache.  Requires a vectorized backend.
        """
        _, two_q_minus_1, _ = self.backend.clamped_rate_data(clamp_margin)
        return (
            self.backend.common_counts_f64[worker, partners],
            two_q_minus_1[np.ix_(partners, partners)],
            self.backend.triple_count_matrix(worker, partners),
        )

    def lemma4_group_inputs(
        self, clamp_margin: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whole-matrix inputs for the grouped Lemma-4 aggregation.

        Returns ``(common_counts_f64, partner_2q_minus_1)`` — the full
        ``(m, m)`` pair-count and pre-clamped ``2q - 1`` matrices the
        grouped fast path slices per worker (triple counts come from
        :meth:`DenseAgreementBackend.triple_count_grid_full`).  Requires a
        vectorized backend.
        """
        _, two_q_minus_1, _ = self.backend.clamped_rate_data(clamp_margin)
        return (self.backend.common_counts_f64, two_q_minus_1)

    def triple_stage_inputs_fast(
        self,
        worker: int | np.ndarray,
        partners_a: np.ndarray,
        partners_b: np.ndarray,
        clamp_margin: float,
    ) -> tuple[np.ndarray, ...]:
        """Pre-clamped per-triple vectors for the batched triple stage.

        Returns ``(c_1, c_2, c_3, q_1, q_2, q_3, t_1, t_2, t_3, cl_1, cl_2,
        cl_3, c_t)`` — common counts, clamped rates, ``2q - 1`` terms and
        clamp flags for the worker/first-partner, worker/second-partner and
        partner/partner pairs, plus triple counts — gathered from the
        backend's batch-level caches.  ``worker`` may be a scalar id or an
        array aligned with the partner arrays (the cross-worker batch).
        Requires a vectorized backend.
        """
        rates, two_q, flags = self.backend.clamped_rate_data(clamp_margin)
        common = self.backend.common_counts_f64
        return (
            common[worker, partners_a],
            common[worker, partners_b],
            common[partners_a, partners_b],
            rates[worker, partners_a],
            rates[worker, partners_b],
            rates[partners_a, partners_b],
            two_q[worker, partners_a],
            two_q[worker, partners_b],
            two_q[partners_a, partners_b],
            flags[worker, partners_a],
            flags[worker, partners_b],
            flags[partners_a, partners_b],
            self.backend.triple_common_counts(
                worker, partners_a, partners_b
            ).astype(np.float64),
        )


def compute_agreement_statistics(
    matrix: ResponseMatrix,
    backend: str | AgreementBackendBase | None = "auto",
) -> AgreementStatistics:
    """Build an :class:`AgreementStatistics` cache for ``matrix``.

    ``backend`` selects the computation strategy: ``"dense"`` (vectorized
    NumPy fast path), ``"sparse"`` (scipy.sparse CSR), ``"bitset"``
    (packed-rows low-memory mode), ``"dict"`` (original lazy set
    intersections), or ``"auto"`` (cost-based selection over grid size and
    observed fill; see
    :func:`~repro.data.dense_backend.auto_backend_choice`).
    """
    return AgreementStatistics(matrix=matrix, backend=resolve_backend(matrix, backend))
