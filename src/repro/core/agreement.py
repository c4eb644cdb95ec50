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

Every vectorized backend serves the bulk reads behind ``batch_triples`` and
``batch_lemma4``, and every vectorized backend implements the shared-state
export protocol behind process sharding
(:meth:`~repro.data.dense_backend.AgreementBackendBase.export_shared_state`);
only the dict path — which has no arrays to chunk or export — falls back to
serial for every non-serial ``shards=`` spec:

============  =============  ============  =============  ==========  ====================  =========  ==========
backend       batch_triples  batch_lemma4  shared export  footprints  executor tiers        streaming  durability
============  =============  ============  =============  ==========  ====================  =========  ==========
``dict``      no (scalar)    no (scalar)   no             observer    serial only           yes        WAL replay
``dense``     yes            yes           yes            yes         thread + process      yes        snapshots
``sparse``    yes            yes           yes            yes         thread + process      yes        snapshots
``bitset``    yes            yes           yes            yes         thread + process      yes        snapshots
============  =============  ============  =============  ==========  ====================  =========  ==========

The same facts are exported machine-readably as
:data:`BACKEND_CAPABILITIES` (one :class:`BackendCapability` per backend),
which is what automated consumers enumerate instead of re-reading this
table.  The scenario gauntlet (:mod:`repro.evaluation.gauntlet`) is the
main such consumer: its measurement grid is
``scenario family x backend x estimator path``, where the estimator paths
per backend come from :func:`supported_estimator_paths` —

* ``"scalar"`` — the sequential per-triple / per-worker reference path
  (``batch_triples=False``, ``batch_lemma4=False``); every backend serves
  it (it is the only binary path the dict backend has, and the only path
  the k-ary Algorithm-A3 estimator has on any backend);
* ``"batched"`` — the vectorized triple stage plus grouped Lemma-4/5
  aggregation; requires the *batch_triples*/*batch_lemma4* columns above,
  so it exists on the vectorized backends only;
* ``"streamed"`` — responses applied incrementally (micro-batched
  ``apply_responses`` under :class:`~repro.serve.session.StreamSession`)
  and estimates served from the last batch boundary; every backend
  streams (the *streaming* column), dict included.

Coverage numbers across those cells are comparable because every gauntlet
cell goes through the shared accounting of
:mod:`repro.evaluation.coverage`: one degenerate-filtering predicate
(``usable_estimate``), with ``n_degenerate`` and skipped repetitions
surfaced per cell instead of silently dropped.  The gauntlet's
gap-detection pass recomputes the full grid from
:data:`~repro.simulation.gauntlet.GAUNTLET_FAMILIES` x
:data:`BACKEND_CAPABILITIES` and flags any (scenario, backend, path) cell
a report failed to plan — so adding a backend here (or a family there)
makes an untested combination loud, not invisible.

The *shared export* column is the ``supports_shared_export`` flag: the
backend can ship its precomputed state (packed planes, count matrices, vote
table, triple tensor where cached) through ``multiprocessing.shared_memory``
so process shards attach views instead of rebuilding.  The *executor tiers*
column lists which :mod:`repro.core.parallel` tiers can engage: the thread
tier needs only a vectorized backend (chunks share the parent's statistics
object, with every lazy cache pre-materialized), the process tier
additionally needs the shared export.  ``shards="auto"`` picks the tier
from the :func:`~repro.core.parallel.auto_shard_choice` cost model; see the
:class:`~repro.core.m_worker.MWorkerEstimator` determinism contract for the
size thresholds and serial-fallback guards.

The *footprints* column is the dependency protocol the incremental
evaluator consumes.  On the vectorized backends ``evaluate_worker_range``
*returns* a compact :class:`~repro.core.deps.WorkerFootprint` per worker
(pairing scan log + formed-partner support + touch-target flag — see
:mod:`repro.core.deps`) instead of invoking a per-read callback; footprints
ride the shard result channel, so dependency-tracked recomputes engage the
same executor tiers as any batch run.  The dict path records dependencies
through the legacy per-read ``observer`` (below), which must see every
scalar read and therefore forces serial execution — the one remaining
observer user besides the differential suite's ledger-equivalence
reference mode.

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
protocol ships between processes, restored through
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

An optional ``observer`` receives every pair key whose statistics are read.
This is the *legacy* dependency protocol: the incremental evaluator now
prefers the returned-footprint path of the capability matrix above
(vectorized, shard-composable) and attaches an observer only on the dict
backend or when ``dependency_tracking="observer"`` forces the reference
mode.  Every execution tier defers to serial while an observer is attached
(the recorder must see each read), which is exactly why the footprint
protocol replaced it on the fast paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.exceptions import DataValidationError, InsufficientDataError
from repro.data.dense_backend import AgreementBackendBase, resolve_backend
from repro.data.response_matrix import ResponseMatrix

__all__ = [
    "AgreementStatistics",
    "BACKEND_CAPABILITIES",
    "BackendCapability",
    "ESTIMATOR_PATHS",
    "StatisticsObserver",
    "TripleCovarianceInputs",
    "TripleStageInputs",
    "compute_agreement_statistics",
    "pair_key",
    "supported_estimator_paths",
]


@dataclass(frozen=True)
class BackendCapability:
    """Machine-readable row of the backend capability matrix above.

    Attributes mirror the documented columns: the batched bulk reads
    (*batch_triples*/*batch_lemma4*), the shared-memory export behind
    process sharding, the returned-footprint dependency protocol and the
    streaming delta-update protocol.  ``estimator_paths`` lists the
    binary estimator paths the backend serves (see the module docstring).
    """

    backend: str
    batch_triples: bool
    batch_lemma4: bool
    shared_export: bool
    footprints: bool
    streaming: bool

    @property
    def estimator_paths(self) -> tuple[str, ...]:
        """Binary estimator paths this backend serves, in canonical order."""
        paths = ["scalar"]
        if self.batch_triples and self.batch_lemma4:
            paths.append("batched")
        if self.streaming:
            paths.append("streamed")
        return tuple(paths)


#: The capability matrix, machine-readable.  Keep in lockstep with the
#: documented table above and the differential suite's path tables; the
#: gauntlet's gap detection enumerates this to demand a measurement cell
#: for every licensed combination.
BACKEND_CAPABILITIES: dict[str, BackendCapability] = {
    "dict": BackendCapability(
        backend="dict",
        batch_triples=False,
        batch_lemma4=False,
        shared_export=False,
        footprints=False,
        streaming=True,
    ),
    "dense": BackendCapability(
        backend="dense",
        batch_triples=True,
        batch_lemma4=True,
        shared_export=True,
        footprints=True,
        streaming=True,
    ),
    "sparse": BackendCapability(
        backend="sparse",
        batch_triples=True,
        batch_lemma4=True,
        shared_export=True,
        footprints=True,
        streaming=True,
    ),
    "bitset": BackendCapability(
        backend="bitset",
        batch_triples=True,
        batch_lemma4=True,
        shared_export=True,
        footprints=True,
        streaming=True,
    ),
}

#: Canonical estimator-path order for grids and reports.
ESTIMATOR_PATHS: tuple[str, ...] = ("scalar", "batched", "streamed")


def supported_estimator_paths(backend: str, kind: str = "binary") -> tuple[str, ...]:
    """Estimator paths the capability matrix licenses for ``backend``.

    ``kind`` is the scenario/estimator family: ``"binary"`` (the m-worker
    estimator, whose batched and streamed paths exist where the matrix says
    so) or ``"kary"`` (Algorithm A3 evaluates one triple scalarly on every
    backend — no batch stage, no incremental path).
    """
    if backend not in BACKEND_CAPABILITIES:
        raise DataValidationError(
            f"unknown backend {backend!r}; expected one of "
            f"{sorted(BACKEND_CAPABILITIES)}"
        )
    if kind == "kary":
        return ("scalar",)
    if kind != "binary":
        raise DataValidationError(
            f"unknown estimator kind {kind!r}; expected 'binary' or 'kary'"
        )
    return BACKEND_CAPABILITIES[backend].estimator_paths


def pair_key(a: int, b: int) -> tuple[int, int]:
    """Canonical (sorted) dictionary key for an unordered worker pair.

    This is the key convention used for observer notifications; consumers
    that index dependencies by pair (the incremental evaluator) must use the
    same helper.
    """
    return (a, b) if a < b else (b, a)


_pair_key = pair_key


def _triple_key(a: int, b: int, c: int) -> tuple[int, int, int]:
    return tuple(sorted((a, b, c)))  # type: ignore[return-value]


class StatisticsObserver(Protocol):
    """Receiver for statistics-dependency notifications.

    ``note_pair`` fires for every pair whose counts/rates are read (a triple
    read fires it for all three of its pairs).  ``note_bulk`` fires when a
    vectorized bulk read touches every pair and triple among
    ``{worker} | partners`` at once.
    """

    def note_pair(self, key: tuple[int, int]) -> None: ...

    def note_bulk(self, worker: int, partners: np.ndarray) -> None: ...


@dataclass(frozen=True)
class TripleCovarianceInputs:
    """Bulk statistics feeding the vectorized Lemma-4 covariance assembly.

    All arrays are indexed by position in the ``partners`` sequence the
    inputs were requested for.

    Attributes
    ----------
    common_with_worker:
        ``c_{i, x}`` for each partner ``x`` (float64, exact integers).
    partner_common:
        ``c_{x, y}`` for each partner pair.
    partner_agreements:
        Agreement counts for each partner pair.
    triple_counts:
        ``c_{i, x, y}`` for each partner pair.
    """

    common_with_worker: np.ndarray
    partner_common: np.ndarray
    partner_agreements: np.ndarray
    triple_counts: np.ndarray


@dataclass(frozen=True)
class TripleStageInputs:
    """Bulk statistics feeding the batched per-triple evaluation stage.

    All arrays are aligned with the requested triple list: index ``t``
    describes the triple ``(worker, partners_a[t], partners_b[t])``.  Counts
    are float64 arrays holding exact integers (see the dense-backend module
    docstring for why the conversion is lossless).

    Attributes
    ----------
    common_wa, agree_wa:
        ``c_{i,a}`` and agreement counts for the worker/first-partner pairs.
    common_wb, agree_wb:
        The same for the worker/second-partner pairs.
    common_ab, agree_ab:
        The same for the partner/partner pairs.
    triple_counts:
        ``c_{i,a,b}`` per triple.
    """

    common_wa: np.ndarray
    agree_wa: np.ndarray
    common_wb: np.ndarray
    agree_wb: np.ndarray
    common_ab: np.ndarray
    agree_ab: np.ndarray
    triple_counts: np.ndarray


@dataclass
class AgreementStatistics:
    """Cached agreement rates and co-attempt counts for one response matrix.

    With no ``backend`` the cache is lazy: a pair or triple is computed the
    first time it is requested and memoized afterwards.  With a dense
    backend, lookups read straight from the precomputed count matrices (no
    per-pair memoization is needed, and the arrays stay authoritative when
    the backend is delta-updated by the incremental evaluator).
    """

    #: May be None only when a vectorized backend is supplied: every
    #: statistics read is then served from the backend arrays and the sparse
    #: store is never touched (shard worker processes rely on this to avoid
    #: shipping the response matrix).
    matrix: ResponseMatrix | None
    backend: AgreementBackendBase | None = field(default=None, repr=False)
    observer: StatisticsObserver | None = field(default=None, repr=False)
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
        if self.observer is not None:
            self.observer.note_pair(key)
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
        if self.observer is not None:
            # A triple count can only change when one of its pairs changes,
            # so pair-level dependencies capture triple reads too.
            self.observer.note_pair((key[0], key[1]))
            self.observer.note_pair((key[0], key[2]))
            self.observer.note_pair((key[1], key[2]))
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

    def triple_covariance_inputs(
        self, worker: int, partners: np.ndarray, fast_counts: bool = False
    ) -> TripleCovarianceInputs:
        """Bulk counts for the Lemma-4 covariance over ``worker``'s partners.

        One masked (or fill-restricted) matrix product yields every triple
        count ``c_{worker, x, y}``; the pair matrices are sliced from the
        precomputed backend arrays.  Requires a vectorized backend (any
        :class:`~repro.data.dense_backend.AgreementBackendBase`).
        ``fast_counts`` opts into the float32 exact-count product for the
        triple grid (identical values; see
        :meth:`DenseAgreementBackend.triple_count_matrix`; the sparse and
        bitset backends ignore the flag — their grids are already the
        cheap form).
        """
        if self.backend is None:
            raise DataValidationError(
                "triple_covariance_inputs requires a vectorized backend; "
                "use AgreementStatistics.precompute"
            )
        if self.observer is not None:
            self.observer.note_bulk(worker, partners)
        common = self.backend.common_counts
        agree = self.backend.agreement_counts
        return TripleCovarianceInputs(
            common_with_worker=common[worker, partners].astype(np.float64),
            partner_common=common[np.ix_(partners, partners)].astype(np.float64),
            partner_agreements=agree[np.ix_(partners, partners)].astype(np.float64),
            triple_counts=self.backend.triple_count_matrix(
                worker, partners, fast=fast_counts
            ),
        )

    def lemma4_inputs(
        self, worker: int, partners: np.ndarray, clamp_margin: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Pre-clamped bulk inputs for the Lemma-4 assembly, or None.

        Returns ``(common_with_worker, partner_2q_minus_1, triple_counts)``
        — the Lemma-4 term grid only ever consumes the partner rates through
        ``2 q - 1``, so that matrix is gathered pre-computed from the
        backend's batch-level cache.  ``None`` when the fast form is
        unavailable (no dense backend, or an observer needs per-read
        dependency records) — callers then fall back to
        :meth:`triple_covariance_inputs`.  Values are identical either way.
        """
        if self.backend is None or self.observer is not None:
            return None
        _, two_q_minus_1, _ = self.backend.clamped_rate_data(clamp_margin)
        return (
            self.backend.common_counts_f64[worker, partners],
            two_q_minus_1[np.ix_(partners, partners)],
            self.backend.triple_count_matrix(worker, partners, fast=True),
        )

    def lemma4_group_inputs(
        self, clamp_margin: float
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Whole-matrix inputs for the grouped Lemma-4 aggregation, or None.

        Returns ``(common_counts_f64, partner_2q_minus_1)`` — the full
        ``(m, m)`` pair-count and pre-clamped ``2q - 1`` matrices the
        grouped fast path slices per worker (triple counts come from
        :meth:`DenseAgreementBackend.triple_count_grid_full`).  ``None``
        under the same conditions as :meth:`lemma4_inputs` (no dense
        backend, or an observer needs per-read dependency records).
        """
        if self.backend is None or self.observer is not None:
            return None
        _, two_q_minus_1, _ = self.backend.clamped_rate_data(clamp_margin)
        return (self.backend.common_counts_f64, two_q_minus_1)

    def triple_stage_inputs_fast(
        self,
        worker: int | np.ndarray,
        partners_a: np.ndarray,
        partners_b: np.ndarray,
        clamp_margin: float,
    ) -> tuple[np.ndarray, ...] | None:
        """Pre-clamped per-triple vectors for the batched triple stage.

        Returns ``(c_1, c_2, c_3, q_1, q_2, q_3, t_1, t_2, t_3, cl_1, cl_2,
        cl_3, c_t)`` — common counts, clamped rates, ``2q - 1`` terms and
        clamp flags for the worker/first-partner, worker/second-partner and
        partner/partner pairs, plus triple counts — gathered from the
        backend's batch-level caches.  ``worker`` may be a scalar id or an
        array aligned with the partner arrays (the cross-worker batch).
        ``None`` when unavailable (no dense backend, or an observer needs
        per-read records); callers fall back to
        :meth:`triple_stage_inputs` and compute the same values inline.
        """
        if self.backend is None or self.observer is not None:
            return None
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

    def triple_stage_inputs(
        self, worker: int, partners_a: np.ndarray, partners_b: np.ndarray
    ) -> TripleStageInputs:
        """Bulk counts for evaluating ``worker`` inside a batch of triples.

        Pair counts are sliced straight from the backend's precomputed
        matrices and the triple counts come from one vectorized
        bitset-popcount pass.  Requires a vectorized backend (any
        :class:`~repro.data.dense_backend.AgreementBackendBase`).  The
        observer is notified with the union of touched workers (a superset
        of the pairs the scalar loop would record — conservative, never
        stale).
        """
        if self.backend is None:
            raise DataValidationError(
                "triple_stage_inputs requires a vectorized backend; "
                "use AgreementStatistics.precompute"
            )
        if self.observer is not None:
            self.observer.note_bulk(
                worker, np.concatenate([partners_a, partners_b])
            )
        common = self.backend.common_counts
        agree = self.backend.agreement_counts
        return TripleStageInputs(
            common_wa=common[worker, partners_a].astype(np.float64),
            agree_wa=agree[worker, partners_a].astype(np.float64),
            common_wb=common[worker, partners_b].astype(np.float64),
            agree_wb=agree[worker, partners_b].astype(np.float64),
            common_ab=common[partners_a, partners_b].astype(np.float64),
            agree_ab=agree[partners_a, partners_b].astype(np.float64),
            triple_counts=self.backend.triple_common_counts(
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
