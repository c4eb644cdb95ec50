"""Cross-backend differential suite: every fast path must be bit-identical.

The library promises that its performance knobs never change results: the
``backend=`` choice (dict-of-dicts vs dense NumPy vs scipy.sparse CSR vs
packed-bitset low-memory), the batched per-triple stage
(``batch_triples=``), the grouped Lemma-4/5 aggregation (``batch_lemma4=``)
and the execution tiers behind ``shards=`` (process sharding over shared
memory, the thread tier, the ``"auto"`` cost model) are throughput features
only.  This suite enforces the promise end to end — every public entry
point is run under every applicable execution path (dict / dense-scalar /
dense-batched / batched-lemma4 / thread-tier / process-sharded over each
exportable backend / sparse / bitset) on randomized regular and
non-regular matrices, and the produced intervals, weights and statuses are
compared for *exact* floating-point equality against the original
dict-of-dicts reference.

Any future fast path should be added to :data:`EVALUATE_ALL_PATHS` and
:data:`TRIPLE_SCOPED_BACKENDS` (or the entry-point-specific lists below)
to inherit the same lockdown.  The suite also pins the composition
contracts: every vectorized backend — dense, sparse *and* bitset — shards
through the shared-state export protocol, only the dict path (no backend)
falls back to serial for ``shards=``, and a ``backend="sparse"`` request
degrades to a scipy-free backend with identical results when scipy is
absent.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.data.sparse_backend as sparse_backend_module
from repro.core.estimator import WorkerEvaluator
from repro.core.incremental import IncrementalEvaluator
from repro.core.kary import KaryEstimator
from repro.core.m_worker import MWorkerEstimator
from repro.core.spammer_filter import filter_spammers
from repro.core.three_worker import evaluate_three_workers
from repro.data.response_matrix import ResponseMatrix

# --------------------------------------------------------------------------- #
# Matrix generators
# --------------------------------------------------------------------------- #


def random_matrix(
    seed: int,
    n_workers: int,
    n_tasks: int,
    arity: int = 2,
    regular: bool = False,
    spammers: int = 0,
) -> ResponseMatrix:
    """Randomized response matrix with controllable regularity.

    Regular data: every worker answers every task.  Non-regular data: each
    worker answers a random subset (with densities drawn per worker, so
    overlaps vary widely).  ``spammers`` workers answer uniformly at random
    regardless of the planted truth.
    """
    rng = np.random.default_rng(seed)
    matrix = ResponseMatrix(n_workers=n_workers, n_tasks=n_tasks, arity=arity)
    truth = rng.integers(0, arity, size=n_tasks)
    error_rates = rng.uniform(0.05, 0.35, size=n_workers)
    densities = (
        np.ones(n_workers)
        if regular
        else rng.uniform(0.35, 0.95, size=n_workers)
    )
    for worker in range(n_workers):
        attempted = rng.random(n_tasks) < densities[worker]
        for task in np.nonzero(attempted)[0]:
            task = int(task)
            if worker < spammers:
                label = int(rng.integers(0, arity))
            elif rng.random() < error_rates[worker]:
                label = int((truth[task] + 1 + rng.integers(0, arity - 1)) % arity)
            else:
                label = int(truth[task])
            matrix.add_response(worker, task, label)
    return matrix


MATRIX_CASES = [
    # (seed, n_workers, n_tasks, regular)
    (101, 8, 60, True),
    (102, 11, 45, True),
    (103, 9, 70, False),
    (104, 14, 40, False),
    (105, 7, 90, False),
]

# --------------------------------------------------------------------------- #
# Execution paths and equality helpers
# --------------------------------------------------------------------------- #

#: Execution paths for binary batch evaluation.  "dict" is the reference the
#: others are compared against.
EVALUATE_ALL_PATHS: dict[str, dict] = {
    "dict": {"backend": "dict"},
    "dense-scalar": {
        "backend": "dense", "batch_triples": False, "batch_lemma4": False,
    },
    "dense-batched": {
        "backend": "dense", "batch_triples": True, "batch_lemma4": False,
    },
    "batched-lemma4": {
        "backend": "dense", "batch_triples": True, "batch_lemma4": True,
    },
    "sharded": {
        "backend": "dense",
        "batch_triples": True,
        "batch_lemma4": True,
        "shards": 2,
    },
    "thread-tier": {
        "backend": "dense",
        "batch_triples": True,
        "batch_lemma4": True,
        "shards": "thread:2",
    },
    "sparse": {
        "backend": "sparse", "batch_triples": True, "batch_lemma4": True,
    },
    "bitset": {
        "backend": "bitset", "batch_triples": True, "batch_lemma4": True,
    },
    "sparse-sharded": {
        "backend": "sparse",
        "batch_triples": True,
        "batch_lemma4": True,
        "shards": 2,
    },
    "bitset-sharded": {
        "backend": "bitset",
        "batch_triples": True,
        "batch_lemma4": True,
        "shards": 2,
    },
}

#: The process-pool columns are slow to spin up; the grid test exercises
#: them on a subset of cases (the in-process columns run everywhere).
PROCESS_POOL_PATHS = frozenset({"sharded", "sparse-sharded", "bitset-sharded"})

#: Backends exercised on the triple-scoped entry points (Algorithm A1/A3,
#: the spammer filter, incremental evaluation); "dict" is the reference.
TRIPLE_SCOPED_BACKENDS = ["dense", "sparse", "bitset"]


def assert_estimates_bit_identical(reference, candidate, path: str) -> None:
    assert candidate.worker == reference.worker, path
    assert candidate.n_tasks == reference.n_tasks, path
    assert candidate.interval.mean == reference.interval.mean, path
    assert candidate.interval.lower == reference.interval.lower, path
    assert candidate.interval.upper == reference.interval.upper, path
    assert candidate.interval.deviation == reference.interval.deviation, path
    assert candidate.weights == reference.weights, path
    assert candidate.status is reference.status, path
    assert len(candidate.triples) == len(reference.triples), path
    for triple_a, triple_b in zip(reference.triples, candidate.triples):
        assert triple_b.partners == triple_a.partners, path
        assert triple_b.error_rate == triple_a.error_rate, path
        assert triple_b.deviation == triple_a.deviation, path
        assert triple_b.derivatives == triple_a.derivatives, path
        assert triple_b.status is triple_a.status, path


# --------------------------------------------------------------------------- #
# evaluate_all under every path
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("seed,m,n,regular", MATRIX_CASES)
@pytest.mark.parametrize("optimize_weights", [True, False])
def test_evaluate_all_paths_bit_identical(seed, m, n, regular, optimize_weights):
    matrix = random_matrix(seed, m, n, regular=regular)
    reference = MWorkerEstimator(
        confidence=0.9, optimize_weights=optimize_weights, **EVALUATE_ALL_PATHS["dict"]
    ).evaluate_all(matrix)
    # The process-pool paths are slow to spin up (the executor's cached
    # pool amortizes the spawn, but each call still pays the export);
    # exercise them on a subset of the grid (one regular and one
    # non-regular matrix) and the in-process paths everywhere.
    shard_this_case = optimize_weights and seed in (101, 104)
    for path, config in EVALUATE_ALL_PATHS.items():
        if path == "dict" or (path in PROCESS_POOL_PATHS and not shard_this_case):
            continue
        candidate = MWorkerEstimator(
            confidence=0.9, optimize_weights=optimize_weights, **config
        ).evaluate_all(matrix)
        assert len(candidate) == len(reference) == m, path
        for ref, cand in zip(reference, candidate):
            assert_estimates_bit_identical(ref, cand, path)


def test_evaluate_all_sparse_degenerate_paths_bit_identical():
    """Workers with 0/1 usable partners and empty rows across all paths."""
    matrix = random_matrix(106, 10, 30, regular=False)
    # Add a silent worker and a worker overlapping almost nobody.
    sparse = ResponseMatrix(n_workers=12, n_tasks=31, arity=2)
    for worker, task, label in matrix.iter_responses():
        sparse.add_response(worker, task, label)
    sparse.add_response(10, 30, 1)  # answers only a task nobody else did
    reference = MWorkerEstimator(confidence=0.85, backend="dict").evaluate_all(sparse)
    for path, config in EVALUATE_ALL_PATHS.items():
        if path == "dict":
            continue
        candidate = MWorkerEstimator(confidence=0.85, **config).evaluate_all(sparse)
        for ref, cand in zip(reference, candidate):
            assert_estimates_bit_identical(ref, cand, path)


# --------------------------------------------------------------------------- #
# WorkerEvaluator.evaluate_binary (the library facade, with/without the
# spammer filter in front)
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", TRIPLE_SCOPED_BACKENDS)
@pytest.mark.parametrize("remove_spammers", [False, True])
def test_evaluate_binary_paths_bit_identical(backend, remove_spammers):
    matrix = random_matrix(303, 10, 50, regular=False, spammers=3)
    reference = WorkerEvaluator(
        confidence=0.9, backend="dict", remove_spammers=remove_spammers
    ).evaluate_binary(matrix)
    candidate = WorkerEvaluator(
        confidence=0.9, backend=backend, remove_spammers=remove_spammers
    ).evaluate_binary(matrix)
    assert set(candidate) == set(reference), backend
    for worker, ref in reference.items():
        assert_estimates_bit_identical(ref, candidate[worker], backend)


# --------------------------------------------------------------------------- #
# evaluate_three_workers (Algorithm A1)
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", TRIPLE_SCOPED_BACKENDS)
@pytest.mark.parametrize("seed,regular", [(201, True), (202, False), (203, False)])
def test_three_worker_paths_bit_identical(seed, regular, backend):
    matrix = random_matrix(seed, 3, 80, regular=regular)
    reference = evaluate_three_workers(matrix, confidence=0.9, backend="dict")
    candidate = evaluate_three_workers(matrix, confidence=0.9, backend=backend)
    for ref, cand in zip(reference, candidate):
        assert_estimates_bit_identical(ref, cand, backend)


# --------------------------------------------------------------------------- #
# filter_spammers
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("shards", [1, "thread:3", 4])
@pytest.mark.parametrize("backend", TRIPLE_SCOPED_BACKENDS)
@pytest.mark.parametrize("seed,regular", [(301, True), (302, False)])
def test_filter_spammers_paths_identical(seed, regular, backend, shards):
    # Every shards spec (including the process grammar, which the filter
    # documents as running thread-chunked) must reproduce the serial dict
    # reference exactly on every backend.
    matrix = random_matrix(seed, 10, 50, regular=regular, spammers=3)
    reference = filter_spammers(matrix, backend="dict")
    candidate = filter_spammers(matrix, backend=backend, shards=shards)
    assert candidate.kept_workers == reference.kept_workers
    assert candidate.removed_workers == reference.removed_workers
    assert candidate.approximate_error_rates == reference.approximate_error_rates
    assert candidate.filtered == reference.filtered


# --------------------------------------------------------------------------- #
# k-ary estimation (Algorithm A3)
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("shards", [1, "auto", 2])
@pytest.mark.parametrize("backend", TRIPLE_SCOPED_BACKENDS)
@pytest.mark.parametrize("seed,arity,regular", [(401, 3, True), (402, 4, False)])
def test_kary_paths_bit_identical(seed, arity, regular, backend, shards):
    # The k-ary estimator accepts every shards spec and always evaluates
    # serially (one triple, no worker loop) — results must be unaffected.
    matrix = random_matrix(seed, 5, 150, arity=arity, regular=regular)
    reference = KaryEstimator(confidence=0.9, backend="dict").evaluate(
        matrix, workers=(0, 1, 2)
    )
    candidate = KaryEstimator(
        confidence=0.9, backend=backend, shards=shards
    ).evaluate(matrix, workers=(0, 1, 2))
    for ref, cand in zip(reference, candidate):
        assert cand.worker == ref.worker
        assert cand.status is ref.status
        assert set(cand.entries) == set(ref.entries)
        for key, entry in ref.entries.items():
            other = cand.entries[key]
            assert other.interval.mean == entry.interval.mean
            assert other.interval.lower == entry.interval.lower
            assert other.interval.upper == entry.interval.upper
            assert other.interval.deviation == entry.interval.deviation


# --------------------------------------------------------------------------- #
# Incremental evaluation
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["dict", "dense", "sparse", "bitset"])
@pytest.mark.parametrize("seed,regular", [(501, True), (502, False)])
def test_incremental_matches_dict_reference(backend, seed, regular):
    """Streamed estimates equal the dict-backend batch reference exactly.

    This pins two properties at once: the incremental evaluator equals a
    fresh batch run over the accumulated data, and that batch run is itself
    backend-independent (the dense incremental path goes through the batched
    triple stage).
    """
    matrix = random_matrix(seed, 8, 45, regular=regular)
    incremental = IncrementalEvaluator(
        matrix.n_workers, matrix.n_tasks, confidence=0.9, backend=backend
    )
    records = list(matrix.iter_responses())
    split = len(records) // 2
    incremental.add_responses(records[:split])
    incremental.estimate_all()  # warm the cache mid-stream
    incremental.add_responses(records[split:])
    streamed = incremental.estimate_all()
    reference = MWorkerEstimator(confidence=0.9, backend="dict").evaluate_all(matrix)
    for ref in reference:
        if ref.n_tasks == 0:
            assert ref.worker not in streamed
            continue
        assert_estimates_bit_identical(ref, streamed[ref.worker], backend)


# --------------------------------------------------------------------------- #
# Streamed column: random micro-batch interleavings through StreamSession
# --------------------------------------------------------------------------- #

#: Backends of the ``streamed`` column; every one must serve estimates
#: bit-identical to the dict-backend batch reference after ANY chopping of
#: the stream into micro-batches (the streaming determinism contract of
#: :mod:`repro.serve`).
STREAMED_BACKENDS = ["dict", "dense", "sparse", "bitset"]


@pytest.mark.parametrize("seed", range(25))
def test_streamed_microbatch_interleavings_bit_identical(seed):
    """25-seed fuzz of the streaming path: shuffled response streams with
    label revisions, chopped into random micro-batches by the session's
    coalescing queue, with cache-warming reads interleaved at random
    points, on all four backends — the final estimates must equal a
    from-scratch batch build over the accumulated matrix, bit for bit."""
    import asyncio

    from repro.serve import SessionConfig, open_session

    rng = np.random.default_rng(9000 + seed)
    m = int(rng.integers(6, 10))
    n = int(rng.integers(25, 45))
    matrix = random_matrix(seed, m, n, regular=bool(seed % 3 == 0))
    records = list(matrix.iter_responses())
    rng.shuffle(records)
    # Revisions: re-submit a handful of cells with flipped labels mid-stream
    # (the accumulated matrix keeps the last write, like the reference).
    revisions = [
        (worker, task, 1 - label)
        for worker, task, label in rng.permutation(records)[:4].tolist()
    ]
    insert_at = sorted(
        int(position) for position in rng.integers(0, len(records), size=4)
    )
    for position, revision in zip(insert_at, reversed(revisions)):
        records.insert(position, tuple(revision))
    read_points = set(
        int(position) for position in rng.integers(0, len(records), size=2)
    )
    max_batch = int(rng.integers(1, 24))

    async def stream(backend):
        config = SessionConfig(backend=backend, max_batch=max_batch)
        async with open_session(config) as session:
            for index, record in enumerate(records):
                await session.submit(*record)
                if index in read_points:
                    await session.evaluate_all()  # warm caches mid-stream
            await session.flush()
            return await session.evaluate_all(), session.evaluator.matrix.copy()

    results = {
        backend: asyncio.run(stream(backend)) for backend in STREAMED_BACKENDS
    }
    accumulated = results["dict"][1]
    reference = {
        estimate.worker: estimate
        for estimate in MWorkerEstimator(
            confidence=0.95, backend="dict"
        ).evaluate_all(accumulated)
        if estimate.n_tasks > 0
    }
    for backend, (streamed, matrix_copy) in results.items():
        assert matrix_copy == accumulated, backend
        assert set(streamed) == set(reference), backend
        for worker, ref in reference.items():
            assert_estimates_bit_identical(
                ref, streamed[worker], f"streamed-{backend}"
            )


# --------------------------------------------------------------------------- #
# Streamed-sharded column: sharded incremental recomputes under live streams
# --------------------------------------------------------------------------- #

#: Backends of the ``streamed-sharded`` column.  The vectorized three run
#: their incremental recomputes through the execution tiers (dependency
#: footprints ship back per shard); "dict" rides along to pin the documented
#: observer fallback under a non-serial ``shards=`` spec.
STREAMED_SHARDED_BACKENDS = ["dict", "dense", "sparse", "bitset"]


@pytest.mark.parametrize("seed", range(25))
def test_streamed_sharded_sessions_bit_identical(seed):
    """25-seed fuzz of the sharded streaming path: shuffled streams with
    label revisions and mid-stream evaluations, served by sessions whose
    incremental recomputes run under ``shards="thread:2"`` (and
    ``"process:2"`` on a seed subset), on all four backends — estimates
    must equal the from-scratch dict batch build bit for bit.  A second
    leg replays the same stream with deterministic chopping through a
    ledger-mode and an observer-mode evaluator side by side and asserts
    the dependency ledger makes *identical invalidation decisions* to the
    legacy per-read observer, batch by batch."""
    import asyncio

    from repro.serve import SessionConfig, open_session

    rng = np.random.default_rng(17000 + seed)
    m = int(rng.integers(6, 10))
    n = int(rng.integers(25, 45))
    matrix = random_matrix(seed, m, n, regular=bool(seed % 3 == 0))
    records = list(matrix.iter_responses())
    rng.shuffle(records)
    revisions = [
        (worker, task, 1 - label)
        for worker, task, label in rng.permutation(records)[:4].tolist()
    ]
    insert_at = sorted(
        int(position) for position in rng.integers(0, len(records), size=4)
    )
    for position, revision in zip(insert_at, reversed(revisions)):
        records.insert(position, tuple(revision))
    read_points = set(
        int(position) for position in rng.integers(0, len(records), size=2)
    )
    max_batch = int(rng.integers(1, 24))
    # The process pool is slow to spin up; exercise the process tier on a
    # seed subset and the thread tier everywhere.
    shards = "process:2" if seed % 8 == 3 else "thread:2"

    async def stream(backend):
        config = SessionConfig(backend=backend, max_batch=max_batch, shards=shards)
        async with open_session(config) as session:
            for index, record in enumerate(records):
                await session.submit(*record)
                if index in read_points:
                    await session.evaluate_all()  # sharded recompute mid-stream
            await session.flush()
            return await session.evaluate_all(), session.evaluator.matrix.copy()

    results = {
        backend: asyncio.run(stream(backend))
        for backend in STREAMED_SHARDED_BACKENDS
    }
    accumulated = results["dict"][1]
    reference = {
        estimate.worker: estimate
        for estimate in MWorkerEstimator(
            confidence=0.95, backend="dict"
        ).evaluate_all(accumulated)
        if estimate.n_tasks > 0
    }
    for backend, (streamed, matrix_copy) in results.items():
        assert matrix_copy == accumulated, backend
        assert set(streamed) == set(reference), backend
        for worker, ref in reference.items():
            assert_estimates_bit_identical(
                ref, streamed[worker], f"streamed-sharded-{backend}"
            )

    # Ledger-equivalence leg: identical invalidation decisions, per batch.
    # Both evaluators start at the minimal dimensions and grow with the
    # stream, so the equivalence also covers worker/task growth (where the
    # endpoint rule is what keeps a pre-growth cache from going stale).
    ledger_mode = IncrementalEvaluator(
        3, 1, confidence=0.95, backend="dense", shards=shards
    )
    observer_mode = IncrementalEvaluator(
        3, 1, confidence=0.95, backend="dense",
        dependency_tracking="observer",
    )
    assert ledger_mode._use_ledger() and not observer_mode._use_ledger()
    for index, start in enumerate(range(0, len(records), max_batch)):
        batch = records[start : start + max_batch]
        ledger_stats = ledger_mode.apply_batch(batch)
        observer_stats = observer_mode.apply_batch(batch)
        assert ledger_stats.invalidated == observer_stats.invalidated, (
            f"seed {seed} batch {index}: ledger invalidation diverged from "
            "the observer reference"
        )
        assert (
            ledger_stats.cached_invalidated
            == observer_stats.cached_invalidated
        ), f"seed {seed} batch {index}"
        if index % 3 == seed % 3:  # warm both caches at the same boundaries
            via_ledger = ledger_mode.estimate_all()
            via_observer = observer_mode.estimate_all()
            assert set(via_ledger) == set(via_observer)
            for worker, estimate in via_observer.items():
                assert_estimates_bit_identical(
                    estimate, via_ledger[worker], "ledger-equivalence"
                )


# --------------------------------------------------------------------------- #
# Resumed column: kill/resume fuzz through the durable session layer
# --------------------------------------------------------------------------- #

#: Backends of the ``resumed`` column — the resume determinism contract of
#: :mod:`repro.serve.durable`: a session killed at an arbitrary point and
#: resumed from its WAL + snapshots must serve estimates bit-identical to
#: one that was never interrupted (== the dict batch reference, via the
#: streamed column's own lockdown).
RESUMED_BACKENDS = ["dict", "dense", "sparse", "bitset"]


@pytest.mark.parametrize("seed", range(25))
def test_resumed_sessions_bit_identical(seed, tmp_path):
    """25-seed kill/resume fuzz: a durable session is aborted at a random
    cut point (simulating SIGKILL), its on-disk state optionally mangled
    the way a crash would (WAL tail truncated mid-append, newest snapshot
    corrupted mid-write), resumed, and fed the rest of the stream — the
    final estimates, spammer scores and accumulated matrix must equal the
    uninterrupted reference bit for bit, on all four backends, across
    snapshot cadences including pure WAL replay."""
    import asyncio

    from repro.serve import SessionConfig, open_session

    rng = np.random.default_rng(13000 + seed)
    m = int(rng.integers(6, 10))
    n = int(rng.integers(25, 45))
    matrix = random_matrix(seed, m, n, regular=bool(seed % 3 == 0))
    records = list(matrix.iter_responses())
    rng.shuffle(records)
    # Label revisions land on both sides of the kill point: last write must
    # win across the crash exactly as it does within one process.
    revisions = [
        (worker, task, 1 - label)
        for worker, task, label in rng.permutation(records)[:4].tolist()
    ]
    insert_at = sorted(
        int(position) for position in rng.integers(0, len(records), size=4)
    )
    for position, revision in zip(insert_at, reversed(revisions)):
        records.insert(position, tuple(revision))
    max_batch = int(rng.integers(1, 24))
    cut = int(rng.integers(1, len(records)))
    snapshot_every = [None, 1, 2, 3, 5][seed % 5]
    corruption = seed % 3  # 0: clean kill, 1: torn WAL tail, 2: torn snapshot

    async def crash_then_resume(backend, directory):
        config = SessionConfig(
            backend=backend,
            max_batch=max_batch,
            durable=directory,
            snapshot_every=snapshot_every,
            fsync=False,
        )
        session = open_session(config)
        session.start()
        for record in records[:cut]:
            await session.submit(*record)
        await session.flush()
        await session.abort()  # no final snapshot, applier cancelled
        if corruption == 1:
            # Mid-append kill: the last WAL record loses its tail bytes.
            wal = session.durable.wal_path
            data = wal.read_bytes()
            wal.write_bytes(data[: len(data) - int(rng.integers(1, 31))])
        elif corruption == 2:
            # Mid-snapshot kill / torn storage: flip a byte in the newest
            # snapshot — resume must fall back to an older one or pure WAL.
            snapshots = session.durable.snapshot_paths()
            if snapshots:
                data = bytearray(snapshots[0].read_bytes())
                data[int(rng.integers(0, len(data)))] ^= 0xFF
                snapshots[0].write_bytes(bytes(data))
        resumed = open_session(config)
        # Sequence numbers are positional, so applied_events says exactly
        # which prefix of the stream survived; feed the rest.
        assert resumed.applied_events <= len(records)
        async with resumed:
            for record in records[resumed.applied_events :]:
                await resumed.submit(*record)
            await resumed.flush()
            estimates = await resumed.evaluate_all()
            scores = await resumed.spammer_scores()
            return estimates, scores, resumed.evaluator.matrix.copy()

    results = {
        backend: asyncio.run(
            crash_then_resume(backend, tmp_path / backend)
        )
        for backend in RESUMED_BACKENDS
    }
    accumulated = results["dict"][2]
    reference = {
        estimate.worker: estimate
        for estimate in MWorkerEstimator(
            confidence=0.95, backend="dict"
        ).evaluate_all(accumulated)
        if estimate.n_tasks > 0
    }
    reference_scores = results["dict"][1]
    for backend, (resumed, scores, matrix_copy) in results.items():
        assert matrix_copy == accumulated, backend
        assert set(resumed) == set(reference), backend
        for worker, ref in reference.items():
            assert_estimates_bit_identical(
                ref, resumed[worker], f"resumed-{backend}"
            )
        assert scores == reference_scores, backend


# --------------------------------------------------------------------------- #
# Legacy-layout column: resume of committed multi-writer segment directories
# --------------------------------------------------------------------------- #

#: Backends of the ``legacy-layout`` column — directories written by the
#: multi-writer sessions of older releases (per-partition WAL segments,
#: committed under ``tests/fixtures/legacy_layout``) must resume, keep
#: ingesting into the single WAL and resume again bit-identical to the dict
#: batch build, on every backend.
LEGACY_LAYOUT_BACKENDS = ["dict", "dense", "sparse", "bitset"]


@pytest.mark.parametrize("snapshot_every", [None, 3])
@pytest.mark.parametrize("fixture_name", ["snapshotted", "wal_only"])
def test_legacy_layout_resumed_sessions_bit_identical(
    fixture_name, snapshot_every, legacy_layout, tmp_path
):
    """Each committed legacy directory — one with snapshots and a torn
    segment tail, one pure segments — is resumed on every backend (the
    k-way segment merge, or the legacy snapshot plus the segment delta),
    fed the rest of its stream into ``wal.ndjson``, aborted without a final
    snapshot and resumed again (now over segments + WAL, or a single-WAL
    snapshot that skips the segments).  Both results must equal the dict
    batch build over the surviving events plus the rest, bit for bit."""
    import asyncio

    from repro.serve import SessionConfig, open_session

    def run_backend(backend):
        fixture = legacy_layout(fixture_name, tmp_path / backend)
        config = SessionConfig(
            backend=backend,
            durable=fixture.directory,
            snapshot_every=snapshot_every,
            max_batch=7,
            fsync=False,
        )
        rest = fixture.stream[fixture.submitted :]

        async def resume_ingest_abort_resume():
            session = open_session(config)
            assert session.applied_events == len(fixture.survived)
            session.start()
            for event in rest:
                await session.submit(*event)
            await session.flush()
            first = await session.evaluate_all()
            await session.abort()
            resumed = open_session(config)
            assert resumed.applied_events == len(fixture.survived) + len(rest)
            async with resumed:
                return (
                    first,
                    await resumed.evaluate_all(),
                    await resumed.spammer_scores(),
                    resumed.evaluator.matrix.copy(),
                )

        return fixture.survived + rest, asyncio.run(resume_ingest_abort_resume())

    results = {backend: run_backend(backend) for backend in LEGACY_LAYOUT_BACKENDS}
    settled = IncrementalEvaluator(3, 1, backend="dict")
    settled.apply_batch(results["dict"][0], auto_extend=True)
    reference = {
        estimate.worker: estimate
        for estimate in MWorkerEstimator(
            confidence=0.95, backend="dict"
        ).evaluate_all(settled.matrix)
        if estimate.n_tasks > 0
    }
    reference_scores = results["dict"][1][2]
    for backend, (_, (first, resumed, scores, matrix_copy)) in results.items():
        assert matrix_copy == settled.matrix, backend
        for served in (first, resumed):
            assert set(served) == set(reference), backend
            for worker, ref in reference.items():
                assert_estimates_bit_identical(
                    ref, served[worker], f"legacy-layout-{backend}"
                )
        assert scores == reference_scores, backend


@pytest.mark.parametrize("seed", range(25))
def test_legacy_layout_kill_resume_fuzz_bit_identical(seed, legacy_layout, tmp_path):
    """25-seed kill/resume fuzz over the committed legacy directories: the
    rest of the fixture's stream (with extra label revisions) is fed in
    three sessions, the first two aborted at random cut points — half the
    seeds with batches still unflushed — and their on-disk state mangled
    the way a crash would (``wal.ndjson`` tail torn mid-append, or the
    newest snapshot corrupted, falling back to an older single-WAL one,
    the legacy one or pure segment + WAL replay).  Random micro-batch
    sizes and snapshot cadences.  The final estimates, spammer scores and
    accumulated matrix must equal the dict batch build bit for bit on all
    four backends."""
    import asyncio

    from repro.serve import SessionConfig, open_session

    rng = np.random.default_rng(15000 + seed)
    fixture_name = ["snapshotted", "wal_only"][seed % 2]
    template = legacy_layout(fixture_name, tmp_path / "template")
    rest = list(template.stream[template.submitted :])
    # Revisions of cells already in the segments and of cells still to
    # come: the last write must win across the layout change and the kills.
    for _ in range(3):
        worker, task, label = template.stream[int(rng.integers(0, len(template.stream)))]
        rest.insert(int(rng.integers(0, len(rest) + 1)), (worker, task, 1 - label))
    base = len(template.survived)
    max_batch = int(rng.integers(1, 24))
    snapshot_every = [None, 1, 2, 3, 5][seed % 5]
    cuts = sorted(int(cut) for cut in rng.integers(1, len(rest), size=2))
    corruptions = [int(c) for c in rng.integers(0, 3, size=2)]  # clean/WAL/snapshot
    flushed = seed % 4 < 2  # else: killed with batches still queued

    def mangle(directory, corruption):
        if corruption == 1:
            # Mid-append kill: the WAL loses tail bytes, never its header
            # (a chopped header is a malformed log, not crash residue).
            wal = directory / "wal.ndjson"
            data = wal.read_bytes() if wal.exists() else b""
            header_bytes = data.find(b"\n") + 1
            if len(data) - header_bytes > 31:
                wal.write_bytes(data[: len(data) - int(rng.integers(1, 31))])
        elif corruption == 2:
            snapshots = sorted(directory.glob("snapshot-*.snap"), reverse=True)
            if snapshots:
                data = bytearray(snapshots[0].read_bytes())
                data[int(rng.integers(0, len(data)))] ^= 0xFF
                snapshots[0].write_bytes(bytes(data))

    async def kill_resume_twice(config):
        for cut, corruption in zip(cuts, corruptions):
            session = open_session(config)
            # Sequence numbers are positional and the WAL is appended in
            # order, so applied_events names exactly the surviving prefix.
            done = session.applied_events - base
            assert 0 <= done <= len(rest)
            session.start()
            for event in rest[done:cut]:
                await session.submit(*event)
            if flushed:
                await session.flush()
            await session.abort()  # no final snapshot, applier cancelled
            mangle(config.durable, corruption)
        resumed = open_session(config)
        done = resumed.applied_events - base
        assert 0 <= done <= len(rest)
        async with resumed:
            for event in rest[done:]:
                await resumed.submit(*event)
            await resumed.flush()
            return (
                await resumed.evaluate_all(),
                await resumed.spammer_scores(),
                resumed.evaluator.matrix.copy(),
            )

    results = {}
    for backend in LEGACY_LAYOUT_BACKENDS:
        fixture = legacy_layout(fixture_name, tmp_path / backend)
        config = SessionConfig(
            backend=backend,
            durable=fixture.directory,
            max_batch=max_batch,
            snapshot_every=snapshot_every,
            fsync=False,
        )
        results[backend] = asyncio.run(kill_resume_twice(config))
    settled = IncrementalEvaluator(3, 1, backend="dict")
    settled.apply_batch(template.survived + rest, auto_extend=True)
    reference = {
        estimate.worker: estimate
        for estimate in MWorkerEstimator(
            confidence=0.95, backend="dict"
        ).evaluate_all(settled.matrix)
        if estimate.n_tasks > 0
    }
    reference_scores = results["dict"][1]
    for backend, (resumed, scores, matrix_copy) in results.items():
        assert matrix_copy == settled.matrix, backend
        assert set(resumed) == set(reference), backend
        for worker, ref in reference.items():
            assert_estimates_bit_identical(
                ref, resumed[worker], f"legacy-layout-fuzz-{backend}"
            )
        assert scores == reference_scores, backend


# --------------------------------------------------------------------------- #
# Composition contracts of the sparse/bitset backends
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("shards", [4, "thread:2", "auto"])
def test_shards_with_dict_backend_falls_back_to_serial(shards, monkeypatch):
    """``shards=`` composes with the dict backend via the documented serial
    fallback: it is the only backend without a vectorized dense view, so no
    execution tier may engage and results must still equal the reference.

    (Sparse and bitset now export shared state and genuinely shard — their
    bit-identity is covered by the sparse-sharded/bitset-sharded columns of
    the path matrix above.)"""
    import repro.core.parallel as parallel_module

    def _forbidden(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError(f"no tier may engage for dict + shards={shards!r}")

    monkeypatch.setattr(parallel_module, "evaluate_all_process", _forbidden)
    monkeypatch.setattr(parallel_module, "evaluate_all_threaded", _forbidden)
    matrix = random_matrix(104, 14, 40, regular=False)
    reference = MWorkerEstimator(confidence=0.9, backend="dict").evaluate_all(matrix)
    candidate = MWorkerEstimator(
        confidence=0.9, backend="dict", shards=shards
    ).evaluate_all(matrix)
    for ref, cand in zip(reference, candidate):
        assert_estimates_bit_identical(ref, cand, f"dict+shards={shards!r}")


def test_sparse_request_degrades_gracefully_without_scipy(monkeypatch):
    """``backend="sparse"`` without scipy must not fail: it resolves to a
    scipy-free backend serving identical counts, so every result equals the
    dict reference bit for bit."""
    monkeypatch.setattr(sparse_backend_module, "_SCIPY_OVERRIDE", False)
    matrix = random_matrix(105, 7, 90, regular=False)
    reference = MWorkerEstimator(confidence=0.9, backend="dict").evaluate_all(matrix)
    candidate = MWorkerEstimator(confidence=0.9, backend="sparse").evaluate_all(matrix)
    for ref, cand in zip(reference, candidate):
        assert_estimates_bit_identical(ref, cand, "sparse-degraded")
    spammers = random_matrix(301, 10, 50, regular=False, spammers=3)
    assert (
        filter_spammers(spammers, backend="sparse").approximate_error_rates
        == filter_spammers(spammers, backend="dict").approximate_error_rates
    )
