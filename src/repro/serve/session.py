"""Streaming ingestion session over an :class:`IncrementalEvaluator`.

:class:`StreamSession` is the asyncio layer the ROADMAP's async-ingestion
item asked for: a single writer task drains the bounded
:class:`~repro.serve.queue.ResponseQueue` into micro-batches and applies
each under the session's writer lock via
:meth:`~repro.core.incremental.IncrementalEvaluator.apply_batch`, while
concurrent readers (``evaluate_worker`` / ``evaluate_all`` /
``spammer_scores`` / ``snapshot``) observe a *whole number of applied
batches* — never a torn batch.  Readers that must recompute take the same
writer lock; reads the dependency ledger proves still current are served
straight from the cache in one synchronous event-loop step, so they never
queue behind ingestion.

Determinism contract (locked by the differential suite's ``streamed``
column)
-----------------------------------------------------------------------

* **Ordering** — events are applied in submission order: ``submit`` is
  FIFO into the queue, batches are drained by one applier task, and
  :meth:`IncrementalEvaluator.apply_batch` replays each batch in order.
* **Batch boundaries are invisible in results** — however the stream is
  chopped into micro-batches (queue timing, ``max_batch``, explicit
  ``flush`` calls), the estimates served after the stream equal a
  from-scratch batch build over the accumulated responses, bit for bit,
  on every backend.  Batching changes *when* bookkeeping is paid, never
  what is computed.
* **Snapshot semantics** — a read between batches serves the state at the
  last applied batch boundary: estimates over exactly the responses whose
  batches have been applied, with cached intervals reused unless a
  statistic they depend on changed (the evaluator's dependency-tracked
  invalidation).  ``await flush()`` before a read gives read-your-writes.

Unseen worker/task ids grow the evaluator through the delta extension path
(no backend rebuild) once per batch, so a live stream never needs
pre-declared dimensions.

Construction
------------

Sessions are built from a validated, frozen
:class:`~repro.serve.config.SessionConfig` by
:func:`repro.serve.open_session`, which resumes a durable directory that
already holds state and starts fresh otherwise.

Durability (``SessionConfig(durable=...)``)
-------------------------------------------

A durable session appends every micro-batch to a write-ahead log —
fsynced *before* ``apply_batch`` — and, when ``snapshot_every`` is set,
periodically checkpoints the full evaluator state with atomic temp-file +
rename snapshots.  After a crash, ``open_session`` on the same directory
restores the newest valid snapshot and replays only the WAL records beyond
it (idempotently — duplicated or partially-covered records cannot
double-apply), restarting in O(delta); ``start()`` then truncates any
crash tail off the log and reopens it for append.  Until ``start()`` the
session holds no file handle, so one that is never started leaks nothing.
The resumed session serves estimates bit-identical to a session that was
never interrupted; the contract and on-disk formats (including the
read-only legacy segment layout) are documented in
:mod:`repro.serve.durable` and the capability matrix in
:mod:`repro.core.agreement`.
"""

from __future__ import annotations

import asyncio
from collections.abc import AsyncIterable, Iterable
from dataclasses import dataclass

from repro.core.incremental import BatchApplyStats, IncrementalEvaluator
from repro.core.spammer_filter import DEFAULT_SPAMMER_THRESHOLD
from repro.data.response_matrix import ResponseMatrix
from repro.exceptions import ConfigurationError, InsufficientDataError
from repro.serve.config import SessionConfig
from repro.serve.durable import SEGMENT_META_KEY, DurableStore
from repro.serve.queue import ResponseQueue
from repro.types import WorkerErrorEstimate

__all__ = ["BatchRecord", "SessionSnapshot", "StreamSession", "replay_stream"]


def _new_evaluator(config: SessionConfig) -> IncrementalEvaluator:
    """A fresh evaluator with small dimensions (the stream grows it)."""
    return IncrementalEvaluator(
        n_workers=3,
        n_tasks=1,
        confidence=config.resolved_confidence,
        optimize_weights=config.resolved_optimize_weights,
        backend=config.resolved_backend,
        shards=config.shards,
    )


def replay_stream(
    events: Iterable[tuple[int, int, int]],
    *,
    confidence: float = 0.95,
    backend: str = "auto",
    max_batch: int = 256,
    maxsize: int = 4096,
    shards: int | str = 1,
) -> dict[int, WorkerErrorEstimate]:
    """Drive a finite event stream through a session, synchronously.

    Spins up a fresh :class:`StreamSession`, submits every
    ``(worker, task, label)`` event in order — later events for the same
    ``(worker, task)`` are label *revisions* — flushes, and returns the
    final ``evaluate_all`` estimates.  This is the revision-storm driver
    the scenario gauntlet uses as its ``"streamed"`` estimator path: the
    estimates come from the full asyncio queue -> micro-batch ->
    ``apply_batch`` pipeline and are bit-identical to a batch build over
    the settled matrix (the streaming determinism contract in
    :mod:`repro.core.agreement`).

    Must be called from synchronous code (it owns its own event loop).
    """

    async def run() -> dict[int, WorkerErrorEstimate]:
        async with StreamSession(
            config=SessionConfig(
                confidence=confidence,
                backend=backend,
                max_batch=max_batch,
                maxsize=maxsize,
                shards=shards,
            )
        ) as session:
            await session.submit_many(events)
            await session.flush()
            return await session.evaluate_all()

    return asyncio.run(run())


@dataclass(frozen=True)
class BatchRecord:
    """One applied micro-batch: position in the stream plus its effects."""

    index: int
    first_seq: int
    last_seq: int
    stats: BatchApplyStats


@dataclass(frozen=True)
class SessionSnapshot:
    """A consistent view taken at an applied-batch boundary."""

    matrix: ResponseMatrix
    estimates: dict[int, WorkerErrorEstimate]
    applied_events: int
    applied_batches: int


class StreamSession:
    """Async front-end that feeds a response stream into the evaluator.

    Built by :func:`repro.serve.open_session` from a
    :class:`~repro.serve.config.SessionConfig` (which also resumes durable
    directories that hold state)::

        from repro.serve import SessionConfig, open_session

        async with open_session(SessionConfig(max_batch=64)) as session:
            await session.submit(worker, task, label)
            await session.flush()
            estimates = await session.evaluate_all()

    Parameters
    ----------
    evaluator:
        The incremental evaluator to feed; constructed from the config's
        estimator fields with small default dimensions when omitted (the
        stream grows it on demand).  The config's ``shards`` spec only
        applies to a default-constructed evaluator — configure an explicit
        one directly.
    config:
        The :class:`~repro.serve.config.SessionConfig` for this session
        (the defaults when omitted).  A ``durable`` directory must be empty:
        only ``open_session`` resumes existing state.
    """

    def __init__(
        self,
        evaluator: IncrementalEvaluator | None = None,
        *,
        config: SessionConfig | None = None,
    ) -> None:
        if config is None:
            config = SessionConfig()
        elif not isinstance(config, SessionConfig):
            raise ConfigurationError(
                "config must be a repro.serve.SessionConfig, got "
                f"{type(config).__name__}"
            )
        self._config = config
        self._evaluator = evaluator if evaluator is not None else _new_evaluator(config)
        self._queue = ResponseQueue(
            maxsize=config.maxsize, max_batch=config.max_batch
        )
        self._durable = (
            None
            if config.durable is None
            else DurableStore(
                config.durable,
                snapshot_every=config.snapshot_every,
                fsync=config.fsync,
            )
        )
        #: True once ``_resume_session`` restored this session from disk:
        #: ``start()`` then reopens the existing log instead of creating one.
        self._resumed = False
        self._lock = asyncio.Lock()
        self._applied = asyncio.Condition()
        self._submitted_seq = 0
        self._applied_seq = 0
        self._batches: list[BatchRecord] = []
        self._applier: asyncio.Task | None = None
        self._error: BaseException | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def __aenter__(self) -> "StreamSession":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # An exception is already propagating out of the block (often
            # the applier's own error, re-raised at submit()/flush()):
            # drain and stop without masking it with a second raise.  The
            # durable log is closed without a final snapshot — the WAL
            # already holds everything applied, and a snapshot taken on a
            # failing path could checkpoint state the caller considers bad.
            await self._drain_and_stop()
            if self._durable is not None:
                self._durable.close()
            return
        await self.close()

    def start(self) -> None:
        """Open the durable log and start the applier task.

        Idempotent; ``async with`` does this.  Synchronous, but needs a
        running event loop.  A resumed session's log is truncated back to
        its last valid record here, then reopened for append; a fresh
        session refuses a directory that already holds state.
        """
        if self._applier is None:
            loop = asyncio.get_running_loop()
            if self._durable is not None:
                self._durable.open(resume=self._resumed)
            self._applier = loop.create_task(self._run())

    async def close(self) -> None:
        """Drain and stop: apply everything submitted, then stop the applier.

        A clean close of a durable session writes a final snapshot when
        periodic snapshots are enabled (so the next resume replays nothing)
        and closes the log.  Raises the applier's error if ingestion failed
        (unless it was already surfaced by the exception leaving an
        ``async with`` block).
        """
        await self._drain_and_stop()
        if self._durable is not None:
            if self._error is None:
                self._durable.finalize(self._evaluator, self._applied_seq)
            self._durable.close()
        self._raise_if_failed()

    async def abort(self) -> None:
        """Stop immediately without draining — a process-internal "crash".

        Cancels the applier mid-flight and closes the log handle without a
        final snapshot, leaving the durable directory exactly as a SIGKILL
        would (modulo the OS page cache): acknowledged batches in the WAL,
        possibly a half-applied one.  The kill/resume fuzz suite uses this
        to exercise resume at arbitrary cut points in-process.
        """
        if self._applier is not None:
            self._applier.cancel()
            try:
                await self._applier
            except asyncio.CancelledError:
                pass
            self._applier = None
        if self._durable is not None:
            self._durable.close()

    async def _drain_and_stop(self) -> None:
        await self._queue.close()
        if self._applier is not None:
            await self._applier
            self._applier = None

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> SessionConfig:
        """The validated configuration this session was built from."""
        return self._config

    @property
    def evaluator(self) -> IncrementalEvaluator:
        """The wrapped evaluator (take the session lock for direct reads)."""
        return self._evaluator

    @property
    def durable(self) -> DurableStore | None:
        """The persistence layer, or None for an in-memory session."""
        return self._durable

    @property
    def submitted_events(self) -> int:
        return self._submitted_seq

    @property
    def applied_events(self) -> int:
        return self._applied_seq

    @property
    def pending_events(self) -> int:
        """Events submitted but not yet applied.

        Clamped at zero: between a parked ``put`` completing and its
        producer task resuming to count it, the applier may already have
        applied the event, making ``applied`` transiently exceed
        ``submitted``.
        """
        return max(0, self._submitted_seq - self._applied_seq)

    @property
    def applied_batches(self) -> list[BatchRecord]:
        """Per-batch application records (size, sequence range, stats)."""
        return list(self._batches)

    async def submit(self, worker: int, task: int, label: int) -> int:
        """Enqueue one response; returns its 1-based sequence number.

        Blocks while the queue is full (backpressure).  Application is
        asynchronous — ``await flush()`` to wait for visibility.
        """
        self._raise_if_failed()
        if self._applier is None:
            raise ConfigurationError(
                "the session is not running; use 'async with open_session()' "
                "or call start() first"
            )
        await self._queue.put((int(worker), int(task), int(label)))
        # Increment only after the (possibly parked) put succeeds, in one
        # yield-free step: concurrent producers that both read the counter
        # before awaiting would otherwise lose increments, letting flush()
        # return before everything submitted was applied.
        self._submitted_seq += 1
        return self._submitted_seq

    async def submit_many(
        self, records: Iterable[tuple[int, int, int]] | AsyncIterable
    ) -> int:
        """Submit a collection (sync or async iterable); returns the count."""
        count = 0
        if hasattr(records, "__aiter__"):
            async for record in records:  # type: ignore[union-attr]
                await self.submit(*record)
                count += 1
        else:
            for record in records:  # type: ignore[union-attr]
                await self.submit(*record)
                count += 1
        return count

    async def flush(self) -> int:
        """Wait until everything submitted so far is applied.

        Returns the number of applied events.  Raises the applier's error
        if ingestion failed.
        """
        target = self._submitted_seq
        async with self._applied:
            await self._applied.wait_for(
                lambda: self._applied_seq >= target or self._error is not None
            )
        self._raise_if_failed()
        return self._applied_seq

    # ------------------------------------------------------------------ #
    # Reader side (snapshot-consistent: whole batches only)
    # ------------------------------------------------------------------ #

    async def evaluate_worker(self, worker: int) -> WorkerErrorEstimate:
        """Estimate for one worker at the last applied batch boundary.

        When the dependency ledger proves the cached estimate current, it
        is returned without touching the writer lock: the check-and-return
        is a single synchronous step on the event loop (no await between
        them), so it cannot observe a torn batch — ``apply_batch`` runs
        synchronously under the lock and invalidates affected caches in the
        same step that changes the statistics.  Only a recompute serializes
        behind the writer.
        """
        cached = self._evaluator.cached_estimate(worker)
        if cached is not None:
            return cached
        async with self._lock:
            return self._evaluator.estimate(worker)

    async def evaluate_all(self) -> dict[int, WorkerErrorEstimate]:
        """Estimates for every worker with data, at the last batch boundary.

        Same lock discipline as :meth:`evaluate_worker`: if no worker needs
        a recompute, the cached estimates are assembled without the writer
        lock (single synchronous step — snapshot-consistent); otherwise the
        bulk recompute takes the lock.
        """
        if not self._evaluator.needs_recompute:
            return self._evaluator.estimate_all()
        async with self._lock:
            return self._evaluator.estimate_all()

    async def spammer_scores(
        self, threshold: float = DEFAULT_SPAMMER_THRESHOLD
    ) -> dict[int, float | None]:
        """Majority-disagreement spammer proxies at the last batch boundary.

        ``None`` marks workers that cannot be scored yet (no responses, or
        no task shared with anyone); scores above ``threshold`` flag
        near-spammers (Section III-E2's filter criterion).
        """
        async with self._lock:
            backend = self._evaluator._backend
            if backend is not None:
                rates = backend.majority_disagreement_rates()
            else:
                matrix = self._evaluator.matrix
                rates = []
                for worker in range(matrix.n_workers):
                    try:
                        rates.append(matrix.disagreement_with_majority(worker))
                    except InsufficientDataError:
                        rates.append(None)
            return dict(enumerate(rates))

    async def snapshot(self) -> SessionSnapshot:
        """Deep-copied consistent state at the last applied batch boundary.

        The returned matrix and estimates cannot be mutated by later
        batches, which makes this the tool for auditing snapshot
        consistency (the test suite compares it against a from-scratch
        batch build over the copied matrix).
        """
        async with self._lock:
            return SessionSnapshot(
                matrix=self._evaluator.matrix.copy(),
                estimates=self._evaluator.estimate_all(),
                applied_events=self._applied_seq,
                applied_batches=len(self._batches),
            )

    # ------------------------------------------------------------------ #
    # Applier
    # ------------------------------------------------------------------ #

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise self._error

    async def _run(self) -> None:
        while True:
            result = await self._queue.get_batch_with_seq()
            if result is None:
                return
            first_seq, last_seq, batch = result
            try:
                if self._durable is not None:
                    # WAL first, fsynced: once apply_batch runs (and a
                    # flush() is acknowledged), the batch is on disk and a
                    # crash at any later point replays it.
                    self._durable.append_batch(first_seq, last_seq, batch)
                async with self._lock:
                    stats = self._evaluator.apply_batch(
                        batch, auto_extend=self._config.auto_extend
                    )
                self._applied_seq = last_seq
                self._batches.append(
                    BatchRecord(
                        index=len(self._batches),
                        first_seq=first_seq,
                        last_seq=last_seq,
                        stats=stats,
                    )
                )
                if self._durable is not None:
                    self._durable.record_applied(self._evaluator, last_seq)
            except BaseException as error:  # surfaced at submit()/flush()
                self._error = error
                async with self._applied:
                    self._applied.notify_all()
                # Keep draining (and discarding) so producers parked on the
                # full queue wake up — their next submit() raises the
                # stored error — and close()'s marker can always land
                # instead of deadlocking against a dead consumer.
                while await self._queue.get_batch() is not None:
                    pass
                return
            async with self._applied:
                self._applied.notify_all()


def _resume_session(config: SessionConfig) -> StreamSession:
    """Rebuild a session from ``config.durable`` in O(delta).

    The create-or-resume half of ``open_session``: loads the newest
    snapshot that validates (checksum-failed or truncated ones fall back to
    older, then to replay from scratch), replays any legacy segments the
    snapshot does not cover, then the ``wal.ndjson`` records beyond it —
    idempotently, so duplicated records or a second replay cannot
    double-apply.  Files are only read here: the returned session is not
    started and holds no handle; sequence numbering continues from the last
    applied event.
    """
    store = DurableStore(
        config.durable, snapshot_every=config.snapshot_every, fsync=config.fsync
    )
    loaded = store.load_snapshot_state()
    if loaded is None:
        meta: dict = {}
        evaluator = _new_evaluator(config)
    else:
        meta, arrays = loaded
        evaluator = IncrementalEvaluator.from_state(
            meta,
            arrays,
            confidence=config.confidence,
            optimize_weights=config.optimize_weights,
            backend=config.backend,
            shards=config.shards,
        )
    applied = int(meta.get("applied_seq", 0))
    replayed = 0
    wal_start = 0
    if loaded is None or SEGMENT_META_KEY in meta:
        # The legacy segments are a frozen history prefix; wal.ndjson
        # continues its global sequence from their total.
        for events in store.read_legacy_segments(meta.get(SEGMENT_META_KEY)):
            evaluator.apply_batch(events, auto_extend=True)
            applied += len(events)
            replayed += 1
    else:
        # Seek past the log prefix the snapshot covers; replay then only
        # parses the delta (the O(delta) half of resume).
        wal_start = int(meta.get("wal_bytes", 0))
    for _, last, events in store.read_delta(applied, wal_start):
        evaluator.apply_batch(events, auto_extend=True)
        applied = last
        replayed += 1
    store.note_resumed(
        total_batches=int(meta.get("applied_batches", 0)) + replayed,
        replayed_batches=replayed,
    )
    session = StreamSession(evaluator, config=config)
    session._durable = store
    session._resumed = True
    session._queue = ResponseQueue(
        maxsize=config.maxsize, max_batch=config.max_batch, base_seq=applied
    )
    session._submitted_seq = applied
    session._applied_seq = applied
    return session
