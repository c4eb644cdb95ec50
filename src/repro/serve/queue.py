"""Bounded asyncio response queue with micro-batch coalescing.

:class:`ResponseQueue` is the front door of the streaming ingestion
subsystem (:mod:`repro.serve`): producers ``await put(event)`` — the bound
gives natural backpressure, a producer outrunning the applier parks on the
queue instead of growing memory — and the single consumer drains with
:meth:`get_batch`, which waits for the *first* event and then greedily
coalesces everything already enqueued (up to ``max_batch``) into one
micro-batch without waiting again.  Coalescing is what turns a trickle of
singleton responses into the batched
:meth:`~repro.core.incremental.IncrementalEvaluator.apply_batch` deltas that
pay one invalidation pass per batch instead of one per event.

FIFO order is preserved end to end: events leave in exactly the order they
were accepted, and batches are consumed by a single applier task, so the
stream's application order is the submission order.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = ["QueueClosed", "ResponseQueue"]

#: Internal close marker (producers can never enqueue it: ``put`` rejects
#: events after ``close`` and the sentinel is only enqueued by ``close``).
_CLOSE = object()


class QueueClosed(ConfigurationError):
    """Raised when an event is submitted to a closed :class:`ResponseQueue`."""


class ResponseQueue:
    """Bounded, order-preserving asyncio queue of response events.

    Parameters
    ----------
    maxsize:
        Bound on the number of queued events.  ``put`` blocks (asyncio
        backpressure) while the queue is full.
    max_batch:
        Largest micro-batch :meth:`get_batch` will coalesce.  Larger batches
        amortize more invalidation work; smaller ones tighten the staleness
        window between a submission and its visibility to readers.
    base_seq:
        Starting point of the 1-based event sequence numbering (events are
        numbered ``base_seq + 1, base_seq + 2, ...`` in delivery order).
        Zero for a fresh stream; a resumed durable session passes the last
        applied sequence so the reopened write-ahead log continues the
        monotonic numbering of the persisted history.
    """

    def __init__(
        self, maxsize: int = 4096, max_batch: int = 256, base_seq: int = 0
    ) -> None:
        if maxsize < 1:
            raise ConfigurationError(f"maxsize must be at least 1, got {maxsize}")
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be at least 1, got {max_batch}")
        if base_seq < 0:
            raise ConfigurationError(f"base_seq must be non-negative, got {base_seq}")
        self._queue: asyncio.Queue[Any] = asyncio.Queue(maxsize)
        self._max_batch = max_batch
        self._closed = False
        self._drained = False
        self._accepted_seq = base_seq
        self._delivered_seq = base_seq

    @property
    def maxsize(self) -> int:
        return self._queue.maxsize

    @property
    def max_batch(self) -> int:
        return self._max_batch

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called (no further ``put`` accepted)."""
        return self._closed

    def qsize(self) -> int:
        """Number of events currently queued (excluding the close marker)."""
        size = self._queue.qsize()
        return size - 1 if self._closed and not self._drained and size else size

    @property
    def accepted_seq(self) -> int:
        """Highest sequence number assigned to an accepted event so far.

        A running count from ``base_seq`` — sequence numbers themselves are
        assigned positionally at *delivery* (single consumer, so delivery
        order is queue order; concurrent producers resuming from parked
        puts could otherwise count out of order).
        """
        return self._accepted_seq

    @property
    def delivered_seq(self) -> int:
        """Sequence number of the last event handed out in a micro-batch."""
        return self._delivered_seq

    async def put(self, event: Any) -> None:
        """Enqueue one event; blocks while the queue is full (backpressure)."""
        if self._closed:
            raise QueueClosed("the response queue is closed")
        await self._queue.put(event)
        self._accepted_seq += 1

    def put_nowait(self, event: Any) -> None:
        """Enqueue without waiting; raises ``asyncio.QueueFull`` when full."""
        if self._closed:
            raise QueueClosed("the response queue is closed")
        self._queue.put_nowait(event)
        self._accepted_seq += 1

    async def close(self) -> None:
        """Refuse further events and wake the consumer once drained.

        Idempotent.  Events already accepted are still delivered; the
        consumer sees ``None`` from :meth:`get_batch` after the last batch.
        """
        if self._closed:
            return
        self._closed = True
        # The close marker rides the same queue so it cannot overtake data.
        await self._queue.put(_CLOSE)

    async def get_batch(self) -> list[Any] | None:
        """Wait for the next micro-batch (or None once closed and drained).

        Blocks until at least one event is available, then coalesces every
        event already enqueued — up to ``max_batch`` — without waiting
        again.  Returns ``None`` exactly once, after the final event has
        been delivered.
        """
        result = await self.get_batch_with_seq()
        return None if result is None else result[2]

    async def get_batch_with_seq(
        self,
    ) -> tuple[int, int, list[Any]] | None:
        """Like :meth:`get_batch`, plus the batch's inclusive sequence range.

        Returns ``(first_seq, last_seq, batch)`` where the events carry
        sequence numbers ``first_seq .. last_seq`` in delivery (= FIFO
        submission) order, continuing monotonically from ``base_seq``
        across batches with no gaps.  This range is what a durable
        session's write-ahead log records ahead of the apply, and what
        replay matches against the restored state on resume.
        """
        if self._drained:
            return None
        first = await self._queue.get()
        if first is _CLOSE:
            self._drained = True
            return None
        batch = [first]
        while len(batch) < self._max_batch:
            try:
                event = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if event is _CLOSE:
                self._drained = True
                break
            batch.append(event)
        first_seq = self._delivered_seq + 1
        self._delivered_seq += len(batch)
        return first_seq, self._delivered_seq, batch
