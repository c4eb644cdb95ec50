"""Newline-JSON TCP server over a streaming session.

``repro-crowd serve`` exposes the streaming ingestion subsystem on a
socket.  The :class:`~repro.serve.session.StreamSession` underneath comes
from the :func:`repro.serve.open_session` front door — the CLI flags map
onto one :class:`~repro.serve.config.SessionConfig`.  Clients write one
JSON document per line.  Event lines (the
:func:`~repro.serve.sources.parse_event` shapes) are submitted to the
session — no per-event reply, so a producer can pipeline at queue speed
and the bounded queue's backpressure propagates to the socket via TCP flow
control.  Query lines (``{"query": ...}``) get exactly one JSON reply line
each, served at the last applied batch boundary (queries never force a
flush; send ``{"query": "flush"}`` first for read-your-writes):

``{"query": "evaluate_all"}``
    ``{"estimates": {worker: {n_tasks, lower, mean, upper, status}}}``
``{"query": "worker", "worker": 3}``
    one estimate object (or ``{"error": ...}`` when it has no data yet)
``{"query": "spammers"}``
    ``{"scores": {worker: rate-or-null}}`` majority-disagreement proxies
``{"query": "flush"}``
    ``{"applied": n}`` once everything submitted so far is applied
``{"query": "stats"}``
    queue/batch counters (events, batches, pending, matrix shape)
``{"query": "shutdown"}``
    ``{"ok": true}``, then the server stops accepting and exits

Malformed lines get ``{"error": ...}`` and the connection stays open.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable

from repro.exceptions import CrowdAssessmentError
from repro.serve.session import StreamSession
from repro.serve.sources import parse_event
from repro.types import WorkerErrorEstimate

__all__ = ["serve_ndjson"]


def _estimate_payload(estimate: WorkerErrorEstimate) -> dict:
    return {
        "worker": estimate.worker,
        "n_tasks": estimate.n_tasks,
        "lower": estimate.interval.lower,
        "mean": estimate.interval.mean,
        "upper": estimate.interval.upper,
        "status": estimate.status.value,
    }


async def _answer_query(
    session: StreamSession, query: dict, stop: asyncio.Event
) -> dict:
    kind = query.get("query")
    if kind == "evaluate_all":
        estimates = await session.evaluate_all()
        return {
            "estimates": {
                str(worker): _estimate_payload(estimate)
                for worker, estimate in sorted(estimates.items())
            }
        }
    if kind == "worker":
        return _estimate_payload(await session.evaluate_worker(int(query["worker"])))
    if kind == "spammers":
        scores = await session.spammer_scores()
        return {"scores": {str(worker): rate for worker, rate in scores.items()}}
    if kind == "flush":
        return {"applied": await session.flush()}
    if kind == "stats":
        matrix = session.evaluator.matrix
        return {
            "submitted": session.submitted_events,
            "applied": session.applied_events,
            "pending": session.pending_events,
            "batches": len(session.applied_batches),
            "n_workers": matrix.n_workers,
            "n_tasks": matrix.n_tasks,
            "n_responses": matrix.n_responses,
        }
    if kind == "shutdown":
        stop.set()
        return {"ok": True}
    return {"error": f"unknown query {kind!r}"}


async def serve_ndjson(
    session: StreamSession,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Callable[[str, int], None] | None = None,
) -> None:
    """Run the NDJSON ingestion server until a shutdown query arrives.

    ``port=0`` binds an ephemeral port; ``ready(host, port)`` is called
    with the bound address once the server is listening (the CLI prints
    it, tests connect to it).
    """
    stop = asyncio.Event()
    connections: set[asyncio.StreamWriter] = set()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        connections.add(writer)
        try:
            while not stop.is_set():
                line = await reader.readline()
                if not line:
                    break
                try:
                    decoded = json.loads(line)
                except json.JSONDecodeError:
                    reply: dict | None = {"error": "malformed JSON line"}
                else:
                    try:
                        if isinstance(decoded, dict) and "query" in decoded:
                            reply = await _answer_query(session, decoded, stop)
                        else:
                            await session.submit(*parse_event(decoded))
                            reply = None
                    except CrowdAssessmentError as error:
                        reply = {"error": str(error)}
                if reply is not None:
                    writer.write((json.dumps(reply) + "\n").encode())
                    await writer.drain()
        except (ConnectionError, OSError):
            pass  # client vanished, or the shutdown force-close raced a read
        finally:
            connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    server = await asyncio.start_server(handle, host=host, port=port)
    bound = server.sockets[0].getsockname()
    if ready is not None:
        ready(bound[0], bound[1])
    async with server:
        await stop.wait()
        # Unblock handlers parked in readline() on OTHER connections:
        # since Python 3.12 Server.wait_closed() (run by the context
        # manager exit) waits for every active handler, so an idle client
        # would otherwise pin the server open after a shutdown query.
        for writer in list(connections):
            writer.close()
