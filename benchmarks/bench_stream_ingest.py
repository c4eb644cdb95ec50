"""Streaming ingestion benchmark: singleton vs micro-batched delta applies.

Replays one shuffled response stream (default 10k events, including label
revisions) into an :class:`~repro.core.incremental.IncrementalEvaluator`
three ways and compares cost:

* ``singleton``  — ``add_response`` per event (one derived-cache
  invalidation pass per statistic-changing event);
* ``batched``    — ``apply_batch`` over fixed micro-batches (one
  invalidation pass per batch; grouped per-worker-row storage writes while
  no count matrix is materialized);
* ``session``    — the full asyncio path: ``StreamSession`` submit/flush
  with queue coalescing (what ``repro-crowd ingest`` runs).

All three must produce bit-identical estimates to a from-scratch batch
build over the accumulated matrix — verified on every run — and the batch
paths must cut the backend invalidation events by at least
``--min-invalidation-ratio`` (default 3x, the locked acceptance bound; the
unit suite pins the same bound in ``tests/unit/test_serve.py``).

``--durable-resume`` adds the durability scenario: the same stream is
persisted into two directories — one with periodic snapshots, one pure WAL
— and the resume through ``open_session`` is timed on each.  Snapshot resume must be
at least ``--min-resume-speedup`` (default 5x) faster than the full WAL
replay on the 5k fixture, both resumes bit-identical to the batch build;
``--trajectory`` appends the result as a ``stream-resume`` entry to the
committed ``BENCH_agreement.json`` trend file.

``--with-shards`` adds the sharded-recompute scenario: the same stream is
ingested twice with periodic mid-stream ``evaluate_all`` calls — once with
serial recomputes (``shards=1``) and once under ``--shard-spec`` (default
``thread:2``, the footprint-ledger path) — and the *ingest-then-evaluate*
wall clock is compared.  Both runs must be bit-identical to the batch
build, and the sharded run must stay within ``--max-shard-overhead`` of
the serial wall clock (sharding may not win on a small CI fixture, but it
must never wreck live-stream evaluation); ``--trajectory`` appends a
``stream-shards`` entry alongside the resume one.

Usage::

    PYTHONPATH=src python benchmarks/bench_stream_ingest.py          # full
    PYTHONPATH=src python benchmarks/bench_stream_ingest.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

from repro.core.incremental import IncrementalEvaluator
from repro.core.m_worker import MWorkerEstimator
from repro.serve import SessionConfig, open_session
from repro.serve.durable import DurableStore


def make_stream(
    n_events: int, n_workers: int, n_tasks: int, seed: int
) -> list[tuple[int, int, int]]:
    """Random event stream with ~10% label revisions (cells hit twice)."""
    rng = np.random.default_rng(seed)
    workers = rng.integers(0, n_workers, size=n_events)
    tasks = rng.integers(0, n_tasks, size=n_events)
    labels = rng.integers(0, 2, size=n_events)
    return [
        (int(w), int(t), int(label))
        for w, t, label in zip(workers, tasks, labels)
    ]


def _identical(a, b) -> bool:
    return (
        a.interval.mean == b.interval.mean
        and a.interval.lower == b.interval.lower
        and a.interval.upper == b.interval.upper
        and a.interval.deviation == b.interval.deviation
        and a.weights == b.weights
        and a.status is b.status
    )


def run(
    n_events: int,
    n_workers: int,
    n_tasks: int,
    seed: int,
    batch_size: int,
    backend: str = "dense",
) -> dict:
    stream = make_stream(n_events, n_workers, n_tasks, seed)
    print(
        f"stream: {len(stream)} events over {n_workers} workers x "
        f"{n_tasks} tasks ({backend} backend, micro-batch {batch_size})"
    )
    results: dict[str, dict] = {}

    # -- singleton ----------------------------------------------------- #
    evaluator = IncrementalEvaluator(3, 1, backend=backend)
    start = time.perf_counter()
    for event in stream:
        evaluator.add_response(*event)
    seconds = time.perf_counter() - start
    singleton_estimates = evaluator.estimate_all()
    results["singleton"] = {
        "seconds": seconds,
        "invalidations": evaluator._backend.invalidation_events
        if evaluator._backend is not None
        else 0,
    }
    reference_matrix = evaluator.matrix

    # -- batched ------------------------------------------------------- #
    evaluator = IncrementalEvaluator(3, 1, backend=backend)
    start = time.perf_counter()
    for offset in range(0, len(stream), batch_size):
        evaluator.apply_batch(stream[offset : offset + batch_size])
    seconds = time.perf_counter() - start
    batched_estimates = evaluator.estimate_all()
    results["batched"] = {
        "seconds": seconds,
        "invalidations": evaluator._backend.invalidation_events
        if evaluator._backend is not None
        else 0,
    }

    # -- session (asyncio queue + applier) ------------------------------ #
    async def run_session():
        async with open_session(
            SessionConfig(backend=backend, max_batch=batch_size)
        ) as session:
            for event in stream:
                await session.submit(*event)
            await session.flush()
            return (
                await session.evaluate_all(),
                sum(
                    record.stats.backend_invalidations
                    for record in session.applied_batches
                ),
                len(session.applied_batches),
            )

    start = time.perf_counter()
    session_estimates, session_invalidations, session_batches = asyncio.run(
        run_session()
    )
    results["session"] = {
        "seconds": time.perf_counter() - start,
        "invalidations": session_invalidations,
        "batches": session_batches,
    }

    # -- bit-identity against a from-scratch batch build ---------------- #
    reference = {
        estimate.worker: estimate
        for estimate in MWorkerEstimator(backend="dict").evaluate_all(
            reference_matrix
        )
        if estimate.n_tasks > 0
    }
    identical = all(
        set(estimates) == set(reference)
        and all(_identical(estimates[w], reference[w]) for w in reference)
        for estimates in (singleton_estimates, batched_estimates, session_estimates)
    )

    for name, row in results.items():
        rate = n_events / row["seconds"] if row["seconds"] > 0 else float("inf")
        print(
            f"{name:>10}: {row['seconds']:7.3f}s  ({rate:9.0f} events/s, "
            f"{row['invalidations']} invalidation passes)"
        )
    ratio = (
        results["singleton"]["invalidations"] / results["batched"]["invalidations"]
        if results["batched"]["invalidations"]
        else float("inf")
    )
    speedup = (
        results["singleton"]["seconds"] / results["batched"]["seconds"]
        if results["batched"]["seconds"] > 0
        else float("inf")
    )
    print(
        f"invalidation reduction (singleton/batched): {ratio:.1f}x   "
        f"ingest speedup: {speedup:.1f}x   bit-identical: {identical}"
    )
    return {
        "n_events": n_events,
        "n_workers": n_workers,
        "n_tasks": n_tasks,
        "batch_size": batch_size,
        "backend": backend,
        "paths": results,
        "invalidation_ratio": ratio,
        "ingest_speedup": speedup,
        "bit_identical": identical,
    }


def _build_durable_dir(
    directory: str,
    stream: list[tuple[int, int, int]],
    batch_size: int,
    backend: str,
    snapshot_every: int | None,
) -> None:
    """Persist ``stream`` into ``directory`` as a clean durable session would.

    Writes the WAL batch-by-batch and, when ``snapshot_every`` is set, the
    periodic snapshots the session applier would have produced — giving the
    resume benchmark one snapshotted directory and one pure-WAL twin over
    the identical event sequence.
    """
    store = DurableStore(directory, snapshot_every=snapshot_every, fsync=False)
    store.open()
    try:
        evaluator = IncrementalEvaluator(3, 1, backend=backend)
        applied = 0
        for offset in range(0, len(stream), batch_size):
            batch = stream[offset : offset + batch_size]
            store.append_batch(applied + 1, applied + len(batch), batch)
            evaluator.apply_batch(batch, auto_extend=True)
            applied += len(batch)
            store.record_applied(evaluator, applied)
    finally:
        store.close()


def run_durable_resume(
    n_events: int,
    n_workers: int,
    n_tasks: int,
    seed: int,
    batch_size: int = 32,
    backend: str = "dense",
    snapshot_every: int = 8,
    repeats: int = 3,
) -> dict:
    """Time the ``open_session`` resume with snapshots vs full WAL replay.

    Only the resume itself is timed — both paths pay the identical
    ``estimate_all`` cost afterwards, so folding it in would just compress
    the ratio the snapshot is meant to expose.  Reported speedup is
    best-of-``repeats`` full-replay seconds over best-of snapshot seconds.
    """
    stream = make_stream(n_events, n_workers, n_tasks, seed)
    print(
        f"durable-resume: {len(stream)} events over {n_workers} workers x "
        f"{n_tasks} tasks ({backend} backend, micro-batch {batch_size}, "
        f"snapshot every {snapshot_every} batches vs pure WAL)"
    )

    reference_evaluator = IncrementalEvaluator(3, 1, backend="dict")
    reference_evaluator.apply_batch(stream, auto_extend=True)
    reference = {
        estimate.worker: estimate
        for estimate in MWorkerEstimator(backend="dict").evaluate_all(
            reference_evaluator.matrix
        )
        if estimate.n_tasks > 0
    }

    def timed_resume(directory: str) -> tuple[float, bool]:
        best = float("inf")
        identical = False
        for _ in range(repeats):
            start = time.perf_counter()
            session = open_session(
                SessionConfig(durable=directory, backend=backend, fsync=False)
            )
            best = min(best, time.perf_counter() - start)
            estimates = session.evaluator.estimate_all()
            identical = set(estimates) == set(reference) and all(
                _identical(estimates[w], reference[w]) for w in reference
            )
            session.durable.close()
        return best, identical

    with tempfile.TemporaryDirectory() as root:
        snapshot_dir = os.path.join(root, "snapshots")
        wal_dir = os.path.join(root, "pure-wal")
        _build_durable_dir(snapshot_dir, stream, batch_size, backend, snapshot_every)
        _build_durable_dir(wal_dir, stream, batch_size, backend, None)
        resume_seconds, resume_identical = timed_resume(snapshot_dir)
        replay_seconds, replay_identical = timed_resume(wal_dir)

    speedup = replay_seconds / resume_seconds if resume_seconds > 0 else float("inf")
    identical = resume_identical and replay_identical
    print(
        f"  snapshot resume: {resume_seconds * 1000:8.2f} ms   "
        f"full WAL replay: {replay_seconds * 1000:8.2f} ms   "
        f"resume speedup: {speedup:.1f}x   bit-identical: {identical}"
    )
    return {
        "scenario": "stream-resume",
        "n_events": n_events,
        "n_workers": n_workers,
        "n_tasks": n_tasks,
        "batch_size": batch_size,
        "backend": backend,
        "snapshot_every": snapshot_every,
        "resume_seconds": resume_seconds,
        "full_replay_seconds": replay_seconds,
        "resume_speedup": speedup,
        "bit_identical": identical,
    }


def run_with_shards(
    n_events: int,
    n_workers: int,
    n_tasks: int,
    seed: int,
    batch_size: int,
    backend: str = "dense",
    shard_spec: str = "thread:2",
    eval_points: int = 8,
) -> dict:
    """Time ingest-then-evaluate wall clock: serial vs sharded recomputes.

    Replays one stream through two sessions with ``evaluate_all`` forced at
    ``eval_points`` evenly spaced stream positions (the live-dashboard
    pattern: ingest a while, evaluate, repeat).  The serial twin runs
    ``shards=1``; the sharded twin runs ``shard_spec``, whose incremental
    recomputes go through the dependency-ledger footprint path and the
    execution tiers.  Both must serve bit-identical estimates; the wall
    clock comparison is what the ``--max-shard-overhead`` gate consumes.
    """
    stream = make_stream(n_events, n_workers, n_tasks, seed)
    every = max(1, len(stream) // eval_points)
    print(
        f"with-shards: {len(stream)} events over {n_workers} workers x "
        f"{n_tasks} tasks ({backend} backend, micro-batch {batch_size}, "
        f"evaluate_all every {every} events, serial vs {shard_spec})"
    )

    def timed(spec):
        async def go():
            async with open_session(
                SessionConfig(backend=backend, max_batch=batch_size, shards=spec)
            ) as session:
                for index, event in enumerate(stream):
                    await session.submit(*event)
                    if (index + 1) % every == 0:
                        await session.flush()
                        await session.evaluate_all()
                await session.flush()
                return (
                    await session.evaluate_all(),
                    session.evaluator.matrix.copy(),
                )

        start = time.perf_counter()
        estimates, matrix = asyncio.run(go())
        return time.perf_counter() - start, estimates, matrix

    serial_seconds, serial_estimates, matrix = timed(1)
    sharded_seconds, sharded_estimates, _ = timed(shard_spec)
    reference = {
        estimate.worker: estimate
        for estimate in MWorkerEstimator(backend="dict").evaluate_all(matrix)
        if estimate.n_tasks > 0
    }
    identical = all(
        set(estimates) == set(reference)
        and all(_identical(estimates[w], reference[w]) for w in reference)
        for estimates in (serial_estimates, sharded_estimates)
    )
    overhead = (
        sharded_seconds / serial_seconds if serial_seconds > 0 else float("inf")
    )
    print(
        f"  serial ingest+evaluate: {serial_seconds:7.3f}s   "
        f"{shard_spec}: {sharded_seconds:7.3f}s   "
        f"overhead: {overhead:.2f}x   bit-identical: {identical}"
    )
    return {
        "scenario": "stream-shards",
        "n_events": n_events,
        "n_workers": n_workers,
        "n_tasks": n_tasks,
        "batch_size": batch_size,
        "backend": backend,
        "shard_spec": shard_spec,
        "eval_points": eval_points,
        "serial_seconds": serial_seconds,
        "sharded_seconds": sharded_seconds,
        "shard_overhead": overhead,
        "bit_identical": identical,
    }


def _append_trajectory(path: str, result: dict, smoke: bool) -> None:
    """Append a scenario result to the committed trend file's trajectory.

    Entries are scenario-keyed (``bench_scaling_agreement._comparable``
    only trends entries whose ``scenario`` matches), so ``stream-resume``
    and ``stream-shards`` rows ride in the same list without perturbing
    the scaling trend gate.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    entry = dict(result)
    entry.update(
        {
            "python": platform.python_version(),
            "smoke": smoke,
            "date": time.strftime("%Y-%m-%d"),
        }
    )
    data.setdefault("trajectory", []).append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
    print(f"appended {entry['scenario']} trajectory entry to {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=10_000)
    parser.add_argument("--workers", type=int, default=60)
    parser.add_argument("--tasks", type=int, default=600)
    parser.add_argument("--seed", type=int, default=977)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--backend", default="dense",
                        choices=["dense", "sparse", "bitset", "dict", "auto"])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small configuration for CI (overrides --events/--workers/--tasks)",
    )
    parser.add_argument(
        "--min-invalidation-ratio", type=float, default=3.0,
        help="exit non-zero unless batching cuts invalidation passes by this "
        "factor (default 3; deterministic, unlike wall-clock gates)",
    )
    parser.add_argument("--output", default=None,
                        help="optional JSON output path")
    parser.add_argument(
        "--durable-resume", action="store_true",
        help="also run the durability scenario: snapshot resume vs full WAL "
        "replay on a 5k-event stream (see --min-resume-speedup)",
    )
    parser.add_argument(
        "--resume-events", type=int, default=5000,
        help="stream length for the durable-resume scenario (default 5000, "
        "the locked fixture size; independent of --events/--smoke)",
    )
    parser.add_argument(
        "--min-resume-speedup", type=float, default=5.0,
        help="exit non-zero unless snapshot resume beats full WAL replay by "
        "this factor (default 5; only with --durable-resume)",
    )
    parser.add_argument(
        "--with-shards", action="store_true",
        help="also run the sharded-recompute scenario: ingest-then-evaluate "
        "wall clock, serial vs --shard-spec (see --max-shard-overhead)",
    )
    parser.add_argument(
        "--shard-spec", default="thread:2",
        help="shard spec for the --with-shards scenario (default thread:2)",
    )
    parser.add_argument(
        "--max-shard-overhead", type=float, default=2.0,
        help="exit non-zero if the sharded ingest-then-evaluate wall clock "
        "exceeds the serial twin by this factor (default 2; only with "
        "--with-shards)",
    )
    parser.add_argument(
        "--trajectory", default=None,
        help="trend file (BENCH_agreement.json) to append the stream-resume "
        "and stream-shards entries to",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.events, args.workers, args.tasks = 3000, 30, 250

    result = run(
        args.events, args.workers, args.tasks, args.seed,
        args.batch_size, backend=args.backend,
    )
    resume_result = None
    if args.durable_resume:
        resume_result = run_durable_resume(
            args.resume_events, args.workers, args.tasks, args.seed,
            backend="dense" if args.backend in ("dict", "auto") else args.backend,
        )
        result["durable_resume"] = resume_result
        if args.trajectory:
            _append_trajectory(args.trajectory, resume_result, args.smoke)
    shards_result = None
    if args.with_shards:
        shards_result = run_with_shards(
            args.events, args.workers, args.tasks, args.seed,
            args.batch_size,
            backend="dense" if args.backend in ("dict", "auto") else args.backend,
            shard_spec=args.shard_spec,
        )
        result["with_shards"] = shards_result
        if args.trajectory:
            _append_trajectory(args.trajectory, shards_result, args.smoke)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    if not result["bit_identical"]:
        print("FAIL: streamed paths disagree with the batch build", file=sys.stderr)
        return 1
    if (
        args.backend != "dict"
        and result["invalidation_ratio"] < args.min_invalidation_ratio
    ):
        print(
            f"FAIL: invalidation reduction {result['invalidation_ratio']:.1f}x "
            f"below required {args.min_invalidation_ratio:.1f}x",
            file=sys.stderr,
        )
        return 1
    if resume_result is not None:
        if not resume_result["bit_identical"]:
            print(
                "FAIL: resumed sessions disagree with the batch build",
                file=sys.stderr,
            )
            return 1
        if resume_result["resume_speedup"] < args.min_resume_speedup:
            print(
                f"FAIL: resume speedup {resume_result['resume_speedup']:.1f}x "
                f"below required {args.min_resume_speedup:.1f}x",
                file=sys.stderr,
            )
            return 1
    if shards_result is not None:
        if not shards_result["bit_identical"]:
            print(
                "FAIL: sharded streamed evaluation disagrees with the batch "
                "build",
                file=sys.stderr,
            )
            return 1
        if shards_result["shard_overhead"] > args.max_shard_overhead:
            print(
                "FAIL: sharded ingest-then-evaluate wall clock "
                f"{shards_result['shard_overhead']:.2f}x serial exceeds the "
                f"allowed {args.max_shard_overhead:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
