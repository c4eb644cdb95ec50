"""Workload runners: batch evaluation and a live, durable session.

Both runners call the library only through its public API.  A run without
tracing measures the end-to-end metrics over repeated units of work until
``seconds`` have passed: batch cycles, each of which samples every metric
once, or whole stream rounds on a fresh session.  ``setup_s`` is the median
of one set-up per batch cycle or :data:`SETUPS` per stream round.  A traced
run instead makes one fixed pass (one cycle or round) twice over the same
inputs, untraced and then traced, so its per-layer totals compare across
commits and the difference between the two passes is the tracing overhead.

Every operation a user would see is checked after its timed region, never
inside it: repeats must be bit-identical, intervals well-formed, a
``backend="dict"`` oracle must agree on one worker, streamed estimates must
equal a fresh batch build, and every recovered session must equal the
acknowledged state before the crash.
"""

from __future__ import annotations

import asyncio
import math
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro import ResponseMatrix
from repro.core.m_worker import MWorkerEstimator
from repro.data.loaders import load_response_matrix_csv, save_response_matrix_csv
from repro.serve import SessionConfig, open_session
from repro.types import EstimateStatus

from perfbench import tracing
from perfbench.inputs import WORKLOADS, Inputs, make_inputs

#: Stream set-ups per round; ``setup_s`` is the median of all set-ups.
SETUPS = 3
#: Share of the events that arrive while reads are served (the live phase).
LIVE_SHARE = 0.25
#: A fresh single-worker read after every this many live events.
READ_EVERY = 250
#: A full ``evaluate_all`` after every this many live events (stream only):
#: thirteen per round, so ``eval_s`` is a median of enough samples.
EVALUATE_ALL_EVERY = 2500
#: Batch measurement cycles per run at least (a traced pass makes one).
MIN_CYCLES = 3
#: Warm ``evaluate_all`` calls per batch cycle behind ``eval_s``.
EVALS_PER_CYCLE = 2
#: Fresh reads per batch cycle: three cycles give the 100 reads that put
#: ten samples beyond the 90th percentile.
READS_PER_CYCLE = 34
#: Bulk loads per batch cycle behind ``ingest_events_per_s``.
BULK_LOADS_PER_CYCLE = 3
#: Stream rounds per run at least (a traced pass makes one).
MIN_ROUNDS = 2
#: Copies of the crashed stream directory each resumed once.
RECOVER_COPIES = 6
SNAPSHOT_EVERY = 100
#: The library's default confidence level, which every workload uses.
CONFIDENCE = 0.95

perf = time.perf_counter


class Checks:
    """Every checked operation of a run and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        #: Observations that are not failures (trace targets not found).
        self.notes: list[str] = []

    def record(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def well_formed(estimate) -> bool:
    interval = estimate.interval
    values = (interval.mean, interval.lower, interval.upper, interval.deviation)
    if not all(math.isfinite(value) for value in values):
        return False
    if not (0.0 <= interval.lower <= interval.mean <= interval.upper <= 1.0):
        return False
    if interval.deviation < 0.0 or interval.confidence != CONFIDENCE:
        return False
    if estimate.n_tasks <= 0 or len(estimate.weights) != len(estimate.triples):
        return False
    return (
        estimate.status is EstimateStatus.DEGENERATE
        or abs(math.fsum(estimate.weights) - 1.0) < 1e-6
    )


def quality(estimates, true_rates: np.ndarray) -> tuple[float, float]:
    """Mean width and coverage of the usable (non-degenerate) intervals."""
    usable = [e for e in estimates if e.status is not EstimateStatus.DEGENERATE]
    widths = [e.interval.upper - e.interval.lower for e in usable]
    covered = [
        e.interval.lower <= true_rates[e.worker] <= e.interval.upper for e in usable
    ]
    return math.fsum(widths) / len(usable), float(sum(covered)) / len(usable)


def _prefix_matrix(inputs: Inputs, stop: int) -> ResponseMatrix:
    """The first ``stop`` events, as a response matrix."""
    events = inputs.events[:stop]
    return ResponseMatrix.from_arrays(
        events[:, 0],
        events[:, 1],
        events[:, 2],
        n_workers=inputs.n_workers,
        n_tasks=inputs.n_tasks,
    )


def cells_matrix(inputs: Inputs) -> ResponseMatrix:
    """Every answered cell with its final label, as a response matrix."""
    return ResponseMatrix.from_arrays(
        inputs.workers,
        inputs.tasks,
        inputs.labels,
        n_workers=inputs.n_workers,
        n_tasks=inputs.n_tasks,
    )


def _median(values) -> float:
    return float(statistics.median(values))


def _read_percentiles(read_times: list[float]) -> dict[str, float]:
    return {
        "fresh_read_ms_p50": 1e3 * _median(read_times),
        "fresh_read_ms_p90": 1e3 * float(np.percentile(read_times, 90)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# batch-dense / batch-sparse
# ---------------------------------------------------------------------- #


def _setup_batch(workload: str, seed: int):
    start = perf()
    inputs = make_inputs(workload, seed)
    matrix = cells_matrix(inputs)
    estimator = MWorkerEstimator(backend=WORKLOADS[workload]["backend"])
    first = estimator.evaluate_all(matrix)
    return perf() - start, inputs, matrix, estimator, first


class _LiveTail:
    """The batch API's live loop.

    The last :data:`LIVE_SHARE` of the responses keeps arriving in a matrix
    that holds the rest, and every :data:`READ_EVERY` events a fresh read
    of the worker just written rebuilds the statistics it needs.  When the
    tail runs out, the matrix is rebuilt from the prefix (untimed) and the
    tail replays.
    """

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.split = int(len(inputs.events) * (1.0 - LIVE_SHARE))
        self.tail = inputs.events[self.split :].tolist()
        self.position = len(self.tail)
        self.matrix: ResponseMatrix | None = None
        self.events = 0
        self.seconds = 0.0
        self.read_times: list[float] = []
        self.reads: list[tuple[int, object]] = []

    def advance(self, estimator: MWorkerEstimator, n_reads: int) -> None:
        for _ in range(n_reads):
            if self.position + READ_EVERY > len(self.tail):
                self.matrix = _prefix_matrix(self.inputs, self.split)
                self.position = 0
            matrix = self.matrix
            chunk = self.tail[self.position : self.position + READ_EVERY]
            start = perf()
            for worker, task, label in chunk[:-1]:
                matrix.add_response(worker, task, label)
            t0 = perf()
            worker, task, label = chunk[-1]
            matrix.add_response(worker, task, label)
            estimate = estimator.evaluate_worker(matrix, worker)
            end = perf()
            self.read_times.append(end - t0)
            self.seconds += end - start
            self.events += len(chunk)
            self.position += len(chunk)
            self.reads.append((worker, estimate))

    def finish(self) -> ResponseMatrix:
        """Apply the rest of the tail (untimed): the matrix then holds every cell."""
        for worker, task, label in self.tail[self.position :]:
            self.matrix.add_response(worker, task, label)
        self.position = len(self.tail)
        return self.matrix


def _batch_cycles(
    workload: str,
    seed: int,
    seconds: float,
    min_cycles: int,
    work_dir: Path,
    checks: Checks,
) -> dict:
    """Measurement cycles until ``seconds`` have passed (``min_cycles`` at least).

    Every cycle samples every metric: a set-up, warm ``evaluate_all``
    calls, a slice of the live loop, bulk loads and a restart from the
    persisted CSV.  Interleaving spreads each metric's samples
    over the whole run, so a slow spell of the host weighs on all of them
    alike instead of on whichever phase it happened to hit.
    """
    run_start = perf()
    setups, evals, load_times, restarts = [], [], [], []
    loaded_events = 0
    reference = live = None
    csv_path = work_dir / f"{workload}-responses.csv"
    while len(setups) < min_cycles or perf() - run_start < seconds:
        setup_s, inputs, matrix, estimator, first = _setup_batch(workload, seed)
        setups.append(setup_s)
        if reference is None:
            reference, reference_matrix = first, matrix
            save_response_matrix_csv(matrix, csv_path)
            live = _LiveTail(inputs)
        else:
            checks.record("set-up evaluates bit-identically", first == reference)

        for _ in range(EVALS_PER_CYCLE):
            t0 = perf()
            repeat = estimator.evaluate_all(matrix)
            evals.append(perf() - t0)
            checks.record("warm evaluate_all repeats bit-identically", repeat == reference)
        del repeat, first

        live.advance(estimator, READS_PER_CYCLE)
        # Check and drop the reads, so memory does not grow with the cycles run.
        for worker, estimate in live.reads:
            checks.record(
                "fresh read well-formed", estimate.worker == worker and well_formed(estimate)
            )
        live.reads.clear()

        for _ in range(BULK_LOADS_PER_CYCLE):
            t0 = perf()
            loaded = cells_matrix(inputs)
            load_times.append(perf() - t0)
            loaded_events += len(inputs.workers)
            checks.record(
                "bulk load holds every response",
                loaded.n_responses == len(inputs.workers),
            )
        del loaded

        t0 = perf()
        restored = load_response_matrix_csv(
            csv_path, n_workers=inputs.n_workers, n_tasks=inputs.n_tasks, arity=2
        )
        estimates = MWorkerEstimator(backend=estimator.backend).evaluate_all(restored)
        restarts.append(perf() - t0)
        checks.record("restart from CSV evaluates bit-identically", estimates == reference)
        del restored, estimates
    csv_path.unlink()
    checks.record(
        "live matrix evaluates bit-identically to the batch build",
        estimator.evaluate_all(live.finish()) == reference,
    )
    return {
        "inputs": inputs,
        "matrix": reference_matrix,
        "first": reference,
        "setup_times": setups,
        "eval_times": evals,
        "read_times": live.read_times,
        "live_rate": live.events / live.seconds,
        "ingest_rate": loaded_events / math.fsum(load_times),
        "recover_times": restarts,
        "wall_s": perf() - run_start,
    }


def _batch_metrics(result: dict) -> dict[str, float]:
    mean_width, coverage = quality(result["first"], result["inputs"].true_rates)
    return {
        "setup_s": _median(result["setup_times"]),
        "eval_s": _median(result["eval_times"]),
        "ingest_events_per_s": result["ingest_rate"],
        "live_events_per_s": result["live_rate"],
        **_read_percentiles(result["read_times"]),
        "recover_s": _median(result["recover_times"]),
        "mean_width": mean_width,
        "coverage": coverage,
    }


def _batch_oracle(seed: int, result: dict, checks: Checks) -> None:
    first = result["first"]
    for estimate in first:
        checks.record("interval well-formed", well_formed(estimate))
    worker = seed % len(first)
    oracle = MWorkerEstimator(backend="dict").evaluate_worker(result["matrix"], worker)
    checks.record(f"dict oracle agrees on worker {worker}", oracle == first[worker])


def run_batch(workload: str, seed: int, seconds: float, work_dir: Path, traced: bool):
    checks = Checks()
    if not traced:
        result = _batch_cycles(workload, seed, seconds, MIN_CYCLES, work_dir, checks)
        _batch_oracle(seed, result, checks)
        return _batch_metrics(result), checks, None
    _setup_batch(workload, seed)  # warm the process so both passes start alike
    base = _batch_cycles(workload, seed, 0.0, 1, work_dir, checks)
    _batch_oracle(seed, base, checks)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        start = time.perf_counter_ns()
        traced_result = _batch_cycles(workload, seed, 0.0, 1, work_dir, checks)
        wall_ns = time.perf_counter_ns() - start
    finally:
        tracer.uninstall()
    checks.record(
        "traced pass bit-identical to untraced", traced_result["first"] == base["first"]
    )
    comparison = (_batch_metrics(base), _batch_metrics(traced_result))
    return _traced_metrics(tracer, wall_ns, base, traced_result, checks), checks, comparison


# ---------------------------------------------------------------------- #
# stream-live
# ---------------------------------------------------------------------- #


def _setup_stream(workload: str, seed: int):
    """Inputs plus the warm-up evaluation, a fresh build over every cell."""
    start = perf()
    inputs = make_inputs(workload, seed)
    events = inputs.events.tolist()
    reference = MWorkerEstimator(backend=WORKLOADS[workload]["backend"]).evaluate_all(
        cells_matrix(inputs)
    )
    return perf() - start, inputs, events, reference


async def _stream_round(events: list, directory: Path, backend: str, tracer) -> dict:
    """Ingest, then live reads beside writes, then crash and recover."""
    n_ingest = int(len(events) * (1.0 - LIVE_SHARE))
    config = SessionConfig(
        backend=backend, durable=str(directory / "live"), snapshot_every=SNAPSHOT_EVERY
    )
    session = open_session(config)
    session.start()
    try:
        submit = session.submit
        start = perf()
        for worker, task, label in events[:n_ingest]:
            await submit(worker, task, label)
        acknowledged = await session.flush()
        ingest_s = perf() - start

        evaluator = session.evaluator
        reads, read_times, evaluations, eval_times = [], [], [], []
        recomputed = 0
        live = events[n_ingest:]
        start = perf()
        for count, (worker, task, label) in enumerate(live, 1):
            if count % READ_EVERY:
                await submit(worker, task, label)
            else:
                before = evaluator.recompute_count
                t0 = perf()
                await submit(worker, task, label)
                await session.flush()
                reads.append((worker, await session.evaluate_worker(worker)))
                read_times.append(perf() - t0)
                recomputed += evaluator.recompute_count - before
            if count % EVALUATE_ALL_EVERY == 0:
                t0 = perf()
                evaluations.append(await session.evaluate_all())
                eval_times.append(perf() - t0)
        await session.flush()
        live_s = perf() - start
        final = await session.evaluate_all()
    finally:
        await session.abort()

    recover_times, recovered = [], []
    for index in range(RECOVER_COPIES):
        copy = directory / f"copy-{index}"
        shutil.copytree(directory / "live", copy)
        start = perf()
        with tracer.span(tracing.RESUME_SPAN) if tracer else nullcontext():
            resumed = open_session(config.replace(durable=str(copy)))
            resumed.start()
        try:
            estimates = await resumed.evaluate_all()
            recover_times.append(perf() - start)
        finally:
            await resumed.abort()
        recovered.append(estimates == final)
        shutil.rmtree(copy)
    shutil.rmtree(directory)
    if tracer:
        tracer.counts["core.incremental.recompute.workers"] += recomputed
        tracer.counts["core.incremental.recompute.reads"] += len(reads)
    return {
        "acknowledged_ok": acknowledged == n_ingest,
        "ingest": (n_ingest, ingest_s),
        "live": (len(live), live_s),
        "reads": reads,
        "read_times": read_times,
        "evaluations": evaluations,
        "eval_times": eval_times,
        "final": final,
        "recover_times": recover_times,
        "recovered": recovered,
    }


TIMING_KEYS = ("ingest", "live", "read_times", "eval_times", "recover_times")


def _check_round(result: dict, reference: list, checks: Checks) -> None:
    checks.record("every ingested event acknowledged", result["acknowledged_ok"])
    for worker, estimate in result["reads"]:
        checks.record(
            "fresh read well-formed", estimate.worker == worker and well_formed(estimate)
        )
    for estimates in result["evaluations"]:
        checks.record(
            "live evaluate_all well-formed",
            all(well_formed(e) for e in estimates.values()),
        )
    final = result["final"]
    checks.record(
        "streamed estimates bit-identical to a fresh batch build",
        len(final) == len(reference) and all(final.get(e.worker) == e for e in reference),
    )
    for ok in result["recovered"]:
        checks.record("recovered session bit-identical to the pre-crash state", ok)


def _stream_rounds(
    workload: str,
    seed: int,
    seconds: float,
    min_rounds: int,
    setups_per_round: int,
    work_dir: Path,
    tracer,
    checks: Checks,
) -> dict:
    """Whole stream rounds, each on a fresh session, until ``seconds`` passed."""
    run_start = perf()
    setups, rounds = [], []
    while len(rounds) < min_rounds or perf() - run_start < seconds:
        for _ in range(setups_per_round):
            setup_s, inputs, events, reference = _setup_stream(workload, seed)
            setups.append(setup_s)
        directory = work_dir / f"round-{len(rounds)}"
        result = asyncio.run(
            _stream_round(events, directory, WORKLOADS[workload]["backend"], tracer)
        )
        _check_round(result, reference, checks)
        final = result["final"]
        # Keep only the timings, so memory does not grow with the rounds run.
        rounds.append({key: result[key] for key in TIMING_KEYS})
    for estimate in reference:
        checks.record("interval well-formed", well_formed(estimate))

    def rate(key):
        return sum(r[key][0] for r in rounds) / math.fsum(r[key][1] for r in rounds)

    mean_width, coverage = quality(reference, inputs.true_rates)
    return {
        "final": final,
        "wall_s": perf() - run_start,
        "metrics": {
            "setup_s": _median(setups),
            "eval_s": _median([t for r in rounds for t in r["eval_times"]]),
            "ingest_events_per_s": rate("ingest"),
            "live_events_per_s": rate("live"),
            **_read_percentiles([t for r in rounds for t in r["read_times"]]),
            "recover_s": _median([t for r in rounds for t in r["recover_times"]]),
            "mean_width": mean_width,
            "coverage": coverage,
        },
    }


def run_stream(workload: str, seed: int, seconds: float, work_dir: Path, traced: bool):
    checks = Checks()
    if not traced:
        result = _stream_rounds(
            workload, seed, seconds, MIN_ROUNDS, SETUPS, work_dir, None, checks
        )
        return result["metrics"], checks, None
    _setup_stream(workload, seed)  # warm the process so both passes start alike
    base = _stream_rounds(workload, seed, 0.0, 1, 1, work_dir / "base", None, checks)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        start = time.perf_counter_ns()
        traced_result = _stream_rounds(
            workload, seed, 0.0, 1, 1, work_dir / "traced", tracer, checks
        )
        wall_ns = time.perf_counter_ns() - start
    finally:
        tracer.uninstall()
    checks.record(
        "traced pass bit-identical to untraced", traced_result["final"] == base["final"]
    )
    comparison = (base["metrics"], traced_result["metrics"])
    return _traced_metrics(tracer, wall_ns, base, traced_result, checks), checks, comparison


def _traced_metrics(tracer, wall_ns: int, base: dict, traced: dict, checks: Checks) -> dict:
    problems = tracing.self_time_violations(tracer, wall_ns)
    checks.record("span self times fit in the wall time: " + "; ".join(problems), not problems)
    checks.notes.extend(f"trace target not found: {target}" for target in tracer.missing)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1.0
    return metrics


def run(workload: str, seed: int, seconds: float, work_dir: Path, traced: bool):
    """Run ``workload``: ``(metrics, checks, untraced/traced comparison)``."""
    runner = run_stream if WORKLOADS[workload]["kind"] == "stream" else run_batch
    metrics, checks, comparison = runner(workload, seed, seconds, work_dir, traced)
    if not traced:
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["ok_frac"] = 1.0 - checks.failed / checks.attempted
    return metrics, checks, comparison
