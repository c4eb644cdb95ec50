"""Scaling benchmark: the batch-evaluation execution paths, head to head.

Times ``MWorkerEstimator.evaluate_all`` on a non-regular binary matrix under
every execution path, verifies all paths return bit-identical intervals, and
reports the speedups:

* ``dict``           — the original dict-of-dicts statistics and the scalar
  reference loops (pure Python);
* ``batched_lemma4`` — the dense backend, which always runs the batched
  triple stage plus the grouped Lemma-4/5 aggregation (triple-count
  tensor, stacked covariance grids, one batched solve per group);
* ``sharded``        — the fully batched path partitioned across
  ``--shards`` threads of the reusable executor over one shared statistics
  object (wall-clock wins need actual cores, so this mainly tracks the
  orchestration overhead on CI).

``--shard-sweep`` additionally times the execution *tiers* (serial /
two threads / ``"auto"``) head to head on the headline
matrix, records what the cost model resolved ``"auto"`` to on this host,
verifies bit-identity across tiers, and appends its own trajectory entry;
``--min-shard-speedup`` turns the serial -> ``"auto"`` ratio into a gate
(vacuously passing on hosts where ``"auto"`` resolves serial).

The headline configuration (200 workers x 2000 tasks, density 0.6) is where
the per-worker Python overhead dominates once the statistics are dense.

``--sparse-regime`` additionally times the *sparse* workload (default 500
workers x 20000 tasks at 2% fill — the regime real crowdsourcing matrices
live in) under the fully batched ``dense``, ``sparse`` (scipy CSR pair
counts + fill-restricted triple grids) and ``bitset`` (packed-rows
low-memory) backends, verifies they are bit-identical, and appends its own
entry to the trajectory.  The dict reference is always skipped there (it is
minutes-slow at this size; the differential test suite pins the
backend-equality contract on small matrices instead).

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling_agreement.py          # full
    PYTHONPATH=src python benchmarks/bench_scaling_agreement.py --smoke  # CI
    PYTHONPATH=src python benchmarks/bench_scaling_agreement.py \
        --sparse-regime                       # + the 500x20000 @ 2% scenario

The results are written to ``BENCH_agreement.json`` (override with
``--output``) and *appended* to the file's dated ``trajectory`` list, so the
performance trend is tracked across commits; a trend gate compares the new
run's fully-batched timing against the most recent comparable trajectory
entry and prints a ``PERF WARNING`` when it regresses beyond the tolerance
(``--trend-tolerance``).  The gate is warn-only by default; ``--trend-fail``
promotes it to failing (the CI ``bench-gate`` job runs that mode now that
the committed trajectory has accumulated baseline entries).  The
pre-existing ``legacy_seconds``/
``dense_seconds``/``speedup`` keys are kept (``dense_seconds`` reports the
best in-process dense path).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np

from repro.core.m_worker import MWorkerEstimator
from repro.simulation.binary import simulate_binary_responses

#: The headline path; trajectory entries and the trend gate key off it
#: (falling back to ``dense_batched`` for older entries).
HEADLINE_PATH = "batched_lemma4"


def _identical(a, b) -> bool:
    return (
        a.interval.mean == b.interval.mean
        and a.interval.lower == b.interval.lower
        and a.interval.upper == b.interval.upper
        and a.interval.deviation == b.interval.deviation
        and a.weights == b.weights
        and a.status is b.status
    )


def _paths(shards: int, skip_dict: bool) -> dict[str, dict]:
    paths = {}
    if not skip_dict:
        paths["dict"] = {"backend": "dict"}
    paths[HEADLINE_PATH] = {"backend": "dense"}
    if shards > 1:
        paths["sharded"] = {"backend": "dense", "shards": shards}
    return paths


def run(
    n_workers: int,
    n_tasks: int,
    density: float,
    seed: int,
    confidence: float = 0.95,
    shards: int = 2,
    skip_dict: bool = False,
    repeats: int = 3,
) -> dict:
    """Time every execution path on one matrix and check bit-identity."""
    rng = np.random.default_rng(seed)
    matrix, _ = simulate_binary_responses(n_workers, n_tasks, rng, density=density)
    print(
        f"matrix: {n_workers} workers x {n_tasks} tasks, "
        f"{matrix.n_responses} responses (density {matrix.density:.2f})"
    )

    seconds: dict[str, float] = {}
    estimates: dict[str, list] = {}
    for name, config in _paths(shards, skip_dict).items():
        # Best-of-N timing (single pass for the very slow dict reference):
        # the minimum is the standard low-noise estimator on shared hosts.
        repetitions = 1 if name == "dict" else repeats
        best = float("inf")
        for _ in range(repetitions):
            start = time.perf_counter()
            estimates[name] = MWorkerEstimator(
                confidence=confidence, **config
            ).evaluate_all(matrix)
            best = min(best, time.perf_counter() - start)
        seconds[name] = best
        print(f"{name:>14}:  evaluate_all in {seconds[name]:8.2f}s")

    reference_name = next(iter(estimates))
    reference = estimates[reference_name]
    identical = all(
        len(result) == len(reference)
        and all(_identical(a, b) for a, b in zip(reference, result))
        for result in estimates.values()
    )
    print(f"bit-identical across all paths: {identical}")
    result = {
        "n_workers": n_workers,
        "n_tasks": n_tasks,
        "density": density,
        "n_responses": matrix.n_responses,
        "seed": seed,
        "path_seconds": seconds,
        "bit_identical": identical,
        # Trajectory-compatible keys (PR 1 recorded dict vs best-dense).
        "dense_seconds": seconds[HEADLINE_PATH],
    }
    if "dict" in seconds:
        result["legacy_seconds"] = seconds["dict"]
        result["speedup"] = (
            seconds["dict"] / seconds[HEADLINE_PATH]
            if seconds[HEADLINE_PATH] > 0
            else float("inf")
        )
        print(f"overall dict -> {HEADLINE_PATH} speedup: {result['speedup']:.1f}x")
    return result


def run_sparse_regime(
    n_workers: int,
    n_tasks: int,
    density: float,
    seed: int,
    confidence: float = 0.95,
    repeats: int = 1,
) -> dict:
    """Time the sparse-regime backends on one low-fill matrix.

    The dense path is included as the baseline the sparse/bitset backends
    are meant to beat here; the dict reference is skipped (minutes-slow).
    When scipy is unavailable the sparse path is dropped and the entry
    records only dense vs bitset.
    """
    from repro.data.sparse_backend import scipy_available

    rng = np.random.default_rng(seed)
    matrix, _ = simulate_binary_responses(n_workers, n_tasks, rng, density=density)
    print(
        f"sparse-regime matrix: {n_workers} workers x {n_tasks} tasks, "
        f"{matrix.n_responses} responses (density {matrix.density:.3f})"
    )
    paths: dict[str, dict] = {"dense_batched": {"backend": "dense"}}
    if scipy_available():
        paths["sparse"] = {"backend": "sparse"}
    else:
        print("scipy unavailable: skipping the sparse path (bitset still runs)")
    paths["bitset"] = {"backend": "bitset"}

    seconds: dict[str, float] = {}
    estimates: dict[str, list] = {}
    for name, config in paths.items():
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            estimates[name] = MWorkerEstimator(
                confidence=confidence, **config
            ).evaluate_all(matrix)
            best = min(best, time.perf_counter() - start)
        seconds[name] = best
        print(f"{name:>14}:  evaluate_all in {seconds[name]:8.2f}s")

    reference = next(iter(estimates.values()))
    identical = all(
        len(result) == len(reference)
        and all(_identical(a, b) for a, b in zip(reference, result))
        for result in estimates.values()
    )
    result = {
        "scenario": "sparse-regime",
        "n_workers": n_workers,
        "n_tasks": n_tasks,
        "density": density,
        "n_responses": matrix.n_responses,
        "seed": seed,
        "path_seconds": seconds,
        "bit_identical": identical,
    }
    for name in ("sparse", "bitset"):
        if name in seconds and seconds[name] > 0:
            speedup = seconds["dense_batched"] / seconds[name]
            result[f"{name}_speedup"] = speedup
            print(f"dense -> {name} speedup on the sparse regime: {speedup:.2f}x")
    print(f"bit-identical across sparse-regime paths: {identical}")
    return result


def run_shard_sweep(
    n_workers: int,
    n_tasks: int,
    density: float,
    seed: int,
    confidence: float = 0.95,
    repeats: int = 3,
) -> dict:
    """Time the execution tiers head to head on the headline matrix.

    Runs the dense path serially, on two threads and under ``"auto"``,
    checks bit-identity, and records what the cost model resolved
    ``"auto"`` to on this host.  ``"auto"`` resolves serial on hosts with
    fewer than two usable cores and, on any host, for matrices whose work
    proxy ``m^2 * n * fill`` falls below
    :data:`~repro.core.parallel.AUTO_SHARD_THREAD_MIN_WORK`; the smoke
    matrix (about 3.8e5 against 2^22) always does.  So the
    ``--min-shard-speedup`` gate binds only with two or more cores *and*
    enough work (:func:`_serial_reason` prints both inputs).
    """
    from repro.core.parallel import auto_shard_choice, available_cores

    rng = np.random.default_rng(seed)
    matrix, _ = simulate_binary_responses(n_workers, n_tasks, rng, density=density)
    cores = available_cores()
    auto_tier, auto_shards = auto_shard_choice(
        matrix.n_workers, matrix.n_tasks, matrix.n_responses
    )
    print(
        f"shard-sweep matrix: {n_workers} workers x {n_tasks} tasks, "
        f"{matrix.n_responses} responses; {cores} usable cores; "
        f'"auto" resolves to {auto_tier}:{auto_shards}'
    )

    tiers: dict[str, int | str] = {"serial": 1, "thread:2": 2, "auto": "auto"}
    seconds: dict[str, float] = {}
    estimates: dict[str, list] = {}
    for name, spec in tiers.items():
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            estimates[name] = MWorkerEstimator(
                confidence=confidence, backend="dense", shards=spec
            ).evaluate_all(matrix)
            best = min(best, time.perf_counter() - start)
        seconds[name] = best
        print(f"{name:>14}:  evaluate_all in {seconds[name]:8.2f}s")

    reference = estimates["serial"]
    identical = all(
        len(result) == len(reference)
        and all(_identical(a, b) for a, b in zip(reference, result))
        for result in estimates.values()
    )
    shard_speedup = (
        seconds["serial"] / seconds["auto"] if seconds["auto"] > 0 else float("inf")
    )
    print(
        f'serial -> "auto" speedup: {shard_speedup:.2f}x   '
        f"bit-identical across all tiers: {identical}"
    )
    return {
        "scenario": "shard-sweep",
        "n_workers": n_workers,
        "n_tasks": n_tasks,
        "density": density,
        "n_responses": matrix.n_responses,
        "seed": seed,
        "path_seconds": seconds,
        "cores": cores,
        "auto_tier": auto_tier,
        "auto_shards": auto_shards,
        "shard_speedup": shard_speedup,
        "bit_identical": identical,
    }


def _serial_reason(sweep: dict) -> str:
    """The inputs of the cost model's serial/thread choice for a sweep.

    ``"auto"`` engages threads only with at least two usable cores and a
    work proxy ``m^2 * n * fill`` (which equals ``m * responses``) of at
    least :data:`~repro.core.parallel.AUTO_SHARD_THREAD_MIN_WORK`; the
    string shows both so a vacuous pass says which one failed.
    """
    from repro.core.parallel import AUTO_SHARD_THREAD_MIN_WORK

    work = sweep["n_workers"] * sweep["n_responses"]
    return (
        f"{sweep['cores']} usable cores, work proxy m^2*n*fill = {work:.3g}; "
        "threads need at least 2 cores and work of at least "
        f"{AUTO_SHARD_THREAD_MIN_WORK:.3g}"
    )


def _watched_path(entry: dict) -> str | None:
    """Which path a result/trajectory entry is trend-tracked on.

    Headline entries are tracked on the fully-batched dense path;
    sparse-regime entries on the sparse (or, scipy-less, bitset) path —
    the backend the scenario exists to keep fast; shard-sweep entries on
    the ``"auto"`` tier the cost model picked.
    """
    path_seconds = entry.get("path_seconds", {})
    if entry.get("scenario") == "sparse-regime":
        keys = ("sparse", "bitset", "dense_batched")
    elif entry.get("scenario") == "shard-sweep":
        keys = ("auto", "serial")
    else:
        keys = (HEADLINE_PATH, "dense_batched")
    for key in keys:
        if key in path_seconds:
            return key
    return None


def _headline_seconds(entry: dict) -> float | None:
    """The watched-path timing of one result/trajectory entry."""
    key = _watched_path(entry)
    if key is not None:
        return float(entry["path_seconds"][key])
    if "dense_seconds" in entry:
        return float(entry["dense_seconds"])
    return None


def _comparable(entry: dict, result: dict) -> bool:
    if not (
        entry.get("n_workers") == result["n_workers"]
        and entry.get("n_tasks") == result["n_tasks"]
        and entry.get("density") == result["density"]
        and entry.get("scenario") == result.get("scenario")
    ):
        return False
    # Sparse-regime entries watch whichever of sparse/bitset the
    # environment provides: never trend one backend's timing against the
    # other's just because scipy availability changed between runs.
    # (Headline entries keep the intentional batched-lemma4 -> older
    # dense_batched fallback comparison.)
    if result.get("scenario") == "sparse-regime":
        return _watched_path(entry) == _watched_path(result)
    return True


def load_trajectory(output_path: str, result: dict) -> list[dict]:
    """Previous trajectory entries from the committed benchmark file.

    A pre-trajectory file (PR 1/2 format: one flat result object) is
    adopted as the first entry so the trend has a baseline from day one.
    """
    try:
        with open(output_path, "r", encoding="utf-8") as handle:
            previous = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return []
    trajectory = previous.get("trajectory")
    if trajectory is None:
        legacy = {
            key: value for key, value in previous.items() if key != "trajectory"
        }
        legacy.setdefault("date", "pre-trajectory")
        trajectory = [legacy]
    return list(trajectory)


def check_trend(
    trajectory: list[dict], result: dict, tolerance: float
) -> str | None:
    """Warn-only perf-trend gate: compare against the newest comparable entry.

    Returns the warning message (already printed) when the fully-batched
    timing regressed beyond ``tolerance`` relative to the baseline, else
    None.  Never fails the run — timings on shared CI hosts are noisy; the
    warning makes regressions visible in logs and in the committed file.
    """
    current = _headline_seconds(result)
    if current is None:
        return None
    for entry in reversed(trajectory):
        if not _comparable(entry, result):
            continue
        baseline = _headline_seconds(entry)
        if baseline is None or baseline <= 0:
            continue
        ratio = current / baseline
        if ratio > tolerance:
            message = (
                f"PERF WARNING: {_watched_path(result) or HEADLINE_PATH} path "
                f"took {current:.3f}s vs baseline {baseline:.3f}s "
                f"({ratio:.2f}x, tolerance {tolerance:.2f}x) from "
                f"{entry.get('date', 'unknown date')}"
            )
            print(message, file=sys.stderr)
            return message
        print(
            f"perf trend ok: {current:.3f}s vs baseline {baseline:.3f}s "
            f"({ratio:.2f}x <= {tolerance:.2f}x tolerance)"
        )
        return None
    print("perf trend: no comparable baseline entry yet")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=200)
    parser.add_argument("--tasks", type=int, default=2000)
    parser.add_argument("--density", type=float, default=0.6)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="thread count for the sharded path (<=1 skips it)",
    )
    parser.add_argument(
        "--skip-dict",
        action="store_true",
        help="skip the (very slow) dict-of-dicts reference timing",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="repetitions per dense path; the minimum is reported",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small configuration for CI (overrides --workers/--tasks)",
    )
    parser.add_argument(
        "--sparse-regime",
        action="store_true",
        help="also run the low-fill scenario (dense vs sparse vs bitset "
        "backends; appends its own trajectory entry)",
    )
    parser.add_argument(
        "--sparse-workers", type=int, default=500,
        help="worker count for the sparse-regime scenario",
    )
    parser.add_argument(
        "--sparse-tasks", type=int, default=20000,
        help="task count for the sparse-regime scenario",
    )
    parser.add_argument(
        "--sparse-density", type=float, default=0.02,
        help="fill for the sparse-regime scenario",
    )
    parser.add_argument(
        "--shard-sweep",
        action="store_true",
        help="also time the execution tiers (serial / 2 threads / auto) on "
        "the headline matrix and append a shard-sweep trajectory entry",
    )
    parser.add_argument("--output", default="BENCH_agreement.json")
    parser.add_argument(
        "--min-shard-speedup",
        type=float,
        default=None,
        help='with --shard-sweep: exit non-zero unless the serial -> "auto" '
        'speedup reaches this factor; vacuously passes where "auto" '
        "resolves serial (fewer than two usable cores, or a matrix whose "
        "work falls below the thread threshold, as the smoke matrix does)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help=f"exit non-zero unless the dict -> {HEADLINE_PATH} speedup "
        "reaches this factor",
    )
    parser.add_argument(
        "--trend-tolerance",
        type=float,
        default=1.25,
        help="warn when the fully-batched timing exceeds the last comparable "
        "trajectory entry by more than this factor (fails the run only "
        "with --trend-fail)",
    )
    parser.add_argument(
        "--trend-fail",
        action="store_true",
        help="promote the trend gate to failing: exit non-zero when any "
        "scenario regresses beyond --trend-tolerance (the dedicated CI "
        "bench-gate job runs this; the in-tree default stays warn-only "
        "for local runs)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.workers, args.tasks = 40, 400
        args.sparse_workers, args.sparse_tasks = 60, 1500
        args.sparse_density = max(args.sparse_density, 0.05)

    result = run(
        args.workers,
        args.tasks,
        args.density,
        args.seed,
        shards=args.shards,
        skip_dict=args.skip_dict,
        repeats=args.repeats,
    )
    result["python"] = platform.python_version()
    result["smoke"] = args.smoke
    result["date"] = time.strftime("%Y-%m-%d")

    sparse_result = None
    if args.sparse_regime:
        sparse_result = run_sparse_regime(
            args.sparse_workers,
            args.sparse_tasks,
            args.sparse_density,
            args.seed,
            repeats=args.repeats,
        )
        sparse_result["python"] = result["python"]
        sparse_result["smoke"] = args.smoke
        sparse_result["date"] = result["date"]

    sweep_result = None
    if args.shard_sweep:
        sweep_result = run_shard_sweep(
            args.workers,
            args.tasks,
            args.density,
            args.seed,
            repeats=args.repeats,
        )
        sweep_result["python"] = result["python"]
        sweep_result["smoke"] = args.smoke
        sweep_result["date"] = result["date"]

    trajectory = load_trajectory(args.output, result)
    comparable_pool = [
        entry for entry in trajectory if entry.get("smoke") == args.smoke
    ]
    warning = check_trend(comparable_pool, result, args.trend_tolerance)
    if warning is not None:
        result["trend_warning"] = warning
    if sparse_result is not None:
        # Same warn-only gate for the sparse-regime scenario (its entries
        # are matched by _comparable's scenario key and watched on the
        # sparse/bitset path).
        sparse_warning = check_trend(
            comparable_pool, sparse_result, args.trend_tolerance
        )
        if sparse_warning is not None:
            sparse_result["trend_warning"] = sparse_warning
        result["sparse_regime"] = dict(sparse_result)
    if sweep_result is not None:
        sweep_warning = check_trend(
            comparable_pool, sweep_result, args.trend_tolerance
        )
        if sweep_warning is not None:
            sweep_result["trend_warning"] = sweep_warning
        # Explicit vacuity marker: "auto" resolves serial on a single-core
        # runner or below the cost model's work threshold (the smoke
        # matrix), so a --min-shard-speedup gate passes without measuring
        # any sharding at all.  Record that in the result (and trajectory)
        # so a trend reader never mistakes a vacuous pass for a real one.
        sweep_result["vacuous"] = sweep_result["auto_tier"] == "serial"
        result["shard_sweep"] = dict(sweep_result)
    # The extra scenarios get their own trajectory entries; keep the
    # headline entry free of the nested copies.
    trajectory.append(
        {
            key: value
            for key, value in result.items()
            if key not in ("sparse_regime", "shard_sweep")
        }
    )
    if sparse_result is not None:
        trajectory.append(dict(sparse_result))
    if sweep_result is not None:
        trajectory.append(dict(sweep_result))
    result["trajectory"] = trajectory
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output} ({len(trajectory)} trajectory entries)")

    if not result["bit_identical"]:
        print("FAIL: execution paths disagree", file=sys.stderr)
        return 1
    if sparse_result is not None and not sparse_result["bit_identical"]:
        print("FAIL: sparse-regime backends disagree", file=sys.stderr)
        return 1
    if sweep_result is not None and not sweep_result["bit_identical"]:
        print("FAIL: execution tiers disagree", file=sys.stderr)
        return 1
    if args.min_shard_speedup is not None:
        if sweep_result is None:
            print(
                "FAIL: --min-shard-speedup requires --shard-sweep",
                file=sys.stderr,
            )
            return 1
        if sweep_result["auto_tier"] == "serial":
            reason = _serial_reason(sweep_result)
            print(
                'shard-speedup gate: "auto" resolved serial '
                f"({reason}) — gate passes vacuously"
            )
            # GitHub Actions annotation so the vacuous pass is visible on
            # the run summary, not just buried in the log and the JSON.
            print(
                "::notice title=shard-speedup gate vacuous::"
                f'"auto" resolved serial ({reason}); the '
                f"--min-shard-speedup {args.min_shard_speedup:g} gate "
                "measured no sharding (result marked \"vacuous\": true)"
            )
        elif sweep_result["shard_speedup"] < args.min_shard_speedup:
            print(
                f"FAIL: shard speedup {sweep_result['shard_speedup']:.2f}x "
                f"below required {args.min_shard_speedup:.2f}x "
                f"(auto={sweep_result['auto_tier']}:"
                f"{sweep_result['auto_shards']})",
                file=sys.stderr,
            )
            return 1
    if args.trend_fail:
        regressions = [
            message
            for message in (
                result.get("trend_warning"),
                (sparse_result or {}).get("trend_warning"),
                (sweep_result or {}).get("trend_warning"),
            )
            if message
        ]
        if regressions:
            for message in regressions:
                print(f"FAIL (trend gate): {message}", file=sys.stderr)
            return 1
    if args.min_speedup is not None:
        if "speedup" not in result:
            print("FAIL: --min-speedup requires the dict timing", file=sys.stderr)
            return 1
        if result["speedup"] < args.min_speedup:
            print(
                f"FAIL: speedup {result['speedup']:.1f}x below required "
                f"{args.min_speedup:.1f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
