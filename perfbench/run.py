"""Benchmark of batch and live crowd evaluation.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-sparse --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --steadiness 10 [--workload W] [--trace 1]

A run prints each metric by name and unit, the host fingerprint and the
CPU steal ticks of the run, any failed check, and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer metrics, measured by wrapping the
library's layer functions, and the run also prints each end-to-end metric
traced minus untraced.

The workloads (see ``perfbench/inputs.py``):

* ``batch-sparse`` (and ``batch-dense``, defined but not registered in
  ``BENCHMARK.json``: with three registered workloads each run was too
  short to be steady on a 2-vCPU host) evaluate a generated response
  matrix with ``MWorkerEstimator``: warm ``evaluate_all`` repeats
  (``eval_s``), single-worker reads on a matrix that keeps receiving the
  last quarter of the responses (``fresh_read_ms_*``,
  ``live_events_per_s``), bulk loads with ``ResponseMatrix.from_arrays``
  (``ingest_events_per_s``) and restarts from the responses saved as CSV
  (``recover_s``).
* ``stream-live`` feeds a durable, fsynced session from one closed-loop
  producer: an ingest phase of writes only, a live phase with a fresh
  read every 250 events and an ``evaluate_all`` every 2500
  (``eval_s``), then a crash and the resume of several copies of the
  crashed directory, each answering one ``evaluate_all`` (``recover_s``).

``--steadiness N`` runs every workload of ``BENCHMARK.json`` (or the one
named) N times with seeds 1..N, each in its own process, and prints each
end-to-end metric's median and quartile spread against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread, set before NumPy loads.  On a host of a few shared cores
# two BLAS threads spin-wait on each other whenever either loses its core,
# so the timings measure the scheduler: with one core kept busy by another
# process, batch-sparse ``evaluate_all`` took twice as long with two BLAS
# threads and no longer with one (two threads gave no speed-up when idle).
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SECONDS = 36
#: Kill a steadiness-mode child that runs longer than this.
CHILD_TIMEOUT_S = 900


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _require_library() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: the library sources are missing under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))


def _format(value: float) -> str:
    return f"{value:.6g}"


def run_once(workload: str, seed: int, seconds: float, traced: bool) -> int:
    from perfbench import host, workloads

    spec = _load_spec()
    declared = spec["per_layer" if traced else "end_to_end"]
    work_dir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    steal_before = host.steal_ticks()
    try:
        metrics, checks, comparison = workloads.run(
            workload, seed, seconds, work_dir, traced
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    steal_after = host.steal_ticks()
    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(metrics):
        sys.exit(
            "error: measured metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(names) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(names))}"
        )
    fingerprint = host.fingerprint()
    fingerprint["steal_ticks"] = (
        None if steal_before is None else steal_after - steal_before
    )
    print(f"workload {workload} seed {seed} trace {int(traced)}")
    print("host " + json.dumps(fingerprint, sort_keys=True))
    for entry in declared:
        print(f"  {entry['name']:<48} {_format(metrics[entry['name']]):>14} {entry['unit']}")
    if comparison is not None:
        untraced, traced_values = comparison
        print("tracing overhead (traced minus untraced, one pass each):")
        for entry in spec["end_to_end"]:
            name = entry["name"]
            if name in untraced:
                delta = traced_values[name] - untraced[name]
                print(f"  {name:<48} {_format(delta):>14} {entry['unit']}")
    for note in checks.notes:
        print(f"note: {note}")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }
    print(json.dumps(result))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    sys.stdout.write(completed.stdout)
    return json.loads(lines[-1])


def steadiness(workloads: list[str], runs: int, seconds: float, trace: int) -> int:
    """Run each workload ``runs`` times and print medians and spreads."""
    spec = _load_spec()
    verdicts = []
    for workload in workloads:
        results = [_child(workload, seed, seconds, 0) for seed in range(1, runs + 1)]
        print(f"\n== {workload}: {runs} runs, seeds 1..{runs}")
        print(f"  {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  unit")
        for entry in spec["end_to_end"]:
            values = [r["metrics"][entry["name"]]["value"] for r in results]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median
            bound = entry["bound"]
            if entry["name"] == "setup_s":
                verdict = "set-up"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within"
            else:
                verdict = "NOISY"
            verdicts.append(verdict)
            print(
                f"  {entry['name']:<24} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                f"{spread:>8.4f} {bound:>6}  {entry['unit']}  {verdict}"
            )
        print(f"  correct in {sum(r['correct'] for r in results)}/{runs} runs")
        if trace:
            _child(workload, 1, seconds, 1)
    return 1 if "NOISY" in verdicts else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N")
    args = parser.parse_args(argv)
    _require_library()
    from perfbench.inputs import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.steadiness is not None:
        if args.steadiness < 1:
            parser.error("--steadiness needs at least one run")
        registered = [entry["name"] for entry in _load_spec()["workloads"]]
        chosen = [args.workload] if args.workload else registered
        return steadiness(chosen, args.steadiness, args.seconds, args.trace)
    if args.workload is None:
        parser.error("--workload is required (or use --steadiness N)")
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
