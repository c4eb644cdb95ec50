"""Ablation: delta-method intervals (the paper) vs nonparametric bootstrap.

The bootstrap is the obvious do-it-yourself alternative to the paper's
analytical intervals.  This bench compares the two on the same simulated
non-regular data along three axes: coverage, mean interval width, and wall
time per dataset.  The expected outcome, matching the paper's motivation for
closed-form intervals: comparable coverage, with the bootstrap costing two to
three orders of magnitude more compute (hundreds of re-estimations per
dataset).
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.bootstrap import BootstrapEstimator
from repro.core.m_worker import MWorkerEstimator
from repro.evaluation.reporting import format_table
from repro.simulation.binary import simulate_binary_responses
from repro.types import EstimateStatus


def _run_bootstrap_comparison(
    n_workers: int,
    n_tasks: int,
    density: float,
    confidence: float,
    n_repetitions: int,
    n_resamples: int,
    seed: int,
) -> dict[str, dict[str, float]]:
    rng = np.random.default_rng(seed)
    metrics = {
        "paper (delta method)": {"covered": [], "sizes": [], "seconds": []},
        "bootstrap": {"covered": [], "sizes": [], "seconds": []},
    }
    delta_estimator = MWorkerEstimator(confidence=confidence)
    for repetition in range(n_repetitions):
        matrix, true_rates = simulate_binary_responses(
            n_workers, n_tasks, rng, density=density
        )
        start = time.perf_counter()
        delta_estimates = delta_estimator.evaluate_all(matrix)
        metrics["paper (delta method)"]["seconds"].append(time.perf_counter() - start)

        bootstrap_estimator = BootstrapEstimator(
            confidence=confidence, n_resamples=n_resamples, seed=seed + repetition
        )
        start = time.perf_counter()
        bootstrap_estimates = bootstrap_estimator.evaluate_all(matrix)
        metrics["bootstrap"]["seconds"].append(time.perf_counter() - start)

        for worker in range(n_workers):
            truth = float(true_rates[worker])
            delta = delta_estimates[worker]
            if delta.status is not EstimateStatus.DEGENERATE:
                metrics["paper (delta method)"]["covered"].append(
                    delta.interval.contains(truth)
                )
                metrics["paper (delta method)"]["sizes"].append(delta.interval.size)
            boot = bootstrap_estimates[worker]
            if boot.status is not EstimateStatus.DEGENERATE:
                metrics["bootstrap"]["covered"].append(boot.interval.contains(truth))
                metrics["bootstrap"]["sizes"].append(boot.interval.size)
    return {
        name: {
            "coverage": float(np.mean(values["covered"])),
            "mean_size": float(np.mean(values["sizes"])),
            "seconds_per_dataset": float(np.mean(values["seconds"])),
        }
        for name, values in metrics.items()
    }


def bench_ablation_bootstrap(bench_scale):
    confidence = 0.8
    summary = _run_bootstrap_comparison(
        n_workers=5,
        n_tasks=100,
        density=0.8,
        confidence=confidence,
        n_repetitions=max(5, bench_scale["repetitions"] // 8),
        n_resamples=100,
        seed=41,
    )
    print()
    print("ablation: analytical (delta-method) intervals vs bootstrap "
          "(5 workers, 100 tasks, density 0.8, c=0.8)")
    header = ["method", "coverage", "mean size", "seconds / dataset"]
    rows = [
        [
            name,
            f"{values['coverage']:.3f}",
            f"{values['mean_size']:.3f}",
            f"{values['seconds_per_dataset']:.3f}",
        ]
        for name, values in summary.items()
    ]
    print(format_table(header, rows))

    paper = summary["paper (delta method)"]
    bootstrap = summary["bootstrap"]
    # The analytical intervals keep coverage without the bootstrap's cost.
    assert paper["coverage"] >= confidence - 0.15
    assert paper["seconds_per_dataset"] < bootstrap["seconds_per_dataset"]
