"""Ablation: greedy triple selection (Section III-C1) vs random pairing.

The paper argues that pairing the evaluated worker with partners that share
many tasks — and letting the weight optimization down-weight the poor
triples — yields tighter intervals than an arbitrary pairing.  This bench
measures the mean interval size under both strategies on non-regular data
with a per-worker density ramp (so partner choice actually matters).
"""

from __future__ import annotations

import numpy as np

from repro.core.m_worker import MWorkerEstimator
from repro.evaluation.sweeps import SweepResult
from repro.evaluation.reporting import format_table, series_to_rows
from repro.simulation.binary import BinaryWorkerPopulation, sample_error_rates
from repro.simulation.density import per_worker_density_ramp
from repro.types import EstimateStatus


def _mean_size(estimates) -> float:
    sizes = [
        e.interval.size for e in estimates if e.status is not EstimateStatus.DEGENERATE
    ]
    return float(np.mean(sizes)) if sizes else float("nan")


def _run_pairing_ablation(
    n_workers: int, n_tasks: int, confidence: float, n_repetitions: int, seed: int
) -> SweepResult:
    rng = np.random.default_rng(seed)
    densities = per_worker_density_ramp(n_workers)
    sweep = SweepResult(
        name="ablation-pairing",
        x_label="confidence level",
        y_label="mean interval size",
    )
    greedy_sizes = []
    random_sizes = []
    for _ in range(n_repetitions):
        population = BinaryWorkerPopulation(
            error_rates=sample_error_rates(n_workers, rng)
        )
        matrix = population.generate(n_tasks, rng, densities=densities)
        greedy = MWorkerEstimator(confidence=confidence, pairing_strategy="greedy")
        random_strategy = MWorkerEstimator(
            confidence=confidence, pairing_strategy="random", rng=rng
        )
        greedy_sizes.append(_mean_size(greedy.evaluate_all(matrix)))
        random_sizes.append(_mean_size(random_strategy.evaluate_all(matrix)))
    sweep.add_point("greedy pairing", confidence, float(np.nanmean(greedy_sizes)))
    sweep.add_point("random pairing", confidence, float(np.nanmean(random_sizes)))
    return sweep


def bench_ablation_pairing(bench_scale):
    confidence = 0.8
    sweep = _run_pairing_ablation(
        n_workers=9,
        n_tasks=100,
        confidence=confidence,
        n_repetitions=bench_scale["repetitions"],
        seed=23,
    )
    header, rows = series_to_rows(sweep)
    print()
    print("ablation: greedy vs random triple pairing (9 workers, 100 tasks, density ramp)")
    print(format_table(header, rows))

    greedy_size = sweep.series["greedy pairing"].y_at(confidence)
    random_size = sweep.series["random pairing"].y_at(confidence)
    print(f"\ngreedy {greedy_size:.4f} vs random {random_size:.4f}")
    # Greedy should not be worse than random by any meaningful margin.
    assert greedy_size <= random_size * 1.05, (
        "greedy pairing should be at least as tight as random pairing"
    )
