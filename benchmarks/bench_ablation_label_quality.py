"""Ablation: label-aggregation quality using the paper's worker estimates.

The paper's pitch is that better worker assessment improves downstream crowd
algorithms.  This bench measures the most direct downstream effect — task
label accuracy — for four aggregators on the same simulated non-regular data:

* plain majority vote,
* Karger-Oh-Shah message passing,
* Dawid-Skene EM posteriors,
* quality-weighted voting using the paper's interval estimates
  (:func:`repro.core.task_inference.infer_binary_labels`).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.dawid_skene import dawid_skene
from repro.baselines.karger_oh_shah import karger_oh_shah
from repro.baselines.majority_vote import majority_vote_labels
from repro.core.estimator import evaluate_workers
from repro.core.task_inference import infer_binary_labels, label_accuracy
from repro.evaluation.reporting import format_table
from repro.simulation.binary import BinaryWorkerPopulation, sample_error_rates


def _run_label_quality(
    n_workers: int, n_tasks: int, density: float, n_repetitions: int, seed: int
) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    accuracies: dict[str, list[float]] = {
        "majority vote": [],
        "Karger-Oh-Shah": [],
        "Dawid-Skene EM": [],
        "paper estimates + weighted vote": [],
    }
    # A wide quality spread (including near-spammers) is where weighting matters.
    palette = (0.05, 0.1, 0.2, 0.35, 0.45)
    for _ in range(n_repetitions):
        population = BinaryWorkerPopulation(
            error_rates=sample_error_rates(n_workers, rng, palette=palette)
        )
        matrix = population.generate(n_tasks, rng, densities=density)
        accuracies["majority vote"].append(
            label_accuracy(matrix, majority_vote_labels(matrix))
        )
        accuracies["Karger-Oh-Shah"].append(
            label_accuracy(matrix, karger_oh_shah(matrix).labels)
        )
        accuracies["Dawid-Skene EM"].append(
            label_accuracy(matrix, dawid_skene(matrix).most_likely_labels())
        )
        estimates = evaluate_workers(matrix, confidence=0.9)
        accuracies["paper estimates + weighted vote"].append(
            label_accuracy(matrix, infer_binary_labels(matrix, estimates))
        )
    return {name: float(np.mean(values)) for name, values in accuracies.items()}


def bench_ablation_label_quality(bench_scale):
    results = _run_label_quality(
        n_workers=7,
        n_tasks=120,
        density=0.8,
        n_repetitions=max(8, bench_scale["repetitions"] // 4),
        seed=37,
    )
    print()
    print("ablation: task-label accuracy by aggregator "
          "(7 workers incl. near-spammers, 120 tasks, density 0.8)")
    header = ["aggregator", "label accuracy"]
    rows = [[name, f"{accuracy:.4f}"] for name, accuracy in results.items()]
    print(format_table(header, rows))

    weighted = results["paper estimates + weighted vote"]
    majority = results["majority vote"]
    assert weighted >= majority - 0.01, (
        "quality-weighted voting should not be worse than plain majority vote"
    )
