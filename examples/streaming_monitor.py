"""Streaming example: monitoring worker quality as responses arrive.

Crowdsourcing platforms do not deliver results in one batch — responses
trickle in as workers pick up tasks.  The paper's conclusion notes its
methods "can be easily modified to be incremental"; this example uses
:class:`repro.core.IncrementalEvaluator` to maintain live confidence
intervals for every worker while a simulated stream of responses arrives,
and flags workers the moment the evidence is strong enough to act on
(interval entirely above / below a quality threshold).

Run with:  python examples/streaming_monitor.py
"""

from __future__ import annotations

import numpy as np

from repro.core import IncrementalEvaluator
from repro.simulation import BinaryWorkerPopulation
from repro.types import EstimateStatus

THRESHOLD = 0.25
CONFIDENCE = 0.9
N_WORKERS = 6
N_TASKS = 400
BATCH_SIZE = 150
SEED = 11


def main() -> None:
    rng = np.random.default_rng(SEED)
    # Ground truth: one clearly bad worker (index 5), the rest good-to-decent.
    true_error_rates = np.array([0.08, 0.12, 0.15, 0.2, 0.22, 0.42])
    population = BinaryWorkerPopulation(error_rates=true_error_rates)
    matrix = population.generate(N_TASKS, rng, densities=0.7)
    stream = list(matrix.iter_responses())
    rng.shuffle(stream)

    evaluator = IncrementalEvaluator(
        n_workers=N_WORKERS, n_tasks=N_TASKS, confidence=CONFIDENCE
    )
    decided: dict[int, str] = {}

    print(
        f"streaming {len(stream)} responses in batches of {BATCH_SIZE}; "
        f"acting once an interval clears or crosses the {THRESHOLD} threshold\n"
    )
    for start in range(0, len(stream), BATCH_SIZE):
        batch = stream[start:start + BATCH_SIZE]
        evaluator.add_responses(batch)
        estimates = evaluator.estimate_all()
        print(f"after {evaluator.n_responses:4d} responses:")
        for worker in range(N_WORKERS):
            if worker not in estimates:
                continue
            estimate = estimates[worker]
            if estimate.status is EstimateStatus.DEGENERATE:
                continue
            interval = estimate.interval
            verdict = decided.get(worker, "")
            if not verdict:
                if interval.lower > THRESHOLD:
                    decided[worker] = verdict = "FIRE (confidently above threshold)"
                elif interval.upper <= THRESHOLD:
                    decided[worker] = verdict = "cleared (confidently good)"
            print(
                f"  worker {worker}: [{interval.lower:.3f}, {interval.upper:.3f}] "
                f"true={true_error_rates[worker]:.2f} {verdict}"
            )
        print()

    undecided = [worker for worker in range(N_WORKERS) if worker not in decided]
    print(f"decisions made: {decided}")
    print(f"still gathering evidence for workers: {undecided}")
    print(
        "\nNote how the clearly-bad worker is flagged only once their interval "
        "lies above the threshold — not on the first unlucky batch — which is "
        "exactly the behaviour the paper argues for."
    )


if __name__ == "__main__":
    main()
