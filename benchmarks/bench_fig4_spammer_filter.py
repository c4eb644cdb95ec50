"""Figure 4: interval accuracy on the real-data stand-ins after spammer pruning.

Same setting as Figure 3, but workers whose disagreement-with-majority
exceeds 0.4 are removed before estimation (Section III-E2).  Expected shape:
accuracy at high confidence levels improves relative to Figure 3 (pruning the
near-spammers removes the agreement-rate singularities that hurt coverage).
"""

from __future__ import annotations

import numpy as np
from conftest import emit

from repro.evaluation.experiments import (
    figure3_real_data_accuracy,
    figure4_spammer_filtered_accuracy,
)


def bench_fig4_spammer_filter(bench_scale):
    result = figure4_spammer_filtered_accuracy(
        datasets=("ic", "rte", "tem"),
        confidence_grid=bench_scale["confidence_grid"],
        seed=7,
    )
    emit(result)

    # Compare against the unfiltered run (Figure 3) at the top confidence
    # levels, where the paper reports the improvement.
    unfiltered = figure3_real_data_accuracy(
        datasets=("ic", "rte", "tem"),
        confidence_grid=bench_scale["confidence_grid"][-2:],
        seed=7,
    )
    top_confidences = bench_scale["confidence_grid"][-2:]
    improvements = []
    for label in result.sweep.labels:
        filtered_series = result.sweep.series[label]
        unfiltered_series = unfiltered.sweep.series[label]
        for confidence in top_confidences:
            improvements.append(
                filtered_series.y_at(confidence) - unfiltered_series.y_at(confidence)
            )
    mean_improvement = float(np.mean(improvements))
    print(
        f"\nmean accuracy change at the top confidence levels after spammer "
        f"filtering: {mean_improvement:+.3f}"
    )
    assert mean_improvement > -0.05, (
        "spammer filtering should not hurt high-confidence accuracy on average"
    )
