"""Figure 3: interval accuracy on the real-data stand-ins (no spammer filter).

Paper setting: IC (48x19, regular thinned to 80 %), RTE (800x164, sparse),
TEM (462x76, sparse); the "true" error rate is the gold-derived empirical
rate.  Expected shape: accuracy reasonably close to the diagonal, with some
points falling below it at high confidence — the shortfall that Figure 4's
spammer filter then repairs.
"""

from __future__ import annotations

from conftest import emit

from repro.evaluation.experiments import figure3_real_data_accuracy


def bench_fig3_real_accuracy(bench_scale):
    result = figure3_real_data_accuracy(
        datasets=("ic", "rte", "tem"),
        confidence_grid=bench_scale["confidence_grid"],
        seed=7,
    )
    emit(result)

    # Qualitative shape: accuracy increases with the confidence level for
    # every dataset, and is meaningfully high at the top of the grid.
    for label, series in result.sweep.series.items():
        accuracies = series.ys
        assert accuracies[-1] >= accuracies[0], (
            f"{label}: accuracy should not decrease from the lowest to the "
            "highest confidence level"
        )
        assert accuracies[-1] >= 0.6, (
            f"{label}: accuracy at the highest confidence level should be "
            f"substantial, got {accuracies[-1]:.2f}"
        )
