"""Figure 5(a): k-ary interval accuracy vs confidence level.

Paper setting: arity k in {2, 3, 4}, n in {100, 1000} tasks, 3 workers using
the paper's response-probability matrices, 500 repetitions.  Expected shape:
accuracy close to the diagonal; for small n and arity > 2 the method is
somewhat conservative (accuracy above the diagonal), and with n = 1000 it is
close to ideal.
"""

from __future__ import annotations

from conftest import emit

from repro.evaluation.experiments import figure5a_kary_accuracy


def bench_fig5a_kary_accuracy(bench_scale):
    result = figure5a_kary_accuracy(
        arities=(2, 3, 4),
        task_counts=(100, 1000),
        confidence_grid=bench_scale["confidence_grid"],
        n_repetitions=bench_scale["kary_repetitions"],
        seed=11,
    )
    emit(result)

    # Qualitative shape: at the highest confidence level every configuration
    # reaches high accuracy, and no configuration undershoots the nominal
    # level catastrophically.
    top_confidence = bench_scale["confidence_grid"][-1]
    for label, series in result.sweep.series.items():
        top_accuracy = series.y_at(top_confidence)
        assert top_accuracy >= top_confidence - 0.15, (
            f"{label}: accuracy {top_accuracy:.2f} at c={top_confidence} is too "
            "far below the nominal level"
        )
