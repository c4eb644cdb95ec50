"""Figure 1: interval size vs confidence level, new technique vs old technique.

Paper setting: n = 100 tasks, m in {3, 7} workers, regular data, worker error
rates drawn from {0.1, 0.2, 0.3}, 500 repetitions.  Expected shape: the new
(delta-method) intervals are strictly smaller than the old (super-worker,
conservative) intervals at every confidence level, with roughly a 30-40 %
reduction at moderate confidence, and 7 workers give smaller intervals than 3.
"""

from __future__ import annotations

from conftest import emit

from repro.evaluation.experiments import figure1_old_vs_new


def bench_fig1_old_vs_new(bench_scale):
    result = figure1_old_vs_new(
        n_tasks=100,
        worker_counts=(3, 7),
        confidence_grid=bench_scale["confidence_grid"],
        n_repetitions=bench_scale["repetitions"],
        seed=0,
    )
    emit(result)

    # Qualitative shape: new is tighter than old for every m and c.
    for n_workers in (3, 7):
        new_series = result.sweep.series[f"new technique, {n_workers} workers"]
        old_series = result.sweep.series[f"old technique, {n_workers} workers"]
        for (confidence, new_size), (_, old_size) in zip(
            new_series.points, old_series.points
        ):
            assert new_size < old_size, (
                f"new technique should be tighter than old at m={n_workers}, "
                f"c={confidence}: {new_size:.3f} vs {old_size:.3f}"
            )
    # More workers give tighter intervals at the same confidence.
    new_3 = result.sweep.series["new technique, 3 workers"]
    new_7 = result.sweep.series["new technique, 7 workers"]
    for (confidence, size_3), (_, size_7) in zip(new_3.points, new_7.points):
        assert size_7 < size_3, (
            f"7-worker intervals should be tighter than 3-worker at c={confidence}"
        )
