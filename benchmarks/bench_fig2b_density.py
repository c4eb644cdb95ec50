"""Figure 2(b): interval size vs data density at c = 0.8.

Paper setting: (m, n) in {(7, 100), (3, 300), (7, 300)}, densities 0.5-0.95.
Expected shape: interval size decreases as density increases (roughly
proportional to 1/density), and larger (m, n) gives smaller intervals.
"""

from __future__ import annotations

from conftest import emit

from repro.evaluation.experiments import figure2b_density


def bench_fig2b_density(bench_scale):
    densities = (0.5, 0.6, 0.7, 0.8, 0.9)
    result = figure2b_density(
        configurations=((7, 100), (3, 300), (7, 300)),
        densities=densities,
        confidence=0.8,
        n_repetitions=bench_scale["repetitions"],
        seed=2,
    )
    emit(result)

    # Qualitative shape: lowest-density intervals are the widest, and the
    # size trend over the density grid is decreasing end-to-end.
    for label, series in result.sweep.series.items():
        size_low = series.y_at(densities[0])
        size_high = series.y_at(densities[-1])
        assert size_high < size_low, (
            f"{label}: interval size should shrink with density "
            f"({size_low:.3f} at d={densities[0]} vs {size_high:.3f} at d={densities[-1]})"
        )
    # The best-provisioned configuration (7 workers, 300 tasks) is tightest.
    for density in densities:
        best = result.sweep.series["7 workers, 300 tasks"].y_at(density)
        small = result.sweep.series["7 workers, 100 tasks"].y_at(density)
        assert best < small, (
            f"7x300 should beat 7x100 at density {density}: {best:.3f} vs {small:.3f}"
        )
