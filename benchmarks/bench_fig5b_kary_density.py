"""Figure 5(b): average k-ary interval size vs density and arity.

Paper setting: n = 500 tasks, c = 0.8, arity k in {2, 3, 4}, densities
0.5-0.95.  Expected shape: interval size decreases with density and increases
with arity (more parameters to estimate from the same data).
"""

from __future__ import annotations

from conftest import emit

from repro.evaluation.experiments import figure5b_kary_density


def bench_fig5b_kary_density(bench_scale):
    densities = (0.5, 0.7, 0.9)
    result = figure5b_kary_density(
        arities=(2, 3, 4),
        densities=densities,
        n_tasks=500,
        confidence=0.8,
        n_repetitions=bench_scale["kary_repetitions"],
        seed=13,
    )
    emit(result)

    # Interval size shrinks with density for every arity...
    for label, series in result.sweep.series.items():
        assert series.y_at(densities[-1]) < series.y_at(densities[0]), (
            f"{label}: interval size should shrink as density grows"
        )
    # ...and grows with arity at every density.
    for density in densities:
        size_2 = result.sweep.series["arity 2"].y_at(density)
        size_4 = result.sweep.series["arity 4"].y_at(density)
        assert size_4 > size_2, (
            f"arity-4 intervals should be wider than arity-2 at density {density}: "
            f"{size_4:.3f} vs {size_2:.3f}"
        )
