"""Figure 2(c): interval size with Lemma-5 optimal weights vs uniform weights.

Paper setting: m = 7 workers, n = 100 tasks, per-worker density ramp
d_i = (0.5 i + m - i) / m so triples differ strongly in quality.  Expected
shape: optimized weights give clearly smaller intervals than uniform weights
at every confidence level (about 2x in the paper at c = 0.5).
"""

from __future__ import annotations

from conftest import emit

from repro.evaluation.experiments import figure2c_weight_optimization


def bench_fig2c_weights(bench_scale):
    result = figure2c_weight_optimization(
        n_workers=7,
        n_tasks=100,
        confidence_grid=bench_scale["confidence_grid"],
        n_repetitions=bench_scale["repetitions"],
        seed=3,
    )
    emit(result)

    optimized = result.sweep.series["with optimization"]
    uniform = result.sweep.series["no optimization"]
    for (confidence, size_opt), (_, size_uni) in zip(optimized.points, uniform.points):
        assert size_opt < size_uni, (
            f"optimized weights should give tighter intervals at c={confidence}: "
            f"{size_opt:.3f} vs {size_uni:.3f}"
        )
    # At mid confidence the gap is substantial (paper reports roughly 2x).
    mid = 0.5 if 0.5 in [round(c, 2) for c in optimized.xs] else optimized.xs[len(optimized.xs) // 2]
    assert uniform.y_at(mid) > 1.3 * optimized.y_at(mid), (
        "weight optimization should reduce the interval size substantially "
        f"at c={mid}: {optimized.y_at(mid):.3f} vs {uniform.y_at(mid):.3f}"
    )
