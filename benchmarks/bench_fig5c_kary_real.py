"""Figure 5(c): k-ary interval accuracy on the MOOC / WSD / WS stand-ins.

Paper setting: random worker triples with at least t tasks in common
(t = 60/100/30 on the originals; scaled to the stand-ins' overlap structure
here), 50 triples, gold-derived confusion matrices as the truth.  Expected
shape: accuracy near the diagonal, somewhat conservative at low confidence,
approaching the ideal line at high confidence.
"""

from __future__ import annotations

from conftest import emit

from repro.evaluation.experiments import figure5c_kary_real_data


def bench_fig5c_kary_real(bench_scale):
    result = figure5c_kary_real_data(
        datasets=("mooc", "wsd", "ws"),
        confidence_grid=bench_scale["confidence_grid"],
        n_triples=bench_scale["n_triples"],
        seed=17,
    )
    emit(result)

    top_confidence = bench_scale["confidence_grid"][-1]
    low_confidence = bench_scale["confidence_grid"][0]
    for label, series in result.sweep.series.items():
        # Conservative (at or above nominal) at the low end of the grid.
        assert series.y_at(low_confidence) >= low_confidence - 0.05, (
            f"{label}: accuracy at c={low_confidence} fell clearly below nominal"
        )
        # Not catastrophically under-covering at the top of the grid.
        assert series.y_at(top_confidence) >= top_confidence - 0.2, (
            f"{label}: accuracy at c={top_confidence} is too far below nominal"
        )
