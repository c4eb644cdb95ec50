"""Figure 2(a): interval-accuracy vs confidence, m-worker binary non-regular.

Paper setting: (m, n) in {3, 7} x {100, 300}, density 0.8, 500 repetitions.
Expected shape: interval-accuracy tracks the ideal y = x diagonal closely.
"""

from __future__ import annotations

from conftest import emit

from repro.evaluation.experiments import figure2a_accuracy


def bench_fig2a_accuracy(bench_scale):
    result = figure2a_accuracy(
        configurations=((3, 100), (3, 300), (7, 100), (7, 300)),
        density=0.8,
        confidence_grid=bench_scale["confidence_grid"],
        n_repetitions=bench_scale["repetitions"],
        seed=1,
    )
    emit(result)

    # Qualitative shape: coverage close to the diagonal.  With the reduced
    # repetition counts the Monte-Carlo noise is a few points, so the check is
    # a band around the ideal value rather than equality.
    tolerance = 0.18
    for label, series in result.sweep.series.items():
        for confidence, accuracy in series.points:
            assert accuracy >= confidence - tolerance, (
                f"{label}: accuracy {accuracy:.2f} too far below the nominal "
                f"confidence {confidence:.2f}"
            )
            if confidence >= 0.7:
                assert accuracy <= min(1.0, confidence + tolerance), (
                    f"{label}: accuracy {accuracy:.2f} unexpectedly above "
                    f"{confidence:.2f} + {tolerance}"
                )
