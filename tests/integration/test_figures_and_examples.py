"""Integration tests: figure-reproduction functions and example scripts.

The figure functions are exercised with tiny parameters (structure and basic
shape only — the benchmarks run them at meaningful scale); the example
scripts are executed as subprocesses to guarantee the documented entry points
keep working.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.evaluation.experiments import (
    figure1_old_vs_new,
    figure2a_accuracy,
    figure2b_density,
    figure2c_weight_optimization,
    figure3_real_data_accuracy,
    figure4_spammer_filtered_accuracy,
    figure5a_kary_accuracy,
    figure5b_kary_density,
    figure5c_kary_real_data,
)
from repro.evaluation.reporting import format_experiment

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
TINY_GRID = (0.5, 0.8)


class TestFigureFunctions:
    def test_fig1(self):
        result = figure1_old_vs_new(
            n_tasks=60, worker_counts=(3,), confidence_grid=TINY_GRID, n_repetitions=4
        )
        assert len(result.sweep.labels) == 2
        new = result.sweep.series["new technique, 3 workers"]
        old = result.sweep.series["old technique, 3 workers"]
        assert all(n <= o for (_, n), (_, o) in zip(new.points, old.points))

    def test_fig2a(self):
        result = figure2a_accuracy(
            configurations=((3, 60),), confidence_grid=TINY_GRID, n_repetitions=8
        )
        for _, accuracy in result.series["3 workers 60 tasks"]:
            assert 0.0 <= accuracy <= 1.0

    def test_fig2b(self):
        result = figure2b_density(
            configurations=((3, 80),), densities=(0.6, 0.9), n_repetitions=8
        )
        series = result.sweep.series["3 workers, 80 tasks"]
        assert series.y_at(0.9) < series.y_at(0.6)

    def test_fig2c(self):
        result = figure2c_weight_optimization(
            n_workers=7, n_tasks=60, confidence_grid=(0.8,), n_repetitions=8
        )
        assert result.sweep.series["with optimization"].y_at(0.8) <= (
            result.sweep.series["no optimization"].y_at(0.8)
        )

    def test_fig3_and_fig4(self):
        fig3 = figure3_real_data_accuracy(datasets=("ic",), confidence_grid=TINY_GRID)
        fig4 = figure4_spammer_filtered_accuracy(
            datasets=("ic",), confidence_grid=TINY_GRID
        )
        assert fig3.sweep.labels == ["Image Comparison"]
        assert fig4.sweep.labels == ["Image Comparison"]
        assert "stand-ins" in fig3.notes

    def test_fig5a(self):
        result = figure5a_kary_accuracy(
            arities=(2,), task_counts=(80,), confidence_grid=TINY_GRID, n_repetitions=4
        )
        for _, accuracy in result.series["arity 2, 80 tasks"]:
            assert 0.0 <= accuracy <= 1.0

    def test_fig5b(self):
        result = figure5b_kary_density(
            arities=(2,), densities=(0.6, 0.9), n_tasks=150, n_repetitions=4
        )
        series = result.sweep.series["arity 2"]
        assert series.y_at(0.9) < series.y_at(0.6)

    def test_fig5c(self):
        result = figure5c_kary_real_data(
            datasets=("ws",), confidence_grid=(0.8,), n_triples=4
        )
        assert "Wordsim arity 2" in result.sweep.labels

    def test_format_experiment_renders_every_figure(self):
        result = figure1_old_vs_new(
            n_tasks=40, worker_counts=(3,), confidence_grid=(0.8,), n_repetitions=2
        )
        text = format_experiment(result)
        assert "fig1" in text
        assert "confidence level" in text


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "kary_peer_grading.py", "streaming_monitor.py"],
)
def test_example_scripts_run(script):
    """Each example executes successfully and prints something meaningful."""
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    assert len(completed.stdout.splitlines()) > 5


def test_dataset_benchmark_example_importable():
    """The heavyweight example is at least importable and its helpers work."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "dataset_benchmarks", EXAMPLES_DIR / "dataset_benchmarks.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    from repro.data import load_dataset

    matrix = load_dataset("ic")
    truth = module.gold_truth(matrix)
    assert truth
    assert module.rmse({worker: 0.2 for worker in truth}, truth) >= 0.0
