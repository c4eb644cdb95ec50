"""The benchmark inputs are a pure function of (workload, seed)."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.m_worker import MWorkerEstimator  # noqa: E402

from perfbench.inputs import RATE_RANGE, WORKLOADS, make_inputs  # noqa: E402
from perfbench.workloads import cells_matrix, quality  # noqa: E402

ARRAYS = ("true_rates", "workers", "tasks", "labels", "events")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_arrays_and_quality_bits(workload):
    first, second = make_inputs(workload, 7), make_inputs(workload, 7)
    for name in ARRAYS:
        a, b = getattr(first, name), getattr(second, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert not np.array_equal(first.events, make_inputs(workload, 8).events)

    def score(inputs):
        estimator = MWorkerEstimator(backend=WORKLOADS[workload]["backend"])
        return quality(estimator.evaluate_all(cells_matrix(inputs)), inputs.true_rates)

    mean_width, coverage = score(first)
    assert (mean_width, coverage) == score(second)
    assert 0.0 < mean_width < 1.0 and 0.0 < coverage <= 1.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_match_the_workload_spec(workload):
    spec = WORKLOADS[workload]
    inputs = make_inputs(workload, 3)
    low, high = RATE_RANGE
    assert inputs.true_rates.shape == (spec["n_workers"],)
    assert ((inputs.true_rates >= low) & (inputs.true_rates <= high)).all()
    cells = list(zip(inputs.workers.tolist(), inputs.tasks.tolist()))
    assert len(set(cells)) == len(cells)
    assert len(cells) == round(spec["fill"] * spec["n_workers"] * spec["n_tasks"])
    # The last event of each cell carries the cell's final label.
    final = {}
    for worker, task, label in inputs.events.tolist():
        final[worker, task] = label
    assert final == dict(zip(cells, inputs.labels.tolist()))


def test_stream_revises_a_tenth_of_cells():
    inputs = make_inputs("stream-live", 5)
    revised = inputs.events.shape[0] - inputs.workers.size
    assert revised == round(WORKLOADS["stream-live"]["wrong_frac"] * inputs.workers.size)
