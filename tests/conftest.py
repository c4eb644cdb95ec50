"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro.data.response_matrix import ResponseMatrix
from repro.simulation.binary import BinaryWorkerPopulation
from repro.simulation.kary import KaryWorkerPopulation, PAPER_CONFUSION_MATRICES


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_binary_matrix() -> ResponseMatrix:
    """A tiny hand-written binary matrix with three workers and gold labels.

    Worker 0 and 1 are mostly right; worker 2 flips several answers.
    """
    gold = [0, 1, 0, 1, 0, 1, 0, 1]
    responses = {
        0: [0, 1, 0, 1, 0, 1, 0, 1],   # perfect
        1: [0, 1, 0, 1, 0, 1, 1, 1],   # one mistake
        2: [1, 1, 0, 0, 0, 1, 1, 0],   # four mistakes
    }
    matrix = ResponseMatrix(n_workers=3, n_tasks=8, arity=2)
    for worker, labels in responses.items():
        for task, label in enumerate(labels):
            matrix.add_response(worker, task, label)
    matrix.set_gold_labels(gold)
    return matrix


@pytest.fixture
def non_regular_matrix() -> ResponseMatrix:
    """A 4-worker binary matrix where workers skip different tasks."""
    matrix = ResponseMatrix(n_workers=4, n_tasks=10, arity=2)
    gold = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    patterns = {
        0: range(0, 8),
        1: range(2, 10),
        2: range(0, 10),
        3: range(1, 9),
    }
    flips = {0: set(), 1: {3}, 2: {0, 5}, 3: {2, 7}}
    for worker, tasks in patterns.items():
        for task in tasks:
            label = gold[task]
            if task in flips[worker]:
                label = 1 - label
            matrix.add_response(worker, task, label)
    matrix.set_gold_labels(gold)
    return matrix


@pytest.fixture
def simulated_binary(rng) -> tuple[ResponseMatrix, np.ndarray]:
    """A moderate simulated binary dataset with known error rates."""
    population = BinaryWorkerPopulation(error_rates=np.array([0.1, 0.2, 0.3, 0.15, 0.25]))
    matrix = population.generate(150, rng, densities=0.85)
    return matrix, population.error_rates


@pytest.fixture
def simulated_kary(rng) -> tuple[ResponseMatrix, list[np.ndarray]]:
    """A simulated 3-ary dataset with three workers and known confusion matrices."""
    matrices = [PAPER_CONFUSION_MATRICES[3][index].copy() for index in (0, 1, 2)]
    population = KaryWorkerPopulation(confusion_matrices=matrices)
    matrix = population.generate(400, rng, densities=0.9)
    return matrix, matrices


#: Committed durable directories in the legacy multi-writer layout (see
#: ``fixtures/legacy_layout/generate.py`` for how they were written).
LEGACY_LAYOUT_DIR = Path(__file__).parent / "fixtures" / "legacy_layout"


class LegacyFixture(NamedTuple):
    directory: Path
    stream: list[tuple[int, int, int]]
    submitted: int
    survived: list[tuple[int, int, int]]


@pytest.fixture
def legacy_layout(tmp_path):
    """Factory copying a legacy-layout fixture directory into ``tmp_path``.

    ``legacy_layout("snapshotted")`` returns the copy's path, the full event
    stream it was cut from, how many of those events were submitted before
    the directory was frozen, and the submitted events that survived (in
    stream order) — the ones a resume must restore.
    """
    manifest = json.loads((LEGACY_LAYOUT_DIR / "manifest.json").read_text())
    stream = [tuple(event) for event in manifest["stream"]]

    def copy(name: str, destination: Path | None = None) -> LegacyFixture:
        entry = manifest["fixtures"][name]
        directory = Path(
            shutil.copytree(LEGACY_LAYOUT_DIR / name, destination or tmp_path / name)
        )
        lost = set(entry["lost"])
        survived = [stream[i] for i in range(entry["submitted"]) if i not in lost]
        return LegacyFixture(directory, stream, entry["submitted"], survived)

    return copy
