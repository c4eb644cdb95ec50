"""Seeded property fuzz for the sparse/bitset agreement backends.

Complements the structured cases of the cross-backend differential suite
with adversarial randomized ones, following the 50-seed parametrized-loop
pattern of ``test_incremental_and_new_baselines.py``: each seed draws a
*ragged* sparse response matrix — per-worker densities spanning the whole
0.01–0.9 regime, workers left with zero or one usable partner, and blocks
of degenerate all-agree columns (which drive agreement rates onto the
clamp) — and asserts that the sparse and bitset backends reproduce the
dict-of-dicts reference bit for bit on batch evaluation and on the spammer
filter's proxies.
"""

from __future__ import annotations

import numpy as np

from test_cross_backend_differential import assert_estimates_bit_identical

from repro.core.m_worker import MWorkerEstimator
from repro.core.spammer_filter import filter_spammers
from repro.data.response_matrix import ResponseMatrix


def _ragged_matrix(seed: int) -> ResponseMatrix:
    """One adversarial ragged matrix per seed (see module docstring)."""
    fuzz = np.random.default_rng(seed)
    n_workers = int(fuzz.integers(5, 11))
    n_tasks = int(fuzz.integers(25, 70))
    arity = 2
    matrix = ResponseMatrix(n_workers=n_workers, n_tasks=n_tasks, arity=arity)
    truth = fuzz.integers(0, arity, size=n_tasks)
    # Ragged fill: a mix of near-empty (0.01) and near-full (0.9) workers.
    densities = np.where(
        fuzz.random(n_workers) < 0.3,
        fuzz.uniform(0.01, 0.08, size=n_workers),
        fuzz.uniform(0.15, 0.9, size=n_workers),
    )
    error_rates = fuzz.uniform(0.0, 0.45, size=n_workers)
    # A block of degenerate all-agree columns: everyone who answers these
    # tasks answers the planted truth, pushing pair agreement rates to 1.
    all_agree_until = int(fuzz.integers(0, n_tasks // 3 + 1))
    for worker in range(n_workers):
        attempted = np.nonzero(fuzz.random(n_tasks) < densities[worker])[0]
        for task in attempted.tolist():
            if task < all_agree_until or fuzz.random() >= error_rates[worker]:
                label = int(truth[task])
            else:
                label = int(1 - truth[task])
            matrix.add_response(worker, task, label)
    # 0/1-partner workers: one worker answering a single task nobody else
    # touched (zero partners), and — on odd seeds — a pair overlapping only
    # each other on one dedicated task (exactly one usable partner).
    loner = int(fuzz.integers(0, n_workers))
    lone_task = int(fuzz.integers(0, n_tasks))
    for other in range(n_workers):
        if other != loner:
            matrix.remove_response(other, lone_task)
    matrix.add_response(loner, lone_task, int(truth[lone_task]))
    if seed % 2 and n_tasks > 1:
        pair_task = (lone_task + 1) % n_tasks
        first, second = sorted(fuzz.choice(n_workers, size=2, replace=False))
        for other in range(n_workers):
            if other not in (first, second):
                matrix.remove_response(other, pair_task)
        matrix.add_response(first, pair_task, int(truth[pair_task]))
        matrix.add_response(second, pair_task, int(truth[pair_task]))
    return matrix


def _assert_bit_identical(reference, candidate, context: str) -> None:
    """Length check plus the differential suite's per-estimate equality
    (shared so the exact-equality contract lives in exactly one place)."""
    assert len(candidate) == len(reference), context
    for ref, cand in zip(reference, candidate):
        assert_estimates_bit_identical(ref, cand, context)


def test_sparse_and_bitset_fuzz_match_dict_reference():
    """50-seed fuzz: ragged sparse matrices, bit-identical across backends."""
    n_seeds = 50
    for seed in range(n_seeds):
        matrix = _ragged_matrix(seed)
        reference = MWorkerEstimator(confidence=0.9, backend="dict").evaluate_all(
            matrix
        )
        for backend in ("sparse", "bitset"):
            candidate = MWorkerEstimator(
                confidence=0.9, backend=backend
            ).evaluate_all(matrix)
            _assert_bit_identical(reference, candidate, f"seed={seed} {backend}")
        # The spammer filter's majority-disagreement proxies come from an
        # entirely different read path (vote table); pin those too.
        dict_proxies = filter_spammers(matrix, backend="dict").approximate_error_rates
        for backend in ("sparse", "bitset"):
            assert (
                filter_spammers(matrix, backend=backend).approximate_error_rates
                == dict_proxies
            ), f"seed={seed} {backend} proxies"
