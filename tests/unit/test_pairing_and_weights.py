"""Unit tests for triple formation (Section III-C1) and Lemma-5 weights."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.agreement import compute_agreement_statistics
from repro.core.pairing import (
    form_triples,
    greedy_pairs,
    greedy_pairs_dense,
    random_pairs,
)
from repro.core.weights import combined_variance, optimal_weights, uniform_weights
from repro.data.response_matrix import ResponseMatrix
from repro.exceptions import ConfigurationError


def build_matrix_with_overlaps() -> ResponseMatrix:
    """Five workers with sharply different overlap with worker 0.

    Worker 1 and 2 share many tasks with worker 0; workers 3 and 4 share few.
    """
    matrix = ResponseMatrix(n_workers=5, n_tasks=20)
    ranges = {0: range(0, 16), 1: range(0, 16), 2: range(0, 14), 3: range(12, 20), 4: range(13, 20)}
    for worker, tasks in ranges.items():
        for task in tasks:
            matrix.add_response(worker, task, task % 2)
    return matrix


def random_nonregular_matrix(seed: int) -> ResponseMatrix:
    """Workers with per-worker densities from sparse to nearly full."""
    rng = np.random.default_rng(seed)
    n_workers = int(rng.integers(5, 14))
    n_tasks = int(rng.integers(15, 60))
    densities = rng.uniform(0.1, 0.9, size=n_workers)
    matrix = ResponseMatrix(n_workers=n_workers, n_tasks=n_tasks)
    for worker in range(n_workers):
        for task in np.nonzero(rng.random(n_tasks) < densities[worker])[0]:
            matrix.add_response(worker, int(task), int(rng.integers(0, 2)))
    return matrix


#: Every pairing implementation the estimator can run: the reference greedy
#: scan on dict statistics, its array-read twin on dense statistics, and
#: the seeded random ablation.
PAIRING_CASES = {
    "greedy-dict": lambda matrix, target, candidates, min_overlap, seed: (
        greedy_pairs(
            compute_agreement_statistics(matrix, backend="dict"),
            target,
            candidates,
            min_overlap=min_overlap,
        )
    ),
    "greedy-dense": lambda matrix, target, candidates, min_overlap, seed: (
        greedy_pairs_dense(
            compute_agreement_statistics(matrix, backend="dense").backend.common_counts,
            target,
            candidates,
            min_overlap=min_overlap,
        )
    ),
    "random": lambda matrix, target, candidates, min_overlap, seed: random_pairs(
        compute_agreement_statistics(matrix, backend="dict"),
        target,
        candidates,
        np.random.default_rng(seed),
        min_overlap=min_overlap,
    ),
}


class TestGreedyPairs:
    @pytest.mark.parametrize("case", sorted(PAIRING_CASES))
    def test_pairs_partition_candidates(self, case):
        # The vectorized Lemma-4 assembly relies on this invariant: each
        # candidate is paired at most once, never with the target, and
        # only where every member of the triple overlaps enough.
        pair_up = PAIRING_CASES[case]
        n_pairs = 0
        for seed in range(12):
            matrix = random_nonregular_matrix(seed)
            stats = compute_agreement_statistics(matrix, backend="dict")
            for min_overlap in (1, 4):
                for target in range(matrix.n_workers):
                    candidates = [
                        w for w in range(matrix.n_workers) if w != target
                    ]
                    pairs = pair_up(matrix, target, candidates, min_overlap, seed)
                    n_pairs += len(pairs)
                    partners = [worker for pair in pairs for worker in pair]
                    assert len(partners) == len(set(partners)), (seed, target)
                    assert target not in partners, (seed, target)
                    assert set(partners) <= set(candidates)
                    for a, b in pairs:
                        assert stats.common_count(target, a) >= min_overlap
                        assert stats.common_count(target, b) >= min_overlap
                        assert stats.common_count(a, b) >= min_overlap
        assert n_pairs > 0

    def test_best_partner_paired_first(self):
        matrix = build_matrix_with_overlaps()
        stats = compute_agreement_statistics(matrix)
        pairs = greedy_pairs(stats, 0, [1, 2, 3, 4])
        # Worker 1 has the largest overlap with worker 0 and must be in the
        # first pair formed.
        assert 1 in pairs[0]

    def test_candidates_without_overlap_dropped(self):
        matrix = ResponseMatrix(n_workers=4, n_tasks=10)
        for task in range(5):
            matrix.add_response(0, task, 0)
            matrix.add_response(1, task, 0)
            matrix.add_response(2, task, 0)
        for task in range(5, 10):
            matrix.add_response(3, task, 0)
        stats = compute_agreement_statistics(matrix)
        pairs = greedy_pairs(stats, 0, [1, 2, 3])
        assert pairs == [(1, 2)] or pairs == [(2, 1)]

    def test_target_cannot_be_candidate(self):
        matrix = build_matrix_with_overlaps()
        stats = compute_agreement_statistics(matrix)
        with pytest.raises(ConfigurationError):
            greedy_pairs(stats, 0, [0, 1])


class TestRandomPairs:
    def test_pairs_respect_overlap(self, rng):
        matrix = build_matrix_with_overlaps()
        stats = compute_agreement_statistics(matrix)
        pairs = random_pairs(stats, 0, [1, 2, 3, 4], rng)
        for a, b in pairs:
            assert stats.common_count(a, b) >= 1
            assert stats.common_count(0, a) >= 1
            assert stats.common_count(0, b) >= 1

    def test_requires_rng_through_form_triples(self):
        matrix = build_matrix_with_overlaps()
        stats = compute_agreement_statistics(matrix)
        with pytest.raises(ConfigurationError):
            form_triples(stats, 0, [1, 2, 3, 4], strategy="random", rng=None)


class TestFormTriples:
    def test_triples_include_target_first(self):
        matrix = build_matrix_with_overlaps()
        stats = compute_agreement_statistics(matrix)
        triples = form_triples(stats, 0, [1, 2, 3, 4])
        assert all(triple[0] == 0 for triple in triples)
        assert all(len(set(triple)) == 3 for triple in triples)

    def test_unknown_strategy_rejected(self):
        matrix = build_matrix_with_overlaps()
        stats = compute_agreement_statistics(matrix)
        with pytest.raises(ConfigurationError):
            form_triples(stats, 0, [1, 2], strategy="clever")

    def test_min_overlap_filters_weak_triples(self):
        matrix = build_matrix_with_overlaps()
        stats = compute_agreement_statistics(matrix)
        strict = form_triples(stats, 0, [1, 2, 3, 4], min_overlap=5)
        loose = form_triples(stats, 0, [1, 2, 3, 4], min_overlap=1)
        assert len(strict) <= len(loose)


class TestWeights:
    def test_uniform_weights(self):
        assert np.allclose(uniform_weights(4), 0.25)
        with pytest.raises(ConfigurationError):
            uniform_weights(0)

    def test_optimal_weights_sum_to_one(self):
        covariance = np.diag([0.1, 0.4, 0.9])
        assert optimal_weights(covariance).sum() == pytest.approx(1.0)

    def test_optimal_weights_single(self):
        assert optimal_weights(np.array([[0.5]])) == pytest.approx([1.0])

    def test_optimal_weights_match_brute_force(self):
        covariance = np.array([[0.05, 0.01, 0.0], [0.01, 0.2, 0.02], [0.0, 0.02, 0.4]])
        weights = optimal_weights(covariance)
        best_variance = combined_variance(weights, covariance)
        # Exhaustive grid over the simplex: no grid point should beat the
        # closed-form weights by more than numerical slack.
        grid = np.linspace(0.0, 1.0, 21)
        for w1, w2 in itertools.product(grid, grid):
            w3 = 1.0 - w1 - w2
            if w3 < 0.0:
                continue
            candidate = np.array([w1, w2, w3])
            assert best_variance <= combined_variance(candidate, covariance) + 1e-9

    def test_optimal_weights_handle_singular_covariance(self):
        singular = np.ones((3, 3)) * 0.2
        weights = optimal_weights(singular)
        assert np.all(np.isfinite(weights))
        assert weights.sum() == pytest.approx(1.0)

    def test_optimal_weights_validation(self):
        with pytest.raises(ConfigurationError):
            optimal_weights(np.ones((2, 3)))

    def test_combined_variance_validation(self):
        with pytest.raises(ConfigurationError):
            combined_variance(np.array([0.5, 0.5]), np.eye(3))

    def test_combined_variance_uniform_versus_optimal(self):
        covariance = np.diag([0.01, 1.0])
        optimal = optimal_weights(covariance)
        uniform = uniform_weights(2)
        assert combined_variance(optimal, covariance) < combined_variance(
            uniform, covariance
        )
