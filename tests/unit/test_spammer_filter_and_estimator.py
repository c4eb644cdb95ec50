"""Unit tests for the spammer filter and the WorkerEvaluator façade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import WorkerEvaluator, evaluate_kary_workers, evaluate_workers
from repro.core.m_worker import evaluate_all_workers
from repro.core.spammer_filter import filter_spammers
from repro.data.response_matrix import ResponseMatrix
from repro.exceptions import ConfigurationError, InsufficientDataError
from repro.simulation.binary import BinaryWorkerPopulation
from repro.simulation.gauntlet import CollusionScenario
from repro.types import KaryWorkerEstimate, WorkerErrorEstimate


def matrix_with_spammer(rng, n_tasks=200) -> tuple[ResponseMatrix, np.ndarray]:
    rates = np.array([0.1, 0.1, 0.15, 0.2, 0.48])
    population = BinaryWorkerPopulation(error_rates=rates)
    return population.generate(n_tasks, rng), rates


class TestSpammerFilter:
    def test_removes_near_random_worker(self, rng):
        matrix, _ = matrix_with_spammer(rng)
        result = filter_spammers(matrix, threshold=0.4)
        assert 4 in result.removed_workers
        assert result.filtered.n_workers == 4
        assert result.kept_workers == (0, 1, 2, 3)

    def test_keeps_good_workers(self, rng):
        matrix, _ = matrix_with_spammer(rng)
        result = filter_spammers(matrix, threshold=0.4)
        assert set(result.kept_workers).issuperset({0, 1, 2})

    def test_original_id_mapping(self, rng):
        matrix, _ = matrix_with_spammer(rng)
        result = filter_spammers(matrix, threshold=0.4)
        for new_id, old_id in enumerate(result.kept_workers):
            assert result.original_id(new_id) == old_id
            assert (
                result.filtered.worker_responses(new_id)
                == matrix.worker_responses(old_id)
            )

    def test_never_prunes_below_minimum(self, rng):
        # Everyone looks like a spammer; the filter must still keep 3 workers.
        population = BinaryWorkerPopulation(error_rates=np.full(5, 0.49))
        matrix = population.generate(150, rng)
        result = filter_spammers(matrix, threshold=0.2, min_remaining=3)
        assert result.filtered.n_workers >= 3

    def test_proxies_reported_for_all_workers(self, rng):
        matrix, _ = matrix_with_spammer(rng)
        result = filter_spammers(matrix)
        assert set(result.approximate_error_rates) == set(range(matrix.n_workers))

    def test_worker_without_overlap_is_kept(self):
        matrix = ResponseMatrix(4, 10)
        for worker in (0, 1, 2):
            for task in range(8):
                matrix.add_response(worker, task, task % 2)
        matrix.add_response(3, 9, 1)  # no overlap with anyone
        result = filter_spammers(matrix)
        assert 3 in result.kept_workers
        assert result.approximate_error_rates[3] is None

    def test_threshold_validation(self, small_binary_matrix):
        with pytest.raises(ConfigurationError):
            filter_spammers(small_binary_matrix, threshold=1.5)
        with pytest.raises(ConfigurationError):
            filter_spammers(small_binary_matrix, min_remaining=2)


class TestWorkerEvaluator:
    def test_binary_dispatch(self, simulated_binary):
        matrix, _ = simulated_binary
        results = WorkerEvaluator(confidence=0.9).evaluate(matrix)
        assert set(results) == set(range(matrix.n_workers))
        assert all(isinstance(value, WorkerErrorEstimate) for value in results.values())

    def test_kary_dispatch(self, simulated_kary):
        matrix, _ = simulated_kary
        results = WorkerEvaluator(confidence=0.9).evaluate(matrix)
        assert all(isinstance(value, KaryWorkerEstimate) for value in results.values())

    def test_binary_on_kary_data_rejected(self, simulated_kary):
        matrix, _ = simulated_kary
        with pytest.raises(ConfigurationError):
            WorkerEvaluator().evaluate_binary(matrix)

    def test_too_few_workers_rejected(self):
        matrix = ResponseMatrix(2, 5)
        matrix.add_response(0, 0, 1)
        matrix.add_response(1, 0, 1)
        with pytest.raises(InsufficientDataError):
            WorkerEvaluator().evaluate_binary(matrix)

    def test_confidence_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerEvaluator(confidence=0.0)

    def test_spammer_removal_preserves_original_ids(self, rng):
        matrix, _ = matrix_with_spammer(rng)
        results = WorkerEvaluator(confidence=0.9, remove_spammers=True).evaluate_binary(
            matrix
        )
        # The spammer (worker 4) is absent; the others keep their original ids.
        assert 4 not in results
        assert set(results).issubset({0, 1, 2, 3})
        for worker, estimate in results.items():
            assert estimate.worker == worker

    def test_module_level_helpers(self, simulated_binary, simulated_kary):
        binary_matrix, _ = simulated_binary
        kary_matrix, _ = simulated_kary
        binary_results = evaluate_workers(binary_matrix, confidence=0.8)
        kary_results = evaluate_kary_workers(kary_matrix, confidence=0.8)
        assert len(binary_results) == binary_matrix.n_workers
        assert len(kary_results) == 3

    def test_spammer_removal_improves_or_keeps_quality(self, rng):
        """With a spammer in the pool, filtering should not make the good
        workers' estimates worse on average."""
        matrix, rates = matrix_with_spammer(rng, n_tasks=300)
        plain = WorkerEvaluator(confidence=0.8).evaluate_binary(matrix)
        filtered = WorkerEvaluator(confidence=0.8, remove_spammers=True).evaluate_binary(
            matrix
        )
        def mean_abs_error(results):
            return np.mean(
                [abs(results[w].interval.mean - rates[w]) for w in results if w != 4]
            )
        assert mean_abs_error(filtered) <= mean_abs_error(plain) + 0.03


class TestViolatedAssumptions:
    def test_honest_worker_coverage_despite_spammers(self, rng):
        """Honest workers' intervals should still usually cover their error
        rates when the spammer filter is applied first."""
        population = BinaryWorkerPopulation(
            error_rates=[0.1, 0.15, 0.2, 0.25, 0.1, 0.5, 0.5]
        )
        hits = total = 0
        for _ in range(10):
            matrix = population.generate(150, rng, densities=0.9)
            estimates = WorkerEvaluator(
                confidence=0.8, remove_spammers=True
            ).evaluate_binary(matrix)
            for worker in range(5):  # honest workers only
                if worker not in estimates:
                    continue
                total += 1
                hits += estimates[worker].interval.contains(
                    population.error_rates[worker]
                )
        assert total > 0
        assert hits / total > 0.6

    def test_intervals_remain_valid_under_collusion(self, rng):
        """With assumption violations the intervals may lose coverage, but the
        estimator must stay numerically well-behaved (the robustness the
        paper's real-data section claims)."""
        scenario = CollusionScenario(
            name="collusion",
            n_workers=7,
            n_tasks=150,
            densities=np.full(7, 0.9),
            ring_size=2,
        )
        matrix, _ = scenario.sample(rng)
        estimates = evaluate_all_workers(matrix, confidence=0.8)
        assert len(estimates) == scenario.n_workers
        for est in estimates:
            assert 0.0 <= est.interval.lower <= est.interval.upper <= 1.0
