"""Unit tests for the grouped (cross-worker) Lemma-4/5 aggregation.

Every vectorized backend groups workers by triple count, stacks their
Lemma-4 covariance grids and runs Lemma 5 as one batched solve.  The
cross-backend differential suite locks the path on randomized matrices;
the tests here target the ragged shapes and numerical corners that suite
cannot guarantee to hit: workers with 0/1 partners, groups of size 1,
mixed triple counts in one batch, and a near-singular covariance inside an
otherwise healthy batch (the per-matrix fallback must not perturb its
batch-mates).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.m_worker import MWorkerEstimator
from repro.core.weights import batched_optimal_weights, optimal_weights
from repro.data.dense_backend import DenseAgreementBackend
from repro.data.response_matrix import ResponseMatrix
from repro.exceptions import ConfigurationError, DegenerateEstimateError
from repro.stats.covariance import (
    batched_regularize_covariance,
    regularize_covariance,
)
from repro.stats.linalg import (
    batched_optimal_min_variance_weights,
    optimal_min_variance_weights,
)
from repro.types import EstimateStatus


def assert_all_bit_identical(reference, candidate):
    assert len(candidate) == len(reference)
    for ref, cand in zip(reference, candidate):
        assert cand.worker == ref.worker
        assert cand.interval.mean == ref.interval.mean
        assert cand.interval.lower == ref.interval.lower
        assert cand.interval.upper == ref.interval.upper
        assert cand.interval.deviation == ref.interval.deviation
        assert cand.weights == ref.weights
        assert cand.status is ref.status
        for triple_a, triple_b in zip(ref.triples, cand.triples):
            assert triple_b.partners == triple_a.partners
            assert triple_b.error_rate == triple_a.error_rate
            assert triple_b.deviation == triple_a.deviation
            assert triple_b.derivatives == triple_a.derivatives


def random_matrix(seed, n_workers, n_tasks, density=0.7, error=0.25):
    rng = np.random.default_rng(seed)
    matrix = ResponseMatrix(n_workers=n_workers, n_tasks=n_tasks, arity=2)
    truth = rng.integers(0, 2, size=n_tasks)
    for worker in range(n_workers):
        for task in np.nonzero(rng.random(n_tasks) < density)[0]:
            label = int(truth[task])
            if rng.random() < error:
                label = 1 - label
            matrix.add_response(worker, int(task), label)
    return matrix


def paths(matrix, **kwargs):
    """The dict-oracle run and the grouped dense run, in that order."""
    reference = MWorkerEstimator(backend="dict", **kwargs).evaluate_all(matrix)
    candidate = MWorkerEstimator(backend="dense", **kwargs).evaluate_all(matrix)
    return reference, candidate


class TestRaggedShapes:
    def test_zero_and_single_partner_workers(self):
        """Silent, isolated and barely-connected workers across the batch."""
        base = random_matrix(11, 8, 40)
        matrix = ResponseMatrix(n_workers=11, n_tasks=42, arity=2)
        for worker, task, label in base.iter_responses():
            matrix.add_response(worker, task, label)
        # Worker 8: answers a task nobody else touches (no usable partner).
        matrix.add_response(8, 40, 1)
        # Worker 9: overlaps exactly one other worker (at most one triple).
        matrix.add_response(9, 0, 1)
        matrix.add_response(9, 41, 0)
        # Worker 10: silent.
        reference, candidate = paths(matrix)
        assert_all_bit_identical(reference, candidate)
        statuses = {est.worker: est.status for est in candidate}
        assert statuses[8] is EstimateStatus.DEGENERATE
        assert statuses[10] is EstimateStatus.DEGENERATE

    def test_mixed_triple_counts_and_singleton_groups(self, monkeypatch):
        """Block-structured overlap yields several group sizes, incl. 1."""
        matrix = ResponseMatrix(n_workers=13, n_tasks=40, arity=2)
        rng = np.random.default_rng(23)
        truth = rng.integers(0, 2, size=40)

        def answer(worker, tasks, error):
            for task in tasks:
                label = int(truth[task])
                if rng.random() < error:
                    label = 1 - label
                matrix.add_response(worker, int(task), label)

        # Two mutually disjoint blocks plus one hub worker spanning both:
        # block-A workers see 7 candidates (3 triples), block-B workers 5
        # (2 triples), and the hub sees all 12 — a triple count nobody else
        # has, so its group has size one.
        for worker in range(7):
            answer(worker, range(20), 0.2)
        for worker in range(7, 12):
            answer(worker, range(20, 40), 0.25)
        answer(12, range(40), 0.2)

        group_sizes: list[int] = []
        original = MWorkerEstimator._finalize_worker_group

        def spy(self, matrix_, stats, group):
            group_sizes.append(len(group))
            return original(self, matrix_, stats, group)

        monkeypatch.setattr(MWorkerEstimator, "_finalize_worker_group", spy)
        reference, candidate = paths(matrix)
        assert_all_bit_identical(reference, candidate)
        # The batched run must actually have grouped, including at least one
        # singleton group (otherwise this test isn't exercising raggedness).
        assert group_sizes, "grouped aggregation never ran"
        assert min(group_sizes) == 1
        assert max(group_sizes) > 1
        triple_counts = {len(est.triples) for est in candidate}
        assert len(triple_counts) >= 3

    def test_uniform_weights_ride_the_same_path(self):
        matrix = random_matrix(31, 9, 50)
        reference, candidate = paths(matrix, optimize_weights=False)
        assert_all_bit_identical(reference, candidate)

    def test_worker_range_subsets_match_full_run(self):
        """Shard-style subranges compose to the full batched run."""
        matrix = random_matrix(41, 10, 45)
        estimator = MWorkerEstimator(backend="dense")
        from repro.core.agreement import compute_agreement_statistics

        stats = compute_agreement_statistics(matrix, backend="dense")
        full = estimator.evaluate_worker_range(
            matrix, stats, list(range(matrix.n_workers))
        )
        split = estimator.evaluate_worker_range(
            matrix, stats, [0, 1, 2, 3]
        ) + estimator.evaluate_worker_range(
            matrix, stats, [4, 5, 6, 7, 8, 9]
        )
        assert_all_bit_identical(full, split)


class TestNearSingularBatches:
    def test_duplicate_workers_keep_batch_mates_bit_identical(self):
        """Identical twin workers make some covariance grids (near-)singular;
        the per-matrix fallback must not perturb the healthy batch-mates."""
        base = random_matrix(53, 8, 60, density=1.0)
        matrix = ResponseMatrix(n_workers=10, n_tasks=60, arity=2)
        for worker, task, label in base.iter_responses():
            matrix.add_response(worker, task, label)
        # Workers 8 and 9 clone workers 0 and 1 response-for-response:
        # triples built on the twins carry identical information.
        for task, label in base.worker_responses(0).items():
            matrix.add_response(8, task, label)
        for task, label in base.worker_responses(1).items():
            matrix.add_response(9, task, label)
        reference, candidate = paths(matrix)
        assert_all_bit_identical(reference, candidate)

    def test_batched_regularize_matches_per_matrix(self):
        rng = np.random.default_rng(5)
        healthy = []
        for _ in range(3):
            a = rng.normal(size=(4, 4))
            healthy.append(a @ a.T + 0.5 * np.eye(4))
        singular = np.ones((4, 4))  # rank one: batched Cholesky rejects it
        indefinite = np.diag([1.0, -0.5, 2.0, 1.0])
        stack = np.stack([healthy[0], singular, healthy[1], indefinite, healthy[2]])
        repaired = batched_regularize_covariance(stack)
        for index in range(stack.shape[0]):
            expected = regularize_covariance(stack[index])
            assert (repaired[index] == expected).all(), index

    def test_batched_min_variance_weights_match_per_matrix(self):
        rng = np.random.default_rng(6)
        matrices = []
        for _ in range(4):
            a = rng.normal(size=(5, 5))
            matrices.append(a @ a.T + 0.1 * np.eye(5))
        # An exactly singular system lands in the per-matrix solve fallback.
        matrices.insert(2, np.ones((5, 5)))
        stack = np.stack(matrices)
        weights = batched_optimal_min_variance_weights(stack)
        for index in range(stack.shape[0]):
            expected = optimal_min_variance_weights(stack[index])
            assert (weights[index] == expected).all(), index

    def test_batched_optimal_weights_match_scalar(self):
        rng = np.random.default_rng(7)
        stack = np.stack(
            [
                np.diag([1.0, 2.0, 3.0]),
                np.ones((3, 3)),
                (lambda a: a @ a.T + 0.2 * np.eye(3))(rng.normal(size=(3, 3))),
            ]
        )
        weights = batched_optimal_weights(stack)
        for index in range(stack.shape[0]):
            expected = optimal_weights(stack[index])
            assert (weights[index] == expected).all(), index

    def test_batched_kernel_shape_validation(self):
        with pytest.raises(ConfigurationError):
            batched_regularize_covariance(np.ones((3, 3)))
        with pytest.raises(ConfigurationError):
            batched_optimal_weights(np.ones((2, 3, 4)))
        with pytest.raises(DegenerateEstimateError):
            batched_optimal_min_variance_weights(np.ones((4, 2)))
        assert (batched_optimal_weights(np.ones((3, 1, 1))) == 1.0).all()


class TestTripleCountTensor:
    def test_tensor_matches_per_worker_grids(self):
        matrix = random_matrix(61, 7, 35)
        backend = DenseAgreementBackend.from_matrix(matrix)
        tensor = backend.triple_count_tensor()
        assert tensor is not None
        for worker in range(matrix.n_workers):
            partners = np.array(
                [w for w in range(matrix.n_workers) if w != worker]
            )
            expected = backend.triple_count_matrix(worker, partners)
            grid = tensor[worker][partners[:, None], partners[None, :]]
            assert (grid == expected).all()
            # Degenerate diagonal rows: c_{w,w,x} collapses to the pair count.
            assert (tensor[worker, worker, :] == backend.common_counts[worker]).all()

    def test_tensor_respects_memory_cap(self, monkeypatch):
        matrix = random_matrix(62, 6, 20)
        backend = DenseAgreementBackend.from_matrix(matrix)
        monkeypatch.setattr(
            DenseAgreementBackend, "_TRIPLE_TENSOR_CELL_LIMIT", 6**3 - 1
        )
        assert backend.triple_count_tensor() is None
        # The per-worker grid fallback still serves exact counts.
        partners = np.array([1, 2, 3])
        grid = backend.triple_count_grid_full(0)[partners[:, None], partners[None, :]]
        assert (grid == backend.triple_count_matrix(0, partners)).all()

    def test_tensor_invalidated_by_delta_updates(self):
        matrix = random_matrix(63, 5, 25)
        backend = DenseAgreementBackend.from_matrix(matrix)
        assert backend.triple_count_tensor() is not None  # warm the cache
        previous = matrix.response(0, 3)
        label = 0 if previous == 1 else 1
        backend.apply_response(0, 3, label, previous)
        after = backend.triple_count_tensor()
        # Ground truth: a backend rebuilt from the updated matrix.
        matrix.add_response(0, 3, label)
        reference = DenseAgreementBackend.from_matrix(matrix).triple_count_tensor()
        assert (after == reference).all()
