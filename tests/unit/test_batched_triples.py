"""Edge cases of the batched per-triple stage and the sharded worker loop.

The batched stage (:func:`repro.core.three_worker.evaluate_triples_batched`)
must not merely match the scalar loop on healthy data — it must *fail* the
same way on degenerate data: triples without overlap are skipped exactly
where the scalar loop raises ``InsufficientDataError``, zero-margin clamping
raises the identical ``DegenerateEstimateError``, and boundary agreement
patterns (all-agree, all-disagree, near-singular systems) produce
bit-identical estimates, gradients and deviations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.agreement import AgreementStatistics, compute_agreement_statistics
from repro.core.m_worker import MWorkerEstimator
from repro.core.parallel import resolve_execution
from repro.core.three_worker import (
    evaluate_triples_batched,
    evaluate_worker_in_triple,
)
from repro.data.response_matrix import ResponseMatrix
from repro.exceptions import (
    ConfigurationError,
    DegenerateEstimateError,
    InsufficientDataError,
)
from repro.types import EstimateStatus


def dense_stats(matrix: ResponseMatrix) -> AgreementStatistics:
    return AgreementStatistics.precompute(matrix, backend="dense")


def assert_results_match(scalar, batched) -> None:
    assert batched.worker == scalar.worker
    assert batched.partners == scalar.partners
    assert batched.error_rate == scalar.error_rate
    assert batched.deviation == scalar.deviation
    assert batched.derivative_by_partner == scalar.derivative_by_partner
    assert batched.derivative_partners == scalar.derivative_partners
    assert batched.status is scalar.status


def batch_vs_scalar(matrix: ResponseMatrix, worker: int, pairs, **kwargs):
    """Run both paths over ``pairs``; per triple the outcomes must agree.

    Returns the batched result list; asserts that every None slot is exactly
    a slot where the scalar call raises InsufficientDataError, and that
    every populated slot is bit-identical to the scalar result.
    """
    stats = dense_stats(matrix)
    batched = evaluate_triples_batched(stats, worker, pairs, **kwargs)
    for pair, result in zip(pairs, batched):
        try:
            scalar = evaluate_worker_in_triple(stats, worker, pair, **kwargs)
        except InsufficientDataError:
            assert result is None, f"scalar skips {pair}, batched did not"
            continue
        assert result is not None, f"batched dropped {pair}, scalar evaluated it"
        assert_results_match(scalar, result)
    return batched


class TestPartnerDegeneracies:
    def test_worker_with_no_valid_partner_yields_all_none(self):
        # Worker 0 answers only task 0; nobody else touches task 0.
        matrix = ResponseMatrix(n_workers=5, n_tasks=10, arity=2)
        matrix.add_response(0, 0, 1)
        for worker in range(1, 5):
            for task in range(1, 10):
                matrix.add_response(worker, task, (worker + task) % 2)
        batched = batch_vs_scalar(matrix, 0, [(1, 2), (3, 4)])
        assert batched == [None, None]

    def test_worker_with_one_valid_partner_keeps_only_that_triple(self):
        # Worker 0 overlaps workers 1 and 2 but not 3 and 4.
        matrix = ResponseMatrix(n_workers=5, n_tasks=12, arity=2)
        for task in range(6):
            matrix.add_response(0, task, task % 2)
            matrix.add_response(1, task, task % 2)
            matrix.add_response(2, task, (task + task // 3) % 2)
        for task in range(6, 12):
            matrix.add_response(3, task, task % 2)
            matrix.add_response(4, task, (task + 1) % 2)
        batched = batch_vs_scalar(matrix, 0, [(1, 2), (3, 4)])
        assert batched[0] is not None
        assert batched[1] is None

    def test_partners_without_mutual_overlap_are_skipped(self):
        # Worker 0 overlaps both partners, but the partners never co-answer.
        matrix = ResponseMatrix(n_workers=3, n_tasks=10, arity=2)
        for task in range(10):
            matrix.add_response(0, task, task % 2)
        for task in range(5):
            matrix.add_response(1, task, task % 2)
        for task in range(5, 10):
            matrix.add_response(2, task, task % 2)
        batched = batch_vs_scalar(matrix, 0, [(1, 2)])
        assert batched == [None]

    def test_estimator_degrades_identically_across_paths(self):
        # At the estimator level, a worker with no usable triple must come
        # out DEGENERATE on every path.
        matrix = ResponseMatrix(n_workers=5, n_tasks=10, arity=2)
        matrix.add_response(0, 0, 1)
        for worker in range(1, 5):
            for task in range(1, 10):
                matrix.add_response(worker, task, (worker * task) % 2)
        results = {}
        for name, config in {
            "dict": {"backend": "dict"},
            "batched": {"backend": "dense"},
        }.items():
            results[name] = MWorkerEstimator(confidence=0.9, **config).evaluate_worker(
                matrix, 0
            )
        assert results["dict"].status is EstimateStatus.DEGENERATE
        assert results["batched"].status is EstimateStatus.DEGENERATE
        assert results["batched"].interval == results["dict"].interval


class TestBoundaryAgreementColumns:
    def _perfect_agreement_matrix(self) -> ResponseMatrix:
        matrix = ResponseMatrix(n_workers=4, n_tasks=20, arity=2)
        for worker in range(4):
            for task in range(20):
                matrix.add_response(worker, task, task % 2)
        return matrix

    def test_all_agree_columns_bit_identical(self):
        # Agreement rates of exactly 1: Eq. (1) ratio is 1, estimate 0, and
        # the variance runs entirely on the Laplace-smoothed rate.
        matrix = self._perfect_agreement_matrix()
        batched = batch_vs_scalar(matrix, 0, [(1, 2), (1, 3), (2, 3)])
        assert all(result is not None for result in batched)
        for result in batched:
            assert result.error_rate == 0.0
            assert result.status is EstimateStatus.OK

    def test_all_disagree_columns_clamp_identically(self):
        # Worker 3 disagrees with everyone on every task: q = 0 rates are
        # clamped to 1/2 + margin and the estimate is flagged CLAMPED.
        matrix = ResponseMatrix(n_workers=4, n_tasks=20, arity=2)
        for worker in range(3):
            for task in range(20):
                matrix.add_response(worker, task, task % 2)
        for task in range(20):
            matrix.add_response(3, task, (task + 1) % 2)
        batched = batch_vs_scalar(matrix, 3, [(0, 1), (0, 2), (1, 2)])
        for result in batched:
            assert result is not None
            assert result.status is EstimateStatus.CLAMPED

    def test_near_singular_system_bit_identical(self):
        # Two partners answering identically make the 3x3 covariance nearly
        # singular; both paths must still produce the same floats.
        matrix = ResponseMatrix(n_workers=4, n_tasks=30, arity=2)
        rng = np.random.default_rng(99)
        labels = rng.integers(0, 2, size=30)
        for task in range(30):
            matrix.add_response(0, task, int(labels[task]))
            matrix.add_response(1, task, int(labels[task]))
            matrix.add_response(2, task, int(labels[task]) if task % 7 else 1 - int(labels[task]))
            matrix.add_response(3, task, int(labels[task]) if task % 3 else 1 - int(labels[task]))
        for worker in range(4):
            pairs = [
                tuple(p for p in range(4) if p != worker)[:2],
            ]
            batch_vs_scalar(matrix, worker, pairs)

    def test_zero_margin_degenerate_raises_identically(self):
        # With clamp_margin=0 a 50% agreement rate sits exactly on the
        # Eq. (1) singularity; scalar and batched must raise the same error.
        matrix = ResponseMatrix(n_workers=3, n_tasks=20, arity=2)
        for task in range(20):
            matrix.add_response(0, task, task % 2)
            matrix.add_response(1, task, task % 2)
            matrix.add_response(2, task, (task // 2) % 2)  # 50% agreement
        stats = dense_stats(matrix)
        with pytest.raises(DegenerateEstimateError) as scalar_error:
            evaluate_worker_in_triple(stats, 0, (1, 2), clamp_margin=0.0)
        with pytest.raises(DegenerateEstimateError) as batched_error:
            evaluate_triples_batched(stats, 0, [(1, 2)], clamp_margin=0.0)
        assert str(batched_error.value) == str(scalar_error.value)


class TestBatchedApiValidation:
    def test_requires_dense_backend(self, small_binary_matrix):
        stats = compute_agreement_statistics(small_binary_matrix, backend="dict")
        with pytest.raises(ConfigurationError):
            evaluate_triples_batched(stats, 0, [(1, 2)])

    def test_requires_distinct_workers(self, small_binary_matrix):
        stats = dense_stats(small_binary_matrix)
        with pytest.raises(ConfigurationError):
            evaluate_triples_batched(stats, 0, [(0, 2)])
        with pytest.raises(ConfigurationError):
            evaluate_triples_batched(stats, 0, [(1, 1)])

    def test_empty_batch(self, small_binary_matrix):
        stats = dense_stats(small_binary_matrix)
        assert evaluate_triples_batched(stats, 0, []) == []

    def test_randomized_batches_match_scalar(self):
        # Property-style sweep: random non-regular matrices, every worker,
        # the full greedy pairing, scalar vs batched per triple.
        for seed in range(8):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(4, 10))
            n = int(rng.integers(15, 60))
            matrix = ResponseMatrix(n_workers=m, n_tasks=n, arity=2)
            densities = rng.uniform(0.2, 0.95, size=m)
            for worker in range(m):
                for task in np.nonzero(rng.random(n) < densities[worker])[0]:
                    matrix.add_response(worker, int(task), int(rng.integers(0, 2)))
            for worker in range(m):
                others = [w for w in range(m) if w != worker]
                rng.shuffle(others)
                pairs = [
                    (others[i], others[i + 1]) for i in range(0, len(others) - 1, 2)
                ]
                if pairs:
                    batch_vs_scalar(matrix, worker, pairs)


class TestCrossWorkerChunking:
    def test_chunked_stage_matches_unchunked(self, monkeypatch):
        # Force tiny chunks so the cross-worker batch spans many stage
        # invocations; results must stay bit-identical to one big batch.
        import repro.core.m_worker as m_worker_module

        matrix = ResponseMatrix(n_workers=9, n_tasks=40, arity=2)
        rng = np.random.default_rng(5)
        for worker in range(9):
            for task in np.nonzero(rng.random(40) < 0.7)[0]:
                matrix.add_response(worker, int(task), int(rng.integers(0, 2)))
        estimator = MWorkerEstimator(confidence=0.9, backend="dense")
        reference = estimator.evaluate_all(matrix)
        monkeypatch.setattr(m_worker_module, "_BATCH_STAGE_CHUNK_TRIPLES", 3)
        chunked = estimator.evaluate_all(matrix)
        assert len(chunked) == len(reference)
        for a, b in zip(reference, chunked):
            assert a.interval == b.interval
            assert a.weights == b.weights
            assert a.status is b.status


class TestShardGuards:
    def test_fewer_workers_than_shards_falls_back_to_serial(self):
        # Must neither hang nor drop workers: 4 workers, 16 shards.
        matrix = ResponseMatrix(n_workers=4, n_tasks=15, arity=2)
        for worker in range(4):
            for task in range(15):
                matrix.add_response(worker, task, (task + (worker == 3)) % 2)
        estimator = MWorkerEstimator(confidence=0.9, backend="dense", shards=16)
        stats = compute_agreement_statistics(matrix, backend="dense")
        assert resolve_execution(estimator, matrix, stats) == ("serial", 1)
        results = estimator.evaluate_all(matrix)
        assert [estimate.worker for estimate in results] == [0, 1, 2, 3]
        serial = MWorkerEstimator(confidence=0.9, backend="dense").evaluate_all(matrix)
        for a, b in zip(serial, results):
            assert a.interval == b.interval
            assert a.weights == b.weights

    def test_dict_backend_never_shards(self, simulated_binary):
        matrix, _ = simulated_binary
        estimator = MWorkerEstimator(backend="dict", shards=4)
        stats = compute_agreement_statistics(matrix, backend="dict")
        assert resolve_execution(estimator, matrix, stats) == ("serial", 1)
        assert len(estimator.evaluate_all(matrix)) == matrix.n_workers

    def test_custom_rng_never_shards(self, simulated_binary):
        matrix, _ = simulated_binary
        estimator = MWorkerEstimator(
            backend="dense",
            shards=2,
            pairing_strategy="random",
            rng=np.random.default_rng(0),
        )
        stats = compute_agreement_statistics(matrix, backend="dense")
        assert resolve_execution(estimator, matrix, stats) == ("serial", 1)

    def test_shards_validation(self):
        with pytest.raises(ConfigurationError):
            MWorkerEstimator(shards=0)
        with pytest.raises(ConfigurationError):
            MWorkerEstimator(shards=-3)
