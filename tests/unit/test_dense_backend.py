"""Property-style equivalence tests for the vectorized dense backend.

On randomized non-regular binary and k-ary matrices, every statistic the
dense backend produces — pairwise common-task counts ``c_ij``, agreement
counts, triple counts ``c_ijk``, Algorithm A3 count tensors, and the spammer
filter's majority-disagreement proxies — must *exactly* match the original
dict-of-dicts computation, and estimator outputs must be bit-identical
whichever backend serves the statistics.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.data.dense_backend as dense_backend_module
from repro.core.agreement import AgreementStatistics, compute_agreement_statistics
from repro.core.kary import KaryEstimator
from repro.core.m_worker import MWorkerEstimator
from repro.core.spammer_filter import filter_spammers
from repro.core.three_worker import evaluate_three_workers
from repro.data.dense_backend import (
    AUTO_DENSE_CELL_LIMIT,
    AUTO_DENSE_WORKER_LIMIT,
    DenseAgreementBackend,
    resolve_backend,
    resolve_triple_backend,
)
from repro.data.response_matrix import ResponseMatrix
from repro.exceptions import ConfigurationError, InsufficientDataError


def random_matrix(
    seed: int,
    n_workers: int,
    n_tasks: int,
    arity: int = 2,
    density: float = 0.5,
    silent_worker: bool = True,
) -> ResponseMatrix:
    """Non-regular random matrix; some workers may answer nothing at all."""
    rng = np.random.default_rng(seed)
    matrix = ResponseMatrix(n_workers=n_workers, n_tasks=n_tasks, arity=arity)
    per_worker_density = rng.uniform(0.3 if not silent_worker else 0.0, density, size=n_workers)
    if silent_worker:
        per_worker_density[rng.integers(0, n_workers)] = 0.0
    for worker in range(n_workers):
        mask = rng.random(n_tasks) < per_worker_density[worker]
        for task in np.nonzero(mask)[0]:
            matrix.add_response(worker, int(task), int(rng.integers(0, arity)))
    return matrix


MATRIX_CASES = [
    (0, 6, 40, 2, 0.8),
    (1, 9, 30, 2, 0.5),
    (2, 5, 25, 3, 0.9),
    (3, 7, 50, 4, 0.6),
    (4, 12, 20, 2, 0.35),
]


@pytest.mark.parametrize("seed,m,n,arity,density", MATRIX_CASES)
class TestCountEquivalence:
    def test_pair_counts_match_dict_of_dicts(self, seed, m, n, arity, density):
        matrix = random_matrix(seed, m, n, arity, density)
        backend = DenseAgreementBackend.from_matrix(matrix)
        for a, b in itertools.combinations(range(m), 2):
            stats = matrix.pair_statistics(a, b)
            assert backend.pair(a, b) == (stats.common_tasks, stats.agreements)

    def test_triple_counts_match_set_intersections(self, seed, m, n, arity, density):
        matrix = random_matrix(seed, m, n, arity, density)
        backend = DenseAgreementBackend.from_matrix(matrix)
        for triple in itertools.combinations(range(m), 3):
            assert backend.triple_common_count(*triple) == matrix.n_common_tasks(
                *triple
            )

    def test_triple_count_matrix_matches_popcounts(
        self, seed, m, n, arity, density, monkeypatch
    ):
        matrix = random_matrix(seed, m, n, arity, density)
        backend = DenseAgreementBackend.from_matrix(matrix)
        worker = 0
        partners = [w for w in range(m) if w != worker]
        grids = [backend.triple_count_matrix(worker, partners)]
        # The float64 product that serves task counts above the float32
        # exactness limit.
        monkeypatch.setattr(dense_backend_module, "_FLOAT32_EXACT_TASK_LIMIT", 0)
        grids.append(backend.triple_count_matrix(worker, partners))
        for grid in grids:
            for s, x in enumerate(partners):
                for t, y in enumerate(partners):
                    if x == y:
                        expected = matrix.n_common_tasks(worker, x)
                    else:
                        expected = matrix.n_common_tasks(worker, x, y)
                    assert grid[s, t] == expected

    def test_count_tensors_match(self, seed, m, n, arity, density):
        matrix = random_matrix(seed, m, n, arity, density)
        backend = DenseAgreementBackend.from_matrix(matrix)
        rng = np.random.default_rng(seed + 1000)
        triples = [tuple(rng.choice(m, size=3, replace=False)) for _ in range(4)]
        for workers in triples:
            workers = tuple(int(w) for w in workers)
            assert np.array_equal(
                backend.response_count_tensor(workers),
                matrix.response_count_tensor(workers),
            )

    def test_majority_disagreement_matches(self, seed, m, n, arity, density):
        matrix = random_matrix(seed, m, n, arity, density)
        backend = DenseAgreementBackend.from_matrix(matrix)
        rates = backend.majority_disagreement_rates()
        for worker in range(m):
            try:
                expected = matrix.disagreement_with_majority(worker)
            except InsufficientDataError:
                expected = None
            assert rates[worker] == expected


@pytest.mark.parametrize("seed,m,n,arity,density", MATRIX_CASES)
def test_agreement_statistics_identical_across_backends(seed, m, n, arity, density):
    matrix = random_matrix(seed, m, n, arity, density)
    dict_stats = compute_agreement_statistics(matrix, backend="dict")
    dense_stats = AgreementStatistics.precompute(matrix)
    assert dense_stats.has_dense_backend and not dict_stats.has_dense_backend
    for a, b in itertools.combinations(range(m), 2):
        assert dense_stats.common_count(a, b) == dict_stats.common_count(a, b)
        assert dense_stats.agreement_count(a, b) == dict_stats.agreement_count(a, b)
    for triple in itertools.combinations(range(min(m, 6)), 3):
        assert dense_stats.triple_common_count(
            *triple
        ) == dict_stats.triple_common_count(*triple)


class TestEstimatorBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 4, 7])
    def test_m_worker_intervals_bit_identical(self, seed):
        matrix = random_matrix(seed, 10, 60, arity=2, density=0.8)
        legacy = MWorkerEstimator(confidence=0.9, backend="dict").evaluate_all(matrix)
        fast = MWorkerEstimator(confidence=0.9, backend="dense").evaluate_all(matrix)
        for a, b in zip(legacy, fast):
            assert a.interval.mean == b.interval.mean
            assert a.interval.lower == b.interval.lower
            assert a.interval.upper == b.interval.upper
            assert a.interval.deviation == b.interval.deviation
            assert a.weights == b.weights
            assert [t.partners for t in a.triples] == [t.partners for t in b.triples]
            assert a.status is b.status

    def test_m_worker_uniform_weights_bit_identical(self):
        matrix = random_matrix(2, 8, 50, arity=2, density=0.7)
        legacy = MWorkerEstimator(
            confidence=0.8, optimize_weights=False, backend="dict"
        ).evaluate_all(matrix)
        fast = MWorkerEstimator(
            confidence=0.8, optimize_weights=False, backend="dense"
        ).evaluate_all(matrix)
        for a, b in zip(legacy, fast):
            assert a.interval.lower == b.interval.lower
            assert a.interval.upper == b.interval.upper

    def test_three_worker_bit_identical(self):
        matrix = random_matrix(5, 3, 80, arity=2, density=0.95, silent_worker=False)
        legacy = evaluate_three_workers(matrix, confidence=0.9, backend="dict")
        fast = evaluate_three_workers(matrix, confidence=0.9, backend="dense")
        for a, b in zip(legacy, fast):
            assert a.interval.lower == b.interval.lower
            assert a.interval.upper == b.interval.upper
            assert len(a.triples) == len(a.weights) == 1

    def test_spammer_filter_identical(self):
        matrix = random_matrix(3, 9, 40, arity=2, density=0.8)
        legacy = filter_spammers(matrix, backend="dict")
        fast = filter_spammers(matrix, backend="dense")
        assert legacy.kept_workers == fast.kept_workers
        assert legacy.removed_workers == fast.removed_workers
        assert legacy.approximate_error_rates == fast.approximate_error_rates
        assert legacy.filtered == fast.filtered

    def test_kary_tensor_path_identical(self):
        matrix = random_matrix(6, 5, 120, arity=3, density=0.9)
        legacy = KaryEstimator(confidence=0.9, backend="dict").evaluate(
            matrix, workers=(0, 1, 2)
        )
        fast = KaryEstimator(confidence=0.9, backend="dense").evaluate(
            matrix, workers=(0, 1, 2)
        )
        for a, b in zip(legacy, fast):
            assert a.worker == b.worker
            for key, entry in a.entries.items():
                other = b.entries[key]
                assert entry.interval.lower == other.interval.lower
                assert entry.interval.upper == other.interval.upper


class TestDeltaUpdates:
    def test_apply_response_matches_fresh_rebuild(self):
        rng = np.random.default_rng(11)
        m, n, arity = 7, 30, 2
        matrix = ResponseMatrix(n_workers=m, n_tasks=n, arity=arity)
        backend = DenseAgreementBackend.from_matrix(matrix)
        # Touch every lazy cache so the deltas exercise the patched arrays.
        backend.common_counts, backend.agreement_counts
        backend.triple_common_count(0, 1, 2)
        backend.task_votes
        for _ in range(400):
            worker = int(rng.integers(0, m))
            task = int(rng.integers(0, n))
            label = int(rng.integers(0, arity))
            previous = matrix.response(worker, task)
            matrix.add_response(worker, task, label)
            backend.apply_response(worker, task, label, previous)
        fresh = DenseAgreementBackend.from_matrix(matrix)
        assert np.array_equal(backend.common_counts, fresh.common_counts)
        assert np.array_equal(backend.agreement_counts, fresh.agreement_counts)
        assert np.array_equal(backend.task_votes, fresh.task_votes)
        for triple in itertools.combinations(range(m), 3):
            assert backend.triple_common_count(*triple) == fresh.triple_common_count(
                *triple
            )


def brute_force_triple_counts(attempts: np.ndarray) -> np.ndarray:
    """``c_ijk`` straight from the definition: one sum over tasks."""
    indicator = attempts.astype(np.int64)
    return np.einsum("it,jt,kt->ijk", indicator, indicator, indicator)


def random_attempts(seed: int, m: int, n: int, fill: float) -> np.ndarray:
    return np.random.default_rng(seed).random((m, n)) < fill


def backend_over(attempts: np.ndarray) -> DenseAgreementBackend:
    labels = np.where(attempts, 1, -1).astype(np.int16)
    return DenseAgreementBackend.from_arrays(attempts, labels, 2)


class TestTripleCountTensor:
    """The tensor builds each worker's block over only the tasks that worker
    attempted; every cell must still be the exact ``c_ijk``."""

    @staticmethod
    def assert_exact(backend: DenseAgreementBackend, attempts: np.ndarray) -> None:
        tensor = backend.triple_count_tensor()
        assert tensor is not None
        assert tensor.dtype == np.float32
        assert np.array_equal(tensor, brute_force_triple_counts(attempts))

    @pytest.mark.parametrize("fill", [0.02, 0.25, 0.6, 0.95])
    @pytest.mark.parametrize("seed, m, n", [(0, 9, 70), (1, 17, 40), (2, 4, 200)])
    def test_random_fills_match_brute_force(self, seed, m, n, fill):
        attempts = random_attempts(seed, m, n, fill)
        self.assert_exact(backend_over(attempts), attempts)

    def test_worker_with_no_tasks_and_worker_with_every_task(self):
        attempts = random_attempts(3, 8, 50, 0.4)
        attempts[2] = False
        attempts[5] = True
        self.assert_exact(backend_over(attempts), attempts)

    def test_first_and_last_workers_empty_or_full(self):
        for first, last in [(False, True), (True, False), (False, False)]:
            attempts = random_attempts(4, 6, 30, 0.5)
            attempts[0] = first
            attempts[-1] = last
            self.assert_exact(backend_over(attempts), attempts)

    def test_task_nobody_attempted(self):
        attempts = random_attempts(5, 7, 40, 0.5)
        attempts[:, [0, 17, 39]] = False
        self.assert_exact(backend_over(attempts), attempts)

    def test_nobody_attempted_anything(self):
        attempts = np.zeros((5, 12), dtype=bool)
        self.assert_exact(backend_over(attempts), attempts)

    @pytest.mark.parametrize("m", [1, 2])
    def test_one_and_two_workers(self, m):
        for fill in (0.0, 0.5, 1.0):
            attempts = random_attempts(6 + m, m, 25, fill)
            self.assert_exact(backend_over(attempts), attempts)

    def test_from_matrix_matches_brute_force(self):
        matrix = random_matrix(7, 8, 45, density=0.7)
        backend = DenseAgreementBackend.from_matrix(matrix)
        attempts = np.zeros((8, 45), dtype=bool)
        for worker, task, _label in matrix.iter_responses():
            attempts[worker, task] = True
        self.assert_exact(backend, attempts)

    def test_adopted_arrays_in_any_memory_layout(self):
        """``from_arrays`` adopts arrays as given: Fortran order and strided
        views must count the same as a C-ordered copy."""
        base = random_attempts(8, 12, 90, 0.45)
        for attempts in (np.asfortranarray(base[:, :45]), base[::2, ::2]):
            self.assert_exact(backend_over(attempts), np.ascontiguousarray(attempts))

    def test_attach_shared_state_over_exported_copies(self):
        attempts = random_attempts(9, 10, 60, 0.35)
        exported = backend_over(attempts).export_shared_state()
        attached = DenseAgreementBackend.attach_shared_state(
            {key: array.copy() for key, array in exported.items()},
            n_workers=10,
            n_tasks=60,
            arity=2,
        )
        assert attached._triple_tensor is None
        self.assert_exact(attached, attempts)

    def test_rebuilt_after_a_batch_of_new_attempts(self):
        attempts = random_attempts(10, 6, 30, 0.3)
        backend = backend_over(attempts.copy())
        assert backend.triple_count_tensor() is not None
        fresh = np.argwhere(~attempts)[:12]
        backend.apply_responses([(int(w), int(t), 1, None) for w, t in fresh])
        assert backend._triple_tensor is None
        attempts[fresh[:, 0], fresh[:, 1]] = True
        self.assert_exact(backend, attempts)

    def test_none_above_the_tensor_cell_limit(self, monkeypatch):
        backend = backend_over(random_attempts(11, 6, 20, 0.5))
        monkeypatch.setattr(
            DenseAgreementBackend, "_TRIPLE_TENSOR_CELL_LIMIT", 6**3 - 1
        )
        assert backend.triple_count_tensor() is None
        assert backend._triple_tensor is None

    def test_none_above_the_float32_exact_task_limit(self, monkeypatch):
        attempts = random_attempts(12, 5, 20, 0.5)
        backend = backend_over(attempts)
        monkeypatch.setattr(dense_backend_module, "_FLOAT32_EXACT_TASK_LIMIT", 19)
        assert backend.triple_count_tensor() is None
        # The per-worker fallback (float64 above the limit) stays exact.
        expected = brute_force_triple_counts(attempts)
        for worker in range(5):
            grid = backend.triple_count_grid_full(worker)
            assert grid.dtype == np.float64
            assert np.array_equal(grid, expected[worker])


class TestResolveBackend:
    def test_choices(self):
        matrix = random_matrix(0, 4, 10)
        assert resolve_backend(matrix, "dict") is None
        assert isinstance(resolve_backend(matrix, "dense"), DenseAgreementBackend)
        assert isinstance(resolve_backend(matrix, "auto"), DenseAgreementBackend)
        existing = DenseAgreementBackend.from_matrix(matrix)
        assert resolve_backend(matrix, existing) is existing
        with pytest.raises(ConfigurationError):
            resolve_backend(matrix, "cupy")

    def test_auto_falls_back_for_huge_grids(self):
        huge = ResponseMatrix(
            n_workers=AUTO_DENSE_CELL_LIMIT // 10 + 1, n_tasks=10, arity=2
        )
        assert resolve_backend(huge, "auto") is None
        assert MWorkerEstimator(backend="auto").confidence  # knob exists

    def test_auto_respects_worker_limit(self):
        # The pair-count caches are O(m^2); a worker-heavy matrix must fall
        # back to dict even when m*n is under the cell limit.
        tall = ResponseMatrix(
            n_workers=AUTO_DENSE_WORKER_LIMIT + 1, n_tasks=4, arity=2
        )
        assert tall.n_workers * tall.n_tasks <= AUTO_DENSE_CELL_LIMIT
        assert resolve_backend(tall, "auto") is None

    def test_triple_scoped_auto_skips_backend_for_many_workers(self):
        wide = random_matrix(8, 40, 30, density=0.8)
        assert resolve_triple_backend(wide, "auto") is None
        assert isinstance(
            resolve_triple_backend(wide, "dense"), DenseAgreementBackend
        )
        small = random_matrix(8, 3, 30, density=0.9, silent_worker=False)
        assert isinstance(
            resolve_triple_backend(small, "auto"), DenseAgreementBackend
        )

    def test_dense_lookups_validate_worker_ids(self):
        matrix = random_matrix(0, 5, 20)
        backend = DenseAgreementBackend.from_matrix(matrix)
        from repro.exceptions import DataValidationError

        with pytest.raises(DataValidationError):
            backend.pair(-1, 0)
        with pytest.raises(DataValidationError):
            backend.triple_common_count(0, 1, 5)
        with pytest.raises(DataValidationError):
            backend.response_count_tensor((-1, 0, 1))
        with pytest.raises(DataValidationError):
            backend.triple_count_matrix(0, [1, -2])
        with pytest.raises(DataValidationError):
            KaryEstimator(backend="dense").evaluate(
                random_matrix(2, 5, 25, arity=3, density=0.9), workers=(-1, 0, 1)
            )
