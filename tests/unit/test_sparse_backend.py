"""Unit tests for the sparse/bitset backends and the cost-based dispatch.

Three concerns live here:

* the :func:`~repro.data.dense_backend.auto_backend_choice` cost model —
  boundary densities and cell counts pick the documented backend, and an
  explicit ``backend=`` request always wins;
* the backends themselves — exact count parity with the dense reference on
  every query surface, including the ``apply_response`` delta updates;
* the ``IncrementalEvaluator.extend_tasks`` auto-flip — re-resolving the
  cost model mid-stream may now land on sparse or bitset (not only dict),
  and every flip must stay invisible in results.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.data.dense_backend as dense_backend_module
import repro.data.sparse_backend as sparse_backend_module
from repro.core.incremental import IncrementalEvaluator
from repro.core.m_worker import MWorkerEstimator
from repro.data.dense_backend import (
    AUTO_BITSET_CELL_LIMIT,
    AUTO_DENSE_CELL_LIMIT,
    AUTO_DENSE_WORKER_LIMIT,
    AUTO_SPARSE_DENSITY,
    AUTO_SPARSE_MIN_CELLS,
    BACKEND_CHOICES,
    DenseAgreementBackend,
    auto_backend_choice,
    resolve_backend,
)
from repro.data.response_matrix import ResponseMatrix
from repro.data.sparse_backend import (
    BitsetAgreementBackend,
    SparseAgreementBackend,
    scipy_available,
)
from repro.exceptions import ConfigurationError
from repro.simulation.binary import BinaryWorkerPopulation


#: Construction of SparseAgreementBackend needs a real scipy; every other
#: test runs on the scipy-less CI leg too (degradation is itself under test).
needs_scipy = pytest.mark.skipif(
    not scipy_available(), reason="scipy not installed"
)


def random_matrix(seed: int, m: int, n: int, arity: int = 2, density=0.5):
    rng = np.random.default_rng(seed)
    matrix = ResponseMatrix(n_workers=m, n_tasks=n, arity=arity)
    for worker in range(m):
        for task in np.nonzero(rng.random(n) < density)[0]:
            matrix.add_response(worker, int(task), int(rng.integers(0, arity)))
    return matrix


# --------------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------------- #


class TestAutoBackendChoice:
    def test_worker_limit_always_dict(self):
        m = AUTO_DENSE_WORKER_LIMIT + 1
        assert auto_backend_choice(m, 10, 10, sparse_available=True) == "dict"

    def test_small_grids_stay_dense_regardless_of_fill(self):
        # At or below AUTO_SPARSE_MIN_CELLS the dense build is trivially
        # cheap; even a 0.1% fill must not flip to sparse.
        assert auto_backend_choice(100, 1000, 100, sparse_available=True) == "dense"
        m, n = 1024, AUTO_SPARSE_MIN_CELLS // 1024
        assert auto_backend_choice(m, n, 10, sparse_available=True) == "dense"

    def test_density_boundary_inside_dense_limit(self):
        m = 1000
        n = (AUTO_SPARSE_MIN_CELLS // m) + 1000  # just above the min-cells gate
        cells = m * n
        just_below = int(cells * AUTO_SPARSE_DENSITY) - 1
        at_threshold = int(np.ceil(cells * AUTO_SPARSE_DENSITY))
        assert auto_backend_choice(m, n, just_below, sparse_available=True) == "sparse"
        assert auto_backend_choice(m, n, at_threshold, sparse_available=True) == "dense"

    def test_sparse_needs_scipy(self):
        m = 1000
        n = (AUTO_SPARSE_MIN_CELLS // m) + 1000
        assert auto_backend_choice(m, n, 100, sparse_available=False) == "dense"

    def test_dense_cell_limit_boundary(self):
        m = 100
        n_fit = AUTO_DENSE_CELL_LIMIT // m
        n_over = n_fit + 1
        dense_fill = int(m * n_over * 0.5)
        # At the limit the dense arrays fit; one cell over, they do not and
        # the well-filled grid falls to the bitset planes.
        assert auto_backend_choice(m, n_fit, dense_fill, sparse_available=True) == "dense"
        assert (
            auto_backend_choice(m, n_over, dense_fill, sparse_available=True)
            == "bitset"
        )

    def test_sparse_beyond_dense_limit(self):
        m = 100
        n = AUTO_DENSE_CELL_LIMIT // m + 1
        sparse_fill = int(m * n * AUTO_SPARSE_DENSITY) - 1
        assert auto_backend_choice(m, n, sparse_fill, sparse_available=True) == "sparse"
        # Without scipy the same shape degrades to the bitset planes.
        assert auto_backend_choice(m, n, sparse_fill, sparse_available=False) == "bitset"

    def test_bitset_ceiling_falls_to_dict(self):
        m = 100
        n = AUTO_BITSET_CELL_LIMIT // m + 1
        dense_fill = int(m * n * 0.5)
        assert auto_backend_choice(m, n, dense_fill, sparse_available=True) == "dict"

    def test_bitset_ceiling_scales_with_arity(self):
        # Bitset storage is (arity + 1) planes; at the binary ceiling a
        # 15-ary grid would cost >5x the budget, so the model must refuse.
        m = 100
        n = AUTO_BITSET_CELL_LIMIT // m  # exactly the binary ceiling
        dense_fill = int(m * n * 0.5)
        assert (
            auto_backend_choice(m, n, dense_fill, sparse_available=False)
            == "bitset"
        )
        assert (
            auto_backend_choice(m, n, dense_fill, sparse_available=False, arity=15)
            == "dict"
        )


class TestResolveBackend:
    def test_explicit_backend_always_wins(self, monkeypatch):
        # Shrink every auto limit below the matrix: explicit requests must
        # ignore all of them.
        monkeypatch.setattr(dense_backend_module, "AUTO_DENSE_CELL_LIMIT", 1)
        monkeypatch.setattr(dense_backend_module, "AUTO_BITSET_CELL_LIMIT", 1)
        monkeypatch.setattr(dense_backend_module, "AUTO_SPARSE_MIN_CELLS", 0)
        matrix = random_matrix(7, 6, 30)
        assert isinstance(resolve_backend(matrix, "dense"), DenseAgreementBackend)
        assert isinstance(resolve_backend(matrix, "bitset"), BitsetAgreementBackend)
        if scipy_available():
            assert isinstance(
                resolve_backend(matrix, "sparse"), SparseAgreementBackend
            )
        assert resolve_backend(matrix, "dict") is None
        assert resolve_backend(matrix, "auto") is None  # every limit shrunk -> dict

    def test_instance_passthrough(self):
        matrix = random_matrix(8, 5, 20)
        for cls in (DenseAgreementBackend, BitsetAgreementBackend):
            instance = cls(matrix)
            assert resolve_backend(matrix, instance) is instance

    def test_unknown_backend_rejected(self):
        matrix = random_matrix(9, 4, 10)
        with pytest.raises(ConfigurationError):
            resolve_backend(matrix, "gpu")

    def test_backend_choices_cover_new_backends(self):
        assert {"auto", "dense", "dict", "sparse", "bitset"} == set(BACKEND_CHOICES)

    def test_capability_flags(self):
        matrix = random_matrix(10, 5, 20)
        assert BitsetAgreementBackend(matrix).name == "bitset"
        assert SparseAgreementBackend.name == "sparse"

    def test_sparse_without_scipy_degrades_to_dense(self, monkeypatch):
        monkeypatch.setattr(sparse_backend_module, "_SCIPY_OVERRIDE", False)
        assert not scipy_available()
        matrix = random_matrix(11, 6, 30)
        resolved = resolve_backend(matrix, "sparse")
        assert isinstance(resolved, DenseAgreementBackend)
        assert not isinstance(resolved, BitsetAgreementBackend)
        with pytest.raises(ConfigurationError):
            SparseAgreementBackend(matrix)

    def test_sparse_without_scipy_degrades_to_bitset_beyond_dense_limit(
        self, monkeypatch
    ):
        monkeypatch.setattr(sparse_backend_module, "_SCIPY_OVERRIDE", False)
        monkeypatch.setattr(dense_backend_module, "AUTO_DENSE_CELL_LIMIT", 10)
        matrix = random_matrix(12, 6, 30)
        assert isinstance(resolve_backend(matrix, "sparse"), BitsetAgreementBackend)


# --------------------------------------------------------------------------- #
# Backend count parity
# --------------------------------------------------------------------------- #


@pytest.fixture(
    params=["bitset", pytest.param("sparse", marks=needs_scipy)]
)
def backend_cls(request):
    return {
        "bitset": BitsetAgreementBackend,
        "sparse": SparseAgreementBackend,
    }[request.param]


class TestBackendParity:
    @pytest.mark.parametrize("seed,m,n,arity,density", [
        (21, 8, 40, 2, 0.5),
        (22, 6, 64, 3, 0.25),
        (23, 10, 33, 4, 0.8),
        (24, 7, 50, 2, 0.04),
    ])
    def test_counts_match_dense(self, backend_cls, seed, m, n, arity, density):
        matrix = random_matrix(seed, m, n, arity=arity, density=density)
        dense = DenseAgreementBackend(matrix)
        other = backend_cls(matrix)
        assert np.array_equal(other.common_counts, dense.common_counts)
        assert np.array_equal(other.agreement_counts, dense.agreement_counts)
        assert np.array_equal(other.task_votes, dense.task_votes)
        assert (
            other.majority_disagreement_rates()
            == dense.majority_disagreement_rates()
        )
        partners = np.arange(1, m)
        assert np.array_equal(
            other.triple_count_matrix(0, partners),
            dense.triple_count_matrix(0, partners),
        )
        for worker in range(m):
            assert np.array_equal(
                np.asarray(other.triple_count_grid_full(worker), dtype=np.float64),
                np.asarray(dense.triple_count_grid_full(worker), dtype=np.float64),
            )
        workers = (0, m // 2, m - 1)
        assert np.array_equal(
            other.response_count_tensor(workers),
            dense.response_count_tensor(workers),
        )
        rates, two_q, flags = other.clamped_rate_data(0.05)
        d_rates, d_two_q, d_flags = dense.clamped_rate_data(0.05)
        assert np.array_equal(rates, d_rates, equal_nan=True)
        assert np.array_equal(two_q, d_two_q, equal_nan=True)
        assert np.array_equal(flags, d_flags)

    def test_empty_and_full_rows(self, backend_cls):
        matrix = ResponseMatrix(n_workers=4, n_tasks=10, arity=2)
        for task in range(10):
            matrix.add_response(1, task, task % 2)
        matrix.add_response(2, 3, 1)
        dense = DenseAgreementBackend(matrix)
        other = backend_cls(matrix)
        assert np.array_equal(other.common_counts, dense.common_counts)
        assert np.array_equal(other.agreement_counts, dense.agreement_counts)
        assert (
            other.majority_disagreement_rates()
            == dense.majority_disagreement_rates()
        )

    def test_apply_response_parity(self, backend_cls):
        matrix = random_matrix(31, 7, 29, arity=3, density=0.4)
        dense = DenseAgreementBackend(matrix)
        other = backend_cls(matrix)
        # Materialize everything up front so the deltas patch, not rebuild.
        for backend in (dense, other):
            backend.common_counts
            backend.agreement_counts
            backend.task_votes
        rng = np.random.default_rng(31)
        shadow = {
            (w, t): matrix.response(w, t)
            for w in range(7)
            for t in range(29)
            if matrix.response(w, t) is not None
        }
        for _ in range(120):
            worker = int(rng.integers(0, 7))
            task = int(rng.integers(0, 29))
            label = int(rng.integers(0, 3))
            previous = shadow.get((worker, task))
            dense.apply_response(worker, task, label, previous)
            other.apply_response(worker, task, label, previous)
            shadow[(worker, task)] = label
        assert np.array_equal(other.common_counts, dense.common_counts)
        assert np.array_equal(other.agreement_counts, dense.agreement_counts)
        assert np.array_equal(other.task_votes, dense.task_votes)
        partners = np.arange(1, 7)
        assert np.array_equal(
            other.triple_count_matrix(0, partners),
            dense.triple_count_matrix(0, partners),
        )
        assert other.pair(0, 1) == dense.pair(0, 1)
        assert other.triple_common_count(0, 1, 2) == dense.triple_common_count(0, 1, 2)

    def test_apply_response_validation(self, backend_cls):
        from repro.exceptions import DataValidationError

        backend = backend_cls(random_matrix(32, 5, 16))
        with pytest.raises(DataValidationError):
            backend.apply_response(99, 0, 1)
        with pytest.raises(DataValidationError):
            backend.apply_response(0, 99, 1)
        with pytest.raises(DataValidationError):
            backend.apply_response(0, 0, 7)


# --------------------------------------------------------------------------- #
# extend_tasks auto-flip across the new cost-model tiers
# --------------------------------------------------------------------------- #


class TestExtendTasksAutoFlip:
    def _run_flip(self, monkeypatch, expected_cls, rng):
        """Shared scenario: warm a dense-backed evaluator, grow the task
        space so the cost model flips to ``expected_cls``, keep streaming,
        and verify everything served equals a fresh batch run."""
        n_workers, initial_tasks, extra_tasks = 6, 30, 90
        incremental = IncrementalEvaluator(
            n_workers, initial_tasks, confidence=0.9, backend="auto"
        )
        assert isinstance(incremental._backend, DenseAgreementBackend)
        assert not isinstance(incremental._backend, BitsetAgreementBackend)

        population = BinaryWorkerPopulation.from_paper_palette(n_workers, rng)
        early = population.generate(initial_tasks, rng, densities=0.75)
        incremental.add_responses(early.iter_responses())
        incremental.estimate_all()

        incremental.extend_tasks(extra_tasks)
        assert isinstance(incremental._backend, expected_cls)
        # Empty tasks change no statistic: caches survive the flip.
        assert not incremental.dirty_workers

        late = population.generate(extra_tasks, rng, densities=0.2)
        incremental.add_responses(
            (worker, task + initial_tasks, label)
            for worker, task, label in late.iter_responses()
        )
        served = incremental.estimate_all()
        reference = MWorkerEstimator(confidence=0.9, backend="dict").evaluate_all(
            incremental.matrix
        )
        for ref in reference:
            if ref.n_tasks == 0:
                continue
            estimate = served[ref.worker]
            assert estimate.interval.mean == ref.interval.mean
            assert estimate.interval.lower == ref.interval.lower
            assert estimate.interval.upper == ref.interval.upper
            assert estimate.interval.deviation == ref.interval.deviation
            assert estimate.weights == ref.weights
            assert estimate.status is ref.status

    def test_flip_to_bitset(self, rng, monkeypatch):
        # Grown grid exceeds the (shrunk) dense cell limit but fits the
        # bitset ceiling; the fill stays above the sparse density cut.
        monkeypatch.setattr(dense_backend_module, "AUTO_DENSE_CELL_LIMIT", 240)
        self._run_flip(monkeypatch, BitsetAgreementBackend, rng)

    def test_flip_to_sparse(self, rng, monkeypatch):
        if not scipy_available():  # pragma: no cover - scipy-less CI leg
            pytest.skip("scipy not installed")
        # Grown grid crosses the (shrunk) min-cells gate with a fill below
        # the (raised) density cut: the cost model lands on sparse.
        monkeypatch.setattr(dense_backend_module, "AUTO_SPARSE_MIN_CELLS", 240)
        monkeypatch.setattr(dense_backend_module, "AUTO_SPARSE_DENSITY", 0.6)
        self._run_flip(monkeypatch, SparseAgreementBackend, rng)

    def test_flip_to_dict_stays_locked(self, rng, monkeypatch):
        # The historical dense -> dict flip, now requiring every vectorized
        # tier to be exhausted (kept in sync with the identical scenario in
        # test_incremental_and_new_baselines.py).
        monkeypatch.setattr(dense_backend_module, "AUTO_DENSE_CELL_LIMIT", 240)
        monkeypatch.setattr(dense_backend_module, "AUTO_BITSET_CELL_LIMIT", 240)
        n_workers, initial_tasks = 6, 30
        incremental = IncrementalEvaluator(
            n_workers, initial_tasks, confidence=0.9, backend="auto"
        )
        population = BinaryWorkerPopulation.from_paper_palette(n_workers, rng)
        incremental.add_responses(
            population.generate(initial_tasks, rng, densities=0.75).iter_responses()
        )
        incremental.extend_tasks(30)
        assert incremental._backend is None
