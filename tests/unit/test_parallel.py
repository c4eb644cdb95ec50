"""Unit tests for the reusable parallel execution layer.

The cross-backend differential suite owns bit-identity of every tier; these
tests pin the layer's own contracts: spec parsing, the ``"auto"`` cost
model, executor pool reuse and shutdown semantics, the O(1) matrix view,
and that a failed process-sharded call never leaks shared memory.
"""

from __future__ import annotations

from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

import repro.core.parallel as parallel_module
from repro.core.m_worker import MWorkerEstimator
from repro.core.agreement import compute_agreement_statistics
from repro.core.parallel import (
    AUTO_SHARD_PROCESS_MIN_WORK,
    AUTO_SHARD_THREAD_MIN_WORK,
    MAX_AUTO_SHARDS,
    ShardExecutor,
    SharedMatrixView,
    auto_shard_choice,
    contiguous_ranges,
    evaluate_all_process,
    get_executor,
    parse_shard_spec,
)
from repro.data.response_matrix import ResponseMatrix
from repro.exceptions import ConfigurationError


def build_matrix(seed: int = 7, n_workers: int = 9, n_tasks: int = 40):
    rng = np.random.default_rng(seed)
    matrix = ResponseMatrix(n_workers=n_workers, n_tasks=n_tasks, arity=2)
    for worker in range(n_workers):
        for task in range(n_tasks):
            if rng.random() < 0.8:
                good = rng.random() < (0.9 - 0.05 * worker)
                matrix.add_response(worker, task, int(good))
    return matrix


class TestParseShardSpec:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (1, ("serial", 1)),
            ("1", ("serial", 1)),
            (5, ("process", 5)),
            ("6", ("process", 6)),
            ("auto", ("auto", None)),
            ("  AUTO ", ("auto", None)),
            ("thread:3", ("thread", 3)),
            ("process:2", ("process", 2)),
            # N == 1 collapses to serial regardless of the pinned tier
            ("thread:1", ("serial", 1)),
            ("process:1", ("serial", 1)),
        ],
    )
    def test_accepted_specs(self, spec, expected):
        assert parse_shard_spec(spec) == expected

    @pytest.mark.parametrize(
        "spec",
        [0, -2, True, 2.5, "0", "-3", "thread:0", "process:-1",
         "thread:x", "bogus", ""],
    )
    def test_rejected_specs(self, spec):
        with pytest.raises(ConfigurationError):
            parse_shard_spec(spec)


class TestAutoShardChoice:
    def test_single_core_hosts_always_serial(self):
        assert auto_shard_choice(500, 20_000, 500 * 20_000, cores=1) == ("serial", 1)

    def test_tiny_worker_counts_always_serial(self):
        assert auto_shard_choice(3, 1_000_000, 3_000_000, cores=8) == ("serial", 1)

    def test_small_work_stays_serial(self):
        # 10 workers x 10 tasks, fully filled: work proxy far below 2^22.
        assert auto_shard_choice(10, 10, 100, cores=8) == ("serial", 1)

    def test_medium_work_picks_thread_tier(self):
        # 200 x 2000 fully filled: 8e7 sits between the 2^22 and 2^27 limits.
        work = 200 * 200 * 2000
        assert AUTO_SHARD_THREAD_MIN_WORK <= work < AUTO_SHARD_PROCESS_MIN_WORK
        assert auto_shard_choice(200, 2000, 200 * 2000, cores=8) == ("thread", 8)

    def test_large_work_picks_process_tier(self):
        # 500 x 20000 at 10% fill clears the process threshold.
        responses = 500 * 20_000 // 10
        work = 500 * 500 * 20_000 // 10
        assert work >= AUTO_SHARD_PROCESS_MIN_WORK
        assert auto_shard_choice(500, 20_000, responses, cores=4) == ("process", 4)

    def test_shard_count_capped_by_cores_and_ceiling(self):
        tier, shards = auto_shard_choice(500, 20_000, 500 * 20_000, cores=32)
        assert tier == "process"
        assert shards == MAX_AUTO_SHARDS
        assert auto_shard_choice(500, 20_000, 500 * 20_000, cores=2)[1] == 2

    def test_fill_scales_the_work_proxy_down(self):
        # The same shape that picks thread when full drops to serial when
        # nearly empty — the proxy is responses-aware, not shape-aware.
        assert auto_shard_choice(200, 2000, 200 * 2000, cores=8)[0] == "thread"
        assert auto_shard_choice(200, 2000, 2000, cores=8) == ("serial", 1)


class TestContiguousRanges:
    @pytest.mark.parametrize("n,shards", [(10, 3), (10, 10), (7, 2), (16, 4)])
    def test_ranges_partition_worker_order(self, n, shards):
        ranges = contiguous_ranges(n, shards)
        assert len(ranges) == shards
        covered = [w for start, stop in ranges for w in range(start, stop)]
        assert covered == list(range(n))


class TestSharedMatrixView:
    def test_constant_time_counts_and_properties(self):
        counts = np.array([5, 0, 12], dtype=np.int64)
        view = SharedMatrixView(counts, n_tasks=40, arity=2)
        assert view.n_workers == 3
        assert view.n_tasks == 40
        assert view.arity == 2
        assert view.is_binary
        assert [view.n_tasks_of(w) for w in range(3)] == [5, 0, 12]

    def test_non_binary_flag(self):
        view = SharedMatrixView(np.array([1], dtype=np.int64), n_tasks=4, arity=3)
        assert not view.is_binary


class TestShardExecutor:
    def test_thread_pools_cached_by_size(self):
        with ShardExecutor() as executor:
            pool_two = executor.thread_pool(2)
            assert executor.thread_pool(2) is pool_two
            assert executor.thread_pool(3) is not pool_two
        assert executor.closed

    def test_shutdown_is_idempotent_and_closes_pool_use(self):
        executor = ShardExecutor()
        executor.thread_pool(2)
        executor.shutdown()
        executor.shutdown()
        assert executor.closed
        with pytest.raises(ConfigurationError):
            executor.thread_pool(2)
        with pytest.raises(ConfigurationError):
            executor.process_pool(2)

    def test_get_executor_is_shared_and_recreated_after_shutdown(self):
        shared = get_executor()
        assert get_executor() is shared
        shared.shutdown()
        fresh = get_executor()
        assert fresh is not shared
        assert not fresh.closed

    def test_process_pool_reused_across_evaluations(self):
        matrix = build_matrix()
        serial = MWorkerEstimator(confidence=0.9, backend="dense").evaluate_all(
            matrix
        )
        estimator = MWorkerEstimator(confidence=0.9, backend="dense", shards=2)
        first = estimator.evaluate_all(matrix)
        pool = get_executor().process_pool(2)
        second = estimator.evaluate_all(matrix)
        assert get_executor().process_pool(2) is pool
        assert first == serial
        assert second == serial


class TestShardedModuleRemoved:
    def test_module_is_gone(self):
        # repro.core.sharded finished its deprecation cycle and its
        # import-error stub is deleted too: the sharded tiers live in
        # repro.core.parallel only.
        import importlib
        import sys

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.sharded")
        assert "repro.core.sharded" not in sys.modules


class TestExportCleanup:
    def _recording_export(self, monkeypatch):
        original = parallel_module._export_array
        exported: list[str] = []

        def recording(array):
            segment, spec = original(array)
            exported.append(spec.name)
            return segment, spec

        monkeypatch.setattr(parallel_module, "_export_array", recording)
        return exported

    def _assert_all_unlinked(self, names):
        assert names, "the export step never ran"
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)

    def test_failed_dispatch_unlinks_every_segment(self, monkeypatch):
        exported = self._recording_export(monkeypatch)

        class FailingPool:
            def map(self, func, payloads):
                raise RuntimeError("pool initializer died")

        class FailingExecutor:
            def process_pool(self, shards):
                return FailingPool()

        monkeypatch.setattr(
            parallel_module, "get_executor", lambda: FailingExecutor()
        )
        matrix = build_matrix()
        estimator = MWorkerEstimator(confidence=0.9, backend="dense", shards=2)
        stats = compute_agreement_statistics(matrix, backend="dense")
        with pytest.raises(RuntimeError, match="pool initializer died"):
            evaluate_all_process(estimator, matrix, stats, 2)
        self._assert_all_unlinked(exported)

    def test_failed_export_unlinks_earlier_segments(self, monkeypatch):
        exported = self._recording_export(monkeypatch)
        recording = parallel_module._export_array
        calls = {"n": 0}

        def failing(array):
            calls["n"] += 1
            if calls["n"] == 3:
                raise OSError("shared memory exhausted")
            return recording(array)

        monkeypatch.setattr(parallel_module, "_export_array", failing)
        matrix = build_matrix()
        estimator = MWorkerEstimator(confidence=0.9, backend="dense", shards=2)
        stats = compute_agreement_statistics(matrix, backend="dense")
        with pytest.raises(OSError, match="shared memory exhausted"):
            evaluate_all_process(estimator, matrix, stats, 2)
        assert len(exported) == 2
        self._assert_all_unlinked(exported)
