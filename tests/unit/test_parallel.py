"""Unit tests for the thread-parallel execution layer.

The cross-backend differential suite owns bit-identity of the thread tier;
these tests pin the layer's own contracts: spec parsing, the ``"auto"``
cost model, executor pool reuse and shutdown semantics, chunk dispatch and
that a failing chunk surfaces its error without poisoning the shared pool.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.parallel as parallel_module
from repro.core.agreement import compute_agreement_statistics
from repro.core.estimator import WorkerEvaluator
from repro.core.incremental import IncrementalEvaluator
from repro.core.m_worker import MWorkerEstimator
from repro.core.parallel import (
    AUTO_SHARD_THREAD_MIN_WORK,
    MAX_AUTO_SHARDS,
    ShardExecutor,
    auto_shard_choice,
    contiguous_ranges,
    evaluate_worker_subset,
    get_executor,
    parse_shard_spec,
)
from repro.core.spammer_filter import filter_spammers
from repro.data.response_matrix import ResponseMatrix
from repro.exceptions import ConfigurationError
from repro.serve import SessionConfig


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
            (2, ("thread", 2)),
            (5, ("thread", 5)),
            ("6", ("thread", 6)),
            (" 3 ", ("thread", 3)),
            ("auto", ("auto", None)),
            ("  AUTO ", ("auto", None)),
        ],
    )
    def test_accepted_specs(self, spec, expected):
        assert parse_shard_spec(spec) == expected

    @pytest.mark.parametrize(
        "spec",
        [0, -2, True, 2.5, "0", "-3", "thread:0", "process:-1",
         "thread:x", "bogus", "",
         # the tier-prefixed grammar is retired: N alone means N threads
         "thread:3", "process:2", "thread:1", "process:1", "THREAD:2",
         "process:4"],
    )
    def test_rejected_specs(self, spec):
        with pytest.raises(ConfigurationError):
            parse_shard_spec(spec)

    @pytest.mark.parametrize("spec", ["thread:2", "process:2"])
    def test_prefixed_spec_error_names_the_grammar(self, spec):
        with pytest.raises(ConfigurationError, match="positive integer.*'auto'"):
            parse_shard_spec(spec)


ENTRY_POINTS = pytest.mark.parametrize(
    "build",
    [
        lambda spec: MWorkerEstimator(shards=spec),
        lambda spec: WorkerEvaluator(shards=spec),
        lambda spec: IncrementalEvaluator(3, 4, shards=spec),
        lambda spec: SessionConfig(shards=spec),
        lambda spec: filter_spammers(build_matrix(), shards=spec),
    ],
    ids=[
        "MWorkerEstimator",
        "WorkerEvaluator",
        "IncrementalEvaluator",
        "SessionConfig",
        "filter_spammers",
    ],
)


@ENTRY_POINTS
def test_every_entry_point_rejects_prefixed_specs(build):
    with pytest.raises(ConfigurationError):
        build("process:2")


@ENTRY_POINTS
@pytest.mark.parametrize("spec", [0, -1, True, 2.5])
def test_every_entry_point_rejects_malformed_specs(build, spec):
    # Rejected when the entry point is built, before any data is seen.
    with pytest.raises(ConfigurationError):
        build(spec)


class TestAutoShardChoice:
    def test_single_core_hosts_always_serial(self):
        assert auto_shard_choice(500, 20_000, 500 * 20_000, cores=1) == ("serial", 1)

    def test_tiny_worker_counts_always_serial(self):
        assert auto_shard_choice(3, 1_000_000, 3_000_000, cores=8) == ("serial", 1)

    def test_small_work_stays_serial(self):
        # 10 workers x 10 tasks, fully filled: work proxy far below 2^22.
        assert auto_shard_choice(10, 10, 100, cores=8) == ("serial", 1)

    def test_medium_work_picks_thread_tier(self):
        # 200 x 2000 fully filled: 8e7 clears the 2^22 limit.
        work = 200 * 200 * 2000
        assert work >= AUTO_SHARD_THREAD_MIN_WORK
        assert auto_shard_choice(200, 2000, 200 * 2000, cores=8) == ("thread", 8)

    def test_large_work_picks_thread_tier(self):
        # 500 x 20000 at 10% fill: threads are the only parallel tier, so
        # even the largest work stays on them.
        responses = 500 * 20_000 // 10
        assert auto_shard_choice(500, 20_000, responses, cores=4) == ("thread", 4)

    def test_shard_count_capped_by_cores_and_ceiling(self):
        tier, shards = auto_shard_choice(500, 20_000, 500 * 20_000, cores=32)
        assert tier == "thread"
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

    def test_get_executor_is_shared_and_recreated_after_shutdown(self):
        shared = get_executor()
        assert get_executor() is shared
        shared.shutdown()
        fresh = get_executor()
        assert fresh is not shared
        assert not fresh.closed

    def test_thread_pool_reused_across_evaluations(self):
        matrix = build_matrix()
        serial = MWorkerEstimator(confidence=0.9, backend="dense").evaluate_all(
            matrix
        )
        estimator = MWorkerEstimator(confidence=0.9, backend="dense", shards=2)
        first = estimator.evaluate_all(matrix)
        pool = get_executor().thread_pool(2)
        second = estimator.evaluate_all(matrix)
        assert get_executor().thread_pool(2) is pool
        assert first == serial
        assert second == serial


class TestShardedModuleRemoved:
    def test_module_is_gone(self):
        # repro.core.sharded finished its deprecation cycle and its
        # import-error stub is deleted too: the thread tier lives in
        # repro.core.parallel only.
        import importlib
        import sys

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.sharded")
        assert "repro.core.sharded" not in sys.modules


class TestWorkerSubsetDispatch:
    def _setup(self, shards=2):
        matrix = build_matrix()
        estimator = MWorkerEstimator(confidence=0.9, backend="dense", shards=shards)
        stats = compute_agreement_statistics(matrix, backend="dense")
        return matrix, estimator, stats

    def test_subset_in_given_order_with_footprints(self):
        matrix, estimator, stats = self._setup()
        workers = [7, 2, 5, 0, 8]
        estimates, footprints = evaluate_worker_subset(
            estimator, matrix, stats, workers, collect_footprints=True
        )
        serial_estimates, serial_footprints = estimator.evaluate_worker_range(
            matrix, stats, workers, collect_footprints=True
        )
        assert [estimate.worker for estimate in estimates] == workers
        assert estimates == serial_estimates
        assert len(footprints) == len(serial_footprints) == len(workers)
        for threaded, serial in zip(footprints, serial_footprints):
            assert threaded.worker == serial.worker
            assert threaded.touch_target == serial.touch_target
            assert np.array_equal(threaded.pairs, serial.pairs)
            assert np.array_equal(threaded.support, serial.support)

    def test_fewer_workers_than_shards_stays_serial(self, monkeypatch):
        matrix, estimator, stats = self._setup(shards=4)

        def _forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("three workers cannot fill four shards")

        monkeypatch.setattr(parallel_module, "evaluate_all_threaded", _forbidden)
        estimates = evaluate_worker_subset(estimator, matrix, stats, [1, 4, 6])
        assert [estimate.worker for estimate in estimates] == [1, 4, 6]

    def test_failing_chunk_raises_and_pool_stays_usable(self, monkeypatch):
        matrix, estimator, _ = self._setup()
        serial = MWorkerEstimator(confidence=0.9, backend="dense").evaluate_all(
            matrix
        )
        original = MWorkerEstimator.evaluate_worker_range

        def failing(self, matrix, stats, workers, collect_footprints=False):
            if 0 not in workers:
                raise RuntimeError("chunk died")
            return original(self, matrix, stats, workers, collect_footprints)

        monkeypatch.setattr(MWorkerEstimator, "evaluate_worker_range", failing)
        with pytest.raises(RuntimeError, match="chunk died"):
            estimator.evaluate_all(matrix)
        monkeypatch.setattr(MWorkerEstimator, "evaluate_worker_range", original)
        assert estimator.evaluate_all(matrix) == serial
