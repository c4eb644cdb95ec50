"""Unit tests for the dependency ledger (:mod:`repro.core.deps`).

The differential suite proves the vectorized backends' ledger decisions equal
the dict backend's on fuzzed streams, and that every cache the ledger keeps
equals a fresh batch build; this file pins the edge cases
of the ledger itself — empty footprints, id remapping after a spammer
compaction, growth across backend auto-flips, and the array round-trip
behind durable snapshots.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.deps import (
    DependencyLedger,
    WorkerFootprint,
    encode_pair_ids,
)
from repro.core.incremental import IncrementalEvaluator
from repro.core.m_worker import MWorkerEstimator
from repro.core.spammer_filter import filter_spammers
from repro.data.response_matrix import ResponseMatrix


def footprint(worker, partners=(), probes=()):
    return WorkerFootprint.from_evaluation(worker, partners, probes)


class TestLedgerBasics:
    def test_empty_ledger_invalidates_nothing(self):
        ledger = DependencyLedger()
        assert ledger.invalidated([(0, 1), (2, 3)]) == set()

    def test_touch_rule_invalidates_recorded_endpoints_only(self):
        ledger = DependencyLedger()
        ledger.record(1, footprint(1, partners=(2, 3)))
        ledger.record(5, footprint(5, partners=(2, 6)))
        # Pair (1, 9): worker 1 is a recorded endpoint -> touch rule fires;
        # worker 5 records neither endpoint in its support.
        assert ledger.invalidated([(1, 9)]) == {1}

    def test_probe_pairs_invalidate_third_party_readers(self):
        ledger = DependencyLedger()
        ledger.record(0, footprint(0, partners=(1, 2), probes=[(3, 4)]))
        # (3, 4) was only scanned during 0's pairing; neither endpoint is in
        # 0's support, so only the probe log catches the read.
        assert ledger.invalidated([(3, 4)]) == {0}
        assert ledger.invalidated([(4, 3)]) == {0}  # key order normalized

    def test_support_pairs_invalidate_lemma4_readers(self):
        ledger = DependencyLedger()
        ledger.record(0, footprint(0, partners=(1, 2, 3, 4)))
        # A changed pair between two formed partners is a Lemma-4 read.
        assert ledger.invalidated([(2, 3)]) == {0}
        # One endpoint outside the support set: no hit.
        assert ledger.invalidated([(2, 9)]) == set()

    def test_forget_and_record_replace(self):
        ledger = DependencyLedger()
        ledger.record(0, footprint(0, partners=(1, 2)))
        ledger.forget(0)
        assert 0 not in ledger
        assert ledger.invalidated([(1, 2)]) == set()


class TestZeroDependencyCaching:
    def test_isolated_worker_estimate_stays_cached(self):
        """A worker overlapping nobody records an empty footprint, and its
        cached (degenerate) estimate survives unrelated traffic."""
        ev = IncrementalEvaluator(5, 30, backend="dense")
        # Workers 0-3 share tasks 0-9; worker 4 answers only task 20.
        records = [
            (w, t, (w + t) % 2) for w in range(4) for t in range(10)
        ] + [(4, 20, 1)]
        ev.apply_batch(records)
        ev.estimate_all()
        isolated = ev.estimate(4)
        assert ev._ledger.footprint(4) is not None
        assert ev._ledger.footprint(4).pairs.size == 0
        # Traffic among the connected component leaves the isolated worker's
        # cache alone (no recorded dependency can match).
        baseline = ev.recompute_count
        ev.apply_batch([(0, 5, 1), (1, 5, 0)])
        assert 4 not in ev.dirty_workers
        assert ev.estimate(4) is isolated
        assert ev.recompute_count == baseline
        # ... but a response landing on the isolated worker's own task does
        # invalidate it (touch rule on the new pair).
        ev.apply_batch([(0, 20, 0)])
        assert 4 in ev.dirty_workers


class TestRemap:
    def test_filter_spammers_convention_drops_removed_pairs(self):
        ledger = DependencyLedger()
        # Old ids: 0 (kept), 1 (removed), 2 (kept), 3 (kept).
        ledger.record(0, footprint(0, partners=(2, 3), probes=[(1, 2), (2, 3)]))
        ledger.record(1, footprint(1, partners=(0, 2)))
        kept = (0, 2, 3)  # kept_workers[new_id] == old_id
        ledger.remap(kept)
        # The removed worker's footprint is gone with its old id.
        assert ledger.workers == {0}
        fp = ledger.footprint(0)
        # Probe pair (1, 2) referenced the removed worker and is dropped;
        # (2, 3) survives re-encoded under the new ids (2 -> 1, 3 -> 2).
        assert fp.pairs.tolist() == encode_pair_ids([(1, 2)]).tolist()
        assert fp.support.tolist() == [0, 1, 2]
        # Invalidation now speaks new ids: the surviving recorded pair hits,
        # a pair involving a recycled-but-unrelated id does not.
        assert ledger.invalidated([(1, 2)]) == {0}

    def test_remap_via_spammer_filter_result(self):
        """End-to-end: record footprints on the unfiltered matrix, compact
        with filter_spammers, remap, and check decisions against footprints
        recorded fresh on the filtered matrix."""
        rng = np.random.default_rng(42)
        matrix = ResponseMatrix(n_workers=8, n_tasks=40, arity=2)
        truth = rng.integers(0, 2, size=40)
        for worker in range(8):
            for task in range(40):
                if worker in (2, 5):  # spammers answer at random
                    label = int(rng.integers(0, 2))
                else:
                    flip = rng.random() < 0.15
                    label = int(truth[task] ^ flip)
                matrix.add_response(worker, task, label)
        result = filter_spammers(matrix)
        if not result.removed_workers:
            pytest.skip("filter removed nobody for this draw")
        estimator = MWorkerEstimator(backend="dense")
        from repro.core.agreement import AgreementStatistics
        from repro.data.dense_backend import resolve_backend

        stats = AgreementStatistics(
            matrix=matrix, backend=resolve_backend(matrix, "dense")
        )
        _, footprints = estimator.evaluate_worker_range(
            matrix, stats, list(range(matrix.n_workers)),
            collect_footprints=True,
        )
        ledger = DependencyLedger()
        for fp in footprints:
            ledger.record(fp.worker, fp)
        ledger.remap(result.kept_workers)
        assert ledger.workers == set(range(len(result.kept_workers)))
        for new_id, fp in ((w, ledger.footprint(w)) for w in ledger.workers):
            assert fp.worker == new_id
            assert all(
                0 <= member < len(result.kept_workers)
                for member in fp.support.tolist()
            )


class TestGrowthSurvival:
    def test_ledger_survives_extend_and_auto_flip(self):
        """Cached estimates (and their footprints) survive extend_tasks /
        extend_workers, including an ``auto`` backend kind flip."""
        ev = IncrementalEvaluator(6, 10, backend="auto")
        records = [(w, t, (w * t) % 2) for w in range(6) for t in range(10)]
        ev.apply_batch(records)
        ev.estimate_all()
        recorded = set(ev._ledger.workers)
        assert recorded == set(range(6))
        rebuilds_before = ev.backend_rebuilds
        # Grow the grid far enough that the cost model may flip the kind.
        ev.extend_tasks(300_000)
        ev.extend_workers(2)
        assert ev._ledger.workers == recorded, (
            "growth (rebuilds: "
            f"{ev.backend_rebuilds - rebuilds_before}) must not drop "
            "recorded footprints"
        )
        assert ev.dirty_workers == {6, 7}  # only the new, data-less workers
        baseline = ev.recompute_count
        ev.estimate_all()
        assert ev.recompute_count == baseline, (
            "no pre-growth estimate may recompute: added ids carry no "
            "responses, so no recorded statistic changed"
        )
        # New responses by a grown worker invalidate stale old caches (the
        # endpoint/touch rule catches pairs that did not exist at eval time).
        ev.apply_batch([(6, t, 1) for t in range(10)])
        assert 6 in ev.dirty_workers
        streamed = ev.estimate_all()
        fresh = IncrementalEvaluator(8, 300_010, backend="auto")
        fresh.apply_batch(
            records + [(6, t, 1) for t in range(10)]
        )
        assert fresh.estimate_all() == streamed


class TestRoundTrip:
    def test_export_import_preserves_decisions(self):
        ledger = DependencyLedger()
        ledger.record(0, footprint(0, partners=(1, 2), probes=[(3, 4)]))
        ledger.record(3, footprint(3, partners=(0, 5)))
        ledger.record(7, footprint(7))  # empty pairs and singleton support
        arrays = ledger.export_arrays()
        restored = DependencyLedger.from_arrays(
            {key: value.copy() for key, value in arrays.items()}
        )
        assert restored.workers == ledger.workers
        for changed in [[(3, 4)], [(1, 2)], [(0, 5)], [(0, 7)], [(8, 9)]]:
            assert restored.invalidated(changed) == ledger.invalidated(changed)
