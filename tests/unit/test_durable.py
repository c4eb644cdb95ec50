"""Unit tests for the durable streaming layer (:mod:`repro.serve.durable`).

Locks the on-disk contracts the kill/resume fuzz column relies on: the
versioned WAL header, CRC-guarded records with truncated-tail discard,
atomic visible-or-absent snapshots with checksum fallback, idempotent
replay (duplicates and double-resume cannot double-apply) vs hard failure
on true sequence gaps, the snapshot-every-N cadence, evaluator state
round-trips per backend (including post-restore delta updates), the CLI
``--durable`` resume path, resume of the read-only legacy segment layout,
no file handle held by an unstarted session, and a real SIGKILL crash
against a live subprocess.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.incremental import IncrementalEvaluator
from repro.core.m_worker import MWorkerEstimator
from repro.exceptions import ConfigurationError, DurableStateError
from repro.serve import SessionConfig, StreamSession, open_session
from repro.serve.durable import (
    DurableStore,
    WAL_FORMAT,
    _record_crc,
    _scan_log,
    load_snapshot_file,
    write_snapshot_file,
)


def run(coro):
    return asyncio.run(coro)


def make_stream(n_events, n_workers, n_tasks, seed):
    rng = np.random.default_rng(seed)
    return [
        (int(w), int(t), int(label))
        for w, t, label in zip(
            rng.integers(0, n_workers, size=n_events),
            rng.integers(0, n_tasks, size=n_events),
            rng.integers(0, 2, size=n_events),
        )
    ]


def assert_bit_identical(streamed, matrix, confidence=0.95):
    reference = MWorkerEstimator(confidence=confidence, backend="dict").evaluate_all(
        matrix
    )
    expected = {e.worker: e for e in reference if e.n_tasks > 0}
    assert set(streamed) == set(expected)
    for worker, ref in expected.items():
        est = streamed[worker]
        assert est.interval.mean == ref.interval.mean
        assert est.interval.lower == ref.interval.lower
        assert est.interval.upper == ref.interval.upper
        assert est.status is ref.status


async def stream_durably(directory, events, **session_kwargs):
    """Feed ``events`` through a durable session and close it cleanly."""
    session_kwargs.setdefault("fsync", False)
    config = SessionConfig(durable=directory, **session_kwargs)
    async with open_session(config) as session:
        for event in events:
            await session.submit(*event)
        await session.flush()
        return await session.evaluate_all()


async def feed_events(session, events):
    """Start ``session``, submit ``events``, flush and close cleanly."""
    async with session:
        for event in events:
            await session.submit(*event)
        await session.flush()


def write_segment(path, records):
    """Write a legacy ``wal-<p>.ndjson`` segment from ``(epoch, first, last,
    events)`` records, in the format the multi-writer releases appended."""
    lines = [json.dumps({"format": WAL_FORMAT, "version": 1})]
    for epoch, first, last, events in records:
        seq = [first, last]
        payload = [list(event) for event in events]
        record = {
            "seq": seq,
            "events": payload,
            "epoch": epoch,
            "crc": _record_crc(seq, payload, epoch),
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n")


def flip_a_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestWalFormat:
    def test_header_written_on_fresh_open(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        store.append_batch(1, 2, [(0, 0, 1), (1, 0, 0)])
        store.close()
        lines = store.wal_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"format": WAL_FORMAT, "version": 1}
        record = json.loads(lines[1])
        assert record["seq"] == [1, 2]
        assert record["events"] == [[0, 0, 1], [1, 0, 0]]
        assert isinstance(record["crc"], int)

    def test_future_version_rejected(self, tmp_path):
        wal = tmp_path / "wal.ndjson"
        wal.write_text(json.dumps({"format": WAL_FORMAT, "version": 99}) + "\n")
        with pytest.raises(DurableStateError, match="version"):
            DurableStore(tmp_path).read_batches()
        with pytest.raises(DurableStateError, match="version"):
            open_session(SessionConfig(durable=tmp_path))

    def test_missing_header_rejected(self, tmp_path):
        wal = tmp_path / "wal.ndjson"
        wal.write_text('{"seq": [1, 1], "events": [[0, 0, 1]], "crc": 0}\n')
        with pytest.raises(DurableStateError, match="header"):
            DurableStore(tmp_path).read_batches()

    def test_truncated_tail_discarded_and_reopen_truncates_file(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        store.append_batch(1, 1, [(0, 0, 1)])
        store.append_batch(2, 2, [(1, 0, 0)])
        store.append_batch(3, 3, [(2, 0, 1)])
        store.close()
        data = store.wal_path.read_bytes()
        store.wal_path.write_bytes(data[:-9])  # kill mid-append of record 3
        reopened = DurableStore(tmp_path, fsync=False)
        batches = reopened.read_batches()
        assert [b[:2] for b in batches] == [(1, 1), (2, 2)]
        assert reopened.discarded_tail_records == 1
        # Reopening for append truncates the torn bytes off the file, so
        # new records never interleave with garbage.
        reopened.open(resume=True)
        reopened.append_batch(3, 3, [(2, 0, 1)])
        reopened.close()
        final = DurableStore(tmp_path, fsync=False)
        assert [b[:2] for b in final.read_batches()] == [(1, 1), (2, 2), (3, 3)]
        assert final.discarded_tail_records == 0

    def test_flipped_byte_discards_from_corruption_onward(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        for seq in range(1, 5):
            store.append_batch(seq, seq, [(seq, 0, 1)])
        store.close()
        lines = store.wal_path.read_bytes().split(b"\n")
        flipped = bytearray(lines[2])  # second record
        flipped[len(flipped) // 2] ^= 0x01
        lines[2] = bytes(flipped)
        store.wal_path.write_bytes(b"\n".join(lines))
        reopened = DurableStore(tmp_path, fsync=False)
        batches = reopened.read_batches()
        # The CRC catches the flip; the record AND everything after it is
        # tail residue (appends are strictly ordered, so nothing beyond the
        # first bad record can be trusted).
        assert [b[:2] for b in batches] == [(1, 1)]
        assert reopened.discarded_tail_records == 3

    def test_duplicate_batch_and_double_replay_are_idempotent(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        store.append_batch(1, 2, [(0, 0, 1), (1, 0, 0)])
        store.append_batch(1, 2, [(0, 0, 1), (1, 0, 0)])  # duplicated batch
        store.append_batch(3, 3, [(2, 0, 1)])
        store.close()
        resumed = open_session(SessionConfig(durable=tmp_path, fsync=False))
        assert resumed.applied_events == 3
        matrix = resumed.evaluator.matrix
        assert matrix.n_responses == 3
        assert matrix.response(0, 0) == 1
        assert matrix.response(2, 0) == 1
        run(resumed.abort())
        # Resuming a second time replays over the same WAL again — same
        # state, nothing double-applied.
        again = open_session(SessionConfig(durable=tmp_path, fsync=False))
        assert again.applied_events == 3
        assert again.evaluator.matrix == matrix
        run(again.abort())

    def test_record_straddling_the_snapshot_replays_only_its_suffix(
        self, tmp_path
    ):
        events = [(0, 0, 1), (1, 0, 0), (2, 0, 1), (0, 1, 0), (1, 1, 1)]
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        store.append_batch(1, 2, events[:2])
        evaluator = IncrementalEvaluator(3, 1, backend="dense")
        evaluator.apply_batch(events[:4], auto_extend=True)
        store.write_snapshot(evaluator, applied_seq=4)  # covers 1..4
        store.append_batch(3, 5, events[2:])  # straddles the snapshot
        store.close()
        resumed = open_session(SessionConfig(durable=tmp_path, fsync=False))
        assert resumed.applied_events == 5
        reference = IncrementalEvaluator(3, 1, backend="dict")
        reference.apply_batch(events, auto_extend=True)
        assert resumed.evaluator.matrix == reference.matrix

    def test_sequence_gap_raises(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        store.append_batch(1, 2, [(0, 0, 1), (1, 0, 0)])
        store.append_batch(5, 5, [(2, 0, 1)])  # records 3..4 are missing
        store.close()
        with pytest.raises(DurableStateError, match="gap"):
            open_session(SessionConfig(durable=tmp_path))

    def test_fresh_session_refuses_directory_with_state(self, tmp_path):
        run(stream_durably(tmp_path, [(0, 0, 1), (1, 0, 0), (2, 0, 1)]))
        fresh = StreamSession(config=SessionConfig(durable=tmp_path, fsync=False))

        async def scenario():
            with pytest.raises(DurableStateError, match="resume"):
                fresh.start()

        run(scenario())

    def test_append_requires_open_store(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        with pytest.raises(ConfigurationError):
            store.append_batch(1, 1, [(0, 0, 1)])

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            DurableStore(tmp_path, snapshot_every=0)
        with pytest.raises(ConfigurationError):
            DurableStore(tmp_path, keep_snapshots=0)


class TestSnapshotFiles:
    def test_round_trip_returns_writable_arrays(self, tmp_path):
        path = tmp_path / "snapshot-000000000005.snap"
        meta = {"applied_seq": 5, "nested": {"a": [1, 2]}}
        arrays = {
            "ints": np.arange(12, dtype=np.int64).reshape(3, 4),
            "floats": np.linspace(0.0, 1.0, 7),
            "packed": np.array([[1, 2], [3, 4]], dtype=np.uint8),
        }
        write_snapshot_file(path, meta, arrays)
        loaded_meta, loaded = load_snapshot_file(path)
        assert loaded_meta == meta
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype
            assert np.array_equal(loaded[name], array)
            loaded[name][...] = 0  # must be writable (delta-updatable)

    def test_atomic_write_is_visible_or_absent(self, tmp_path):
        # A kill mid-write leaves only the .tmp sibling; loaders and state
        # probes must not see it.
        (tmp_path / "snapshot-000000000009.snap.tmp").write_bytes(b"partial junk")
        store = DurableStore(tmp_path)
        assert store.snapshot_paths() == []
        assert store.load_snapshot_state() is None
        assert not DurableStore.has_state(tmp_path)
        # A completed write is fully visible and valid.
        write_snapshot_file(
            tmp_path / "snapshot-000000000010.snap",
            {"applied_seq": 10},
            {"x": np.ones(3)},
        )
        assert DurableStore.has_state(tmp_path)
        meta, arrays = store.load_snapshot_state()
        assert meta["applied_seq"] == 10

    def test_checksum_rejection_falls_back_to_older_snapshot(self, tmp_path):
        old = tmp_path / "snapshot-000000000003.snap"
        new = tmp_path / "snapshot-000000000007.snap"
        write_snapshot_file(old, {"applied_seq": 3}, {"x": np.arange(4)})
        write_snapshot_file(new, {"applied_seq": 7}, {"x": np.arange(8)})
        data = bytearray(new.read_bytes())
        data[len(data) // 2] ^= 0xFF
        new.write_bytes(bytes(data))
        with pytest.raises(DurableStateError, match="checksum"):
            load_snapshot_file(new)
        meta, arrays = DurableStore(tmp_path).load_snapshot_state()
        assert meta["applied_seq"] == 3
        assert np.array_equal(arrays["x"], np.arange(4))

    def test_truncated_snapshot_rejected(self, tmp_path):
        path = tmp_path / "snapshot-000000000002.snap"
        write_snapshot_file(path, {"applied_seq": 2}, {"x": np.arange(6)})
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(DurableStateError):
            load_snapshot_file(path)

    def test_stale_snapshot_with_newer_wal_replays_the_delta(self, tmp_path):
        events = make_stream(40, 5, 12, seed=3)
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        evaluator = IncrementalEvaluator(3, 1, backend="dense")
        for seq, event in enumerate(events, start=1):
            store.append_batch(seq, seq, [event])
            evaluator.apply_batch([event], auto_extend=True)
            if seq == 25:  # snapshot mid-history, then keep appending
                store.write_snapshot(evaluator, seq)
        store.close()
        resumed = open_session(
            SessionConfig(durable=tmp_path, backend="dense", fsync=False)
        )
        assert resumed.applied_events == len(events)
        # Only the post-snapshot delta was replayed.
        assert resumed.durable._since_snapshot == len(events) - 25
        assert_bit_identical(
            resumed.evaluator.estimate_all(), resumed.evaluator.matrix
        )
        run(resumed.abort())

    def test_snapshot_every_n_cadence_and_pruning(self, tmp_path):
        store = DurableStore(tmp_path, snapshot_every=2, fsync=False)
        store.open()
        evaluator = IncrementalEvaluator(3, 1, backend="dense")
        for seq, event in enumerate(make_stream(6, 4, 6, seed=8), start=1):
            store.append_batch(seq, seq, [event])
            evaluator.apply_batch([event], auto_extend=True)
            store.record_applied(evaluator, seq)
        store.close()
        # 6 single-event batches at every-2 cadence = exactly 3 snapshots,
        # pruned down to keep_snapshots (default 2) newest on disk.
        assert store.snapshots_written == 3
        paths = store.snapshot_paths()
        assert [p.name for p in paths] == [
            "snapshot-000000000006.snap",
            "snapshot-000000000004.snap",
        ]

    def test_resume_with_no_snapshot_replays_pure_wal(self, tmp_path):
        events = make_stream(60, 6, 15, seed=11)

        async def scenario():
            session = open_session(
                SessionConfig(durable=tmp_path, fsync=False, max_batch=7)
            )
            session.start()
            for event in events:
                await session.submit(*event)
            await session.flush()
            await session.abort()

        run(scenario())
        assert DurableStore(tmp_path).snapshot_paths() == []
        resumed = open_session(SessionConfig(durable=tmp_path, fsync=False))
        assert resumed.applied_events == len(events)
        assert_bit_identical(
            resumed.evaluator.estimate_all(), resumed.evaluator.matrix
        )
        run(resumed.abort())


@pytest.mark.parametrize("backend", ["dict", "dense", "sparse", "bitset"])
class TestEvaluatorStateRoundTrip:
    def test_round_trip_and_post_restore_deltas_bit_identical(self, backend):
        events = make_stream(150, 8, 20, seed=21)
        evaluator = IncrementalEvaluator(3, 1, backend=backend)
        evaluator.apply_batch(events[:100], auto_extend=True)
        evaluator.estimate_all()  # materialize caches before export
        meta, arrays = evaluator.export_state()
        assert meta["backend_kind"] == (
            "dict" if evaluator._backend is None else evaluator._backend.name
        )
        restored = IncrementalEvaluator.from_state(meta, arrays)
        assert restored.matrix == evaluator.matrix
        assert restored.n_responses == evaluator.n_responses
        assert_bit_identical(restored.estimate_all(), restored.matrix)
        # The restored backend keeps delta-updating: further batches (with
        # revisions and unseen ids) must stay bit-identical to a fresh
        # batch build over the accumulated data.
        tail = events[100:] + [(0, 0, 1), (9, 25, 0), (0, 0, 0)]
        restored.apply_batch(tail, auto_extend=True)
        assert restored.matrix.response(0, 0) == 0
        assert restored.matrix.n_workers == 10
        assert_bit_identical(restored.estimate_all(), restored.matrix)

    def test_snapshot_file_round_trip_through_disk(self, backend, tmp_path):
        events = make_stream(80, 6, 14, seed=33)
        evaluator = IncrementalEvaluator(3, 1, backend=backend)
        evaluator.apply_batch(events, auto_extend=True)
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        store.write_snapshot(evaluator, applied_seq=len(events))
        store.close()
        meta, arrays = store.load_snapshot_state()
        assert meta["applied_seq"] == len(events)
        restored = IncrementalEvaluator.from_state(meta, arrays)
        assert restored.matrix == evaluator.matrix
        assert_bit_identical(restored.estimate_all(), restored.matrix)


class TestWarmCacheResume:
    """Snapshots carry the dependency ledger and the clean cached estimates,
    so a resume serves untouched workers with zero recomputation."""

    @staticmethod
    def two_component_stream():
        # Two disjoint worker/task components: a delta in one component must
        # not invalidate (or recompute) anything in the other.
        return [
            (w, t, (w + t) % 2) for w in range(4) for t in range(10)
        ] + [
            (w, t, (w * t) % 2) for w in range(4, 8) for t in range(10, 20)
        ]

    def test_state_round_trip_restores_warm_caches(self):
        events = self.two_component_stream()
        evaluator = IncrementalEvaluator(8, 20, backend="dense")
        evaluator.apply_batch(events)
        warm = evaluator.estimate_all()
        meta, arrays = evaluator.export_state()
        assert "deps.workers" in arrays and "cache.workers" in arrays
        restored = IncrementalEvaluator.from_state(
            meta, {key: value.copy() for key, value in arrays.items()}
        )
        assert restored.recompute_count == 0
        assert restored.estimate_all() == warm
        assert restored.recompute_count == 0, (
            "a warm restore must serve every cached estimate without "
            "recomputing"
        )
        # A delta touching one component recomputes exactly its invalidated
        # workers; the other component's restored caches keep serving.
        stats = restored.apply_batch([(0, 5, 1)])
        assert stats.invalidated <= set(range(4))
        restored.estimate_all()
        assert restored.recompute_count == len(stats.invalidated)

    def test_changed_configuration_restores_cold(self):
        events = self.two_component_stream()
        evaluator = IncrementalEvaluator(8, 20, backend="dense")
        evaluator.apply_batch(events)
        evaluator.estimate_all()
        meta, arrays = evaluator.export_state()
        cold = IncrementalEvaluator.from_state(
            meta,
            {key: value.copy() for key, value in arrays.items()},
            confidence=0.9,  # differs from the persisted 0.95
        )
        assert cold.cached_estimate(0) is None
        cold.estimate_all()
        assert cold.recompute_count > 0

    def test_durable_resume_zero_recompute_for_untouched_workers(
        self, tmp_path
    ):
        events = self.two_component_stream()

        async def ingest():
            async with open_session(
                SessionConfig(
                    durable=tmp_path, snapshot_every=50, fsync=False,
                    backend="dense",
                )
            ) as session:
                for event in events:
                    await session.submit(*event)
                await session.flush()
                return await session.evaluate_all()

        warm = run(ingest())
        resumed = open_session(
            SessionConfig(durable=tmp_path, snapshot_every=50, fsync=False)
        )

        async def read_and_delta():
            async with resumed:
                served = await resumed.evaluate_all()
                assert served == warm
                assert resumed.evaluator.recompute_count == 0, (
                    "resume must serve the snapshot's cached estimates "
                    "without recomputing any worker"
                )
                # A post-resume delta in the first component leaves the
                # second component's restored caches untouched.
                await resumed.submit(1, 3, 0)
                await resumed.flush()
                await resumed.evaluate_all()
                assert resumed.evaluator.recompute_count <= 4
        run(read_and_delta())


class TestSessionDurability:
    def test_clean_close_snapshots_and_resume_replays_nothing(self, tmp_path):
        events = make_stream(90, 7, 18, seed=41)
        closed = run(
            stream_durably(tmp_path, events, snapshot_every=5, max_batch=8)
        )
        resumed = open_session(
            SessionConfig(durable=tmp_path, snapshot_every=5, fsync=False)
        )
        assert resumed.applied_events == len(events)
        # The final snapshot covers the whole history: zero WAL replay.
        assert resumed.durable._since_snapshot == 0
        assert resumed.evaluator.estimate_all() == closed
        run(resumed.abort())

    def test_resume_continues_sequence_numbering(self, tmp_path):
        first = make_stream(30, 5, 10, seed=51)
        second = make_stream(30, 5, 10, seed=52)
        run(stream_durably(tmp_path, first, max_batch=4))

        async def continue_stream():
            session = open_session(
                SessionConfig(durable=tmp_path, max_batch=4, fsync=False)
            )
            assert session.applied_events == len(first)
            async with session:
                for event in second:
                    await session.submit(*event)
                await session.flush()
                assert session.applied_events == len(first) + len(second)
                return await session.evaluate_all()

        final = run(continue_stream())
        # The reopened WAL continues the monotonic numbering with no gaps
        # or overlaps across the restart.
        batches = DurableStore(tmp_path).read_batches()
        assert batches[0][0] == 1
        for (_, last, _), (nxt, _, _) in zip(batches, batches[1:]):
            assert nxt == last + 1
        assert batches[-1][1] == len(first) + len(second)
        reference = IncrementalEvaluator(3, 1, backend="dict")
        reference.apply_batch(first + second, auto_extend=True)
        assert final == reference.estimate_all()

    def test_open_session_creates_then_resumes(self, tmp_path):
        events = make_stream(25, 4, 8, seed=61)
        config = SessionConfig(durable=tmp_path, snapshot_every=3, fsync=False)

        async def scenario():
            first = open_session(config)
            assert first.applied_events == 0
            async with first:
                for event in events:
                    await first.submit(*event)
                await first.flush()
            second = open_session(config)
            assert second.applied_events == len(events)
            run_estimates = second.evaluator.estimate_all()
            await second.abort()
            return run_estimates

        estimates = run(scenario())
        reference = IncrementalEvaluator(3, 1, backend="dict")
        reference.apply_batch(events, auto_extend=True)
        assert estimates == reference.estimate_all()

    def test_cli_ingest_durable_resume_prints_identical_table(
        self, tmp_path, capsys
    ):
        events_file = tmp_path / "events.ndjson"
        events_file.write_text(
            "".join(
                json.dumps([w, t, label]) + "\n"
                for w, t, label in make_stream(120, 6, 15, seed=71)
            )
        )
        empty_file = tmp_path / "empty.ndjson"
        empty_file.write_text("")
        durable_dir = tmp_path / "state"
        assert (
            cli_main(
                [
                    "ingest",
                    str(events_file),
                    "--durable",
                    str(durable_dir),
                    "--snapshot-every",
                    "4",
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        # Second invocation over the same directory resumes the persisted
        # state and serves the same table from zero new events.
        assert (
            cli_main(
                [
                    "ingest",
                    str(empty_file),
                    "--durable",
                    str(durable_dir),
                    "--snapshot-every",
                    "4",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == first

    def test_unstarted_resumed_session_holds_no_file_handle(self, tmp_path):
        """Resuming only reads files: the log is reopened in ``start()``,
        so a session dropped before it starts leaks no handle (an unclosed
        file would raise ResourceWarning when collected)."""
        run(stream_durably(tmp_path, make_stream(30, 5, 10, seed=43), max_batch=4))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            session = open_session(SessionConfig(durable=tmp_path, fsync=False))
            assert session.applied_events == 30
            assert session.durable._log is None
            del session
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_start_truncates_the_crash_tail_before_appending(self, tmp_path):
        run(stream_durably(tmp_path, make_stream(30, 5, 10, seed=44), max_batch=4))
        wal = tmp_path / "wal.ndjson"
        clean = wal.read_bytes()
        wal.write_bytes(clean + b'{"seq": [31, 31], "ev')  # torn append
        session = open_session(SessionConfig(durable=tmp_path, fsync=False))
        assert session.durable.discarded_tail_records == 1
        assert wal.read_bytes().endswith(b'"ev')  # resume only read the log

        async def append_one():
            async with session:
                await session.submit(0, 0, 1)
                await session.flush()

        run(append_one())
        batches = DurableStore(tmp_path).read_batches()
        assert batches[-1][:2] == (31, 31)
        assert wal.read_bytes().startswith(clean)

    def test_cli_snapshot_every_requires_durable(self, capsys):
        assert cli_main(["ingest", "/dev/null", "--snapshot-every", "3"]) == 2
        assert "--durable" in capsys.readouterr().err


class TestLegacyLayout:
    """Directories written by multi-writer sessions of older releases
    (per-partition ``wal-<p>.ndjson`` segments) resume as a frozen history
    prefix; new events go to ``wal.ndjson`` and the segments stay as they
    are.  Bit-identity on every backend is the differential suite's
    ``legacy-layout`` column; these tests pin the bookkeeping."""

    @staticmethod
    def settled(events):
        evaluator = IncrementalEvaluator(3, 1, backend="dict")
        evaluator.apply_batch(events, auto_extend=True)
        return evaluator.matrix

    @pytest.mark.parametrize("name", ["snapshotted", "wal_only"])
    def test_resume_restores_exactly_the_surviving_events(
        self, legacy_layout, name
    ):
        fixture = legacy_layout(name)
        assert DurableStore.has_state(fixture.directory)
        session = open_session(SessionConfig(durable=fixture.directory))
        # The global sequence continues from the segment total.
        assert session.applied_events == len(fixture.survived)
        assert session.evaluator.matrix == self.settled(fixture.survived)

    def test_segments_are_never_written_again(self, legacy_layout):
        fixture = legacy_layout("snapshotted")
        before = {
            path.name: path.read_bytes()
            for path in fixture.directory.glob("wal-*.ndjson")
        }
        tail = fixture.stream[fixture.submitted :]
        config = SessionConfig(
            durable=fixture.directory, snapshot_every=4, max_batch=8, fsync=False
        )
        run(feed_events(open_session(config), tail))
        after = {
            path.name: path.read_bytes()
            for path in fixture.directory.glob("wal-*.ndjson")
        }
        # Even the torn tail of one segment stays on disk untouched.
        assert after == before
        batches = DurableStore(fixture.directory).read_batches()
        assert batches[0][0] == len(fixture.survived) + 1
        assert batches[-1][1] == len(fixture.survived) + len(tail)

    def test_single_wal_snapshot_skips_the_segments(
        self, legacy_layout, monkeypatch
    ):
        fixture = legacy_layout("wal_only")
        tail = fixture.stream[fixture.submitted :]
        config = SessionConfig(
            durable=fixture.directory, snapshot_every=4, max_batch=8, fsync=False
        )
        run(feed_events(open_session(config), tail))

        def unreachable(self, fences=None):  # pragma: no cover - failure path
            raise AssertionError("segments replayed under a single-WAL snapshot")

        monkeypatch.setattr(DurableStore, "read_legacy_segments", unreachable)
        resumed = open_session(config)
        assert resumed.durable._since_snapshot == 0
        assert resumed.evaluator.matrix == self.settled(fixture.survived + tail)

    def test_fresh_session_refuses_a_segment_directory(self, legacy_layout):
        fixture = legacy_layout("wal_only")
        fresh = StreamSession(config=SessionConfig(durable=fixture.directory))

        async def scenario():
            with pytest.raises(DurableStateError, match="open_session"):
                fresh.start()

        run(scenario())

    def test_segment_paths_ignore_non_partition_files(self, tmp_path):
        for name in ("wal-0.ndjson", "wal-17.ndjson", "wal-x.ndjson", "wal.ndjson"):
            (tmp_path / name).write_text("")
        assert set(DurableStore.segment_paths(tmp_path)) == {0, 17}

    def test_a_lone_segment_is_resumable_state(self, tmp_path):
        write_segment(tmp_path / "wal-1.ndjson", [])
        assert DurableStore.has_state(tmp_path)
        assert not DurableStore.has_state(tmp_path / "missing")

    @pytest.mark.parametrize("name", ["snapshotted", "wal_only"])
    def test_segment_records_are_epoch_ordered_and_contiguous(
        self, legacy_layout, name
    ):
        """The order the k-way merge relies on: per segment, epochs never
        decrease and sequences run 1, 2, ... without gaps; only the torn
        record of the ``snapshotted`` fixture is discarded."""
        fixture = legacy_layout(name)
        total = discarded = 0
        for path in DurableStore.segment_paths(fixture.directory).values():
            records, dropped, _ = _scan_log(path)
            discarded += dropped
            epochs = [epoch for epoch, _, _, _ in records]
            assert epochs == sorted(epochs)
            expected_first = 1
            for _, first, last, events in records:
                assert first == expected_first
                assert last - first + 1 == len(events)
                expected_first = last + 1
            total += expected_first - 1
        assert discarded == (1 if name == "snapshotted" else 0)
        assert total == len(fixture.survived)

    def test_legacy_snapshots_cover_exactly_their_fenced_records(
        self, legacy_layout
    ):
        """Each legacy snapshot equals a serial build over the segment
        records below its per-partition fences, merged in replay order."""
        fixture = legacy_layout("snapshotted")
        segments = {
            partition: _scan_log(path)[0]
            for partition, path in DurableStore.segment_paths(
                fixture.directory
            ).items()
        }
        snapshots = sorted(fixture.directory.glob("snapshot-*.snap"))
        assert len(snapshots) == 2
        for path in snapshots:
            meta, arrays = load_snapshot_file(path)
            fences = {
                int(partition): applied
                for partition, applied in meta["multiwriter"]["partitions"].items()
            }
            assert sum(fences.values()) == meta["applied_seq"]
            covered = sorted(
                (epoch, first, partition, events)
                for partition, records in segments.items()
                for epoch, first, last, events in records
                if last <= fences[partition]
            )
            assert sum(len(batch[3]) for batch in covered) == meta["applied_seq"]
            serial = IncrementalEvaluator(3, 1, backend="dict")
            for batch in covered:
                serial.apply_batch(batch[3], auto_extend=True)
            restored = IncrementalEvaluator.from_state(meta, arrays, backend="dict")
            assert restored.matrix == serial.matrix

    def test_segments_merge_by_epoch_then_sequence_then_partition(self, tmp_path):
        write_segment(
            tmp_path / "wal-0.ndjson",
            [(0, 1, 1, [(0, 0, 1)]), (1, 2, 2, [(0, 1, 1)])],
        )
        write_segment(
            tmp_path / "wal-1.ndjson",
            [
                (0, 1, 2, [(1, 0, 0), (1, 1, 0)]),
                (0, 3, 3, [(1, 2, 1)]),
                (2, 4, 4, [(1, 3, 1)]),
            ],
        )
        write_segment(tmp_path / "wal-2.ndjson", [(1, 1, 1, [(2, 0, 1)])])
        assert DurableStore(tmp_path).read_legacy_segments() == [
            [(0, 0, 1)],
            [(1, 0, 0), (1, 1, 0)],
            [(1, 2, 1)],
            [(2, 0, 1)],
            [(0, 1, 1)],
            [(1, 3, 1)],
        ]
        session = open_session(SessionConfig(durable=tmp_path))
        assert session.applied_events == 7
        assert session.evaluator.matrix.n_responses == 7

    def test_fenced_merge_slices_a_straddling_segment_record(self, tmp_path):
        write_segment(tmp_path / "wal-0.ndjson", [(0, 1, 1, [(0, 0, 1)])])
        write_segment(
            tmp_path / "wal-1.ndjson",
            [(0, 1, 3, [(1, 0, 0), (1, 1, 0), (1, 2, 1)]), (1, 4, 4, [(1, 3, 1)])],
        )
        fences = {"partitions": {"0": 1, "1": 2}}
        assert DurableStore(tmp_path).read_legacy_segments(fences) == [
            [(1, 2, 1)],
            [(1, 3, 1)],
        ]

    def test_fence_offsets_only_skip_parsing(self, legacy_layout):
        fixture = legacy_layout("snapshotted")
        store = DurableStore(fixture.directory)
        fences = store.load_snapshot_state()[0]["multiwriter"]
        delta = store.read_legacy_segments(fences)
        assert delta
        assert delta == store.read_legacy_segments(
            {"partitions": fences["partitions"]}
        )

    def test_sequence_gap_in_a_segment_raises(self, legacy_layout):
        fixture = legacy_layout("wal_only")
        segment = fixture.directory / "wal-1.ndjson"
        lines = segment.read_bytes().split(b"\n")
        segment.write_bytes(b"\n".join(lines[:2] + lines[3:]))
        with pytest.raises(DurableStateError, match="sequence gap"):
            open_session(SessionConfig(durable=fixture.directory))

    def test_torn_newest_legacy_snapshot_falls_back_to_the_older_one(
        self, legacy_layout
    ):
        fixture = legacy_layout("snapshotted")
        flip_a_byte(fixture.directory / "snapshot-000000000246.snap")
        meta, _ = DurableStore(fixture.directory).load_snapshot_state()
        assert meta["applied_seq"] == 215
        session = open_session(SessionConfig(durable=fixture.directory))
        assert session.applied_events == len(fixture.survived)
        assert session.evaluator.matrix == self.settled(fixture.survived)

    def test_every_legacy_snapshot_torn_replays_the_segments_from_scratch(
        self, legacy_layout
    ):
        fixture = legacy_layout("snapshotted")
        for path in fixture.directory.glob("snapshot-*.snap"):
            flip_a_byte(path)
        assert DurableStore(fixture.directory).load_snapshot_state() is None
        session = open_session(SessionConfig(durable=fixture.directory))
        assert session.applied_events == len(fixture.survived)
        assert session.evaluator.matrix == self.settled(fixture.survived)

    def test_resume_reads_only_and_repeats_exactly(self, legacy_layout):
        """Resume is a pure read: no ``wal.ndjson`` until ``start()``, the
        torn segment tail left as it is, and a second resume restores the
        same state."""
        fixture = legacy_layout("snapshotted")
        before = {
            path.name: path.read_bytes() for path in fixture.directory.iterdir()
        }
        config = SessionConfig(durable=fixture.directory)
        first = open_session(config)
        second = open_session(config)
        assert first.durable._log is None
        assert not (fixture.directory / "wal.ndjson").exists()
        assert {
            path.name: path.read_bytes() for path in fixture.directory.iterdir()
        } == before
        assert first.applied_events == second.applied_events
        assert first.evaluator.matrix == second.evaluator.matrix

    def test_aborted_session_leaves_a_header_only_wal_that_resumes(
        self, legacy_layout
    ):
        fixture = legacy_layout("wal_only")
        config = SessionConfig(durable=fixture.directory, fsync=False)

        async def start_then_abort():
            session = open_session(config)
            session.start()
            await session.abort()

        run(start_then_abort())
        assert DurableStore(fixture.directory).read_batches() == []
        session = open_session(config)
        assert session.applied_events == len(fixture.survived)
        assert session.evaluator.matrix == self.settled(fixture.survived)

    def test_clean_close_snapshots_past_the_segments(
        self, legacy_layout, monkeypatch
    ):
        """Closing a resumed legacy session with snapshots on writes a
        single-WAL snapshot even with no new events, so the next resume
        reads no segment at all."""
        fixture = legacy_layout("snapshotted")
        config = SessionConfig(
            durable=fixture.directory, snapshot_every=3, fsync=False
        )
        run(feed_events(open_session(config), []))
        meta, _ = DurableStore(fixture.directory).load_snapshot_state()
        assert "multiwriter" not in meta
        assert meta["applied_seq"] == len(fixture.survived)

        def unreachable(self, fences=None):  # pragma: no cover - failure path
            raise AssertionError("segments replayed under a single-WAL snapshot")

        monkeypatch.setattr(DurableStore, "read_legacy_segments", unreachable)
        resumed = open_session(config)
        assert resumed.applied_events == len(fixture.survived)
        assert resumed.evaluator.matrix == self.settled(fixture.survived)

    @pytest.mark.parametrize("snapshot_flags", [[], ["--snapshot-every", "4"]])
    def test_cli_ingest_durable_continues_a_legacy_directory(
        self, legacy_layout, tmp_path, capsys, snapshot_flags
    ):
        fixture = legacy_layout("snapshotted")
        rest_file = tmp_path / "rest.ndjson"
        rest_file.write_text(
            "".join(
                json.dumps(list(event)) + "\n"
                for event in fixture.stream[fixture.submitted :]
            )
        )
        all_file = tmp_path / "all.ndjson"
        all_file.write_text(
            "".join(
                json.dumps(list(event)) + "\n"
                for event in fixture.survived + fixture.stream[fixture.submitted :]
            )
        )
        empty_file = tmp_path / "empty.ndjson"
        empty_file.write_text("")
        durable = ["--durable", str(fixture.directory), *snapshot_flags]
        assert cli_main(["ingest", str(rest_file), *durable]) == 0
        continued = capsys.readouterr().out
        assert cli_main(["ingest", str(all_file)]) == 0
        assert continued == capsys.readouterr().out
        # A later invocation resumes the continued directory (segments plus
        # WAL, or the single-WAL snapshot of the clean close) unchanged.
        assert cli_main(["ingest", str(empty_file), *durable]) == 0
        assert continued == capsys.readouterr().out


class TestCrashSubprocess:
    def test_sigkill_mid_stream_then_resume_is_bit_identical(self, tmp_path):
        """Kill a real process mid-ingest (between fsyncs, possibly
        mid-batch or mid-snapshot) and resume its directory: after feeding
        the remainder of the stream, estimates must equal the dict batch
        reference over the full event set."""
        durable_dir = tmp_path / "state"
        events = make_stream(400, 7, 30, seed=81)
        child_code = textwrap.dedent(
            """
            import asyncio, sys
            import numpy as np
            from repro.serve import SessionConfig, open_session

            def make_stream(n_events, n_workers, n_tasks, seed):
                rng = np.random.default_rng(seed)
                return [
                    (int(w), int(t), int(label))
                    for w, t, label in zip(
                        rng.integers(0, n_workers, size=n_events),
                        rng.integers(0, n_tasks, size=n_events),
                        rng.integers(0, 2, size=n_events),
                    )
                ]

            async def main():
                events = make_stream(400, 7, 30, seed=81)
                session = open_session(
                    SessionConfig(
                        durable=sys.argv[1], snapshot_every=5, max_batch=4
                    )
                )
                session.start()
                for index, event in enumerate(events):
                    await session.submit(*event)
                    if index and index % 20 == 0:
                        await session.flush()
                        print(index, flush=True)
                await session.flush()
                print("done", flush=True)

            asyncio.run(main())
            """
        )
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        child = subprocess.Popen(
            [sys.executable, "-c", child_code, str(durable_dir)],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            # Wait until the child has durably applied some prefix, then
            # kill it without any chance to clean up.
            line = child.stdout.readline()
            assert line.strip(), "child produced no progress before exiting"
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)
            child.stdout.close()
        assert DurableStore.has_state(durable_dir)

        async def finish():
            session = open_session(
                SessionConfig(durable=durable_dir, max_batch=4, fsync=False)
            )
            applied = session.applied_events
            assert 0 < applied <= len(events)
            async with session:
                for event in events[applied:]:
                    await session.submit(*event)
                await session.flush()
                return await session.evaluate_all(), session.evaluator.matrix.copy()

        estimates, matrix = run(finish())
        reference = IncrementalEvaluator(3, 1, backend="dict")
        reference.apply_batch(events, auto_extend=True)
        assert matrix == reference.matrix
        assert_bit_identical(estimates, matrix)

    def test_sigkill_after_a_legacy_resume_then_resume_is_bit_identical(
        self, legacy_layout, tmp_path
    ):
        """The same kill, in a process that resumed a legacy segment
        directory and was appending the rest of its stream to
        ``wal.ndjson``: the next resume merges the segments, replays the
        WAL prefix that survived and, fed the remainder, equals the dict
        batch reference."""
        fixture = legacy_layout("snapshotted")
        rest = fixture.stream[fixture.submitted :]
        rest_file = tmp_path / "rest.json"
        rest_file.write_text(json.dumps(rest))
        child_code = textwrap.dedent(
            """
            import asyncio, json, sys
            from repro.serve import SessionConfig, open_session

            async def main():
                with open(sys.argv[2]) as handle:
                    rest = json.load(handle)
                session = open_session(
                    SessionConfig(
                        durable=sys.argv[1], snapshot_every=5, max_batch=4
                    )
                )
                session.start()
                for index, event in enumerate(rest):
                    await session.submit(*event)
                    if index and index % 20 == 0:
                        await session.flush()
                        print(index, flush=True)
                await session.flush()
                print("done", flush=True)

            asyncio.run(main())
            """
        )
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        child = subprocess.Popen(
            [sys.executable, "-c", child_code, str(fixture.directory), str(rest_file)],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            line = child.stdout.readline()
            assert line.strip(), "child produced no progress before exiting"
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)
            child.stdout.close()

        async def finish():
            session = open_session(
                SessionConfig(durable=fixture.directory, max_batch=4, fsync=False)
            )
            done = session.applied_events - len(fixture.survived)
            assert 0 < done <= len(rest)
            async with session:
                for event in rest[done:]:
                    await session.submit(*event)
                await session.flush()
                return await session.evaluate_all(), session.evaluator.matrix.copy()

        estimates, matrix = run(finish())
        reference = IncrementalEvaluator(3, 1, backend="dict")
        reference.apply_batch(fixture.survived + rest, auto_extend=True)
        assert matrix == reference.matrix
        assert_bit_identical(estimates, matrix)
