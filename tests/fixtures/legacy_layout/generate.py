"""Write the legacy multi-writer durable directories under this folder.

Sessions once ingested through several consistent-hash partitions, each
appending to its own ``wal-<p>.ndjson`` segment.  The library no longer
writes that layout but still resumes it; the directories produced here are
the frozen samples the tests and the crash drill resume.  This script needs
a tree that still has multi-writer ingestion (commit 4c67bd9), so run it
against that checkout's sources::

    mkdir /tmp/multiwriter && git archive 4c67bd9 | tar -x -C /tmp/multiwriter
    PYTHONPATH=/tmp/multiwriter/src python tests/fixtures/legacy_layout/generate.py

Outputs, next to this file:

* ``manifest.json`` — the event stream (``[worker, task, label]`` rows,
  with label revisions) and, per fixture, how many of its events were
  submitted and the stream indices whose record was later chopped off;
* ``snapshotted/`` — ``writers=3, snapshot_every=3``: the first events
  flushed, the session aborted (no final snapshot), then the last record
  of one segment torn (its events lie beyond the newest snapshot, so they
  are lost; at least one other record beyond the snapshot survives);
* ``wal_only/`` — ``writers=3`` with no snapshot, closed cleanly.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.incremental import IncrementalEvaluator
from repro.serve import SessionConfig, open_session, partition_for
from repro.serve.durable import DurableStore, load_snapshot_file
from repro.serve.multiwriter import MultiWriterStore, segment_name

WRITERS = 3
HERE = Path(__file__).resolve().parent


def make_stream(seed=20150413, n_workers=10, n_tasks=60, fill=0.7, n_revisions=16):
    """Shuffled binary responses; some cells first arrive with the wrong label."""
    rng = np.random.default_rng(seed)
    error_rates = rng.uniform(0.1, 0.35, size=n_workers)
    truth = rng.integers(0, 2, size=n_tasks)
    mask = rng.random((n_workers, n_tasks)) < fill
    flips = rng.random((n_workers, n_tasks)) < error_rates[:, None]
    labels = truth[None, :] ^ flips
    workers, tasks = np.nonzero(mask)
    keys = rng.random(len(workers))
    keyed = [
        (float(key), (int(w), int(t), int(labels[w, t])))
        for key, w, t in zip(keys, workers, tasks)
    ]
    for index in rng.choice(len(keyed), size=n_revisions, replace=False):
        key, (w, t, label) = keyed[index]
        keyed.append((float(rng.uniform(0.0, key)), (w, t, 1 - label)))
    keyed.sort()
    return [event for _, event in keyed]


def settled_matrix(events):
    evaluator = IncrementalEvaluator(3, 1, backend="dict")
    evaluator.apply_batch(events, auto_extend=True)
    return evaluator.matrix


async def ingest(config, events, abort):
    session = open_session(config)
    session.start()
    for event in events:
        await session.submit(*event)
    await session.flush()
    if abort:
        await session.abort()
    else:
        await session.close()


def chop_a_record_beyond_the_snapshot(directory, stream, submitted):
    """Tear the last record of one segment; return the lost stream indices.

    Returns None unless at least two records lie beyond the newest
    snapshot, so one survives the tear and resume has a segment delta to
    merge on top of the snapshot.
    """
    newest = sorted(directory.glob("snapshot-*.snap"))[-1]
    meta, _ = load_snapshot_file(newest)
    covered = {int(p): s for p, s in meta["multiwriter"]["partitions"].items()}
    segments = {
        partition: DurableStore(
            directory, wal_name=segment_name(partition)
        ).read_batches_with_epoch()
        for partition in sorted(MultiWriterStore.segment_paths(directory))
    }
    uncovered = sum(
        1
        for partition, records in segments.items()
        for _, first, _, _ in records
        if first > covered.get(partition, 0)
    )
    if uncovered < 2:
        return None
    for partition, records in segments.items():
        _, first, last, events = records[-1]
        if first <= covered.get(partition, 0):
            continue
        routed = [
            index
            for index in range(submitted)
            if partition_for(stream[index][0], WRITERS) == partition
        ]
        lost = routed[first - 1 : last]
        assert [tuple(stream[i]) for i in lost] == events
        path = directory / segment_name(partition)
        path.write_bytes(path.read_bytes()[:-7])
        return lost
    return None


def main(out=HERE):
    stream = make_stream()
    fixtures = {}

    for submitted in range(260, 300):
        directory = out / "snapshotted"
        shutil.rmtree(directory, ignore_errors=True)
        config = SessionConfig(
            writers=WRITERS,
            durable=directory,
            snapshot_every=3,
            max_batch=8,
            fsync=False,
            backend="dense",
        )
        asyncio.run(ingest(config, stream[:submitted], abort=True))
        lost = chop_a_record_beyond_the_snapshot(directory, stream, submitted)
        if lost:
            break
    else:
        sys.exit("no segment record beyond the newest snapshot to tear")
    fixtures["snapshotted"] = {"submitted": submitted, "lost": lost}

    directory = out / "wal_only"
    shutil.rmtree(directory, ignore_errors=True)
    config = SessionConfig(
        writers=WRITERS, durable=directory, max_batch=8, fsync=False, backend="dense"
    )
    asyncio.run(ingest(config, stream[:200], abort=False))
    fixtures["wal_only"] = {"submitted": 200, "lost": []}

    # Resume a copy of each fixture with the code that wrote it (resume
    # truncates torn tails in place) and check it holds exactly the
    # submitted events that survived.
    with tempfile.TemporaryDirectory() as scratch:
        for name, entry in fixtures.items():
            copy = Path(scratch) / name
            shutil.copytree(out / name, copy)
            session = open_session(SessionConfig(durable=copy, fsync=False))
            survived = [
                stream[i] for i in range(entry["submitted"]) if i not in entry["lost"]
            ]
            assert session.evaluator.matrix == settled_matrix(survived), name
            session.durable.close()

    manifest = {"stream": stream, "fixtures": fixtures}
    (out / "manifest.json").write_text(json.dumps(manifest) + "\n")
    print(json.dumps(fixtures))


if __name__ == "__main__":
    main()
