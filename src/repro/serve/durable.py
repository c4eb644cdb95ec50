"""Durable streaming sessions: write-ahead log, atomic snapshots, replay.

The streaming subsystem (:mod:`repro.serve`) keeps all state in memory; a
crash replays the world from scratch.  This module is the persistence layer
behind ``SessionConfig(durable=...)``, built from two artifacts living in
one directory:

* an append-only NDJSON **write-ahead log** (``wal.ndjson``) — the applier
  fsyncs each micro-batch record *before* applying it, so any event whose
  ``flush()`` was acknowledged is on disk;
* periodic **atomic snapshots** (``snapshot-<seq>.snap``) of the full
  evaluator state, written temp-file + rename with a checksum footer, so a
  partially written snapshot is never visible under its final name.

Resume loads the newest snapshot that validates, replays the WAL records
with sequence beyond it, and reopens the log — O(delta) instead of
O(history).  Snapshots carry the evaluator's dependency ledger and its
clean cached estimates (the ``deps.*``/``cache.*`` arrays of
:meth:`~repro.core.incremental.IncrementalEvaluator.export_state`) in
addition to the response data and backend caches, so a resumed session
serves warm intervals for workers the WAL delta never touched — zero
recomputation, bit-identical to the estimates served before the crash.

WAL format (version 1)
----------------------

One JSON document per line.  The first line is the versioned header::

    {"format": "repro-durable-wal", "version": 1}

Every other line is a batch record::

    {"seq": [first, last], "events": [[w, t, l], ...], "crc": <crc32>}

``seq`` is the inclusive 1-based sequence range of the batch's events in
submission order; ``crc`` is the CRC-32 of the canonical JSON encoding of
the record without the ``crc`` key (sorted keys, no whitespace).  A missing
or future-version header raises
:class:`~repro.exceptions.DurableStateError`; a record that fails to
decode, fails its CRC, or lacks its trailing newline marks the **tail** of
the log — it and everything after it are the un-acknowledged residue of a
crash mid-append and are discarded (the file is truncated back to the last
valid record when the log is reopened, so later appends never interleave
with garbage).  Records are idempotent under replay: a record whose
``last`` sequence is already covered by the restored state is skipped, so
duplicated batches (or replaying twice) cannot double-apply; a *gap* in
the sequence numbering, by contrast, means data loss in the middle of the
log and raises.

Legacy segment layout (read-only)
---------------------------------

Older releases could ingest through several partitions, each appending to
its own segment ``wal-<p>.ndjson`` (same record format, with a
*per-partition* sequence and one extra key, ``"epoch"``, that takes part
in the CRC).  Their snapshots carry the per-partition applied sequences
and segment offsets under the ``"multiwriter"`` meta key.  Such a
directory still resumes, as a frozen prefix of the history: the segments
are k-way merged by ``(epoch, sequence, partition)`` — events of
different workers commute, so any merge that keeps each segment's order
rebuilds the same matrix — or skipped when the restored snapshot is a
single-WAL one (taken after them).  ``wal.ndjson`` then continues the
global sequence from the segment total.  Segments are only ever read;
``epoch`` is never written.

Snapshot format (version 1)
---------------------------

A single binary file: one JSON header line (format id, version, the
evaluator meta including the last applied sequence, and an array manifest
of name/dtype/shape in payload order), the raw C-contiguous bytes of each
manifest array concatenated in order, and a fixed-width footer
``sha256:<hex>\\n`` over everything before it.  Snapshots are written to a
``.tmp`` sibling, flushed, fsynced and atomically renamed into place —
visible-or-absent, never partial.  Loading verifies the checksum and
returns fresh *writable* array copies, so the restored backend caches stay
delta-updatable; a snapshot that fails validation is skipped in favour of
the next older one (pure WAL replay when none survives).

The resume determinism contract lives with the streaming contract in
:mod:`repro.core.agreement`: a resumed session is bit-identical to one
that was never interrupted, locked by the ``resumed`` and
``legacy-layout`` columns of the cross-backend differential suite and the
crash-smoke CI job.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import zlib
from pathlib import Path
from typing import IO, TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError, DurableStateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session imports us)
    from repro.core.incremental import IncrementalEvaluator

__all__ = [
    "DurableStore",
    "WAL_FORMAT",
    "WAL_VERSION",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "load_snapshot_file",
    "write_snapshot_file",
]

WAL_FORMAT = "repro-durable-wal"
WAL_VERSION = 1
WAL_NAME = "wal.ndjson"

SNAPSHOT_FORMAT = "repro-durable-snapshot"
SNAPSHOT_VERSION = 1
SNAPSHOT_SUFFIX = ".snap"

#: Legacy per-partition WAL segments: ``wal-<partition>.ndjson``.
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".ndjson"
#: Snapshot meta key of the legacy segment layout (per-partition fences).
SEGMENT_META_KEY = "multiwriter"

#: Fixed-width snapshot footer: b"sha256:" + 64 hex digits + b"\n".
_FOOTER_LEN = 7 + 64 + 1

#: A parsed WAL record: ``(epoch, first_seq, last_seq, events)``; epoch is
#: 0 unless the record comes from a legacy segment.
_Record = tuple[int, int, int, list[tuple[int, int, int]]]


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _record_crc(
    seq: list[int], events: list[list[int]], epoch: int | None = None
) -> int:
    payload: dict = {"seq": seq, "events": events}
    if epoch is not None:
        payload["epoch"] = epoch
    return zlib.crc32(_canonical(payload))


# --------------------------------------------------------------------------- #
# Snapshot files
# --------------------------------------------------------------------------- #


def write_snapshot_file(
    path: str | Path, meta: dict, arrays: dict[str, np.ndarray]
) -> Path:
    """Atomically write one snapshot file (temp sibling + rename).

    The caller's ``meta`` must be JSON-serializable; arrays are stored as
    raw C-contiguous bytes in manifest order.  The file only ever appears
    under ``path`` complete and checksummed — a crash mid-write leaves at
    most a ``.tmp`` sibling, which loaders ignore.
    """
    path = Path(path)
    manifest = []
    chunks = []
    for name, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        manifest.append(
            {
                "name": name,
                "dtype": contiguous.dtype.str,
                "shape": list(contiguous.shape),
            }
        )
        chunks.append(contiguous.tobytes())
    header = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "meta": meta,
        "arrays": manifest,
    }
    payload = json.dumps(header, sort_keys=True).encode() + b"\n" + b"".join(chunks)
    digest = hashlib.sha256(payload).hexdigest()
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.write(b"sha256:" + digest.encode() + b"\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)
    return path


def load_snapshot_file(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Load and verify one snapshot; returns ``(meta, writable arrays)``.

    Raises :class:`~repro.exceptions.DurableStateError` on any validation
    failure (truncation, checksum mismatch, unsupported version); callers
    that scan a directory catch it and fall back to an older snapshot.
    """
    data = Path(path).read_bytes()
    if len(data) <= _FOOTER_LEN:
        raise DurableStateError(f"snapshot {path} is truncated")
    payload, footer = data[:-_FOOTER_LEN], data[-_FOOTER_LEN:]
    if not footer.startswith(b"sha256:") or not footer.endswith(b"\n"):
        raise DurableStateError(f"snapshot {path} has a malformed checksum footer")
    expected = footer[7:-1].decode("ascii", errors="replace")
    if hashlib.sha256(payload).hexdigest() != expected:
        raise DurableStateError(f"snapshot {path} failed its checksum")
    newline = payload.index(b"\n")
    try:
        header = json.loads(payload[:newline])
    except json.JSONDecodeError as error:  # pragma: no cover - checksum catches
        raise DurableStateError(f"snapshot {path} header is malformed") from error
    if header.get("format") != SNAPSHOT_FORMAT:
        raise DurableStateError(f"snapshot {path} has unknown format")
    if header.get("version") != SNAPSHOT_VERSION:
        raise DurableStateError(
            f"snapshot {path} has unsupported version {header.get('version')!r}"
        )
    arrays: dict[str, np.ndarray] = {}
    offset = newline + 1
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = offset + count * dtype.itemsize
        if end > len(payload):
            raise DurableStateError(f"snapshot {path} array payload is truncated")
        # .copy() matters: the restored backend caches must stay writable
        # so post-resume streaming keeps delta-updating them in place.
        arrays[entry["name"]] = (
            np.frombuffer(payload[offset:end], dtype=dtype).reshape(shape).copy()
        )
        offset = end
    return header["meta"], arrays


def _fsync_directory(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform quirk
        pass
    finally:
        os.close(fd)




# --------------------------------------------------------------------------- #
# WAL parsing (the log and the legacy segments share the record format)
# --------------------------------------------------------------------------- #


def _parse_record(raw: bytes) -> _Record | None:
    try:
        record = json.loads(raw)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    seq = record.get("seq")
    events = record.get("events")
    crc = record.get("crc")
    epoch = record.get("epoch")
    if (
        not isinstance(seq, list)
        or len(seq) != 2
        or not isinstance(events, list)
        or not isinstance(crc, int)
        or (epoch is not None and not isinstance(epoch, int))
    ):
        return None
    if _record_crc(seq, events, epoch) != crc:
        return None
    try:
        parsed = [(int(w), int(t), int(label)) for w, t, label in events]
    except (TypeError, ValueError):
        return None
    return int(epoch or 0), int(seq[0]), int(seq[1]), parsed


def _scan_log(path: Path, start_bytes: int = 0) -> tuple[list[_Record], int, int]:
    """Parse one log: ``(valid records, discarded records, valid bytes)``.

    Stops at the first record that is truncated (no trailing newline),
    undecodable, structurally wrong or CRC-mismatched; everything from
    that point on is the tail residue of a crash and is counted as
    discarded.  ``valid bytes`` is the absolute offset the log must be
    truncated to before it is appended to again.
    """
    if not path.exists():
        return [], 0, 0
    data = path.read_bytes()
    if not data:
        return [], 0, 0
    lines = data.split(b"\n")
    # A trailing newline leaves one empty sentinel chunk; without it the
    # last chunk is a partial record.
    complete, partial = lines[:-1], lines[-1]
    if not complete:
        return [], 1, 0
    try:
        header = json.loads(complete[0])
    except json.JSONDecodeError as error:
        raise DurableStateError(f"WAL {path} has a malformed header line") from error
    if not isinstance(header, dict) or header.get("format") != WAL_FORMAT:
        raise DurableStateError(
            f"WAL {path} does not carry the versioned {WAL_FORMAT!r} header"
        )
    if header.get("version") != WAL_VERSION:
        raise DurableStateError(
            f"WAL {path} has unsupported version {header.get('version')!r} "
            f"(this build reads {WAL_VERSION})"
        )
    header_bytes = len(complete[0]) + 1
    if start_bytes > header_bytes and start_bytes <= len(data):
        # Seek past the snapshot-covered prefix.  Snapshot offsets are
        # recorded at record boundaries of an append-only file, so the
        # suffix starts exactly at a record (or is empty).
        tail_lines = data[start_bytes:].split(b"\n")
        complete, partial = tail_lines[:-1], tail_lines[-1]
        scan_from = 0
        valid_bytes = start_bytes
    else:
        scan_from = 1
        valid_bytes = header_bytes
    records: list[_Record] = []
    discarded = 1 if partial else 0
    for index, raw in enumerate(complete[scan_from:], start=scan_from):
        record = _parse_record(raw)
        if record is None:
            # This record and everything after it (including any partial
            # final line) is the crash tail.
            discarded = len(complete) - index + (1 if partial else 0)
            break
        records.append(record)
        valid_bytes += len(raw) + 1
    return records, discarded, valid_bytes


def _uncovered(
    records: list[_Record], applied: int, path: Path
) -> list[_Record]:
    """The records beyond ``applied``, a straddler sliced to its suffix.

    Records already covered (``last <= applied``: the restored snapshot or
    a duplicate) are skipped; a *gap* — the next surviving record starting
    past ``applied + 1`` — is data loss in the middle of the history, not
    crash residue, and raises.
    """
    pending = []
    for epoch, first, last, events in records:
        if last <= applied:
            continue
        if first > applied + 1:
            raise DurableStateError(
                f"sequence gap in {path}: restored state ends at {applied} "
                f"but the next surviving record starts at {first}"
            )
        if first <= applied:
            events = events[applied - first + 1 :]
            first = applied + 1
        pending.append((epoch, first, last, events))
        applied = last
    return pending


# --------------------------------------------------------------------------- #
# The durable store
# --------------------------------------------------------------------------- #


class DurableStore:
    """WAL + snapshot manager for one durable session directory.

    Parameters
    ----------
    directory:
        Where the log and snapshots live (created on open).
    snapshot_every:
        Write a snapshot after every N applied batches (and a final one on
        clean close).  ``None`` disables periodic snapshots — the directory
        then holds a pure WAL and resume replays the full history.
    fsync:
        Fsync each WAL append before the batch is applied (the durability
        guarantee behind acknowledged flushes).  Tests disable it for
        speed; the data path defaults to on.
    keep_snapshots:
        How many of the newest snapshots survive pruning.  More than one,
        so a snapshot that fails validation on resume (killed mid-rename
        races are impossible, but torn disks are not) can fall back.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        snapshot_every: int | None = None,
        fsync: bool = True,
        keep_snapshots: int = 2,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be positive or None, got {snapshot_every}"
            )
        if keep_snapshots < 1:
            raise ConfigurationError(
                f"keep_snapshots must be at least 1, got {keep_snapshots}"
            )
        self.directory = Path(directory)
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self.keep_snapshots = keep_snapshots
        self._log: IO[str] | None = None
        self._total_batches = 0
        self._since_snapshot = 0
        #: Byte length of the open log (header + valid records).  Recorded
        #: in each snapshot's meta as ``wal_bytes`` so resume can seek past
        #: the snapshotted prefix instead of re-parsing the whole log.
        self._wal_bytes = 0
        #: Absolute valid-byte offset computed by the last log scan; reused
        #: by ``open(resume=True)`` so the reopen truncation does not pay a
        #: second full parse.
        self._scan_valid_bytes: int | None = None
        #: Snapshot files written by this store instance (cadence tests).
        self.snapshots_written = 0
        #: WAL batch records discarded as a truncated/corrupt tail at the
        #: last :meth:`read_batches` (diagnostics; 0 on a clean log).
        self.discarded_tail_records = 0

    # -- state probing -------------------------------------------------- #

    @property
    def wal_path(self) -> Path:
        return self.directory / WAL_NAME

    @property
    def wal_bytes(self) -> int:
        """Byte length of the open log (header + valid records)."""
        return self._wal_bytes

    @classmethod
    def has_state(cls, directory: str | Path) -> bool:
        """True when ``directory`` holds resumable state.

        That is a non-empty WAL, a snapshot, or legacy WAL segments.
        """
        directory = Path(directory)
        wal = directory / WAL_NAME
        if wal.exists() and wal.stat().st_size > 0:
            return True
        if any(directory.glob(f"snapshot-*{SNAPSHOT_SUFFIX}")):
            return True
        return bool(cls.segment_paths(directory))

    @staticmethod
    def segment_paths(directory: str | Path) -> dict[int, Path]:
        """Legacy ``wal-<p>.ndjson`` segments keyed by partition."""
        found: dict[int, Path] = {}
        for path in Path(directory).glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"):
            stem = path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
            if stem.isdigit():
                found[int(stem)] = path
        return found

    def snapshot_paths(self) -> list[Path]:
        """Snapshot files, newest (highest applied sequence) first."""
        return sorted(
            self.directory.glob(f"snapshot-*{SNAPSHOT_SUFFIX}"), reverse=True
        )

    # -- lifecycle ------------------------------------------------------- #

    def open(self, resume: bool = False) -> None:
        """Create the directory and open the WAL for appending.

        ``resume=False`` (a fresh session) refuses a directory that already
        holds state — starting a new sequence numbering over live history
        would corrupt it; resume instead.  ``resume=True`` truncates the
        log back to its last valid record (discarding any crash tail found
        by :meth:`read_batches`) before reopening for append.
        """
        if self._log is not None:
            return
        if not resume and self.has_state(self.directory):
            raise DurableStateError(
                f"durable directory {self.directory} already contains state; "
                "use repro.serve.open_session (which resumes existing state) "
                "instead of starting a fresh session over it"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        if resume and self.wal_path.exists():
            valid_bytes = self._scan_valid_bytes
            if valid_bytes is None:
                _, _, valid_bytes = _scan_log(self.wal_path)
            with open(self.wal_path, "r+b") as handle:
                handle.truncate(valid_bytes)
        self._log = open(self.wal_path, "a", encoding="utf-8")
        self._wal_bytes = self.wal_path.stat().st_size
        if self._wal_bytes == 0:
            header = json.dumps({"format": WAL_FORMAT, "version": WAL_VERSION})
            self._log.write(header + "\n")
            self._log.flush()
            if self.fsync:
                os.fsync(self._log.fileno())
            self._wal_bytes = len(header) + 1

    def close(self) -> None:
        """Close the log handle (idempotent)."""
        if self._log is not None:
            self._log.close()
            self._log = None

    # -- WAL append (the applier's pre-apply hook) ----------------------- #

    def append_batch(
        self,
        first_seq: int,
        last_seq: int,
        events: list[tuple[int, int, int]],
    ) -> None:
        """Append one micro-batch record and (by default) fsync it.

        Called by the session's applier *before* ``apply_batch``: once this
        returns, a crash at any later point replays the batch from the log,
        so a flush acknowledged after the apply can never lose events.
        """
        if self._log is None:
            raise ConfigurationError("the durable store is not open")
        seq = [int(first_seq), int(last_seq)]
        payload = [[int(w), int(t), int(label)] for w, t, label in events]
        record = {"seq": seq, "events": payload, "crc": _record_crc(seq, payload)}
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._log.write(line)
        self._log.write("\n")
        self._log.flush()
        if self.fsync:
            os.fsync(self._log.fileno())
        self._wal_bytes += len(line) + 1

    # -- WAL replay ------------------------------------------------------ #

    def read_batches(
        self, start_bytes: int = 0
    ) -> list[tuple[int, int, list[tuple[int, int, int]]]]:
        """Valid batch records in log order, tail residue discarded.

        ``start_bytes`` (a snapshot's recorded ``wal_bytes``) skips parsing
        the records the snapshot already covers — the O(delta) seek that
        makes resume cheaper than full replay.  The header is still
        validated, and an offset that no longer lands inside the file
        (the log was truncated below the snapshot) falls back to a full
        scan, which replay then deduplicates by sequence.
        """
        records, discarded, valid_bytes = _scan_log(self.wal_path, start_bytes)
        self.discarded_tail_records = discarded
        self._scan_valid_bytes = valid_bytes
        return [(first, last, events) for _, first, last, events in records]

    def read_delta(
        self, applied: int, start_bytes: int = 0
    ) -> list[tuple[int, int, list[tuple[int, int, int]]]]:
        """The WAL batches beyond sequence ``applied``, ready to replay.

        Idempotent: covered records (the restored state, or duplicates)
        are skipped and a record straddling ``applied`` is sliced to its
        uncovered suffix; a sequence gap raises
        :class:`~repro.exceptions.DurableStateError`.
        """
        records = [(0, *batch) for batch in self.read_batches(start_bytes)]
        return [
            (first, last, events)
            for _, first, last, events in _uncovered(records, applied, self.wal_path)
        ]

    def read_legacy_segments(
        self, fences: dict | None = None
    ) -> list[list[tuple[int, int, int]]]:
        """The legacy segments' uncovered batches, in one merged replay order.

        ``fences`` is the ``"multiwriter"`` meta of the restored legacy
        snapshot (``None`` when replaying from scratch): per-partition
        applied sequences and segment offsets.  Per segment, independently,
        the corrupt tail is discarded (the file is left as it is — segments
        are never appended to again), covered records are skipped and a
        straddler is sliced; the deltas are then k-way merged by
        ``(epoch, sequence, partition)``.  Each segment's records are
        non-decreasing in epoch and increasing in sequence, so the merge
        keeps each segment's order — the per-worker order the partitioned
        writers guaranteed, and the only order the last-write-wins matrix
        depends on.  The result is the one the writing release's own
        resume replayed.
        """
        fences = fences or {}
        covered = fences.get("partitions") or {}
        offsets = fences.get("wal_bytes") or {}
        streams = []
        for partition, path in sorted(self.segment_paths(self.directory).items()):
            records, _, _ = _scan_log(path, int(offsets.get(str(partition), 0)))
            pending = _uncovered(records, int(covered.get(str(partition), 0)), path)
            streams.append(
                [(epoch, first, partition, events) for epoch, first, _, events in pending]
            )
        return [batch[3] for batch in heapq.merge(*streams, key=lambda b: b[:3])]

    # -- snapshots -------------------------------------------------------- #

    def load_snapshot_state(self) -> tuple[dict, dict[str, np.ndarray]] | None:
        """The newest snapshot that validates, or None (pure WAL replay).

        Snapshots that fail their checksum (killed mid-write residue, torn
        storage) are skipped in favour of older ones — never fatal.
        """
        for path in self.snapshot_paths():
            try:
                return load_snapshot_file(path)
            except (DurableStateError, OSError):
                continue
        return None

    def record_applied(
        self, evaluator: "IncrementalEvaluator", applied_seq: int
    ) -> None:
        """Post-apply bookkeeping: count the batch, snapshot when due."""
        self._total_batches += 1
        self._since_snapshot += 1
        if (
            self.snapshot_every is not None
            and self._since_snapshot >= self.snapshot_every
        ):
            self.write_snapshot(evaluator, applied_seq)

    def note_resumed(self, total_batches: int, replayed_batches: int) -> None:
        """Seed the counters after a resume (cadence continues from delta)."""
        self._total_batches = total_batches
        self._since_snapshot = replayed_batches

    def finalize(self, evaluator: "IncrementalEvaluator", applied_seq: int) -> None:
        """Clean-shutdown hook: final snapshot (when periodic ones are on).

        A session closed cleanly with ``snapshot_every`` set leaves a
        snapshot at its last applied sequence, so the next resume replays
        nothing.  With ``snapshot_every=None`` the directory stays a pure
        WAL by design.
        """
        if self.snapshot_every is not None and self._since_snapshot > 0:
            self.write_snapshot(evaluator, applied_seq)

    def write_snapshot(
        self, evaluator: "IncrementalEvaluator", applied_seq: int
    ) -> Path:
        """Write one snapshot of the evaluator at ``applied_seq`` and prune."""
        meta, arrays = evaluator.export_state()
        meta["applied_seq"] = int(applied_seq)
        meta["applied_batches"] = self._total_batches
        # The log offset covering everything up to applied_seq: resume
        # seeks here instead of re-parsing the snapshotted prefix.
        meta["wal_bytes"] = (
            self._wal_bytes
            if self._log is not None
            else (self.wal_path.stat().st_size if self.wal_path.exists() else 0)
        )
        path = self.directory / f"snapshot-{int(applied_seq):012d}{SNAPSHOT_SUFFIX}"
        write_snapshot_file(path, meta, arrays)
        self._since_snapshot = 0
        self.snapshots_written += 1
        for stale in self.snapshot_paths()[self.keep_snapshots :]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        return path
