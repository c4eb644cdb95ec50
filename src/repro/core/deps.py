"""Vectorized dependency ledger for incremental invalidation.

The streaming evaluator (:class:`~repro.core.incremental.IncrementalEvaluator`)
must know which cached per-worker estimates a batch of responses invalidates.
This module answers that with *footprints*: the evaluation path returns,
per worker, a compact summary of the statistics it read — derived
analytically from the pairing scan and the formed triples, not observed one
scalar at a time, so it is the same on every backend (the dict backend's
scalar path included) and on every execution tier.  A footprint is three
pieces of data:

``touch_target``
    The greedy pairing pass reads the common count between the evaluated
    worker and **every** candidate (the usability filter and the stable sort
    both inspect all of them), so any changed pair with the evaluated worker
    as an endpoint invalidates the estimate.  One flag replaces ``m - 1``
    recorded pairs.  The flag also covers growth: a worker that joins
    *after* ``w`` was cached was never a candidate during ``w``'s
    evaluation, so the pair ``(w, new)`` was never read — yet the
    newcomer's first overlapping response changes the candidate list a
    fresh run would see.  An endpoint test does not care when the other
    worker joined.

``pairs``
    The greedy scan probes overlaps between *candidates* while assembling
    disjoint pairs (``common_count(first, other)`` until a partner clears
    ``min_overlap``).  Those reads do not touch the target and are recorded
    exactly, as a sorted-unique array of encoded pair ids
    (``a << 32 | b`` with ``a < b``).

``support``
    The triple stage and the Lemma-4 covariance assembly read pair and
    triple statistics among ``{w} | partners`` only (vectorized gathers,
    or the dict path's scalar reads).  Those reads are summarized as a
    *support set* of worker ids: a changed pair invalidates the estimate
    when both endpoints lie in the support.  Partners of triples later dropped as unusable are included —
    the stage inputs were gathered before usability was decided.

The ledger aggregates footprints across cached workers into flat NumPy
arrays so a micro-batch's invalidation query is a handful of vectorized
membership tests (``np.isin`` against the batch's changed-pair array — one
intersection pass, not per-pair set probes).  Footprints are plain arrays,
so they serialize into durable snapshots (see
:meth:`~repro.core.incremental.IncrementalEvaluator.export_state`) and
merge across the thread chunks of :mod:`repro.core.parallel` in worker
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "PAIR_ID_SHIFT",
    "encode_pair_ids",
    "WorkerFootprint",
    "DependencyLedger",
]

# Pair (a, b) with a < b is encoded as the int64 ``a << PAIR_ID_SHIFT | b``.
# Worker ids are bounded far below 2**31 in practice (the dense count
# matrices would not fit in memory long before), so the encoding is exact.
PAIR_ID_SHIFT = 32


def encode_pair_ids(pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    """Sorted-unique int64 ids for ``(a, b)`` worker pairs (order-free)."""
    encoded = [
        (min(a, b) << PAIR_ID_SHIFT) | max(a, b) for a, b in pairs
    ]
    if not encoded:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.asarray(encoded, dtype=np.int64))


def _decode_pair_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays ``(a, b)`` for encoded pair ids."""
    return ids >> PAIR_ID_SHIFT, ids & ((1 << PAIR_ID_SHIFT) - 1)


@dataclass(frozen=True)
class WorkerFootprint:
    """Compact record of the statistics one worker's estimate read.

    Produced by :meth:`MWorkerEstimator.evaluate_worker_range
    <repro.core.m_worker.MWorkerEstimator.evaluate_worker_range>` with
    ``collect_footprints=True`` and consumed by :class:`DependencyLedger`.
    Instances are plain arrays + a flag, so they are
    snapshot-serializable.
    """

    worker: int
    touch_target: bool
    pairs: np.ndarray  # sorted unique encoded pair ids, int64
    support: np.ndarray  # sorted unique worker ids, int64

    @classmethod
    def from_evaluation(
        cls,
        worker: int,
        partners: Iterable[int],
        probe_pairs: Iterable[tuple[int, int]],
    ) -> "WorkerFootprint":
        """Footprint of one greedy-paired evaluation.

        ``partners`` are the members of every formed pair (pre-usability);
        ``probe_pairs`` is the pairing scan log (candidate-vs-candidate
        overlap probes).  The target's own pairing reads are represented by
        ``touch_target`` rather than enumerated.
        """
        support = np.unique(
            np.asarray([worker, *partners], dtype=np.int64)
        )
        return cls(
            worker=int(worker),
            touch_target=True,
            pairs=encode_pair_ids(probe_pairs),
            support=support,
        )


class DependencyLedger:
    """Aggregated footprints of every live cached estimate.

    ``record`` / ``forget`` maintain per-worker footprints;
    :meth:`invalidated` answers "which cached estimates does this batch of
    changed pairs invalidate?" with vectorized membership tests over flat
    views of all footprints (rebuilt lazily after mutations).
    """

    def __init__(self) -> None:
        self._footprints: dict[int, WorkerFootprint] = {}
        self._flat: tuple[np.ndarray, ...] | None = None

    def __len__(self) -> int:
        return len(self._footprints)

    def __contains__(self, worker: int) -> bool:
        return worker in self._footprints

    @property
    def workers(self) -> set[int]:
        """Workers with a recorded footprint."""
        return set(self._footprints)

    def footprint(self, worker: int) -> WorkerFootprint | None:
        """The recorded footprint for ``worker`` (None when absent)."""
        return self._footprints.get(worker)

    def record(self, worker: int, footprint: WorkerFootprint) -> None:
        """Replace ``worker``'s footprint with a freshly collected one."""
        self._footprints[int(worker)] = footprint
        self._flat = None

    def forget(self, worker: int) -> None:
        """Drop ``worker``'s footprint (its cache entry was invalidated)."""
        if self._footprints.pop(int(worker), None) is not None:
            self._flat = None

    def clear(self) -> None:
        self._footprints.clear()
        self._flat = None

    # -- invalidation ---------------------------------------------------- #

    def _flat_views(self) -> tuple[np.ndarray, ...]:
        if self._flat is None:
            workers = np.fromiter(
                self._footprints.keys(), dtype=np.int64, count=len(self._footprints)
            )
            order = np.argsort(workers, kind="stable")
            workers = workers[order]
            prints = [self._footprints[int(w)] for w in workers]
            touch = np.fromiter(
                (fp.touch_target for fp in prints), dtype=bool, count=len(prints)
            )
            pair_counts = [fp.pairs.size for fp in prints]
            support_counts = [fp.support.size for fp in prints]
            pairs_flat = (
                np.concatenate([fp.pairs for fp in prints])
                if sum(pair_counts)
                else np.empty(0, dtype=np.int64)
            )
            support_flat = (
                np.concatenate([fp.support for fp in prints])
                if sum(support_counts)
                else np.empty(0, dtype=np.int64)
            )
            pairs_owner = np.repeat(
                np.arange(len(prints), dtype=np.int64), pair_counts
            )
            support_owner = np.repeat(
                np.arange(len(prints), dtype=np.int64), support_counts
            )
            self._flat = (
                workers, touch, pairs_flat, pairs_owner, support_flat, support_owner
            )
        return self._flat

    def invalidated(self, changed_pairs: Iterable[tuple[int, int]]) -> set[int]:
        """Recorded workers whose estimate a set of changed pairs invalidates.

        One vectorized pass: an endpoint-membership test for the
        ``touch_target`` flags, one ``np.isin`` of all recorded probe pairs
        against the batch's encoded changed-pair array, and one boolean
        owner-by-endpoint intersection for the support sets.
        """
        keys = encode_pair_ids(changed_pairs)
        if keys.size == 0 or not self._footprints:
            return set()
        first, second = _decode_pair_ids(keys)
        endpoints = np.unique(np.concatenate([first, second]))
        workers, touch, pairs_flat, pairs_owner, support_flat, support_owner = (
            self._flat_views()
        )
        hit = touch & np.isin(workers, endpoints)
        if pairs_flat.size:
            hit[pairs_owner[np.isin(pairs_flat, keys)]] = True
        if support_flat.size:
            member = np.isin(support_flat, endpoints)
            if member.any():
                # has[owner, e] == True iff endpoint e lies in owner's support.
                has = np.zeros((workers.size, endpoints.size), dtype=bool)
                has[
                    support_owner[member],
                    np.searchsorted(endpoints, support_flat[member]),
                ] = True
                first_idx = np.searchsorted(endpoints, first)
                second_idx = np.searchsorted(endpoints, second)
                hit |= (has[:, first_idx] & has[:, second_idx]).any(axis=1)
        return {int(w) for w in workers[hit]}

    # -- id remapping ---------------------------------------------------- #

    def remap(self, kept_workers: Mapping[int, int] | Iterable[int]) -> None:
        """Re-key the ledger after an id compaction (``filter_spammers``).

        ``kept_workers`` maps *old* worker id → *new* worker id — or, in
        the :func:`~repro.core.spammer_filter.filter_spammers` result
        convention (``kept_workers[new_id] == old_id``), the sequence of
        surviving old ids in new-id order.  Footprints of removed workers
        are dropped; surviving footprints re-encode their pair and support
        arrays, with any pair/support member that referenced a removed
        worker discarded (the pair no longer exists to change).
        """
        if isinstance(kept_workers, Mapping):
            old_to_new = {int(o): int(n) for o, n in kept_workers.items()}
        else:
            old_to_new = {int(o): n for n, o in enumerate(kept_workers)}
        remapped: dict[int, WorkerFootprint] = {}
        for old_id, fp in self._footprints.items():
            new_id = old_to_new.get(old_id)
            if new_id is None:
                continue
            a, b = _decode_pair_ids(fp.pairs)
            kept_pairs = [
                (old_to_new[int(x)], old_to_new[int(y)])
                for x, y in zip(a, b)
                if int(x) in old_to_new and int(y) in old_to_new
            ]
            support = np.unique(
                np.asarray(
                    [old_to_new[int(s)] for s in fp.support if int(s) in old_to_new],
                    dtype=np.int64,
                )
            )
            remapped[new_id] = WorkerFootprint(
                worker=new_id,
                touch_target=fp.touch_target,
                pairs=encode_pair_ids(kept_pairs),
                support=support,
            )
        self._footprints = remapped
        self._flat = None

    # -- persistence ------------------------------------------------------ #

    def export_arrays(self, prefix: str = "deps.") -> dict[str, np.ndarray]:
        """Flat-array serialization (rides the durable snapshot format)."""
        workers, touch, pairs_flat, pairs_owner, support_flat, support_owner = (
            self._flat_views()
        )
        pair_counts = np.bincount(pairs_owner, minlength=workers.size).astype(
            np.int64
        )
        support_counts = np.bincount(
            support_owner, minlength=workers.size
        ).astype(np.int64)
        return {
            f"{prefix}workers": workers,
            f"{prefix}touch": touch.astype(np.uint8),
            f"{prefix}pairs_flat": pairs_flat,
            f"{prefix}pairs_offsets": np.concatenate(
                [[0], np.cumsum(pair_counts)]
            ).astype(np.int64),
            f"{prefix}support_flat": support_flat,
            f"{prefix}support_offsets": np.concatenate(
                [[0], np.cumsum(support_counts)]
            ).astype(np.int64),
        }

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], prefix: str = "deps."
    ) -> "DependencyLedger":
        """Rebuild a ledger from :meth:`export_arrays` output."""
        self = cls()
        workers = np.asarray(arrays[f"{prefix}workers"], dtype=np.int64)
        touch = np.asarray(arrays[f"{prefix}touch"], dtype=bool)
        pairs_flat = np.asarray(arrays[f"{prefix}pairs_flat"], dtype=np.int64)
        pairs_offsets = np.asarray(
            arrays[f"{prefix}pairs_offsets"], dtype=np.int64
        )
        support_flat = np.asarray(
            arrays[f"{prefix}support_flat"], dtype=np.int64
        )
        support_offsets = np.asarray(
            arrays[f"{prefix}support_offsets"], dtype=np.int64
        )
        for index, worker in enumerate(workers):
            self._footprints[int(worker)] = WorkerFootprint(
                worker=int(worker),
                touch_target=bool(touch[index]),
                pairs=pairs_flat[
                    pairs_offsets[index] : pairs_offsets[index + 1]
                ].copy(),
                support=support_flat[
                    support_offsets[index] : support_offsets[index + 1]
                ].copy(),
            )
        return self

