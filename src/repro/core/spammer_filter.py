"""Spammer pruning (Section III-E2).

The closed-form error-rate function has a singularity when agreement rates
approach 1/2, which happens when near-random ("spammer") workers are present.
The paper's remedy is a pre-processing pass: approximate each worker's error
rate by their disagreement with the majority vote, and drop workers whose
approximate error rate exceeds a threshold (0.4 in the paper) before running
the confidence-interval machinery.  Figure 4 shows the resulting accuracy
improvement.

The disagreement proxy is computed either with the original per-task Python
loops (O(responses * workers-per-task) per worker) or, when a vectorized
backend is selected (dense, sparse or bitset), from a per-task vote table
built once for all workers (see
:meth:`~repro.data.dense_backend.AgreementBackendBase.majority_disagreement_rates`).
All produce identical rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError, InsufficientDataError
from repro.data.dense_backend import AgreementBackendBase, resolve_backend
from repro.data.response_matrix import ResponseMatrix

__all__ = ["SpammerFilterResult", "filter_spammers"]

#: The paper's threshold: workers whose majority-disagreement exceeds this are
#: treated as near-certain spammers.
DEFAULT_SPAMMER_THRESHOLD: float = 0.4


@dataclass(frozen=True)
class SpammerFilterResult:
    """Outcome of the spammer filter.

    Attributes
    ----------
    filtered:
        A new response matrix containing only the retained workers
        (re-indexed from 0).
    kept_workers:
        Original ids of the retained workers, in their new order (so
        ``kept_workers[new_id] == old_id``).
    removed_workers:
        Original ids of the workers that were pruned.
    approximate_error_rates:
        The majority-disagreement proxy for every original worker (pruned or
        not); workers that could not be scored (no overlap with anyone) are
        mapped to ``None`` and retained.
    """

    filtered: ResponseMatrix
    kept_workers: tuple[int, ...]
    removed_workers: tuple[int, ...]
    approximate_error_rates: dict[int, float | None]

    def original_id(self, new_id: int) -> int:
        """Map a worker id in the filtered matrix back to the original id."""
        return self.kept_workers[new_id]


def filter_spammers(
    matrix: ResponseMatrix,
    threshold: float = DEFAULT_SPAMMER_THRESHOLD,
    min_remaining: int = 3,
    backend: str | AgreementBackendBase | None = "auto",
    shards: int | str = 1,
) -> SpammerFilterResult:
    """Remove near-spammer workers before confidence-interval estimation.

    Parameters
    ----------
    matrix:
        The response data (any arity).
    threshold:
        Workers whose disagreement-with-majority exceeds this are removed.
    min_remaining:
        Never prune below this many workers (the estimators need at least 3);
        if pruning would go below, the least-bad offenders are kept.
    backend:
        Any vectorized backend (``"dense"``, ``"sparse"``, ``"bitset"``)
        computes all disagreement proxies from one vote table, ``"dict"``
        uses the original per-worker loops, ``"auto"`` applies the cost
        model over grid size and observed fill.  The proxies (and hence the
        filtering decision) are identical either way.
    shards:
        Execution spec for the proxy scan, same grammar as the estimators'
        knob (:func:`~repro.core.parallel.parse_shard_spec`): ``N > 1`` or
        a non-serial ``"auto"`` resolution runs the scan as thread chunks
        over
        :meth:`~repro.data.dense_backend.AgreementBackendBase.majority_disagreement_rates`
        with the vote table pre-built.  Rates are concatenated in chunk
        order — worker order — so the result is bit-identical to serial;
        ignored on the dict path (no vote table to chunk over).

    Returns
    -------
    SpammerFilterResult
        The filtered matrix plus bookkeeping for mapping ids back.
    """
    from repro.core.parallel import (
        auto_shard_choice,
        contiguous_ranges,
        get_executor,
        parse_shard_spec,
    )

    if not (0.0 < threshold < 1.0):
        raise ConfigurationError(
            f"threshold must lie strictly between 0 and 1, got {threshold}"
        )
    if min_remaining < 3:
        raise ConfigurationError(
            f"min_remaining must be at least 3, got {min_remaining}"
        )
    tier, n_shards = parse_shard_spec(shards)
    dense = resolve_backend(matrix, backend)
    proxies: dict[int, float | None] = {}
    if dense is not None:
        if tier == "auto":
            tier, n_shards = auto_shard_choice(
                matrix.n_workers, matrix.n_tasks, matrix.n_responses
            )
        if tier != "serial" and matrix.n_workers >= n_shards:
            dense.task_votes  # build once, before the fan-out
            pool = get_executor().thread_pool(n_shards)
            futures = [
                pool.submit(
                    dense.majority_disagreement_rates, range(start, stop)
                )
                for start, stop in contiguous_ranges(matrix.n_workers, n_shards)
            ]
            rates: list[float | None] = []
            for future in futures:
                rates.extend(future.result())
        else:
            rates = dense.majority_disagreement_rates()
        proxies = dict(enumerate(rates))
    else:
        for worker in range(matrix.n_workers):
            try:
                proxies[worker] = matrix.disagreement_with_majority(worker)
            except InsufficientDataError:
                proxies[worker] = None

    flagged = [
        worker
        for worker, proxy in proxies.items()
        if proxy is not None and proxy > threshold
    ]
    kept = [worker for worker in range(matrix.n_workers) if worker not in set(flagged)]

    if len(kept) < min_remaining:
        # Keep the least-bad flagged workers until the minimum is met.
        flagged_sorted = sorted(
            flagged, key=lambda worker: proxies[worker] or 0.0
        )
        while len(kept) < min_remaining and flagged_sorted:
            rescued = flagged_sorted.pop(0)
            kept.append(rescued)
            flagged.remove(rescued)
        kept.sort()

    filtered = matrix.subset_workers(kept)
    return SpammerFilterResult(
        filtered=filtered,
        kept_workers=tuple(kept),
        removed_workers=tuple(sorted(flagged)),
        approximate_error_rates=proxies,
    )
