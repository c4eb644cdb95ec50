"""Triple formation for the m-worker estimator (Section III-C1).

To evaluate worker ``w_i``, Algorithm A2 partitions the remaining workers
into pairs; each pair plus ``w_i`` forms a triple whose 3-worker estimate is
later aggregated.  The paper's greedy strategy favours pairs that share many
tasks with ``w_i`` (good triples), accepting that some triples will be poor —
the optimal weighting of Lemma 5 then down-weights the poor ones.

A random pairing strategy is also provided for the ablation bench.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.core.agreement import AgreementStatistics

__all__ = ["form_triples", "greedy_pairs", "greedy_pairs_dense", "random_pairs"]


def greedy_pairs(
    stats: AgreementStatistics,
    target: int,
    candidates: list[int],
    min_overlap: int = 1,
    probe_log: list[tuple[int, int]] | None = None,
) -> list[tuple[int, int]]:
    """The paper's greedy pairing of ``candidates`` for evaluating ``target``.

    Candidates are sorted by the number of tasks they share with ``target``
    (descending).  The best candidate is paired with the first later candidate
    that shares at least ``min_overlap`` tasks with both ``target`` and the
    best candidate; both are removed and the process repeats until no valid
    pair remains.

    When ``probe_log`` is given, every candidate-vs-candidate overlap probe
    of the partner scan is appended to it (the target-vs-candidate reads of
    the usability filter and the sort are *not* logged — they cover every
    candidate, and the dependency ledger represents them with the
    ``touch_target`` flag instead; see :mod:`repro.core.deps`).
    """
    if target in candidates:
        raise ConfigurationError("the evaluated worker cannot be its own partner")
    remaining = sorted(
        (w for w in candidates if stats.common_count(target, w) >= min_overlap),
        key=lambda w: -stats.common_count(target, w),
    )
    pairs: list[tuple[int, int]] = []
    while len(remaining) >= 2:
        first = remaining[0]
        partner_index = None
        for index in range(1, len(remaining)):
            other = remaining[index]
            if probe_log is not None:
                probe_log.append((first, other))
            if stats.common_count(first, other) >= min_overlap:
                partner_index = index
                break
        if partner_index is None:
            # Nobody pairs with the best candidate; drop it and continue.
            remaining.pop(0)
            continue
        partner = remaining.pop(partner_index)
        remaining.pop(0)
        pairs.append((first, partner))
    return pairs


def greedy_pairs_dense(
    common_counts: np.ndarray,
    target: int,
    candidates: list[int],
    min_overlap: int = 1,
    common_list: list[list[int]] | None = None,
    probe_log: list[tuple[int, int]] | None = None,
) -> list[tuple[int, int]]:
    """:func:`greedy_pairs` reading straight from the dense count matrix.

    Produces exactly the same pairs as the reference implementation (the
    stable descending sort and the first-valid-partner scan are replicated
    step for step) but replaces the ~m^2 Python-level statistics calls per
    evaluated worker with array reads, which makes pairing disappear from
    the batch-evaluation profile.  ``probe_log`` records the same partner
    scan probes, in the same order, as the reference implementation logs —
    the dependency footprints derived from either variant are identical,
    so the dict backend's ledger and a vectorized backend's ledger make the
    same invalidation decisions (see :mod:`repro.core.deps`).
    """
    if target in candidates:
        raise ConfigurationError("the evaluated worker cannot be its own partner")
    candidate_index = np.asarray(candidates, dtype=np.int64)
    with_target = common_counts[target, candidate_index]
    keep = with_target >= min_overlap
    candidate_index = candidate_index[keep]
    # Stable argsort on negated counts == Python's stable sort by -count.
    order = np.argsort(-with_target[keep], kind="stable")
    remaining = [int(candidate) for candidate in candidate_index[order]]
    rows = common_list if common_list is not None else common_counts
    pairs: list[tuple[int, int]] = []
    while len(remaining) >= 2:
        first = remaining[0]
        row = rows[first]
        partner_index = None
        for index in range(1, len(remaining)):
            if probe_log is not None:
                probe_log.append((first, remaining[index]))
            if row[remaining[index]] >= min_overlap:
                partner_index = index
                break
        if partner_index is None:
            remaining.pop(0)
            continue
        partner = remaining.pop(partner_index)
        remaining.pop(0)
        pairs.append((first, partner))
    return pairs


def random_pairs(
    stats: AgreementStatistics,
    target: int,
    candidates: list[int],
    rng: np.random.Generator,
    min_overlap: int = 1,
) -> list[tuple[int, int]]:
    """Baseline pairing strategy: shuffle and pair adjacent candidates.

    Pairs violating the overlap requirement (with the target or with each
    other) are discarded.  Used by the pairing ablation bench to show the
    value of the greedy strategy.
    """
    if target in candidates:
        raise ConfigurationError("the evaluated worker cannot be its own partner")
    usable = [w for w in candidates if stats.common_count(target, w) >= min_overlap]
    shuffled = list(usable)
    rng.shuffle(shuffled)
    pairs = []
    for index in range(0, len(shuffled) - 1, 2):
        first, second = shuffled[index], shuffled[index + 1]
        if stats.common_count(first, second) >= min_overlap:
            pairs.append((first, second))
    return pairs


def form_triples(
    stats: AgreementStatistics,
    target: int,
    candidates: list[int],
    strategy: str = "greedy",
    rng: np.random.Generator | None = None,
    min_overlap: int = 1,
    probe_log: list[tuple[int, int]] | None = None,
) -> list[tuple[int, int, int]]:
    """Form the triples used to evaluate ``target`` (Step 1 of Algorithm A2).

    Parameters
    ----------
    stats:
        Agreement cache over the response matrix.
    target:
        The worker being evaluated.
    candidates:
        The other workers available as partners.
    strategy:
        ``"greedy"`` (the paper's strategy) or ``"random"`` (ablation).
        Greedy pairing reads the dense count matrix
        (:func:`greedy_pairs_dense`) when the statistics carry a vectorized
        backend and runs the reference :func:`greedy_pairs` on the dict
        backend; both yield identical pairs and probe logs.
    rng:
        Required for the random strategy.
    min_overlap:
        Minimum number of common tasks required between every pair inside a
        triple.
    probe_log:
        Collect the pairing scan's candidate-vs-candidate overlap probes
        (for dependency footprints; greedy strategy only — the random
        strategy's reads are rng-dependent and not footprint-collectable).

    Returns
    -------
    list of triples ``(target, partner_a, partner_b)``.
    """
    if strategy == "greedy":
        if stats.has_dense_backend:
            pairs = greedy_pairs_dense(
                stats.backend.common_counts,
                target,
                candidates,
                min_overlap=min_overlap,
                common_list=stats.backend.common_counts_list,
                probe_log=probe_log,
            )
        else:
            pairs = greedy_pairs(
                stats, target, candidates, min_overlap=min_overlap,
                probe_log=probe_log,
            )
    elif strategy == "random":
        if rng is None:
            raise ConfigurationError("the random pairing strategy requires an rng")
        if probe_log is not None:
            raise ConfigurationError(
                "footprint collection (probe_log) requires the greedy pairing "
                "strategy"
            )
        pairs = random_pairs(stats, target, candidates, rng, min_overlap=min_overlap)
    else:
        raise ConfigurationError(
            f"unknown pairing strategy '{strategy}'; expected 'greedy' or 'random'"
        )
    return [(target, a, b) for a, b in pairs]
