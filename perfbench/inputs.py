"""Seeded inputs for the benchmark workloads.

Every input is a pure function of ``(workload, seed)``: the same pair gives
the same arrays, bit for bit, and the true error rates the coverage metric
is scored against.  Generation is vectorised NumPy (per-worker error rates
in [0.05, 0.35], a random binary truth per task, a fixed share of the cells
answered), because the library's per-response simulator is far too slow at
these sizes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Why each workload exists, and the shape it runs at.  ``batch-dense`` is
#: the headline matrix (triple tensor, pairing, triple stage and weights do
#: the work; the serve layer does none).  ``batch-sparse`` is the low-fill
#: regime real crowds produce: per-worker triple grids and the batched
#: covariance solve dominate and the full tensor is never built.
#: ``stream-live`` is the only workload that drives the durable session,
#: the incremental evaluator and the dependency ledger.
WORKLOADS: dict[str, dict] = {
    "batch-dense": dict(
        kind="batch", n_workers=200, n_tasks=2000, fill=0.6, backend="dense"
    ),
    "batch-sparse": dict(
        kind="batch", n_workers=300, n_tasks=20000, fill=0.02, backend="sparse"
    ),
    "stream-live": dict(
        kind="stream",
        n_workers=100,
        n_tasks=5000,
        fill=0.25,
        backend="dense",
        wrong_frac=0.1,
    ),
}

RATE_RANGE = (0.05, 0.35)


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs.

    ``workers``/``tasks``/``labels`` hold every answered cell with its final
    (correct-for-that-worker) label, in a random arrival order.  ``events``
    is the stream a live session receives, as an ``(E, 3)`` array of
    ``(worker, task, label)`` rows; for batch workloads it is the cells in
    arrival order.  For ``stream-live`` some cells arrive first with the
    wrong label and later with the final one.
    """

    n_workers: int
    n_tasks: int
    true_rates: np.ndarray
    workers: np.ndarray
    tasks: np.ndarray
    labels: np.ndarray
    events: np.ndarray


def make_inputs(workload: str, seed: int) -> Inputs:
    """The inputs of ``workload`` for ``seed`` (pure and deterministic)."""
    spec = WORKLOADS[workload]
    m, n = spec["n_workers"], spec["n_tasks"]
    rng = np.random.default_rng([int(seed), zlib.crc32(workload.encode())])
    true_rates = rng.uniform(*RATE_RANGE, size=m)
    truth = rng.integers(0, 2, size=n)
    # Exactly ``fill`` of the cells, in a random arrival order: a fixed
    # response count keeps every seed's run the same size.
    chosen = rng.choice(m * n, size=round(spec["fill"] * m * n), replace=False)
    workers, tasks = np.divmod(chosen, n)
    wrong = rng.random(workers.size) < true_rates[workers]
    labels = truth[tasks] ^ wrong.astype(np.int64)
    cells = np.stack([workers, tasks, labels], axis=1)
    if spec["kind"] == "stream":
        events = _revision_stream(rng, cells, spec["wrong_frac"])
    else:
        events = cells
    for array in (true_rates, workers, tasks, labels, events):
        array.setflags(write=False)
    return Inputs(m, n, true_rates, workers, tasks, labels, events)


def _revision_stream(
    rng: np.random.Generator, cells: np.ndarray, wrong_frac: float
) -> np.ndarray:
    """Interleave ``cells`` with wrong first answers corrected later.

    Each cell gets a uniform arrival key; exactly a ``wrong_frac`` share of
    cells is first sent with the flipped label at one key and re-sent with
    the final label at a later key.  Sorting by key gives the stream, whose
    length (and so its batching and snapshot points) is the same for every
    seed.
    """
    n_cells = cells.shape[0]
    revised = np.zeros(n_cells, dtype=bool)
    revised[rng.choice(n_cells, size=round(wrong_frac * n_cells), replace=False)] = True
    first = rng.random(n_cells)
    second = rng.random(n_cells)
    early = np.minimum(first, second)
    late = np.maximum(first, second)
    wrong_events = cells[revised].copy()
    wrong_events[:, 2] ^= 1
    keys = np.concatenate([np.where(revised, late, first), early[revised]])
    stream = np.concatenate([cells, wrong_events])
    return stream[np.argsort(keys, kind="stable")]
