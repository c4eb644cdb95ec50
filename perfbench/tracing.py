"""Spans and counters for the traced benchmark run.

The library has no instrumentation of its own, so the traced run wraps the
public functions of each layer from here, patched at the name each caller
resolves (``repro.core.m_worker.form_triples``, not
``repro.core.pairing.form_triples``, because m_worker imports it by name).
A span is ``(name, start, end, parent, trace)``; the trace is the asyncio
task (or the main thread) the span ran on, so the spans of one trace nest
properly and their self times add up to at most the wall time.  Self time
is a span's duration minus the part of it its child spans cover.

Spans stay in memory until the run ends; :func:`layer_metrics` reduces them
to the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

_CURRENT_SPAN: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_current_span", default=None
)


def _trace_id() -> int:
    try:
        task = asyncio.current_task()
    except RuntimeError:  # no running event loop: the main thread's trace
        return 0
    return 0 if task is None else id(task)


class Tracer:
    """In-memory span and counter store with patch/unpatch of library names."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int | None] = []
        self.traces: list[int] = []
        #: Per-span payload a hook attached (events in an apply_batch span).
        self.values: dict[int, float] = {}
        self.counts: dict[str, float] = defaultdict(float)
        #: ``module:attribute`` targets that no longer exist in the library.
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------- #

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(_CURRENT_SPAN.get())
        self.traces.append(_trace_id())
        self.ends.append(0)
        self.starts.append(time.perf_counter_ns())
        return index

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        token = _CURRENT_SPAN.set(index)
        try:
            yield index
        finally:
            self.ends[index] = time.perf_counter_ns()
            _CURRENT_SPAN.reset(token)

    # -- patching ------------------------------------------------------ #

    def wrap(self, module: str, attribute: str, layer: str | None, before=None, after=None):
        """Replace ``module:attribute`` (``Class.method`` allowed) by a wrapper.

        The wrapper records a span named ``layer`` (none when ``layer`` is
        None) and calls the hooks: ``before(args)`` returns a state that
        ``after(tracer, span, args, result, state)`` receives once the call
        returned.  Targets the library no longer has are listed in
        :attr:`missing` instead of failing the run.
        """
        owner_path, _, name = attribute.rpartition(".")
        try:
            owner = importlib.import_module(module)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = (
                owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            )
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}:{attribute}")
            return
        binder = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        function = original.__func__ if binder else original
        tracer = self

        if asyncio.iscoroutinefunction(function):

            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                state = before(args) if before else None
                with (tracer.span(layer) if layer else _no_span()) as index:
                    result = await function(*args, **kwargs)
                if after:
                    after(tracer, index, args, result, state)
                return result

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                state = before(args) if before else None
                with (tracer.span(layer) if layer else _no_span()) as index:
                    result = function(*args, **kwargs)
                if after:
                    after(tracer, index, args, result, state)
                return result

        setattr(owner, name, binder(wrapper) if binder else wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched name (in reverse order of patching)."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reduction ----------------------------------------------------- #

    def self_times(self) -> list[int]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, parent in enumerate(self.parents):
            if parent is not None:
                children[parent].append(index)
        result = []
        for index, (start, end) in enumerate(zip(self.starts, self.ends)):
            covered = 0
            cursor = start
            for child in sorted(children.get(index, ()), key=self.starts.__getitem__):
                lo = max(self.starts[child], cursor)
                hi = min(self.ends[child], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result.append(end - start - covered)
        return result

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.parents[index]
        while parent is not None:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False


@contextmanager
def _no_span():
    yield None


# ---------------------------------------------------------------------- #
# The layer wrappers
# ---------------------------------------------------------------------- #

RESUME_SPAN = "serve.durable.resume"
_LOAD_SPAN = "serve.durable.resume.load"
_APPLY_SPAN = "core.incremental.apply_batch"


def _tensor_before(args):
    return args[0]._triple_tensor is None


def _tensor_after(tracer, index, args, result, was_missing):
    if was_missing and result is not None:
        tracer.counts["data.triple_tensor.calls"] += 1
        tracer.counts["data.triple_tensor.bytes"] += result.size * result.itemsize


def _counter(name, amount=lambda result: 1):
    def after(tracer, index, args, result, state):
        tracer.counts[name] += amount(result)

    return after


def _apply_after(tracer, index, args, result, state):
    tracer.counts["core.incremental.apply_batch.batches"] += 1
    tracer.counts["core.incremental.apply_batch.events"] += result.n_events
    tracer.counts["core.deps.invalidated"] += len(result.invalidated)
    tracer.values[index] = result.n_events


def _queue_after(tracer, index, args, result, state):
    if result is not None:
        tracer.counts["serve.queue.batches"] += 1
        tracer.counts["serve.queue.events"] += len(result[2])


def _append_before(args):
    return args[0].wal_bytes


def _append_after(tracer, index, args, result, wal_before):
    tracer.counts["serve.durable.append.calls"] += 1
    tracer.counts["serve.durable.append.wal_bytes"] += args[0].wal_bytes - wal_before


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are measured at."""
    w = tracer.wrap
    w("repro.data.response_matrix", "ResponseMatrix.from_arrays", "data.matrix_build")
    w("repro.core.m_worker", "compute_agreement_statistics", "core.agreement.stats_build")
    w(
        "repro.data.dense_backend",
        "DenseAgreementBackend.triple_count_tensor",
        "data.triple_tensor",
        before=_tensor_before,
        after=_tensor_after,
    )
    w(
        "repro.data.sparse_backend",
        "BitsetAgreementBackend.triple_count_grid_full",
        "data.triple_grid",
        after=_counter("data.triple_grid.calls"),
    )
    w("repro.data.dense_backend", "AgreementBackendBase.apply_responses", "data.apply_responses")
    w("repro.data.sparse_backend", "SparseAgreementBackend.apply_responses", "data.apply_responses")
    w(
        "repro.core.m_worker",
        "form_triples",
        "core.pairing",
        after=_counter("core.pairing.triples", len),
    )
    for name in ("evaluate_triples_batched_arrays", "evaluate_worker_in_triple"):
        w("repro.core.m_worker", name, "core.three_worker")
    for name in ("batched_optimal_weights", "optimal_weights"):
        w("repro.core.m_worker", name, "core.weights")
    for name in ("batched_regularize_covariance", "regularize_covariance"):
        w("repro.core.weights", name, "stats.covariance")
    for name in ("evaluate_all", "evaluate_worker", "evaluate_worker_range"):
        w("repro.core.m_worker", f"MWorkerEstimator.{name}", "core.m_worker")
    w(
        "repro.core.incremental",
        "IncrementalEvaluator.apply_batch",
        _APPLY_SPAN,
        after=_apply_after,
    )
    for name in ("estimate", "estimate_all"):
        w("repro.core.incremental", f"IncrementalEvaluator.{name}", "core.incremental.recompute")
    # One span per batch around both dependency structures' lookups: the
    # observer's ``readers_of`` runs once per changed pair, and a span per
    # call would cost more than the lookup it measures.
    w("repro.core.incremental", "IncrementalEvaluator._readers_of", "core.deps")
    w("repro.serve.queue", "ResponseQueue.get_batch_with_seq", None, after=_queue_after)
    w(
        "repro.serve.durable",
        "DurableStore.append_batch",
        "serve.durable.append",
        before=_append_before,
        after=_append_after,
    )
    w(
        "repro.serve.durable",
        "DurableStore.write_snapshot",
        "serve.durable.snapshot",
        after=_counter("serve.durable.snapshot.calls"),
    )
    w("repro.serve.durable", "DurableStore.load_snapshot_state", _LOAD_SPAN)
    w("repro.serve.durable", "DurableStore.read_batches", _LOAD_SPAN)
    w("repro.core.incremental", "IncrementalEvaluator.from_state", _LOAD_SPAN)
    w("repro.serve.session", "StreamSession.submit", "serve.session.submit")
    w("repro.serve.session", "StreamSession.flush", "serve.session.flush")


#: Layers whose summed self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "data.matrix_build",
    "core.agreement.stats_build",
    "data.triple_tensor",
    "data.triple_grid",
    "data.apply_responses",
    "core.pairing",
    "core.three_worker",
    "core.weights",
    "stats.covariance",
    "core.m_worker",
    "core.incremental.apply_batch",
    "core.incremental.recompute",
    "core.deps",
    "serve.durable.append",
    "serve.durable.snapshot",
    "serve.session.submit",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce the recorded spans and counts to the per-layer metrics."""
    self_ns = tracer.self_times()
    totals: dict[str, int] = defaultdict(int)
    for name, value in zip(tracer.names, self_ns):
        totals[name] += value
    metrics = {f"{layer}.self_s": totals[layer] / 1e9 for layer in SELF_TIME_LAYERS}
    load_ns = replay_ns = replayed = 0
    flush_ns = 0
    for index, name in enumerate(tracer.names):
        duration = tracer.ends[index] - tracer.starts[index]
        if name == _LOAD_SPAN and not tracer.has_ancestor(index, _LOAD_SPAN):
            load_ns += duration
        elif name == _APPLY_SPAN and tracer.has_ancestor(index, RESUME_SPAN):
            replay_ns += duration
            replayed += tracer.values.get(index, 0)
        elif name == "serve.session.flush":
            flush_ns += duration
    counts = tracer.counts
    batches = counts["core.incremental.apply_batch.batches"]
    metrics.update(
        {
            "data.triple_tensor.calls": counts["data.triple_tensor.calls"],
            "data.triple_tensor.bytes": counts["data.triple_tensor.bytes"],
            "data.triple_grid.calls": counts["data.triple_grid.calls"],
            "core.pairing.triples": counts["core.pairing.triples"],
            "core.incremental.apply_batch.batches": batches,
            "core.incremental.apply_batch.events_per_batch": _ratio(
                counts["core.incremental.apply_batch.events"], batches
            ),
            "core.incremental.recompute.workers_per_read": _ratio(
                counts["core.incremental.recompute.workers"],
                counts["core.incremental.recompute.reads"],
            ),
            "core.deps.invalidated_per_batch": _ratio(
                counts["core.deps.invalidated"], batches
            ),
            "serve.queue.batches": counts["serve.queue.batches"],
            "serve.queue.events_per_batch": _ratio(
                counts["serve.queue.events"], counts["serve.queue.batches"]
            ),
            "serve.durable.append.calls": counts["serve.durable.append.calls"],
            "serve.durable.append.wal_bytes": counts["serve.durable.append.wal_bytes"],
            "serve.durable.snapshot.calls": counts["serve.durable.snapshot.calls"],
            "serve.durable.resume.load_s": load_ns / 1e9,
            "serve.durable.resume.replay_s": replay_ns / 1e9,
            "serve.durable.resume.replayed_events": float(replayed),
            "serve.session.flush_wait_s": flush_ns / 1e9,
            "trace.spans": float(len(tracer.names)),
        }
    )
    return metrics


def self_time_violations(tracer: Tracer, wall_ns: int) -> list[str]:
    """Why the recorded spans are inconsistent with ``wall_ns`` (none if sound).

    Within one trace the spans nest, so their self times must be
    non-negative and sum to no more than the wall time of the traced pass.
    """
    self_ns = tracer.self_times()
    per_trace: dict[int, int] = defaultdict(int)
    for trace, value in zip(tracer.traces, self_ns):
        per_trace[trace] += value
    problems = [
        f"trace {trace}: self {total / 1e9:.6f}s > wall {wall_ns / 1e9:.6f}s"
        for trace, total in per_trace.items()
        if total > wall_ns
    ]
    negative = sum(1 for value in self_ns if value < 0)
    if negative:
        problems.append(f"{negative} spans with negative self time")
    return problems
