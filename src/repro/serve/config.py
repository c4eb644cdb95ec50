"""Session configuration and the ``open_session`` front door.

:class:`SessionConfig` holds every streaming-session knob in one frozen,
validated dataclass, and :func:`open_session` is the single front door
that turns a config into a :class:`~repro.serve.session.StreamSession` —
resumed from ``durable`` when the directory already holds state, fresh
otherwise::

    from repro.serve import SessionConfig, open_session

    config = SessionConfig(durable="state/", snapshot_every=8)
    async with open_session(config) as session:
        await session.submit(worker, task, label)
        await session.flush()
        estimates = await session.evaluate_all()

``None`` for ``confidence`` / ``backend`` / ``optimize_weights`` means
"the default for a fresh session, the persisted value on resume".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ConfigurationError

__all__ = ["SessionConfig", "open_session"]

#: Default confidence level of a fresh session (the paper's headline level).
DEFAULT_CONFIDENCE = 0.95


@dataclass(frozen=True)
class SessionConfig:
    """Every streaming-session knob, validated once, in one place.

    Parameters
    ----------
    confidence, backend, optimize_weights:
        Estimator configuration.  ``None`` (the default) means "fresh
        default" for a new session and "persisted value" on resume;
        setting a value overrides the persisted configuration (a backend
        override rebuilds statistics from the restored matrix).
    shards:
        Execution spec for incremental recomputes (``1``, ``"auto"``,
        ``"thread:N"``, ``"process:N"`` — see :mod:`repro.core.parallel`).
    maxsize, max_batch:
        Queue bound (producer backpressure) and micro-batch cap.
    auto_extend:
        Grow the evaluator for unseen worker/task ids (default).
    durable:
        Directory to persist the stream into, or ``None`` for in-memory.
        :func:`open_session` resumes a directory that already holds state
        and starts fresh otherwise.
    snapshot_every, fsync:
        Snapshot cadence in applied batches (requires ``durable``;
        ``None`` = pure WAL) and whether WAL appends are fsynced before
        the apply.
    """

    confidence: float | None = None
    backend: str | None = None
    optimize_weights: bool | None = None
    shards: int | str = 1
    maxsize: int = 4096
    max_batch: int = 256
    auto_extend: bool = True
    durable: str | Path | None = None
    snapshot_every: int | None = None
    fsync: bool = True

    def __post_init__(self) -> None:
        from repro.core.parallel import parse_shard_spec
        from repro.data.dense_backend import BACKEND_CHOICES

        if self.confidence is not None and not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"confidence must lie in (0, 1), got {self.confidence}"
            )
        if self.backend is not None and self.backend not in BACKEND_CHOICES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{sorted(BACKEND_CHOICES)}"
            )
        parse_shard_spec(self.shards)  # raises ConfigurationError when malformed
        if self.maxsize < 1:
            raise ConfigurationError(
                f"maxsize must be at least 1, got {self.maxsize}"
            )
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be at least 1, got {self.max_batch}"
            )
        if self.snapshot_every is not None:
            if self.snapshot_every < 1:
                raise ConfigurationError(
                    f"snapshot_every must be positive or None, got "
                    f"{self.snapshot_every}"
                )
            if self.durable is None:
                raise ConfigurationError(
                    "snapshot_every requires a durable directory"
                )

    # -- resolution of the None-means-default fields --------------------- #

    @property
    def resolved_confidence(self) -> float:
        return DEFAULT_CONFIDENCE if self.confidence is None else self.confidence

    @property
    def resolved_backend(self) -> str:
        return "auto" if self.backend is None else self.backend

    @property
    def resolved_optimize_weights(self) -> bool:
        return True if self.optimize_weights is None else self.optimize_weights

    def replace(self, **changes) -> "SessionConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


def open_session(config: SessionConfig | None = None, **fields):
    """Build the (unstarted) session for ``config`` — the front door.

    A ``durable`` directory that already holds state (a log, snapshots or
    legacy WAL segments) is resumed; anything else gets a fresh session.
    Resuming only reads files: the session opens its log in ``start()``,
    so one that is dropped unstarted holds no handle.

    Accepts a prepared :class:`SessionConfig`, bare fields
    (``open_session(durable=..., max_batch=64)``), or both (fields
    override the config).  Enter the returned session with ``async with``
    (or call ``start()`` under a running event loop).
    """
    if config is None:
        config = SessionConfig(**fields)
    elif not isinstance(config, SessionConfig):
        raise ConfigurationError(
            f"open_session expects a SessionConfig, got {type(config).__name__}"
        )
    elif fields:
        config = config.replace(**fields)

    from repro.serve.durable import DurableStore
    from repro.serve.session import StreamSession, _resume_session

    if config.durable is not None and DurableStore.has_state(config.durable):
        return _resume_session(config)
    return StreamSession(config=config)
