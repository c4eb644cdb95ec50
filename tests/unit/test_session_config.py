"""Unit tests for :class:`repro.serve.SessionConfig` and ``open_session``.

The API contract: every streaming knob lives on one frozen, validated
dataclass; ``open_session`` is the one create-or-resume front door; and the
CLI flags map 1:1 onto a config through the single ``config_from_args``
helper.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.cli import build_parser, config_from_args
from repro.exceptions import ConfigurationError
from repro.serve import SessionConfig, StreamSession, open_session
from repro.serve.config import DEFAULT_CONFIDENCE


def run(coro):
    return asyncio.run(coro)


class TestValidation:
    @pytest.mark.parametrize(
        "fields",
        [
            {"confidence": 0.0},
            {"confidence": 1.0},
            {"confidence": -0.5},
            {"backend": "bogus"},
            {"shards": 0},
            {"shards": "bogus"},
            {"maxsize": 0},
            {"max_batch": 0},
            {"snapshot_every": 0, "durable": "somewhere"},
            # snapshot cadence without persistence is a configuration hole,
            # not a silent no-op
            {"snapshot_every": 4},
            {"confidence": 1.5},
            {"shards": True},
            {"shards": "thread:0"},
            # the tier-prefixed grammar is retired: N alone means N threads
            {"shards": "thread:2"},
            {"shards": "process:2"},
            {"maxsize": -1},
            {"snapshot_every": -1, "durable": "somewhere"},
        ],
    )
    def test_invalid_fields_raise_configuration_error(self, fields):
        with pytest.raises(ConfigurationError):
            SessionConfig(**fields)

    def test_config_is_frozen(self):
        config = SessionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_batch = 7

    def test_replace_revalidates(self):
        config = SessionConfig(max_batch=8)
        assert config.replace(max_batch=9).max_batch == 9
        with pytest.raises(ConfigurationError):
            config.replace(max_batch=0)

    def test_resolved_defaults(self):
        config = SessionConfig()
        assert config.resolved_confidence == DEFAULT_CONFIDENCE
        assert config.resolved_backend == "auto"
        assert config.resolved_optimize_weights is True

    def test_round_trips_every_legacy_kwarg(self, tmp_path):
        legacy = {
            "maxsize": 9,
            "max_batch": 3,
            "auto_extend": False,
            "confidence": 0.8,
            "backend": "dense",
            "shards": 2,
            "durable": tmp_path,
            "snapshot_every": 2,
            "fsync": False,
        }
        config = SessionConfig(**legacy)
        for name, value in legacy.items():
            assert getattr(config, name) == value


class TestOpenSession:
    def test_config_construction_does_not_warn(self, recwarn):
        session = StreamSession(config=SessionConfig(max_batch=4))
        assert session.config.max_batch == 4
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_unknown_kwargs_raise_type_error(self):
        with pytest.raises(TypeError, match="batchsize"):
            StreamSession(batchsize=4)

    def test_config_fields_are_the_single_writer_knobs(self):
        assert [field.name for field in dataclasses.fields(SessionConfig)] == [
            "confidence",
            "backend",
            "optimize_weights",
            "shards",
            "maxsize",
            "max_batch",
            "auto_extend",
            "durable",
            "snapshot_every",
            "fsync",
        ]
        with pytest.raises(TypeError):
            SessionConfig(writers=2)

    def test_session_has_no_alternate_constructors(self):
        for name in ("resume", "open_durable"):
            assert not hasattr(StreamSession, name)

    def test_session_knobs_are_config_fields_only(self):
        with pytest.raises(TypeError):
            StreamSession(max_batch=4)
        with pytest.raises(ConfigurationError, match="SessionConfig"):
            StreamSession(config={"max_batch": 4})

    def test_in_memory_builds_a_stream_session(self):
        session = open_session()
        assert isinstance(session, StreamSession)
        assert session.config == SessionConfig()

    def test_field_overrides_rebuild_the_config(self):
        session = open_session(SessionConfig(max_batch=4), maxsize=9)
        assert session.config == SessionConfig(max_batch=4, maxsize=9)

    def test_rejects_a_non_config_positional(self):
        with pytest.raises(ConfigurationError, match="SessionConfig"):
            open_session({"max_batch": 2})

    def test_creates_then_resumes_a_durable_directory(self, tmp_path):
        config = SessionConfig(durable=tmp_path, fsync=False)
        fresh = open_session(config)
        assert fresh.applied_events == 0

        async def scenario():
            async with fresh as session:
                for worker in range(6):
                    await session.submit(worker, worker % 3, 1)
                await session.flush()

        asyncio.run(scenario())
        resumed = open_session(config)
        assert resumed.applied_events == 6
        assert resumed.evaluator.matrix == fresh.evaluator.matrix


class TestConfigFromArgs:
    def test_ingest_flags_map_one_to_one(self):
        args = build_parser().parse_args(
            [
                "ingest",
                "events.ndjson",
                "--confidence", "0.9",
                "--backend", "dense",
                "--batch-size", "7",
                "--queue-size", "33",
                "--shards", "2",
                "--durable", "state-dir",
                "--snapshot-every", "4",
            ]
        )
        config = config_from_args(args)
        assert config == SessionConfig(
            confidence=0.9,
            backend="dense",
            max_batch=7,
            maxsize=33,
            shards=2,
            durable="state-dir",
            snapshot_every=4,
        )

    def test_serve_shares_the_same_translation(self):
        args = build_parser().parse_args(["serve", "--durable", "state-dir"])
        config = config_from_args(args)
        assert config == SessionConfig(
            confidence=0.9, backend="auto", durable="state-dir"
        )

    def test_writers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "events.ndjson", "--writers", "3"])
        assert "--writers" in capsys.readouterr().err
