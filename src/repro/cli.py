"""Command-line interface.

Five subcommands cover the common workflows without writing Python:

* ``repro-crowd evaluate`` — compute confidence intervals for every worker in
  a response CSV (``worker,task,label`` rows; optional gold CSV), printing a
  table and optionally inferring task labels.
* ``repro-crowd ingest`` — stream newline-JSON response events (file or
  stdin, optionally ``--follow``-tailed) through the async ingestion
  subsystem (:mod:`repro.serve`) and print the same estimate table; the
  streamed estimates are bit-identical to a batch ``evaluate`` run over the
  same responses (the CI ``stream-smoke`` gate diffs the two outputs).
* ``repro-crowd serve`` — run the NDJSON TCP ingestion server: event lines
  in, query lines (``{"query": "evaluate_all"}`` etc.) answered from the
  last applied batch boundary.
* ``repro-crowd datasets`` — list the bundled dataset stand-ins.
* ``repro-crowd figure`` — regenerate one of the paper's figures and print
  the series (the same output the benchmark suite produces).
* ``repro-crowd gauntlet`` — run the adversarial scenario gauntlet: a
  coverage/calibration cell for every (scenario family x backend x
  estimator path) the capability matrix licenses, plus a gap-detection
  pass that flags untested cells (``--fail-on-gaps`` turns flags into a
  non-zero exit for CI).

Run ``python -m repro.cli --help`` (or install the ``repro-crowd`` entry
point) for details.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from collections.abc import Sequence

from repro.core.estimator import WorkerEvaluator
from repro.core.task_inference import infer_binary_labels, label_accuracy
from repro.data.dense_backend import BACKEND_CHOICES
from repro.data.loaders import load_response_matrix_csv
from repro.data.registry import DATASET_REGISTRY, load_dataset
from repro.evaluation import experiments as experiment_module
from repro.evaluation.reporting import format_experiment, format_table
from repro.exceptions import CrowdAssessmentError
from repro.types import EstimateStatus

__all__ = ["main", "build_parser"]


def _shard_spec(value: str) -> int | str:
    """argparse type for ``--shards``: int, 'auto', 'thread:N', 'process:N'.

    Malformed specs (0, negatives, garbage) abort parsing with a clear
    usage error instead of silently evaluating serial.
    """
    from repro.core.parallel import parse_shard_spec
    from repro.exceptions import ConfigurationError

    try:
        spec: int | str = int(value)
    except ValueError:
        spec = value
    try:
        parse_shard_spec(spec)
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return spec


#: figure name -> experiment function (all take only keyword arguments we pass).
FIGURE_FUNCTIONS = {
    "fig1": experiment_module.figure1_old_vs_new,
    "fig2a": experiment_module.figure2a_accuracy,
    "fig2b": experiment_module.figure2b_density,
    "fig2c": experiment_module.figure2c_weight_optimization,
    "fig3": experiment_module.figure3_real_data_accuracy,
    "fig4": experiment_module.figure4_spammer_filtered_accuracy,
    "fig5a": experiment_module.figure5a_kary_accuracy,
    "fig5b": experiment_module.figure5b_kary_density,
    "fig5c": experiment_module.figure5c_kary_real_data,
}


def _add_stream_arguments(subparser: argparse.ArgumentParser) -> None:
    """``--durable`` / ``--snapshot-every`` (ingest + serve)."""
    subparser.add_argument(
        "--durable",
        metavar="DIR",
        default=None,
        help="persist the stream into DIR: each micro-batch is written to a "
        "fsynced write-ahead log before it is applied, and the session "
        "resumes from DIR in O(delta) after a crash or restart (the same "
        "command over an existing DIR resumes it); estimates after a "
        "resume are bit-identical to an uninterrupted run",
    )
    subparser.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="N",
        help="with --durable: checkpoint the full evaluator state every N "
        "applied micro-batches (atomic temp-file + rename snapshots), "
        "bounding the WAL replay a resume pays; default: no snapshots "
        "(pure WAL replay)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-crowd",
        description="Confidence intervals on crowd-worker quality "
        "(reproduction of Joglekar et al., ICDE 2015).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    evaluate = subparsers.add_parser(
        "evaluate", help="evaluate workers from a response CSV"
    )
    evaluate.add_argument(
        "responses",
        nargs="?",
        default=None,
        help="CSV with worker,task,label columns (omit when using --dataset)",
    )
    evaluate.add_argument("--gold", help="optional CSV with task,label gold answers")
    evaluate.add_argument(
        "--confidence", type=float, default=0.9, help="confidence level (default 0.9)"
    )
    evaluate.add_argument(
        "--remove-spammers",
        action="store_true",
        help="prune near-spammers before estimating (Section III-E2)",
    )
    evaluate.add_argument(
        "--infer-labels",
        action="store_true",
        help="also infer task labels using the estimated error rates "
        "(binary data only)",
    )
    evaluate.add_argument(
        "--dataset",
        choices=sorted(DATASET_REGISTRY),
        help="evaluate a bundled dataset stand-in instead of a CSV "
        "(the positional argument is ignored)",
    )
    evaluate.add_argument(
        "--backend",
        choices=list(BACKEND_CHOICES),
        default="auto",
        help="agreement-statistics backend: 'dense' (vectorized NumPy), "
        "'sparse' (scipy.sparse, for large low-fill matrices), 'bitset' "
        "(packed rows, low-memory), 'dict' (original Python loops) or "
        "'auto' (default: cost-based selection; intervals are identical "
        "whichever backend computes them)",
    )
    evaluate.add_argument(
        "--shards",
        type=_shard_spec,
        default=1,
        metavar="SPEC",
        help="execution spec for batch evaluation: an integer shard count "
        "(default 1 = in-process; N>1 shards across N processes over "
        "shared-memory statistics), 'auto' (cost-based serial/thread/"
        "process choice), 'thread:N' or 'process:N'; results are identical "
        "on every tier, and tiny matrices or the dict backend fall back to "
        "serial",
    )
    evaluate.add_argument(
        "--no-batch-triples",
        action="store_true",
        help="disable the vectorized per-triple stage (results are "
        "identical; the knob pins the slower path for debugging/benchmarks)",
    )
    evaluate.add_argument(
        "--no-batch-lemma4",
        action="store_true",
        help="disable the cross-worker batched Lemma-4/5 aggregation "
        "(results are identical; pins the per-worker aggregation path)",
    )

    ingest = subparsers.add_parser(
        "ingest",
        help="stream NDJSON response events through the async ingestion "
        "subsystem and print the estimate table",
    )
    ingest.add_argument(
        "events",
        nargs="?",
        default="-",
        help="NDJSON file of {\"worker\": w, \"task\": t, \"label\": l} "
        "events (or [w,t,l] arrays); '-' (default) reads stdin",
    )
    ingest.add_argument(
        "--confidence", type=float, default=0.9, help="confidence level (default 0.9)"
    )
    ingest.add_argument(
        "--backend",
        choices=list(BACKEND_CHOICES),
        default="auto",
        help="agreement-statistics backend (results identical; see evaluate)",
    )
    ingest.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="micro-batch coalescing cap of the response queue (default 256; "
        "results are identical for any batching)",
    )
    ingest.add_argument(
        "--queue-size",
        type=int,
        default=4096,
        help="bound of the response queue (producer backpressure, default 4096)",
    )
    ingest.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing the source for appended events (tail -f semantics) "
        "until --idle-timeout seconds pass without data",
    )
    ingest.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="with --follow: stop after this many idle seconds (default: never)",
    )
    ingest.add_argument(
        "--stats",
        action="store_true",
        help="also print per-stream ingestion stats (batches, invalidations)",
    )
    ingest.add_argument(
        "--shards",
        type=_shard_spec,
        default=1,
        metavar="SPEC",
        help="execution spec forwarded to the session's estimator (same "
        "grammar as evaluate --shards; incremental recomputes honour it on "
        "the vectorized backends — dependency footprints ship back per "
        "shard, so evaluation under a live stream scales)",
    )
    _add_stream_arguments(ingest)

    serve = subparsers.add_parser(
        "serve", help="run the NDJSON TCP ingestion server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral, printed)"
    )
    serve.add_argument(
        "--confidence", type=float, default=0.9, help="confidence level (default 0.9)"
    )
    serve.add_argument(
        "--backend", choices=list(BACKEND_CHOICES), default="auto",
        help="agreement-statistics backend (results identical)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=256,
        help="micro-batch coalescing cap (default 256)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=4096,
        help="response queue bound (default 4096)",
    )
    serve.add_argument(
        "--shards",
        type=_shard_spec,
        default=1,
        metavar="SPEC",
        help="execution spec forwarded to the session's estimator (same "
        "grammar as evaluate --shards)",
    )
    _add_stream_arguments(serve)

    datasets = subparsers.add_parser(
        "datasets", help="list the bundled dataset stand-ins"
    )
    datasets.add_argument(
        "--verbose", action="store_true", help="include dimensions and figures"
    )

    figure = subparsers.add_parser(
        "figure", help="regenerate one figure of the paper"
    )
    figure.add_argument("name", choices=sorted(FIGURE_FUNCTIONS), help="figure id")
    figure.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="override the repetition count (smaller = faster, noisier)",
    )

    gauntlet = subparsers.add_parser(
        "gauntlet",
        help="run the adversarial scenario gauntlet over the full "
        "(scenario x backend x estimator-path) grid",
    )
    gauntlet.add_argument(
        "--repetitions",
        type=int,
        default=10,
        help="repetitions per grid cell (default 10)",
    )
    gauntlet.add_argument(
        "--confidence", type=float, default=0.9, help="confidence level (default 0.9)"
    )
    gauntlet.add_argument(
        "--seed",
        type=int,
        default=20150413,
        help="master seed; every cell derives an independent stream, so "
        "partial renders and cell order never change any number",
    )
    gauntlet.add_argument(
        "--tasks",
        type=int,
        default=None,
        help="override every scenario's task count (smaller = faster smoke)",
    )
    gauntlet.add_argument(
        "--families",
        nargs="+",
        default=None,
        metavar="FAMILY",
        help="restrict to these scenario families (default: full registry; "
        "gap detection will flag the dropped cells)",
    )
    gauntlet.add_argument(
        "--backends",
        nargs="+",
        default=None,
        metavar="BACKEND",
        help="restrict to these backends (default: full capability matrix)",
    )
    gauntlet.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the full JSON report to FILE ('-' for stdout "
        "instead of the table)",
    )
    gauntlet.add_argument(
        "--fail-on-gaps",
        action="store_true",
        help="exit non-zero when gap detection finds untested cells "
        "(the CI smoke leg's assertion)",
    )
    return parser


def _command_evaluate(args: argparse.Namespace) -> int:
    if args.dataset:
        matrix = load_dataset(args.dataset)
    elif args.responses is None:
        print("error: provide a response CSV or --dataset", file=sys.stderr)
        return 2
    else:
        matrix = load_response_matrix_csv(args.responses, gold_path=args.gold)
    evaluator = WorkerEvaluator(
        confidence=args.confidence,
        remove_spammers=args.remove_spammers,
        backend=args.backend,
        batch_triples=not args.no_batch_triples,
        batch_lemma4=not args.no_batch_lemma4,
        shards=args.shards,
    )
    if not matrix.is_binary:
        print(
            f"data has arity {matrix.arity}; evaluating the first triple of "
            "workers with the k-ary estimator"
        )
        estimates = evaluator.evaluate_kary(matrix, workers=(0, 1, 2))
        for worker, estimate in estimates.items():
            print(f"\nworker {worker} (response-probability matrix, point estimates):")
            for row in estimate.point_matrix():
                print("  " + "  ".join(f"{value:.3f}" for value in row))
        return 0

    estimates = evaluator.evaluate_binary(matrix)
    _print_estimate_table(estimates)

    if args.infer_labels:
        usable = {
            worker: estimate
            for worker, estimate in estimates.items()
            if estimate.status is not EstimateStatus.DEGENERATE
        }
        labels = infer_binary_labels(matrix, usable)
        print(f"\ninferred labels for {len(labels)} tasks")
        if matrix.has_gold:
            print(f"accuracy against gold labels: {label_accuracy(matrix, labels):.3f}")
    return 0


def _print_estimate_table(estimates) -> None:
    """The worker-interval table, shared by ``evaluate`` and ``ingest``.

    Byte-identical output between the two commands is what the CI
    stream-smoke gate diffs, so any format change must stay shared.
    """
    header = ["worker", "tasks", "lower", "point", "upper", "status"]
    rows = []
    for worker in sorted(estimates):
        estimate = estimates[worker]
        rows.append(
            [
                str(worker),
                str(estimate.n_tasks),
                f"{estimate.interval.lower:.3f}",
                f"{estimate.interval.mean:.3f}",
                f"{estimate.interval.upper:.3f}",
                estimate.status.value,
            ]
        )
    print(format_table(header, rows))


def config_from_args(args: argparse.Namespace):
    """Map the stream CLI flags 1:1 onto a ``SessionConfig``.

    The single translation point for ingest and serve: every flag
    corresponds to exactly one field (``--batch-size`` -> ``max_batch``,
    ``--queue-size`` -> ``maxsize``, the rest share their names), so new
    session knobs are added here once instead of per command.
    """
    from repro.serve import SessionConfig

    return SessionConfig(
        confidence=args.confidence,
        backend=args.backend,
        max_batch=args.batch_size,
        maxsize=args.queue_size,
        shards=args.shards,
        durable=args.durable,
        snapshot_every=args.snapshot_every,
    )


def _make_session(args: argparse.Namespace):
    """Build the session ingest and serve share, via the one front door.

    With ``--durable`` the session resumes the directory when it already
    holds state and starts fresh otherwise.  Without ``--durable``, plain
    in-memory.
    """
    from repro.serve import open_session

    return open_session(config_from_args(args))


def _validate_stream_args(args: argparse.Namespace) -> str | None:
    if args.batch_size < 1 or args.queue_size < 1:
        return "--batch-size and --queue-size must be positive"
    if args.snapshot_every is not None:
        if args.durable is None:
            return "--snapshot-every requires --durable"
        if args.snapshot_every < 1:
            return "--snapshot-every must be positive"
    return None


def _command_ingest(args: argparse.Namespace) -> int:
    from repro.serve.sources import feed_session, iter_ndjson

    problem = _validate_stream_args(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    async def run() -> int:
        # A path is handed to iter_ndjson directly: the iterator owns the
        # handle and closes it on every exit path (including mid-stream
        # parse errors), which the old open-here/close-there split leaked.
        source = sys.stdin if args.events == "-" else args.events
        async with _make_session(args) as session:
            submitted = await feed_session(
                session,
                iter_ndjson(
                    source,
                    follow=args.follow,
                    idle_timeout=args.idle_timeout,
                ),
            )
            await session.flush()
            estimates = await session.evaluate_all()
            batches = session.applied_batches
        _print_estimate_table(estimates)
        if args.stats:
            invalidations = sum(b.stats.backend_invalidations for b in batches)
            recomputes = sum(b.stats.cached_invalidated for b in batches)
            print(
                f"\ningested {submitted} events in {len(batches)} micro-batches "
                f"(backend invalidations: {invalidations}, cached estimates "
                f"invalidated: {recomputes})"
            )
        return 0

    return asyncio.run(run())


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import serve_ndjson

    problem = _validate_stream_args(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    async def run() -> int:
        async with _make_session(args) as session:
            await serve_ndjson(
                session,
                host=args.host,
                port=args.port,
                ready=lambda host, port: print(
                    f"listening on {host}:{port}", flush=True
                ),
            )
        return 0

    return asyncio.run(run())


def _command_datasets(args: argparse.Namespace) -> int:
    if not args.verbose:
        for name in sorted(DATASET_REGISTRY):
            print(name)
        return 0
    header = ["name", "arity", "figures", "description"]
    rows = [
        [spec.name, str(spec.arity), ",".join(spec.used_in), spec.description]
        for spec in DATASET_REGISTRY.values()
    ]
    print(format_table(header, rows))
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    function = FIGURE_FUNCTIONS[args.name]
    kwargs = {}
    if args.repetitions is not None:
        # Every simulated figure accepts n_repetitions; the real-data figures
        # (fig3/fig4/fig5c) are deterministic per dataset and ignore it.
        if "n_repetitions" in function.__code__.co_varnames:
            kwargs["n_repetitions"] = args.repetitions
    result = function(**kwargs)
    print(format_experiment(result))
    return 0


def _command_gauntlet(args: argparse.Namespace) -> int:
    import json

    from repro.evaluation.gauntlet import GauntletResults, format_gauntlet_report
    from repro.simulation.gauntlet import GAUNTLET_FAMILIES

    if args.repetitions < 1:
        print("error: --repetitions must be positive", file=sys.stderr)
        return 2
    overrides = None
    if args.tasks is not None:
        if args.tasks < 1:
            print("error: --tasks must be positive", file=sys.stderr)
            return 2
        overrides = {name: {"n_tasks": args.tasks} for name in GAUNTLET_FAMILIES}
    results = GauntletResults(
        families=args.families,
        backends=args.backends,
        n_repetitions=args.repetitions,
        confidence=args.confidence,
        seed=args.seed,
        scenario_overrides=overrides,
    )
    if args.json == "-":
        json.dump(results.to_report(), sys.stdout, indent=2)
        print()
    else:
        print(format_gauntlet_report(results))
        if args.json is not None:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(results.to_report(), handle, indent=2)
            print(f"\nJSON report written to {args.json}")
    if args.fail_on_gaps and results.gaps:
        print(
            f"error: {len(results.gaps)} untested gauntlet cell(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "evaluate":
            return _command_evaluate(args)
        if args.command == "ingest":
            return _command_ingest(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "datasets":
            return _command_datasets(args)
        if args.command == "figure":
            return _command_figure(args)
        if args.command == "gauntlet":
            return _command_gauntlet(args)
    except CrowdAssessmentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
