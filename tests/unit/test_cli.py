"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import FIGURE_FUNCTIONS, build_parser, main
from repro.data.loaders import save_response_matrix_csv
from repro.simulation.binary import BinaryWorkerPopulation

import numpy as np


@pytest.fixture
def csv_dataset(tmp_path, rng):
    population = BinaryWorkerPopulation(error_rates=np.array([0.1, 0.2, 0.3, 0.15]))
    matrix = population.generate(80, rng, densities=0.9)
    responses = tmp_path / "responses.csv"
    gold = tmp_path / "gold.csv"
    save_response_matrix_csv(matrix, responses, gold)
    return responses, gold


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_evaluate_defaults(self):
        args = build_parser().parse_args(["evaluate", "file.csv"])
        assert args.confidence == 0.9
        assert not args.remove_spammers
        assert args.shards == 1

    def test_figure_choices_cover_all_paper_figures(self):
        assert set(FIGURE_FUNCTIONS) == {
            "fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5a", "fig5b", "fig5c",
        }
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9"])


class TestEvaluateCommand:
    def test_evaluate_csv(self, csv_dataset, capsys):
        responses, gold = csv_dataset
        exit_code = main(["evaluate", str(responses), "--gold", str(gold)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "worker" in output and "point" in output
        assert len(output.splitlines()) >= 6

    def test_evaluate_with_shards_flag(self, csv_dataset, capsys):
        # 4 workers with --shards 8 exercises the serial-fallback guard end
        # to end: same table, no pool, no hang.
        responses, gold = csv_dataset
        exit_code = main(
            ["evaluate", str(responses), "--gold", str(gold), "--shards", "8"]
        )
        assert exit_code == 0
        sharded_output = capsys.readouterr().out
        assert main(["evaluate", str(responses), "--gold", str(gold)]) == 0
        assert capsys.readouterr().out == sharded_output

    def test_evaluate_rejects_bad_shards(self, csv_dataset, capsys):
        # Spec validation happens at parse time now, so argparse aborts
        # with the usage-error exit code instead of main() returning it.
        responses, _ = csv_dataset
        for bad in ("0", "-2", "thread:0", "bogus", "thread:2", "process:2"):
            with pytest.raises(SystemExit) as excinfo:
                main(["evaluate", str(responses), "--shards", bad])
            assert excinfo.value.code == 2, bad
            assert "--shards" in capsys.readouterr().err, bad

    def test_evaluate_accepts_shard_specs(self, csv_dataset, capsys):
        # 'auto' and thread counts parse and print the same table as the
        # serial run (on this 4-worker matrix every spec resolves to a
        # small or serial execution, and results are identical on every
        # tier by the determinism contract).
        responses, gold = csv_dataset
        assert main(["evaluate", str(responses), "--gold", str(gold)]) == 0
        reference = capsys.readouterr().out
        for spec in ("auto", "2", "1"):
            assert (
                main(["evaluate", str(responses), "--gold", str(gold),
                      "--shards", spec])
                == 0
            )
            assert capsys.readouterr().out == reference, spec

    def test_evaluate_backend_knob_pins_identical_tables(self, csv_dataset, capsys):
        # Every backend choice is throughput-only: pinning any of them from
        # the CLI must print the exact same table as the dict reference.
        responses, gold = csv_dataset
        assert (
            main(["evaluate", str(responses), "--gold", str(gold),
                  "--backend", "dict"])
            == 0
        )
        reference_output = capsys.readouterr().out
        for backend in ("dense", "sparse", "bitset", "auto"):
            assert (
                main(["evaluate", str(responses), "--gold", str(gold),
                      "--backend", backend])
                == 0
            )
            assert capsys.readouterr().out == reference_output, backend

    def test_evaluate_rejects_unknown_backend(self, csv_dataset):
        responses, _ = csv_dataset
        with pytest.raises(SystemExit):
            main(["evaluate", str(responses), "--backend", "gpu"])

    @pytest.mark.parametrize("stage", ["batch-triples", "batch-lemma4"])
    def test_evaluate_rejects_removed_batch_flags(self, csv_dataset, capsys, stage):
        # The backend alone picks the implementation; the old path-pinning
        # --no-<stage> flags are gone and fail as unknown arguments.
        flag = f"--no-{stage}"
        responses, _ = csv_dataset
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", str(responses), flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_evaluate_with_label_inference(self, csv_dataset, capsys):
        responses, gold = csv_dataset
        exit_code = main(
            ["evaluate", str(responses), "--gold", str(gold), "--infer-labels"]
        )
        assert exit_code == 0
        assert "accuracy against gold labels" in capsys.readouterr().out

    def test_evaluate_bundled_dataset(self, capsys):
        exit_code = main(["evaluate", "--dataset", "ic", "--confidence", "0.8"])
        assert exit_code == 0
        assert "worker" in capsys.readouterr().out

    def test_evaluate_kary_dataset(self, capsys):
        exit_code = main(["evaluate", "--dataset", "ws"])
        assert exit_code == 0
        # the WS stand-in is binary after reduction, so the binary table prints
        assert "worker" in capsys.readouterr().out

    def test_missing_input_is_an_error(self, capsys):
        exit_code = main(["evaluate"])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, capsys):
        exit_code = main(["evaluate", "/nonexistent/file.csv"])
        assert exit_code == 2


class TestIngestCommand:
    @pytest.fixture
    def ndjson_dataset(self, tmp_path, rng):
        """A shuffled NDJSON event stream paired with the equivalent CSV."""
        import json

        population = BinaryWorkerPopulation(
            error_rates=np.array([0.1, 0.2, 0.3, 0.15])
        )
        matrix = population.generate(60, rng, densities=0.9)
        records = list(matrix.iter_responses())
        rng.shuffle(records)
        events = tmp_path / "events.ndjson"
        with events.open("w") as handle:
            for worker, task, label in records:
                handle.write(
                    json.dumps({"worker": worker, "task": task, "label": label})
                    + "\n"
                )
        responses = tmp_path / "responses.csv"
        save_response_matrix_csv(matrix, responses)
        return events, responses

    def test_ingest_defaults(self):
        args = build_parser().parse_args(["ingest", "events.ndjson"])
        assert args.confidence == 0.9
        assert args.batch_size == 256
        assert not args.follow

    def test_ingest_matches_batch_evaluate_byte_for_byte(
        self, ndjson_dataset, capsys
    ):
        """The stream-smoke contract: the streamed table must be identical
        to a from-scratch batch evaluate over the same responses, even
        though the stream order is shuffled."""
        events, responses = ndjson_dataset
        assert main(["ingest", str(events)]) == 0
        streamed_output = capsys.readouterr().out
        assert main(["evaluate", str(responses), "--backend", "dense"]) == 0
        assert streamed_output == capsys.readouterr().out

    def test_ingest_stats_and_backend_knob(self, ndjson_dataset, capsys):
        events, _ = ndjson_dataset
        assert (
            main(["ingest", str(events), "--stats", "--backend", "bitset",
                  "--batch-size", "64"])
            == 0
        )
        output = capsys.readouterr().out
        assert "micro-batches" in output and "backend invalidations" in output

    def test_ingest_rejects_bad_sizes(self, ndjson_dataset, capsys):
        events, _ = ndjson_dataset
        assert main(["ingest", str(events), "--batch-size", "0"]) == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_ingest_malformed_event_is_an_error(self, tmp_path, capsys):
        events = tmp_path / "bad.ndjson"
        events.write_text('{"worker": 0, "task": 0}\n')
        assert main(["ingest", str(events)]) == 2
        assert "error" in capsys.readouterr().err

    def test_ingest_missing_file_is_an_error(self, capsys):
        assert main(["ingest", "/nonexistent/events.ndjson"]) == 2


class TestOtherCommands:
    def test_datasets_plain(self, capsys):
        assert main(["datasets"]) == 0
        names = capsys.readouterr().out.split()
        assert "ic" in names and "mooc" in names

    def test_datasets_verbose(self, capsys):
        assert main(["datasets", "--verbose"]) == 0
        output = capsys.readouterr().out
        assert "arity" in output and "fig5c" in output

    def test_figure_command_runs_fig2b(self, capsys):
        assert main(["figure", "fig2b", "--repetitions", "2"]) == 0
        output = capsys.readouterr().out
        assert "fig2b" in output and "density" in output


class TestGauntletCommand:
    def test_restricted_grid_prints_table_and_flags_gaps(self, capsys):
        assert (
            main(["gauntlet", "--repetitions", "1", "--tasks", "40",
                  "--families", "independent", "--backends", "dense"])
            == 0
        )
        output = capsys.readouterr().out
        assert "coverage" in output and "independent" in output
        # The restricted run leaves the rest of the registry untested.
        assert "UNTESTED CELLS" in output

    def test_fail_on_gaps_exits_nonzero(self, capsys):
        assert (
            main(["gauntlet", "--repetitions", "1", "--tasks", "40",
                  "--families", "independent", "--backends", "dense",
                  "--fail-on-gaps"])
            == 1
        )
        assert "untested gauntlet cell" in capsys.readouterr().err

    def test_json_report(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "gauntlet.json"
        assert (
            main(["gauntlet", "--repetitions", "1", "--tasks", "40",
                  "--families", "independent", "--backends", "dict",
                  "--json", str(report_path)])
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["cells"]
        for cell in report["cells"]:
            assert {"family", "backend", "path", "coverage",
                    "calibration_error"} <= set(cell)

    def test_json_to_stdout(self, capsys):
        import json

        assert (
            main(["gauntlet", "--repetitions", "1", "--tasks", "40",
                  "--families", "independent", "--backends", "dict",
                  "--json", "-"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["cells"] and report["gaps"]

    def test_rejects_bad_repetitions(self, capsys):
        assert main(["gauntlet", "--repetitions", "0"]) == 2
        assert "--repetitions" in capsys.readouterr().err

    def test_rejects_bad_tasks(self, capsys):
        assert main(["gauntlet", "--tasks", "0"]) == 2
        assert "--tasks" in capsys.readouterr().err

    def test_unknown_family_is_an_error(self, capsys):
        assert main(["gauntlet", "--families", "no-such-family"]) == 2
        assert "no-such-family" in capsys.readouterr().err
