"""Unit tests for the adversarial scenario gauntlet.

Covers both halves: the scenario families in
:mod:`repro.simulation.gauntlet` (each violation demonstrably induced) and
the lazy report grid in :mod:`repro.evaluation.gauntlet` (cells computed
only on first render, gap detection exhaustive over every backend and
estimator path, collusion measurably degrading coverage against the
independent control).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.agreement import supported_estimator_paths
from repro.core.m_worker import MWorkerEstimator
from repro.evaluation.gauntlet import (
    GAUNTLET_BACKENDS,
    GauntletResults,
    detect_gaps,
    expected_cells,
    format_gauntlet_report,
)
from repro.exceptions import ConfigurationError
from repro.serve.session import replay_stream
from repro.simulation.gauntlet import (
    GAUNTLET_FAMILIES,
    CollusionScenario,
    DriftScenario,
    GauntletFamily,
    ImbalanceScenario,
    RevisionStormScenario,
    high_arity_scenario,
    independent_baseline_scenario,
)

#: Small grids keep the suite fast without starving the estimators.
SMALL = {name: {"n_tasks": 50} for name in GAUNTLET_FAMILIES}


def _empirical_error(matrix, tasks):
    """Fraction of wrong answers over ``tasks`` across all workers."""
    wrong = total = 0
    for worker, task, label in matrix.iter_responses():
        if task in tasks:
            total += 1
            wrong += label != matrix.gold_label(task)
    return wrong / total


class TestDriftScenario:
    def test_drift_schedule_honored(self, rng):
        scenario = DriftScenario(
            name="drift-test", n_workers=7, n_tasks=400, arity=2, drift=0.4
        )
        matrix, truth = scenario.sample(rng)
        first = _empirical_error(matrix, set(range(200)))
        second = _empirical_error(matrix, set(range(200, 400)))
        # Rates ramp up by 0.4 over the horizon: the second half must be
        # clearly noisier than the first.
        assert second > first + 0.1
        assert truth.shape == (7,)
        assert np.all((truth >= 0.0) & (truth <= 1.0))

    def test_zero_drift_rejected(self):
        with pytest.raises(ConfigurationError):
            DriftScenario(name="x", n_workers=5, n_tasks=10, arity=2, drift=0.0)


class TestCollusionScenario:
    def test_full_strength_ring_always_agrees(self, rng):
        scenario = CollusionScenario(
            name="collusion-test",
            n_workers=7,
            n_tasks=200,
            arity=2,
            ring_size=3,
            collusion_strength=1.0,
        )
        matrix, truth = scenario.sample(rng)
        answers = {
            (worker, task): label for worker, task, label in matrix.iter_responses()
        }

        def agreement(a, b):
            common = [
                task
                for task in range(200)
                if (a, task) in answers and (b, task) in answers
            ]
            same = sum(answers[a, task] == answers[b, task] for task in common)
            return same / len(common)

        # Ring members copy the leader verbatim; honest workers cannot
        # match anyone that precisely.
        assert agreement(0, 1) == 1.0
        assert agreement(1, 2) == 1.0
        assert agreement(0, 5) < 1.0
        # With full strength every member's marginal rate is the leader's.
        assert truth[1] == pytest.approx(truth[0])

    def test_ring_size_validation(self):
        with pytest.raises(ConfigurationError):
            CollusionScenario(
                name="x", n_workers=5, n_tasks=10, arity=2, ring_size=1
            )


class TestRevisionStormScenario:
    def test_stream_settles_to_sampled_matrix(self, rng):
        scenario = RevisionStormScenario(
            name="storm-test", n_workers=5, n_tasks=40, arity=2,
            revision_fraction=0.8, max_revisions=3,
        )
        events, matrix, _ = scenario.event_stream(rng)
        # Revisions mean strictly more events than settled responses.
        settled = {(w, t): l for w, t, l in matrix.iter_responses()}
        assert len(events) > len(settled)
        replayed: dict[tuple[int, int], int] = {}
        for worker, task, label in events:
            replayed[(worker, task)] = label
        assert replayed == settled

    def test_streamed_estimates_bit_identical_to_batch(self, rng):
        scenario = RevisionStormScenario(
            name="storm-test", n_workers=6, n_tasks=60, arity=2,
            revision_fraction=0.5,
        )
        events, matrix, _ = scenario.event_stream(rng)
        streamed = replay_stream(events, confidence=0.9, backend="dense")
        batch = MWorkerEstimator(confidence=0.9, backend="dense").evaluate_all(
            matrix
        )
        assert len(streamed) == len(batch)
        for estimate in batch:
            other = streamed[estimate.worker]
            assert other.interval.lower == estimate.interval.lower
            assert other.interval.upper == estimate.interval.upper
            assert other.status is estimate.status


class TestImbalanceScenario:
    def test_prior_honored(self, rng):
        scenario = ImbalanceScenario(
            name="imbalance-test", n_workers=5, n_tasks=400, arity=2,
            positive_prior=0.95,
        )
        matrix, _ = scenario.sample(rng)
        golds = [matrix.gold_label(task) for task in range(400)]
        assert np.mean(golds) > 0.85

    def test_prior_validation(self):
        with pytest.raises(ConfigurationError):
            ImbalanceScenario(
                name="x", n_workers=5, n_tasks=10, arity=2, positive_prior=1.0
            )


class TestHighArity:
    def test_rejects_paper_arities(self):
        with pytest.raises(ConfigurationError):
            high_arity_scenario(arity=4)

    def test_kind_is_kary(self):
        assert high_arity_scenario(arity=6).kind == "kary"
        assert independent_baseline_scenario().kind == "binary"


class TestExpectedCells:
    def test_grid_matches_backends_and_kinds(self):
        cells = expected_cells()
        for name, family in GAUNTLET_FAMILIES.items():
            for backend in GAUNTLET_BACKENDS:
                for path in supported_estimator_paths(family.kind):
                    assert (name, backend, path) in cells
        assert GAUNTLET_BACKENDS == ("dense", "dict", "sparse", "bitset")
        # Paths depend on the family kind alone: every backend runs batch
        # and streamed for binary families, batch only for k-ary ones.
        assert ("independent", "dict", "batch") in cells
        assert ("independent", "dict", "streamed") in cells
        assert ("high-arity", "dense", "streamed") not in cells
        n_kary = sum(f.kind == "kary" for f in GAUNTLET_FAMILIES.values())
        n_binary = len(GAUNTLET_FAMILIES) - n_kary
        assert len(cells) == len(GAUNTLET_BACKENDS) * (2 * n_binary + n_kary)

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError):
            expected_cells(families=["no-such-family"])
        with pytest.raises(ConfigurationError):
            expected_cells(backends=["no-such-backend"])


class TestGauntletResultsLaziness:
    def test_unrendered_cells_never_computed(self):
        results = GauntletResults(
            n_repetitions=1, seed=3, scenario_overrides=SMALL
        )
        # Construction and grid bookkeeping are free.
        assert results.n_computed_cells == 0
        assert len(results.cell_keys) > 0
        cell = results.cell("independent", "dense", "batch")
        assert results.n_computed_cells == 1
        # Memoized: re-reading the same cell computes nothing new and
        # returns the identical object.
        assert results.cell("independent", "dense", "batch") is cell
        assert results.n_computed_cells == 1
        # Gap detection only compares planned keys — still nothing new.
        assert results.gaps == ()
        assert results.n_computed_cells == 1

    def test_cell_values_independent_of_render_order(self):
        direct = GauntletResults(
            families=["independent", "drift"],
            backends=["dense"],
            n_repetitions=2,
            seed=11,
            scenario_overrides=SMALL,
        )
        full = GauntletResults(
            families=["independent", "drift"],
            backends=["dense"],
            n_repetitions=2,
            seed=11,
            scenario_overrides=SMALL,
        )
        one = direct.cell("drift", "dense", "batch")
        for other in full.rows():
            if other.key == one.key:
                assert other.coverage == one.coverage


class TestGapDetection:
    def test_full_grid_has_zero_gaps(self):
        results = GauntletResults(n_repetitions=1, scenario_overrides=SMALL)
        assert results.gaps == ()
        assert results.n_computed_cells == 0

    def test_unplanned_family_flagged(self):
        # Deliberately drop a registered family from the run: every one of
        # its cells must be flagged as untested.
        partial = {
            name: family
            for name, family in GAUNTLET_FAMILIES.items()
            if name != "high-arity"
        }
        results = GauntletResults(
            families=partial, n_repetitions=1, scenario_overrides=SMALL
        )
        gaps = detect_gaps(results)
        assert gaps
        assert all(family == "high-arity" for family, _, _ in gaps)
        assert ("high-arity", "dense", "batch") in gaps

    def test_unplanned_backend_flagged(self):
        results = GauntletResults(
            backends=["dense", "sparse", "bitset"],
            n_repetitions=1,
            scenario_overrides=SMALL,
        )
        gaps = detect_gaps(results)
        assert gaps
        assert all(backend == "dict" for _, backend, _ in gaps)

    def test_newly_registered_family_creates_obligation(self):
        # Registering a family is what creates the cells gap detection
        # demands: a run planned before the registration must be flagged.
        results = GauntletResults(n_repetitions=1, scenario_overrides=SMALL)
        extra = dict(GAUNTLET_FAMILIES)
        extra["drift-strong"] = GauntletFamily(
            name="drift-strong",
            description="stronger drift",
            kind="binary",
            factory=lambda **kw: DriftScenario(
                name="drift-strong", n_workers=7, n_tasks=50, arity=2,
                drift=0.5, **kw,
            ),
        )
        gaps = detect_gaps(results, families=extra)
        assert gaps
        assert all(family == "drift-strong" for family, _, _ in gaps)


class TestGauntletCoverage:
    def test_collusion_degrades_coverage_vs_independent(self):
        results = GauntletResults(
            families=["independent", "collusion"],
            backends=["dense"],
            n_repetitions=6,
            confidence=0.9,
            seed=5,
            scenario_overrides={
                "independent": {"n_tasks": 80},
                "collusion": {"n_tasks": 80},
            },
        )
        coverage = results.family_coverage
        # Correlated errors violate the independence behind the variance
        # bound: the ring's intervals collapse around the wrong value.
        assert coverage["collusion"] < coverage["independent"] - 0.2

    def test_kary_cell_renders_confusion_coverage(self):
        results = GauntletResults(
            families=["high-arity"],
            backends=["dict", "dense"],
            n_repetitions=1,
            seed=9,
            scenario_overrides={"high-arity": {"n_tasks": 80}},
        )
        cell = results.cell("high-arity", "dense", "batch")
        # 3 workers x arity^2 confusion cells per non-degenerate estimate.
        arity = results.scenario("high-arity").arity
        expected = (3 - cell.coverage.n_degenerate) * arity * arity
        assert cell.coverage.n_intervals == expected
        assert cell.coverage.n_repetitions == 1

    def test_summary_properties_render_needed_cells(self):
        results = GauntletResults(
            families=["independent", "collusion"],
            backends=["dict"],
            n_repetitions=2,
            seed=13,
            scenario_overrides=SMALL,
        )
        worst = results.worst_calibration
        assert worst.key in results.cell_keys
        coverage = results.family_coverage
        assert set(coverage) == {"independent", "collusion"}
        # Both summaries forced the full (restricted) grid.
        assert results.n_computed_cells == len(results.cell_keys)
        # Full-strength collusion is the grid's miscalibration champion.
        assert worst.family == "collusion"

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            GauntletResults(n_repetitions=0)
        with pytest.raises(ConfigurationError):
            GauntletResults(confidence=1.0)
        with pytest.raises(ConfigurationError):
            GauntletResults(families=["no-such-family"])
        with pytest.raises(ConfigurationError):
            GauntletResults(backends=["no-such-backend"])

    def test_unsupported_path_rejected(self):
        results = GauntletResults(n_repetitions=1, scenario_overrides=SMALL)
        with pytest.raises(ConfigurationError):
            results.cell("independent", "dict", "scalar")
        with pytest.raises(ConfigurationError):
            results.cell("high-arity", "dense", "streamed")

    def test_report_and_table_well_formed(self):
        results = GauntletResults(
            families=["independent"],
            backends=["dict"],
            n_repetitions=1,
            scenario_overrides=SMALL,
        )
        report = results.to_report()
        assert len(report["cells"]) == len(results.cell_keys)
        for cell in report["cells"]:
            for field in (
                "family", "backend", "path", "coverage", "calibration_error",
                "mean_size", "n_degenerate", "n_skipped_repetitions",
                "n_repetitions",
            ):
                assert field in cell
        # The restricted run plans only a sliver of the registry's grid.
        assert report["gaps"]
        table = format_gauntlet_report(results)
        assert "UNTESTED CELLS" in table
        assert "independent" in table
