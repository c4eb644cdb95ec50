"""Scenario gauntlet: a lazily-computed experiment report over the
``scenario family x backend x estimator path`` grid.

:class:`GauntletResults` follows the fuzzbench ``ExperimentResults``
pattern: the object is cheap to construct and every metric is computed
lazily and memoized on first read, so a report template (the CLI table, the
JSON report, the benchmark gate) only pays for the cells it actually
renders.  A cell is one coverage/calibration measurement: a scenario family
from :data:`~repro.simulation.gauntlet.GAUNTLET_FAMILIES`, scored through
one agreement backend and one estimator path of the family's kind
(:func:`~repro.core.agreement.supported_estimator_paths`: ``"batch"`` and,
for binary families, ``"streamed"``).

The gap-detection pass (:func:`detect_gaps`) recomputes the full expected
grid from the registry x :data:`GAUNTLET_BACKENDS` and flags any cell a
report failed to plan, so the gauntlet stays exhaustive as backends and
scenario families multiply: registering either is what *creates* the
obligation to test it.

All cells run through the shared accounting of
:mod:`repro.evaluation.coverage` — one degenerate predicate
(:func:`~repro.evaluation.coverage.usable_estimate`), with degenerate and
skipped-repetition counts surfaced per cell — so numbers are comparable
across estimators; that comparability is what makes "collusion degrades
coverage vs the independent baseline" a measurement instead of an anecdote.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.agreement import supported_estimator_paths
from repro.core.kary import KaryEstimator
from repro.core.m_worker import MWorkerEstimator
from repro.data.dense_backend import BACKEND_CHOICES
from repro.evaluation.coverage import CoverageResult, usable_estimate
from repro.exceptions import ConfigurationError, InsufficientDataError
from repro.simulation.gauntlet import GAUNTLET_FAMILIES, GauntletFamily
from repro.simulation.scenarios import SimulationScenario
from repro.types import EstimateStatus

__all__ = [
    "GAUNTLET_BACKENDS",
    "CellKey",
    "GauntletCell",
    "GauntletResults",
    "detect_gaps",
    "expected_cells",
    "format_gauntlet_report",
]

#: One grid coordinate: (scenario family, backend, estimator path).
CellKey = tuple[str, str, str]

#: Every concrete backend (``"auto"`` only resolves to one of them).
GAUNTLET_BACKENDS: tuple[str, ...] = tuple(
    name for name in BACKEND_CHOICES if name != "auto"
)


@dataclass(frozen=True)
class GauntletCell:
    """The rendered content of one gauntlet grid cell."""

    family: str
    backend: str
    path: str
    confidence: float
    coverage: CoverageResult

    @property
    def calibration_error(self) -> float:
        """Signed miscalibration: measured coverage minus the nominal level.

        Near zero for a well-calibrated cell; strongly negative when an
        assumption violation makes the intervals overconfident (the
        collusion cells are the canonical example).
        """
        return self.coverage.accuracy - self.confidence

    @property
    def key(self) -> CellKey:
        return (self.family, self.backend, self.path)


def expected_cells(
    families: Mapping[str, GauntletFamily] | Sequence[str] | None = None,
    backends: Sequence[str] | None = None,
) -> tuple[CellKey, ...]:
    """The full grid the registry x backends demand, in order.

    For every registered scenario family and every backend, one cell per
    estimator path of the family's kind
    (:func:`~repro.core.agreement.supported_estimator_paths`).  This is the
    enumeration gap detection compares a report against.
    """
    resolved = _resolve_families(families)
    backend_names = _resolve_backends(backends)
    cells: list[CellKey] = []
    for name, family in resolved.items():
        for backend in backend_names:
            for path in supported_estimator_paths(family.kind):
                cells.append((name, backend, path))
    return tuple(cells)


def _resolve_families(
    families: Mapping[str, GauntletFamily] | Sequence[str] | None,
) -> dict[str, GauntletFamily]:
    if families is None:
        return dict(GAUNTLET_FAMILIES)
    if isinstance(families, Mapping):
        return dict(families)
    resolved: dict[str, GauntletFamily] = {}
    for name in families:
        if name not in GAUNTLET_FAMILIES:
            raise ConfigurationError(
                f"unknown gauntlet family {name!r}; registered: "
                f"{sorted(GAUNTLET_FAMILIES)}"
            )
        resolved[name] = GAUNTLET_FAMILIES[name]
    return resolved


def _resolve_backends(backends: Sequence[str] | None) -> tuple[str, ...]:
    if backends is None:
        return GAUNTLET_BACKENDS
    for backend in backends:
        if backend not in GAUNTLET_BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; the gauntlet covers "
                f"{sorted(GAUNTLET_BACKENDS)}"
            )
    return tuple(backends)


class GauntletResults:
    """Lazily-computed gauntlet report (fuzzbench ``ExperimentResults`` style).

    Construction is O(grid size) bookkeeping only — no simulation runs
    until a cell (or a summary property that needs it) is rendered, and
    every computed cell is memoized.  ``n_computed_cells`` exposes how much
    of the grid has actually been paid for, which the lazy-contract test
    pins.

    Parameters
    ----------
    families:
        Family names to include (default: the full registry), or a mapping
        of name -> :class:`~repro.simulation.gauntlet.GauntletFamily` for
        ad-hoc grids.
    backends:
        Backends to include (default: every :data:`GAUNTLET_BACKENDS` entry).
    n_repetitions, confidence:
        Repetitions per cell and the nominal interval level.
    seed:
        Master seed; each cell derives an independent, order-insensitive
        stream from it, so rendering cells in any order (or only some of
        them) never changes any cell's numbers.
    scenario_overrides:
        Optional per-family factory keyword overrides (e.g. smaller
        ``n_tasks`` for the CI smoke leg).
    """

    def __init__(
        self,
        families: Mapping[str, GauntletFamily] | Sequence[str] | None = None,
        backends: Sequence[str] | None = None,
        *,
        n_repetitions: int = 10,
        confidence: float = 0.9,
        seed: int = 20150413,
        scenario_overrides: Mapping[str, Mapping] | None = None,
    ) -> None:
        if n_repetitions <= 0:
            raise ConfigurationError("n_repetitions must be positive")
        if not (0.0 < confidence < 1.0):
            raise ConfigurationError(
                f"confidence must lie strictly between 0 and 1, got {confidence}"
            )
        self._families = _resolve_families(families)
        self._backends = _resolve_backends(backends)
        self.n_repetitions = int(n_repetitions)
        self.confidence = float(confidence)
        self.seed = int(seed)
        overrides = dict(scenario_overrides or {})
        self._scenarios: dict[str, SimulationScenario] = {
            name: family.build(**overrides.get(name, {}))
            for name, family in self._families.items()
        }
        self._cells: dict[CellKey, GauntletCell] = {}

    # ------------------------------------------------------------------ #
    # Grid bookkeeping (never triggers computation)
    # ------------------------------------------------------------------ #

    @property
    def cell_keys(self) -> tuple[CellKey, ...]:
        """The planned grid, in rendering order."""
        return expected_cells(self._families, self._backends)

    @property
    def n_computed_cells(self) -> int:
        """How many cells have actually been rendered (lazy contract)."""
        return len(self._cells)

    def scenario(self, family: str) -> SimulationScenario:
        """The scenario instance measured for ``family``."""
        return self._scenarios[family]

    # ------------------------------------------------------------------ #
    # Cells (lazy, memoized)
    # ------------------------------------------------------------------ #

    def cell(self, family: str, backend: str, path: str) -> GauntletCell:
        """Render one grid cell, computing it on first access only."""
        key: CellKey = (family, backend, path)
        if key in self._cells:
            return self._cells[key]
        if family not in self._families:
            raise ConfigurationError(
                f"family {family!r} is not part of this gauntlet run"
            )
        if backend not in self._backends:
            raise ConfigurationError(
                f"backend {backend!r} is not part of this gauntlet run"
            )
        kind = self._families[family].kind
        if path not in supported_estimator_paths(kind):
            raise ConfigurationError(
                f"estimator path {path!r} does not exist for {kind} "
                f"families; expected one of {supported_estimator_paths(kind)}"
            )
        rendered = self._compute_cell(key)
        self._cells[key] = rendered
        return rendered

    def rows(self) -> list[GauntletCell]:
        """Render the full grid (the eager path reports build on)."""
        return [self.cell(*key) for key in self.cell_keys]

    def _cell_rng(self, key: CellKey) -> np.random.Generator:
        # Independent per-cell stream derived from (seed, cell digest):
        # rendering order, partial rendering and grid composition cannot
        # leak randomness between cells.
        digest = zlib.crc32("|".join(key).encode("utf-8"))
        return np.random.default_rng([self.seed, digest])

    def _compute_cell(self, key: CellKey) -> GauntletCell:
        family, backend, path = key
        scenario = self._scenarios[family]
        rng = self._cell_rng(key)
        if self._families[family].kind == "kary":
            coverage = self._kary_coverage(scenario, backend, rng)
        else:
            coverage = self._binary_coverage(scenario, backend, path, rng)
        return GauntletCell(
            family=family,
            backend=backend,
            path=path,
            confidence=self.confidence,
            coverage=coverage,
        )

    def _binary_coverage(
        self,
        scenario: SimulationScenario,
        backend: str,
        path: str,
        rng: np.random.Generator,
    ) -> CoverageResult:
        covered: list[bool] = []
        sizes: list[float] = []
        errors: list[float] = []
        n_degenerate = 0
        n_skipped = 0
        estimator = MWorkerEstimator(confidence=self.confidence, backend=backend)
        for _ in range(self.n_repetitions):
            if path == "streamed":
                from repro.serve.session import replay_stream

                events, _, truth = scenario.event_stream(rng)
                try:
                    estimates = list(
                        replay_stream(
                            events, confidence=self.confidence, backend=backend
                        ).values()
                    )
                except InsufficientDataError:
                    n_skipped += 1
                    continue
            else:
                matrix, truth = scenario.sample(rng)
                try:
                    estimates = estimator.evaluate_all(matrix)
                except InsufficientDataError:
                    n_skipped += 1
                    continue
            for estimate in estimates:
                if estimate.status is EstimateStatus.DEGENERATE:
                    n_degenerate += 1
                if not usable_estimate(estimate.status):
                    continue
                truth_value = float(truth[estimate.worker])
                covered.append(estimate.interval.contains(truth_value))
                sizes.append(estimate.interval.size)
                errors.append(abs(estimate.interval.mean - truth_value))
        return CoverageResult.from_observations(
            covered,
            sizes,
            errors,
            n_degenerate=n_degenerate,
            n_skipped_repetitions=n_skipped,
            n_repetitions=self.n_repetitions,
        )

    def _kary_coverage(
        self,
        scenario: SimulationScenario,
        backend: str,
        rng: np.random.Generator,
    ) -> CoverageResult:
        covered: list[bool] = []
        sizes: list[float] = []
        errors: list[float] = []
        n_degenerate = 0
        n_skipped = 0
        arity = scenario.arity
        estimator = KaryEstimator(confidence=self.confidence, backend=backend)
        for _ in range(self.n_repetitions):
            matrix, confusion = scenario.sample(rng)
            try:
                estimates = estimator.evaluate(matrix, workers=(0, 1, 2))
            except InsufficientDataError:
                n_skipped += 1
                continue
            for position, estimate in enumerate(estimates):
                if estimate.status is EstimateStatus.DEGENERATE:
                    n_degenerate += 1
                if not usable_estimate(estimate.status):
                    continue
                truth_matrix = confusion[position]
                for a in range(arity):
                    for b in range(arity):
                        interval = estimate.interval(a, b)
                        truth = float(truth_matrix[a, b])
                        covered.append(interval.contains(truth))
                        sizes.append(interval.size)
                        errors.append(abs(interval.mean - truth))
        return CoverageResult.from_observations(
            covered,
            sizes,
            errors,
            n_degenerate=n_degenerate,
            n_skipped_repetitions=n_skipped,
            n_repetitions=self.n_repetitions,
        )

    # ------------------------------------------------------------------ #
    # Summary metrics (lazy; these DO render the cells they need)
    # ------------------------------------------------------------------ #

    @functools.cached_property
    def gaps(self) -> tuple[CellKey, ...]:
        """Cells the full registry demands but this run does not plan."""
        return detect_gaps(self)

    @functools.cached_property
    def worst_calibration(self) -> GauntletCell:
        """The cell with the largest absolute miscalibration (renders all)."""
        rendered = [cell for cell in self.rows() if cell.coverage.n_intervals > 0]
        if not rendered:
            raise InsufficientDataError("no gauntlet cell produced intervals")
        return max(rendered, key=lambda cell: abs(cell.calibration_error))

    @functools.cached_property
    def family_coverage(self) -> dict[str, float]:
        """Mean measured coverage per family over its rendered grid row."""
        totals: dict[str, list[float]] = {name: [] for name in self._families}
        for cell in self.rows():
            if cell.coverage.n_intervals > 0:
                totals[cell.family].append(cell.coverage.accuracy)
        return {
            name: float(np.mean(values)) if values else float("nan")
            for name, values in totals.items()
        }

    def to_report(self) -> dict:
        """The JSON-ready report the CLI and benchmark emit (renders all)."""
        return {
            "confidence": self.confidence,
            "n_repetitions": self.n_repetitions,
            "seed": self.seed,
            "families": sorted(self._families),
            "backends": list(self._backends),
            "cells": [
                {
                    "family": cell.family,
                    "backend": cell.backend,
                    "path": cell.path,
                    "scenario": self._scenarios[cell.family].name,
                    "n_intervals": cell.coverage.n_intervals,
                    "coverage": cell.coverage.accuracy,
                    "calibration_error": cell.calibration_error,
                    "mean_size": cell.coverage.mean_size,
                    "mean_absolute_error": cell.coverage.mean_absolute_error,
                    "n_degenerate": cell.coverage.n_degenerate,
                    "n_skipped_repetitions": cell.coverage.n_skipped_repetitions,
                    "n_repetitions": cell.coverage.n_repetitions,
                }
                for cell in self.rows()
            ],
            "gaps": ["/".join(key) for key in self.gaps],
        }


def detect_gaps(
    results: GauntletResults,
    families: Mapping[str, GauntletFamily] | Sequence[str] | None = None,
    backends: Sequence[str] | None = None,
) -> tuple[CellKey, ...]:
    """Cells the registry x backends demand but ``results`` lacks.

    By default the expectation is the **full** registry over **every**
    backend — a gauntlet run restricted to a subset of families
    or backends is exactly what this pass exists to flag.  Pass
    ``families``/``backends`` to narrow the expectation deliberately (e.g.
    a smoke leg that skips nothing it claims to cover).
    """
    planned = set(results.cell_keys)
    return tuple(
        key for key in expected_cells(families, backends) if key not in planned
    )


def _format_ratio(value: float) -> str:
    return "-" if np.isnan(value) else f"{value:.3f}"


def format_gauntlet_report(results: GauntletResults) -> str:
    """Render the grid as the CLI's aligned text table (renders all cells)."""
    from repro.evaluation.reporting import format_table

    header = [
        "family",
        "backend",
        "path",
        "intervals",
        "coverage",
        "target",
        "calib",
        "width",
        "degen",
        "skipped",
    ]
    rows = []
    for cell in results.rows():
        coverage = cell.coverage
        rows.append(
            [
                cell.family,
                cell.backend,
                cell.path,
                str(coverage.n_intervals),
                _format_ratio(coverage.accuracy),
                f"{cell.confidence:.2f}",
                "-"
                if np.isnan(coverage.accuracy)
                else f"{cell.calibration_error:+.3f}",
                _format_ratio(coverage.mean_size),
                str(coverage.n_degenerate),
                f"{coverage.n_skipped_repetitions}/{coverage.n_repetitions}",
            ]
        )
    lines = [format_table(header, rows)]
    if results.gaps:
        lines.append("")
        lines.append(f"UNTESTED CELLS ({len(results.gaps)}):")
        lines.extend(f"  {'/'.join(key)}" for key in results.gaps)
    else:
        lines.append("")
        lines.append(
            "gap detection: zero untested (scenario x backend x path) cells"
        )
    return "\n".join(lines)
