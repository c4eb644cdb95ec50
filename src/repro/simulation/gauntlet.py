"""Adversarial scenario families for the stress-test gauntlet.

The paper's simulations (Sections III-D/IV-B) assume a well-behaved crowd:
stationary error rates, independent workers, immutable labels, balanced
truth priors, small arity.  Real crowds violate every one of these.  Each
scenario family here extends
:class:`~repro.simulation.scenarios.SimulationScenario` to break exactly one
assumption with a dial on the violation strength, so the gauntlet
(:mod:`repro.evaluation.gauntlet`) can measure how far the paper's coverage
guarantees bend before they snap:

* :class:`DriftScenario` — worker error rates drift over task index (time),
  violating stationarity; coverage is judged against the time-averaged
  rate.
* :class:`CollusionScenario` — a ring of workers copies a leader's answers,
  violating the independence assumption behind Theorem 1's variance; with a
  strong ring the agreement statistics look near-perfect while the true
  error rate stays high, so intervals collapse around the wrong value.
* :class:`RevisionStormScenario` — label-revision storms: a fraction of
  responses is submitted wrong one or more times before the final label
  arrives, exercising the streaming revision path
  (:class:`~repro.serve.session.StreamSession`) rather than the estimator's
  assumptions; final estimates must be bit-identical to a batch build over
  the settled matrix.
* :class:`ImbalanceScenario` — extreme class imbalance in the truth prior.
* :func:`high_arity_scenario` — k-ary with arity well beyond the paper's
  printed palettes (random diagonally-dominant confusion matrices).
* :func:`independent_baseline_scenario` — the paper's own assumptions, kept
  in the registry so every violation has an in-grid control to degrade
  against.

:data:`GAUNTLET_FAMILIES` is the registry the gap-detection pass
(:func:`repro.evaluation.gauntlet.detect_gaps`) enumerates against every
backend and every estimator path of each family's kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.data.response_matrix import ResponseMatrix
from repro.simulation.binary import BinaryWorkerPopulation, sample_error_rates
from repro.simulation.density import attempt_mask
from repro.simulation.scenarios import SimulationScenario

__all__ = [
    "DriftScenario",
    "CollusionScenario",
    "RevisionStormScenario",
    "ImbalanceScenario",
    "high_arity_scenario",
    "independent_baseline_scenario",
    "GauntletFamily",
    "GAUNTLET_FAMILIES",
]


@dataclass
class DriftScenario(SimulationScenario):
    """Time-varying worker error rates (task index as time).

    Each worker's error rate ramps linearly from its palette draw at task 0
    to that rate plus ``drift`` at the last task.  The reported truth is the
    **time-averaged** rate — the estimand a stationary estimator converges
    to — so coverage against it quantifies the damage non-stationarity does
    to the intervals.
    """

    drift: float = 0.3

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (-0.5 <= self.drift <= 0.5) or self.drift == 0.0:
            raise ConfigurationError(
                f"drift must be non-zero and lie in [-0.5, 0.5], got {self.drift}"
            )

    def sample(
        self, rng: np.random.Generator
    ) -> tuple[ResponseMatrix, np.ndarray]:
        start = sample_error_rates(
            self.n_workers, rng, palette=self.error_rate_palette
        )
        end = np.clip(start + self.drift, 0.0, 0.95)
        phase = (
            np.arange(self.n_tasks) / (self.n_tasks - 1)
            if self.n_tasks > 1
            else np.zeros(1)
        )
        rate_grid = start[:, None] + (end - start)[:, None] * phase[None, :]
        truths = (rng.random(self.n_tasks) < 0.5).astype(int)
        mask = attempt_mask(
            self.n_workers, self.n_tasks, self.effective_densities, rng
        )
        errors = rng.random((self.n_workers, self.n_tasks)) < rate_grid
        matrix = ResponseMatrix(
            n_workers=self.n_workers, n_tasks=self.n_tasks, arity=2
        )
        for worker in range(self.n_workers):
            for task in np.nonzero(mask[worker])[0]:
                truth = int(truths[task])
                label = 1 - truth if errors[worker, task] else truth
                matrix.add_response(worker, int(task), label)
        matrix.set_gold_labels(truths.tolist())
        return matrix, rate_grid.mean(axis=1)


@dataclass
class CollusionScenario(SimulationScenario):
    """A collusion ring copying one leader's answers (correlated errors).

    Workers ``0 .. ring_size - 1`` form the ring: worker 0 is the leader
    (error rate ``leader_error_rate``); each other member copies the
    leader's answer on a task with probability ``collusion_strength`` and
    answers independently with their own palette rate otherwise.  The
    remaining workers are honest and independent.  The reported truth is
    each worker's *marginal* error rate — which the intervals claim to
    cover — while the induced correlation violates the independence the
    variance derivation needs, so measured coverage quantifies exactly how
    wrong the intervals get.
    """

    ring_size: int = 3
    collusion_strength: float = 1.0
    leader_error_rate: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (2 <= self.ring_size <= self.n_workers):
            raise ConfigurationError(
                f"ring_size must lie in [2, n_workers], got {self.ring_size}"
            )
        if not (0.0 < self.collusion_strength <= 1.0):
            raise ConfigurationError(
                "collusion_strength must lie in (0, 1], got "
                f"{self.collusion_strength}"
            )
        if not (0.0 < self.leader_error_rate < 0.5):
            raise ConfigurationError(
                f"leader_error_rate must lie in (0, 0.5), got {self.leader_error_rate}"
            )

    def sample(
        self, rng: np.random.Generator
    ) -> tuple[ResponseMatrix, np.ndarray]:
        own_rates = sample_error_rates(
            self.n_workers, rng, palette=self.error_rate_palette
        )
        own_rates[0] = self.leader_error_rate
        truths = (rng.random(self.n_tasks) < 0.5).astype(int)
        mask = attempt_mask(
            self.n_workers, self.n_tasks, self.effective_densities, rng
        )
        leader_wrong = rng.random(self.n_tasks) < self.leader_error_rate
        leader_answers = np.where(leader_wrong, 1 - truths, truths)
        copies = rng.random((self.n_workers, self.n_tasks)) < self.collusion_strength
        own_wrong = rng.random((self.n_workers, self.n_tasks)) < own_rates[:, None]

        matrix = ResponseMatrix(
            n_workers=self.n_workers, n_tasks=self.n_tasks, arity=2
        )
        marginal = own_rates.copy()
        for member in range(1, self.ring_size):
            marginal[member] = (
                self.collusion_strength * self.leader_error_rate
                + (1.0 - self.collusion_strength) * own_rates[member]
            )
        for worker in range(self.n_workers):
            in_ring = worker < self.ring_size
            for task in np.nonzero(mask[worker])[0]:
                task = int(task)
                truth = int(truths[task])
                if worker == 0:
                    label = int(leader_answers[task])
                elif in_ring and copies[worker, task]:
                    label = int(leader_answers[task])
                else:
                    label = 1 - truth if own_wrong[worker, task] else truth
                matrix.add_response(worker, task, label)
        matrix.set_gold_labels(truths.tolist())
        return matrix, marginal


@dataclass
class RevisionStormScenario(SimulationScenario):
    """Label-revision storms over an otherwise well-behaved crowd.

    The settled state (what :meth:`sample` returns) is the base scenario's
    matrix; :meth:`event_stream` submits a ``revision_fraction`` of the
    responses wrong up to ``max_revisions`` times before the final label,
    with per-response submission order preserved under a random global
    interleave.  Streaming consumers must converge to the settled matrix
    bit-identically — this is the gauntlet's
    :class:`~repro.serve.session.StreamSession` workout, not an estimator
    stressor.
    """

    revision_fraction: float = 0.5
    max_revisions: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.revision_fraction <= 1.0):
            raise ConfigurationError(
                f"revision_fraction must lie in (0, 1], got {self.revision_fraction}"
            )
        if self.max_revisions < 1:
            raise ConfigurationError(
                f"max_revisions must be at least 1, got {self.max_revisions}"
            )

    def event_stream(
        self, rng: np.random.Generator
    ) -> tuple[list[tuple[int, int, int]], ResponseMatrix, np.ndarray | list[np.ndarray]]:
        matrix, truth = self.sample(rng)
        responses = list(matrix.iter_responses())
        stormed = rng.random(len(responses)) < self.revision_fraction
        keyed: list[tuple[float, tuple[int, int, int]]] = []
        for index, (worker, task, label) in enumerate(responses):
            if stormed[index]:
                n_prelim = int(rng.integers(1, self.max_revisions + 1))
            else:
                n_prelim = 0
            # One uniform key per event, sorted within the response, keeps
            # the preliminary labels strictly before the final one under
            # the global sort — last write wins must yield the settled label.
            keys = np.sort(rng.random(n_prelim + 1))
            for position in range(n_prelim):
                wrong = int(rng.integers(0, self.arity))
                keyed.append((float(keys[position]), (worker, task, wrong)))
            keyed.append((float(keys[-1]), (worker, task, label)))
        keyed.sort(key=lambda item: item[0])
        return [event for _, event in keyed], matrix, truth


@dataclass
class ImbalanceScenario(SimulationScenario):
    """Extreme class imbalance in the truth prior.

    The paper simulates a balanced 0.5 prior; skewing it starves one label's
    agreement statistics (most common tasks share the majority truth), which
    stresses the clamping around the Eq. (1) singularity.
    """

    positive_prior: float = 0.95

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.positive_prior < 1.0):
            raise ConfigurationError(
                f"positive_prior must lie in (0, 1), got {self.positive_prior}"
            )

    def sample(
        self, rng: np.random.Generator
    ) -> tuple[ResponseMatrix, np.ndarray]:
        population = BinaryWorkerPopulation(
            error_rates=sample_error_rates(
                self.n_workers, rng, palette=self.error_rate_palette
            ),
            task_positive_prior=self.positive_prior,
        )
        matrix = population.generate(
            self.n_tasks, rng, densities=self.effective_densities
        )
        return matrix, population.error_rates


def independent_baseline_scenario(
    n_workers: int = 7, n_tasks: int = 150
) -> SimulationScenario:
    """The paper's own assumptions — the in-grid control every violation
    family is compared against."""
    return SimulationScenario(
        name=f"independent-m{n_workers}-n{n_tasks}",
        n_workers=n_workers,
        n_tasks=n_tasks,
        arity=2,
    )


def drift_scenario(
    n_workers: int = 7, n_tasks: int = 150, drift: float = 0.3
) -> DriftScenario:
    """Error rates ramping up by ``drift`` over the task horizon."""
    return DriftScenario(
        name=f"drift-m{n_workers}-n{n_tasks}-d{drift:g}",
        n_workers=n_workers,
        n_tasks=n_tasks,
        arity=2,
        drift=drift,
    )


def collusion_scenario(
    n_workers: int = 7,
    n_tasks: int = 150,
    ring_size: int = 3,
    collusion_strength: float = 1.0,
) -> CollusionScenario:
    """A ``ring_size`` collusion ring copying its leader."""
    return CollusionScenario(
        name=f"collusion-m{n_workers}-n{n_tasks}-r{ring_size}",
        n_workers=n_workers,
        n_tasks=n_tasks,
        arity=2,
        ring_size=ring_size,
        collusion_strength=collusion_strength,
    )


def revision_storm_scenario(
    n_workers: int = 7, n_tasks: int = 150, revision_fraction: float = 0.5
) -> RevisionStormScenario:
    """Half the responses revised at least once before settling."""
    return RevisionStormScenario(
        name=f"revision-storm-m{n_workers}-n{n_tasks}",
        n_workers=n_workers,
        n_tasks=n_tasks,
        arity=2,
        revision_fraction=revision_fraction,
    )


def imbalance_scenario(
    n_workers: int = 7, n_tasks: int = 150, positive_prior: float = 0.95
) -> ImbalanceScenario:
    """A heavily skewed truth prior."""
    return ImbalanceScenario(
        name=f"imbalance-m{n_workers}-n{n_tasks}-p{positive_prior:g}",
        n_workers=n_workers,
        n_tasks=n_tasks,
        arity=2,
        positive_prior=positive_prior,
    )


def high_arity_scenario(
    arity: int = 6, n_tasks: int = 250, n_workers: int = 3
) -> SimulationScenario:
    """K-ary far beyond the paper's printed palettes (random matrices)."""
    if arity <= 4:
        raise ConfigurationError(
            f"high_arity_scenario wants arity beyond the paper's 2-4, got {arity}"
        )
    return SimulationScenario(
        name=f"high-arity-k{arity}-n{n_tasks}",
        n_workers=n_workers,
        n_tasks=n_tasks,
        arity=arity,
    )


@dataclass(frozen=True)
class GauntletFamily:
    """One registered scenario family: a factory plus grid metadata.

    ``kind`` decides the estimator paths the gauntlet must cover for the
    family ("binary" scenarios run the batch and streamed paths on every
    backend; "kary" ones run the batch A3 path per backend), so
    registering a family here is what makes gap detection demand cells
    for it.
    """

    name: str
    description: str
    kind: str
    factory: Callable[..., SimulationScenario] = field(repr=False)

    def build(self, **overrides) -> SimulationScenario:
        """Instantiate the family's scenario (smoke-friendly defaults)."""
        return self.factory(**overrides)


#: The registry the gauntlet's gap-detection pass enumerates.  Every family
#: here x every backend x every estimator path of the family's kind must
#: appear in a full gauntlet run.
GAUNTLET_FAMILIES: dict[str, GauntletFamily] = {
    family.name: family
    for family in (
        GauntletFamily(
            name="independent",
            description="paper assumptions (control)",
            kind="binary",
            factory=independent_baseline_scenario,
        ),
        GauntletFamily(
            name="drift",
            description="time-varying worker error rates",
            kind="binary",
            factory=drift_scenario,
        ),
        GauntletFamily(
            name="collusion",
            description="collusion ring (correlated errors)",
            kind="binary",
            factory=collusion_scenario,
        ),
        GauntletFamily(
            name="revision-storm",
            description="label revisions through the streaming layer",
            kind="binary",
            factory=revision_storm_scenario,
        ),
        GauntletFamily(
            name="imbalance",
            description="extreme class imbalance",
            kind="binary",
            factory=imbalance_scenario,
        ),
        GauntletFamily(
            name="high-arity",
            description="k-ary beyond the paper's palettes",
            kind="kary",
            factory=high_arity_scenario,
        ),
    )
}
