"""Synthetic workload generators reproducing the paper's simulation setups.

The experiments in Sections III-A, III-D and IV-B all draw workers with
known error behaviour, have them attempt a random subset of tasks, and then
check whether the computed confidence intervals contain the known truth.
This package provides those generators with explicit seeds so every
experiment is reproducible.
"""

from repro.simulation.binary import (
    PAPER_ERROR_RATES,
    BinaryWorkerPopulation,
    simulate_binary_responses,
    sample_error_rates,
)
from repro.simulation.kary import (
    PAPER_CONFUSION_MATRICES,
    KaryWorkerPopulation,
    simulate_kary_responses,
    sample_confusion_matrices,
    random_confusion_matrix,
)
from repro.simulation.density import (
    uniform_density,
    per_worker_density_ramp,
    attempt_mask,
)
from repro.simulation.scenarios import (
    SimulationScenario,
    paper_binary_scenario,
    paper_kary_scenario,
    weight_optimization_scenario,
)
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

__all__ = [
    "PAPER_ERROR_RATES",
    "BinaryWorkerPopulation",
    "simulate_binary_responses",
    "sample_error_rates",
    "PAPER_CONFUSION_MATRICES",
    "KaryWorkerPopulation",
    "simulate_kary_responses",
    "sample_confusion_matrices",
    "random_confusion_matrix",
    "uniform_density",
    "per_worker_density_ramp",
    "attempt_mask",
    "SimulationScenario",
    "paper_binary_scenario",
    "paper_kary_scenario",
    "weight_optimization_scenario",
    "GAUNTLET_FAMILIES",
    "GauntletFamily",
    "DriftScenario",
    "CollusionScenario",
    "RevisionStormScenario",
    "ImbalanceScenario",
    "high_arity_scenario",
    "independent_baseline_scenario",
]
