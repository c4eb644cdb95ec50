"""Unit tests for the gold-augmented evaluator and the adversarial simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gold_augmented import GoldAugmentedEvaluator, combine_estimates
from repro.core.m_worker import evaluate_all_workers
from repro.data.response_matrix import ResponseMatrix
from repro.exceptions import ConfigurationError, InsufficientDataError
from repro.simulation.adversarial import AdversarialPopulation
from repro.simulation.binary import BinaryWorkerPopulation
from repro.types import ConfidenceInterval, EstimateStatus, WorkerErrorEstimate


def estimate(mean, deviation, worker=0, status=EstimateStatus.OK, confidence=0.9):
    half = 1.64 * deviation
    return WorkerErrorEstimate(
        worker=worker,
        interval=ConfidenceInterval(
            mean=mean,
            lower=max(0.0, mean - half),
            upper=min(1.0, mean + half),
            confidence=confidence,
            deviation=deviation,
        ),
        n_tasks=50,
        status=status,
    )


class TestCombineEstimates:
    def test_inverse_variance_weighting(self):
        agreement = estimate(0.2, 0.05)
        gold = estimate(0.3, 0.05)
        fused = combine_estimates(agreement, gold, confidence=0.9)
        # Equal precision -> the fused mean is the midpoint and the deviation
        # shrinks by sqrt(2).
        assert fused.interval.mean == pytest.approx(0.25)
        assert fused.interval.deviation == pytest.approx(0.05 / np.sqrt(2))

    def test_tighter_source_dominates(self):
        agreement = estimate(0.2, 0.02)
        gold = estimate(0.4, 0.2)
        fused = combine_estimates(agreement, gold, confidence=0.9)
        assert abs(fused.interval.mean - 0.2) < abs(fused.interval.mean - 0.4)

    def test_fused_never_wider_than_either_source(self):
        agreement = estimate(0.25, 0.07)
        gold = estimate(0.2, 0.04)
        fused = combine_estimates(agreement, gold, confidence=0.9)
        assert fused.interval.deviation <= min(0.07, 0.04) + 1e-12

    def test_missing_gold_returns_agreement(self):
        agreement = estimate(0.2, 0.05)
        fused = combine_estimates(agreement, None, confidence=0.8)
        assert fused.interval.mean == pytest.approx(0.2)
        assert fused.interval.confidence == 0.8

    def test_degenerate_agreement_falls_back_to_gold(self):
        degenerate = estimate(0.25, 1.0, status=EstimateStatus.DEGENERATE)
        gold = estimate(0.1, 0.03)
        fused = combine_estimates(degenerate, gold, confidence=0.9)
        assert fused.interval.mean == pytest.approx(0.1)

    def test_clamped_status_propagates(self):
        agreement = estimate(0.2, 0.05, status=EstimateStatus.CLAMPED)
        gold = estimate(0.25, 0.05)
        fused = combine_estimates(agreement, gold, confidence=0.9)
        assert fused.status is EstimateStatus.CLAMPED

    def test_both_degenerate_releveled_and_prefers_agreement(self):
        """Two degenerate sources: the agreement estimate wins (it carries
        the triples/weights provenance) and its interval is re-leveled to
        the requested confidence, as the docstring promises."""
        agreement = estimate(0.25, 1.0, status=EstimateStatus.DEGENERATE)
        gold = estimate(0.4, 1.0, worker=0, status=EstimateStatus.DEGENERATE)
        fused = combine_estimates(agreement, gold, confidence=0.7)
        assert fused.interval.mean == pytest.approx(0.25)
        assert fused.interval.confidence == 0.7
        assert fused.status is EstimateStatus.DEGENERATE
        assert fused.triples == agreement.triples
        assert fused.weights == agreement.weights
        # Re-leveling actually recomputed the bounds from the moments.
        assert fused.interval.lower == 0.0  # clipped at the unit range
        assert fused.interval.upper == 1.0

    def test_both_degenerate_missing_agreement_releveled_gold(self):
        gold = estimate(0.3, 0.0, status=EstimateStatus.OK)  # zero-width: unusable
        fused = combine_estimates(None, gold, confidence=0.6)
        assert fused.interval.mean == pytest.approx(0.3)
        assert fused.interval.confidence == 0.6

    def test_degenerate_relevel_changes_width_with_confidence(self):
        agreement = estimate(0.25, 0.4, status=EstimateStatus.DEGENERATE)
        narrow = combine_estimates(agreement, None, confidence=0.5)
        wide = combine_estimates(agreement, None, confidence=0.99)
        assert narrow.interval.size < wide.interval.size


class TestGoldAugmentedEvaluator:
    def test_without_gold_matches_plain_estimator(self, rng):
        population = BinaryWorkerPopulation(error_rates=np.array([0.1, 0.2, 0.3, 0.2]))
        matrix = population.generate(120, rng, densities=0.9)
        # Rebuild without gold labels to simulate a requester with none.
        stripped = ResponseMatrix.from_dense(matrix.to_dense(), arity=2)
        fused = GoldAugmentedEvaluator(confidence=0.9).evaluate_all(stripped)
        plain = evaluate_all_workers(stripped, confidence=0.9)
        for worker, plain_estimate in enumerate(plain):
            assert fused[worker].interval.mean == pytest.approx(
                plain_estimate.interval.mean
            )

    def test_partial_gold_tightens_intervals(self, rng):
        population = BinaryWorkerPopulation(error_rates=np.array([0.1, 0.2, 0.3, 0.2, 0.1]))
        matrix = population.generate(150, rng, densities=0.8)
        # Keep gold labels for only the first 30 tasks.
        partial = ResponseMatrix.from_dense(matrix.to_dense(), arity=2)
        partial.set_gold_labels(
            {t: l for t, l in matrix.gold_labels.items() if t < 30}
        )
        fused = GoldAugmentedEvaluator(confidence=0.9).evaluate_all(partial)
        plain = evaluate_all_workers(partial, confidence=0.9)
        fused_sizes = np.mean([fused[w].interval.size for w in fused])
        plain_sizes = np.mean([e.interval.size for e in plain])
        assert fused_sizes <= plain_sizes + 1e-9

    def test_coverage_maintained(self, rng):
        hits = total = 0
        for _ in range(20):
            population = BinaryWorkerPopulation.from_paper_palette(5, rng)
            matrix = population.generate(100, rng, densities=0.8)
            fused = GoldAugmentedEvaluator(confidence=0.8).evaluate_all(matrix)
            for worker, fused_estimate in fused.items():
                total += 1
                hits += fused_estimate.interval.contains(population.error_rates[worker])
        assert hits / total > 0.65

    def test_fast_path_knobs_are_bit_identical(self, rng):
        """The fused evaluator threads the backend knob through to the inner
        m-worker estimator; every vectorized backend must fuse to intervals
        bit-identical to the dict oracle (the fast paths silently bypassed
        the fused mode before)."""
        population = BinaryWorkerPopulation.from_paper_palette(6, rng)
        matrix = population.generate(90, rng, densities=0.8)
        reference = GoldAugmentedEvaluator(
            confidence=0.9, backend="dict"
        ).evaluate_all(matrix)
        for config in (
            {"backend": "dense"},
            {"backend": "sparse"},
            {"backend": "bitset"},
        ):
            candidate = GoldAugmentedEvaluator(
                confidence=0.9, **config
            ).evaluate_all(matrix)
            assert set(candidate) == set(reference), config
            for worker, ref in reference.items():
                cand = candidate[worker]
                assert cand.interval.mean == ref.interval.mean, config
                assert cand.interval.lower == ref.interval.lower, config
                assert cand.interval.upper == ref.interval.upper, config
                assert cand.interval.deviation == ref.interval.deviation, config
                assert cand.weights == ref.weights, config
                assert cand.status is ref.status, config

    @pytest.mark.parametrize("shards", [0, -1, True, "process:2"])
    def test_malformed_shards_rejected_at_construction(self, shards):
        # Validated like every other estimator's knob: a bad spec fails
        # here, not deep inside the first evaluate_all.
        with pytest.raises(ConfigurationError):
            GoldAugmentedEvaluator(shards=shards)

    def test_validation(self, simulated_kary):
        kary_matrix, _ = simulated_kary
        with pytest.raises(ConfigurationError):
            GoldAugmentedEvaluator(confidence=0.0)
        with pytest.raises(ConfigurationError):
            GoldAugmentedEvaluator().evaluate_all(kary_matrix)
        tiny = ResponseMatrix(2, 4)
        tiny.add_response(0, 0, 1)
        tiny.add_response(1, 0, 1)
        with pytest.raises(InsufficientDataError):
            GoldAugmentedEvaluator().evaluate_all(tiny)


class TestAdversarialPopulation:
    def test_worker_bookkeeping(self):
        population = AdversarialPopulation(
            honest_error_rates=np.array([0.1, 0.2]),
            n_spammers=1,
            n_adversaries=1,
            n_colluders=2,
        )
        assert population.n_workers == 6
        kinds = population.worker_kinds()
        assert kinds.count("honest") == 2
        assert kinds.count("colluder") == 2
        rates = population.true_error_rates()
        assert rates[2] == 0.5           # spammer
        assert rates[3] > 0.5            # adversary
        assert rates[4] == rates[5]      # colluders share the leader's rate

    def test_generated_behaviour_matches_model(self, rng):
        population = AdversarialPopulation(
            honest_error_rates=np.array([0.1]),
            n_spammers=1,
            n_adversaries=1,
            n_colluders=2,
            adversary_error_rate=0.9,
        )
        matrix = population.generate(2000, rng, density=1.0)
        # Honest worker near 0.1, spammer near 0.5, adversary near 0.9.
        assert matrix.empirical_error_rate(0) == pytest.approx(0.1, abs=0.04)
        assert matrix.empirical_error_rate(1) == pytest.approx(0.5, abs=0.06)
        assert matrix.empirical_error_rate(2) == pytest.approx(0.9, abs=0.04)
        # Colluders (workers 3 and 4) give identical answers on shared tasks.
        common = matrix.common_tasks(3, 4)
        assert all(
            matrix.response(3, task) == matrix.response(4, task) for task in common
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdversarialPopulation(honest_error_rates=np.array([0.6]))
        with pytest.raises(ConfigurationError):
            AdversarialPopulation(
                honest_error_rates=np.array([0.1]), adversary_error_rate=0.4
            )
        with pytest.raises(ConfigurationError):
            AdversarialPopulation(honest_error_rates=np.array([0.1]), n_spammers=-1)
        population = AdversarialPopulation(honest_error_rates=np.array([0.1, 0.1, 0.1]))
        with pytest.raises(ConfigurationError):
            population.generate(0, np.random.default_rng(0))

    def test_intervals_remain_valid_under_collusion(self, rng):
        """With assumption violations the intervals may lose coverage, but the
        estimator must stay numerically well-behaved (the robustness the
        paper's real-data section claims)."""
        population = AdversarialPopulation(
            honest_error_rates=np.array([0.1, 0.15, 0.2, 0.1]),
            n_spammers=1,
            n_colluders=2,
        )
        matrix = population.generate(150, rng, density=0.9)
        estimates = evaluate_all_workers(matrix, confidence=0.8)
        assert len(estimates) == population.n_workers
        for est in estimates:
            assert 0.0 <= est.interval.lower <= est.interval.upper <= 1.0

    def test_honest_worker_coverage_despite_spammers(self, rng):
        """Honest workers' intervals should still usually cover their error
        rates when the spammer filter is applied first."""
        from repro.core.estimator import WorkerEvaluator

        hits = total = 0
        for _ in range(10):
            population = AdversarialPopulation(
                honest_error_rates=np.array([0.1, 0.15, 0.2, 0.25, 0.1]),
                n_spammers=2,
            )
            matrix = population.generate(150, rng, density=0.9)
            estimates = WorkerEvaluator(
                confidence=0.8, remove_spammers=True
            ).evaluate_binary(matrix)
            for worker in range(5):  # honest workers only
                if worker not in estimates:
                    continue
                total += 1
                hits += estimates[worker].interval.contains(
                    population.true_error_rates()[worker]
                )
        assert total > 0
        assert hits / total > 0.6
