"""Unit tests for the statistics utilities (normal, intervals, covariance, linalg)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.exceptions import ConfigurationError, DegenerateEstimateError
from repro.stats import (
    bernoulli_variance,
    eigendecompose,
    is_positive_semidefinite,
    matrix_inverse_sqrt,
    nearest_positive_semidefinite,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    optimal_min_variance_weights,
    regularize_covariance,
    safe_inverse,
    sample_covariance,
    two_sided_z,
    wald_interval,
    wilson_interval,
)
from repro.stats.linalg import align_rows_to_diagonal


class TestNormal:
    def test_cdf_at_mean(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)

    def test_cdf_matches_scipy(self):
        for x in (-2.0, -0.5, 0.3, 1.7):
            assert normal_cdf(x) == pytest.approx(scipy_stats.norm.cdf(x))

    def test_pdf_matches_scipy(self):
        for x in (-1.0, 0.0, 2.5):
            assert normal_pdf(x, mean=1.0, std=2.0) == pytest.approx(
                scipy_stats.norm.pdf(x, loc=1.0, scale=2.0)
            )

    def test_quantile_inverts_cdf(self):
        for p in (0.05, 0.3, 0.5, 0.9, 0.999):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p)

    def test_erfinv_fallback_matches_scipy_to_double_precision(self):
        # The scipy-free erfinv (used when the repro[sparse] extra is not
        # installed) must agree with scipy's to the last ulp or two across
        # the whole domain, tails included.
        from scipy.special import erfinv as scipy_erfinv

        from repro.stats.normal import _erfinv_fallback

        values = [1e-300, 1e-12, 1e-4, 0.1, 0.5, 0.9, 0.9999, 1 - 1e-12]
        for magnitude in values:
            for y in (magnitude, -magnitude):
                reference = float(scipy_erfinv(y))
                assert _erfinv_fallback(y) == pytest.approx(
                    reference, rel=5e-15, abs=5e-300
                ), y
        assert _erfinv_fallback(0.0) == 0.0
        assert _erfinv_fallback(1.0) == float("inf")
        assert _erfinv_fallback(-1.0) == float("-inf")
        assert _erfinv_fallback(float("nan")) != _erfinv_fallback(float("nan"))
        assert _erfinv_fallback(1.5) != _erfinv_fallback(1.5)  # NaN out of range

    def test_quantile_with_location_scale(self):
        assert normal_quantile(0.5, mean=3.0, std=2.0) == pytest.approx(3.0)

    def test_two_sided_z_common_values(self):
        assert two_sided_z(0.95) == pytest.approx(1.959964, abs=1e-4)
        assert two_sided_z(0.90) == pytest.approx(1.644854, abs=1e-4)
        assert two_sided_z(0.5) == pytest.approx(0.674490, abs=1e-4)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_two_sided_z_validation(self, bad):
        with pytest.raises(ConfigurationError):
            two_sided_z(bad)

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_quantile_validation(self, bad):
        with pytest.raises(ConfigurationError):
            normal_quantile(bad)

    def test_negative_std_rejected(self):
        with pytest.raises(ConfigurationError):
            normal_cdf(0.0, std=0.0)
        with pytest.raises(ConfigurationError):
            normal_pdf(0.0, std=-1.0)


class TestBinomialIntervals:
    def test_wald_centre(self):
        interval = wald_interval(20, 100, 0.9)
        assert interval.mean == pytest.approx(0.2)
        assert interval.lower < 0.2 < interval.upper

    def test_wald_degenerate_counts(self):
        assert wald_interval(0, 50, 0.9).lower == 0.0
        assert wald_interval(50, 50, 0.9).upper == 1.0

    def test_wilson_is_within_unit_interval(self):
        interval = wilson_interval(1, 3, 0.95)
        assert 0.0 <= interval.lower <= interval.upper <= 1.0

    def test_higher_confidence_wider(self):
        narrow = wilson_interval(10, 50, 0.5)
        wide = wilson_interval(10, 50, 0.99)
        assert wide.size > narrow.size

    @pytest.mark.parametrize("successes,trials,confidence", [(-1, 10, 0.9), (11, 10, 0.9), (5, 0, 0.9), (5, 10, 1.0)])
    def test_validation(self, successes, trials, confidence):
        with pytest.raises(ConfigurationError):
            wald_interval(successes, trials, confidence)


class TestCovarianceUtilities:
    def test_bernoulli_variance(self):
        assert bernoulli_variance(0.5, 100) == pytest.approx(0.0025)
        assert bernoulli_variance(0.0, 10) == 0.0

    def test_bernoulli_variance_validation(self):
        with pytest.raises(ConfigurationError):
            bernoulli_variance(0.5, 0)

    def test_sample_covariance_matches_numpy(self, rng):
        samples = rng.normal(size=(50, 3))
        assert np.allclose(sample_covariance(samples), np.cov(samples, rowvar=False))

    def test_sample_covariance_validation(self):
        with pytest.raises(ConfigurationError):
            sample_covariance(np.zeros(5))
        with pytest.raises(ConfigurationError):
            sample_covariance(np.zeros((1, 3)))

    def test_is_positive_semidefinite(self):
        assert is_positive_semidefinite(np.eye(3))
        assert not is_positive_semidefinite(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not is_positive_semidefinite(np.array([[1.0, 0.5], [0.4, 1.0]]))
        assert not is_positive_semidefinite(np.ones((2, 3)))

    def test_nearest_psd_projects(self):
        indefinite = np.array([[1.0, 0.9], [0.9, -0.5]])
        repaired = nearest_positive_semidefinite(indefinite)
        assert is_positive_semidefinite(repaired)

    def test_nearest_psd_keeps_psd_input(self):
        matrix = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(nearest_positive_semidefinite(matrix), matrix)

    def test_regularize_covariance_invertible(self):
        singular = np.ones((3, 3))
        regularized = regularize_covariance(singular)
        assert is_positive_semidefinite(regularized)
        np.linalg.inv(regularized)  # must not raise


class TestLinalg:
    def test_safe_inverse_regular(self):
        matrix = np.array([[2.0, 0.0], [0.0, 4.0]])
        assert np.allclose(safe_inverse(matrix) @ matrix, np.eye(2))

    def test_safe_inverse_singular_falls_back_to_ridge(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        inverse = safe_inverse(singular, ridge=1e-6)
        assert np.all(np.isfinite(inverse))

    def test_safe_inverse_rejects_non_square(self):
        with pytest.raises(DegenerateEstimateError):
            safe_inverse(np.ones((2, 3)))

    def test_eigendecompose_real_psd(self):
        matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
        eigenvalues, eigenvectors = eigendecompose(matrix)
        reconstructed = eigenvectors @ np.diag(eigenvalues) @ np.linalg.inv(eigenvectors)
        assert np.allclose(reconstructed, matrix)
        assert np.all(eigenvalues >= 0)

    def test_matrix_inverse_sqrt(self):
        matrix = np.array([[4.0, 0.0], [0.0, 9.0]])
        inverse_sqrt = matrix_inverse_sqrt(matrix)
        assert np.allclose(inverse_sqrt, np.diag([0.5, 1.0 / 3.0]))

    def test_align_rows_to_diagonal_fixes_permutation(self):
        base = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.05, 0.15, 0.8]])
        shuffled = base[[2, 0, 1]]
        aligned = align_rows_to_diagonal(shuffled)
        assert np.allclose(aligned, base)

    def test_align_rows_identity(self):
        base = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert np.allclose(align_rows_to_diagonal(base), base)

    def test_align_rows_rejects_non_square(self):
        with pytest.raises(DegenerateEstimateError):
            align_rows_to_diagonal(np.ones((2, 3)))

    def test_optimal_weights_sum_to_one(self):
        covariance = np.diag([1.0, 2.0, 4.0])
        weights = optimal_min_variance_weights(covariance)
        assert weights.sum() == pytest.approx(1.0)

    def test_optimal_weights_prefer_low_variance(self):
        covariance = np.diag([1.0, 100.0])
        weights = optimal_min_variance_weights(covariance)
        assert weights[0] > weights[1]

    def test_optimal_weights_diagonal_closed_form(self):
        variances = np.array([1.0, 2.0, 4.0])
        weights = optimal_min_variance_weights(np.diag(variances))
        expected = (1.0 / variances) / np.sum(1.0 / variances)
        assert np.allclose(weights, expected)

    def test_optimal_weights_single_triple(self):
        assert optimal_min_variance_weights(np.array([[0.3]])) == pytest.approx([1.0])

    def test_optimal_weights_rejects_non_square(self):
        with pytest.raises(DegenerateEstimateError):
            optimal_min_variance_weights(np.ones((2, 3)))

    def test_optimal_weights_beats_uniform(self):
        covariance = np.array([[1.0, 0.2, 0.1], [0.2, 3.0, 0.3], [0.1, 0.3, 5.0]])
        weights = optimal_min_variance_weights(covariance)
        uniform = np.full(3, 1.0 / 3.0)
        assert weights @ covariance @ weights <= uniform @ covariance @ uniform + 1e-12
