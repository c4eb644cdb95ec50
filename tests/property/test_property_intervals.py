"""Property-based tests for interval construction and the delta-method engine."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta_method import DeltaMethodModel, confidence_interval_from_moments
from repro.stats.intervals import wald_interval, wilson_interval
from repro.stats.normal import normal_cdf, normal_quantile, two_sided_z

confidences = st.floats(min_value=0.01, max_value=0.99)
probabilities = st.floats(min_value=0.0, max_value=1.0)
deviations = st.floats(min_value=0.0, max_value=5.0)


@settings(max_examples=200, deadline=None)
@given(mean=st.floats(min_value=-2.0, max_value=3.0), deviation=deviations, confidence=confidences)
def test_interval_from_moments_is_well_formed(mean, deviation, confidence):
    interval = confidence_interval_from_moments(mean, deviation, confidence)
    assert 0.0 <= interval.lower <= interval.upper <= 1.0
    assert interval.confidence == confidence


@settings(max_examples=100, deadline=None)
@given(mean=probabilities, deviation=deviations, low=confidences, high=confidences)
def test_interval_width_monotone_in_confidence(mean, deviation, low, high):
    low, high = sorted((low, high))
    narrow = confidence_interval_from_moments(mean, deviation, low, clip_to_unit=False)
    wide = confidence_interval_from_moments(mean, deviation, high, clip_to_unit=False)
    assert wide.size >= narrow.size - 1e-12


@settings(max_examples=100, deadline=None)
@given(p=st.floats(min_value=0.001, max_value=0.999))
def test_normal_quantile_is_inverse_of_cdf(p):
    assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-9


@settings(max_examples=100, deadline=None)
@given(confidence=confidences)
def test_two_sided_z_consistent_with_tail_mass(confidence):
    z = two_sided_z(confidence)
    # The mass inside [-z, z] equals the confidence level.
    assert abs((normal_cdf(z) - normal_cdf(-z)) - confidence) < 1e-9


@settings(max_examples=150, deadline=None)
@given(
    successes=st.integers(min_value=0, max_value=200),
    extra=st.integers(min_value=1, max_value=300),
    confidence=confidences,
)
def test_binomial_intervals_contain_point_estimate(successes, extra, confidence):
    trials = successes + extra
    for interval_fn in (wald_interval, wilson_interval):
        interval = interval_fn(successes, trials, confidence)
        assert 0.0 <= interval.lower <= interval.upper <= 1.0
        assert interval.lower - 1e-9 <= successes / trials <= interval.upper + 1e-9


@settings(max_examples=150, deadline=None)
@given(
    gradient=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=5),
    scale=st.floats(min_value=0.0, max_value=2.0),
    confidence=confidences,
)
def test_delta_method_variance_nonnegative(gradient, scale, confidence):
    gradient_array = np.asarray(gradient)
    k = gradient_array.size
    base = np.random.default_rng(0).normal(size=(k, k))
    covariance = scale * (base @ base.T)  # PSD by construction
    model = DeltaMethodModel(value=0.3, gradient=gradient_array, covariance=covariance)
    assert model.variance >= 0.0
    interval = model.interval(confidence)
    assert interval.lower <= interval.upper


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=6),
)
def test_linear_combination_with_uniform_weights_is_mean(values):
    values_array = np.asarray(values)
    n = values_array.size
    weights = np.full(n, 1.0 / n)
    model = DeltaMethodModel.linear_combination(values_array, weights, np.eye(n) * 0.01)
    assert abs(model.value - values_array.mean()) < 1e-12
