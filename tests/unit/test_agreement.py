"""Unit tests for the agreement-statistics cache and the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.core.agreement import AgreementStatistics, compute_agreement_statistics
from repro.data.response_matrix import ResponseMatrix
from repro.exceptions import (
    ConfigurationError,
    CrowdAssessmentError,
    DataValidationError,
    DegenerateEstimateError,
    DurableStateError,
    InsufficientDataError,
)


class TestAgreementStatistics:
    def test_agreement_rate_matches_matrix(self, small_binary_matrix):
        stats = compute_agreement_statistics(small_binary_matrix)
        assert stats.agreement_rate(0, 1) == small_binary_matrix.agreement_rate(0, 1)
        assert stats.common_count(0, 2) == 8
        assert stats.agreement_count(0, 1) == 7

    def test_order_invariance(self, non_regular_matrix):
        stats = compute_agreement_statistics(non_regular_matrix)
        assert stats.agreement_rate(0, 3) == stats.agreement_rate(3, 0)
        assert stats.common_count(1, 2) == stats.common_count(2, 1)

    def test_triple_common_count(self, non_regular_matrix):
        stats = compute_agreement_statistics(non_regular_matrix)
        assert stats.triple_common_count(0, 1, 2) == non_regular_matrix.n_common_tasks(0, 1, 2)
        assert stats.triple_common_count(2, 1, 0) == stats.triple_common_count(0, 1, 2)

    def test_has_overlap(self, non_regular_matrix):
        stats = compute_agreement_statistics(non_regular_matrix)
        assert stats.has_overlap(0, 1)
        assert stats.has_overlap(0, 1, minimum=5)
        assert not stats.has_overlap(0, 1, minimum=100)

    def test_caching_returns_consistent_values(self, non_regular_matrix):
        stats = compute_agreement_statistics(non_regular_matrix)
        first = stats.agreement_rate(0, 1)
        # Mutating the underlying matrix after the first query does not change
        # the cached value (the cache is a snapshot, documented behaviour).
        non_regular_matrix.add_response(0, 9, 1)
        assert stats.agreement_rate(0, 1) == first

    def test_same_worker_rejected(self, small_binary_matrix):
        stats = compute_agreement_statistics(small_binary_matrix)
        with pytest.raises(DataValidationError):
            stats.agreement_rate(1, 1)
        with pytest.raises(DataValidationError):
            stats.triple_common_count(0, 1, 1)

    def test_no_overlap_raises(self):
        matrix = ResponseMatrix(3, 4)
        matrix.add_response(0, 0, 1)
        matrix.add_response(1, 1, 1)
        matrix.add_response(2, 0, 1)
        stats = AgreementStatistics(matrix=matrix)
        with pytest.raises(InsufficientDataError):
            stats.agreement_rate(0, 1)
        assert stats.common_count(0, 1) == 0


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            DataValidationError,
            InsufficientDataError,
            DegenerateEstimateError,
            ConfigurationError,
            DurableStateError,
        ],
    )
    def test_all_derive_from_base(self, exception_type):
        assert issubclass(exception_type, CrowdAssessmentError)
        with pytest.raises(CrowdAssessmentError):
            raise exception_type("boom")

    def test_base_derives_from_exception(self):
        assert issubclass(CrowdAssessmentError, Exception)
