"""Exception hierarchy for the :mod:`repro` library.

Every error the library raises deliberately derives from
:class:`CrowdAssessmentError`, so downstream users can catch library-specific
failures with a single ``except`` clause while still letting programming
errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class CrowdAssessmentError(Exception):
    """Base class for all errors raised by the repro library."""


class DataValidationError(CrowdAssessmentError):
    """Raised when input response data is malformed or inconsistent.

    Examples: responses outside the declared label set, negative worker or
    task identifiers, a gold label for a task that does not exist.
    """


class InsufficientDataError(CrowdAssessmentError):
    """Raised when the data cannot support the requested estimate.

    The paper requires, for example, that every pair of workers in a triple
    shares at least one common task (Section III-B), and that at least three
    workers are available for any evaluation without a gold standard.
    """


class DegenerateEstimateError(CrowdAssessmentError):
    """Raised when an estimate is mathematically degenerate.

    The closed-form error-rate function of Eq. (1) has a singularity when a
    pairwise agreement rate equals 1/2; the k-ary spectral estimator fails
    when a response-frequency matrix is singular.  Callers that prefer a
    best-effort answer can pass ``strict=False`` to the estimators, in which
    case a clamped estimate flagged as degenerate is returned instead of this
    exception being raised.
    """


class ConfigurationError(CrowdAssessmentError):
    """Raised when an estimator or experiment is configured inconsistently
    (e.g. a confidence level outside (0, 1), a negative density)."""


class DurableStateError(CrowdAssessmentError):
    """Raised when persisted streaming state cannot be trusted or reused.

    Examples: a write-ahead log whose versioned header is missing or from an
    unsupported future version, a sequence gap between a snapshot and the
    surviving WAL records, or an attempt to open a fresh durable session on
    a directory that already holds state (which must be resumed instead).
    Truncated or corrupt WAL *tails* and snapshots that fail their checksum
    are NOT errors — they are the expected residue of a crash and are
    discarded cleanly during replay (see :mod:`repro.serve.durable`)."""
