"""Classical binomial-proportion confidence intervals.

These are the textbook intervals one would use when a gold standard *is*
available (the baseline the paper's introduction starts from): observe
``successes`` errors out of ``trials`` tasks and interval the underlying
error rate.  They also back the :mod:`repro.baselines.gold_standard`
comparator.
"""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError
from repro.stats.normal import two_sided_z
from repro.types import ConfidenceInterval

__all__ = ["wald_interval", "wilson_interval"]


def _validate(successes: int, trials: int, confidence: float) -> None:
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ConfigurationError(
            f"successes must lie in [0, trials], got {successes} of {trials}"
        )
    if not (0.0 < confidence < 1.0):
        raise ConfigurationError(
            f"confidence must lie strictly between 0 and 1, got {confidence}"
        )


def wald_interval(successes: int, trials: int, confidence: float) -> ConfidenceInterval:
    """Normal-approximation (Wald) interval for a binomial proportion.

    This is the interval standard statistical practice produces when gold
    standard answers are available; it is accurate for moderate ``trials``
    and proportions away from 0 and 1.
    """
    _validate(successes, trials, confidence)
    p_hat = successes / trials
    z = two_sided_z(confidence)
    deviation = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    half = z * deviation
    return ConfidenceInterval(
        mean=p_hat,
        lower=max(0.0, p_hat - half),
        upper=min(1.0, p_hat + half),
        confidence=confidence,
        deviation=deviation,
    )


def wilson_interval(
    successes: int, trials: int, confidence: float
) -> ConfidenceInterval:
    """Wilson score interval, better behaved near 0/1 and for small samples."""
    _validate(successes, trials, confidence)
    p_hat = successes / trials
    z = two_sided_z(confidence)
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p_hat + z2 / (2.0 * trials)) / denom
    spread = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    deviation = spread / z if z > 0 else 0.0
    return ConfidenceInterval(
        mean=centre,
        lower=max(0.0, centre - spread),
        upper=min(1.0, centre + spread),
        confidence=confidence,
        deviation=deviation,
    )
