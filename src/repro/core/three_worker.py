"""Algorithm A1: 3-worker binary estimation (regular and non-regular data).

The error rate of worker ``i`` is recovered from the three pairwise
agreement rates via Eq. (1)::

    p_i = 1/2 - 1/2 * sqrt( (2 q_ij - 1)(2 q_ik - 1) / (2 q_jk - 1) )

and the confidence interval follows from Theorem 1 using

* the partial derivatives of that function (Lemma 2), and
* the covariances of the agreement-rate estimators (Lemma 1 for regular
  data; Lemma 3 generalizes it to non-regular data, with Lemma 1 as the
  special case ``c_ij = n``).

The module also exposes the building blocks (:func:`error_rate_from_agreements`,
:func:`error_rate_gradient`, :func:`agreement_covariance_matrix`) that the
m-worker estimator of Algorithm A2 reuses per triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    DegenerateEstimateError,
    InsufficientDataError,
)
from repro.core.agreement import AgreementStatistics
from repro.core.delta_method import DeltaMethodModel, batched_deviations_3
from repro.data.dense_backend import resolve_triple_backend
from repro.stats.linalg import quadratic_form_3
from repro.data.response_matrix import ResponseMatrix
from repro.types import (
    ConfidenceInterval,
    EstimateStatus,
    TripleEstimate,
    WorkerErrorEstimate,
)

__all__ = [
    "MIN_AGREEMENT_MARGIN",
    "smoothed_variance_rate",
    "clamp_agreement",
    "error_rate_from_agreements",
    "error_rate_gradient",
    "agreement_covariance_matrix",
    "ThreeWorkerResult",
    "BatchedTripleArrays",
    "evaluate_three_workers",
    "evaluate_worker_in_triple",
    "evaluate_triples_batched",
    "evaluate_triples_batched_arrays",
]

#: Minimum allowed distance of an agreement rate above 1/2.  Eq. (1) has a
#: singularity at q = 1/2 (Section III-E2 discusses the resulting volatility),
#: so rates at or below 1/2 + margin are clamped and the estimate is flagged.
MIN_AGREEMENT_MARGIN: float = 1e-3


def smoothed_variance_rate(q: float, common_tasks: int) -> float:
    """Laplace-smoothed agreement rate used inside variance formulas.

    On sparse data a pair of workers often agrees on *every* one of a handful
    of common tasks, making the plug-in variance ``q (1 - q) / c`` collapse to
    zero and producing zero-width intervals that can never cover the truth.
    Smoothing the rate as ``(agreements + 1) / (c + 2)`` for the *variance*
    computation only (the point estimate still uses the raw rate) keeps the
    uncertainty honest at the boundary; for moderate ``c`` the correction is
    negligible.
    """
    if common_tasks <= 0:
        raise InsufficientDataError("variance smoothing requires at least one common task")
    agreements = q * common_tasks
    return (agreements + 1.0) / (common_tasks + 2.0)


def clamp_agreement(q: float, margin: float = MIN_AGREEMENT_MARGIN) -> tuple[float, bool]:
    """Clamp an agreement rate into ``(1/2 + margin, 1]``.

    Returns the (possibly clamped) rate and a flag saying whether clamping
    happened.  Rates above 1 (impossible, but guarded) are clamped down to 1.
    """
    clamped = False
    if q > 1.0:
        q, clamped = 1.0, True
    if q < 0.5 + margin:
        q, clamped = 0.5 + margin, True
    return q, clamped


def error_rate_from_agreements(q_ij: float, q_ik: float, q_jk: float) -> float:
    """Eq. (1): the error rate of worker ``i`` from the three agreement rates.

    ``q_ij`` and ``q_ik`` are the agreements of worker ``i`` with the other
    two workers; ``q_jk`` is the agreement between the other two.  All three
    must exceed 1/2 (clamp first with :func:`clamp_agreement` if necessary).
    """
    for name, q in (("q_ij", q_ij), ("q_ik", q_ik), ("q_jk", q_jk)):
        if q <= 0.5:
            raise DegenerateEstimateError(
                f"agreement rate {name}={q} is not above 1/2; "
                "Eq. (1) is undefined (clamp or prune spammers first)"
            )
    ratio = (2.0 * q_ij - 1.0) * (2.0 * q_ik - 1.0) / (2.0 * q_jk - 1.0)
    return 0.5 - 0.5 * math.sqrt(ratio)


def error_rate_gradient(q_ij: float, q_ik: float, q_jk: float) -> np.ndarray:
    """Lemma 2: partial derivatives of Eq. (1) w.r.t. ``(q_ij, q_ik, q_jk)``.

    Returns the gradient vector ``[df/dq_ij, df/dq_ik, df/dq_jk]``.
    """
    for name, q in (("q_ij", q_ij), ("q_ik", q_ik), ("q_jk", q_jk)):
        if q <= 0.5:
            raise DegenerateEstimateError(
                f"agreement rate {name}={q} is not above 1/2; "
                "the gradient of Eq. (1) is undefined"
            )
    a = q_ij - 0.5
    b = q_ik - 0.5
    c = q_jk - 0.5
    # c**3 is spelled as explicit multiplications: libm pow(c, 3) and NumPy's
    # vectorized cube can disagree in the last ulp, whereas a * a sequence of
    # IEEE multiplies is identical scalar or batched.
    c_cubed = (c * c) * c
    d_ij = -math.sqrt(b / (8.0 * a * c))
    d_ik = -math.sqrt(a / (8.0 * b * c))
    d_jk = math.sqrt(a * b / (8.0 * c_cubed))
    return np.array([d_ij, d_ik, d_jk])


def agreement_covariance_matrix(
    q: dict[tuple[int, int], float],
    c_pair: dict[tuple[int, int], int],
    c_triple: int,
    error_rates: dict[int, float],
    workers: tuple[int, int, int],
) -> np.ndarray:
    """Lemma 3 (and its special case Lemma 1): covariance of the three Q's.

    Parameters
    ----------
    q:
        Agreement rates keyed by sorted worker pair.
    c_pair:
        Common-task counts keyed by sorted worker pair.
    c_triple:
        Number of tasks attempted by all three workers.
    error_rates:
        Plug-in error-rate estimates ``p_i`` keyed by worker (needed for the
        off-diagonal terms).
    workers:
        The triple ``(i, j, k)``; the returned matrix is ordered as
        ``(Q_ij, Q_ik, Q_jk)``.

    Notes
    -----
    * Diagonal: ``Var(Q_ab) = q_ab (1 - q_ab) / c_ab``.
    * Off-diagonal, pairs sharing worker ``b``:
      ``Cov(Q_ab, Q_bc) = c_abc * p_b (1 - p_b) (2 q_ac - 1) / (c_ab c_bc)``.
    """
    i, j, k = workers
    pairs = [(i, j), (i, k), (j, k)]
    keys = [tuple(sorted(p)) for p in pairs]
    cov = np.zeros((3, 3))
    for idx, key in enumerate(keys):
        c_ab = c_pair[key]
        if c_ab <= 0:
            raise InsufficientDataError(
                f"workers {key} share no common task; covariance undefined"
            )
        q_ab = smoothed_variance_rate(q[key], c_ab)
        cov[idx, idx] = q_ab * (1.0 - q_ab) / c_ab
    # Off-diagonal terms: each pair of the three Q's shares exactly one worker.
    pair_indices = [(0, 1), (0, 2), (1, 2)]
    for idx_a, idx_b in pair_indices:
        workers_a = set(pairs[idx_a])
        workers_b = set(pairs[idx_b])
        shared = workers_a & workers_b
        others = tuple(sorted(workers_a.symmetric_difference(workers_b)))
        shared_worker = shared.pop()
        p_shared = error_rates[shared_worker]
        q_others = q[others]
        c_a = c_pair[tuple(sorted(pairs[idx_a]))]
        c_b = c_pair[tuple(sorted(pairs[idx_b]))]
        value = c_triple * p_shared * (1.0 - p_shared) * (2.0 * q_others - 1.0) / (c_a * c_b)
        cov[idx_a, idx_b] = value
        cov[idx_b, idx_a] = value
    return cov


@dataclass(frozen=True)
class ThreeWorkerResult:
    """Intermediate result of the 3-worker procedure for one worker.

    Carries everything Algorithm A2 needs to aggregate across triples: the
    point estimate, its standard deviation, and the partial derivatives with
    respect to the agreement rates involving the evaluated worker.
    """

    worker: int
    partners: tuple[int, int]
    error_rate: float
    deviation: float
    #: derivative of the estimate with respect to ``q_{worker, partner}``
    derivative_by_partner: dict[int, float]
    #: derivative with respect to the partners' mutual agreement rate
    derivative_partners: float
    status: EstimateStatus

    def interval(self, confidence: float) -> ConfidenceInterval:
        """The c-confidence interval implied by (error_rate, deviation)."""
        model = DeltaMethodModel(
            value=self.error_rate,
            gradient=np.array([1.0]),
            covariance=np.array([[self.deviation**2]]),
        )
        return model.interval(confidence)


def _triple_estimates(
    stats: AgreementStatistics,
    workers: tuple[int, int, int],
    clamp_margin: float,
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], int], int, dict[int, float], bool]:
    """Agreement rates, pair counts, triple count and plug-in error rates.

    Shared preparation for evaluating any worker of a triple.  Returns a
    clamping flag so callers can mark the estimate status.
    """
    i, j, k = workers
    keys = [tuple(sorted(p)) for p in ((i, j), (i, k), (j, k))]
    q: dict[tuple[int, int], float] = {}
    c_pair: dict[tuple[int, int], int] = {}
    clamped_any = False
    for key in keys:
        common = stats.common_count(*key)
        if common == 0:
            raise InsufficientDataError(
                f"workers {key} share no common task; the triple {workers} "
                "cannot be evaluated"
            )
        rate, clamped = clamp_agreement(stats.agreement_rate(*key), clamp_margin)
        clamped_any = clamped_any or clamped
        q[key] = rate
        c_pair[key] = common
    c_triple = stats.triple_common_count(i, j, k)
    # Plug-in point estimates for all three workers (needed by Lemma 3).
    error_rates: dict[int, float] = {}
    for worker in workers:
        others = [w for w in workers if w != worker]
        q_ij = q[tuple(sorted((worker, others[0])))]
        q_ik = q[tuple(sorted((worker, others[1])))]
        q_jk = q[tuple(sorted((others[0], others[1])))]
        estimate = error_rate_from_agreements(q_ij, q_ik, q_jk)
        error_rates[worker] = float(min(max(estimate, 0.0), 0.5))
    return q, c_pair, c_triple, error_rates, clamped_any


def evaluate_worker_in_triple(
    stats: AgreementStatistics,
    worker: int,
    partners: tuple[int, int],
    clamp_margin: float = MIN_AGREEMENT_MARGIN,
) -> ThreeWorkerResult:
    """Run the 3-worker procedure of Section III-B for one worker of a triple.

    This is Step 2 of Algorithm A2 — everything except the final conversion
    to a confidence interval, so the caller can aggregate multiple triples.
    """
    j1, j2 = partners
    if len({worker, j1, j2}) != 3:
        raise ConfigurationError("a triple requires three distinct workers")
    workers = (worker, j1, j2)
    q, c_pair, c_triple, error_rates, clamped = _triple_estimates(
        stats, workers, clamp_margin
    )
    key_ij = tuple(sorted((worker, j1)))
    key_ik = tuple(sorted((worker, j2)))
    key_jk = tuple(sorted((j1, j2)))
    q_ij, q_ik, q_jk = q[key_ij], q[key_ik], q[key_jk]

    estimate = error_rate_from_agreements(q_ij, q_ik, q_jk)
    gradient = error_rate_gradient(q_ij, q_ik, q_jk)
    covariance = agreement_covariance_matrix(q, c_pair, c_triple, error_rates, workers)
    # Theorem 1 with the pinned-order quadratic form (not BLAS g @ C @ g) so
    # the batched stage can replay the identical operation sequence.
    deviation = math.sqrt(max(quadratic_form_3(gradient, covariance), 0.0))

    status = EstimateStatus.CLAMPED if clamped else EstimateStatus.OK
    return ThreeWorkerResult(
        worker=worker,
        partners=(j1, j2),
        error_rate=estimate,
        deviation=deviation,
        derivative_by_partner={j1: float(gradient[0]), j2: float(gradient[1])},
        derivative_partners=float(gradient[2]),
        status=status,
    )


@dataclass(frozen=True)
class BatchedTripleArrays:
    """Raw per-triple outputs of the batched 3-worker procedure.

    All arrays are aligned with the requested pair list.  ``usable`` marks
    triples the scalar loop would have evaluated (the rest would raise
    :class:`~repro.exceptions.InsufficientDataError` there);
    ``needs_scalar`` marks usable triples whose batched evaluation hit a
    non-finite anomaly and must be delegated to the scalar path (should be
    unreachable; kept as a safety net so anomalies surface exactly as the
    sequential loop would surface them).
    """

    usable: np.ndarray
    needs_scalar: np.ndarray
    estimates: np.ndarray
    deviations: np.ndarray
    d_partner_a: np.ndarray
    d_partner_b: np.ndarray
    d_partners: np.ndarray
    clamped: np.ndarray

    def slice(self, start: int, stop: int) -> "BatchedTripleArrays":
        """The ``[start, stop)`` window — one worker's rows of a
        cross-worker batch."""
        return BatchedTripleArrays(
            usable=self.usable[start:stop],
            needs_scalar=self.needs_scalar[start:stop],
            estimates=self.estimates[start:stop],
            deviations=self.deviations[start:stop],
            d_partner_a=self.d_partner_a[start:stop],
            d_partner_b=self.d_partner_b[start:stop],
            d_partners=self.d_partners[start:stop],
            clamped=self.clamped[start:stop],
        )


def evaluate_triples_batched_arrays(
    stats: AgreementStatistics,
    worker: int | np.ndarray,
    pairs: list[tuple[int, int]],
    clamp_margin: float = MIN_AGREEMENT_MARGIN,
) -> BatchedTripleArrays:
    """Array-level core of :func:`evaluate_triples_batched`.

    The m-worker estimator consumes these arrays directly (building its
    :class:`~repro.types.TripleEstimate` records without an intermediate
    :class:`ThreeWorkerResult` per triple); the public wrapper materializes
    the per-triple result objects.  See :func:`evaluate_triples_batched`
    for the bit-identity contract.

    ``worker`` may be a single id (all triples evaluate that worker) or an
    array aligned with ``pairs`` — the cross-worker form in which
    ``MWorkerEstimator.evaluate_all`` concatenates every worker's triples
    into one stage invocation.  Both forms gather pre-clamped rates,
    ``2q - 1`` terms and clamp flags from the backend's batch-level caches
    (:meth:`~repro.core.agreement.AgreementStatistics.triple_stage_inputs_fast`),
    so a vectorized backend is required.
    """
    if not stats.has_dense_backend:
        raise ConfigurationError(
            "evaluate_triples_batched requires a vectorized statistics "
            "backend; use AgreementStatistics.precompute or backend='dense'"
        )
    if not pairs:
        empty = np.zeros(0)
        empty_mask = np.zeros(0, dtype=bool)
        return BatchedTripleArrays(
            empty_mask, empty_mask, empty, empty, empty, empty, empty, empty_mask
        )
    partners_a = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
    partners_b = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
    multi_worker = np.ndim(worker) != 0
    if multi_worker:
        workers = np.asarray(worker, dtype=np.int64)
        if workers.shape != partners_a.shape:
            raise ConfigurationError(
                "a worker array must have one entry per triple"
            )
        distinct = (
            (workers != partners_a)
            & (workers != partners_b)
            & (partners_a != partners_b)
        )
        if not bool(distinct.all()):
            raise ConfigurationError("a triple requires three distinct workers")
    else:
        for j1, j2 in pairs:
            if len({worker, j1, j2}) != 3:
                raise ConfigurationError(
                    "a triple requires three distinct workers"
                )
    (
        c_1, c_2, c_3,
        q_1, q_2, q_3,
        t_1, t_2, t_3,
        clamped_1, clamped_2, clamped_3,
        c_t,
    ) = stats.triple_stage_inputs_fast(
        worker, partners_a, partners_b, clamp_margin
    )
    usable = (c_1 > 0) & (c_2 > 0) & (c_3 > 0)
    clamped = clamped_1 | clamped_2 | clamped_3

    degenerate = usable & ((q_1 <= 0.5) | (q_2 <= 0.5) | (q_3 <= 0.5))
    if bool(degenerate.any()):
        # The sequential loop raises at the first degenerate triple; replay
        # that triple through the scalar path for the identical exception.
        first = int(np.flatnonzero(degenerate)[0])
        first_worker = int(workers[first]) if multi_worker else worker
        evaluate_worker_in_triple(
            stats, first_worker, pairs[first], clamp_margin=clamp_margin
        )
        raise DegenerateEstimateError(  # pragma: no cover - scalar raises above
            "batched triple stage detected a degenerate agreement rate"
        )

    def eq1(t_a: np.ndarray, t_b: np.ndarray, t_c: np.ndarray) -> np.ndarray:
        # 0.5 - 0.5 * sqrt((2 q_a - 1)(2 q_b - 1) / (2 q_c - 1)), elementwise
        # in error_rate_from_agreements' operation order (the 2q - 1 terms
        # are shared subexpressions across the three plug-in estimates).
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = t_a * t_b / t_c
            return 0.5 - 0.5 * np.sqrt(ratio)

    def clip_rate(estimate: np.ndarray) -> np.ndarray:
        # float(min(max(estimate, 0.0), 0.5)) elementwise.
        clipped = np.where(estimate < 0.0, 0.0, estimate)
        return np.where(clipped > 0.5, 0.5, clipped)

    # Eq. (1) for the evaluated worker, and the plug-in rates of all three
    # triple members (Lemma 3 needs the partners' too).
    estimates = eq1(t_1, t_2, t_3)
    p_worker = clip_rate(estimates)
    p_a = clip_rate(eq1(t_1, t_3, t_2))
    p_b = clip_rate(eq1(t_2, t_3, t_1))

    # Lemma 2 gradients (same spelled-out cube as error_rate_gradient).
    a = q_1 - 0.5
    b = q_2 - 0.5
    c = q_3 - 0.5
    c_cubed = (c * c) * c
    with np.errstate(divide="ignore", invalid="ignore"):
        d_1 = -np.sqrt(b / (8.0 * a * c))
        d_2 = -np.sqrt(a / (8.0 * b * c))
        d_3 = np.sqrt(a * b / (8.0 * c_cubed))

    # Lemma 1/3 covariance entries, in agreement_covariance_matrix's order.
    def smoothed(q: np.ndarray, common: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return (q * common + 1.0) / (common + 2.0)

    def diagonal(q: np.ndarray, common: np.ndarray) -> np.ndarray:
        rate = smoothed(q, common)
        with np.errstate(divide="ignore", invalid="ignore"):
            return rate * (1.0 - rate) / common

    with np.errstate(divide="ignore", invalid="ignore"):
        cov_01 = c_t * p_worker * (1.0 - p_worker) * t_3 / (c_1 * c_2)
        cov_02 = c_t * p_a * (1.0 - p_a) * t_2 / (c_1 * c_3)
        cov_12 = c_t * p_b * (1.0 - p_b) * t_1 / (c_2 * c_3)

    covariances = np.empty((len(pairs), 3, 3))
    covariances[:, 0, 0] = diagonal(q_1, c_1)
    covariances[:, 1, 1] = diagonal(q_2, c_2)
    covariances[:, 2, 2] = diagonal(q_3, c_3)
    covariances[:, 0, 1] = covariances[:, 1, 0] = cov_01
    covariances[:, 0, 2] = covariances[:, 2, 0] = cov_02
    covariances[:, 1, 2] = covariances[:, 2, 1] = cov_12
    gradients = np.stack([d_1, d_2, d_3], axis=1)
    deviations = batched_deviations_3(gradients, covariances)

    finite = (
        np.isfinite(estimates)
        & np.isfinite(deviations)
        & np.all(np.isfinite(gradients), axis=1)
    )
    return BatchedTripleArrays(
        usable=usable,
        needs_scalar=usable & ~finite,
        estimates=estimates,
        deviations=deviations,
        d_partner_a=d_1,
        d_partner_b=d_2,
        d_partners=d_3,
        clamped=clamped,
    )


def evaluate_triples_batched(
    stats: AgreementStatistics,
    worker: int,
    pairs: list[tuple[int, int]],
    clamp_margin: float = MIN_AGREEMENT_MARGIN,
) -> list[ThreeWorkerResult | None]:
    """Run the 3-worker procedure on every triple of a batch in one shot.

    The batched equivalent of calling :func:`evaluate_worker_in_triple` once
    per ``(worker, j1, j2)`` triple: the agreement rates of all triples are
    stacked into arrays, and the Eq. (1) estimates, Lemma-2 gradients,
    Lemma-1/3 covariance entries and Theorem-1 deviations are evaluated with
    elementwise NumPy arithmetic that replays the scalar code's exact IEEE
    operation sequence — every returned :class:`ThreeWorkerResult` is
    bit-identical to its scalar counterpart.  Requires a dense statistics
    backend.

    Divergences from the scalar calls are mapped, per triple, to the same
    observable behavior:

    * a triple whose scalar evaluation would raise
      :class:`~repro.exceptions.InsufficientDataError` (some pair shares no
      task) yields ``None`` in its slot instead — callers aggregating
      triples skip those either way;
    * a triple whose scalar evaluation would raise any other error (e.g.
      :class:`~repro.exceptions.DegenerateEstimateError` when
      ``clamp_margin <= 0`` lets a rate hit 1/2 exactly) is re-evaluated
      through the scalar path so the identical exception propagates, and it
      is raised at the same batch position the sequential loop would have
      reached first.
    """
    arrays = evaluate_triples_batched_arrays(
        stats, worker, pairs, clamp_margin=clamp_margin
    )
    results: list[ThreeWorkerResult | None] = [None] * len(pairs)
    for t in np.flatnonzero(arrays.usable):
        t = int(t)
        if arrays.needs_scalar[t]:
            results[t] = evaluate_worker_in_triple(
                stats, worker, pairs[t], clamp_margin=clamp_margin
            )
            continue
        j1, j2 = pairs[t]
        results[t] = ThreeWorkerResult(
            worker=worker,
            partners=(j1, j2),
            error_rate=float(arrays.estimates[t]),
            deviation=float(arrays.deviations[t]),
            derivative_by_partner={
                j1: float(arrays.d_partner_a[t]),
                j2: float(arrays.d_partner_b[t]),
            },
            derivative_partners=float(arrays.d_partners[t]),
            status=EstimateStatus.CLAMPED if arrays.clamped[t] else EstimateStatus.OK,
        )
    return results


def evaluate_three_workers(
    matrix: ResponseMatrix,
    confidence: float,
    workers: tuple[int, int, int] | None = None,
    clamp_margin: float = MIN_AGREEMENT_MARGIN,
    backend: str = "auto",
) -> list[WorkerErrorEstimate]:
    """Algorithm A1: confidence intervals for all three workers of a triple.

    Works for both regular and non-regular data — the only difference is the
    covariance formula, and Lemma 3 covers both.

    Parameters
    ----------
    matrix:
        Binary response data.
    confidence:
        Confidence level ``c`` of the intervals.
    workers:
        The triple to evaluate; defaults to workers ``(0, 1, 2)`` and is
        required when the matrix has more than three workers.
    clamp_margin:
        How far above 1/2 agreement rates are forced to stay (numerical
        guard around the Eq. (1) singularity).
    backend:
        Agreement-statistics backend (``"auto"``, ``"dense"``, ``"sparse"``,
        ``"bitset"`` or ``"dict"``); the choice does not affect the produced
        intervals.
    """
    if not matrix.is_binary:
        raise ConfigurationError(
            "evaluate_three_workers handles binary data; use the k-ary "
            "estimator for higher arities"
        )
    if workers is None:
        if matrix.n_workers != 3:
            raise ConfigurationError(
                "matrix has more than three workers; pass the triple explicitly"
            )
        workers = (0, 1, 2)
    if len(set(workers)) != 3:
        raise ConfigurationError("the three workers must be distinct")
    # Triple-scoped query: under "auto", skip building a full dense backend
    # for large matrices just to read three workers' statistics.
    stats = AgreementStatistics(
        matrix=matrix, backend=resolve_triple_backend(matrix, backend)
    )
    results = []
    for worker in workers:
        partners = tuple(w for w in workers if w != worker)
        triple_result = evaluate_worker_in_triple(
            stats, worker, (partners[0], partners[1]), clamp_margin=clamp_margin
        )
        interval = triple_result.interval(confidence)
        # The 3-worker case has exactly one (implicit) triple; materialize it
        # so ``triples`` and ``weights`` stay aligned, as the
        # WorkerErrorEstimate invariant requires.
        implicit_triple = TripleEstimate(
            worker=worker,
            partners=triple_result.partners,
            error_rate=triple_result.error_rate,
            deviation=triple_result.deviation,
            derivatives=dict(triple_result.derivative_by_partner),
            status=triple_result.status,
        )
        results.append(
            WorkerErrorEstimate(
                worker=worker,
                interval=interval,
                n_tasks=matrix.n_tasks_of(worker),
                triples=(implicit_triple,),
                weights=(1.0,),
                status=triple_result.status,
            )
        )
    return results
