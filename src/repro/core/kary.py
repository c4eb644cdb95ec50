"""Algorithm A3: 3-worker k-ary non-regular confidence intervals.

The k-ary estimator recovers every entry of each worker's ``k x k``
response-probability (confusion) matrix ``P_i``, with confidence intervals,
without gold labels.  The machinery:

* the joint response counts of the three workers are collected in a
  ``(k+1)^3`` tensor ``Counts`` (index 0 = "did not attempt");
* pairwise response-frequency matrices ``R_ij`` relate to the unknowns via
  ``R_ij = P_i^T S_D P_j`` (Lemma 6);
* the product ``R_12 R_32^{-1} R_31`` equals ``V_1^T V_1`` with
  ``V_1 = S_D^{1/2} P_1`` (Lemma 7), so a symmetric square root recovers
  ``V_1`` up to an unknown rotation ``U``;
* conditional response-frequency matrices given the third worker's response
  diagonalize in the basis of ``U`` (Lemma 8), which pins down ``U`` (up to
  row permutation, fixed by the diagonal-dominance assumption);
* confidence intervals come from Theorem 1 with the multinomial covariance
  of the counts (Lemma 9) and numerically computed derivatives of the whole
  ``ProbEstimate`` pipeline with respect to each count cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    DegenerateEstimateError,
    InsufficientDataError,
)
from repro.core.delta_method import confidence_interval_from_moments
from repro.stats.linalg import align_rows_to_diagonal
from repro.data.dense_backend import resolve_triple_backend
from repro.data.response_matrix import ResponseMatrix
from repro.types import (
    EstimateStatus,
    KaryWorkerEstimate,
    ResponseProbabilityEstimate,
)

__all__ = [
    "prob_estimate",
    "response_frequency_matrices",
    "count_covariance",
    "KaryEstimator",
    "evaluate_kary_triple",
]


# --------------------------------------------------------------------------- #
# Point estimation (the ProbEstimate procedure)
# --------------------------------------------------------------------------- #


def _attempt_pattern_total(counts: np.ndarray, pattern: tuple[bool, bool, bool]) -> float:
    """Total number of tasks attempted by exactly the workers in ``pattern``.

    ``pattern[t]`` is True when worker ``t+1`` attempted the task.  This sums
    the count cells whose coordinate is non-zero exactly where the pattern
    says so.
    """
    k = counts.shape[0] - 1
    axes = []
    for attempted in pattern:
        axes.append(range(1, k + 1) if attempted else (0,))
    total = 0.0
    for a in axes[0]:
        for b in axes[1]:
            for c in axes[2]:
                total += counts[a, b, c]
    return total


def response_frequency_matrices(
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 2 of Algorithm A3: the pairwise response-frequency matrices.

    Returns ``(R_12, R_23, R_31)`` where ``R_ab[x, y]`` estimates the
    probability that worker ``a`` responds ``x`` and worker ``b`` responds
    ``y`` on a task both attempted.
    """
    k = counts.shape[0] - 1
    n_123 = _attempt_pattern_total(counts, (True, True, True))
    n_12 = _attempt_pattern_total(counts, (True, True, False))
    n_23 = _attempt_pattern_total(counts, (False, True, True))
    n_31 = _attempt_pattern_total(counts, (True, False, True))

    denom_12 = n_123 + n_12
    denom_23 = n_123 + n_23
    denom_31 = n_123 + n_31
    for name, denom in (("(1,2)", denom_12), ("(2,3)", denom_23), ("(3,1)", denom_31)):
        if denom <= 0:
            raise InsufficientDataError(
                f"worker pair {name} shares no common task; the k-ary "
                "estimator needs overlap between every pair"
            )

    r_12 = np.zeros((k, k))
    r_23 = np.zeros((k, k))
    r_31 = np.zeros((k, k))
    for j1 in range(1, k + 1):
        for j2 in range(1, k + 1):
            r_12[j1 - 1, j2 - 1] = counts[j1, j2, :].sum() / denom_12
            r_23[j1 - 1, j2 - 1] = counts[:, j1, j2].sum() / denom_23
            r_31[j1 - 1, j2 - 1] = counts[j2, :, j1].sum() / denom_31
    return r_12, r_23, r_31


def _fix_row_signs(matrix: np.ndarray) -> np.ndarray:
    """Flip the sign of rows whose mass is predominantly negative.

    The rows of ``V_1 = S_D^{1/2} P_1`` are non-negative, but eigenvectors are
    recovered only up to sign, so a recovered row may come out globally
    negated.
    """
    fixed = matrix.copy()
    for row in range(fixed.shape[0]):
        if fixed[row].sum() < 0.0:
            fixed[row] = -fixed[row]
    return fixed


def _safe_inverse(matrix: np.ndarray, ridge: float = 1e-9) -> np.ndarray:
    """Matrix inverse with ridge and pseudo-inverse fallbacks.

    Sparse real datasets occasionally produce exactly singular response
    frequency matrices (e.g. a response value no worker ever used); the
    Moore-Penrose pseudo-inverse keeps the pipeline alive and the resulting
    degenerate estimates are flagged downstream.
    """
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.inv(matrix + ridge * np.eye(matrix.shape[0]))
    except np.linalg.LinAlgError:
        return np.linalg.pinv(matrix)


def prob_estimate(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``ProbEstimate`` procedure: point estimates of ``S^{1/2}_D P_i``.

    Parameters
    ----------
    counts:
        The ``(k+1, k+1, k+1)`` response count tensor for three workers
        (index 0 means "did not attempt").

    Returns
    -------
    (V1, V2, V3):
        Estimates of ``S_D^{1/2} P_i`` for the three workers.  Normalize each
        row to sum to one to obtain the response-probability matrices
        themselves (see :func:`normalize_rows`).
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 3 or len(set(counts.shape)) != 1:
        raise ConfigurationError(
            f"counts must be a cubic 3-D tensor, got shape {counts.shape}"
        )
    k = counts.shape[0] - 1
    if k < 2:
        raise ConfigurationError("counts tensor implies arity below 2")

    r_12, r_23, r_31 = response_frequency_matrices(counts)
    r_32 = r_23.T
    r_13 = r_31.T

    # Step 3: eigendecompose R_12 R_32^{-1} R_31 = V1^T V1 (Lemma 7).  The
    # product is symmetric positive semidefinite in expectation; finite-sample
    # noise breaks the symmetry slightly and, when eigenvalues repeat (which
    # happens for the paper's circulant confusion matrices), a non-symmetric
    # eigendecomposition returns complex-conjugate eigenvector pairs whose
    # real parts are parallel.  Symmetrizing first and using the unique
    # symmetric PSD square root avoids both problems and equals the paper's
    # E D^{1/2} E^{-1} in expectation.
    product = r_12 @ _safe_inverse(r_32) @ r_31
    product = 0.5 * (product + product.T)
    eigenvalues, eigenvectors = np.linalg.eigh(product)
    eigenvalues = np.clip(eigenvalues, 1e-12, None)

    # Step 4: U1 = E D^{1/2} E^T; U2 = (U1^T)^{-1} R_12; U3 = (U1^T)^{-1} R_13.
    u_1 = (eigenvectors * np.sqrt(eigenvalues)) @ eigenvectors.T
    u_1_t_inv = _safe_inverse(u_1.T)
    u_2 = u_1_t_inv @ r_12
    u_3 = u_1_t_inv @ r_13

    # Steps 5-6: recover the rotation U from the conditional frequency
    # matrices given worker 3's response.  Each matrix
    # N_j3 = (U1^T)^{-1} R_{1,2|3=j3} U2^{-1} equals U^T W_j3 U for a diagonal
    # W_j3 (Lemma 8), so the eigenvectors of any N_j3 recover the rows of U —
    # provided the eigenvalues (worker 3's response probabilities for column
    # j3) are distinct.  The paper's confusion matrices contain repeated
    # column values, which makes single-j3 recovery degenerate, so in addition
    # to the paper's per-j3 candidates we form one from a generic linear
    # combination of all the N_j3 (whose eigenvalues are distinct for generic
    # weights), score every candidate by how well it jointly diagonalizes all
    # the N_j3, and average the candidates that score close to the best.
    u_2_inv = _safe_inverse(u_2)
    conditional_matrices: list[np.ndarray] = []
    for j3 in range(1, k + 1):
        n_j3 = counts[1:, 1:, j3].sum()
        if n_j3 <= 0:
            continue
        conditional = counts[1:, 1:, j3] / n_j3
        n_matrix = u_1_t_inv @ conditional @ u_2_inv
        # Symmetrize: N_j3 is symmetric in expectation and eigh then gives
        # orthonormal eigenvectors.
        conditional_matrices.append(0.5 * (n_matrix + n_matrix.T))
    if not conditional_matrices:
        raise InsufficientDataError(
            "no task was attempted by all three workers; the k-ary estimator "
            "needs three-way overlap"
        )

    def rotation_candidate(matrix: np.ndarray) -> np.ndarray:
        _, eigvecs = np.linalg.eigh(matrix)
        return eigvecs.T  # rows of U, up to permutation and sign

    def joint_diagonalization_error(u_estimate: np.ndarray) -> float:
        total = 0.0
        for n_matrix in conditional_matrices:
            rotated = u_estimate @ n_matrix @ u_estimate.T
            off_diagonal = rotated - np.diag(np.diag(rotated))
            total += float(np.sum(off_diagonal**2))
        return total

    candidates = [rotation_candidate(n_matrix) for n_matrix in conditional_matrices]
    # Generic combination with fixed, incommensurate weights: its eigenvalues
    # are distinct whenever any weighting of worker 3's columns separates the
    # true labels, which holds for generic confusion matrices.
    generic_weights = np.cos(1.0 + np.arange(len(conditional_matrices)))
    combined = sum(
        weight * n_matrix
        for weight, n_matrix in zip(generic_weights, conditional_matrices)
    )
    candidates.append(rotation_candidate(combined))

    scores = np.array([joint_diagonalization_error(c) for c in candidates])
    best = float(scores.min())
    tolerance = max(1.5 * best, best + 1e-12)
    v_1 = np.zeros((k, k))
    n_used = 0
    for candidate_u, score in zip(candidates, scores):
        if score > tolerance:
            continue
        candidate = _fix_row_signs(candidate_u @ u_1)
        candidate = align_rows_to_diagonal(candidate)
        v_1 += candidate
        n_used += 1
    v_1 /= n_used

    # Step 7: V2 and V3 from V1 and the pairwise frequency matrices.
    v_1_t_inv = _safe_inverse(v_1.T)
    v_2 = v_1_t_inv @ r_12
    v_3 = v_1_t_inv @ r_13
    return v_1, v_2, v_3


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Convert an estimate of ``S^{1/2}_D P`` into ``P`` by row normalization.

    Each row of ``S^{1/2}_D P`` sums to ``sqrt(S_a)``, so dividing a row by
    its sum recovers the response probabilities.  Rows with non-positive sum
    (badly estimated) fall back to the uniform distribution.
    """
    matrix = np.asarray(matrix, dtype=float)
    k = matrix.shape[1]
    normalized = np.empty_like(matrix)
    for row in range(matrix.shape[0]):
        total = matrix[row].sum()
        if total <= 1e-12:
            normalized[row] = np.full(k, 1.0 / k)
        else:
            normalized[row] = matrix[row] / total
    return normalized


def implied_selectivity(v_matrix: np.ndarray) -> np.ndarray:
    """Recover the selectivity vector ``S`` from an estimate of ``S^{1/2}_D P``.

    Row ``a`` of ``S^{1/2}_D P`` sums to ``sqrt(S_a)``; squaring the row sums
    and renormalizing yields the label prior.
    """
    sums = np.clip(np.asarray(v_matrix, dtype=float).sum(axis=1), 0.0, None)
    squared = sums**2
    total = squared.sum()
    if total <= 0:
        return np.full(v_matrix.shape[0], 1.0 / v_matrix.shape[0])
    return squared / total


# --------------------------------------------------------------------------- #
# Covariances of the count tensor (Lemma 9)
# --------------------------------------------------------------------------- #


def _pattern_of(cell: tuple[int, int, int]) -> tuple[bool, bool, bool]:
    """Attempt pattern (who answered) of a count cell."""
    return tuple(index != 0 for index in cell)  # type: ignore[return-value]


def count_covariance(
    counts: np.ndarray,
    cell_a: tuple[int, int, int],
    cell_b: tuple[int, int, int],
) -> float:
    """Lemma 9: covariance between two cells of the count tensor.

    Cells with different attempt patterns are uncorrelated (they are counted
    over disjoint task populations).  Cells sharing an attempt pattern follow
    a multinomial over the ``n`` tasks with that pattern: the diagonal term is
    ``C (n - C) / n`` and the off-diagonal term is ``- C_a C_b / n`` (the
    paper's statement omits the sign; the multinomial covariance is negative).
    """
    pattern_a = _pattern_of(cell_a)
    pattern_b = _pattern_of(cell_b)
    if pattern_a != pattern_b:
        return 0.0
    if not any(pattern_a):
        return 0.0
    n = _attempt_pattern_total(np.asarray(counts, dtype=float), pattern_a)
    if n <= 0:
        return 0.0
    value_a = float(counts[cell_a])
    if cell_a == cell_b:
        return value_a * (n - value_a) / n
    value_b = float(counts[cell_b])
    return -value_a * value_b / n


# --------------------------------------------------------------------------- #
# Full estimator with confidence intervals
# --------------------------------------------------------------------------- #


@dataclass
class KaryEstimator:
    """Configurable k-ary estimator (Algorithm A3).

    Parameters
    ----------
    confidence:
        Confidence level of the produced intervals.
    epsilon:
        Step used for the numerical derivatives of ``ProbEstimate`` with
        respect to each count cell (the paper suggests 0.01).
    normalize:
        When True (default), intervals are reported for the row-normalized
        response probabilities ``P_i``; when False, for ``S^{1/2}_D P_i``.
    backend:
        Where the Algorithm A3 count tensor comes from: any vectorized
        backend (``"dense"``, ``"sparse"``, ``"bitset"``) builds it with one
        ``np.bincount`` over encoded label indices (see
        :mod:`repro.data.dense_backend`), ``"dict"`` uses the original
        per-task Python loop, ``"auto"`` picks a vectorized backend for
        matrices small enough to materialize.  The tensors are exactly
        equal either way.

    A3 evaluates exactly one triple of workers, so there is no worker loop
    to shard and the estimator has no ``shards`` knob.
    """

    confidence: float = 0.95
    epsilon: float = 0.01
    normalize: bool = True
    backend: str = "auto"

    def __post_init__(self) -> None:
        if not (0.0 < self.confidence < 1.0):
            raise ConfigurationError(
                f"confidence must lie strictly between 0 and 1, got {self.confidence}"
            )
        if self.epsilon <= 0.0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")

    def evaluate(
        self,
        matrix: ResponseMatrix,
        workers: tuple[int, int, int] | None = None,
    ) -> list[KaryWorkerEstimate]:
        """Confidence intervals for all confusion-matrix entries of a triple.

        Parameters
        ----------
        matrix:
            Response data of any arity >= 2.
        workers:
            The triple of workers to evaluate; defaults to ``(0, 1, 2)`` when
            the matrix has exactly three workers.
        """
        if workers is None:
            if matrix.n_workers != 3:
                raise ConfigurationError(
                    "matrix has more than three workers; pass the triple explicitly"
                )
            workers = (0, 1, 2)
        if len(set(workers)) != 3:
            raise ConfigurationError("the three workers must be distinct")
        dense = resolve_triple_backend(matrix, self.backend)
        if dense is not None:
            counts = dense.response_count_tensor(workers)
        else:
            counts = matrix.response_count_tensor(workers)
        return self.evaluate_counts(counts, workers=workers, arity=matrix.arity)

    def evaluate_counts(
        self,
        counts: np.ndarray,
        workers: tuple[int, int, int] = (0, 1, 2),
        arity: int | None = None,
    ) -> list[KaryWorkerEstimate]:
        """Run Algorithm A3 directly on a pre-built count tensor."""
        counts = np.asarray(counts, dtype=float)
        k = counts.shape[0] - 1
        if arity is not None and arity != k:
            raise ConfigurationError(
                f"count tensor implies arity {k} but {arity} was declared"
            )

        status = EstimateStatus.OK
        try:
            v_estimates = prob_estimate(counts)
        except (InsufficientDataError, DegenerateEstimateError, np.linalg.LinAlgError):
            return [
                self._degenerate_worker(worker, k) for worker in workers
            ]

        # Numerical derivatives of every output entry w.r.t. every count cell
        # that belongs to a usable attempt pattern (two or more responders).
        cells = [
            cell
            for cell in itertools.product(range(k + 1), repeat=3)
            if sum(1 for index in cell if index != 0) >= 2
        ]
        derivatives = self._numerical_derivatives(counts, cells, k)
        covariance = self._cell_covariance_matrix(counts, cells)

        estimates: list[KaryWorkerEstimate] = []
        for worker_position, worker in enumerate(workers):
            v_point = v_estimates[worker_position]
            row_sums = v_point.sum(axis=1)
            entries: dict[tuple[int, int], ResponseProbabilityEstimate] = {}
            worker_status = status
            for a in range(k):
                scale = 1.0
                if self.normalize:
                    scale = 1.0 / row_sums[a] if row_sums[a] > 1e-9 else 0.0
                    if scale == 0.0:
                        worker_status = EstimateStatus.DEGENERATE
                for b in range(k):
                    gradient = derivatives[worker_position][:, a, b]
                    variance = float(gradient @ covariance @ gradient)
                    deviation = float(np.sqrt(max(variance, 0.0)))
                    mean = float(v_point[a, b])
                    interval = confidence_interval_from_moments(
                        mean * scale,
                        deviation * abs(scale) if scale != 0.0 else 1.0,
                        self.confidence,
                    )
                    entries[(a, b)] = ResponseProbabilityEstimate(
                        worker=worker,
                        true_label=a,
                        response_label=b,
                        interval=interval,
                        status=worker_status,
                    )
            estimates.append(
                KaryWorkerEstimate(
                    worker=worker, arity=k, entries=entries, status=worker_status
                )
            )
        return estimates

    # ------------------------------------------------------------------ #

    def _numerical_derivatives(
        self, counts: np.ndarray, cells: list[tuple[int, int, int]], k: int
    ) -> list[np.ndarray]:
        """Central differences of ``ProbEstimate`` w.r.t. each count cell.

        Returns one array per worker of shape ``(n_cells, k, k)``.
        """
        derivative_arrays = [np.zeros((len(cells), k, k)) for _ in range(3)]
        perturbed = counts.copy()
        for cell_index, cell in enumerate(cells):
            original = perturbed[cell]
            perturbed[cell] = original + self.epsilon
            try:
                plus = prob_estimate(perturbed)
            except (InsufficientDataError, DegenerateEstimateError, np.linalg.LinAlgError):
                plus = None
            perturbed[cell] = original - self.epsilon
            try:
                minus = prob_estimate(perturbed)
            except (InsufficientDataError, DegenerateEstimateError, np.linalg.LinAlgError):
                minus = None
            perturbed[cell] = original
            if plus is None or minus is None:
                continue
            for worker_position in range(3):
                derivative_arrays[worker_position][cell_index] = (
                    plus[worker_position] - minus[worker_position]
                ) / (2.0 * self.epsilon)
        return derivative_arrays

    def _cell_covariance_matrix(
        self, counts: np.ndarray, cells: list[tuple[int, int, int]]
    ) -> np.ndarray:
        """Covariance matrix of the selected count cells (Lemma 9)."""
        n_cells = len(cells)
        covariance = np.zeros((n_cells, n_cells))
        for a in range(n_cells):
            for b in range(a, n_cells):
                value = count_covariance(counts, cells[a], cells[b])
                covariance[a, b] = value
                covariance[b, a] = value
        return covariance

    def _degenerate_worker(self, worker: int, arity: int) -> KaryWorkerEstimate:
        """Uninformative full-range intervals when the data is unusable."""
        entries = {}
        for a in range(arity):
            for b in range(arity):
                interval = confidence_interval_from_moments(
                    1.0 / arity, 1.0, self.confidence
                )
                entries[(a, b)] = ResponseProbabilityEstimate(
                    worker=worker,
                    true_label=a,
                    response_label=b,
                    interval=interval,
                    status=EstimateStatus.DEGENERATE,
                )
        return KaryWorkerEstimate(
            worker=worker,
            arity=arity,
            entries=entries,
            status=EstimateStatus.DEGENERATE,
        )


def evaluate_kary_triple(
    matrix: ResponseMatrix,
    confidence: float,
    workers: tuple[int, int, int] | None = None,
    epsilon: float = 0.01,
) -> list[KaryWorkerEstimate]:
    """One-call wrapper around :class:`KaryEstimator` for one worker triple."""
    estimator = KaryEstimator(confidence=confidence, epsilon=epsilon)
    return estimator.evaluate(matrix, workers=workers)
