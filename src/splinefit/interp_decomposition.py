"""Weighted least squares as a convex combination of interpolants.

Enumerates all size-n subsets of the m data points, solves the admissible
interpolation problems, and reassembles the weighted least-squares
approximant as ``sum_K lam_K v_K / sum_K lam_K`` with subset weights
``lam_K = (prod of point weights over K) * det(B_K)^2``. The same
machinery yields the derivative identity with its pointwise bounds, the
large-weight limit solutions, and the iteratively reweighted route to
``l^p`` fitting.

This module is a verification oracle: the subset count is exponential, so
:func:`decompose` refuses problems past ``SUBSET_CAP`` subsets. Production
fitting goes through :mod:`splinefit.wls`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, RankDeficiencyError, SubsetCapError
from .spline_core import (
    SplineFunction, WeightedPointCloud, _integer, _point_indices, collocation_matrix
)
from .wls import solve_wls, weighted_solver

__all__ = [
    "SubsetCertificate",
    "Decomposition",
    "interpolate_subset",
    "decompose",
    "weight_limit_solution",
    "irls_solve",
    "SUBSET_CAP",
    "SINGULARITY_RTOL",
]

# Refuse enumerations with more than this many subsets.
SUBSET_CAP = 10**6

# IRLS floors each pointwise error at this before raising it to the power p - 2 < 0.
_IRLS_FLOOR = 1e-8

# A subset minor counts as singular when |det| falls below this factor times
# the product of its row max-norms (the Hadamard scale of the matrix).
SINGULARITY_RTOL = 1e-12


@dataclass(frozen=True)
class SubsetCertificate:
    """Outcome of one subset interpolation problem.

    ``lam`` is the convex-combination weight ``w_K * det^2``;
    ``coefficients`` holds the interpolant, present only when the subset
    minor is nonsingular within the threshold.
    """

    subset: tuple[int, ...]
    det: float
    admissible: bool
    lam: float
    coefficients: np.ndarray | None


def _subset_array(m: int, n: int) -> np.ndarray:
    """All size-``n`` subsets of ``{0..m-1}`` in lexicographic order, as a ``(C(m, n), n)`` array.

    Raises :class:`SubsetCapError` when ``C(m, n)`` exceeds ``SUBSET_CAP``.
    Built column by column: each row is repeated once per admissible next
    index, which runs from one past the row's last index up to ``m - n + j``
    for column ``j``, so the rows stay in lexicographic order.
    """
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
    total = math.comb(m, n)
    if total > SUBSET_CAP:
        raise SubsetCapError(f"C({m}, {n}) = {total} exceeds the cap {SUBSET_CAP}")
    K = np.arange(m - n + 1, dtype=np.intp)[:, None]
    for j in range(1, n):
        last = K[:, -1]
        counts = m - n + j - last
        start = np.repeat(last + 1 - (np.cumsum(counts) - counts), counts)
        K = np.repeat(K, counts, axis=0)
        K = np.column_stack([K, start + np.arange(len(K))])
    return K


# Subsets go through the sweep in chunks whose minors take about this many
# bytes: enough for the stacked LAPACK calls to pay off, small enough that
# the chunk's temporaries stay out of the peak memory.
_BATCH_BYTES = 1 << 18


def _solve_subsets(B, weights, values, K):
    """Per subset in the rows of ``K``: ``det``, admissibility and ``lam`` (zero
    where not admissible, overflowing without a warning); and the ``(A, n, d)``
    interpolant coefficients of the admissible subsets."""
    BK = B[K]
    hadamard = np.prod(np.max(np.abs(BK), axis=2), axis=1)
    det = np.linalg.det(BK)
    admissible = (np.abs(det) > SINGULARITY_RTOL * hadamard) & (hadamard > 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.prod(weights[K], axis=1) * det * det
    lam[~admissible] = 0.0
    coefficients = np.linalg.solve(BK[admissible], values[K[admissible]])
    return det, admissible, lam, coefficients


def interpolate_subset(space, cloud: WeightedPointCloud, subset) -> SubsetCertificate:
    """Solve (or reject) the interpolation problem on the given index subset."""
    subset = tuple(_point_indices(subset, cloud.m).tolist())
    if len(subset) != space.dim:
        raise ValueError(
            f"subset size {len(subset)} must equal the space dimension {space.dim}"
        )
    B = collocation_matrix(space, cloud.sites)
    K = np.array([subset])
    return _certificates(K, *_solve_subsets(B, cloud.weights, cloud.values, K))[0]


def _certificates(subsets, dets, admissible, lams, coefficients) -> tuple[SubsetCertificate, ...]:
    interpolants = iter(coefficients)
    return tuple(
        SubsetCertificate(tuple(K), det, ok, lam, next(interpolants) if ok else None)
        for K, det, ok, lam in zip(
            subsets.tolist(), dets.tolist(), admissible.tolist(), lams.tolist())
    )


@dataclass(eq=False, repr=False)
class Decomposition:
    """All subset interpolation problems of a cloud with their convex weights.

    Row ``k`` of ``subsets`` (``(N, n)`` point indices), ``dets``, ``lams``
    and ``admissible_mask`` is the ``k``-th subset in lexicographic order;
    ``coefficients`` stacks the admissible interpolants, ``(A, n, d)``.
    ``normalizer`` is the sum of ``lam_K`` in lexicographic order; by the
    Cauchy-Binet identity it equals ``det(B^T W B)``, kept for cross-checking.
    The approximant's coefficients are ``sum_K lam_K c_K / normalizer``, so
    evaluating it costs one spline evaluation, whatever the subset count.
    """

    space: object
    cloud: WeightedPointCloud
    subsets: np.ndarray
    dets: np.ndarray
    lams: np.ndarray
    admissible_mask: np.ndarray
    coefficients: np.ndarray
    normalizer: float
    gram_det: float

    @cached_property
    def certificates(self) -> tuple[SubsetCertificate, ...]:
        """One certificate per subset in lexicographic order, built on first access."""
        return _certificates(self.subsets, self.dets, self.admissible_mask, self.lams,
                             self.coefficients)

    @property
    def num_admissible(self) -> int:
        return len(self.coefficients)

    def cauchy_binet_residual(self) -> float:
        """Relative gap between the normalizer and ``det(B^T W B)``."""
        scale = max(abs(self.gram_det), abs(self.normalizer))
        return abs(self.normalizer - self.gram_det) / scale

    def reconstruct(self, x) -> np.ndarray:
        """Value of the weighted least-squares approximant at ``x``."""
        return self.to_function().evaluate(x)

    def reconstruct_derivative(self, x, alpha) -> np.ndarray:
        """Derivative of the approximant as the weighted average of interpolant derivatives."""
        return self.to_function().evaluate_derivative(x, alpha)

    def derivative_bounds(self, x, alpha) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise min and max of the interpolant derivatives at ``x``."""
        idx, basis = self.space.eval_basis_derivatives(x, alpha)
        values = basis @ self.coefficients[:, idx]
        return values.min(axis=0), values.max(axis=0)

    def to_function(self) -> SplineFunction:
        """The approximant itself, reassembled from the interpolant coefficients."""
        lams = self.lams[self.admissible_mask]
        return SplineFunction(
            self.space, np.tensordot(lams, self.coefficients, axes=1) / self.normalizer
        )


def decompose(space, cloud: WeightedPointCloud) -> Decomposition:
    """Enumerate all subset interpolation problems of the cloud.

    Subsets go in lexicographic order, in chunks of about ``_BATCH_BYTES``
    of minors, each one stacked determinant and one stacked solve over its
    admissible minors; the normalizer is summed in that order, so results
    are deterministic. Raises :class:`RankDeficiencyError` when no subset is
    admissible (the least-squares problem is rank deficient), and
    :class:`NumericError` when the weights ``lam_K`` leave the floating-point range.
    """
    n, m = space.dim, cloud.m
    if n > m:
        raise ValueError(f"space dimension {n} exceeds the number of points {m}")
    B = collocation_matrix(space, cloud.sites)
    subsets = _subset_array(m, n)
    step = max(1, _BATCH_BYTES // (8 * n * n))
    chunks = [_solve_subsets(B, cloud.weights, cloud.values, subsets[i : i + step])
              for i in range(0, len(subsets), step)]
    dets, admissible, lams, coefficients = (np.concatenate(a) for a in zip(*chunks))
    # One by one in lexicographic order, as a running sum; np.sum adds pairwise.
    with np.errstate(over="ignore"):
        normalizer = float(np.add.accumulate(lams)[-1])

    if not admissible.any():
        raise RankDeficiencyError(
            "no admissible interpolation subset: the least-squares problem is rank deficient"
        )
    if not 0.0 < normalizer < np.inf:
        raise NumericError(
            f"subset weights lam_K = prod(w) * det^2 {'overflow' if normalizer else 'underflow'}:"
            f" their sum over {len(coefficients)} admissible subsets is {normalizer!r}"
        )
    gram = B.T @ (B * cloud.weights[:, None])
    gram_det = float(np.linalg.det(gram))
    dec = Decomposition(space, cloud, subsets, dets, lams, admissible, coefficients,
                        normalizer, gram_det)
    # Cauchy-Binet identity ties the subset sweep to the assembled system.
    if not dec.cauchy_binet_residual() < 1e-6:
        raise NumericError(
            f"Cauchy-Binet mismatch: sum lam = {normalizer!r}, det gram = {gram_det!r}"
        )
    return dec


def weight_limit_solution(space, cloud: WeightedPointCloud, subset, magnitude: float) -> SplineFunction:
    """Weighted least-squares fit with the weights on ``subset`` replaced by ``magnitude``.

    As the magnitude grows this converges to the large-weight limit: the
    interpolant of the subset points when the subset has full size, and a
    reduced convex combination over the remaining points otherwise.
    """
    if magnitude <= 0:
        raise ValueError("magnitude must be strictly positive")
    subset = np.sort(_point_indices(subset, cloud.m))
    if subset.size > space.dim:
        raise ValueError(
            f"subset size {subset.size} exceeds the space dimension {space.dim}"
        )
    if np.unique(subset).size != subset.size:
        raise ValueError("subset indices must be distinct")
    weights = cloud.weights.copy()
    weights[subset] = magnitude
    coeffs = solve_wls(space.basis_matrix(cloud.sites), weights, cloud.values)
    return SplineFunction(space, coeffs)


def irls_solve(space, cloud: WeightedPointCloud, p: float, max_iter: int):
    """Iteratively reweighted least squares for the ``l^p`` fitting problem.

    Starting from unit weights, each iteration solves a weighted
    least-squares problem and resets the weights to ``max(1e-8, e_i)``
    raised to ``p - 2``, the classical choice whose weighted objective
    matches the ``l^p`` one; the floor keeps the update stable. Returns the
    last iterate and the ``l^p`` objective value of every iterate.
    """
    if not 1.0 < p < 2.0:
        raise ValueError("p must lie strictly between 1 and 2")
    if _integer(max_iter, "max_iter") < 1:
        raise ValueError("need at least one iteration")

    B = space.basis_matrix(cloud.sites)
    f = cloud.values
    solve = weighted_solver(B)
    weights = np.ones(cloud.m)
    objective_trace = []
    coeffs = None
    for _ in range(max_iter):
        coeffs = solve(weights, f)
        residual = B @ coeffs - f
        objective_trace.append(float(np.sum(np.abs(residual) ** p)))
        e = np.linalg.norm(residual, axis=1)
        weights = np.maximum(_IRLS_FLOOR, e) ** (p - 2.0)
    return SplineFunction(space, coeffs), objective_trace
