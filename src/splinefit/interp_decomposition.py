"""Weighted least squares as a convex combination of interpolants.

Enumerates all size-n subsets of the m data points, solves the admissible
interpolation problems, and reassembles the weighted least-squares
approximant as ``sum_K lam_K v_K / sum_K lam_K`` with subset weights
``lam_K = (prod of point weights over K) * det(B_K)^2``. The same
machinery yields the derivative identity with its pointwise bounds, the
large-weight limit solutions, and the iteratively reweighted route to
``l^p`` fitting.

This module is a verification oracle: the subset count is exponential, so
:func:`decompose` refuses problems past a combinatorial cap. Production
fitting goes through :mod:`splinefit.wls`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, RankDeficiencyError, SubsetCapError
from .spline_core import SplineFunction, WeightedPointCloud, collocation_matrix
from .wls import solve_wls

__all__ = [
    "SubsetCertificate",
    "Decomposition",
    "enumerate_subsets",
    "interpolate_subset",
    "decompose",
    "weight_limit_solution",
    "irls_solve",
    "SUBSET_CAP",
    "SINGULARITY_RTOL",
]

# Refuse enumerations with more than this many subsets.
SUBSET_CAP = 10**6

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


def enumerate_subsets(m: int, n: int, cap: int = SUBSET_CAP):
    """All size-``n`` subsets of ``{0..m-1}`` in lexicographic order.

    Raises :class:`SubsetCapError` when the count ``C(m, n)`` exceeds ``cap``.
    """
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
    total = math.comb(m, n)
    if total > cap:
        raise SubsetCapError(f"C({m}, {n}) = {total} exceeds the cap {cap}")
    return itertools.combinations(range(m), n)


def _subset_certificate(B, weights, values, subset) -> SubsetCertificate:
    BK = B[np.asarray(subset)]
    hadamard = float(np.prod(np.max(np.abs(BK), axis=1)))
    det = float(np.linalg.det(BK))
    admissible = abs(det) > SINGULARITY_RTOL * hadamard and hadamard > 0.0
    w_K = float(np.prod(weights[np.asarray(subset)]))
    lam = w_K * det * det
    coefficients = None
    if admissible:
        coefficients = np.linalg.solve(BK, values[np.asarray(subset)])
    else:
        lam = 0.0
    return SubsetCertificate(
        subset=tuple(subset), det=det, admissible=admissible, lam=lam,
        coefficients=coefficients,
    )


def interpolate_subset(space, cloud: WeightedPointCloud, subset) -> SubsetCertificate:
    """Solve (or reject) the interpolation problem on the given index subset."""
    subset = tuple(int(i) for i in subset)
    if len(subset) != space.dim:
        raise ValueError(
            f"subset size {len(subset)} must equal the space dimension {space.dim}"
        )
    B = collocation_matrix(space, cloud.sites)
    return _subset_certificate(B, cloud.weights, cloud.values, subset)


class Decomposition:
    """All subset certificates of a cloud with their convex weights.

    ``normalizer`` is the sum of ``lam_K`` over admissible subsets in
    lexicographic order; by the Cauchy-Binet identity it equals
    ``det(B^T W B)``, which is kept for cross-checking.
    """

    def __init__(self, space, cloud, certificates, normalizer, gram_det):
        self.space = space
        self.cloud = cloud
        self.certificates = tuple(certificates)
        self.normalizer = normalizer
        self.gram_det = gram_det

    @property
    def admissible(self) -> tuple[SubsetCertificate, ...]:
        return tuple(c for c in self.certificates if c.admissible)

    @property
    def num_admissible(self) -> int:
        return sum(1 for c in self.certificates if c.admissible)

    def cauchy_binet_residual(self) -> float:
        """Relative gap between the normalizer and ``det(B^T W B)``."""
        scale = max(abs(self.gram_det), abs(self.normalizer))
        return abs(self.normalizer - self.gram_det) / scale

    def reconstruct(self, x) -> np.ndarray:
        """Value of the weighted least-squares approximant at ``x``."""
        idx, basis = self.space.eval_basis(x)
        acc = np.zeros(self.cloud.dim_values)
        for cert in self.certificates:
            if cert.admissible:
                acc += cert.lam * (basis @ cert.coefficients[idx])
        return acc / self.normalizer

    def reconstruct_derivative(self, x, alpha) -> np.ndarray:
        """Derivative of the approximant as the weighted average of interpolant derivatives."""
        idx, basis = self.space.eval_basis_derivatives(x, alpha)
        acc = np.zeros(self.cloud.dim_values)
        for cert in self.certificates:
            if cert.admissible:
                acc += cert.lam * (basis @ cert.coefficients[idx])
        return acc / self.normalizer

    def derivative_bounds(self, x, alpha) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise min and max of the interpolant derivatives at ``x``."""
        idx, basis = self.space.eval_basis_derivatives(x, alpha)
        lo = np.full(self.cloud.dim_values, np.inf)
        hi = np.full(self.cloud.dim_values, -np.inf)
        for cert in self.certificates:
            if cert.admissible:
                val = basis @ cert.coefficients[idx]
                np.minimum(lo, val, out=lo)
                np.maximum(hi, val, out=hi)
        return lo, hi

    def to_function(self) -> SplineFunction:
        """The approximant itself, reassembled from the interpolant coefficients."""
        acc = np.zeros((self.space.dim, self.cloud.dim_values))
        for cert in self.certificates:
            if cert.admissible:
                acc += cert.lam * cert.coefficients
        return SplineFunction(self.space, acc / self.normalizer)


def decompose(space, cloud: WeightedPointCloud, cap: int = SUBSET_CAP) -> Decomposition:
    """Enumerate all subset interpolation problems of the cloud.

    Certificates are produced in lexicographic subset order and summed in
    that order, so results are deterministic. Raises
    :class:`RankDeficiencyError` when no subset is admissible (the weighted
    least-squares problem itself is rank deficient).
    """
    n, m = space.dim, cloud.m
    if n > m:
        raise ValueError(f"space dimension {n} exceeds the number of points {m}")
    B = collocation_matrix(space, cloud.sites)
    certificates = []
    normalizer = 0.0
    for subset in enumerate_subsets(m, n, cap):
        cert = _subset_certificate(B, cloud.weights, cloud.values, subset)
        certificates.append(cert)
        normalizer += cert.lam

    if normalizer <= 0.0 or not np.isfinite(normalizer):
        raise RankDeficiencyError(
            "no admissible interpolation subset: the least-squares problem is rank deficient"
        )
    gram = B.T @ (B * cloud.weights[:, None])
    gram_det = float(np.linalg.det(gram))
    dec = Decomposition(space, cloud, certificates, normalizer, gram_det)
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
    subset = np.asarray(sorted(int(i) for i in subset), dtype=int)
    if subset.size > space.dim:
        raise ValueError(
            f"subset size {subset.size} exceeds the space dimension {space.dim}"
        )
    if subset.size and (subset[0] < 0 or subset[-1] >= cloud.m):
        raise ValueError("subset indices out of range")
    if np.unique(subset).size != subset.size:
        raise ValueError("subset indices must be distinct")
    weights = cloud.weights.copy()
    weights[subset] = magnitude
    B = collocation_matrix(space, cloud.sites)
    coeffs = solve_wls(B, weights, cloud.values)
    return SplineFunction(space, coeffs)


def irls_solve(
    space,
    cloud: WeightedPointCloud,
    p: float,
    max_iter: int,
    exponent_mode: str = "standard",
    delta: float = 1e-8,
):
    """Iteratively reweighted least squares for the ``l^p`` fitting problem.

    Starting from unit weights, each iteration solves a weighted
    least-squares problem and resets the weights to ``max(delta, e_i)``
    raised to ``p - 2`` (``standard`` mode, the classical choice whose
    weighted objective matches the ``l^p`` one) or to the halved exponent
    ``(p - 2) / 2`` (``half`` mode); the floor ``delta`` keeps the update
    stable. Returns the last iterate and the ``l^p`` objective value of
    every iterate.
    """
    if not 1.0 < p < 2.0:
        raise ValueError("p must lie strictly between 1 and 2")
    if max_iter < 1:
        raise ValueError("need at least one iteration")
    if delta <= 0:
        raise ValueError("delta must be strictly positive")
    if exponent_mode == "standard":
        exponent = p - 2.0
    elif exponent_mode == "half":
        exponent = (p - 2.0) / 2.0
    else:
        raise ValueError(f"unknown exponent mode {exponent_mode!r}")

    B = collocation_matrix(space, cloud.sites)
    f = cloud.values
    weights = np.ones(cloud.m)
    objective_trace = []
    coeffs = None
    for _ in range(max_iter):
        coeffs = solve_wls(B, weights, f)
        residual = B @ coeffs - f
        objective_trace.append(float(np.sum(np.abs(residual) ** p)))
        e = np.linalg.norm(residual, axis=1)
        weights = np.maximum(delta, e) ** exponent
    return SplineFunction(space, coeffs), objective_trace
