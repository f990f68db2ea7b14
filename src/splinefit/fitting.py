"""Marker-driven reweighted least-squares fitting.

Two drivers are provided. :func:`rwls_fit` iterates weighted least squares
in a fixed space, growing the weights of type I markers (features to
preserve) and shrinking those of type II markers (noise or outliers) until
both tolerance criteria hold. :func:`adaptive_rwls_fit` combines the weight
updates with dyadic refinement of a hierarchical spline space driven by a
pointwise error indicator, solving a thin-plate-penalized problem per level.

The module also carries the benchmark functions and the deterministic
point-cloud generators used by the experiment suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StagnationError
from .hierarchical import (
    HierarchicalSpace,
    collocation_hierarchical,
    mark_cells,
)
from .spline_core import SplineFunction, WeightedPointCloud, _integer, _point_indices
from .wls import (
    _BandQR,
    _csr_penalty,
    assemble_thin_plate,
    solve_penalized_wls,
    solve_wls,
    weighted_solver,
)

__all__ = [
    "FitConfig",
    "IterationRecord",
    "FitReport",
    "update_weights",
    "rwls_fit",
    "init_markers_from_ls",
    "adaptive_rwls_fit",
    "evaluate_3peaks",
    "evaluate_test_curves",
    "feature_weighted_sites",
    "top_gradient_markers",
    "curve_point_cloud",
    "CURVE_FEATURES",
    "CURVE_SIZES",
]

_ALPHA_MODES = ("error_driven", "fixed_factor", "irls")


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the reweighted fitting loops.

    ``tol_i`` and ``tol_ii`` are the marker tolerances, ``eps`` the adaptive
    refinement threshold, ``lam`` the thin-plate penalty weight, ``max_iter``
    the fixed-space iteration cap and ``max_levels`` the hierarchical level
    cap. ``alpha_mode`` selects the weight update: error driven
    (``1 + e`` up, ``1 / (1 + e)`` down), a fixed factor ``rho``, or the
    IRLS rule ``1 / max(delta, e)`` for type II markers.
    """

    tol_i: float = 1e-3
    tol_ii: float = 1e-3
    eps: float = 1e-3
    lam: float = 0.0
    max_iter: int = 100
    max_levels: int = 1
    alpha_mode: str = "error_driven"
    rho: float = 1.25
    delta: float = 1e-8

    def __post_init__(self):
        if not self.tol_i > 0 or not self.tol_ii > 0:
            raise ValueError("tolerances must be strictly positive")
        if not self.eps > 0:
            raise ValueError("eps must be strictly positive")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"penalty weight must be finite and non-negative, got {self.lam!r}")
        if _integer(self.max_iter, "max_iter") < 1 or _integer(self.max_levels, "max_levels") < 1:
            raise ValueError("iteration and level caps must be at least one")
        if self.alpha_mode not in _ALPHA_MODES:
            raise ValueError(f"alpha_mode must be one of {_ALPHA_MODES}")
        if self.alpha_mode == "fixed_factor" and not 1 < self.rho < np.inf:
            raise ValueError(f"fixed factor rho must be finite and exceed one, got {self.rho!r}")
        if not 0 < self.delta < np.inf:
            raise ValueError(f"delta must be finite and strictly positive, got {self.delta!r}")


@dataclass(frozen=True)
class IterationRecord:
    """One row of a fit report."""

    iteration: int
    dofs: int
    rmse: float
    max: float
    max_type_one: float
    max_not_type_two: float
    n_type_one: int
    n_type_two: int


@dataclass(frozen=True)
class FitReport:
    """Per-iteration records plus the final model and weights."""

    records: tuple[IterationRecord, ...]
    function: SplineFunction
    weights: np.ndarray
    termination: str

    @property
    def iterations(self) -> int:
        return len(self.records)


def update_weights(errors, weights, type_one, type_two, mode: str = FitConfig.alpha_mode,
                   rho: float = FitConfig.rho, delta: float = FitConfig.delta) -> np.ndarray:
    """Multiply marked weights by the mode's factor; unmarked weights unchanged.

    Type I weights grow (factor ``1 + e`` or ``rho``), type II weights
    shrink (``1 / (1 + e)``, ``1 / rho`` or the IRLS rule
    ``1 / max(delta, e)``). In IRLS mode type I markers keep the
    error-driven growth, since the IRLS rule only describes down-weighting.
    Raises ``ValueError`` for a rule :class:`FitConfig` refuses (an unknown
    mode, a fixed factor ``rho`` that is not finite and above one, a
    ``delta`` that is not finite and positive), when ``errors`` and
    ``weights`` differ in length or a marker index is not an integer in
    ``0..len(weights)-1``; raises :class:`NumericError` when an updated
    weight overflows to infinity or underflows to zero.
    """
    FitConfig(alpha_mode=mode, rho=rho, delta=delta)
    e = np.asarray(errors, dtype=float)
    w = np.asarray(weights, dtype=float).copy()
    if e.shape != w.shape:
        raise ValueError(f"errors and weights differ in length: {e.size} and {w.size}")
    one = _point_indices(type_one, w.size)
    two = _point_indices(type_two, w.size)
    with np.errstate(over="ignore"):
        if mode == "fixed_factor":
            w[one] *= rho
            w[two] /= rho
        elif mode == "irls":
            w[one] *= 1.0 + e[one]
            w[two] /= np.maximum(delta, e[two])
        else:
            w[one] *= 1.0 + e[one]
            w[two] /= 1.0 + e[two]
    bad = ~(np.isfinite(w) & (w > 0))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NumericError(
            f"weight update leaves the floating-point range: weight of point {i} is {w[i]}"
        )
    return w


def _max_over(values: np.ndarray) -> float:
    """The largest value, or 0.0 when there is none."""
    return float(values.max()) if values.size else 0.0


def _record(iteration, dofs, e, k1, k2) -> IterationRecord:
    """The report row of errors ``e`` with type I markers ``k1`` and type II markers ``k2``."""
    return IterationRecord(
        iteration=iteration,
        dofs=dofs,
        rmse=float(np.sqrt(np.mean(e**2))),
        max=_max_over(e),
        max_type_one=_max_over(e[k1]),
        max_not_type_two=_max_over(np.delete(e, k2)),
        n_type_one=k1.size,
        n_type_two=k2.size,
    )


def rwls_fit(space, cloud: WeightedPointCloud, config: FitConfig) -> FitReport:
    """Reweighted least squares in a fixed space.

    Iterates: solve the (optionally penalized) weighted problem, compute the
    pointwise errors, stop once the type I maximum is within ``tol_i`` and
    the maximum over unmarked points within ``tol_ii``; otherwise bump the
    weights of the still-violating marked points and repeat, up to
    ``max_iter`` solves. When an iteration changes no weight the state is a
    fixed point and the loop stops (with no markers this is a single
    ordinary least-squares solve).

    Unmarked weights never change, so their rows are folded into a triangle
    once (:meth:`splinefit.wls._BandQR.fold`) and each solve sweeps only the
    triangle and the marked rows: ``n + |markers|`` rows instead of ``m``.
    The coefficients equal those of a solve on all of ``B`` up to rounding;
    a rank-deficient unmarked block is fine as long as the whole is not.
    """
    import scipy.sparse
    B = space.basis_matrix(cloud.sites)
    P = _csr_penalty(assemble_thin_plate(space)) if config.lam > 0 else None
    w = cloud.weights.copy()
    f = cloud.values
    k1, k2 = cloud.type_one, cloud.type_two

    # Only marked weights change: the other rows are folded into their
    # triangle once, and each solve sweeps it and the marked rows alone.
    vary = np.union1d(k1, k2)
    fixed = np.setdiff1d(np.arange(cloud.m), vary)
    R, g = _BandQR(B[fixed]).fold(w[fixed], f[fixed])
    solve_folded = weighted_solver(scipy.sparse.vstack([R, B[vary]], format="csr"),
                                   P, config.lam)
    ones = np.ones(R.shape[0])
    f_folded = np.concatenate([g, f[vary]])

    records = []
    coeffs = None
    termination = "max_iter"
    for iteration in range(1, config.max_iter + 1):
        coeffs = solve_folded(np.concatenate([ones, w[vary]]), f_folded)
        e = np.linalg.norm(B @ coeffs - f, axis=1)
        records.append(_record(iteration, space.dim, e, k1, k2))
        last = records[-1]
        if last.max_type_one <= config.tol_i and last.max_not_type_two <= config.tol_ii:
            termination = "tolerance"
            break
        upd1 = k1[e[k1] > config.tol_i]
        upd2 = k2[e[k2] < config.tol_ii]
        if upd1.size == 0 and upd2.size == 0:
            termination = "stalled"
            break
        w = update_weights(e, w, upd1, upd2, config.alpha_mode, config.rho, config.delta)
    return FitReport(tuple(records), SplineFunction(space, coeffs), w, termination)


def init_markers_from_ls(space, cloud: WeightedPointCloud, eps: float) -> np.ndarray:
    """Type I candidates: sites whose ordinary least-squares error exceeds ``eps``."""
    B = space.basis_matrix(cloud.sites)
    coeffs = solve_wls(B, np.ones(cloud.m), cloud.values)
    e = np.linalg.norm(B @ coeffs - cloud.values, axis=1)
    return np.flatnonzero(e > eps)


def adaptive_rwls_fit(space, cloud: WeightedPointCloud, config: FitConfig) -> FitReport:
    """Reweighted adaptive least squares over a hierarchical spline space.

    Per level: solve the thin-plate-penalized weighted problem, evaluate the
    pointwise error indicator, retire markers that meet their tolerance
    (type I below ``tol_i``, type II above ``tol_ii``) and reweight the
    rest, then dyadically refine the leaf cells holding sites with error
    above ``eps`` together with their one-ring of neighbor cells. Stops
    when every error is within ``eps`` or after ``max_levels`` solves. The
    markers are the cloud's own type I and type II labels, and the marker
    sets never gain members. Raises :class:`StagnationError` when
    refinement adds no degrees of freedom two levels running.
    """
    if isinstance(space, HierarchicalSpace):
        h = space
    else:
        h = HierarchicalSpace.from_base(space)
    k1, k2 = cloud.type_one, cloud.type_two
    w = cloud.weights.copy()
    f = cloud.values

    records = []
    coeffs = None
    termination = "level_cap"
    stagnant = 0
    for loop in range(1, config.max_levels + 1):
        B = collocation_hierarchical(h, cloud.sites)
        P = _csr_penalty(assemble_thin_plate(h)) if config.lam > 0 else None
        coeffs = solve_penalized_wls(B, w, f, P, config.lam)
        e = np.linalg.norm(B @ coeffs - f, axis=1)
        records.append(_record(loop, h.dim, e, k1, k2))
        if e.max() <= config.eps:
            termination = "eps"
            break
        if loop == config.max_levels:
            break

        # Markers that meet their criterion retire; the rest are reweighted.
        keep1 = e[k1] > config.tol_i
        keep2 = e[k2] < config.tol_ii
        k1 = k1[keep1]
        k2 = k2[keep2]
        w = update_weights(e, w, k1, k2, config.alpha_mode, config.rho, config.delta)

        marked = mark_cells(h, cloud.sites, e, config.eps)
        refined = h.refine(marked)
        if refined.dim == h.dim:
            stagnant += 1
            if stagnant >= 2:
                raise StagnationError(
                    f"refinement stuck at {h.dim} degrees of freedom for two levels"
                )
        else:
            stagnant = 0
        h = refined
    return FitReport(tuple(records), SplineFunction(h, coeffs), w, termination)


# ----------------------------------------------------------------------
# Benchmark functions and deterministic point clouds
# ----------------------------------------------------------------------


def evaluate_3peaks(x, y):
    """Three-peaks surface on ``[-1, 1]^2``: a sum of three sharp exponential spikes.

    Peaks of height 2/3 sit at (0.3, 0.3), (-0.3, -0.3) and the origin; the
    square-root exponent makes them conical, so spline fits need local
    refinement there.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r1 = np.sqrt((10 * x - 3) ** 2 + (10 * y - 3) ** 2)
    r2 = np.sqrt((10 * x + 3) ** 2 + (10 * y + 3) ** 2)
    r3 = np.sqrt((10 * x) ** 2 + (10 * y) ** 2)
    return (2.0 / 3.0) * (np.exp(-r1) + np.exp(-r2) + np.exp(-r3))


def evaluate_test_curves(curve_id: int, x):
    """Benchmark curves on ``[0, 1]``.

    1: rectified modulated sine ``|9 sin(3 pi x) / (tanh(-1.5 x + 1) + 1)|``
    with corners at x = 1/3 and 2/3. 2: narrow Gaussian spike of width 0.02
    at x = 0.5. 3: ``tanh(cos(2 pi x) / 0.05)``, a smoothed square wave with
    steep crossings at x = 0.25 and 0.75.
    """
    x = np.asarray(x, dtype=float)
    if curve_id == 1:
        return np.abs(9.0 * np.sin(3.0 * np.pi * x) / (np.tanh(-1.5 * x + 1.0) + 1.0))
    if curve_id == 2:
        return np.exp(-(((x - 0.5) / 0.02) ** 2)) / (0.02 * np.sqrt(np.pi))
    if curve_id == 3:
        return np.tanh(np.cos(2.0 * np.pi * x) / 0.05)
    raise ValueError(f"unknown curve id {curve_id!r} (expected 1, 2 or 3)")


# Sharp-feature locations of the benchmark curves and the point-cloud sizes
# used by the experiment suite.
CURVE_FEATURES = {1: (1.0 / 3.0, 2.0 / 3.0), 2: (0.5,), 3: (0.25, 0.75)}
CURVE_SIZES = {1: 62, 2: 88, 3: 71}


def feature_weighted_sites(m: int, centers) -> np.ndarray:
    """Deterministic abscissae on ``[0, 1]`` concentrated near the given centers.

    Sites are the inverse distribution function of the density
    ``1 + 8 * sum_c exp(-((x - c) / 0.03)^2)`` (trapezoidal on a 4001
    point grid) sampled at ``m`` uniform levels, so the spacing contracts
    around every center.
    """
    if _integer(m, "m") < 2:
        raise ValueError("need at least two sites")
    grid = np.linspace(0.0, 1.0, 4001)
    density = np.ones_like(grid)
    for c in np.atleast_1d(centers):
        density += 8.0 * np.exp(-(((grid - c) / 0.03) ** 2))
    increments = 0.5 * (density[1:] + density[:-1]) * np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(increments)])
    cdf /= cdf[-1]
    sites = np.interp(np.linspace(0.0, 1.0, m), cdf, grid)
    sites[0], sites[-1] = 0.0, 1.0
    return sites


def top_gradient_markers(sites, values, count: int) -> np.ndarray:
    """Indices of the ``count`` points with the steepest discrete gradient.

    Each point scores the larger of its two adjacent difference quotients;
    ties resolve by position, so the selection is deterministic.
    """
    s = np.asarray(sites, dtype=float).ravel()
    v = np.asarray(values, dtype=float)
    if v.ndim > 1:
        v = np.linalg.norm(v, axis=1)
    if not 0 <= _integer(count, "count") <= s.size:
        raise ValueError("marker count out of range")
    slopes = np.abs(np.diff(v) / np.diff(s))
    score = np.zeros(s.size)
    score[:-1] = slopes
    score[1:] = np.maximum(score[1:], slopes)
    order = np.argsort(-score, kind="stable")
    return np.sort(order[:count])


def curve_point_cloud(curve_id: int) -> WeightedPointCloud:
    """Benchmark curve sampled at its ``CURVE_SIZES`` feature-weighted abscissae."""
    sites = feature_weighted_sites(CURVE_SIZES[curve_id], CURVE_FEATURES[curve_id])
    values = evaluate_test_curves(curve_id, sites)
    return WeightedPointCloud(sites, values)
