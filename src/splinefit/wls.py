"""Weighted and penalized least-squares solvers with thin-plate energy.

Both solvers take the collocation matrix ``B`` dense or scipy sparse, and
only this module knows which format each needs. The unpenalized solver
densifies ``B`` and works on ``sqrt(W) B c = sqrt(W) f`` through an
orthogonal factorization shared across value components. The penalized
solver forms its normal equations through the CSR Gram ``B^T W B``, where
the energy matrix makes the orthogonal route unnatural.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import NumericError, RankDeficiencyError, SingularSystemError
from .hierarchical import HierarchicalSpace
from .spline_core import SplineFunction, WeightedPointCloud, _as_sites

__all__ = [
    "FitMetrics",
    "solve_wls",
    "assemble_thin_plate",
    "solve_penalized_wls",
    "metrics",
    "RANK_RTOL",
]

# Singular values below RANK_RTOL times the largest count as zero.
RANK_RTOL = 1e-12


def _weighted_system(B, weights, f):
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    f = np.asarray(f, dtype=float)
    squeeze = f.ndim == 1
    f2 = f[:, None] if squeeze else f
    m = B.shape[0]
    if w.shape != (m,) or f2.shape[0] != m:
        raise ValueError("B, weights and f must agree on the number of rows")
    return w, f2, squeeze


def _finite(c, squeeze):
    """Coefficients as returned to the caller; raises when any is not finite."""
    if not np.all(np.isfinite(c)):
        raise NumericError(
            "solution has non-finite coefficients (the weighted system overflows)"
        )
    return c[:, 0] if squeeze else c


def solve_wls(B, weights, f) -> np.ndarray:
    """Coefficients minimizing ``sum_i w_i ||(B c)_i - f_i||^2``.

    ``B`` may be dense or a scipy sparse matrix. All value components share
    one factorization. Raises :class:`RankDeficiencyError` when the scaled
    matrix has numerical rank below its column count and
    :class:`NumericError` when a coefficient is not finite.
    """
    B = B.toarray() if scipy.sparse.issparse(B) else np.asarray(B, dtype=float)
    m, n = B.shape
    if n > m:
        raise RankDeficiencyError(f"underdetermined system: {n} unknowns, {m} rows")
    w, f2, squeeze = _weighted_system(B, weights, f)
    sqrt_w = np.sqrt(w)
    c, _, rank, _ = np.linalg.lstsq(
        B * sqrt_w[:, None], f2 * sqrt_w[:, None], rcond=RANK_RTOL
    )
    if rank < n:
        raise RankDeficiencyError(f"collocation matrix has rank {rank} < {n}")
    return _finite(c, squeeze)


def _second_order_multi_indices(ndim):
    """Multi-indices of total order two with their multinomial coefficients."""
    out = []
    for alpha in itertools.product(range(3), repeat=ndim):
        if sum(alpha) == 2:
            coeff = 2.0 / math.prod(math.factorial(a) for a in alpha)
            out.append((alpha, coeff))
    return out


# Leaf cells of one level go through the assembly in batches whose element
# matrices take about this many bytes. Batching a whole level at once costs
# several times the size of P in temporaries and shows in peak memory; much
# smaller batches spend the time in per-batch Python overhead.
_BATCH_BYTES = 1 << 20


def assemble_thin_plate(space) -> np.ndarray:
    """Thin-plate energy matrix ``P`` with ``c^T P c = J(v)`` per component.

    ``J`` integrates the squared second derivatives over the domain, mixed
    terms carrying their multinomial weight (``ss + 2 st + tt`` in two
    variables, ``integral of (v'')^2`` in one). Gauss-Legendre quadrature
    with ``max degree + 1`` points per direction on every leaf cell of the
    tessellation is exact for the piecewise-polynomial integrand. Requires
    degree at least two in every direction.

    A tensor space is the one-level hierarchical space. The leaf cells of a
    level share their Gauss nodes up to an affine map, so they are assembled
    together, in batches of about ``_BATCH_BYTES`` of element matrices: one
    :meth:`KnotVector.basis_rows` call per direction and level evaluates the
    value and derivative rows of the batch, one batched ``matmul`` forms the
    element matrices ``sum_alpha c_alpha R^T diag(w) R``, and one
    ``np.add.at`` scatters them into the dense ``P``. Only levels up to the
    cell's own can have functions supported on it.
    """
    for d in space.degrees:
        if d < 2:
            raise ValueError("thin-plate energy needs degree >= 2 in every direction")
    h = space if isinstance(space, HierarchicalSpace) else HierarchicalSpace.from_base(space)
    terms = _second_order_multi_indices(h.ndim)
    nodes, gauss_w = np.polynomial.legendre.leggauss(max(h.degrees) + 1)
    q = nodes.size

    # Global column of every tensor function per level. Inactive functions
    # point at an extra last row and column of P, which is dropped.
    columns = []
    for lev, act in enumerate(h.active):
        col = np.full(h.levels[lev].dim, h.dim, dtype=np.intp)
        col[act] = h.offsets[lev] + np.arange(act.size)
        columns.append(col)
    P = np.zeros((h.dim + 1, h.dim + 1))

    for top, lo, hi in h.leaf_cell_boxes():
        levels = [lev for lev in range(top + 1) if h.active[lev].size]
        if not levels:
            continue
        width = len(levels) * math.prod(kv.order for kv in h.levels[0].knot_vectors)
        batch = max(1, _BATCH_BYTES // (8 * width * width))
        for start in range(0, lo.shape[0], batch):
            a, b = lo[start : start + batch], hi[start : start + batch]
            n = a.shape[0]
            half = 0.5 * (b - a)
            pts = a[:, :, None] + half[:, :, None] * (nodes + 1.0)
            pw = np.ones((n, 1))
            for wts in (half[:, :, None] * gauss_w).transpose(1, 0, 2):
                pw = (pw[:, :, None] * wts[:, None, :]).reshape(n, -1)

            cols, rows = [], {alpha: [] for alpha, _ in terms}
            for lev in levels:
                space_l = h.levels[lev]
                firsts, tables = [], []
                for kv, x in zip(space_l.knot_vectors, pts.transpose(1, 0, 2)):
                    first, ders = kv.basis_rows(x.ravel(), 2)
                    firsts.append(first[::q])
                    tables.append(ders.reshape(n, q, 3, kv.order))
                for alpha, _ in terms:
                    idx, R = space_l.outer_rows(
                        firsts, [t[:, :, k, :] for t, k in zip(tables, alpha)]
                    )
                    rows[alpha].append(R)
                cols.append(columns[lev][idx])

            # All terms stacked along the point axis, each point weight
            # carrying its term's coefficient, make one batched product.
            R = np.concatenate(
                [np.concatenate(rows[alpha], axis=2) for alpha, _ in terms], axis=1
            )
            w = np.concatenate([coeff * pw for _, coeff in terms], axis=1)
            E = R.transpose(0, 2, 1) @ (R * w[:, :, None])
            c = np.concatenate(cols, axis=1)
            np.add.at(P, (c[:, :, None], c[:, None, :]), E)

    P = P[:-1, :-1]
    out = P + P.T
    out *= 0.5
    return out


def solve_penalized_wls(B, weights, f, P, lam: float) -> np.ndarray:
    """Solve ``(0.5 B^T W B + lam P) c = 0.5 B^T W f`` per value component.

    ``B`` may be dense or a scipy sparse matrix; either gives the same
    coefficients. ``lam = 0`` is :func:`solve_wls` and ignores ``P``, which
    may then be ``None``. Raises :class:`SingularSystemError` when the
    regularized normal matrix cannot be factorized and :class:`NumericError`
    when a coefficient is not finite.
    """
    if lam < 0:
        raise ValueError("penalty weight must be non-negative")
    if lam == 0:
        return solve_wls(B, weights, f)

    w, f2, squeeze = _weighted_system(B, weights, f)
    B = scipy.sparse.csr_matrix(B)
    gram = (B.T @ B.multiply(w[:, None])).toarray()
    rhs = B.T @ (f2 * w[:, None])
    A = 0.5 * gram + lam * np.asarray(P)
    A = 0.5 * (A + A.T)
    try:
        factor = scipy.linalg.cho_factor(A, check_finite=False)
        c = scipy.linalg.cho_solve(factor, 0.5 * rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"penalized normal system is singular: {exc}") from exc
    return _finite(c, squeeze)


@dataclass(frozen=True)
class FitMetrics:
    """Pointwise errors ``e_i = ||v(x_i) - f_i||_2`` with their RMSE and maximum."""

    errors: np.ndarray
    rmse: float
    max: float

    @classmethod
    def from_errors(cls, errors) -> "FitMetrics":
        e = np.asarray(errors, dtype=float)
        return cls(errors=e, rmse=float(np.sqrt(np.mean(e**2))), max=float(e.max()))


def metrics(fn: SplineFunction, cloud: WeightedPointCloud) -> FitMetrics:
    """Pointwise fit errors of ``fn`` against the cloud."""
    sites = _as_sites(cloud.sites, fn.space.ndim)
    residual = fn.evaluate_many(sites) - cloud.values
    return FitMetrics.from_errors(np.linalg.norm(residual, axis=1))
