"""Weighted and penalized least-squares solvers with thin-plate energy.

Both solvers take the collocation matrix ``B`` dense or scipy sparse and
work on its CSR form; neither densifies it. The unpenalized solver factors
``sqrt(W) B c = sqrt(W) f`` by a banded block Householder QR that keeps only
the triangle ``R``, shared across value components. The penalized solver
forms its normal equations through the CSR Gram ``B^T W B``, where the
energy matrix makes the orthogonal route unnatural.

Reweighting loops solve on one ``B`` with ever new weights.
:func:`weighted_solver` does the work that depends on ``B`` alone once (for
the QR: the CSR copy, the column and row orders and the block layout) and
returns a ``solve(weights, f)`` that pays only for the scaling and the sweep;
:func:`solve_wls` and :func:`solve_penalized_wls` are one such solve.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dtpqrt as _tpqrt

from .errors import NumericError, RankDeficiencyError, SingularSystemError
from .hierarchical import HierarchicalSpace
from .spline_core import SplineFunction, WeightedPointCloud, _as_sites

__all__ = [
    "FitMetrics",
    "solve_wls",
    "weighted_solver",
    "assemble_thin_plate",
    "solve_penalized_wls",
    "metrics",
    "RANK_RTOL",
]

# Diagonal entries |R_jj| of the triangular factor at or below RANK_RTOL
# times the largest count as zero.
RANK_RTOL = 1e-12

# Columns per block of the banded QR sweep, also the LAPACK block size of
# each triangular-pentagonal QR. Blocks of 8 to 32 columns time alike.
_BLOCK = 16


def _weighted_system(m, weights, f):
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    f = np.asarray(f, dtype=float)
    squeeze = f.ndim == 1
    f2 = f[:, None] if squeeze else f
    if w.shape != (m,) or f2.shape[0] != m:
        raise ValueError("B, weights and f must agree on the number of rows")
    for name, a in (("weight", w), ("value", f2)):
        bad = ~np.isfinite(a)
        if bad.any():
            at = tuple(np.argwhere(bad)[0])
            raise ValueError(f"{name}s must be finite, got {float(a[at])} in row {at[0]}")
    return w, f2, squeeze


def _finite(c, squeeze):
    """Coefficients as returned to the caller; raises when any is not finite."""
    if not np.all(np.isfinite(c)):
        raise NumericError(
            "solution has non-finite coefficients (the weighted system overflows)"
        )
    return c[:, 0] if squeeze else c


@dataclass(frozen=True)
class _BandPlan:
    """Weight-independent structure of the banded QR of one collocation matrix.

    ``rows`` are the nonzero rows of ``B`` in sweep order, ``data`` their
    nonzeros row after row and ``counts`` the nonzeros per row. Each block
    is ``(j0, hi, r0, r1, p0, p1, scatter)``: it folds rows ``r0:r1`` (the
    nonzeros ``p0:p1``) into the window ``j0:hi`` of ``R``, and ``scatter``
    places each nonzero in the column-major ``(r1 - r0, hi - j0 + k)`` block
    of new rows, whatever the number ``k`` of value components.
    """

    shape: tuple[int, int]
    pos: np.ndarray
    rows: np.ndarray
    data: np.ndarray
    counts: np.ndarray
    blocks: tuple


def _band_plan(B) -> _BandPlan:
    """Column order, row order and block layout of the banded QR of ``B``."""
    A = scipy.sparse.csr_matrix(B, dtype=float, copy=True)
    m, n = A.shape
    A.sum_duplicates()
    A.eliminate_zeros()
    counts = np.diff(A.indptr)
    rows = np.flatnonzero(counts)
    if rows.size < n:
        raise RankDeficiencyError(
            f"underdetermined system: {n} unknowns, {rows.size} nonzero rows"
        )

    # Column order: by the first row, in order of first column, touching it.
    rank_of = np.empty(m, dtype=np.intp)
    rank_of[rows[np.argsort(A.indices[A.indptr[rows]], kind="stable")]] = np.arange(rows.size)
    touch = np.full(n, m, dtype=np.intp)
    np.minimum.at(touch, A.indices, np.repeat(rank_of, counts))
    pos = np.empty(n, dtype=np.intp)
    pos[np.argsort(touch, kind="stable")] = np.arange(n)

    # Rows with a nonzero, sorted by their first column in that order.
    cols = pos[A.indices]
    first = np.minimum.reduceat(cols, A.indptr[rows])
    order = np.argsort(first, kind="stable")
    rows, first = rows[order], first[order]
    A = scipy.sparse.csr_matrix((A.data, cols, A.indptr), shape=(m, n))[rows]
    counts = np.diff(A.indptr)
    row_of = np.repeat(np.arange(rows.size), counts)
    reach = np.maximum.accumulate(np.maximum.reduceat(A.indices, A.indptr[:-1])) + 1

    blocks = []
    edges = np.searchsorted(first, np.arange(0, n + _BLOCK, _BLOCK))
    for j0, r0, r1 in zip(range(0, n, _BLOCK), edges[:-1], edges[1:]):
        if r0 == r1:
            continue
        hi = max(min(j0 + _BLOCK, n), reach[r1 - 1])
        p0, p1 = A.indptr[r0], A.indptr[r1]
        scatter = row_of[p0:p1] - r0 + (A.indices[p0:p1] - j0) * (r1 - r0)
        blocks.append((j0, hi, r0, r1, p0, p1, scatter))
    return _BandPlan((m, n), pos, rows, A.data, counts, tuple(blocks))


def _band_sweep(plan: _BandPlan, weights, f) -> np.ndarray:
    """Coefficients of the weighted problem whose structure ``plan`` holds."""
    m, n = plan.shape
    w, f2, squeeze = _weighted_system(m, weights, f)
    sqrt_w = np.sqrt(w[plan.rows])
    vals = plan.data * np.repeat(sqrt_w, plan.counts)
    rhs = f2[plan.rows] * sqrt_w[:, None]

    k = rhs.shape[1]
    R = np.zeros((n, n), order="F")
    G = np.zeros((n, k))
    for j0, hi, r0, r1, p0, p1, scatter in plan.blocks:
        width = hi - j0
        top = np.zeros((width + k, width + k), order="F")
        top[:width, :width] = R[j0:hi, j0:hi]
        top[:width, width:] = G[j0:hi]
        new = np.zeros((r1 - r0) * (width + k))
        new[scatter] = vals[p0:p1]
        new = new.reshape((r1 - r0, width + k), order="F")
        new[:, width:] = rhs[r0:r1]
        top = _tpqrt(0, min(_BLOCK, width + k), top, new, overwrite_a=1, overwrite_b=1)[0]
        R[j0:hi, j0:hi] = top[:width, :width]
        G[j0:hi] = top[:width, width:]

    diag = np.abs(np.diagonal(R))
    if not np.all(np.isfinite(diag)):
        raise NumericError("triangular factor is not finite (the weighted system overflows)")
    rank = np.count_nonzero(diag > RANK_RTOL * diag.max())
    if rank < n:
        raise RankDeficiencyError(f"collocation matrix has numerical rank {rank} < {n}")
    c = scipy.linalg.solve_triangular(R, G, check_finite=False)
    return _finite(c[plan.pos], squeeze)


def weighted_solver(B, P=None, lam: float = 0.0):
    """``solve(weights, f)`` for the weighted problems on one collocation matrix.

    ``solve(weights, f)`` returns what :func:`solve_penalized_wls` returns
    for ``(B, weights, f, P, lam)``, bit for bit, and raises what it raises.
    The work that depends on ``B`` alone is done here, once, so a loop that
    reweights one matrix pays per solve only for what the weights change.

    At ``lam = 0`` (``P`` ignored, may be ``None``) this plans the banded QR
    of :func:`solve_wls`: the canonical CSR copy, the column and row orders
    and the block layout, with its row and column scatter indices. An
    underdetermined ``B`` raises :class:`RankDeficiencyError` here. Each
    solve then validates its input, scales the rows by ``sqrt(w)`` and runs
    the sweep, the rank test and the triangular solve. At ``lam > 0`` only
    the CSR form of ``B`` is formed here; each solve forms and factors its
    own normal equations.
    """
    if lam < 0:
        raise ValueError("penalty weight must be non-negative")
    if lam == 0:
        return functools.partial(_band_sweep, _band_plan(B))
    B = scipy.sparse.csr_matrix(B)

    def solve(weights, f):
        w, f2, squeeze = _weighted_system(B.shape[0], weights, f)
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

    return solve


def solve_wls(B, weights, f) -> np.ndarray:
    """Coefficients minimizing ``sum_i w_i ||(B c)_i - f_i||^2``.

    ``B`` may be dense or a scipy sparse matrix; both go through the same
    canonical CSR form, so they give the same coefficients. ``B`` is never
    densified: a sequential block Householder QR of the banded system
    ``sqrt(W) B c = sqrt(W) f`` (Lawson & Hanson, *Solving Least Squares
    Problems*, ch. 27) keeps only the ``n x n`` triangle ``R``.

    Columns are numbered by the first row, in order of first column, that
    touches them. This keeps the order of a curve space, nearly keeps that
    of a tensor space and interleaves the levels of a hierarchical space by
    position, which narrows the window. Rows are then sorted by
    their first column and swept in blocks of ``_BLOCK`` columns: a block's
    rows, with all value components as extra columns, are folded into the
    trailing window of ``R`` by one triangular-pentagonal QR, after which
    the block's rows of ``R`` are final. One triangular solve finishes.
    ``weighted_solver(B)`` plans this once for many weight vectors.

    Raises :class:`ValueError` when a weight is not positive or a weight or
    value is not finite, :class:`RankDeficiencyError` when ``B`` has fewer
    nonzero rows than columns or some ``|R_jj|`` is at most ``RANK_RTOL``
    times the largest, and :class:`NumericError` when the factor or a
    coefficient is not finite.
    """
    return weighted_solver(B)(weights, f)


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
    when a coefficient is not finite. ``weighted_solver(B, P, lam)`` sets up
    once for many weight vectors.
    """
    return weighted_solver(B, P, lam)(weights, f)


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
