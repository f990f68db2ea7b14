"""Weighted and penalized least-squares solvers with thin-plate energy.

Both solvers take the collocation matrix ``B`` dense or scipy sparse and
work on its CSR form; neither densifies it. The unpenalized solver factors
``sqrt(W) B c = sqrt(W) f`` by a banded block Householder QR that keeps only
the band of the triangle ``R``, shared across value components, and
back-substitutes on that band. The penalized solver forms its normal matrix
``0.5 B^T W B + lam P`` in CSR (a dense ``P`` is converted once), renumbers
the unknowns in the reverse Cuthill-McKee order of that matrix's pattern and
factors the upper band by a banded Cholesky. Nothing of size ``n x n`` is
formed.

Reweighting loops solve on one ``B`` with ever new weights.
:func:`weighted_solver` does the work that depends on ``B`` and ``P`` alone
once (the CSR copies, the orders, the QR's block layout) and returns a
``solve(weights, f)`` that pays only for what the weights change; at
``lam = 0`` that is a :class:`_BandQR`, which keeps its last sweep and
skips the leading blocks whose rows did not change. :func:`solve_wls` and
:func:`solve_penalized_wls` are one such solve. When only some rows'
weights change, :meth:`_BandQR.fold` folds the others into a triangle once,
and the solver of the triangle stacked on the changing rows gives the same
coefficients up to rounding.
scipy is imported by the functions that use it, at the first solve or
energy assembly: importing, reading and evaluating a model need numpy alone.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import NumericError, RankDeficiencyError, SingularSystemError
from .hierarchical import HierarchicalSpace

__all__ = [
    "solve_wls",
    "weighted_solver",
    "assemble_thin_plate",
    "solve_penalized_wls",
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


class _BandQR:
    """The banded QR of ``sqrt(W) B c = sqrt(W) f`` for one collocation matrix ``B``.

    Built once per ``B``, called as ``solve(weights, f)`` for every weight
    vector. The plan is weight-independent: ``pos`` numbers the columns,
    ``rows`` are the nonzero rows of ``B`` in sweep order, ``data`` their
    nonzeros row after row and ``counts`` the nonzeros per row. Each block
    is ``(j0, hi, r0, r1, p0, p1, scatter, band)``: it folds rows ``r0:r1``
    (the nonzeros ``p0:p1``) into the window ``j0:hi`` of ``R``, and
    ``scatter`` places each nonzero in the column-major ``(r1 - r0, hi - j0
    + k)`` block of new rows, whatever the number ``k`` of value components.
    After it the window's first ``len(band)`` rows are final, and ``band``
    gives the place of each of their entries over columns ``j0:hi`` in the
    flat LAPACK upper band storage of ``R`` with ``kd`` superdiagonals
    (column-major ``(kd + 1, n)``); entries below the diagonal go to one
    spare place after it.

    :meth:`factor` keeps its last completed sweep and resumes from it, so
    one instance must not be called from two threads at once.
    """

    def __init__(self, B):
        import scipy.sparse
        A = scipy.sparse.csr_matrix(B, dtype=float, copy=True)
        m, n = A.shape
        A.sum_duplicates()
        A.eliminate_zeros()
        counts = np.diff(A.indptr)
        rows = np.flatnonzero(counts)

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

        # Windows only grow to the right, so the rows a block leaves before the
        # next block's first column are final, and nonzero only in its window.
        edges = np.searchsorted(first, np.arange(0, n + _BLOCK, _BLOCK))
        spans = [(j0, int(r0), int(r1)) for j0, r0, r1 in zip(range(0, n, _BLOCK), edges[:-1], edges[1:])
                 if r0 < r1]
        his = [max(min(j0 + _BLOCK, n), int(reach[r1 - 1])) for j0, _, r1 in spans]
        kd = max((hi - j0 for (j0, _, _), hi in zip(spans, his)), default=1) - 1
        blocks = []
        for (j0, r0, r1), hi, end in zip(spans, his, [j0 for j0, _, _ in spans[1:]] + [n]):
            p0, p1 = A.indptr[r0], A.indptr[r1]
            scatter = row_of[p0:p1] - r0 + (A.indices[p0:p1] - j0) * (r1 - r0)
            a, b = np.arange(min(end, hi) - j0)[:, None], np.arange(hi - j0)
            band = np.where(b >= a, kd + j0 + a + (j0 + b) * kd, (kd + 1) * n)
            blocks.append((j0, hi, r0, r1, p0, p1, scatter, band))
        self.shape, self.pos, self.rows, self.data, self.counts = (m, n), pos, rows, A.data, counts
        self.kd, self.blocks = kd, tuple(blocks)
        self._last = None

    def factor(self, w, f2) -> tuple[np.ndarray, np.ndarray]:
        """The sweep: triangle ``R`` and values ``G`` of ``sqrt(W) B c = sqrt(W) f``.

        ``R^T R = B^T W B`` and ``R^T G = B^T W f``, columns in ``pos``
        order, for the validated weights ``w`` and values ``f2``. ``R`` comes
        in LAPACK upper band storage, ``ab[kd + i - j, j] = R[i, j]``. A dense
        working window slides down one block at a time; the rows each block
        finishes go straight into the band and the rest of the window is
        carried to the next block. Neither rank nor the number of rows is
        judged.

        The last completed sweep is kept: the scaled rows ``sqrt(w)`` and
        ``sqrt(w) f`` in sweep order, ``ab``, ``G`` and one checkpoint, the
        window carried into the first block whose rows changed. The sweep
        resumes at the checkpoint when that is at or before the first block
        whose rows differ bitwise from the kept ones (a signed zero differs),
        else at block 0.
        """
        from scipy.linalg.lapack import dtpqrt
        n, kd, blocks = self.shape[1], self.kd, self.blocks
        sqrt_w = np.sqrt(w[self.rows])
        vals = self.data * np.repeat(sqrt_w, self.counts)
        scaled = np.column_stack([sqrt_w, f2[self.rows] * sqrt_w[:, None]])
        rhs = scaled[:, 1:]

        k = rhs.shape[1]
        restart = (0, np.zeros((0, k)))
        first, mark = 0, restart
        last = self._last
        if last is not None and last[0].shape == scaled.shape:
            changed = (scaled.view(np.uint64) != last[0].view(np.uint64)).any(axis=1)
            row = changed.argmax() if changed.any() else scaled.shape[0]
            first, mark = sum(r1 <= row for _, _, _, r1, *_ in blocks), last[3]
        start, carried = mark if mark[0] <= first else restart
        ab, G = last[1:3] if start else (np.zeros((kd + 1) * n + 1), np.zeros((n, k)))
        self._last = None  # until the sweep completes, so one cut short leaves no stale state
        for i, (j0, hi, r0, r1, p0, p1, scatter, band) in enumerate(blocks[start:], start):
            # A checkpoint at block 0 could only restart the sweep, so when
            # block 0 changed the last block takes it.
            if i == (first or len(blocks) - 1):
                mark = (i, carried)
            width, done = hi - j0, band.shape[0]
            top = np.zeros((width + k, width + k), order="F")
            c = carried.shape[0]
            top[:c, :c] = carried[:, :c]
            top[:c, width:] = carried[:, c:]
            new = np.zeros((r1 - r0) * (width + k))
            new[scatter] = vals[p0:p1]
            new = new.reshape((r1 - r0, width + k), order="F")
            new[:, width:] = rhs[r0:r1]
            top = dtpqrt(0, min(_BLOCK, width + k), top, new, overwrite_a=1, overwrite_b=1)[0]
            ab[band] = top[:done, :width]
            G[j0:j0 + done] = top[:done, width:]
            carried = top[done:width, done:]
        self._last = (scaled, ab, G, mark)
        return ab[:-1].reshape(n, kd + 1).T, G

    def __call__(self, weights, f) -> np.ndarray:
        """Coefficients of the weighted problem on ``B``."""
        from scipy.linalg.lapack import dtbtrs
        m, n = self.shape
        w, f2, squeeze = _weighted_system(m, weights, f)
        ab, G = self.factor(w, f2)
        diag = np.abs(ab[-1])
        if not np.all(np.isfinite(diag)):
            raise NumericError("triangular factor is not finite (the weighted system overflows)")
        rank = np.count_nonzero(diag > RANK_RTOL * diag.max())
        if rank < n:
            raise RankDeficiencyError(f"collocation matrix has numerical rank {rank} < {n}")
        c = dtbtrs(ab, G)[0]
        return _finite(c[self.pos], squeeze)

    def fold(self, weights, f):
        """``(R, G)``: the rows of ``sqrt(W) B`` and ``sqrt(W) f`` folded into a triangle.

        ``R`` is CSR in ``B``'s column numbering with ``R^T R = B^T W B``,
        ``G`` the matching rows of values with ``R^T G = B^T W f`` (``f`` of
        shape ``(m, k)``); rows of the triangle that are zero are left out.
        By orthogonal invariance ``[R; sqrt(W') B']`` has the QR triangle of
        ``[sqrt(W) B; sqrt(W') B']`` (Golub & Van Loan, §6.5), so rows whose
        weights stay fixed are factored once and each solve sweeps only ``R``
        and the rows that vary. A rank-deficient or underdetermined block
        folds like any other: only the solve of the whole system judges the
        rank. Raises :class:`NumericError` when the triangle or values
        overflow.
        """
        import scipy.sparse
        n, kd = self.shape[1], self.kd
        w, f2, _ = _weighted_system(self.shape[0], weights, f)
        ab, G = self.factor(w, f2)
        if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(G))):
            raise NumericError("triangular factor is not finite (the weighted system overflows)")
        j, t = np.nonzero(ab.T)
        keep, row = np.unique(j + t - kd, return_inverse=True)
        R = scipy.sparse.csr_matrix((ab[t, j], (row, np.argsort(self.pos)[j])), shape=(keep.size, n))
        return R, G[keep]


def _csr_penalty(P):
    """``P``, dense or scipy sparse, as CSR.

    A dense ``P`` is scanned for its nonzeros, which is several times faster
    than ``csr_matrix`` of it. The fit drivers call this on the dense matrix
    ``assemble_thin_plate`` returns, so only the CSR copy outlives the call.
    """
    import scipy.sparse
    if not scipy.sparse.issparse(P):
        P = np.asarray(P, dtype=float)
        flat = np.flatnonzero(P != 0)
        P = scipy.sparse.coo_matrix((P.flat[flat], np.divmod(flat, P.shape[1])), shape=P.shape)
    return scipy.sparse.csr_matrix(P, dtype=float)


def weighted_solver(B, P=None, lam: float = 0.0):
    """``solve(weights, f)`` for the weighted problems on one collocation matrix.

    ``solve(weights, f)`` returns what :func:`solve_penalized_wls` returns
    for ``(B, weights, f, P, lam)``, bit for bit, and raises what it raises.
    The work that depends on ``B`` alone is done here, once, so a loop that
    reweights one matrix pays per solve only for what the weights change.

    At ``lam = 0`` (``P`` ignored, may be ``None``) ``solve`` is the
    :class:`_BandQR` of ``B``, which plans the banded QR of :func:`solve_wls`
    here: the canonical CSR copy, the column and row orders and the block
    layout. An underdetermined ``B`` raises :class:`RankDeficiencyError`
    here. Each solve then validates its input, scales the rows by ``sqrt(w)``
    and runs the sweep, the rank test on the band's diagonal and the banded
    triangular solve. The sweep resumes where the rows last changed, so the
    thread-safety caveat of :class:`_BandQR` holds for ``solve``.

    At ``lam > 0`` this builds the CSR copies of ``B``, ``B^T`` and ``lam P``
    (``P`` dense or sparse). Each solve forms ``A = 0.5 B^T W B + lam P`` in
    CSR, packs its upper triangle into a band as wide as ``A`` needs and
    calls :func:`scipy.linalg.solveh_banded`; an ``A`` that is not positive
    definite raises :class:`SingularSystemError`. The unknowns are numbered
    in the reverse Cuthill-McKee order of the first ``A``'s pattern, taken
    with its indices sorted: positive weights leave the pattern unchanged,
    so later solves reuse it. scipy, and at ``lam > 0``
    ``scipy.sparse.csgraph``, is imported here or in ``solve``, not at start-up.
    """
    if not 0 <= lam < math.inf:
        raise ValueError(f"penalty weight must be finite and non-negative, got {lam!r}")
    if lam == 0:
        solve = _BandQR(B)
        n = solve.shape[1]
        if solve.rows.size < n:
            raise RankDeficiencyError(
                f"underdetermined system: {n} unknowns, {solve.rows.size} nonzero rows"
            )
        return solve
    import scipy.linalg
    import scipy.sparse
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    B = scipy.sparse.csr_matrix(B, dtype=float)
    Bt = B.T.tocsr()
    row_of = np.repeat(np.arange(B.shape[0]), np.diff(B.indptr))
    lam_P = lam * _csr_penalty(P)
    order = pos = None

    def solve(weights, f):
        nonlocal order, pos
        w, f2, squeeze = _weighted_system(B.shape[0], weights, f)
        half_w = 0.5 * w
        gram = Bt @ scipy.sparse.csr_matrix((B.data * half_w[row_of], B.indices, B.indptr),
                                            shape=B.shape)
        A = gram + lam_P
        if order is None:
            order = reverse_cuthill_mckee(A.sorted_indices(), symmetric_mode=True)
            pos = np.empty_like(order)
            pos[order] = np.arange(order.size)
        A = A.tocoo()
        i, j = pos[A.row], pos[A.col]
        upper = i <= j
        i, j = i[upper], j[upper]
        band = int((j - i).max())
        ab = np.zeros((band + 1, order.size))
        ab[band + i - j, j] = A.data[upper]
        rhs = (Bt @ (f2 * half_w[:, None]))[order]
        try:
            c = scipy.linalg.solveh_banded(ab, rhs, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"penalized normal system is singular: {exc}") from exc
        return _finite(c[pos], squeeze)

    return solve


def solve_wls(B, weights, f) -> np.ndarray:
    """Coefficients minimizing ``sum_i w_i ||(B c)_i - f_i||^2``.

    ``B`` may be dense or a scipy sparse matrix; both go through the same
    canonical CSR form, so they give the same coefficients. ``B`` is never
    densified: a sequential block Householder QR of the banded system
    ``sqrt(W) B c = sqrt(W) f`` (Lawson & Hanson, *Solving Least Squares
    Problems*, ch. 27) keeps only the band of the triangle ``R``.

    Columns are numbered by the first row, in order of first column, that
    touches them. This keeps the order of a curve space, nearly keeps that
    of a tensor space and interleaves the levels of a hierarchical space by
    position, which narrows the window. Rows are then sorted by
    their first column and swept in blocks of ``_BLOCK`` columns: a block's
    rows, with all value components as extra columns, are folded into the
    trailing window of ``R`` by one triangular-pentagonal QR, after which
    the block's rows of ``R`` are final and leave the window for LAPACK band
    storage. One banded triangular solve finishes.
    ``weighted_solver(B)`` plans this once for many weight vectors.

    Raises :class:`ValueError` when a weight is not positive or a weight or
    value is not finite, :class:`RankDeficiencyError` when ``B`` has fewer
    nonzero rows than columns or some ``|R_jj|`` is at most ``RANK_RTOL``
    times the largest, and :class:`NumericError` when the factor or a
    coefficient is not finite.
    """
    return weighted_solver(B)(weights, f)


def _gram_1d(kvs) -> np.ndarray:
    """``G[k]``, ``k = 0, 1, 2``: integrals of products of ``k``-th derivatives.

    The functions are those of every knot vector in ``kvs``, numbered one
    knot vector after another. Each refines the one before, so Gauss-Legendre
    quadrature with ``degree + 1`` points on every span of the last is exact.
    """
    breaks = kvs[-1].breakpoints
    nodes, gauss_w = np.polynomial.legendre.leggauss(kvs[0].degree + 1)
    half = 0.5 * np.diff(breaks)
    x = (breaks[:-1, None] + half[:, None] * (nodes + 1.0)).ravel()
    w = (half[:, None] * gauss_w).ravel()
    idx, vals, n = [], [], 0
    for kv in kvs:
        first, ders = kv.basis_rows(x, 2)
        idx.append(n + first[:, None] + np.arange(kv.order))
        vals.append(ders)
        n += kv.dim
    idx = np.concatenate(idx, axis=1)
    vals = np.concatenate(vals, axis=2)
    pairs = (idx[:, :, None] * n + idx[:, None, :]).ravel()
    prod = vals[:, :, :, None] * vals[:, :, None, :] * w[:, None, None, None]
    return np.stack(
        [np.bincount(pairs, prod[:, k].ravel(), minlength=n * n) for k in range(3)]
    ).reshape(3, n, n)


def assemble_thin_plate(space) -> np.ndarray:
    """Thin-plate energy matrix ``P`` with ``c^T P c = J(v)`` per component.

    ``J`` integrates the squared second derivatives over the domain, mixed
    terms carrying their multinomial weight (``ss + 2 st + tt`` in two
    variables, ``integral of (v'')^2`` in one). Requires degree at least two
    in every direction. Returns a dense, exactly symmetric array.

    A tensor space is the one-level hierarchical space. The basis is not
    truncated and the domain is a box, so every active function is a tensor
    B-spline of its own level and ``P[a, b] = sum_alpha c_alpha prod_d
    G_d^(alpha_d)[a_d, b_d]``: ``G_d^(k)`` (:func:`_gram_1d`) integrates
    products of ``k``-th derivatives of all levels' 1-D functions in
    direction ``d``, and ``a_d`` indexes ``a``'s factor among them.

    Leaf cells tessellate the box, and each support is a union of leaf cells
    inside which the function is positive. So two functions overlap on a set
    of positive measure exactly when both are nonzero at some leaf-cell
    centre: ``P`` has the pattern of ``C^T C``, ``C`` the basis at those
    centres. Its upper triangle takes one gather per direction and
    derivative order, and is mirrored.
    """
    for d in space.degrees:
        if d < 2:
            raise ValueError("thin-plate energy needs degree >= 2 in every direction")
    import scipy.sparse
    h = space if isinstance(space, HierarchicalSpace) else HierarchicalSpace.from_base(space)

    centres = np.concatenate([0.5 * (lo + hi) for _, lo, hi in h.leaf_cell_boxes()])
    C = h.basis_matrix(centres)
    pattern = scipy.sparse.triu(C.T @ C, format="coo")
    rows, cols = pattern.row, pattern.col

    factors, grams = [], {}
    for axis in range(h.ndim):
        kvs = tuple(space_l.knot_vectors[axis] for space_l in h.levels)
        if kvs not in grams:
            grams[kvs] = _gram_1d(kvs)
        start = np.cumsum([0] + [kv.dim for kv in kvs])
        index = np.concatenate([start[lev] + np.unravel_index(act, space_l.dims)[axis]
                                for lev, (space_l, act) in enumerate(zip(h.levels, h.active))])
        factors.append(grams[kvs][:, index[rows], index[cols]])
    # Each term of total order two carries its multinomial weight 2 / alpha!.
    vals = sum(
        2.0 / math.prod(map(math.factorial, alpha))
        * math.prod(f[k] for f, k in zip(factors, alpha))
        for alpha in itertools.product(range(3), repeat=h.ndim)
        if sum(alpha) == 2
    )
    P = np.zeros((h.dim, h.dim))
    P[rows, cols] = vals
    P[cols, rows] = vals
    return P


def solve_penalized_wls(B, weights, f, P, lam: float) -> np.ndarray:
    """Solve ``(0.5 B^T W B + lam P) c = 0.5 B^T W f`` per value component.

    ``B`` may be dense or a scipy sparse matrix; either gives the same
    coefficients. ``lam = 0`` is :func:`solve_wls` and ignores ``P``, which
    may then be ``None``; ``lam`` must be finite and non-negative
    (:class:`ValueError`). Raises :class:`SingularSystemError` when the
    regularized normal matrix cannot be factorized and :class:`NumericError`
    when a coefficient is not finite. ``weighted_solver(B, P, lam)`` sets up
    once for many weight vectors.
    """
    return weighted_solver(B, P, lam)(weights, f)
