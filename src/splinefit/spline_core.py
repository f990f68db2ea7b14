"""Univariate and tensor-product B-spline spaces.

Knot vectors, basis evaluation and derivatives by the Cox-de Boor recurrence,
collocation matrices, Schoenberg-Whitney admissibility, data parameterization
and knot placement. Basis indices are 0-based throughout; tensor-product
functions are numbered lexicographically with the last direction fastest.

Evaluation convention: the rightmost knot interval is treated as closed, so
values at the right end of the domain are the limits from the left.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse

__all__ = [
    "KnotVector",
    "SplineSpace",
    "WeightedPointCloud",
    "SplineFunction",
    "make_open_knot_vector",
    "eval_basis",
    "eval_basis_derivatives",
    "collocation_matrix",
    "schoenberg_whitney_admissible",
    "parameterize",
    "averaging_knots",
    "greville_abscissae",
    "MARKER_PLAIN",
    "MARKER_TYPE_ONE",
    "MARKER_TYPE_TWO",
]

MARKER_PLAIN = 0
MARKER_TYPE_ONE = 1
MARKER_TYPE_TWO = 2

# Relative slack used when deciding whether a point sits inside the domain.
_DOMAIN_RTOL = 1e-10


class KnotVector:
    """Non-decreasing knot sequence with a fixed polynomial degree.

    Parameters
    ----------
    knots : array_like
        Non-decreasing sequence of knots; every breakpoint is repeated
        according to its multiplicity. Interior multiplicities must lie in
        ``1..degree+1``.
    degree : int
        Polynomial degree ``d >= 0``; the order is ``k = d + 1``.
    clamped : bool, optional
        If ``True``, require end multiplicities equal to the order and raise
        otherwise. If omitted, clampedness is detected from the knots.
    """

    def __init__(self, knots, degree: int, clamped: bool | None = None):
        t = np.asarray(knots, dtype=float)
        if t.ndim != 1:
            raise ValueError("knots must be a one-dimensional sequence")
        degree = int(degree)
        if degree < 0:
            raise ValueError("degree must be non-negative")
        k = degree + 1
        if t.size < k + 1:
            raise ValueError(
                f"need at least {k + 1} knots for degree {degree}, got {t.size}"
            )
        if np.any(np.diff(t) < 0):
            raise ValueError("knots must be non-decreasing")

        self.degree = degree
        self.order = k
        self.knots = t
        self.knots.flags.writeable = False
        self.dim = t.size - k
        if self.dim < 1:
            raise ValueError("knot vector defines an empty space")

        _, counts = np.unique(t, return_counts=True)
        if np.any(counts > k):
            raise ValueError(f"knot multiplicity exceeds order {k}")

        is_clamped = bool(
            np.all(t[:k] == t[0]) and np.all(t[-k:] == t[-1]) and t[0] < t[-1]
        )
        if clamped is True and not is_clamped:
            raise ValueError("knot vector is not clamped (end multiplicities < order)")
        self.clamped = is_clamped if clamped is None else bool(clamped) and is_clamped

        # Domain where the basis forms a partition of unity.
        self.start = float(t[degree])
        self.end = float(t[self.dim])
        if not self.start < self.end:
            raise ValueError("knot vector has an empty domain")

        # Breakpoints inside the domain and the cells between them.
        self.breakpoints = np.unique(t[degree : self.dim + 1])
        self.breakpoints.flags.writeable = False
        self.num_cells = self.breakpoints.size - 1

    def __repr__(self):
        return (
            f"KnotVector(degree={self.degree}, dim={self.dim}, "
            f"domain=({self.start:g}, {self.end:g}))"
        )

    def __eq__(self, other):
        return (
            isinstance(other, KnotVector)
            and self.degree == other.degree
            and self.knots.shape == other.knots.shape
            and bool(np.all(self.knots == other.knots))
        )

    def __hash__(self):
        return hash((self.degree, self.knots.tobytes()))

    def contains(self, x: float) -> bool:
        slack = _DOMAIN_RTOL * (self.end - self.start)
        return self.start - slack <= x <= self.end + slack

    def _clip(self, x) -> np.ndarray:
        """Sites as floats, clipped onto the domain; raises for any site outside it."""
        x = np.asarray(x, dtype=float)
        slack = _DOMAIN_RTOL * (self.end - self.start)
        outside = ~((x >= self.start - slack) & (x <= self.end + slack))
        if outside.any():
            bad = float(x[outside].flat[0])
            raise ValueError(f"point {bad!r} outside domain [{self.start}, {self.end}]")
        return np.clip(x, self.start, self.end)

    def basis_rows(self, x, r: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives of orders ``0..r`` of the locally nonzero functions at every site.

        ``x`` is a one-dimensional array of ``m`` sites. Returns ``(first,
        ders)``: ``first`` of shape ``(m,)`` and ``ders`` of shape
        ``(m, r + 1, order)``, where ``ders[i, q, j]`` is the ``q``-th
        derivative of function ``first[i] + j`` at ``x[i]``. This is the
        Cox-de Boor recurrence with its derivative table (Piegl & Tiller,
        *The NURBS Book*, A2.2 and A2.3), looping over the degree only and
        carrying all sites along in each array operation.
        """
        if not 0 <= r <= self.degree:
            raise ValueError(f"derivative order {r} outside 0..{self.degree}")
        x = self._clip(x)
        if x.ndim != 1:
            raise ValueError("sites must be a one-dimensional array")
        d, t = self.degree, self.knots
        span = np.clip(np.searchsorted(t, x, side="right") - 1, d, self.dim - 1)

        # ndu[j, q] (q < j) holds knot differences, ndu[q, j] (q <= j) the
        # degree-j values, each an array over the sites.
        ndu = np.empty((d + 1, d + 1, x.size))
        left = np.empty((d + 1, x.size))
        right = np.empty((d + 1, x.size))
        ndu[0, 0] = 1.0
        for j in range(1, d + 1):
            left[j] = x - t[span + 1 - j]
            right[j] = t[span + j] - x
            saved = 0.0
            for q in range(j):
                ndu[j, q] = right[q + 1] + left[j - q]
                tmp = ndu[q, j - 1] / ndu[j, q]
                ndu[q, j] = saved + right[q + 1] * tmp
                saved = left[j - q] * tmp
            ndu[j, j] = saved

        ders = np.zeros((r + 1, d + 1, x.size))
        ders[0] = ndu[:, d]
        a = np.empty((2, d + 1, x.size))
        for i in range(d + 1):
            s1, s2 = 0, 1
            a[0, 0] = 1.0
            for q in range(1, r + 1):
                dd = 0.0
                rk, pk = i - q, d - q
                if i >= q:
                    a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                    dd = a[s2, 0] * ndu[rk, pk]
                j1 = 1 if rk >= -1 else -rk
                j2 = q - 1 if i - 1 <= pk else d - i
                for j in range(j1, j2 + 1):
                    a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                    dd = dd + a[s2, j] * ndu[rk + j, pk]
                if i <= pk:
                    a[s2, q] = -a[s1, q - 1] / ndu[pk + 1, i]
                    dd = dd + a[s2, q] * ndu[i, pk]
                ders[q, i] = dd
                s1, s2 = s2, s1

        factor = float(d)
        for q in range(1, r + 1):
            ders[q] *= factor
            factor *= d - q
        return span - d, ders.transpose(2, 0, 1)

    def cell_of(self, x) -> np.ndarray:
        """Indices of the breakpoint intervals containing the sites (right end closed)."""
        c = np.searchsorted(self.breakpoints, self._clip(x), side="right") - 1
        return np.clip(c, 0, self.num_cells - 1)

    def greville(self) -> np.ndarray:
        """Greville abscissae, the per-function averages of ``degree`` knots."""
        d, t = self.degree, self.knots
        if d == 0:
            return 0.5 * (t[:-1] + t[1:])
        out = np.empty(self.dim)
        for j in range(self.dim):
            out[j] = t[j + 1 : j + 1 + d].mean()
        return np.clip(out, self.start, self.end)


def make_open_knot_vector(
    domain: tuple[float, float],
    degree: int,
    interior_breakpoints: Sequence[float] = (),
) -> KnotVector:
    """Clamped knot vector on ``domain`` with the given interior breakpoints.

    End knots are repeated ``degree + 1`` times, so the dimension equals
    ``len(interior_breakpoints) + degree + 1``.
    """
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise ValueError("domain must be a nonempty interval")
    interior = np.asarray(interior_breakpoints, dtype=float)
    if interior.size:
        if np.any(np.diff(interior) <= 0):
            raise ValueError("interior breakpoints must be strictly increasing")
        if interior[0] <= a or interior[-1] >= b:
            raise ValueError("interior breakpoints must lie strictly inside the domain")
    k = degree + 1
    t = np.concatenate([np.full(k, a), interior, np.full(k, b)])
    return KnotVector(t, degree, clamped=True)


def uniform_interior(domain: tuple[float, float], count: int) -> np.ndarray:
    """``count`` equispaced interior breakpoints of ``domain``."""
    if count < 0:
        raise ValueError("count must be non-negative")
    a, b = domain
    return np.linspace(a, b, count + 2)[1:-1]


class SplineSpace:
    """Tensor product of univariate B-spline spaces.

    Functions are indexed lexicographically over the per-direction indices
    with the last direction running fastest (C order).
    """

    def __init__(self, knot_vectors: KnotVector | Iterable[KnotVector]):
        if isinstance(knot_vectors, KnotVector):
            knot_vectors = (knot_vectors,)
        self.knot_vectors = tuple(knot_vectors)
        if not self.knot_vectors:
            raise ValueError("need at least one knot vector")
        self.ndim = len(self.knot_vectors)
        self.dims = tuple(kv.dim for kv in self.knot_vectors)
        self.dim = int(np.prod(self.dims))
        self.degrees = tuple(kv.degree for kv in self.knot_vectors)
        self.domain = tuple((kv.start, kv.end) for kv in self.knot_vectors)
        self.clamped = all(kv.clamped for kv in self.knot_vectors)

    def __repr__(self):
        return f"SplineSpace(degrees={self.degrees}, dims={self.dims})"

    def __eq__(self, other):
        return (
            isinstance(other, SplineSpace)
            and self.knot_vectors == other.knot_vectors
        )

    def __hash__(self):
        return hash(self.knot_vectors)

    def _point(self, x) -> np.ndarray:
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if p.shape != (self.ndim,):
            raise ValueError(f"expected a point in R^{self.ndim}, got shape {p.shape}")
        return p

    def contains(self, x) -> bool:
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if p.shape != (self.ndim,):
            return False
        return all(kv.contains(v) for kv, v in zip(self.knot_vectors, p))

    def eval_basis(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Indices and values of the locally supported basis functions at ``x``.

        Returns ``(indices, values)``; at most ``prod(order)`` entries, values
        non-negative and, for clamped spaces, summing to one.
        """
        return self.eval_basis_derivatives(x, (0,) * self.ndim)

    def eval_basis_derivatives(self, x, alpha) -> tuple[np.ndarray, np.ndarray]:
        """Partial derivative ``alpha`` (a per-direction multi-index) of the basis at ``x``."""
        idx, vals = self._tensor_rows(self._point(x)[None], self._multi_index(alpha))
        return idx[0], vals[0]

    def basis_matrix(self, sites, alpha=None) -> scipy.sparse.csr_matrix:
        """Sparse ``(m, dim)`` matrix of the basis, or its partial derivative ``alpha``, at the sites."""
        sites = _as_sites(sites, self.ndim)
        alpha = (0,) * self.ndim if alpha is None else self._multi_index(alpha)
        idx, vals = self._tensor_rows(sites, alpha)
        m, width = idx.shape
        return scipy.sparse.csr_matrix(
            (vals.ravel(), idx.ravel(), np.arange(0, m * width + 1, width)),
            shape=(m, self.dim),
        )

    def _tensor_rows(self, sites, alpha) -> tuple[np.ndarray, np.ndarray]:
        """Per-site flat indices and values, ``(m, prod(order))`` each, as row-wise outer products."""
        m = sites.shape[0]
        idx = np.zeros((m, 1), dtype=np.intp)
        vals = np.ones((m, 1))
        for kv, x, a in zip(self.knot_vectors, sites.T, alpha):
            first, ders = kv.basis_rows(x, a)
            cols = first[:, None] + np.arange(kv.order)
            width = idx.shape[1] * kv.order
            idx = (idx[:, :, None] * kv.dim + cols[:, None, :]).reshape(m, width)
            vals = (vals[:, :, None] * ders[:, None, a, :]).reshape(m, width)
        return idx, vals

    def _multi_index(self, alpha) -> tuple[int, ...]:
        if np.isscalar(alpha):
            if self.ndim != 1:
                raise ValueError("multi-index required for a multivariate space")
            alpha = (int(alpha),)
        alpha = tuple(int(a) for a in np.atleast_1d(alpha))
        if len(alpha) != self.ndim:
            raise ValueError(
                f"multi-index length {len(alpha)} does not match dimension {self.ndim}"
            )
        if any(a < 0 for a in alpha):
            raise ValueError("derivative orders must be non-negative")
        for a, d in zip(alpha, self.degrees):
            if a > d:
                raise ValueError(f"derivative order {a} exceeds degree {d}")
        return alpha

    def local_ders_on_grid(self, axes_pts, order: int, max_level=None) -> tuple[np.ndarray, dict]:
        """Derivative rows on a tensor grid of points inside one cell.

        ``axes_pts`` holds per-direction coordinates, all strictly inside a
        single knot span per direction, so every grid point sees the same
        local functions. Returns ``(indices, {alpha: rows})`` with ``rows``
        of shape ``(prod(len(axes)), len(indices))``, points ordered with
        the last direction fastest. ``max_level`` is accepted for interface
        parity with hierarchical spaces and ignored.
        """
        firsts, tables = [], []
        for kv, pts in zip(self.knot_vectors, axes_pts):
            first, rows = kv.basis_rows(pts, min(order, kv.degree))
            if np.any(first != first[0]):
                raise ValueError("grid coordinates straddle a knot")
            firsts.append(first[0])
            tables.append(rows)
        sizes = [tab.shape[2] for tab in tables]
        flat = _flat_tensor_indices(self.dims, firsts, sizes)
        packs = {}
        for alpha in itertools.product(range(order + 1), repeat=self.ndim):
            if sum(alpha) != order:
                continue
            if any(a > d for a, d in zip(alpha, self.degrees)):
                continue
            rows = tables[0][:, alpha[0], :]
            for tab, a in zip(tables[1:], alpha[1:]):
                nxt = tab[:, a, :]
                rows = (
                    rows[:, None, :, None] * nxt[None, :, None, :]
                ).reshape(rows.shape[0] * nxt.shape[0], rows.shape[1] * nxt.shape[1])
            packs[alpha] = rows
        return flat, packs

    def greville_points(self) -> np.ndarray:
        """Tensor grid of Greville abscissae, one row per basis function."""
        axes = [kv.greville() for kv in self.knot_vectors]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def cells(self) -> list[tuple[tuple[float, float], ...]]:
        """All breakpoint cells as per-direction interval tuples."""
        out = []
        ranges = [range(kv.num_cells) for kv in self.knot_vectors]
        for idx in itertools.product(*ranges):
            out.append(
                tuple(
                    (kv.breakpoints[i], kv.breakpoints[i + 1])
                    for kv, i in zip(self.knot_vectors, idx)
                )
            )
        return out


def _flat_tensor_indices(dims, firsts, sizes) -> np.ndarray:
    """Flat C-order indices of a tensor block ``[first, first+size)`` per direction."""
    flat = np.zeros(1, dtype=np.intp)
    for dim, first, size in zip(dims, firsts, sizes):
        flat = (flat[:, None] * dim + np.arange(first, first + size)).ravel()
    return flat


def eval_basis(space: SplineSpace, x) -> tuple[np.ndarray, np.ndarray]:
    """Module-level alias of :meth:`SplineSpace.eval_basis`."""
    return space.eval_basis(x)


def eval_basis_derivatives(space: SplineSpace, x, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Module-level alias of :meth:`SplineSpace.eval_basis_derivatives`."""
    return space.eval_basis_derivatives(x, alpha)


def collocation_matrix(space, sites) -> np.ndarray:
    """Dense collocation matrix ``B[i, j] = basis_j(site_i)``.

    Works for tensor-product spaces and any space exposing ``basis_matrix``
    with the same contract.
    """
    return space.basis_matrix(sites).toarray()


def _as_sites(sites, ndim: int) -> np.ndarray:
    s = np.asarray(sites, dtype=float)
    if s.ndim == 1:
        if ndim != 1:
            raise ValueError(f"sites must have {ndim} coordinates")
        s = s[:, None]
    if s.ndim != 2 or s.shape[1] != ndim:
        raise ValueError(f"sites must be an (m, {ndim}) array, got shape {s.shape}")
    return s


def schoenberg_whitney_admissible(space: SplineSpace, sites) -> bool:
    """Nesting condition for a univariate interpolation subset of size ``dim``.

    Sorted sites ``xi_0 < ... < xi_{n-1}`` are admissible when every
    ``xi_j`` lies strictly inside the support ``(t_j, t_{j+k})`` of basis
    function ``j``; equality is allowed only at a clamped domain end, where
    the first (last) basis function is still nonzero. Equivalent to
    nonsingularity of the subset collocation matrix.
    """
    if space.ndim != 1:
        raise ValueError("the nesting condition applies to univariate spaces")
    kv = space.knot_vectors[0]
    xi = np.sort(np.asarray(sites, dtype=float).ravel())
    n, k, t = kv.dim, kv.order, kv.knots
    if xi.size != n:
        raise ValueError(f"subset size {xi.size} must equal the dimension {n}")
    if np.any(np.diff(xi) == 0):
        return False
    for j in range(n):
        left_ok = t[j] < xi[j] or (
            j == 0 and kv.clamped and xi[j] == t[0]
        )
        right_ok = xi[j] < t[j + k] or (
            j == n - 1 and kv.clamped and xi[j] == t[-1]
        )
        if not (left_ok and right_ok):
            return False
    return True


class WeightedPointCloud:
    """Observation sites, values, strictly positive weights and marker labels.

    Markers: 0 = plain, 1 = type I (feature to preserve), 2 = type II (noisy
    or outlying, not to be reproduced). Immutable; weight updates produce new
    instances via :meth:`with_weights`.
    """

    def __init__(self, sites, values, weights=None, markers=None):
        sites = np.asarray(sites, dtype=float)
        if sites.ndim == 1:
            sites = sites[:, None]
        if sites.ndim != 2 or sites.shape[0] < 1:
            raise ValueError("sites must be a nonempty (m, N) array")
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != sites.shape[0]:
            raise ValueError("values and sites must have the same length")
        if not np.all(np.isfinite(sites)):
            raise ValueError("sites must be finite")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")

        m = sites.shape[0]
        if weights is None:
            weights = np.ones(m)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (m,):
            raise ValueError("weights must be a length-m vector")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be strictly positive and finite")

        if markers is None:
            markers = np.zeros(m, dtype=int)
        markers = np.asarray(markers, dtype=int)
        if markers.shape != (m,):
            raise ValueError("markers must be a length-m vector")
        if not np.all(np.isin(markers, (MARKER_PLAIN, MARKER_TYPE_ONE, MARKER_TYPE_TWO))):
            raise ValueError("markers must be 0 (plain), 1 (type I) or 2 (type II)")

        self.sites = sites
        self.values = values
        self.weights = weights
        self.markers = markers
        for arr in (self.sites, self.values, self.weights, self.markers):
            arr.flags.writeable = False

    @property
    def m(self) -> int:
        return self.sites.shape[0]

    @property
    def ndim(self) -> int:
        return self.sites.shape[1]

    @property
    def dim_values(self) -> int:
        return self.values.shape[1]

    @property
    def type_one(self) -> np.ndarray:
        """Indices of type I markers."""
        return np.flatnonzero(self.markers == MARKER_TYPE_ONE)

    @property
    def type_two(self) -> np.ndarray:
        """Indices of type II markers."""
        return np.flatnonzero(self.markers == MARKER_TYPE_TWO)

    def with_weights(self, weights) -> "WeightedPointCloud":
        return WeightedPointCloud(self.sites, self.values, weights, self.markers)

    def __repr__(self):
        return (
            f"WeightedPointCloud(m={self.m}, ndim={self.ndim}, "
            f"D={self.dim_values}, type_one={self.type_one.size}, "
            f"type_two={self.type_two.size})"
        )


class SplineFunction:
    """Element of a spline space: coefficients with ``space.dim`` rows."""

    def __init__(self, space, coefficients):
        c = np.asarray(coefficients, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        if c.ndim != 2 or c.shape[0] != space.dim:
            raise ValueError(
                f"coefficients must have {space.dim} rows, got shape {c.shape}"
            )
        self.space = space
        self.coefficients = c
        self.coefficients.flags.writeable = False

    @property
    def dim_values(self) -> int:
        return self.coefficients.shape[1]

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(x)

    def evaluate(self, x) -> np.ndarray:
        """Value at ``x`` as a length-D vector."""
        idx, vals = self.space.eval_basis(x)
        return vals @ self.coefficients[idx]

    def evaluate_derivative(self, x, alpha) -> np.ndarray:
        """Partial derivative ``alpha`` at ``x`` as a length-D vector."""
        idx, vals = self.space.eval_basis_derivatives(x, alpha)
        return vals @ self.coefficients[idx]

    def evaluate_many(self, sites, alpha=None) -> np.ndarray:
        """Values, or partial derivatives ``alpha``, at several points, one row per site."""
        return self.space.basis_matrix(sites, alpha) @ self.coefficients


def parameterize(values, method: str = "uniform") -> np.ndarray:
    """Strictly increasing parameters in ``[0, 1]`` for an ordered point sequence.

    ``uniform`` ignores the geometry; ``chord`` accumulates Euclidean
    segment lengths and fails when consecutive points coincide.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    m = v.shape[0]
    if m < 2:
        raise ValueError("need at least two points to parameterize")
    if method == "uniform":
        return np.linspace(0.0, 1.0, m)
    if method == "chord":
        seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
        if np.any(seg == 0):
            i = int(np.flatnonzero(seg == 0)[0])
            raise ValueError(f"duplicate consecutive points at positions {i}, {i + 1}")
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        return cum / cum[-1]
    raise ValueError(f"unknown parameterization method {method!r}")


def averaging_knots(sites, n: int, degree: int) -> KnotVector:
    """Clamped knot vector with interior knots averaged from the sites.

    Each of the ``n - degree - 1`` interior knots is the mean of ``degree``
    consecutive sites, the classical placement for interpolation. When
    ``n < m`` the site sequence is first resampled at ``n`` equispaced
    quantiles, which preserves the density adaptation of the rule.
    """
    s = np.asarray(sites, dtype=float).ravel()
    m = s.size
    if degree < 1:
        raise ValueError("averaging knot placement needs degree >= 1")
    k = degree + 1
    if n < k:
        raise ValueError(f"need n >= {k} for degree {degree}")
    if n > m:
        raise ValueError(f"cannot place {n} functions on {m} sites")
    if np.any(np.diff(s) < 0):
        raise ValueError("sites must be sorted")

    if n < m:
        s = np.quantile(s, np.linspace(0.0, 1.0, n))
    interior = np.empty(n - k)
    for j in range(1, n - degree):
        interior[j - 1] = s[j : j + degree].mean()
    return make_open_knot_vector((s[0], s[-1]), degree, interior)


def greville_abscissae(kv: KnotVector) -> np.ndarray:
    """Module-level alias of :meth:`KnotVector.greville`."""
    return kv.greville()
