"""Univariate and tensor-product B-spline spaces.

Knot vectors, basis evaluation and derivatives by the Cox-de Boor recurrence,
collocation matrices, Schoenberg-Whitney admissibility, data parameterization
and knot placement. Basis indices are 0-based throughout; tensor-product
functions are numbered lexicographically with the last direction fastest.

Every kind of space yields its basis as per-level rows of locally nonzero
functions, and basis evaluation, basis matrices and ``evaluate_many`` are
written once over those rows.

Evaluation convention: the rightmost knot interval is treated as closed, so
values at the right end of the domain are the limits from the left.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "KnotVector",
    "SplineSpace",
    "WeightedPointCloud",
    "SplineFunction",
    "make_open_knot_vector",
    "collocation_matrix",
    "schoenberg_whitney_admissible",
    "parameterize",
    "averaging_knots",
    "MARKER_PLAIN",
    "MARKER_TYPE_ONE",
    "MARKER_TYPE_TWO",
]

MARKER_PLAIN = 0
MARKER_TYPE_ONE = 1
MARKER_TYPE_TWO = 2

# Relative slack used when deciding whether a point sits inside the domain.
_DOMAIN_RTOL = 1e-10


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values`` as ``dtype``: an instance keeps it, and the
    caller's own array stays writeable and cannot change the instance."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


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

    Attributes
    ----------
    clamped : bool
        Whether both end multiplicities equal the order, detected from the knots.
    """

    def __init__(self, knots, degree: int):
        t = _frozen(knots)
        if t.ndim != 1:
            raise ValueError("knots must be a one-dimensional sequence")
        if not np.all(np.isfinite(t)):
            raise ValueError("knots must be finite")
        degree = _integer(degree, "degree")
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
        self.dim = t.size - k
        if self.dim < 1:
            raise ValueError("knot vector defines an empty space")

        _, counts = np.unique(t, return_counts=True)
        if np.any(counts > k):
            raise ValueError(f"knot multiplicity exceeds order {k}")

        self.clamped = bool(
            np.all(t[:k] == t[0]) and np.all(t[-k:] == t[-1]) and t[0] < t[-1]
        )

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
        return np.clip(_window_means(t[1:-1], d), self.start, self.end)


def _window_means(values: np.ndarray, width: int) -> np.ndarray:
    """Means of every ``width`` consecutive entries of ``values``, in order."""
    return np.lib.stride_tricks.sliding_window_view(values, width).mean(axis=1)


def make_open_knot_vector(
    domain: tuple[float, float],
    degree: int,
    interior_breakpoints: Sequence[float] = (),
) -> KnotVector:
    """Clamped knot vector on ``domain`` with the given interior breakpoints.

    End knots are repeated ``degree + 1`` times, so the dimension equals
    ``len(interior_breakpoints) + degree + 1``.
    """
    degree = _integer(degree, "degree")
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
    return KnotVector(t, degree)


def uniform_interior(domain: tuple[float, float], count: int) -> np.ndarray:
    """``count`` equispaced interior breakpoints of ``domain``."""
    if count < 0:
        raise ValueError("count must be non-negative")
    a, b = domain
    return np.linspace(a, b, count + 2)[1:-1]


class _RowSpace:
    """Basis evaluation written once over a space's ``_rows(sites, alphas)``.

    A space has ``ndim``, ``degrees`` and ``dim``. Given a list of checked
    multi-indices, its ``_rows`` yields per level ``(rows, columns, values)``:
    ``rows`` indexes the sites the level touches (``slice(None)``: all), and
    at each touched site ``columns`` holds the level's ``prod(order)`` locally
    nonzero tensor functions as columns in the space, column ``dim`` marking
    one not in the space, and ``values`` one array per multi-index. A site
    left out has no function of the level in the space.
    """

    def eval_basis_derivatives(self, x, alpha) -> tuple[np.ndarray, np.ndarray]:
        """Increasing indices and values at ``x`` of the basis functions supported there, or
        of their partial derivative ``alpha`` (a per-direction multi-index; None: values)."""
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if p.shape != (self.ndim,):
            raise ValueError(f"expected a point in R^{self.ndim}, got shape {p.shape}")
        values, indices, _ = self._csr_arrays(p[None], alpha)
        return indices, values

    def basis_matrix(self, sites, alpha=None) -> scipy.sparse.csr_matrix:
        """Sparse ``(m, dim)`` matrix of the basis, or its partial derivative ``alpha``, at the sites.

        Loads ``scipy.sparse`` on first call; evaluation needs no matrix.
        """
        import scipy.sparse
        sites = _as_sites(sites, self.ndim)
        return scipy.sparse.csr_matrix(
            self._csr_arrays(sites, alpha), shape=(sites.shape[0], self.dim)
        )

    def _csr_arrays(self, sites, alpha) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(values, columns, row pointer)`` of the basis at the sites, rows level-major."""
        levels = list(self._rows(sites, [self._multi_index(alpha)]))
        if len(levels) == 1 and isinstance(levels[0][0], slice):
            _, columns, (values,) = levels[0]
        else:  # the levels side by side, sentinel columns where a level leaves a site out
            edges = np.cumsum([0] + [c.shape[1] for _, c, _ in levels])
            columns = np.full((sites.shape[0], edges[-1]), self.dim, dtype=np.intp)
            values = np.zeros(columns.shape)
            for (rows, c, (v,)), lo, hi in zip(levels, edges, edges[1:]):
                columns[rows, lo:hi], values[rows, lo:hi] = c, v
        keep = columns != self.dim
        if keep.all():  # no sentinel (always so in a tensor space): every row is full
            return values.ravel(), columns.ravel(), np.arange(
                0, columns.size + 1, columns.shape[1], dtype=np.intp)
        indptr = np.zeros(sites.shape[0] + 1, dtype=np.intp)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return values[keep], columns[keep], indptr

    def _multi_index(self, alpha) -> tuple[int, ...]:
        if alpha is None:
            return (0,) * self.ndim
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


class SplineSpace(_RowSpace):
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
        self.cells = tuple(kv.num_cells for kv in self.knot_vectors)
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

    def _rows(self, sites, alphas):
        """The one level, touching every site: the tensor rows themselves."""
        yield (slice(None), *self._tensor_rows(sites, alphas))

    def _tensor_rows(self, sites, alphas) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-site flat indices and, per multi-index, values as row-wise outer products.

        Each array is ``(m, prod(order))``, functions running with the last
        direction fastest. One ``basis_rows`` call per direction, at the
        highest order asked there, serves every multi-index.
        """
        m = sites.shape[0]
        idx = np.zeros((m, 1), dtype=np.intp)
        vals = [np.ones((m, 1))] * len(alphas)
        for kv, x, orders in zip(self.knot_vectors, sites.T, zip(*alphas)):
            first, ders = kv.basis_rows(x, max(orders))
            width = idx.shape[1] * kv.order
            cols = first[:, None, None] + np.arange(kv.order)
            idx = (idx[:, :, None] * kv.dim + cols).reshape(m, width)
            vals = [(v[:, :, None] * ders[:, None, a, :]).reshape(m, width)
                    for v, a in zip(vals, orders)]
        return idx, vals


def collocation_matrix(space, sites) -> np.ndarray:
    """Dense collocation matrix ``B[i, j] = basis_j(site_i)`` of a tensor or hierarchical space.

    Adds the basis rows into zeros on numpy alone, without ``scipy.sparse``.
    No row repeats a column, so ``B`` equals ``basis_matrix(sites).toarray()``
    bit for bit.
    """
    sites = _as_sites(sites, space.ndim)
    values, columns, indptr = space._csr_arrays(sites, None)
    B = np.zeros((sites.shape[0], space.dim))
    B[np.repeat(np.arange(sites.shape[0]), np.diff(indptr)), columns] += values
    return B


def _as_sites(sites, ndim: int) -> np.ndarray:
    s = np.asarray(sites, dtype=float)
    if s.ndim == 1:
        if ndim != 1:
            raise ValueError(f"sites must have {ndim} coordinates")
        s = s[:, None]
    if s.ndim != 2 or s.shape[1] != ndim:
        raise ValueError(f"sites must be an (m, {ndim}) array, got shape {s.shape}")
    return s


def _integer(value, what: str) -> int:
    """``value`` as an ``int``; what ``operator.index`` rejects (a float) raises
    ``ValueError`` naming it as a ``what``, where ``int`` would truncate it."""
    try:
        return int(operator.index(value))
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an ``intp`` array, each entry checked by :func:`_integer`."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        for i in np.asarray(values, dtype=object).ravel():
            _integer(i, what)
    return arr.astype(np.intp, copy=False)


def _point_indices(indices, m: int) -> np.ndarray:
    """``indices`` as an ``intp`` array of point indices, each an integer in ``0..m-1``.

    An entry that is not an integer by ``operator.index`` (a float among
    them) or lies outside the range raises ``ValueError`` naming it, where
    numpy indexing would truncate the float or wrap the negative index.
    """
    arr = _integers(indices, "point index")
    bad = (arr < 0) | (arr >= m)
    if bad.any():
        raise ValueError(f"point index {arr[bad].flat[0]} out of range for {m} points")
    return arr


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
    or outlying, not to be reproduced). Immutable: :func:`~splinefit.fitting.update_weights`
    returns new weight arrays, and a cloud with other weights is a new instance.
    """

    def __init__(self, sites, values, weights=None, markers=None):
        sites = _frozen(sites)
        if sites.ndim == 1:
            sites = sites[:, None]
        if sites.ndim != 2 or sites.shape[0] < 1:
            raise ValueError("sites must be a nonempty (m, N) array")
        values = _frozen(values)
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
        weights = _frozen(weights)
        if weights.shape != (m,):
            raise ValueError("weights must be a length-m vector")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be strictly positive and finite")

        if markers is None:
            markers = np.zeros(m, dtype=int)
        markers = _frozen(_integers(markers, "marker label"), np.intp)
        if markers.shape != (m,):
            raise ValueError("markers must be a length-m vector")
        if not np.all(np.isin(markers, (MARKER_PLAIN, MARKER_TYPE_ONE, MARKER_TYPE_TWO))):
            raise ValueError("markers must be 0 (plain), 1 (type I) or 2 (type II)")

        self.sites = sites
        self.values = values
        self.weights = weights
        self.markers = markers

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

    def __repr__(self):
        return (
            f"WeightedPointCloud(m={self.m}, ndim={self.ndim}, "
            f"D={self.dim_values}, type_one={self.type_one.size}, "
            f"type_two={self.type_two.size})"
        )


class SplineFunction:
    """Element of a spline space: coefficients with ``space.dim`` rows."""

    def __init__(self, space, coefficients):
        c = _frozen(coefficients)
        if c.ndim == 1:
            c = c[:, None]
        if c.ndim != 2 or c.shape[0] != space.dim:
            raise ValueError(
                f"coefficients must have {space.dim} rows, got shape {c.shape}"
            )
        self.space = space
        self.coefficients = c

    @property
    def dim_values(self) -> int:
        return self.coefficients.shape[1]

    def evaluate(self, x) -> np.ndarray:
        """Value at ``x`` as a length-D vector."""
        return self.evaluate_many(np.reshape(x, (1, -1)))[0]

    def evaluate_derivative(self, x, alpha) -> np.ndarray:
        """Partial derivative ``alpha`` at ``x`` as a length-D vector."""
        return self.evaluate_many(np.reshape(x, (1, -1)), alpha)[0]

    def evaluate_many(self, sites, alpha=None) -> np.ndarray:
        """Values, or partial derivatives ``alpha``, at several points, one row per site.

        ``alpha`` may also be a sequence of multi-indices; each then gives
        ``dim_values`` columns, side by side in the order given.
        """
        sites = _as_sites(sites, self.space.ndim)
        alphas = [self.space._multi_index(a)
                  for a in (alpha if np.ndim(alpha) == 2 else [alpha])]
        # Row ``dim`` is zero: columns outside the space contribute nothing.
        padded = np.vstack([self.coefficients, np.zeros((1, self.dim_values))])
        out = np.zeros((sites.shape[0], len(alphas), self.dim_values))
        for rows, columns, values in self.space._rows(sites, alphas):
            coefficients = padded[columns]
            for i, v in enumerate(values):
                out[rows, i] += np.einsum("mk,mkd->md", v, coefficients)
        return out.reshape(sites.shape[0], -1)


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
    interior = _window_means(s[1:], degree)[:-1]
    return make_open_knot_vector((s[0], s[-1]), degree, interior)
