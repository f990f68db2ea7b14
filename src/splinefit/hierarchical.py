"""Hierarchical B-spline spaces over nested dyadic levels.

Each level is a tensor-product space obtained by dyadic refinement of the
previous one. Per level, a nested subdomain (a set of that level's cells)
selects the active basis functions: those whose support lies inside the
level's subdomain but not entirely inside the next finer one. Active
functions are numbered level-major, coarsest first.

The plain hierarchical basis is used (no truncation), so non-negativity
holds but partition of unity is not guaranteed; penalized solves cover the
conditioning of refined spaces.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

import numpy as np
import scipy.ndimage
import scipy.sparse

from .spline_core import KnotVector, SplineSpace, _as_sites

__all__ = [
    "CellId",
    "HierarchicalSpace",
    "dyadic_refine_space",
    "build_hierarchical",
    "mark_cells",
    "collocation_hierarchical",
]


class CellId(NamedTuple):
    """A cell of the tessellation: refinement level plus per-direction span index."""

    level: int
    index: tuple[int, ...]


def _dyadic_kv(kv: KnotVector) -> KnotVector:
    """Insert the midpoint of every nonempty span with multiplicity one."""
    mids = 0.5 * (kv.breakpoints[:-1] + kv.breakpoints[1:])
    return KnotVector(np.sort(np.concatenate([kv.knots, mids])), kv.degree)


def dyadic_refine_space(space: SplineSpace) -> SplineSpace:
    """Tensor space with every knot span split at its midpoint, same degrees.

    The refined space contains the original one.
    """
    return SplineSpace([_dyadic_kv(kv) for kv in space.knot_vectors])


def _function_cell_ranges(kv: KnotVector) -> tuple[np.ndarray, np.ndarray]:
    """Per-function half-open cell ranges ``[lo, hi)`` covered by the supports."""
    t, k, n = kv.knots, kv.order, kv.dim
    lo = np.searchsorted(kv.breakpoints, np.maximum(t[:n], kv.start), side="left")
    hi = np.searchsorted(kv.breakpoints, np.minimum(t[k : k + n], kv.end), side="left")
    return lo.astype(np.intp), hi.astype(np.intp)


def _window_all(mask: np.ndarray, los, his) -> np.ndarray:
    """For every per-direction index combination, whether the box ``[lo, hi)`` is all True."""
    cum = mask.astype(np.int64)
    for axis in range(mask.ndim):
        cum = np.cumsum(cum, axis=axis)
    padded = np.zeros(tuple(s + 1 for s in cum.shape), dtype=np.int64)
    padded[tuple(slice(1, None) for _ in range(mask.ndim))] = cum

    total = np.zeros(tuple(lo.size for lo in los), dtype=np.int64)
    ndim = mask.ndim
    for corner in itertools.product((0, 1), repeat=ndim):
        pick = [his[d] if corner[d] else los[d] for d in range(ndim)]
        sign = (-1) ** (ndim - sum(corner))
        total += sign * padded[np.ix_(*pick)]
    volume = (his[0] - los[0]).astype(np.int64)
    for lo, hi in zip(los[1:], his[1:]):
        volume = np.multiply.outer(volume, hi - lo)
    return total == volume


def _coarsen_all(mask: np.ndarray) -> np.ndarray:
    """AND-reduce each group of 2^N sibling cells to their parent cell."""
    shape = []
    for s in mask.shape:
        shape += [s // 2, 2]
    axes = tuple(range(1, 2 * mask.ndim, 2))
    return mask.reshape(shape).all(axis=axes)


class HierarchicalSpace:
    """Multi-level spline space defined by nested subdomains.

    Immutable; :meth:`refine` returns a new space. Construction recomputes
    the active sets from the subdomain masks, so instances are always
    consistent with the selection rule.
    """

    def __init__(self, levels, domains):
        self.levels = tuple(levels)
        self.domains = tuple(np.asarray(d, dtype=bool) for d in domains)
        if len(self.levels) != len(self.domains):
            raise ValueError("one subdomain mask per level required")
        base = self.levels[0]
        self.ndim = base.ndim
        self.degrees = base.degrees
        self.domain = base.domain
        if not self.domains[0].all():
            raise ValueError("the level-0 subdomain must cover the whole domain")
        for lev, (space, mask) in enumerate(zip(self.levels, self.domains)):
            expected = tuple(kv.num_cells for kv in space.knot_vectors)
            if mask.shape != expected:
                raise ValueError(
                    f"level {lev} mask shape {mask.shape} does not match cells {expected}"
                )
        for lev in range(1, len(self.domains)):
            if not self.domains[lev].any():
                raise ValueError(f"level {lev} subdomain is empty")
            parents = _coarsen_any(self.domains[lev])
            if np.any(parents & ~self.domains[lev - 1]):
                raise ValueError(f"level {lev} subdomain escapes level {lev - 1}")

        self.active = tuple(self._active_sets())
        sizes = [a.size for a in self.active]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
        self.dim = int(self.offsets[-1])

    def _active_sets(self):
        out = []
        for lev, space in enumerate(self.levels):
            ranges = [_function_cell_ranges(kv) for kv in space.knot_vectors]
            los = [r[0] for r in ranges]
            his = [r[1] for r in ranges]
            own = _window_all(self.domains[lev], los, his)
            if lev + 1 < len(self.domains):
                child = _window_all(
                    self.domains[lev + 1],
                    [2 * lo for lo in los],
                    [2 * hi for hi in his],
                )
            else:
                child = np.zeros_like(own)
            out.append(np.flatnonzero(own & ~child).astype(np.intp))
        return out

    @classmethod
    def from_base(cls, space: SplineSpace) -> "HierarchicalSpace":
        mask = np.ones(tuple(kv.num_cells for kv in space.knot_vectors), dtype=bool)
        return cls([space], [mask])

    @classmethod
    def from_subdomains(cls, base: SplineSpace, cell_lists) -> "HierarchicalSpace":
        """Rebuild a space from per-level flat cell index lists (level 0 implied full)."""
        levels = [base]
        domains = [np.ones(tuple(kv.num_cells for kv in base.knot_vectors), dtype=bool)]
        for cells in cell_lists:
            space = dyadic_refine_space(levels[-1])
            levels.append(space)
            shape = tuple(kv.num_cells for kv in space.knot_vectors)
            mask = np.zeros(shape, dtype=bool)
            flat = np.asarray(list(cells), dtype=np.intp)
            mask.ravel()[flat] = True
            domains.append(mask)
        return cls(levels, domains)

    def subdomain_cells(self, level: int) -> np.ndarray:
        """Sorted flat indices of the level's subdomain cells."""
        return np.flatnonzero(self.domains[level].ravel())

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def contains(self, x) -> bool:
        return self.levels[0].contains(x)

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------

    def refine(self, marked: Iterable[CellId], buffer: bool = True) -> "HierarchicalSpace":
        """New space with the marked cells dyadically split.

        The children of every marked cell join the next level's subdomain;
        with ``buffer`` a one-ring of same-level neighbor cells (clipped to
        the current subdomain) is refined along, so functions gain support
        in the refined region. Marking a cell outside its level's subdomain
        violates nesting and raises ``ValueError``.
        """
        per_level: dict[int, list[tuple[int, ...]]] = {}
        for cell in marked:
            cid = CellId(int(cell[0]), tuple(int(i) for i in cell[1]))
            per_level.setdefault(cid.level, []).append(cid.index)
        if not per_level:
            return HierarchicalSpace(self.levels, self.domains)

        levels = list(self.levels)
        domains = [d.copy() for d in self.domains]
        for lev in sorted(per_level):
            if lev >= len(levels):
                raise ValueError(f"marked cell at unknown level {lev}")
            mask = np.zeros_like(domains[lev])
            for index in per_level[lev]:
                if len(index) != self.ndim or not all(
                    0 <= i < s for i, s in zip(index, mask.shape)
                ):
                    raise ValueError(f"cell index {index} out of range at level {lev}")
                if not domains[lev][index]:
                    raise ValueError(
                        f"nesting violation: cell {index} not in the level-{lev} subdomain"
                    )
                mask[index] = True
            if buffer:
                ring = scipy.ndimage.binary_dilation(
                    mask, structure=np.ones((3,) * self.ndim, dtype=bool)
                )
                mask = ring & domains[lev]
            if lev + 1 == len(levels):
                levels.append(dyadic_refine_space(levels[lev]))
                domains.append(
                    np.zeros(
                        tuple(kv.num_cells for kv in levels[-1].knot_vectors), dtype=bool
                    )
                )
            domains[lev + 1] |= _expand_children(mask)
        return HierarchicalSpace(levels, domains)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _filter_active(self, level: int, tensor_idx: np.ndarray):
        act = self.active[level]
        if act.size == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=bool)
        pos = np.searchsorted(act, tensor_idx)
        pos_c = np.minimum(pos, act.size - 1)
        keep = act[pos_c] == tensor_idx
        return self.offsets[level] + pos_c[keep], keep

    def basis_matrix(self, sites, alpha=None) -> scipy.sparse.csr_matrix:
        """Sparse matrix of the active functions, or their partial derivative ``alpha``, at the sites.

        Each level's tensor matrix restricted to its active columns,
        stacked level-major: ``hstack_l B_l[:, active_l]``.
        """
        blocks = [
            space.basis_matrix(sites, alpha)[:, act]
            for space, act in zip(self.levels, self.active)
            if act.size
        ]
        return scipy.sparse.hstack(blocks, format="csr")

    def eval_basis(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Indices and values of the active functions supported at ``x``."""
        return self.eval_basis_derivatives(x, (0,) * self.ndim)

    def eval_basis_derivatives(self, x, alpha) -> tuple[np.ndarray, np.ndarray]:
        """Partial derivative ``alpha`` of the active functions supported at ``x``."""
        row = self.basis_matrix(self.levels[0]._point(x)[None], alpha)
        return row.indices, row.data

    def local_ders_on_grid(self, axes_pts, order: int, max_level=None) -> tuple[np.ndarray, dict]:
        """Derivative rows on a point grid inside one leaf cell.

        Same contract as :meth:`SplineSpace.local_ders_on_grid`; only
        functions of levels up to ``max_level`` (the leaf's level) can be
        supported on the cell, finer ones are skipped outright.
        """
        top = len(self.levels) - 1 if max_level is None else min(max_level, len(self.levels) - 1)
        idx_parts, packs_parts = [], []
        for lev in range(top + 1):
            if self.active[lev].size == 0:
                continue
            tidx, packs = self.levels[lev].local_ders_on_grid(axes_pts, order)
            gidx, keep = self._filter_active(lev, tidx)
            if gidx.size:
                idx_parts.append(gidx)
                packs_parts.append({a: rows[:, keep] for a, rows in packs.items()})
        if not idx_parts:
            npts = int(np.prod([len(p) for p in axes_pts]))
            return np.empty(0, dtype=np.intp), {
                alpha: np.empty((npts, 0)) for alpha in ()
            }
        alphas = packs_parts[0].keys()
        merged = {
            a: np.concatenate([p[a] for p in packs_parts], axis=1) for a in alphas
        }
        return np.concatenate(idx_parts), merged

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------

    def _leaf_masks(self):
        for lev in range(len(self.levels)):
            mask = self.domains[lev]
            if lev + 1 < len(self.domains):
                subdivided = _coarsen_all(self.domains[lev + 1])
            else:
                subdivided = np.zeros_like(mask)
            yield lev, mask & ~subdivided

    def leaf_cells(self) -> list[CellId]:
        """Cells of the tessellation, each covering its region exactly once."""
        out = []
        for lev, mask in self._leaf_masks():
            for flat in np.flatnonzero(mask.ravel()):
                out.append(CellId(lev, tuple(np.unravel_index(flat, mask.shape))))
        return out

    def leaf_cell_bounds(self) -> list[tuple[tuple[float, float], ...]]:
        """Per-direction interval bounds of every leaf cell (quadrature support)."""
        out = []
        for cid in self.leaf_cells():
            kvs = self.levels[cid.level].knot_vectors
            out.append(
                tuple(
                    (kv.breakpoints[i], kv.breakpoints[i + 1])
                    for kv, i in zip(kvs, cid.index)
                )
            )
        return out


def _coarsen_any(mask: np.ndarray) -> np.ndarray:
    """OR-reduce each group of 2^N sibling cells to their parent cell."""
    shape = []
    for s in mask.shape:
        shape += [s // 2, 2]
    axes = tuple(range(1, 2 * mask.ndim, 2))
    return mask.reshape(shape).any(axis=axes)


def _expand_children(mask: np.ndarray) -> np.ndarray:
    """Map a level-l cell mask to the mask of all its level-(l+1) children."""
    out = mask
    for axis in range(mask.ndim):
        out = np.repeat(out, 2, axis=axis)
    return out


def build_hierarchical(base: SplineSpace, marked_per_level) -> HierarchicalSpace:
    """Hierarchical space from a base tensor space and per-level marked cells.

    ``marked_per_level`` maps level to an iterable of per-direction cell
    index tuples; levels are processed coarsest first so marks at level
    ``l + 1`` may target cells created by the level-``l`` marks.
    """
    space = HierarchicalSpace.from_base(base)
    if not marked_per_level:
        return space
    for lev in sorted(marked_per_level):
        cells = [CellId(lev, tuple(ix)) for ix in marked_per_level[lev]]
        if cells:
            space = space.refine(cells, buffer=False)
    return space


def mark_cells(h: HierarchicalSpace, sites, errors, eps: float) -> list[CellId]:
    """Leaf cells containing the sites whose error exceeds ``eps``, deduplicated."""
    sites = _as_sites(sites, h.ndim)
    errors = np.asarray(errors, dtype=float)
    if errors.shape != (sites.shape[0],):
        raise ValueError("errors must align with sites")
    pending = sites[errors > eps]
    marked = set()
    # A site's leaf is its cell on the finest level whose subdomain holds it.
    for lev in range(h.num_levels - 1, -1, -1):
        index = tuple(
            kv.cell_of(x) for kv, x in zip(h.levels[lev].knot_vectors, pending.T)
        )
        inside = h.domains[lev][index]
        for cell in zip(*(i[inside].tolist() for i in index)):
            marked.add(CellId(lev, cell))
        pending = pending[~inside]
    return sorted(marked)


def collocation_hierarchical(h: HierarchicalSpace, sites, sparse: bool = False):
    """Collocation matrix of the hierarchical basis, dense by default.

    With ``sparse=True`` a CSR matrix with identical entries is returned,
    which the penalized solver consumes directly.
    """
    B = h.basis_matrix(sites)
    return B if sparse else B.toarray()
