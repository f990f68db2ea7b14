"""Hierarchical B-spline spaces over nested dyadic levels.

Each level is a tensor-product space obtained by dyadic refinement of the
previous one. Per level, a nested subdomain (a set of that level's cells)
selects the active basis functions: those whose support lies inside the
level's subdomain but not entirely inside the next finer one. Active
functions are numbered level-major, coarsest first. Evaluation maps each
level's tensor basis rows onto the active columns.

The plain hierarchical basis is used (no truncation), so non-negativity
holds but partition of unity is not guaranteed; penalized solves cover the
conditioning of refined spaces.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, NamedTuple

import numpy as np

from .spline_core import KnotVector, SplineSpace, _as_sites, _frozen, _RowSpace

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
    """For every per-direction index combination, whether the box ``[lo, hi)`` is all True.

    Axis by axis, a prefix count turns each window into a difference.
    """
    out = mask
    for lo, hi in zip(los, his):
        count = np.cumsum(out, axis=0)
        count = np.concatenate([np.zeros_like(count[:1]), count])
        out = np.moveaxis(count[hi] - count[lo], 0, -1) == hi - lo
    return out


def _dilate(mask: np.ndarray) -> np.ndarray:
    """The True cells of ``mask`` plus every cell sharing a face, edge or corner with one."""
    padded = np.pad(mask, 1)
    out = np.zeros_like(mask)
    for shift in itertools.product((0, 1, 2), repeat=mask.ndim):
        out |= padded[tuple(slice(s, s + n) for s, n in zip(shift, mask.shape))]
    return out


class HierarchicalSpace(_RowSpace):
    """Multi-level spline space defined by nested subdomains.

    Immutable; :meth:`refine` returns a new space. Construction recomputes
    the active sets from the subdomain masks, so instances are always
    consistent with the selection rule.
    """

    def __init__(self, levels, domains):
        self.levels = tuple(levels)
        self.domains = tuple(_frozen(d, bool) for d in domains)
        if len(self.levels) != len(self.domains):
            raise ValueError("one subdomain mask per level required")
        base = self.levels[0]
        self.ndim = base.ndim
        self.degrees = base.degrees
        self.domain = base.domain
        if not self.domains[0].all():
            raise ValueError("the level-0 subdomain must cover the whole domain")
        for lev, (space, mask) in enumerate(zip(self.levels, self.domains)):
            if mask.shape != space.cells:
                raise ValueError(
                    f"level {lev} mask shape {mask.shape} does not match cells {space.cells}"
                )
        # Per level, the cells whose children make up the next subdomain; the
        # finest level hands on none.
        self._handed = [_coarsen_any(finer) for finer in self.domains[1:]]
        self._handed.append(np.zeros_like(self.domains[-1]))
        for lev in range(1, len(self.domains)):
            parents = self._handed[lev - 1]
            if not parents.any():
                raise ValueError(f"level {lev} subdomain is empty")
            if np.any(parents & ~self.domains[lev - 1]):
                raise ValueError(f"level {lev} subdomain escapes level {lev - 1}")
            if np.any(_expand_children(parents) != self.domains[lev]):
                raise ValueError(f"level {lev} subdomain splits a level-{lev - 1} cell")

        self.active = tuple(self._active_sets())
        sizes = [a.size for a in self.active]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
        self.dim = int(self.offsets[-1])
        # Per level, the column of each tensor function; ``dim`` if inactive.
        self._columns = [np.full(space.dim, self.dim, dtype=np.intp) for space in self.levels]
        for column, act, start in zip(self._columns, self.active, self.offsets):
            column[act] = np.arange(start, start + act.size)

    def _active_sets(self):
        # A support is a union of whole level-l cells, so "inside the next
        # subdomain" is "inside the handed cells" at the level's own resolution.
        # Both tests run on the bounding box of the level's own cells, which
        # holds the handed cells too; only functions whose cell range lies in
        # the box can pass the first.
        for space, own, handed in zip(self.levels, self.domains, self._handed):
            box, candidates, los, his = [], [], [], []
            for axis, kv in enumerate(space.knot_vectors):
                held = np.flatnonzero(own.any(axis=tuple(a for a in range(own.ndim) if a != axis)))
                first, end = held[0], held[-1] + 1
                lo, hi = _function_cell_ranges(kv)
                cand = np.flatnonzero((lo >= first) & (hi <= end))
                box.append(slice(first, end))
                candidates.append(cand)
                los.append(lo[cand] - first)
                his.append(hi[cand] - first)
            box = tuple(box)
            inside = _window_all(own[box], los, his) & ~_window_all(handed[box], los, his)
            index = np.nonzero(inside)
            yield np.ravel_multi_index(
                tuple(c[i] for c, i in zip(candidates, index)), space.dims).astype(np.intp)

    @classmethod
    def from_base(cls, space: SplineSpace) -> "HierarchicalSpace":
        return cls([space], [np.ones(space.cells, dtype=bool)])

    @classmethod
    def from_subdomains(cls, base: SplineSpace, cell_lists) -> "HierarchicalSpace":
        """Rebuild a space from per-level flat cell index lists (level 0 implied full)."""
        levels = [base]
        domains = [np.ones(base.cells, dtype=bool)]
        for cells in cell_lists:
            space = dyadic_refine_space(levels[-1])
            levels.append(space)
            mask = np.zeros(space.cells, dtype=bool)
            flat = np.asarray(list(cells), dtype=np.intp)
            if np.any((flat < 0) | (flat >= mask.size)):
                raise ValueError(
                    f"level {len(domains)} subdomain cell index out of range [0, {mask.size})"
                )
            mask.ravel()[flat] = True
            domains.append(mask)
        return cls(levels, domains)

    def subdomain_cells(self, level: int) -> np.ndarray:
        """Sorted flat indices of the level's subdomain cells."""
        return np.flatnonzero(self.domains[level].ravel())

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------

    def refine(self, marked: Iterable[CellId], buffer: bool = True) -> "HierarchicalSpace":
        """New space with the marked cells dyadically split.

        The children of every marked cell join the next level's subdomain;
        with ``buffer`` a one-ring of same-level neighbor cells (clipped to
        the current subdomain) is refined along, so functions gain support
        in the refined region. Levels are processed coarsest first, so a
        mark may target a cell that a coarser mark creates. A level or index
        that is not an integer (by ``operator.index``), a level outside the
        space, an index outside its level's cells and a cell outside its
        level's subdomain (a nesting violation) raise ``ValueError``.
        """
        per_level: dict[int, list[tuple[int, ...]]] = {}
        for cell in marked:
            try:
                level, index = operator.index(cell[0]), tuple(map(operator.index, cell[1]))
            except TypeError:
                raise ValueError(
                    f"marked cell {cell!r} needs an integer level and index") from None
            per_level.setdefault(level, []).append(index)
        if not per_level:
            return HierarchicalSpace(self.levels, self.domains)

        levels = list(self.levels)
        domains = [d.copy() for d in self.domains]
        for lev in sorted(per_level):
            if not 0 <= lev < len(levels):
                raise ValueError(f"marked cell {CellId(lev, per_level[lev][0])} at unknown level")
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
                mask = _dilate(mask) & domains[lev]
            if lev + 1 == len(levels):
                levels.append(dyadic_refine_space(levels[lev]))
                domains.append(np.zeros(levels[-1].cells, dtype=bool))
            domains[lev + 1] |= _expand_children(mask)
        return HierarchicalSpace(levels, domains)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _rows(self, sites, alphas):
        """Per level with active functions, its tensor rows at the sites inside its subdomain.

        Indices are mapped to columns. Active supports are unions of the
        level's subdomain cells, so no other site meets an active function;
        subdomains nest, so each level tests only the sites the last one kept.
        """
        rows, local = slice(None), sites
        for space, act, column, own in zip(self.levels, self.active, self._columns, self.domains):
            if not own.all():  # else the subdomain is the whole domain and holds every site
                inside = own[tuple(kv.cell_of(x) for kv, x in zip(space.knot_vectors, local.T))]
                if not inside.all():
                    rows = np.flatnonzero(inside) if isinstance(rows, slice) else rows[inside]
                    local = local[inside]
            if act.size:
                idx, vals = space._tensor_rows(local, alphas)
                yield rows, column[idx], vals

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------

    def _leaf_masks(self):
        return [own & ~handed for own, handed in zip(self.domains, self._handed)]

    def leaf_cells(self) -> list[CellId]:
        """Cells of the tessellation, each covering its region exactly once."""
        return _cell_ids(self._leaf_masks())

    def leaf_cell_boxes(self):
        """Per level, ``(level, lo, hi)``: the lower and upper corners of its leaf cells.

        ``lo`` and ``hi`` have shape ``(cells, ndim)``, rows in the order of
        :meth:`leaf_cells`; a level without leaf cells gives zero rows.
        """
        for lev, mask in enumerate(self._leaf_masks()):
            index = np.nonzero(mask)
            kvs = self.levels[lev].knot_vectors
            lo = np.stack([kv.breakpoints[i] for kv, i in zip(kvs, index)], axis=-1)
            hi = np.stack([kv.breakpoints[i + 1] for kv, i in zip(kvs, index)], axis=-1)
            yield lev, lo, hi


def _cell_ids(masks) -> list[CellId]:
    """The True cells of per-level masks as ``CellId`` values, sorted by level, then index."""
    return [CellId(lev, tuple(index))
            for lev, mask in enumerate(masks) for index in np.argwhere(mask).tolist()]


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
    marked = [CellId(lev, ix) for lev, cells in marked_per_level.items() for ix in cells]
    return HierarchicalSpace.from_base(base).refine(marked, buffer=False)


def mark_cells(h: HierarchicalSpace, sites, errors, eps: float) -> list[CellId]:
    """Leaf cells containing the sites whose error exceeds ``eps``, deduplicated."""
    sites = _as_sites(sites, h.ndim)
    errors = np.asarray(errors, dtype=float)
    if errors.shape != (sites.shape[0],):
        raise ValueError("errors must align with sites")
    pending = sites[errors > eps]
    marked = [np.zeros_like(mask) for mask in h.domains]
    # A site's leaf is its cell on the finest level whose subdomain holds it.
    for lev in range(h.num_levels - 1, -1, -1):
        index = tuple(
            kv.cell_of(x) for kv, x in zip(h.levels[lev].knot_vectors, pending.T)
        )
        inside = h.domains[lev][index]
        marked[lev][tuple(i[inside] for i in index)] = True
        pending = pending[~inside]
    return _cell_ids(marked)


def collocation_hierarchical(h: HierarchicalSpace, sites) -> scipy.sparse.csr_matrix:
    """Collocation matrix of the active hierarchical basis at the sites, as CSR.

    Both solvers take it as it is; ``collocation_matrix(h, sites)`` gives
    the same entries dense.
    """
    return h.basis_matrix(sites)
