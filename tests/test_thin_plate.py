"""The level-batched thin-plate assembly against the per-cell loop it replaced."""

import functools
import itertools
import math

import numpy as np
import pytest

import splinefit.wls
from splinefit import (
    HierarchicalSpace,
    KnotVector,
    SplineSpace,
    assemble_thin_plate,
    build_hierarchical,
    make_open_knot_vector,
    uniform_interior,
)

# Both assemblies integrate the same products with the same Gauss rule and
# differ only in the order of the sums.
REL_FROBENIUS = 1e-12


def per_cell_thin_plate(space):
    """One Gauss grid per leaf cell and one dense update of ``P`` per cell and term.

    The rows come from ``basis_matrix``, which is checked against scipy
    elsewhere, so this shares no assembly code with the batched version.
    """
    if isinstance(space, HierarchicalSpace):
        cells = [(space.levels[c.level].knot_vectors, c.index) for c in space.leaf_cells()]
    else:
        kvs = space.knot_vectors
        cells = [(kvs, i) for i in itertools.product(*(range(kv.num_cells) for kv in kvs))]
    nodes, gauss_w = np.polynomial.legendre.leggauss(max(space.degrees) + 1)
    P = np.zeros((space.dim, space.dim))
    for kvs, index in cells:
        axes_pts, axes_wts = [], []
        for kv, i in zip(kvs, index):
            a, b = kv.breakpoints[i], kv.breakpoints[i + 1]
            half = 0.5 * (b - a)
            axes_pts.append(a + half * (nodes + 1.0))
            axes_wts.append(gauss_w * half)
        grid = np.meshgrid(*axes_pts, indexing="ij")
        pts = np.stack([g.ravel() for g in grid], axis=-1)
        pw = functools.reduce(np.multiply.outer, axes_wts).ravel()
        for alpha in itertools.product(range(3), repeat=space.ndim):
            if sum(alpha) != 2:
                continue
            coeff = 2.0 / math.prod(math.factorial(a) for a in alpha)
            R = space.basis_matrix(pts, alpha).toarray()
            P += coeff * (R.T @ (R * pw[:, None]))
    return 0.5 * (P + P.T)


def curve_with_double_knot():
    knots = np.concatenate([np.zeros(4), [0.2, 0.45, 0.45, 0.7], np.ones(4)])
    return SplineSpace(KnotVector(knots, 3))


def non_uniform_tensor():
    return SplineSpace(
        [
            make_open_knot_vector((-1.0, 2.0), 2, [-0.7, 0.1, 0.15, 1.3]),
            make_open_knot_vector((0.0, 1.0), 3, [0.25, 0.6]),
        ]
    )


def hierarchical_with_empty_level():
    """Four levels; every level-1 function lies inside the level-2 subdomain."""
    kv = make_open_knot_vector((0.0, 1.0), 2, uniform_interior((0.0, 1.0), 5))
    level_one = [(i, j) for i in range(2, 8) for j in range(2, 8)]
    h = build_hierarchical(
        SplineSpace([kv, kv]),
        {
            0: [(i, j) for i in range(1, 4) for j in range(1, 4)],
            1: level_one,
            2: [(i, j) for i in range(6, 10) for j in range(6, 10)],
        },
    )
    assert h.num_levels == 4
    assert h.active[1].size == 0 and all(h.active[lev].size for lev in (0, 2, 3))
    return h


SPACES = {
    "curve-double-knot": curve_with_double_knot,
    "non-uniform-tensor": non_uniform_tensor,
    "hierarchical-empty-level": hierarchical_with_empty_level,
}


@pytest.mark.parametrize("batch_bytes", [None, 1], ids=["default-batch", "one-cell-batch"])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_matches_per_cell_reference(name, batch_bytes, monkeypatch):
    if batch_bytes is not None:
        monkeypatch.setattr(splinefit.wls, "_BATCH_BYTES", batch_bytes)
    space = SPACES[name]()
    P = assemble_thin_plate(space)
    ref = per_cell_thin_plate(space)
    assert type(P) is np.ndarray and P.shape == (space.dim, space.dim)
    np.testing.assert_array_equal(P, P.T)
    assert np.linalg.norm(P - ref) <= REL_FROBENIUS * np.linalg.norm(ref)
