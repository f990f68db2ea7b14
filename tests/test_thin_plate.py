"""The thin-plate assembly from 1-D Gram factors against a per-cell quadrature loop."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinefit import (
    CellId,
    HierarchicalSpace,
    KnotVector,
    SplineSpace,
    assemble_thin_plate,
    build_hierarchical,
    make_open_knot_vector,
    uniform_interior,
)

# Both assemblies integrate the same products exactly by Gauss rules and
# differ only in the rounding of the sums.
REL_FROBENIUS = 1e-12


def per_cell_thin_plate(space):
    """One Gauss grid per leaf cell and one dense update of ``P`` per cell and term.

    The rows come from ``basis_matrix``, which is checked against scipy
    elsewhere, so this shares no assembly code with the factored version.
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
    assert len(h.levels) == 4
    assert h.active[1].size == 0 and all(h.active[lev].size for lev in (0, 2, 3))
    return h


SPACES = {
    "curve-double-knot": curve_with_double_knot,
    "non-uniform-tensor": non_uniform_tensor,
    "hierarchical-empty-level": hierarchical_with_empty_level,
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_matches_per_cell_reference(name):
    space = SPACES[name]()
    P = assemble_thin_plate(space)
    ref = per_cell_thin_plate(space)
    assert type(P) is np.ndarray and P.shape == (space.dim, space.dim)
    np.testing.assert_array_equal(P, P.T)
    assert np.linalg.norm(P - ref) <= REL_FROBENIUS * np.linalg.norm(ref)


def random_knot_vector(data, degree):
    """A clamped knot vector on [0, 1] with 2 to 3 spans of random relative lengths."""
    gaps = np.array(data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)), float)
    breaks = np.cumsum(gaps)[:-1] / gaps.sum()
    return make_open_knot_vector((0.0, 1.0), degree, breaks)


@settings(max_examples=15)
@given(st.data())
def test_random_hierarchical_spaces_match_per_cell_reference(data):
    """1-D and 2-D spaces of degree 2-3 with 2-3 levels refined on random cells."""
    ndim = data.draw(st.integers(1, 2), label="ndim")
    degree = data.draw(st.integers(2, 3), label="degree")
    h = HierarchicalSpace.from_base(
        SplineSpace([random_knot_vector(data, degree) for _ in range(ndim)])
    )
    for level in range(data.draw(st.integers(1, 2), label="refinements")):
        shape = h.domains[level].shape
        cells = data.draw(
            st.lists(st.sampled_from(list(np.flatnonzero(h.domains[level]))), min_size=1,
                     unique=True),
            label=f"level {level} marks",
        )
        marks = [CellId(level, np.unravel_index(c, shape)) for c in cells]
        h = h.refine(marks, buffer=data.draw(st.booleans(), label="buffer"))

    P = assemble_thin_plate(h)
    ref = per_cell_thin_plate(h)
    np.testing.assert_array_equal(P, P.T)
    assert np.linalg.norm(P - ref) <= REL_FROBENIUS * np.linalg.norm(ref)

    centres = np.vstack([0.5 * (lo + hi) for _, lo, hi in h.leaf_cell_boxes()])
    C = h.basis_matrix(centres)
    np.testing.assert_array_equal(P != 0, (C.T @ C).toarray() != 0)
