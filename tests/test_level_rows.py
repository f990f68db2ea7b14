"""Level rows restricted to the sites inside each subdomain, against every level at every site.

The reference below is the evaluation that ran before the restriction: each
level with active functions is evaluated at every site, its rows are put
side by side with the other levels', and the sentinel columns are dropped.
Restricting a level to the sites whose level cell lies in its subdomain must
give the same bits, for the basis matrix and for ``evaluate_many``. The dense
``collocation_matrix``, which adds the rows into zeros itself, must hold the
bits of the densified sparse basis matrix.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from splinefit import (
    CellId,
    HierarchicalSpace,
    KnotVector,
    SplineFunction,
    SplineSpace,
    collocation_matrix,
)


def reference_tensor_rows(space, sites, alpha):
    """Flat indices and values of one tensor level at every site, for one multi-index."""
    m = sites.shape[0]
    idx = np.zeros((m, 1), dtype=np.intp)
    vals = np.ones((m, 1))
    for kv, x, a in zip(space.knot_vectors, sites.T, alpha):
        first, ders = kv.basis_rows(x, a)
        width = idx.shape[1] * kv.order
        cols = first[:, None, None] + np.arange(kv.order)
        idx = (idx[:, :, None] * kv.dim + cols).reshape(m, width)
        vals = (vals[:, :, None] * ders[:, None, a, :]).reshape(m, width)
    return idx, vals


def reference_rows(h, sites, alpha):
    """Per level with active functions, ``(columns, values)`` at every site."""
    for space, act, column in zip(h.levels, h.active, h._columns):
        if act.size:
            idx, vals = reference_tensor_rows(space, sites, alpha)
            yield column[idx], vals


def reference_csr(h, sites, alpha):
    """``(data, indices, indptr)``: the levels side by side, sentinel columns dropped."""
    columns, values = map(np.hstack, zip(*reference_rows(h, sites, alpha)))
    keep = columns != h.dim
    indptr = np.zeros(sites.shape[0] + 1, dtype=np.intp)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return values[keep], columns[keep], indptr


def reference_evaluate(fn, sites, levels):
    """The einsum of each level's ``(columns, values)`` at every site, added up level by level."""
    padded = np.vstack([fn.coefficients, np.zeros((1, fn.dim_values))])
    out = np.zeros((sites.shape[0], fn.dim_values))
    for columns, values in levels:
        out += np.einsum("mk,mkd->md", values, padded[columns])
    return out


@st.composite
def knot_vectors(draw):
    """A clamped knot vector on [0, 1]: degree 0-3, 1-3 cells, interior multiplicities 1..order."""
    degree = draw(st.integers(0, 3), label="degree")
    cells = draw(st.integers(1, 3), label="cells")
    knots = [0.0] * (degree + 1)
    for i in range(1, cells):
        knots += [i / cells] * draw(st.integers(1, degree + 1), label="multiplicity")
    return KnotVector(knots + [1.0] * (degree + 1), degree)


@st.composite
def refined_spaces(draw):
    """A 1-3-D hierarchical space after 1-3 random refinements."""
    ndim = draw(st.integers(1, 3), label="ndim")
    h = HierarchicalSpace.from_base(SplineSpace([draw(knot_vectors()) for _ in range(ndim)]))
    buffer = draw(st.booleans(), label="buffer")
    for _ in range(draw(st.integers(1, 3), label="steps")):
        lev = draw(st.integers(0, len(h.levels) - 1), label="level")
        inside = [tuple(ix) for ix in np.argwhere(h.domains[lev]).tolist()]
        cells = draw(st.lists(st.sampled_from(inside), min_size=1, max_size=3, unique=True),
                     label="marked")
        h = h.refine([CellId(lev, ix) for ix in cells], buffer=buffer)
    return h


def probe_sites(h, rng):
    """Random sites, both domain ends, breakpoints and corners of every subdomain's cells."""
    ndim = h.ndim
    parts = [rng.uniform(0.0, 1.0, (30, ndim)), np.zeros((1, ndim)), np.ones((1, ndim)),
             np.column_stack([rng.choice(kv.breakpoints, 10)
                              for kv in h.levels[-1].knot_vectors])]
    for space, own in zip(h.levels, h.domains):
        index = np.argwhere(own)
        index = index[rng.choice(len(index), min(len(index), 6), replace=False)]
        lo, hi = (np.column_stack([kv.breakpoints[i + end]
                                   for kv, i in zip(space.knot_vectors, index.T)])
                  for end in (0, 1))
        # Lower, upper and mixed corners: the subdomain's boundary runs through them.
        parts += [lo, hi, np.where(rng.integers(0, 2, lo.shape).astype(bool), lo, hi)]
    return np.vstack(parts)


class TestRestrictedLevelsMatchEveryLevelAtEverySite:
    @settings(max_examples=40)
    @given(h=refined_spaces(), data=st.data())
    def test_basis_matrix_and_evaluation_bit_for_bit(self, h, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sites = probe_sites(h, rng)
        every = list(itertools.product(*(range(d + 1) for d in h.degrees)))
        alphas = [h.degrees] + data.draw(
            st.lists(st.sampled_from(every), min_size=1, max_size=3), label="alphas")
        fn = SplineFunction(h, rng.normal(size=(h.dim, 2)))
        together = fn.evaluate_many(sites, alphas)
        for i, alpha in enumerate(alphas):
            B = h.basis_matrix(sites, alpha)
            data_ref, indices_ref, indptr_ref = reference_csr(h, sites, alpha)
            assert B.data.tobytes() == data_ref.tobytes(), alpha
            np.testing.assert_array_equal(B.indices, indices_ref)
            np.testing.assert_array_equal(B.indptr, indptr_ref)
            expected = reference_evaluate(fn, sites, reference_rows(h, sites, alpha))
            assert fn.evaluate_many(sites, alpha).tobytes() == expected.tobytes(), alpha
            assert together[:, 2 * i : 2 * i + 2].tobytes() == expected.tobytes(), alpha
        # The tensor base space takes the same one-call path.
        base = SplineFunction(h.levels[0], rng.normal(size=(h.levels[0].dim, 1)))
        expected = np.hstack([
            reference_evaluate(base, sites, [reference_tensor_rows(base.space, sites, a)])
            for a in alphas])
        assert base.evaluate_many(sites, alphas).tobytes() == expected.tobytes()


class TestDenseCollocationMatchesTheSparseMatrix:
    @settings(max_examples=40)
    @given(h=refined_spaces(), data=st.data())
    def test_bit_for_bit(self, h, data):
        """Refined spaces and their tensor base, at breakpoints, corners and both domain ends."""
        sites = probe_sites(h, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        for space in (h, h.levels[0]):
            dense = collocation_matrix(space, sites)
            assert dense.shape == (sites.shape[0], space.dim)
            assert dense.tobytes() == space.basis_matrix(sites).toarray().tobytes()
        if h.ndim == 1:  # a curve also takes its sites as a flat array
            flat = collocation_matrix(h, sites[:, 0])
            assert flat.tobytes() == h.basis_matrix(sites).toarray().tobytes()
