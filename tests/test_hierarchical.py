"""Hierarchical spaces: refinement, active-function selection, evaluation."""

import itertools
import unittest.mock

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from splinefit import (
    CellId,
    FitConfig,
    HierarchicalSpace,
    SplineFunction,
    SplineSpace,
    WeightedPointCloud,
    adaptive_rwls_fit,
    assemble_thin_plate,
    build_hierarchical,
    collocation_hierarchical,
    collocation_matrix,
    dyadic_refine_space,
    evaluate_3peaks,
    make_open_knot_vector,
    mark_cells,
    uniform_interior,
)
import splinefit.wls
from splinefit.cli_io import read_model, write_model
from splinefit.hierarchical import _coarsen_any, _dilate, _function_cell_ranges, _window_all
from splinefit.spline_core import KnotVector

from conftest import three_levels_without_level_zero


def grid_space(degree, cells, ndim=2, domain=(0.0, 1.0)):
    kv = make_open_knot_vector(domain, degree, uniform_interior(domain, cells - 1))
    return SplineSpace([kv] * ndim if ndim > 1 else kv)


def brute_force_active(h):
    """Active sets by direct geometric support enumeration.

    A level-l cell belongs to a function's support when its midpoint falls
    inside the function's open knot span; the selection rule is then applied
    with explicit Python set arithmetic on cell midpoints.
    """
    result = []
    for lev, space in enumerate(h.levels):
        kvs = space.knot_vectors
        mids = [0.5 * (kv.breakpoints[:-1] + kv.breakpoints[1:]) for kv in kvs]
        domain_cells = {tuple(ix) for ix in np.argwhere(h.domains[lev])}
        if lev + 1 < len(h.levels):
            fine_cells = {tuple(ix) for ix in np.argwhere(h.domains[lev + 1])}
            fine_mids = [
                0.5 * (kv.breakpoints[:-1] + kv.breakpoints[1:])
                for kv in h.levels[lev + 1].knot_vectors
            ]
        else:
            fine_cells = None
        active = []
        for flat, index in enumerate(itertools.product(*[range(kv.dim) for kv in kvs])):
            support = []
            for d, (kv, j) in enumerate(zip(kvs, index)):
                lo, hi = kv.knots[j], kv.knots[j + kv.order]
                support.append([i for i, m in enumerate(mids[d]) if lo < m < hi])
            cells = set(itertools.product(*support))
            inside_own = cells <= domain_cells
            if fine_cells is None:
                inside_fine = False
            else:
                fine_support = []
                for d, (kv, j) in enumerate(zip(kvs, index)):
                    lo, hi = kv.knots[j], kv.knots[j + kv.order]
                    fine_support.append(
                        [i for i, m in enumerate(fine_mids[d]) if lo < m < hi]
                    )
                inside_fine = set(itertools.product(*fine_support)) <= fine_cells
            if inside_own and not inside_fine:
                active.append(flat)
        result.append(active)
    return result


# ----------------------------------------------------------------------
# References: the summed-area window test, the active rule read at the next
# level's resolution, leaves from the fully refined parents of the next level,
# and marked cells collected one site at a time into a set.
# ----------------------------------------------------------------------


def reference_window_all(mask, los, his):
    """Whether each box ``[lo, hi)`` is all True, by the 2^N signed corners of a summed-area table."""
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


def reference_active(h):
    """Active sets: support inside the own subdomain, not inside the next at its resolution."""
    out = []
    for lev, space in enumerate(h.levels):
        ranges = [_function_cell_ranges(kv) for kv in space.knot_vectors]
        los = [r[0] for r in ranges]
        his = [r[1] for r in ranges]
        own = reference_window_all(h.domains[lev], los, his)
        if lev + 1 < len(h.levels):
            child = reference_window_all(
                h.domains[lev + 1], [2 * lo for lo in los], [2 * hi for hi in his]
            )
        else:
            child = np.zeros_like(own)
        out.append(np.flatnonzero(own & ~child).tolist())
    return out


def reference_leaf_cells(h):
    """Subdomain cells whose children are not all in the next subdomain, level by level."""
    out = []
    for lev, mask in enumerate(h.domains):
        if lev + 1 < len(h.levels):
            mask = mask & _coarsen_any(~h.domains[lev + 1])
        for flat in np.flatnonzero(mask.ravel()):
            out.append(CellId(lev, tuple(np.unravel_index(flat, mask.shape))))
    return out


def reference_mark_cells(h, sites, errors, eps):
    """Per offending site, the cell of the finest level whose subdomain holds it, deduplicated."""
    marked = set()
    for x in np.asarray(sites)[np.asarray(errors) > eps]:
        for lev in range(len(h.levels) - 1, -1, -1):
            index = tuple(int(kv.cell_of(xi)) for kv, xi in zip(h.levels[lev].knot_vectors, x))
            if h.domains[lev][index]:
                marked.add(CellId(lev, index))
                break
    return sorted(marked)


class TestDyadicRefine:
    def test_single_span_gains_midpoint(self):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 3, []))
        fine = dyadic_refine_space(space)
        np.testing.assert_allclose(fine.knot_vectors[0].breakpoints, [0, 0.5, 1])

    def test_two_spans_gain_quarter_points(self):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.5]))
        fine = dyadic_refine_space(space)
        np.testing.assert_allclose(
            fine.knot_vectors[0].breakpoints, [0, 0.25, 0.5, 0.75, 1]
        )

    def test_refined_space_contains_coarse(self):
        """Every coarse basis function refits exactly in the refined space."""
        space = grid_space(3, 3, ndim=1)
        fine = dyadic_refine_space(space)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, 200)
        Bc = collocation_matrix(space, pts)
        Bf = collocation_matrix(fine, pts)
        for j in range(space.dim):
            c, *_ = np.linalg.lstsq(Bf, Bc[:, j], rcond=None)
            assert np.abs(Bf @ c - Bc[:, j]).max() < 1e-10


def ndimage_dilation(mask):
    """Reference one-ring: scipy's binary dilation with the full 3^n structure."""
    return scipy.ndimage.binary_dilation(mask, structure=np.ones((3,) * mask.ndim, dtype=bool))


def single_cell_masks():
    """One True cell at every corner, edge midpoint and the centre of 1-3 dimensional grids."""
    for shape in [(1,), (5,), (1, 1), (4, 3), (5, 5), (3, 4, 2), (3, 3, 3)]:
        for index in itertools.product(*[sorted({0, s // 2, s - 1}) for s in shape]):
            mask = np.zeros(shape, dtype=bool)
            mask[index] = True
            yield pytest.param(mask, id=f"{shape}-{index}")


class TestDilate:
    @pytest.mark.parametrize("shape", [(1,), (6,), (1, 7), (4, 5), (2, 3, 4)])
    @pytest.mark.parametrize("fill", [False, True])
    def test_empty_and_full(self, shape, fill):
        mask = np.full(shape, fill)
        np.testing.assert_array_equal(_dilate(mask), ndimage_dilation(mask))

    @pytest.mark.parametrize("mask", single_cell_masks())
    def test_single_cells(self, mask):
        np.testing.assert_array_equal(_dilate(mask), ndimage_dilation(mask))

    @settings(max_examples=150)
    @given(st.data())
    def test_random_masks_match_ndimage(self, data):
        shape = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3), label="shape"))
        size = int(np.prod(shape))
        cells = data.draw(st.lists(st.booleans(), min_size=size, max_size=size), label="cells")
        mask = np.array(cells, dtype=bool).reshape(shape)
        np.testing.assert_array_equal(_dilate(mask), ndimage_dilation(mask))


class TestBuildHierarchical:
    def test_masks_are_copied(self):
        """Writing to the caller's masks after construction changes no space."""
        base = grid_space(2, 4)
        fine = dyadic_refine_space(base)
        fine_mask = np.zeros(fine.cells, dtype=bool)
        fine_mask[:2, :2] = True
        h = HierarchicalSpace(base, [fine_mask])
        leaves, active = h.leaf_cells(), [a.tolist() for a in h.active]
        fine_mask[:] = True
        assert np.flatnonzero(h.domains[1]).tolist() == [0, 1, 8, 9]
        assert h.leaf_cells() == leaves and [a.tolist() for a in h.active] == active
        assert not h.domains[1].flags.writeable

    def test_bookkeeping_arrays_are_read_only(self, tmp_path):
        """``active``, ``offsets`` and the column maps cannot be edited; a fit and its model
        round trip are as before."""
        g = np.linspace(-1.0, 1.0, 16)
        sites = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
        cloud = WeightedPointCloud(sites, evaluate_3peaks(sites[:, 0], sites[:, 1]))
        config = FitConfig(eps=1e-3, tol_i=1e-2, lam=1e-6, max_levels=2, alpha_mode="fixed_factor")
        fn = adaptive_rwls_fit(grid_space(3, 8, domain=(-1.0, 1.0)), cloud, config).function
        h = fn.space
        assert len(h.levels) == 2 and all(a.size for a in h.active)
        for arr in (*h.active, h.offsets, *h._columns):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 35
        write_model(tmp_path / "m.json", fn)
        again = read_model(tmp_path / "m.json")
        assert [a.tolist() for a in again.space.active] == [a.tolist() for a in h.active]
        assert again.coefficients.tobytes() == fn.coefficients.tobytes()
        assert again.evaluate_many(sites).tobytes() == fn.evaluate_many(sites).tobytes()

    def test_no_marks_is_the_base(self):
        base = grid_space(2, 4)
        h = build_hierarchical(base, {})
        assert h.dim == base.dim
        assert len(h.levels) == 1
        assert h.active[0].size == base.dim

    def test_marking_everything_gives_next_level(self):
        base = grid_space(2, 4)
        marks = {0: [(i, j) for i in range(4) for j in range(4)]}
        h = build_hierarchical(base, marks)
        fine = dyadic_refine_space(base)
        assert h.active[0].size == 0
        assert h.active[1].size == fine.dim
        assert h.dim == fine.dim

    def test_corner_mark_counts_match_bruteforce(self):
        """Single corner cell on a 4x4 bi-quadratic mesh, oracle-checked."""
        base = grid_space(2, 4)
        h = build_hierarchical(base, {0: [(0, 0)]})
        expected = brute_force_active(h)
        for lev in range(len(h.levels)):
            assert h.active[lev].tolist() == expected[lev]

    def test_nesting_violation_raises(self):
        base = grid_space(2, 4)
        h = build_hierarchical(base, {0: [(0, 0)]})
        with pytest.raises(ValueError, match="nesting"):
            h.refine([CellId(1, (7, 7))], buffer=False)

    def test_selection_rule_bruteforce_sweep(self):
        """Random multi-level refinements agree with the geometric oracle."""
        rng = np.random.default_rng(77)
        for cells, degree in [(4, 1), (6, 2), (8, 2)]:
            base = grid_space(degree, cells)
            h = HierarchicalSpace.from_base(base)
            for level in range(2):
                candidates = np.argwhere(h.domains[level])
                take = rng.integers(1, max(2, len(candidates) // 3))
                chosen = candidates[rng.choice(len(candidates), take, replace=False)]
                h = h.refine(
                    [CellId(level, tuple(ix)) for ix in chosen], buffer=False
                )
            expected = brute_force_active(h)
            for lev in range(len(h.levels)):
                assert h.active[lev].tolist() == expected[lev]

    def test_dimension_never_decreases(self):
        rng = np.random.default_rng(5)
        h = HierarchicalSpace.from_base(grid_space(2, 6))
        dims = [h.dim]
        for level in range(3):
            candidates = np.argwhere(h.domains[level])
            chosen = candidates[rng.choice(len(candidates), 3, replace=False)]
            h = h.refine([CellId(level, tuple(ix)) for ix in chosen], buffer=True)
            dims.append(h.dim)
        assert all(b >= a for a, b in zip(dims, dims[1:]))

    def test_deactivated_function_remains_representable(self):
        """A coarse function dropped by refinement refits in the fine space."""
        base = grid_space(2, 4)
        h0 = HierarchicalSpace.from_base(base)
        marks = [CellId(0, (i, j)) for i in range(2) for j in range(2)]
        h1 = h0.refine(marks, buffer=False)
        removed = sorted(set(h0.active[0].tolist()) - set(h1.active[0].tolist()))
        assert removed
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (400, 2))
        B_fine = collocation_hierarchical(h1, pts).toarray()
        for j in removed:
            target = np.array(
                [_tensor_function_value(base, j, x) for x in pts]
            )
            c, *_ = np.linalg.lstsq(B_fine, target, rcond=None)
            assert np.abs(B_fine @ c - target).max() < 1e-9


def _tensor_function_value(space, flat_index, x):
    idx, vals = space.eval_basis_derivatives(x, None)
    hit = np.flatnonzero(idx == flat_index)
    return float(vals[hit[0]]) if hit.size else 0.0


class TestRefineRejectsBadMarks:
    """A mark whose level or index is not a valid integer is refused, never reinterpreted."""

    @pytest.fixture
    def two_levels(self):
        return build_hierarchical(grid_space(2, 4), {0: [(0, 0), (1, 1)]})

    @pytest.mark.parametrize("level", [-1, -2, 2])
    def test_level_outside_the_space(self, two_levels, level):
        with pytest.raises(ValueError, match=rf"level={level}, index=\(0, 0\).* unknown level"):
            two_levels.refine([CellId(level, (0, 0))])

    @pytest.mark.parametrize("cell", [CellId(0.5, (0, 0)), CellId(0, (1.7, 0)),
                                      CellId(1, (0, "1")), (0, 3)],
                             ids=["level-0.5", "index-1.7", "index-str", "index-int"])
    def test_non_integer_level_or_index(self, two_levels, cell):
        with pytest.raises(ValueError, match="needs an integer level and index"):
            two_levels.refine([cell])

    def test_numpy_integers_mark_like_python_integers(self, two_levels):
        got = two_levels.refine([CellId(np.int64(1), (np.int32(2), np.uint8(3)))])
        want = two_levels.refine([CellId(1, (2, 3))])
        assert [d.tolist() for d in got.domains] == [d.tolist() for d in want.domains]

    @pytest.mark.parametrize("marks", [{-1: [(0, 0)]}, {0: [(0.5, 1)]}, {0: [5]}],
                             ids=["level-minus-1", "index-0.5", "index-int"])
    def test_build_hierarchical_checks_through_refine(self, marks):
        with pytest.raises(ValueError, match="unknown level|integer level"):
            build_hierarchical(grid_space(2, 4), marks)


class TestEvaluation:
    def test_unrefined_matches_tensor(self):
        base = grid_space(2, 4)
        h = HierarchicalSpace.from_base(base)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(0, 1, 2)
            ih, vh = h.eval_basis_derivatives(x, None)
            it, vt = base.eval_basis_derivatives(x, None)
            order_h, order_t = np.argsort(ih), np.argsort(it)
            np.testing.assert_array_equal(ih[order_h], it[order_t])
            np.testing.assert_allclose(vh[order_h], vt[order_t])

    def test_coarse_region_sees_only_coarse_functions(self):
        base = grid_space(2, 4)
        h = HierarchicalSpace.from_base(base).refine([CellId(0, (0, 0))], buffer=False)
        idx, vals = h.eval_basis_derivatives([0.9, 0.9], None)
        assert np.all(idx < h.offsets[1])
        assert np.all(vals >= 0)

    def test_values_nonnegative_everywhere(self):
        base = grid_space(2, 6)
        h = HierarchicalSpace.from_base(base).refine(
            [CellId(0, (2, 3)), CellId(0, (3, 3))], buffer=True
        )
        rng = np.random.default_rng(3)
        for _ in range(300):
            _, vals = h.eval_basis_derivatives(rng.uniform(0, 1, 2), None)
            assert np.all(vals >= 0)

    def test_derivatives_match_finite_differences(self):
        base = grid_space(2, 4)
        h = HierarchicalSpace.from_base(base).refine([CellId(0, (1, 1))], buffer=False)
        rng = np.random.default_rng(4)
        step = 1e-6
        for _ in range(30):
            x = rng.uniform(0.05, 0.95, 2)
            for axis, alpha in ((0, (1, 0)), (1, (0, 1))):
                up, dn = x.copy(), x.copy()
                up[axis] += step
                dn[axis] -= step
                iu, vu = h.eval_basis_derivatives(up, None)
                idn, vdn = h.eval_basis_derivatives(dn, None)
                rowu = np.zeros(h.dim)
                rowu[iu] = vu
                rowd = np.zeros(h.dim)
                rowd[idn] = vdn
                fd = (rowu - rowd) / (2 * step)
                ia, va = h.eval_basis_derivatives(x, alpha)
                row = np.zeros(h.dim)
                row[ia] = va
                np.testing.assert_allclose(row, fd, rtol=1e-4, atol=1e-4)


class TestMarkCells:
    @pytest.fixture
    def refined(self):
        base = grid_space(2, 4)
        return HierarchicalSpace.from_base(base).refine([CellId(0, (0, 0))], buffer=False)

    def test_no_offenders_no_marks(self, refined):
        sites = np.array([[0.1, 0.1], [0.6, 0.6]])
        assert mark_cells(refined, sites, [0.0, 0.0], 0.5) == []

    def test_single_offender_single_cell(self, refined):
        sites = np.array([[0.6, 0.6]])
        marks = mark_cells(refined, sites, [1.0], 0.5)
        assert marks == [CellId(0, (2, 2))]

    def test_cluster_deduplicates(self, refined):
        sites = np.array([[0.05, 0.05], [0.06, 0.06], [0.08, 0.04]])
        marks = mark_cells(refined, sites, [1.0, 1.0, 1.0], 0.5)
        assert len(marks) == 1
        assert marks[0].level == 1  # offending sites live in the refined corner

    def test_errors_must_align(self, refined):
        with pytest.raises(ValueError, match="align"):
            mark_cells(refined, np.zeros((2, 2)) + 0.3, [1.0], 0.5)


class TestCollocationHierarchical:
    def test_unrefined_equals_tensor(self):
        base = grid_space(2, 4)
        h = HierarchicalSpace.from_base(base)
        rng = np.random.default_rng(6)
        sites = rng.uniform(0, 1, (30, 2))
        np.testing.assert_allclose(
            collocation_hierarchical(h, sites).toarray(), collocation_matrix(base, sites)
        )

    def test_rows_match_pointwise_evaluation(self):
        base = grid_space(2, 5)
        h = HierarchicalSpace.from_base(base).refine(
            [CellId(0, (0, 0)), CellId(0, (4, 4))], buffer=True
        )
        rng = np.random.default_rng(8)
        sites = rng.uniform(0, 1, (40, 2))
        B = collocation_hierarchical(h, sites).toarray()
        assert B.shape == (40, h.dim)
        for i, x in enumerate(sites):
            idx, vals = h.eval_basis_derivatives(x, None)
            row = np.zeros(h.dim)
            row[idx] = vals
            np.testing.assert_allclose(B[i], row, atol=1e-15)

    def test_sparse_equals_dense(self):
        """The CSR collocation holds the entries of the dense ``collocation_matrix``."""
        base = grid_space(2, 4)
        h = HierarchicalSpace.from_base(base).refine([CellId(0, (1, 2))], buffer=False)
        rng = np.random.default_rng(9)
        sites = rng.uniform(0, 1, (25, 2))
        sparse = collocation_hierarchical(h, sites)
        assert sparse.format == "csr"
        np.testing.assert_array_equal(sparse.toarray(), collocation_matrix(h, sites))


def _evaluation_cases():
    curve = grid_space(3, 5, ndim=1, domain=(-2.0, 3.0))
    tensor = SplineSpace(
        [make_open_knot_vector((0.0, 1.0), 3, [0.21, 0.5, 0.9]),
         make_open_knot_vector((-1.0, 2.0), 2, [0.4])]
    )
    alphas = [None, (1, 0), (0, 1), (2, 1)]
    return [
        pytest.param(curve, [None, 1, 2, 3], id="curve"),
        pytest.param(tensor, alphas, id="tensor"),
        pytest.param(three_levels_without_level_zero(), alphas, id="hierarchical"),
    ]


class TestEvaluateMany:
    """The per-level numpy evaluation against the CSR collocation product."""

    @pytest.mark.parametrize("space,alphas", _evaluation_cases())
    def test_matches_csr_product(self, space, alphas):
        rng = np.random.default_rng(12)
        lo = np.array([a for a, _ in space.domain])
        hi = np.array([b for _, b in space.domain])
        sites = np.vstack([
            lo + (hi - lo) * rng.uniform(0, 1, (200, space.ndim)),
            hi,  # the right domain end, closed
            np.where(np.arange(space.ndim) == 0, hi, lo),
            np.where(np.arange(space.ndim) == 0, lo, hi),
            lo,
        ])
        fn = SplineFunction(space, rng.normal(size=(space.dim, 2)))
        for alpha in alphas:
            got = fn.evaluate_many(sites, alpha)
            ref = space.basis_matrix(sites, alpha) @ fn.coefficients
            scale = np.abs(ref).max(axis=0)
            assert np.all(np.abs(got - ref) <= 1e-13 * scale), alpha

    @pytest.mark.parametrize("space,alphas", _evaluation_cases())
    def test_site_outside_domain_raises_as_basis_matrix_does(self, space, alphas):
        fn = SplineFunction(space, np.ones(space.dim))
        outside = np.array([[b + 0.5 for _, b in space.domain]])
        with pytest.raises(ValueError, match="outside domain") as expected:
            space.basis_matrix(outside)
        with pytest.raises(ValueError, match="outside domain") as got:
            fn.evaluate_many(outside)
        assert str(got.value) == str(expected.value)


class TestHierarchicalPenalty:
    def test_energy_nonnegative_on_random_coefficients(self):
        base = grid_space(2, 4)
        h = HierarchicalSpace.from_base(base).refine(
            [CellId(0, (0, 0)), CellId(0, (1, 1))], buffer=True
        )
        P = assemble_thin_plate(h)
        rng = np.random.default_rng(10)
        for _ in range(20):
            c = rng.normal(size=h.dim)
            assert c @ P @ c >= -1e-10

    def test_unrefined_matches_tensor_assembly(self):
        base = grid_space(3, 3)
        h = HierarchicalSpace.from_base(base)
        np.testing.assert_allclose(
            assemble_thin_plate(h), assemble_thin_plate(base), atol=1e-12
        )

    def test_leaf_cells_tile_domain(self):
        base = grid_space(2, 4)
        h = HierarchicalSpace.from_base(base).refine(
            [CellId(0, (0, 0)), CellId(0, (3, 3))], buffer=False
        )
        area = 0.0
        for _, lo, hi in h.leaf_cell_boxes():
            area += np.prod(hi - lo, axis=1).sum()
        assert area == pytest.approx(1.0)


@st.composite
def clamped_knot_vectors(draw):
    """A clamped knot vector on [0, 1]: degree 0-3, 1-4 cells, interior multiplicities 1..order."""
    degree = draw(st.integers(0, 3), label="degree")
    cells = draw(st.integers(1, 4), label="cells")
    knots = [0.0] * (degree + 1)
    for i in range(1, cells):
        knots += [i / cells] * draw(st.integers(1, degree + 1), label="multiplicity")
    return KnotVector(knots + [1.0] * (degree + 1), degree)


class TestBookkeepingMatchesReferences:
    """Active sets, leaves and marks from the handed-on masks equal the references exactly."""

    @settings(max_examples=60)
    @given(st.data())
    def test_random_refinements(self, data):
        ndim = data.draw(st.integers(1, 3), label="ndim")
        kvs = [data.draw(clamped_knot_vectors()) for _ in range(ndim)]
        h = HierarchicalSpace.from_base(SplineSpace(kvs))
        buffer = data.draw(st.booleans(), label="buffer")
        for _ in range(data.draw(st.integers(1, 3), label="steps")):
            lev = data.draw(st.integers(0, len(h.levels) - 1), label="level")
            inside = [tuple(ix) for ix in np.argwhere(h.domains[lev]).tolist()]
            cells = data.draw(st.lists(st.sampled_from(inside), min_size=1, max_size=4,
                                       unique=True), label="marked")
            h = h.refine([CellId(lev, ix) for ix in cells], buffer=buffer)

        assert [a.tolist() for a in h.active] == reference_active(h)
        leaves = reference_leaf_cells(h)
        assert h.leaf_cells() == leaves
        for lev, lo, hi in h.leaf_cell_boxes():
            index = [c.index for c in leaves if c.level == lev]
            kvs = h.levels[lev].knot_vectors
            np.testing.assert_array_equal(
                lo, np.array([[kv.breakpoints[i] for kv, i in zip(kvs, ix)] for ix in index])
                .reshape(-1, ndim))
            np.testing.assert_array_equal(
                hi, np.array([[kv.breakpoints[i + 1] for kv, i in zip(kvs, ix)] for ix in index])
                .reshape(-1, ndim))

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        finest = [kv.breakpoints for kv in h.levels[-1].knot_vectors]
        sites = np.vstack([
            rng.uniform(0.0, 1.0, (60, ndim)),
            # Cell boundaries of the finest level, where the closed right end matters.
            np.column_stack([rng.choice(b, 20) for b in finest]),
        ])
        errors = rng.uniform(0.0, 1.0, sites.shape[0])
        assert mark_cells(h, sites, errors, 0.5) == reference_mark_cells(h, sites, errors, 0.5)

    @settings(max_examples=150)
    @given(st.data())
    def test_window_all_random_masks(self, data):
        shape = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3), label="shape")
        cells = data.draw(st.lists(st.booleans(), min_size=int(np.prod(shape)),
                                   max_size=int(np.prod(shape))), label="cells")
        mask = np.array(cells, dtype=bool).reshape(shape)
        los, his = [], []
        for size in shape:
            bounds = data.draw(st.lists(st.tuples(st.integers(0, size), st.integers(0, size)),
                                        min_size=1, max_size=6), label="windows")
            los.append(np.array([min(b) for b in bounds], dtype=np.intp))
            his.append(np.array([max(b) for b in bounds], dtype=np.intp))
        np.testing.assert_array_equal(_window_all(mask, los, his),
                                      reference_window_all(mask, los, his))

    def test_subdomain_splitting_a_cell_raises(self):
        """One child of cell (0, 0) alone: leaves would overlap, so the space is refused."""
        with pytest.raises(ValueError, match="level 1 subdomain splits a level-0 cell"):
            HierarchicalSpace.from_subdomains(grid_space(2, 4), [[0]])

    def test_function_without_support_in_the_domain_is_never_active(self):
        """Unclamped knots [0, 1, 1, 2, 3] of degree 1: B_0 vanishes on the domain [1, 2].

        Its support is empty, so it lies inside every subdomain, the finest
        level's empty handed-on set included.
        """
        kv = KnotVector([0.0, 1.0, 1.0, 2.0, 3.0], 1)
        h = HierarchicalSpace.from_base(SplineSpace([kv]))
        assert h.active[0].tolist() == [1, 2]
        h = h.refine([CellId(0, (0,))], buffer=False)
        assert [a.tolist() for a in h.active] == [[], [1, 2, 3]]


# ----------------------------------------------------------------------
# The level locator against the two loops it replaced: the per-level rows
# of basis evaluation, each level testing the sites the last one kept, and
# the finest-first cell marking.
# ----------------------------------------------------------------------


def loop_rows(h, sites, alphas):
    """The per-level rows as a separate loop that skips a level whose subdomain is everything."""
    rows, local = slice(None), sites
    for space, act, column, own in zip(h.levels, h.active, h._columns, h.domains):
        if not own.all():
            inside = own[tuple(kv.cell_of(x) for kv, x in zip(space.knot_vectors, local.T))]
            if not inside.all():
                rows = np.flatnonzero(inside) if isinstance(rows, slice) else rows[inside]
                local = local[inside]
        if act.size:
            idx, vals = space._tensor_rows(local, alphas)
            yield rows, column[idx], vals


def finest_first_mark_cells(h, sites, errors, eps):
    """Marked leaves from a loop over the levels finest first, each keeping the sites it holds."""
    pending = np.asarray(sites)[np.asarray(errors) > eps]
    marked = [np.zeros_like(mask) for mask in h.domains]
    for lev in range(len(h.levels) - 1, -1, -1):
        index = tuple(kv.cell_of(x) for kv, x in zip(h.levels[lev].knot_vectors, pending.T))
        inside = h.domains[lev][index]
        marked[lev][tuple(i[inside] for i in index)] = True
        pending = pending[~inside]
    return [CellId(lev, tuple(ix)) for lev, mask in enumerate(marked)
            for ix in np.argwhere(mask).tolist()]


class TestLocator:
    @settings(max_examples=60)
    @given(st.data())
    def test_locator_rows_basis_and_marks_match_the_loops(self, data):
        ndim = data.draw(st.integers(1, 2), label="ndim")
        base = SplineSpace([data.draw(clamped_knot_vectors()) for _ in range(ndim)])
        marks = {}
        for lev in range(data.draw(st.integers(1, 2), label="refinements")):
            h = build_hierarchical(base, marks)
            inside = [tuple(ix) for ix in np.argwhere(h.domains[lev]).tolist()]
            marks[lev] = data.draw(st.lists(st.sampled_from(inside), min_size=1, max_size=4,
                                            unique=True), label="marked")
        h = build_hierarchical(base, marks)
        assert len(h.levels) == len(marks) + 1

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        finest = [kv.breakpoints for kv in h.levels[-1].knot_vectors]
        ends = np.array(list(itertools.product((0.0, 1.0), repeat=ndim)))
        sites = np.vstack([
            rng.uniform(0.0, 1.0, (40, ndim)),
            # Breakpoints of every level (the finest holds them all) and both domain ends.
            np.column_stack([rng.choice(b, 20) for b in finest]),
            ends,
        ])

        located = list(h._locate(sites))
        assert len(located) == len(h.levels)
        for (rows, local, cells), space, own in zip(located, h.levels, h.domains):
            every = tuple(kv.cell_of(x) for kv, x in zip(space.knot_vectors, sites.T))
            held = np.flatnonzero(own[every])
            np.testing.assert_array_equal(np.arange(len(sites))[rows], held)
            np.testing.assert_array_equal(local, sites[held])
            for c, e in zip(cells, every):
                np.testing.assert_array_equal(c, e[held])

        for alpha in [None, tuple(min(1, d) for d in base.degrees)]:
            got = h.basis_matrix(sites, alpha)
            loop = HierarchicalSpace(h.levels[0], h.domains[1:])
            loop._rows = lambda s, a, loop=loop: loop_rows(loop, s, a)
            want = loop.basis_matrix(sites, alpha)
            for name in ("data", "indices", "indptr"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

        errors = rng.uniform(0.0, 1.0, sites.shape[0])
        assert mark_cells(h, sites, errors, 0.5) == finest_first_mark_cells(h, sites, errors, 0.5)


# ----------------------------------------------------------------------
# A space is its base and the masks of its finer levels: the level spaces,
# the three ways to build a space, the thin-plate quadrature on the finest
# breakpoints and the model files all follow from those alone.
# ----------------------------------------------------------------------


@st.composite
def random_clamped_knot_vectors(draw):
    """A clamped knot vector of degree 2-3 on a random interval, 0-3 interior breakpoints at
    random hundredths of it, each of multiplicity 1..order."""
    degree = draw(st.integers(2, 3), label="degree")
    lo = draw(st.floats(-10.0, 10.0), label="lo")
    hi = lo + draw(st.floats(0.1, 10.0), label="width")
    ticks = sorted(draw(st.lists(st.integers(1, 99), max_size=3, unique=True), label="ticks"))
    knots = [lo] * (degree + 1)
    for tick in ticks:
        knots += [lo + (hi - lo) * tick / 100] * draw(st.integers(1, degree + 1), label="mult")
    return KnotVector(knots + [hi] * (degree + 1), degree)


def union_gram_1d(kvs):
    """``wls._gram_1d`` with its quadrature on every span of the union of all breakpoints."""
    breaks = np.unique(np.concatenate([kv.breakpoints for kv in kvs]))
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


class TestDerivedLevels:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_a_space_follows_from_its_base_and_masks(self, data, tmp_path_factory):
        ndim = data.draw(st.integers(1, 2), label="ndim")
        base = SplineSpace([data.draw(random_clamped_knot_vectors()) for _ in range(ndim)])
        h = HierarchicalSpace(base)
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            lev = len(h.levels) - 1  # mostly the finest, so that spaces of 3-4 levels occur
            if data.draw(st.booleans(), label="coarser"):
                lev = data.draw(st.integers(0, lev), label="level")
            inside = [tuple(ix) for ix in np.argwhere(h.domains[lev]).tolist()]
            cells = data.draw(st.lists(st.sampled_from(inside), min_size=1, max_size=4,
                                       unique=True), label="marked")
            h = h.refine([CellId(lev, ix) for ix in cells],
                         buffer=data.draw(st.booleans(), label="buffer"))

        for coarse, fine in zip(h.levels, h.levels[1:]):
            want = dyadic_refine_space(coarse)
            assert fine.degrees == want.degrees
            assert ([kv.knots.tobytes() for kv in fine.knot_vectors]
                    == [kv.knots.tobytes() for kv in want.knot_vectors])

        handed = {lev: [tuple(ix) for ix in np.argwhere(_coarsen_any(finer)).tolist()]
                  for lev, finer in enumerate(h.domains[1:])}
        for other in (HierarchicalSpace(h.levels[0], h.domains[1:]),
                      HierarchicalSpace.from_subdomains(
                          base, [np.flatnonzero(d).tolist() for d in h.domains[1:]]),
                      build_hierarchical(base, handed)):
            assert [a.tobytes() for a in other.active] == [a.tobytes() for a in h.active]
            assert other.offsets.tobytes() == h.offsets.tobytes()
            assert other.leaf_cells() == h.leaf_cells()

        with unittest.mock.patch.object(splinefit.wls, "_gram_1d", union_gram_1d):
            want = assemble_thin_plate(h)
        assert assemble_thin_plate(h).tobytes() == want.tobytes()

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        path = tmp_path_factory.mktemp("model") / "h.json"
        write_model(path, SplineFunction(h, rng.normal(size=(h.dim, 2))))
        written = path.read_bytes()
        write_model(path, read_model(path))
        assert path.read_bytes() == written
