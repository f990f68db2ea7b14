"""Knot vectors, basis evaluation, collocation, parameterization."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splinefit import (
    KnotVector,
    SplineFunction,
    SplineSpace,
    WeightedPointCloud,
    averaging_knots,
    collocation_matrix,
    make_open_knot_vector,
    parameterize,
    schoenberg_whitney_admissible,
)

from conftest import SEVEN_SITES


def dense_basis_row(space, x):
    """Full-length basis row from the windowed evaluation."""
    idx, vals = space.eval_basis(x)
    row = np.zeros(space.dim)
    row[idx] = vals
    return row


class TestMakeOpenKnotVector:
    def test_benchmark_quadratic_vector(self):
        """Clamped quadratic vector on [-5, 5] with breakpoints at +-5/3."""
        kv = make_open_knot_vector((-5.0, 5.0), 2, [-5.0 / 3.0, 5.0 / 3.0])
        np.testing.assert_allclose(
            kv.knots, [-5, -5, -5, -5 / 3, 5 / 3, 5, 5, 5]
        )
        assert kv.dim == 5
        assert kv.clamped

    def test_minimal_linear(self):
        kv = make_open_knot_vector((0.0, 1.0), 1, [])
        np.testing.assert_array_equal(kv.knots, [0, 0, 1, 1])
        assert kv.dim == 2

    def test_dimension_is_interior_plus_order(self):
        # len(t) = 11, order 4 -> dimension 7
        kv = make_open_knot_vector((0.0, 1.0), 3, [0.25, 0.5, 0.75])
        assert kv.knots.size == 11
        assert kv.dim == 7

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_open_knot_vector((0.0, 1.0), 2, [0.5, 0.25])

    def test_rejects_breakpoint_outside_domain(self):
        with pytest.raises(ValueError, match="inside the domain"):
            make_open_knot_vector((0.0, 1.0), 2, [1.5])

    def test_rejects_excess_multiplicity(self):
        with pytest.raises(ValueError, match="multiplicity"):
            KnotVector([0, 0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1, 1], 2)

    def test_clamped_flag_enforced(self):
        kv = KnotVector([0, 0, 0.5, 1, 1], 1)
        assert kv.clamped  # detected from end multiplicities

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_knot_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            KnotVector([0, 0, 0, bad, 1, 1, 1], 2)


class TestEvalBasis:
    def test_linear_hats(self):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 1, []))
        idx, vals = space.eval_basis([0.25])
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_allclose(vals, [0.75, 0.25])

    def test_clamped_left_endpoint(self, quad_spline_space):
        row = dense_basis_row(quad_spline_space, [-5.0])
        np.testing.assert_allclose(row, [1, 0, 0, 0, 0], atol=0)

    def test_interior_values_match_piecewise_polynomial_oracle(self, quad_spline_space):
        """Exact values from symbolic piecewise-polynomial expansion.

        On [-5,-5,-5,-5/3,5/3,5,5,5] the basis at x = 0 is
        [0, 1/8, 3/4, 1/8, 0] and at x = 4/5 it is
        [0, 169/5000, 1731/2500, 1369/5000, 0] (sympy bspline_basis_set).
        """
        row0 = dense_basis_row(quad_spline_space, [0.0])
        np.testing.assert_allclose(row0, [0, 1 / 8, 3 / 4, 1 / 8, 0], atol=1e-15)
        row8 = dense_basis_row(quad_spline_space, [0.8])
        np.testing.assert_allclose(
            row8, [0, 169 / 5000, 1731 / 2500, 1369 / 5000, 0], atol=1e-15
        )

    def test_rejects_point_outside_domain(self, quad_spline_space):
        with pytest.raises(ValueError, match="outside domain"):
            quad_spline_space.eval_basis([5.5])

    def test_partition_of_unity_and_nonnegativity(self):
        """Clamped bases sum to one and stay non-negative at random points."""
        rng = np.random.default_rng(42)
        spaces = [
            SplineSpace(make_open_knot_vector((-2.0, 3.0), d, interior))
            for d, interior in [(1, [0.5]), (2, [-1.0, 0.0, 2.0]), (4, [0.5, 0.51])]
        ]
        for space in spaces:
            lo, hi = space.domain[0]
            for x in rng.uniform(lo, hi, 1000):
                idx, vals = space.eval_basis([x])
                assert np.all(vals >= 0)
                assert abs(vals.sum() - 1.0) < 1e-12

    def test_local_support(self):
        """Basis function j vanishes outside its knot span [t_j, t_{j+k}]."""
        kv = make_open_knot_vector((0.0, 1.0), 2, [0.2, 0.4, 0.6, 0.8])
        space = SplineSpace(kv)
        rng = np.random.default_rng(7)
        t, k = kv.knots, kv.order
        for x in rng.uniform(0.0, 1.0, 200):
            row = dense_basis_row(space, [x])
            for j in range(kv.dim):
                if not (t[j] <= x <= t[j + k]):
                    assert row[j] == 0.0

    def test_tensor_partition_of_unity(self):
        space = SplineSpace(
            [
                make_open_knot_vector((0.0, 1.0), 2, [0.3]),
                make_open_knot_vector((0.0, 2.0), 3, [0.5, 1.0]),
            ]
        )
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = [rng.uniform(0, 1), rng.uniform(0, 2)]
            idx, vals = space.eval_basis(x)
            assert vals.size <= 3 * 4
            assert abs(vals.sum() - 1.0) < 1e-12


class TestEvalBasisDerivatives:
    def test_order_zero_equals_basis(self, quad_spline_space):
        idx0, v0 = quad_spline_space.eval_basis([0.8])
        idx1, v1 = quad_spline_space.eval_basis_derivatives([0.8], (0,))
        np.testing.assert_array_equal(idx0, idx1)
        np.testing.assert_allclose(v0, v1)

    def test_hat_slopes(self):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 1, []))
        idx, vals = space.eval_basis_derivatives([0.25], (1,))
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_allclose(vals, [-1.0, 1.0])

    def test_first_derivative_matches_finite_differences(self):
        """Central differences of eval_basis reproduce the analytic derivative."""
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 3, [0.25, 0.5, 0.75]))
        rng = np.random.default_rng(11)
        h = 1e-6
        for x in rng.uniform(0.05, 0.95, 100):
            up = dense_basis_row(space, [x + h])
            dn = dense_basis_row(space, [x - h])
            fd = (up - dn) / (2 * h)
            idx, vals = space.eval_basis_derivatives([x], (1,))
            row = np.zeros(space.dim)
            row[idx] = vals
            np.testing.assert_allclose(row, fd, rtol=1e-5, atol=1e-4)

    def test_rejects_order_above_degree(self, quad_spline_space):
        with pytest.raises(ValueError, match="exceeds degree"):
            quad_spline_space.eval_basis_derivatives([0.0], (3,))

    def test_frozen_derivative_values(self, quad_spline_space):
        """Derivatives at x = 1/10 are [0, -141/1000, -9/500, 159/1000, 0] (sympy)."""
        idx, vals = quad_spline_space.eval_basis_derivatives([0.1], (1,))
        row = np.zeros(5)
        row[idx] = vals
        np.testing.assert_allclose(
            row, [0, -141 / 1000, -9 / 500, 159 / 1000, 0], atol=1e-14
        )


class TestCollocationMatrix:
    def test_greville_interpolation_matrix_nonsingular(self):
        """Collocation at Greville abscissae is invertible (determinant oracle)."""
        kv = make_open_knot_vector((0.0, 1.0), 3, [0.2, 0.5, 0.7])
        space = SplineSpace(kv)
        B = collocation_matrix(space, kv.greville())
        assert B.shape == (space.dim, space.dim)
        assert abs(np.linalg.det(B)) > 1e-12

    def test_constant_basis_column_of_ones(self):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 0, []))
        B = collocation_matrix(space, [0.1, 0.5, 0.9])
        np.testing.assert_array_equal(B, np.ones((3, 1)))

    def test_seven_point_shape_and_row_sums(self, quad_spline_space):
        B = collocation_matrix(quad_spline_space, SEVEN_SITES)
        assert B.shape == (7, 5)
        np.testing.assert_allclose(B.sum(axis=1), np.ones(7), atol=1e-12)

    def test_rejects_site_outside_domain(self, quad_spline_space):
        with pytest.raises(ValueError, match="outside domain"):
            collocation_matrix(quad_spline_space, [0.0, 6.0])


class TestSchoenbergWhitney:
    def test_rejected_subset_without_support(self, quad_spline_space):
        """First five sites leave the last basis function without data."""
        assert not schoenberg_whitney_admissible(quad_spline_space, SEVEN_SITES[:5])

    def test_admissible_subset_matches_determinant(self, quad_spline_space):
        sites = SEVEN_SITES[[0, 1, 2, 3, 6]]
        assert schoenberg_whitney_admissible(quad_spline_space, sites)
        B = collocation_matrix(quad_spline_space, sites)
        assert abs(np.linalg.det(B)) > 1e-12

    def test_single_span_any_distinct_sites(self, quad_poly_space):
        """Polynomial-like space: any distinct sites interpolate (Vandermonde)."""
        assert schoenberg_whitney_admissible(quad_poly_space, [-4.0, 0.5, 3.0])

    def test_rejects_wrong_subset_size(self, quad_spline_space):
        with pytest.raises(ValueError, match="must equal the dimension"):
            schoenberg_whitney_admissible(quad_spline_space, SEVEN_SITES[:4])

    def test_agrees_with_determinant_threshold_on_all_subsets(self, quad_spline_space):
        """Both admissibility routes agree on all 21 subsets of the benchmark."""
        import itertools

        B = collocation_matrix(quad_spline_space, SEVEN_SITES)
        for subset in itertools.combinations(range(7), 5):
            BK = B[list(subset)]
            hadamard = np.prod(np.max(np.abs(BK), axis=1))
            by_det = abs(np.linalg.det(BK)) > 1e-12 * hadamard
            by_sw = schoenberg_whitney_admissible(
                quad_spline_space, SEVEN_SITES[list(subset)]
            )
            assert by_det == by_sw


class TestSplineFunction:
    def test_constant_coefficients_reproduce_constant(self, quad_spline_space):
        fn = SplineFunction(quad_spline_space, np.full((5, 2), 3.25))
        rng = np.random.default_rng(5)
        for x in rng.uniform(-5, 5, 50):
            np.testing.assert_allclose(fn.evaluate([x]), [3.25, 3.25], atol=1e-12)

    def test_interpolation_residual(self, quad_spline_space):
        """Solving the square Greville system reproduces the data to 1e-10."""
        kv = quad_spline_space.knot_vectors[0]
        sites = kv.greville()
        rng = np.random.default_rng(9)
        f = rng.normal(size=sites.size)
        B = collocation_matrix(quad_spline_space, sites)
        fn = SplineFunction(quad_spline_space, np.linalg.solve(B, f))
        for x, fx in zip(sites, f):
            assert abs(fn.evaluate([x])[0] - fx) < 1e-10

    def test_derivative_of_constant_is_zero(self, quad_spline_space):
        fn = SplineFunction(quad_spline_space, np.ones(5))
        np.testing.assert_allclose(fn.evaluate_derivative([1.3], (1,)), [0.0], atol=1e-13)


class TestWeightedPointCloud:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="strictly positive"):
            WeightedPointCloud([0.0, 1.0], [1.0, 2.0], weights=[1.0, 0.0])

    def test_rejects_unknown_marker(self):
        with pytest.raises(ValueError, match="markers"):
            WeightedPointCloud([0.0, 1.0], [1.0, 2.0], markers=[0, 7])

    @pytest.mark.parametrize("labels, bad", [([1.7, 0.2, 2.9], "1.7"), ([1.0, 0, 2], "1.0"),
                                             (["1", "0", "2"], "'1'")])
    def test_rejects_non_integer_marker_label(self, labels, bad):
        """Neither truncated (1.7 is not type I) nor parsed from a string."""
        with pytest.raises(ValueError, match=rf"^marker label {re.escape(bad)} is not an integer"):
            WeightedPointCloud([0.0, 0.5, 1.0], [1.0, 2.0, 3.0], markers=labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_sites_and_values(self, bad):
        with pytest.raises(ValueError, match="sites must be finite"):
            WeightedPointCloud([0.0, bad], [1.0, 2.0])
        with pytest.raises(ValueError, match="values must be finite"):
            WeightedPointCloud([0.0, 1.0], [bad, 2.0])

    def test_marker_index_sets_are_disjoint(self):
        cloud = WeightedPointCloud(
            [0.0, 0.5, 1.0], [1.0, 2.0, 3.0], markers=[1, 0, 2]
        )
        assert set(cloud.type_one) == {0}
        assert set(cloud.type_two) == {2}

    def test_instances_are_read_only(self):
        cloud = WeightedPointCloud([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            cloud.weights[0] = 2.0
        replaced = cloud.with_weights([2.0, 3.0])
        np.testing.assert_array_equal(cloud.weights, [1.0, 1.0])
        np.testing.assert_array_equal(replaced.weights, [2.0, 3.0])


def test_constructors_freeze_copies_not_the_callers_arrays():
    """Each instance keeps read-only copies: the caller's arrays stay writeable,
    and writing to them changes no instance."""
    sites, values, weights = np.array([0.0, 0.5, 1.0]), np.ones((3, 1)), np.ones(3)
    markers = np.array([0, 1, 2], dtype=np.intp)
    knots = np.array([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0])
    coefficients = np.ones((4, 1))
    cloud = WeightedPointCloud(sites, values, weights, markers)
    kv = KnotVector(knots, 2)
    fn = SplineFunction(SplineSpace(kv), coefficients)
    kept = [a.copy() for a in (cloud.sites, cloud.values, cloud.weights, cloud.markers,
                               kv.knots, fn.coefficients)]
    for arr in (sites, values, weights, markers, knots, coefficients):
        arr[1] = 2
    for got, want in zip((cloud.sites, cloud.values, cloud.weights, cloud.markers,
                          kv.knots, fn.coefficients), kept):
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable


class TestParameterize:
    def test_uniform(self):
        np.testing.assert_allclose(
            parameterize(np.zeros((5, 2)), "uniform"), [0, 0.25, 0.5, 0.75, 1]
        )

    def test_chord_on_equispaced_collinear_points(self):
        pts = np.column_stack([np.linspace(0, 1, 6), np.linspace(0, 2, 6)])
        np.testing.assert_allclose(
            parameterize(pts, "chord"), parameterize(pts, "uniform"), atol=1e-15
        )

    def test_chord_cumulative_ratio(self):
        # segment lengths 1 and 3 -> parameters 0, 1/4, 1
        pts = np.array([[0.0], [1.0], [4.0]])
        np.testing.assert_allclose(parameterize(pts, "chord"), [0, 0.25, 1])

    def test_chord_rejects_duplicate_consecutive(self):
        with pytest.raises(ValueError, match="duplicate consecutive"):
            parameterize(np.array([[0.0], [0.0], [1.0]]), "chord")


class TestAveragingKnots:
    def test_classical_interpolation_setting(self):
        """With n = m each interior knot is the mean of degree consecutive sites."""
        sites = np.linspace(0, 1, 6)
        kv = averaging_knots(sites, 6, 3)
        np.testing.assert_allclose(
            kv.knots, [0, 0, 0, 0, 0.4, 0.6, 1, 1, 1, 1], atol=1e-15
        )

    def test_degree_one_reproduces_interior_sites(self):
        sites = np.array([0.0, 0.1, 0.45, 0.8, 1.0])
        kv = averaging_knots(sites, 5, 1)
        np.testing.assert_allclose(kv.knots[2:-2], sites[1:-1])

    def test_uniform_sites_give_near_uniform_knots(self):
        """Means of consecutive uniform sites are the shifted uniform grid."""
        m, n, d = 24, 24, 3
        sites = np.linspace(0, 1, m)
        kv = averaging_knots(sites, n, d)
        expected = np.array(
            [sites[j : j + d].mean() for j in range(1, n - d)]
        )
        np.testing.assert_allclose(kv.knots[d + 1 : -(d + 1)], expected, atol=1e-15)
        spacing = np.diff(expected)
        np.testing.assert_allclose(spacing, spacing[0], rtol=1e-12)

    def test_resampling_preserves_density(self):
        """Fewer functions than sites: knots still follow the site density."""
        dense_left = np.concatenate([np.linspace(0, 0.2, 30), np.linspace(0.25, 1.0, 10)])
        kv = averaging_knots(dense_left, 12, 3)
        interior = kv.knots[4:-4]
        assert (interior < 0.3).sum() > (interior > 0.7).sum()

    def test_rejects_more_functions_than_sites(self):
        with pytest.raises(ValueError, match="cannot place"):
            averaging_knots(np.linspace(0, 1, 5), 6, 3)


def greville_loop(kv):
    """Greville abscissae of degree >= 1 by one mean per function: the reference."""
    out = np.empty(kv.dim)
    for j in range(kv.dim):
        out[j] = kv.knots[j + 1 : j + 1 + kv.degree].mean()
    return np.clip(out, kv.start, kv.end)


def averaging_interior_loop(sites, n, degree):
    """Interior averaging knots by one mean per knot: the reference."""
    s = np.quantile(sites, np.linspace(0.0, 1.0, n)) if n < sites.size else sites
    interior = np.empty(n - degree - 1)
    for j in range(1, n - degree):
        interior[j - 1] = s[j : j + degree].mean()
    return interior


@st.composite
def window_cases(draw):
    """Degree 1-5; knots on [0, 1] (clamped or not, random interior multiplicities) and
    sorted random sites with ``degree + 1 <= n <= m``, ``n = m`` included."""
    degree = draw(st.integers(1, 5))
    k = degree + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    breakpoints = np.sort(rng.uniform(0.0, 1.0, rng.integers(0, 8)))
    interior = np.repeat(breakpoints, rng.integers(1, k + 1, breakpoints.size))
    ends = ((np.zeros(k), np.ones(k)) if draw(st.booleans())
            else (np.sort(rng.uniform(-1.0, 0.0, k)), np.sort(rng.uniform(1.0, 2.0, k))))
    kv = KnotVector(np.concatenate([ends[0], interior, ends[1]]), degree)
    m = draw(st.integers(k, 40))
    n = draw(st.one_of(st.just(m), st.integers(k, m)))
    return kv, np.sort(rng.uniform(-2.0, 3.0, m)), n


class TestWindowMeans:
    @given(window_cases())
    def test_bit_equal_to_per_window_loops(self, case):
        kv, sites, n = case
        assert kv.greville().tobytes() == greville_loop(kv).tobytes()
        interior = averaging_knots(sites, n, kv.degree).knots[kv.order : -kv.order]
        assert interior.tobytes() == averaging_interior_loop(sites, n, kv.degree).tobytes()
