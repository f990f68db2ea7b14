"""Reweighted fitting loops, weight updates, benchmark functions."""

import warnings

import numpy as np
import pytest

import splinefit.wls
from splinefit import (
    FitConfig,
    NumericError,
    SplineSpace,
    StagnationError,
    WeightedPointCloud,
    adaptive_rwls_fit,
    averaging_knots,
    collocation_matrix,
    curve_point_cloud,
    evaluate_3peaks,
    evaluate_test_curves,
    feature_weighted_sites,
    init_markers_from_ls,
    make_open_knot_vector,
    rwls_fit,
    solve_wls,
    top_gradient_markers,
    uniform_interior,
    update_weights,
)


def grid_cloud_3peaks(samples):
    g = np.linspace(-1.0, 1.0, samples)
    X, Y = np.meshgrid(g, g, indexing="ij")
    sites = np.column_stack([X.ravel(), Y.ravel()])
    return WeightedPointCloud(sites, evaluate_3peaks(sites[:, 0], sites[:, 1]))


def surface_space(degree, cells):
    kv = make_open_knot_vector((-1.0, 1.0), degree, uniform_interior((-1.0, 1.0), cells - 1))
    return SplineSpace([kv, kv])


@pytest.mark.parametrize(
    "kwargs, value",
    [(dict(lam=np.nan), "nan"), (dict(lam=np.inf), "inf"),
     (dict(alpha_mode="fixed_factor", rho=np.inf), "inf"),
     (dict(alpha_mode="fixed_factor", rho=np.nan), "nan"),
     (dict(alpha_mode="irls", delta=np.inf), "inf"), (dict(delta=np.nan), "nan")],
)
def test_fit_config_rejects_non_finite_parameters(kwargs, value):
    with pytest.raises(ValueError, match=f"must be finite .*, got {value}$"):
        FitConfig(**kwargs)


class TestUpdateWeights:
    def test_error_driven_type_one(self):
        w = update_weights([0.2], [1.0], [0], [], mode="error_driven")
        assert w[0] == pytest.approx(1.2)

    def test_error_driven_type_two(self):
        w = update_weights([0.25], [1.0], [], [0], mode="error_driven")
        assert w[0] == pytest.approx(0.8)

    def test_fixed_factor(self):
        w = update_weights([9.9, 9.9], [1.0, 2.0], [0], [1], mode="fixed_factor", rho=1.25)
        assert w[0] == pytest.approx(1.25)
        assert w[1] == pytest.approx(1.6)

    def test_zero_error_leaves_weight(self):
        w = update_weights([0.0], [3.0], [0], [], mode="error_driven")
        assert w[0] == pytest.approx(3.0)

    def test_irls_rule_for_type_two(self):
        w = update_weights([0.5], [1.0], [], [0], mode="irls", delta=1e-8)
        assert w[0] == pytest.approx(2.0)
        w = update_weights([0.0], [1.0], [], [0], mode="irls", delta=1e-2)
        assert w[0] == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "errors, weights, one, two, mode, rho",
        [
            ([0.0], [1e301], [], [0], "irls", 1.25),
            ([9.9], [1e300], [0], [], "fixed_factor", 1e10),
            ([9.9], [1e-300], [], [0], "fixed_factor", 1e100),
        ],
        ids=["irls-overflow", "fixed-overflow", "fixed-underflow"],
    )
    def test_weight_out_of_range_is_numeric_error(self, errors, weights, one, two, mode, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="weight of point 0"):
                update_weights(errors, weights, one, two, mode=mode, rho=rho, delta=1e-8)

    def test_unmarked_untouched(self):
        w = update_weights([0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [0], [2], mode="error_driven")
        assert w[1] == 1.0
        assert np.all(w > 0)


class TestRwlsFit:
    def test_no_markers_single_iteration(self, quad_spline_space, seven_sites, seven_values):
        cloud = WeightedPointCloud(seven_sites, seven_values)
        report = rwls_fit(quad_spline_space, cloud, FitConfig(max_iter=50))
        assert report.iterations == 1
        assert report.termination in ("stalled", "tolerance")
        B = collocation_matrix(quad_spline_space, seven_sites)
        plain = solve_wls(B, np.ones(7), cloud.values)
        np.testing.assert_allclose(report.function.coefficients, plain, atol=1e-12)

    def test_all_marked_first_iteration_is_ordinary_ls(self, quad_spline_space, seven_sites, seven_values):
        """Marking everything with equal tolerances starts from plain LS."""
        cloud = WeightedPointCloud(
            seven_sites, seven_values, markers=np.ones(7, dtype=int)
        )
        config = FitConfig(tol_i=1e-2, tol_ii=1e-2, max_iter=5)
        report = rwls_fit(quad_spline_space, cloud, config)
        B = collocation_matrix(quad_spline_space, seven_sites)
        plain = solve_wls(B, np.ones(7), cloud.values)
        e = np.abs(B @ plain - cloud.values).ravel()
        first = report.records[0]
        assert first.rmse == pytest.approx(np.sqrt(np.mean(e**2)))
        assert first.max_type_one == pytest.approx(e.max())

    def test_weight_monotonicity(self, quad_spline_space, seven_sites, seven_values):
        """Type I weights never decrease, type II never increase."""
        markers = np.zeros(7, dtype=int)
        markers[[3, 4]] = 1
        markers[[0]] = 2
        cloud = WeightedPointCloud(seven_sites, seven_values, markers=markers)
        for mode, rho in (("error_driven", 1.25), ("fixed_factor", 1.3)):
            config = FitConfig(
                tol_i=1e-9, tol_ii=float("inf"), max_iter=12, alpha_mode=mode, rho=rho
            )
            report = rwls_fit(quad_spline_space, cloud, config)
            assert np.all(report.weights[[3, 4]] >= 1.0 - 1e-15)
            assert report.weights[0] <= 1.0 + 1e-15

    def test_marker_counts_constant_in_fixed_space_loop(self, quad_spline_space, seven_sites, seven_values):
        markers = np.zeros(7, dtype=int)
        markers[[2, 5]] = 1
        cloud = WeightedPointCloud(seven_sites, seven_values, markers=markers)
        config = FitConfig(tol_i=1e-10, tol_ii=float("inf"), max_iter=8)
        report = rwls_fit(quad_spline_space, cloud, config)
        assert all(r.n_type_one == 2 for r in report.records)

    def test_termination_within_cap(self, quad_spline_space, seven_sites, seven_values):
        markers = np.ones(7, dtype=int)
        cloud = WeightedPointCloud(seven_sites, seven_values, markers=markers)
        config = FitConfig(tol_i=1e-12, tol_ii=1e-12, max_iter=7)
        report = rwls_fit(quad_spline_space, cloud, config)
        assert report.iterations <= 7

    def test_update_all_marked_restores_unconditional_updates(
        self, quad_spline_space, seven_sites, seven_values
    ):
        """The literal loop bumps every marked weight each iteration."""
        markers = np.zeros(7, dtype=int)
        markers[[3, 4]] = 1
        cloud = WeightedPointCloud(seven_sites, seven_values, markers=markers)
        config = FitConfig(
            tol_i=1e-12, tol_ii=float("inf"), max_iter=6,
            alpha_mode="fixed_factor", rho=1.25, update_all_marked=True,
        )
        rep = rwls_fit(quad_spline_space, cloud, config)
        # one update per loop body, regardless of per-point convergence
        np.testing.assert_allclose(rep.weights[[3, 4]], 1.25**6)

    def test_determinism(self, quad_spline_space, seven_sites, seven_values):
        markers = np.zeros(7, dtype=int)
        markers[[3, 4]] = 1
        cloud = WeightedPointCloud(seven_sites, seven_values, markers=markers)
        config = FitConfig(tol_i=1e-8, tol_ii=float("inf"), max_iter=20)
        a = rwls_fit(quad_spline_space, cloud, config)
        b = rwls_fit(quad_spline_space, cloud, config)
        assert a.records == b.records
        np.testing.assert_array_equal(a.function.coefficients, b.function.coefficients)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_tanh_ridge_markers_converge(self):
        """Feature errors shrink monotonically and meet the tolerance."""
        cloud0 = curve_point_cloud(3)
        markers = top_gradient_markers(cloud0.sites, cloud0.values, 10)
        labels = np.zeros(cloud0.m, dtype=int)
        labels[markers] = 1
        cloud = WeightedPointCloud(cloud0.sites, cloud0.values, markers=labels)
        space = SplineSpace(averaging_knots(cloud.sites.ravel(), 51, 3))
        config = FitConfig(
            tol_i=1e-5, tol_ii=float("inf"), max_iter=100,
            alpha_mode="fixed_factor", rho=1.25,
        )
        report = rwls_fit(space, cloud, config)
        assert report.termination == "tolerance"
        marker_max = [r.max_type_one for r in report.records]
        assert marker_max[-1] <= 1e-5
        assert marker_max[-1] < marker_max[0]


    def test_collocation_is_planned_once_per_fit(
        self, quad_spline_space, seven_sites, seven_values, monkeypatch
    ):
        """Every reweighting solve of one fit reuses the plan of its one matrix."""
        plans = []
        plan = splinefit.wls._band_plan
        monkeypatch.setattr(splinefit.wls, "_band_plan", lambda B: plans.append(B) or plan(B))
        markers = np.zeros(7, dtype=int)
        markers[[3, 4]] = 1
        cloud = WeightedPointCloud(seven_sites, seven_values, markers=markers)
        config = FitConfig(tol_i=1e-8, tol_ii=float("inf"), max_iter=20)
        report = rwls_fit(quad_spline_space, cloud, config)
        assert report.iterations > 5
        assert len(plans) == 1
        monkeypatch.undo()
        assert rwls_fit(quad_spline_space, cloud, config).records == report.records

    @pytest.mark.parametrize("mode, rho", [("irls", 1.25), ("fixed_factor", 1e100)])
    def test_weights_driven_to_infinity_are_numeric_error(self, mode, rho):
        """Weights the loop itself overflows are a numeric failure, not bad input."""
        sites = np.linspace(0.0, 1.0, 12)
        values = sites**2
        values[5] += 1.0
        markers = np.full(12, 2 if mode == "irls" else 1)
        markers[5] = 1
        cloud = WeightedPointCloud(sites, values, markers=markers)
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.5]))
        config = FitConfig(
            tol_i=1e-3, tol_ii=float("inf"), max_iter=100, alpha_mode=mode, rho=rho
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="weight update leaves the floating-point range"):
                rwls_fit(space, cloud, config)


class TestInitMarkers:
    def test_exactly_representable_data_gives_empty_set(self, quad_spline_space):
        kv = quad_spline_space.knot_vectors[0]
        sites = np.linspace(-5, 5, 30)
        B = collocation_matrix(quad_spline_space, sites)
        rng = np.random.default_rng(0)
        f = B @ rng.normal(size=5)
        cloud = WeightedPointCloud(sites, f)
        assert init_markers_from_ls(quad_spline_space, cloud, 1e-8).size == 0

    def test_three_peaks_markers_sit_near_peaks(self):
        cloud = grid_cloud_3peaks(40)
        space = surface_space(2, 8)
        markers = init_markers_from_ls(space, cloud, 2e-2)
        assert markers.size > 0
        peaks = np.array([[0.3, 0.3], [-0.3, -0.3], [0.0, 0.0]])
        dists = np.array(
            [np.linalg.norm(peaks - cloud.sites[i], axis=1).min() for i in markers]
        )
        assert dists.max() < 0.5
        assert (dists < 0.25).sum() >= markers.size // 2

    def test_infinite_threshold_gives_empty_set(self, quad_spline_space, seven_sites, seven_values):
        cloud = WeightedPointCloud(seven_sites, seven_values)
        assert init_markers_from_ls(quad_spline_space, cloud, np.inf).size == 0


class TestAdaptiveFit:
    def test_representable_data_single_level(self):
        space = surface_space(2, 4)
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=space.dim)
        sites = rng.uniform(-1, 1, (200, 2))
        B = collocation_matrix(space, sites)
        cloud = WeightedPointCloud(sites, B @ coeffs)
        config = FitConfig(eps=1e-8, tol_i=1e-7, tol_ii=float("inf"), lam=0.0, max_levels=4)
        report = adaptive_rwls_fit(space, cloud, config)
        assert report.iterations == 1
        assert report.termination == "eps"
        assert report.function.space.dim == space.dim

    def test_max_error_decreases_across_levels(self):
        cloud = grid_cloud_3peaks(40)
        config = FitConfig(
            eps=2e-3, tol_i=2e-2, tol_ii=float("inf"), lam=1e-6, max_levels=3,
            alpha_mode="fixed_factor", rho=1.25,
        )
        report = adaptive_rwls_fit(surface_space(3, 8), cloud, config)
        maxes = [r.max for r in report.records]
        assert len(maxes) == 3
        assert all(b < a for a, b in zip(maxes, maxes[1:]))
        dofs = [r.dofs for r in report.records]
        assert all(b >= a for a, b in zip(dofs, dofs[1:]))

    def test_marker_sets_only_shrink(self):
        cloud0 = grid_cloud_3peaks(30)
        space = surface_space(2, 6)
        k1 = init_markers_from_ls(space, cloud0, 1e-2)
        assert k1.size > 0
        config = FitConfig(
            eps=5e-3, tol_i=5e-2, tol_ii=float("inf"), lam=1e-6, max_levels=3,
            alpha_mode="fixed_factor", rho=1.25,
        )
        report = adaptive_rwls_fit(space, cloud0, config, type_one=k1)
        counts = [r.n_type_one for r in report.records]
        assert counts[0] == k1.size
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_stagnation_raises(self):
        """Isolated unbuffered marks activate nothing and trip the guard."""
        space = surface_space(2, 6)
        sites = np.array([[0.42, 0.42], [-0.8, 0.6], [0.7, -0.7], [-0.2, -0.9], [0.9, 0.9]])
        values = np.array([5.0, -3.0, 4.0, -2.0, 1.0])
        cloud = WeightedPointCloud(sites, values)
        config = FitConfig(
            eps=1e-12, tol_i=1e-12, tol_ii=float("inf"), lam=1e-6, max_levels=6,
            refinement_buffer=False,
        )
        with pytest.raises(StagnationError):
            adaptive_rwls_fit(space, cloud, config)

    def test_reweighted_beats_frozen_weights_on_markers(self):
        """With type I markers the final marker error does not get worse."""
        cloud0 = grid_cloud_3peaks(40)
        space = surface_space(3, 8)
        k1 = init_markers_from_ls(space, cloud0, 2e-3)
        config = FitConfig(
            eps=2e-3, tol_i=2e-2, tol_ii=float("inf"), lam=1e-6, max_levels=3,
            alpha_mode="fixed_factor", rho=1.25,
        )
        reweighted = adaptive_rwls_fit(space, cloud0, config, type_one=k1)
        frozen = adaptive_rwls_fit(space, cloud0, config, type_one=[], type_two=[])
        assert reweighted.records[-1].max <= frozen.records[-1].max * 1.05


class TestBenchmarkFunctions:
    def test_three_peaks_center_value(self):
        """2/3 from the central spike plus two corner contributions."""
        expected = (2.0 / 3.0) * (1.0 + 2.0 * np.exp(-np.sqrt(18.0)))
        assert evaluate_3peaks(0.0, 0.0) == pytest.approx(expected, rel=1e-14)
        assert evaluate_3peaks(0.0, 0.0) == pytest.approx(0.6858, abs=5e-5)

    def test_three_peaks_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x, y = rng.uniform(-1, 1, 2)
            assert evaluate_3peaks(x, y) == pytest.approx(evaluate_3peaks(-x, -y), rel=1e-13)

    def test_three_peaks_peak_term(self):
        # At (0.3, 0.3) the first exponent vanishes: value = 2/3 + small rest.
        val = evaluate_3peaks(0.3, 0.3)
        assert 2.0 / 3.0 < val < 2.0 / 3.0 + 0.01

    def test_curve_values(self):
        assert evaluate_test_curves(1, 0.0) == pytest.approx(0.0)
        assert evaluate_test_curves(2, 0.5) == pytest.approx(1.0 / (0.02 * np.sqrt(np.pi)))
        assert evaluate_test_curves(3, 0.25) == pytest.approx(0.0, abs=1e-12)

    def test_curve_invalid_id(self):
        with pytest.raises(ValueError, match="curve id"):
            evaluate_test_curves(4, 0.5)


class TestPointCloudHelpers:
    def test_feature_sites_are_increasing_and_span_unit(self):
        sites = feature_weighted_sites(62, (1 / 3, 2 / 3))
        assert sites[0] == 0.0 and sites[-1] == 1.0
        assert np.all(np.diff(sites) > 0)

    def test_feature_sites_concentrate_near_centers(self):
        sites = feature_weighted_sites(88, (0.5,))
        near = np.abs(sites - 0.5) < 0.1
        far = np.abs(sites - 0.1) < 0.1
        assert near.sum() > 2 * far.sum()

    def test_top_gradient_markers_pick_steep_points(self):
        sites = np.linspace(0, 1, 101)
        values = evaluate_test_curves(3, sites)
        markers = top_gradient_markers(sites, values, 8)
        assert markers.size == 8
        crossings = np.array([0.25, 0.75])
        for i in markers:
            assert np.abs(crossings - sites[i]).min() < 0.1

    def test_curve_cloud_sizes(self):
        for cid, m in ((1, 62), (2, 88), (3, 71)):
            cloud = curve_point_cloud(cid)
            assert cloud.m == m
