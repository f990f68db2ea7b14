"""Reweighted fitting loops, weight updates, benchmark functions."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import splinefit.wls
from splinefit import (
    FitConfig,
    NumericError,
    RankDeficiencyError,
    SplineSpace,
    StagnationError,
    WeightedPointCloud,
    adaptive_rwls_fit,
    assemble_thin_plate,
    averaging_knots,
    collocation_matrix,
    curve_point_cloud,
    evaluate_3peaks,
    evaluate_test_curves,
    feature_weighted_sites,
    init_markers_from_ls,
    irls_solve,
    make_open_knot_vector,
    rwls_fit,
    solve_penalized_wls,
    solve_wls,
    top_gradient_markers,
    uniform_interior,
    update_weights,
)
from splinefit.fitting import _record
from splinefit.spline_core import KnotVector


def grid_cloud_3peaks(samples):
    g = np.linspace(-1.0, 1.0, samples)
    X, Y = np.meshgrid(g, g, indexing="ij")
    sites = np.column_stack([X.ravel(), Y.ravel()])
    return WeightedPointCloud(sites, evaluate_3peaks(sites[:, 0], sites[:, 1]))


def type_one_cloud(cloud, indices):
    """``cloud`` with the points at ``indices`` marked type I and every other point plain."""
    markers = np.zeros(cloud.m, dtype=int)
    markers[indices] = 1
    return WeightedPointCloud(cloud.sites, cloud.values, cloud.weights, markers)


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


@pytest.mark.parametrize(
    "call, shown",
    [(lambda: KnotVector([0, 0, 0, 1, 1, 1], 2.7), "degree 2.7"),
     (lambda: make_open_knot_vector((0.0, 1.0), 2.5), "degree 2.5"),
     (lambda: FitConfig(max_iter=2.5), "max_iter 2.5"),
     (lambda: FitConfig(max_levels=1.5), "max_levels 1.5"),
     (lambda: irls_solve(SplineSpace(make_open_knot_vector((0.0, 1.0), 1)),
                         WeightedPointCloud([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]), 1.5, 2.5),
      "max_iter 2.5")],
    ids=["knot-vector-degree", "open-knot-vector-degree", "max-iter", "max-levels",
         "irls-max-iter"],
)
def test_integer_argument_that_is_not_an_integer_is_refused(call, shown):
    """A float used to be truncated (degree 2.7 built degree 2) or to fail later in numpy
    or ``range`` with a bare ``TypeError``."""
    with pytest.raises(ValueError, match=rf"^{re.escape(shown)} is not an integer$"):
        call()


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

    @pytest.mark.parametrize("one, two, bad", [([-1], [], "-1"), ([0.7], [], "0.7"),
                                               ([4], [], "4"), ([], [1, 2.0], "2.0")],
                             ids=["negative", "float", "past-the-end", "type-two-float"])
    def test_rejects_bad_point_index(self, one, two, bad):
        """Neither wrapped, truncated nor left to numpy's ``IndexError``."""
        with pytest.raises(ValueError, match=rf"^point index {bad} "):
            update_weights([0.1] * 4, [1.0] * 4, one, two)

    @pytest.mark.parametrize("n_errors", [3, 5])
    def test_rejects_errors_and_weights_of_different_lengths(self, n_errors):
        with pytest.raises(ValueError, match=rf"differ in length: {n_errors} and 4$"):
            update_weights([0.1] * n_errors, [1.0] * 4, [3], [])

    @pytest.mark.parametrize(
        "mode, rho, delta, message",
        [("fixed_factor", 0.5, 1e-8, "rho must be finite and exceed one, got 0.5"),
         ("fixed_factor", -2.0, 1e-8, "rho must be finite and exceed one, got -2.0"),
         ("fixed_factor", np.nan, 1e-8, "rho must be finite and exceed one, got nan"),
         ("irls", 1.25, 0.0, "delta must be finite and strictly positive, got 0.0"),
         ("irls", 1.25, -1.0, "delta must be finite and strictly positive, got -1.0"),
         ("halve", 1.25, 1e-8, "alpha_mode must be one of")],
        ids=["rho-below-one", "rho-negative", "rho-nan", "delta-zero", "delta-negative",
             "unknown-mode"],
    )
    def test_rejects_a_rule_fit_config_refuses(self, mode, rho, delta, message):
        """rho 0.5 once halved type I weights and doubled type II ones without an error."""
        with pytest.raises(ValueError, match=re.escape(message)):
            update_weights([0.1] * 3, [1.0] * 3, [0], [2], mode=mode, rho=rho, delta=delta)

    def test_unmarked_untouched(self):
        w = update_weights([0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [0], [2], mode="error_driven")
        assert w[1] == 1.0
        assert np.all(w > 0)


@st.composite
def errors_and_markers(draw):
    """Errors on a grid of quarters (ties, zeros, exact sums) and disjoint sorted markers.

    Every point is plain, type I or type II; the labels are all one kind or mixed.
    """
    m = draw(st.integers(1, 40))
    e = np.array(draw(st.lists(st.integers(0, 12), min_size=m, max_size=m))) / 4.0
    labels = np.array(draw(st.one_of(
        st.sampled_from([0, 1, 2]).map(lambda label: [label] * m),
        st.lists(st.integers(0, 2), min_size=m, max_size=m))))
    return e, np.flatnonzero(labels == 1), np.flatnonzero(labels == 2)


class TestRecord:
    @given(errors_and_markers())
    def test_matches_brute_force(self, case):
        e, k1, k2 = case
        values, two = e.tolist(), set(k2.tolist())
        not_two = [x for i, x in enumerate(values) if i not in two]
        expected = dict(
            iteration=3,
            dofs=17,
            rmse=math.sqrt(sum(x * x for x in values) / len(values)),
            max=max(values),
            max_type_one=max([values[i] for i in k1.tolist()], default=0.0),
            max_not_type_two=max(not_two, default=0.0),
            n_type_one=len(k1),
            n_type_two=len(k2),
        )
        record = _record(3, 17, e, k1, k2)
        got = {name: getattr(record, name) for name in expected}
        assert got == expected
        assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]


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
        """Reweighting solves reuse their plans: a fit plans as often at 5 solves as at 20,
        and all of ``B`` at most once."""
        plans = []
        plan = splinefit.wls._band_plan
        monkeypatch.setattr(splinefit.wls, "_band_plan", lambda B: plans.append(B) or plan(B))
        markers = np.zeros(7, dtype=int)
        markers[[3, 4]] = 1
        cloud = WeightedPointCloud(seven_sites, seven_values, markers=markers)
        config = FitConfig(tol_i=1e-8, tol_ii=float("inf"), max_iter=5)
        rwls_fit(quad_spline_space, cloud, config)
        planned_at_5 = len(plans)
        plans.clear()
        config = FitConfig(tol_i=1e-8, tol_ii=float("inf"), max_iter=20)
        report = rwls_fit(quad_spline_space, cloud, config)
        assert report.iterations > 5
        assert len(plans) == planned_at_5
        assert sum(B.shape[0] == cloud.m for B in plans) <= 1
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


def reference_rwls(space, cloud, config):
    """``rwls_fit``'s loop with every solve on all of ``B``.

    Returns the coefficients, the iteration count and the termination.
    """
    B = space.basis_matrix(cloud.sites)
    P = assemble_thin_plate(space) if config.lam > 0 else None
    w = cloud.weights.copy()
    k1, k2 = np.sort(cloud.type_one), np.sort(cloud.type_two)
    not_k2 = np.ones(cloud.m, dtype=bool)
    not_k2[k2] = False
    for iteration in range(1, config.max_iter + 1):
        c = solve_penalized_wls(B, w, cloud.values, P, config.lam)
        e = np.linalg.norm(B @ c - cloud.values, axis=1)
        met_i = not k1.size or e[k1].max() <= config.tol_i
        if met_i and (not not_k2.any() or e[not_k2].max() <= config.tol_ii):
            return c, iteration, "tolerance"
        upd1, upd2 = k1[e[k1] > config.tol_i], k2[e[k2] < config.tol_ii]
        if not upd1.size and not upd2.size:
            return c, iteration, "stalled"
        w = update_weights(e, w, upd1, upd2, config.alpha_mode, config.rho, config.delta)
    return c, config.max_iter, "max_iter"


def assert_matches_reference(space, cloud, config, rtol):
    report = rwls_fit(space, cloud, config)
    c, iterations, termination = reference_rwls(space, cloud, config)
    assert (report.iterations, report.termination) == (iterations, termination)
    got = report.function.coefficients
    assert np.abs(got - c).max() <= rtol * np.abs(c).max()


@st.composite
def folded_fits(draw, tensor, kind, lam):
    """A curve or tensor space, well-spread jittered sites, 1 or 2 value columns (smooth,
    perhaps noisy), markers of the given kind and a fit configuration with penalty ``lam``."""
    degree = draw(st.integers(2, 3))
    cells = draw(st.integers(1, 3 if tensor else 8))
    kv = make_open_knot_vector((0.0, 1.0), degree, uniform_interior((0.0, 1.0), cells - 1))
    space = SplineSpace([kv, kv] if tensor else kv)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_axis = 2 * kv.dim if tensor else 4 * kv.dim
    axis = (np.arange(per_axis) + rng.uniform(0.1, 0.9, per_axis)) / per_axis
    sites = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2) if tensor else axis
    m = per_axis**space.ndim
    k, noise = draw(st.integers(1, 2)), draw(st.sampled_from([0.0, 0.1]))
    t = sites @ [1.0, 2.0 / 3.0] if tensor else sites
    values = np.outer(np.cos(3.0 * t), [1.0, -0.5][:k]) + noise * rng.normal(size=(m, k))
    marked = {"none": np.zeros(m, dtype=bool),
              "all": np.ones(m, dtype=bool),
              "one": np.arange(m) == rng.integers(m),
              "starve": rng.permutation(m) >= space.dim - 1,
              "some": rng.uniform(size=m) < 0.2}[kind]
    markers = np.where(marked, rng.integers(1, 3, m), 0)
    cloud = WeightedPointCloud(sites, values, rng.uniform(0.5, 2.0, m), markers)
    config = FitConfig(tol_i=draw(st.sampled_from([1e-5, 0.05, 1.0])),
                       tol_ii=draw(st.sampled_from([1e-3, 0.3, float("inf")])),
                       lam=lam, max_iter=6,
                       alpha_mode=draw(st.sampled_from(["error_driven", "fixed_factor"])))
    return space, cloud, config


class TestFoldedRwlsFit:
    """``rwls_fit`` folds the unmarked rows into a triangle once; it must fit what the
    reweighting loop on all of ``B`` fits."""

    # "starve" marks all but dim - 1 sites: the unmarked block is underdetermined.
    @pytest.mark.parametrize("kind", ["none", "all", "one", "starve", "some"])
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("tensor", [False, True], ids=["curve", "tensor"])
    @settings(max_examples=2)
    @given(data=st.data())
    def test_matches_solves_on_all_rows(self, tensor, lam, kind, data):
        space, cloud, config = data.draw(folded_fits(tensor, kind, lam))
        assert_matches_reference(space, cloud, config, 1e-10 if lam > 0 else 1e-12)

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_rank_deficient_unmarked_block_completed_by_markers(self, lam):
        """The first function lives on the first of four spans; marking every site there
        leaves the unmarked rows without it, yet the whole problem is well posed."""
        kv = make_open_knot_vector((0.0, 1.0), 3, uniform_interior((0.0, 1.0), 3))
        space = SplineSpace(kv)
        sites = np.linspace(0.0, 1.0, 41)
        markers = np.where(sites < 0.25, 1, 0)
        B = space.basis_matrix(sites)
        unmarked = B[markers == 0]
        assert unmarked.shape[0] >= space.dim and not unmarked[:, 0].count_nonzero()
        cloud = WeightedPointCloud(sites, np.abs(sites - 0.1), markers=markers)
        config = FitConfig(tol_i=1e-6, tol_ii=float("inf"), lam=lam, max_iter=8)
        assert_matches_reference(space, cloud, config, 1e-10 if lam > 0 else 1e-12)

    @pytest.mark.parametrize("marked", [[], [2, 5], list(range(30))], ids=["none", "some", "all"])
    def test_deficient_collocation_still_raises(self, marked):
        """No site reaches the functions of the right half: no marker can make up for that."""
        kv = make_open_knot_vector((0.0, 1.0), 2, uniform_interior((0.0, 1.0), 5))
        sites = np.linspace(0.0, 0.4, 30)
        markers = np.zeros(30, dtype=int)
        markers[marked] = 1
        cloud = WeightedPointCloud(sites, np.sin(9.0 * sites), markers=markers)
        with pytest.raises(RankDeficiencyError):
            rwls_fit(SplineSpace(kv), cloud, FitConfig(tol_i=1e-6, max_iter=4))

    def test_penalized_band_is_ordered_on_the_factored_system(self, monkeypatch):
        """The folded triangle fills in beyond ``P``'s pattern: ordered by ``P`` alone,
        this bicubic fit handed ``solveh_banded`` a band of 107 rows; ordered by the
        system it factors, 71 (scipy 1.17)."""
        bands = []
        solveh_banded = scipy.linalg.solveh_banded
        monkeypatch.setattr(scipy.linalg, "solveh_banded",
                            lambda ab, *args, **kwargs: bands.append(ab.shape[0])
                            or solveh_banded(ab, *args, **kwargs))
        rng = np.random.default_rng(0)
        kv = make_open_knot_vector((0.0, 1.0), 3, uniform_interior((0.0, 1.0), 8))
        sites = rng.uniform(0.0, 1.0, (3000, 2))
        markers = np.zeros(3000, dtype=int)
        markers[rng.choice(3000, 100, replace=False)] = 1
        values = np.sin(4.0 * sites[:, 0]) * np.cos(3.0 * sites[:, 1])
        cloud = WeightedPointCloud(sites, values, markers=markers)
        rwls_fit(SplineSpace([kv, kv]), cloud, FitConfig(tol_i=1e-9, lam=1e-4, max_iter=3))
        assert len(bands) == 3
        assert max(bands) <= 75


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
        report = adaptive_rwls_fit(space, type_one_cloud(cloud0, k1), config)
        counts = [r.n_type_one for r in report.records]
        assert counts[0] == k1.size
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_stagnation_raises(self):
        """At degree 6, buffered marks around isolated sites activate nothing and trip the guard."""
        space = surface_space(6, 6)
        sites = np.array([[0.42, 0.42], [-0.8, 0.6], [0.7, -0.7], [-0.2, -0.9], [0.9, 0.9]])
        values = np.array([5.0, -3.0, 4.0, -2.0, 1.0])
        cloud = WeightedPointCloud(sites, values)
        config = FitConfig(
            eps=1e-12, tol_i=1e-12, tol_ii=float("inf"), lam=1e-6, max_levels=6,
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
        reweighted = adaptive_rwls_fit(space, type_one_cloud(cloud0, k1), config)
        frozen = adaptive_rwls_fit(space, cloud0, config)
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
