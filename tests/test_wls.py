"""Weighted and penalized least squares, thin-plate energy, metrics."""

import numpy as np
import pytest
import scipy.sparse

from splinefit import (
    CellId,
    HierarchicalSpace,
    NumericError,
    RankDeficiencyError,
    SplineFunction,
    SplineSpace,
    WeightedPointCloud,
    assemble_thin_plate,
    collocation_hierarchical,
    collocation_matrix,
    make_open_knot_vector,
    metrics,
    solve_penalized_wls,
    solve_wls,
)

from conftest import normal_equation_solve


def interpolate_on(space, values_fn):
    """Coefficients reproducing values_fn at the Greville grid (exact if representable)."""
    pts = space.greville_points()
    B = collocation_matrix(space, pts)
    return np.linalg.solve(B, values_fn(pts))


class TestSolveWls:
    def test_unweighted_mean(self):
        c = solve_wls(np.ones((2, 1)), [1.0, 1.0], [1.0, 3.0])
        np.testing.assert_allclose(c, [2.0])

    def test_weighted_mean_closed_form(self):
        # (3*1 + 1*3) / (3 + 1) = 1.5
        c = solve_wls(np.ones((2, 1)), [3.0, 1.0], [1.0, 3.0])
        np.testing.assert_allclose(c, [1.5])

    def test_square_system_ignores_weights(self):
        """With m = n the interpolant is the solution for any weights."""
        rng = np.random.default_rng(0)
        B = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        f = rng.normal(size=4)
        base = np.linalg.solve(B, f)
        for _ in range(5):
            w = rng.uniform(0.1, 10.0, 4)
            np.testing.assert_allclose(solve_wls(B, w, f), base, rtol=1e-9)

    def test_rank_deficiency_raises(self):
        B = np.ones((5, 2))  # duplicate columns
        with pytest.raises(RankDeficiencyError):
            solve_wls(B, np.ones(5), np.arange(5.0))

    def test_underdetermined_raises(self):
        with pytest.raises(RankDeficiencyError):
            solve_wls(np.ones((2, 3)), np.ones(2), np.ones(2))

    def test_normal_equation_residual_on_random_instances(self):
        """B^T W (B c - f) stays below 1e-8 of the data scale, 50 instances."""
        rng = np.random.default_rng(17)
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 3, [0.3, 0.6]))
        for _ in range(50):
            m = rng.integers(space.dim, 25)
            sites = np.sort(rng.uniform(0, 1, m))
            B = collocation_matrix(space, sites)
            w = rng.uniform(0.1, 5.0, m)
            f = rng.normal(size=m)
            try:
                c = solve_wls(B, w, f)
            except RankDeficiencyError:
                continue
            residual = B.T @ (w * (B @ c - f))
            scale = max(np.abs(f).max(), 1.0)
            assert np.abs(residual).max() < 1e-8 * scale

    def test_multicomponent_shares_factorization(self):
        rng = np.random.default_rng(2)
        B = rng.normal(size=(12, 5))
        w = rng.uniform(0.5, 2.0, 12)
        F = rng.normal(size=(12, 3))
        C = solve_wls(B, w, F)
        for k in range(3):
            np.testing.assert_allclose(C[:, k], solve_wls(B, w, F[:, k]), atol=1e-12)


class TestThinPlate:
    def test_constant_has_zero_energy(self):
        space = SplineSpace(make_open_knot_vector((0.0, 2.0), 3, [0.7, 1.1]))
        P = assemble_thin_plate(space)
        c = np.ones(space.dim)
        assert abs(c @ P @ c) < 1e-10

    def test_univariate_quadratic_energy(self):
        """u = x^2 on [0, 1]: integral of (u'')^2 = 4."""
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 3, [0.3, 0.7]))
        c = interpolate_on(space, lambda p: p[:, 0] ** 2)
        P = assemble_thin_plate(space)
        assert c @ P @ c == pytest.approx(4.0, abs=1e-10)

    def test_bivariate_bilinear_energy(self):
        """u = s t on [0, 1]^2: only the doubled mixed term contributes, J = 2."""
        space = SplineSpace(
            [
                make_open_knot_vector((0.0, 1.0), 2, [0.5]),
                make_open_knot_vector((0.0, 1.0), 2, [0.4]),
            ]
        )
        c = interpolate_on(space, lambda p: p[:, 0] * p[:, 1])
        P = assemble_thin_plate(space)
        assert c @ P @ c == pytest.approx(2.0, abs=1e-10)

    def test_rejects_low_degree(self):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 1, [0.5]))
        with pytest.raises(ValueError, match="degree >= 2"):
            assemble_thin_plate(space)

    def test_quadratic_form_matches_independent_quadrature(self):
        """c^T P c equals a fine independent quadrature of the energy integrand."""
        space = SplineSpace(
            [
                make_open_knot_vector((0.0, 1.0), 2, [0.5]),
                make_open_knot_vector((0.0, 1.0), 2, [0.5]),
            ]
        )
        rng = np.random.default_rng(8)
        c = rng.normal(size=space.dim)
        fn = SplineFunction(space, c)
        P = assemble_thin_plate(space)

        nodes, wq = np.polynomial.legendre.leggauss(6)
        total = 0.0
        for (a0, b0), (a1, b1) in [
            ((a0, b0), (a1, b1))
            for (a0, b0) in [(0.0, 0.5), (0.5, 1.0)]
            for (a1, b1) in [(0.0, 0.5), (0.5, 1.0)]
        ]:
            xs = a0 + 0.5 * (b0 - a0) * (nodes + 1)
            ys = a1 + 0.5 * (b1 - a1) * (nodes + 1)
            wx = wq * 0.5 * (b0 - a0)
            wy = wq * 0.5 * (b1 - a1)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    ss = fn.evaluate_derivative([x, y], (2, 0))[0]
                    st = fn.evaluate_derivative([x, y], (1, 1))[0]
                    tt = fn.evaluate_derivative([x, y], (0, 2))[0]
                    total += wx[i] * wy[j] * (ss**2 + 2 * st**2 + tt**2)
        assert c @ P @ c == pytest.approx(total, abs=1e-10)

    def test_positive_semidefinite(self):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 3, [0.2, 0.5, 0.9]))
        P = assemble_thin_plate(space)
        eigs = np.linalg.eigvalsh(P)
        assert eigs.min() > -1e-10


class TestSolvePenalizedWls:
    @pytest.fixture
    def instance(self):
        rng = np.random.default_rng(23)
        space = SplineSpace(
            [
                make_open_knot_vector((0.0, 1.0), 2, [0.4, 0.7]),
                make_open_knot_vector((0.0, 1.0), 2, [0.5]),
            ]
        )
        sites = rng.uniform(0, 1, (60, 2))
        B = collocation_matrix(space, sites)
        w = rng.uniform(0.2, 2.0, 60)
        f = np.sin(3 * sites[:, 0]) + sites[:, 1] ** 2 + 0.05 * rng.normal(size=60)
        P = assemble_thin_plate(space)
        return B, w, f, P

    @pytest.fixture
    def hierarchical_instance(self):
        """A 2-level hierarchical problem whose collocation comes as CSR."""
        kv = make_open_knot_vector((0.0, 1.0), 2, [0.25, 0.5, 0.75])
        h = HierarchicalSpace.from_base(SplineSpace([kv, kv])).refine(
            [CellId(0, (1, 1)), CellId(0, (1, 2))], buffer=False
        )
        assert h.num_levels == 2
        rng = np.random.default_rng(29)
        sites = rng.uniform(0, 1, (300, 2))
        B = collocation_hierarchical(h, sites)
        w = rng.uniform(0.2, 2.0, 300)
        f = np.cos(2 * sites[:, 0]) * sites[:, 1] + 0.05 * rng.normal(size=300)
        return B, w, f, assemble_thin_plate(h)

    @pytest.mark.parametrize("case", ["instance", "hierarchical_instance"])
    def test_dense_and_csr_give_identical_coefficients(self, case, request):
        B, w, f, P = request.getfixturevalue(case)
        dense = B.toarray() if scipy.sparse.issparse(B) else B
        csr = scipy.sparse.csr_matrix(B)
        plain = solve_wls(dense, w, f)
        np.testing.assert_array_equal(solve_wls(csr, w, f), plain)
        for B_in in (dense, csr):
            np.testing.assert_array_equal(solve_penalized_wls(B_in, w, f, P, 0.0), plain)
        np.testing.assert_array_equal(
            solve_penalized_wls(csr, w, f, P, 1e-5), solve_penalized_wls(dense, w, f, P, 1e-5)
        )

    def test_zero_penalty_reduces_to_wls(self, instance):
        B, w, f, P = instance
        np.testing.assert_allclose(
            solve_penalized_wls(B, w, f, P, 0.0), solve_wls(B, w, f), atol=1e-12
        )

    def test_small_penalty_cures_rank_deficiency(self):
        """Fewer sites than functions is solvable once lam > 0."""
        space = SplineSpace(
            [
                make_open_knot_vector((0.0, 1.0), 2, [0.4, 0.7]),
                make_open_knot_vector((0.0, 1.0), 2, [0.5]),
            ]
        )
        rng = np.random.default_rng(4)
        sites = rng.uniform(0, 1, (space.dim - 3, 2))
        B = collocation_matrix(space, sites)
        w = np.ones(sites.shape[0])
        f = rng.normal(size=sites.shape[0])
        P = assemble_thin_plate(space)
        with pytest.raises(RankDeficiencyError):
            solve_wls(B, w, f)
        c = solve_penalized_wls(B, w, f, P, 1e-6)
        assert np.all(np.isfinite(c))

    def test_energy_decreases_with_penalty(self, instance):
        """Larger lam gives smaller energy and larger weighted data error."""
        B, w, f, P = instance
        energies, sses = [], []
        for lam in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
            c = solve_penalized_wls(B, w, f, P, lam)
            energies.append(c @ P @ c)
            sses.append(np.sum(w * (B @ c - f) ** 2))
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(sses, sses[1:]))

    def test_sparse_matches_dense(self, instance):
        import scipy.sparse

        B, w, f, P = instance
        dense = solve_penalized_wls(B, w, f, P, 1e-5)
        sparse = solve_penalized_wls(scipy.sparse.csr_matrix(B), w, f, P, 1e-5)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_rejects_negative_penalty(self, instance):
        B, w, f, P = instance
        with pytest.raises(ValueError, match="non-negative"):
            solve_penalized_wls(B, w, f, P, -1.0)

    def test_overflowing_right_hand_side_raises(self):
        """Finite data whose weighted right-hand side overflows gives no coefficients."""
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.5]))
        sites = np.linspace(0.0, 1.0, 12)
        B = collocation_matrix(space, sites)
        f = np.full(12, 1e308)
        w = np.full(12, 4.0)
        P = assemble_thin_plate(space)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite"):
                solve_wls(B, w, f)
            with pytest.raises(NumericError, match="non-finite"):
                solve_penalized_wls(B, w, f, P, 1e-6)


class TestMetrics:
    def test_exact_interpolant_has_zero_errors(self, quad_spline_space):
        kv = quad_spline_space.knot_vectors[0]
        sites = kv.greville()
        f = np.cos(sites)
        B = collocation_matrix(quad_spline_space, sites)
        fn = SplineFunction(quad_spline_space, np.linalg.solve(B, f))
        result = metrics(fn, WeightedPointCloud(sites, f))
        assert result.max < 1e-12

    def test_matches_bruteforce_recomputation(self, quad_spline_space):
        rng = np.random.default_rng(31)
        sites = rng.uniform(-5, 5, 40)
        values = rng.normal(size=(40, 2))
        coeffs = rng.normal(size=(5, 2))
        fn = SplineFunction(quad_spline_space, coeffs)
        result = metrics(fn, WeightedPointCloud(sites, values))
        expected = np.array(
            [np.linalg.norm(fn.evaluate([x]) - v) for x, v in zip(sites, values)]
        )
        np.testing.assert_allclose(result.errors, expected, atol=1e-14)
        assert result.rmse == pytest.approx(np.sqrt(np.mean(expected**2)))
        assert result.max == pytest.approx(expected.max())
        assert result.rmse <= result.max

    def test_decomposition_cross_check(self, quad_poly_space, seven_cloud):
        """Production solver agrees with the convex-combination route."""
        from splinefit import decompose

        B = collocation_matrix(quad_poly_space, seven_cloud.sites)
        c = solve_wls(B, seven_cloud.weights, seven_cloud.values)
        dec = decompose(quad_poly_space, seven_cloud)
        for x in np.linspace(-5, 5, 31):
            idx, basis = quad_poly_space.eval_basis([x])
            direct = basis @ c[idx]
            np.testing.assert_allclose(
                dec.reconstruct([x]), direct, rtol=1e-9, atol=1e-12
            )

    def test_direct_solver_matches_normal_equations(self, quad_spline_space, seven_cloud):
        B = collocation_matrix(quad_spline_space, seven_cloud.sites)
        via_svd = solve_wls(B, seven_cloud.weights, seven_cloud.values)
        via_normal = normal_equation_solve(B, seven_cloud.weights, seven_cloud.values)
        np.testing.assert_allclose(via_svd, via_normal, atol=1e-10)
