"""Convex-combination decomposition of weighted least squares."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splinefit
from splinefit import (
    RankDeficiencyError,
    SplineSpace,
    SubsetCapError,
    WeightedPointCloud,
    collocation_matrix,
    decompose,
    enumerate_subsets,
    interpolate_subset,
    irls_solve,
    make_open_knot_vector,
    schoenberg_whitney_admissible,
    solve_wls,
    weight_limit_solution,
)

from conftest import normal_equation_solve


def brute_force_limit(space, cloud, held):
    """Independent reduced combination for the large-weight limit.

    Enumerates the complementary subsets directly from the reduced
    combination formula: lam = (product of free-point weights) * det(B on held+free)^2.
    """
    B = collocation_matrix(space, cloud.sites)
    held = sorted(held)
    free = [i for i in range(cloud.m) if i not in held]
    n = space.dim

    def evaluate(x):
        idx, basis = space.eval_basis([x])
        num = np.zeros(cloud.dim_values)
        den = 0.0
        for K in itertools.combinations(free, n - len(held)):
            union = sorted(held + list(K))
            BU = B[union]
            det = np.linalg.det(BU)
            if abs(det) < 1e-12:
                continue
            lam = np.prod(cloud.weights[list(K)]) * det * det
            cU = np.linalg.solve(BU, cloud.values[union])
            num += lam * (basis @ cU[idx])
            den += lam
        return num / den

    return evaluate


class TestEnumerateSubsets:
    def test_seven_choose_three(self):
        subsets = list(enumerate_subsets(7, 3))
        assert len(subsets) == 35
        assert subsets == sorted(subsets)
        assert len(set(subsets)) == 35

    def test_seven_choose_five(self):
        assert len(list(enumerate_subsets(7, 5))) == 21

    def test_full_subset(self):
        assert list(enumerate_subsets(4, 4)) == [(0, 1, 2, 3)]

    def test_cap_guard(self):
        with pytest.raises(SubsetCapError):
            enumerate_subsets(40, 20)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            enumerate_subsets(3, 0)
        with pytest.raises(ValueError):
            enumerate_subsets(3, 4)


class TestInterpolateSubset:
    def test_inadmissible_subset_flagged(self, quad_spline_space, seven_cloud):
        cert = interpolate_subset(quad_spline_space, seven_cloud, (0, 1, 2, 3, 4))
        assert not cert.admissible
        assert cert.coefficients is None
        assert cert.lam == 0.0

    def test_single_span_always_admissible(self, quad_poly_space, seven_cloud):
        cert = interpolate_subset(quad_poly_space, seven_cloud, (1, 3, 5))
        assert cert.admissible

    def test_admissible_subset_interpolates(self, quad_spline_space, seven_cloud):
        cert = interpolate_subset(quad_spline_space, seven_cloud, (0, 1, 2, 3, 6))
        assert cert.admissible
        B = collocation_matrix(quad_spline_space, seven_cloud.sites)
        residual = B[[0, 1, 2, 3, 6]] @ cert.coefficients - seven_cloud.values[[0, 1, 2, 3, 6]]
        scale = np.abs(seven_cloud.values).max()
        assert np.abs(residual).max() < 1e-9 * scale

    def test_rejects_wrong_size(self, quad_spline_space, seven_cloud):
        with pytest.raises(ValueError, match="subset size"):
            interpolate_subset(quad_spline_space, seven_cloud, (0, 1))


class TestDecompose:
    def test_polynomial_all_admissible(self, quad_poly_space, seven_cloud):
        dec = decompose(quad_poly_space, seven_cloud)
        assert len(dec.certificates) == 35
        assert dec.num_admissible == 35

    def test_spline_twenty_of_twentyone(self, quad_spline_space, seven_cloud):
        dec = decompose(quad_spline_space, seven_cloud)
        assert len(dec.certificates) == 21
        assert dec.num_admissible == 20
        rejected = [c for c in dec.certificates if not c.admissible]
        assert rejected[0].subset == (0, 1, 2, 3, 4)

    def test_square_data_single_certificate(self, quad_poly_space):
        sites = np.array([-4.0, 0.0, 3.0])
        cloud = WeightedPointCloud(sites, np.array([1.0, -1.0, 2.0]), [2.0, 3.0, 4.0])
        dec = decompose(quad_poly_space, cloud)
        assert len(dec.certificates) == 1
        cert = dec.certificates[0]
        assert dec.normalizer == pytest.approx(24.0 * cert.det**2)

    def test_rank_deficient_data_raises(self, quad_poly_space):
        # three copies of one site cannot determine a quadratic
        sites = np.array([1.0, 1.0, 1.0, 1.0])
        cloud = WeightedPointCloud(sites, np.ones(4))
        with pytest.raises(RankDeficiencyError):
            decompose(quad_poly_space, cloud)

    def test_reconstruct_square_interpolates(self, quad_poly_space):
        sites = np.array([-4.0, 0.0, 3.0])
        values = np.array([1.0, -1.0, 2.0])
        cloud = WeightedPointCloud(sites, values)
        dec = decompose(quad_poly_space, cloud)
        for x, fx in zip(sites, values):
            assert dec.reconstruct([x])[0] == pytest.approx(fx, abs=1e-10)

    def test_reconstruct_constant_data(self, quad_spline_space, seven_sites):
        cloud = WeightedPointCloud(seven_sites, np.full(7, 4.5))
        dec = decompose(quad_spline_space, cloud)
        for x in np.linspace(-5, 5, 21):
            assert dec.reconstruct([x])[0] == pytest.approx(4.5, abs=1e-10)

    def test_reconstruct_matches_direct_solve(self, quad_poly_space, seven_cloud):
        """Core identity: the convex combination equals the direct solution."""
        B = collocation_matrix(quad_poly_space, seven_cloud.sites)
        c = normal_equation_solve(B, seven_cloud.weights, seven_cloud.values)
        dec = decompose(quad_poly_space, seven_cloud)
        for x in np.linspace(-5, 5, 101):
            idx, basis = quad_poly_space.eval_basis([x])
            ref = (basis @ c[idx])[0]
            got = dec.reconstruct([x])[0]
            assert abs(got - ref) <= 1e-9 * (1 + abs(ref))

    def test_cauchy_binet_guard_survives_optimize_flag(self):
        # A sweep whose subset weights disagree with det(B^T W B) must raise
        # NumericError even when `python -O` strips assertions.
        script = (
            "import dataclasses, sys\n"
            "import numpy as np\n"
            "import splinefit.interp_decomposition as idc\n"
            "from splinefit import NumericError, SplineSpace, WeightedPointCloud\n"
            "from splinefit import make_open_knot_vector\n"
            "exact = idc._subset_certificate\n"
            "idc._subset_certificate = lambda *a: dataclasses.replace(\n"
            "    exact(*a), lam=2.0 * exact(*a).lam)\n"
            "space = SplineSpace(make_open_knot_vector((-5.0, 5.0), 2, []))\n"
            "cloud = WeightedPointCloud(np.linspace(-4.0, 4.0, 6), np.arange(6.0))\n"
            "try:\n"
            "    idc.decompose(space, cloud)\n"
            "except NumericError as exc:\n"
            "    print('raised:', exc)\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        src = Path(splinefit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "Cauchy-Binet" in proc.stdout

    def test_to_function_reassembles_the_fit(self, quad_spline_space, seven_cloud):
        dec = decompose(quad_spline_space, seven_cloud)
        fn = dec.to_function()
        for x in np.linspace(-5, 5, 21):
            np.testing.assert_allclose(
                fn.evaluate([x]), dec.reconstruct([x]), atol=1e-12
            )


class TestDecompositionProperties:
    """Randomized identity checks across polynomial and spline spaces."""

    def spaces(self):
        yield SplineSpace(make_open_knot_vector((0.0, 1.0), 2, []))
        yield SplineSpace(make_open_knot_vector((0.0, 1.0), 1, [0.4, 0.7]))
        yield SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.3, 0.6]))
        yield SplineSpace(
            [
                make_open_knot_vector((0.0, 1.0), 1, []),
                make_open_knot_vector((0.0, 1.0), 1, [0.5]),
            ]
        )

    def random_cloud(self, rng, space, m, d_values):
        if space.ndim == 1:
            sites = np.sort(rng.uniform(0, 1, m))
        else:
            sites = rng.uniform(0, 1, (m, space.ndim))
        values = rng.normal(size=(m, d_values))
        weights = rng.uniform(0.1, 1.0, m)
        return WeightedPointCloud(sites, values, weights)

    def test_identity_against_direct_solve(self):
        rng = np.random.default_rng(99)
        for space in self.spaces():
            m = space.dim + int(rng.integers(1, 5))
            cloud = self.random_cloud(rng, space, m, int(rng.integers(1, 3)))
            B = collocation_matrix(space, cloud.sites)
            c = normal_equation_solve(B, cloud.weights, cloud.values)
            dec = decompose(space, cloud)
            for _ in range(101):
                x = rng.uniform(0, 1, space.ndim)
                idx, basis = space.eval_basis(x)
                ref = basis @ c[idx]
                got = dec.reconstruct(x)
                assert np.all(np.abs(got - ref) <= 1e-9 * (1 + np.abs(ref)))

    def test_convexity_and_bounds(self):
        rng = np.random.default_rng(7)
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.5]))
        cloud = self.random_cloud(rng, space, 8, 1)
        dec = decompose(space, cloud)
        lams = [c.lam for c in dec.certificates if c.admissible]
        assert all(lam >= 0 for lam in lams)
        assert sum(lams) == pytest.approx(dec.normalizer)
        for _ in range(50):
            x = rng.uniform(0, 1, 1)
            lo, hi = dec.derivative_bounds(x, (0,))
            val = dec.reconstruct(x)
            assert np.all(lo - 1e-12 <= val) and np.all(val <= hi + 1e-12)

    def test_cauchy_binet_on_random_instances(self):
        """Sum of subset weights equals det(B^T W B) within 1e-8, 50 instances."""
        rng = np.random.default_rng(52)
        spaces = list(self.spaces())
        count = 0
        while count < 50:
            space = spaces[int(rng.integers(len(spaces)))]
            m = int(rng.integers(space.dim, 11))
            if math.comb(m, space.dim) > 500 or m < space.dim:
                continue
            cloud = self.random_cloud(rng, space, m, 1)
            try:
                dec = decompose(space, cloud)
            except RankDeficiencyError:
                continue
            assert dec.cauchy_binet_residual() < 1e-8
            count += 1

    def test_error_average_identity(self, quad_poly_space, seven_cloud):
        """f - v has the same convex-combination form as v itself."""
        dec = decompose(quad_poly_space, seven_cloud)
        B = collocation_matrix(quad_poly_space, seven_cloud.sites)
        rng = np.random.default_rng(3)
        for x in rng.uniform(-5, 5, 25):
            f_here = np.sin(x)
            idx, basis = quad_poly_space.eval_basis([x])
            acc = 0.0
            for cert in dec.certificates:
                if cert.admissible:
                    acc += cert.lam * (f_here - basis @ cert.coefficients[idx, 0])
            lhs = f_here - dec.reconstruct([x])[0]
            assert lhs == pytest.approx(acc / dec.normalizer, abs=1e-10)

    def test_weight_scale_invariance(self, quad_spline_space, seven_cloud):
        """Scaling all weights by a constant leaves the reconstruction unchanged."""
        dec1 = decompose(quad_spline_space, seven_cloud)
        scaled = seven_cloud.with_weights(seven_cloud.weights * 37.5)
        dec2 = decompose(quad_spline_space, scaled)
        for x in np.linspace(-5, 5, 21):
            a = dec1.reconstruct([x])[0]
            b = dec2.reconstruct([x])[0]
            assert abs(a - b) < 1e-10 * (1 + abs(a))

    def test_admissibility_equals_nesting_condition(self, quad_spline_space, seven_cloud):
        dec = decompose(quad_spline_space, seven_cloud)
        for cert in dec.certificates:
            by_sw = schoenberg_whitney_admissible(
                quad_spline_space, seven_cloud.sites[list(cert.subset)]
            )
            assert cert.admissible == by_sw


class TestDerivativeIdentity:
    def test_order_zero_matches_reconstruct(self, quad_poly_space, seven_cloud):
        dec = decompose(quad_poly_space, seven_cloud)
        for x in np.linspace(-5, 5, 11):
            np.testing.assert_allclose(
                dec.reconstruct_derivative([x], (0,)), dec.reconstruct([x]), atol=1e-12
            )

    def test_constant_data_has_zero_derivative(self, quad_spline_space, seven_sites):
        cloud = WeightedPointCloud(seven_sites, np.full(7, 2.0))
        dec = decompose(quad_spline_space, cloud)
        for x in np.linspace(-5, 5, 11):
            assert abs(dec.reconstruct_derivative([x], (1,))[0]) < 1e-10

    def test_derivative_matches_direct_fit(self, quad_poly_space, seven_cloud):
        """Weighted average of interpolant slopes equals the fit's slope."""
        B = collocation_matrix(quad_poly_space, seven_cloud.sites)
        c = normal_equation_solve(B, seven_cloud.weights, seven_cloud.values)
        dec = decompose(quad_poly_space, seven_cloud)
        for x in np.linspace(-5, 5, 41):
            idx, dbasis = quad_poly_space.eval_basis_derivatives([x], (1,))
            ref = (dbasis @ c[idx])[0]
            got = dec.reconstruct_derivative([x], (1,))[0]
            assert abs(got - ref) <= 1e-8 * (1 + abs(ref))

    def test_bounds_sandwich_everywhere(self, quad_spline_space, seven_cloud):
        dec = decompose(quad_spline_space, seven_cloud)
        rng = np.random.default_rng(12)
        for alpha in ((0,), (1,), (2,)):
            for x in rng.uniform(-5, 5, 100):
                lo, hi = dec.derivative_bounds([x], alpha)
                mid = dec.reconstruct_derivative([x], alpha)
                assert np.all(lo - 1e-10 <= mid) and np.all(mid <= hi + 1e-10)

    def test_square_data_bounds_collapse(self, quad_poly_space):
        sites = np.array([-4.0, 0.0, 3.0])
        cloud = WeightedPointCloud(sites, np.array([1.0, -1.0, 2.0]))
        dec = decompose(quad_poly_space, cloud)
        lo, hi = dec.derivative_bounds([1.0], (1,))
        np.testing.assert_allclose(lo, hi)


class TestWeightLimit:
    def test_full_subset_interpolates_at_large_magnitude(self, quad_spline_space, seven_cloud):
        held = [0, 1, 2, 3, 6]
        fn = weight_limit_solution(quad_spline_space, seven_cloud, held, 1e12)
        scale = np.abs(seven_cloud.values).max()
        for i in held:
            err = abs(fn.evaluate([seven_cloud.sites[i, 0]])[0] - seven_cloud.values[i, 0])
            assert err < 1e-6 * scale

    def test_empty_subset_is_plain_wls(self, quad_poly_space, seven_cloud):
        fn = weight_limit_solution(quad_poly_space, seven_cloud, [], 1e10)
        B = collocation_matrix(quad_poly_space, seven_cloud.sites)
        c = solve_wls(B, seven_cloud.weights, seven_cloud.values)
        np.testing.assert_allclose(fn.coefficients, c, atol=1e-12)

    def test_single_point_limit_matches_bruteforce(self, quad_poly_space, seven_cloud):
        """Finite large magnitude approaches the reduced combination formula."""
        oracle = brute_force_limit(quad_poly_space, seven_cloud, [2])
        fn = weight_limit_solution(quad_poly_space, seven_cloud, [2], 1e10)
        for x in np.linspace(-5, 5, 21):
            ref = oracle(x)[0]
            got = fn.evaluate([x])[0]
            assert abs(got - ref) <= 1e-6 * (1 + abs(ref))

    def test_rejects_nonpositive_magnitude(self, quad_poly_space, seven_cloud):
        with pytest.raises(ValueError, match="positive"):
            weight_limit_solution(quad_poly_space, seven_cloud, [0], 0.0)

    def test_rejects_oversized_subset(self, quad_poly_space, seven_cloud):
        with pytest.raises(ValueError, match="exceeds"):
            weight_limit_solution(quad_poly_space, seven_cloud, [0, 1, 2, 3], 10.0)


class TestIrls:
    def test_p_near_two_is_single_wls(self, quad_poly_space, seven_cloud):
        """As p -> 2 the weights stay at one and every iterate is plain LS."""
        fn, trace = irls_solve(quad_poly_space, seven_cloud, 2.0 - 1e-12, 3)
        B = collocation_matrix(quad_poly_space, seven_cloud.sites)
        plain = solve_wls(B, np.ones(7), seven_cloud.values)
        np.testing.assert_allclose(fn.coefficients, plain, rtol=1e-9)
        assert len(trace) == 3

    def test_objective_nonincreasing(self, quad_poly_space, seven_cloud):
        _, trace = irls_solve(quad_poly_space, seven_cloud, 1.5, 20)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert trace[-1] <= trace[0]

    def test_constant_data_returns_constant(self, quad_poly_space, seven_sites):
        cloud = WeightedPointCloud(seven_sites, np.full(7, 1.25))
        fn, trace = irls_solve(quad_poly_space, cloud, 1.5, 5, delta=1e-8)
        for x in np.linspace(-5, 5, 9):
            assert fn.evaluate([x])[0] == pytest.approx(1.25, abs=1e-9)
        assert trace[-1] < 1e-20

    def test_half_exponent_mode_runs(self, quad_poly_space, seven_cloud):
        fn, trace = irls_solve(quad_poly_space, seven_cloud, 1.5, 10, exponent_mode="half")
        assert len(trace) == 10
        assert np.all(np.isfinite(fn.coefficients))

    def test_rejects_p_outside_range(self, quad_poly_space, seven_cloud):
        for p in (0.5, 1.0, 2.0, 2.5):
            with pytest.raises(ValueError, match="between 1 and 2"):
                irls_solve(quad_poly_space, seven_cloud, p, 5)
