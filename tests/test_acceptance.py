"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from splinefit import (
    CellId,
    FitConfig,
    HierarchicalSpace,
    RankDeficiencyError,
    SplineFunction,
    SplineSpace,
    WeightedPointCloud,
    adaptive_rwls_fit,
    averaging_knots,
    collocation_hierarchical,
    collocation_matrix,
    curve_point_cloud,
    decompose,
    evaluate_3peaks,
    evaluate_test_curves,
    feature_weighted_sites,
    init_markers_from_ls,
    irls_solve,
    make_open_knot_vector,
    rwls_fit,
    schoenberg_whitney_admissible,
    solve_wls,
    top_gradient_markers,
    uniform_interior,
    weight_limit_solution,
)
from splinefit.cli_io import read_model, write_model

from conftest import SEVEN_SITES, SEVEN_VALUES, normal_equation_solve


def report(name, passed, detail=""):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def seven_cloud_random_weights(seed=1234):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.05, 1.0, 7)
    return WeightedPointCloud(SEVEN_SITES, SEVEN_VALUES, weights)


def quad_poly():
    return SplineSpace(make_open_knot_vector((-5.0, 5.0), 2, []))


def quad_spline():
    return SplineSpace(make_open_knot_vector((-5.0, 5.0), 2, [-5.0 / 3.0, 5.0 / 3.0]))


def max_relative_gap(space, dec, coefficients, points):
    worst = 0.0
    for x in points:
        idx, basis = space.eval_basis_derivatives([x], None)
        ref = (basis @ coefficients[idx])[0]
        got = dec.reconstruct([x])[0]
        worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
    return worst


class TestCriterion1PolynomialDecomposition:
    def test_convex_combination_equals_direct_fit(self):
        """35-subset combination reproduces the quadratic fit at 101 points."""
        start = time.perf_counter()
        space = quad_poly()
        cloud = seven_cloud_random_weights()
        dec = decompose(space, cloud)
        B = collocation_matrix(space, cloud.sites)
        direct = normal_equation_solve(B, cloud.weights, cloud.values)
        gap = max_relative_gap(space, dec, direct, np.linspace(-5, 5, 101))
        elapsed = time.perf_counter() - start
        report(
            "criterion 1 (polynomial decomposition)",
            len(dec.certificates) == 35
            and dec.num_admissible == 35
            and gap <= 1e-9
            and elapsed < 1.0,
            f"35/35 admissible, max rel gap {gap:.2e}, {elapsed:.2f}s",
        )


class TestCriterion2SplineDecomposition:
    def test_twenty_of_twentyone_and_matching_fit(self):
        """Nesting condition and determinant reject the same single subset."""
        start = time.perf_counter()
        space = quad_spline()
        cloud = seven_cloud_random_weights()
        dec = decompose(space, cloud)
        rejected = [c.subset for c in dec.certificates if not c.admissible]
        sw_rejects = not schoenberg_whitney_admissible(space, SEVEN_SITES[:5])
        B = collocation_matrix(space, cloud.sites)
        direct = normal_equation_solve(B, cloud.weights, cloud.values)
        gap = max_relative_gap(space, dec, direct, np.linspace(-5, 5, 101))
        elapsed = time.perf_counter() - start
        report(
            "criterion 2 (spline decomposition)",
            len(dec.certificates) == 21
            and dec.num_admissible == 20
            and rejected == [(0, 1, 2, 3, 4)]
            and sw_rejects
            and gap <= 1e-9
            and elapsed < 1.0,
            f"20/21 admissible, rejected {rejected[0]}, gap {gap:.2e}, {elapsed:.2f}s",
        )


class TestCriterion3CauchyBinet:
    def test_normalizer_equals_gram_determinant(self):
        """Subset-weight sum matches det(B^T W B) on 50 random instances."""
        rng = np.random.default_rng(707)
        spaces = [
            SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [])),
            SplineSpace(make_open_knot_vector((0.0, 1.0), 1, [0.4, 0.7])),
            SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.3, 0.6])),
            SplineSpace(make_open_knot_vector((0.0, 1.0), 5, [])),
        ]
        count = 0
        worst = 0.0
        while count < 50:
            space = spaces[int(rng.integers(len(spaces)))]
            n = space.dim
            if n > 6:
                continue
            m = int(rng.integers(n, 11))
            if m < n or math.comb(m, n) > 500:
                continue
            sites = np.sort(rng.uniform(0, 1, m))
            cloud = WeightedPointCloud(
                sites, rng.normal(size=m), rng.uniform(0.1, 1.0, m)
            )
            try:
                dec = decompose(space, cloud)
            except RankDeficiencyError:
                continue
            worst = max(worst, dec.cauchy_binet_residual())
            count += 1
        report(
            "criterion 3 (Cauchy-Binet identity)",
            worst <= 1e-8,
            f"50 instances, worst relative residual {worst:.2e}",
        )


class TestCriterion4WeightLimits:
    def test_large_weight_limits(self):
        """Huge weights pin the fit to the held points; the reduced formula matches."""
        start = time.perf_counter()
        cloud = seven_cloud_random_weights()
        spline = quad_spline()
        held = [0, 1, 2, 3, 6]
        fn = weight_limit_solution(spline, cloud, held, 1e12)
        scale = np.abs(cloud.values).max()
        interp_err = max(
            abs(fn.evaluate([cloud.sites[i, 0]])[0] - cloud.values[i, 0]) for i in held
        )

        poly = quad_poly()
        B = collocation_matrix(poly, cloud.sites)
        single_err = 0.0
        for held_one in ([2], [5]):
            fn1 = weight_limit_solution(poly, cloud, held_one, 1e10)
            free = [i for i in range(7) if i not in held_one]
            for x in np.linspace(-5, 5, 21):
                idx, basis = poly.eval_basis_derivatives([x], None)
                num, den = 0.0, 0.0
                for K in itertools.combinations(free, poly.dim - 1):
                    union = sorted(held_one + list(K))
                    BU = B[union]
                    det = np.linalg.det(BU)
                    if abs(det) < 1e-12:
                        continue
                    lam = np.prod(cloud.weights[list(K)]) * det * det
                    cU = np.linalg.solve(BU, cloud.values[union])
                    num += lam * (basis @ cU[idx])[0]
                    den += lam
                ref = num / den
                single_err = max(
                    single_err, abs(fn1.evaluate([x])[0] - ref) / (1 + abs(ref))
                )
        elapsed = time.perf_counter() - start
        report(
            "criterion 4 (large-weight limits)",
            interp_err < 1e-6 * scale and single_err < 1e-6 and elapsed < 5.0,
            f"interp {interp_err / scale:.2e} of scale, reduced-formula gap "
            f"{single_err:.2e}, {elapsed:.2f}s",
        )


class TestCriterion5DerivativeIdentity:
    def test_derivative_average_and_bounds(self):
        """Interpolant-derivative average and min/max sandwich at 100 points."""
        rng = np.random.default_rng(55)
        cloud = seven_cloud_random_weights()
        worst_gap = 0.0
        sandwich_ok = True
        for space in (quad_poly(), quad_spline()):
            dec = decompose(space, cloud)
            B = collocation_matrix(space, cloud.sites)
            direct = normal_equation_solve(B, cloud.weights, cloud.values)
            for x in rng.uniform(-5, 5, 100):
                for alpha in ((1,), (2,)):
                    idx, dbasis = space.eval_basis_derivatives([x], alpha)
                    ref = (dbasis @ direct[idx])[0]
                    got = dec.reconstruct_derivative([x], alpha)[0]
                    worst_gap = max(worst_gap, abs(got - ref) / (1 + abs(ref)))
                    lo, hi = dec.derivative_bounds([x], alpha)
                    if not (lo[0] - 1e-10 <= got <= hi[0] + 1e-10):
                        sandwich_ok = False
        report(
            "criterion 5 (derivative identity and bounds)",
            worst_gap <= 1e-8 and sandwich_ok,
            f"max rel gap {worst_gap:.2e}, sandwich {'holds' if sandwich_ok else 'fails'}",
        )


class TestCriterion6Irls:
    def test_lp_objective_monotone(self):
        """20 reweighted iterations never increase the p = 1.5 objective."""
        cloud = WeightedPointCloud(SEVEN_SITES, SEVEN_VALUES)
        space = quad_poly()
        fn, trace = irls_solve(space, cloud, 1.5, 20)
        monotone = all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        beats_ls = trace[-1] <= trace[0] + 1e-12
        report(
            "criterion 6 (IRLS objective)",
            monotone and beats_ls and len(trace) == 20,
            f"objective {trace[0]:.6f} -> {trace[-1]:.6f}, monotone={monotone}",
        )


class TestCriterion7CurveFitting:
    CONFIGS = {1: (37, 12), 2: (47, 10), 3: (47, 10)}

    @pytest.mark.parametrize("curve_id", [1, 2, 3])
    def test_reweighting_beats_ordinary_ls_on_markers(self, curve_id):
        """Marker errors drop below 1e-4 and improve at least tenfold on LS."""
        start = time.perf_counter()
        interior, n_markers = self.CONFIGS[curve_id]
        base = curve_point_cloud(curve_id)
        marker_idx = top_gradient_markers(base.sites, base.values, n_markers)
        labels = np.zeros(base.m, dtype=int)
        labels[marker_idx] = 1
        cloud = WeightedPointCloud(base.sites, base.values, markers=labels)
        space = SplineSpace(averaging_knots(base.sites.ravel(), interior + 4, 3))

        config = FitConfig(
            tol_i=1e-5, tol_ii=float("inf"), max_iter=100,
            alpha_mode="fixed_factor", rho=1.25,
        )
        rwls = rwls_fit(space, cloud, config)
        marker_max = rwls.records[-1].max_type_one

        B = collocation_matrix(space, base.sites)
        ls = solve_wls(B, np.ones(base.m), base.values)
        ls_marker_max = np.abs((B @ ls - base.values).ravel())[marker_idx].max()
        elapsed = time.perf_counter() - start
        improvement = ls_marker_max / marker_max
        report(
            f"criterion 7 (curve {curve_id} reweighted fit)",
            marker_max < 1e-4
            and improvement >= 10.0
            and rwls.iterations <= 100
            and elapsed < 10.0,
            f"marker MAX {marker_max:.2e} vs LS {ls_marker_max:.2e} "
            f"({improvement:.0f}x) in {rwls.iterations} iterations, {elapsed:.1f}s",
        )


class TestCriterion8AdaptiveSurface:
    def test_adaptive_reweighting_trend(self):
        """Error decreases per level; reweighting beats frozen weights at close DOFs."""
        start = time.perf_counter()
        g = np.linspace(-1.0, 1.0, 100)
        X, Y = np.meshgrid(g, g, indexing="ij")
        sites = np.column_stack([X.ravel(), Y.ravel()])
        cloud = WeightedPointCloud(sites, evaluate_3peaks(sites[:, 0], sites[:, 1]))
        kv = make_open_knot_vector((-1.0, 1.0), 3, uniform_interior((-1.0, 1.0), 14))
        base = SplineSpace([kv, kv])

        eps = 2e-3
        markers = init_markers_from_ls(base, cloud, eps)
        config = FitConfig(
            tol_i=10 * eps, tol_ii=float("inf"), eps=eps, lam=1e-6,
            max_levels=5, alpha_mode="fixed_factor", rho=1.25,
        )
        labels = np.zeros(cloud.m, dtype=int)
        labels[markers] = 1
        marked = WeightedPointCloud(cloud.sites, cloud.values, markers=labels)
        rwls = adaptive_rwls_fit(base, marked, config)
        frozen = adaptive_rwls_fit(base, cloud, config)

        maxes = [r.max for r in rwls.records]
        strictly_decreasing = all(b < a for a, b in zip(maxes, maxes[1:]))
        dof_r, dof_f = rwls.records[-1].dofs, frozen.records[-1].dofs
        dofs_close = abs(dof_r - dof_f) <= 0.05 * max(dof_r, dof_f)
        beats = rwls.records[-1].max <= frozen.records[-1].max
        elapsed = time.perf_counter() - start
        report(
            "criterion 8 (adaptive surface trend)",
            strictly_decreasing and dofs_close and beats and elapsed < 120.0,
            f"MAX {maxes[0]:.2e}->{maxes[-1]:.2e} over {len(maxes)} levels, "
            f"reweighted {rwls.records[-1].max:.2e}@{dof_r} dofs vs frozen "
            f"{frozen.records[-1].max:.2e}@{dof_f} dofs, {elapsed:.0f}s",
        )


class TestCriterion9WeightInfluence:
    def test_max_error_nonmonotone_in_marked_weight(self):
        """Moderate upweighting helps; extreme upweighting hurts."""
        start = time.perf_counter()
        g = np.linspace(-1.0, 1.0, 64)
        X, Y = np.meshgrid(g, g, indexing="ij")
        sites = np.column_stack([X.ravel(), Y.ravel()])
        f = evaluate_3peaks(sites[:, 0], sites[:, 1])
        peaks = [(0.3, 0.3), (-0.3, -0.3), (0.0, 0.0)]

        kv = make_open_knot_vector((-1.0, 1.0), 2, uniform_interior((-1.0, 1.0), 15))
        h = HierarchicalSpace.from_base(SplineSpace([kv, kv]))
        for level, radius in enumerate((0.3, 0.15)):
            marked = []
            kvs = h.levels[level].knot_vectors
            bx, by = kvs[0].breakpoints, kvs[1].breakpoints
            for i in range(len(bx) - 1):
                for j in range(len(by) - 1):
                    if not h.domains[level][i, j]:
                        continue
                    cx, cy = 0.5 * (bx[i] + bx[i + 1]), 0.5 * (by[j] + by[j + 1])
                    if any((cx - px) ** 2 + (cy - py) ** 2 < radius**2 for px, py in peaks):
                        marked.append(CellId(level, (i, j)))
            h = h.refine(marked, buffer=False)

        B = collocation_hierarchical(h, sites)
        ls = solve_wls(B, np.ones(f.size), f)
        marked_points = np.flatnonzero(np.abs(B @ ls - f) > 5e-4)
        sweep = {}
        for w_gamma in (1, 2, 4, 6, 10, 100):
            w = np.ones(f.size)
            w[marked_points] = w_gamma
            c = solve_wls(B, w, f)
            sweep[w_gamma] = float(np.abs(B @ c - f).max())
        interior = {k: v for k, v in sweep.items() if 1 < k < 100}
        best = min(interior, key=interior.get)
        nonmonotone = interior[best] < sweep[1] and sweep[100] > sweep[1]
        elapsed = time.perf_counter() - start
        report(
            "criterion 9 (weight influence study)",
            nonmonotone and elapsed < 60.0,
            f"dim {h.dim}, |K| {marked_points.size}, MAX(1)={sweep[1]:.3e}, "
            f"best MAX({best})={interior[best]:.3e}, MAX(100)={sweep[100]:.3e}, "
            f"{elapsed:.0f}s",
        )


class TestCriterion10Serialization:
    def test_roundtrip_tensor_and_hierarchical(self, tmp_path):
        """Write/read leaves evaluation unchanged at 1000 random points."""
        rng = np.random.default_rng(12)
        kv = make_open_knot_vector((0.0, 1.0), 3, [0.2, 0.55, 0.8])
        tensor = SplineSpace([kv, kv])
        fn_t = SplineFunction(tensor, rng.normal(size=(tensor.dim, 2)))

        base = SplineSpace(
            [make_open_knot_vector((0.0, 1.0), 2, uniform_interior((0.0, 1.0), 3))] * 2
        )
        h = HierarchicalSpace.from_base(base).refine(
            [CellId(0, (0, 0)), CellId(0, (2, 2))], buffer=True
        )
        fn_h = SplineFunction(h, rng.normal(size=(h.dim, 1)))

        worst = 0.0
        for tag, fn in (("tensor", fn_t), ("hierarchical", fn_h)):
            path = tmp_path / f"{tag}.json"
            write_model(path, fn)
            back = read_model(path)
            for _ in range(1000):
                x = rng.uniform(0, 1, 2)
                worst = max(worst, float(np.abs(back.evaluate(x) - fn.evaluate(x)).max()))
        report(
            "criterion 10 (model serialization)",
            worst <= 1e-12,
            f"worst evaluation gap {worst:.2e} across 2000 samples",
        )
