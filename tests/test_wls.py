"""Weighted and penalized least squares, thin-plate energy, metrics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.interpolate
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import splinefit

from splinefit import (
    CellId,
    HierarchicalSpace,
    KnotVector,
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
    uniform_interior,
    weighted_solver,
)
from splinefit.wls import RANK_RTOL

from conftest import normal_equation_solve


def lstsq_reference(B, weights, f):
    """The dense SVD solve ``solve_wls`` used before the banded QR, kept as a reference."""
    B = B.toarray() if scipy.sparse.issparse(B) else np.asarray(B, dtype=float)
    f = np.asarray(f, dtype=float)
    sqrt_w = np.sqrt(np.asarray(weights, dtype=float))
    rhs = f[:, None] if f.ndim == 1 else f
    c, _, rank, _ = np.linalg.lstsq(B * sqrt_w[:, None], rhs * sqrt_w[:, None], rcond=RANK_RTOL)
    assert rank == B.shape[1]
    return c[:, 0] if f.ndim == 1 else c


def hierarchical_problem():
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
    return h, B, w, f


def curve_problem(columns=1, spread=10.0):
    """A cubic with a double interior knot on 120 sorted sites, weights spread ``spread``."""
    rng = np.random.default_rng(41)
    kv = KnotVector(np.r_[[0.0] * 4, 0.2, 0.5, 0.5, 0.8, [1.0] * 4], 3)
    sites = np.sort(rng.uniform(0.0, 1.0, 120))
    w = rng.permutation(np.geomspace(1.0, spread, 120))
    F = np.column_stack([np.sin(5 * sites + k) + np.abs(sites - 0.5) for k in range(columns)])
    return kv, sites, SplineSpace(kv).basis_matrix(sites), w, F[:, 0] if columns == 1 else F


def tensor_space():
    return SplineSpace(
        [
            make_open_knot_vector((0.0, 1.0), 2, uniform_interior((0.0, 1.0), 4)),
            make_open_knot_vector((-1.0, 1.0), 3, uniform_interior((-1.0, 1.0), 3)),
        ]
    )


def tensor_problem():
    rng = np.random.default_rng(43)
    space = tensor_space()
    sites = np.column_stack([rng.uniform(0, 1, 400), rng.uniform(-1, 1, 400)])
    f = np.exp(sites[:, 0]) * np.sin(2 * sites[:, 1])
    return space.basis_matrix(sites), rng.uniform(0.1, 3.0, 400), f


BANDED_CASES = {
    "cubic-double-knot": lambda: curve_problem()[2:],
    "tensor-2d": tensor_problem,
    "hierarchical-2-level": lambda: hierarchical_problem()[1:],
    "three-columns": lambda: curve_problem(columns=3)[2:],
    "weights-spread-1e8": lambda: curve_problem(spread=1e8)[2:],
}


class TestBandedQr:
    @pytest.mark.parametrize("case", sorted(BANDED_CASES))
    def test_matches_dense_svd_reference(self, case):
        B, w, f = BANDED_CASES[case]()
        ref = lstsq_reference(B, w, f)
        c = solve_wls(B, w, f)
        assert c.shape == ref.shape
        assert np.abs(c - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("columns, spread", [(1, 10.0), (3, 10.0), (1, 1e8)])
    def test_matches_scipy_lsq_spline(self, columns, spread):
        """An independent 1-D oracle: FITPACK-style QR of the weighted spline problem."""
        kv, sites, B, w, f = curve_problem(columns, spread)
        spl = scipy.interpolate.make_lsq_spline(
            sites, f, kv.knots, kv.degree, w=np.sqrt(w), method="qr"
        )
        c = solve_wls(B, w, f)
        assert np.abs(c - spl.c).max() <= 1e-10 * np.abs(spl.c).max()

    @settings(max_examples=60)
    @given(st.data())
    def test_raises_exactly_when_a_function_has_no_site(self, data):
        """Greville sites plus extras, minus every site in the support of some functions.

        The Greville abscissae satisfy the Schoenberg-Whitney condition, so
        with none removed the problem has full rank; removing the sites of a
        function's closed support leaves its column zero.
        """
        degree = data.draw(st.integers(1, 3), label="degree")
        kv = make_open_knot_vector(
            (0.0, 1.0), degree, uniform_interior((0.0, 1.0), data.draw(st.integers(0, 5)))
        )
        starved = data.draw(st.sets(st.integers(0, kv.dim - 1), max_size=2), label="starved")
        extra = data.draw(st.lists(st.floats(0.0, 1.0), max_size=12), label="extra")
        sites = np.sort(np.concatenate([kv.greville(), extra]))
        t, k = kv.knots, kv.order
        for j in starved:
            sites = sites[(sites < t[j]) | (sites > t[j + k])]
        m = sites.size
        w = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
        f = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)))
        B = SplineSpace(kv).basis_matrix(sites)
        if (abs(B).sum(axis=0) == 0).any():
            with pytest.raises(RankDeficiencyError):
                solve_wls(B, w, f)
            return
        c = solve_wls(B, w, f)
        residual = B.T @ (w * (B @ c - f))
        assert np.abs(residual).max() < 1e-8 * max(np.abs(f).max(), 1.0)

    def test_e5_least_squares_fits_in_4_gib_of_address_space(self):
        """300x300 sites on a 60x60 bicubic mesh: the dense scaled B alone would be 2.66 GiB."""
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "import numpy as np\n"
            "import splinefit as sf\n"
            "g = np.linspace(-1.0, 1.0, 300)\n"
            "X, Y = np.meshgrid(g, g, indexing='ij')\n"
            "sites = np.column_stack([X.ravel(), Y.ravel()])\n"
            "f = sf.evaluate_3peaks(sites[:, 0], sites[:, 1])\n"
            "kv = sf.make_open_knot_vector((-1.0, 1.0), 3, sf.uniform_interior((-1.0, 1.0), 59))\n"
            "space = sf.SplineSpace([kv, kv])\n"
            "markers = sf.init_markers_from_ls(space, sf.WeightedPointCloud(sites, f), 2e-3)\n"
            "print(space.dim, markers.size)\n"
        )
        src = Path(splinefit.__file__).resolve().parent.parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        dim, count = map(int, proc.stdout.split())
        assert dim == 3969 and 0 < count < 90000

    def test_rank_guard_runs_under_python_O(self):
        """The |diag R| test is an if and raise, so ``python -O`` keeps it."""
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from splinefit import RankDeficiencyError, solve_wls\n"
            "assert False, 'asserts are live'\n"
            "try:\n"
            "    solve_wls(np.ones((5, 2)), np.ones(5), np.arange(5.0))\n"
            "except RankDeficiencyError as exc:\n"
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
        assert "raised: collocation matrix has numerical rank 1 < 2" in proc.stdout


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
        h, B, w, f = hierarchical_problem()
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

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_rejects_non_finite_penalty(self, instance, lam):
        """Refused when the solver is built, not deep in a solve (NaN took the penalized path)."""
        B, w, f, P = instance
        with pytest.raises(ValueError, match=f"finite and non-negative, got {lam}"):
            weighted_solver(B, P, lam)

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


def curve_case(columns=1):
    kv, _, B, w, f = curve_problem(columns)
    return SplineSpace(kv), B, w, f


# Each case with the space whose thin-plate energy penalizes it.
REUSE_CASES = {
    "cubic-double-knot": curve_case,
    "tensor-2d": lambda: (tensor_space(), *tensor_problem()),
    "hierarchical-2-level": hierarchical_problem,
    "three-columns": lambda: curve_case(columns=3),
}


class TestWeightedSolver:
    @pytest.mark.parametrize("lam", [0.0, 1e-5])
    @pytest.mark.parametrize("case", sorted(REUSE_CASES))
    def test_reused_solver_matches_fresh_solves_bit_for_bit(self, case, lam):
        space, B, w, f = REUSE_CASES[case]()
        P = assemble_thin_plate(space) if lam > 0 else None
        solve = weighted_solver(B, P, lam)
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = w * rng.uniform(0.5, 2.0, w.size)
            fresh = solve_penalized_wls(B, w, f, P, lam) if lam > 0 else solve_wls(B, w, f)
            c = solve(w, f)
            assert c.shape == fresh.shape
            assert c.tobytes() == fresh.tobytes()

    def test_rank_and_overflow_raise_on_every_call(self):
        rank_deficient = weighted_solver(np.ones((5, 2)))
        for _ in range(2):
            with pytest.raises(RankDeficiencyError, match="numerical rank 1 < 2"):
                rank_deficient(np.ones(5), np.arange(5.0))

        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.5]))
        B = space.basis_matrix(np.linspace(0.0, 1.0, 12))
        solve = weighted_solver(B)
        f = np.cos(np.arange(12.0))
        before = solve(np.ones(12), f)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(2):
                with pytest.raises(NumericError, match="non-finite|not finite"):
                    solve(np.full(12, 4.0), np.full(12, 1e308))
        assert solve(np.ones(12), f).tobytes() == before.tobytes()

    def test_underdetermined_matrix_is_refused_at_set_up(self):
        with pytest.raises(RankDeficiencyError, match="underdetermined"):
            weighted_solver(np.ones((2, 3)))

    @pytest.mark.parametrize("lam", [0.0, 1e-5])
    @pytest.mark.parametrize(
        "where, bad, message",
        [
            ("w", np.nan, "weights must be finite, got nan in row 3"),
            ("w", np.inf, "weights must be finite, got inf in row 3"),
            ("f", np.nan, "values must be finite, got nan in row 3"),
            ("f", -np.inf, "values must be finite, got -inf in row 3"),
        ],
    )
    def test_non_finite_input_is_a_value_error(self, where, bad, message, lam):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.5]))
        B = space.basis_matrix(np.linspace(0.0, 1.0, 12))
        data = {"w": np.ones(12), "f": np.sin(np.arange(12.0))}
        data[where][3] = bad
        solve = weighted_solver(B, assemble_thin_plate(space), lam)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                solve(data["w"], data["f"])
        with pytest.raises(ValueError, match=message):
            solve_penalized_wls(B, data["w"], data["f"], assemble_thin_plate(space), lam)

    def test_non_finite_value_in_a_later_column_names_its_row(self):
        B = SplineSpace(make_open_knot_vector((0.0, 1.0), 1, [])).basis_matrix(
            np.linspace(0.0, 1.0, 6))
        F = np.ones((6, 3))
        F[4, 2] = np.nan
        with pytest.raises(ValueError, match="values must be finite, got nan in row 4"):
            solve_wls(B, np.ones(6), F)

    def test_reused_rank_guard_runs_under_python_O(self):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from splinefit import RankDeficiencyError, weighted_solver\n"
            "assert False, 'asserts are live'\n"
            "solve = weighted_solver(np.ones((5, 2)))\n"
            "raised = 0\n"
            "for _ in range(2):\n"
            "    try:\n"
            "        solve(np.ones(5), np.arange(5.0))\n"
            "    except RankDeficiencyError:\n"
            "        raised += 1\n"
            "print('raised', raised)\n"
        )
        src = Path(splinefit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "raised 2" in proc.stdout


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
