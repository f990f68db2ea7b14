"""The batched basis kernel against a scalar reference, scipy, and basis properties."""

import numpy as np
import pytest
import scipy.interpolate
from hypothesis import given, settings
from hypothesis import strategies as st

from splinefit import (
    CellId,
    KnotVector,
    SplineSpace,
    build_hierarchical,
    collocation_hierarchical,
    collocation_matrix,
    make_open_knot_vector,
    uniform_interior,
)

# Largest disagreement with scipy's B-spline evaluation, in units of the
# spacing of doubles at the size of the row's largest entry. Both evaluate
# the same piecewise polynomials through different recurrences, so they
# agree to rounding, not bit for bit; the cases below reach 4 ulp for values
# and 8 for derivatives.
ULP_BOUND = 16


def scalar_ders(t, d, span, x, r):
    """Piegl & Tiller A2.3 at one site: the reference the kernel must match bit for bit."""
    ndu = np.empty((d + 1, d + 1))
    a = np.empty((2, d + 1))
    left = np.empty(d + 1)
    right = np.empty(d + 1)
    ndu[0, 0] = 1.0
    for j in range(1, d + 1):
        left[j] = x - t[span + 1 - j]
        right[j] = t[span + j] - x
        saved = 0.0
        for q in range(j):
            ndu[j, q] = right[q + 1] + left[j - q]
            tmp = ndu[q, j - 1] / ndu[j, q]
            ndu[q, j] = saved + right[q + 1] * tmp
            saved = left[j - q] * tmp
        ndu[j, j] = saved

    ders = np.zeros((r + 1, d + 1))
    ders[0, :] = ndu[:, d]
    for i in range(d + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for q in range(1, r + 1):
            dd = 0.0
            rk = i - q
            pk = d - q
            if i >= q:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                dd = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = q - 1 if i - 1 <= pk else d - i
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                dd += a[s2, j] * ndu[rk + j, pk]
            if i <= pk:
                a[s2, q] = -a[s1, q - 1] / ndu[pk + 1, i]
                dd += a[s2, q] * ndu[i, pk]
            ders[q, i] = dd
            s1, s2 = s2, s1

    factor = float(d)
    for q in range(1, r + 1):
        ders[q, :] *= factor
        factor *= d - q
    return ders


def knot_vectors(count, seed):
    """Degrees 0-5 cycled, every third unclamped; breakpoints on a 0.05 grid.

    Interior multiplicities are random up to the order.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        degree = i % 6
        k = degree + 1
        breakpoints = np.unique(rng.integers(1, 20, rng.integers(0, 7))) * 0.05
        interior = np.repeat(breakpoints, rng.integers(1, k + 1, breakpoints.size))
        if i % 3 == 2:
            ends = np.linspace(-0.5, 0.0, k), np.linspace(1.0, 1.5, k)
        else:
            ends = np.zeros(k), np.ones(k)
        yield rng, KnotVector(np.concatenate([ends[0], interior, ends[1]]), degree)


def probe_sites(rng, kv):
    """Random sites plus both domain ends and every breakpoint."""
    return np.concatenate(
        [rng.uniform(kv.start, kv.end, 40), [kv.start, kv.end], kv.breakpoints]
    )


def dense_rows(kv, x, q):
    """Kernel rows of derivative order ``q`` spread into an ``(m, dim)`` matrix."""
    first, ders = kv.basis_rows(x, q)
    out = np.zeros((x.size, kv.dim))
    np.put_along_axis(out, first[:, None] + np.arange(kv.order), ders[:, q], axis=1)
    return out


class TestAgainstScalarRecurrence:
    def test_bitwise_equal_for_every_order(self):
        for rng, kv in knot_vectors(60, seed=0):
            x = probe_sites(rng, kv)
            d = kv.degree
            for r in range(d + 1):
                first, ders = kv.basis_rows(x, r)
                for i, xi in enumerate(x):
                    span = int(np.searchsorted(kv.knots, xi, side="right")) - 1
                    span = min(max(span, d), kv.dim - 1)
                    ref = scalar_ders(kv.knots, d, span, xi, r)
                    assert first[i] == span - d
                    # Same bits, signs of zeros included.
                    assert ders[i].tobytes() == ref.tobytes(), (kv, r, xi)


class TestAgainstScipy:
    def test_values_match_design_matrix(self):
        for rng, kv in knot_vectors(60, seed=1):
            x = probe_sites(rng, kv)
            ref = scipy.interpolate.BSpline.design_matrix(x, kv.knots, kv.degree).toarray()
            assert np.all(np.abs(dense_rows(kv, x, 0) - ref) <= ULP_BOUND * np.spacing(1.0))

    def test_derivatives_match_bspline(self):
        for rng, kv in knot_vectors(60, seed=2):
            x = probe_sites(rng, kv)
            basis = scipy.interpolate.BSpline(kv.knots, np.eye(kv.dim), kv.degree)
            # scipy differentiates q times only where every interior knot
            # has multiplicity at most degree + 1 - q.
            mult = max((np.sum(kv.knots == b) for b in kv.breakpoints[1:-1]), default=1)
            for q in range(1, kv.degree + 2 - mult):
                ref = basis.derivative(q)(x)
                scale = np.spacing(np.abs(ref).max(axis=1, keepdims=True))
                assert np.all(np.abs(dense_rows(kv, x, q) - ref) <= ULP_BOUND * scale), (kv, q)


@st.composite
def clamped_knots_and_sites(draw):
    """Clamped knot vector of degree 0-5 with repeated interior knots, and sites on it."""
    degree = draw(st.integers(0, 5))
    k = degree + 1
    breakpoints = sorted(draw(st.lists(st.floats(0.01, 0.99), max_size=6, unique=True)))
    multiplicities = [draw(st.integers(1, k)) for _ in breakpoints]
    interior = np.repeat(breakpoints, multiplicities)
    kv = KnotVector(np.concatenate([np.zeros(k), interior, np.ones(k)]), degree)
    x = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    return kv, np.asarray(x + [0.0, 1.0] + breakpoints)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(clamped_knots_and_sites())
    def test_partition_of_unity_and_non_negativity(self, case):
        kv, x = case
        first, ders = kv.basis_rows(x)
        assert np.all(ders[:, 0] >= 0.0)
        np.testing.assert_allclose(ders[:, 0].sum(axis=1), 1.0, rtol=0, atol=1e-13)
        assert np.all((first >= 0) & (first + kv.order <= kv.dim))

    @settings(max_examples=150, deadline=None)
    @given(clamped_knots_and_sites())
    def test_right_endpoint_is_closed(self, case):
        kv, _ = case
        first, ders = kv.basis_rows(np.array([kv.end]), kv.degree)
        # The last function is one there (its limit from the left), not zero.
        assert first[0] + kv.order == kv.dim
        assert ders[0, 0, -1] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(ders[0, 0, :-1], 0.0, atol=1e-15)


class TestDomain:
    def test_outside_points_raise(self):
        kv = make_open_knot_vector((0.0, 1.0), 2, [0.5])
        for bad in (-0.1, 1.1, np.nan):
            with pytest.raises(ValueError, match="outside domain"):
                kv.basis_rows(np.array([0.5, bad]))

    def test_derivative_order_checked(self):
        kv = make_open_knot_vector((0.0, 1.0), 2, [0.5])
        with pytest.raises(ValueError, match="derivative order"):
            kv.basis_rows(np.array([0.5]), 3)


class TestHierarchicalColumns:
    def test_collocation_is_tensor_collocation_on_active_columns(self):
        kv = make_open_knot_vector((0.0, 1.0), 2, uniform_interior((0.0, 1.0), 5))
        base = SplineSpace([kv, kv])
        h = build_hierarchical(base, {0: [(1, 1), (1, 2), (4, 4)], 1: [(2, 3), (3, 3)]})
        h = h.refine([CellId(2, (5, 6))], buffer=True)
        assert h.num_levels == 4
        sites = np.random.default_rng(3).uniform(0.0, 1.0, (400, 2))
        expected = np.hstack(
            [collocation_matrix(space, sites)[:, act] for space, act in zip(h.levels, h.active)]
        )
        np.testing.assert_array_equal(collocation_hierarchical(h, sites), expected)
        sparse = collocation_hierarchical(h, sites, sparse=True)
        np.testing.assert_array_equal(sparse.toarray(), expected)
