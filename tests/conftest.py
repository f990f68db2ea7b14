"""Shared fixtures: the worked 7-point data set and its two spaces."""

import numpy as np
import pytest
from hypothesis import settings

from splinefit import (
    SplineSpace,
    WeightedPointCloud,
    make_open_knot_vector,
)

# Property tests draw the same examples on every run and take as long as they need.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

# The univariate benchmark: seven observations fitted throughout the suite.
SEVEN_SITES = np.array([-4.5, -3.5, -2.2, -1.2, 0.8, 2.2, 4.0])
SEVEN_VALUES = np.array([-2.0, 0.0, -1.0, 2.8, 2.9, 0.5, -2.0])


@pytest.fixture
def seven_sites():
    return SEVEN_SITES.copy()


@pytest.fixture
def seven_values():
    return SEVEN_VALUES.copy()


@pytest.fixture
def quad_poly_space():
    """Quadratic polynomials on [-5, 5] as a single-span clamped space."""
    return SplineSpace(make_open_knot_vector((-5.0, 5.0), 2, []))


@pytest.fixture
def quad_spline_space():
    """Quadratic splines on the knot vector [-5,-5,-5,-5/3,5/3,5,5,5]."""
    return SplineSpace(make_open_knot_vector((-5.0, 5.0), 2, [-5.0 / 3.0, 5.0 / 3.0]))


@pytest.fixture
def seven_cloud(seven_sites, seven_values):
    rng = np.random.default_rng(1234)
    weights = rng.uniform(0.05, 1.0, seven_sites.size)
    return WeightedPointCloud(seven_sites, seven_values, weights)


def normal_equation_solve(B, weights, values):
    """Independent direct route: assemble and solve the normal equations."""
    B = np.asarray(B, dtype=float)
    w = np.asarray(weights, dtype=float)
    f = np.asarray(values, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    gram = B.T @ (B * w[:, None])
    rhs = B.T @ (f * w[:, None])
    return np.linalg.solve(gram, rhs)
