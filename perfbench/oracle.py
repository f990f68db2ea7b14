"""Independent B-spline evaluation used to check the program's outputs.

Nothing here imports ``splinefit``: basis rows come from
``scipy.interpolate.BSpline.design_matrix``, first derivatives from the
standard degree-lowering identity, hierarchical models from per-level
tensor rows restricted to the active columns stored in the model JSON, and
refined knot vectors from midpoint insertion. The reference surface and
curve are written out here as well, so a fault in the program's own
generators cannot hide a fault in its fit.
"""

from __future__ import annotations

import json

import numpy as np

# Sites per block of rows in Model.evaluate, so the checker's dense rows stay
# far below the program's own memory use.
CHUNK = 256


def three_peaks(x, y):
    """Sum of three conical exponential spikes of height 2/3 on [-1, 1]^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    for cx, cy in ((0.3, 0.3), (-0.3, -0.3), (0.0, 0.0)):
        out += np.exp(-np.hypot(10.0 * x - 10.0 * cx, 10.0 * y - 10.0 * cy))
    return (2.0 / 3.0) * out


def curve_1(x):
    """Rectified modulated sine with corners at x = 1/3 and 2/3."""
    x = np.asarray(x, dtype=float)
    return np.abs(9.0 * np.sin(3.0 * np.pi * x) / (np.tanh(1.0 - 1.5 * x) + 1.0))


def basis_rows(t, degree: int, x, deriv: int = 0) -> np.ndarray:
    """Dense ``(len(x), len(t) - degree - 1)`` matrix of basis values or first derivatives.

    The derivative uses ``N'_{j,d} = d N_{j,d-1} / (t_{j+d} - t_j)
    - d N_{j+1,d-1} / (t_{j+d+1} - t_{j+1})`` with ``0/0 = 0``, the lower
    degree rows taken on the knot vector without its end knots. For the
    clamped knot vectors used here the two dropped lower-degree functions
    vanish on the domain.
    """
    # Imported here, not at module level: set-up imports this module for the
    # reference formulas, and the program never imports scipy.interpolate.
    from scipy.interpolate import BSpline

    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if deriv == 0:
        return BSpline.design_matrix(x, t, degree).toarray()
    if deriv != 1 or degree < 1:
        raise ValueError("only first derivatives of degree >= 1 are supported")
    if not (np.all(t[: degree + 1] == t[0]) and np.all(t[-degree - 1 :] == t[-1])):
        raise ValueError("derivative rows need a clamped knot vector")
    n = t.size - degree - 1
    lower = np.zeros((x.size, n + 1))
    lower[:, 1:n] = BSpline.design_matrix(x, t[1:-1], degree - 1).toarray()
    left = t[degree : degree + n] - t[:n]
    right = t[degree + 1 : degree + 1 + n] - t[1 : n + 1]
    lscale = np.divide(degree, left, out=np.zeros(n), where=left > 0)
    rscale = np.divide(degree, right, out=np.zeros(n), where=right > 0)
    return lower[:, :n] * lscale - lower[:, 1:] * rscale


def midpoint_refine(t) -> np.ndarray:
    """Knot vector with the midpoint of every nonempty knot span inserted once."""
    t = np.asarray(t, dtype=float)
    u = np.unique(t)
    return np.sort(np.concatenate([t, 0.5 * (u[:-1] + u[1:])]))


class Model:
    """A model JSON document evaluated without the program."""

    def __init__(self, doc: dict):
        self.kind = doc["kind"]
        self.degrees = [int(d) for d in doc["degree"]]
        self.coefficients = np.asarray(doc["coefficients"], dtype=float)
        base = [np.asarray(t, dtype=float) for t in doc["knots"]]
        if self.kind == "tensor":
            self.level_knots = [base]
            dims = [t.size - d - 1 for t, d in zip(base, self.degrees)]
            self.active = [np.arange(int(np.prod(dims)))]
        elif self.kind == "hierarchical":
            self.level_knots = [base]
            for _ in range(1, int(doc["levels"])):
                self.level_knots.append([midpoint_refine(t) for t in self.level_knots[-1]])
            self.active = [np.asarray(a, dtype=np.intp) for a in doc["active"]]
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if sum(a.size for a in self.active) != self.coefficients.shape[0]:
            raise ValueError("coefficient rows do not match the active functions")

    @classmethod
    def load(cls, path) -> "Model":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    @property
    def domain(self):
        return [(t[d], t[-d - 1]) for t, d in zip(self.level_knots[0], self.degrees)]

    def collocation(self, sites, alpha=None) -> np.ndarray:
        """Rows of the active basis (or its partial derivative ``alpha``) at the sites."""
        sites = np.asarray(sites, dtype=float)
        if sites.ndim == 1:
            sites = sites[:, None]
        ndim = len(self.degrees)
        alpha = (0,) * ndim if alpha is None else tuple(alpha)
        blocks = []
        for knots, act in zip(self.level_knots, self.active):
            axes = [
                basis_rows(t, d, sites[:, i], a)
                for i, (t, d, a) in enumerate(zip(knots, self.degrees, alpha))
            ]
            rows = np.ones((sites.shape[0], act.size))
            rest = act
            for axis in range(ndim - 1, -1, -1):
                width = axes[axis].shape[1]
                rows *= axes[axis][:, rest % width]
                rest = rest // width
            blocks.append(rows)
        return np.hstack(blocks)

    def evaluate(self, sites, alpha=None) -> np.ndarray:
        sites = np.asarray(sites, dtype=float)
        return np.concatenate([
            self.collocation(sites[i : i + CHUNK], alpha) @ self.coefficients
            for i in range(0, sites.shape[0], CHUNK)
        ])
