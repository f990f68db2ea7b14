"""The four workloads: seeded inputs, the command each operation runs, and its checks.

Each workload builds its inputs from ``--seed`` during set-up, through the
program's own generators and writers, and hands the program only files.
Every check recomputes what the output should be with :mod:`oracle`, which
does not import the program; no stored copy of an earlier output is used.

The seed perturbs the inputs without changing how much work an operation
does: sites move by at most 2% of their local spacing (so the refinement
pattern, the number of reweighting solves and the admissible subset count
stay put), and coefficients, values and weights are drawn afresh.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

# Largest site displacement as a share of the local site spacing.
JITTER = 0.02

# Three-peaks adaptive fit: the paper's headline experiment, shrunk from 100x100
# sites on a 15x15 mesh over 5 levels so one operation takes seconds, not tens,
# while collocation and thin-plate assembly keep their roughly even split.
SURFACE = {"full": dict(sites=72, mesh=8, levels=3), "small": dict(sites=24, mesh=4, levels=2)}
SURFACE_EPS, SURFACE_LAMBDA = 2e-3, 1e-6

# Test curve 1 in a fixed cubic space on averaging knots. With 200 functions on
# 2000 sites least squares already meets the marker tolerance within a factor
# of two; 100 functions on 6000 sites need 50 reweighting solves and end 30x
# below least squares on the markers.
CURVE = {"full": dict(sites=6000, functions=100, markers=30),
         "small": dict(sites=62, functions=41, markers=12)}
CURVE_TOL_I = 1e-5

# Stored hierarchical model sampled on a grid: cells whose centre lies within
# radius[l] of a peak are split at level l.
SAMPLE = {"full": dict(mesh=15, radii=(0.4, 0.22, 0.13, 0.07), grid=41),
          "small": dict(mesh=6, radii=(0.5, 0.3), grid=9)}
PEAKS = ((0.3, 0.3), (-0.3, -0.3), (0.0, 0.0))

# Subset decomposition: sites per knot span of a quadratic spline on [-5, 5].
# Fixed counts per span make the admissible subset count independent of the seed.
VERIFY = {"full": dict(per_span=(4, 4, 4, 3)), "small": dict(per_span=(3, 3, 3))}
VERIFY_DEGREE = 2

# Relative agreement demanded between the program and the oracle.
RTOL = 1e-10
# Slack on the program's own tolerance claims, which it tests in its own rounding.
CLAIM_SLACK = 1e-9


@dataclass
class Inputs:
    """Files and expectations of one workload instance."""

    argv: list[str]
    outputs: list[Path]
    expect: dict = field(default_factory=dict)


def _jittered_grid(n: int, rng) -> np.ndarray:
    g = np.linspace(-1.0, 1.0, n)
    h = g[1] - g[0]
    X, Y = np.meshgrid(g, g, indexing="ij")
    X[1:-1, :] += rng.uniform(-JITTER, JITTER, (n - 2, n)) * h
    Y[:, 1:-1] += rng.uniform(-JITTER, JITTER, (n, n - 2)) * h
    return np.column_stack([X.ravel(), Y.ravel()])


def _read_report(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [
            {k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)
        ]


def _summary(stdout: str) -> dict:
    """Fields of the ``iterations: ..  termination: ..`` line a fit prints."""
    words = stdout.split()
    return {words[i].rstrip(":"): words[i + 1] for i in range(0, len(words) - 1, 2)}


def _close(got: float, ref: float, rtol: float) -> bool:
    return abs(got - ref) <= rtol * max(abs(ref), 1e-300)


def _report_mismatch(row: dict, err: np.ndarray) -> list[str]:
    """The report's last-row max and rmse against the recomputed pointwise errors."""
    problems = []
    for name, ref in (("max", float(err.max())), ("rmse", float(np.sqrt(np.mean(err**2))))):
        if not _close(row[name], ref, RTOL):
            problems.append(f"report {name} {row[name]!r} != recomputed {ref!r}")
    return problems


# ----------------------------------------------------------------------
# surface-adaptive
# ----------------------------------------------------------------------


def prepare_surface(sf, cli_io, workdir: Path, seed: int, size: str) -> Inputs:
    cfg = SURFACE[size]
    rng = np.random.default_rng(seed)
    sites = _jittered_grid(cfg["sites"], rng)
    values = oracle.three_peaks(sites[:, 0], sites[:, 1])
    kv = sf.make_open_knot_vector((-1.0, 1.0), 3, sf.uniform_interior((-1.0, 1.0), cfg["mesh"] - 1))
    cloud = sf.WeightedPointCloud(sites, values)
    markers = np.zeros(cloud.m, dtype=int)
    markers[sf.init_markers_from_ls(sf.SplineSpace([kv, kv]), cloud, SURFACE_EPS)] = 1
    path = workdir / "surface.csv"
    cli_io.write_point_cloud(path, sf.WeightedPointCloud(sites, values, markers=markers),
                             weights=False)
    model, report = workdir / "surface.json", workdir / "surface_report.csv"
    argv = ["fit-adaptive", "--cloud", str(path), "--degree", "3",
            "--mesh", f"{cfg['mesh']}x{cfg['mesh']}", "--eps", repr(SURFACE_EPS),
            "--lambda", repr(SURFACE_LAMBDA), "--levels", str(cfg["levels"]),
            "--alpha", "fixed:1.25", "--out", str(model), "--report", str(report)]
    return Inputs(argv, [model, report],
                  dict(sites=sites, values=values, model=model, report=report,
                       levels=cfg["levels"]))


def check_surface(inputs: Inputs, rc: int, stdout: str):
    """Problems found in one adaptive fit, and its recomputed largest error."""
    e = inputs.expect
    if rc != 0:
        return [f"exit code {rc}"], None
    model = oracle.Model.load(e["model"])
    err = np.abs(model.evaluate(e["sites"])[:, 0] - oracle.three_peaks(*e["sites"].T))
    rows = _read_report(e["report"])
    problems = []
    if len(rows) != e["levels"]:
        problems.append(f"{len(rows)} report rows for {e['levels']} levels")
    maxes = [r["max"] for r in rows]
    if not all(b < a for a, b in zip(maxes, maxes[1:])):
        problems.append(f"level maxima do not fall strictly: {maxes}")
    problems += _report_mismatch(rows[-1], err)
    if int(rows[-1]["dofs"]) != model.coefficients.shape[0]:
        problems.append("report dofs disagree with the model")
    if _summary(stdout).get("iterations") != str(len(rows)):
        problems.append("printed iteration count disagrees with the report")
    return problems, float(err.max())


# ----------------------------------------------------------------------
# curve-rwls
# ----------------------------------------------------------------------


def _averaging_knots(sites, n: int, degree: int) -> np.ndarray:
    s = np.quantile(sites, np.linspace(0.0, 1.0, n)) if n < sites.size else sites
    interior = [s[j : j + degree].mean() for j in range(1, n - degree)]
    return np.concatenate([[s[0]] * (degree + 1), interior, [s[-1]] * (degree + 1)])


def prepare_curve(sf, cli_io, workdir: Path, seed: int, size: str) -> Inputs:
    cfg = CURVE[size]
    rng = np.random.default_rng(seed)
    m = cfg["sites"]
    sites = sf.feature_weighted_sites(m, (1.0 / 3.0, 2.0 / 3.0))
    gap = np.minimum(np.diff(sites)[:-1], np.diff(sites)[1:])
    sites[1:-1] += rng.uniform(-JITTER, JITTER, m - 2) * gap
    values = oracle.curve_1(sites)
    markers = np.zeros(m, dtype=int)
    markers[sf.top_gradient_markers(sites, values, cfg["markers"])] = 1
    path = workdir / "curve.csv"
    cli_io.write_point_cloud(path, sf.WeightedPointCloud(sites, values, markers=markers),
                             weights=False)
    model, report = workdir / "curve.json", workdir / "curve_report.csv"
    argv = ["fit", "--cloud", str(path), "--degree", "3", "--knots", "averaging",
            "--interior-knots", str(cfg["functions"] - 4), "--param", "given",
            "--tol-i", repr(CURVE_TOL_I), "--alpha", "fixed:1.25", "--max-iter", "100",
            "--out", str(model), "--report", str(report)]
    return Inputs(argv, [model, report],
                  dict(sites=sites, values=values, markers=np.flatnonzero(markers),
                       functions=cfg["functions"], model=model, report=report))


def _curve_ols_marker_max(e) -> float:
    """Largest marker error of an ordinary least-squares fit, computed once per input."""
    if "ols_marker_max" not in e:
        knots = _averaging_knots(e["sites"], e["functions"], 3)
        B = oracle.basis_rows(knots, 3, e["sites"])
        c = np.linalg.lstsq(B, e["values"], rcond=None)[0]
        e["ols_marker_max"] = float(np.abs(B @ c - e["values"])[e["markers"]].max())
    return e["ols_marker_max"]


def check_curve(inputs: Inputs, rc: int, stdout: str):
    e = inputs.expect
    if rc != 0:
        return [f"exit code {rc}"], None
    model = oracle.Model.load(e["model"])
    problems = []
    knots = _averaging_knots(e["sites"], e["functions"], 3)
    stored = model.level_knots[0][0]
    if stored.shape != knots.shape or not np.allclose(stored, knots, rtol=0, atol=1e-13):
        problems.append("model knots are not the averaging knots of the sites")
    err = np.abs(model.evaluate(e["sites"])[:, 0] - oracle.curve_1(e["sites"]))
    problems += _report_mismatch(_read_report(e["report"])[-1], err)
    marker_max = float(err[e["markers"]].max())
    if marker_max > CURVE_TOL_I * (1.0 + CLAIM_SLACK):
        problems.append(f"marker error {marker_max!r} above tol_i {CURVE_TOL_I}")
    ols = _curve_ols_marker_max(e)
    if not 10.0 * marker_max <= ols:
        problems.append(f"marker error {marker_max!r} not 10x below least squares {ols!r}")
    if _summary(stdout).get("termination") != "tolerance":
        problems.append("fit did not stop on the tolerance criterion")
    return problems, float(err.max())


# ----------------------------------------------------------------------
# sample-grid
# ----------------------------------------------------------------------


def _peak_cells(space, level: int, radius: float, parents) -> list[tuple[int, int]]:
    bx, by = (kv.breakpoints for kv in space.levels[level].knot_vectors)
    cx, cy = np.meshgrid(0.5 * (bx[:-1] + bx[1:]), 0.5 * (by[:-1] + by[1:]), indexing="ij")
    near = np.zeros(cx.shape, dtype=bool)
    for px, py in PEAKS:
        near |= (cx - px) ** 2 + (cy - py) ** 2 < radius**2
    near &= space.domains[level]
    cells = [(int(i), int(j)) for i, j in zip(*np.nonzero(near))]
    return [c for c in cells if parents is None or (c[0] // 2, c[1] // 2) in parents]


def prepare_sample(sf, cli_io, workdir: Path, seed: int, size: str) -> Inputs:
    cfg = SAMPLE[size]
    rng = np.random.default_rng(seed)
    kv = sf.make_open_knot_vector((-1.0, 1.0), 3, sf.uniform_interior((-1.0, 1.0), cfg["mesh"] - 1))
    base = sf.SplineSpace([kv, kv])
    marked, parents = {}, None
    space = sf.HierarchicalSpace.from_base(base)
    for level, radius in enumerate(cfg["radii"]):
        marked[level] = _peak_cells(space, level, radius, parents)
        space = sf.build_hierarchical(base, marked)
        parents = set(marked[level])
    fn = sf.SplineFunction(space, rng.standard_normal(space.dim))
    model, samples = workdir / "sampled.json", workdir / "samples.csv"
    cli_io.write_model(model, fn)
    n = cfg["grid"]
    argv = ["sample", "--model", str(model), "--grid", f"{n}x{n}", "--deriv", "1",
            "--out", str(samples)]
    return Inputs(argv, [samples], dict(model=model, samples=samples, grid=n))


def check_sample(inputs: Inputs, rc: int, stdout: str):
    e = inputs.expect
    if rc != 0:
        return [f"exit code {rc}"], None
    with open(e["samples"], encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    columns = {"x1": None, "x2": None, "v1": (0, 0), "d10_v1": (1, 0), "d01_v1": (0, 1)}
    if sorted(header) != sorted(columns):
        return [f"unexpected header {header}"], None
    table = np.loadtxt(e["samples"], delimiter=",", skiprows=1, ndmin=2)
    n = e["grid"]
    if table.shape != (n * n, len(columns)):
        return [f"{table.shape[0]} sample rows, expected {n * n}"], None
    model = oracle.Model.load(e["model"])
    axes = [np.linspace(lo, hi, n) for lo, hi in model.domain]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    problems = []
    if not np.array_equal(table[:, [header.index("x1"), header.index("x2")]], pts):
        problems.append("sample coordinates are not the requested grid")
    for name, alpha in columns.items():
        if alpha is None:
            continue
        ref = model.evaluate(pts, alpha)[:, 0]
        scale = max(1.0, float(np.abs(ref).max()))
        worst = float(np.abs(table[:, header.index(name)] - ref).max())
        if worst > RTOL * scale:
            problems.append(f"column {name} off by {worst:.3e} (scale {scale:.3g})")
    return problems, None


# ----------------------------------------------------------------------
# verify-subsets
# ----------------------------------------------------------------------


def _verify_knots(per_span, lo=-5.0, hi=5.0) -> np.ndarray:
    interior = np.linspace(lo, hi, len(per_span) + 1)[1:-1]
    d = VERIFY_DEGREE
    return np.concatenate([[lo] * (d + 1), interior, [hi] * (d + 1)])


def prepare_verify(sf, cli_io, workdir: Path, seed: int, size: str) -> Inputs:
    per_span = VERIFY[size]["per_span"]
    rng = np.random.default_rng(seed)
    edges = np.linspace(-5.0, 5.0, len(per_span) + 1)
    parts = []
    for i, (a, b, count) in enumerate(zip(edges[:-1], edges[1:], per_span)):
        width = b - a
        inner = rng.uniform(a + 0.05 * width, b - 0.05 * width, count)
        if i == 0:
            inner[0] = a
        if i == len(per_span) - 1:
            inner[-1] = b
        parts.append(np.sort(inner))
    sites = np.concatenate(parts)
    values = 2.0 * np.sin(0.6 * sites) + rng.normal(0.0, 0.3, sites.size)
    weights = rng.uniform(0.2, 1.0, sites.size)
    path = workdir / "verify.csv"
    cli_io.write_point_cloud(path, sf.WeightedPointCloud(sites, values, weights), markers=False)
    argv = ["verify", "--cloud", str(path), "--basis", "spline", "--degree", str(VERIFY_DEGREE),
            "--interior-knots", str(len(per_span) - 1)]
    return Inputs(argv, [], dict(sites=sites, knots=_verify_knots(per_span)))


def _admissible_count(e) -> int:
    """Nonsingular subset count by batched determinants, with the program's relative threshold."""
    if "admissible" not in e:
        B = oracle.basis_rows(e["knots"], VERIFY_DEGREE, e["sites"])
        m, n = B.shape
        BK = B[np.array(list(itertools.combinations(range(m), n)))]
        hadamard = np.prod(np.abs(BK).max(axis=2), axis=1)
        det = np.linalg.det(BK)
        e["admissible"] = int(np.sum((np.abs(det) > 1e-12 * hadamard) & (hadamard > 0)))
    return e["admissible"]


def check_verify(inputs: Inputs, rc: int, stdout: str):
    e = inputs.expect
    lines = stdout.strip().splitlines()
    if rc != 0 or not lines or lines[-1] != "PASS":
        return [f"exit code {rc}, last line {lines[-1] if lines else ''!r}"], None
    fields = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(":")
        fields[key] = rest.split()
    problems = []
    total, admissible = int(fields["subsets"][0]), int(fields["subsets"][2])
    m, n = e["sites"].size, e["knots"].size - VERIFY_DEGREE - 1
    if total != math.comb(m, n):
        problems.append(f"{total} subsets reported, C({m}, {n}) = {math.comb(m, n)}")
    ref_admissible = _admissible_count(e)
    if admissible != ref_admissible:
        problems.append(f"{admissible} admissible subsets reported, determinants give {ref_admissible}")
    residual = float(fields["cauchy-binet relative residual"][0])
    if not residual < 1e-9:
        problems.append(f"Cauchy-Binet residual {residual:.3e} not below 1e-9")
    return problems, None


WORKLOADS = {
    "surface-adaptive": (prepare_surface, check_surface),
    "curve-rwls": (prepare_curve, check_curve),
    "sample-grid": (prepare_sample, check_sample),
    "verify-subsets": (prepare_verify, check_verify),
}
