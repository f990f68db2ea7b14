"""Batch CLI and file formats.

Point clouds travel as CSV (``x1..xN, f1..fD`` plus optional ``w`` and
``marker`` columns, ``#`` for comment lines); fitted models as JSON, either
tensor-product or hierarchical. Four subcommands cover the workflow:

``verify``
    Rebuild the weighted least-squares fit as a convex combination of
    subset interpolants and compare against the direct solve.
``fit``
    Reweighted least squares in a fixed curve space.
``fit-adaptive``
    Reweighted adaptive hierarchical surface fitting.
``sample``
    Evaluate a stored model (and optionally derivatives) on a grid.

Exit codes: 0 success, 1 configuration or verification failure, 2 numeric
failure (rank deficiency, subset cap, stagnation), 3 I/O or format failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from .errors import (
    ModelFormatError,
    NumericError,
    PointCloudFormatError,
)
from .fitting import FitConfig, FitReport, adaptive_rwls_fit, rwls_fit
from .hierarchical import HierarchicalSpace
from .interp_decomposition import decompose
from .spline_core import (
    KnotVector,
    SplineFunction,
    SplineSpace,
    WeightedPointCloud,
    averaging_knots,
    make_open_knot_vector,
    parameterize,
    uniform_interior,
)
from .wls import solve_wls

__all__ = [
    "read_point_cloud",
    "write_point_cloud",
    "read_model",
    "write_model",
    "main",
]

_FMT = "%.17g"


def _fmt(value: float) -> str:
    return _FMT % value


# ----------------------------------------------------------------------
# Point-cloud CSV
# ----------------------------------------------------------------------


def _parse_header(fields, path):
    xs, fs = [], []
    rest = list(fields)
    pattern = re.compile(r"^([xf])(\d+)$")
    while rest:
        m = pattern.match(rest[0])
        if not m:
            break
        (xs if m.group(1) == "x" else fs).append(int(m.group(2)))
        rest.pop(0)
    has_w = bool(rest) and rest[0] == "w"
    if has_w:
        rest.pop(0)
    has_marker = bool(rest) and rest[0] == "marker"
    if has_marker:
        rest.pop(0)
    if rest:
        raise PointCloudFormatError(f"{path}:1: unexpected column {rest[0]!r}")
    n, d = len(xs), len(fs)
    if n == 0 or d == 0:
        raise PointCloudFormatError(f"{path}:1: need x1.. and f1.. columns")
    if sorted(xs) != list(range(1, n + 1)) or xs != sorted(xs):
        raise PointCloudFormatError(f"{path}:1: x columns must be x1..x{n} in order")
    if sorted(fs) != list(range(1, d + 1)) or fs != sorted(fs):
        raise PointCloudFormatError(f"{path}:1: f columns must be f1..f{d} in order")
    return n, d, has_w, has_marker


def read_point_cloud(path) -> WeightedPointCloud:
    """Parse a point-cloud CSV; malformed rows raise with their line number."""
    sites, values, weights, markers = [], [], [], []
    header = None
    n = d = 0
    has_w = has_marker = False
    with open(path, newline="", encoding="utf-8") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            fields = [f.strip() for f in row]
            if header is None:
                header = fields
                n, d, has_w, has_marker = _parse_header(fields, path)
                continue
            expected = n + d + has_w + has_marker
            if len(fields) != expected:
                raise PointCloudFormatError(
                    f"{path}:{lineno}: expected {expected} fields, got {len(fields)}"
                )
            try:
                numbers = [float(v) for v in fields[: n + d + has_w]]
            except ValueError as exc:
                raise PointCloudFormatError(f"{path}:{lineno}: {exc}") from None
            bad = [f for f, v in zip(fields, numbers) if not math.isfinite(v)]
            if bad:
                raise PointCloudFormatError(f"{path}:{lineno}: non-finite number {bad[0]!r}")
            sites.append(numbers[:n])
            values.append(numbers[n : n + d])
            if has_w:
                w = numbers[n + d]
                if not w > 0:
                    raise PointCloudFormatError(
                        f"{path}:{lineno}: weight must be positive, got {w!r}"
                    )
                weights.append(w)
            if has_marker:
                raw = fields[-1]
                if raw not in ("0", "1", "2"):
                    raise PointCloudFormatError(
                        f"{path}:{lineno}: marker must be 0, 1 or 2, got {raw!r}"
                    )
                markers.append(int(raw))
    if header is None or not sites:
        raise PointCloudFormatError(f"{path}:1: no data rows")
    try:
        return WeightedPointCloud(
            np.asarray(sites),
            np.asarray(values),
            np.asarray(weights) if has_w else None,
            np.asarray(markers, dtype=int) if has_marker else None,
        )
    except ValueError as exc:
        raise PointCloudFormatError(f"{path}: {exc}") from None


def write_point_cloud(path, cloud: WeightedPointCloud, weights: bool = True,
                      markers: bool = True) -> None:
    """Write a cloud in the CSV format accepted by :func:`read_point_cloud`."""
    n, d = cloud.ndim, cloud.dim_values
    header = [f"x{i + 1}" for i in range(n)] + [f"f{i + 1}" for i in range(d)]
    if weights:
        header.append("w")
    if markers:
        header.append("marker")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle)
        out.writerow(header)
        for i in range(cloud.m):
            row = [_fmt(v) for v in cloud.sites[i]] + [_fmt(v) for v in cloud.values[i]]
            if weights:
                row.append(_fmt(cloud.weights[i]))
            if markers:
                row.append(str(int(cloud.markers[i])))
            out.writerow(row)


# ----------------------------------------------------------------------
# Model JSON
# ----------------------------------------------------------------------


def write_model(path, fn: SplineFunction) -> None:
    """Serialize a fitted model; evaluation round-trips exactly."""
    space = fn.space
    if isinstance(space, HierarchicalSpace):
        base = space.levels[0]
        doc = {
            "kind": "hierarchical",
            "degree": list(base.degrees),
            "knots": [kv.knots.tolist() for kv in base.knot_vectors],
            "levels": space.num_levels,
            "subdomains": [
                space.subdomain_cells(lev).tolist() for lev in range(space.num_levels)
            ],
            "active": [a.tolist() for a in space.active],
            "coefficients": fn.coefficients.tolist(),
        }
    elif isinstance(space, SplineSpace):
        doc = {
            "kind": "tensor",
            "degree": list(space.degrees),
            "knots": [kv.knots.tolist() for kv in space.knot_vectors],
            "coefficients": fn.coefficients.tolist(),
        }
    else:
        raise ModelFormatError(f"cannot serialize space of type {type(space).__name__}")
    try:
        text = json.dumps(doc, indent=1, allow_nan=False)
    except ValueError:
        raise NumericError(f"{path}: model has non-finite values, not written") from None
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _json_array(raw, kinds: str, ndim: int | None = None) -> np.ndarray:
    """A JSON array whose numbers are of the numpy kinds ``kinds`` (``"i"``, ``"if"``).

    Raises ``ValueError`` for ``null``, strings, booleans, fractions where
    integers belong, ragged nesting or a scalar where an array belongs.
    """
    arr = np.asarray(raw)
    if (arr.dtype.kind not in kinds and arr.size) or (ndim is not None and arr.ndim != ndim):
        expected = "integers" if kinds == "i" else "numbers"
        raise ValueError(f"expected an array of {expected}, got {json.dumps(raw)[:40]}")
    return arr


def read_model(path) -> SplineFunction:
    """Load a model written by :func:`write_model`."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: invalid JSON: {exc}") from None
    try:
        kind = doc["kind"]
        degrees = _json_array(doc["degree"], "i", 1).tolist()
        knots = [_json_array(t, "if", 1) for t in doc["knots"]]
        coefficients = _json_array(doc["coefficients"], "if").astype(float)
        cell_lists = [_json_array(c, "i", 1) for c in doc.get("subdomains", [])]
        stored = [_json_array(a, "i", 1).tolist() for a in doc.get("active", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: missing or malformed field: {exc}") from None
    if len(knots) != len(degrees):
        raise ModelFormatError(f"{path}: one knot vector per degree required")
    if kind not in ("tensor", "hierarchical"):
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    if kind == "hierarchical" and not cell_lists:
        raise ModelFormatError(f"{path}: hierarchical model without subdomains")
    # Knots, degrees, subdomains or coefficients no space accepts are a
    # malformed file, not a usage error.
    try:
        space = SplineSpace([KnotVector(t.astype(float), d) for t, d in zip(knots, degrees)])
        if kind == "hierarchical":
            space = HierarchicalSpace.from_subdomains(space, cell_lists[1:])
        fn = SplineFunction(space, coefficients)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    if kind == "hierarchical" and stored != [a.tolist() for a in space.active]:
        raise ModelFormatError(
            f"{path}: stored active sets disagree with the subdomain selection"
        )
    return fn


# ----------------------------------------------------------------------
# Report and mesh-dump CSV
# ----------------------------------------------------------------------

_REPORT_COLUMNS = (
    "iteration",
    "dofs",
    "rmse",
    "max",
    "max_type_one",
    "max_not_type_two",
    "n_type_one",
    "n_type_two",
)


def _write_report(path, report: FitReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle)
        out.writerow(_REPORT_COLUMNS)
        for r in report.records:
            out.writerow(
                [
                    r.iteration,
                    r.dofs,
                    _fmt(r.rmse),
                    _fmt(r.max),
                    _fmt(r.max_type_one),
                    _fmt(r.max_not_type_two),
                    r.n_type_one,
                    r.n_type_two,
                ]
            )


def _write_mesh_dump(path, space: HierarchicalSpace) -> None:
    ndim = space.ndim
    header = ["level"]
    for i in range(ndim):
        header += [f"x{i + 1}_lo", f"x{i + 1}_hi"]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle)
        out.writerow(header)
        for cid, bounds in zip(space.leaf_cells(), space.leaf_cell_bounds()):
            out.writerow([cid.level] + [_fmt(v) for pair in bounds for v in pair])


# ----------------------------------------------------------------------
# Command-line interface
# ----------------------------------------------------------------------


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_alpha(raw: str):
    if raw == "error":
        return ("error_driven", None)
    for prefix, mode in (("fixed:", "fixed_factor"), ("irls:", "irls")):
        if raw.startswith(prefix):
            try:
                return (mode, float(raw[len(prefix):]))
            except ValueError:
                raise _UsageError(f"bad alpha parameter in {raw!r}") from None
    raise _UsageError(f"alpha must be 'error', 'fixed:RHO' or 'irls:DELTA', got {raw!r}")


def _parse_mesh(raw: str, ndim: int):
    parts = raw.lower().split("x")
    if len(parts) != ndim or not all(p.isdigit() for p in parts):
        raise _UsageError(f"mesh must be {'x'.join(['N'] * ndim)}, got {raw!r}")
    return [int(p) for p in parts]


def _sites_for(cloud: WeightedPointCloud, param: str) -> np.ndarray:
    if param == "given":
        return cloud.sites
    if cloud.ndim != 1:
        raise _UsageError("generated parameterizations apply to curve data (N = 1)")
    return parameterize(cloud.values, param)[:, None]


def _build_curve_space(args, sites) -> SplineSpace:
    degree = args.degree[0]
    lo, hi = float(sites.min()), float(sites.max())
    if args.knots == "uniform":
        if args.interior_knots is None:
            raise _UsageError("--knots uniform needs --interior-knots")
        kv = make_open_knot_vector(
            (lo, hi), degree, uniform_interior((lo, hi), args.interior_knots)
        )
    elif args.knots == "averaging":
        if args.interior_knots is None:
            raise _UsageError("--knots averaging needs --interior-knots")
        # The knots depend only on the set of sites, not on the row order.
        kv = averaging_knots(
            np.sort(sites.ravel()), args.interior_knots + degree + 1, degree
        )
    else:
        values = [float(v) for v in args.knots.split(",")]
        kv = KnotVector(np.asarray(values), degree)
    return SplineSpace(kv)


def _degree_list(raw: str) -> list[int]:
    try:
        return [int(p) for p in raw.split(",")]
    except ValueError:
        raise _UsageError(f"bad degree list {raw!r}") from None


def cmd_verify(args) -> int:
    cloud = read_point_cloud(args.cloud)
    if cloud.ndim != 1:
        raise _UsageError("verify expects curve data (one x column)")
    if args.basis == "poly":
        lo, hi = float(cloud.sites.min()), float(cloud.sites.max())
        space = SplineSpace(make_open_knot_vector((lo, hi), args.degree[0], []))
    else:
        space = _build_curve_space(args, cloud.sites)

    dec = decompose(space, cloud)
    B = space.basis_matrix(cloud.sites)
    direct = SplineFunction(space, solve_wls(B, cloud.weights, cloud.values))
    grid = np.linspace(space.domain[0][0], space.domain[0][1], 101)
    ref = direct.evaluate_many(grid)
    got = dec.to_function().evaluate_many(grid)
    worst = float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))
    cb = dec.cauchy_binet_residual()

    print(f"subsets: {len(dec.subsets)} total, {dec.num_admissible} admissible")
    print(f"max relative discrepancy vs direct solve: {worst:.3e}")
    print(f"cauchy-binet relative residual: {cb:.3e}")
    passed = worst < 1e-9
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def _fit_config(args) -> FitConfig:
    mode, param = _parse_alpha(args.alpha)
    kwargs = dict(tol_i=args.tol_i, tol_ii=args.tol_ii, lam=args.lam, alpha_mode=mode)
    if args.tol_i is None:
        # fit-adaptive without --tol-i: a multiple of the refinement threshold
        kwargs["tol_i"] = args.tol_i_ratio * args.eps
    if mode == "fixed_factor" and param is not None:
        kwargs["rho"] = param
    if mode == "irls" and param is not None:
        kwargs["delta"] = param
    if hasattr(args, "eps"):
        kwargs["eps"] = args.eps
    if hasattr(args, "max_iter"):
        kwargs["max_iter"] = args.max_iter
    if hasattr(args, "levels"):
        kwargs["max_levels"] = args.levels
    return FitConfig(**kwargs)


def _print_summary(report: FitReport) -> None:
    last = report.records[-1]
    print(
        f"iterations: {last.iteration}  dofs: {last.dofs}  "
        f"rmse: {last.rmse:.6e}  max: {last.max:.6e}  "
        f"termination: {report.termination}"
    )


def cmd_fit(args) -> int:
    cloud = read_point_cloud(args.cloud)
    sites = _sites_for(cloud, args.param)
    cloud = WeightedPointCloud(sites, cloud.values, cloud.weights, cloud.markers)
    space = _build_curve_space(args, sites)
    config = _fit_config(args)
    report = rwls_fit(space, cloud, config)
    if args.out:
        write_model(args.out, report.function)
    if args.report:
        _write_report(args.report, report)
    _print_summary(report)
    return 0


def cmd_fit_adaptive(args) -> int:
    cloud = read_point_cloud(args.cloud)
    if cloud.ndim != 2:
        raise _UsageError("fit-adaptive expects surface data (two x columns)")
    degrees = args.degree if len(args.degree) == 2 else args.degree * 2
    cells = _parse_mesh(args.mesh, 2)
    kvs = []
    for axis in range(2):
        lo = float(cloud.sites[:, axis].min())
        hi = float(cloud.sites[:, axis].max())
        kvs.append(
            make_open_knot_vector(
                (lo, hi), degrees[axis], uniform_interior((lo, hi), cells[axis] - 1)
            )
        )
    base = SplineSpace(kvs)
    config = _fit_config(args)
    report = adaptive_rwls_fit(base, cloud, config)
    if args.out:
        write_model(args.out, report.function)
    if args.report:
        _write_report(args.report, report)
    if args.mesh_dump:
        _write_mesh_dump(args.mesh_dump, report.function.space)
    _print_summary(report)
    return 0


def cmd_sample(args) -> int:
    if args.deriv < 0:
        raise _UsageError(f"--deriv must be non-negative, got {args.deriv}")
    fn = read_model(args.model)
    space = fn.space
    ndim = space.ndim
    counts = _parse_mesh(args.grid, ndim)
    axes = [
        np.linspace(space.domain[i][0], space.domain[i][1], counts[i])
        for i in range(ndim)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)

    deriv_alphas = []
    if args.deriv:
        for alpha in itertools.product(range(args.deriv + 1), repeat=ndim):
            if sum(alpha) == args.deriv:
                deriv_alphas.append(alpha)

    d = fn.dim_values
    header = [f"x{i + 1}" for i in range(ndim)] + [f"v{k + 1}" for k in range(d)]
    for alpha in deriv_alphas:
        tag = "".join(str(a) for a in alpha)
        header += [f"d{tag}_v{k + 1}" for k in range(d)]
    table = np.hstack([pts, fn.evaluate_many(pts)]
                      + [fn.evaluate_many(pts, alpha) for alpha in deriv_alphas])
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle)
        out.writerow(header)
        out.writerows([_fmt(v) for v in row] for row in table.tolist())
    print(f"wrote {pts.shape[0]} samples to {args.out}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every :func:`main` call."""
    parser = _Parser(prog="splinefit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="check the interpolant decomposition")
    verify.add_argument("--cloud", required=True)
    verify.add_argument("--basis", choices=("poly", "spline"), default="poly")
    verify.add_argument("--degree", type=_degree_list, default=[2])
    verify.add_argument("--knots", default="uniform",
                        help="'uniform', 'averaging' or an explicit comma list")
    verify.add_argument("--interior-knots", type=int, default=None)
    verify.set_defaults(func=cmd_verify)

    fit = sub.add_parser("fit", help="reweighted least-squares curve fit")
    fit.add_argument("--cloud", required=True)
    fit.add_argument("--degree", type=_degree_list, default=[3])
    fit.add_argument("--knots", default="uniform",
                     help="'uniform', 'averaging' or an explicit comma list")
    fit.add_argument("--interior-knots", type=int, default=None)
    fit.add_argument("--param", choices=("uniform", "chord", "given"), default="given")
    fit.add_argument("--tol-i", type=float, default=1e-3)
    fit.add_argument("--tol-ii", type=float, default=float("inf"))
    fit.add_argument("--alpha", default="error")
    fit.add_argument("--max-iter", type=int, default=100)
    fit.add_argument("--lambda", dest="lam", type=float, default=0.0)
    fit.add_argument("--out", default=None)
    fit.add_argument("--report", default=None)
    fit.set_defaults(func=cmd_fit)

    fita = sub.add_parser("fit-adaptive", help="adaptive hierarchical surface fit")
    fita.add_argument("--cloud", required=True)
    fita.add_argument("--degree", type=_degree_list, default=[3])
    fita.add_argument("--mesh", required=True, help="base mesh cells, e.g. 15x15")
    fita.add_argument("--eps", type=float, required=True)
    fita.add_argument("--tol-i", type=float, default=None)
    fita.add_argument("--tol-i-ratio", type=float, default=10.0)
    fita.add_argument("--tol-ii", type=float, default=float("inf"))
    fita.add_argument("--alpha", default="fixed:1.25")
    fita.add_argument("--levels", type=int, default=5)
    fita.add_argument("--lambda", dest="lam", type=float, default=1e-6)
    fita.add_argument("--out", default=None)
    fita.add_argument("--report", default=None)
    fita.add_argument("--mesh-dump", default=None)
    fita.set_defaults(func=cmd_fit_adaptive)

    sample = sub.add_parser("sample", help="evaluate a stored model on a grid")
    sample.add_argument("--model", required=True)
    sample.add_argument("--grid", required=True, help="points per direction, e.g. 101 or 101x101")
    sample.add_argument("--deriv", type=int, default=0)
    sample.add_argument("--out", required=True)
    sample.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (PointCloudFormatError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, _UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
