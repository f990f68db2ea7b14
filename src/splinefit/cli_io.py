"""Batch CLI and file formats.

Point clouds travel as UTF-8 CSV whose header is exactly ``x1..xN, f1..fD``
then the optional ``w`` and ``marker`` columns (``#`` for comment lines);
fitted models as UTF-8 JSON, either tensor-product or hierarchical. Each
layout is defined once: the cloud header by ``_cloud_header``, the report
columns by the fields of :class:`~splinefit.fitting.IterationRecord`. Four
subcommands cover the workflow:

``verify``
    Rebuild the weighted least-squares fit as a convex combination of
    subset interpolants and compare against numpy's dense least squares.
``fit``
    Reweighted least squares in a fixed curve space.
``fit-adaptive``
    Reweighted adaptive hierarchical surface fitting.
``sample``
    Evaluate a stored model (and optionally derivatives) on a grid.

Exit codes: 0 success, 1 configuration or verification failure (a penalty,
``RHO`` or ``DELTA`` that is not finite, a ``--mesh`` or ``--grid`` count of
0), 2 numeric failure (rank deficiency, subset cap, stagnation), 3 I/O or
format failure (a malformed or non-UTF-8 file, a reordered cloud header).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import operator
import re
import sys

import numpy as np

from .errors import (
    ModelFormatError,
    NumericError,
    PointCloudFormatError,
    RankDeficiencyError,
)
from .fitting import FitConfig, FitReport, IterationRecord, adaptive_rwls_fit, rwls_fit
from .hierarchical import HierarchicalSpace
from .interp_decomposition import decompose
from .spline_core import (
    KnotVector,
    SplineFunction,
    SplineSpace,
    WeightedPointCloud,
    averaging_knots,
    collocation_matrix,
    make_open_knot_vector,
    parameterize,
    uniform_interior,
)
# No command here solves through it; perfbench's tracer test reads ``cli_io.solve_wls``.
from .wls import solve_wls  # noqa: F401

__all__ = [
    "read_point_cloud",
    "write_point_cloud",
    "read_model",
    "write_model",
    "main",
]

_FMT = "%.17g"


def _write_csv(path, header, rows) -> None:
    """A CSV file: ``header`` by ``csv.writer``, then each row by one ``%`` with ``%.17g`` fields.

    These are ``csv.writer``'s bytes: no field needs quoting, and ``%.17g``
    prints an integer below 10**17 as ``str`` does.
    """
    line = ",".join([_FMT] * len(header)) + "\r\n"  # csv.writer's line terminator
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        handle.writelines([line % tuple(row) for row in rows])


# ----------------------------------------------------------------------
# Point-cloud CSV
# ----------------------------------------------------------------------


def _cloud_header(n: int, d: int, has_w: bool, has_marker: bool) -> list[str]:
    """The one point-cloud header: ``x1..xN, f1..fD`` then the optional ``w`` and ``marker``."""
    return ([f"x{i}" for i in range(1, n + 1)] + [f"f{i}" for i in range(1, d + 1)]
            + ["w"] * has_w + ["marker"] * has_marker)


def _parse_header(fields, path, lineno):
    """``(n, d, has_w, has_marker)`` of a header equal to :func:`_cloud_header` of them.

    Errors name the header's line ``lineno`` of ``path``.
    """
    fields = list(fields)
    where = f"{path}:{lineno}"
    tail = list(itertools.dropwhile(re.compile(r"[xf]\d+").fullmatch, fields))
    has_w = tail[:1] == ["w"]
    has_marker = tail[has_w:][:1] == ["marker"]
    if tail[has_w + has_marker :]:
        raise PointCloudFormatError(f"{where}: unexpected column {tail[has_w + has_marker]!r}")
    head = fields[: len(fields) - len(tail)]
    xs, fs = ([f for f in head if f[0] == axis] for axis in "xf")
    if not xs or not fs:
        raise PointCloudFormatError(f"{where}: need x1.. and f1.. columns")
    header = _cloud_header(len(xs), len(fs), has_w, has_marker)
    for names, want in ((xs, header[: len(xs)]), (fs, header[len(xs) : len(head)])):
        if names != want:
            raise PointCloudFormatError(
                f"{where}: {want[0][0]} columns must be {want[0]}..{want[-1]} in order")
    if fields != header:
        raise PointCloudFormatError(f"{where}: columns must be in the order {','.join(header)}")
    return len(xs), len(fs), has_w, has_marker


def read_point_cloud(path) -> WeightedPointCloud:
    """Parse a point-cloud CSV; malformed rows raise with their line number.

    numpy's ``loadtxt`` converts the data rows in one bulk pass. A file
    with anything that pass does not vouch for (a quote, a comment or
    whitespace-only line among the data, a field ``loadtxt`` cannot convert,
    a wrong field count, a non-finite number, a non-positive weight, a
    marker other than ``0``, ``1`` or ``2``) goes through the line-by-line
    reader instead, which gives the same cloud or names the offending
    ``path:line``, as it does for a field longer than the ``csv`` module's
    field size limit. A file that is not UTF-8 is a format error.
    """
    cloud = _read_bulk(_read_text(path, PointCloudFormatError), path)
    return cloud if cloud is not None else _read_lines(path)


def _read_text(path, error) -> str:
    """The text of a UTF-8 file, less a leading byte-order mark; other bytes raise ``error``."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def _read_bulk(text, path):
    """The cloud in ``text`` (universal newlines) if ``loadtxt`` reads every data row, else None."""
    if '"' in text:
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    h = next((i for i, line in enumerate(lines)
              if line and not line.split(",", 1)[0].lstrip().startswith("#")), None)
    if h is None:
        return None
    try:
        n, d, has_w, has_marker = _parse_header([f.strip() for f in lines[h].split(",")],
                                                path, h + 1)
    except PointCloudFormatError:
        return None
    width = n + d + has_w + has_marker
    rows = lines[h + 1 :]
    if not any(rows):  # loadtxt warns about input with no data
        return None
    # A marker is exactly 0, 1 or 2 once stripped, as the line reader takes it.
    marker = {width - 1: lambda field: ("0", "1", "2").index(field.strip())} if has_marker else None
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, converters=marker)
    except ValueError:
        return None
    numbers = table[:, : n + d + has_w]
    if (table.shape[1] != width or not np.all(np.isfinite(numbers))
            or (has_w and not np.all(numbers[:, -1] > 0))):
        return None
    return _cloud(
        path,
        numbers[:, :n],
        numbers[:, n : n + d],
        numbers[:, -1] if has_w else None,
        table[:, -1].astype(int) if has_marker else None,
    )


def _cloud(path, sites, values, weights, markers) -> WeightedPointCloud:
    try:
        return WeightedPointCloud(sites, values, weights, markers)
    except ValueError as exc:
        raise PointCloudFormatError(f"{path}: {exc}") from None


def _csv_rows(reader, path):
    """``reader``'s rows; a ``csv.Error`` (an over-long field) names its ``path:line``."""
    try:
        yield from reader
    except csv.Error as exc:
        raise PointCloudFormatError(f"{path}:{reader.line_num}: {exc}") from None


def _read_lines(path) -> WeightedPointCloud:
    """The line-by-line reader: the one path that names a malformed ``path:line``."""
    sites, values, weights, markers = [], [], [], []
    header = None
    n = d = 0
    has_w = has_marker = False
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        for row in _csv_rows(reader, path):
            lineno = reader.line_num  # a quoted field may span lines: name the last
            if not row or (row[0].lstrip().startswith("#")):
                continue
            fields = [f.strip() for f in row]
            if header is None:
                header = fields
                n, d, has_w, has_marker = _parse_header(fields, path, lineno)
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
    return _cloud(
        path,
        np.asarray(sites),
        np.asarray(values),
        np.asarray(weights) if has_w else None,
        np.asarray(markers, dtype=int) if has_marker else None,
    )


def write_point_cloud(path, cloud: WeightedPointCloud, weights: bool = True,
                      markers: bool = True) -> None:
    """Write a cloud in the CSV format accepted by :func:`read_point_cloud`."""
    numbers = np.hstack([cloud.sites, cloud.values] + [cloud.weights[:, None]] * weights
                        + [cloud.markers[:, None]] * markers)
    _write_csv(path, _cloud_header(cloud.ndim, cloud.dim_values, weights, markers),
               numbers.tolist())


# ----------------------------------------------------------------------
# Model JSON
# ----------------------------------------------------------------------


def write_model(path, fn: SplineFunction) -> None:
    """Serialize a fitted model; evaluation round-trips exactly."""
    space = fn.space
    hierarchical = isinstance(space, HierarchicalSpace)
    base = space.levels[0] if hierarchical else space
    if not isinstance(base, SplineSpace):
        raise ModelFormatError(f"cannot serialize space of type {type(space).__name__}")
    doc = {
        "kind": "hierarchical" if hierarchical else "tensor",
        "degree": list(base.degrees),
        "knots": [kv.knots.tolist() for kv in base.knot_vectors],
    }
    if hierarchical:
        doc["levels"] = space.num_levels
        doc["subdomains"] = [space.subdomain_cells(lev).tolist()
                             for lev in range(space.num_levels)]
        doc["active"] = [a.tolist() for a in space.active]
    doc["coefficients"] = fn.coefficients.tolist()
    try:
        text = json.dumps(doc, indent=1, allow_nan=False)
    except ValueError:
        raise NumericError(f"{path}: model has non-finite values, not written") from None
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _json_array(raw, kinds: str, ndim: int | None = None) -> np.ndarray:
    """A JSON array whose numbers are of the numpy kinds ``kinds`` (``"i"``, ``"if"``).

    Raises ``ValueError`` for ``null``, strings, booleans, fractions where
    integers belong, ragged nesting, a scalar where an array belongs, or
    ``NaN`` and infinities, which Python's ``json`` reads as numbers.
    """
    arr = np.asarray(raw)
    if (arr.dtype.kind not in kinds and arr.size) or (ndim is not None and arr.ndim != ndim):
        expected = "integers" if kinds == "i" else "numbers"
        raise ValueError(f"expected an array of {expected}, got {json.dumps(raw)[:40]}")
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise ValueError(f"expected finite numbers, got {json.dumps(raw)[:40]}")
    return arr


def read_model(path) -> SplineFunction:
    """Load a model written by :func:`write_model`."""
    try:
        doc = json.loads(_read_text(path, ModelFormatError))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON: {exc}") from None
    try:
        kind = doc["kind"]
        degrees = _json_array(doc["degree"], "i", 1).tolist()
        knots = [_json_array(t, "if", 1) for t in doc["knots"]]
        coefficients = _json_array(doc["coefficients"], "if").astype(float)
        cell_lists = [_json_array(c, "i", 1) for c in doc.get("subdomains", [])]
        levels = doc.get("levels")
        stored = [_json_array(a, "i", 1).tolist() for a in doc.get("active", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: missing or malformed field: {exc}") from None
    if len(knots) != len(degrees):
        raise ModelFormatError(f"{path}: one knot vector per degree required")
    if kind not in ("tensor", "hierarchical"):
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    if kind == "hierarchical" and not cell_lists:
        raise ModelFormatError(f"{path}: hierarchical model without subdomains")
    if kind == "hierarchical" and (type(levels) is not int or levels != len(cell_lists)):
        raise ModelFormatError(f"{path}: levels must be the integer {len(cell_lists)}, one per "
                               f"subdomain list, got {json.dumps(levels)[:40]}")
    # Knots, degrees, subdomains or coefficients no space accepts are a
    # malformed file, not a usage error.
    try:
        space = SplineSpace([KnotVector(t.astype(float), d) for t, d in zip(knots, degrees)])
        if kind == "hierarchical":
            cells = math.prod(space.cells)
            if not np.array_equal(cell_lists[0], np.arange(cells)):
                raise ValueError(f"the level-0 subdomain must list every cell 0..{cells - 1}")
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


def _write_report(path, report: FitReport) -> None:
    """One row per :class:`IterationRecord`, its fields as the columns."""
    names = [field.name for field in dataclasses.fields(IterationRecord)]
    # astuple would deep-copy every field
    _write_csv(path, names, map(operator.attrgetter(*names), report.records))


def _write_mesh_dump(path, space: HierarchicalSpace) -> None:
    rows = []
    for level, lo, hi in space.leaf_cell_boxes():
        bounds = np.stack([lo, hi], axis=-1).reshape(len(lo), 2 * space.ndim)
        rows += [[level] + row for row in bounds.tolist()]
    _write_csv(path, ["level"] + [f"x{i}_{end}" for i in range(1, space.ndim + 1)
                                  for end in ("lo", "hi")], rows)


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


def _parse_mesh(raw: str, ndim: int, option: str):
    parts = raw.lower().split("x")
    if len(parts) != ndim or not all(p.isdigit() and int(p) > 0 for p in parts):
        raise _UsageError(f"{option} must be {'x'.join(['N'] * ndim)} with every N >= 1, "
                          f"got {raw!r}")
    return [int(p) for p in parts]


def _sites_for(cloud: WeightedPointCloud, param: str) -> np.ndarray:
    if param == "given":
        return cloud.sites
    if cloud.ndim != 1:
        raise _UsageError("generated parameterizations apply to curve data (N = 1)")
    return parameterize(cloud.values, param)[:, None]


def _uniform_kv(x, degree: int, cells: int) -> KnotVector:
    """Clamped knots with ``cells`` equal spans over the range of the sites ``x``."""
    lo, hi = float(x.min()), float(x.max())
    return make_open_knot_vector((lo, hi), degree, uniform_interior((lo, hi), cells - 1))


def _build_curve_space(args, sites) -> SplineSpace:
    degree = args.degree[0]
    if args.knots == "uniform":
        if args.interior_knots is None:
            raise _UsageError("--knots uniform needs --interior-knots")
        kv = _uniform_kv(sites, degree, args.interior_knots + 1)
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


def _non_negative_ints(raw: str, most: int) -> list[int]:
    """An option value of one to ``most`` comma-separated non-negative integers."""
    try:
        values = [int(p) for p in raw.split(",")]
    except ValueError:
        values = []
    if not 0 < len(values) <= most or min(values) < 0:
        many = "one" if most == 1 else f"one to {most} comma-separated"
        raise argparse.ArgumentTypeError(
            f"must be {many} non-negative integer{'s' * (most > 1)}, got {raw!r}")
    return values


def _count(raw: str) -> int:
    """A non-negative integer option value such as ``--interior-knots``."""
    return _non_negative_ints(raw, 1)[0]


def _dense_lstsq(space, cloud: WeightedPointCloud) -> np.ndarray:
    """``verify``'s reference: ``sqrt(W) B c = sqrt(W) f`` by numpy's dense least squares.

    LAPACK ``gelsd`` on the dense collocation matrix, independent of the
    banded QR in :mod:`splinefit.wls` that every fit goes through. Raises
    :class:`RankDeficiencyError` when the numerical rank is below ``dim``.
    """
    root_w = np.sqrt(cloud.weights)[:, None]
    coefficients, _, rank, _ = np.linalg.lstsq(
        root_w * collocation_matrix(space, cloud.sites), root_w * cloud.values, rcond=None)
    if rank < space.dim:
        raise RankDeficiencyError(f"collocation matrix has numerical rank {rank} < {space.dim}")
    return coefficients


def cmd_verify(args) -> int:
    cloud = read_point_cloud(args.cloud)
    if cloud.ndim != 1:
        raise _UsageError("verify expects curve data (one x column)")
    if args.basis == "poly":
        space = SplineSpace(_uniform_kv(cloud.sites, args.degree[0], 1))
    else:
        space = _build_curve_space(args, cloud.sites)

    dec = decompose(space, cloud)
    direct = SplineFunction(space, _dense_lstsq(space, cloud))
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
        # fit-adaptive without --tol-i: ten times the refinement threshold
        kwargs["tol_i"] = 10 * args.eps
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


def _finish_fit(args, report: FitReport) -> int:
    """Write the ``--out`` model and the ``--report`` CSV of a fit, then print its summary."""
    if args.out:
        write_model(args.out, report.function)
    if args.report:
        _write_report(args.report, report)
    last = report.records[-1]
    print(
        f"iterations: {last.iteration}  dofs: {last.dofs}  "
        f"rmse: {last.rmse:.6e}  max: {last.max:.6e}  "
        f"termination: {report.termination}"
    )
    return 0


def cmd_fit(args) -> int:
    cloud = read_point_cloud(args.cloud)
    sites = _sites_for(cloud, args.param)
    cloud = WeightedPointCloud(sites, cloud.values, cloud.weights, cloud.markers)
    space = _build_curve_space(args, sites)
    config = _fit_config(args)
    return _finish_fit(args, rwls_fit(space, cloud, config))


def cmd_fit_adaptive(args) -> int:
    cloud = read_point_cloud(args.cloud)
    if cloud.ndim != 2:
        raise _UsageError("fit-adaptive expects surface data (two x columns)")
    degrees = args.degree if len(args.degree) == 2 else args.degree * 2
    cells = _parse_mesh(args.mesh, 2, "--mesh")
    base = SplineSpace([_uniform_kv(cloud.sites[:, axis], degrees[axis], cells[axis])
                        for axis in range(2)])
    config = _fit_config(args)
    report = adaptive_rwls_fit(base, cloud, config)
    if args.mesh_dump:
        _write_mesh_dump(args.mesh_dump, report.function.space)
    return _finish_fit(args, report)


def cmd_sample(args) -> int:
    if args.deriv < 0:
        raise _UsageError(f"--deriv must be non-negative, got {args.deriv}")
    fn = read_model(args.model)
    space = fn.space
    ndim = space.ndim
    counts = _parse_mesh(args.grid, ndim, "--grid")
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
    table = np.hstack([pts, fn.evaluate_many(pts, [(0,) * ndim] + deriv_alphas)])
    _write_csv(args.out, header, table.tolist())
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
    verify.add_argument("--degree", type=functools.partial(_non_negative_ints, most=1),
                        default=[2])
    verify.add_argument("--knots", default="uniform",
                        help="'uniform', 'averaging' or an explicit comma list")
    verify.add_argument("--interior-knots", type=_count, default=None)
    verify.set_defaults(func=cmd_verify)

    fit = sub.add_parser("fit", help="reweighted least-squares curve fit")
    fit.add_argument("--cloud", required=True)
    fit.add_argument("--degree", type=functools.partial(_non_negative_ints, most=1),
                     default=[3])
    fit.add_argument("--knots", default="uniform",
                     help="'uniform', 'averaging' or an explicit comma list")
    fit.add_argument("--interior-knots", type=_count, default=None)
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
    fita.add_argument("--degree", type=functools.partial(_non_negative_ints, most=2),
                      default=[3])
    fita.add_argument("--mesh", required=True, help="base mesh cells, e.g. 15x15")
    fita.add_argument("--eps", type=float, required=True)
    fita.add_argument("--tol-i", type=float, default=None)
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
