"""Tests of the benchmark itself: each check rejects a corrupted output, and
each workload runs once at a small size, plain and traced.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sf, cli_io, _ = run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)


def fresh(name: str, tmp_path: Path, seed: int = 3):
    """Small inputs for one workload, one genuine operation, and its checker."""
    prepare, check = workloads.WORKLOADS[name]
    inputs = prepare(sf, cli_io, tmp_path, seed, "small")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_io.main(list(inputs.argv))
    return inputs, rc, buf.getvalue(), check


def edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def edit_lines(path: Path, change) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(change(lines)))


@pytest.mark.parametrize("name", WORKLOADS)
def test_genuine_output_passes(name, tmp_path):
    inputs, rc, out, check = fresh(name, tmp_path)
    assert rc == 0
    problems, _ = check(inputs, rc, out)
    assert problems == []


def test_failed_exit_code_is_rejected(tmp_path):
    inputs, _, out, check = fresh("curve-rwls", tmp_path)
    assert check(inputs, 2, out)[0]


@pytest.mark.parametrize("name", ["surface-adaptive", "curve-rwls"])
def test_fit_rejects_perturbed_coefficient(name, tmp_path):
    inputs, rc, out, check = fresh(name, tmp_path)

    def bump(doc):
        doc["coefficients"][len(doc["coefficients"]) // 2][0] += 1e-3

    edit_json(inputs.expect["model"], bump)
    assert check(inputs, rc, out)[0]


def test_surface_rejects_maxima_that_do_not_fall(tmp_path):
    inputs, rc, out, check = fresh("surface-adaptive", tmp_path)
    rows = workloads._read_report(inputs.expect["report"])
    first_max = repr(rows[0]["max"])

    def raise_last(lines):
        cells = lines[-1].split(",")
        cells[3] = first_max
        lines[-1] = ",".join(cells)
        return lines

    edit_lines(inputs.expect["report"], raise_last)
    assert any("fall" in p for p in check(inputs, rc, out)[0])


def test_surface_rejects_wrong_report_max(tmp_path):
    inputs, rc, out, check = fresh("surface-adaptive", tmp_path)

    def shrink_last(lines):
        cells = lines[-1].split(",")
        cells[3] = repr(float(cells[3]) * 0.5)
        lines[-1] = ",".join(cells)
        return lines

    edit_lines(inputs.expect["report"], shrink_last)
    assert any("recomputed" in p for p in check(inputs, rc, out)[0])


def test_curve_rejects_foreign_knots(tmp_path):
    inputs, rc, out, check = fresh("curve-rwls", tmp_path)

    def shift(doc):
        doc["knots"][0][6] += 1e-4

    edit_json(inputs.expect["model"], shift)
    assert any("knots" in p for p in check(inputs, rc, out)[0])


def test_curve_rejects_marker_error_above_tolerance(tmp_path):
    inputs, rc, out, check = fresh("curve-rwls", tmp_path)
    e = inputs.expect
    model = json.loads(e["model"].read_text())
    # Move the whole curve up: every error, the markers' included, exceeds tol_i.
    model["coefficients"] = [[c[0] + 1e-3] for c in model["coefficients"]]
    e["model"].write_text(json.dumps(model))
    assert any("tol_i" in p for p in check(inputs, rc, out)[0])


def test_curve_rejects_other_termination(tmp_path):
    inputs, rc, out, check = fresh("curve-rwls", tmp_path)
    assert check(inputs, rc, out.replace("tolerance", "max_iter"))[0]


def test_sample_rejects_dropped_row(tmp_path):
    inputs, rc, out, check = fresh("sample-grid", tmp_path)
    edit_lines(inputs.expect["samples"], lambda lines: lines[:-1])
    assert any("rows" in p for p in check(inputs, rc, out)[0])


@pytest.mark.parametrize("column", [2, 3, 4])
def test_sample_rejects_perturbed_value(tmp_path, column):
    inputs, rc, out, check = fresh("sample-grid", tmp_path)

    def bump(lines):
        cells = lines[5].rstrip("\r\n").split(",")
        cells[column] = repr(float(cells[column]) + 1e-6)
        lines[5] = ",".join(cells) + "\n"
        return lines

    edit_lines(inputs.expect["samples"], bump)
    assert check(inputs, rc, out)[0]


def test_sample_rejects_swapped_derivative_columns(tmp_path):
    inputs, rc, out, check = fresh("sample-grid", tmp_path)

    def swap(lines):
        header = lines[0].rstrip("\r\n").split(",")
        i, j = header.index("d10_v1"), header.index("d01_v1")
        for k in range(1, len(lines)):
            cells = lines[k].rstrip("\r\n").split(",")
            cells[i], cells[j] = cells[j], cells[i]
            lines[k] = ",".join(cells) + "\n"
        return lines

    edit_lines(inputs.expect["samples"], swap)
    assert check(inputs, rc, out)[0]


def test_verify_rejects_wrong_subset_count(tmp_path):
    inputs, rc, out, check = fresh("verify-subsets", tmp_path)
    total = out.split()[1]
    bad = out.replace(f"subsets: {total} total", f"subsets: {int(total) + 1} total")
    assert any("C(" in p for p in check(inputs, rc, bad)[0])


def test_verify_rejects_wrong_admissible_count(tmp_path):
    inputs, rc, out, check = fresh("verify-subsets", tmp_path)
    admissible = out.split()[3]
    bad = out.replace(f"{admissible} admissible", f"{int(admissible) - 1} admissible")
    assert any("determinants" in p for p in check(inputs, rc, bad)[0])


def test_verify_rejects_large_cauchy_binet_residual(tmp_path):
    inputs, rc, out, check = fresh("verify-subsets", tmp_path)
    lines = out.splitlines()
    lines[2] = "cauchy-binet relative residual: 1.000e-06"
    assert any("Cauchy-Binet" in p for p in check(inputs, rc, "\n".join(lines) + "\n")[0])


def test_verify_rejects_fail_verdict(tmp_path):
    inputs, rc, out, check = fresh("verify-subsets", tmp_path)
    assert check(inputs, rc, out.replace("PASS", "FAIL"))[0]
    assert check(inputs, 1, out)[0]


def test_tracer_patches_imported_names_and_restores_them():
    import splinefit.fitting as fitting
    import splinefit.wls as wls

    originals = (fitting.solve_wls, cli_io.solve_wls, wls.solve_wls, sf.SplineFunction.evaluate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fitting.solve_wls is cli_io.solve_wls is wls.solve_wls
        assert fitting.solve_wls is not originals[0]
    finally:
        tracer.uninstall()
    assert (fitting.solve_wls, cli_io.solve_wls, wls.solve_wls,
            sf.SplineFunction.evaluate) == originals


def test_self_times_subtract_children():
    spans = [
        tracing.Span("a", 0.0, 10.0, None, 0),
        tracing.Span("b", 1.0, 4.0, 0, 0),
        tracing.Span("c", 2.0, 3.0, 1, 0),
        tracing.Span("b", 5.0, 6.0, 0, 0),
    ]
    own = tracing.self_times(list(enumerate(spans)))
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert sum(own.values()) == 10.0


def test_oracle_leaves_scipy_interpolate_out_of_set_up():
    code = ("import sys; import oracle, workloads; "
            "sys.exit('scipy.interpolate' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE, timeout=120).returncode == 0


def last_json_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_small_run_plain_and_traced(name, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    base = ["--workload", name, "--seed", "2", "--seconds", "0", "--size", "small"]
    assert run.main(base + ["--trace", "0"]) == 0
    plain = last_json_line(capsys)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {"op_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    assert run.main(base + ["--trace", "1"]) == 0
    traced = last_json_line(capsys)
    assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] >= 2
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    self_s = [k for k in metrics if k.endswith("_s") and k.split(".")[0] != "trace"
              and k not in ("cli_io.import_s", "spline_core.setup_collocation_s")]
    total = sum(metrics[k] for k in self_s) + metrics["trace.remainder_s"]
    assert total == pytest.approx(metrics["trace.op_s"], rel=1e-9)
    # The surface set-up's least-squares markers go through collocation_matrix.
    assert (metrics["spline_core.setup_collocation_s"] > 0) == (name == "surface-adaptive")


def test_exits_nonzero_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-subsets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
