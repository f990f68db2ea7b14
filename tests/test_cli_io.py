"""File formats, CLI commands, exit codes."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import splinefit
from splinefit import (
    CellId,
    FitReport,
    HierarchicalSpace,
    IterationRecord,
    PointCloudFormatError,
    ModelFormatError,
    NumericError,
    RankDeficiencyError,
    SplineFunction,
    SplineSpace,
    WeightedPointCloud,
    averaging_knots,
    collocation_matrix,
    curve_point_cloud,
    decompose,
    make_open_knot_vector,
    solve_wls,
    top_gradient_markers,
    uniform_interior,
)
from splinefit.cli_io import (
    _read_bulk,
    _read_lines,
    _write_mesh_dump,
    _write_report,
    main,
    read_model,
    read_point_cloud,
    write_model,
    write_point_cloud,
)

from conftest import SEVEN_SITES, SEVEN_VALUES
from test_interp_decomposition import small_problems


@pytest.fixture
def seven_csv(tmp_path):
    rng = np.random.default_rng(11)
    cloud = WeightedPointCloud(SEVEN_SITES, SEVEN_VALUES, rng.uniform(0.05, 1.0, 7))
    path = tmp_path / "seven.csv"
    write_point_cloud(path, cloud, markers=False)
    return str(path)


class TestPointCloudFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        markers = np.array([0, 1, 2, 0, 1])
        cloud = WeightedPointCloud(
            rng.uniform(0, 1, (5, 2)),
            rng.normal(size=(5, 3)),
            rng.uniform(0.5, 2.0, 5),
            markers,
        )
        path = tmp_path / "cloud.csv"
        write_point_cloud(path, cloud)
        back = read_point_cloud(path)
        np.testing.assert_array_equal(back.sites, cloud.sites)
        np.testing.assert_array_equal(back.values, cloud.values)
        np.testing.assert_array_equal(back.weights, cloud.weights)
        np.testing.assert_array_equal(back.markers, markers)

    def test_comments_and_defaults(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# a comment\nx1,f1\n0.0,1.0\n# another\n1.0,2.0\n")
        cloud = read_point_cloud(path)
        assert cloud.m == 2
        np.testing.assert_array_equal(cloud.weights, [1.0, 1.0])
        np.testing.assert_array_equal(cloud.markers, [0, 0])

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,f1\n0.0,1.0\n0.5\n")
        with pytest.raises(PointCloudFormatError, match="bad.csv:3"):
            read_point_cloud(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,f1\nzero,1.0\n")
        with pytest.raises(PointCloudFormatError, match="bad.csv:2"):
            read_point_cloud(path)

    def test_nonpositive_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,f1,w\n0.0,1.0,0.0\n")
        with pytest.raises(PointCloudFormatError, match="positive"):
            read_point_cloud(path)

    def test_bad_marker_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,f1,marker\n0.0,1.0,5\n")
        with pytest.raises(PointCloudFormatError, match="marker"):
            read_point_cloud(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("x1,x3,f1", "x columns"),
            # Both once loaded with exit 0, the first with sites and values swapped.
            ("f1,x1", "bad.csv:1: columns must be in the order x1,f1$"),
            ("x1,f1,x2,f2", "bad.csv:1: columns must be in the order x1,x2,f1,f2$"),
            ("x1,f1,marker,w", "bad.csv:1: unexpected column 'w'"),
        ],
        ids=["x-gap", "f-first", "interleaved", "w-after-marker"],
    )
    def test_bad_header_rejected(self, tmp_path, capsys, header, message):
        """Only the header ``write_point_cloud`` writes is read; others exit 3 naming line 1."""
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n" + ",".join(["0.5"] * len(header.split(","))) + "\n")
        with pytest.raises(PointCloudFormatError, match=message):
            read_point_cloud(path)
        assert main(["fit", "--cloud", str(path), "--interior-knots", "1"]) == 3
        assert "bad.csv:1: " in capsys.readouterr().err

    @pytest.mark.parametrize("tail", ["", "\n0.7,2.0\n"], ids=["last-line", "inner-line"])
    def test_over_long_field_reports_line(self, tmp_path, capsys, tail):
        """A field past ``csv.field_size_limit()`` exits 3 naming its line, not a traceback."""
        path = tmp_path / "long.csv"
        path.write_text("x1,f1\n0.0,1.0\n0.5," + "1" * (csv.field_size_limit() + 1) + tail)
        assert main(["fit", "--cloud", str(path), "--interior-knots", "1"]) == 3
        assert f"error: {path}:3: field larger than field limit" in capsys.readouterr().err

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# nothing here\n")
        with pytest.raises(PointCloudFormatError, match="no data rows"):
            read_point_cloud(path)

    def test_non_finite_value_reports_line_and_writes_no_model(self, tmp_path, capsys):
        rows = [f"{x!r},{float(np.sin(3.0 * x))!r}" for x in np.linspace(0.0, 1.0, 30).tolist()]
        rows[7] = "0.25,nan"  # data row 8 is line 9, after the header
        path = tmp_path / "nan.csv"
        path.write_text("x1,f1\n" + "\n".join(rows) + "\n")
        model = tmp_path / "m.json"
        rc = main(["fit", "--cloud", str(path), "--degree", "3", "--knots", "uniform",
                   "--interior-knots", "4", "--out", str(model)])
        assert rc == 3
        assert "nan.csv:9" in capsys.readouterr().err
        assert not model.exists()


def _outcome(read, path):
    """What ``read(path)`` gives: the cloud's arrays, or the exception's type and message."""
    try:
        cloud = read(path)
    except Exception as exc:  # noqa: BLE001 - the comparison covers every outcome
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes())
            for a in (cloud.sites, cloud.values, cloud.weights, cloud.markers)]


# Fields that break a row in every way the line reader checks, and some it forgives.
_ODD_MARKERS = ["3", "-1", "1.0", "01", "+1", " 2 ", "1e0", "", "x"]
_ODD_FIELDS = _ODD_MARKERS + [" ", "nan", "inf", "-inf", "1e999", "0", "0.0", "-0", " 1",
                              "1 ", "1e", ".", "1.2.3", "1_0", "\u0661", '"1"', '"', "1#x",
                              "#", "\t2", "1\x00", "1e-400",
                              # Spellings where numpy's parser and Python's float could differ.
                              "\x0b1", "1\x0c", "\xa01", "Infinity", "1.", ".5"]
_HEADERS = ["x1,f1", "x1,f1,w", "x1,f1,marker", "x1,x2,f1,f2,w,marker", " x1 , f1 ,w",
            "x1,f1,w,marker", "x1,x2,x3,f1", "x1,f1,f2,marker", "x2,f1", "x1,f1,q", "f1,x1",
            "x1,f1,x2,f2"]
_EXTRA_LINES = ["", "   ", "# note", "  # indented, note", '# a, "quoted', '"#", quoted', '#,"open']
_NUMBERS = st.builds(lambda fmt, v: fmt % v, st.sampled_from(["%.17g", "%r", "%.3e", "%g"]),
                     st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _csv_texts(draw):
    """A point-cloud CSV with at most one flaw: an odd field or last field, a field too many
    or too few, or an extra line."""
    header = draw(st.sampled_from(_HEADERS))
    names = [f.strip() for f in header.split(",")]
    fields = {"marker": st.sampled_from(["0", "1", "2"]),
              "w": st.floats(1e-300, 1e300).map(repr)}
    rows = [[draw(fields.get(name, _NUMBERS)) for name in names]
            for _ in range(draw(st.integers(0, 6)))]
    flaw = draw(st.sampled_from(["none", "field", "marker", "count", "line"]))
    if flaw in ("field", "marker", "count") and rows:
        row = draw(st.sampled_from(rows))
        if flaw == "field":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_ODD_FIELDS))
        elif flaw == "marker":
            row[-1] = draw(st.sampled_from(_ODD_MARKERS))
        else:
            row[:] = row[:-1] if draw(st.booleans()) else row + ["0"]
    lines = [header] + [",".join(row) for row in rows]
    if flaw == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_EXTRA_LINES)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


class TestBulkPointCloudReader:
    @settings(max_examples=150)
    @given(text=_csv_texts())
    def test_bulk_reader_agrees_with_line_reader(self, text, tmp_path_factory):
        """The bulk pass vouches only for files the line reader reads the same."""
        path = tmp_path_factory.mktemp("fuzz") / "cloud.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(_read_lines, path)
        assert _outcome(read_point_cloud, path) == expected
        with open(path, encoding="utf-8") as handle:
            bulk = _read_bulk(handle.read(), path)
        if bulk is not None:
            assert _outcome(lambda _: bulk, path) == expected

    def test_every_odd_field_in_every_column(self, tmp_path):
        path = tmp_path / "cloud.csv"
        for column in range(4):
            for field in _ODD_FIELDS:
                rows = [["0.5", "-1.25", "2.0", "1"], ["0.75", "3.5", "0.5", "0"]]
                rows[1][column] = field
                path.write_text("x1,f1,w,marker\n" + "\n".join(map(",".join, rows)) + "\n")
                expected = _outcome(_read_lines, path)
                assert _outcome(read_point_cloud, path) == expected, (column, field)
                bulk = _read_bulk(path.read_text(), path)
                assert bulk is None or _outcome(lambda _: bulk, path) == expected, (column, field)

    @pytest.mark.parametrize("m", [40, 1300])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_plain_files_take_the_bulk_path(self, tmp_path, newline, m, monkeypatch):
        rng = np.random.default_rng(5)
        cloud = WeightedPointCloud(rng.normal(size=(m, 2)), rng.normal(size=(m, 3)),
                                   rng.uniform(0.1, 9.0, m), rng.integers(0, 3, m))
        path = tmp_path / "cloud.csv"
        write_point_cloud(path, cloud)
        lines = path.read_text().splitlines()
        text = newline.join(["# leading comment", "", lines[0]] + lines[1:] + [""])
        path.write_bytes(text.replace(",", " , ").encode())
        expected = _outcome(_read_lines, path)

        def refuse(path):
            raise AssertionError("line reader called")

        monkeypatch.setattr(splinefit.cli_io, "_read_lines", refuse)
        assert _outcome(read_point_cloud, path) == expected
        back = read_point_cloud(path)
        np.testing.assert_array_equal(back.values, cloud.values)
        np.testing.assert_array_equal(back.markers, cloud.markers)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.5,1.0#x", "bad.csv:3: could not convert"),
            ("0.5,1e999", "bad.csv:3: non-finite number '1e999'"),
            ('0.5,"1.0"', None),
            ("# 0.5,1.0", None),
        ],
    )
    def test_anomalies_go_through_the_line_reader(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,f1\n0.0,2.0\n{row}\n")
        with open(path, encoding="utf-8") as handle:
            assert _read_bulk(handle.read(), path) is None
        if message is None:
            assert _outcome(read_point_cloud, path) == _outcome(_read_lines, path)
        else:
            with pytest.raises(PointCloudFormatError, match=message):
                read_point_cloud(path)

    def test_line_numbers_count_the_lines_of_a_quoted_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('x1,f1\n"0.5\n",1\n0.7,x\n')
        with pytest.raises(PointCloudFormatError, match="bad.csv:4: could not convert"):
            read_point_cloud(path)


# Fields every reader refuses, by the column they stand in.
_REFUSED = {"number": ["x", "", " ", ".", "1e", "1.2.3", "0x1", "nan", "inf", "-inf", "1e999"],
            "w": ["0", "-1", "0.0", "-0", "1e-400", "x", "inf"],
            "marker": ["3", "-1", "1.0", "01", "+1", "1e0", "", "x"]}
_REFUSED_HEADERS = ["f1,x1", "x1,f1,q", "x2,f1", "x1", "f1", "x1,x1,f1", "x1,f1,marker,w",
                    "x1,f1,w,w", "x1,f2", "x 1,f1"]
# Unlike _NUMBERS, never rounded to inf by the format ("%.3e" of the largest floats).
_PLAIN_NUMBERS = st.builds(lambda fmt, v: fmt % v, st.sampled_from(["%.17g", "%r", "%.3e", "%g"]),
                           st.floats(-1e6, 1e6))


@st.composite
def _flawed_csv_texts(draw):
    """``(text, line)``: a point-cloud CSV with one flaw every reader refuses, on ``line``,
    behind harmless blank and comment lines anywhere."""
    n, d = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    names = ([f"x{i}" for i in range(1, n + 1)] + [f"f{i}" for i in range(1, d + 1)]
             + ["w"] * draw(st.booleans()) + ["marker"] * draw(st.booleans()))
    fields = {"w": st.floats(1e-300, 1e300).map(repr), "marker": st.sampled_from("012")}
    rows = [[draw(fields.get(name, _PLAIN_NUMBERS)) for name in names]
            for _ in range(draw(st.integers(1, 5)))]
    flaw = draw(st.sampled_from(["header", "field", "count"]))
    at = 0 if flaw == "header" else draw(st.integers(1, len(rows)))
    if flaw == "field":
        column = draw(st.integers(0, len(names) - 1))
        rows[at - 1][column] = draw(st.sampled_from(_REFUSED.get(names[column],
                                                                 _REFUSED["number"])))
    elif flaw == "count":
        rows[at - 1] = rows[at - 1][:-1] if draw(st.booleans()) else rows[at - 1] + ["0"]
    header = draw(st.sampled_from(_REFUSED_HEADERS)) if flaw == "header" else ",".join(names)
    lines = [header] + [",".join(row) for row in rows]
    harmless = st.sampled_from(["", "# note", "  # indented, note"])
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.integers(0, len(lines)))
        lines.insert(where, draw(harmless))
        at += where <= at
    lead = draw(st.lists(harmless, max_size=2))
    lines, at = lead + lines, at + len(lead)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), at + 1


class TestMalformedCloudThroughCli:
    @settings(max_examples=40)
    @given(case=_flawed_csv_texts(), command=st.sampled_from(
        [["fit", "--interior-knots", "1"], ["verify"],
         ["fit-adaptive", "--mesh", "2x2", "--eps", "1e-3"]]))
    def test_names_the_flawed_line_without_a_traceback(self, case, command, tmp_path_factory):
        text, line = case
        path = tmp_path_factory.mktemp("cli-fuzz") / "cloud.csv"
        path.write_bytes(text.encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([command[0], "--cloud", str(path), *command[1:]])
        assert rc == 3
        assert err.getvalue().startswith(f"error: {path}:{line}: ")
        assert "Traceback" not in err.getvalue()


class TestModelFormat:
    def test_tensor_roundtrip_evaluates_identically(self, tmp_path):
        space = SplineSpace(
            [
                make_open_knot_vector((0.0, 1.0), 3, [0.21, 0.5, 0.9]),
                make_open_knot_vector((-1.0, 2.0), 2, [0.4]),
            ]
        )
        rng = np.random.default_rng(1)
        fn = SplineFunction(space, rng.normal(size=(space.dim, 2)))
        path = tmp_path / "m.json"
        write_model(path, fn)
        back = read_model(path)
        for _ in range(1000):
            x = [rng.uniform(0, 1), rng.uniform(-1, 2)]
            np.testing.assert_allclose(back.evaluate(x), fn.evaluate(x), atol=1e-12)

    def test_hierarchical_roundtrip_evaluates_identically(self, tmp_path):
        kv = make_open_knot_vector((0.0, 1.0), 2, uniform_interior((0.0, 1.0), 3))
        base = SplineSpace([kv, kv])
        h = HierarchicalSpace.from_base(base).refine(
            [CellId(0, (0, 0)), CellId(0, (3, 3))], buffer=True
        )
        rng = np.random.default_rng(2)
        fn = SplineFunction(h, rng.normal(size=(h.dim, 1)))
        path = tmp_path / "h.json"
        write_model(path, fn)
        back = read_model(path)
        assert back.space.dim == h.dim
        for _ in range(1000):
            x = rng.uniform(0, 1, 2)
            np.testing.assert_allclose(back.evaluate(x), fn.evaluate(x), atol=1e-12)

    @settings(max_examples=25)
    @given(data=st.data())
    def test_random_hierarchical_models_roundtrip_bit_for_bit(self, data, tmp_path_factory):
        """Values and first derivatives of a read-back model equal the written one's exactly."""
        degree, cells = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 4))
        kv = make_open_knot_vector((-1.0, 2.0), degree, uniform_interior((-1.0, 2.0), cells - 1))
        h = HierarchicalSpace.from_base(SplineSpace([kv, kv]))
        for lev in range(data.draw(st.integers(1, 2))):
            inside = [CellId(lev, tuple(ix.tolist())) for ix in np.argwhere(h.domains[lev])]
            marked = data.draw(st.lists(st.sampled_from(inside), min_size=1, unique=True))
            h = h.refine(marked, buffer=data.draw(st.booleans()))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fn = SplineFunction(h, rng.normal(size=(h.dim, 2)))
        path = tmp_path_factory.mktemp("model") / "h.json"
        write_model(path, fn)
        back = read_model(path)
        sites = np.vstack([rng.uniform(-1.0, 2.0, (40, 2)), [[2.0, 2.0], [-1.0, 2.0]]])
        for alpha in (None, (1, 0), (0, 1)):
            np.testing.assert_array_equal(back.evaluate_many(sites, alpha),
                                          fn.evaluate_many(sites, alpha))

    def test_tampered_active_sets_rejected(self, tmp_path):
        kv = make_open_knot_vector((0.0, 1.0), 2, uniform_interior((0.0, 1.0), 3))
        base = SplineSpace([kv, kv])
        h = HierarchicalSpace.from_base(base).refine([CellId(0, (0, 0))], buffer=False)
        fn = SplineFunction(h, np.ones((h.dim, 1)))
        path = tmp_path / "h.json"
        write_model(path, fn)
        doc = json.loads(path.read_text())
        doc["active"][0] = doc["active"][0][1:]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="active"):
            read_model(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError, match="JSON"):
            read_model(path)

    def test_non_finite_coefficients_are_not_written(self, tmp_path):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.5]))
        coefficients = np.ones(space.dim)
        coefficients[1] = np.nan
        path = tmp_path / "m.json"
        with pytest.raises(NumericError, match="non-finite"):
            write_model(path, SplineFunction(space, coefficients))
        assert not path.exists()


class TestVerifyCommand:
    def test_polynomial_case(self, seven_csv, capsys):
        rc = main(["verify", "--cloud", seven_csv, "--basis", "poly", "--degree", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "35 total, 35 admissible" in out
        assert "PASS" in out

    def test_spline_case(self, seven_csv, capsys):
        rc = main(
            [
                "verify",
                "--cloud",
                seven_csv,
                "--basis",
                "spline",
                "--degree",
                "2",
                "--knots=-5,-5,-5,-1.6666666666666667,1.6666666666666667,5,5,5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "21 total, 20 admissible" in out
        assert "PASS" in out

    def test_square_data_trivial_pass(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text("x1,f1\n-4.0,1.0\n0.0,-1.0\n3.0,2.0\n")
        rc = main(["verify", "--cloud", str(path), "--basis", "poly", "--degree", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 total, 1 admissible" in out

    def test_cap_exceeded_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        sites = np.sort(rng.uniform(0, 1, 40))
        path = tmp_path / "big.csv"
        write_point_cloud(
            path, WeightedPointCloud(sites, np.sin(sites)), weights=False, markers=False
        )
        rc = main(
            ["verify", "--cloud", str(path), "--basis", "spline", "--degree", "2",
             "--interior-knots", "17"]
        )
        assert rc == 2

    def test_averaging_knots_are_used(self, tmp_path, capsys, monkeypatch):
        sites = np.sort(np.concatenate([np.linspace(0.0, 0.2, 9), [0.5, 0.8, 1.0]]))
        path = tmp_path / "clustered.csv"
        write_point_cloud(path, WeightedPointCloud(sites, np.cos(3.0 * sites)),
                          weights=False, markers=False)
        spaces = []

        def capture(space, cloud):
            spaces.append(space)
            return decompose(space, cloud)

        monkeypatch.setattr("splinefit.cli_io.decompose", capture)
        for knots in (["--knots", "averaging"], ["--knots", "uniform"], []):
            rc = main(["verify", "--cloud", str(path), "--basis", "spline", "--degree", "2",
                       "--interior-knots", "3", *knots])
            assert rc == 0, capsys.readouterr()
        averaging, uniform, default = (s.knot_vectors[0].knots for s in spaces)
        np.testing.assert_array_equal(averaging, averaging_knots(sites, 6, 2).knots)
        assert not np.array_equal(averaging, uniform)
        np.testing.assert_array_equal(default, uniform)


def verify_subsets_cloud(seed):
    """The 15-site input of the ``verify-subsets`` benchmark workload at ``seed``.

    4, 4, 4 and 3 sites inside the four spans of [-5, 5], the first site
    drawn moved to -5 and the last to 5, values ``2 sin(0.6 x)`` plus noise,
    and random weights.
    """
    rng = np.random.default_rng(seed)
    edges = np.linspace(-5.0, 5.0, 5)
    parts = [rng.uniform(a + 0.05 * (b - a), b - 0.05 * (b - a), count)
             for a, b, count in zip(edges[:-1], edges[1:], (4, 4, 4, 3))]
    parts[0][0], parts[-1][-1] = -5.0, 5.0
    sites = np.concatenate([np.sort(part) for part in parts])
    values = 2.0 * np.sin(0.6 * sites) + rng.normal(0.0, 0.3, sites.size)
    return WeightedPointCloud(sites, values, rng.uniform(0.2, 1.0, sites.size))


class TestVerifyReference:
    """``verify``'s dense least-squares reference agrees with the banded QR of ``solve_wls``."""

    @staticmethod
    def assert_agrees(space, cloud, reference, rtol=1e-12):
        direct = solve_wls(collocation_matrix(space, cloud.sites), cloud.weights, cloud.values)
        # Below the smallest normal number, floating point has no relative resolution.
        gap = np.abs(reference - direct).max()
        assert gap <= rtol * np.abs(direct).max() + np.finfo(float).tiny, gap

    def run_verify(self, monkeypatch, argv):
        """Run ``verify``: its output lines and the ``(space, cloud, coefficients)`` of its reference."""
        seen = []
        reference = splinefit.cli_io._dense_lstsq

        def spy(space, cloud):
            seen.append((space, cloud, reference(space, cloud)))
            return seen[-1][2]

        monkeypatch.setattr(splinefit.cli_io, "_dense_lstsq", spy)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        lines = out.getvalue().splitlines()
        assert lines[-1] == "PASS"
        (case,) = seen
        return lines, case

    @pytest.mark.parametrize("basis", [
        ["--basis", "poly"],
        ["--basis", "spline", "--knots=-5,-5,-5,-1.6666666666666667,1.6666666666666667,5,5,5"],
    ])
    def test_seven_sites(self, monkeypatch, seven_csv, basis):
        _, case = self.run_verify(
            monkeypatch, ["verify", "--cloud", seven_csv, "--degree", "2", *basis])
        self.assert_agrees(*case)

    @pytest.mark.parametrize("seed, residual", [(1, "0.000e+00"), (2, "7.007e-16"),
                                                (3, "4.635e-16")])
    def test_verify_subsets_problem(self, monkeypatch, tmp_path, seed, residual):
        """Agreement, and the lines the reference does not touch: counts, residual, verdict."""
        path = tmp_path / "verify.csv"
        write_point_cloud(path, verify_subsets_cloud(seed), markers=False)
        lines, (space, cloud, reference) = self.run_verify(
            monkeypatch, ["verify", "--cloud", str(path), "--basis", "spline", "--degree", "2",
                          "--interior-knots", "3"])
        assert (space.dim, cloud.m) == (6, 15)
        self.assert_agrees(space, cloud, reference)
        assert lines[0] == "subsets: 5005 total, 3380 admissible"
        assert lines[2:] == [f"cauchy-binet relative residual: {residual}", "PASS"]

    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_small_problems(self, problem):
        """1e-12 where the condition allows it, else the first-order bound of least squares.

        Both solvers are backward stable, so their coefficients may differ by
        ``eps (kappa + kappa^2 eta)`` relative, with ``kappa`` the condition of
        ``sqrt(W) B`` and ``eta = |r| / (|sqrt(W) B| |c|)`` the relative residual.
        """
        space, cloud = problem
        try:
            reference = splinefit.cli_io._dense_lstsq(space, cloud)
        except RankDeficiencyError:
            assume(False)
        A = np.sqrt(cloud.weights)[:, None] * collocation_matrix(space, cloud.sites)
        kappa = np.linalg.cond(A)
        residual = np.linalg.norm(np.sqrt(cloud.weights)[:, None] * cloud.values - A @ reference)
        scale = np.linalg.norm(A, 2) * np.linalg.norm(reference)
        eta = residual / scale if scale else 0.0
        self.assert_agrees(space, cloud, reference, max(1e-12, 1e-15 * (kappa + kappa**2 * eta)))

    def test_rank_deficiency_is_a_numeric_error(self):
        """Two distinct sites for three functions: numerical rank 2."""
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, []))
        cloud = WeightedPointCloud([0.0, 0.5, 0.5], [1.0, 2.0, 2.0])
        with pytest.raises(RankDeficiencyError, match="rank 2 < 3"):
            splinefit.cli_io._dense_lstsq(space, cloud)


class TestFitCommand:
    def test_fit_writes_model_and_report(self, tmp_path, capsys):
        cloud0 = curve_point_cloud(3)
        markers = top_gradient_markers(cloud0.sites, cloud0.values, 10)
        labels = np.zeros(cloud0.m, dtype=int)
        labels[markers] = 1
        cloud_path = tmp_path / "curve.csv"
        write_point_cloud(
            cloud_path,
            WeightedPointCloud(cloud0.sites, cloud0.values, markers=labels),
        )
        model = tmp_path / "model.json"
        report = tmp_path / "report.csv"
        rc = main(
            [
                "fit", "--cloud", str(cloud_path), "--degree", "3",
                "--knots", "averaging", "--interior-knots", "47",
                "--param", "given", "--tol-i", "1e-5",
                "--alpha", "fixed:1.25", "--max-iter", "100",
                "--out", str(model), "--report", str(report),
            ]
        )
        assert rc == 0
        assert "termination: tolerance" in capsys.readouterr().out
        with open(report, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "iteration", "dofs", "rmse", "max",
            "max_type_one", "max_not_type_two", "n_type_one", "n_type_two",
        ]
        assert len(rows) > 2
        fn = read_model(model)
        assert fn.space.dim == 51

    def test_no_markers_single_iteration(self, seven_csv, tmp_path, capsys):
        report = tmp_path / "r.csv"
        rc = main(
            ["fit", "--cloud", seven_csv, "--degree", "2",
             "--knots=-5,-5,-5,-1.6666666666666667,1.6666666666666667,5,5,5",
             "--param", "given", "--report", str(report)]
        )
        assert rc == 0
        assert "iterations: 1" in capsys.readouterr().out

    def test_uniform_parameterization_flow(self, tmp_path, capsys):
        # 2-D curve data parameterized internally
        t = np.linspace(0, 2 * np.pi, 40)
        pts = np.column_stack([np.cos(t), np.sin(t)])
        cloud_path = tmp_path / "circle.csv"
        write_point_cloud(
            cloud_path,
            WeightedPointCloud(np.zeros(40), pts),
            weights=False, markers=False,
        )
        model = tmp_path / "m.json"
        rc = main(
            ["fit", "--cloud", str(cloud_path), "--degree", "3",
             "--knots", "uniform", "--interior-knots", "10",
             "--param", "uniform", "--out", str(model)]
        )
        assert rc == 0
        fn = read_model(model)
        assert fn.dim_values == 2

    def test_chord_parameterization_flow(self, tmp_path):
        t = np.linspace(0, 1, 30) ** 2
        pts = np.column_stack([t, np.sin(3 * t)])
        cloud_path = tmp_path / "arc.csv"
        write_point_cloud(
            cloud_path,
            WeightedPointCloud(np.zeros(30), pts),
            weights=False, markers=False,
        )
        model = tmp_path / "m.json"
        rc = main(
            ["fit", "--cloud", str(cloud_path), "--degree", "2",
             "--knots", "averaging", "--interior-knots", "6",
             "--param", "chord", "--out", str(model)]
        )
        assert rc == 0
        assert read_model(model).space.dim == 9

    def test_report_is_byte_stable(self, tmp_path, seven_csv):
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for path in (r1, r2):
            rc = main(
                ["fit", "--cloud", seven_csv, "--degree", "2",
                 "--knots", "uniform", "--interior-knots", "2",
                 "--param", "given", "--report", str(path)]
            )
            assert rc == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_report_bytes(self, tmp_path):
        """The report layout, pinned: the benchmark's checks read these columns by name."""
        records = (IterationRecord(1, 10, 0.1, 1 / 3, 0.0, 2.5e-7, 3, 0),
                   IterationRecord(2, 13, 1e-300, 12.0, 0.25, 1e22, 2, 1))
        path = tmp_path / "r.csv"
        _write_report(path, FitReport(records, None, None, "tolerance"))
        assert path.read_bytes() == (
            b"iteration,dofs,rmse,max,max_type_one,max_not_type_two,n_type_one,n_type_two\r\n"
            b"1,10,0.10000000000000001,0.33333333333333331,0,2.4999999999999999e-07,3,0\r\n"
            b"2,13,1e-300,12,0.25,1e+22,2,1\r\n"
        )

    def test_averaging_knots_ignore_row_order(self, tmp_path, capsys):
        sites = np.linspace(0.0, 1.0, 11) ** 1.5
        shuffled = np.random.default_rng(5).permutation(11)
        models = []
        for name, order in (("sorted", np.arange(11)), ("shuffled", shuffled)):
            cloud_path = tmp_path / f"{name}.csv"
            write_point_cloud(
                cloud_path,
                WeightedPointCloud(sites[order], np.sin(3.0 * sites[order])),
                weights=False, markers=False,
            )
            model = tmp_path / f"{name}.json"
            knots = ["--degree", "2", "--knots", "averaging", "--interior-knots", "3"]
            rc = main(["fit", "--cloud", str(cloud_path), *knots, "--out", str(model)])
            assert rc == 0, capsys.readouterr().err
            rc = main(["verify", "--cloud", str(cloud_path), "--basis", "spline", *knots])
            assert rc == 0, capsys.readouterr().err
            models.append(read_model(model))
        ordered, unordered = models
        np.testing.assert_array_equal(
            unordered.space.knot_vectors[0].knots, ordered.space.knot_vectors[0].knots
        )
        np.testing.assert_allclose(
            unordered.coefficients, ordered.coefficients, rtol=1e-12, atol=1e-14
        )


class TestFitAdaptiveCommand:
    def test_small_surface_run(self, tmp_path, capsys):
        from splinefit import evaluate_3peaks

        g = np.linspace(-1, 1, 24)
        X, Y = np.meshgrid(g, g, indexing="ij")
        sites = np.column_stack([X.ravel(), Y.ravel()])
        cloud_path = tmp_path / "surf.csv"
        write_point_cloud(
            cloud_path,
            WeightedPointCloud(sites, evaluate_3peaks(sites[:, 0], sites[:, 1])),
            weights=False, markers=False,
        )
        model = tmp_path / "m.json"
        report = tmp_path / "r.csv"
        mesh = tmp_path / "mesh.csv"
        rc = main(
            ["fit-adaptive", "--cloud", str(cloud_path), "--degree", "3",
             "--mesh", "8x8", "--eps", "4e-2",
             "--alpha", "fixed:1.25", "--levels", "2", "--lambda", "1e-6",
             "--out", str(model), "--report", str(report), "--mesh-dump", str(mesh)]
        )
        assert rc == 0
        with open(mesh, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["level", "x1_lo", "x1_hi", "x2_lo", "x2_hi"]
        levels = {int(r[0]) for r in rows[1:]}
        assert 0 in levels and 1 in levels
        fn = read_model(model)
        assert fn.space.num_levels >= 2

    def test_e5_fit_runs_in_560_mib_of_address_space(self, tmp_path):
        """300x300 sites on a 60x60 bicubic mesh over 4 levels, end to end through the CLI.

        One BLAS thread. The fit peaked at 631 MiB of address space (``VmPeak``)
        while the dense thin-plate ``P`` stayed alive through each solve, and at
        491 MiB once the solver is handed its CSR copy.
        """
        cloud = tmp_path / "e5.csv"
        make = (
            "import sys\n"
            "import numpy as np\n"
            "import splinefit as sf\n"
            "from splinefit.cli_io import write_point_cloud\n"
            "g = np.linspace(-1.0, 1.0, 300)\n"
            "X, Y = np.meshgrid(g, g, indexing='ij')\n"
            "sites = np.column_stack([X.ravel(), Y.ravel()])\n"
            "f = sf.evaluate_3peaks(sites[:, 0], sites[:, 1])\n"
            "kv = sf.make_open_knot_vector((-1.0, 1.0), 3, sf.uniform_interior((-1.0, 1.0), 59))\n"
            "cloud = sf.WeightedPointCloud(sites, f)\n"
            "markers = np.zeros(cloud.m, dtype=int)\n"
            "markers[sf.init_markers_from_ls(sf.SplineSpace([kv, kv]), cloud, 1e-3)] = 1\n"
            "write_point_cloud(sys.argv[1], sf.WeightedPointCloud(sites, f, markers=markers),\n"
            "                  weights=False)\n"
        )
        src = Path(splinefit.__file__).resolve().parent.parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", make, str(cloud)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr

        def cap_address_space():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (560 << 20, 560 << 20))

        model, report = tmp_path / "m.json", tmp_path / "r.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "splinefit", "fit-adaptive", "--cloud", str(cloud),
             "--degree", "3", "--mesh", "60x60", "--lambda", "1e-6", "--eps", "1e-3",
             "--levels", "4", "--out", str(model), "--report", str(report)],
            env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(report, newline="") as handle:
            dofs = [int(row["dofs"]) for row in csv.DictReader(handle)]
        assert dofs == [3969, 4281, 4353, 4527]
        assert len(json.loads(model.read_text())["coefficients"]) == 4527

    def test_requires_surface_data(self, seven_csv):
        rc = main(
            ["fit-adaptive", "--cloud", seven_csv, "--degree", "3",
             "--mesh", "4x4", "--eps", "1e-3"]
        )
        assert rc == 1

    def test_mesh_dump_rows_are_the_leaf_cells(self, tmp_path):
        kv = make_open_knot_vector((-1.0, 2.0), 2, uniform_interior((-1.0, 2.0), 4))
        h = HierarchicalSpace.from_base(SplineSpace([kv, kv])).refine(
            [CellId(0, (1, 1)), CellId(0, (3, 2))], buffer=True
        )
        h = h.refine([CellId(1, (3, 3))], buffer=False)
        assert h.num_levels == 3
        path = tmp_path / "mesh.csv"
        _write_mesh_dump(path, h)
        lines = ["level,x1_lo,x1_hi,x2_lo,x2_hi"]
        for cid in h.leaf_cells():
            row = [str(cid.level)]
            for kv_l, i in zip(h.levels[cid.level].knot_vectors, cid.index):
                row += ["%.17g" % kv_l.breakpoints[i], "%.17g" % kv_l.breakpoints[i + 1]]
            lines.append(",".join(row))
        assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


class TestSampleCommand:
    def test_constant_model_constant_column(self, tmp_path, capsys):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.5]))
        fn = SplineFunction(space, np.full((space.dim, 1), 7.0))
        model = tmp_path / "m.json"
        write_model(model, fn)
        out = tmp_path / "s.csv"
        rc = main(["sample", "--model", str(model), "--grid", "9", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x1", "v1"]
        vals = np.array([float(r[1]) for r in rows[1:]])
        np.testing.assert_allclose(vals, 7.0, atol=1e-12)

    def test_samples_match_direct_evaluation(self, tmp_path):
        space = SplineSpace(make_open_knot_vector((-5.0, 5.0), 2, [-5 / 3, 5 / 3]))
        rng = np.random.default_rng(4)
        fn = SplineFunction(space, rng.normal(size=(5, 1)))
        model = tmp_path / "m.json"
        write_model(model, fn)
        out = tmp_path / "s.csv"
        rc = main(
            ["sample", "--model", str(model), "--grid", "101", "--deriv", "1",
             "--out", str(out)]
        )
        assert rc == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x1", "v1", "d1_v1"]
        for row in rows[1:]:
            x, v, dv = (float(c) for c in row)
            assert abs(fn.evaluate([x])[0] - v) < 1e-12
            assert abs(fn.evaluate_derivative([x], (1,))[0] - dv) < 1e-12

    def test_byte_stable_output(self, tmp_path):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.3]))
        fn = SplineFunction(space, np.linspace(0, 1, space.dim))
        model = tmp_path / "m.json"
        write_model(model, fn)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sample", "--model", str(model), "--grid", "33", "--out", str(out1)])
        main(["sample", "--model", str(model), "--grid", "33", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


def _sample_table(path):
    """Header and float rows of a ``sample`` CSV."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    return header, np.array(rows, dtype=float)


class TestSampleColumnsInOneCall:
    """``sample`` evaluates every derivative column in one ``evaluate_many`` call."""

    @staticmethod
    def _cubic_model(tmp_path, dim_values=1):
        kv = make_open_knot_vector((0.0, 1.0), 3, uniform_interior((0.0, 1.0), 3))
        h = HierarchicalSpace.from_base(SplineSpace([kv, kv])).refine(
            [CellId(0, (1, 1)), CellId(0, (3, 0))], buffer=True
        ).refine([CellId(1, (2, 2))], buffer=False)
        assert h.num_levels == 3
        fn = SplineFunction(h, np.random.default_rng(5).normal(size=(h.dim, dim_values)))
        model = tmp_path / "h.json"
        write_model(model, fn)
        return read_model(model), model

    def test_order_above_the_degree_is_refused_before_evaluation(self, tmp_path, capsys):
        _, model = self._cubic_model(tmp_path)
        out = tmp_path / "s.csv"
        rc = main(["sample", "--model", str(model), "--grid", "5x5", "--deriv", "4",
                   "--out", str(out)])
        assert rc == 1
        assert "derivative order 4 exceeds degree 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("deriv,dim_values", [(3, 1), (1, 2)])
    def test_columns_are_per_column_evaluation_bit_for_bit(self, tmp_path, deriv, dim_values):
        fn, model = self._cubic_model(tmp_path, dim_values)
        out = tmp_path / "s.csv"
        rc = main(["sample", "--model", str(model), "--grid", "7x6", "--deriv", str(deriv),
                   "--out", str(out)])
        assert rc == 0
        header, table = _sample_table(out)
        alphas = [(deriv - a, a) for a in range(deriv, -1, -1)]
        assert header[2 : 2 + dim_values] == [f"v{k + 1}" for k in range(dim_values)]
        assert header[-dim_values:] == [f"d{alphas[-1][0]}{alphas[-1][1]}_v{k + 1}"
                                        for k in range(dim_values)]
        pts = table[:, :2]
        expected = np.hstack([fn.evaluate_many(pts)]
                             + [fn.evaluate_many(pts, alpha) for alpha in alphas])
        assert table[:, 2:].tobytes() == expected.tobytes()

class TestParserReuse:
    def test_back_to_back_calls_see_only_their_own_defaults(
        self, tmp_path, seven_csv, monkeypatch
    ):
        """One parser serves every call; no flag or subcommand leaks into the next."""
        from splinefit import cli_io, evaluate_3peaks

        seen = []
        build_config = cli_io._fit_config

        def spy(args):
            seen.append(vars(args).copy())
            return build_config(args)

        monkeypatch.setattr(cli_io, "_fit_config", spy)
        g = np.linspace(-1, 1, 12)
        X, Y = np.meshgrid(g, g, indexing="ij")
        sites = np.column_stack([X.ravel(), Y.ravel()])
        surface = tmp_path / "surf.csv"
        write_point_cloud(
            surface, WeightedPointCloud(sites, evaluate_3peaks(sites[:, 0], sites[:, 1])),
            weights=False, markers=False,
        )
        curve = ["fit", "--cloud", seven_csv, "--knots", "uniform", "--interior-knots"]
        assert main([*curve, "2", "--degree", "2", "--tol-i", "0.5", "--alpha", "fixed:2",
                     "--max-iter", "3", "--lambda", "1e-3"]) == 0
        assert main(["fit-adaptive", "--cloud", str(surface), "--mesh", "4x4",
                     "--eps", "0.5", "--levels", "1"]) == 0
        assert main(["verify", "--cloud", seven_csv]) == 0
        assert main([*curve, "1"]) == 0

        flagged, adaptive, plain = seen
        assert (flagged["degree"], flagged["max_iter"], flagged["lam"]) == ([2], 3, 1e-3)
        assert (adaptive["lam"], adaptive["alpha"], adaptive["tol_i"]) == (1e-6, "fixed:1.25", None)
        assert adaptive["levels"] == 1
        assert plain["degree"] == [3] and plain["interior_knots"] == 1
        assert (plain["tol_i"], plain["alpha"], plain["max_iter"], plain["lam"]) == (
            1e-3, "error", 100, 0.0
        )
        assert not {"eps", "levels", "mesh", "basis"} & plain.keys()
        assert cli_io._build_parser() is cli_io._build_parser()


class TestSettingsHaveCallers:
    # Between them these command lines move every FitConfig field off its default.
    COMMAND_LINES = [
        ["fit", "--cloud", "c.csv", "--tol-i", "1e-5", "--tol-ii", "1e-2", "--lambda", "0.5",
         "--max-iter", "7", "--alpha", "fixed:2"],
        ["fit", "--cloud", "c.csv", "--alpha", "irls:1e-3"],
        ["fit-adaptive", "--cloud", "c.csv", "--mesh", "4x4", "--eps", "1e-2", "--levels", "2"],
    ]

    def test_every_fit_config_field_is_set_by_a_command_line(self):
        """A setting no ``fit`` or ``fit-adaptive`` command can change is a test-only switch."""
        from splinefit import FitConfig, cli_io

        default = FitConfig()
        moved = set()
        for argv in self.COMMAND_LINES:
            config = cli_io._fit_config(cli_io._build_parser().parse_args(argv))
            moved |= {f.name for f in dataclasses.fields(FitConfig)
                      if getattr(config, f.name) != getattr(default, f.name)}
        assert moved == {f.name for f in dataclasses.fields(FitConfig)}

    def test_every_option_in_the_readme_is_a_cli_option(self):
        from splinefit import cli_io

        commands, = (action.choices for action in cli_io._build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
        options = {option for command in commands.values()
                   for action in command._actions for option in action.option_strings}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
        assert named and named <= options, sorted(named - options)


def fresh_python(*args):
    """Run a fresh interpreter on ``args`` with this checkout's ``src`` on the path."""
    src = Path(splinefit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestStartup:
    def test_import_loads_no_heavy_scipy_subpackage(self):
        """Every CLI call pays the import: ndimage, special and interpolate stay out of it."""
        script = (
            "import sys\n"
            "import splinefit, splinefit.cli_io\n"
            "heavy = ('scipy.ndimage', 'scipy.special', 'scipy.interpolate')\n"
            "print(' '.join(name for name in heavy if name in sys.modules))\n"
        )
        proc = fresh_python("-c", script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip() == ""

    def test_import_leaves_the_penalized_solve_reordering_out(self):
        """``scipy.sparse.csgraph`` is loaded by the first penalized solve, not by start-up."""
        proc = fresh_python(
            "-c", "import sys, splinefit.cli_io; print('scipy.sparse.csgraph' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_scipy(self):
        """Importing the package and the CLI needs numpy alone."""
        script = (
            "import sys\n"
            "import splinefit, splinefit.cli_io\n"
            "print(' '.join(name for name in sys.modules if name.startswith('scipy')))\n"
        )
        proc = fresh_python("-c", script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip() == ""

    def test_sample_never_loads_scipy(self, tmp_path):
        """A whole ``sample`` of a hierarchical model, derivatives included, runs on numpy."""
        kv = make_open_knot_vector((0.0, 1.0), 2, uniform_interior((0.0, 1.0), 3))
        h = HierarchicalSpace.from_base(SplineSpace([kv, kv])).refine(
            [CellId(0, (0, 0)), CellId(0, (3, 2))], buffer=True
        )
        assert h.num_levels == 2
        model, out = tmp_path / "h.json", tmp_path / "samples.csv"
        write_model(model, SplineFunction(h, np.random.default_rng(3).normal(size=(h.dim, 1))))
        script = (
            "import sys\n"
            "from splinefit.cli_io import main\n"
            f"rc = main(['sample', '--model', {str(model)!r}, '--grid', '9x9', '--deriv', '1',\n"
            f"           '--out', {str(out)!r}])\n"
            "print(rc, ' '.join(name for name in sys.modules if name.startswith('scipy')))\n"
        )
        proc = fresh_python("-c", script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1].strip() == "0"
        assert len(out.read_text().splitlines()) == 1 + 81

    def test_verify_never_loads_scipy(self, seven_csv):
        """``verify`` with either basis, ``decompose`` and ``interpolate_subset`` run on numpy."""
        script = (
            "import sys\n"
            "from splinefit import SplineSpace, decompose, interpolate_subset\n"
            "from splinefit import make_open_knot_vector\n"
            "from splinefit.cli_io import main, read_point_cloud\n"
            f"path = {seven_csv!r}\n"
            "rcs = [main(['verify', '--cloud', path, '--degree', '2', *basis]) for basis in (\n"
            "    ['--basis', 'poly'], ['--basis', 'spline', '--interior-knots', '2'])]\n"
            "space = SplineSpace(make_open_knot_vector((-5.0, 5.0), 2, [-5.0 / 3.0, 5.0 / 3.0]))\n"
            "cloud = read_point_cloud(path)\n"
            "dec = decompose(space, cloud)\n"
            "cert = interpolate_subset(space, cloud, (0, 2, 3, 4, 6))\n"
            "print(*rcs, len(dec.subsets), cert.admissible,\n"
            "      *(name for name in sys.modules if name.startswith('scipy')))\n"
        )
        proc = fresh_python("-c", script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1].split() == ["0", "0", "21", "True"]

    def test_hierarchical_point_evaluation_loads_no_scipy(self):
        """``eval_basis`` and ``eval_basis_derivatives`` of a refined space build no matrix."""
        script = (
            "import sys\n"
            "from splinefit import CellId, HierarchicalSpace, SplineSpace\n"
            "from splinefit import make_open_knot_vector\n"
            "kv = make_open_knot_vector((0.0, 1.0), 2, [0.25, 0.5, 0.75])\n"
            "h = HierarchicalSpace.from_base(SplineSpace([kv, kv])).refine([CellId(0, (0, 0))])\n"
            "idx, _ = h.eval_basis([0.1, 0.2])\n"
            "didx, _ = h.eval_basis_derivatives([0.1, 0.2], (1, 0))\n"
            "print(h.num_levels, idx.size > 0, didx.size > 0,\n"
            "      *(name for name in sys.modules if name.startswith('scipy')))\n"
        )
        proc = fresh_python("-c", script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.split() == ["2", "True", "True"]

    @pytest.mark.parametrize("command", ["fit", "fit-adaptive", "verify"])
    def test_every_solve_entry_point_loads_scipy_itself(self, tmp_path, seven_csv, command):
        """Each command that solves finds its scipy imports in a fresh interpreter, asserts off."""
        g = np.linspace(-1, 1, 12)
        X, Y = np.meshgrid(g, g, indexing="ij")
        sites = np.column_stack([X.ravel(), Y.ravel()])
        surface = tmp_path / "surf.csv"
        write_point_cloud(
            surface, WeightedPointCloud(sites, np.sin(2 * sites[:, 0]) * sites[:, 1]),
            weights=False, markers=False,
        )
        model = str(tmp_path / "model.json")
        argv = {
            "fit": ["--cloud", seven_csv, "--knots", "uniform", "--interior-knots", "1",
                    "--out", model],
            "fit-adaptive": ["--cloud", str(surface), "--mesh", "4x4", "--eps", "0.05",
                             "--levels", "2", "--lambda", "1e-6", "--out", model],
            "verify": ["--cloud", seven_csv],
        }[command]
        proc = fresh_python("-O", "-m", "splinefit", command, *argv)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_python_m_splinefit_runs_the_cli(self):
        proc = fresh_python("-W", "error", "-m", "splinefit", "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "fit-adaptive" in proc.stdout


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        assert main(["fit", "--cloud", "/nonexistent/none.csv"]) == 3

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda doc: doc["subdomains"][1].append(10**6),
            # Level 1 has 8x8 cells: -64 would wrap onto cell 0, already in the subdomain.
            lambda doc: doc["subdomains"][1].append(-64),
            lambda doc: doc["knots"][0].reverse(),
            lambda doc: doc.update(degree=[-1, 2]),
            lambda doc: doc["subdomains"][1].append(None),
            lambda doc: doc["active"][0].append(None),
            lambda doc: doc.update(subdomains=[doc["subdomains"][0], 5]),
            lambda doc: doc["coefficients"][0].__setitem__(0, "x"),
            lambda doc: doc["active"][0].__setitem__(0, "a"),
            # 0.5 would truncate onto cell 0, already in the subdomain.
            lambda doc: doc["subdomains"][1].append(0.5),
            # Python's json reads NaN, Infinity and 1e999 as numbers.
            lambda doc: doc["coefficients"][0].__setitem__(0, float("nan")),
            lambda doc: doc["coefficients"][0].__setitem__(0, float("inf")),
            # The model has 2 levels; ``levels`` must say so as a JSON integer.
            lambda doc: doc.update(levels=99),
            lambda doc: doc.update(levels=0),
            lambda doc: doc.update(levels="x"),
            lambda doc: doc.update(levels=None),
            lambda doc: doc.update(levels=2.5),
            lambda doc: doc.pop("levels"),
            # Level 0 must list all 16 base cells.
            lambda doc: doc["subdomains"].__setitem__(0, []),
            lambda doc: doc["subdomains"].__setitem__(0, [0]),
            # One of the four children of cell (0, 0), with the active sets the
            # selection rule gives it: cell (0, 0) would be a leaf on both levels.
            lambda doc: doc.update(subdomains=[doc["subdomains"][0], [0]],
                                   active=[list(range(36)), [0]], coefficients=[[1.0]] * 37),
        ],
        ids=["cell-index-too-large", "cell-index-negative", "decreasing-knots", "negative-degree",
             "null-subdomain-entry", "null-active-entry", "number-for-subdomain-list",
             "non-numeric-coefficient", "non-numeric-active-entry", "fractional-cell-index",
             "nan-coefficient", "infinite-coefficient", "levels-too-many", "levels-zero",
             "levels-string", "levels-null", "levels-fraction", "levels-missing",
             "level-0-empty", "level-0-one-cell", "subdomain-splits-a-cell"],
    )
    def test_malformed_model_is_io_error(self, tmp_path, capsys, tamper):
        """Model contents no space accepts exit 3 and name the file."""
        kv = make_open_knot_vector((0.0, 1.0), 2, uniform_interior((0.0, 1.0), 3))
        h = HierarchicalSpace.from_base(SplineSpace([kv, kv])).refine(
            [CellId(0, (0, 0))], buffer=False
        )
        path = tmp_path / "h.json"
        write_model(path, SplineFunction(h, np.ones((h.dim, 1))))
        doc = json.loads(path.read_text())
        tamper(doc)
        path.write_text(json.dumps(doc))
        out = tmp_path / "s.csv"
        rc = main(["sample", "--model", str(path), "--grid", "5x5", "--out", str(out)])
        assert rc == 3
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    def test_nan_knot_in_model_is_io_error(self, tmp_path, capsys):
        """A model with a NaN knot is refused, not sampled into ``nan`` rows."""
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.5]))
        model = tmp_path / "m.json"
        write_model(model, SplineFunction(space, np.ones(space.dim)))
        doc = json.loads(model.read_text())
        doc["knots"][0][3] = float("nan")
        model.write_text(json.dumps(doc))
        out = tmp_path / "s.csv"
        assert main(["sample", "--model", str(model), "--grid", "5", "--out", str(out)]) == 3
        assert f"{model}: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_knot_is_config_error(self, tmp_path, capsys):
        x = np.linspace(0.0, 1.0, 30)
        path = tmp_path / "sine.csv"
        write_point_cloud(path, WeightedPointCloud(x, np.sin(6.0 * x)))
        model = tmp_path / "m.json"
        rc = main(["fit", "--cloud", str(path), "--knots", "0,0,0,nan,1,1,1",
                   "--out", str(model)])
        assert rc == 1
        assert "knots must be finite" in capsys.readouterr().err
        assert not model.exists()

    def test_negative_deriv_is_config_error(self, tmp_path, capsys):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.5]))
        model = tmp_path / "m.json"
        write_model(model, SplineFunction(space, np.ones(space.dim)))
        out = tmp_path / "s.csv"
        rc = main(["sample", "--model", str(model), "--grid", "5", "--deriv", "-1",
                   "--out", str(out)])
        assert rc == 1
        assert "-1" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_cloud_is_io_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,f1\n0.0\n")
        assert main(["fit", "--cloud", str(path)]) == 3

    def test_non_utf8_cloud_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x1,f1\n0.0,1.0\n0.5,\xff\n1.0,2.0\n")
        assert main(["fit", "--cloud", str(path), "--interior-knots", "1"]) == 3
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_model_is_io_error(self, tmp_path, capsys):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.5]))
        model = tmp_path / "m.json"
        write_model(model, SplineFunction(space, np.ones(space.dim)))
        model.write_bytes(model.read_bytes().replace(b'"tensor"', b'"\xfftensor"'))
        out = tmp_path / "s.csv"
        assert main(["sample", "--model", str(model), "--grid", "5", "--out", str(out)]) == 3
        assert f"{model}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    # A comment among the data rows sends the cloud through the line-by-line reader.
    @pytest.mark.parametrize("comment", ["", "# note\r\n"], ids=["bulk", "line-by-line"])
    def test_byte_order_mark_is_skipped(self, tmp_path, comment):
        """A cloud or a model that starts with a UTF-8 byte-order mark loads as without it."""
        plain = tmp_path / "plain.csv"
        write_point_cloud(plain, curve_point_cloud(1))
        header, rows = plain.read_bytes().split(b"\r\n", 1)
        plain.write_bytes(header + b"\r\n" + comment.encode() + rows)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for cloud in (plain, bom):
            assert main(["fit", "--cloud", str(cloud), "--interior-knots", "8",
                         "--out", str(cloud.with_suffix(".json")),
                         "--report", str(cloud.with_suffix(".report"))]) == 0
        for suffix in (".json", ".report"):
            assert bom.with_suffix(suffix).read_bytes() == plain.with_suffix(suffix).read_bytes()
        bom_model = tmp_path / "bom_model.json"
        bom_model.write_bytes(b"\xef\xbb\xbf" + plain.with_suffix(".json").read_bytes())
        for model in (plain.with_suffix(".json"), bom_model):
            assert main(["sample", "--model", str(model), "--grid", "11",
                         "--out", str(model.with_suffix(".samples"))]) == 0
        assert (bom_model.with_suffix(".samples").read_bytes()
                == plain.with_suffix(".samples").read_bytes())

    def test_byte_order_mark_then_non_utf8_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xef\xbb\xbfx1,f1\n0.0,1.0\n0.5,\xff\n1.0,2.0\n")
        assert main(["fit", "--cloud", str(path), "--interior-knots", "1"]) == 3
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value",
        [("--lambda", "nan"), ("--lambda", "inf"), ("--alpha", "fixed:inf"),
         ("--alpha", "irls:inf")],
    )
    def test_non_finite_penalty_or_alpha_is_config_error(self, tmp_path, capsys, option, value):
        """λ, ρ and δ are checked before fitting: no traceback, no model of a diverged fit."""
        x = np.linspace(0.0, 1.0, 60)
        path = tmp_path / "sine.csv"
        write_point_cloud(path, WeightedPointCloud(x, np.sin(6.0 * x)))
        model = tmp_path / "m.json"
        rc = main(["fit", "--cloud", str(path), "--interior-knots", "6", option, value,
                   "--out", str(model)])
        assert rc == 1
        assert f"got {value.split(':')[-1]}" in capsys.readouterr().err
        assert not model.exists()

    def test_zero_count_is_config_error(self, tmp_path, capsys):
        space = SplineSpace(make_open_knot_vector((0.0, 1.0), 2, [0.5]))
        model = tmp_path / "m.json"
        write_model(model, SplineFunction(space, np.ones(space.dim)))
        out = tmp_path / "s.csv"
        assert main(["sample", "--model", str(model), "--grid", "0", "--out", str(out)]) == 1
        assert "--grid must be N with every N >= 1, got '0'" in capsys.readouterr().err
        assert not out.exists()
        g = np.linspace(-1.0, 1.0, 6)
        cloud = tmp_path / "surface.csv"
        write_point_cloud(cloud, WeightedPointCloud(np.stack(np.meshgrid(g, g), -1).reshape(-1, 2),
                                                    np.ones(36)))
        assert main(["fit-adaptive", "--cloud", str(cloud), "--mesh", "0x8", "--eps", "0.1"]) == 1
        assert "--mesh must be NxN with every N >= 1, got '0x8'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option, value",
        [(["fit", "--interior-knots", "1"], "--degree", "3,7"),
         (["verify"], "--degree", "2,5"),
         (["fit-adaptive", "--mesh", "2x2", "--eps", "0.1"], "--degree", "3,2,5"),
         (["fit"], "--interior-knots", "-1"),
         (["verify", "--basis", "spline"], "--interior-knots", "-1")],
        ids=["fit-two-degrees", "verify-two-degrees", "fit-adaptive-three-degrees",
             "fit-negative-knot-count", "verify-negative-knot-count"],
    )
    def test_degrees_or_knot_count_it_would_misuse_is_config_error(
        self, seven_csv, capsys, command, option, value
    ):
        """Extra degrees were dropped unread; a negative count failed naming neither."""
        assert main([command[0], "--cloud", seven_csv, *command[1:], option, value]) == 1
        err = capsys.readouterr().err
        assert f"argument {option}: " in err and f"got {value!r}" in err

    def test_bad_flag_value_is_config_error(self, seven_csv):
        assert main(["fit", "--cloud", seven_csv, "--param", "bogus"]) == 1

    def test_bad_alpha_is_config_error(self, seven_csv):
        assert main(["fit", "--cloud", seven_csv, "--alpha", "nope:1"]) == 1

    def test_weight_overflow_is_numeric_error(self, tmp_path, capsys):
        """IRLS weights that the loop drives to infinity exit 2, not as a usage error."""
        sites = np.linspace(0.0, 1.0, 12)
        values = sites**2
        values[5] += 1.0
        markers = np.full(12, 2)
        markers[5] = 1
        path = tmp_path / "spike.csv"
        write_point_cloud(path, WeightedPointCloud(sites, values, markers=markers))
        rc = main(["fit", "--cloud", str(path), "--degree", "2", "--knots", "uniform",
                   "--interior-knots", "1", "--alpha", "irls:1e-8", "--max-iter", "100"])
        assert rc == 2
        assert "floating-point range" in capsys.readouterr().err

    def test_rank_deficiency_is_numeric_error(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,f1\n0.0,0.0\n0.5,1.0\n1.0,0.0\n")
        rc = main(
            ["fit", "--cloud", str(path), "--degree", "3", "--knots", "uniform",
             "--interior-knots", "5", "--param", "given"]
        )
        assert rc == 2
