"""File formats, CLI commands, exit codes."""

import csv
import json

import numpy as np
import pytest

from splinefit import (
    CellId,
    HierarchicalSpace,
    PointCloudFormatError,
    ModelFormatError,
    NumericError,
    SplineFunction,
    SplineSpace,
    WeightedPointCloud,
    averaging_knots,
    curve_point_cloud,
    decompose,
    make_open_knot_vector,
    top_gradient_markers,
    uniform_interior,
)
from splinefit.cli_io import (
    _write_mesh_dump,
    main,
    read_model,
    read_point_cloud,
    write_model,
    write_point_cloud,
)

from conftest import SEVEN_SITES, SEVEN_VALUES


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

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x3,f1\n0.0,0.1,1.0\n")
        with pytest.raises(PointCloudFormatError, match="x columns"):
            read_point_cloud(path)

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
             "--mesh", "8x8", "--eps", "4e-2", "--tol-i-ratio", "10",
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
        ],
        ids=["cell-index-too-large", "cell-index-negative", "decreasing-knots", "negative-degree",
             "null-subdomain-entry", "null-active-entry", "number-for-subdomain-list",
             "non-numeric-coefficient", "non-numeric-active-entry", "fractional-cell-index"],
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

    def test_bad_flag_value_is_config_error(self, seven_csv):
        assert main(["fit", "--cloud", seven_csv, "--param", "bogus"]) == 1

    def test_bad_alpha_is_config_error(self, seven_csv):
        assert main(["fit", "--cloud", seven_csv, "--alpha", "nope:1"]) == 1

    def test_rank_deficiency_is_numeric_error(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,f1\n0.0,0.0\n0.5,1.0\n1.0,0.0\n")
        rc = main(
            ["fit", "--cloud", str(path), "--degree", "3", "--knots", "uniform",
             "--interior-knots", "5", "--param", "given"]
        )
        assert rc == 2
