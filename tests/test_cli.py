import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphdesign.quadrature as quadrature
from sphdesign.cli import _parser, main
from sphdesign.design import DEFAULT_TOLERANCE, catalog_design
from sphdesign.flow import FlowConfig, design_count_constant, mesh_threshold
from sphdesign.mz import run_trials
from sphdesign.optimizer import FinderConfig
from sphdesign.pointio import (
    PointFormatError,
    format_points,
    parse_points,
    read_points,
    write_text_atomic,
)
from sphdesign.sphere_geometry import (
    PointConfiguration,
    equal_area_partition,
    measure_diameter_constant,
    random_points,
)

SOURCE = Path(__file__).resolve().parents[1] / "src"


class TestPointFiles:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        cfg = PointConfiguration(d=2, points=random_points(2, 9, rng))
        path = tmp_path / "pts.txt"
        write_text_atomic(str(path), format_points(cfg))
        back = read_points(str(path))
        assert back.d == 2
        assert np.array_equal(back.points, cfg.points)

    @pytest.mark.parametrize(
        "source",
        [
            (2, 400), (3, 500), (4, 500),
            "icosahedron", "dodecahedron", "d4-minimal-vectors", "24-cell", "polygon(5)", "cube(3)",
            [[-0.0, 1.0, 0.0], [0.0, -0.0, -1.0]],
        ],
    )
    def test_format_matches_per_value_formatting(self, source):
        # one "%.17g" format over all values gives the text of formatting
        # each value on its own, signed zeros included
        if isinstance(source, str):
            config = catalog_design(source)
        elif isinstance(source, tuple):
            config = PointConfiguration(source[0], equal_area_partition(*source).representatives)
        else:
            config = PointConfiguration(2, source)
        lines = [f"{config.d} {config.n}"]
        lines += [" ".join(f"{v:.17g}" for v in row) for row in config.points]
        assert format_points(config) == "\n".join(lines) + "\n"

    def test_header_format(self):
        cfg = catalog_design("polygon(3)")
        text = format_points(cfg)
        lines = text.strip().splitlines()
        assert lines[0] == "1 3"
        assert len(lines) == 4

    def test_rejects_wrong_count(self):
        with pytest.raises(PointFormatError, match="expected 3 point lines"):
            parse_points("1 3\n1 0\n0 1\n")

    def test_rejects_wrong_width_with_line_number(self):
        with pytest.raises(PointFormatError, match="line 3"):
            parse_points("1 2\n1 0\n0 1 0\n")

    def test_rejects_non_unit_with_line_number(self):
        with pytest.raises(PointFormatError, match="line 2"):
            parse_points("1 2\n0.5 0.5\n0 1\n")

    def test_rejects_garbage_header(self):
        with pytest.raises(PointFormatError, match="line 1"):
            parse_points("banana\n")

    def test_renormalizes_sloppy_input(self):
        # 9-digit coordinates are accepted (within 1e-9) and renormalized
        text = "1 1\n0.707106781 0.707106781\n"
        cfg = parse_points(text)
        assert abs(np.linalg.norm(cfg.points[0]) - 1.0) < 1e-15

    def test_rejects_beyond_norm_gate(self):
        with pytest.raises(PointFormatError, match="line 2"):
            parse_points("1 1\n0.7071 0.7071\n")

    def test_rejects_nan_coordinate(self):
        with pytest.raises(PointFormatError, match="line 2"):
            parse_points("1 1\nnan 0\n")

    def test_line_numbers_count_blank_lines(self):
        # the bad vector sits on file line 4, after a blank line 2
        with pytest.raises(PointFormatError, match="^line 4:"):
            parse_points("2 2\n\n1 0 0\n0 1 1\n")
        with pytest.raises(PointFormatError, match="^line 5:"):
            parse_points("1 2\n1 0\n\n\n0 1 0\n")

    @pytest.mark.parametrize("d", [0, 9])
    def test_rejects_unsupported_dimension_in_header(self, d):
        rows = "".join(f"1{' 0' * d}\n" for _ in range(2))
        with pytest.raises(PointFormatError, match="^line 1: sphere dimension"):
            parse_points(f"{d} 2\n{rows}")


class TestCliCommands:
    def test_bounds_table(self, capsys):
        assert main(["bounds", "--d", "2", "--t-max", "5"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        table = {int(t): int(n) for _, t, n in rows}
        assert table == {1: 2, 2: 4, 3: 6, 4: 9, 5: 12}

    @pytest.mark.parametrize("t_max", ["0", "-3"])
    def test_bounds_rejects_t_max_below_one(self, capsys, t_max):
        assert main(["bounds", "--d", "2", "--t-max", t_max]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --t-max must be >= 1")

    def test_bounds_to_file(self, tmp_path, capsys):
        path = tmp_path / "bounds.txt"
        assert main(["bounds", "--d", "3", "--t-max", "5", "--out", str(path)]) == 0
        text = path.read_text()
        assert "3 5 20" in text
        assert "22 <= N(3,5) <= 24" in text

    def test_partition_json(self, tmp_path):
        path = tmp_path / "part.json"
        assert main(["partition", "--d", "2", "--n", "10", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["n"] == 10
        assert len(payload["cells"]) == 10
        assert sum(payload["areas"]) == pytest.approx(1.0)
        assert payload["meta"]["command"] == "partition"

    def test_seed_and_verify_round_trip(self, tmp_path, capsys):
        pts = tmp_path / "seeds.txt"
        assert main(["seed", "--d", "1", "--n", "6", "--out", str(pts)]) == 0
        # six equally spaced points form a 5-design on the circle
        assert main(["verify", "--t", "5", "--in", str(pts)]) == 0
        assert main(["verify", "--t", "6", "--in", str(pts)]) == 2

    def test_verify_icosahedron(self, tmp_path):
        pts = tmp_path / "ico.txt"
        write_text_atomic(str(pts), format_points(catalog_design("icosahedron")))
        assert main(["verify", "--t", "5", "--in", str(pts)]) == 0

    def test_verify_octahedron_fails_at_four(self, tmp_path, capsys):
        pts = tmp_path / "oct.txt"
        write_text_atomic(str(pts), format_points(catalog_design("cross-polytope(2)")))
        report = tmp_path / "report.json"
        code = main(
            ["verify", "--t", "4", "--in", str(pts), "--report", str(report)]
        )
        assert code == 2
        payload = json.loads(report.read_text())
        assert payload["defect"] == pytest.approx(5.25, abs=1e-9)
        assert payload["verdict"] is False
        assert payload["meta"]["invocation"]["command"] == "verify"

    def test_verify_cross_check_failure_is_an_error(self, tmp_path, capsys, monkeypatch):
        import sphdesign.harmonics as harmonics

        pts = tmp_path / "ico.txt"
        write_text_atomic(str(pts), format_points(catalog_design("icosahedron")))
        monkeypatch.setattr(
            harmonics, "mean_residuals", lambda t, points: np.ones(harmonics.basis_size(t))
        )
        assert main(["verify", "--t", "5", "--in", str(pts)]) == 1
        assert "error: kernel defect" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["inf", "nan"])
    def test_verify_rejects_non_finite_tolerance(self, tmp_path, capsys, tolerance):
        # cube(2) has defect 2.33 at t = 5; no tolerance may pass or refute it
        pts = tmp_path / "cube.txt"
        write_text_atomic(str(pts), format_points(catalog_design("cube(2)")))
        code = main(["verify", "--t", "5", "--in", str(pts), "--tolerance", tolerance])
        assert code == 1
        assert "error: tolerance must be positive and finite" in capsys.readouterr().err

    def test_verify_catalog(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["verify", "--t", "5", "--catalog", "icosahedron", "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["n"] == 12
        assert payload["meta"]["invocation"]["arguments"]["catalog"] == "icosahedron"
        # the octahedron is a 3-design, not a 4-design
        assert main(["verify", "--t", "3", "--catalog", "cross-polytope(2)"]) == 0
        assert main(["verify", "--t", "4", "--catalog", "cross-polytope(2)"]) == 2
        assert "verdict=fail" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["tetrahedron", "polygon", "icosahedron(3)", "cube(9)"])
    def test_verify_unknown_catalog_name(self, capsys, name):
        assert main(["verify", "--t", "2", "--catalog", name]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--t", "5"], "one of the arguments --in --catalog is required"),
            (["verify", "--t", "5", "--in", "ico.txt", "--catalog", "icosahedron"], "not allowed with"),
            (["find", "--d", "2", "--t", "3"], "the following arguments are required: --n"),
        ],
    )
    def test_usage_errors_exit_one(self, capsys, argv, message):
        # exit code 2 is reserved for a design that was checked and refuted
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sphdesign ") and message in err
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["verify", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
        assert "--catalog" in capsys.readouterr().out

    def test_verify_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n1 0 0\n0.5 0 0\n")
        assert main(["verify", "--t", "2", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_find_writes_artifacts(self, tmp_path, capsys):
        pts = tmp_path / "design.txt"
        report = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "find", "--d", "1", "--t", "3", "--n", "4",
                "--out", str(pts), "--report", str(report), "--trace", str(trace),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(dense solve, 0 CG iterations), stopped on target; verdict design" in out
        found = read_points(str(pts))
        assert found.n == 4
        payload = json.loads(report.read_text())
        assert payload["verdict"] is True
        assert payload["meta"]["invocation"]["arguments"]["seed"] == 0
        assert trace.read_text().startswith("iteration,defect")
        # the written set re-verifies through the file interface
        assert main(["verify", "--t", "3", "--in", str(pts)]) == 0

    def test_find_rejects_nan_target(self, capsys):
        code = main(["find", "--d", "2", "--t", "2", "--n", "4", "--defect-target", "nan"])
        assert code == 1
        assert "error: defect_target must be positive and finite" in capsys.readouterr().err

    def test_find_rejects_below_bound(self, capsys):
        assert main(["find", "--d", "2", "--t", "2", "--n", "3"]) == 1
        assert "minimum is 4" in capsys.readouterr().err

    def test_flow_demo(self, tmp_path, capsys):
        out = tmp_path / "flow.json"
        code = main(
            [
                "flow-demo", "--d", "2", "--t", "2", "--n", "50",
                "--trials", "3", "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["trial_count"] == 3
        assert payload["positive_count"] == 3
        assert payload["meta"]["invocation"]["arguments"]["seed"] == 5

    def test_mz_test_csv(self, tmp_path):
        out = tmp_path / "mz.csv"
        code = main(
            [
                "mz-test", "--d", "1", "--t", "3", "--n", "64",
                "--trials", "3", "--csv", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "d,m,n,mesh_norm,ratio,within_bounds"
        assert len(lines) == 4

    def test_mz_test_s3_gradient_csv(self, tmp_path):
        # integrals at the default cap of 128, through the angle grid
        out = tmp_path / "mz.csv"
        argv = ["mz-test", "--d", "3", "--t", "2", "--n", "50", "--kind", "gradient"]
        try:
            code = main(argv + ["--trials", "2", "--csv", str(out)])
        finally:
            quadrature._cached_rule.cache_clear()  # frees the 4M-node rule
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "d,m,n,mesh_norm,ratio,within_bounds"
        assert len(lines) == 3
        assert all(line.startswith("3,2,50,") and line.endswith(",true") for line in lines[1:])

    def test_mz_test_max_resolution_sets_the_cap(self, tmp_path, capsys):
        out = tmp_path / "mz.csv"
        argv = ["mz-test", "--d", "2", "--t", "3", "--n", "50", "--trials", "1"]
        assert main(argv + ["--max-resolution", "16", "--csv", str(out)]) == 0
        assert "within bounds: 1/1" in capsys.readouterr().out
        assert out.read_text().startswith("d,m,n,mesh_norm,ratio,within_bounds\n2,3,50,")

    def test_mz_test_refuses_a_start_above_the_cap(self, capsys):
        # the integrals start at resolution t + 2 = 22
        argv = ["mz-test", "--d", "2", "--t", "20", "--n", "50", "--trials", "1"]
        assert main(argv + ["--max-resolution", "16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--t 20" in err and "--max-resolution 16" in err
        assert "start_resolution" not in err

    def test_constants(self, capsys):
        code = main(["constants", "--d", "2", "--sweep", "10,100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "measured diameter constant" in out
        assert "design-count coefficient" in out

    @pytest.mark.parametrize("mesh_constant", ["0", "-1", "nan"])
    def test_constants_rejects_bad_mesh_constant(self, capsys, mesh_constant):
        argv = ["constants", "--d", "2", "--sweep", "10,100", "--mesh-constant", mesh_constant]
        assert main(argv) == 1
        assert "error: mesh constant must be positive and finite" in capsys.readouterr().err

    def test_constants_overflow_exits_one(self, capsys):
        # (54 d B / r)^d overflows a float at d = 8 and r = 1e-40
        argv = ["constants", "--d", "8", "--sweep", "10,100", "--mesh-constant", "1e-40"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        # the message names the formula and its inputs, and nothing was printed before it
        for part in ("(54*d*B/r)^d", "d = 8", "B = ", "r = 1e-40"):
            assert part in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mesh_constant", [1e-40, 5e-324])
    def test_design_count_constant_overflow_names_inputs(self, mesh_constant):
        # the power overflows at 1e-40; at 5e-324 the base itself is inf
        with pytest.raises(ValueError, match=r"\(54\*d\*B/r\)\^d .* d = 8, B = 1.5, r = "):
            design_count_constant(8, 1.5, mesh_constant)

    @pytest.mark.parametrize("mesh_constant", ["0", "-1", "nan"])
    def test_mz_test_rejects_bad_mesh_constant(self, capsys, mesh_constant):
        argv = ["mz-test", "--d", "2", "--t", "2", "--n", "20", "--trials", "2"]
        assert main(argv + ["--mesh-constant", mesh_constant]) == 1
        assert "error: mesh constant must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("mesh_constant", ["0", "-1", "nan"])
    def test_flow_demo_rejects_bad_mesh_constant(self, capsys, mesh_constant):
        # named as such, not as the horizon it would give
        argv = ["flow-demo", "--d", "2", "--t", "2", "--n", "20", "--trials", "1"]
        assert main(argv + ["--mesh-constant", mesh_constant]) == 1
        assert "error: mesh constant must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, message",
        [
            ("flow-demo", "--resolution", "resolution"),
            ("flow-demo", "--trials", "trials"),
            ("mz-test", "--trials", "trials"),
        ],
    )
    def test_rejects_zero_size_runs(self, capsys, command, flag, message):
        argv = [command, "--d", "2", "--t", "2", "--n", "20", flag, "0"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_flow_demo_refuses_a_rule_over_the_node_budget(self, capsys, monkeypatch):
        # 2 * 3000**3 nodes on S^3: refused before any rule is built
        def refuse(d, resolution):
            raise AssertionError(f"built a product rule on S^{d} at resolution {resolution}")

        monkeypatch.setattr(quadrature, "_product_rule", refuse)
        argv = ["flow-demo", "--d", "3", "--t", "3", "--n", "40", "--trials", "1"]
        assert main(argv + ["--resolution", "3000"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "over the budget" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_imports_leave_numpy_unloaded(self):
        # --threads must take effect before numpy loads BLAS
        code = "import sys, sphdesign, sphdesign.cli; print('numpy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(SOURCE)},
        )
        assert result.stdout.strip() == "False"

    def test_imports_load_no_scipy(self):
        # numpy is the only runtime dependency: no module, cli included,
        # may pull scipy in (__main__ would run the CLI)
        code = (
            "import importlib, pkgutil, sys, sphdesign\n"
            "for module in pkgutil.iter_modules(sphdesign.__path__):\n"
            "    if module.name != '__main__':\n"
            "        importlib.import_module('sphdesign.' + module.name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('sphdesign')))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(SOURCE)},
        )
        loaded, scipy_modules = result.stdout.splitlines()
        assert "'sphdesign.cli'" in loaded and "'sphdesign.quadrature'" in loaded
        assert scipy_modules == "[]"

    def test_defaults_match_library_defaults(self):
        # the parser restates library defaults as literals, since importing
        # the library would load numpy before --threads is applied
        parser = _parser()

        def defaults(*argv):
            return vars(parser.parse_args(list(argv)))

        def parameter_default(function, name):
            return inspect.signature(function).parameters[name].default

        find = defaults("find", "--d", "2", "--t", "2", "--n", "6")
        finder = {f.name: f.default for f in dataclasses.fields(FinderConfig)}
        for name in ("seed", "defect_target", "max_iterations", "restarts"):
            assert find[name] == finder[name], name
        verify = defaults("verify", "--t", "2", "--catalog", "icosahedron")
        assert verify["tolerance"] == DEFAULT_TOLERANCE
        flow_demo = defaults("flow-demo", "--d", "2", "--t", "2", "--n", "20")
        for name in ("mesh_constant", "step_count"):
            assert flow_demo[name] == parameter_default(FlowConfig.defaults, name), name
        mz_test = defaults("mz-test", "--d", "2", "--t", "2", "--n", "20")
        for name in ("mesh_constant", "kind", "max_resolution"):
            assert mz_test[name] == parameter_default(run_trials, name), name
        constants = defaults("constants", "--d", "2")
        for function in (design_count_constant, mesh_threshold):
            assert constants["mesh_constant"] == parameter_default(function, "mesh_constant")
        sweep = tuple(int(n) for n in constants["sweep"].split(","))
        assert sweep == parameter_default(measure_diameter_constant, "n_values")

    def test_threads_flag_validated(self, capsys):
        assert main(["--threads", "0", "bounds", "--d", "1", "--t-max", "2"]) == 1
