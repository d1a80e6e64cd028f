import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphdesign.quadrature as quadrature
from sphdesign.cli import main
from sphdesign.design import catalog_design
from sphdesign.pointio import (
    PointFormatError,
    format_points,
    parse_points,
    read_points,
    write_text_atomic,
)
from sphdesign.sphere_geometry import PointConfiguration, random_points

SOURCE = Path(__file__).resolve().parents[1] / "src"


class TestPointFiles:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        cfg = PointConfiguration(d=2, points=random_points(2, 9, rng))
        path = tmp_path / "pts.txt"
        write_text_atomic(str(path), format_points(cfg))
        back = read_points(str(path))
        assert back.d == 2
        assert np.array_equal(back.points, cfg.points)

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

    def test_verify_takes_one_source(self, tmp_path):
        pts = tmp_path / "ico.txt"
        write_text_atomic(str(pts), format_points(catalog_design("icosahedron")))
        for sources in ([], ["--in", str(pts), "--catalog", "icosahedron"]):
            with pytest.raises(SystemExit):
                main(["verify", "--t", "5", *sources])

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
        assert "stopped on target; verdict design" in capsys.readouterr().out
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
        # integrals at the default cap of 128, through the circle path
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

    @pytest.mark.parametrize("mesh_constant", ["0", "-1", "nan"])
    def test_mz_test_rejects_bad_mesh_constant(self, capsys, mesh_constant):
        argv = ["mz-test", "--d", "2", "--t", "2", "--n", "20", "--trials", "2"]
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

    def test_threads_flag_validated(self, capsys):
        assert main(["--threads", "0", "bounds", "--d", "1", "--t-max", "2"]) == 1
