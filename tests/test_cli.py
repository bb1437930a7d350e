"""Command-line surface: outputs, validation, and byte determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import tentstab
from tentstab import cli
from tentstab import experiments as E
from tentstab.cli import SvgHeatmap, emit_svg, heatmap_from_cells, main, render_svg
from tentstab.errors import ConfigError
from tentstab.geom2d import ConvexPolygon


def run_cli(tmp_path, *args):
    return main([str(a) for a in args])


class TestVerify:
    def test_certificates_json(self, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["verify", "--t", "0.8814119281102443", "--power", "3", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data) == 3
        by_conv = {c["norm_convention"]: c for c in data}
        assert by_conv["PaperFormula"]["satisfied"] is True
        assert by_conv["Spectral"]["satisfied"] is False
        assert by_conv["PaperFormula"]["lambda"] < 1.0

    def test_bad_t_exits_1(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["verify", "--t", "1.5", "--out", str(out)])
        assert code == 1
        assert "--t" in capsys.readouterr().err
        assert not out.exists()


class TestDensity:
    def test_csv_uniform_at_t1(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main([
            "density", "--t", "1.0", "--resolution", "16", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("cell_id,area,")
        values = [float(line.split(",")[4]) for line in lines[1:]]
        assert max(abs(v - 1.0) for v in values) <= 1e-8

    def test_svg_output(self, tmp_path):
        out = tmp_path / "d.svg"
        code = main([
            "density", "--t", "1.0", "--resolution", "16",
            "--format", "svg", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        assert "<path" in text and "</svg>" in text

    def test_unconverged_exits_2(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main([
            "density", "--t", "0.95", "--resolution", "16",
            "--tol", "1e-30", "--out", str(out),
        ])
        assert code == 2
        assert out.exists()  # outputs still written


class TestSweep:
    def test_rows_and_validation(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--t0", "1.0", "--tmin", "0.95", "--tmax", "0.99",
            "--steps", "3", "--resolution", "16", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        l1s = [float(line.split(",")[6]) for line in lines[1:]]
        assert l1s == sorted(l1s, reverse=True)

    def test_range_validation(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--t0", "1.0", "--tmin", "0.5", "--tmax", "0.99",
            "--resolution", "16", "--out", str(out),
        ])
        assert code == 1
        assert "--tmin" in capsys.readouterr().err

    def test_resolution_validation(self, tmp_path, capsys):
        code = main([
            "sweep", "--t0", "1.0", "--tmin", "0.95", "--tmax", "0.99",
            "--resolution", "8", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1
        assert "--resolution" in capsys.readouterr().err


class TestLycheck:
    def test_default_power_rejected(self, tmp_path, capsys):
        # a single tent step never satisfies lambda < 1; the cube does
        code = main(["lycheck", "--t", "1.0", "--out", str(tmp_path / "l.csv")])
        assert code == 1
        assert "--power" in capsys.readouterr().err

    def test_cube_runs(self, tmp_path):
        out = tmp_path / "l.csv"
        code = main([
            "lycheck", "--t", "1.0", "--power", "3", "--jmax", "2",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,convention,j,variation_j,bound,ratio"
        assert len(lines) == 4
        ratios = [float(line.split(",")[5]) for line in lines[1:]]
        assert all(r <= 1.0 for r in ratios)

    def test_lefthalf_initial_density(self, tmp_path):
        out = tmp_path / "l.csv"
        code = main([
            "lycheck", "--t", "1.0", "--power", "3", "--jmax", "1",
            "--f0", "lefthalf", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:]
        v0 = float(rows[0].split(",")[3])
        assert v0 == pytest.approx(2.0 * (2.0 + math.sqrt(2.0)), abs=1e-9)


class TestOrbit:
    def test_orbit_csv(self, tmp_path):
        out = tmp_path / "o.csv"
        code = main(["orbit", "--t", "1.0", "--n", "5000", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        lyap = float(lines[1].split(",")[3])
        assert lyap == pytest.approx(0.5 * math.log(2.0), abs=1e-9)


class TestOracle1d:
    def test_density_and_matrix(self, tmp_path):
        out = tmp_path / "o.csv"
        mat = tmp_path / "m.csv"
        code = main([
            "oracle1d", "--a", "2.0", "--cells", "4",
            "--out", str(out), "--matrix-out", str(mat),
        ])
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 4
        for row in rows:
            assert float(row.split(",")[3]) == pytest.approx(0.5, abs=1e-10)
        mat_rows = mat.read_text().strip().split("\n")[1:]
        assert len(mat_rows) == 8  # two half-entries per row
        for row in mat_rows:
            assert float(row.split(",")[2]) == pytest.approx(0.5, abs=1e-15)

    def test_odd_cells_rejected(self, tmp_path, capsys):
        code = main(["oracle1d", "--cells", "5", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "--cells" in capsys.readouterr().err

    def test_cells_over_matrix_budget_rejected(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["oracle1d", "--cells", "100000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--cells" in err
        assert not out.exists()

    def test_benchmark_cell_count_runs(self, tmp_path):
        assert main(["oracle1d", "--cells", "512", "--out", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize("cells", [4, 64, 512])
    @pytest.mark.parametrize("a", ["2.0", "1.6", "1.7320508"])
    def test_matrix_export_matches_entrywise_loop(self, tmp_path, a, cells):
        mat = tmp_path / "m.csv"
        code = main([
            "oracle1d", "--a", a, "--cells", str(cells),
            "--out", str(tmp_path / "o.csv"), "--matrix-out", str(mat),
        ])
        assert code == 0
        matrix = E.tent1d_ulam(float(a), cells).matrix
        lines = ["i,j,weight"]
        for i in range(cells):
            for j in range(cells):
                w = matrix[i, j]
                if w != 0.0:
                    lines.append(f"{i},{j},{cli.fmt(w)}")
        assert mat.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestSvg:
    def test_single_cell_legend(self, tmp_path):
        square = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
        h = heatmap_from_cells(((square, 1.0),))
        text = render_svg(h)
        assert text.count("<path") == 1
        assert "1.00000 - 1.00000" in text

    def test_two_values_use_ramp_endpoints(self):
        a = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
        b = ConvexPolygon(((1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)))
        text = render_svg(heatmap_from_cells(((a, 0.0), (b, 1.0))))
        lo = cli._ramp_color(0.0)
        hi = cli._ramp_color(1.0)
        assert lo in text and hi in text and lo != hi

    def test_empty_heatmap_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            render_svg(SvgHeatmap((), (0.0, 0.0)))
        target = tmp_path / "x.svg"
        with pytest.raises(ConfigError):
            emit_svg(SvgHeatmap((), (0.0, 0.0)), str(target))
        assert not target.exists()

    def test_monotone_lightness(self):
        def lightness(hexcolor):
            r = int(hexcolor[1:3], 16)
            g = int(hexcolor[3:5], 16)
            b = int(hexcolor[5:7], 16)
            return 0.2126 * r + 0.7152 * g + 0.0722 * b

        ls = [lightness(cli._ramp_color(k / 10)) for k in range(11)]
        assert all(a < b for a, b in zip(ls, ls[1:]))


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--t", "0.9", "--power", "3"],
            ["density", "--t", "0.95", "--resolution", "16"],
            ["density", "--t", "0.95", "--resolution", "16", "--format", "svg"],
            [
                "sweep", "--t0", "1.0", "--tmin", "0.95", "--tmax", "0.99",
                "--steps", "2", "--resolution", "16",
            ],
            ["lycheck", "--t", "0.95", "--power", "3", "--jmax", "2"],
            ["orbit", "--t", "0.9", "--n", "2000", "--seed", "7"],
            ["oracle1d", "--a", "1.7", "--cells", "16"],
        ],
    )
    def test_reruns_are_byte_identical(self, tmp_path, args):
        out1 = tmp_path / "run1.out"
        out2 = tmp_path / "run2.out"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestInputContracts:
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize(
        "args",
        [
            ["density", "--t", "0.95", "--resolution", "16"],
            ["sweep", "--tmin", "0.95", "--tmax", "0.99", "--resolution", "16"],
            ["oracle1d", "--a", "1.7", "--cells", "16"],
        ],
    )
    def test_bad_tol_exits_1(self, tmp_path, capsys, args, tol):
        out = tmp_path / "x.csv"
        assert main(args + ["--tol", tol, "--out", str(out)]) == 1
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["verify", "--t", "abc"], "--t"),
            (["density", "--format", "pdf"], "--format"),
            (["lycheck", "--f0", "x"], "--f0"),
            (["lycheck", "--convention", "Foo"], "--convention"),
            (["sweep", "--tmax", "0.99"], "--tmin"),
            (["verify", "--power", "0"], "--power"),
            (["density", "--power", "0"], "--power"),
            (["sweep", "--tmin", "0.95", "--tmax", "0.99", "--power", "0"], "--power"),
            (["lycheck", "--power", "0"], "--power"),
            (["orbit", "--n", "0"], "--n"),
            (["orbit", "--seed", "-1"], "--seed"),
        ],
    )
    def test_usage_error_exits_1(self, tmp_path, capsys, args, flag):
        out = tmp_path / "x.out"
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["density", "--resolution", "100000"],
            ["sweep", "--tmin", "0.95", "--tmax", "0.99", "--resolution", "100000"],
        ],
    )
    def test_resolution_over_grid_budget_exits_1(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            code = main(args + ["--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "resolution 100000" in err
        assert peak < 1_000_000
        assert not out.exists()

    @pytest.mark.parametrize(
        "args", [["verify", "--power", "20"], ["density", "--power", "40"]]
    )
    def test_power_over_branch_budget_exits_1(self, tmp_path, capsys, args):
        out = tmp_path / "x.out"
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CellExplosion: ") and err.count("\n") == 1
        assert not out.exists()

    def test_power_12_within_branch_budget(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["density", "--power", "12", "--resolution", "4", "--out", str(out)]) == 0

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "oracle1d" in capsys.readouterr().out

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["orbit", "--n", "10", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.parent.exists()


def test_cli_import_leaves_scipy_optimize_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tentstab.__file__)))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import tentstab.cli; "
        "print('scipy.optimize' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"
