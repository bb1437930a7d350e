"""Command-line surface: outputs, validation, and byte determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import tentstab
import ulam_oracle
from geometry_oracle import box
from tentstab import cli
from tentstab import density as D
from tentstab import experiments as E
from tentstab.cli import build_parser, main, render_svg
from tentstab.ioutil import atomic_write_text, fmt
from tentstab.maps import tent_power


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

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_outputs_build_no_cell_polygons(self, tmp_path, monkeypatch, fmt):
        def no_polygons(grid):
            raise AssertionError("the density outputs read UlamGrid.cells")

        monkeypatch.setattr(D.UlamGrid, "cells", property(no_polygons))
        out = tmp_path / f"d.{fmt}"
        argv = ["density", "--t", "0.95", "--resolution", "16", "--format", fmt]
        assert main(argv + ["--out", str(out)]) == 0

    def test_heap_peak_at_resolution_64(self, tmp_path):
        out = str(tmp_path / "d.csv")
        main(["density", "--t", "0.95", "--resolution", "16", "--out", out])  # imports
        tracemalloc.start()
        try:
            code = main(["density", "--t", "0.95", "--resolution", "64", "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4_500_000, f"peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("t", [0.95, 1.0])
    @pytest.mark.parametrize("pw", [1, 2])
    @pytest.mark.parametrize("resolution", [3, 16, 64])
    def test_outputs_match_per_polygon_writers(self, resolution, pw, t):
        op = D.build_ulam(tent_power(t, pw), resolution)
        vec = D.ulam_fixed(op)
        dens = D.density_from_vector(op.grid, vec)
        assert D.density_csv(op.grid, vec.values) == ulam_oracle.density_csv(dens)
        assert render_svg(op.grid, vec.values) == ulam_oracle.render_svg(dens.cells)

    def test_outputs_match_per_polygon_writers_at_resolution_128(self):
        self.test_outputs_match_per_polygon_writers(128, 1, 0.939)

    def test_csv_spells_each_value_as_the_per_polygon_writer(self):
        # repeated values, both zeros, the least subnormal and a huge value
        grid = D.UlamGrid.build(tent_power(0.95, 1).region, 16)
        spread = [0.25, -0.0, 0.0, 5e-324, 1e300, 1.0 / 3.0, 0.25, 5e-324]
        values = np.resize(spread, len(grid.cell_areas))
        dens = D.density_from_vector(grid, D.DensityVector(values))
        text = D.density_csv(grid, values)
        assert text == ulam_oracle.density_csv(dens)
        assert ",-0," in text and ",0," in text and ",4.9406564584124654e-324," in text

    def test_csv_heap_peak_at_resolution_128(self):
        op = D.build_ulam(tent_power(0.939, 1), 128)
        vec = D.ulam_fixed(op)
        D.density_csv(op.grid, vec.values)  # first-call imports stay out of the peak
        tracemalloc.start()
        try:
            D.density_csv(op.grid, vec.values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_500_000, f"peak {peak / 1e6:.2f} MB"


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

    def test_reversed_range_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--tmin", "0.99", "--tmax", "0.95", "--resolution", "16", "--out", str(out),
        ])
        assert code == 1
        assert "--tmin/--tmax" in capsys.readouterr().err
        assert not out.exists()

    def test_one_step_writes_the_tmin_row(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--tmin", "0.95", "--tmax", "0.99", "--steps", "1",
            "--resolution", "16", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith(fmt(0.95) + ",")


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
    def test_single_cell_legend(self):
        grid = D.UlamGrid.build(box(0.0, 0.0, 0.5, 0.5), 2)
        text = render_svg(grid, np.array([1.0]))
        assert text.count("<path") == 1
        assert "1.00000 - 1.00000" in text

    def test_two_values_use_ramp_endpoints(self):
        grid = D.UlamGrid.build(box(0.0, 0.0, 1.0, 0.5), 2)
        text = render_svg(grid, np.array([0.0, 1.0]))
        lo = ulam_oracle.ramp_color(0.0)
        hi = ulam_oracle.ramp_color(1.0)
        assert lo in text and hi in text and lo != hi

    def test_monotone_lightness(self):
        def lightness(hexcolor):
            r = int(hexcolor[1:3], 16)
            g = int(hexcolor[3:5], 16)
            b = int(hexcolor[5:7], 16)
            return 0.2126 * r + 0.7152 * g + 0.0722 * b

        ls = [lightness(ulam_oracle.ramp_color(k / 10)) for k in range(11)]
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
            ["verify", "--t", "0.5"],
            ["density", "--t", "0.7", "--resolution", "16"],
            ["lycheck", "--t", "0.7071067811865475", "--power", "3"],
            ["orbit", "--t", "0.5"],
        ],
    )
    def test_t_outside_the_expanding_range_exits_1(self, tmp_path, capsys, args):
        # These exited 0: verify with three FAIL verdicts, density with a
        # density peaking at 38.87, orbit with a Lyapunov exponent of
        # -0.35.  1/sqrt(2) rounds to 0.7071067811865475, and sqrt(2)
        # times it is not above 1.
        out = tmp_path / "x.out"
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --t: ") and err.count("\n") == 1
        assert "(1/sqrt(2), 1]" in err and "sqrt(2) t > 1" in err
        assert not out.exists()

    def test_t_just_inside_the_expanding_range_runs(self, tmp_path):
        out = tmp_path / "x.out"
        assert main(["orbit", "--t", "0.7071067811865476", "--n", "100", "--out", str(out)]) == 0
        assert out.exists()

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


def test_atomic_write_removes_its_temp_file_when_replace_fails(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    target = tmp_path / "out.csv"
    with pytest.raises(OSError, match="replace failed"):
        atomic_write_text(str(target), "data\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w") as handle:
            handle.write("data\n")
        new, rewritten = tmp_path / "new.csv", tmp_path / "rewritten.csv"
        atomic_write_text(str(new), "data\n")
        rewritten.write_text("old\n")
        rewritten.chmod(0o640)
        atomic_write_text(str(rewritten), "data\n")
    finally:
        os.umask(old)
    mode = (tmp_path / "plain.txt").stat().st_mode & 0o777
    assert mode == 0o666 & ~umask
    assert [new.stat().st_mode & 0o777, rewritten.stat().st_mode & 0o777] == [mode, mode]
    assert rewritten.read_text() == "data\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "plain.txt", "rewritten.csv"]


def test_run_builds_the_parser_once_per_process(tmp_path, capsys, monkeypatch):
    bad = [
        ["verify", "--t", "abc"],
        ["verify", "--t", "1.5"],
        ["sweep", "--tmin", "0.95"],
        ["density", "--resolution", "1"],
        ["nosuch"],
        [],
    ]
    fresh = []  # each from a parser built for the call
    for argv in bad:
        cli._parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr().err))
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        again = [(main(argv), capsys.readouterr().err) for argv in bad + bad]
        assert main(["oracle1d", "--cells", "4", "--out", str(tmp_path / "o.csv")]) == 0
        again += [(main(argv), capsys.readouterr().err) for argv in bad]
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert again == fresh * 3
    assert all(code == 1 and err.startswith("error: ") for code, err in fresh)


PUBLIC_NAMES = [
    "AffineMap2", "Branch", "ConditionCertificate", "ConvexPolygon", "DensityVector",
    "EPS_AREA", "EPS_GEOM", "LYRow", "Matrix2", "NormConvention", "OrbitStats",
    "PiecewiseMap", "PiecewisePolyDensity", "Point2", "SweepRow", "TENT_T_MIN", "UlamGrid",
    "UlamOperator", "affine_image", "apply", "birkhoff_average", "build_ulam", "certify",
    "cesaro_fixed_density", "estimate_long_branches", "indicator_density", "inradius",
    "intersect", "l1_distance", "lp_norm", "ly_check", "lyapunov_exponent", "make_tent2d",
    "matrix_norms", "orbit_stats", "power", "push_forward", "stability_sweep", "tent1d_ulam",
    "tent_power", "ulam_fixed", "uniform_density", "variation", "verify_distortion",
    "verify_expansion",
]

ERROR_NAMES = [
    "CellExplosion", "ConfigError", "DegeneratePolygon", "Error", "InvalidPolygon",
    "NotOctilinear", "OutsideRegion", "ParameterOutOfRange", "RegionMismatch",
    "ResolutionTooLow", "SingularMatrix",
]


def test_public_names_are_pinned():
    # A name leaves the package on purpose; this keeps it from coming back
    # unnoticed, and a new one from arriving without a decision.
    public = vars(tentstab).items()
    names = sorted(n for n, v in public if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES
    errors = sorted(n for n, v in vars(tentstab.errors).items() if isinstance(v, type))
    assert errors == ERROR_NAMES


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


def test_only_ulam_matrix_commands_load_scipy_sparse(tmp_path):
    # a fresh interpreter: this test run has scipy.sparse loaded already.
    # The coarsened Cesaro average reads build_ulam's arrays without it,
    # and the 1D matrix export writes a dense matrix's nonzeros.
    src = os.path.dirname(os.path.dirname(os.path.abspath(tentstab.__file__)))
    out = str(tmp_path)
    code = f"""
import os, sys
sys.path.insert(0, {src!r})
from tentstab import cli, density, maps
matrix = ["--matrix-out", os.path.join({out!r}, "om.csv")]
for argv in (["verify", "--power", "2"], ["orbit", "--n", "100"],
             ["lycheck", "--power", "3", "--jmax", "1"], ["oracle1d", "--cells", "16", *matrix]):
    assert cli.main(argv + ["--out", os.path.join({out!r}, argv[0])]) == 0, argv
m = maps.tent_power(0.95, 1)
density.cesaro_fixed_density(m, density.uniform_density(m.region), n_max=3, coarsen=4)
before = "scipy.sparse" in sys.modules
assert cli.main(["density", "--resolution", "8", "--out", os.path.join({out!r}, "d.csv")]) == 0
print(before, "scipy.sparse" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == "False True"
    assert sorted(os.listdir(tmp_path)) == ["d.csv", "lycheck", "om.csv", "oracle1d", "orbit", "verify"]


@pytest.mark.parametrize(
    "value, text",
    [
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (math.nan, "nan"),
        (-0.0, "-0"),
        (7, "7"),
        (np.float64(0.1), "0.10000000000000001"),
        (np.float64(-math.inf), "-inf"),
    ],
)
def test_fmt_spellings(value, text):
    assert fmt(value) == text
