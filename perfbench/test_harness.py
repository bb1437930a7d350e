"""Tests of the benchmark harness itself: its job lists, output checks and
tracer.  They cover the harness, not the program.

    PYTHONPATH=src python3 -m pytest perfbench/test_harness.py
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_jobs as J  # noqa: E402
import bench_trace as T  # noqa: E402
from tentstab import TENT_T_MIN, density, geom2d, maps  # noqa: E402


def _write(path, text):
    path.write_text(text)
    return str(path)


DENSITY_CSV = (
    "cell_id,area,centroid_x,centroid_y,value,n_vertices\n"
    "0,0.5,0.5,0.2,0.8,3\n"
    "1,0.5,1.5,0.2,1.2,3\n"
)


def test_density_check_accepts_unit_mass(tmp_path):
    summary = J.check_density_csv(_write(tmp_path / "d.csv", DENSITY_CSV), 0.95)
    assert summary["mass"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "corrupt",
    [
        DENSITY_CSV.replace("1.2,3", "1.3,3"),  # mass 1.05
        DENSITY_CSV.replace("0.8,3", "-0.1,3").replace("1.2,3", "2.1,3"),  # negative
        DENSITY_CSV.replace("1.2,3", "nan,3"),
        DENSITY_CSV.replace("0.5,1.5", "x,1.5"),
        DENSITY_CSV.splitlines()[0] + "\n",  # no cells
    ],
)
def test_density_check_rejects_corrupted_csv(tmp_path, corrupt):
    with pytest.raises(J.CheckFailed):
        J.check_density_csv(_write(tmp_path / "d.csv", corrupt), 0.95)


def test_density_check_requires_uniform_at_t1(tmp_path):
    path = _write(tmp_path / "d.csv", DENSITY_CSV)
    with pytest.raises(J.CheckFailed, match="uniform"):
        J.check_density_csv(path, 1.0)


def test_matrix_check_rejects_rows_not_summing_to_one(tmp_path):
    good = "i,j,weight\n0,0,0.25\n0,1,0.75\n1,0,1\n"
    assert J.check_matrix_csv(_write(tmp_path / "m.csv", good))["nnz"] == 3.0
    for bad in (good.replace("0.75", "0.7500001"), good.replace("1,0,1", "2,0,1")):
        with pytest.raises(J.CheckFailed):
            J.check_matrix_csv(_write(tmp_path / "m.csv", bad))


def test_lyapunov_check_rejects_wrong_value(tmp_path):
    t = 0.93
    exact = math.log(math.sqrt(2.0) * t)
    header = (
        "t,seed,n,lyapunov,birkhoff_1,birkhoff_x,birkhoff_y,birkhoff_x2,birkhoff_xy,birkhoff_y2\n"
    )
    row = f"{t!r},1,50000,{{}},1,1.0,0.3,1.1,0.3,0.1\n"
    ok = _write(tmp_path / "o.csv", header + row.format(repr(exact)))
    J.check_orbit_csv(ok, t, 50000)
    bad = _write(tmp_path / "o.csv", header + row.format(repr(exact + 1e-9)))
    with pytest.raises(J.CheckFailed, match="Lyapunov"):
        J.check_orbit_csv(bad, t, 50000)
    lib = J.Job("orbit_lib", ("lyapunov", "--t", repr(t), "--n", "50000", "--seed", "3"))
    _write(tmp_path / "out", f"lyapunov,{exact + 1e-9!r}\n")
    with pytest.raises(J.CheckFailed, match="Lyapunov"):
        J.check_output(lib, {"out": str(tmp_path / "out")})


def test_failed_job_is_reported_with_its_exit_code():
    result = J.JobResult(2, 0.1, "unconverged", {})
    _, reason = J.check_job(J.Job("density", ("density",)), result)
    assert reason.startswith("exit code 2")


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_fixed_seed_gives_fixed_job_list(workload):
    jobs = J.make_jobs(workload, 7)
    assert jobs == J.make_jobs(workload, 7)
    assert jobs != J.make_jobs(workload, 8)
    for job in jobs:
        t = J.flag(job.argv, "--t")
        if t is not None:
            assert TENT_T_MIN <= float(t) <= 1.0


def test_reference_matches_default_job_lists():
    reference = J.load_reference()
    for workload in J.WORKLOADS:
        jobs = J.make_jobs(workload, J.DEFAULT_SEED)
        assert [e["argv"] for e in reference[workload]] == [list(j.argv) for j in jobs]


def test_reference_comparison_flags_drift():
    job = J.Job("orbit_lib", ("lyapunov", "--t", "0.9"))
    entry = {"argv": list(job.argv), "summary": {"lyapunov": 0.25}}
    assert J.compare_reference(entry, job, {"lyapunov": 0.25 * (1 + 1e-10)}) == ""
    assert J.compare_reference(entry, job, {"lyapunov": 0.25 * (1 + 1e-8)}) != ""


def test_tracer_wraps_every_binding_and_restores_them():
    tracer = T.Tracer()
    original = density.intersect
    tracer.install()
    try:
        assert tracer.escaped() == []
        assert density.intersect is maps.intersect is geom2d.intersect
        assert density.intersect is not original
        m = maps.tent_power(0.95, 2)
        density.build_ulam(m, 8)
        trace = tracer.collect()
    finally:
        tracer.uninstall()
    assert density.intersect is original and geom2d.intersect is original
    assert tracer.escaped() != []  # unwrapped again
    calls = trace.call_counts()
    assert calls["maps.power"] == 1 and calls["density.build_ulam"] == 1
    assert calls["density.UlamGrid.build"] == 1 and calls["geom2d.intersect"] > 0
    # Self times partition the root spans' durations.
    roots = trace.parent < 0
    total = float((trace.end - trace.start)[roots].sum())
    assert float(trace.self_times().sum()) == pytest.approx(total, rel=1e-9)
