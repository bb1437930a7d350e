"""tentstab benchmark: seeded job-mix workloads with checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ulam --seed 1 --seconds 30 --trace 0

One client runs one job at a time (a closed loop) in this single process
and thread.  A pass is one run of the workload's job list; after one
untimed warm-up pass of small jobs, passes repeat while the next one
should end within ``--seconds`` (at least one pass).  Every job's outputs
are checked after its pass, outside the timed loop.  Set-up time and its
split are measured in fresh interpreters.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` one untraced pass is followed by two traced passes, the
coverage guard runs, and the last line reports the per-layer metrics.
Results and spans are written under ``.bench_out/`` in the checkout.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import os

# BLAS and OpenMP pools read these when numpy loads; pin them first, in
# this process and in the set-up interpreters it starts.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import NamedTuple  # noqa: E402

from bench_calib import CAL_REF_S, calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
SELF_TIME_TOLERANCE = 0.05
COMMANDS = ("density", "sweep", "verify", "lycheck", "cesaro", "orbit", "oracle1d", "orbit_lib")

# Imports the program the way a CLI invocation does, split at scipy.optimize.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import scipy.optimize
t1 = time.perf_counter()
import tentstab.cli
t2 = time.perf_counter()
print(json.dumps({"scipy_optimize_s": t1 - t0, "tentstab_s": t2 - t1,
                  "file": tentstab.cli.__file__}))
"""


class SourceMissing(Exception):
    """The checkout holds no tentstab sources to benchmark."""


def _under_src(path: str) -> bool:
    return os.path.abspath(path).startswith(SRC + os.sep)


def import_program():
    """Import tentstab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "tentstab", "cli.py")):
        raise SourceMissing(f"no tentstab sources under {SRC}")
    sys.path.insert(0, SRC)
    import tentstab

    if not _under_src(tentstab.__file__):
        raise SourceMissing(f"tentstab was imported from {tentstab.__file__}, not {SRC}")


def measure_setup() -> dict:
    """Wall time from start to the end of ``import tentstab.cli`` in fresh
    interpreters, with the median of the import split at scipy.optimize
    and a calibration sample before each.  The first interpreter is
    discarded: it may compile bytecode."""
    walls, scipy_s, tentstab_s, cal = [], [], [], []
    for k in range(SETUP_RUNS + 1):
        cal.append(calibrate())
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        wall = time.perf_counter() - start
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if not _under_src(report["file"]):
            raise SourceMissing(f"set-up interpreter imported {report['file']}")
        if k:
            walls.append(wall)
            scipy_s.append(report["scipy_optimize_s"])
            tentstab_s.append(report["tentstab_s"])
    return {
        "walls": walls,
        "calibration": cal,
        "setup.import_scipy_optimize_s": statistics.median(scipy_s),
        "setup.import_tentstab_s": statistics.median(tentstab_s),
    }


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class PassResult(NamedTuple):
    wall: float  # sum of the job latencies
    calibration: list  # samples taken before each job
    latencies: list
    failures: list  # (job index, reason)
    digests: list  # per job: {output name: sha256}


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run_pass(jobs, scratch: str, reference=None, tracer=None) -> PassResult:
    """Run the job list once, timing each job, then check its outputs."""
    from bench_jobs import check_job, compare_reference, run_job

    pass_dir = tempfile.mkdtemp(dir=scratch)
    workdirs = [os.path.join(pass_dir, str(i)) for i in range(len(jobs))]
    for d in workdirs:
        os.mkdir(d)
    results, calibration = [], []
    for i, (job, workdir) in enumerate(zip(jobs, workdirs)):
        calibration.append(calibrate())
        if tracer is not None:
            tracer.job = i
        results.append(run_job(job, workdir))
    if tracer is not None:
        tracer.job = -1
    failures, digests = [], []
    for i, (job, result) in enumerate(zip(jobs, results)):
        summary, reason = check_job(job, result)
        if not reason and reference is not None:
            reason = compare_reference(reference[i], job, summary)
        if reason:
            failures.append((i, reason))
        digests.append({name: _digest(p) for name, p in sorted(result.files.items())})
    shutil.rmtree(pass_dir)
    latencies = [r.seconds for r in results]
    return PassResult(sum(latencies), calibration, latencies, failures, digests)


def at_reference_speed(passes) -> float:
    """Mean pass time scaled to the reference speed (see bench_calib) by the
    ratio of the passes' total time to the total time of the calibration
    samples interleaved with their jobs."""
    walls = statistics.mean(p.wall for p in passes)
    calibration = statistics.mean(c for p in passes for c in p.calibration)
    return walls * CAL_REF_S / calibration


def command_latencies(jobs, passes) -> dict:
    """Per command: median over passes of the median over its jobs."""
    out = {}
    for command in COMMANDS:
        idx = [i for i, job in enumerate(jobs) if job.command == command]
        if idx:
            out[f"{command}_s"] = statistics.median(
                statistics.median(p.latencies[i] for i in idx) for p in passes
            )
        else:
            out[f"{command}_s"] = 0.0
    return out


def layer_metrics(trace, jobs) -> dict:
    """Per-layer metrics of one traced pass."""
    import numpy as np

    index = {name: i for i, name in enumerate(trace.names)}
    n = len(trace.names)
    self_s = np.bincount(trace.name, weights=trace.self_times(), minlength=n)
    total_s = np.bincount(trace.name, weights=trace.end - trace.start, minlength=n)
    calls = trace.call_counts()

    def own(name):
        return float(self_s[index[name]])

    def total(name):
        return float(total_s[index[name]])

    def count(name, key):
        return trace.counts.get((name, key), 0)

    def per(num, den):
        return num / den if den else 0.0

    verify_jobs = [i for i, job in enumerate(jobs) if job.argv[0] == "verify"]
    certify_in_verify = int(
        np.count_nonzero(
            (trace.name == index["maps.certify"]) & np.isin(trace.job, verify_jobs)
        )
    )
    m = {
        "geom2d.intersect.calls": calls["geom2d.intersect"],
        "geom2d.intersect.hit_ratio": per(
            count("geom2d.intersect", "hits"), calls["geom2d.intersect"]
        ),
        "geom2d.intersect.self_s": own("geom2d.intersect"),
        "geom2d.clip_verts.calls": count("geom2d.clip_verts", "calls"),
        "geom2d.inradius.calls": calls["geom2d.inradius"],
        "geom2d.inradius.self_s": own("geom2d.inradius"),
        "geom2d.monomial_integral.self_s": own("geom2d.monomial_integral"),
        "maps.power.self_s": own("maps.power"),
        "maps.power.branches": count("maps.power", "branches"),
        "maps.certify.calls_per_job": per(certify_in_verify, len(verify_jobs)),
        "maps.certify.self_s": own("maps.certify"),
        "density.UlamGrid.build.self_s": own("density.UlamGrid.build"),
        "density.UlamGrid.build.cells": count("density.UlamGrid.build", "cells"),
        "density.build_ulam.self_s": own("density.build_ulam"),
        "density.build_ulam.us_per_cell": 1e6
        * per(total("density.build_ulam"), count("density.build_ulam", "cells")),
        "density.build_ulam.nnz": count("density.build_ulam", "nnz"),
        "density.ulam_fixed.self_s": own("density.ulam_fixed"),
        "density.ulam_fixed.iterations": count("density.ulam_fixed", "iterations"),
        "density.ulam_fixed.us_per_iter": 1e6
        * per(total("density.ulam_fixed"), count("density.ulam_fixed", "iterations")),
        "density.ulam_fixed.bytes_per_iter": per(
            count("density.ulam_fixed", "bytes"), count("density.ulam_fixed", "iterations")
        ),
        "density.push_forward.self_s": own("density.push_forward"),
        "density.push_forward.out_cells": count("density.push_forward", "out_cells"),
        "density.push_forward.us_per_out_cell": 1e6
        * per(total("density.push_forward"), count("density.push_forward", "out_cells")),
        "density.variation.self_s": own("density.variation"),
        "density.project_to_grid.self_s": own("density.project_to_grid"),
        "density.cesaro_fixed_density.self_s": own("density.cesaro_fixed_density"),
        "density.stationary_masses.self_s": own("density.stationary_masses"),
        "experiments.stability_sweep.self_s": own("experiments.stability_sweep"),
        "experiments.orbit_stats.steps_per_s": per(
            count("experiments.orbit_stats", "steps"), total("experiments.orbit_stats")
        ),
        "experiments.orbit_stats.reseeds": count("experiments.orbit_stats", "reseeds"),
        "experiments.lyapunov_exponent.steps_per_s": per(
            count("experiments.lyapunov_exponent", "steps"),
            total("experiments.lyapunov_exponent"),
        ),
        "experiments.birkhoff_average.steps_per_s": per(
            count("experiments.birkhoff_average", "steps"),
            total("experiments.birkhoff_average"),
        ),
        "experiments.tent1d_ulam.self_s": own("experiments.tent1d_ulam"),
        "cli.self_s": own("cli"),
        "density.density_csv.self_s": own("density.density_csv"),
        "density.ulam_matrix_csv.self_s": own("density.ulam_matrix_csv"),
        "ioutil.atomic_write_text.self_s": own("ioutil.atomic_write_text"),
        "ioutil.atomic_write_text.bytes": count("ioutil.atomic_write_text", "bytes"),
    }
    return {k: float(v) for k, v in m.items()}


def traced_run(jobs, scratch, reference, untraced: PassResult, spans_path: str):
    """Two traced passes plus the coverage guard.

    Returns (per-layer metrics, traced passes, guard problems)."""
    from bench_trace import Tracer, counters, save_spans

    tracer = Tracer()
    tracer.install()
    problems = [f"binding escaped wrapping: {b}" for b in tracer.escaped()]
    passes, traces = [], []
    try:
        for _ in range(2):
            tracer.reset()
            passes.append(run_pass(jobs, scratch, reference, tracer))
            traces.append(tracer.collect())
    finally:
        tracer.uninstall()
        tracer.reset()
    for k, (p, trace) in enumerate(zip(passes, traces), 1):
        if p.digests != untraced.digests:
            problems.append(f"traced pass {k} outputs differ from the untraced pass")
        covered = float(trace.self_times().sum())
        if abs(covered - p.wall) > SELF_TIME_TOLERANCE * p.wall:
            problems.append(
                f"traced pass {k}: self times sum to {covered:.3f} s, "
                f"pass took {p.wall:.3f} s"
            )
    if counters(traces[0]) != counters(traces[1]):
        problems.append("the two traced passes gave different counters")
    save_spans(spans_path, traces[0])
    per_pass = [layer_metrics(trace, jobs) for trace in traces]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    return metrics, passes, problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ulam", "exact", "pointwise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
        setup = measure_setup()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from bench_jobs import DEFAULT_SEED, load_reference, make_jobs, warmup_jobs

    env = environment()
    jobs = make_jobs(args.workload, args.seed)
    reference = load_reference()[args.workload] if args.seed == DEFAULT_SEED else None
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        run_pass(warmup_jobs(args.workload), scratch)
        start = time.perf_counter()
        passes = [run_pass(jobs, scratch, reference)]
        # Start another pass only if it should end within the budget, so a
        # slow machine runs fewer passes rather than a longer run.  A traced
        # run spends its time on the traced passes instead.
        while not args.trace and (
            time.perf_counter() - start + passes[-1].wall <= args.seconds
        ):
            passes.append(run_pass(jobs, scratch, reference))
        traced, problems, layer = [], [], {}
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{tag}.npz")
            layer, traced, problems = traced_run(jobs, scratch, reference, passes[0], spans_path)
    wall_s = statistics.median(p.wall for p in passes)
    setup_wall_s = statistics.median(setup["walls"])
    calibration = [c for p in passes for c in p.calibration]
    calibration_s = statistics.mean(calibration)
    setup_calibration_s = statistics.median(setup["calibration"])
    run_s = at_reference_speed(passes)
    latencies = command_latencies(jobs, passes)
    if args.trace:
        layer.update(latencies)
        layer["setup.import_scipy_optimize_s"] = setup["setup.import_scipy_optimize_s"]
        layer["setup.import_tentstab_s"] = setup["setup.import_tentstab_s"]
        layer["run_wall_s"] = wall_s
        layer["calibration_s"] = calibration_s
        layer["trace.overhead_s"] = at_reference_speed(traced) - run_s
    attempted = len(jobs) * (len(passes) + len(traced))
    failures = [
        (k, i, reason) for k, p in enumerate(passes + traced) for i, reason in p.failures
    ]
    # Set-up is scaled by the calibration samples taken beside it.
    end_to_end = {
        "run_s": run_s,
        "setup_s": setup_wall_s * CAL_REF_S / setup_calibration_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    values = layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"tentstab benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"environment: {json.dumps(env)}")
    print(f"{len(passes)} untraced and {len(traced)} traced passes, {attempted} jobs "
          f"attempted, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:g})")
    for k, i, reason in failures:
        print(f"  FAILED pass {k} job {i} {' '.join(jobs[i].argv)}: {reason}")
    for problem in problems:
        print(f"  GUARD {problem}")
    for name, value in end_to_end.items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(f"  {name:<14} {value:.6g} {unit}")
    print(f"  measured: pass {wall_s:.6g} s, set-up {setup_wall_s:.6g} s; calibration "
          f"{calibration_s:.6g} s (set-up {setup_calibration_s:.6g} s), "
          f"{CAL_REF_S:g} s at the reference speed")
    for name, value in latencies.items():
        if value:  # a command the workload does not run has no latency
            print(f"  {name:<14} {value:.6g} s measured")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "jobs": [list(j.argv) for j in jobs],
        "pass_walls_s": [p.wall for p in passes],
        "job_latencies_s": [p.latencies for p in passes],
        "traced_walls_s": [p.wall for p in traced], "failures": failures,
        "calibration_s": calibration, "setup_calibration_s": setup["calibration"],
        "setup_walls_s": setup["walls"],
        "guard_problems": problems, "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
