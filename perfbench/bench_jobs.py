"""Seeded job lists of the tentstab benchmark, how one job runs, and the
checks its outputs must pass.

A job is one thing a user runs: one ``tentstab`` CLI command, run in
process through ``tentstab.cli.main`` with its outputs in a temporary
directory, or one top-level library call whose result the benchmark
writes to a text file.  A job is its argument vector; the checks read the
parameters they need back from it, so the program receives only the
generated flags.

Every check below holds for every seed.  On the default seed the job
summaries are also compared with ``reference.json`` at 1e-9 relative.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import time
import traceback
import xml.etree.ElementTree as ET
from typing import NamedTuple

from tentstab import cli, density, experiments, maps

WORKLOADS = ("ulam", "exact", "pointwise")
DEFAULT_SEED = 1
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REFERENCE_RTOL = 1e-9

# Slopes of the interval tent map drawn for oracle1d.  At a = sqrt(2) and
# below the map's core splits into two intervals swapped by the map, and
# the stationary solve runs out of its iteration budget (exit 2); from 1.5
# up it converges within a few hundred iterations.
ORACLE_A_MIN = 1.5


class Job(NamedTuple):
    """One user job: the metric class it is timed under, and its argv.

    ``argv[0]`` is a CLI subcommand or one of LIBRARY_CALLS; the tokens
    "{out}" and "{matrix}" stand for output paths in the job's directory.
    """

    command: str
    argv: tuple[str, ...]


class JobResult(NamedTuple):
    code: int
    seconds: float
    error: str  # captured stderr and any traceback
    files: dict  # output name -> path, for the outputs that exist


def _strata(rng: random.Random, k: int) -> list[float]:
    """k draws of t, one uniform draw in each of k equal strata of
    [TENT_T_MIN, 1], in increasing order.

    Every seed then spans the whole parameter range, and the total work of
    a pass, which grows with t, varies little from seed to seed.
    """
    lo = maps.TENT_T_MIN
    width = (1.0 - lo) / k
    return [min(1.0, lo + (i + rng.random()) * width) for i in range(k)]


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of a workload; fixed, in order, for a given seed."""
    rng = random.Random(f"tentstab-bench:{workload}:{seed}")
    r = repr
    if workload == "ulam":
        s = _strata(rng, 4)
        return [
            Job("density", ("density", "--t", r(s[1]), "--resolution", "128")),
            Job("density", ("density", "--t", "1.0", "--resolution", "64",
                            "--matrix-out", "{matrix}")),
            Job("density", ("density", "--t", r(s[2]), "--power", "2",
                            "--resolution", "64", "--format", "svg")),
            Job("sweep", ("sweep", "--tmin", r(s[0]), "--tmax", r(s[3]),
                          "--resolution", "64", "--steps", "3")),
        ]
    if workload == "exact":
        s = _strata(rng, 5)
        return [
            Job("verify", ("verify", "--t", r(s[0]), "--power", "6")),
            Job("verify", ("verify", "--t", r(s[1]), "--power", "8")),
            Job("lycheck", ("lycheck", "--t", r(s[2]), "--power", "3", "--jmax", "5",
                            "--f0", "uniform")),
            Job("lycheck", ("lycheck", "--t", r(s[3]), "--power", "3", "--jmax", "5",
                            "--f0", "lefthalf")),
            Job("cesaro", ("cesaro", "--t", r(s[4]), "--n-max", "3", "--coarsen", "16")),
        ]
    if workload == "pointwise":
        s = _strata(rng, 3)
        a = ORACLE_A_MIN + (2.0 - ORACLE_A_MIN) * rng.random()
        seeds = [str(rng.randrange(1, 2**31)) for _ in range(4)]
        return [
            Job("orbit", ("orbit", "--t", "1.0", "--n", "1000000", "--seed", seeds[0])),
            Job("orbit", ("orbit", "--t", r(s[0]), "--n", "1000000", "--seed", seeds[1])),
            Job("oracle1d", ("oracle1d", "--a", r(a), "--cells", "512")),
            Job("orbit_lib", ("lyapunov", "--t", r(s[1]), "--n", "50000", "--seed", seeds[2])),
            Job("orbit_lib", ("birkhoff", "--t", r(s[2]), "--n", "50000", "--seed", seeds[3])),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup_jobs(workload: str) -> list[Job]:
    """Small jobs that load every lazily imported module a workload needs."""
    return {
        "ulam": [
            Job("density", ("density", "--t", "0.95", "--resolution", "8",
                            "--matrix-out", "{matrix}")),
            Job("density", ("density", "--t", "0.95", "--power", "2", "--resolution", "8",
                            "--format", "svg")),
            Job("sweep", ("sweep", "--tmin", "0.95", "--tmax", "0.95", "--resolution", "16",
                          "--steps", "1")),
        ],
        "exact": [
            Job("verify", ("verify", "--t", "0.95", "--power", "2")),
            Job("lycheck", ("lycheck", "--t", "0.95", "--power", "3", "--jmax", "1")),
            Job("cesaro", ("cesaro", "--t", "0.95", "--n-max", "1", "--coarsen", "4")),
        ],
        "pointwise": [
            Job("orbit", ("orbit", "--t", "0.95", "--n", "1000", "--seed", "1")),
            Job("oracle1d", ("oracle1d", "--a", "1.8", "--cells", "16")),
            Job("orbit_lib", ("lyapunov", "--t", "0.95", "--n", "100", "--seed", "1")),
            Job("orbit_lib", ("birkhoff", "--t", "0.95", "--n", "100", "--seed", "1")),
        ],
    }[workload]


def flag(argv, name: str, default=None):
    """Value following ``name`` in argv, or default."""
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


# ---------------------------------------------------------------------------
# Running a job
# ---------------------------------------------------------------------------


def _cesaro(argv, out: str) -> None:
    t = float(flag(argv, "--t"))
    m = maps.tent_power(t, 1)
    f0 = density.uniform_density(m.region)
    res = density.cesaro_fixed_density(
        m, f0, n_max=int(flag(argv, "--n-max")), coarsen=int(flag(argv, "--coarsen"))
    )
    lines = [f"iterations,{res.iterations}", f"residual,{res.residual!r}", "area,value"]
    lines += [f"{poly.area!r},{v!r}" for poly, v in res.density.cells]
    _write(out, lines)


def _lyapunov(argv, out: str) -> None:
    t, n, seed = float(flag(argv, "--t")), int(flag(argv, "--n")), int(flag(argv, "--seed"))
    x0 = experiments.seeded_start(t, seed)
    _write(out, [f"lyapunov,{experiments.lyapunov_exponent(t, x0, n, seed)!r}"])


def _birkhoff(argv, out: str) -> None:
    t, n, seed = float(flag(argv, "--t")), int(flag(argv, "--n")), int(flag(argv, "--seed"))
    x0 = experiments.seeded_start(t, seed)
    _write(out, [f"birkhoff_x,{experiments.birkhoff_average(t, 'x', x0, n, seed)!r}"])


def _write(path: str, lines) -> None:
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


LIBRARY_CALLS = {"cesaro": _cesaro, "lyapunov": _lyapunov, "birkhoff": _birkhoff}


def run_job(job: Job, workdir: str) -> JobResult:
    """Run one job with its outputs in workdir; never raises.

    A CLI job's exit code is its code; a library job that returns has
    code 0; any exception gives code -1 and its traceback.
    """
    paths = {"out": os.path.join(workdir, "out"), "matrix": os.path.join(workdir, "matrix")}
    argv = [paths[a[1:-1]] if a in ("{out}", "{matrix}") else a for a in job.argv]
    stderr = io.StringIO()
    code = -1
    start = time.perf_counter()
    try:
        # The program's messages must not reach the benchmark's own stdout.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            if argv[0] in LIBRARY_CALLS:
                LIBRARY_CALLS[argv[0]](argv, paths["out"])
                code = 0
            else:
                code = cli.main(argv + ["--out", paths["out"]])
    except SystemExit as exc:  # argparse rejects a flag
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        stderr.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    files = {name: p for name, p in paths.items() if os.path.exists(p)}
    return JobResult(code, seconds, stderr.getvalue(), files)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    """A job's output violates one of its checks."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _floats(rows, key: str) -> list[float]:
    try:
        out = [float(r[key]) for r in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"column {key!r} is missing or not numeric: {exc}") from None
    _require(all(math.isfinite(v) for v in out), f"column {key!r} has a non-finite value")
    return out


def check_density_csv(path: str, t: float) -> dict:
    """Mass 1 within 1e-9, values >= 0, uniform within 1e-9 at t = 1."""
    rows = _rows(path)
    _require(len(rows) > 0, "density CSV has no cells")
    areas = _floats(rows, "area")
    values = _floats(rows, "value")
    _require(min(values) >= 0.0, f"negative density value {min(values)!r}")
    mass = math.fsum(a * v for a, v in zip(areas, values))
    _require(abs(mass - 1.0) <= 1e-9, f"density mass {mass!r} is not 1")
    if t == 1.0:
        level = 1.0 / math.fsum(areas)
        worst = max(abs(v - level) for v in values)
        _require(worst <= 1e-9, f"t = 1 density is not uniform (max deviation {worst!r})")
    return {"mass": mass, "max": max(values), "cells": float(len(rows))}


def check_matrix_csv(path: str) -> dict:
    """Every row of the Ulam matrix sums to 1 within 1e-12."""
    rows = _rows(path)
    _require(len(rows) > 0, "matrix CSV has no entries")
    sums: dict[int, list[float]] = {}
    for r in rows:
        try:
            i, w = int(r["i"]), float(r["weight"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"bad matrix entry {r!r}: {exc}") from None
        sums.setdefault(i, []).append(w)
    _require(sorted(sums) == list(range(len(sums))), "matrix has an empty row")
    worst = max(abs(math.fsum(ws) - 1.0) for ws in sums.values())
    _require(worst <= 1e-12, f"matrix row sum is off 1 by {worst!r}")
    return {"nnz": float(len(rows))}


def check_density_svg(path: str, resolution: int) -> dict:
    """One filled path per grid cell, and a numeric legend.

    The square grid of side 1/n meets the triangle (0,0), (2,0), (1,1) in
    2n - 2*iy cells on row iy, n*n + n cells in all.
    """
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from None
    ns = "{http://www.w3.org/2000/svg}"
    paths = root.findall(f"{ns}path")
    expected = resolution * resolution + resolution
    _require(len(paths) == expected, f"SVG has {len(paths)} cells, expected {expected}")
    legend = root.find(f"{ns}text")
    _require(legend is not None and legend.text is not None, "SVG has no legend")
    try:
        vmin, vmax = (float(x) for x in legend.text.split(" - "))
    except ValueError:
        raise CheckFailed(f"SVG legend {legend.text!r} is not a value range") from None
    _require(0.0 <= vmin <= vmax, f"SVG legend range {legend.text!r} is invalid")
    return {"vmin": vmin, "vmax": vmax}


def check_sweep_csv(path: str, steps: int) -> dict:
    """One row per step, finite distances, and equal total mass (gap_1)."""
    rows = _rows(path)
    _require(len(rows) == steps, f"sweep has {len(rows)} rows, expected {steps}")
    l1 = _floats(rows, "l1_dist")
    _require(min(l1) >= 0.0, "negative L1 distance")
    gap1 = _floats(rows, "gap_1")
    _require(max(gap1) <= 1e-9, f"sweep densities differ in mass by {max(gap1)!r}")
    out = {f"l1_{k}": v for k, v in enumerate(l1)}
    out.update({f"gap_x_{k}": v for k, v in enumerate(_floats(rows, "gap_x"))})
    return out


def check_certificates(path: str, t: float, power: int) -> dict:
    """All three conventions present; PaperFormula lambda equals
    (1/(2t))^p (1 + 1/beta) within 1e-12 relative."""
    try:
        with open(path) as handle:
            certs = json.load(handle)
        by_conv = {c["norm_convention"]: c for c in certs}
        paper = by_conv["PaperFormula"]
        lam, beta = float(paper["lambda"]), float(paper["beta"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"certificate JSON is malformed: {exc}") from None
    _require(
        sorted(by_conv) == ["MaxEntry", "PaperFormula", "Spectral"],
        f"certificate conventions are {sorted(by_conv)}",
    )
    expected = (1.0 / (2.0 * t)) ** power * (1.0 + 1.0 / beta)
    _require(
        abs(lam - expected) <= 1e-12 * abs(expected),
        f"PaperFormula lambda {lam!r} != (1/(2t))^p (1 + 1/beta) = {expected!r}",
    )
    out = {f"lambda_{k}": float(c["lambda"]) for k, c in by_conv.items()}
    out.update(beta=beta, rho=float(paper["rho"]))
    return out


def check_lycheck_csv(path: str, jmax: int) -> dict:
    """Rows j = 0..jmax, every variation ratio <= 1."""
    rows = _rows(path)
    _require(len(rows) == jmax + 1, f"lycheck has {len(rows)} rows, expected {jmax + 1}")
    ratios = _floats(rows, "ratio")
    _require(max(ratios) <= 1.0, f"variation exceeds the certified bound: ratio {max(ratios)!r}")
    return {"ratio_last": ratios[-1], "variation_last": _floats(rows, "variation_j")[-1]}


def check_cesaro(path: str) -> dict:
    """Averaged density has mass 1 within 1e-9 and no negative value."""
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
        residual = float(lines[1].split(",")[1])
        cells = [tuple(float(x) for x in line.split(",")) for line in lines[3:]]
    except (OSError, IndexError, ValueError) as exc:
        raise CheckFailed(f"cesaro output is malformed: {exc}") from None
    _require(len(cells) > 0, "cesaro density has no cells")
    values = [v for _, v in cells]
    _require(min(values) >= 0.0, f"negative cesaro value {min(values)!r}")
    mass = math.fsum(a * v for a, v in cells)
    _require(abs(mass - 1.0) <= 1e-9, f"cesaro mass {mass!r} is not 1")
    return {"residual": residual, "max": max(values)}


def _check_lyapunov(value: float, t: float, n: int) -> None:
    """The exponent is log(sqrt(2) t) within 1e-12, or within the error
    bound of adding n logarithms one at a time, (n - 1) u |sum| with
    u = 2^-53, when that is larger (3.9e-11 at n = 1e6)."""
    expected = math.log(math.sqrt(2.0) * t)
    tol = max(1e-12, n * 2.0**-53 * abs(expected))
    _require(
        abs(value - expected) <= tol,
        f"Lyapunov exponent {value!r} != log(sqrt(2) t) = {expected!r} within {tol:.2g}",
    )


def check_orbit_csv(path: str, t: float, n: int) -> dict:
    """Lyapunov exponent log(sqrt(2) t) (see _check_lyapunov); birkhoff_1 is 1."""
    rows = _rows(path)
    _require(len(rows) == 1, f"orbit CSV has {len(rows)} rows, expected 1")
    _check_lyapunov(_floats(rows, "lyapunov")[0], t, n)
    _require(_floats(rows, "birkhoff_1")[0] == 1.0, "birkhoff_1 is not 1")
    return {"birkhoff_x": _floats(rows, "birkhoff_x")[0], "birkhoff_y2": _floats(rows, "birkhoff_y2")[0]}


def check_oracle_csv(path: str) -> dict:
    """Fixed density of the interval map has mass 1 within 1e-9."""
    rows = _rows(path)
    _require(len(rows) > 0, "oracle1d CSV has no cells")
    left, right, values = (_floats(rows, k) for k in ("left", "right", "value"))
    _require(min(values) >= 0.0, f"negative oracle density {min(values)!r}")
    mass = math.fsum((b - a) * v for a, b, v in zip(left, right, values))
    _require(abs(mass - 1.0) <= 1e-9, f"oracle1d mass {mass!r} is not 1")
    return {"max": max(values)}


def _single_value(path: str, key: str) -> float:
    try:
        with open(path) as handle:
            name, value = handle.read().strip().split(",")
        _require(name == key, f"expected {key!r}, found {name!r}")
        return float(value)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{key} output is malformed: {exc}") from None


def check_output(job: Job, files: dict) -> dict:
    """Seed-independent checks of one job's outputs; returns its summary.

    Raises CheckFailed on the first violated check.
    """
    argv = job.argv
    _require("out" in files, "job wrote no output")
    out = files["out"]
    sub = argv[0]
    if sub == "density":
        if flag(argv, "--format") == "svg":
            summary = check_density_svg(out, int(flag(argv, "--resolution")))
        else:
            summary = check_density_csv(out, float(flag(argv, "--t")))
        if "--matrix-out" in argv:
            _require("matrix" in files, "job wrote no matrix")
            summary.update(check_matrix_csv(files["matrix"]))
        return summary
    if sub == "sweep":
        return check_sweep_csv(out, int(flag(argv, "--steps")))
    if sub == "verify":
        return check_certificates(out, float(flag(argv, "--t")), int(flag(argv, "--power")))
    if sub == "lycheck":
        return check_lycheck_csv(out, int(flag(argv, "--jmax")))
    if sub == "cesaro":
        return check_cesaro(out)
    if sub == "orbit":
        return check_orbit_csv(out, float(flag(argv, "--t")), int(flag(argv, "--n")))
    if sub == "oracle1d":
        return check_oracle_csv(out)
    if sub == "lyapunov":
        value = _single_value(out, "lyapunov")
        _check_lyapunov(value, float(flag(argv, "--t")), int(flag(argv, "--n")))
        return {"lyapunov": value}
    if sub == "birkhoff":
        value = _single_value(out, "birkhoff_x")
        _require(0.0 <= value <= 2.0, f"Birkhoff average of x {value!r} outside [0, 2]")
        return {"birkhoff_x": value}
    raise CheckFailed(f"no check for job {sub!r}")


def check_job(job: Job, result: JobResult) -> tuple[dict, str]:
    """(summary, failure reason); the reason is empty for a passing job.

    A job fails if it raises, exits nonzero, or fails its output check.
    """
    if result.code != 0:
        return {}, f"exit code {result.code}: {result.error.strip()[-400:]}"
    try:
        return check_output(job, result.files), ""
    except CheckFailed as exc:
        return {}, str(exc)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def compare_reference(entry: dict, job: Job, summary: dict) -> str:
    """Mismatch between a job's summary and the values pinned for it on the
    default seed, compared at REFERENCE_RTOL relative; empty if none."""
    if entry["argv"] != list(job.argv):
        return f"job {list(job.argv)} differs from the pinned {entry['argv']}"
    for key, ref in entry["summary"].items():
        got = summary.get(key)
        if got is None or not math.isclose(got, ref, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
            return f"{key} = {got!r} differs from the pinned {ref!r}"
    return ""
