"""Command-line front end.

Subcommands: verify (contraction certificates), density (invariant density
as CSV or SVG heatmap), sweep (parameter sweep of L1/weak-star gaps),
lycheck (variation growth against the certified bound), orbit (Lyapunov
exponent and Birkhoff averages), oracle1d (interval tent-map oracle).

All outputs are written atomically and are byte-identical across reruns
with the same flags; numeric fields carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .density import (
    build_ulam,
    density_csv,
    density_from_vector,
    indicator_density,
    ulam_fixed,
    uniform_density,
)
from .errors import ConfigError, Error
from .experiments import (
    ly_check,
    orbit_csv,
    orbit_stats,
    seeded_start,
    stability_sweep,
    sweep_csv,
    ly_csv,
    tent1d_ulam,
)
from .geom2d import ConvexPolygon
from .ioutil import atomic_write_text, fmt
from .maps import TENT_T_MIN, NormConvention, certify, tent_power

DEFAULT_SEED = 20240101
DEFAULT_RESOLUTION = 64
DEFAULT_TOL = 1e-8
CANVAS_W = 1024
CANVAS_H = 640

# Monotone-lightness color ramp endpoints (dark to light, RGB in [0,1]).
RAMP_LO = (0.13, 0.15, 0.38)
RAMP_HI = (0.99, 0.97, 0.80)


@dataclass(frozen=True)
class RunConfig:
    command: str
    t: float = 1.0
    t0: float = 1.0
    tmin: float = TENT_T_MIN
    tmax: float = 1.0
    steps: int = 5
    power: int = 1
    resolution: int = DEFAULT_RESOLUTION
    n: int = 1000
    seed: int = DEFAULT_SEED
    jmax: int = 4
    tol: float = DEFAULT_TOL
    out_path: str = ""
    format: str = "csv"
    convention: str = "PaperFormula"
    f0: str = "uniform"
    a: float = 2.0
    cells: int = 64
    matrix_out: Optional[str] = None


@dataclass(frozen=True)
class SvgHeatmap:
    """Filled-cell heatmap on a fixed 1024x640 canvas with a 5% margin."""

    cells: tuple[tuple[ConvexPolygon, float], ...]
    value_range: tuple[float, float]


def heatmap_from_cells(cells) -> SvgHeatmap:
    values = [v for _, v in cells]
    if not values:
        return SvgHeatmap((), (0.0, 0.0))
    return SvgHeatmap(tuple(cells), (min(values), max(values)))


def _ramp_color(frac: float) -> str:
    frac = min(1.0, max(0.0, frac))
    channels = [
        round(255 * (lo + frac * (hi - lo)))
        for lo, hi in zip(RAMP_LO, RAMP_HI)
    ]
    return "#{:02x}{:02x}{:02x}".format(*channels)


def render_svg(h: SvgHeatmap) -> str:
    """Standalone SVG text; same heatmap always renders to the same bytes."""
    if not h.cells:
        raise ConfigError("cannot render an empty heatmap (no cells)")
    xs = [v[0] for poly, _ in h.cells for v in poly.vertices]
    ys = [v[1] for poly, _ in h.cells for v in poly.vertices]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span_x = max(xmax - xmin, 1e-12)
    span_y = max(ymax - ymin, 1e-12)
    scale = min(0.90 * CANVAS_W / span_x, 0.90 * CANVAS_H / span_y)
    off_x = 0.5 * (CANVAS_W - scale * span_x)
    off_y = 0.5 * (CANVAS_H - scale * span_y)

    def to_px(p):
        px = off_x + (p[0] - xmin) * scale
        py = CANVAS_H - (off_y + (p[1] - ymin) * scale)
        return f"{px:.3f},{py:.3f}"

    vmin, vmax = h.value_range
    spread = vmax - vmin
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
        f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'<rect width="{CANVAS_W}" height="{CANVAS_H}" fill="#ffffff"/>',
    ]
    for poly, value in h.cells:
        frac = 0.5 if spread <= 0.0 else (value - vmin) / spread
        points = " L ".join(to_px(v) for v in poly.vertices)
        parts.append(f'<path d="M {points} Z" fill="{_ramp_color(frac)}"/>')
    swatches = 16
    sw = 12.0
    x0 = 12.0
    y0 = CANVAS_H - 24.0
    for k in range(swatches):
        color = _ramp_color(k / (swatches - 1))
        parts.append(
            f'<rect x="{x0 + k * sw:.3f}" y="{y0:.3f}" width="{sw:.3f}" '
            f'height="12.000" fill="{color}"/>'
        )
    legend = f"{vmin:#.6g} - {vmax:#.6g}"
    parts.append(
        f'<text x="{x0 + swatches * sw + 8:.3f}" y="{y0 + 10:.3f}" '
        f'font-family="monospace" font-size="13">{legend}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(h: SvgHeatmap, path: str) -> None:
    atomic_write_text(path, render_svg(h))


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _require(cond: bool, flag: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{flag}: {msg}")


def _require_tol(cfg: RunConfig) -> None:
    _require(
        math.isfinite(cfg.tol) and cfg.tol > 0.0,
        "--tol",
        f"must be finite and > 0, got {cfg.tol!r}",
    )


def _cmd_verify(cfg: RunConfig) -> int:
    _require(0.0 < cfg.t <= 1.0, "--t", f"must lie in (0, 1], got {cfg.t!r}")
    _require(cfg.power >= 1, "--power", "must be >= 1")
    cert = certify(tent_power(cfg.t, cfg.power))
    certs = [replace(cert, norm_convention=conv) for conv in NormConvention]
    text = "[\n" + ",\n".join(c.to_json() for c in certs) + "\n]\n"
    atomic_write_text(cfg.out_path, text)
    verdicts = " ".join(
        f"{c.norm_convention.value}={'ok' if c.satisfied else 'FAIL'}" for c in certs
    )
    print(f"verify t={fmt(cfg.t)} power={cfg.power}: {verdicts} -> {cfg.out_path}")
    return 0


def _cmd_density(cfg: RunConfig) -> int:
    _require(0.0 < cfg.t <= 1.0, "--t", f"must lie in (0, 1], got {cfg.t!r}")
    _require(cfg.resolution >= 2, "--resolution", "must be >= 2")
    _require(cfg.format in ("csv", "svg"), "--format", "must be csv or svg")
    _require_tol(cfg)
    op = build_ulam(tent_power(cfg.t, cfg.power), cfg.resolution)
    vec = ulam_fixed(op, cfg.tol)
    dens = density_from_vector(op.grid, vec)
    if cfg.format == "svg":
        emit_svg(heatmap_from_cells(dens.cells), cfg.out_path)
    else:
        atomic_write_text(cfg.out_path, density_csv(dens))
    if cfg.matrix_out:
        from .density import ulam_matrix_csv

        atomic_write_text(cfg.matrix_out, ulam_matrix_csv(op))
    lo = float(np.min(vec.values))
    hi = float(np.max(vec.values))
    print(
        f"density t={fmt(cfg.t)} power={cfg.power} resolution={cfg.resolution}: "
        f"range [{fmt(lo)}, {fmt(hi)}], residual {fmt(vec.residual)} "
        f"after {vec.iterations} iterations -> {cfg.out_path}"
    )
    return 0 if vec.converged else 2


def _cmd_sweep(cfg: RunConfig) -> int:
    lo = TENT_T_MIN - 1e-12
    _require(cfg.steps >= 1, "--steps", "must be >= 1")
    _require(cfg.resolution >= 16, "--resolution", "must be >= 16 for sweeps")
    _require(
        lo <= cfg.tmin <= cfg.tmax <= 1.0,
        "--tmin/--tmax",
        f"must satisfy {TENT_T_MIN:.6f} <= tmin <= tmax <= 1",
    )
    _require(lo <= cfg.t0 <= 1.0, "--t0", f"must lie in [{TENT_T_MIN:.6f}, 1]")
    _require_tol(cfg)
    if cfg.steps == 1:
        ts = [cfg.tmin]
    else:
        step = (cfg.tmax - cfg.tmin) / (cfg.steps - 1)
        ts = [cfg.tmin + k * step for k in range(cfg.steps)]
    rows = stability_sweep(cfg.t0, ts, cfg.resolution, cfg.power, cfg.tol)
    atomic_write_text(cfg.out_path, sweep_csv(rows))
    worst = max(r.residual for r in rows)
    print(
        f"sweep t0={fmt(cfg.t0)} resolution={cfg.resolution} power={cfg.power}: "
        f"{len(rows)} rows, max residual {fmt(worst)} -> {cfg.out_path}"
    )
    return 0 if worst < cfg.tol else 2


def _cmd_lycheck(cfg: RunConfig) -> int:
    _require(0.0 < cfg.t <= 1.0, "--t", f"must lie in (0, 1], got {cfg.t!r}")
    _require(0 <= cfg.jmax <= 5, "--jmax", "must be in 0..5")
    try:
        conv = NormConvention(cfg.convention)
    except ValueError:
        raise ConfigError(
            f"--convention: must be one of Spectral, MaxEntry, PaperFormula"
        ) from None
    m = tent_power(cfg.t, cfg.power)
    cert = certify(m, conv)
    if not cert.satisfied:
        raise ConfigError(
            f"--convention/--power: certificate unsatisfied "
            f"(lambda={fmt(cert.lam)} >= 1); try --power 3 with PaperFormula"
        )
    region = m.region
    if cfg.f0 == "uniform":
        f0 = uniform_density(region)
    elif cfg.f0 == "lefthalf":
        left = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
        f0 = indicator_density(region, left, 2.0)
    else:
        raise ConfigError("--f0: must be uniform or lefthalf")
    rows = ly_check(cfg.t, f0, cfg.jmax, cert)
    atomic_write_text(cfg.out_path, ly_csv(cfg.t, conv.value, rows))
    worst = max(r.ratio for r in rows)
    print(
        f"lycheck t={fmt(cfg.t)} power={cfg.power} f0={cfg.f0}: "
        f"max variation/bound {fmt(worst)} -> {cfg.out_path}"
    )
    return 0


def _cmd_orbit(cfg: RunConfig) -> int:
    _require(0.0 < cfg.t <= 1.0, "--t", f"must lie in (0, 1], got {cfg.t!r}")
    _require(cfg.n >= 1, "--n", "must be >= 1")
    x0 = seeded_start(cfg.t, cfg.seed)
    stats = orbit_stats(cfg.t, x0, cfg.n, cfg.seed)
    atomic_write_text(cfg.out_path, orbit_csv([stats]))
    print(
        f"orbit t={fmt(cfg.t)} n={cfg.n} seed={cfg.seed}: "
        f"lyapunov {fmt(stats.lyapunov)} -> {cfg.out_path}"
    )
    return 0


def _cmd_oracle1d(cfg: RunConfig) -> int:
    _require(1.0 < cfg.a <= 2.0, "--a", f"must lie in (1, 2], got {cfg.a!r}")
    _require(
        cfg.cells >= 2 and cfg.cells % 2 == 0, "--cells", "must be even and >= 2"
    )
    _require_tol(cfg)
    result = tent1d_ulam(cfg.a, cfg.cells, cfg.tol)
    lines = ["cell_id,left,right,value"]
    for i in range(cfg.cells):
        lines.append(
            f"{i},{fmt(result.cell_edges[i])},{fmt(result.cell_edges[i + 1])},"
            f"{fmt(result.fixed_density[i])}"
        )
    atomic_write_text(cfg.out_path, "\n".join(lines) + "\n")
    if cfg.matrix_out:
        mat_lines = ["i,j,weight"]
        for i in range(cfg.cells):
            for j in range(cfg.cells):
                w = result.matrix[i, j]
                if w != 0.0:
                    mat_lines.append(f"{i},{j},{fmt(w)}")
        atomic_write_text(cfg.matrix_out, "\n".join(mat_lines) + "\n")
    print(
        f"oracle1d a={fmt(cfg.a)} cells={cfg.cells}: residual "
        f"{fmt(result.residual)} after {result.iterations} iterations "
        f"-> {cfg.out_path}"
    )
    return 0 if result.converged else 2


_COMMANDS = {
    "verify": _cmd_verify,
    "density": _cmd_density,
    "sweep": _cmd_sweep,
    "lycheck": _cmd_lycheck,
    "orbit": _cmd_orbit,
    "oracle1d": _cmd_oracle1d,
}

_DEFAULT_OUT = {
    "verify": "certificate.json",
    "density": "density.csv",
    "sweep": "sweep.csv",
    "lycheck": "lycheck.csv",
    "orbit": "orbit.csv",
    "oracle1d": "oracle1d.csv",
}


def run(cfg: RunConfig) -> int:
    """Execute one command; 0 = success, 1 = invalid input or unwritable
    output, 2 = unconverged."""
    try:
        return _COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tentstab",
        description=(
            "Transfer-operator toolkit for the planar tent family: "
            "certification, invariant densities, stability sweeps, "
            "variation diagnostics, and orbit statistics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, t=False, power=False, resolution=False, tol=False):
        if t:
            p.add_argument("--t", type=float, default=1.0, help="tent parameter in (0, 1]")
        if power:
            p.add_argument(
                "--power", type=int, default=1, help="iterate the map this many times"
            )
        if resolution:
            p.add_argument(
                "--resolution",
                type=int,
                default=DEFAULT_RESOLUTION,
                help="grid subdivisions per unit length",
            )
        if tol:
            p.add_argument(
                "--tol", type=float, default=DEFAULT_TOL, help="iteration stopping tolerance"
            )
        p.add_argument("--out", dest="out", default=None, help="output file path")

    p = sub.add_parser(
        "verify",
        help="write contraction certificates (all three norm conventions) as JSON",
    )
    add_common(p, t=True, power=True)

    p = sub.add_parser(
        "density",
        help="invariant density on a square grid, as cell CSV or an SVG heatmap",
    )
    add_common(p, t=True, power=True, resolution=True, tol=True)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument(
        "--matrix-out", default=None, help="also export the transition matrix CSV"
    )

    p = sub.add_parser(
        "sweep",
        help="L1 and observable gaps between invariant densities across parameters",
    )
    add_common(p, power=True, resolution=True, tol=True)
    p.add_argument("--t0", type=float, default=1.0, help="reference parameter")
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=5)

    p = sub.add_parser(
        "lycheck",
        help="variation of exact pushforward iterates vs the certified bound",
    )
    add_common(p, t=True, power=True)
    p.add_argument("--jmax", type=int, default=4, help="number of operator steps (<= 5)")
    p.add_argument(
        "--convention",
        default="PaperFormula",
        help="norm convention for the certificate constants",
    )
    p.add_argument(
        "--f0",
        choices=("uniform", "lefthalf"),
        default="uniform",
        help="initial density: constant 1, or 2 on the left branch domain",
    )

    p = sub.add_parser(
        "orbit", help="Lyapunov exponent and Birkhoff averages along a seeded orbit"
    )
    add_common(p, t=True)
    p.add_argument("--n", type=int, default=100000, help="orbit length")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser(
        "oracle1d", help="interval tent-map transition matrix and fixed density"
    )
    add_common(p, tol=True)
    p.add_argument("--a", type=float, default=2.0, help="slope parameter in (1, 2]")
    p.add_argument("--cells", type=int, default=64, help="even number of equal cells")
    p.add_argument(
        "--matrix-out", default=None, help="also export the transition matrix CSV"
    )

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {}
    for name in (
        "t",
        "t0",
        "tmin",
        "tmax",
        "steps",
        "power",
        "resolution",
        "n",
        "seed",
        "jmax",
        "tol",
        "convention",
        "f0",
        "a",
        "cells",
        "matrix_out",
    ):
        if hasattr(args, name) and getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    fmt_val = getattr(args, "format", None)
    if fmt_val:
        fields["format"] = fmt_val
    out = getattr(args, "out", None) or _DEFAULT_OUT[args.command]
    return RunConfig(command=args.command, out_path=out, **fields)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    code = run(config_from_args(args))
    if argv is None:
        sys.exit(code)
    return code
