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
import functools
import math
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .density import (
    UlamGrid,
    build_ulam,
    density_csv,
    indicator_density,
    ulam_fixed,
    ulam_matrix_csv,
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
from .geom2d import ConvexPolygon, _rows
from .ioutil import atomic_write_text, fmt
from .maps import MAX_CELLS, TENT_T_MIN, NormConvention, certify, tent_power

CANVAS_W = 1024
CANVAS_H = 640

# Monotone-lightness color ramp endpoints (dark to light, RGB in [0,1]).
RAMP_LO = (0.13, 0.15, 0.38)
RAMP_HI = (0.99, 0.97, 0.80)


def _ramp(frac: np.ndarray) -> list[np.ndarray]:
    """The (r, g, b) channels, integers in 0..255, of the ramp at each
    fraction of frac, clamped to [0, 1]; np.rint rounds half to even, as
    round does."""
    frac = np.where(frac > 0.0, frac, 0.0)  # max(0.0, frac)
    frac = np.where(frac < 1.0, frac, 1.0)  # min(1.0, frac)
    return [np.rint(255 * (lo + frac * (hi - lo))).astype(np.intp) for lo, hi in zip(RAMP_LO, RAMP_HI)]


def render_svg(grid: UlamGrid, values: np.ndarray) -> str:
    """Heatmap of the grid density with these cell values, as standalone
    SVG text on a fixed 1024x640 canvas with a 5% margin; the same grid
    and values always render to the same bytes."""
    x, y, n = grid.polys
    valid = np.arange(x.shape[1]) < n[:, None]
    xmin, xmax = float(x[valid].min()), float(x[valid].max())
    ymin, ymax = float(y[valid].min()), float(y[valid].max())
    span_x = max(xmax - xmin, 1e-12)
    span_y = max(ymax - ymin, 1e-12)
    scale = min(0.90 * CANVAS_W / span_x, 0.90 * CANVAS_H / span_y)
    off_x = 0.5 * (CANVAS_W - scale * span_x)
    off_y = 0.5 * (CANVAS_H - scale * span_y)

    vmin, vmax = float(np.min(values)), float(np.max(values))
    spread = vmax - vmin
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
        f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'<rect width="{CANVAS_W}" height="{CANVAS_H}" fill="#ffffff"/>',
    ]
    # Every cell's pixel coordinates and _ramp channels, written with one
    # %-template per vertex count: '%.3f' spells a float as the format
    # spec '.3f' does.
    px = off_x + (x - xmin) * scale
    py = CANVAS_H - (off_y + (y - ymin) * scale)
    frac = np.full(len(values), 0.5) if spread <= 0.0 else (values - vmin) / spread
    templates = [
        '<path d="M ' + " L ".join(["%.3f,%.3f"] * k) + ' Z" fill="#%02x%02x%02x"/>'
        for k in range(x.shape[1] + 1)
    ]
    for count, pxy, r, g, b in _rows(px, py, n, *_ramp(frac)):
        parts.append(templates[count] % (*pxy, r, g, b))
    swatches = 16
    sw = 12.0
    x0 = 12.0
    y0 = CANVAS_H - 24.0
    ramp = zip(*(c.tolist() for c in _ramp(np.arange(swatches) / (swatches - 1))))
    for k, color in enumerate("#%02x%02x%02x" % rgb for rgb in ramp):
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


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    cert = certify(tent_power(args.t, args.power))
    certs = [replace(cert, norm_convention=conv) for conv in NormConvention]
    text = "[\n" + ",\n".join(c.to_json() for c in certs) + "\n]\n"
    atomic_write_text(args.out, text)
    verdicts = " ".join(
        f"{c.norm_convention.value}={'ok' if c.satisfied else 'FAIL'}" for c in certs
    )
    print(f"verify t={fmt(args.t)} power={args.power}: {verdicts} -> {args.out}")
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    op = build_ulam(tent_power(args.t, args.power), args.resolution)
    vec = ulam_fixed(op, args.tol)
    if args.matrix_out:
        atomic_write_text(args.matrix_out, ulam_matrix_csv(op.matrix))
    grid, op = op.grid, None  # the matrix is freed before the cell table is made
    write = render_svg if args.format == "svg" else density_csv
    atomic_write_text(args.out, write(grid, vec.values))
    lo = float(np.min(vec.values))
    hi = float(np.max(vec.values))
    print(
        f"density t={fmt(args.t)} power={args.power} resolution={args.resolution}: "
        f"range [{fmt(lo)}, {fmt(hi)}], residual {fmt(vec.residual)} "
        f"after {vec.iterations} iterations -> {args.out}"
    )
    return 0 if vec.converged else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.tmin > args.tmax:
        raise ConfigError("--tmin/--tmax: must satisfy tmin <= tmax")
    if args.steps == 1:
        ts = [args.tmin]
    else:
        step = (args.tmax - args.tmin) / (args.steps - 1)
        ts = [args.tmin + k * step for k in range(args.steps)]
    rows = stability_sweep(args.t0, ts, args.resolution, args.power, args.tol)
    atomic_write_text(args.out, sweep_csv(rows))
    worst = max(r.residual for r in rows)
    print(
        f"sweep t0={fmt(args.t0)} resolution={args.resolution} power={args.power}: "
        f"{len(rows)} rows, max residual {fmt(worst)} -> {args.out}"
    )
    return 0 if worst < args.tol else 2


def _cmd_lycheck(args: argparse.Namespace) -> int:
    conv = NormConvention(args.convention)
    m = tent_power(args.t, args.power)
    cert = certify(m, conv)
    if not cert.satisfied:
        raise ConfigError(
            f"--convention/--power: certificate unsatisfied "
            f"(lambda={fmt(cert.lam)} >= 1); try --power 3 with PaperFormula"
        )
    region = m.region
    if args.f0 == "uniform":
        f0 = uniform_density(region)
    else:
        left = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
        f0 = indicator_density(region, left, 2.0)
    rows = ly_check(m, f0, args.jmax, cert)
    atomic_write_text(args.out, ly_csv(args.t, conv.value, rows))
    worst = max(r.ratio for r in rows)
    print(
        f"lycheck t={fmt(args.t)} power={args.power} f0={args.f0}: "
        f"max variation/bound {fmt(worst)} -> {args.out}"
    )
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    x0 = seeded_start(args.t, args.seed)
    stats = orbit_stats(args.t, x0, args.n, args.seed)
    atomic_write_text(args.out, orbit_csv([stats]))
    print(
        f"orbit t={fmt(args.t)} n={args.n} seed={args.seed}: "
        f"lyapunov {fmt(stats.lyapunov)} -> {args.out}"
    )
    return 0


def _cmd_oracle1d(args: argparse.Namespace) -> int:
    result = tent1d_ulam(args.a, args.cells, args.tol)
    lines = ["cell_id,left,right,value"]
    for i in range(args.cells):
        lines.append(
            f"{i},{fmt(result.cell_edges[i])},{fmt(result.cell_edges[i + 1])},"
            f"{fmt(result.fixed_density[i])}"
        )
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    if args.matrix_out:
        atomic_write_text(args.matrix_out, ulam_matrix_csv(result.matrix))
    print(
        f"oracle1d a={fmt(args.a)} cells={args.cells}: residual "
        f"{fmt(result.residual)} after {result.iterations} iterations "
        f"-> {args.out}"
    )
    return 0 if result.converged else 2


# ---------------------------------------------------------------------------
# Command line: the parser is the one table of flags, defaults and ranges
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ConfigError, so that ``run`` reports it in one
    line and exits 1 (argparse itself prints the usage and exits 2)."""

    def error(self, message):
        raise ConfigError(message)


def _flag(kind, default, text, rule, ok, **kwargs) -> dict:
    """add_argument keywords for a flag parsed by kind; values failing ok
    are rejected with the message 'must be <rule>'."""

    def parse(value_text):
        value = kind(value_text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value_text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return dict(type=parse, default=default, help=f"{text}; must be {rule}", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tentstab",
        description=(
            "Transfer-operator toolkit for the planar tent family: "
            "certification, invariant densities, stability sweeps, "
            "variation diagnostics, and orbit statistics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, out, text, **flags):
        """Subcommand name running handler; each keyword is one flag
        (matrix_out -> --matrix-out) with its add_argument keywords."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler, out=out)
        for flag, spec in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **spec)
        p.add_argument("--out", help="output file path")

    def resolution(low):
        return _flag(
            int, 64, "grid subdivisions per unit length", f">= {low}", lambda v: v >= low
        )

    def sweep_parameter(text, default=None, **kwargs):
        # Same slack below TENT_T_MIN as stability_sweep's own check.
        return _flag(
            float,
            default,
            text,
            f"in [{TENT_T_MIN:.6f}, 1]",
            lambda v: TENT_T_MIN - 1e-12 <= v <= 1.0,
            **kwargs,
        )

    # The map expands only where sqrt(2) t > 1; below, a density or an
    # exponent would be computed for a map the theory does not cover.
    t = _flag(
        float,
        1.0,
        "tent parameter",
        "in (1/sqrt(2), 1], where the map expands (sqrt(2) t > 1)",
        lambda v: math.sqrt(2.0) * v > 1.0 and v <= 1.0,
    )
    power = _flag(int, 1, "iterate the map this many times", ">= 1", lambda v: v >= 1)
    tol = _flag(
        float,
        1e-8,
        "iteration stopping tolerance",
        "finite and > 0",
        lambda v: math.isfinite(v) and v > 0.0,
    )
    matrix_out = dict(help="also export the transition matrix CSV")

    command(
        "verify",
        _cmd_verify,
        "certificate.json",
        "write contraction certificates (all three norm conventions) as JSON",
        t=t,
        power=power,
    )
    command(
        "density",
        _cmd_density,
        "density.csv",
        "invariant density on a square grid, as cell CSV or an SVG heatmap",
        t=t,
        power=power,
        resolution=resolution(2),
        tol=tol,
        format=dict(choices=("csv", "svg"), default="csv"),
        matrix_out=matrix_out,
    )
    command(
        "sweep",
        _cmd_sweep,
        "sweep.csv",
        "L1 and observable gaps between invariant densities across parameters",
        power=power,
        resolution=resolution(16),
        tol=tol,
        t0=sweep_parameter("reference parameter", 1.0),
        tmin=sweep_parameter("lowest parameter", required=True),
        tmax=sweep_parameter("highest parameter", required=True),
        steps=_flag(int, 5, "number of parameters", ">= 1", lambda v: v >= 1),
    )
    command(
        "lycheck",
        _cmd_lycheck,
        "lycheck.csv",
        "variation of exact pushforward iterates vs the certified bound",
        t=t,
        power=power,
        jmax=_flag(int, 4, "number of operator steps", "in 0..5", lambda v: 0 <= v <= 5),
        convention=dict(
            choices=[c.value for c in NormConvention],
            default="PaperFormula",
            help="norm convention for the certificate constants",
        ),
        f0=dict(
            choices=("uniform", "lefthalf"),
            default="uniform",
            help="initial density: constant 1, or 2 on the left branch domain",
        ),
    )
    command(
        "orbit",
        _cmd_orbit,
        "orbit.csv",
        "Lyapunov exponent and Birkhoff averages along a seeded orbit",
        t=t,
        n=_flag(int, 100000, "orbit length", ">= 1", lambda v: v >= 1),
        seed=_flag(int, 20240101, "random seed", ">= 0", lambda v: v >= 0),
    )
    command(
        "oracle1d",
        _cmd_oracle1d,
        "oracle1d.csv",
        "interval tent-map transition matrix and fixed density",
        tol=tol,
        a=_flag(float, 2.0, "slope parameter", "in (1, 2]", lambda v: 1.0 < v <= 2.0),
        cells=_flag(
            int,
            64,
            "number of equal cells",
            f"even and in [2, {math.isqrt(MAX_CELLS)}]",
            lambda v: 2 <= v and v % 2 == 0 and v * v <= MAX_CELLS,
        ),
        matrix_out=matrix_out,
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first run of this process."""
    return build_parser()


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and execute one command line; 0 = success, 1 = usage error,
    invalid input or unwritable output, 2 = unconverged."""
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; ``argv`` defaults to ``sys.argv[1:]``."""
    return run(argv)
