"""Pinned CLI outputs: exit code, stdout and every output file per flag set.

The files under ``tests/golden/`` were written by running this module as a
script (``PYTHONPATH=src python tests/test_golden.py``) before the Ulam
grid's refactor to one vertex batch.  The test re-runs each flag set and
compares: exit codes and the non-numeric text exactly, numeric tokens to a
relative 1e-12, so that another numpy/BLAS build may differ in last bits.
Bitwise sameness across a refactor is checked against a checkout of the
previous commit, not here.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest

from tentstab.cli import main

GOLDEN = Path(__file__).parent / "golden"

# The acceptance criterion-9 flag sets, plus both transition-matrix exports.
FLAG_SETS = {
    "verify": ["verify", "--t", "0.9", "--power", "3"],
    "density_svg": ["density", "--t", "1.0", "--resolution", "16", "--format", "svg"],
    "density_csv": ["density", "--t", "0.95", "--resolution", "16"],
    "sweep": [
        "sweep", "--t0", "1.0", "--tmin", "0.95", "--tmax", "0.99",
        "--steps", "2", "--resolution", "16",
    ],
    "lycheck": ["lycheck", "--t", "1.0", "--power", "3", "--jmax", "2"],
    "orbit": ["orbit", "--t", "0.9", "--n", "1000", "--seed", "11"],
    "oracle1d": ["oracle1d", "--a", "2.0", "--cells", "8"],
    "density_matrix": ["density", "--t", "0.95", "--resolution", "16", "--matrix-out"],
    "oracle1d_matrix": ["oracle1d", "--a", "2.0", "--cells", "8", "--matrix-out"],
}

NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|-?Infinity|nan)")
REL_TOL = 1e-12


def run(name: str, workdir: Path) -> dict[str, str]:
    """Run one flag set with its outputs in workdir: 'run' holds the exit
    code and stdout (output path masked), 'out' and 'matrix' the files."""
    argv = list(FLAG_SETS[name])
    out = workdir / f"{name}.out"
    files = {"out": out}
    if argv[-1] == "--matrix-out":
        files["matrix"] = workdir / f"{name}.matrix.csv"
        argv.append(str(files["matrix"]))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--out", str(out)])
    text = stdout.getvalue().replace(str(out), "<out>")
    got = {"run": f"exit {code}\n{text}"}
    for key, path in files.items():
        got[key] = path.read_text()
    return got


def _tokens_match(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return a == b
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def assert_same_text(got: str, want: str, label: str) -> None:
    """Equal up to numeric tokens, which must agree to REL_TOL."""
    got_parts = NUMBER.split(got)
    want_parts = NUMBER.split(want)
    assert len(got_parts) == len(want_parts), f"{label}: token count differs"
    for k, (g, w) in enumerate(zip(got_parts, want_parts)):
        if k % 2 == 0:
            assert g == w, f"{label}: text {g[:60]!r} != {w[:60]!r}"
        else:
            assert _tokens_match(g, w), f"{label}: number {g} != {w}"


@pytest.mark.parametrize("name", sorted(FLAG_SETS))
def test_cli_output_matches_golden(name, tmp_path):
    got = run(name, tmp_path)
    for key, text in got.items():
        want = (GOLDEN / f"{name}.{key}").read_text()
        assert_same_text(text, want, f"{name}.{key}")


def test_number_tokens_compare_within_tolerance():
    assert_same_text("x,1.0000000000000002,#0a0b0c", "x,1,#0a0b0c", "close")
    with pytest.raises(AssertionError, match="number"):
        assert_same_text("x,1.00000000001", "x,1", "far")
    with pytest.raises(AssertionError, match="text"):
        assert_same_text("x,1", "y,1", "text")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for flag_set in FLAG_SETS:
            for key, text in run(flag_set, Path(workdir)).items():
                (GOLDEN / f"{flag_set}.{key}").write_text(text)
