"""Deterministic text output helpers: float formatting and atomic writes."""

from __future__ import annotations

import math
import os
import tempfile


def fmt(x) -> str:
    """Render a number with 17 significant digits (exact float round-trip)."""
    if type(x) is float:  # most calls; skips the isinstance checks below
        return format(x, ".17g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def json_number(x) -> str:
    """Like fmt, but using JSON spellings for non-finite values."""
    if isinstance(x, float) and math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return fmt(x)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tentstab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
