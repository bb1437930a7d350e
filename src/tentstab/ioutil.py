"""Deterministic text output helpers: float formatting and atomic writes."""

from __future__ import annotations

import math
import os


def fmt(x) -> str:
    """Render a number with 17 significant digits (exact float round-trip)."""
    return format(float(x), ".17g")


def json_number(x) -> str:
    """Like fmt, but using JSON spellings for non-finite values."""
    if isinstance(x, float) and math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return fmt(x)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file + rename in the same directory.

    The temp file is created as open() creates a file, with mode 0o666
    less the umask, under a fresh random name that O_EXCL keeps unique."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tentstab-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
