"""Stable point-set file format and atomic text writes.

Point-set format, shared project-wide:

    line 1:        "d N"
    lines 2..N+1:  d+1 decimal floats, whitespace separated

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so a write/read cycle reproduces the configuration
bit-for-bit.  All writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .sphere_geometry import CONFIG_NORM_TOLERANCE, PointConfiguration

POINT_NORM_TOLERANCE = 1e-9


class PointFormatError(ValueError):
    """Malformed point file; the message carries the offending line number."""


def format_points(config: PointConfiguration) -> str:
    lines = [f"{config.d} {config.n}"]
    for row in config.points:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def parse_points(text: str) -> PointConfiguration:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise PointFormatError("line 1: expected header 'd N'")
    header = lines[0].split()
    if len(header) != 2:
        raise PointFormatError("line 1: expected exactly two integers 'd N'")
    try:
        d, n = int(header[0]), int(header[1])
    except ValueError:
        raise PointFormatError("line 1: header entries must be integers") from None
    if d < 1 or n < 1:
        raise PointFormatError("line 1: d and N must be positive")
    rows = []
    body = [line for line in lines[1:] if line.strip()]
    if len(body) != n:
        raise PointFormatError(
            f"line {len(lines)}: expected {n} point lines, found {len(body)}"
        )
    for idx, line in enumerate(body, start=2):
        parts = line.split()
        if len(parts) != d + 1:
            raise PointFormatError(
                f"line {idx}: expected {d + 1} coordinates, found {len(parts)}"
            )
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise PointFormatError(f"line {idx}: non-numeric coordinate") from None
        norm = float(np.linalg.norm(row))
        if not abs(norm - 1.0) <= POINT_NORM_TOLERANCE:
            raise PointFormatError(
                f"line {idx}: vector norm {norm!r} deviates from 1 beyond 1e-9"
            )
        rows.append(row)
    pts = np.array(rows)
    norms = np.linalg.norm(pts, axis=1)
    if float(np.max(np.abs(norms - 1.0))) > CONFIG_NORM_TOLERANCE:
        # sloppier external file: renormalize (the shift is within 1e-9);
        # files written by this package round-trip bit-identically and skip this
        pts = pts / norms[:, None]
    return PointConfiguration(d=d, points=pts)


def write_text_atomic(path: str, text: str):
    """Write via temp file + rename so readers never see partial content."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_points(path: str, config: PointConfiguration):
    write_text_atomic(path, format_points(config))


def read_points(path: str) -> PointConfiguration:
    with open(path) as handle:
        return parse_points(handle.read())
