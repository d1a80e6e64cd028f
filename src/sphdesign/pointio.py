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
from .sphere_geometry import require_count, require_supported_dimension

POINT_NORM_TOLERANCE = 1e-9


class PointFormatError(ValueError):
    """Malformed point file; the message carries the offending line number."""


def format_points(config: PointConfiguration) -> str:
    row = " ".join(["%.17g"] * (config.d + 1))
    body = "\n".join([row] * config.n) % tuple(config.points.ravel().tolist())
    return f"{config.d} {config.n}\n{body}\n"


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
    try:
        require_supported_dimension(d)
        require_count("N", n)
    except ValueError as exc:
        raise PointFormatError(f"line 1: {exc}") from None
    # (file line number, fields) of each non-blank line after the header
    body = [(i, line.split()) for i, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(body) != n:
        raise PointFormatError(
            f"line {len(lines)}: expected {n} point lines, found {len(body)}"
        )
    rows = []
    for number, parts in body:
        if len(parts) != d + 1:
            raise PointFormatError(
                f"line {number}: expected {d + 1} coordinates, found {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise PointFormatError(f"line {number}: non-numeric coordinate") from None
    pts = np.array(rows)
    norms = np.linalg.norm(pts, axis=1)
    deviations = np.abs(norms - 1.0)
    # negated comparison so NaN coordinates fail too
    bad = np.flatnonzero(~(deviations <= POINT_NORM_TOLERANCE))
    if bad.size:
        row = bad[0]
        raise PointFormatError(
            f"line {body[row][0]}: vector norm {float(norms[row])!r} "
            f"deviates from 1 beyond {POINT_NORM_TOLERANCE:g}"
        )
    if float(np.max(deviations)) > CONFIG_NORM_TOLERANCE:
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


def read_points(path: str) -> PointConfiguration:
    with open(path) as handle:
        return parse_points(handle.read())
