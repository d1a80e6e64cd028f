"""Explicit real spherical-harmonic basis on S^2.

Serves as an independent cross-check of the kernel-based defect: the basis
is orthonormal against the normalized surface measure, so the sum of
squared empirical means of all basis elements of degree 1..t over a point
set equals the kernel defect of that set.

Evaluation uses the fully normalized associated-Legendre recurrences, which
stay O(1) in magnitude for all supported degrees.  The colatitude axis is
the first coordinate, matching the zonal convention used elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import _row_level_sums

# Basis values in one block of `mean_residuals`: 8 MiB of float64 per array,
# so the cross-check's memory does not grow with the number of points.
BLOCK_VALUES = 2**20


def basis_size(t: int) -> int:
    """Number of real harmonics of degrees 1..t on S^2: (t+1)^2 - 1."""
    return (t + 1) ** 2 - 1


def _as_points(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError("points must lie on S^2 (three coordinates)")
    return pts


def _basis_rows(t: int, pts: np.ndarray) -> np.ndarray:
    """The (basis_size(t), n_points) array of all basis elements, one row
    each, in the column order of `basis_values`.

    The fully normalized associated Legendre functions P-bar_k^m (integral
    of their square over [-1, 1] equal to 2) run their recurrences for
    every order m at once: level i holds P-bar_{m+i}^m for m = 0..t-i,
    one numpy operation per step over an (orders x points) array.  Each
    value takes the same floating-point operations, in the same order, as
    the recurrence run one order at a time.
    """
    x = np.clip(pts[:, 0], -1.0, 1.0)
    phi = np.arctan2(pts[:, 2], pts[:, 1])
    sx = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    angles = np.arange(t + 1)[:, None] * phi
    cos, sin = math.sqrt(2.0) * np.cos(angles), math.sqrt(2.0) * np.sin(angles)
    level = np.empty((t + 1, len(pts)))  # level 0: P-bar_m^m = c_m sx P-bar_{m-1}^{m-1}
    level[0] = 1.0
    for j in range(1, t + 1):
        level[j] = math.sqrt((2 * j + 1) / (2 * j)) * sx * level[j - 1]
    below = None  # on entry to step i >= 1, level and below are levels i - 1 and i - 2
    rows = np.empty((basis_size(t), len(pts)))
    for i in range(t + 1):
        m = np.arange(t + 1 - i)  # orders, of degree k = m + i
        k = m + i
        if i == 1:
            level, below = np.sqrt(2 * m + 3)[:, None] * x * level[:-1], level
        elif i >= 2:
            a = np.sqrt((4 * k * k - 1) / (k * k - m * m))
            b = np.sqrt((2 * k + 1) * (k - 1 - m) * (k - 1 + m) / ((2 * k - 3) * (k - m) * (k + m)))
            level, below = a[:, None] * x * level[:-1] - b[:, None] * below[:-2], level
        # degree k = m + i starts at row k^2 - 1: the rows of degrees < k, less the constant
        if i:
            rows[i * i - 1] = level[0]
        start = k[1:] ** 2 + 2 * m[1:] - 2
        rows[start] = level[1:] * cos[1 : t + 1 - i]
        rows[start + 1] = level[1:] * sin[1 : t + 1 - i]
    return rows


def basis_values(t: int, points) -> np.ndarray:
    """Evaluate all real harmonics of degrees 1..t at unit points on S^2.

    Returns an (n_points, basis_size(t)) array.  Column order: degrees
    ascending; within a degree m = 0, then (cos, sin) pairs for m = 1..k.
    The basis is orthonormal in L^2 of the normalized measure, so
    sum_j column_j(x)^2 == 2k + 1 summed over one degree, at every x.
    """
    return _basis_rows(t, _as_points(points)).T


def mean_residuals(t: int, points) -> np.ndarray:
    """Empirical mean of each basis element over the point set.

    For a spherical t-design every entry vanishes; the squared Euclidean
    norm of this vector equals the kernel defect of the configuration.
    Each mean is the correctly rounded sum of its basis values, divided by
    the number of points.  The points are walked in blocks of at most
    BLOCK_VALUES basis values; each block's exact row level sums join the
    running ones, which are reduced again to a few floats per row, so the
    memory held does not grow with the number of points.
    """
    pts = _as_points(points)
    size = basis_size(t)
    sums = np.zeros((size, 0))  # per row, floats with the exact sum so far
    step = max(1, BLOCK_VALUES // size)
    for lo in range(0, len(pts), step):
        sums = _row_level_sums(np.concatenate([sums, _basis_rows(t, pts[lo : lo + step])], axis=1))
    return np.array([math.fsum(row) for row in sums.tolist()]) / len(pts)
