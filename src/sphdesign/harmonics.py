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

from .kernel import _exact_row_sums


def basis_size(t: int) -> int:
    """Number of real harmonics of degrees 1..t on S^2: (t+1)^2 - 1."""
    return (t + 1) ** 2 - 1


def _normalized_assoc_legendre(t: int, m: int, x: np.ndarray) -> list[np.ndarray]:
    """Values of the fully normalized P-bar_k^m(x) for k = m..t.

    Normalization: integral of (P-bar_k^m)^2 over [-1, 1] equals 2.
    """
    out = []
    sx = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    p = np.ones_like(x)
    for j in range(1, m + 1):
        p = math.sqrt((2 * j + 1) / (2 * j)) * sx * p
    out.append(p)
    if t == m:
        return out
    p_prev = p
    p = math.sqrt(2 * m + 3) * x * p_prev
    out.append(p)
    for k in range(m + 2, t + 1):
        a = math.sqrt((4 * k * k - 1) / (k * k - m * m))
        b = math.sqrt(
            (2 * k + 1) * (k - 1 - m) * (k - 1 + m) / ((2 * k - 3) * (k - m) * (k + m))
        )
        p, p_prev = a * x * p - b * p_prev, p
        out.append(p)
    return out


def basis_values(t: int, points) -> np.ndarray:
    """Evaluate all real harmonics of degrees 1..t at unit points on S^2.

    Returns an (n_points, basis_size(t)) array.  Column order: degrees
    ascending; within a degree m = 0, then (cos, sin) pairs for m = 1..k.
    The basis is orthonormal in L^2 of the normalized measure, so
    sum_j column_j(x)^2 == 2k + 1 summed over one degree, at every x.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError("points must lie on S^2 (three coordinates)")
    x = np.clip(pts[:, 0], -1.0, 1.0)
    phi = np.arctan2(pts[:, 2], pts[:, 1])

    columns = [None] * basis_size(t)

    def slot(k: int, offset: int) -> int:
        # elements of degrees < k, minus the excluded constant
        return (k * k - 1) + offset

    for m in range(0, t + 1):
        if m == 0:
            for k, p in enumerate(_normalized_assoc_legendre(t, 0, x), start=0):
                if k >= 1:
                    columns[slot(k, 0)] = p
        else:
            c = math.sqrt(2.0) * np.cos(m * phi)
            s = math.sqrt(2.0) * np.sin(m * phi)
            for i, p in enumerate(_normalized_assoc_legendre(t, m, x)):
                k = m + i
                columns[slot(k, 2 * m - 1)] = p * c
                columns[slot(k, 2 * m)] = p * s
    return np.stack(columns, axis=1)


def mean_residuals(t: int, points) -> np.ndarray:
    """Empirical mean of each basis element over the point set.

    For a spherical t-design every entry vanishes; the squared Euclidean
    norm of this vector equals the kernel defect of the configuration.
    """
    values = basis_values(t, points)
    return _exact_row_sums(values.T) / values.shape[0]
