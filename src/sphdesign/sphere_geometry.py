"""Unit-sphere primitives and recursive zonal equal-area partitions.

Zonal coordinates: a point of S^d is written (cos(theta), sin(theta) * xi)
with colatitude theta in [0, pi] measured from the pole e_0 = (1, 0, ..., 0)
and xi a point of the subsphere S^{d-1}.  The normalized measure of the cap
{theta <= a} is the regularized incomplete beta value

    Phi_d(a) = I_{sin^2(a/2)}(d/2, d/2),

which is what makes exactly equal cell areas possible: cell boundaries are
placed by inverting Phi_d at the target cumulative measures.

The partition splits the sphere into two polar caps plus collars of equal
cumulative measure; each collar is subdivided by recursively partitioning
its angular factor S^{d-1}.  Cell diameters are computed exactly (not just
bounded) from the closed-form maximum of the geodesic distance over a
product cell, so the measured diameter constants are tight for this
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc, betaincinv

TWO_PI = 2.0 * math.pi

UNIT_NORM_TOLERANCE = 1e-9
# Largest deviation of a point norm from 1 that a PointConfiguration accepts.
CONFIG_NORM_TOLERANCE = 1e-12
SUPPORTED_DIMENSIONS = range(1, 9)


@dataclass(frozen=True)
class PointConfiguration:
    """An ordered set of N unit vectors in R^{d+1}."""

    d: int
    points: np.ndarray  # (n, d+1)

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.d + 1:
            raise ValueError(f"expected (n, {self.d + 1}) array, got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("a configuration needs at least one point")
        norms = np.linalg.norm(pts, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        # negated comparison so NaN coordinates fail too
        if not worst <= CONFIG_NORM_TOLERANCE:
            raise ValueError(
                f"point norms deviate from 1 by {worst!r} (> {CONFIG_NORM_TOLERANCE!r})"
            )
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Each row of x divided by its Euclidean norm."""
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _require_unit(x: np.ndarray, name: str):
    dev = abs(float(np.linalg.norm(x)) - 1.0)
    if not dev <= UNIT_NORM_TOLERANCE:
        raise ValueError(f"{name} is not a unit vector (norm deviation {dev!r})")


def geodesic_distance(x, y) -> float:
    """Great-circle distance arccos(<x, y>) between unit vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_unit(x, "x")
    _require_unit(y, "y")
    s = float(np.clip(np.dot(x, y), -1.0, 1.0))
    return math.acos(s)


def tangent_project(x, v) -> np.ndarray:
    """Component of v orthogonal to the unit vector x: v - <v, x> x.

    The subtraction is repeated until the remaining radial component is
    below the rounding floor of the result itself (one extra pass only
    when v is nearly radial, where cancellation leaves noise scaled by
    the original |v|).  The returned vector therefore snaps immediately
    on re-projection: projecting twice equals projecting once, exactly.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(v, dtype=float).copy()
    _require_unit(x, "x")
    floor = 64.0 * np.finfo(float).eps
    for _ in range(4):
        radial = np.dot(w, x)
        if abs(radial) <= floor * float(np.linalg.norm(w)):
            break
        w = w - radial * x
    return w


def random_points(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform points on S^d, as an (n, d+1) array."""
    return unit_rows(rng.standard_normal((n, d + 1)))


def cap_measure(d: int, theta: float) -> float:
    """Normalized measure of the spherical cap of colatitude theta on S^d."""
    if theta <= 0.0:
        return 0.0
    if theta >= math.pi:
        return 1.0
    z = math.sin(0.5 * theta) ** 2
    return float(betainc(d / 2.0, d / 2.0, z))


def cap_colatitude(d: int, measure: float) -> float:
    """Inverse of `cap_measure`: the colatitude whose cap has the given measure."""
    v = min(max(measure, 0.0), 1.0)
    z = float(betaincinv(d / 2.0, d / 2.0, v))
    return 2.0 * math.asin(min(1.0, math.sqrt(z)))


def sphere_surface_area(d: int) -> float:
    """Surface area of the unit sphere S^d embedded in R^{d+1}."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def _band_cos_min(a: float, b: float, c: float) -> float:
    """Minimum of cos(t)cos(t') + sin(t)sin(t')*c over (t, t') in [a, b]^2.

    Interior critical points need c = +-1, so the minimum sits on the
    boundary: opposite corners, equal-colatitude corners, the symmetric
    equator-straddling pair, or an interior-of-edge minimum where the
    edge function R*cos(t' - psi) reaches -R.
    """
    candidates = [
        math.cos(a) * math.cos(b) + math.sin(a) * math.sin(b) * c,
        math.cos(a) ** 2 + math.sin(a) ** 2 * c,
        math.cos(b) ** 2 + math.sin(b) ** 2 * c,
    ]
    for t0 in (a, b):
        psi = math.atan2(c * math.sin(t0), math.cos(t0))
        radius = math.hypot(math.cos(t0), c * math.sin(t0))
        for tc in (psi + math.pi, psi - math.pi):
            if a <= tc <= b:
                candidates.append(-radius)
    if a <= math.pi / 2.0 <= b:
        w = min(b - math.pi / 2.0, math.pi / 2.0 - a)
        candidates.append(-math.sin(w) ** 2 + c * math.cos(w) ** 2)
    return min(candidates)


@dataclass(frozen=True)
class ZonalCell:
    """One closed cell of a zonal partition of S^d.

    d == 1: an arc, with lo/hi the bounding angles in [0, 2*pi].
    d >= 2: the set {theta in [lo, hi]} x sub, where sub is a cell of
    S^{d-1}; sub is None for polar caps (the whole subsphere).
    """

    d: int
    lo: float
    hi: float
    sub: "ZonalCell | None" = None

    def measure(self) -> float:
        """Normalized surface measure of the cell."""
        if self.d == 1:
            return (self.hi - self.lo) / TWO_PI
        band = cap_measure(self.d, self.hi) - cap_measure(self.d, self.lo)
        if self.sub is None:
            return band
        return band * self.sub.measure()

    def diameter(self) -> float:
        """Exact geodesic diameter of the cell."""
        if self.d == 1:
            return min(self.hi - self.lo, math.pi)
        sub_diam = math.pi if self.sub is None else self.sub.diameter()
        c = math.cos(min(sub_diam, math.pi))
        h = _band_cos_min(self.lo, self.hi, c)
        return math.acos(max(-1.0, min(1.0, h)))

    def representative(self) -> np.ndarray:
        """The most symmetric point of the cell: pole for caps, box center otherwise."""
        if self.d == 1:
            phi = 0.5 * (self.lo + self.hi)
            return np.array([math.cos(phi), math.sin(phi)])
        if self.sub is None:
            pole = np.zeros(self.d + 1)
            pole[0] = 1.0 if self.lo == 0.0 else -1.0
            return pole
        theta = 0.5 * (self.lo + self.hi)
        xi = self.sub.representative()
        return np.concatenate([[math.cos(theta)], math.sin(theta) * xi])

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Whether the unit vector x lies in the cell, up to angular tolerance."""
        x = np.asarray(x, dtype=float)
        if self.d == 1:
            phi = math.atan2(x[1], x[0]) % TWO_PI
            for shift in (0.0, TWO_PI, -TWO_PI):
                if self.lo - tol <= phi + shift <= self.hi + tol:
                    return True
            return False
        theta = math.acos(max(-1.0, min(1.0, float(x[0]))))
        if not (self.lo - tol <= theta <= self.hi + tol):
            return False
        if self.sub is None:
            return True
        st = math.sin(theta)
        if st < 1e-12:
            # at a pole the angular factor is degenerate
            return True
        return self.sub.contains(x[1:] / st, tol=tol / st)

    def to_dict(self) -> dict:
        out = {"d": self.d, "lo": self.lo, "hi": self.hi}
        if self.sub is not None:
            out["sub"] = self.sub.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ZonalCell":
        sub = data.get("sub")
        return cls(
            d=int(data["d"]),
            lo=float(data["lo"]),
            hi=float(data["hi"]),
            sub=cls.from_dict(sub) if sub is not None else None,
        )


@dataclass(frozen=True)
class Partition:
    """An area-regular partition of S^d into n zonal cells."""

    d: int
    n: int
    cells: tuple[ZonalCell, ...]
    representatives: np.ndarray
    area_estimates: np.ndarray
    diameter_estimates: np.ndarray

    def __post_init__(self):
        for name in ("representatives", "area_estimates", "diameter_estimates"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        total = float(math.fsum(self.area_estimates))
        if abs(total - 1.0) > 1e-9:
            raise AssertionError(f"cell areas sum to {total!r}, not 1")
        worst = float(np.max(np.abs(self.area_estimates - 1.0 / self.n)))
        if worst > 1e-9:
            raise AssertionError(f"cell area deviates from 1/n by {worst:.3e}")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "mesh_norm": partition_norm(self),
            "cells": [c.to_dict() for c in self.cells],
            "areas": self.area_estimates.tolist(),
            "diameters": self.diameter_estimates.tolist(),
            "representatives": self.representatives.tolist(),
        }


def _collar_counts(d: int, n: int, theta_c: float, n_collars: int) -> list[int]:
    """Integer cell counts per collar by cumulative rounding of ideal counts."""
    fitting = (math.pi - 2.0 * theta_c) / n_collars
    counts = []
    acc = 0.0
    for j in range(1, n_collars + 1):
        lo = theta_c + (j - 1) * fitting
        hi = theta_c + j * fitting
        ideal = n * (cap_measure(d, hi) - cap_measure(d, lo))
        y = max(1, round(ideal + acc))
        acc += ideal - y
        counts.append(y)
    counts[-1] += (n - 2) - sum(counts)
    if counts[-1] < 1:
        counts[-1] = 1
        overshoot = sum(counts) - (n - 2)
        for i in range(len(counts) - 2, -1, -1):
            take = min(overshoot, counts[i] - 1)
            counts[i] -= take
            overshoot -= take
            if overshoot == 0:
                break
    return counts


def _build_cells(d: int, n: int) -> list[ZonalCell]:
    if d == 1:
        width = TWO_PI / n
        return [ZonalCell(1, i * width, (i + 1) * width) for i in range(n)]
    if n == 1:
        return [ZonalCell(d, 0.0, math.pi)]
    if n == 2:
        half = math.pi / 2.0
        return [ZonalCell(d, 0.0, half), ZonalCell(d, half, math.pi)]
    theta_c = cap_colatitude(d, 1.0 / n)
    ideal_angle = (sphere_surface_area(d) / n) ** (1.0 / d)
    n_collars = max(1, round((math.pi - 2.0 * theta_c) / ideal_angle))
    counts = _collar_counts(d, n, theta_c, n_collars)
    cells = [ZonalCell(d, 0.0, theta_c)]
    cumulative = 1
    lo = theta_c
    for y in counts:
        cumulative += y
        hi = cap_colatitude(d, cumulative / n)
        for sub in _build_cells(d - 1, y):
            cells.append(ZonalCell(d, lo, hi, sub))
        lo = hi
    cells.append(ZonalCell(d, math.pi - theta_c, math.pi))
    return cells


def equal_area_partition(d: int, n: int) -> Partition:
    """Area-regular zonal partition of S^d into n cells of measure 1/n.

    Cell areas are analytic (cap-measure differences of the stored bounds)
    and land within ~1e-13 of 1/n; diameters are exact for the construction.
    """
    if d not in SUPPORTED_DIMENSIONS:
        raise ValueError(f"sphere dimension must be in [1, 8], got {d}")
    if n < 1:
        raise ValueError(f"cell count must be >= 1, got {n}")
    cells = tuple(_build_cells(d, n))
    reps = np.array([c.representative() for c in cells])
    areas = np.array([c.measure() for c in cells])
    diams = np.array([c.diameter() for c in cells])
    return Partition(
        d=d,
        n=n,
        cells=cells,
        representatives=reps,
        area_estimates=areas,
        diameter_estimates=diams,
    )


def partition_norm(p: Partition) -> float:
    """Largest cell diameter of the partition."""
    return float(np.max(p.diameter_estimates))


@lru_cache(maxsize=None)
def _diameter_products(d: int, n_values: tuple[int, ...]) -> dict[int, float]:
    return {
        n: partition_norm(equal_area_partition(d, n)) * n ** (1.0 / d)
        for n in n_values
    }


def measure_diameter_constant(d: int, n_values=(10, 100, 1000, 10000)) -> dict:
    """Measure sup over n of (mesh norm) * n^(1/d) for this construction.

    Returns the per-n products and their supremum, the constant that makes
    mesh_norm <= constant * n^(-1/d) hold on the sampled range.
    """
    products = _diameter_products(d, tuple(n_values))
    values = np.array(list(products.values()))
    return {
        "d": d,
        "products": dict(products),
        "constant": float(values.max()),
        "spread": float((values.max() - values.min()) / values.mean()),
    }
