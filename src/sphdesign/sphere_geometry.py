"""Point arrays on S^d and recursive zonal equal-area partitions.

This module is the one home of the input contracts: integer sphere
dimensions in `SUPPORTED_DIMENSIONS` (`require_supported_dimension`),
integer counts and degrees (`require_count`, bools refused) and positive
finite constants (`require_positive_finite`, NaN refused).  It decides what
a valid point array is: unit rows (`PointConfiguration`), copy-and-freeze
for the arrays that frozen types hold (`frozen_copy`), and row-wise
normalisation (`unit_rows`, over the row norms of `norm_column`).

Zonal coordinates: a point of S^d is written (cos(theta), sin(theta) * xi)
with colatitude theta in [0, pi] measured from the pole e_0 = (1, 0, ..., 0)
and xi a point of the subsphere S^{d-1}.  The normalized measure of the cap
{theta <= a} is the regularized incomplete beta value

    Phi_d(a) = I_z(d/2, d/2),  z = sin^2(a/2),

which is what makes exactly equal cell areas possible: cell boundaries are
placed by inverting Phi_d at the target cumulative measures.  Phi_d and
its inverse use the standard library alone; with h = d/2,

    d = 1:     Phi_1(a) = a / pi;
    d = 2:     Phi_2(a) = z, inverted as a = 2 asin(sqrt(v));
    d >= 3:    I_z(h, h) = (z(1-z))^h / (h B(h, h)) * sum_k (2h)_k / (h+1)_k z^k,

the last the hypergeometric series 2F1(2h, 1; h+1; z).  It is summed on
z <= 1/2, where every term is positive, and above it by the symmetry
I_z = 1 - I_{1-z} with 1 - z = cos^2(a/2); all land within a few eps
relative of the exact value.  The inverse for d >= 3 is a
bracketed Newton iteration in z from the small-cap asymptote
I_z ~ z^h / (h B(h, h)), and a measure v > 1/2 maps to pi minus the
colatitude of 1 - v.

The partition splits the sphere into two polar caps plus collars of equal
cumulative measure; each collar is subdivided by recursively partitioning
its angular factor S^{d-1}.  Collar cell counts round the accumulated
ideal counts to the nearest integer, and a count within `COLLAR_TIE` of a
half-integer rounds down, so the cell structure does not follow the last
bits of the cap measure.  Cell diameters are computed exactly (not just
bounded) from the closed-form maximum of the geodesic distance over a
product cell, so the measured diameter constants are tight for this
construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# Largest deviation of a point norm from 1 that a PointConfiguration accepts.
CONFIG_NORM_TOLERANCE = 1e-12
# The sphere dimensions d of S^d that every module supports.
SUPPORTED_DIMENSIONS = range(1, 9)
# Angular slack of cell membership tests.
CELL_TOLERANCE = 1e-9
# Accumulated ideal collar counts this close to k + 1/2 round down to k.
COLLAR_TIE = 1e-9


def require_count(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless value is an integer >= minimum; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def require_positive_finite(name: str, value) -> None:
    """Raise ValueError unless 0 < value < inf; NaN fails the negated comparison."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def require_supported_dimension(d: int) -> None:
    """Raise ValueError unless d is an integer in SUPPORTED_DIMENSIONS."""
    lo, hi = SUPPORTED_DIMENSIONS[0], SUPPORTED_DIMENSIONS[-1]
    require_count("sphere dimension", d, lo)
    if d > hi:
        raise ValueError(f"sphere dimension must be in [{lo}, {hi}], got {d}")


def frozen_copy(x) -> np.ndarray:
    """A read-only float copy of x in C order; x itself is left as it was."""
    out = np.array(x, dtype=float, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PointConfiguration:
    """An ordered set of N unit vectors in R^{d+1}."""

    d: int
    points: np.ndarray  # (n, d+1)

    def __post_init__(self):
        require_supported_dimension(self.d)
        pts = frozen_copy(self.points)
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
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def norm_column(x: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a float array, as an (n, 1) column.

    Bit for bit np.linalg.norm(x, axis=1, keepdims=True), which computes
    the same sum of squares, without its dispatch.
    """
    return np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Each row of x divided by its Euclidean norm."""
    return x / norm_column(x)


def random_points(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform points on S^d, as an (n, d+1) array."""
    return unit_rows(rng.standard_normal((n, d + 1)))


def cap_measure(d: int, theta: float) -> float:
    """Normalized measure of the spherical cap of colatitude theta on S^d."""
    if theta <= 0.0:
        return 0.0
    if theta >= math.pi:
        return 1.0
    if d == 1:
        return theta / math.pi
    if d == 2:
        return math.sin(0.5 * theta) ** 2
    if theta <= 0.5 * math.pi:
        return _incomplete_beta(d, math.sin(0.5 * theta) ** 2)
    return 1.0 - _incomplete_beta(d, math.cos(0.5 * theta) ** 2)


def cap_colatitude(d: int, measure: float) -> float:
    """Inverse of `cap_measure`: the colatitude whose cap has the given measure."""
    v = min(max(measure, 0.0), 1.0)
    if d == 1:
        return math.pi * v
    if d == 2:
        return 2.0 * math.asin(min(1.0, math.sqrt(v)))
    if v > 0.5:
        return math.pi - cap_colatitude(d, 1.0 - v)
    return 2.0 * math.asin(math.sqrt(_inverse_incomplete_beta(d, v)))


def _small_cap_constant(d: int) -> float:
    """1 / (h B(h, h)) with h = d/2: I_z(h, h) ~ z^h / (h B(h, h)) as z -> 0."""
    h = 0.5 * d
    return math.gamma(d) / (h * math.gamma(h) ** 2)


@lru_cache(maxsize=4096)
def _incomplete_beta(d: int, z: float) -> float:
    """I_z(d/2, d/2) for 0 <= z <= 1/2 (module docstring), cached because a
    partition build asks for each collar bound once per cell."""
    h = 0.5 * d
    term = total = 1.0
    k = 0
    while term > 0.25 * math.ulp(1.0) * total:
        term *= (2.0 * h + k) / (h + 1.0 + k) * z
        total += term
        k += 1
    return _small_cap_constant(d) * (z * (1.0 - z)) ** h * total


def _inverse_incomplete_beta(d: int, v: float) -> float:
    """The z in [0, 1/2] with I_z(d/2, d/2) = v, for d >= 3 and 0 <= v <= 1/2.

    Starts from the small-cap asymptote z^h / (h B(h, h)) = v, which is
    the answer to rounding once z < 2^-60, since I_z = z^h / (h B(h, h)) *
    (1 + O(z)).  Otherwise Newton on z, kept inside a bracket that every
    evaluation narrows; a step that leaves the bracket bisects it
    instead.  I_z is convex on [0, 1/2] for d >= 3, so after at most one
    step the iterates approach the root from above.
    """
    h = 0.5 * d
    c = _small_cap_constant(d)
    z = min(0.5, v ** (1.0 / h) / c ** (1.0 / h))
    if z < 2.0**-60:
        return z
    lo, hi = 0.0, 0.5
    for _ in range(100):
        f = _incomplete_beta(d, z) - v
        new = z - f / (h * c * (z * (1.0 - z)) ** (h - 1.0))
        if abs(new - z) <= 4.0 * math.ulp(z):
            return new
        if f > 0.0:
            hi = z
        else:
            lo = z
        z = new if lo < new < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"cap colatitude did not converge for d={d}, measure={v!r}")


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

    def contains(self, x, tol: float = CELL_TOLERANCE) -> bool:
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


@dataclass(frozen=True)
class Partition:
    """An area-regular partition of S^d into n zonal cells; the build
    asserts that each representative lies in its own cell."""

    d: int
    n: int
    cells: tuple[ZonalCell, ...]
    representatives: np.ndarray
    area_estimates: np.ndarray
    diameter_estimates: np.ndarray

    def __post_init__(self):
        for name in ("representatives", "area_estimates", "diameter_estimates"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))
        total = float(math.fsum(self.area_estimates))
        if abs(total - 1.0) > 1e-9:
            raise AssertionError(f"cell areas sum to {total!r}, not 1")
        worst = float(np.max(np.abs(self.area_estimates - 1.0 / self.n)))
        if worst > 1e-9:
            raise AssertionError(f"cell area deviates from 1/n by {worst:.3e}")
        misplaced = self.misplaced(self.representatives)
        if misplaced.size:
            raise AssertionError(f"representative {misplaced[0]} lies outside its cell")

    def misplaced(self, points) -> np.ndarray:
        """Indices i, in order, of the rows points[i] outside cells[i]:
        the same verdicts as cells[i].contains(points[i])."""
        pts = np.asarray(points, dtype=float)
        if pts.shape != (self.n, self.d + 1):
            raise ValueError(f"expected {(self.n, self.d + 1)} sample points, got {pts.shape}")
        return _misplaced(self.cells, pts, CELL_TOLERANCE)

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


def _misplaced(cells, pts: np.ndarray, tol: float) -> np.ndarray:
    """Indices i, in order, of the rows pts[i] outside cells[i] at tolerance tol.

    The same verdicts as cells[i].contains(pts[i], tol=tol), level by
    level over all rows at once.  Angles come from libm (math.acos,
    math.atan2, math.sin) as in `contains`: numpy's SIMD arccos and
    arctan2 differ from it in the last bit for some inputs, which would
    move points that sit on a tolerance edge.
    """
    bad = np.zeros(len(pts), dtype=bool)
    rows = np.arange(len(pts))  # rows still being checked at this level
    tols = np.full(len(pts), tol)
    cells = list(cells)
    for dim in range(pts.shape[1] - 1, 0, -1):
        lo = np.array([c.lo for c in cells]) - tols
        hi = np.array([c.hi for c in cells]) + tols
        if dim == 1:  # an arc also holds its angles one turn up or down
            phi = _libm(math.atan2, pts[:, 1], pts[:, 0]) % TWO_PI
            turns = [phi, phi + TWO_PI, phi - TWO_PI]
            inside = np.any([(lo <= a) & (a <= hi) for a in turns], axis=0)
            bad[rows[~inside]] = True
            break
        # fmin/fmax keep `contains`' clamp, which maps NaN to 1
        theta = _libm(math.acos, np.fmax(-1.0, np.fmin(1.0, pts[:, 0])))
        inside = (lo <= theta) & (theta <= hi)
        bad[rows[~inside]] = True
        st = _libm(math.sin, theta)
        # polar caps hold their whole subsphere; at a pole the angular
        # factor is degenerate
        has_sub = np.array([c.sub is not None for c in cells], dtype=bool)
        deeper = inside & has_sub & (st >= 1e-12)
        rows, tols, st = rows[deeper], tols[deeper] / st[deeper], st[deeper]
        pts = pts[deeper, 1:] / st[:, None]
        cells = [c.sub for c, go in zip(cells, deeper) if go]
    return np.flatnonzero(bad)


def _libm(fn, *columns) -> np.ndarray:
    """fn applied to the columns element by element, in libm's rounding."""
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), dtype=float, count=len(columns[0]))


def _collar_counts(d: int, n: int, theta_c: float, n_collars: int) -> list[int]:
    """Integer cell counts per collar by cumulative rounding of ideal counts;
    a count within COLLAR_TIE of k + 1/2 rounds down to k."""
    fitting = (math.pi - 2.0 * theta_c) / n_collars
    counts = []
    acc = 0.0
    for j in range(1, n_collars + 1):
        lo = theta_c + (j - 1) * fitting
        hi = theta_c + j * fitting
        ideal = n * (cap_measure(d, hi) - cap_measure(d, lo))
        y = max(1, math.ceil(ideal + acc - 0.5 - COLLAR_TIE))
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
    Partitions are frozen, so a repeated (d, n) returns the cached build.
    """
    require_supported_dimension(d)
    require_count("cell count", n)
    return _cached_partition(d, n)


@lru_cache(maxsize=32)
def _cached_partition(d: int, n: int) -> Partition:
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
