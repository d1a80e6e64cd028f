"""Design criterion: defect functional, per-degree residuals, verification.

A configuration X = {x_1..x_N} on S^d is a spherical t-design exactly when
the equal-weight average of every polynomial of degree <= t matches its
integral.  In kernel form that is equivalent to the vanishing of

    defect(X) = (1/N^2) * sum_{i,j} K(<x_i, x_j>),

a nonnegative functional (it is the squared norm of the averaged kernel
sections).  Splitting the kernel by harmonic degree gives residuals
rho_1..rho_t with defect = sum_k rho_k.

Verification (`defect`, `degree_residuals`, `verify_design`) takes every
kernel value from the two-term form 1 + K = C(t+d, t) P_t + C(t+d-1, t-1)
P_{t-1} on S^(d+2) (`kernel._value`), the form the finder and the flow use
too; only the residuals scan the degrees on S^d one by one, so the sum of
the residuals matches the defect up to rounding.

The pair matrices are symmetric, so each unordered pair is evaluated once:
the pass walks the upper triangle in row blocks (rows lo..hi against
points lo..n) of at most `kernel.BLOCK_COSINES` pairs, or one row when a
row is wider.  A block's leading square counts once and the rectangle
right of it twice.  Error-free extraction (`kernel._exact_level_sums`)
turns every block into a few level sums that add up exactly, and one
math.fsum over the levels of all blocks rounds the total once: it equals
math.fsum of all N^2 entries of the matrix.  A correctly rounded total
does not depend on point ordering, so permutation invariance holds
exactly, not just approximately.  The pair inner products go through
einsum rather than BLAS matmul for the same reason: BLAS tiling makes the
last ulp of a dot product depend on its position in the output matrix,
while einsum gives every entry the same value as its mirror image.  Since
every entry and the total are the same whatever the block size, so is the
verdict.  `verify_design` takes the defect and the residuals from one pass.

The finder minimises the defect as the squared norm of the averaged section
P_X = (1/N) sum_j K(<x_j, .>), a `KernelPolynomial` (BLAS inner products,
plain sums): deterministic at a fixed thread count and within a few
eps * K(1) of `defect`, but not exactly permutation-invariant.
`_section_defect` gives it that norm and the gradient (2/N) grad P_X from
one kernel pass; `defect_gradient` is the same gradient for a
configuration.  Every finder result is re-verified with the exact
`verify_design`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import harmonics
from .kernel import (
    KernelModel,
    _degree_scan,
    _exact_level_sums,
    _value,
    clamp_cosine,
    triangle_blocks,
)
from .quadrature import KernelPolynomial
from .sphere_geometry import PointConfiguration, require_supported_dimension, unit_rows


def lower_bound(d: int, t: int) -> int:
    """Minimal possible size of a spherical t-design on S^d.

    Two-case binomial formula: C(d+k, d) + C(d+k-1, d) for t = 2k and
    2*C(d+k, d) for t = 2k+1.  Exact integer arithmetic.
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    if t < 1:
        raise ValueError(f"degree must be >= 1, got {t}")
    k = t // 2
    if t % 2 == 0:
        return math.comb(d + k, d) + math.comb(d + k - 1, d)
    return 2 * math.comb(d + k, d)


def _pair_cosines(model: KernelModel, config: PointConfiguration):
    """Yield (lo, hi, s): clamped inner products of rows lo..hi with points lo..n.

    The blocks tile the upper triangle of the pair matrix (including the
    diagonal); the einsum cosines are exactly symmetric, so its lower
    triangle holds the same values.
    """
    if model.d != config.d:
        raise ValueError(f"model is on S^{model.d} but configuration is on S^{config.d}")
    pts = config.points
    for lo, hi in triangle_blocks(config.n):
        yield lo, hi, clamp_cosine(np.einsum("ik,jk->ij", pts[lo:hi], pts[lo:]))


def _kernel_blocks(model: KernelModel, config: PointConfiguration):
    """Yield (s, weights, levels) per block of `_pair_cosines`: column
    weights 1 on the block's leading square and 2 on the rectangle right of
    it, whose mirror image lies below the diagonal (exact scalings), and
    the exact level sums of the weighted kernel values."""
    for lo, hi, s in _pair_cosines(model, config):
        weights = np.full(config.n - lo, 2.0)
        weights[: hi - lo] = 1.0
        values = _value(model, s)
        values *= weights
        yield s, weights, _exact_level_sums(values)


def defect(model: KernelModel, config: PointConfiguration) -> float:
    """Kernel defect of the configuration; zero exactly at t-designs."""
    levels = (level for *_, block in _kernel_blocks(model, config) for level in block)
    return math.fsum(levels) / config.n**2


def _average_section(model: KernelModel, points: np.ndarray) -> KernelPolynomial:
    """P_X = (1/N) sum_j K(<x_j, .>); its squared norm is the defect of X."""
    n = points.shape[0]
    return KernelPolynomial(model, points, np.full(n, 1.0 / n))


def _defect_and_residuals(model: KernelModel, config: PointConfiguration):
    """`defect` and `degree_residuals` from one pair pass, bit for bit: the
    levels of `_kernel_blocks`, and per degree those of P_k times the
    weights, a new array, as `_exact_level_sums` overwrites its input and
    the scan on S^d still needs P_k for two more degrees."""
    kernel_levels, degree_levels = [], [[] for _ in range(model.t)]
    for s, weights, levels in _kernel_blocks(model, config):
        kernel_levels += levels
        for k, p in _degree_scan(model.d, model.t, s):
            degree_levels[k - 1] += _exact_level_sums(p * weights)
    n_sq = config.n**2
    residuals = np.array([z * math.fsum(r) / n_sq for z, r in zip(model.dims, degree_levels)])
    return math.fsum(kernel_levels) / n_sq, residuals


def degree_residuals(model: KernelModel, config: PointConfiguration) -> np.ndarray:
    """Per-degree residuals rho_1..rho_t; nonnegative and summing to the defect."""
    return _defect_and_residuals(model, config)[1]


def _section_defect(model: KernelModel, points: np.ndarray) -> tuple[float, np.ndarray]:
    """The finder's objective ||P_X||^2 and its gradient (2/N) grad P_X,
    one tangent row per point, from one kernel pass over the section."""
    value, grad = _average_section(model, points).squared_norm_and_gradient()
    return value, (2.0 / points.shape[0]) * grad


def defect_gradient(model: KernelModel, config: PointConfiguration) -> np.ndarray:
    """Spherical gradient of the defect, (2/N) grad P_X: one tangent row per point."""
    return _section_defect(model, config.points)[1]


@dataclass
class DesignReport:
    """Verification outcome for one configuration at one degree."""

    d: int
    t: int
    n: int
    defect: float
    residuals: np.ndarray
    verdict: bool
    tolerance: float
    lower_bound: int
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "t": self.t,
            "n": self.n,
            "defect": self.defect,
            "residuals": [float(r) for r in self.residuals],
            "verdict": bool(self.verdict),
            "tolerance": self.tolerance,
            "lower_bound": self.lower_bound,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


DEFAULT_TOLERANCE = 1e-10


class CrossCheckError(RuntimeError):
    """The kernel defect disagrees with the independent harmonic cross-check."""


def verify_design(
    model: KernelModel,
    config: PointConfiguration,
    tolerance: float = DEFAULT_TOLERANCE,
    meta: dict | None = None,
) -> DesignReport:
    """Full verification report; verdict is defect <= tolerance.

    On S^2 the kernel defect is additionally cross-checked against the
    squared empirical means of the explicit real harmonic basis; a
    disagreement beyond rounding scale indicates an internal bug and
    raises CrossCheckError.
    """
    if not 0.0 < tolerance < math.inf:  # rejects NaN too
        raise ValueError("tolerance must be positive and finite")
    total, residuals = _defect_and_residuals(model, config)
    report_meta = dict(meta or {})
    if model.d == 2:
        basis_means = harmonics.mean_residuals(model.t, config.points)
        cross = float(math.fsum(r * r for r in basis_means))
        scale = model.space_dim  # K(1), exactly
        gap = abs(cross - total)
        report_meta["harmonic_cross_check"] = cross
        report_meta["harmonic_cross_check_gap"] = gap
        if gap > 1e-9 * max(total, cross) + 1e-12 * scale:
            raise CrossCheckError(
                f"kernel defect {total!r} disagrees with harmonic cross-check {cross!r}"
            )
    return DesignReport(
        d=model.d,
        t=model.t,
        n=config.n,
        defect=total,
        residuals=residuals,
        verdict=bool(total <= tolerance),
        tolerance=tolerance,
        lower_bound=lower_bound(model.d, model.t),
        meta=report_meta,
    )


# ---------------------------------------------------------------------------
# catalog of exact reference configurations


def _polygon(n: int) -> np.ndarray:
    phis = 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(phis), np.sin(phis)], axis=1)


def _simplex(d: int) -> np.ndarray:
    # columns of the Helmert-style orthonormal basis of the hyperplane
    # orthogonal to (1, ..., 1) in R^{d+2}; pairwise inner products -1/(d+1)
    m = d + 2
    rows = []
    for j in range(1, d + 2):
        h = np.zeros(m)
        h[:j] = 1.0
        h[j] = -j
        h /= math.sqrt(j * (j + 1))
        rows.append(h)
    basis = np.stack(rows, axis=0)  # (d+1, d+2)
    return unit_rows(basis.T)


def _cross_polytope(d: int) -> np.ndarray:
    eye = np.eye(d + 1)
    return np.concatenate([eye, -eye], axis=0)


def _cube(d: int) -> np.ndarray:
    corners = np.array(
        [[(1.0 if (i >> b) & 1 else -1.0) for b in range(d + 1)]
         for i in range(2 ** (d + 1))]
    )
    return corners / math.sqrt(d + 1)


def _icosahedron() -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for a in (1.0, -1.0):
        for b in (phi, -phi):
            verts += [[0.0, a, b], [a, b, 0.0], [b, 0.0, a]]
    return np.array(verts) / math.sqrt(1.0 + phi * phi)


def _dodecahedron() -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    inv = 1.0 / phi
    verts = [
        [sx, sy, sz]
        for sx in (1.0, -1.0)
        for sy in (1.0, -1.0)
        for sz in (1.0, -1.0)
    ]
    for a in (inv, -inv):
        for b in (phi, -phi):
            verts += [[0.0, a, b], [a, b, 0.0], [b, 0.0, a]]
    return np.array(verts) / math.sqrt(3.0)


def _d4_minimal_vectors() -> np.ndarray:
    verts = []
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    v = np.zeros(4)
                    v[i] = si
                    v[j] = sj
                    verts.append(v)
    return np.array(verts) / math.sqrt(2.0)


def _24_cell() -> np.ndarray:
    eye = np.eye(4)
    units = np.concatenate([eye, -eye], axis=0)
    halves = np.array(
        [[(0.5 if (i >> b) & 1 else -0.5) for b in range(4)] for i in range(16)]
    )
    return np.concatenate([units, halves], axis=0)


# builders of S^d configurations by dimension d; polygon(n) is on S^1
_PARAMETRIC = {
    "polygon": _polygon,
    "simplex": _simplex,
    "cross-polytope": _cross_polytope,
    "cube": _cube,
}

_FIXED = {
    "icosahedron": (_icosahedron, 2),
    "dodecahedron": (_dodecahedron, 2),
    "d4-minimal-vectors": (_d4_minimal_vectors, 3),
    "24-cell": (_24_cell, 3),
}


def catalog_design(name: str) -> PointConfiguration:
    """Exact-coordinate reference configuration by name.

    Parametric names take an integer argument, e.g. "polygon(7)",
    "simplex(3)", "cross-polytope(2)", "cube(3)"; fixed names are
    "icosahedron", "dodecahedron", "d4-minimal-vectors", "24-cell".
    """
    match = re.fullmatch(r"\s*([a-z0-9-]+)\s*(?:\(\s*(\d+)\s*\))?\s*", name)
    if not match:
        raise ValueError(f"unknown catalog name {name!r}")
    base, arg = match.group(1), match.group(2)
    if base in _FIXED:
        if arg is not None:
            raise ValueError(f"{base} takes no argument")
        builder, d = _FIXED[base]
        return PointConfiguration(d=d, points=builder())
    if base in _PARAMETRIC:
        if arg is None:
            raise ValueError(f"{base} requires an integer argument, e.g. {base}(3)")
        value = int(arg)
        if base == "polygon":
            if value < 1:
                raise ValueError(f"polygon({value}) needs at least one vertex")
            return PointConfiguration(d=1, points=_polygon(value))
        require_supported_dimension(value)
        return PointConfiguration(d=value, points=_PARAMETRIC[base](value))
    raise ValueError(f"unknown catalog name {name!r}")
