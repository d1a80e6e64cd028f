"""Numerical integration over S^d and kernel-frame polynomials.

On S^1..S^3 one recursive product rule, exact through a stated polynomial
degree: a uniform grid on the circle, and on S^d a Gauss-Jacobi rule in
the colatitude cosine times the rule on S^(d-1).  Higher dimensions use
Monte Carlo with seed 0 and exactness degree 0, since the product rule
there would need 2 * resolution^d nodes.

Polynomials are always represented in the kernel-section frame: anchors
v_1..v_M on the sphere and coefficients a_1..a_M encode

    P(x) = sum_m a_m * K(<v_m, x>),

which lies in the zero-mean degree <= t space by construction and has a
closed-form spherical gradient through the kernel derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .kernel import (
    KernelModel,
    _exact_row_sums,
    kernel_derivative,
    kernel_value,
    kernel_value_and_derivative,
    row_blocks,
)
from .sphere_geometry import frozen_copy, random_points, require_supported_dimension, unit_rows

# keep per-degree recurrence temporaries cache-sized on large node batches:
# at most 4096 rows and about 2**20 cosines a block
_EVAL_BLOCK_ROWS = 4096
_EVAL_BLOCK_COSINES = 2**20


def _exact_unit_weights(weights: np.ndarray) -> np.ndarray:
    """Scale weights so that math.fsum(weights) == 1.0 exactly."""
    w = weights / math.fsum(weights)
    for _ in range(8):
        err = math.fsum(w) - 1.0
        if err == 0.0:
            break
        w[int(np.argmax(w))] -= err
    return w


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights summing to 1 on S^d.

    Integrates every polynomial of degree <= exactness_degree exactly
    (exactness_degree == 0 marks the Monte Carlo fallback).
    """

    d: int
    resolution: int
    nodes: np.ndarray  # (m, d+1)
    weights: np.ndarray  # (m,)
    exactness_degree: int

    def __post_init__(self):
        weights = frozen_copy(self.weights)
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        object.__setattr__(self, "nodes", frozen_copy(self.nodes))
        object.__setattr__(self, "weights", weights)


def _product_rule(d: int, resolution: int):
    """Nodes and weights exact through degree 2 * resolution - 1 on S^d.

    S^1 is the uniform grid of 2 * resolution angles.  S^d for d >= 2 is a
    Gauss-Jacobi rule in x = x_0, weight (1 - x^2)^((d-2)/2), times the rule
    on S^(d-1) scaled by sqrt(1 - x^2).
    """
    if d == 1:
        m = 2 * resolution
        phis = 2.0 * math.pi * np.arange(m) / m
        return np.stack([np.cos(phis), np.sin(phis)], axis=1), np.full(m, 1.0 / m)
    x, w = roots_jacobi(resolution, (d - 2) / 2, (d - 2) / 2)
    sub_nodes, sub_weights = _product_rule(d - 1, resolution)
    n_sub = len(sub_weights)
    nodes = np.empty((resolution * n_sub, d + 1))
    nodes[:, 0] = np.repeat(x, n_sub)
    st = np.repeat(np.sqrt(1.0 - x**2), n_sub)
    nodes[:, 1:] = st[:, None] * np.tile(sub_nodes, (resolution, 1))
    weights = np.repeat(w / w.sum(), n_sub) * np.tile(sub_weights, resolution)
    return nodes, weights


@lru_cache(maxsize=64)
def _cached_rule(d: int, resolution: int) -> QuadratureRule:
    if d > 3:
        rng = np.random.default_rng(0)
        count = 1024 * resolution
        nodes = unit_rows(rng.standard_normal((count, d + 1)))
        weights = np.full(count, 1.0 / count)
        exact = 0
    else:
        nodes, weights = _product_rule(d, resolution)
        exact = 2 * resolution - 1
    weights = _exact_unit_weights(weights)
    return QuadratureRule(
        d=d,
        resolution=resolution,
        nodes=nodes,
        weights=weights,
        exactness_degree=exact,
    )


def build_quadrature(d: int, resolution: int) -> QuadratureRule:
    """Quadrature rule on S^d; product rules for d <= 3, Monte Carlo (seed 0) beyond."""
    require_supported_dimension(d)
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    return _cached_rule(d, resolution)


def default_resolution(t: int) -> int:
    """Resolution matched to degree-t workloads (exact through degree >= 2t)."""
    return t + 2


def integrate(rule: QuadratureRule, f) -> float:
    """Weighted node sum of f, where f maps an (m, d+1) array to (m,) values."""
    values = np.asarray(f(rule.nodes), dtype=float)
    if values.shape != rule.weights.shape:
        raise ValueError(
            f"integrand returned shape {values.shape}, expected {rule.weights.shape}"
        )
    return float(_exact_row_sums((rule.weights * values)[None])[0])


def integrate_refined(
    d: int,
    f,
    start_resolution: int,
    rel_tol: float = 1e-8,
    max_resolution: int = 1024,
):
    """Integrate with resolution doubling until two estimates agree.

    Returns (value, achieved_rel_change, resolution).  Absolute-value
    integrands converge only algebraically, so the loop stops at
    max_resolution if the target is not reached; the achieved agreement is
    reported so callers can decide.
    """
    res = start_resolution
    prev = None
    change = math.inf
    while True:
        value = integrate(build_quadrature(d, res), f)
        if prev is not None:
            change = abs(value - prev) / max(abs(value), 1e-300)
            if change <= rel_tol:
                return value, change, res
        if 2 * res > max_resolution:
            return value, change, res
        prev = value
        res *= 2


@dataclass(frozen=True)
class KernelPolynomial:
    """Weighted sum of kernel sections: P(x) = sum_m a_m K(<v_m, x>).

    Values, gradients and the section's own norm and gradient all walk the
    evaluation points in row blocks through `_walk`, one recurrence pass
    per block.
    """

    model: KernelModel
    anchors: np.ndarray  # (m, d+1)
    coefficients: np.ndarray  # (m,)

    def __post_init__(self):
        anchors = frozen_copy(self.anchors)
        coefficients = frozen_copy(self.coefficients)
        if anchors.ndim != 2 or anchors.shape[1] != self.model.d + 1:
            raise ValueError(f"anchors must be (m, {self.model.d + 1})")
        if coefficients.shape != (anchors.shape[0],):
            raise ValueError("one coefficient per anchor required")
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "coefficients", coefficients)

    def _walk(self, pts: np.ndarray, kernel):
        """Yield (rows, block, s, kernel(model, s)) for each row block of pts.

        The only place a cosine block s = block @ anchors.T is formed.  When
        pts is the anchor array itself, as in `squared_norm_and_gradient`,
        a block that spans every row multiplies one buffer by its
        transpose, which numpy rounds as a symmetric (SYRK) product; any
        other points, an equal copy of the anchors included, go through
        GEMM, whose last bits can differ.
        """
        size = max(1, min(_EVAL_BLOCK_ROWS, _EVAL_BLOCK_COSINES // max(self.anchors.shape[0], 1)))
        for lo, hi in row_blocks(pts.shape[0], size):
            block = pts[lo:hi]
            s = block @ self.anchors.T
            yield slice(lo, hi), block, s, kernel(self.model, s)

    def _tangent(self, block, s, derivative) -> np.ndarray:
        """Spherical gradient rows at block from its kernel derivatives."""
        weighted = derivative * self.coefficients  # (rows, m)
        radial = np.einsum("nm,nm->n", weighted, s)
        return weighted @ self.anchors - radial[:, None] * block

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        values = np.empty(pts.shape[0])
        for rows, _, _, k in self._walk(pts, kernel_value):
            values[rows] = k @ self.coefficients
        return float(values[0]) if single else values

    def gradient(self, points) -> np.ndarray:
        """Spherical gradient at each point; rows are tangent vectors."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        grad = np.empty(pts.shape)
        for rows, block, s, dk in self._walk(pts, kernel_derivative):
            grad[rows] = self._tangent(block, s, dk)
        return grad[0] if single else grad

    def gradient_norm(self, points):
        grad = self.gradient(points)
        if grad.ndim == 1:
            return float(np.linalg.norm(grad))
        return np.linalg.norm(grad, axis=1)

    def squared_norm_and_gradient(self) -> tuple[float, np.ndarray]:
        """(P, P) = sum_m a_m P(v_m), by the reproducing property, and the
        gradient rows at the anchors, from one recurrence pass.

        Bit for bit `coefficients @ self(anchors)` and `gradient(anchors)`.
        """
        values = np.empty(self.anchors.shape[0])
        grad = np.empty(self.anchors.shape)
        for rows, block, s, (k, dk) in self._walk(self.anchors, kernel_value_and_derivative):
            values[rows] = k @ self.coefficients
            grad[rows] = self._tangent(block, s, dk)
        return float(self.coefficients @ values), grad


def sample_boundary_polynomial(
    model: KernelModel,
    rule: QuadratureRule,
    m_anchors: int,
    seed,
) -> KernelPolynomial:
    """Draw a random polynomial scaled onto the unit gradient-mass shell.

    Anchors are uniform on the sphere and raw coefficients standard normal;
    the coefficients are then divided by the rule's estimate of the
    gradient-magnitude integral, so that integrate(rule, |grad P|) == 1 up
    to rounding.  Deterministic for a given seed.
    """
    if rule.d != model.d:
        raise ValueError("rule and model are on different spheres")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        anchors = random_points(model.d, m_anchors, rng)
        coefficients = rng.standard_normal(m_anchors)
        if np.max(np.abs(coefficients)) < 1e-14:
            continue
        candidate = KernelPolynomial(model, anchors, coefficients)
        mass = integrate(rule, candidate.gradient_norm)
        if mass < 1e-14:
            continue
        return KernelPolynomial(model, anchors, coefficients / mass)
    raise RuntimeError("failed to sample a nonzero polynomial after 100 attempts")
