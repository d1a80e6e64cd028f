"""Numerical integration over S^d and kernel-frame polynomials.

Product rules (exact through a stated polynomial degree) exist for d <= 3:
a uniform grid on the circle, Gauss-Legendre x uniform longitudes on S^2,
and a Chebyshev(2nd kind) x S^2 nested product on S^3.  Higher dimensions
fall back to Monte Carlo with a fixed seed and exactness degree 0.

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
from scipy.special import roots_chebyu, roots_legendre

from .kernel import (
    KernelModel,
    _exact_row_sums,
    kernel_derivative,
    kernel_value,
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


def _circle_rule(resolution: int):
    m = 2 * resolution
    phis = 2.0 * math.pi * np.arange(m) / m
    nodes = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    weights = np.full(m, 1.0 / m)
    return nodes, weights, 2 * resolution - 1


def _s2_rule(resolution: int):
    x, w = roots_legendre(resolution)
    m = 2 * resolution
    phis = 2.0 * math.pi * np.arange(m) / m
    st = np.sqrt(1.0 - x**2)
    nodes = np.empty((resolution * m, 3))
    nodes[:, 0] = np.repeat(x, m)
    nodes[:, 1] = np.repeat(st, m) * np.tile(np.cos(phis), resolution)
    nodes[:, 2] = np.repeat(st, m) * np.tile(np.sin(phis), resolution)
    weights = np.repeat(w / 2.0, m) / m
    return nodes, weights, 2 * resolution - 1


def _s3_rule(resolution: int):
    # colatitude factor: weight sqrt(1 - x^2) on [-1, 1], total mass pi/2
    x, w = roots_chebyu(resolution)
    sub_nodes, sub_weights, sub_exact = _s2_rule(resolution)
    st = np.sqrt(1.0 - x**2)
    n_sub = len(sub_weights)
    nodes = np.empty((resolution * n_sub, 4))
    nodes[:, 0] = np.repeat(x, n_sub)
    nodes[:, 1:] = np.repeat(st, n_sub)[:, None] * np.tile(sub_nodes, (resolution, 1))
    weights = np.repeat(w / (math.pi / 2.0), n_sub) * np.tile(sub_weights, resolution)
    return nodes, weights, min(2 * resolution - 1, sub_exact)


@lru_cache(maxsize=64)
def _cached_rule(d: int, resolution: int) -> QuadratureRule:
    if d == 1:
        nodes, weights, exact = _circle_rule(resolution)
    elif d == 2:
        nodes, weights, exact = _s2_rule(resolution)
    elif d == 3:
        nodes, weights, exact = _s3_rule(resolution)
    else:
        rng = np.random.default_rng(0)
        count = 1024 * resolution
        nodes = unit_rows(rng.standard_normal((count, d + 1)))
        weights = np.full(count, 1.0 / count)
        exact = 0
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
    """Weighted sum of kernel sections: P(x) = sum_m a_m K(<v_m, x>)."""

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

    def _blocks(self, n: int):
        rows = _EVAL_BLOCK_COSINES // max(self.anchors.shape[0], 1)
        return row_blocks(n, max(1, min(_EVAL_BLOCK_ROWS, rows)))

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        values = np.empty(pts.shape[0])
        for lo, hi in self._blocks(pts.shape[0]):
            s = pts[lo:hi] @ self.anchors.T
            values[lo:hi] = kernel_value(self.model, s) @ self.coefficients
        return float(values[0]) if single else values

    def gradient(self, points) -> np.ndarray:
        """Spherical gradient at each point; rows are tangent vectors."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        grad = np.empty(pts.shape)
        for lo, hi in self._blocks(pts.shape[0]):
            block = pts[lo:hi]
            s = block @ self.anchors.T
            weighted = kernel_derivative(self.model, s) * self.coefficients  # (rows, m)
            raw = weighted @ self.anchors
            radial = np.einsum("nm,nm->n", weighted, s)
            grad[lo:hi] = raw - radial[:, None] * block
        return grad[0] if single else grad

    def gradient_norm(self, points):
        grad = self.gradient(points)
        if grad.ndim == 1:
            return float(np.linalg.norm(grad))
        return np.linalg.norm(grad, axis=1)

    def squared_norm(self) -> float:
        """Inner-product norm (P, P) = sum_m a_m P(v_m), by the reproducing property."""
        return float(self.coefficients @ self(self.anchors))


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
