"""Numerical integration over S^d and kernel-frame polynomials.

On S^1..S^3 one recursive product rule, exact through a stated polynomial
degree: a uniform grid on the circle, and on S^d a Gauss-Jacobi rule in
the colatitude cosine x, weight (1 - x^2)^((d-2)/2), times the rule on
S^(d-1).  Every colatitude rule comes from one Newton iteration on the
kernel's recurrence (`kernel._degree_scan`), with the derivative from
(1 - x^2) P_n' = n (P_(n-1) - x P_n) (`_gauss_rule`): Gauss-Legendre on
S^2 and Gauss-Chebyshev of the second kind on S^3.  Higher dimensions use
Monte Carlo with seed 0 and exactness degree 0, since the product rule
there would need 2 * resolution^d nodes.  Every rule `build_quadrature`
returns stores at most `MAX_RULE_FLOATS` floats, coordinates and weights;
it refuses a larger one before allocating anything.

Product-rule nodes are x(theta_1, ..., theta_(d-1), phi) in C order of the
angles: x_0 = cos theta_1, x_1 = sin theta_1 cos theta_2, ..., with the
Gauss colatitudes cos theta_a = x_i and, last, contiguous runs of
2 * resolution circle angles phi_j = 2 pi j / (2 * resolution), starting at
phi_0 = 0.  One point map, `_angle_points`, builds them from per-axis
cosines and sines, for the rules and for the equispaced grid alike.  A
polynomial of degree deg is a trigonometric polynomial of degree <= deg in
each angle separately, so `_grid_interpolant` evaluates it once on a grid
of 2 * deg + 2 equispaced angles per axis and reaches every resolution's
nodes by per-axis interpolation, the separable idea behind fast spherical
Fourier methods (Gräf & Potts 2011): one cached Dirichlet matrix per axis
(`_axis_matrix`), the circle's applied to all circles as one matrix
product.  The evaluations do not grow with the resolution; only the matrix
products do.

Polynomials are always represented in the kernel-section frame: anchors
v_1..v_M on the sphere and coefficients a_1..a_M encode

    P(x) = sum_m a_m * K(<v_m, x>),

which lies in the zero-mean degree <= t space by construction and has a
closed-form spherical gradient through the kernel derivative:

    grad P(x) = sum_m a_m K'(s_m) (v_m - s_m x) = G - <G, x> x,
    G = sum_m a_m K'(s_m) v_m,  s_m = <v_m, x>.

The ambient gradient G of a block of points is one product
K'(S) @ (a[:, None] * V), and <G, x> = sum_m a_m K'(s_m) s_m, so the
cosine block is contracted once.  Tests pin the result within
4 eps * sum|a_m| * K'(1) of the per-anchor sum, summed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kernel import (
    KernelModel,
    _degree_scan,
    _exact_level_sums,
    kernel_derivative,
    kernel_value,
    kernel_value_and_derivative,
    row_blocks,
)
from .sphere_geometry import frozen_copy, random_points
from .sphere_geometry import require_count, require_supported_dimension


# Most floats, coordinates and weights together, that a rule
# `build_quadrature` returns may store: the S^3 rule at resolution 256
# (2 * 256**3 nodes of 4 coordinates and a weight, 1.25 GiB) is the
# largest S^3 rule admitted.
MAX_RULE_FLOATS = 5 * 2**25


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


def _value_and_slope(d: int, n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) of S^d and (1 - x^2) P_n'(x) = n (P_(n-1)(x) - x P_n(x))
    (Szego, *Orthogonal Polynomials*, section 4.7), from one degree scan."""
    prev = 1.0  # P_0
    for k, p in _degree_scan(d, n, x):
        if k < n:
            prev = p
    return (p.copy() if p is x else p), n * (prev - x * p)  # P_1 is x


def _gauss_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - x^2)^((d-2)/2) on [-1, 1]: nodes
    ascending, weights summing to 1.

    The nodes are the zeros of P_n of S^d, all found at once by Newton on
    `kernel._degree_scan` from x_k = cos((k + l/2 - 1/2) pi / (n + l)),
    l = (d - 1) / 2: the usual Legendre start on S^2 and the exact zeros of
    the Chebyshev U_n on S^3.  The weights are proportional to
    1 / ((1 - x^2) P_n'(x)^2) = (1 - x^2) / ((1 - x^2) P_n'(x))^2.  Nodes
    and weights are symmetrised, so the rule is exactly even.
    """
    lam = (d - 1) / 2
    x = np.cos(math.pi * (np.arange(n, 0, -1) + lam / 2 - 0.5) / (n + lam))
    for _ in range(100):
        p, slope = _value_and_slope(d, n, x)
        step = p * (1.0 - x) * (1.0 + x) / slope
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise ArithmeticError(f"Gauss nodes did not converge for d={d}, n={n}")
    x = 0.5 * (x - x[::-1])
    weights = (1.0 - x) * (1.0 + x) / _value_and_slope(d, n, x)[1] ** 2
    weights = weights + weights[::-1]  # symmetric; the factor 2 scales out
    return x, weights / weights.sum()


def _angle_points(axes) -> np.ndarray:
    """The points x(theta_1, ..., theta_(d-1), phi) of S^d, one per angle
    tuple in C order, from the per-axis arrays (cos, sin) of each angle,
    colatitudes first and the circle last: x_0 = cos theta_1 and
    x_1..x_d = sin theta_1 times the points of the remaining axes on S^(d-1).
    """
    (cos, sin), *rest = axes
    if not rest:
        return np.stack([cos, sin], axis=1)
    sub = _angle_points(rest)
    points = np.empty((len(cos) * len(sub), len(axes) + 1))
    points[:, 0] = np.repeat(cos, len(sub))
    points[:, 1:] = np.repeat(sin, len(sub))[:, None] * np.tile(sub, (len(cos), 1))
    return points


def _product_rule(d: int, resolution: int):
    """Nodes and weights exact through degree 2 * resolution - 1 on S^d.

    S^1 is the uniform grid of 2 * resolution angles.  S^d for d >= 2 is a
    Gauss-Jacobi rule in x = x_0, weight (1 - x^2)^((d-2)/2) (`_gauss_rule`),
    times the rule on S^(d-1) scaled by sqrt(1 - x^2).
    """
    m = 2 * resolution
    phis = 2.0 * math.pi * np.arange(m) / m
    axes = [(np.cos(phis), np.sin(phis))]
    weights = np.full(m, 1.0 / m)
    for k in range(2, d + 1):
        x, w = _gauss_rule(k, resolution)
        axes.insert(0, (x, np.sqrt(1.0 - x**2)))
        weights = np.outer(w, weights).ravel()
    return _angle_points(axes), weights


def _rule_size(d: int, resolution: int) -> int:
    """Node count of the rule `build_quadrature(d, resolution)` returns."""
    return 1024 * resolution if d > 3 else 2 * resolution**d


def _require_rule_budget(d: int, resolution: int) -> None:
    """Raise ValueError if build_quadrature(d, resolution) would store more
    than MAX_RULE_FLOATS floats: d + 1 coordinates and a weight per node."""
    nodes = _rule_size(d, resolution)
    if nodes * (d + 2) > MAX_RULE_FLOATS:
        raise ValueError(
            f"a resolution-{resolution} rule on S^{d} has {nodes} nodes of "
            f"{d + 2} floats, over the budget of {MAX_RULE_FLOATS} floats"
        )


@lru_cache(maxsize=64)
def _cached_rule(d: int, resolution: int) -> QuadratureRule:
    if d > 3:
        count = _rule_size(d, resolution)
        nodes = random_points(d, count, np.random.default_rng(0))
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
    """Quadrature rule on S^d; product rules for d <= 3, Monte Carlo (seed 0)
    beyond.  A rule over `MAX_RULE_FLOATS` floats is refused before it is built."""
    require_supported_dimension(d)
    require_count("resolution", resolution)
    _require_rule_budget(d, resolution)
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
    return math.fsum(_exact_level_sums(rule.weights * values))


@lru_cache(maxsize=128)
def _axis_matrix(d: int, resolution: int, samples: int) -> np.ndarray:
    """The matrix M, read-only, that takes the values of a trigonometric
    polynomial of degree <= deg = (samples - 1) // 2 at psi_s = 2 pi s / samples
    to its values at one axis of the resolution's product rule on S^d: the
    2 * resolution circle angles phi_j = 2 pi j / (2 * resolution) for d = 1,
    else the colatitudes theta_i = arccos x_i of `_gauss_rule(d, resolution)`,
    in its order.

    M[i, s] = (1 + 2 sum_{k=1..deg} cos k (theta_i - psi_s)) / samples, the
    Dirichlet kernel at the angle difference, summed as
    cos k theta_i cos k psi_s + sin k theta_i sin k psi_s: one product of two
    small matrices, with k j and k s reduced in integers on the equispaced
    angles.  An even sample count leaves out the frequency samples / 2,
    which a polynomial of degree deg does not have.  At deg = 0, M is
    exactly 1 / samples.
    """
    k = np.arange(1, (samples - 1) // 2 + 1)
    if d == 1:
        m = 2 * resolution
        theta = (2.0 * math.pi / m) * (np.multiply.outer(np.arange(m), k) % m)
    else:
        theta = np.multiply.outer(np.arccos(_gauss_rule(d, resolution)[0]), k)
    psi = (2.0 * math.pi / samples) * (np.multiply.outer(k, np.arange(samples)) % samples)
    matrix = (1.0 + 2.0 * (np.cos(theta) @ np.cos(psi) + np.sin(theta) @ np.sin(psi))) / samples
    matrix.flags.writeable = False
    return matrix


def _half_grid(d: int, samples: int) -> np.ndarray:
    """`_angle_points` at the angles psi_s = 2 pi s / samples (samples even):
    colatitudes psi_0..psi_(samples/2), in [0, pi], and every circle angle."""
    angles = 2.0 * math.pi * np.arange(samples) / samples
    cos, sin = np.cos(angles), np.sin(angles)
    half = samples // 2 + 1
    return _angle_points([(cos[:half], sin[:half])] * (d - 1) + [(cos, sin)])


def _full_grid(half: np.ndarray, d: int, samples: int) -> np.ndarray:
    """Values on all samples**d angles, shape (components, samples, ...,
    samples), from the (components, points) values at `_half_grid(d, samples)`.

    Colatitude axes are filled from the last one out by the reflection
    x(-theta_a, theta_(a+1) + pi) = x(theta_a, theta_(a+1)): index
    s > samples / 2 reads samples - s, with the next axis turned by half.
    """
    half_count = samples // 2
    grid = half.reshape((len(half),) + (half_count + 1,) * (d - 1) + (samples,))
    for axis in reversed(range(1, d)):
        mirrored = np.take(grid, np.arange(half_count - 1, 0, -1), axis=axis)
        grid = np.concatenate([grid, np.roll(mirrored, half_count, axis=axis + 1)], axis=axis)
    return grid


def _grid_interpolant(d: int, h, deg: int):
    """The function rule -> h(rule.nodes) for rules on S^d, where h is a
    polynomial of degree <= deg in the ambient coordinates.

    h maps an (n, d+1) point array to n values or n rows.  On S^1..S^3 the
    product rule's points are x(theta_1, ..., theta_(d-1), phi) and h is a
    trigonometric polynomial of degree <= deg in each angle separately.  So
    h is evaluated once, at the first product rule asked for, on the
    2 * deg + 2 angles psi_s = 2 pi s / (2 * deg + 2) per axis: at
    `_half_grid`'s points, the rest filled by reflection (`_full_grid`).
    Each rule is then reached by per-axis Dirichlet interpolation of each
    value component: the cached `_axis_matrix` of each colatitude axis,
    then the circle's on all circles as one matrix product, in
    `_product_rule`'s node order.  The result equals h(rule.nodes) up to
    rounding; for a KernelPolynomial, within a few tens of
    eps * sum|a_m| * K(1) of direct evaluation.  Rows come back as a
    transposed view.  Monte Carlo rules return h(rule.nodes) itself.
    """
    samples = 2 * deg + 2
    grid = shape = None

    def at_nodes(rule: QuadratureRule) -> np.ndarray:
        nonlocal grid, shape
        if rule.exactness_degree == 0:
            return h(rule.nodes)
        if grid is None:
            values = np.asarray(h(_half_grid(d, samples)), dtype=float)
            shape = values.shape[1:]
            grid = _full_grid(values.reshape(len(values), -1).T, d, samples)
        r = rule.resolution
        values = grid
        for axis in range(1, d):
            values = np.tensordot(_axis_matrix(d + 1 - axis, r, samples), values, axes=(1, axis))
            values = np.moveaxis(values, 0, axis)
        at = values.reshape(-1, samples) @ _axis_matrix(1, r, samples).T
        return at.reshape(len(grid), -1).T.reshape(len(rule.nodes), *shape)

    return at_nodes


def _require_refinement(d: int, start_resolution: int, max_resolution) -> int:
    """The last level `integrate_refined` on S^d builds from start_resolution
    under max_resolution.  Raises ValueError unless the start is a count,
    the cap is finite and not below it, and that level is within
    `build_quadrature`'s budget."""
    if not math.isfinite(max_resolution):
        raise ValueError(f"max_resolution must be finite, got {max_resolution!r}")
    require_count("start_resolution", start_resolution)
    if start_resolution > max_resolution:
        raise ValueError(
            f"start_resolution {start_resolution} is above max_resolution {max_resolution}"
        )
    top = start_resolution
    while 2 * top <= max_resolution:
        top *= 2
    _require_rule_budget(d, top)
    return top


def integrate_refined(
    d: int,
    f,
    start_resolution: int,
    rel_tol: float = 1e-8,
    *,
    max_resolution: int,
):
    """Integrate with resolution doubling until two estimates agree.

    f maps each level's QuadratureRule to its (m,) node values, so an
    integrand can interpolate them from values it computed once (see
    `_grid_interpolant`); each level is summed by `integrate`.  Returns (value,
    achieved_rel_change, resolution).  Absolute-value integrands converge
    only algebraically, so the loop stops at max_resolution if the target
    is not reached; the achieved agreement is reported so callers can
    decide.  max_resolution must be finite, or that stop never comes, and
    not below start_resolution, and the last rule it allows must be within
    `build_quadrature`'s budget of `MAX_RULE_FLOATS` floats; all are checked
    before any rule is built.
    """
    top = _require_refinement(d, start_resolution, max_resolution)
    res = start_resolution
    prev = None
    change = math.inf
    while True:
        rule = build_quadrature(d, res)
        value = integrate(rule, lambda _nodes: f(rule))
        if prev is not None:
            change = abs(value - prev) / max(abs(value), 1e-300)
            if change <= rel_tol:
                return value, change, res
        if res == top:
            return value, change, res
        prev = value
        res *= 2


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


@dataclass(frozen=True)
class KernelPolynomial:
    """Weighted sum of kernel sections: P(x) = sum_m a_m K(<v_m, x>).

    Values, gradients and the section's own norm and gradient all walk the
    evaluation points in row blocks through `_walk`, one kernel call per
    block.
    """

    model: KernelModel
    anchors: np.ndarray  # (m, d+1)
    coefficients: np.ndarray  # (m,)
    # a[:, None] * V, formed once for every gradient pass (`_tangent`)
    _weighted_anchors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        anchors = frozen_copy(self.anchors)
        coefficients = frozen_copy(self.coefficients)
        if anchors.ndim != 2 or anchors.shape[1] != self.model.d + 1:
            raise ValueError(f"anchors must be (m, {self.model.d + 1})")
        if coefficients.shape != (anchors.shape[0],):
            raise ValueError("one coefficient per anchor required")
        weighted = coefficients[:, None] * anchors
        weighted.flags.writeable = False
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "_weighted_anchors", weighted)

    def _walk(self, pts: np.ndarray, kernel, rows):
        """The tuple rows(block, kernel(model, s)) of arrays with one row per
        point, for the row blocks of pts stacked.

        The only place a cosine block s = block @ anchors.T is formed, in
        blocks of at most `kernel.BLOCK_COSINES` cosines.  When pts fits in
        one block, the tuple that rows returns is the result.  When pts is
        the anchor array itself, as in `squared_norm_and_gradient`, and all
        anchors fit in one block (len(anchors)**2 <= BLOCK_COSINES), the
        block multiplies one buffer by its transpose, which numpy rounds as
        a symmetric (SYRK) product.  Any other points, an equal copy of the
        anchors included, and the several blocks of more anchors go
        through GEMM, whose last bits can differ and depend on the row
        tiling.
        """
        bounds = list(row_blocks(len(pts), len(self.anchors)))
        if len(bounds) <= 1:
            return rows(pts, kernel(self.model, pts @ self.anchors.T))
        out = None
        for lo, hi in bounds:
            block = pts[lo:hi]
            parts = rows(block, kernel(self.model, block @ self.anchors.T))
            if out is None:
                out = tuple(np.empty((len(pts), *part.shape[1:])) for part in parts)
            for whole, part in zip(out, parts):
                whole[lo:hi] = part
        return out

    def _tangent(self, block, derivative) -> np.ndarray:
        """Spherical gradient rows at block from its kernel derivatives: the
        ambient gradient K'(S) @ (a[:, None] * V) less its radial part
        (module docstring), so the cosine block is contracted once."""
        ambient = derivative @ self._weighted_anchors
        ambient -= np.einsum("ij,ij->i", ambient, block)[:, None] * block
        return ambient

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        (values,) = self._walk(
            np.atleast_2d(pts), kernel_value, lambda _, k: (k @ self.coefficients,)
        )
        return float(values[0]) if single else values

    def gradient(self, points) -> np.ndarray:
        """Spherical gradient at each point; rows are tangent vectors."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        (grad,) = self._walk(
            np.atleast_2d(pts), kernel_derivative, lambda block, dk: (self._tangent(block, dk),)
        )
        return grad[0] if single else grad

    def gradient_norm(self, points):
        grad = self.gradient(points)
        if grad.ndim == 1:
            return float(np.linalg.norm(grad))
        return _row_norms(grad)

    def squared_norm_and_gradient(self) -> tuple[float, np.ndarray]:
        """(P, P) = sum_m a_m P(v_m), by the reproducing property, and the
        gradient rows at the anchors, from one kernel pass.

        Bit for bit `coefficients @ self(anchors)` and `gradient(anchors)`.
        """
        values, grad = self._walk(
            self.anchors,
            kernel_value_and_derivative,
            lambda block, kdk: (kdk[0] @ self.coefficients, self._tangent(block, kdk[1])),
        )
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
    require_count("m_anchors", m_anchors)
    rng = np.random.default_rng(seed)
    anchors = random_points(model.d, m_anchors, rng)
    coefficients = rng.standard_normal(m_anchors)
    mass = integrate(rule, KernelPolynomial(model, anchors, coefficients).gradient_norm)
    if not mass > 0.0:  # negated comparison so NaN fails too
        raise ValueError(f"sampled polynomial has gradient mass {mass!r}, not > 0")
    return KernelPolynomial(model, anchors, coefficients / mass)
