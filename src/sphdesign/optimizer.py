"""Design finder: perturbed equal-area seeding plus descent on the defect.

Every attempt starts from the representatives of an area-regular
partition, perturbed by seeded Gaussian noise: the plain representatives
are often exact critical points of the defect, or lie in the basin of a
local minimum that is not a design.  The defect vanishes exactly at
t-designs, so reaching the target tolerance is a certificate candidate
that is always re-verified independently by `verify_design`; a refuted
candidate does not end the search.

The descent minimizes the squared norm of the averaged kernel section
P_X = (1/N) sum_j K(<x_j, .>) with BLAS inner products and plain sums,
taking its value and gradient from one kernel pass over the section per
evaluated point; the exact pair pass is kept for verification.  So
the per-iteration defects in `meta["defect_trace"]` (and in CLI
`find --trace`) are descent-objective values, while `report.defect` is
the exact verified defect.  They agree to a few eps * K(1).

A design is a zero of P_X, so finding one is a zero-residual least-squares
problem.  One descent solves it at every size: Levenberg-Marquardt
(damped Gauss-Newton) steps in tangent coordinates, which converge
quadratically near a design, in 5-7 steps from a perturbed seed.  Each
step solves (H + mu h I) z = -g/2 for the Gauss-Newton matrix H in one of
two forms (`step_kind` picks one by size and `meta["step"]` names it):
- "dense": `np.linalg.solve` on the (dN)^2 matrix, about (dN)^3 flops;
- "cg": conjugate gradients through matrix-free products H z, each about
  5 N^2 (d + 1) flops, to a relative residual of CG_TOLERANCE.
The dense form runs while d^2 N <= DENSE_COST_RATIO * t and its matrix
fits the float budget, CG elsewhere.  Both take only numpy: scipy's
solvers find the same designs, but importing `scipy.optimize` costs each
process that runs the finder about 0.5 s and 50 MB.

Deterministic: a fixed config (including seed) reproduces the output
bit-for-bit at a fixed thread count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .design import DesignReport, _section_defect, lower_bound, verify_design
from .kernel import kernel_derivative, kernel_model, kernel_second_derivative, row_blocks
from .sphere_geometry import PointConfiguration, equal_area_partition, unit_rows
from .sphere_geometry import require_count, require_positive_finite

# The seed noise scale of every attempt.
PERTURBATION = 0.3

# Levenberg-Marquardt damping, in units of the diagonal of the Gauss-Newton
# matrix: its first value, its factor after each accepted (divide) and
# rejected (multiply) step, its floor, which keeps the solve well posed
# along the rotations of the whole configuration (H is singular there, as
# they leave P_X unchanged), and its ceiling, where an attempt stops on
# "line_search".  An accepted step that lowers the objective by less than
# STALL of its value ends the attempt on "stalled".
INITIAL_DAMPING = 0.1
DAMPING_FACTOR = 10.0
MIN_DAMPING = 1e-12
MAX_DAMPING = 1e8
STALL = 1e-4

# The solve of each step.  The dense form costs about (dN)^3 flops; CG
# takes 10-20 products of about 5 N^2 (d + 1) flops a solve on sizes that
# converge, but 25-100 near a local minimum that is not a design.
# Measured at one BLAS thread, CG is 2.5-3.5x faster than the dense form on
# converging sizes just past d^2 N = 200 t, such as (3,5,120) and (4,5,70),
# and 2-8x slower on sizes of small dN that stall: (2,10,60) and (2,11,70)
# take 1.0-2.2 s against 0.21-0.27 s.  So the dense form runs while
# d^2 N <= DENSE_COST_RATIO * t.  Its system and temporaries raise the peak
# memory by about four (dN)^2 float arrays (127 MB at dN = 1922), so it
# also needs (dN)^2 <= MAX_SYSTEM_FLOATS.  The CG products keep their 2 N^2
# kernel weights for the step while these fit in that same peak, and
# recompute them per product above it (N > 2896), which costs two kernel
# scans a product: at (2,20,1500), 2.5 s kept against 13.1 s recomputed.
# CG stops at a relative residual of CG_TOLERANCE, or after dN iterations.
DENSE_COST_RATIO = 200
MAX_SYSTEM_FLOATS = 2**22
CG_TOLERANCE = 1e-2


def step_kind(d: int, t: int, n: int) -> str:
    """The linear solve of the finder's steps for an n-point t-design on
    S^d: "dense" where the cost rule and the float budget above admit it,
    else "cg"."""
    if d * d * n <= DENSE_COST_RATIO * t and (d * n) ** 2 <= MAX_SYSTEM_FLOATS:
        return "dense"
    return "cg"


@dataclass(frozen=True)
class FinderConfig:
    """Problem size and optimization policy for the design finder."""

    d: int
    t: int
    n: int
    max_iterations: int = 20000
    defect_target: float = 1e-12
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        require_count("n", self.n)
        require_positive_finite("defect_target", self.defect_target)
        require_count("max_iterations", self.max_iterations)
        require_count("restarts", self.restarts, minimum=0)


def seed_points(d: int, n: int) -> PointConfiguration:
    """Equal-area partition representatives of S^d split into n cells."""
    partition = equal_area_partition(d, n)
    return PointConfiguration(d=d, points=partition.representatives)


def _tangent_bases(x: np.ndarray) -> np.ndarray:
    """(n, d + 1, d) array whose slice i has orthonormal columns spanning the
    tangent space at the unit point x_i: the last d columns of the
    Householder reflector that maps x_i to -+e_0."""
    v = x.copy()
    v[:, 0] += np.where(x[:, 0] >= 0.0, 1.0, -1.0)  # no cancellation: |v|^2 >= 2
    bases = (-2.0 / np.einsum("ij,ij->i", v, v))[:, None, None] * v[:, :, None] * v[:, None, 1:]
    bases[:, 1:, :] += np.eye(x.shape[1] - 1)
    return bases


def _weights(model, rows: np.ndarray, x: np.ndarray):
    """K'(S) / N^2 and K''(S) / N^2 at the cosines S = rows X^T: the kernel
    weights of the Gauss-Newton matrix in the block of the given rows."""
    n = len(x)
    s = rows @ x.T
    return kernel_derivative(model, s) / n**2, kernel_second_derivative(model, s) / n**2


def _gauss_newton_matrix(model, x: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """The (nd, nd) Gauss-Newton matrix H of the section in the tangent
    coordinates of `_tangent_bases`, row and column (i, c) for column c of U_i.

    Moving x_i by U_i z_i moves P_X by (1/N) K'(<x_i, .>) <U_i z_i, .>, and
    by the reproducing property these moves have the Gram matrix with
    block (i, j) equal to (1/N^2) [K'(s_ij) U_i^T U_j + K''(s_ij)
    (U_i^T x_j) (U_j^T x_i)^T].  So ||P_X||^2 changes by g.z + z^T H z to
    second order in z, less the terms in P_X itself, which vanish at a
    design: there H is half the Hessian.
    """
    n, m = x.shape
    d = m - 1
    first, second = _weights(model, x, x)
    rows = bases.transpose(0, 2, 1).reshape(n * d, m)  # row (i, c) is column c of U_i
    system = rows @ rows.T
    system.reshape(n, d, n, d)[...] *= first[:, None, :, None]
    cross = (rows @ x.T).reshape(n, d, n)  # cross[i, c, j] = (U_i^T x_j)_c
    weighted = cross * second[:, None, :]
    system.reshape(n, d, n, d)[...] += weighted[:, :, :, None] * cross.transpose(2, 0, 1)[:, None]
    return system


def _gauss_newton_product(model, x: np.ndarray, bases: np.ndarray):
    """The map z -> H z for the H of `_gauss_newton_matrix`, with z and H z
    as (n, d) arrays of tangent coordinates, without forming H.

    With w_i = U_i z_i the rows of W, (H z)_i = (1/N^2) U_i^T [(K'(S) W)_i +
    ((K''(S) o X W^T) X)_i], three N x N x (d + 1) products.  The weights
    come in `row_blocks`, kept for every product while 2 N^2 <=
    4 MAX_SYSTEM_FLOATS and recomputed by each product above it.
    """
    n = len(x)

    def weights():
        return ((lo, hi, *_weights(model, x[lo:hi], x)) for lo, hi in row_blocks(n, n))

    kept = list(weights()) if 2 * n * n <= 4 * MAX_SYSTEM_FLOATS else None

    def product(z):
        w = np.einsum("iac,ic->ia", bases, z)
        moved = np.empty_like(x)
        for lo, hi, first, second in weights() if kept is None else kept:
            moved[lo:hi] = first @ w + (second * (x[lo:hi] @ w.T)) @ x
        return np.einsum("iac,ia->ic", bases, moved)

    return product


def _conjugate_gradients(apply, rhs: np.ndarray):
    """Conjugate gradients for apply(z) = rhs, apply symmetric positive
    definite, from z = 0 until the residual is at most CG_TOLERANCE |rhs|,
    after rhs.size iterations, or on a direction of no positive curvature
    (rounding at the rotations' floor).  Returns z and the iterations."""
    z = np.zeros_like(rhs)
    residual = rhs.copy()
    direction = residual.copy()
    norm = np.vdot(residual, residual)
    target = CG_TOLERANCE**2 * norm
    iterations = 0
    while norm > target and iterations < rhs.size:
        image = apply(direction)
        curvature = np.vdot(direction, image)
        if curvature <= 0.0:
            break
        length = norm / curvature
        z += length * direction
        residual -= length * image
        previous, norm = norm, np.vdot(residual, residual)
        direction = residual + (norm / previous) * direction
        iterations += 1
    return z, iterations


def _damped_solver(model, x: np.ndarray, bases: np.ndarray, rhs: np.ndarray, kind: str):
    """The solve of one step at the points x, in the form `kind` names: a
    function of the shift mu h that returns z with (H + mu h I) z = rhs and
    the CG iterations it took (0 for the dense form)."""
    if kind == "dense":
        system = _gauss_newton_matrix(model, x, bases)
        diagonal = system.diagonal().copy()

        def solve(shift):
            np.fill_diagonal(system, diagonal + shift)
            return np.linalg.solve(system, rhs.ravel()).reshape(rhs.shape), 0

        return solve
    product = _gauss_newton_product(model, x, bases)
    return lambda shift: _conjugate_gradients(lambda z: product(z) + shift * z, rhs)


def _minimize(model, cfg: FinderConfig, x: np.ndarray):
    """Levenberg-Marquardt (damped Gauss-Newton) steps from the unit points x.

    Each step solves (H + mu h I) z = -g/2, with H the Gauss-Newton matrix
    (`_gauss_newton_matrix`), h = K'(1) / N^2 its diagonal, g the gradient
    of `design._section_defect` in the tangent coordinates U_i, in the form
    `step_kind` picks, and moves x_i to unit_rows(x_i + U_i z_i).  A step is
    accepted only if it lowers the objective by more than eps * K(1), the
    objective's own rounding; then mu is divided by DAMPING_FACTOR, and H
    and g are formed at the new points.  A rejected step multiplies mu by
    it and solves again.

    Returns (points, objective, trace, stop reason, counts).  The reason is
    "target", "line_search" (mu passed MAX_DAMPING: no damped step
    decreased the objective), "stalled", "iterations" or "zero_gradient".
    The counts are the solved steps (`line_search_trials`, one objective
    evaluation each), the rejected ones (`backtracks`) and the CG
    iterations of all solves (`cg_iterations`).
    """
    n = len(x)
    kind = step_kind(cfg.d, cfg.t, cfg.n)
    value, grad = _section_defect(model, x)
    trace = [value]
    counts = {"line_search_trials": 0, "backtracks": 0, "cg_iterations": 0}
    if value <= cfg.defect_target:
        return x, value, trace, "target", counts
    unit = kernel_derivative(model, 1.0) / n**2
    rounding = np.finfo(float).eps * model.space_dim
    damping = INITIAL_DAMPING
    reason = "iterations"
    for _ in range(cfg.max_iterations):
        if not grad.any():
            reason = "zero_gradient"
            break
        bases = _tangent_bases(x)
        rhs = -0.5 * np.einsum("iac,ia->ic", bases, grad)
        solve = _damped_solver(model, x, bases, rhs, kind)
        while damping <= MAX_DAMPING:
            step, iterations = solve(damping * unit)
            counts["cg_iterations"] += iterations
            candidate = unit_rows(x + np.einsum("iac,ic->ia", bases, step))
            candidate_value, candidate_grad = _section_defect(model, candidate)
            counts["line_search_trials"] += 1
            if candidate_value < value - rounding:
                break
            counts["backtracks"] += 1
            damping *= DAMPING_FACTOR
        else:
            reason = "line_search"  # local minimum at this precision
            break
        damping = max(damping / DAMPING_FACTOR, MIN_DAMPING)
        stalled = value - candidate_value < STALL * value
        x, value, grad = candidate, candidate_value, candidate_grad
        trace.append(value)
        if value <= cfg.defect_target:
            reason = "target"
            break
        if stalled:  # linear convergence to a local minimum that is not a design
            reason = "stalled"
            break
    return x, value, trace, reason, counts


def find_design(cfg: FinderConfig) -> tuple[PointConfiguration, DesignReport]:
    """Search for an N-point t-design on S^d; honest about failure.

    Every attempt starts from the equal-area seeds perturbed by seeded
    Gaussian noise.  An attempt whose descent objective reaches the target
    is verified at once by `verify_design`, whose verdict (not the
    optimizer's own bookkeeping) is what the report states; the search ends
    on the first passing verdict.  If none passes, the best attempt is
    verified and reported.  The report's meta records the solve of the
    steps (`step`), why each attempt stopped (`stop_reasons`), why the
    reported one did (`stop_reason`), and how many steps the reported
    attempt solved and rejected and how many CG iterations its solves took
    (`line_search_trials`, `backtracks`, `cg_iterations`).
    """
    started = time.perf_counter()
    model = kernel_model(cfg.d, cfg.t)
    minimum = lower_bound(cfg.d, cfg.t)
    if cfg.n < minimum:
        raise ValueError(
            f"no {cfg.t}-design on S^{cfg.d} can have {cfg.n} points; "
            f"the minimum is {minimum}"
        )
    seeds = seed_points(cfg.d, cfg.n).points
    rng = np.random.default_rng(cfg.seed)
    attempts = []  # what _minimize returned for each attempt so far

    def verified(x, value, trace, reason, counts):
        config = PointConfiguration(d=cfg.d, points=x)
        return config, verify_design(
            model,
            config,
            tolerance=cfg.defect_target,
            meta={
                "seed": cfg.seed,
                "attempts": len(attempts),
                "iterations": len(trace) - 1,
                "converged": bool(value <= cfg.defect_target),
                "best_defect": value,
                "defect_trace": trace,
                "step": step_kind(cfg.d, cfg.t, cfg.n),
                "stop_reason": reason,
                "stop_reasons": [attempt[3] for attempt in attempts],
                **counts,
                "runtime_seconds": time.perf_counter() - started,
            },
        )

    for _ in range(cfg.restarts + 1):
        start = unit_rows(seeds + PERTURBATION * rng.standard_normal(seeds.shape))
        attempts.append(_minimize(model, cfg, start))
        if attempts[-1][1] <= cfg.defect_target:
            config, report = verified(*attempts[-1])
            if report.verdict:
                return config, report
    return verified(*min(attempts, key=lambda attempt: attempt[1]))
