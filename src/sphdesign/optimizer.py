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
problem, and two descents solve it (`step_kind` picks one by size and
`meta["step"]` names it):
- "gauss_newton": Levenberg-Marquardt steps in tangent coordinates, one
  dense (dN)^2 solve each (`np.linalg.solve`); they converge
  quadratically near a design, in 5-7 steps from a perturbed seed.
- "lbfgs": L-BFGS over unnormalised coordinates whose unit rows are the
  points, with a halving line search; linear convergence, 25-125
  iterations, each cheap.
Both take only numpy: scipy's solvers find the same designs, but importing
`scipy.optimize` costs each process that runs the finder about 0.5 s and
50 MB.

Deterministic: a fixed config (including seed) reproduces the output
bit-for-bit at a fixed thread count.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .design import DesignReport, _section_defect, lower_bound, verify_design
from .kernel import kernel_derivative, kernel_model, kernel_second_derivative
from .sphere_geometry import PointConfiguration, equal_area_partition, norm_column, unit_rows
from .sphere_geometry import require_count, require_positive_finite

# L-BFGS: the (step, gradient change) pairs kept, the Armijo slope and the
# halvings of a trial step; then the seed noise scale of every attempt.
MEMORY = 10
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 60
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

# The Gauss-Newton path: one dense (dN)^2 solve per step, about (dN)^3
# flops, against L-BFGS iterations of about N^2 t each; it takes 4-6 steps
# where L-BFGS takes 21-97 iterations.  Measured at one BLAS thread on S^2
# to S^5, it is faster at every size with d^3 N <= 360 t (by 1.1-3x) and
# slower from 424 t on, but for two sizes under 3 ms, so it runs while
# d^3 N <= GN_COST_RATIO * t.  Its system and temporaries raise the peak
# memory by about four (dN)^2 float arrays (127 MB at dN = 1922), so it
# also needs (dN)^2 <= MAX_SYSTEM_FLOATS.
GN_COST_RATIO = 400
MAX_SYSTEM_FLOATS = 2**22


def step_kind(d: int, t: int, n: int) -> str:
    """The descent the finder runs for an n-point t-design on S^d:
    "gauss_newton" where the cost rule and the float budget above admit it,
    else "lbfgs"."""
    if d**3 * n <= GN_COST_RATIO * t and (d * n) ** 2 <= MAX_SYSTEM_FLOATS:
        return "gauss_newton"
    return "lbfgs"


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


def _lbfgs_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """-H grad for the L-BFGS inverse-Hessian estimate H of the kept
    (step, gradient change, 1 / curvature) pairs.

    Two-loop recursion (Nocedal & Wright, Algorithm 7.4).  With no pairs
    H = I / |grad|, so the first trial step has unit length.
    """
    q = grad.copy()
    alphas = []
    for step, change, rho in reversed(pairs):
        alphas.append(rho * np.vdot(step, q))
        q -= alphas[-1] * change
    if pairs:
        step, change, _ = pairs[-1]
        q *= np.vdot(step, change) / np.vdot(change, change)
    else:
        q /= math.sqrt(np.vdot(q, q))
    for (step, change, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * np.vdot(change, q)) * step
    return -q


def _tangent_bases(x: np.ndarray) -> np.ndarray:
    """(n, d + 1, d) array whose slice i has orthonormal columns spanning the
    tangent space at the unit point x_i: the last d columns of the
    Householder reflector that maps x_i to -+e_0."""
    v = x.copy()
    v[:, 0] += np.where(x[:, 0] >= 0.0, 1.0, -1.0)  # no cancellation: |v|^2 >= 2
    bases = (-2.0 / np.einsum("ij,ij->i", v, v))[:, None, None] * v[:, :, None] * v[:, None, 1:]
    bases[:, 1:, :] += np.eye(x.shape[1] - 1)
    return bases


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
    s = x @ x.T
    rows = bases.transpose(0, 2, 1).reshape(n * d, m)  # row (i, c) is column c of U_i
    system = rows @ rows.T
    system.reshape(n, d, n, d)[...] *= (kernel_derivative(model, s) / n**2)[:, None, :, None]
    cross = (rows @ x.T).reshape(n, d, n)  # cross[i, c, j] = (U_i^T x_j)_c
    weighted = cross * (kernel_second_derivative(model, s) / n**2)[:, None, :]
    system.reshape(n, d, n, d)[...] += weighted[:, :, :, None] * cross.transpose(2, 0, 1)[:, None]
    return system


def _gauss_newton(model, cfg: FinderConfig, x: np.ndarray):
    """Levenberg-Marquardt (damped Gauss-Newton) steps on unit points.

    Each step solves (H + mu h I) z = -g/2, with H from
    `_gauss_newton_matrix`, h = K'(1) / N^2 its diagonal, g the gradient of
    `design._section_defect` in the tangent coordinates U_i, and moves x_i
    to unit_rows(x_i + U_i z_i).  A step is accepted only if it lowers the
    objective by more than eps * K(1), the objective's own rounding; then
    mu is divided by DAMPING_FACTOR, and H and g are formed at the new
    points.  A rejected step multiplies mu by it and solves again.

    Returns what `_lbfgs` does.  The reason is "target", "line_search" (mu
    passed MAX_DAMPING: no damped step decreased the objective),
    "stalled", "iterations" or "zero_gradient"; `line_search_trials`
    counts the solved steps and `backtracks` the rejected ones.
    """
    n, m = x.shape
    value, grad = _section_defect(model, x)
    trace = [value]
    counts = {"line_search_trials": 0, "backtracks": 0}
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
        system = _gauss_newton_matrix(model, x, bases)
        diagonal = system.diagonal().copy()
        rhs = -0.5 * np.einsum("iac,ia->ic", bases, grad).ravel()
        while damping <= MAX_DAMPING:
            np.fill_diagonal(system, diagonal + damping * unit)
            step = np.linalg.solve(system, rhs).reshape(n, m - 1)
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


def _lbfgs(model, cfg: FinderConfig, x: np.ndarray):
    """L-BFGS on unnormalised coordinates Y whose unit rows are the points.

    The objective f(Y) = ||P_X||^2 with X = unit_rows(Y) does not change
    when a row of Y is rescaled, so L-BFGS runs in flat coordinates with no
    retraction or vector transport: the gradient in Y is the spherical
    defect gradient at X divided row by row by |y_i|.  Each iteration first
    tries the full L-BFGS step and halves it until the Armijo condition
    holds with a strict decrease.  Every evaluation, the trials included,
    takes the objective and its gradient from one kernel pass
    (`design._section_defect`), so an accepted trial's gradient is already
    in hand.

    Returns (points, objective, trace, stop reason, line-search counts); the
    reason is "target", "line_search" (no trial step decreased the
    objective), "iterations" or "zero_gradient".  The counts are the trial
    points the line search evaluated (`line_search_trials`, one objective
    evaluation each) and the trials it rejected (`backtracks`).
    """

    def evaluate(y):
        norms = norm_column(y)
        value, grad = _section_defect(model, y / norms)  # at unit_rows(y)
        return value, grad / norms

    y = x
    value, grad = evaluate(y)
    trace = [value]
    counts = {"line_search_trials": 0, "backtracks": 0}
    if value <= cfg.defect_target:
        return unit_rows(y), value, trace, "target", counts
    pairs = deque(maxlen=MEMORY)
    reason = "iterations"
    for _ in range(cfg.max_iterations):
        if not grad.any():
            reason = "zero_gradient"
            break
        direction = _lbfgs_direction(grad, pairs)
        slope = np.vdot(grad, direction)
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            candidate = y + alpha * direction
            candidate_value, candidate_grad = evaluate(candidate)
            counts["line_search_trials"] += 1
            if candidate_value < value and candidate_value <= value + ARMIJO_SLOPE * alpha * slope:
                break
            counts["backtracks"] += 1
            alpha *= 0.5
        else:
            reason = "line_search"  # local minimum at this precision
            break
        step, change = candidate - y, candidate_grad - grad
        curvature = np.vdot(step, change)
        if curvature > 0.0:  # keeps H positive definite
            pairs.append((step, change, 1.0 / curvature))
        y, value, grad = candidate, candidate_value, candidate_grad
        trace.append(value)
        if value <= cfg.defect_target:
            reason = "target"
            break
    return unit_rows(y), value, trace, reason, counts


def _minimize(model, cfg: FinderConfig, x: np.ndarray):
    """The descent that `step_kind` picks, from the unit points x."""
    if step_kind(cfg.d, cfg.t, cfg.n) == "gauss_newton":
        return _gauss_newton(model, cfg, x)
    return _lbfgs(model, cfg, x)


def find_design(cfg: FinderConfig) -> tuple[PointConfiguration, DesignReport]:
    """Search for an N-point t-design on S^d; honest about failure.

    Every attempt starts from the equal-area seeds perturbed by seeded
    Gaussian noise.  An attempt whose descent objective reaches the target
    is verified at once by `verify_design`, whose verdict (not the
    optimizer's own bookkeeping) is what the report states; the search ends
    on the first passing verdict.  If none passes, the best attempt is
    verified and reported.  The report's meta records the descent
    (`step`), why each attempt stopped (`stop_reasons`), why the reported
    one did (`stop_reason`), and how many trial points the reported
    attempt evaluated and rejected (`line_search_trials`, `backtracks`).
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
