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
two forms (`meta["step"]` names the one the reported attempt ended on):
- "dense": `np.linalg.solve` on the (dN)^2 matrix, about (dN)^3 flops;
- "cg": conjugate gradients through matrix-free products H z, each about
  5 N^2 (d + 1) flops, to a relative residual of CG_TOLERANCE.
Both forms take their kernel weights from the section pass that evaluated
the point, and add one K'' scan per accepted point.  An attempt starts on
the dense form while dN <= DENSE_SIZE (`step_kind`), and on CG elsewhere.
A CG solve that reaches CG_CAP iterations, as near a local minimum that
is not a design, is solved again by the dense form, which the attempt
keeps from then on, wherever its matrix fits the float budget;
`meta["capped_solves"]` counts those solves.  Both forms take only numpy:
scipy's solvers find the same designs, but importing `scipy.optimize`
costs each process that runs the finder about 0.5 s and 50 MB.

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

# The solve of each step.  Both forms pay the same kernel scans, so t does
# not enter; what the dense form's (dN)^3 flops buy against CG's products
# depends on the size of the system, dN, and not on d^3 N alone.  Measured
# at one BLAS thread, finder seeds 0-2, the sum of the three finds' fastest
# of five to seven runs, dense against CG, in ms: dN = 80 (2,6,40) 6.7
# against 8.8, 90 (3,4,30) 5.5 against 7.2, 128 (2,7,64) 12.8 against
# 13.0, 135 (3,4,45) 7.2 against 7.1, 144 (2,7,72) 18.7 against 14.8, 150
# (3,5,50) 11.0 against 10.9, 160 (4,3,40) 9.1 against 5.2 and (4,4,40)
# 11.8 against 10.9, 162 (2,8,81) 18.2 against 16.6, 400 (4,5,100) 91
# against 24.  So sizes that converge cross over near dN = 128-150, but
# gain at most 4 ms a find from CG up to dN = 160, while sizes that stall
# there lose far more on it, as CG's solves take 20-39 iterations each
# near a local minimum before one caps: (2,11,70), dN = 140, 748 against
# 813, (2,11,72) 947 against 1313, and (4,5,40), dN = 160, 122 against
# 140.  So an attempt starts dense while dN <= DENSE_SIZE, well inside the
# float budget.  A CG solve that reaches CG_CAP iterations is finished, and
# the attempt's later steps solved, by the dense form, while its system
# fits: that and its temporaries raise the peak memory by at most about
# four (dN)^2 float arrays (127 MB at dN = 1922; 70 MB measured at
# (2,30,960)), so (dN)^2 <= MAX_SYSTEM_FLOATS.  A cap of 25 already stops
# the first solves of some sizes that converge, such as (2,16,289) and
# (3,9,150); 40 does not, and on the stalling (4,7,90) and (5,5,45) it was
# the best or near best of 25, 30, 40 and 50 over seeds 0-2.  The section pass keeps its
# cosines and K' blocks, 2 N^2 floats, while they fit in 4 MAX_SYSTEM_FLOATS
# (N <= 2896); above that each CG product forms them again with two kernel
# scans: at (2,20,1500), 2.5 s kept against 13.1 s formed again.
DENSE_SIZE = 160
MAX_SYSTEM_FLOATS = 2**22
CG_TOLERANCE = 1e-2
CG_CAP = 40


def step_kind(d: int, n: int) -> str:
    """The linear solve an attempt at n points on S^d starts on: "dense"
    where its system has dn <= DENSE_SIZE rows, whatever the degree, else
    "cg"."""
    return "dense" if d * n <= DENSE_SIZE else "cg"


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


def _pair_weights(model, x: np.ndarray, blocks=None):
    """Yield (lo, hi, K'(S) / N^2, K''(S) / N^2) for the row blocks lo..hi
    of `kernel.row_blocks`, S the cosines of those rows with all points:
    the kernel weights of the Gauss-Newton matrix.  S and K'(S) come from
    `blocks`, the (S, K'(S)) that `design._section_defect` kept at x, or
    are formed again, block by block, when blocks is None.  Each K'(S) is
    scaled in place, so the weights take no more memory than the blocks."""
    n = len(x)
    if blocks is None:
        cosines = (x[lo:hi] @ x.T for lo, hi in row_blocks(n, n))
        blocks = ((s, kernel_derivative(model, s)) for s in cosines)
    for (lo, hi), (s, derivative) in zip(row_blocks(n, n), blocks):
        derivative /= n**2
        yield lo, hi, derivative, kernel_second_derivative(model, s) / n**2


def _gauss_newton_matrix(model, x: np.ndarray, bases: np.ndarray, weights=None) -> np.ndarray:
    """The (nd, nd) Gauss-Newton matrix H of the section in the tangent
    coordinates of `_tangent_bases`, row and column (i, c) for column c of U_i,
    from the `_pair_weights` given, else from fresh ones.

    Moving x_i by U_i z_i moves P_X by (1/N) K'(<x_i, .>) <U_i z_i, .>, and
    by the reproducing property these moves have the Gram matrix with
    block (i, j) equal to (1/N^2) [K'(s_ij) U_i^T U_j + K''(s_ij)
    (U_i^T x_j) (U_j^T x_i)^T].  So ||P_X||^2 changes by g.z + z^T H z to
    second order in z, less the terms in P_X itself, which vanish at a
    design: there H is half the Hessian.
    """
    n, m = x.shape
    d = m - 1
    rows = bases.transpose(0, 2, 1).reshape(n * d, m)  # row (i, c) is column c of U_i
    system = rows @ rows.T
    cross = (rows @ x.T).reshape(n, d, n)  # cross[i, c, j] = (U_i^T x_j)_c
    mirrored = cross.transpose(2, 0, 1)  # mirrored[i, j] = U_j^T x_i
    blocks = system.reshape(n, d, n, d)
    for lo, hi, first, second in _pair_weights(model, x) if weights is None else weights:
        blocks[lo:hi] *= first[:, None, :, None]
        weighted = cross[lo:hi] * second[:, None, :]
        blocks[lo:hi] += weighted[:, :, :, None] * mirrored[lo:hi, None]
    return system


def _gauss_newton_product(model, x: np.ndarray, bases: np.ndarray, weights=None):
    """The map z -> H z for the H of `_gauss_newton_matrix`, with z and H z
    as (n, d) arrays of tangent coordinates, without forming H.

    With w_i = U_i z_i the rows of W, (H z)_i = (1/N^2) U_i^T [(K'(S) W)_i +
    ((K''(S) o X W^T) X)_i], three N x N x (d + 1) products, block by block
    over the `_pair_weights` given, or over fresh ones formed by each
    product when weights is None.
    """

    def product(z):
        w = np.einsum("iac,ic->ia", bases, z)
        moved = np.empty_like(x)
        for lo, hi, first, second in _pair_weights(model, x) if weights is None else weights:
            moved[lo:hi] = first @ w + (second * (x[lo:hi] @ w.T)) @ x
        return np.einsum("iac,ia->ic", bases, moved)

    return product


def _conjugate_gradients(apply, rhs: np.ndarray):
    """Conjugate gradients for apply(z) = rhs, apply symmetric positive
    definite, from z = 0 until the residual is at most CG_TOLERANCE |rhs|,
    on a direction of no positive curvature (rounding at the rotations'
    floor), or after min(CG_CAP, rhs.size) iterations, where the solve is
    capped.  Returns z, the iterations and whether the solve was capped."""
    z = np.zeros_like(rhs)
    residual = rhs.copy()
    direction = residual.copy()
    norm = np.vdot(residual, residual)
    target = CG_TOLERANCE**2 * norm
    for iterations in range(min(CG_CAP, rhs.size)):
        if norm <= target:
            return z, iterations, False
        image = apply(direction)
        curvature = np.vdot(direction, image)
        if curvature <= 0.0:
            return z, iterations, False
        length = norm / curvature
        z += length * direction
        residual -= length * image
        previous, norm = norm, np.vdot(residual, residual)
        direction = residual + (norm / previous) * direction
    return z, min(CG_CAP, rhs.size), norm > target


def _damped_solver(model, x: np.ndarray, bases: np.ndarray, rhs: np.ndarray, weights, kind: str):
    """The solve of one step at the points x, in the form `kind` names,
    with the `_pair_weights` of x (None: each CG product forms its own): a
    function of the shift mu h that returns z with (H + mu h I) z = rhs,
    the CG iterations it took and whether CG was capped (0 and False for
    the dense form, whose matrix holds all it needs of the weights)."""
    if kind == "dense":
        system = _gauss_newton_matrix(model, x, bases, weights)
        diagonal = system.diagonal().copy()

        def solve(shift):
            np.fill_diagonal(system, diagonal + shift)
            return np.linalg.solve(system, rhs.ravel()).reshape(rhs.shape), 0, False

        return solve
    product = _gauss_newton_product(model, x, bases, weights)
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
    it and solves again.  The section pass that evaluates a point keeps its
    cosines and K' blocks while 2 N^2 <= 4 MAX_SYSTEM_FLOATS, so a step at
    an accepted point adds one K'' scan (`_pair_weights`).  A CG step holds
    the weights of the point and the blocks of one trial, about 4 N^2
    floats; a dense step drops the weights once its matrix is built.  A CG
    solve capped at CG_CAP iterations is solved again by the dense form,
    which the attempt then keeps, wherever (dN)^2 <= MAX_SYSTEM_FLOATS.

    Returns (points, objective, trace, stop reason, stats).  The reason is
    "target", "line_search" (mu passed MAX_DAMPING: no damped step
    decreased the objective), "stalled", "iterations" or "zero_gradient".
    The stats are the form of the last solve (`step`), the solved steps
    (`line_search_trials`, one objective evaluation each, a capped CG solve
    and its dense finish together), the rejected ones (`backtracks`), the
    CG iterations of all solves (`cg_iterations`) and the CG solves that
    reached the cap (`capped_solves`).
    """
    n = len(x)
    keep = 2 * n * n <= 4 * MAX_SYSTEM_FLOATS
    dense_fits = (cfg.d * n) ** 2 <= MAX_SYSTEM_FLOATS
    value, grad, blocks = _section_defect(model, x, keep)
    trace = [value]
    stats = {
        "step": step_kind(cfg.d, cfg.n),
        "line_search_trials": 0,
        "backtracks": 0,
        "cg_iterations": 0,
        "capped_solves": 0,
    }
    if value <= cfg.defect_target:
        return x, value, trace, "target", stats
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
        weights = None if blocks is None else list(_pair_weights(model, x, blocks))
        blocks = None  # the weights hold all of the blocks the step needs
        solve = _damped_solver(model, x, bases, rhs, weights, stats["step"])
        if stats["step"] == "dense":
            weights = None
        while damping <= MAX_DAMPING:
            step, iterations, capped = solve(damping * unit)
            stats["cg_iterations"] += iterations
            if capped:  # as near a local minimum that is not a design
                stats["capped_solves"] += 1
                if dense_fits:
                    stats["step"] = "dense"
                    solve = _damped_solver(model, x, bases, rhs, weights, "dense")
                    weights = None
                    step, _, _ = solve(damping * unit)
            candidate = unit_rows(x + np.einsum("iac,ic->ia", bases, step))
            candidate_value, candidate_grad, candidate_blocks = _section_defect(
                model, candidate, keep
            )
            stats["line_search_trials"] += 1
            if candidate_value < value - rounding:
                break
            stats["backtracks"] += 1
            candidate_blocks = None  # free before the next trial forms its own
            damping *= DAMPING_FACTOR
        else:
            reason = "line_search"  # local minimum at this precision
            break
        damping = max(damping / DAMPING_FACTOR, MIN_DAMPING)
        stalled = value - candidate_value < STALL * value
        x, value, grad, blocks = candidate, candidate_value, candidate_grad, candidate_blocks
        trace.append(value)
        if value <= cfg.defect_target:
            reason = "target"
            break
        if stalled:  # linear convergence to a local minimum that is not a design
            reason = "stalled"
            break
    return x, value, trace, reason, stats


def find_design(cfg: FinderConfig) -> tuple[PointConfiguration, DesignReport]:
    """Search for an N-point t-design on S^d; honest about failure.

    Every attempt starts from the equal-area seeds perturbed by seeded
    Gaussian noise.  An attempt whose descent objective reaches the target
    is verified at once by `verify_design`, whose verdict (not the
    optimizer's own bookkeeping) is what the report states; the search ends
    on the first passing verdict.  If none passes, the best attempt is
    verified and reported.  The report's meta records why each attempt
    stopped (`stop_reasons`), and for the reported one why it did
    (`stop_reason`), the solve it ended on (`step`), how many steps it
    solved and rejected, how many CG iterations its solves took and how
    many of them reached the cap (`line_search_trials`, `backtracks`,
    `cg_iterations`, `capped_solves`).
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

    def verified(x, value, trace, reason, stats):
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
                "stop_reason": reason,
                "stop_reasons": [attempt[3] for attempt in attempts],
                **stats,
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
