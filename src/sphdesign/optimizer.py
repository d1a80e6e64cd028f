"""Design finder: perturbed equal-area seeding plus L-BFGS descent on the defect.

Every attempt starts from the representatives of an area-regular
partition, perturbed by seeded Gaussian noise: the plain representatives
are often exact critical points of the defect, or lie in the basin of a
local minimum that is not a design.  The defect is then minimized by
L-BFGS over unnormalised coordinates Y, one row per point, whose unit rows
are the points.  (scipy's L-BFGS-B finds the same designs, but importing
`scipy.optimize` costs each process that runs the finder about 0.5 s and
50 MB on top of numpy, the package's only runtime dependency.)  The
defect vanishes exactly at
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
from .kernel import kernel_model
from .sphere_geometry import PointConfiguration, equal_area_partition, norm_column, unit_rows
from .sphere_geometry import require_count, require_positive_finite

# L-BFGS: the (step, gradient change) pairs kept, the Armijo slope and the
# halvings of a trial step; then the seed noise scale of every attempt.
MEMORY = 10
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 60
PERTURBATION = 0.3


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


def _minimize(model, cfg: FinderConfig, x: np.ndarray):
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


def find_design(cfg: FinderConfig) -> tuple[PointConfiguration, DesignReport]:
    """Search for an N-point t-design on S^d; honest about failure.

    Every attempt starts from the equal-area seeds perturbed by seeded
    Gaussian noise.  An attempt whose descent objective reaches the target
    is verified at once by `verify_design`, whose verdict (not the
    optimizer's own bookkeeping) is what the report states; the search ends
    on the first passing verdict.  If none passes, the best attempt is
    verified and reported.  The report's meta records why each attempt
    stopped (`stop_reasons`), why the reported one did (`stop_reason`), and
    how many trial points the reported attempt's line search evaluated and
    rejected (`line_search_trials`, `backtracks`).
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
