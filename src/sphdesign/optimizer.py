"""Design finder: equal-area seeding plus Riemannian descent on the defect.

Seeds come from the representatives of an area-regular partition; the
defect is then minimized by conjugate-gradient-accelerated steepest descent
on the product of spheres (tangent directions, backtracking line search,
renormalization after every trial step).  The defect vanishes exactly at
t-designs, so reaching the target tolerance is a certificate candidate that
is always re-verified independently by `verify_design`.

The line search minimizes the squared norm of the averaged kernel section
P_X = (1/N) sum_j K(<x_j, .>) with BLAS inner products and plain sums; the
exact pair pass is kept for verification.  So the per-iteration defects in
`meta["defect_trace"]` (and in CLI `find --trace`) are descent-objective
values, while `report.defect` is the exact verified defect.  They agree to
a few eps * K(1).

Deterministic: a fixed config (including seed) reproduces the output
bit-for-bit at a fixed thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .design import (
    DesignReport,
    _average_section,
    defect_gradient,
    lower_bound,
    verify_design,
)
from .kernel import kernel_model
from .sphere_geometry import PointConfiguration, equal_area_partition, tangent_rows, unit_rows

# Line search: Armijo slope, step growth after an accepted step, first
# trial step, backtrack limit; then the seed noise scale of a restart.
ARMIJO_SLOPE = 1e-4
STEP_GROWTH = 2.0
INITIAL_STEP = 1.0
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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < self.defect_target < math.inf:  # rejects NaN too
            raise ValueError("defect_target must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")


def seed_points(d: int, n: int) -> PointConfiguration:
    """Equal-area partition representatives of S^d split into n cells."""
    partition = equal_area_partition(d, n)
    return PointConfiguration(d=d, points=partition.representatives)


def _minimize(model, cfg: FinderConfig, x: np.ndarray):
    """CG-accelerated projected descent.

    Returns (points, objective, trace, stop reason, line-search counts); the
    reason is "target", "line_search" (no trial step decreased the
    objective), "iterations" or "zero_gradient".  The counts are the trial
    points the line search evaluated (`line_search_trials`, one objective
    evaluation each) and the trials it rejected (`backtracks`).
    """

    def f_of(pts):
        return _average_section(model, pts).squared_norm()

    def grad_of(pts):
        return defect_gradient(model, PointConfiguration(d=cfg.d, points=pts))

    value = f_of(x)
    trace = [value]
    counts = {"line_search_trials": 0, "backtracks": 0}
    if value <= cfg.defect_target:
        return x, value, trace, "target", counts
    grad = grad_of(x)
    grad_sq = float((grad * grad).sum())
    direction = -grad
    step = INITIAL_STEP
    reason = "iterations"
    for _ in range(cfg.max_iterations):
        descent = float((grad * direction).sum())
        if descent >= 0.0:
            direction = -grad
            descent = -grad_sq
        alpha = step
        accepted = None
        for _ in range(MAX_BACKTRACKS):
            candidate = unit_rows(x + alpha * direction)
            candidate_value = f_of(candidate)
            counts["line_search_trials"] += 1
            if (
                candidate_value <= value + ARMIJO_SLOPE * alpha * descent
                and candidate_value < value
            ):
                accepted = (candidate, candidate_value)
                break
            counts["backtracks"] += 1
            alpha *= 0.5
        if accepted is None:
            reason = "line_search"  # local minimum at this precision
            break
        x_new, value_new = accepted
        step = alpha * STEP_GROWTH
        grad_new = grad_of(x_new)
        grad_new_sq = float((grad_new * grad_new).sum())
        # Polak-Ribiere+ with tangent transport by projection
        transported_grad = tangent_rows(grad, x_new)
        transported_dir = tangent_rows(direction, x_new)
        beta = max(
            0.0,
            float((grad_new * (grad_new - transported_grad)).sum()) / grad_sq,
        )
        direction = -grad_new + beta * transported_dir
        x, value, grad, grad_sq = x_new, value_new, grad_new, grad_new_sq
        trace.append(value)
        if value <= cfg.defect_target:
            reason = "target"
            break
        if grad_sq == 0.0:
            reason = "zero_gradient"
            break
    return x, value, trace, reason, counts


def find_design(cfg: FinderConfig) -> tuple[PointConfiguration, DesignReport]:
    """Search for an N-point t-design on S^d; honest about failure.

    The first attempt starts from the plain equal-area seeds; each restart
    perturbs the seeds with seeded Gaussian noise.  The best configuration
    across attempts is re-verified by `verify_design`, whose verdict (not
    the optimizer's own bookkeeping) is what the report states.  The
    report's meta records why each attempt stopped (`stop_reasons`), why
    the reported one did (`stop_reason`), and how many trial points the
    reported attempt's line search evaluated and rejected
    (`line_search_trials`, `backtracks`).
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
    best_x = None
    best_value = math.inf
    best_trace: list[float] = []
    best_reason = ""
    best_counts: dict = {}
    stop_reasons: list[str] = []
    for attempt in range(cfg.restarts + 1):
        if attempt == 0:
            start = seeds.copy()
        else:
            start = unit_rows(seeds + PERTURBATION * rng.standard_normal(seeds.shape))
        x, value, trace, reason, counts = _minimize(model, cfg, start)
        stop_reasons.append(reason)
        if value < best_value:
            best_x, best_value, best_trace = x, value, trace
            best_reason, best_counts = reason, counts
        if best_value <= cfg.defect_target:
            break
    config = PointConfiguration(d=cfg.d, points=best_x)
    report = verify_design(
        model,
        config,
        tolerance=cfg.defect_target,
        meta={
            "seed": cfg.seed,
            "attempts": len(stop_reasons),
            "iterations": len(best_trace) - 1,
            "converged": bool(best_value <= cfg.defect_target),
            "best_defect": best_value,
            "defect_trace": best_trace,
            "stop_reason": best_reason,
            "stop_reasons": stop_reasons,
            **best_counts,
            "runtime_seconds": time.perf_counter() - started,
        },
    )
    return config, report
