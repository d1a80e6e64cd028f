"""Clamped normalized gradient flow on the sphere.

Each point follows the spherical gradient of a fixed polynomial P,
normalized by a floor clamp so the velocity never exceeds unit speed and
never divides by a vanishing gradient:

    dy/ds = grad P(y) / max-with-floor(|grad P(y)|, epsilon).

Flowing partition representatives for a horizon proportional to 1/degree
drives the configuration average of P upward; the positivity experiment
measures, trial by trial, the quantities that make that increase beat the
initial deficit: the seeded average, the slope of the average along the
flow, and the final sign.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import KernelModel
from .quadrature import (
    KernelPolynomial,
    QuadratureRule,
    sample_boundary_polynomial,
)
from .sphere_geometry import PointConfiguration, equal_area_partition, partition_norm, unit_rows


class FlowStepError(RuntimeError):
    """Raised when renormalization drift signals too-coarse stepping."""


def floor_clamp(u, epsilon: float):
    """u where u > epsilon, else epsilon; rejects negative input."""
    if not 0.0 < epsilon < math.inf:  # rejects NaN too
        raise ValueError("clamp threshold must be positive and finite")
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("floor_clamp expects nonnegative input")
    clamped = np.where(arr > epsilon, arr, epsilon)
    if np.isscalar(u) or getattr(u, "ndim", 1) == 0:
        return float(clamped)
    return clamped


def default_epsilon(d: int) -> float:
    """Clamp threshold 1/(6*sqrt(d)) used throughout the flow analysis."""
    return 1.0 / (6.0 * math.sqrt(d))


def flow_horizon(t: int, mesh_constant: float = 1.0) -> float:
    """Flow duration mesh_constant / (3 t) for a degree-t polynomial."""
    return mesh_constant / (3.0 * t)


def _require_mesh_constant(mesh_constant: float) -> None:
    if not 0.0 < mesh_constant < math.inf:  # rejects NaN too
        raise ValueError(f"mesh constant must be positive and finite, got {mesh_constant}")


def mesh_threshold(d: int, t: int, mesh_constant: float = 1.0) -> float:
    """Partition-norm bound mesh_constant / (54 d t) required by the analysis."""
    _require_mesh_constant(mesh_constant)
    return mesh_constant / (54.0 * d * t)


def design_count_constant(d: int, diameter_constant: float, mesh_constant: float = 1.0) -> float:
    """Lower limit (54 d B / r)^d on the coefficient c with N >= c t^d admissible.

    B is the measured partition diameter constant and r the configured mesh
    constant; no sharpness is claimed.
    """
    _require_mesh_constant(mesh_constant)
    return (54.0 * d * diameter_constant / mesh_constant) ** d


@dataclass(frozen=True)
class FlowConfig:
    """Clamp threshold, horizon, and step count of the projected RK4 flow."""

    epsilon: float
    horizon: float
    mesh_constant: float = 1.0
    step_count: int = 64

    def __post_init__(self):
        # negated comparisons so NaN is rejected too
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if self.step_count < 1:
            raise ValueError("step_count must be >= 1")

    @classmethod
    def defaults(
        cls,
        d: int,
        t: int,
        mesh_constant: float = 1.0,
        step_count: int = 64,
    ) -> "FlowConfig":
        return cls(
            epsilon=default_epsilon(d),
            horizon=flow_horizon(t, mesh_constant),
            mesh_constant=mesh_constant,
            step_count=step_count,
        )


def flow_field(P: KernelPolynomial, y, epsilon: float):
    """Velocity grad P / floor_clamp(|grad P|) at unit_rows(y): tangent, at most unit length."""
    y = np.asarray(y, dtype=float)
    grad = P.gradient(unit_rows(np.atleast_2d(y)))
    out = grad / floor_clamp(np.linalg.norm(grad, axis=1), epsilon)[:, None]
    return out[0] if y.ndim == 1 else out


@dataclass
class FlowTrace:
    """Sampled history of one flow integration.

    The clamp kinks the field, so smoothness-based error estimates do not
    apply: every integration is repeated at doubled resolution, and
    step_halving_gap is the endpoint gap between the two.
    """

    final: PointConfiguration
    s_values: np.ndarray
    averages: np.ndarray  # (1/N) sum_i P(y_i(s)) at each sample
    max_displacements: np.ndarray  # max_i dist(x_i, y_i(s)) at each sample
    displacements: np.ndarray  # final per-point geodesic displacement
    velocity_tangency_max: float
    step_halving_gap: float  # endpoint shift under doubled steps


def integrate_flow(
    P: KernelPolynomial,
    start: PointConfiguration,
    cfg: FlowConfig,
) -> FlowTrace:
    """Flow every point of `start` under P for s in [0, horizon].

    Points evolve independently; the integrator renormalizes after every
    step (the field is tangential, so drift is higher order) and fails if
    the renormalization shift exceeds ten times the square of the step.
    """
    if P.model.d != start.d:
        raise ValueError("polynomial and configuration are on different spheres")
    x0 = start.points

    def displacement(pts):
        dots = np.clip(np.einsum("ij,ij->i", x0, pts), -1.0, 1.0)
        return np.arccos(dots)

    def advance(y, h):
        """One projected RK4 step of length h; returns (new y, field at y)."""
        k1 = flow_field(P, y, cfg.epsilon)
        k2 = flow_field(P, y + 0.5 * h * k1, cfg.epsilon)
        k3 = flow_field(P, y + 0.5 * h * k2, cfg.epsilon)
        k4 = flow_field(P, y + h * k3, cfg.epsilon)
        raw = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norms = np.linalg.norm(raw, axis=1)
        shift = float(np.max(np.abs(norms - 1.0)))
        drift_limit = 10.0 * h * h
        # negated comparison so non-finite states fail too
        if not shift <= drift_limit:
            raise FlowStepError(
                f"renormalization shift {shift:.3e} exceeds {drift_limit:.3e}; "
                "increase step_count"
            )
        return raw / norms[:, None], k1

    h = cfg.horizon / cfg.step_count
    y = x0
    s_values = [0.0]
    averages = [float(np.mean(P(y)))]
    max_disp = [0.0]
    tangency = 0.0
    for step in range(1, cfg.step_count + 1):
        y_prev = y
        y, k1 = advance(y_prev, h)
        tangency = max(
            tangency, float(np.max(np.abs(np.einsum("ij,ij->i", k1, y_prev))))
        )
        s_values.append(step * h)
        averages.append(float(np.mean(P(y))))
        max_disp.append(float(np.max(displacement(y))))
    # the check run at doubled resolution keeps only its endpoint; the
    # Euclidean gap avoids arccos, which would amplify machine-level
    # agreement into sqrt(eps)-sized angles
    y_fine = x0
    for _ in range(2 * cfg.step_count):
        y_fine = advance(y_fine, cfg.horizon / (2 * cfg.step_count))[0]
    halving_gap = float(np.max(np.linalg.norm(y - y_fine, axis=1)))
    return FlowTrace(
        final=PointConfiguration(d=start.d, points=y),
        s_values=np.array(s_values),
        averages=np.array(averages),
        max_displacements=np.array(max_disp),
        displacements=displacement(y),
        velocity_tangency_max=tangency,
        step_halving_gap=halving_gap,
    )


@dataclass
class PositivityTrial:
    """Measured quantities for one random boundary polynomial."""

    seed_label: str
    initial_average: float
    initial_bound_partition: float  # 3 sqrt(d) * mesh_norm * integral(|grad P|)
    initial_bound_target: float  # mesh_constant / (18 sqrt(d) t)
    initial_within_partition_bound: bool
    initial_within_target_bound: bool
    min_slope: float
    slope_bound: float  # 1 / (6 sqrt(d))
    slope_margin: float
    final_average: float
    positive: bool
    max_displacement: float
    step_halving_gap: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class PositivityReport:
    """Aggregate outcome of the boundary positivity experiment."""

    d: int
    t: int
    n: int
    mesh_constant: float
    epsilon: float
    horizon: float
    mesh_norm: float
    mesh_threshold: float
    mesh_condition_ok: bool
    trials: list[PositivityTrial] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def positive_count(self) -> int:
        return sum(trial.positive for trial in self.trials)

    @property
    def min_slope_margin(self) -> float:
        return min(trial.slope_margin for trial in self.trials)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "t": self.t,
            "n": self.n,
            "mesh_constant": self.mesh_constant,
            "epsilon": self.epsilon,
            "horizon": self.horizon,
            "mesh_norm": self.mesh_norm,
            "mesh_threshold": self.mesh_threshold,
            "mesh_condition_ok": self.mesh_condition_ok,
            "positive_count": self.positive_count,
            "trial_count": len(self.trials),
            "trials": [trial.to_dict() for trial in self.trials],
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def positivity_experiment(
    model: KernelModel,
    rule: QuadratureRule,
    cfg: FlowConfig,
    n_points: int,
    trials: int,
    seed: int,
) -> PositivityReport:
    """Flow equal-area seeds under random unit-gradient-mass polynomials.

    For each trial, a random polynomial on the unit shell of the
    gradient-mass functional is sampled, the partition representatives are
    flowed for the configured horizon, and three things are recorded: the
    seeded average of P against its two analytic bounds, the minimum
    finite-difference slope of the running average against 1/(6 sqrt(d)),
    and the sign of the final average.  Bound violations are reported with
    margins, never raised: at desk scale the mesh condition is usually far
    from satisfied, so the bounds are measurements, not guarantees.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    d, t = model.d, model.t
    partition = equal_area_partition(d, n_points)
    seeds = PointConfiguration(d=d, points=partition.representatives)
    mesh = partition_norm(partition)
    threshold = mesh_threshold(d, t, cfg.mesh_constant)
    anchor_count = 2 * model.space_dim
    slope_bound = 1.0 / (6.0 * math.sqrt(d))
    target_bound = cfg.mesh_constant / (18.0 * math.sqrt(d) * t)

    report = PositivityReport(
        d=d,
        t=t,
        n=n_points,
        mesh_constant=cfg.mesh_constant,
        epsilon=cfg.epsilon,
        horizon=cfg.horizon,
        mesh_norm=mesh,
        mesh_threshold=threshold,
        mesh_condition_ok=bool(mesh < threshold),
        meta={
            "seed": seed,
            "trials": trials,
            "anchor_count": anchor_count,
            "step_count": cfg.step_count,
            "integrator": "projected-rk4",
            "rule_resolution": rule.resolution,
        },
    )
    for i in range(trials):
        poly = sample_boundary_polynomial(model, rule, anchor_count, seed=(seed, i))
        trace = integrate_flow(poly, seeds, cfg)
        slopes = np.diff(trace.averages) / np.diff(trace.s_values)
        min_slope = float(np.min(slopes))
        initial = float(trace.averages[0])
        final = float(trace.averages[-1])
        # gradient mass on the unit shell: integral(|grad P|) == 1 by scaling
        partition_bound = 3.0 * math.sqrt(d) * mesh
        report.trials.append(
            PositivityTrial(
                seed_label=f"{seed}:{i}",
                initial_average=initial,
                initial_bound_partition=partition_bound,
                initial_bound_target=target_bound,
                initial_within_partition_bound=bool(abs(initial) <= partition_bound),
                initial_within_target_bound=bool(abs(initial) <= target_bound),
                min_slope=min_slope,
                slope_bound=slope_bound,
                slope_margin=min_slope - slope_bound,
                final_average=final,
                positive=bool(final > 0.0),
                max_displacement=float(np.max(trace.displacements)),
                step_halving_gap=trace.step_halving_gap,
            )
        )
    return report
