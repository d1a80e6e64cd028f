"""Two-sided sampling comparisons over area-regular partitions.

For one sample point per equal-area cell and a polynomial P of degree m,
the discrete average of |P| is compared with the continuous integral:

    value check:    ratio in [1/2, 3/2]       when mesh_norm < r / m
    gradient check: ratio in [1/(3 sqrt d), 3 sqrt d]
                                              when mesh_norm < r / (m + 1)

with r the configured mesh constant.  The admissible r is not known in
closed form, so violations are recorded with margins rather than raised.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .flow import _require_mesh_constant
from .kernel import _exact_row_sums, kernel_model
from .quadrature import (
    KernelPolynomial,
    QuadratureRule,
    build_quadrature,
    default_resolution,
    integrate_refined,
    sample_boundary_polynomial,
)
from .sphere_geometry import Partition, PointConfiguration, equal_area_partition, partition_norm

DEGENERATE_INTEGRAL = 1e-14

VALUE_BOUNDS = (0.5, 1.5)


def gradient_bounds(d: int) -> tuple[float, float]:
    root = 3.0 * math.sqrt(d)
    return 1.0 / root, root


@dataclass
class MZReport:
    """Outcome of one discrete-vs-continuous comparison."""

    d: int
    degree: int
    n: int
    mesh_norm: float
    mesh_threshold: float
    condition_satisfied: bool
    discrete_average: float
    integral: float
    integral_agreement: float
    ratio: float
    lower: float
    upper: float
    within_bounds: bool
    degenerate: bool
    kind: str  # "value" or "gradient"
    meta: dict = field(default_factory=dict)


def _checked_points(partition: Partition, points) -> np.ndarray:
    pts = points.points if isinstance(points, PointConfiguration) else np.asarray(points, float)
    if pts.shape != (partition.n, partition.d + 1):
        raise ValueError(
            f"expected {(partition.n, partition.d + 1)} sample points, got {pts.shape}"
        )
    for i, (cell, x) in enumerate(zip(partition.cells, pts)):
        if not cell.contains(x):
            raise ValueError(f"sample point {i} does not lie in cell {i}")
    return pts


def _discrete_average(values: np.ndarray) -> float:
    return float(_exact_row_sums(np.abs(values)[None])[0]) / len(values)


def _ratio_report(
    partition: Partition,
    rule: QuadratureRule,
    degree: int,
    point_values: np.ndarray,
    node_function,
    bounds: tuple[float, float],
    threshold: float,
    kind: str,
    max_resolution: int,
) -> MZReport:
    discrete = _discrete_average(point_values)
    integral, agreement, used_res = integrate_refined(
        partition.d,
        node_function,
        start_resolution=rule.resolution,
        max_resolution=max_resolution,
    )
    degenerate = integral < DEGENERATE_INTEGRAL
    ratio = math.nan if degenerate else discrete / integral
    mesh = partition_norm(partition)
    lower, upper = bounds
    return MZReport(
        d=partition.d,
        degree=degree,
        n=partition.n,
        mesh_norm=mesh,
        mesh_threshold=threshold,
        condition_satisfied=bool(mesh < threshold),
        discrete_average=discrete,
        integral=integral,
        integral_agreement=agreement,
        ratio=ratio,
        lower=lower,
        upper=upper,
        within_bounds=bool(not degenerate and lower <= ratio <= upper),
        degenerate=bool(degenerate),
        kind=kind,
        meta={"integration_resolution": used_res},
    )


def mz_check(
    rule: QuadratureRule,
    partition: Partition,
    points,
    P,
    degree: int | None = None,
    mesh_constant: float = 1.0,
    max_resolution: int = 256,
) -> MZReport:
    """Compare the per-cell sample average of |P| with its integral.

    P is normally a KernelPolynomial (degree defaults to its model degree);
    any vectorized callable works if `degree` is given explicitly, which is
    how the full polynomial space including constants is exercised.
    """
    _require_mesh_constant(mesh_constant)
    pts = _checked_points(partition, points)
    if degree is None:
        if not isinstance(P, KernelPolynomial):
            raise ValueError("degree is required for a plain callable")
        degree = P.model.t
    return _ratio_report(
        partition,
        rule,
        degree,
        np.asarray(P(pts), dtype=float),
        lambda nodes: np.abs(np.asarray(P(nodes), dtype=float)),
        VALUE_BOUNDS,
        mesh_constant / max(degree, 1),
        "value",
        max_resolution,
    )


def mz_gradient_check(
    rule: QuadratureRule,
    partition: Partition,
    points,
    P: KernelPolynomial,
    degree: int | None = None,
    mesh_constant: float = 1.0,
    max_resolution: int = 256,
) -> MZReport:
    """Compare the sample average of |grad P| with its integral."""
    _require_mesh_constant(mesh_constant)
    pts = _checked_points(partition, points)
    if degree is None:
        degree = P.model.t
    return _ratio_report(
        partition,
        rule,
        degree,
        P.gradient_norm(pts),
        P.gradient_norm,
        gradient_bounds(partition.d),
        mesh_constant / (degree + 1),
        "gradient",
        max_resolution,
    )


def reports_to_csv(reports) -> str:
    """Batch export, one row per report: d, m, N, mesh norm, ratio, verdict."""
    out = io.StringIO()
    out.write("d,m,n,mesh_norm,ratio,within_bounds\n")
    for r in reports:
        out.write(
            f"{r.d},{r.degree},{r.n},{r.mesh_norm:.17g},{r.ratio:.17g},"
            f"{str(r.within_bounds).lower()}\n"
        )
    return out.getvalue()


def run_trials(
    d: int,
    t: int,
    n: int,
    trials: int,
    seed: int,
    kind: str = "value",
    mesh_constant: float = 1.0,
    max_resolution: int = 128,
) -> list[MZReport]:
    """Random-polynomial trials at one partition size.

    Sweeps cap the integral refinement at a lower resolution than single
    checks; the achieved agreement (typically ~1e-5, far below the width of
    the ratio bounds) is recorded in each report.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    checks = {"value": mz_check, "gradient": mz_gradient_check}
    if kind not in checks:
        raise ValueError(f"unknown check kind {kind!r}; expected 'value' or 'gradient'")
    check = checks[kind]
    model = kernel_model(d, t)
    partition = equal_area_partition(d, n)
    points = partition.representatives
    rule = build_quadrature(d, default_resolution(t))
    reports = []
    for i in range(trials):
        poly = sample_boundary_polynomial(model, rule, 2 * model.space_dim, seed=(seed, i))
        reports.append(
            check(
                rule,
                partition,
                points,
                poly,
                mesh_constant=mesh_constant,
                max_resolution=max_resolution,
            )
        )
    return reports
