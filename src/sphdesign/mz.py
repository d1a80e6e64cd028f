"""Two-sided sampling comparisons over area-regular partitions.

For a polynomial P of degree m, the discrete average of |P| over the
partition's representatives (one per equal-area cell; `Partition` asserts
each in its cell at build) is compared with the continuous integral:

    value check:    ratio in [1/2, 3/2]       when mesh_norm < r / m
    gradient check: ratio in [1/(3 sqrt d), 3 sqrt d]
                                              when mesh_norm < r / (m + 1)

with r the configured mesh constant.  The admissible r is not known in
closed form, so violations are recorded with margins rather than raised.
The rule, the partition and a KernelPolynomial P must share one sphere.

The integrals come from `integrate_refined`, capped at MAX_RESOLUTION
unless a check is given its own cap.  Each level evaluates P (degree m) or
grad P (each ambient component of degree <= t + 1) at 2 * deg + 1 points
per circle of the product rule and interpolates to the nodes
(`quadrature._circle_values`) before taking |.|; a plain callable P must
be a polynomial of its stated degree m, so that it is a trigonometric
polynomial of degree <= m on every circle.  Each report's meta gives
`integration_nodes`, the rule nodes summed over the levels, and
`evaluated_points`, the points where the integrand was evaluated.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import _exact_level_sums, kernel_model
from .quadrature import (
    KernelPolynomial,
    QuadratureRule,
    _circle_values,
    _row_norms,
    build_quadrature,
    default_resolution,
    integrate_refined,
    sample_boundary_polynomial,
)
from .sphere_geometry import Partition, equal_area_partition, partition_norm
from .sphere_geometry import require_count, require_positive_finite

DEGENERATE_INTEGRAL = 1e-14

VALUE_BOUNDS = (0.5, 1.5)

# Resolution at which the integral refinement of every check and trial
# sweep stops unless given another cap: on S^3 its rule is 2 * 128**3 nodes.
MAX_RESOLUTION = 128


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


def _ratio_report(
    partition: Partition,
    rule: QuadratureRule,
    P,
    degree: int,
    h,
    h_degree: int,
    magnitude,
    bounds: tuple[float, float],
    kind: str,
    mesh_constant: float,
    max_resolution: int,
) -> MZReport:
    """Compare magnitude(h) averaged over the partition's representatives
    with the integral of magnitude(h(nodes)).

    h is P or its gradient, of degree h_degree on every circle, which sets
    both the circle sampling (`_circle_values`) and the mesh threshold
    mesh_constant / max(h_degree, 1).  The rule, the partition and a
    KernelPolynomial P must lie on one sphere.
    """
    require_positive_finite("mesh constant", mesh_constant)
    polynomial = P.model.d if isinstance(P, KernelPolynomial) else partition.d
    for name, d in (("rule", rule.d), ("polynomial", polynomial)):
        if d != partition.d:
            raise ValueError(f"{name} is on S^{d} but the partition is on S^{partition.d}")
    samples = magnitude(h(partition.representatives))
    discrete = math.fsum(_exact_level_sums(samples)) / partition.n
    work = {"integration_nodes": 0, "evaluated_points": 0}

    def evaluate(points):
        work["evaluated_points"] += len(points)
        return h(points)

    def integrand(level: QuadratureRule):
        work["integration_nodes"] += len(level.nodes)
        return magnitude(_circle_values(level, evaluate, h_degree))

    integral, agreement, used_res = integrate_refined(
        partition.d,
        integrand,
        start_resolution=rule.resolution,
        max_resolution=max_resolution,
    )
    degenerate = integral < DEGENERATE_INTEGRAL
    ratio = math.nan if degenerate else discrete / integral
    mesh = partition_norm(partition)
    threshold = mesh_constant / max(h_degree, 1)
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
        meta={"integration_resolution": used_res, **work},
    )


def mz_check(
    rule: QuadratureRule,
    partition: Partition,
    P,
    degree: int | None = None,
    mesh_constant: float = 1.0,
    max_resolution: int = MAX_RESOLUTION,
) -> MZReport:
    """Compare |P| averaged over the partition's representatives with its integral.

    P is normally a KernelPolynomial (degree defaults to its model degree).
    Any vectorized callable that is a polynomial of degree at most `degree`
    works if `degree` is given explicitly, which is how the full polynomial
    space including constants is exercised.
    """
    if degree is None:
        if not isinstance(P, KernelPolynomial):
            raise ValueError("degree is required for a plain callable")
        degree = P.model.t
    require_count("degree", degree, minimum=0)
    return _ratio_report(
        partition,
        rule,
        P,
        degree,
        P,
        degree,
        lambda values: np.abs(np.asarray(values, dtype=float)),
        VALUE_BOUNDS,
        "value",
        mesh_constant,
        max_resolution,
    )


def mz_gradient_check(
    rule: QuadratureRule,
    partition: Partition,
    P: KernelPolynomial,
    mesh_constant: float = 1.0,
    max_resolution: int = MAX_RESOLUTION,
) -> MZReport:
    """Compare |grad P| averaged over the partition's representatives with its integral."""
    return _ratio_report(
        partition,
        rule,
        P,
        P.model.t,
        P.gradient,
        P.model.t + 1,
        _row_norms,
        gradient_bounds(partition.d),
        "gradient",
        mesh_constant,
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
    max_resolution: int = MAX_RESOLUTION,
) -> list[MZReport]:
    """Random-polynomial trials at one partition size.

    Each check's integral refinement stops at max_resolution at the latest;
    the achieved agreement (typically ~1e-5, far below the width of the
    ratio bounds) is recorded in each report.
    """
    require_count("trials", trials)
    checks = {"value": mz_check, "gradient": mz_gradient_check}
    if kind not in checks:
        raise ValueError(f"unknown check kind {kind!r}; expected 'value' or 'gradient'")
    check = checks[kind]
    model = kernel_model(d, t)
    partition = equal_area_partition(d, n)
    rule = build_quadrature(d, default_resolution(t))
    reports = []
    for i in range(trials):
        poly = sample_boundary_polynomial(model, rule, 2 * model.space_dim, seed=(seed, i))
        reports.append(
            check(
                rule,
                partition,
                poly,
                mesh_constant=mesh_constant,
                max_resolution=max_resolution,
            )
        )
    return reports
