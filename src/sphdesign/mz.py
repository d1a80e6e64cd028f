"""Two-sided sampling comparisons over area-regular partitions.

For a polynomial P of degree m, the discrete average of |P| over the
partition's representatives (one per equal-area cell; `Partition` asserts
each in its cell at build) is compared with the continuous integral:

    value check:    ratio in [1/2, 3/2]       when mesh_norm < r / m
    gradient check: ratio in [1/(3 sqrt d), 3 sqrt d]
                                              when mesh_norm < r / (m + 1)

with r the configured mesh constant.  The admissible r is not known in
closed form, so violations are recorded with margins rather than raised.
A check takes the partition and P alone (a KernelPolynomial P on the
partition's sphere), and `_ratio_report` is the one check for both kinds.

The integrals come from `integrate_refined`, from resolution
`default_resolution(m)` up to MAX_RESOLUTION unless a check is given its
own cap.  On S^1..S^3 a check evaluates P (degree m) or grad P (each
ambient component of degree <= m + 1) once, on a grid of 2 * deg + 2
angles per axis, and every level interpolates that grid to its nodes
(`quadrature._grid_interpolant`) before taking |.|; Monte Carlo levels
(S^4 and up) evaluate at their nodes.  A plain callable P must be a
polynomial of its stated degree m, so that it is a trigonometric
polynomial of degree <= m in each angle; a first level that its
interpolant does not reproduce is refused.  Each report's meta gives
`integration_nodes`, the rule nodes summed over the levels, and
`evaluated_points`, the points where P or grad P was evaluated: the grid,
the same at every cap, plus a plain callable's first-level nodes.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import _exact_level_sums, kernel_model
from .quadrature import (
    KernelPolynomial,
    _grid_interpolant,
    _require_refinement,
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

# Largest difference, relative to max |P|, between a plain callable's
# interpolated and direct values on the first level; grid interpolation
# (`quadrature._grid_interpolant`) of a polynomial of the stated degree
# stays many orders of magnitude below it.
DEGREE_TOLERANCE = 1e-8

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
    P,
    kind: str,
    degree: int | None,
    mesh_constant: float,
    max_resolution: int,
) -> MZReport:
    """Compare |h| averaged over the partition's representatives with its integral.

    kind "value" takes h = P with |.| and VALUE_BOUNDS, kind "gradient"
    h = grad P with row norms and `gradient_bounds(d)`.  m is `degree`, or
    P's model degree if None; h has degree deg = m or m + 1, which sets
    the angle grid and the mesh threshold r / max(deg, 1).
    A plain callable is also evaluated at the first level's nodes: if the
    interpolant is off by more than DEGREE_TOLERANCE * max |P| there, P is
    not of degree m, and a ValueError says so.
    """
    require_positive_finite("mesh constant", mesh_constant)
    d = partition.d
    if isinstance(P, KernelPolynomial):
        if P.model.d != d:
            raise ValueError(f"polynomial is on S^{P.model.d} but the partition is on S^{d}")
        degree = P.model.t if degree is None else degree
    elif degree is None:
        raise ValueError("degree is required for a plain callable")
    require_count("degree", degree, minimum=0)
    if kind == "value":
        h, h_degree, bounds = P, degree, VALUE_BOUNDS
        magnitude = lambda values: np.abs(np.asarray(values, dtype=float))
    else:
        h, h_degree, bounds = P.gradient, degree + 1, gradient_bounds(d)
        magnitude = _row_norms
    samples = magnitude(h(partition.representatives))
    discrete = math.fsum(_exact_level_sums(samples)) / partition.n
    start = default_resolution(degree)
    work = {"integration_nodes": 0, "evaluated_points": 0}

    def evaluate(points):
        work["evaluated_points"] += len(points)
        return h(points)

    at_nodes = _grid_interpolant(d, evaluate, h_degree)

    def integrand(level):
        work["integration_nodes"] += len(level.nodes)
        values = at_nodes(level)
        if level.resolution == start and not isinstance(P, KernelPolynomial):
            direct = np.asarray(evaluate(level.nodes), dtype=float)
            if np.max(np.abs(values - direct)) > DEGREE_TOLERANCE * np.max(np.abs(direct)):
                raise ValueError(f"P is not a polynomial of degree <= {degree}; pass its true `degree`")
        return magnitude(values)

    integral, agreement, used_res = integrate_refined(
        d, integrand, start_resolution=start, max_resolution=max_resolution
    )
    degenerate = integral < DEGENERATE_INTEGRAL
    ratio = math.nan if degenerate else discrete / integral
    mesh = partition_norm(partition)
    threshold = mesh_constant / max(h_degree, 1)
    lower, upper = bounds
    return MZReport(
        d=d,
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
    partition: Partition,
    P,
    degree: int | None = None,
    mesh_constant: float = 1.0,
    max_resolution: int = MAX_RESOLUTION,
) -> MZReport:
    """Value check of P: a KernelPolynomial (degree defaults to its model
    degree) or any vectorized callable that is a polynomial of the given
    degree, which is how the full polynomial space, constants included, is
    exercised."""
    return _ratio_report(partition, P, "value", degree, mesh_constant, max_resolution)


def mz_gradient_check(
    partition: Partition,
    P: KernelPolynomial,
    mesh_constant: float = 1.0,
    max_resolution: int = MAX_RESOLUTION,
) -> MZReport:
    """Gradient check of the KernelPolynomial P."""
    return _ratio_report(partition, P, "gradient", None, mesh_constant, max_resolution)


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
    _require_refinement(d, default_resolution(t), max_resolution)  # before sampling at that rule
    partition = equal_area_partition(d, n)
    rule = build_quadrature(d, default_resolution(t))
    reports = []
    for i in range(trials):
        poly = sample_boundary_polynomial(model, rule, 2 * model.space_dim, seed=(seed, i))
        reports.append(
            check(partition, poly, mesh_constant=mesh_constant, max_resolution=max_resolution)
        )
    return reports
