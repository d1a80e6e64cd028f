"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with `pytest tests/test_acceptance.py -s` to see them).

Tolerances and sizes are pinned here, not configurable: these are the exit
criteria for the artifact.
"""

import math
import time

import numpy as np
import pytest

from conftest import unit
from sphdesign.design import (
    catalog_design,
    defect,
    defect_gradient,
    degree_residuals,
    lower_bound,
    verify_design,
)
from sphdesign.flow import FlowConfig, flow_field, integrate_flow, positivity_experiment
from sphdesign.harmonics import mean_residuals
from sphdesign.kernel import kernel_model, kernel_value
from sphdesign.mz import mz_check, mz_gradient_check
from sphdesign.optimizer import FinderConfig, find_design
from sphdesign.quadrature import (
    KernelPolynomial,
    build_quadrature,
    integrate,
    sample_boundary_polynomial,
)
from sphdesign.sphere_geometry import (
    PointConfiguration,
    equal_area_partition,
    measure_diameter_constant,
    random_points,
)


def _report(number: int, name: str, elapsed: float, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s){suffix}")


def test_criterion_1_lower_bound_table():
    started = time.perf_counter()
    # spot values with independently hand-computed binomials
    assert lower_bound(2, 2) == 4
    assert lower_bound(2, 3) == 6
    assert lower_bound(3, 5) == 20
    for t in range(1, 13):
        assert lower_bound(1, t) == t + 1
    # classic closed forms on S^2: (k+1)^2 at t=2k, (k+1)(k+2) at t=2k+1
    expected_s2 = [2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49]
    assert [lower_bound(2, t) for t in range(1, 13)] == expected_s2
    # frozen spot checks across the rest of the grid
    assert lower_bound(3, 2) == 5
    assert lower_bound(3, 3) == 8
    assert lower_bound(3, 4) == 14
    assert lower_bound(3, 12) == 140
    assert lower_bound(4, 2) == 6
    assert lower_bound(4, 3) == 10
    assert lower_bound(4, 5) == 30
    assert lower_bound(5, 2) == 7
    assert lower_bound(5, 3) == 12
    assert lower_bound(5, 12) == 714
    # full grid agrees with the two-case binomial formula
    for d in range(1, 6):
        for t in range(1, 13):
            k = t // 2
            if t % 2 == 0:
                expected = math.comb(d + k, d) + math.comb(d + k - 1, d)
            else:
                expected = 2 * math.comb(d + k, d)
            assert lower_bound(d, t) == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "lower-bound-table", elapsed)


def test_criterion_2_catalog_fixtures():
    started = time.perf_counter()
    tolerance = 1e-10
    for t in (2, 3, 5, 8):
        gon = catalog_design(f"polygon({t + 1})")
        assert verify_design(kernel_model(1, t), gon, tolerance).verdict
        above = verify_design(kernel_model(1, t + 1), gon, tolerance)
        assert not above.verdict and above.defect > 0.1
    octa = catalog_design("cross-polytope(2)")
    assert verify_design(kernel_model(2, 3), octa, tolerance).verdict
    report4 = verify_design(kernel_model(2, 4), octa, tolerance)
    assert not report4.verdict
    assert abs(report4.defect - 5.25) <= 1e-9
    assert verify_design(kernel_model(2, 5), catalog_design("icosahedron"), tolerance).verdict
    d4 = catalog_design("d4-minimal-vectors")
    assert d4.n == 24
    assert verify_design(kernel_model(3, 5), d4, tolerance).verdict
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(2, "catalog-fixtures", elapsed, f"octahedron defect {report4.defect:.12f}")


def test_criterion_3_kernel_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(1003)
    # reproducing property at d=2, t=10 over 100 random (x, Q)
    t = 10
    model = kernel_model(2, t)
    rule = build_quadrature(2, t + 2)
    worst = 0.0
    for _ in range(100):
        x = unit(rng.standard_normal(3))
        v = unit(rng.standard_normal(3))
        value = integrate(
            rule,
            lambda nodes: kernel_value(model, nodes @ x) * kernel_value(model, nodes @ v),
        )
        expected = kernel_value(model, float(np.dot(x, v)))
        rel = abs(value - expected) / max(1.0, abs(expected))
        worst = max(worst, rel)
        assert rel <= 1e-8
    # Parseval split on 50 random configurations
    model5 = kernel_model(2, 5)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        cfg = PointConfiguration(d=2, points=random_points(2, n, rng))
        residuals = degree_residuals(model5, cfg)
        total = defect(model5, cfg)
        assert abs(math.fsum(residuals) - total) <= 1e-10 * max(total, 1e-300)
        # explicit-basis cross-check
        cross = float(math.fsum(r * r for r in mean_residuals(5, cfg.points)))
        assert abs(cross - total) <= 1e-9 * max(total, 1e-300)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(3, "kernel-correctness", elapsed, f"worst reproducing error {worst:.2e}")


def test_criterion_4_partition_suite():
    started = time.perf_counter()
    sweep = (10, 100, 1000, 10000)
    for d in (1, 2, 3):
        for n in sweep:
            partition = equal_area_partition(d, n)
            assert np.max(np.abs(partition.area_estimates - 1.0 / n)) < 1e-9
        measured = measure_diameter_constant(d, sweep)
        assert math.isfinite(measured["constant"])
    s2 = measure_diameter_constant(2, sweep)
    values = np.array(list(s2["products"].values()))
    assert np.max(np.abs(values - values.mean())) <= 0.05 * values.mean()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        4,
        "partition-suite",
        elapsed,
        f"B2 = {s2['constant']:.4f}, spread {s2['spread'] * 100:.1f}%",
    )


def test_criterion_5_flow_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1005)
    model = kernel_model(2, 4)
    epsilon = 1.0 / (6.0 * math.sqrt(2))
    # field bound on 10^4 random (P, y) pairs
    for _ in range(100):
        poly = KernelPolynomial(model, random_points(2, 10, rng), rng.standard_normal(10))
        ys = random_points(2, 100, rng)
        norms = np.linalg.norm(flow_field(poly, ys, epsilon), axis=1)
        assert np.max(norms) <= 1.0 + 1e-12
    # displacement bound and monotone averages along full traces
    rule = build_quadrature(2, 6)
    start = PointConfiguration(d=2, points=random_points(2, 60, rng))
    cfg = FlowConfig.defaults(2, 4, step_count=32)
    for seed in range(10):
        poly = sample_boundary_polynomial(model, rule, 40, seed=(1005, seed))
        trace = integrate_flow(poly, start, cfg)
        assert np.all(trace.max_displacements <= trace.s_values + 1e-9)
        assert np.all(np.diff(trace.averages) >= -1e-12)
    # integrator order against the closed-form meridian solution
    lin = kernel_model(2, 1)
    c = epsilon / 6.0
    lam = 3.0 * c / epsilon
    poly = KernelPolynomial(lin, np.array([[0.0, 0.0, 1.0]]), np.array([c]))
    theta0 = 2.0
    meridian_start = PointConfiguration(
        d=2, points=np.array([[math.sin(theta0), 0.0, math.cos(theta0)]])
    )
    exact = 2.0 * math.atan(math.tan(theta0 / 2.0) * math.exp(-lam))
    errors = []
    steps = (8, 16, 32, 64, 128)
    for count in steps:
        flow_cfg = FlowConfig(epsilon=epsilon, horizon=1.0, step_count=count)
        end = integrate_flow(poly, meridian_start, flow_cfg).final.points[0]
        errors.append(abs(math.acos(float(np.clip(end[2], -1, 1))) - exact))
    order = -np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert order >= 3.5
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(5, "flow-suite", elapsed, f"measured RK4 order {order:.2f}")


def test_criterion_6_boundary_positivity_experiment():
    started = time.perf_counter()
    d, t, n, trials = 2, 3, 400, 50
    model = kernel_model(d, t)
    rule = build_quadrature(d, t + 2)
    cfg = FlowConfig.defaults(d, t, mesh_constant=1.0)
    report = positivity_experiment(model, rule, cfg, n_points=n, trials=trials, seed=1006)
    assert report.positive_count >= 49
    slack = 1e-3
    failures = []
    for trial in report.trials:
        if trial.positive and trial.min_slope < trial.slope_bound - slack:
            failures.append((trial.seed_label, trial.slope_margin))
    for label, margin in failures:
        print(f"  slope-bound violation in {label}: margin {margin:.3e}")
    assert not failures
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(
        6,
        "boundary-positivity",
        elapsed,
        f"{report.positive_count}/{trials} positive, min slope margin "
        f"{report.min_slope_margin:.3f}, mesh condition "
        f"{'ok' if report.mesh_condition_ok else 'violated (reported)'}",
    )


def test_criterion_7_mz_suite():
    started = time.perf_counter()
    d, t, n, trials = 2, 5, 2000, 100
    model = kernel_model(d, t)
    partition = equal_area_partition(d, n)
    rule = build_quadrature(d, t + 2)
    # constant polynomial: ratio exactly 1 through the full-space variant
    constant = mz_check(partition, lambda pts: np.full(len(pts), 1.0), degree=0)
    assert constant.ratio == 1.0
    value_ok = 0
    gradient_ok = 0
    lo_g, hi_g = 1.0 / (3.0 * math.sqrt(2)), 3.0 * math.sqrt(2)
    sample_poly = None
    for i in range(trials):
        poly = sample_boundary_polynomial(model, rule, 70, seed=(1007, i))
        if sample_poly is None:
            sample_poly = poly
        value_report = mz_check(partition, poly, max_resolution=128)
        gradient_report = mz_gradient_check(partition, poly, max_resolution=128)
        if 0.5 <= value_report.ratio <= 1.5:
            value_ok += 1
        if lo_g <= gradient_report.ratio <= hi_g:
            gradient_ok += 1
    assert value_ok >= 99
    assert gradient_ok >= 99
    # exact scale invariance at binary scales
    base = mz_check(partition, sample_poly, max_resolution=64)
    scaled_poly = KernelPolynomial(
        model, sample_poly.anchors, 4.0 * sample_poly.coefficients
    )
    scaled = mz_check(partition, scaled_poly, max_resolution=64)
    assert scaled.ratio == base.ratio
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        7,
        "mz-suite",
        elapsed,
        f"value {value_ok}/100, gradient {gradient_ok}/100 within bounds",
    )


def test_criterion_8_design_construction():
    started = time.perf_counter()
    cases = [(1, t, t + 1) for t in range(1, 21)]
    cases += [(2, t, (t + 1) ** 2) for t in range(1, 9)]
    cases += [(2, 5, 12)]
    worst_attempts = 0
    for d, t, n in cases:
        cfg = FinderConfig(d=d, t=t, n=n, defect_target=1e-12, restarts=5, seed=0)
        config, report = find_design(cfg)
        assert report.meta["attempts"] <= 5 + 1
        worst_attempts = max(worst_attempts, report.meta["attempts"])
        assert report.defect <= 1e-12, (d, t, n, report.defect)
        # independent re-verification of the returned points
        fresh = verify_design(kernel_model(d, t), config, tolerance=1e-12)
        assert fresh.verdict
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report(
        8,
        "design-construction",
        elapsed,
        f"{len(cases)} cases, max attempts {worst_attempts}",
    )


def test_criterion_9_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(1009)
    model = kernel_model(2, 4)
    h = 1e-6
    for _ in range(20):
        pts = random_points(2, 10, rng)
        cfg = PointConfiguration(d=2, points=pts)
        grad = defect_gradient(model, cfg)
        for _ in range(20):
            i = int(rng.integers(0, 10))
            v = rng.standard_normal(3)
            u = v - np.dot(v, pts[i]) * pts[i]
            u /= np.linalg.norm(u)
            plus = pts.copy()
            minus = pts.copy()
            plus[i] = math.cos(h) * pts[i] + math.sin(h) * u
            minus[i] = math.cos(h) * pts[i] - math.sin(h) * u
            fd = (
                defect(model, PointConfiguration(d=2, points=plus))
                - defect(model, PointConfiguration(d=2, points=minus))
            ) / (2.0 * h)
            exact = float(np.dot(grad[i], u))
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(9, "gradient-oracle", elapsed)
