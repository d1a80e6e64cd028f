import math

import numpy as np
import pytest

from conftest import random_rotation
from sphdesign.kernel import kernel_model
from sphdesign.mz import (
    gradient_bounds,
    mz_check,
    mz_gradient_check,
    reports_to_csv,
    run_trials,
)
from sphdesign.quadrature import (
    KernelPolynomial,
    build_quadrature,
    integrate,
    sample_boundary_polynomial,
)
from sphdesign.sphere_geometry import equal_area_partition, partition_norm


def _setup(d, t, n, seed=0, m_anchors=24):
    model = kernel_model(d, t)
    partition = equal_area_partition(d, n)
    rule = build_quadrature(d, t + 2)
    poly = sample_boundary_polynomial(model, rule, m_anchors, seed=seed)
    return model, partition, rule, poly


class TestValueCheck:
    def test_constant_function_ratio_exactly_one(self):
        # full-space variant including constants: degree given explicitly
        partition = equal_area_partition(2, 50)
        rule = build_quadrature(2, 6)
        report = mz_check(
            rule,
            partition,
            partition.representatives,
            lambda pts: np.full(len(pts), 1.0),
            degree=0,
        )
        assert report.ratio == 1.0
        assert report.within_bounds

    def test_constant_half_ratio_exactly_one(self):
        partition = equal_area_partition(2, 64)
        rule = build_quadrature(2, 6)
        report = mz_check(
            rule,
            partition,
            partition.representatives,
            lambda pts: np.full(len(pts), -0.5),
            degree=0,
        )
        assert report.ratio == 1.0

    def test_circle_cosine_closed_form(self):
        # P = cos(k phi) sampled at n equally spaced points: the discrete
        # average can be computed directly and the integral is 2/pi
        k, n = 3, 32
        partition = equal_area_partition(1, n)
        rule = build_quadrature(1, 64)
        points = partition.representatives

        def poly(pts):
            phi = np.arctan2(pts[:, 1], pts[:, 0])
            return np.cos(k * phi)

        report = mz_check(rule, partition, points, poly, degree=k, max_resolution=4096)
        phi = np.arctan2(points[:, 1], points[:, 0])
        discrete = np.abs(np.cos(k * phi)).mean()
        assert report.discrete_average == pytest.approx(discrete, rel=1e-12)
        assert report.integral == pytest.approx(2.0 / math.pi, rel=1e-6)
        assert 0.5 <= report.ratio <= 1.5

    def test_random_polynomials_within_bounds(self):
        model, partition, rule, _ = _setup(2, 5, 2000)
        for seed in range(3):
            poly = sample_boundary_polynomial(model, rule, 40, seed=seed)
            report = mz_check(rule, partition, partition.representatives, poly)
            assert report.within_bounds
            assert report.condition_satisfied  # mesh 0.112 < 1/5

    def test_scale_invariance_exact_for_binary_scales(self):
        model, partition, rule, poly = _setup(2, 4, 200)
        base = mz_check(rule, partition, partition.representatives, poly)
        for c in (4.0, 0.25, -2.0):
            scaled = KernelPolynomial(model, poly.anchors, c * poly.coefficients)
            report = mz_check(rule, partition, partition.representatives, scaled)
            assert report.ratio == base.ratio

    def test_degenerate_flagged(self):
        model = kernel_model(2, 3)
        partition = equal_area_partition(2, 20)
        rule = build_quadrature(2, 5)
        zero = KernelPolynomial(
            model, partition.representatives[:4], np.zeros(4)
        )
        report = mz_check(rule, partition, partition.representatives, zero)
        assert report.degenerate
        assert math.isnan(report.ratio)

    def test_rejects_mismatched_points(self):
        _, partition, rule, poly = _setup(2, 3, 16)
        points = np.roll(partition.representatives, 1, axis=0)
        with pytest.raises(ValueError):
            mz_check(rule, partition, points, poly)

    def test_callable_requires_degree(self):
        _, partition, rule, _ = _setup(2, 3, 16)
        with pytest.raises(ValueError):
            mz_check(
                rule,
                partition,
                partition.representatives,
                lambda pts: np.ones(len(pts)),
            )


class TestGradientCheck:
    def test_linear_section_within_bounds(self):
        # integral(|grad P|) = 3 pi / 4 for the unit linear section
        model = kernel_model(2, 1)
        partition = equal_area_partition(2, 100)
        rule = build_quadrature(2, 8)
        e = np.array([0.0, 0.0, 1.0])
        poly = KernelPolynomial(model, np.array([e]), np.array([1.0]))
        report = mz_gradient_check(
            rule, partition, partition.representatives, poly, max_resolution=512
        )
        assert report.integral == pytest.approx(3.0 * math.pi / 4.0, rel=1e-4)
        lo, hi = gradient_bounds(2)
        assert lo <= report.ratio <= hi
        assert report.lower == lo and report.upper == hi

    def test_circle_bounds(self):
        model = kernel_model(1, 1)
        partition = equal_area_partition(1, 8)
        rule = build_quadrature(1, 16)
        poly = KernelPolynomial(
            model, np.array([[1.0, 0.0]]), np.array([1.0])
        )
        report = mz_gradient_check(rule, partition, partition.representatives, poly)
        assert report.lower == pytest.approx(1.0 / 3.0)
        assert report.upper == pytest.approx(3.0)
        assert report.within_bounds

    def test_rotation_covariance_exact(self, rng):
        # sign-flip rotations (diagonal +-1, det +1) leave every product
        # term and its summation order unchanged, so rotating points and
        # anchors together reproduces the ratio bit-for-bit; a permuted
        # rotation reorders the dot-product sums and is only ulp-close
        model, partition, rule, poly = _setup(2, 3, 60)
        points = partition.representatives
        base = mz_gradient_check(rule, partition, points, poly)
        flip = np.diag([-1.0, -1.0, 1.0])
        rotated_poly = KernelPolynomial(
            model, poly.anchors @ flip.T, poly.coefficients
        )
        discrete = rotated_poly.gradient_norm(points @ flip.T)
        expected = poly.gradient_norm(points)
        assert np.array_equal(discrete, expected)
        ratio_rotated = math.fsum(discrete) / len(discrete) / base.integral
        assert ratio_rotated == base.ratio

    def test_rotation_covariance_generic(self, rng):
        model, partition, rule, poly = _setup(2, 3, 60)
        points = partition.representatives
        expected = poly.gradient_norm(points)
        rot = random_rotation(3, rng)
        rotated_poly = KernelPolynomial(
            model, poly.anchors @ rot.T, poly.coefficients
        )
        discrete = rotated_poly.gradient_norm(points @ rot.T)
        assert np.allclose(discrete, expected, rtol=1e-10, atol=1e-12)

    def test_gradient_components_integrate_like_higher_degree(self, rng):
        # |grad P|^2 is a sum of squares of degree-(m+1) polynomial
        # components: each component integrates exactly once the rule
        # covers degree 2(m+1)
        t = 3
        model = kernel_model(2, t)
        rule_exact = build_quadrature(2, t + 3)  # exact through 2t+5 >= 2(t+1)
        rule_fine = build_quadrature(2, 4 * (t + 3))
        poly = sample_boundary_polynomial(model, rule_exact, 24, seed=5)
        for axis in range(3):
            component = lambda pts: poly.gradient(pts)[:, axis] ** 2
            coarse = integrate(rule_exact, component)
            fine = integrate(rule_fine, component)
            assert coarse == pytest.approx(fine, abs=1e-10)


class TestSweep:
    def test_ratio_converges_to_one(self):
        # fixed polynomial, growing partition: discrete average approaches
        # the integral
        model, _, rule, poly = _setup(2, 5, 10)
        deviations = []
        for n in (100, 10000):
            partition = equal_area_partition(2, n)
            report = mz_check(rule, partition, partition.representatives, poly)
            deviations.append(abs(report.ratio - 1.0))
        assert deviations[-1] < 0.1
        assert deviations[-1] <= deviations[0] + 1e-6

    def test_run_trials_and_csv(self):
        reports = run_trials(2, 3, 150, trials=4, seed=2)
        assert len(reports) == 4
        csv = reports_to_csv(reports)
        lines = csv.strip().splitlines()
        assert lines[0] == "d,m,n,mesh_norm,ratio,within_bounds"
        assert len(lines) == 5
        assert all(line.startswith("2,3,150,") for line in lines[1:])

    def test_run_trials_rejects_no_trials(self):
        with pytest.raises(ValueError, match="trials"):
            run_trials(2, 3, 150, trials=0, seed=2)

    def test_run_trials_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="'values'"):
            run_trials(2, 2, 20, 1, 0, kind="values")

    @pytest.mark.parametrize("kind", ["value", "gradient"])
    @pytest.mark.parametrize("mesh_constant", [0.0, -1.0, math.nan, math.inf])
    def test_run_trials_rejects_bad_mesh_constant(self, kind, mesh_constant):
        with pytest.raises(ValueError, match="mesh constant must be positive and finite"):
            run_trials(2, 2, 20, 1, 0, kind=kind, mesh_constant=mesh_constant)

    @pytest.mark.parametrize("check", [mz_check, mz_gradient_check])
    @pytest.mark.parametrize("mesh_constant", [0.0, -1.0, math.nan])
    def test_checks_reject_bad_mesh_constant(self, check, mesh_constant):
        _, partition, rule, poly = _setup(2, 3, 50)
        with pytest.raises(ValueError, match="mesh constant must be positive and finite"):
            check(rule, partition, partition.representatives, poly, mesh_constant=mesh_constant)

    def test_mesh_norm_reported(self):
        _, partition, rule, poly = _setup(2, 5, 400)
        report = mz_check(rule, partition, partition.representatives, poly)
        assert report.mesh_norm == pytest.approx(partition_norm(partition))
        assert report.mesh_threshold == pytest.approx(1.0 / 5.0)
