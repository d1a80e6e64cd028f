import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import unit
from sphdesign.flow import (
    FlowConfig,
    FlowStepError,
    default_epsilon,
    design_count_constant,
    floor_clamp,
    flow_field,
    flow_horizon,
    integrate_flow,
    mesh_threshold,
    positivity_experiment,
)
from sphdesign.kernel import kernel_model
from sphdesign.quadrature import KernelPolynomial, build_quadrature, sample_boundary_polynomial
from sphdesign.sphere_geometry import SUPPORTED_DIMENSIONS, PointConfiguration, random_points


class TestFloorClamp:
    def test_above_threshold_passes_through(self):
        assert floor_clamp(0.5, 0.11785) == 0.5

    def test_zero_goes_to_threshold(self):
        eps = default_epsilon(2)
        assert floor_clamp(0.0, eps) == eps

    def test_boundary_clamps(self):
        # u > eps is strict, so u == eps takes the clamp branch
        eps = 0.25
        assert floor_clamp(eps, eps) == eps

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            floor_clamp(-1e-12, 0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_threshold(self, eps):
        # a NaN threshold would turn every velocity into NaN
        with pytest.raises(ValueError, match="finite"):
            floor_clamp(np.array([0.5, 0.0]), eps)

    @given(st.floats(0.0, 1e6, allow_nan=False), st.floats(1e-9, 10.0))
    def test_result_at_least_threshold(self, u, eps):
        out = floor_clamp(u, eps)
        assert out >= eps
        assert out == (u if u > eps else eps)

    def test_vectorized(self):
        out = floor_clamp(np.array([0.0, 0.1, 0.5]), 0.2)
        assert np.array_equal(out, np.array([0.2, 0.2, 0.5]))


class TestDefaults:
    def test_epsilon_formula(self):
        for d in SUPPORTED_DIMENSIONS:
            assert default_epsilon(d) == 1.0 / (6.0 * math.sqrt(d))

    def test_horizon_formula(self):
        assert flow_horizon(3) == pytest.approx(1.0 / 9.0)
        assert flow_horizon(5, mesh_constant=0.5) == pytest.approx(1.0 / 30.0)

    def test_mesh_threshold(self):
        assert mesh_threshold(2, 3) == pytest.approx(1.0 / 324.0)

    def test_count_constant(self):
        assert design_count_constant(2, 5.0, 1.0) == pytest.approx((540.0) ** 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(epsilon=0.0, horizon=1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                FlowConfig(epsilon=bad, horizon=1.0)
            with pytest.raises(ValueError, match="horizon"):
                FlowConfig(epsilon=0.1, horizon=bad)
        cfg = FlowConfig.defaults(2, 3)
        assert cfg.epsilon == default_epsilon(2)
        assert cfg.horizon == flow_horizon(3)


class TestFlowField:
    def _linear_section(self, coefficient):
        model = kernel_model(2, 1)
        e = np.array([0.0, 0.0, 1.0])
        return KernelPolynomial(model, np.array([e]), np.array([coefficient]))

    def test_zero_polynomial_gives_zero_field(self):
        poly = self._linear_section(0.0)
        y = unit(np.array([1.0, 1.0, 0.0]))
        assert np.array_equal(flow_field(poly, y, 0.2), np.zeros(3))

    def test_above_clamp_is_unit_speed(self):
        # |grad| = 3c at the equator of the anchor; choose 3c = 2 eps
        eps = default_epsilon(2)
        poly = self._linear_section(2.0 * eps / 3.0)
        y = np.array([1.0, 0.0, 0.0])
        assert np.linalg.norm(flow_field(poly, y, eps)) == pytest.approx(1.0)

    def test_below_clamp_scales_linearly(self):
        eps = default_epsilon(2)
        poly = self._linear_section(eps / 6.0)  # |grad| = eps/2
        y = np.array([1.0, 0.0, 0.0])
        assert np.linalg.norm(flow_field(poly, y, eps)) == pytest.approx(0.5)

    def test_bounded_and_tangential_on_random_input(self, rng):
        model = kernel_model(2, 4)
        eps = default_epsilon(2)
        for _ in range(25):
            poly = KernelPolynomial(
                model, random_points(2, 8, rng), rng.standard_normal(8)
            )
            ys = random_points(2, 40, rng)
            fields = flow_field(poly, ys, eps)
            norms = np.linalg.norm(fields, axis=1)
            assert np.max(norms) <= 1.0 + 1e-12
            radial = np.einsum("ij,ij->i", fields, ys)
            assert np.max(np.abs(radial)) < 1e-12


class TestIntegrateFlow:
    def test_zero_polynomial_is_stationary(self, rng):
        model = kernel_model(2, 2)
        poly = KernelPolynomial(model, random_points(2, 4, rng), np.zeros(4))
        start = PointConfiguration(d=2, points=random_points(2, 7, rng))
        cfg = FlowConfig.defaults(2, 2, step_count=16)
        trace = integrate_flow(poly, start, cfg)
        assert np.array_equal(trace.final.points, start.points)
        assert np.max(trace.displacements) == 0.0

    def _meridian_setup(self, coefficient):
        model = kernel_model(2, 1)
        e = np.array([0.0, 0.0, 1.0])
        poly = KernelPolynomial(model, np.array([e]), np.array([coefficient]))
        return poly

    def test_matches_meridian_closed_form(self):
        # P = c K(<e, .>) with 3c < eps: the flow obeys theta' = -(3c/eps) sin(theta)
        eps = default_epsilon(2)
        c = eps / 6.0
        lam = 3.0 * c / eps
        poly = self._meridian_setup(c)
        theta0 = 2.0
        start = PointConfiguration(
            d=2, points=np.array([[math.sin(theta0), 0.0, math.cos(theta0)]])
        )
        horizon = 1.0
        cfg = FlowConfig(epsilon=eps, horizon=horizon, step_count=256)
        trace = integrate_flow(poly, start, cfg)
        theta_exact = 2.0 * math.atan(math.tan(theta0 / 2.0) * math.exp(-lam * horizon))
        theta_numeric = math.acos(float(np.clip(trace.final.points[0, 2], -1, 1)))
        assert abs(theta_numeric - theta_exact) < 1e-8

    def test_rk4_convergence_order(self):
        eps = default_epsilon(2)
        c = eps / 6.0
        lam = 3.0 * c / eps
        poly = self._meridian_setup(c)
        theta0 = 2.0
        start = PointConfiguration(
            d=2, points=np.array([[math.sin(theta0), 0.0, math.cos(theta0)]])
        )
        horizon = 1.0
        theta_exact = 2.0 * math.atan(math.tan(theta0 / 2.0) * math.exp(-lam * horizon))
        errors = []
        step_counts = (8, 16, 32, 64, 128)
        for steps in step_counts:
            cfg = FlowConfig(epsilon=eps, horizon=horizon, step_count=steps)
            trace = integrate_flow(poly, start, cfg)
            theta = math.acos(float(np.clip(trace.final.points[0, 2], -1, 1)))
            errors.append(abs(theta - theta_exact))
        # least-squares slope of log(error) against log(steps)
        slope = np.polyfit(np.log(step_counts), np.log(errors), 1)[0]
        assert -slope >= 3.5

    def test_displacement_bounded_by_time(self, rng):
        model = kernel_model(2, 3)
        rule = build_quadrature(2, 5)
        start = PointConfiguration(d=2, points=random_points(2, 50, rng))
        cfg = FlowConfig.defaults(2, 3, step_count=32)
        for seed in range(3):
            poly = sample_boundary_polynomial(model, rule, 30, seed=seed)
            trace = integrate_flow(poly, start, cfg)
            assert np.all(trace.max_displacements <= trace.s_values + 1e-9)
            assert np.max(trace.displacements) <= cfg.horizon + 1e-9

    def test_average_nondecreasing(self, rng):
        model = kernel_model(2, 3)
        rule = build_quadrature(2, 5)
        start = PointConfiguration(d=2, points=random_points(2, 50, rng))
        cfg = FlowConfig.defaults(2, 3, step_count=32)
        for seed in range(5):
            poly = sample_boundary_polynomial(model, rule, 30, seed=seed)
            trace = integrate_flow(poly, start, cfg)
            assert np.all(np.diff(trace.averages) >= -1e-12)

    def test_points_stay_unit(self, rng):
        model = kernel_model(3, 3)
        poly = KernelPolynomial(
            model, random_points(3, 10, rng), rng.standard_normal(10)
        )
        start = PointConfiguration(d=3, points=random_points(3, 20, rng))
        cfg = FlowConfig.defaults(3, 3, step_count=16)
        trace = integrate_flow(poly, start, cfg)
        norms = np.linalg.norm(trace.final.points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert trace.velocity_tangency_max < 1e-10

    def test_trace_export(self, rng):
        model = kernel_model(2, 2)
        poly = KernelPolynomial(model, random_points(2, 4, rng), rng.standard_normal(4))
        start = PointConfiguration(d=2, points=random_points(2, 5, rng))
        cfg = FlowConfig.defaults(2, 2, step_count=8)
        trace = integrate_flow(poly, start, cfg)
        # one sample at s = 0 and one after each of the 8 steps
        for samples in (trace.s_values, trace.averages, trace.max_displacements):
            assert samples.shape == (9,)
        assert trace.s_values[-1] == pytest.approx(cfg.horizon)

    def test_check_run_evaluates_only_its_endpoint(self, rng):
        # P is evaluated once at the start and after each of the 64 steps;
        # the doubled-resolution run evaluates only the field
        model = kernel_model(2, 2)
        poly = KernelPolynomial(model, random_points(2, 4, rng), rng.standard_normal(4))
        calls = {"values": 0, "gradients": 0}

        class Counted:
            model = poly.model

            def __call__(self, pts):
                calls["values"] += 1
                return poly(pts)

            def gradient(self, pts):
                calls["gradients"] += 1
                return poly.gradient(pts)

        start = PointConfiguration(d=2, points=random_points(2, 5, rng))
        cfg = FlowConfig.defaults(2, 2, step_count=64)
        integrate_flow(Counted(), start, cfg)
        assert calls == {"values": 65, "gradients": 4 * (64 + 128)}

    def test_step_halving_gap_recorded(self, rng):
        model = kernel_model(2, 3)
        rule = build_quadrature(2, 5)
        poly = sample_boundary_polynomial(model, rule, 24, seed=2)
        start = PointConfiguration(d=2, points=random_points(2, 10, rng))
        trace = integrate_flow(poly, start, FlowConfig.defaults(2, 3, step_count=32))
        assert 0.0 <= trace.step_halving_gap < 2e-5

    def test_dimension_mismatch(self, rng):
        model = kernel_model(2, 2)
        poly = KernelPolynomial(model, random_points(2, 4, rng), rng.standard_normal(4))
        start = PointConfiguration(d=3, points=random_points(3, 5, rng))
        cfg = FlowConfig.defaults(2, 2)
        with pytest.raises(ValueError):
            integrate_flow(poly, start, cfg)

    def test_step_failure_on_broken_integrand(self, rng):
        # the clamp caps honest fields at unit speed, so the drift guard
        # exists to stop non-finite states from propagating silently
        class BrokenField:
            model = kernel_model(2, 1)

            def __call__(self, pts):
                return np.zeros(len(np.atleast_2d(pts)))

            def gradient(self, pts):
                pts = np.atleast_2d(pts)
                return np.full_like(pts, np.nan)

        start = PointConfiguration(d=2, points=random_points(2, 3, rng))
        cfg = FlowConfig(epsilon=0.1, horizon=1.0, step_count=4)
        with pytest.raises(FlowStepError):
            integrate_flow(BrokenField(), start, cfg)


class TestPositivityExperiment:
    def test_small_experiment_positive(self):
        model = kernel_model(2, 3)
        rule = build_quadrature(2, 5)
        cfg = FlowConfig.defaults(2, 3)
        report = positivity_experiment(model, rule, cfg, n_points=100, trials=5, seed=4)
        assert report.positive_count == 5
        assert not report.mesh_condition_ok  # desk scale: far from the threshold
        for trial in report.trials:
            assert trial.final_average > trial.initial_average
            assert abs(trial.initial_average) <= trial.initial_bound_partition
            assert trial.max_displacement <= cfg.horizon + 1e-9
            # per-trace step-halving consistency; the clamp kink limits the
            # integrator to roughly h^2 accuracy at crossing steps, which is
            # still orders of magnitude below the positivity margins
            assert trial.step_halving_gap < 1e-4

    def test_report_serializes(self):
        model = kernel_model(2, 2)
        rule = build_quadrature(2, 4)
        cfg = FlowConfig.defaults(2, 2, step_count=16)
        report = positivity_experiment(model, rule, cfg, n_points=30, trials=2, seed=0)
        import json

        payload = json.loads(report.to_json())
        assert payload["trial_count"] == 2
        assert len(payload["trials"]) == 2

    def test_deterministic(self):
        model = kernel_model(2, 2)
        rule = build_quadrature(2, 4)
        cfg = FlowConfig.defaults(2, 2, step_count=8)
        a = positivity_experiment(model, rule, cfg, n_points=20, trials=3, seed=7)
        b = positivity_experiment(model, rule, cfg, n_points=20, trials=3, seed=7)
        assert [t.final_average for t in a.trials] == [t.final_average for t in b.trials]

    def test_s3_experiment(self):
        model = kernel_model(3, 2)
        rule = build_quadrature(3, 4)
        cfg = FlowConfig.defaults(3, 2, step_count=32)
        report = positivity_experiment(model, rule, cfg, n_points=64, trials=3, seed=0)
        assert report.positive_count == 3
        assert report.min_slope_margin > 0.0
