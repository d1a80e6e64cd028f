import math

import numpy as np
import pytest

from conftest import unit
from sphdesign.flow import (
    FlowConfig,
    FlowStepError,
    default_epsilon,
    design_count_constant,
    flow_field,
    flow_horizon,
    integrate_flow,
    mesh_threshold,
    positivity_experiment,
)
from sphdesign.kernel import kernel_model
from sphdesign.quadrature import KernelPolynomial, build_quadrature, sample_boundary_polynomial
from sphdesign.sphere_geometry import SUPPORTED_DIMENSIONS, PointConfiguration, random_points


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

    @pytest.mark.parametrize("mesh_constant", [0.0, -1.0, math.nan, math.inf])
    def test_mesh_constant_must_be_positive_and_finite(self, mesh_constant):
        with pytest.raises(ValueError, match="mesh constant"):
            mesh_threshold(2, 3, mesh_constant)
        with pytest.raises(ValueError, match="mesh constant"):
            design_count_constant(2, 5.0, mesh_constant)
        with pytest.raises(ValueError, match="mesh constant"):
            FlowConfig(epsilon=0.1, horizon=0.1, mesh_constant=mesh_constant)
        with pytest.raises(ValueError, match="mesh constant"):
            FlowConfig.defaults(2, 3, mesh_constant=mesh_constant)

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

    @pytest.mark.parametrize("steps", [2.5, 3.0, 0, -4, math.nan, "8"])
    def test_step_count_must_be_a_positive_integer(self, steps):
        # range() in integrate_flow would raise TypeError on a float
        with pytest.raises(ValueError, match="step_count"):
            FlowConfig(epsilon=0.1, horizon=0.1, step_count=steps)
        with pytest.raises(ValueError, match="step_count"):
            FlowConfig.defaults(2, 3, step_count=steps)

    def test_numpy_integer_step_count_runs(self):
        cfg = FlowConfig(epsilon=0.1, horizon=0.05, step_count=np.int64(3))
        poly = KernelPolynomial(kernel_model(2, 2), np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))
        start = PointConfiguration(d=2, points=np.array([[1.0, 0.0, 0.0]]))
        assert integrate_flow(poly, start, cfg).field_evals == 4 * 3 * 3


class TestFlowField:
    def _linear_section(self, coefficient):
        model = kernel_model(2, 1)
        e = np.array([0.0, 0.0, 1.0])
        return KernelPolynomial(model, np.array([e]), np.array([coefficient]))

    def test_zero_polynomial_gives_zero_field(self):
        poly = self._linear_section(0.0)
        y = unit(np.array([1.0, 1.0, 0.0]))
        assert np.array_equal(flow_field(poly, y, 0.2), np.zeros(3))

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.1])
    def test_rejects_bad_threshold(self, eps):
        # a NaN threshold would turn every velocity into NaN
        poly = self._linear_section(1.0)
        with pytest.raises(ValueError, match="finite"):
            flow_field(poly, np.array([1.0, 0.0, 0.0]), eps)

    def test_gradient_at_threshold_is_unit_speed(self):
        # |grad| = 3c = 0.75 exactly at the equator of the anchor, and the
        # clamp divides by max(|grad|, eps) = eps there
        poly = self._linear_section(0.25)
        out = flow_field(poly, np.array([1.0, 0.0, 0.0]), 0.75)
        assert np.array_equal(out, np.array([0.0, 0.0, 1.0]))

    def test_rows_are_clamped_independently(self):
        # |grad| = 3c cos(latitude): above eps at the equator, below it at
        # latitude pi/3 and zero at the anchor itself
        eps = default_epsilon(2)
        poly = self._linear_section(eps / 2.0)
        lat = math.pi / 3.0
        ys = np.array([[1.0, 0.0, 0.0], [math.cos(lat), 0.0, math.sin(lat)], [0.0, 0.0, 1.0]])
        fields = flow_field(poly, ys, eps)
        assert np.linalg.norm(fields, axis=1) == pytest.approx([1.0, 0.75, 0.0])
        for y, row in zip(ys, fields):
            assert np.array_equal(flow_field(poly, y, eps), row)

    def test_nan_gradient_row_stays_nan(self, rng):
        # np.fmax takes eps for a NaN norm, so the row is NaN / eps, which
        # integrate_flow's drift check rejects (test_step_failure_on_broken_integrand)
        class NanFirstRow(KernelPolynomial):
            def gradient(self, points):
                grad = super().gradient(points)
                grad[0] = np.nan
                return grad

        model = kernel_model(2, 3)
        anchors, coefficients = random_points(2, 6, rng), rng.standard_normal(6)
        poly = NanFirstRow(model, anchors, coefficients)
        ys = random_points(2, 4, rng)
        eps = default_epsilon(2)
        fields = flow_field(poly, ys, eps)
        assert np.all(np.isnan(fields[0]))
        plain = KernelPolynomial(model, anchors, coefficients)
        assert np.array_equal(fields[1:], flow_field(plain, ys, eps)[1:])

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
        trace = integrate_flow(Counted(), start, cfg)
        assert calls == {"values": 65, "gradients": 4 * (64 + 128)}
        assert (trace.field_evals, trace.value_evals) == (768, 65)

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

    @pytest.mark.parametrize("nan_rows", [slice(None), slice(0, 1)])
    def test_step_failure_on_broken_integrand(self, rng, nan_rows):
        # the clamp caps honest fields at unit speed, so the drift guard
        # exists to stop non-finite states from propagating silently; one
        # NaN row is enough
        class BrokenField:
            model = kernel_model(2, 1)

            def __call__(self, pts):
                return np.zeros(len(np.atleast_2d(pts)))

            def gradient(self, pts):
                grad = np.zeros_like(np.atleast_2d(pts))
                grad[nan_rows] = np.nan
                return grad

        start = PointConfiguration(d=2, points=random_points(2, 3, rng))
        cfg = FlowConfig(epsilon=0.1, horizon=1.0, step_count=4)
        with pytest.raises(FlowStepError):
            integrate_flow(BrokenField(), start, cfg)


class TestPositivityExperiment:
    def test_rejects_no_trials(self):
        model = kernel_model(2, 2)
        rule = build_quadrature(2, 4)
        cfg = FlowConfig.defaults(2, 2)
        with pytest.raises(ValueError, match="trials"):
            positivity_experiment(model, rule, cfg, n_points=20, trials=0, seed=0)

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
        # per trial: 4 stages x (16 steps + 32 in the halving check), and
        # one average at the start and after each step
        assert payload["meta"]["field_evals"] == 2 * 4 * (16 + 32)
        assert payload["meta"]["value_evals"] == 2 * 17

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
