import math

import mpmath
import numpy as np
import pytest
from scipy.special import roots_jacobi

from conftest import unit
import sphdesign.kernel as kernel
import sphdesign.quadrature as quadrature
from sphdesign.design import _pair_cosines, defect, degree_residuals, verify_design
from sphdesign.kernel import (
    kernel_derivative,
    kernel_model,
    kernel_value,
    kernel_value_and_derivative,
)
from sphdesign.quadrature import (
    KernelPolynomial,
    build_quadrature,
    default_resolution,
    integrate,
    integrate_refined,
    sample_boundary_polynomial,
)
from sphdesign.sphere_geometry import PointConfiguration, random_points


class TestBuildQuadrature:
    def test_weights_sum_exactly_one(self):
        for d in (1, 2, 3, 5):
            rule = build_quadrature(d, 9)
            assert math.fsum(rule.weights) == 1.0
            assert np.all(rule.weights > 0.0)

    def test_nodes_are_unit(self):
        for d in (1, 2, 3, 6):
            rule = build_quadrature(d, 5)
            norms = np.linalg.norm(rule.nodes, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_exactness_labels(self):
        assert build_quadrature(1, 6).exactness_degree == 11
        assert build_quadrature(2, 6).exactness_degree == 11
        assert build_quadrature(3, 6).exactness_degree == 11
        assert build_quadrature(4, 6).exactness_degree == 0
        assert build_quadrature(5, 6).exactness_degree == 0

    def test_rejects_zero_resolution(self):
        with pytest.raises(ValueError):
            build_quadrature(2, 0)

    def test_monte_carlo_deterministic(self):
        a = build_quadrature(6, 3)
        quadrature._cached_rule.cache_clear()  # rebuild, not a cache hit
        b = build_quadrature(6, 3)
        assert a is not b
        assert np.array_equal(a.nodes, b.nodes)

    @pytest.mark.parametrize("d, resolution", [(4, 2), (6, 3), (8, 1)])
    def test_monte_carlo_nodes_are_seed_zero_random_points(self, d, resolution):
        # the nodes are random_points under seed 0: normalised standard
        # normal rows, bit for bit
        count = 1024 * resolution
        rows = np.random.default_rng(0).standard_normal((count, d + 1))
        expected = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        assert np.array_equal(build_quadrature(d, resolution).nodes, expected)


class TestProductRule:
    """The recursive rule against closed forms of its S^1, S^2 and S^3 factors."""

    RESOLUTIONS = (1, 2, 5, 16, 31)

    @staticmethod
    def _grid(resolution):
        phis = 2.0 * math.pi * np.arange(2 * resolution) / (2 * resolution)
        return np.cos(phis), np.sin(phis)

    def test_circle_is_the_uniform_grid(self):
        for res in self.RESOLUTIONS:
            rule = build_quadrature(1, res)
            assert np.array_equal(rule.nodes, np.stack(self._grid(res), axis=1))
            assert np.array_equal(rule.weights, np.full(2 * res, 1.0 / (2 * res)))

    def test_s2_is_legendre_times_the_grid(self):
        # the layout, exactly; the Legendre nodes' accuracy is TestGaussRules'
        for res in self.RESOLUTIONS:
            rule = build_quadrature(2, res)
            x, w = quadrature._gauss_rule(2, res)
            cos, sin = self._grid(res)
            st = np.sqrt(1.0 - x**2)
            expected = np.stack(
                [np.repeat(x, 2 * res), np.outer(st, cos).ravel(), np.outer(st, sin).ravel()],
                axis=1,
            )
            assert np.array_equal(rule.nodes, expected)
            expected_weights = np.repeat(w, 2 * res) / (2 * res)
            assert np.max(np.abs(rule.weights - expected_weights)) < 1e-11 / len(expected_weights)

    def test_s3_colatitudes_are_chebyshev_u_roots(self):
        for res in self.RESOLUTIONS:
            rule = build_quadrature(3, res)
            n_sub = 2 * res * res
            angles = np.arange(res, 0, -1) * math.pi / (res + 1)
            assert np.max(np.abs(rule.nodes[::n_sub, 0] - np.cos(angles))) < 4e-15
            # Chebyshev-U weights (pi / (res+1)) sin^2, over the factor's mass pi / 2
            colatitude = 2.0 / (res + 1) * np.sin(angles) ** 2
            sub_weights = build_quadrature(2, res).weights
            expected = np.repeat(colatitude, n_sub) * np.tile(sub_weights, res)
            assert np.max(np.abs(rule.weights - expected)) < 1e-10 / len(expected)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nodes_run_in_circles(self, d):
        # the layout quadrature._grid_interpolant writes: contiguous runs of
        # 2r nodes sharing their leading d-1 coordinates, whose last two are
        # rho * (cos phi_j, sin phi_j) from phi_0 = 0, first node (rho, 0.0)
        for res in self.RESOLUTIONS:
            rule = build_quadrature(d, res)
            runs = rule.nodes.reshape(-1, 2 * res, d + 1)
            assert np.array_equal(runs[:, :, :-2], np.repeat(runs[:, :1, :-2], 2 * res, axis=1))
            rho = runs[:, 0, -2]
            assert np.all(rho > 0.0)
            assert np.all(runs[:, 0, -1] == 0.0)
            cos, sin = self._grid(res)
            circle = np.stack([np.outer(rho, cos), np.outer(rho, sin)], axis=2)
            assert np.max(np.abs(runs[:, :, -2:] - circle)) <= 4 * np.finfo(float).eps


def _mp_legendre_rule(n, x0):
    """40-digit Gauss-Legendre nodes and weights, by Newton in mpmath from
    the float nodes x0."""
    nodes, weights = [], []
    with mpmath.workdps(40):
        for x in map(mpmath.mpf, x0.tolist()):
            for _ in range(4):
                p_prev, p = mpmath.mpf(1), x
                for j in range(1, n):
                    p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
                derivative = n * (x * p - p_prev) / (x * x - 1)
                x -= p / derivative
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * derivative**2))
    return nodes, weights


class TestGaussRules:
    """The colatitude rules of the S^2 and S^3 product rules, against scipy
    and a 40-digit reference."""

    ULP = np.spacing(1.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_nodes_match_scipy_roots_jacobi(self, d):
        alpha = (d - 2) / 2
        for n in range(1, 257):
            x, w = quadrature._gauss_rule(d, n)
            expected, _ = roots_jacobi(n, alpha, alpha)
            assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
            assert np.max(np.abs(x - expected)) <= 4 * self.ULP, n

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 256])
    def test_legendre_weights_match_40_digit_reference(self, n):
        # worst relative weight errors over all nodes: 7.0e-14, 1.6e-13
        # and 3.2e-13 at n = 64, 128, 256, where scipy's roots_jacobi is
        # 1.1e-12, 5.5e-11 and 1.3e-10 off; the reference runs on every
        # 8th node and its mirror image
        x, w = quadrature._gauss_rule(2, n)
        picked = np.unique(np.r_[np.arange(0, n, 8), n - 1 - np.arange(0, n, 8)])
        nodes, weights = _mp_legendre_rule(n, x[picked])
        assert np.max(np.abs(x[picked] - np.array(nodes, dtype=float))) <= self.ULP
        # the rule's weights sum to 1, the Legendre weights to 2
        gap = np.abs(2.0 * w[picked] / np.array(weights, dtype=float) - 1.0)
        assert np.max(gap) <= 4e-15 * n

    def test_legendre_rule_is_even(self):
        for n in (1, 2, 5, 16, 31, 256):
            x, w = quadrature._gauss_rule(2, n)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


class TestGridInterpolant:
    """`_grid_interpolant` against direct evaluation at every node."""

    EPS = np.finfo(float).eps

    @staticmethod
    def _poly(d, t, seed):
        rng = np.random.default_rng(seed)
        return KernelPolynomial(kernel_model(d, t), random_points(d, 7, rng), rng.standard_normal(7))

    @staticmethod
    def _counted(h, calls):
        def call(points):
            calls.append(len(points))
            return h(points)

        return call

    @staticmethod
    def _full_grid_points(d, samples):
        # x(theta_1, ..., theta_(d-1), phi) at every angle 2 pi s / samples
        angles = 2.0 * math.pi * np.arange(samples) / samples
        index = np.meshgrid(*[np.arange(samples)] * d, indexing="ij")
        rho, coordinates = 1.0, []
        for s in index[:-1]:
            coordinates.append(rho * np.cos(angles[s]))
            rho = rho * np.sin(angles[s])
        coordinates += [rho * np.cos(angles[index[-1]]), rho * np.sin(angles[index[-1]])]
        return np.stack(coordinates, axis=-1).reshape(-1, d + 1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("t", [1, 2, 3, 5, 8, 12])
    def test_matches_direct_evaluation(self, d, t):
        # measured over six seeds: values within 17.9 and gradient
        # components within 3.1 of the scales below; integrals within 3.2e-15
        poly = self._poly(d, t, 100 * d + t)
        mass = np.abs(poly.coefficients).sum()
        one = np.array([1.0])
        value_scale = self.EPS * mass * float(kernel_value(poly.model, one)[0])
        gradient_scale = self.EPS * mass * float(kernel_derivative(poly.model, one)[0])
        value_at = quadrature._grid_interpolant(d, poly, t)
        gradient_at = quadrature._grid_interpolant(d, poly.gradient, t + 1)
        for res in (t + 1, t + 2, 2 * (t + 2), 8 * (t + 2)):
            if d == 3 and res > 40:
                continue
            rule = build_quadrature(d, res)
            values = value_at(rule)
            assert np.max(np.abs(values - poly(rule.nodes))) <= 32 * value_scale
            grad = gradient_at(rule)
            assert grad.shape == (len(rule.nodes), d + 1)
            assert np.max(np.abs(grad - poly.gradient(rule.nodes))) <= 32 * gradient_scale
            direct = integrate(rule, lambda x: np.abs(poly(x)))
            assert integrate(rule, lambda _: np.abs(values)) == pytest.approx(direct, rel=1e-14)
            direct = integrate(rule, poly.gradient_norm)
            interpolated = integrate(rule, lambda _: quadrature._row_norms(grad))
            assert interpolated == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_evaluates_the_grid_once(self, d):
        # 2 deg + 2 circle angles and deg + 2 colatitudes in [0, pi] per
        # colatitude axis, whatever the resolutions asked for
        poly = self._poly(d, 3, d)
        calls = []
        at_nodes = quadrature._grid_interpolant(d, self._counted(poly, calls), 3)
        for res in (2, 5, 8, 16):
            assert at_nodes(build_quadrature(d, res)).shape == (2 * res**d,)
        assert calls == [5 ** (d - 1) * 8]

    @pytest.mark.parametrize("d, res, deg", [(4, 8, 2), (5, 3, 1)])
    def test_direct_on_monte_carlo_rules(self, d, res, deg):
        poly = self._poly(d, max(deg, 1), d)
        rule = build_quadrature(d, res)
        for h in (poly, poly.gradient):
            calls = []
            got = quadrature._grid_interpolant(d, self._counted(h, calls), deg)(rule)
            assert calls == [len(rule.nodes)]
            assert np.array_equal(got, h(rule.nodes))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("deg", [0, 1, 4, 9])
    def test_reflection_fills_the_grid(self, d, deg):
        # the grid's reflected half against direct evaluation at its angles:
        # measured within 6.9 eps * sum|a_m| * K(1) (or K'(1)) over six
        # seeds, the rounding of the angles' sines and cosines
        poly = self._poly(d, max(deg, 1), 10 * d + deg)
        samples = 2 * deg + 2
        points = self._full_grid_points(d, samples)
        scale = self.EPS * np.abs(poly.coefficients).sum()
        for h, k in ((poly, kernel_value), (poly.gradient, kernel_derivative)):
            half = np.asarray(h(quadrature._half_grid(d, samples)))
            grid = quadrature._full_grid(half.reshape(len(half), -1).T, d, samples)
            direct = np.asarray(h(points))
            assert grid.shape == (direct.size // len(points),) + (samples,) * d
            filled = grid.reshape(len(grid), -1).T.reshape(direct.shape)
            bound = 16 * scale * float(k(poly.model, np.array([1.0]))[0])
            assert np.max(np.abs(filled - direct)) <= bound


class TestAxisMatrix:
    """`_axis_matrix(d, r, samples)` takes a trigonometric polynomial's values
    at psi_s = 2 pi s / samples to its values at one axis of the resolution-r
    product rule: the 2r circle angles phi_j = 2 pi j / (2r) for d = 1, the
    Gauss colatitudes for d >= 2."""

    EPS = np.finfo(float).eps

    @staticmethod
    def _angles(k, count):
        # 2 pi k m / count, reduced in integers so that the inputs are exact
        # to rounding at every k
        return 2.0 * math.pi * (k * np.arange(count) % count) / count

    @classmethod
    def _wave_angles(cls, d, res, k):
        # k times the axis angles of the resolution-res rule
        if d == 1:
            return cls._angles(k, 2 * res)
        return k * np.arccos(quadrature._gauss_rule(d, res)[0])

    @pytest.mark.parametrize(
        "d, samples, resolutions",
        [
            *[
                (1, samples, (run // 2,))
                for samples, run in [
                    (3, 4), (5, 16), (7, 8), (13, 28), (27, 256), (41, 128),
                    (2, 8), (8, 6), (12, 224), (28, 256), (203, 1024), (403, 1024),
                ]
            ],
            *[
                (d, 2 * deg + 2, (1, 2, deg + 1, deg + 2, 16, 128))
                for d in (2, 3)
                for deg in (0, 1, 2, 5, 8, 13, 40)
            ],
        ],
    )
    def test_reproduces_every_frequency_up_to_deg(self, d, samples, resolutions):
        # each entry sums deg cosines, so the error grows with deg: measured
        # at most 1.2 (deg + 1) eps over these cases, 0.29 (deg + 1) eps at
        # deg 101 and 201
        deg = (samples - 1) // 2
        for res in resolutions:
            matrix = quadrature._axis_matrix(d, res, samples)
            assert matrix.shape == (2 * res if d == 1 else res, samples)
            for k in range(deg + 1):
                psi, theta = self._angles(k, samples), self._wave_angles(d, res, k)
                for wave in (np.cos, np.sin):
                    error = np.max(np.abs(matrix @ wave(psi) - wave(theta)))
                    assert error <= 4 * (deg + 1) * self.EPS

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("res", [1, 8, 128])
    def test_degree_zero_is_exact(self, d, res):
        for samples in (1, 2):
            matrix = quadrature._axis_matrix(d, res, samples)
            assert matrix.shape == (2 * res if d == 1 else res, samples)
            assert np.all(matrix == 1.0 / samples)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cached_read_only_and_shared(self, d):
        matrix = quadrature._axis_matrix(d, 8, 7)
        assert quadrature._axis_matrix(d, 8, 7) is matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    @pytest.mark.parametrize("samples, run", [(3, 8), (7, 16), (41, 128), (4, 8), (12, 224), (14, 28)])
    def test_matches_the_fft_pair(self, samples, run):
        # rfft of arbitrary samples, the frequency samples / 2 of an even
        # count dropped, then a zero-padded irfft to the run: the
        # trigonometric interpolant of degree (samples - 1) // 2; measured
        # within 3.8 eps * max|values| over six seeds
        values = np.random.default_rng(samples * run).standard_normal((samples, 5))
        coefficients = np.fft.rfft(values, axis=0, norm="forward")
        coefficients[(samples - 1) // 2 + 1 :] = 0.0
        expected = np.fft.irfft(coefficients, n=run, axis=0, norm="forward")
        got = quadrature._axis_matrix(1, run // 2, samples) @ values
        assert np.max(np.abs(got - expected)) <= 16 * self.EPS * np.max(np.abs(values))


class TestIntegrate:
    def test_constant(self):
        rule = build_quadrature(2, 5)
        assert integrate(rule, lambda x: np.full(len(x), 2.5)) == pytest.approx(2.5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_squared_coordinate(self, d, rng):
        # symmetry: coordinates are exchangeable and their squares sum to 1
        rule = build_quadrature(d, 6)
        e = unit(rng.standard_normal(d + 1))
        value = integrate(rule, lambda x: (x @ e) ** 2)
        assert value == pytest.approx(1.0 / (d + 1), abs=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_is_fsum_of_the_weighted_values(self, d):
        # bit for bit, on the product rules and the Monte Carlo rule of S^5
        rule = build_quadrature(d, 7)

        def f(x):
            return np.cos(3.0 * x[:, 0]) - x[:, -1] ** 3

        assert integrate(rule, f) == math.fsum(rule.weights * f(rule.nodes))

    def test_absolute_coordinate_s2(self):
        # (1/2) * integral of |cos| * sin over [0, pi] = 1/2; the integrand
        # has a kink, so convergence is algebraic and the refinement loop
        # reports the achieved level rather than hitting rel_tol
        value, agreement, _ = integrate_refined(
            2, lambda rule: np.abs(rule.nodes[:, 0]), start_resolution=8, max_resolution=512
        )
        assert value == pytest.approx(0.5, abs=1e-5)
        assert agreement < 1e-4

    def test_rejects_a_cap_whose_last_rule_exceeds_the_node_budget(self):
        levels = []

        def integrand(rule):
            levels.append(rule.resolution)
            return np.abs(rule.nodes[:, 0])

        with pytest.raises(ValueError, match="over the budget"):
            integrate_refined(2, integrand, start_resolution=4, max_resolution=1e300)
        assert levels == []

    @pytest.mark.parametrize("d, cap", [(1, 2**24), (2, 4096), (3, 256), (4, 2**14)])
    def test_largest_caps_within_the_node_budget(self, d, cap):
        # the budget counts d + 2 floats per node; the S^3 cap of 256
        # (2 * 256**3 nodes) among them; the integrand stops the run at its
        # first rule
        def integrand(rule):
            raise RuntimeError("ran")

        with pytest.raises(RuntimeError, match="ran"):
            integrate_refined(d, integrand, start_resolution=1, max_resolution=cap)
        with pytest.raises(ValueError, match="over the budget"):
            integrate_refined(d, integrand, start_resolution=1, max_resolution=2 * cap)

    def test_converges_on_s3_below_the_cap(self):
        # the mean of x_0^2 over S^3 is 1/4; resolutions 4 and 8 agree
        value, agreement, res = integrate_refined(
            3, lambda rule: rule.nodes[:, 0] ** 2, 4, max_resolution=64
        )
        assert value == pytest.approx(0.25, abs=1e-14)
        assert agreement <= 1e-8 and res == 8

    def test_requires_a_cap(self):
        with pytest.raises(TypeError, match="max_resolution"):
            integrate_refined(3, lambda rule: rule.nodes[:, 0] ** 2, 4)

    @pytest.mark.parametrize("cap", [math.nan, math.inf])
    def test_rejects_unbounded_max_resolution(self, cap):
        # |x_0| never meets rel_tol, so a cap that never stops the doubling
        # would run until memory runs out; the integrand raises after
        # seven levels (4 .. 256) to keep a regression finite
        levels = []

        def integrand(rule):
            levels.append(rule.resolution)
            if len(levels) > 7:
                raise RuntimeError(f"refined past resolution {levels[-2]}")
            return np.abs(rule.nodes[:, 0])

        with pytest.raises(ValueError, match="max_resolution must be finite"):
            integrate_refined(2, integrand, start_resolution=4, max_resolution=cap)
        assert levels == []

    def test_kernel_sections_have_zero_mean(self, rng):
        for t in (1, 4, 10):
            model = kernel_model(2, t)
            rule = build_quadrature(2, default_resolution(t))
            v = unit(rng.standard_normal(3))
            value = integrate(rule, lambda x: kernel_value(model, x @ v))
            assert abs(value) < 1e-10

    def test_gradient_mass_of_linear_section(self):
        # P(x) = 3 <e, x>: |grad P| = 3 sqrt(1 - <e,x>^2), integral 3 pi / 4
        model = kernel_model(2, 1)
        e = np.array([0.0, 0.0, 1.0])
        poly = KernelPolynomial(model, np.array([e]), np.array([1.0]))
        rule = build_quadrature(2, 40)
        value = integrate(rule, poly.gradient_norm)
        assert value == pytest.approx(3.0 * math.pi / 4.0, rel=1e-4)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_product_of_kernel_sections_closed_form(self, d, rng):
        # integral of K_t1(<v,.>) K_t2(<w,.>) equals K_min(t1,t2)(<v,w>)
        # when the rule is exact through t1 + t2; here t1 + t2 is the top
        # exact degree 2 * resolution - 1
        t1, t2 = 5, 6
        rule = build_quadrature(d, 6)
        assert rule.exactness_degree == t1 + t2
        m1, m2 = kernel_model(d, t1), kernel_model(d, t2)
        scale = kernel_value(m1, 1.0) * kernel_value(m2, 1.0)
        for _ in range(10):
            v = unit(rng.standard_normal(d + 1))
            w = unit(rng.standard_normal(d + 1))
            product = integrate(
                rule,
                lambda x: kernel_value(m1, x @ v) * kernel_value(m2, x @ w),
            )
            expected = kernel_value(m1, float(np.dot(v, w)))
            assert product == pytest.approx(expected, abs=1e-13 * scale)

    def test_reproducing_property(self, rng):
        # quadrature of K(<x,.>) Q equals Q(x) for kernel sections Q
        t = 10
        model = kernel_model(2, t)
        rule = build_quadrature(2, default_resolution(t))
        for _ in range(20):
            x = unit(rng.standard_normal(3))
            v = unit(rng.standard_normal(3))
            value = integrate(
                rule,
                lambda nodes: kernel_value(model, nodes @ x)
                * kernel_value(model, nodes @ v),
            )
            expected = kernel_value(model, float(np.dot(x, v)))
            assert abs(value - expected) <= 1e-8 * max(1.0, abs(expected))

    def test_shape_mismatch_rejected(self):
        rule = build_quadrature(2, 4)
        with pytest.raises(ValueError):
            integrate(rule, lambda x: np.ones(3))


class TestKernelPolynomial:
    def test_zero_mean(self, rng):
        model = kernel_model(2, 5)
        rule = build_quadrature(2, default_resolution(5))
        poly = KernelPolynomial(
            model, random_points(2, 12, rng), rng.standard_normal(12)
        )
        assert abs(integrate(rule, poly)) < 1e-9

    def test_squared_norm_nonnegative(self, rng):
        model = kernel_model(3, 4)
        for _ in range(20):
            poly = KernelPolynomial(
                model, random_points(3, 8, rng), rng.standard_normal(8)
            )
            assert poly.squared_norm_and_gradient()[0] >= -1e-9

    def test_squared_norm_matches_quadrature(self, rng):
        model = kernel_model(2, 4)
        rule = build_quadrature(2, default_resolution(4))
        poly = KernelPolynomial(
            model, random_points(2, 6, rng), rng.standard_normal(6)
        )
        quad = integrate(rule, lambda x: poly(x) ** 2)
        assert quad == pytest.approx(poly.squared_norm_and_gradient()[0], rel=1e-10)

    def test_gradient_is_tangential_at_nodes(self, rng):
        model = kernel_model(2, 6)
        rule = build_quadrature(2, 8)
        poly = KernelPolynomial(
            model, random_points(2, 10, rng), rng.standard_normal(10)
        )
        grads = poly.gradient(rule.nodes)
        radial = np.einsum("ij,ij->i", grads, rule.nodes)
        assert np.max(np.abs(radial)) < 1e-12 * max(1.0, float(np.max(np.abs(grads))))

    def test_gradient_matches_directional_differences(self, rng):
        model = kernel_model(2, 5)
        poly = KernelPolynomial(
            model, random_points(2, 8, rng), rng.standard_normal(8)
        )
        h = 1e-6
        for _ in range(20):
            x = unit(rng.standard_normal(3))
            v = rng.standard_normal(3)
            u = v - np.dot(v, x) * x
            u /= np.linalg.norm(u)
            plus = unit(math.cos(h) * x + math.sin(h) * u)
            minus = unit(math.cos(h) * x - math.sin(h) * u)
            fd = (poly(plus) - poly(minus)) / (2.0 * h)
            exact = float(np.dot(poly.gradient(x), u))
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_gradient_matches_per_anchor_reference(self, rng, d):
        # the one contraction K'(S) @ (a[:, None] * V) minus its radial part
        # against sum_m a_m K'(s_m) (v_m - s_m x), summed exactly per entry
        # from the same cosines
        eps = np.finfo(float).eps
        for t in (1, 2, 3, 5, 9, 20):
            model = kernel_model(d, t)
            for m in (1, 7, 60):
                poly = KernelPolynomial(model, random_points(d, m, rng), rng.standard_normal(m))
                bound = 4.0 * eps * np.abs(poly.coefficients).sum() * kernel_derivative(model, 1.0)
                pts = random_points(d, 20, rng)
                for x, grad in (
                    (pts, poly.gradient(pts)),
                    (poly.anchors, poly.squared_norm_and_gradient()[1]),
                ):
                    s = x @ poly.anchors.T  # as KernelPolynomial forms it
                    weighted = kernel_derivative(model, s) * poly.coefficients
                    terms = weighted[:, :, None] * (poly.anchors - s[:, :, None] * x[:, None, :])
                    reference = np.array([[math.fsum(c) for c in row.T] for row in terms])
                    assert np.max(np.abs(grad - reference)) <= bound

    def test_leaves_caller_arrays_alone(self, rng):
        model = kernel_model(2, 3)
        anchors = random_points(2, 5, rng)
        coefficients = rng.standard_normal(5)
        poly = KernelPolynomial(model, anchors, coefficients)
        x = random_points(2, 4, rng)
        before = poly(x)
        assert anchors.flags.writeable and coefficients.flags.writeable
        anchors[0] = -anchors[0]
        coefficients *= 2.0
        assert np.array_equal(poly(x), before)

    def test_single_point_evaluation(self, rng):
        model = kernel_model(2, 3)
        poly = KernelPolynomial(
            model, random_points(2, 5, rng), rng.standard_normal(5)
        )
        x = unit(rng.standard_normal(3))
        assert isinstance(poly(x), float)
        batch = poly(np.stack([x, x]))
        assert poly(x) == batch[0] == batch[1]


# the most anchors whose own section fits one block of the cosine budget
ONE_BLOCK_ANCHORS = math.isqrt(kernel.BLOCK_COSINES)


class TestKernelPolynomialBlocks:
    """Every kernel pass walks blocks of at most kernel.BLOCK_COSINES cosines."""

    @staticmethod
    def _explicit(poly, pts, rows):
        # the evaluation in plain blocks of the given number of rows
        values, grads = np.empty(len(pts)), np.empty(pts.shape)
        for lo in range(0, len(pts), rows):
            block = pts[lo : lo + rows]
            s = block @ poly.anchors.T
            values[lo : lo + rows] = kernel_value(poly.model, s) @ poly.coefficients
            scaled = poly.coefficients[:, None] * poly.anchors
            ambient = kernel_derivative(poly.model, s) @ scaled
            radial = np.einsum("ij,ij->i", ambient, block)
            grads[lo : lo + rows] = ambient - radial[:, None] * block
        return values, grads

    @pytest.mark.parametrize(
        "budget,anchors,n",
        [
            (kernel.BLOCK_COSINES, 1, 40000),
            (kernel.BLOCK_COSINES, 40, 2000),
            (kernel.BLOCK_COSINES, ONE_BLOCK_ANCHORS, ONE_BLOCK_ANCHORS),
            (kernel.BLOCK_COSINES, ONE_BLOCK_ANCHORS + 1, ONE_BLOCK_ANCHORS + 1),
            (kernel.BLOCK_COSINES, 1500, 2000),
            (1000, 40, 2000),
            (1000, 1500, 50),  # a row of 1500 cosines is wider than the budget
            (1, 7, 300),
        ],
    )
    def test_blocks_stay_within_cosine_budget(self, rng, monkeypatch, budget, anchors, n):
        monkeypatch.setattr(kernel, "BLOCK_COSINES", budget)
        shapes = []

        def recording(original):
            def wrapped(model, s):
                shapes.append(np.shape(s))
                return original(model, s)

            return wrapped

        for fn in (kernel_value, kernel_derivative, kernel_value_and_derivative):
            monkeypatch.setattr(quadrature, fn.__name__, recording(fn))
        model = kernel_model(2, 2)
        poly = KernelPolynomial(model, random_points(2, anchors, rng), rng.standard_normal(anchors))
        pts = random_points(2, n, rng)
        poly(pts)
        poly.gradient(pts)
        poly.squared_norm_and_gradient()
        assert all(rows * width <= budget or rows == 1 for rows, width in shapes)
        # each pass takes as few blocks as the budget allows
        passes = [(n, anchors), (n, anchors), (anchors, anchors)]
        assert len(shapes) == sum(-(-rows // max(1, budget // width)) for rows, width in passes)
        # the pair pass: packed blocks within the budget, or of one row,
        # each of which would overflow it with one row more
        config = PointConfiguration(d=2, points=pts[:400])
        bounds, sizes = [], []
        for lo, hi, s in _pair_cosines(model, config):
            assert s.ndim == 1
            bounds.append((lo, hi))
            sizes.append(s.size)
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == config.n
        assert sum(sizes) == config.n * (config.n + 1) // 2
        assert all(size <= budget or hi - lo == 1 for (lo, hi), size in zip(bounds, sizes))
        assert all(size + config.n - hi - 1 > budget for (_, hi), size in zip(bounds[:-1], sizes))

    @pytest.mark.parametrize("d,t,n", [(2, 6, 300), (3, 4, 200), (1, 9, 150)])
    def test_verification_does_not_depend_on_block_size(self, rng, monkeypatch, d, t, n):
        model = kernel_model(d, t)
        config = PointConfiguration(d=d, points=random_points(d, n, rng))
        value, residuals = defect(model, config), degree_residuals(model, config)
        report = verify_design(model, config).to_dict()
        monkeypatch.setattr(kernel, "BLOCK_COSINES", 1)  # one row per block
        assert defect(model, config) == value
        assert np.array_equal(degree_residuals(model, config), residuals)
        assert verify_design(model, config).to_dict() == report

    @pytest.mark.parametrize(
        "anchors,n", [(1, 40000), (40, 9000), (ONE_BLOCK_ANCHORS, 400), (256, 3000), (1500, 600)]
    )
    def test_budget_blocks_match_explicit_and_one_block(self, rng, anchors, n):
        model = kernel_model(2, 5)
        poly = KernelPolynomial(model, random_points(2, anchors, rng), rng.standard_normal(anchors))
        pts = random_points(2, n, rng)
        rows = kernel.BLOCK_COSINES // anchors
        values, grads = self._explicit(poly, pts, rows)
        assert np.array_equal(poly(pts), values)
        assert np.array_equal(poly.gradient(pts), grads)
        own_values, own_grads = self._explicit(poly, poly.anchors, rows)
        norm, grad = poly.squared_norm_and_gradient()
        assert norm == float(poly.coefficients @ own_values)
        assert np.array_equal(grad, own_grads)
        scale = 1e-13 * model.space_dim * np.abs(poly.coefficients).sum()
        for (v, g), (v1, g1) in (
            ((values, grads), self._explicit(poly, pts, n)),
            ((own_values, own_grads), self._explicit(poly, poly.anchors, anchors)),
        ):
            assert np.max(np.abs(v - v1)) <= scale
            assert np.max(np.abs(g - g1)) <= scale

    # (d, t, anchors, n): the flow's one-block fields at 2 * dim P_t anchors
    # ((2,3,200), (3,3,200), its 20-point warm-up and one point), a finder
    # section of 181 anchors in one SYRK block, and 300 anchors on S^3 in
    # blocks of 109 rows; the test above covers more multi-block passes
    @pytest.mark.parametrize(
        "d,t,anchors,n",
        [(2, 3, 30, 200), (3, 3, 58, 200), (3, 3, 58, 20), (2, 3, 30, 1),
         (2, 6, ONE_BLOCK_ANCHORS, 181), (3, 4, 300, 300)],
    )
    def test_one_block_passes_match_explicit_blocks(self, rng, d, t, anchors, n):
        model = kernel_model(d, t)
        poly = KernelPolynomial(model, random_points(d, anchors, rng), rng.standard_normal(anchors))
        pts = random_points(d, n, rng)
        rows = max(1, kernel.BLOCK_COSINES // anchors)
        values, grads = self._explicit(poly, pts, rows)
        assert poly(pts).tobytes() == values.tobytes()
        assert poly.gradient(pts).tobytes() == grads.tobytes()
        one_value, one_grad = self._explicit(poly, pts[:1], rows)  # a 1-row product
        assert poly(pts[0]) == one_value[0]
        assert poly.gradient(pts[0]).tobytes() == one_grad[0].tobytes()
        own_values, own_grads = self._explicit(poly, poly.anchors, rows)
        norm, grad = poly.squared_norm_and_gradient()
        assert norm == float(poly.coefficients @ own_values)
        assert grad.tobytes() == own_grads.tobytes()

    def test_squared_norm_across_blocks_matches_gram(self, rng):
        model = kernel_model(3, 3)
        poly = KernelPolynomial(model, random_points(3, 1500, rng), rng.standard_normal(1500))
        gram = kernel_value(model, poly.anchors @ poly.anchors.T)
        expected = float(poly.coefficients @ gram @ poly.coefficients)
        assert poly.squared_norm_and_gradient()[0] == pytest.approx(expected, rel=1e-12)

    # 30 anchors take one block; 1500 take 72 blocks of 21 rows
    @pytest.mark.parametrize("n", [30, 1500])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_squared_norm_and_gradient_match_separate_passes(self, rng, d, n):
        model = kernel_model(d, 4)
        poly = KernelPolynomial(model, random_points(d, n, rng), rng.standard_normal(n))
        value, grad = poly.squared_norm_and_gradient()
        assert value == float(poly.coefficients @ poly(poly.anchors))
        assert np.array_equal(grad, poly.gradient(poly.anchors))


class TestSampleBoundary:
    def test_unit_gradient_mass(self):
        model = kernel_model(2, 4)
        rule = build_quadrature(2, default_resolution(4))
        for seed in range(5):
            poly = sample_boundary_polynomial(model, rule, 40, seed=seed)
            assert integrate(rule, poly.gradient_norm) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_zero_mean(self):
        model = kernel_model(2, 4)
        rule = build_quadrature(2, default_resolution(4))
        poly = sample_boundary_polynomial(model, rule, 40, seed=3)
        assert abs(integrate(rule, poly)) < 1e-9

    def test_prescale_invariance(self):
        # normalization removes overall scale: doubling the raw coefficients
        # before scaling yields the identical polynomial.  The raw draw is
        # the sampler's first, redrawn from its seed.
        model = kernel_model(2, 3)
        rule = build_quadrature(2, default_resolution(3))
        poly = sample_boundary_polynomial(model, rule, 24, seed=9)
        rng = np.random.default_rng(9)
        anchors = random_points(2, 24, rng)
        raw = rng.standard_normal(24)
        assert np.array_equal(anchors, poly.anchors)

        def normalized(coefficients):
            mass = integrate(rule, KernelPolynomial(model, anchors, coefficients).gradient_norm)
            return coefficients / mass

        assert np.array_equal(normalized(raw), poly.coefficients)
        assert np.array_equal(normalized(2.0 * raw), poly.coefficients)

    def test_deterministic(self):
        model = kernel_model(2, 3)
        rule = build_quadrature(2, 5)
        a = sample_boundary_polynomial(model, rule, 24, seed=123)
        b = sample_boundary_polynomial(model, rule, 24, seed=123)
        assert np.array_equal(a.anchors, b.anchors)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_dimension_mismatch(self):
        model = kernel_model(2, 3)
        rule = build_quadrature(3, 5)
        with pytest.raises(ValueError):
            sample_boundary_polynomial(model, rule, 24, seed=0)
