import math

import numpy as np
import pytest
from scipy.special import roots_legendre

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
        for res in self.RESOLUTIONS:
            rule = build_quadrature(2, res)
            x, w = roots_legendre(res)
            cos, sin = self._grid(res)
            st = np.sqrt(1.0 - x**2)
            expected = np.stack(
                [np.repeat(x, 2 * res), np.outer(st, cos).ravel(), np.outer(st, sin).ravel()],
                axis=1,
            )
            assert np.array_equal(rule.nodes, expected)
            expected_weights = np.repeat(w / 2.0, 2 * res) / (2 * res)
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
        # the layout quadrature._circle_values reads: contiguous runs of 2r
        # nodes sharing their leading d-1 coordinates, whose last two are
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


class TestCircleValues:
    """`_circle_values` against direct evaluation at every node."""

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("t", [1, 2, 3, 5, 8, 12])
    def test_matches_direct_evaluation(self, d, t):
        # measured over six seeds: values within 15.5 and gradient
        # components within 2.4 of the scales below; integrals within 5e-15
        poly = self._poly(d, t, 100 * d + t)
        mass = np.abs(poly.coefficients).sum()
        one = np.array([1.0])
        value_scale = self.EPS * mass * float(kernel_value(poly.model, one)[0])
        gradient_scale = self.EPS * mass * float(kernel_derivative(poly.model, one)[0])
        for res in (t + 1, t + 2, 2 * (t + 2), 8 * (t + 2)):
            if d == 3 and res > 40:
                continue
            rule = build_quadrature(d, res)
            values = quadrature._circle_values(rule, poly, t)
            assert np.max(np.abs(values - poly(rule.nodes))) <= 32 * value_scale
            grad = quadrature._circle_values(rule, poly.gradient, t + 1)
            assert np.max(np.abs(grad - poly.gradient(rule.nodes))) <= 32 * gradient_scale
            direct = integrate(rule, lambda x: np.abs(poly(x)))
            assert integrate(rule, lambda _: np.abs(values)) == pytest.approx(direct, rel=1e-14)
            direct = integrate(rule, poly.gradient_norm)
            circled = integrate(rule, lambda _: quadrature._row_norms(grad))
            assert circled == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_evaluates_2_deg_plus_1_points_per_circle(self, d):
        poly = self._poly(d, 3, d)
        rule = build_quadrature(d, 8)
        calls = []
        quadrature._circle_values(rule, self._counted(poly, calls), 3)
        assert calls == [7 * len(rule.nodes) // 16]

    @pytest.mark.parametrize("d, res, deg", [(1, 3, 3), (2, 5, 5), (2, 3, 5), (3, 4, 4), (4, 8, 2), (5, 3, 1)])
    def test_direct_where_interpolation_saves_nothing(self, d, res, deg):
        # Monte Carlo rules, and circles of 2r <= 2 deg + 1 nodes
        poly = self._poly(d, max(deg, 1), d)
        rule = build_quadrature(d, res)
        for h in (poly, poly.gradient):
            calls = []
            got = quadrature._circle_values(rule, self._counted(h, calls), deg)
            assert calls == [len(rule.nodes)]
            assert np.array_equal(got, h(rule.nodes))


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

    def test_absolute_coordinate_s2(self):
        # (1/2) * integral of |cos| * sin over [0, pi] = 1/2; the integrand
        # has a kink, so convergence is algebraic and the refinement loop
        # reports the achieved level rather than hitting rel_tol
        value, agreement, _ = integrate_refined(
            2, lambda rule: np.abs(rule.nodes[:, 0]), start_resolution=8, max_resolution=512
        )
        assert value == pytest.approx(0.5, abs=1e-5)
        assert agreement < 1e-4

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
            weighted = kernel_derivative(poly.model, s) * poly.coefficients
            radial = np.einsum("nm,nm->n", weighted, s)
            grads[lo : lo + rows] = weighted @ poly.anchors - radial[:, None] * block
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
        config = PointConfiguration(d=2, points=pts[:400])
        bounds = []
        for lo, hi, s in _pair_cosines(model, config):
            assert s.shape == (hi - lo, config.n - lo)  # rows lo..hi, columns lo..n
            bounds.append((lo, hi))
            shapes.append(s.shape)
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == config.n
        assert all(rows * width <= budget or rows == 1 for rows, width in shapes)
        # each pass takes as few blocks as the budget allows; the triangle's
        # blocks narrow as they go, so each takes as many rows as fit
        passes = [(n, anchors), (n, anchors), (anchors, anchors)]
        triangle, lo = 0, 0
        while lo < config.n:
            lo += max(1, budget // (config.n - lo))
            triangle += 1
        assert len(shapes) == triangle + sum(
            -(-rows // max(1, budget // width)) for rows, width in passes
        )

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
        # before scaling yields the identical polynomial
        model = kernel_model(2, 3)
        rule = build_quadrature(2, default_resolution(3))
        poly = sample_boundary_polynomial(model, rule, 24, seed=9)
        doubled = KernelPolynomial(model, poly.anchors, 2.0 * poly.coefficients)
        mass = integrate(rule, doubled.gradient_norm)
        rescaled = doubled.coefficients / mass
        assert np.array_equal(rescaled, poly.coefficients)

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
