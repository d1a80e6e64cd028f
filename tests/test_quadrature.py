import math

import numpy as np
import pytest

from conftest import unit
import sphdesign.quadrature as quadrature
from sphdesign.kernel import kernel_derivative, kernel_model, kernel_value
from sphdesign.quadrature import (
    KernelPolynomial,
    build_quadrature,
    default_resolution,
    integrate,
    integrate_refined,
    sample_boundary_polynomial,
)
from sphdesign.sphere_geometry import random_points


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
            2, lambda x: np.abs(x[:, 0]), start_resolution=8, max_resolution=512
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

    def test_product_of_kernel_sections_closed_form(self, rng):
        # integral of K_t1(<v,.>) K_t2(<w,.>) equals K_min(t1,t2)(<v,w>)
        # when the rule is exact through t1 + t2
        t1, t2 = 4, 6
        rule = build_quadrature(2, 6)  # exact through 11 >= 10
        m1, m2 = kernel_model(2, t1), kernel_model(2, t2)
        m_min = kernel_model(2, min(t1, t2))
        for _ in range(10):
            v = unit(rng.standard_normal(3))
            w = unit(rng.standard_normal(3))
            product = integrate(
                rule,
                lambda x: kernel_value(m1, x @ v) * kernel_value(m2, x @ w),
            )
            expected = kernel_value(m_min, float(np.dot(v, w)))
            assert product == pytest.approx(expected, abs=1e-12 * (t1 + 1) ** 2 * (t2 + 1) ** 2)

    def test_kernel_identity_on_s3(self, rng):
        # the nested product rule is polynomial-exact on S^3 as well
        rule = build_quadrature(3, 7)  # exact through 13
        model = kernel_model(3, 6)
        for _ in range(5):
            v = unit(rng.standard_normal(4))
            w = unit(rng.standard_normal(4))
            product = integrate(
                rule,
                lambda x: kernel_value(model, x @ v) * kernel_value(model, x @ w),
            )
            expected = kernel_value(model, float(np.dot(v, w)))
            assert product == pytest.approx(expected, abs=1e-9)

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
            assert poly.squared_norm() >= -1e-9

    def test_squared_norm_matches_quadrature(self, rng):
        model = kernel_model(2, 4)
        rule = build_quadrature(2, default_resolution(4))
        poly = KernelPolynomial(
            model, random_points(2, 6, rng), rng.standard_normal(6)
        )
        quad = integrate(rule, lambda x: poly(x) ** 2)
        assert quad == pytest.approx(poly.squared_norm(), rel=1e-10)

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


class TestKernelPolynomialBlocks:
    """Row blocks hold at most 4096 rows and about 2**20 cosines."""

    @staticmethod
    def _fixed_rows(poly, pts):
        # the evaluation in plain 4096-row blocks, whatever the anchor count
        values, grads = np.empty(len(pts)), np.empty(pts.shape)
        for lo in range(0, len(pts), 4096):
            block = pts[lo : lo + 4096]
            s = block @ poly.anchors.T
            values[lo : lo + 4096] = kernel_value(poly.model, s) @ poly.coefficients
            weighted = kernel_derivative(poly.model, s) * poly.coefficients
            radial = np.einsum("nm,nm->n", weighted, s)
            grads[lo : lo + 4096] = weighted @ poly.anchors - radial[:, None] * block
        return values, grads

    @pytest.mark.parametrize("anchors", [1, 40, 256])
    def test_few_anchors_keep_4096_row_blocks(self, rng, anchors):
        model = kernel_model(2, 5)
        poly = KernelPolynomial(model, random_points(2, anchors, rng), rng.standard_normal(anchors))
        pts = random_points(2, 9000, rng)  # three blocks
        values, grads = self._fixed_rows(poly, pts)
        assert np.array_equal(poly(pts), values)
        assert np.array_equal(poly.gradient(pts), grads)

    def test_blocks_stay_within_cosine_budget(self, rng, monkeypatch):
        sizes = []

        def recording(original):
            def wrapped(model, s):
                sizes.append(np.size(s))
                return original(model, s)

            return wrapped

        monkeypatch.setattr(quadrature, "kernel_value", recording(kernel_value))
        monkeypatch.setattr(quadrature, "kernel_derivative", recording(kernel_derivative))
        model = kernel_model(2, 2)
        poly = KernelPolynomial(model, random_points(2, 1500, rng), rng.standard_normal(1500))
        pts = random_points(2, 2000, rng)
        poly(pts)
        poly.gradient(pts)
        poly.squared_norm()
        assert sizes and max(sizes) <= 2**20
        assert len(sizes) == 3 + 3 + 3  # 699-row blocks: 2000 and 1500 rows take 3 each

    def test_squared_norm_across_blocks_matches_gram(self, rng):
        model = kernel_model(3, 3)
        poly = KernelPolynomial(model, random_points(3, 1500, rng), rng.standard_normal(1500))
        gram = kernel_value(model, poly.anchors @ poly.anchors.T)
        expected = float(poly.coefficients @ gram @ poly.coefficients)
        assert poly.squared_norm() == pytest.approx(expected, rel=1e-12)


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
