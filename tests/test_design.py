import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation
from sphdesign import design, harmonics, kernel
from sphdesign.design import (
    RUN_ROWS,
    _kernel_blocks,
    _pairs_at,
    _pair_cosines,
    _section_defect,
    catalog_design,
    defect,
    defect_gradient,
    degree_residuals,
    lower_bound,
    verify_design,
)
from sphdesign.harmonics import basis_size, basis_values, mean_residuals
from sphdesign.kernel import (
    kernel_derivative,
    kernel_model,
    kernel_value,
)
from sphdesign.sphere_geometry import (
    CONFIG_NORM_TOLERANCE,
    PointConfiguration,
    SUPPORTED_DIMENSIONS,
    equal_area_partition,
    random_points,
)


class TestLowerBound:
    def test_circle_values(self):
        for t in range(1, 25):
            assert lower_bound(1, t) == t + 1

    def test_small_even(self):
        assert lower_bound(2, 2) == math.comb(3, 2) + math.comb(2, 2) == 4

    def test_small_odd(self):
        assert lower_bound(3, 5) == 2 * math.comb(5, 3) == 20

    def test_spot_table(self):
        assert lower_bound(2, 3) == 6
        assert lower_bound(2, 4) == 9
        assert lower_bound(2, 5) == 12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lower_bound(0, 3)
        with pytest.raises(ValueError):
            lower_bound(2, 0)

    def test_large_values_exact(self):
        # arbitrary-precision integers: no overflow at large (d, t)
        value = lower_bound(8, 101)
        assert value == 2 * math.comb(58, 8)


class TestDefect:
    def test_square_is_3_design(self):
        model = kernel_model(1, 3)
        square = catalog_design("polygon(4)")
        assert abs(defect(model, square)) < 1e-12

    def test_single_point(self):
        model = kernel_model(2, 1)
        cfg = PointConfiguration(d=2, points=np.array([[0.0, 0.0, 1.0]]))
        assert defect(model, cfg) == pytest.approx(3.0, abs=1e-14)

    def test_octahedron_defect_at_degree_four(self):
        model = kernel_model(2, 4)
        octa = catalog_design("cross-polytope(2)")
        residuals = degree_residuals(model, octa)
        assert np.allclose(residuals[:3], 0.0, atol=1e-13)
        assert residuals[3] == pytest.approx(5.25, abs=1e-12)
        assert defect(model, octa) == pytest.approx(5.25, abs=1e-9)

    def test_octahedron_brute_force_oracle(self):
        # independent oracle: Legendre values from numpy's polynomial module
        from numpy.polynomial import legendre

        octa = catalog_design("cross-polytope(2)").points
        n = len(octa)
        total = 0.0
        for k in range(1, 5):
            coeffs = [0.0] * k + [1.0]
            series = legendre.Legendre(coeffs)
            acc = 0.0
            for i in range(n):
                for j in range(n):
                    acc += series(float(np.dot(octa[i], octa[j])))
            total += (2 * k + 1) * acc / n**2
        model = kernel_model(2, 4)
        cfg = PointConfiguration(d=2, points=octa)
        assert defect(model, cfg) == pytest.approx(total, rel=1e-12)

    def test_rotation_invariance(self, rng):
        model = kernel_model(2, 4)
        pts = random_points(2, 15, rng)
        base = defect(model, PointConfiguration(d=2, points=pts))
        for _ in range(5):
            rot = random_rotation(3, rng)
            rotated = pts @ rot.T
            rotated /= np.linalg.norm(rotated, axis=1, keepdims=True)
            value = defect(model, PointConfiguration(d=2, points=rotated))
            assert value == pytest.approx(base, rel=1e-10)

    def test_permutation_invariance_exact(self, rng):
        # correctly rounded pair sums make reordering a no-op, bit for bit
        model = kernel_model(3, 5)
        pts = random_points(3, 17, rng)
        base = defect(model, PointConfiguration(d=3, points=pts))
        base_res = degree_residuals(model, PointConfiguration(d=3, points=pts))
        for _ in range(5):
            perm = rng.permutation(len(pts))
            shuffled = PointConfiguration(d=3, points=pts[perm])
            assert defect(model, shuffled) == base
            assert np.array_equal(degree_residuals(model, shuffled), base_res)

    def test_dimension_mismatch(self, rng):
        model = kernel_model(2, 3)
        cfg = PointConfiguration(d=3, points=random_points(3, 4, rng))
        with pytest.raises(ValueError):
            defect(model, cfg)

    def test_nonnegative_up_to_rounding(self, rng):
        for d, t in ((1, 6), (2, 5), (3, 4)):
            model = kernel_model(d, t)
            for n in (3, 10, 40):
                cfg = PointConfiguration(d=d, points=random_points(d, n, rng))
                assert defect(model, cfg) > -1e-12


def _mpmath_defect(model, config):
    """The defect of the same clipped cosines as `defect`, to 40 digits."""
    s = np.clip(np.einsum("ik,jk->ij", config.points, config.points), -1.0, 1.0)
    counts = {}
    for x in s.ravel().tolist():
        counts[x] = counts.get(x, 0) + 1
    d = model.d
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for x, count in counts.items():
            x = mpmath.mpf(x)
            p_prev, p, value = mpmath.mpf(1), x, model.dims[0] * x
            for k in range(2, model.t + 1):
                p, p_prev = ((2 * k + d - 3) * x * p - (k - 1) * p_prev) / (k + d - 2), p
                value += model.dims[k - 1] * p
            total += count * value
        return float(total / config.n**2)


class TestDefectAgainstReference:
    @pytest.mark.parametrize("d, t, n", [(2, 8, 60), (3, 4, 40)])
    def test_eq_defect_within_a_tenth_eps(self, d, t, n):
        # the benchmark's small EQ verify inputs: the verification sum, with
        # exact row sums, stays within 0.1 eps K(1) of the 40-digit defect
        model = kernel_model(d, t)
        config = PointConfiguration(d=d, points=equal_area_partition(d, n).representatives)
        gap = abs(defect(model, config) - _mpmath_defect(model, config))
        assert gap <= 0.1 * np.finfo(float).eps * model.space_dim

    @pytest.mark.parametrize(
        "name, t",
        [("icosahedron", 5), ("24-cell", 5), ("cube(3)", 3), ("d4-minimal-vectors", 5)],
    )
    def test_exact_design_within_a_tenth_eps(self, name, t):
        # the true defect is 0 here, and the verdict rests on how close to
        # it the computed one lands
        config = catalog_design(name)
        model = kernel_model(config.d, t)
        gap = abs(defect(model, config) - _mpmath_defect(model, config))
        assert gap <= 0.1 * np.finfo(float).eps * model.space_dim


def _descent_objective(model, config):
    return _section_defect(model, config.points)[0]


class TestDescentDefect:
    """The finder's objective, the averaged section's squared norm, against
    the exact fsum defect."""

    @pytest.mark.parametrize("n", [5, 60, 300])
    @pytest.mark.parametrize("t", [1, 2, 7, 20])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_matches_exact_defect(self, d, t, n):
        model = kernel_model(d, t)
        rng = np.random.default_rng(1000 * d + 10 * t + n)
        cfg = PointConfiguration(d=d, points=random_points(d, n, rng))
        bound = 4 * np.finfo(float).eps * model.space_dim
        assert abs(_descent_objective(model, cfg) - defect(model, cfg)) <= bound

    # with N = 1500 anchors the section evaluates in blocks of 699 rows
    @pytest.mark.parametrize("d, t", [(1, 20), (2, 7), (3, 4), (8, 2)])
    def test_matches_exact_defect_across_blocks(self, d, t):
        model = kernel_model(d, t)
        rng = np.random.default_rng(1000 * d + 10 * t)
        cfg = PointConfiguration(d=d, points=random_points(d, 1500, rng))
        bound = 4 * np.finfo(float).eps * model.space_dim
        assert abs(_descent_objective(model, cfg) - defect(model, cfg)) <= bound

    @pytest.mark.parametrize("name,t", [("icosahedron", 5), ("24-cell", 5), ("cube(3)", 3)])
    def test_vanishes_at_designs(self, name, t):
        config = catalog_design(name)
        model = kernel_model(config.d, t)
        bound = 4 * np.finfo(float).eps * model.space_dim
        assert abs(defect(model, config)) <= bound
        assert abs(_descent_objective(model, config)) <= bound

    def test_dimension_mismatch(self, rng):
        model = kernel_model(2, 3)
        cfg = PointConfiguration(d=3, points=random_points(3, 4, rng))
        with pytest.raises(ValueError):
            _descent_objective(model, cfg)


class TestDegreeResiduals:
    def test_octahedron_degree_two_vanishes(self):
        model = kernel_model(2, 2)
        octa = catalog_design("cross-polytope(2)")
        residuals = degree_residuals(model, octa)
        assert residuals[1] == pytest.approx(0.0, abs=1e-13)

    def test_polygon_residuals_vanish_below_degree(self):
        t = 6
        model = kernel_model(1, t)
        gon = catalog_design(f"polygon({t + 1})")
        assert np.max(np.abs(degree_residuals(model, gon))) < 1e-12

    def test_single_point_residuals_are_dimensions(self):
        model = kernel_model(2, 2)
        cfg = PointConfiguration(d=2, points=np.array([[1.0, 0.0, 0.0]]))
        residuals = degree_residuals(model, cfg)
        assert residuals[0] == pytest.approx(3.0, abs=1e-14)
        assert residuals[1] == pytest.approx(5.0, abs=1e-14)

    def test_parseval_split(self, rng):
        for d, t in ((1, 8), (2, 6), (3, 4)):
            model = kernel_model(d, t)
            for n in (5, 12):
                cfg = PointConfiguration(d=d, points=random_points(d, n, rng))
                residuals = degree_residuals(model, cfg)
                total = defect(model, cfg)
                assert math.fsum(residuals) == pytest.approx(total, rel=1e-10)
                assert np.min(residuals) >= -1e-12


class TestDefectGradient:
    def test_vanishes_at_design(self):
        model = kernel_model(2, 5)
        ico = catalog_design("icosahedron")
        grad = defect_gradient(model, ico)
        assert np.max(np.abs(grad)) < 1e-9

    def test_antipodal_pair_is_stationary(self):
        model = kernel_model(2, 1)
        pair = PointConfiguration(
            d=2, points=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        )
        assert np.max(np.abs(defect_gradient(model, pair))) < 1e-12

    def test_tangency(self, rng):
        model = kernel_model(2, 4)
        cfg = PointConfiguration(d=2, points=random_points(2, 9, rng))
        grad = defect_gradient(model, cfg)
        radial = np.einsum("ij,ij->i", grad, cfg.points)
        assert np.max(np.abs(radial)) < 1e-12

    def test_matches_finite_differences(self, rng):
        model = kernel_model(2, 3)
        h = 1e-6
        for _ in range(5):
            pts = random_points(2, 6, rng)
            cfg = PointConfiguration(d=2, points=pts)
            grad = defect_gradient(model, cfg)
            for _ in range(8):
                i = int(rng.integers(0, len(pts)))
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


def _pairwise_gradient(model, cfg):
    """The defect gradient by the pairwise formula, a slow reference:
    (2/N^2) sum_j K'(<x_i, x_j>) (x_j - <x_i, x_j> x_i), in 256-row blocks."""
    pts = cfg.points
    grad = np.empty(pts.shape)
    for lo in range(0, cfg.n, 256):
        hi = min(lo + 256, cfg.n)
        s = np.clip(np.einsum("ik,jk->ij", pts[lo:hi], pts), -1.0, 1.0)
        w = (2.0 / cfg.n**2) * kernel_derivative(model, s)
        radial = np.einsum("rj,rj->r", w, s)
        grad[lo:hi] = w @ pts - radial[:, None] * pts[lo:hi]
    return grad


class TestGradientAgainstPairwise:
    """`defect_gradient` (the averaged section's gradient) against the
    pairwise formula, within 4 eps K'(1) (1 + sqrt N) / N per component."""

    @staticmethod
    def _check(d, t, n):
        model = kernel_model(d, t)
        rng = np.random.default_rng(1000 * d + 10 * t + n)
        cfg = PointConfiguration(d=d, points=random_points(d, n, rng))
        bound = 4 * np.finfo(float).eps * kernel_derivative(model, 1.0) * (1 + math.sqrt(n)) / n
        gap = np.max(np.abs(defect_gradient(model, cfg) - _pairwise_gradient(model, cfg)))
        assert gap <= bound

    @pytest.mark.parametrize("n", [5, 60, 300])
    @pytest.mark.parametrize("t", [1, 2, 7, 20])
    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_matches_pairwise_formula(self, d, t, n):
        self._check(d, t, n)

    def test_matches_pairwise_formula_across_blocks(self):
        # 1500 anchors: the section evaluates in blocks of 699 rows
        self._check(2, 7, 1500)


def _fsum_reference(model, cfg):
    """Defect and residuals as one math.fsum over each whole pair matrix:
    the correctly rounded total of all N^2 entries.

    The kernel matrix is `kernel_value`, the two-term form of the kernel
    that verification sums too.  The degree-k residual matrix is
    A_k - A_(k-2), with A_k the rounded C(k+d, k) P_k of S^(d+2), A_0 = 1
    and A_(-1) = 0, the terms whose pair sums verification takes."""
    d = model.d
    s = np.clip(np.einsum("ik,jk->ij", cfg.points, cfg.points), -1.0, 1.0)
    n_sq = cfg.n**2
    products = [np.zeros_like(s), np.ones_like(s)]  # A_(-1), A_0
    products += [math.comb(k + d, k) * p for k, p in kernel._degree_scan(d + 2, model.t, s)]
    total = math.fsum(kernel_value(model, s).ravel()) / n_sq
    residuals = [
        math.fsum(np.concatenate([above.ravel(), -below.ravel()])) / n_sq
        for below, above in zip(products, products[2:])
    ]
    return total, np.array(residuals)


class TestVerifyDesign:
    def test_icosahedron_is_5_design(self):
        model = kernel_model(2, 5)
        report = verify_design(model, catalog_design("icosahedron"), tolerance=1e-10)
        assert report.verdict
        assert report.lower_bound == 12

    def test_d4_minimal_vectors_are_5_design(self):
        model = kernel_model(3, 5)
        config = catalog_design("d4-minimal-vectors")
        assert config.n == 24
        assert verify_design(model, config, tolerance=1e-10).verdict

    def test_24_cell_is_5_design(self):
        model = kernel_model(3, 5)
        assert verify_design(model, catalog_design("24-cell")).verdict

    def test_octahedron_fails_at_degree_four(self):
        model = kernel_model(2, 4)
        report = verify_design(model, catalog_design("cross-polytope(2)"))
        assert not report.verdict
        assert report.defect == pytest.approx(5.25, abs=1e-9)

    def test_harmonic_cross_check_on_random_configs(self, rng):
        for n in (4, 9, 30):
            model = kernel_model(2, 5)
            cfg = PointConfiguration(d=2, points=random_points(2, n, rng))
            report = verify_design(model, cfg, tolerance=1e-10)
            cross = report.meta["harmonic_cross_check"]
            assert cross == pytest.approx(report.defect, rel=1e-9)

    def test_harmonic_cross_check_high_degree(self, rng):
        # the normalized associated-Legendre recurrence stays stable far
        # above the degrees the acceptance suite touches
        model = kernel_model(2, 50)
        cfg = PointConfiguration(d=2, points=random_points(2, 30, rng))
        report = verify_design(model, cfg)
        gap = report.meta["harmonic_cross_check_gap"]
        assert gap <= 1e-11 * report.defect

    def test_monotone_exactness(self):
        # a design at degree t verifies at every smaller degree
        ico = catalog_design("icosahedron")
        for t in range(1, 6):
            assert verify_design(kernel_model(2, t), ico).verdict

    def test_polygon_tightness(self):
        # t+1 points pass at degree t and fail hard at degree t+1
        for t in (2, 5, 9):
            gon = catalog_design(f"polygon({t + 1})")
            assert verify_design(kernel_model(1, t), gon, tolerance=1e-10).verdict
            report = verify_design(kernel_model(1, t + 1), gon, tolerance=1e-10)
            assert not report.verdict
            assert report.defect > 0.1

    def test_report_serialization(self):
        model = kernel_model(2, 3)
        report = verify_design(model, catalog_design("cross-polytope(2)"))
        payload = report.to_dict()
        assert payload["verdict"] is True
        assert len(payload["residuals"]) == 3
        import json

        assert json.loads(report.to_json()) == payload

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_accepts_points_near_norm_tolerance(self, rng, d):
        # every configuration PointConfiguration accepts must evaluate: the
        # self inner product of a point of norm 1 + delta is (1 + delta)^2
        pts = random_points(d, 12, rng)
        near = PointConfiguration(d=d, points=pts * (1.0 + 0.9 * CONFIG_NORM_TOLERANCE))
        model = kernel_model(d, 4)
        exact = defect(model, PointConfiguration(d=d, points=pts))
        assert defect(model, near) == pytest.approx(exact, rel=1e-9)
        assert verify_design(model, near).defect == pytest.approx(exact, rel=1e-9)

    def test_rejects_nonpositive_tolerance(self):
        model = kernel_model(2, 3)
        with pytest.raises(ValueError):
            verify_design(model, catalog_design("cross-polytope(2)"), tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_tolerance(self, tolerance):
        # an infinite tolerance would pass any point set: cube(2) has defect 2.33
        model = kernel_model(2, 5)
        with pytest.raises(ValueError, match="finite"):
            verify_design(model, catalog_design("cube(2)"), tolerance=tolerance)

    @pytest.mark.parametrize("d, t", [(d, t) for d in SUPPORTED_DIMENSIONS for t in (1, 2, 7, 20)])
    def test_single_pass_matches_defect_and_residuals(self, rng, d, t):
        # verify_design's one pair pass against the separate exact functions,
        # and those against math.fsum of each whole matrix; N = 600 spans seven
        # triangular blocks
        model = kernel_model(d, t)
        for n in (1, 5, 300, 600):
            cfg = PointConfiguration(d=d, points=random_points(d, n, rng))
            report = verify_design(model, cfg)
            assert report.defect == defect(model, cfg)
            assert np.array_equal(report.residuals, degree_residuals(model, cfg))
            if n <= 300:
                reference_defect, reference_residuals = _fsum_reference(model, cfg)
                assert report.defect == reference_defect
                assert np.array_equal(report.residuals, reference_residuals)

    def test_separation_of_catalog_designs(self):
        ico = verify_design(kernel_model(2, 5), catalog_design("icosahedron"))
        assert abs(ico.meta["min_separation"] - math.acos(1 / math.sqrt(5))) <= 1e-15
        assert ico.meta["separation_times_t"] == 5 * ico.meta["min_separation"]
        # the 24-cell's coordinates and nearest-neighbour cosines are exact
        cell = verify_design(kernel_model(3, 5), catalog_design("24-cell"))
        assert cell.meta["min_separation"] == math.acos(0.5)

    def test_separation_of_coincident_and_single_points(self, rng):
        octahedron = catalog_design("cross-polytope(2)").points
        doubled = PointConfiguration(d=2, points=np.concatenate([octahedron, octahedron[:1]]))
        report = verify_design(kernel_model(2, 3), doubled)
        assert report.meta["min_separation"] == 0.0 == report.meta["separation_times_t"]
        # a repeated random point, whose cosine may round a few ulps below 1
        pts = random_points(4, 30, rng)
        repeated = PointConfiguration(d=4, points=np.concatenate([pts, pts[7:8]]))
        assert verify_design(kernel_model(4, 2), repeated).meta["min_separation"] == 0.0
        single = verify_design(kernel_model(2, 3), PointConfiguration(d=2, points=octahedron[:1]))
        assert single.meta["min_separation"] is None and single.meta["separation_times_t"] is None

    @pytest.mark.parametrize("angle", [1e-3, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_separation_of_close_points(self, rng, angle):
        # a close pair among 400 random points, in rows 250 and 399, which
        # lie in different blocks of the pair pass; the cosine of a pair
        # 1e-8 rad apart rounds to 1.  The reference is the angle between
        # the stored vectors in 40-digit arithmetic, where a float cross
        # product would be off by about 1e-16 absolute.
        pts = random_points(2, 400, rng)
        x = pts[250]
        tangent = np.cross(x, rng.standard_normal(3))
        tangent /= np.linalg.norm(tangent)
        pts[399] = math.cos(angle) * x + math.sin(angle) * tangent
        config = PointConfiguration(d=2, points=pts)
        with mpmath.workdps(40):
            x, y = (mpmath.matrix(config.points[k].tolist()) for k in (250, 399))
            cross = [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]
            expected = float(mpmath.atan2(mpmath.norm(mpmath.matrix(cross)), (x.T * y)[0]))
        report = verify_design(kernel_model(2, 3), config)
        assert report.meta["min_separation"] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert len(list(_pair_cosines(kernel_model(2, 3), config))) >= 3

    def test_shuffled_report_is_identical(self, rng):
        model = kernel_model(2, 7)
        pts = random_points(2, 600, rng)
        base = verify_design(model, PointConfiguration(d=2, points=pts))
        shuffled = verify_design(
            model, PointConfiguration(d=2, points=pts[rng.permutation(600)])
        )
        assert shuffled.defect == base.defect
        assert np.array_equal(shuffled.residuals, base.residuals)
        assert shuffled.meta == base.meta
        assert "harmonic_cross_check_gap" in base.meta
        assert 0.0 < base.meta["min_separation"] < math.pi


def _packed_pairs(n, lo, hi):
    """Row and column of each cosine in the block of rows lo..hi, in the
    order `_pair_cosines` documents."""
    rows, cols = [], []
    if lo == 0:
        rows.append(np.arange(n))
        cols.append(np.arange(n))
    for a in range(lo, hi, RUN_ROWS):
        b = min(a + RUN_ROWS, hi)
        i, j = np.meshgrid(np.arange(a, b), np.arange(b, n), indexing="ij")
        rows.append(i.ravel())
        cols.append(j.ravel())
        i, j = np.triu_indices(b - a, 1)
        rows.append(i + a)
        cols.append(j + a)
    return np.concatenate(rows), np.concatenate(cols)


class TestSymmetricPairCosines:
    """Verification evaluates each unordered pair once: the diagonal with
    weight 1 and the strict upper triangle with weight 2.  Exact
    permutation invariance rests on the einsum cosines being exactly
    symmetric."""

    @pytest.mark.parametrize("n", [1, 400])
    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_packed_cosines_are_the_full_matrix_and_its_transpose(self, rng, d, n):
        pts = random_points(d, n, rng)
        full = np.clip(np.einsum("ik,jk->ij", pts, pts), -1.0, 1.0)
        blocks = list(_pair_cosines(kernel_model(d, 2), PointConfiguration(d=d, points=pts)))
        assert len(blocks) >= (3 if n > 1 else 1)
        for lo, hi, s in blocks:
            i, j = _packed_pairs(n, lo, hi)
            # compare bit patterns: array_equal would let -0.0 match 0.0
            bits = s.view(np.int64)
            assert np.array_equal(bits, full[i, j].view(np.int64))
            assert np.array_equal(bits, full.T[i, j].view(np.int64))

    @pytest.mark.parametrize("budget", [1, 7, kernel.BLOCK_COSINES])
    @pytest.mark.parametrize("n", [1, 2, 3, 181, 182, 600])
    def test_every_pair_once_with_its_weight(self, rng, monkeypatch, n, budget):
        monkeypatch.setattr(kernel, "BLOCK_COSINES", budget)
        model = kernel_model(3, 3)
        config = PointConfiguration(d=3, points=random_points(3, n, rng))
        seen = np.zeros((n, n), dtype=int)
        blocks = list(_kernel_blocks(model, config))
        bounds = [(lo, hi) for lo, hi, _ in _pair_cosines(model, config)]
        assert [(lo, hi) for lo, hi, *_ in blocks] == bounds
        for lo, hi, s, diagonal, levels in blocks:
            i, j = _packed_pairs(n, lo, hi)
            assert s.shape == i.shape
            np.add.at(seen, (i, j), 1)
            weights = np.where(i == j, 1.0, 2.0)
            assert diagonal == np.count_nonzero(i == j) and np.all(i[:diagonal] == j[:diagonal])
            # powers of two scale exactly, so fsum of the products is exact
            assert math.fsum(levels) == math.fsum((weights * kernel_value(model, s)).tolist())
        assert np.array_equal(seen, np.triu(np.ones((n, n), dtype=int)))

    @pytest.mark.parametrize("budget", [1, 7, kernel.BLOCK_COSINES])
    @pytest.mark.parametrize("n", [2, 3, 40, 181])
    def test_pairs_at_decodes_the_packed_layout(self, rng, monkeypatch, n, budget):
        # every position past a block's diagonal cosines, against the
        # reference layout
        monkeypatch.setattr(kernel, "BLOCK_COSINES", budget)
        config = PointConfiguration(d=2, points=random_points(2, n, rng))
        for lo, hi, s in _pair_cosines(kernel_model(2, 2), config):
            i, j = _packed_pairs(n, lo, hi)
            diagonal = n if lo == 0 else 0
            if s.size == diagonal:
                continue
            rows, cols = _pairs_at(n, lo, hi, np.arange(s.size - diagonal))
            assert np.array_equal(rows, i[diagonal:]) and np.array_equal(cols, j[diagonal:])
            # any ascending subset
            picked = np.sort(rng.permutation(s.size - diagonal)[: max(1, (s.size - diagonal) // 3)])
            rows, cols = _pairs_at(n, lo, hi, picked)
            assert np.array_equal(rows, i[diagonal:][picked]) and np.array_equal(cols, j[diagonal:][picked])

    @pytest.mark.parametrize("n", [1, 2, 181, 182, 400, 600])
    def test_one_pass_evaluates_each_pair_once(self, rng, monkeypatch, n):
        # one kernel call per block, n(n+1)/2 cosines in all
        sizes = []

        def counted(model, s):
            sizes.append(s.size)
            return value(model, s)

        value = design._value
        monkeypatch.setattr(design, "_value", counted)
        model = kernel_model(2, 4)
        config = PointConfiguration(d=2, points=random_points(2, n, rng))
        blocks = [s.size for *_, s in _pair_cosines(model, config)]
        assert sum(blocks) == n * (n + 1) // 2
        defect(model, config)
        assert sizes == blocks
        sizes.clear()
        verify_design(model, config)
        assert sizes == blocks


class TestVerificationProperties:
    """verify_design's contracts on random configurations."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(list(SUPPORTED_DIMENSIONS)),
        st.integers(1, 8),
        st.integers(1, 300),
        st.integers(0, 2**32 - 1),
    )
    def test_contracts(self, d, t, n, seed):
        rng = np.random.default_rng(seed)
        pts = random_points(d, n, rng)
        model = kernel_model(d, t)
        config = PointConfiguration(d=d, points=pts)
        report = verify_design(model, config)
        permuted = PointConfiguration(d=d, points=pts[rng.permutation(n)])
        assert verify_design(model, permuted).to_dict() == report.to_dict()
        assert defect(model, config) == report.defect
        floor = 4 * np.finfo(float).eps * model.space_dim  # 4 eps K(1)
        assert report.defect >= -floor
        assert abs(math.fsum(report.residuals) - report.defect) <= floor


class TestCatalog:
    def test_polygon_square(self):
        square = catalog_design("polygon(4)")
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.allclose(square.points, expected, atol=1e-15)

    def test_cross_polytope_is_octahedron(self):
        octa = catalog_design("cross-polytope(2)")
        assert octa.n == 6
        assert np.allclose(np.abs(octa.points).sum(axis=1), 1.0)

    def test_simplex_angles(self):
        for d in (1, 2, 3, 5):
            simplex = catalog_design(f"simplex({d})")
            assert simplex.n == d + 2
            gram = simplex.points @ simplex.points.T
            off = gram[~np.eye(d + 2, dtype=bool)]
            assert np.allclose(off, -1.0 / (d + 1), atol=1e-12)

    def test_simplex_is_2_design(self):
        for d in (2, 4):
            model = kernel_model(d, 2)
            assert verify_design(model, catalog_design(f"simplex({d})")).verdict

    def test_cross_polytope_and_cube_are_3_designs(self):
        for d in (2, 3, 4):
            model = kernel_model(d, 3)
            assert verify_design(model, catalog_design(f"cross-polytope({d})")).verdict
            assert verify_design(model, catalog_design(f"cube({d})")).verdict

    def test_dodecahedron_is_5_design(self):
        model = kernel_model(2, 5)
        assert verify_design(model, catalog_design("dodecahedron")).verdict

    def test_unknown_names_rejected(self):
        for bad in ("unknown", "polygon", "polygon(x)", "icosahedron(3)", ""):
            with pytest.raises(ValueError):
                catalog_design(bad)

    def test_out_of_range_arguments_rejected(self):
        for bad in ("simplex(0)", "cross-polytope(9)", "cube(9)"):
            with pytest.raises(ValueError, match="sphere dimension"):
                catalog_design(bad)
        with pytest.raises(ValueError, match="vertex"):
            catalog_design("polygon(0)")


def _basis_by_order(t, pts):
    """`basis_values` with the Legendre recurrences run one order m at a
    time, each column its own array: the reference for the recurrence run
    over all orders at once."""
    x = np.clip(pts[:, 0], -1.0, 1.0)
    phi = np.arctan2(pts[:, 2], pts[:, 1])
    sx = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    columns = [None] * basis_size(t)
    for m in range(t + 1):
        p = np.ones_like(x)
        for j in range(1, m + 1):
            p = math.sqrt((2 * j + 1) / (2 * j)) * sx * p
        values = [p] if m == t else [p, math.sqrt(2 * m + 3) * x * p]
        for k in range(m + 2, t + 1):
            a = math.sqrt((4 * k * k - 1) / (k * k - m * m))
            b = math.sqrt((2 * k + 1) * (k - 1 - m) * (k - 1 + m) / ((2 * k - 3) * (k - m) * (k + m)))
            values.append(a * x * values[-1] - b * values[-2])
        for k, p in enumerate(values, start=m):
            if m == 0 and k > 0:
                columns[k * k - 1] = p
            elif m > 0:
                columns[k * k + 2 * m - 2] = p * (math.sqrt(2.0) * np.cos(m * phi))
                columns[k * k + 2 * m - 1] = p * (math.sqrt(2.0) * np.sin(m * phi))
    return np.stack(columns, axis=1)


class TestHarmonicBasis:
    def test_basis_size(self):
        assert basis_size(5) == 35
        assert basis_size(1) == 3

    def test_addition_identity(self, rng):
        # squares within one degree sum to the harmonic dimension
        t = 6
        pts = random_points(2, 25, rng)
        values = basis_values(t, pts)
        start = 0
        for k in range(1, t + 1):
            block = values[:, start : start + 2 * k + 1]
            assert np.allclose((block**2).sum(axis=1), 2 * k + 1, atol=1e-10)
            start += 2 * k + 1

    def test_orthonormality_under_quadrature(self):
        from sphdesign.quadrature import build_quadrature

        t = 4
        rule = build_quadrature(2, t + 2)
        values = basis_values(t, rule.nodes)
        gram = (values * rule.weights[:, None]).T @ values
        assert np.allclose(gram, np.eye(basis_size(t)), atol=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 7, 30])
    def test_matches_order_by_order_recurrence(self, rng, t):
        pts = np.concatenate([random_points(2, 50, rng), np.eye(3), -np.eye(3)])
        values = basis_values(t, pts)
        assert values.shape == (56, basis_size(t))
        assert values.tobytes() == _basis_by_order(t, pts).tobytes()

    @pytest.mark.parametrize("block", [1, 1000, harmonics.BLOCK_VALUES])
    @pytest.mark.parametrize("t,n", [(3, 1), (3, 700), (20, 400)])
    def test_mean_residuals_are_fsum_of_each_column(self, rng, monkeypatch, t, n, block):
        # blocks of at most `block` values (or one point), rounded once
        # across blocks: each mean is math.fsum of its column over n
        default = harmonics.BLOCK_VALUES
        monkeypatch.setattr(harmonics, "BLOCK_VALUES", block)
        sizes = []

        def recorded(t, pts):
            sizes.append(len(pts))
            return basis_rows(t, pts)

        basis_rows = harmonics._basis_rows
        monkeypatch.setattr(harmonics, "_basis_rows", recorded)
        pts = random_points(2, n, rng)
        means = mean_residuals(t, pts)
        expected = [math.fsum(column) / n for column in _basis_by_order(t, pts).T.tolist()]
        assert [float(v).hex() for v in means] == [v.hex() for v in expected]
        assert sum(sizes) == n
        assert all(size * basis_size(t) <= block or size == 1 for size in sizes)
        if block == default and (t, n) == (20, 400):
            assert sizes == [400]  # the benchmark's cross-check is one block

    def test_design_means_vanish(self):
        ico = catalog_design("icosahedron")
        assert np.max(np.abs(mean_residuals(5, ico.points))) < 1e-15
