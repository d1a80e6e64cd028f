import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import sphdesign.sphere_geometry as sphere_geometry
from sphdesign.sphere_geometry import (
    CELL_TOLERANCE,
    SUPPORTED_DIMENSIONS,
    PointConfiguration,
    _misplaced,
    cap_colatitude,
    cap_measure,
    equal_area_partition,
    frozen_copy,
    measure_diameter_constant,
    norm_column,
    partition_norm,
    random_points,
    unit_rows,
)


def test_frozen_copy_is_a_read_only_float_c_order_copy():
    source = np.asfortranarray(np.arange(6).reshape(2, 3))
    frozen = frozen_copy(source)
    assert frozen.dtype == float and frozen.flags.c_contiguous
    assert not frozen.flags.writeable and source.flags.writeable
    source[0, 0] = 7
    assert frozen[0, 0] == 0.0


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e150])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_unit_rows_match_linalg_norm_bit_for_bit(rng, d, scale):
    # tiny rows underflow to zero norms and give inf or NaN in both
    x = scale * rng.standard_normal((300, d + 1))
    x[:2] = 0.0
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert unit_rows(x).tobytes() == (x / norms).tobytes()
    assert norm_column(x).tobytes() == norms.tobytes()


class TestCapMeasure:
    def test_hemisphere_is_half(self):
        for d in SUPPORTED_DIMENSIONS:
            assert cap_measure(d, math.pi / 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_s2_closed_form(self, rng):
        for theta in rng.uniform(0.0, math.pi, size=20):
            assert cap_measure(2, theta) == pytest.approx(
                (1.0 - math.cos(theta)) / 2.0, abs=1e-14
            )

    def test_s3_closed_form(self, rng):
        # integral of sin^2 from 0 to theta over pi/2
        for theta in rng.uniform(0.0, math.pi, size=20):
            expected = (theta - math.sin(theta) * math.cos(theta)) / math.pi
            assert cap_measure(3, theta) == pytest.approx(expected, abs=1e-13)

    def test_inverse_round_trip(self, rng):
        for d in SUPPORTED_DIMENSIONS:
            for v in rng.uniform(0.0, 1.0, size=10):
                assert cap_measure(d, cap_colatitude(d, v)) == pytest.approx(
                    v, abs=1e-12
                )


def _mp_cap_measure(d, theta):
    """40-digit I_{sin^2(theta/2)}(d/2, d/2) at the float theta."""
    half = mpmath.mpf(d) / 2
    return mpmath.betainc(half, half, 0, mpmath.sin(mpmath.mpf(theta) / 2) ** 2, regularized=True)


class TestCapOracle:
    """cap_measure and cap_colatitude against 40-digit mpmath.

    Worst relative errors on these grids: the measure 1.2e-15 here and
    1.3e-15 from scipy.special's betainc at d >= 2, the colatitude 5.4e-16
    here and 7.0e-16 from betaincinv.  At d = 1 scipy reaches 1.4e-11 and
    2.1e-13, since sin^2(theta/2) near theta = pi loses the small
    complement; the closed form theta / pi reaches 1.4e-16.
    """

    THETAS = (1e-6, 1e-3, 1e-2, 0.1, *np.linspace(0.05, math.pi - 0.05, 37).tolist(), math.pi - 1e-3, math.pi - 1e-6)
    MEASURES = (1e-12, 1e-8, 1e-4, 1e-2, *(k / 32 for k in range(1, 32)), 1 - 1e-2, 1 - 1e-4)

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_measure(self, d):
        with mpmath.workdps(40):
            for theta in self.THETAS:
                reference = _mp_cap_measure(d, theta)
                assert abs(cap_measure(d, theta) - reference) <= 1e-14 * reference, theta

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_colatitude(self, d):
        # the reference is one 40-digit Newton step from the float result:
        # Phi_d'(theta) = sin^(d-1)(theta) / W_d, W_d = sqrt(pi) G(d/2) / G((d+1)/2)
        with mpmath.workdps(40):
            scale = mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d + 1) / 2)
            for v in self.MEASURES:
                theta = cap_colatitude(d, v)
                slope = mpmath.sin(theta) ** (d - 1) / scale
                reference = theta - (_mp_cap_measure(d, theta) - v) / slope
                assert abs(theta - reference) <= 1e-14 * reference, v


def _scipy_cap_measure(d, theta):
    from scipy.special import betainc

    if theta <= 0.0:
        return 0.0
    if theta >= math.pi:
        return 1.0
    return float(betainc(d / 2.0, d / 2.0, math.sin(0.5 * theta) ** 2))


def _scipy_cap_colatitude(d, measure):
    from scipy.special import betaincinv

    z = float(betaincinv(d / 2.0, d / 2.0, min(max(measure, 0.0), 1.0)))
    return 2.0 * math.asin(min(1.0, math.sqrt(z)))


def _recorded_build(d, n):
    """The cells of _build_cells(d, n) as one row of bounds per cell, and
    every collar count list the build made, in order."""
    counts = []
    collar_counts = sphere_geometry._collar_counts

    def recording(*args):
        counts.append(collar_counts(*args))
        return counts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sphere_geometry, "_collar_counts", recording)
        cells = sphere_geometry._build_cells(d, n)
    rows = []
    for cell in cells:
        row = []
        while cell is not None:
            row += [cell.lo, cell.hi]
            cell = cell.sub
        rows.append(row)
    return rows, counts


@pytest.mark.parametrize("d", range(2, 9))
def test_partition_does_not_depend_on_the_cap_measure_bits(d):
    # scipy's cap measure and this module's differ in the last bits; with
    # near-ties rounded down (COLLAR_TIE) both give the same collar counts,
    # which round() did not (first at n = 15 on S^3)
    for n in range(1, 151):
        rows, counts = _recorded_build(d, n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sphere_geometry, "cap_measure", _scipy_cap_measure)
            patch.setattr(sphere_geometry, "cap_colatitude", _scipy_cap_colatitude)
            scipy_rows, scipy_counts = _recorded_build(d, n)
        assert counts == scipy_counts, n
        assert [len(r) for r in rows] == [len(r) for r in scipy_rows], n
        gap = max(abs(a - b) for row, other in zip(rows, scipy_rows) for a, b in zip(row, other))
        assert gap <= 1e-12, n


@pytest.mark.parametrize("scale, first", [(1 - 2**-50, 15), (1.0, 15), (1 + 2**-50, 15), (1 + 1e-8, 16)])
def test_collar_counts_round_near_ties_down(monkeypatch, scale, first):
    # two collars of ideal count 31/2 each: a count within COLLAR_TIE of
    # k + 1/2 rounds down on either side of it (round() gave 16 at 15.5)
    monkeypatch.setattr(sphere_geometry, "cap_measure", lambda d, theta: scale * theta / math.pi)
    assert sphere_geometry._collar_counts(2, 31, 0.0, 2) == [first, 29 - first]


class TestEqualAreaPartition:
    def test_two_hemispheres(self):
        p = equal_area_partition(2, 2)
        assert p.n == 2
        assert np.allclose(p.area_estimates, 0.5, atol=1e-15)
        assert np.allclose(p.diameter_estimates, math.pi, atol=1e-12)
        # representatives are the two poles
        assert np.allclose(np.abs(p.representatives[:, 0]), 1.0)

    def test_four_arcs_on_circle(self):
        p = equal_area_partition(1, 4)
        assert partition_norm(p) == pytest.approx(math.pi / 2.0)
        assert partition_norm(p) * 4 == pytest.approx(2.0 * math.pi)
        assert np.allclose(p.area_estimates, 0.25, atol=1e-15)

    def test_circle_norm_scaling(self):
        for n in (2, 5, 128):
            p = equal_area_partition(1, n)
            assert partition_norm(p) == pytest.approx(2.0 * math.pi / n)

    def test_single_cell_is_whole_sphere(self):
        for d in (1, 2, 5):
            p = equal_area_partition(d, 1)
            assert partition_norm(p) == pytest.approx(math.pi)
            assert p.area_estimates[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [10, 100, 1000, 10000])
    def test_area_regularity_sweep(self, d, n):
        p = equal_area_partition(d, n)
        assert np.max(np.abs(p.area_estimates - 1.0 / n)) < 1e-9
        assert abs(math.fsum(p.area_estimates) - 1.0) < 1e-9

    @pytest.mark.parametrize("d", [4, 5])
    def test_higher_dimensions(self, d):
        p = equal_area_partition(d, 200)
        assert np.max(np.abs(p.area_estimates - 1.0 / 200)) < 1e-9

    @pytest.mark.parametrize("d", [6, 7, 8])
    def test_top_supported_dimensions(self, d):
        p = equal_area_partition(d, 64)
        assert np.max(np.abs(p.area_estimates - 1.0 / 64)) < 1e-9
        assert partition_norm(p) < math.pi

    def test_small_counts_all_dimensions(self):
        # the collar-count rounding has edge cases at tiny n; the
        # constructor validates exact areas for each of these
        for d in range(2, 6):
            for n in range(3, 10):
                equal_area_partition(d, n)

    def test_s2_bound_from_sweep(self):
        measured = measure_diameter_constant(2)
        assert measured["constant"] <= 8.0
        values = np.array(list(measured["products"].values()))
        assert np.max(np.abs(values - values.mean())) <= 0.05 * values.mean()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_diameter_scaling_bounded(self, d):
        measured = measure_diameter_constant(d)
        products = measured["products"]
        assert max(products.values()) == measured["constant"]
        assert measured["constant"] < 12.0

    @pytest.mark.parametrize("d,n", [(1, 13), (2, 7), (2, 33), (3, 15), (4, 10)])
    def test_representatives_inside_cells(self, d, n):
        p = equal_area_partition(d, n)
        for cell, rep in zip(p.cells, p.representatives):
            assert abs(np.linalg.norm(rep) - 1.0) < 1e-12
            assert cell.contains(rep)

    def test_cells_cover_random_points(self, rng):
        p = equal_area_partition(2, 33)
        pts = random_points(2, 200, rng)
        for x in pts:
            assert sum(cell.contains(x) for cell in p.cells) >= 1

    def test_monte_carlo_area_cross_check(self, rng):
        # independent area oracle: uniform sampling frequencies
        n = 7
        p = equal_area_partition(2, n)
        samples = random_points(2, 200000, rng)
        counts = np.zeros(n)
        unclaimed = np.arange(len(samples))  # each sample counts for its first cell
        for i, cell in enumerate(p.cells):
            outside = _misplaced([cell] * len(unclaimed), samples[unclaimed], 0.0)
            counts[i] = len(unclaimed) - len(outside)
            unclaimed = unclaimed[outside]
        freq = counts / len(samples)
        sigma = math.sqrt((1.0 / n) * (1.0 - 1.0 / n) / len(samples))
        assert np.max(np.abs(freq - 1.0 / n)) < 5.0 * sigma

    def test_diameter_upper_bounds_sampled_distances(self, rng):
        p = equal_area_partition(3, 15)
        # rejection-sample points per cell and check pairwise distances
        samples = random_points(3, 40000, rng)
        for i, cell in enumerate(p.cells):
            outside = _misplaced([cell] * len(samples), samples, 0.0)
            inside = np.delete(samples, outside, axis=0)
            if len(inside) < 2:
                continue
            # arccos decreases, so the widest pair has the least inner
            # product; blocks of 256 Gram rows stay in cache
            least = min((inside[r:r + 256] @ inside.T).min() for r in range(0, len(inside), 256))
            observed = float(np.arccos(np.clip(least, -1.0, 1.0)))
            assert observed <= p.diameter_estimates[i] + 1e-9

    def test_rejects_unsupported_input(self):
        with pytest.raises(ValueError, match="sphere dimension"):
            equal_area_partition(9, 10)
        with pytest.raises(ValueError):
            equal_area_partition(2, 0)

    def test_repeated_size_returns_the_cached_frozen_build(self):
        p = equal_area_partition(3, 40)
        assert equal_area_partition(3, 40) is p
        for arr in (p.representatives, p.area_estimates, p.diameter_estimates):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def _nudged_point(cell, tol, rng):
    """A point of S^d on or near an edge of cell, one level at a time.

    Each level's angle sits at the cell's lower or upper bound, moved out by
    its scaled tolerance times 1 - 1e-7, 1 or 1 + 1e-7 (just inside, on and
    just outside the tolerance), by half of it, or by twice it plus 1e-6,
    or at the middle; caps draw their subsphere factor at random.
    """
    edge = (cell.lo, -1.0) if rng.random() < 0.5 else (cell.hi, 1.0)
    step = rng.choice([(1.0 - 1e-7) * tol, tol, (1.0 + 1e-7) * tol, 0.5 * tol, 2.0 * tol + 1e-6])
    angle = 0.5 * (cell.lo + cell.hi) if rng.random() < 0.25 else edge[0] + edge[1] * step
    if cell.d == 1:
        return np.array([math.cos(angle), math.sin(angle)])
    st = math.sin(angle)
    if cell.sub is None or abs(st) < 1e-12:
        xi = random_points(cell.d - 1, 1, rng)[0]
    else:
        xi = _nudged_point(cell.sub, tol / abs(st), rng)
    return np.concatenate([[math.cos(angle)], st * xi])


class TestMisplaced:
    """`Partition.misplaced` against a loop over `ZonalCell.contains`."""

    @staticmethod
    def _reference(p, pts):
        return [i for i, (cell, x) in enumerate(zip(p.cells, pts)) if not cell.contains(x)]

    @pytest.mark.parametrize(
        "d,n", [(1, 1), (1, 13), (2, 1), (2, 2), (2, 33), (2, 200), (3, 3), (3, 60), (4, 40)]
    )
    def test_matches_contains_at_cell_edges(self, rng, d, n):
        p = equal_area_partition(d, n)
        verdicts = set()
        for _ in range(60):
            pts = np.array([_nudged_point(cell, CELL_TOLERANCE, rng) for cell in p.cells])
            expected = self._reference(p, pts)
            assert p.misplaced(pts).tolist() == expected
            verdicts.update(i in expected for i in range(n))
        assert verdicts == {False, True} or n == 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_contains_on_random_and_special_points(self, rng, d):
        p = equal_area_partition(d, 30)
        pole = np.zeros(d + 1)
        pole[0] = 1.0
        near_pole = np.zeros(d + 1)
        near_pole[:2] = math.cos(1e-13), math.sin(1e-13)
        specials = [p.representatives, random_points(d, 30, rng), np.tile(pole, (30, 1)),
                    np.tile(-pole, (30, 1)), np.tile(near_pole, (30, 1))]
        with_nan = p.representatives.copy()
        with_nan[0, 0] = with_nan[5, 1] = np.nan
        for pts in specials + [with_nan]:
            assert p.misplaced(pts).tolist() == self._reference(p, pts)

    @pytest.mark.parametrize("d,n", [(1, 5), (2, 7), (3, 15), (4, 10)])
    def test_walker_matches_contains_at_zero_tolerance(self, rng, d, n):
        # the sampling tests walk single cells at tol = 0.0, which the
        # partition itself never uses
        p = equal_area_partition(d, n)
        samples = random_points(d, 3000, rng)
        for cell in p.cells:
            expected = [i for i, x in enumerate(samples) if not cell.contains(x, tol=0.0)]
            assert _misplaced([cell] * len(samples), samples, 0.0).tolist() == expected

    def test_representatives_are_in_place(self):
        p = equal_area_partition(2, 2000)
        assert p.misplaced(p.representatives).size == 0

    @pytest.mark.parametrize("d, n", [(1, 6), (2, 16), (3, 40)])
    def test_build_rejects_misplaced_representatives(self, d, n):
        p = equal_area_partition(d, n)
        with pytest.raises(AssertionError, match="representative 0 lies outside its cell"):
            replace(p, representatives=np.roll(p.representatives, 1, axis=0))

    def test_rejects_wrong_shape(self):
        p = equal_area_partition(2, 10)
        with pytest.raises(ValueError, match="sample points"):
            p.misplaced(np.zeros((9, 3)))


class TestPointConfiguration:
    def test_rejects_off_sphere_points(self):
        with pytest.raises(ValueError):
            PointConfiguration(d=2, points=np.array([[1.0, 1.0, 0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointConfiguration(d=2, points=np.zeros((0, 3)))

    def test_points_are_read_only(self, rng):
        cfg = PointConfiguration(d=2, points=random_points(2, 5, rng))
        with pytest.raises(ValueError):
            cfg.points[0, 0] = 2.0

    def test_rejects_nan_points(self):
        with pytest.raises(ValueError):
            PointConfiguration(d=2, points=np.array([[np.nan, 0.0, 0.0]]))

    @pytest.mark.parametrize("d", [0, 9])
    def test_rejects_unsupported_dimension(self, d):
        points = np.zeros((1, d + 1))
        points[0, 0] = 1.0
        with pytest.raises(ValueError, match="sphere dimension"):
            PointConfiguration(d=d, points=points)

    def test_leaves_caller_array_alone(self, rng):
        points = random_points(2, 5, rng)
        original = points.copy()
        cfg = PointConfiguration(d=2, points=points)
        assert points.flags.writeable
        points[0] = -points[0]
        assert np.array_equal(cfg.points, original)
