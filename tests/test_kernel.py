import functools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_gegenbauer

from sphdesign.kernel import (
    MAX_DEGREE,
    _degree_scan,
    _exact_level_sums,
    _exact_row_sums,
    gegenbauer_normalized,
    harmonic_dim,
    kernel_derivative,
    kernel_model,
    kernel_value,
    kernel_value_and_derivative,
)
from sphdesign.sphere_geometry import SUPPORTED_DIMENSIONS


class TestHarmonicDim:
    def test_circle_harmonics_always_two(self):
        assert harmonic_dim(1, 7) == 2
        assert all(harmonic_dim(1, k) == 2 for k in range(1, 30))

    def test_s2_degree_two(self):
        assert harmonic_dim(2, 2) == 5

    def test_s3_degree_two(self):
        assert harmonic_dim(3, 2) == 9

    def test_s3_closed_form(self):
        # dimensions on S^3 are perfect squares
        for k in range(1, 20):
            assert harmonic_dim(3, k) == (k + 1) ** 2

    def test_degree_one_is_ambient_dimension(self):
        for d in SUPPORTED_DIMENSIONS:
            assert harmonic_dim(d, 1) == d + 1

    @given(st.sampled_from(SUPPORTED_DIMENSIONS), st.integers(1, 60))
    def test_total_matches_polynomial_space_dimension(self, d, t):
        # 1 + sum_k Z(d,k) equals the dimension of the full degree<=t space
        k = t // 2
        if t % 2 == 0:
            full = math.comb(d + k, d) + math.comb(d + k - 1, d)
        else:
            full = 2 * math.comb(d + k, d)
        # the two-case formula at even t equals the full space dimension at t
        total = 1 + kernel_model(d, t).space_dim
        expected = math.comb(d + t, d) + math.comb(d + t - 1, d)
        assert total == expected
        assert full <= expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            harmonic_dim(0, 1)
        with pytest.raises(ValueError):
            harmonic_dim(2, 0)


class TestGegenbauer:
    def test_legendre_value_at_zero(self):
        model = kernel_model(2, 4)
        assert gegenbauer_normalized(model, 2, 0.0) == pytest.approx(-0.5, abs=1e-15)

    def test_normalization_at_one(self):
        for d in (1, 2, 3, 5, 8):
            model = kernel_model(d, 12)
            for k in range(0, 13):
                assert gegenbauer_normalized(model, k, 1.0) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_chebyshev_identity_on_circle(self):
        model = kernel_model(1, 8)
        s = math.cos(math.pi / 6.0)
        assert gegenbauer_normalized(model, 3, s) == pytest.approx(0.0, abs=1e-15)
        for k in range(0, 9):
            for theta in np.linspace(0.0, math.pi, 17):
                assert gegenbauer_normalized(model, k, math.cos(theta)) == pytest.approx(
                    math.cos(k * theta), abs=1e-12
                )

    def test_matches_scipy_gegenbauer(self, rng):
        s = rng.uniform(-1.0, 1.0, size=40)
        for d in (2, 3, 4, 7):
            lam = (d - 1) / 2.0
            model = kernel_model(d, 20)
            for k in (1, 2, 5, 13, 20):
                ref = eval_gegenbauer(k, lam, s) / eval_gegenbauer(k, lam, 1.0)
                mine = gegenbauer_normalized(model, k, s)
                assert np.max(np.abs(mine - ref)) < 1e-11

    @given(
        st.sampled_from(SUPPORTED_DIMENSIONS),
        st.integers(0, 40),
        st.floats(-1.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_bounded_by_one(self, d, k, s):
        model = kernel_model(d, max(k, 1))
        assert abs(gegenbauer_normalized(model, k, s)) <= 1.0 + 1e-12

    def test_snap_tolerance(self):
        model = kernel_model(2, 3)
        assert gegenbauer_normalized(model, 1, 1.0 + 5e-13) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            gegenbauer_normalized(model, 1, 1.0 + 1e-9)
        with pytest.raises(ValueError):
            gegenbauer_normalized(model, 1, -1.001)

    def test_rejects_nan(self):
        model = kernel_model(2, 3)
        with pytest.raises(ValueError):
            kernel_value(model, float("nan"))
        with pytest.raises(ValueError):
            kernel_value(model, np.array([0.5, np.nan]))
        block = np.full((4, 5), 0.25)
        block[2, 3] = np.nan
        with pytest.raises(ValueError, match="outside"):
            kernel_value(model, block)
        for bad in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="outside"):
                kernel_value(model, np.array([[0.5, bad], [0.0, 1.0]]))

    def test_empty_input_evaluates(self):
        model = kernel_model(2, 3)
        assert kernel_value(model, np.empty((0, 4))).shape == (0, 4)

    def test_rejects_degree_outside_model(self):
        model = kernel_model(2, 3)
        with pytest.raises(ValueError):
            gegenbauer_normalized(model, 4, 0.5)


class TestKernelValue:
    def test_degree_one_kernel_is_linear(self, rng):
        model = kernel_model(2, 1)
        s = rng.uniform(-1, 1, size=11)
        assert np.allclose(kernel_value(model, s), 3.0 * s, atol=1e-15)

    def test_value_at_one_counts_harmonics(self):
        for t in (1, 3, 7, 10):
            model = kernel_model(2, t)
            assert kernel_value(model, 1.0) == pytest.approx((t + 1) ** 2 - 1, abs=1e-9)

    def test_circle_kernel_at_minus_one(self):
        model = kernel_model(1, 2)
        # 2*(-1) + 2*(+1): alternating Chebyshev endpoint values
        assert kernel_value(model, -1.0) == pytest.approx(0.0, abs=1e-15)

    def test_endpoint_identity_is_integer(self):
        for d in (1, 2, 3, 5, 8):
            for t in (1, 4, 11):
                model = kernel_model(d, t)
                endpoint = kernel_value(model, 1.0)
                assert endpoint == pytest.approx(model.space_dim, abs=1e-9)

    def test_positive_semidefinite_gram(self, rng):
        from sphdesign.sphere_geometry import random_points

        for d, t in ((2, 6), (3, 4), (1, 9)):
            model = kernel_model(d, t)
            for n in (5, 20, 50):
                pts = random_points(d, n, rng)
                gram = kernel_value(model, pts @ pts.T)
                eigs = np.linalg.eigvalsh(gram)
                assert eigs.min() >= -1e-9 * n


class TestKernelDerivative:
    def test_degree_one_derivative(self, rng):
        model = kernel_model(2, 1)
        s = rng.uniform(-1, 1, size=7)
        assert np.allclose(kernel_derivative(model, s), 3.0, atol=1e-15)

    def test_degree_two_at_zero(self):
        model = kernel_model(2, 2)
        # d/ds [3s + 5(3s^2-1)/2] = 3 + 15s
        assert kernel_derivative(model, 0.0) == pytest.approx(3.0, abs=1e-15)
        assert kernel_derivative(model, 0.2) == pytest.approx(6.0, abs=1e-12)

    def test_circle_degree_one(self):
        model = kernel_model(1, 1)
        assert kernel_derivative(model, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_matches_finite_differences(self, rng):
        h = 1e-6
        for d, t in ((1, 7), (2, 10), (3, 6), (5, 4)):
            model = kernel_model(d, t)
            s = rng.uniform(-0.99, 0.99, size=50)
            fd = (kernel_value(model, s + h) - kernel_value(model, s - h)) / (2 * h)
            exact = kernel_derivative(model, s)
            rel = np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))
            assert rel.max() < 1e-6

    @pytest.mark.parametrize(
        "d, t", [(d, t) for d in SUPPORTED_DIMENSIONS for t in (1, 2, 7, 40)]
    )
    def test_combined_pass_agrees(self, rng, d, t):
        # the value-only and derivative-only scans match the combined pass
        model = kernel_model(d, t)
        s = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1, 1, size=23)])
        value, deriv = kernel_value_and_derivative(model, s)
        assert np.array_equal(kernel_value(model, s), value)
        assert np.array_equal(kernel_derivative(model, s), deriv)
        # a scalar input gives floats, as the value-only and derivative-only
        # functions do
        pair = kernel_value_and_derivative(model, float(s[3]))
        assert all(type(x) is float for x in pair)
        assert pair == (kernel_value(model, float(s[3])), kernel_derivative(model, float(s[3])))


PIN_DEGREES = (1, 2, 3, 5, 8, 16, 40, 100, 200)


@functools.lru_cache(maxsize=None)
def _companion_reference(d: int, s: float) -> dict:
    """K(s), K'(s) and K''(s) at every degree in PIN_DEGREES, to 40 digits.

    Runs the P_k recurrence and its first and second derivatives (the
    companion recurrences) and adds Z(d, k) P_k, Z(d, k) P_k' and
    Z(d, k) P_k'' up to each degree.
    """
    with mpmath.workdps(40):
        x = mpmath.mpf(s)
        p_prev, p = mpmath.mpf(1), x
        dp_prev, dp = mpmath.mpf(0), mpmath.mpf(1)
        ddp_prev, ddp = mpmath.mpf(0), mpmath.mpf(0)
        value, first, second = harmonic_dim(d, 1) * p, harmonic_dim(d, 1) * dp, mpmath.mpf(0)
        out = {1: (float(value), float(first), float(second))}
        for k in range(2, max(PIN_DEGREES) + 1):
            a, b, c = 2 * k + d - 3, k - 1, k + d - 2
            p, p_prev, dp, dp_prev, ddp, ddp_prev = (
                (a * x * p - b * p_prev) / c,
                p,
                (a * (p + x * dp) - b * dp_prev) / c,
                dp,
                (a * (2 * dp + x * ddp) - b * ddp_prev) / c,
                ddp,
            )
            value += harmonic_dim(d, k) * p
            first += harmonic_dim(d, k) * dp
            second += harmonic_dim(d, k) * ddp
            if k in PIN_DEGREES:
                out[k] = (float(value), float(first), float(second))
    return out


def _pin_points(d: int) -> np.ndarray:
    """+-1, 0, cos(j pi / 8), 8 uniform points and 6 within 5e-3 of +-1."""
    rng = np.random.default_rng(d)
    near_pole = np.cos(10.0 ** rng.uniform(-6, -1, 3))
    return np.concatenate(
        [
            [-1.0, 0.0, 1.0],
            np.cos(math.pi * np.arange(1, 8) / 8),
            rng.uniform(-1.0, 1.0, 8),
            near_pole,
            -near_pole,
        ]
    )


def _reference_cases(d):
    """(model, s, exact K, K' and K'' at s, exact values at 1) per pinned degree."""
    s = _pin_points(d)
    reference = [_companion_reference(d, float(x)) for x in s]
    at_one = _companion_reference(d, 1.0)
    for t in PIN_DEGREES:
        yield kernel_model(d, t), s, np.array([r[t] for r in reference]).T, at_one[t]


class TestValueAgainstReference:
    """K = C(t+d, t) P_t + C(t+d-1, t-1) P_{t-1} - 1, with the P_k of
    S^(d+2), against the 40-digit degree-by-degree sum.

    As for K' below, rounding the recurrence's coefficient times s moves K
    by about eps |s K'(s)| near s = +-1, so the bound is
    4 eps (K(1) + |s K'(s)|), and K(1) is exact.
    """

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_value_within_four_eps(self, d):
        eps = np.finfo(float).eps
        for model, s, (value, first, _), at_one in _reference_cases(d):
            bound = 4 * eps * (at_one[0] + np.abs(s * first))
            fused = kernel_value_and_derivative(model, s)[0]
            for got in (kernel_value(model, s), fused):
                assert np.all(np.abs(got - value) <= bound), (d, model.t)
            assert kernel_value(model, 1.0) == at_one[0] == model.space_dim

    @pytest.mark.parametrize("d", range(1, 13))
    def test_scan_endpoints_exact(self, d):
        # up to S^12: the derivative of a kernel on S^8 scans S^(8+4)
        s = np.array([1.0, -1.0])
        for k, p in _degree_scan(d, MAX_DEGREE, s):
            assert p[0] == 1.0 and p[1] == (-1.0) ** k, (d, k)


class TestDerivativeAgainstReference:
    """K' = (d + 1)(1 + K_{d+2,t-1}) against the 40-digit companion recurrence.

    Any float recurrence rounds its coefficient times s, which acts like a
    relative eps perturbation of s; near s = +-1 it moves K' by about
    eps |s K''(s)|, up to t^2 eps K'(1), in the old companion recurrence as
    in this one.  So the bound is 4 eps (K'(1) + |s K''(s)|).
    """

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_derivative_within_four_eps(self, d):
        eps = np.finfo(float).eps
        for model, s, (_, first, second), at_one in _reference_cases(d):
            bound = 4 * eps * (at_one[1] + np.abs(s * second))
            fused = kernel_value_and_derivative(model, s)[1]
            for got in (kernel_derivative(model, s), fused):
                assert np.all(np.abs(got - first) <= bound), (d, model.t)
            assert kernel_derivative(model, 1.0) == at_one[1]


class TestModelValidation:
    def test_supported_ranges(self):
        with pytest.raises(ValueError):
            kernel_model(0, 5)
        with pytest.raises(ValueError):
            kernel_model(9, 5)
        with pytest.raises(ValueError):
            kernel_model(2, 0)
        with pytest.raises(ValueError):
            kernel_model(2, 201)
        kernel_model(8, 200)  # boundary is allowed

    def test_space_dim(self):
        assert kernel_model(2, 5).space_dim == 35
        assert kernel_model(1, 4).space_dim == 8


def _signed(magnitudes):
    return st.builds(lambda sign, v: sign * v, st.sampled_from([1.0, -1.0]), magnitudes)


# exponents from 2^-1074 (subnormal) to 2^1000, mantissas in [0.5, 1)
_MIXED = _signed(
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1000))
)
# near DBL_MAX, where the extraction's sigma = 2^(e+m) would overflow
_HUGE = _signed(st.floats(min_value=2.0**1015, max_value=sys.float_info.max))
_SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan])


def _rows(elements):
    # up to 4 rows of one common length up to 12
    return st.integers(0, 12).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), max_size=4)
    )


def _cancelling_rows():
    # each row holds values and their negations in shuffled order, plus an
    # optional tail value: its sum is exactly 0 or exactly the tail
    def row(n):
        half = st.lists(_MIXED, min_size=n, max_size=n)
        pair = half.flatmap(lambda h: st.permutations(h + [-v for v in h]))
        return st.builds(lambda r, tail: r + [tail], pair, st.one_of(st.just(0.0), _MIXED))

    return st.integers(0, 8).flatmap(lambda n: st.lists(row(n), min_size=1, max_size=3))


def _assert_matches_fsum(rows):
    n = len(rows[0]) if rows else 0
    x = np.array(rows, dtype=float).reshape(len(rows), n)
    try:
        expected = [math.fsum(r) for r in rows]
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _exact_row_sums(x)
        return
    got = _exact_row_sums(x)
    assert got.shape == (len(rows),)
    # hex compares NaN with NaN and tells 0.0 from -0.0
    assert [float(v).hex() for v in got] == [v.hex() for v in expected]


class TestExactRowSums:
    """The vectorised row sums against math.fsum, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(_rows(_MIXED))
    def test_mixed_exponents(self, rows):
        _assert_matches_fsum(rows)

    @settings(max_examples=100, deadline=None)
    @given(_cancelling_rows())
    def test_exact_cancellation(self, rows):
        _assert_matches_fsum(rows)

    @settings(max_examples=100, deadline=None)
    @given(_rows(st.one_of(_MIXED, _HUGE)))
    def test_near_dbl_max(self, rows):
        _assert_matches_fsum(rows)

    @settings(max_examples=100, deadline=None)
    @given(_rows(st.one_of(_MIXED, _HUGE, _SPECIAL)))
    def test_non_finite(self, rows):
        _assert_matches_fsum(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [[], [], []],
            [[5e-324], [-5e-324], [2.2250738585072014e-308], [0.0]],
            [[5e-324] * 7 + [-2.2250738585072014e-308]],
            [[-0.0, -0.0], [0.0, -0.0]],
            [[1e16, 1.0, -1e16, 0.0], [1.0, 1e100, 1.0, -1e100]],
            [[sys.float_info.max, sys.float_info.max, -sys.float_info.max]],
            [[sys.float_info.max, -sys.float_info.max, sys.float_info.max], [1.0, 2.0, 3.0]],
            [[math.inf, -math.inf], [1.0, 2.0]],
            [[1.0, math.nan, 0.0], [math.inf, 1e308, 1e308]],
        ],
        ids=[
            "empty",
            "zero-columns",
            "single-column-subnormal",
            "subnormal-row",
            "negative-zeros",
            "cancelling",
            "intermediate-overflow",
            "dbl-max-no-overflow",
            "inf-minus-inf",
            "nan-and-inf",
        ],
    )
    def test_edge_cases(self, rows):
        _assert_matches_fsum(rows)

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 600])
    def test_kernel_blocks(self, rng, n):
        # the per-degree blocks that verification sums, across widths
        # where 2^m >= n + 2 steps up
        for d, t in ((2, 7), (5, 4)):
            pts = rng.standard_normal((n, d + 1))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            s = np.clip(pts[:256] @ pts.T, -1.0, 1.0)
            model = kernel_model(d, t)
            # the scan reuses its buffers, so each degree is copied
            blocks = [p.copy() for _, p in _degree_scan(d, t, s)] + [kernel_value(model, s)]
            for block in blocks:
                _assert_matches_fsum(block.tolist())

    def test_leaves_input_unchanged(self, rng):
        x = rng.standard_normal((3, 9))
        before = x.copy()
        _exact_row_sums(x)
        assert np.array_equal(x, before)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            _exact_row_sums(np.ones(3))


def _level_total(*arrays):
    levels = []
    for x in arrays:
        levels += _exact_level_sums(np.array(x, dtype=float))
    return math.fsum(levels)


class TestExactLevelSums:
    """math.fsum of the level sums of one or more arrays against math.fsum
    of all their entries, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(_rows(_MIXED), st.integers(0, 4))
    def test_mixed_exponents(self, rows, split):
        # the rows as one 2-D array and as two arrays cut at a row
        values = [v for row in rows for v in row]
        expected = math.fsum(values).hex()
        assert _level_total(values).hex() == expected
        assert _level_total(sum(rows[:split], []), sum(rows[split:], [])).hex() == expected

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [5e-324, -5e-324, 2.2250738585072014e-308],
            [-0.0, -0.0],
            [1e16, 1.0, -1e16, 1.0, 1e100, 1.0, -1e100],
            [math.inf, -math.inf, 1.0],
            [1.0, math.nan, 0.0],
            [math.inf, 1e308, 1e308],
        ],
        ids=["empty", "subnormal", "negative-zeros", "cancelling", "inf-minus-inf", "nan", "overflow"],
    )
    def test_edge_cases(self, values):
        try:
            expected = math.fsum(values)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                _level_total(values)
            return
        assert _level_total(values).hex() == expected.hex()

    def test_kernel_block_of_full_budget(self, rng):
        # 2^15 values, where 2^m >= size + 2 takes m = 16
        pts = rng.standard_normal((256, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        values = kernel_value(kernel_model(2, 9), np.clip(pts[:128] @ pts.T, -1.0, 1.0))
        assert _level_total(values).hex() == math.fsum(values.ravel()).hex()
