"""Zonal reproducing kernel of the zero-mean polynomial space on S^d.

The space of polynomials of degree <= t on S^d with zero mean (against the
normalized surface measure) carries a reproducing kernel that is rotation
invariant: it depends only on the inner product s = <x, y>.  With Z(d, k)
the dimension of the degree-k spherical-harmonic space and P_k the
Gegenbauer polynomial normalized to P_k(1) = 1, the kernel is

    K(s) = sum_{k=1}^{t} Z(d, k) * P_k(s),

which is what `kernel_value` evaluates.  The constant term k = 0 is
excluded, so every kernel section has zero mean.

All polynomial evaluation goes through a single forward three-term
recurrence that is valid for every d >= 1; for d = 1 it reduces exactly to
the Chebyshev recurrence, so the circle needs no special casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere_geometry import CONFIG_NORM_TOLERANCE

# Inner products of accepted points may land slightly outside [-1, 1]: by
# (1 + delta)^2 - 1 from the norm tolerance delta, plus dot-product
# rounding.  Values within this distance are snapped back.
SNAP_TOLERANCE = (
    (2.0 + CONFIG_NORM_TOLERANCE) * CONFIG_NORM_TOLERANCE + 64 * np.finfo(float).eps
)

MAX_DIMENSION = 8
MAX_DEGREE = 200


def harmonic_dim(d: int, k: int) -> int:
    """Dimension Z(d, k) of the space of degree-k spherical harmonics on S^d."""
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    if k < 1:
        raise ValueError(f"harmonic degree must be >= 1, got {k}")
    return (2 * k + d - 1) * math.comb(k + d - 2, k - 1) // k


def polynomial_space_dim(d: int, t: int) -> int:
    """Dimension of the zero-mean polynomial space of degree <= t on S^d."""
    return sum(harmonic_dim(d, k) for k in range(1, t + 1))


@dataclass(frozen=True)
class KernelModel:
    """Sphere dimension, maximum degree, and the harmonic dimension table.

    Immutable after construction; every evaluation below is a pure function
    of (model, s) and safe to share across threads.
    """

    d: int
    t: int
    dims: tuple[int, ...]  # harmonic_dim(d, k) for k = 1..t

    @property
    def space_dim(self) -> int:
        return sum(self.dims)


def kernel_model(d: int, t: int) -> KernelModel:
    """Build a KernelModel, validating the supported (d, t) ranges."""
    if not 1 <= d <= MAX_DIMENSION:
        raise ValueError(f"sphere dimension must be in [1, {MAX_DIMENSION}], got {d}")
    if not 1 <= t <= MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {t}")
    dims = tuple(harmonic_dim(d, k) for k in range(1, t + 1))
    return KernelModel(d=d, t=t, dims=dims)


def clamp_cosine(s, snap: float = SNAP_TOLERANCE):
    """Clamp inner products to [-1, 1], rejecting values beyond the snap band.

    The negated comparison also rejects NaN, which would otherwise slip
    through every downstream recurrence: min and max propagate it.
    """
    arr = np.asarray(s, dtype=float)
    if arr.size and not (arr.min() >= -1.0 - snap and arr.max() <= 1.0 + snap):
        bad = arr[~((arr >= -1.0 - snap) & (arr <= 1.0 + snap))]
        raise ValueError(
            f"inner product {float(bad.flat[0])!r} outside [-1, 1] beyond snap tolerance"
        )
    return np.clip(arr, -1.0, 1.0)


def row_blocks(n: int, size: int):
    """Yield (lo, hi) bounds that split n rows into blocks of at most size."""
    for start in range(0, n, size):
        yield start, min(start + size, n)


def _exact_row_sums(x) -> np.ndarray:
    """Correctly rounded sum of each row of a 2-D array.

    Bit-identical to [math.fsum(row) for row in x], by error-free
    extraction (Rump, Ogita & Oishi 2008, "Accurate floating-point
    summation, part I").  With every residual |r| < 2^e and sigma =
    2^(e+m), 2^m >= n + 2, q = (r + sigma) - sigma is r rounded to a
    multiple of 2^(e+m-53), r - q is exact, and the n values q of a row add
    up exactly in any order.  Each level strips the top 53 - m bits of what
    is left, so a few levels leave r all zero; math.fsum then rounds each
    row's few exact level sums once.  Rows whose sigma would overflow, or
    that hold inf or NaN, are summed by math.fsum itself, so its value or
    exception (including its order-dependent OverflowError) carries over.
    """
    work = np.array(x, dtype=float, order="C")  # residuals, reduced in place
    if work.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {work.shape}")
    rows, n = work.shape
    if work.size == 0:
        return np.zeros(rows)
    m = (n + 1).bit_length()
    limit = 2.0 ** (1023 - m)  # max |r| < limit keeps sigma finite
    special = {}
    lo, hi = work.min(), work.max()
    if not (-limit < lo and hi < limit):  # also true on NaN
        wild = ~(np.abs(work).max(axis=1) < limit)
        special = {i: math.fsum(work[i]) for i in np.flatnonzero(wild)}
        work[wild] = 0.0
        lo, hi = work.min(), work.max()
    scratch = np.empty_like(work)  # q on every level
    levels = []
    top = max(hi, -lo)
    while top > 0.0:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
        np.add(work, sigma, out=scratch)
        scratch -= sigma
        work -= scratch
        levels.append(scratch.sum(axis=1).tolist())
        top = max(work.max(), -work.min())
    out = np.array([math.fsum(s) for s in zip(*levels)]) if levels else np.zeros(rows)
    for i, value in special.items():
        out[i] = value
    return out


def _degree_scan(d: int, t: int, s: np.ndarray, derivative: bool = False):
    """Yield (k, P_k(s), P_k'(s)) for k = 1..t by forward recurrence.

    The normalized family satisfies, for k >= 2,

        P_k = ((2k + d - 3) * s * P_{k-1} - (k - 1) * P_{k-2}) / (k + d - 2)

    with P_0 = 1 and P_1 = s.  The denominator is >= 1 for every d >= 1, so
    the recurrence never degenerates; differentiating it gives the companion
    recurrence for P_k', which runs only when `derivative` is set (P_k' is
    None otherwise).
    """
    p_prev = np.ones_like(s)
    p = s
    dp_prev, dp = (np.zeros_like(s), np.ones_like(s)) if derivative else (None, None)
    yield 1, p, dp
    for k in range(2, t + 1):
        a = 2 * k + d - 3
        b = k - 1
        c = k + d - 2
        p, p_prev = (a * s * p - b * p_prev) / c, p
        if derivative:
            dp, dp_prev = (a * (p_prev + s * dp) - b * dp_prev) / c, dp
        yield k, p, dp


def _as_input_shape(values: np.ndarray, s):
    if np.isscalar(s) or getattr(s, "ndim", 1) == 0:
        return float(values)
    return values


def gegenbauer_normalized(model: KernelModel, k: int, s):
    """Degree-k Gegenbauer polynomial with parameter (d-1)/2, scaled so P_k(1) = 1.

    For d = 1 this is the Chebyshev value cos(k * arccos s).  Accepts scalars
    or arrays of inner products in [-1, 1].
    """
    if not 0 <= k <= model.t:
        raise ValueError(f"degree {k} outside [0, {model.t}]")
    arr = clamp_cosine(s)
    if k == 0:
        return _as_input_shape(np.ones_like(arr), s)
    for _, p, _ in _degree_scan(model.d, k, arr):
        pass  # the scan ends at degree k
    return _as_input_shape(p, s)


def kernel_value(model: KernelModel, s):
    """Evaluate the zero-mean reproducing kernel at inner product(s) s."""
    arr = clamp_cosine(s)
    total = np.zeros_like(arr)
    for k, p, _ in _degree_scan(model.d, model.t, arr):
        total += model.dims[k - 1] * p
    return _as_input_shape(total, s)


def kernel_derivative(model: KernelModel, s):
    """Derivative d/ds of `kernel_value`, by the differentiated recurrence."""
    arr = clamp_cosine(s)
    total = np.zeros_like(arr)
    for k, _, dp in _degree_scan(model.d, model.t, arr, derivative=True):
        total += model.dims[k - 1] * dp
    return _as_input_shape(total, s)


def kernel_value_and_derivative(model: KernelModel, s):
    """Both kernel values and derivatives in one recurrence pass."""
    arr = clamp_cosine(s)
    value = np.zeros_like(arr)
    deriv = np.zeros_like(arr)
    for k, p, dp in _degree_scan(model.d, model.t, arr, derivative=True):
        z = model.dims[k - 1]
        value += z * p
        deriv += z * dp
    return value, deriv
