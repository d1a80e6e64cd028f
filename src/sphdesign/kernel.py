"""Zonal reproducing kernel of the zero-mean polynomial space on S^d.

The space of polynomials of degree <= t on S^d with zero mean (against the
normalized surface measure) carries a reproducing kernel that is rotation
invariant: it depends only on the inner product s = <x, y>.  With Z(d, k)
the dimension of the degree-k spherical-harmonic space and P_k the
Gegenbauer polynomial normalized to P_k(1) = 1, the kernel is

    K(s) = sum_{k=1}^{t} Z(d, k) * P_k(s).

The constant term k = 0 is excluded, so every kernel section has zero
mean.  The sum is never formed degree by degree: every kernel value comes
from the two-term form below (`_one_plus_kernel`), and verification's
per-degree residuals from the same scan on S^(d+2) (`design._pair_pass`),
as the contiguous relation below gives each term Z(d, k) P_k as
C(k + d, k) P_k - C(k + d - 2, k - 2) P_(k-2) there.

All polynomial evaluation goes through a single forward three-term
recurrence that is valid for every d >= 1 (`_degree_scan`); for d = 1 it
reduces exactly to the Chebyshev recurrence, so the circle needs no
special casing.

The sum is two adjacent terms of that recurrence on S^(d+2).  With
l = (d - 1) / 2, Z(d, k) P_k = (k + l) / l * C_k^l, and the contiguous
relation (k + l) C_k^l = l (C_k^(l+1) - C_(k-2)^(l+1)) (DLMF section 18.9)
telescopes the sum over k = 0..t to C_t^(l+1) + C_(t-1)^(l+1).  With
C_k^(l+1)(1) = C(k + d, k),

    1 + K_{d,t}(s) = C(t + d, t) P_t(s) + C(t + d - 1, t - 1) P_{t-1}(s),

where P_t, P_{t-1} are the normalized Gegenbauer polynomials of S^(d+2);
d = 1 is the Chebyshev limit 2 T_k = U_k - U_(k-2).  Checked against the
sum in 40-digit mpmath to 7e-40 * K(1) for d = 1..8 and
t in {1, 2, 3, 5, 8, 16, 40}.  `kernel_value`, the finder and verification
all evaluate this form.

The derivative is a kernel too.  With d/ds C_k^l = 2l C_{k-1}^{l+1}
(Szego, *Orthogonal Polynomials*, section 4.7), P_k'(s) = k (k + d - 1) / d *
P_{k-1}(s) with P_{k-1} the normalized Gegenbauer polynomial of S^(d+2), and
Z(d, k) * k (k + d - 1) / d = (d + 1) * Z(d + 2, k - 1), so

    K'_{d,t}(s) = (d + 1) * (1 + K_{d+2,t-1}(s)),

where K_{d+2,0} = 0.  `kernel_derivative` evaluates it by the two-term
form on S^(d+2), from a scan on S^(d+4).  Applied once more,

    K''_{d,t}(s) = (d + 1) * (d + 3) * (1 + K_{d+4,t-2}(s)),

which is 0 at t = 1; `kernel_second_derivative` evaluates it from a scan on
S^(d+6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere_geometry import CONFIG_NORM_TOLERANCE
from .sphere_geometry import require_count, require_supported_dimension

# Inner products of accepted points may land slightly outside [-1, 1]: by
# (1 + delta)^2 - 1 from the norm tolerance delta, plus dot-product
# rounding.  Values within this distance are snapped back.
SNAP_TOLERANCE = (
    (2.0 + CONFIG_NORM_TOLERANCE) * CONFIG_NORM_TOLERANCE + 64 * np.finfo(float).eps
)

MAX_DEGREE = 200


def harmonic_dim(d: int, k: int) -> int:
    """Dimension Z(d, k) of the space of degree-k spherical harmonics on S^d."""
    require_count("sphere dimension", d)
    require_count("harmonic degree", k)
    return (2 * k + d - 1) * math.comb(k + d - 2, k - 1) // k


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
    require_supported_dimension(d)
    require_count("degree", t)
    if t > MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {t}")
    dims = tuple(harmonic_dim(d, k) for k in range(1, t + 1))
    return KernelModel(d=d, t=t, dims=dims)


def clamp_cosine(s):
    """Clamp inner products to [-1, 1], rejecting values beyond the snap band.

    The negated comparison also rejects NaN, which would otherwise slip
    through every downstream recurrence: min and max propagate it.  An
    array already inside [-1, 1] comes back as it is, without a copy;
    no kernel evaluation writes to its argument.
    """
    arr = np.asarray(s, dtype=float)
    if not arr.size:
        return arr
    lo, hi = arr.min(), arr.max()
    if not (lo >= -1.0 - SNAP_TOLERANCE and hi <= 1.0 + SNAP_TOLERANCE):
        bad = arr[~(np.abs(arr) <= 1.0 + SNAP_TOLERANCE)]
        raise ValueError(
            f"inner product {float(bad.flat[0])!r} outside [-1, 1] beyond snap tolerance"
        )
    if lo >= -1.0 and hi <= 1.0:
        return arr
    return np.clip(arr, -1.0, 1.0)


# Cosines in one block of a kernel pass: each float64 recurrence temporary
# is then 256 KiB, small enough to stay in a core's L2 cache.
BLOCK_COSINES = 2**15


def row_blocks(n: int, width: int):
    """Yield (lo, hi) bounds that split n rows of width cosines each into
    blocks of at most BLOCK_COSINES cosines, and never fewer than one row."""
    size = max(1, BLOCK_COSINES // max(width, 1))
    for start in range(0, n, size):
        yield start, min(start + size, n)


def _extraction_levels(work: np.ndarray, m: int, top: float):
    """Error-free extraction (Rump, Ogita & Oishi 2008, "Accurate
    floating-point summation, part I"), level by level, reducing work in place.

    With every residual |r| < 2^e and sigma = 2^(e+m), q = (r + sigma) -
    sigma is r rounded to a multiple of 2^(e+m-53), and r - q is exact.  So
    up to 2^m - 2 values q of one level add up exactly in any order.  Each
    level strips the top 53 - m bits of what is left, and a few levels leave
    work all zero.  top is max |r| on entry, and must be below 2^(1023-m),
    so that sigma is finite.  The yielded array is overwritten by the next
    level.
    """
    scratch = np.empty_like(work)  # q on every level
    while top > 0.0:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
        np.add(work, sigma, out=scratch)
        scratch -= sigma
        work -= scratch
        yield scratch
        top = max(work.max(), -work.min())


def _row_level_sums(work: np.ndarray) -> np.ndarray:
    """A 2-D array whose row i holds floats with the exact sum of row i of
    the 2-D array work, which is overwritten.

    Its columns are the row sums of each level of `_extraction_levels`,
    with 2^m >= n + 2 for rows of n values, so math.fsum of one of its
    rows, or of such rows joined over blocks of columns, is the correctly
    rounded sum.  A row whose sigma would overflow, or that holds inf or
    NaN, comes out as zeros and then its values, in order, for math.fsum to
    decide; the other rows then end in zeros.  math.fsum drops leading
    zeros, and trailing ones change no finite sum.
    """
    rows, n = work.shape
    passed = np.zeros((rows, 0))
    if work.size == 0:
        return passed
    m = (n + 1).bit_length()
    limit = 2.0 ** (1023 - m)  # max |r| < limit keeps sigma finite
    top = max(work.max(), -work.min())
    if not top < limit:  # also true on NaN
        wild = ~(np.abs(work).max(axis=1) < limit)
        passed = np.where(wild[:, None], work, 0.0)
        work[wild] = 0.0
        top = max(work.max(), -work.min())
    return np.column_stack([q.sum(axis=1) for q in _extraction_levels(work, m, top)] + [passed])


def _exact_level_sums(x: np.ndarray) -> list[float]:
    """Floats whose exact sum is the exact sum of every entry of x, which is
    overwritten.

    These are the level sums of `_extraction_levels` over all of x, with
    2^m >= x.size + 2, so math.fsum of them, or of the concatenated lists of
    several arrays, is their correctly rounded total: for one array, the
    value of math.fsum(x.ravel()).  Entries whose sigma would overflow, and
    inf and NaN, are passed through as they are, for math.fsum to decide.
    """
    if x.size == 0:
        return []
    m = (x.size + 1).bit_length()
    limit = 2.0 ** (1023 - m)
    special = []
    top = max(x.max(), -x.min())
    if not top < limit:  # also true on NaN
        wild = ~(np.abs(x) < limit)
        special = x[wild].tolist()
        x[wild] = 0.0
        top = max(x.max(), -x.min())
    return [float(q.sum()) for q in _extraction_levels(x, m, top)] + special


def _degree_scan(d: int, t: int, s: np.ndarray):
    """Yield (k, P_k(s)) for k = 1..t by forward recurrence.

    The normalized family satisfies, for k >= 2,

        P_k = a_k * s * P_{k-1} - (a_k - 1) * P_{k-2},  a_k = (2k + d - 3) / (k + d - 2),

    with P_0 = 1 and P_1 = s.  For every d >= 1, a_k lies in [1, 2], so the
    float a_k - 1 is exact (Sterbenz): at s = +-1 each step then computes
    a_k - (a_k - 1) = 1 up to sign exactly, and P_k(+-1) = (+-1)^k holds
    exactly at every degree.

    P_0 is the scalar 1, as (a_2 - 1) * 1 is exact, and the yielded P_1 is
    s itself, so a caller must not write to it.  Every later degree takes
    four ufunc calls into at most three buffers made during the scan, and
    s itself is never written.  So a yielded P_k, k >= 2, is overwritten
    two steps later, when its buffer receives P_{k+2}; a caller that keeps
    one past that copies it.  The only polynomial recurrence: kernel values
    and derivatives are two adjacent terms of it (module docstring), and
    `quadrature._gauss_rule` finds its zeros.
    """
    p_prev, p, spare = 1.0, s, None  # P_0, P_1, and a buffer free for the next term
    for k in range(1, t + 1):
        if k >= 2:
            a = (2 * k + d - 3) / (k + d - 2)
            term = np.multiply(s, a, out=np.empty_like(s) if spare is None else spare)
            term *= p
            if k == 2:
                term -= a - 1.0  # (a - 1) * P_0
                p_prev, p = p, term
            elif k == 3:
                # (a - 1) * P_1 goes to a new buffer, as s is read only
                new = np.multiply(s, a - 1.0, out=np.empty_like(s))
                np.subtract(term, new, out=new)
                p_prev, p, spare = p, new, term
            else:
                p_prev *= a - 1.0
                np.subtract(term, p_prev, out=p_prev)
                p_prev, p, spare = p, p_prev, term
        yield k, p


def _scaled(p, s: np.ndarray, factor: float):
    """factor * p, in place unless p is s, which is never written; p may
    also be the scalar P_0."""
    if p is s:
        return np.multiply(s, factor, out=np.empty_like(s))
    p *= factor
    return p


def _one_plus_kernel(d: int, t: int, s: np.ndarray) -> np.ndarray:
    """1 + K_{d,t}(s) = C(t+d, t) P_t(s) + C(t+d-1, t-1) P_{t-1}(s), with
    the P_k of S^(d+2) (module docstring); 1 at t = 0.  Never s itself."""
    if t == 0:
        return np.ones_like(s)
    prev = 1.0  # P_0
    for k, last in _degree_scan(d + 2, t, s):
        if k < t:
            prev = last
    # the scan has ended, so its buffers, though not s, are free to take the result
    prev = _scaled(prev, s, math.comb(t + d - 1, t - 1))
    last = _scaled(last, s, math.comb(t + d, t))
    last += prev
    return last


def _value(model: KernelModel, s: np.ndarray) -> np.ndarray:
    out = _one_plus_kernel(model.d, model.t, s)
    out -= 1.0
    return out


def _derivative(model: KernelModel, s: np.ndarray) -> np.ndarray:
    """K'_{d,t}(s) = (d + 1) * (1 + K_{d+2,t-1}(s)); see the module docstring."""
    out = _one_plus_kernel(model.d + 2, model.t - 1, s)
    out *= model.d + 1
    return out


def _second_derivative(model: KernelModel, s: np.ndarray) -> np.ndarray:
    """K''_{d,t}(s) = (d + 1) * (d + 3) * (1 + K_{d+4,t-2}(s)); 0 at t = 1."""
    if model.t == 1:
        return np.zeros_like(s)
    out = _one_plus_kernel(model.d + 4, model.t - 2, s)
    out *= (model.d + 1) * (model.d + 3)
    return out


def _as_input_shape(values: np.ndarray):
    """A float for the value at one cosine, else the array: values has the
    shape of the cosines given."""
    return float(values) if values.ndim == 0 else values


def gegenbauer_normalized(model: KernelModel, k: int, s):
    """Degree-k Gegenbauer polynomial with parameter (d-1)/2, scaled so P_k(1) = 1.

    For d = 1 this is the Chebyshev value cos(k * arccos s).  Accepts scalars
    or arrays of inner products in [-1, 1].
    """
    if not 0 <= k <= model.t:
        raise ValueError(f"degree {k} outside [0, {model.t}]")
    arr = clamp_cosine(s)
    if k == 0:
        return _as_input_shape(np.ones_like(arr))
    for _, p in _degree_scan(model.d, k, arr):
        pass  # the scan ends at degree k
    return _as_input_shape(p.copy() if p is arr else p)  # P_1 is the cosines


def kernel_value(model: KernelModel, s):
    """Evaluate the zero-mean reproducing kernel at inner product(s) s."""
    return _as_input_shape(_value(model, clamp_cosine(s)))


def kernel_derivative(model: KernelModel, s):
    """Derivative d/ds of `kernel_value`, as a kernel on S^(d+2)."""
    return _as_input_shape(_derivative(model, clamp_cosine(s)))


def kernel_second_derivative(model: KernelModel, s):
    """Second derivative d^2/ds^2 of `kernel_value`, as a kernel on S^(d+4)."""
    return _as_input_shape(_second_derivative(model, clamp_cosine(s)))


def kernel_value_and_derivative(model: KernelModel, s):
    """Both kernel values and derivatives, from one clamp of s."""
    arr = clamp_cosine(s)
    return _as_input_shape(_value(model, arr)), _as_input_shape(_derivative(model, arr))
