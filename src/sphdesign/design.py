"""Design criterion: defect functional, per-degree residuals, verification.

A configuration X = {x_1..x_N} on S^d is a spherical t-design exactly when
the equal-weight average of every polynomial of degree <= t matches its
integral.  In kernel form that is equivalent to the vanishing of

    defect(X) = (1/N^2) * sum_{i,j} K(<x_i, x_j>),

a nonnegative functional (it is the squared norm of the averaged kernel
sections).  Splitting the kernel by harmonic degree gives residuals
rho_1..rho_t with defect = sum_k rho_k.

Verification (`defect`, `degree_residuals`, `verify_design`) takes every
kernel value from the two-term form 1 + K = C(t+d, t) P_t + C(t+d-1, t-1)
P_{t-1} on S^(d+2) (`kernel._value`), the form the finder and the flow use
too.  The residuals come from the same scan on S^(d+2): with A_k the
rounded product C(k+d, k) P_k, A_0 = 1 and A_(-1) = 0, the degree-k term
of the kernel is Z(d, k) P_k = A_k - A_(k-2) on S^d (the contiguous relation
of `kernel`), so rho_k sums A_k - A_(k-2) over the pairs, exactly.  The
residuals then telescope, exactly, to the pair sum of A_t + A_(t-1) - 1,
which the kernel value rounds twice per pair: their sum is within a few
eps * K(1) of the defect whatever the accuracy of the scan, which loses up
to k/2 eps near s = 1, where every diagonal cosine |x_i|^2 lies.

The pair matrices are symmetric, so each unordered pair is evaluated once:
one pass forms the N diagonal cosines and the N(N-1)/2 above the diagonal,
packed into blocks of at most `kernel.BLOCK_COSINES` cosines, or one row
when a row is wider (`_pair_cosines`), with one kernel call per block.  The
diagonal counts once and every other pair twice, for its mirror image, and
doubling is exact.  Error-free extraction (`kernel._exact_level_sums`)
turns every weighted block into a few level sums that add up exactly, and
one math.fsum over the levels of all blocks rounds the total once: it
equals math.fsum of all N^2 entries of the matrix.  A correctly rounded
total does not depend on point ordering, so permutation invariance holds
exactly, not just approximately.  The pair inner products go through
einsum rather than BLAS matmul for the same reason: BLAS tiling makes the
last ulp of a dot product depend on its position in the output matrix,
while einsum gives every entry the same value as its mirror image.  Since
every entry and the total are the same whatever the block size, so is the
verdict.  `verify_design` takes the defect, the residuals and the pairs
at the largest off-diagonal cosine from one pass; the minimum separation
is the angle of the shortest chord among those pairs.  A max is exact, so
the separation does not depend on point order either.

The finder minimises the defect as the squared norm of the averaged section
P_X = (1/N) sum_j K(<x_j, .>), a `KernelPolynomial` (BLAS inner products,
plain sums): deterministic at a fixed thread count and within a few
eps * K(1) of `defect`, but not exactly permutation-invariant.
`_section_defect` gives it that norm and the gradient (2/N) grad P_X from
one kernel pass; `defect_gradient` is the same gradient for a
configuration.  Every finder result is re-verified with the exact
`verify_design`.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from . import harmonics, kernel
from .kernel import KernelModel, _degree_scan, _exact_level_sums, _value, clamp_cosine
from .quadrature import KernelPolynomial
from .sphere_geometry import PointConfiguration, require_supported_dimension, unit_rows
from .sphere_geometry import require_count, require_positive_finite


def lower_bound(d: int, t: int) -> int:
    """Minimal possible size of a spherical t-design on S^d.

    Two-case binomial formula: C(d+k, d) + C(d+k-1, d) for t = 2k and
    2*C(d+k, d) for t = 2k+1.  Exact integer arithmetic.
    """
    require_count("sphere dimension", d)
    require_count("degree", t)
    k = t // 2
    if t % 2 == 0:
        return math.comb(d + k, d) + math.comb(d + k - 1, d)
    return 2 * math.comb(d + k, d)


# Rows per run in a block of `_pair_cosines`: a run is paired with the
# points after it by one einsum call, and with itself through its own small
# square, whose strict upper triangle is kept.
RUN_ROWS = 32


@functools.lru_cache(maxsize=None)
def _strict_upper(rows: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of a rows x rows matrix,
    row by row; read-only, as every caller shares it.  Runs have at most
    RUN_ROWS rows, so the cache holds at most RUN_ROWS entries."""
    index = np.flatnonzero(np.triu(np.ones((rows, rows), dtype=bool), 1))
    index.flags.writeable = False
    return index


def _pair_cosines(model: KernelModel, config: PointConfiguration):
    """Yield (lo, hi, s): the clamped inner products of rows lo..hi with the
    points after them, packed flat, so that every pair i <= j lies in
    exactly one block.

    In order, the block of rows lo..hi holds
    - when lo = 0, the n diagonal cosines <x_i, x_i>;
    - for each run of at most RUN_ROWS rows a..b in lo..hi, the rectangle
      of rows a..b against columns b..n, row by row, and then the strict
      upper triangle of rows a..b against themselves, row by row.
    A block takes as many rows as fit in `kernel.BLOCK_COSINES` cosines,
    and never fewer than one, so a pass forms n(n+1)/2 cosines.  einsum
    gives each cosine the bits of its entry in the full pair matrix, whose
    lower triangle holds the same values.
    """
    if model.d != config.d:
        raise ValueError(f"model is on S^{model.d} but configuration is on S^{config.d}")
    pts, n = config.points, config.n
    lo = 0
    while lo < n:
        width, diagonal = n - lo, n if lo == 0 else 0
        fit = bisect.bisect_right(
            range(1, width + 1),
            kernel.BLOCK_COSINES - diagonal,
            key=lambda r: r * width - r * (r + 1) // 2,  # cosines of r rows
        )
        hi = lo + max(1, fit)
        s = np.empty(diagonal + (hi - lo) * (n - lo + n - hi - 1) // 2)
        if diagonal:
            np.einsum("ik,ik->i", pts, pts, out=s[:n])
        at = diagonal
        for a in range(lo, hi, RUN_ROWS):
            b = min(a + RUN_ROWS, hi)
            rectangle = s[at : at + (b - a) * (n - b)]
            np.einsum("ik,jk->ij", pts[a:b], pts[b:], out=rectangle.reshape(b - a, n - b))
            upper = _strict_upper(b - a)
            at += rectangle.size + upper.size
            square = np.einsum("ik,jk->ij", pts[a:b], pts[a:b])
            square.take(upper, out=s[at - upper.size : at])
        yield lo, hi, clamp_cosine(s)
        lo = hi


def _pair_weighted(values: np.ndarray, diagonal: int) -> np.ndarray:
    """values times the pair weights, as a new array: 1 on the first
    `diagonal` entries and 2, exactly, on the rest, each of which stands for
    a pair and its mirror image."""
    weighted = values * 2.0
    weighted[:diagonal] = values[:diagonal]
    return weighted


def _kernel_blocks(model: KernelModel, config: PointConfiguration):
    """Yield (lo, hi, s, diagonal, levels) per block of `_pair_cosines`:
    diagonal is the number of diagonal cosines that open the block (n in
    the first, 0 in the rest), and levels the exact level sums of its
    weighted kernel values."""
    for lo, hi, s in _pair_cosines(model, config):
        diagonal = config.n if lo == 0 else 0
        yield lo, hi, s, diagonal, _exact_level_sums(_pair_weighted(_value(model, s), diagonal))


def _pairs_at(n: int, lo: int, hi: int, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows i and columns j, i < j, of the cosines at the ascending,
    non-empty positions `at` past the diagonal cosines of the block of rows
    lo..hi, in the layout `_pair_cosines` documents.  Runs that hold none
    of the positions cost no numpy call."""
    i, j = np.empty_like(at), np.empty_like(at)
    first_at, last_at = int(at[0]), int(at[-1])
    start = 0
    for a in range(lo, hi, RUN_ROWS):
        b = min(a + RUN_ROWS, hi)
        rectangle, upper = (b - a) * (n - b), _strict_upper(b - a)
        end = start + rectangle + upper.size
        if first_at < end and start <= last_at:
            first, middle, last = np.searchsorted(at, (start, start + rectangle, end))
            row, col = np.divmod(at[first:middle] - start, max(n - b, 1))
            i[first:middle], j[first:middle] = a + row, b + col
            row, col = np.divmod(upper[at[middle:last] - (start + rectangle)], b - a)
            i[middle:last], j[middle:last] = a + row, a + col
        start = end
    return i, j


def defect(model: KernelModel, config: PointConfiguration) -> float:
    """Kernel defect of the configuration; zero exactly at t-designs."""
    levels = (level for *_, block in _kernel_blocks(model, config) for level in block)
    return math.fsum(levels) / config.n**2


def _average_section(model: KernelModel, points: np.ndarray) -> KernelPolynomial:
    """P_X = (1/N) sum_j K(<x_j, .>); its squared norm is the defect of X."""
    n = points.shape[0]
    return KernelPolynomial(model, points, np.full(n, 1.0 / n))


def _pair_pass(model: KernelModel, config: PointConfiguration):
    """`defect`, `degree_residuals` and the minimum separation (None for one
    point) from one pair pass, bit for bit: the levels of `_kernel_blocks`,
    and per degree those of the weighted A_k = C(k+d, k) P_k on S^(d+2)
    (module docstring), a new array, as `_exact_level_sums` overwrites its
    input and the scan still needs P_k for two more degrees.  Doubling
    commutes with rounding, so the off-diagonal entries take 2 C(k+d, k)
    in one product.

    The separation is the smallest angle 2 asin(|x_i - x_j| / 2) over the
    pairs i < j whose cosine is the largest off the diagonal; the chord
    keeps the angle of close points, whose cosine rounds to 1.  A max is
    exact and the chord symmetric in i and j, so the separation does not
    depend on point order either."""
    d, n_sq = model.d, config.n**2
    # at k + 1 the levels of A_k: A_(-1) = 0, A_0 = 1 (pair sum N^2), A_1..A_t
    product_levels = [[], [float(n_sq)]] + [[] for _ in range(model.t)]
    kernel_levels = []
    largest, closest = None, []
    for lo, hi, s, diagonal, levels in _kernel_blocks(model, config):
        kernel_levels += levels
        if s.size > diagonal:
            off = s[diagonal:]
            block_max = float(off.max())
            if largest is None or block_max > largest:
                largest, closest = block_max, []
            if block_max == largest:
                closest.append((lo, hi, np.flatnonzero(off == block_max)))
        for k, p in _degree_scan(d + 2, model.t, s):
            scale = math.comb(k + d, k)
            weighted = p * (2.0 * scale)
            np.multiply(p[:diagonal], scale, out=weighted[:diagonal])
            product_levels[k + 1] += _exact_level_sums(weighted)
    residuals = np.array(
        [
            math.fsum(above + [-q for q in below]) / n_sq
            for below, above in zip(product_levels, product_levels[2:])
        ]
    )
    separation = None
    if closest:
        pairs = [_pairs_at(config.n, lo, hi, at) for lo, hi, at in closest]
        i, j = (np.concatenate(index) for index in zip(*pairs))
        differences = config.points[i] - config.points[j]
        chord = math.sqrt(float(np.einsum("ij,ij->i", differences, differences).min()))
        separation = 2.0 * math.asin(min(1.0, chord / 2.0))
    return math.fsum(kernel_levels) / n_sq, residuals, separation


def degree_residuals(model: KernelModel, config: PointConfiguration) -> np.ndarray:
    """Per-degree residuals rho_1..rho_t; nonnegative and summing to the defect."""
    return _pair_pass(model, config)[1]


def _section_defect(model: KernelModel, points: np.ndarray) -> tuple[float, np.ndarray]:
    """The finder's objective ||P_X||^2 and its gradient (2/N) grad P_X,
    one tangent row per point, from one kernel pass over the section."""
    value, grad = _average_section(model, points).squared_norm_and_gradient()
    return value, (2.0 / points.shape[0]) * grad


def defect_gradient(model: KernelModel, config: PointConfiguration) -> np.ndarray:
    """Spherical gradient of the defect, (2/N) grad P_X: one tangent row per point."""
    return _section_defect(model, config.points)[1]


@dataclass
class DesignReport:
    """Verification outcome for one configuration at one degree."""

    d: int
    t: int
    n: int
    defect: float
    residuals: np.ndarray
    verdict: bool
    tolerance: float
    lower_bound: int
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "residuals": [float(r) for r in self.residuals]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


DEFAULT_TOLERANCE = 1e-10


class CrossCheckError(RuntimeError):
    """The kernel defect disagrees with the independent harmonic cross-check."""


def verify_design(
    model: KernelModel,
    config: PointConfiguration,
    tolerance: float = DEFAULT_TOLERANCE,
    meta: dict | None = None,
) -> DesignReport:
    """Full verification report; verdict is defect <= tolerance.

    The meta gives `min_separation`, the smallest angle in radians between
    two points (from the chord at the closest pairs, so 0 exactly for
    coincident points), and `separation_times_t`; both are None for one
    point.

    On S^2 the kernel defect is additionally cross-checked against the
    squared empirical means of the explicit real harmonic basis; a
    disagreement beyond rounding scale indicates an internal bug and
    raises CrossCheckError.
    """
    require_positive_finite("tolerance", tolerance)
    total, residuals, separation = _pair_pass(model, config)
    report_meta = dict(meta or {})
    report_meta["min_separation"] = separation
    report_meta["separation_times_t"] = None if separation is None else separation * model.t
    if model.d == 2:
        basis_means = harmonics.mean_residuals(model.t, config.points)
        cross = float(math.fsum(r * r for r in basis_means))
        scale = model.space_dim  # K(1), exactly
        gap = abs(cross - total)
        report_meta["harmonic_cross_check"] = cross
        report_meta["harmonic_cross_check_gap"] = gap
        if gap > 1e-9 * max(total, cross) + 1e-12 * scale:
            raise CrossCheckError(
                f"kernel defect {total!r} disagrees with harmonic cross-check {cross!r}"
            )
    return DesignReport(
        d=model.d,
        t=model.t,
        n=config.n,
        defect=total,
        residuals=residuals,
        verdict=bool(total <= tolerance),
        tolerance=tolerance,
        lower_bound=lower_bound(model.d, model.t),
        meta=report_meta,
    )


# ---------------------------------------------------------------------------
# catalog of exact reference configurations


def _polygon(n: int) -> np.ndarray:
    phis = 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(phis), np.sin(phis)], axis=1)


def _simplex(d: int) -> np.ndarray:
    # columns of the Helmert-style orthonormal basis of the hyperplane
    # orthogonal to (1, ..., 1) in R^{d+2}; pairwise inner products -1/(d+1)
    m = d + 2
    rows = []
    for j in range(1, d + 2):
        h = np.zeros(m)
        h[:j] = 1.0
        h[j] = -j
        h /= math.sqrt(j * (j + 1))
        rows.append(h)
    basis = np.stack(rows, axis=0)  # (d+1, d+2)
    return unit_rows(basis.T)


def _cross_polytope(d: int) -> np.ndarray:
    eye = np.eye(d + 1)
    return np.concatenate([eye, -eye], axis=0)


def _cube(d: int) -> np.ndarray:
    corners = np.array(
        [[(1.0 if (i >> b) & 1 else -1.0) for b in range(d + 1)]
         for i in range(2 ** (d + 1))]
    )
    return corners / math.sqrt(d + 1)


def _icosahedron() -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for a in (1.0, -1.0):
        for b in (phi, -phi):
            verts += [[0.0, a, b], [a, b, 0.0], [b, 0.0, a]]
    return np.array(verts) / math.sqrt(1.0 + phi * phi)


def _dodecahedron() -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    inv = 1.0 / phi
    verts = [
        [sx, sy, sz]
        for sx in (1.0, -1.0)
        for sy in (1.0, -1.0)
        for sz in (1.0, -1.0)
    ]
    for a in (inv, -inv):
        for b in (phi, -phi):
            verts += [[0.0, a, b], [a, b, 0.0], [b, 0.0, a]]
    return np.array(verts) / math.sqrt(3.0)


def _d4_minimal_vectors() -> np.ndarray:
    verts = []
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    v = np.zeros(4)
                    v[i] = si
                    v[j] = sj
                    verts.append(v)
    return np.array(verts) / math.sqrt(2.0)


def _24_cell() -> np.ndarray:
    return np.concatenate([_cross_polytope(3), _cube(3)])


# builders of S^d configurations by dimension d; polygon(n) is on S^1
_PARAMETRIC = {
    "polygon": _polygon,
    "simplex": _simplex,
    "cross-polytope": _cross_polytope,
    "cube": _cube,
}

_FIXED = {
    "icosahedron": (_icosahedron, 2),
    "dodecahedron": (_dodecahedron, 2),
    "d4-minimal-vectors": (_d4_minimal_vectors, 3),
    "24-cell": (_24_cell, 3),
}


def catalog_design(name: str) -> PointConfiguration:
    """Exact-coordinate reference configuration by name.

    Parametric names take an integer argument, e.g. "polygon(7)",
    "simplex(3)", "cross-polytope(2)", "cube(3)"; fixed names are
    "icosahedron", "dodecahedron", "d4-minimal-vectors", "24-cell".
    """
    match = re.fullmatch(r"\s*([a-z0-9-]+)\s*(?:\(\s*(\d+)\s*\))?\s*", name)
    if not match:
        raise ValueError(f"unknown catalog name {name!r}")
    base, arg = match.group(1), match.group(2)
    if base in _FIXED:
        if arg is not None:
            raise ValueError(f"{base} takes no argument")
        builder, d = _FIXED[base]
        return PointConfiguration(d=d, points=builder())
    if base in _PARAMETRIC:
        if arg is None:
            raise ValueError(f"{base} requires an integer argument, e.g. {base}(3)")
        value = int(arg)
        if base == "polygon":
            require_count("polygon vertex count", value)
            return PointConfiguration(d=1, points=_polygon(value))
        require_supported_dimension(value)
        return PointConfiguration(d=value, points=_PARAMETRIC[base](value))
    raise ValueError(f"unknown catalog name {name!r}")
