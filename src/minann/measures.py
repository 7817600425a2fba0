"""Geometric measurements: circle lengths, level curves, areas, curvature.

The length of an image circle and its second log-derivative come from
coefficient closed forms; level curves and slab areas combine exact radial
antiderivatives with spectrally accurate circle quadrature, and total
curvature is a Gauss-Bonnet integral over the two window circles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    HeightRangeError,
    NumericalError,
)
from .laurent import TWO_PI, AnnulusWindow, LaurentPoly, _count, roots, trapezoid_circle
from .weierstrass import (
    Parity,
    Slab,
    WeierstrassData,
    _immersion,
    metric_lambda_samples,
)

DEFAULT_THETA_NODES = 4096
MIN_THETA_NODES = 16  # fewest circle nodes a quadrature or trace accepts
LEVEL_SOLVE_TOL = 1e-12  # Newton step in log r below which a ray is converged
LEVEL_SOLVE_MAX_STEPS = 64  # covers pure bisection of any window down to round-off
LEVEL_HEIGHT_TOL = 1e-9
MAX_SOLVE_RAYS = 4096  # rays per batched level solve; bounds its peak memory
CROSSING_MERGE_TOL = 1e-9
CROSSING_BLOCK_PAIRS = 1 << 18  # candidate pairs per block of a crossing sweep
MAX_CROSSINGS = 1 << 14  # crossings one polyline may hold before the merge
# Root distance, relative to the modulus, at which a zero of g_- and one of
# g_+ count as one common zero; wide enough for the spread of a double root.
COMMON_ROOT_TOL = 1e-6
MARGINAL_RATIO_TOL = 1e-12  # bracket width of the coth(u) = u bisection
WAIST_COARSE_HEIGHTS = 17  # heights in the waist search's first scan
WAIST_TOL = 1e-8  # golden-section bracket width, relative to its heights


def _node_count(n_theta: int) -> int:
    """n_theta as an int; DomainError below MIN_THETA_NODES nodes."""
    return _count(n_theta, "n_theta", MIN_THETA_NODES)


def _theta_grid(n_theta: int) -> np.ndarray:
    """The uniform circle nodes 2 pi j / n_theta, j = 0 .. n_theta - 1.

    Raises DomainError below MIN_THETA_NODES nodes.
    """
    n_theta = _node_count(n_theta)
    return TWO_PI * np.arange(n_theta) / n_theta


# -- circle length and its convexity -------------------------------------------


def _length_terms(data: WeierstrassData) -> dict[tuple[int, int], float]:
    """One data set's length terms, w by (factor, exponent) key, with
    L(r) = pi * sum w r^e: |f| = |g|^2 r^(0 or 1) on |z| = r, and by Parseval
    the circle mean of |g|^2 is sum |c_n|^2 r^(2n), so w = |c_n|^2 and
    e = 2n (even) or 2n + 1 (odd).  The keys run over g_- (factor 0), then
    g_+ (factor 1), each with e increasing, so equal key sets come in one order.
    """
    shift = 0 if data.parity is Parity.EVEN else 1
    return {
        (k, 2 * n + shift): abs(c) ** 2
        for k, g in enumerate((data.g_minus, data.g_plus))
        for n, c in g.terms
    }


def _lengths(stack, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, L'') of each data set of ``stack`` on its row of ``radii`` (shape
    (len(stack), ...)): pi * sum w r^e and pi * sum e^2 w r^e over the set's
    _length_terms, one r^e per term for both.  Sets that share one term
    layout are summed as columns; a stack that mixes layouts is measured set
    by set, so every row has the bits of its set's one-row call.

    Every radius must lie on its set's closed window, within
    LEVEL_HEIGHT_TOL relative, or DomainError: from_g_pair rejects factor
    roots there, and a slab edge clipped to the attained range maps onto a
    window circle give or take an ulp.
    """
    rows = (len(stack),) + (1,) * (radii.ndim - 1)
    ends = np.array([(data.window.r_inner, data.window.r_outer) for data in stack])
    lo = ends[:, 0].reshape(rows) * (1.0 - LEVEL_HEIGHT_TOL)
    hi = ends[:, 1].reshape(rows) * (1.0 + LEVEL_HEIGHT_TOL)
    outside = ~((radii >= lo) & (radii <= hi))
    if np.any(outside):
        raise DomainError(f"radius {float(radii[outside][0])!r} outside the data window")
    tables = [_length_terms(data) for data in stack]
    keys = tables[0].keys()
    if any(table.keys() != keys for table in tables[1:]):
        per_set = [_lengths((data,), radii[i : i + 1]) for i, data in enumerate(stack)]
        return tuple(np.concatenate(parts) for parts in zip(*per_set))
    exponents = [e for _, e in keys]
    # Per term, w and e^2 w of every set (float(e * e) * w is one product).
    weights = np.array([list(table.values()) for table in tables])
    w_cols = weights.T.reshape((len(exponents),) + rows)
    squares = np.array([float(e * e) for e in exponents])
    dd_cols = squares.reshape((-1,) + (1,) * len(rows)) * w_cols
    length = dd = 0
    for e, w, e2w in zip(exponents, w_cols, dd_cols):
        # A scalar exponent per term keeps numpy's power loop of the one-set
        # call (libm pow can differ in the last bit).
        power = radii**e
        length = length + w * power
        dd = dd + e2w * power
    return math.pi * length, math.pi * dd


def _circle_lengths(data: WeierstrassData, r):
    """(L, L'') of one data set at a radius or an array of radii, in r's shape:
    the one-row call of _lengths."""
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    length, dd = _lengths((data,), radii[None])
    if np.ndim(r):
        return length[0], dd[0]
    # A scalar radius is a 1-element array, so it takes numpy's power like
    # every array element.
    return float(length[0, 0]), float(dd[0, 0])


def circle_length(data: WeierstrassData, r, n_theta: int = DEFAULT_THETA_NODES):
    """Length of the image of |z| = r: half the circle integral of

    |f_minus| + |f_plus|, in closed form (Parseval) from the factor
    coefficients.  ``r`` is a radius or an array of radii, and the result
    has its shape.  ``n_theta`` is ignored; it stays in the signature because
    span tracers read it by name as this layer's node count.
    """
    return _circle_lengths(data, r)[0]


def circle_length_dd(data: WeierstrassData, r):
    """Closed-form second derivative of circle_length in t = ln r.

    Term-by-term: each squared coefficient rides a pure power r^e, so the
    log-derivative just multiplies it by e^2.  ``r`` is a radius or an array
    of radii.
    """
    return _circle_lengths(data, r)[1]


def profile_radii(window, n_grid: int, inset: float = 0.0) -> np.ndarray:
    """Log-uniform grid of radii spanning the window.

    ``window`` is one AnnulusWindow, giving shape (n_grid,), or a sequence of
    windows, giving one row per window with the bits of its one-window call.
    An even n_grid straddles the central circle without sampling it, which is
    the right default for strict-convexity checks whose defect may vanish at
    isolated radii.
    """
    n_grid = _count(n_grid, "n_grid", 2)
    if isinstance(window, AnnulusWindow):
        lo, hi = window.log_span()
    else:
        lo, hi = np.array([w.log_span() for w in window]).T
    span = hi - lo
    grid = np.linspace(lo + inset * span, hi - inset * span, n_grid, axis=-1)
    return np.exp(np.ascontiguousarray(grid))


def _profile_lengths(stack, n_grid: int) -> tuple[np.ndarray, ...]:
    """(radii, L, L''), one row per data set of ``stack``, on the n_grid
    profile radii inset 1e-3 of each window's log span from each end: the
    circles of the convexity checks and of length_profile."""
    radii = profile_radii([data.window for data in stack], n_grid, inset=1e-3)
    return (radii, *_lengths(stack, radii))


def length_profile(data: WeierstrassData, n_grid: int = 32) -> list[tuple[float, float, float]]:
    """Triples (t, L, L'') on log-uniform circles, t = ln r increasing."""
    radii, length, dd = (row[0] for row in _profile_lengths((data,), n_grid))
    return list(zip(np.log(radii).tolist(), length.tolist(), dd.tolist()))


# -- level curves ----------------------------------------------------------------


def _levels_per_solve(n_rays: int) -> int:
    """Whole levels per Newton solve: at most MAX_SOLVE_RAYS rays, at least one level."""
    return max(1, MAX_SOLVE_RAYS // max(n_rays, 1))


def level_radii(
    data: WeierstrassData,
    h,
    thetas: np.ndarray,
) -> np.ndarray:
    """Radii r(theta) with height(r e^{i theta}) = h, one per ray.

    ``h`` is one height, giving shape (len(thetas),), or a 1-D array of
    heights, giving shape (len(h), len(thetas)).  Heights are solved together
    in batches of whole levels of at most MAX_SOLVE_RAYS rays; every ray
    iterates on its own, so each row equals its single-height solve bit for
    bit.  It is the one entry to the solve.  Its rays are set up once per
    data set and angles (_ray_setup), and the sign of d(height)/dr is
    certified once per data set on the whole closed window (``ray_sign`` of
    the cached immersion).

    Bracket-safeguarded Newton in t = log r on the height's ray modes (see
    _Immersion.ray_modes): every ray starts from the window's bracket at the
    secant point of its end heights, keeps the bracket around the root, and
    bisects whenever a Newton step would leave it.  A ray is frozen after a
    step below LEVEL_SOLVE_TOL * max(1, |t|); Newton converges quadratically,
    so that step leaves the ray at round-off.  The solved radii must then meet
    their heights within LEVEL_HEIGHT_TOL under the complex evaluator of the
    immersion.  A height within LEVEL_HEIGHT_TOL of a window circle's height
    on a ray is solved on that circle.  Raises HeightRangeError if a height is
    not attained on every ray, NonMonotoneRayError if the ray direction
    cannot be certified, and ConvergenceError if a ray is still moving after
    LEVEL_SOLVE_MAX_STEPS steps.
    """
    heights = np.asarray(h, dtype=float)
    if heights.ndim > 1:
        raise DomainError("level heights must be a number or a 1-D array")
    if not np.all(np.isfinite(heights)):
        raise DomainError("level height must be finite")
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim > 1:
        raise DomainError("ray angles must be a number or a 1-D array")
    rows = np.atleast_1d(heights)
    out = np.empty((rows.size, thetas.size))
    if rows.size:
        rays = _ray_setup(data, thetas.tobytes())
        step = _levels_per_solve(thetas.size)
        for i in range(0, rows.size, step):
            out[i : i + step] = _solve_levels(data, rows[i : i + step], rays)
    return out if heights.ndim else out[0]


class _Rays(NamedTuple):
    """What a level solve needs of its rays, independent of the heights."""

    theta: np.ndarray
    phase: np.ndarray  # e^{i theta}
    sign: float  # _Immersion.ray_sign
    modes: tuple  # _Immersion.ray_modes(phase)
    ends: np.ndarray  # heights on the inner and outer window circle, shape (2, rays)


@lru_cache(maxsize=64)
def _ray_setup(data: WeierstrassData, thetas: bytes) -> _Rays:
    """The rays at the float64 angles whose bytes are ``thetas``, after
    certifying the ray direction.  The key copies the angles, the cached
    arrays are read-only, and ``theta`` is a view of the key.

    The sign comes first, so a non-monotone surface raises
    NonMonotoneRayError before ray_modes can raise MultivaluedDataError.
    """
    imm = _immersion(data)
    sign = imm.ray_sign
    theta = np.frombuffer(thetas)
    phase = np.exp(1j * theta)
    modes = imm.ray_modes(phase)
    lo, hi = data.window.log_span()
    ends, _ = _ray_height(modes, np.repeat([[lo], [hi]], theta.size, axis=1))
    for arr in (phase, *modes[:2], ends):
        arr.flags.writeable = False
    return _Rays(theta, phase, sign, modes, ends)


def _ray_height(modes, t: np.ndarray):
    """Height and d(height)/dt at log radii t (rows of rays) from ray modes.

    Both sums share one array of e^{n t}, in real arithmetic; its row n turns
    into A_n e^{n t}, then n A_n e^{n t}, in place.  Every element adds its
    terms in the same order, so a row never depends on its batch.
    """
    exponents, amplitudes, log_slope, offset = modes
    powers = np.exp(exponents[:, None, None] * t)
    value = log_slope * t + offset
    slope = np.full(t.shape, log_slope)
    for n, a, e in zip(exponents, amplitudes, powers):
        e *= a
        value += e
        e *= n
        slope += e
    return value, slope


def _solve_levels(data: WeierstrassData, hs: np.ndarray, rays: _Rays):
    """One batched Newton solve: radii of shape (len(hs), len(rays.theta))."""
    sign, modes = rays.sign, rays.modes
    lo, hi = data.window.log_span()
    target = hs[:, None]
    f_in = sign * (rays.ends[0] - target)
    f_out = sign * (rays.ends[1] - target)
    # The ends of the attained range are levels that touch the closed window.
    tol = LEVEL_HEIGHT_TOL * np.maximum(1.0, np.abs(target))
    missed = np.any(f_in > tol, axis=1) | np.any(f_out < -tol, axis=1)
    if np.any(missed):
        raise HeightRangeError(f"height {float(hs[missed][0])!r} is not attained on every ray")
    t = np.clip(lo + (hi - lo) * f_in / (f_in - f_out), lo, hi)
    tlo = np.full(t.shape, lo)
    thi = np.full(t.shape, hi)
    active = np.ones(t.shape, dtype=bool)
    # Every iterate stays in [lo, hi]; inside [-1, 1] the freeze scale
    # max(1, |t|) is exactly 1 on every ray, so its tolerances are numbers.
    unit_scale = -1.0 <= lo and hi <= 1.0
    scale, step_tol = 1.0, LEVEL_SOLVE_TOL
    # Every ray is evaluated at every step but only active rays move, so a
    # frozen ray keeps the bits it had when its own test froze it.
    for _ in range(LEVEL_SOLVE_MAX_STEPS):
        value, slope = _ray_height(modes, t)
        resid = value - target
        above = resid > 0 if sign > 0 else resid < 0
        tlo = np.where(above, tlo, t)
        thi = np.where(above, t, thi)
        step = resid / slope
        t_new = t - step
        newton = (t_new >= tlo) & (t_new <= thi)
        if not unit_scale:
            scale = np.maximum(1.0, np.abs(t))
            step_tol = LEVEL_SOLVE_TOL * scale
        done = newton & (np.abs(step) <= step_tol)
        if not newton.all():
            # On a step where every ray takes Newton, t is an end of its
            # bracket and t_new lies in it, so |step| <= thi - tlo: a bracket
            # 4 ulps narrow has frozen its ray on the step test already.
            done |= thi - tlo <= 4.0 * np.spacing(scale)
            t_new = np.where(newton, t_new, 0.5 * (tlo + thi))
        np.copyto(t, t_new, where=active)
        active &= ~done
        if not active.any():
            break
    else:
        raise ConvergenceError(
            f"level solve left {int(active.sum())} rays moving after "
            f"{LEVEL_SOLVE_MAX_STEPS} steps"
        )
    r = np.exp(t)
    resid = np.abs(_immersion(data).height(r * rays.phase) - target)
    if np.any(resid > tol):
        raise NumericalError("level solve failed to reach its height tolerance")
    return r


def _periodic_derivative(values: np.ndarray) -> np.ndarray:
    """Spectral d/d theta of uniformly sampled periodic signals (last axis)."""
    n = values.shape[-1]
    spec = np.fft.rfft(values, axis=-1)
    spec *= 1j * np.arange(spec.shape[-1])
    return np.fft.irfft(spec, n, axis=-1)


class _TracedPoints:
    """A trace_levels call's radii, a row per level, and its ray phases
    e^{i theta}; the points z = r e^{i theta} are immersed on first read."""

    def __init__(self, data: WeierstrassData, radii: np.ndarray, phase: np.ndarray):
        self.data = data
        self.radii = radii
        self.phase = phase

    @cached_property
    def rows(self) -> np.ndarray:  # shape (levels, n, 3)
        return _immersion(self.data).point(self.radii * self.phase)


@dataclass(frozen=True, eq=False)
class LevelCurve:
    """A traced level: uniform theta nodes, solved radii, immersion points.

    ``multiplicity`` is the data's rotation order, read from its coefficients
    by ``traversal_multiplicity``: the level is traversed that many times,
    and crossings are counted on the nodes of one traversal, so a k-fold
    cover of an embedded circle reports multiplicity k and zero
    self-intersections at any node count.
    The immersion points, multiplicity and crossings are computed on first
    access and cached, so callers that read only ``length`` never pay for
    them.  ``points`` is row ``row`` of the immersion of the whole traced
    batch, which the first read on any of its curves evaluates.
    """

    h: float
    theta: np.ndarray
    r: np.ndarray
    length: float
    data: WeierstrassData = field(repr=False)
    batch: _TracedPoints = field(repr=False)
    row: int = field(repr=False)

    @cached_property
    def points(self) -> np.ndarray:  # shape (n, 3)
        return self.batch.rows[self.row]

    @cached_property
    def multiplicity(self) -> int:
        return traversal_multiplicity(self.data)

    @cached_property
    def _crossings(self) -> tuple[int, tuple[tuple[float, float], ...]]:
        # The nodes with theta < 2 pi / multiplicity: one traversal.
        one_traversal = self.points[: -(-len(self.points) // self.multiplicity), :2]
        count, pts2d = planar_self_intersections(one_traversal)
        return count, tuple(pts2d)

    @property
    def self_intersections(self) -> int:
        return self._crossings[0]

    @property
    def crossing_points(self) -> tuple[tuple[float, float], ...]:
        return self._crossings[1]


def trace_levels(data: WeierstrassData, heights, n_theta: int = 512) -> list[LevelCurve]:
    """Trace the levels x3 = h for each h of a 1-D sequence, in order.

    Each curve length integrates the conformal factor against the exact
    parameter speed sqrt(r'^2 + r^2); r' comes from spectral differentiation
    of the level_radii rows, taken per solve batch, row by row, so each curve
    equals its one-height trace bit for bit.  The conformal factor reads the
    points z = r e^{i theta} per solve batch; the first read of any curve's
    ``points`` immerses the points of all levels in one call.
    Planar self-crossings are counted transversally when a curve is first
    asked for them.  The solve's residual check keeps every node within
    LEVEL_HEIGHT_TOL of its level.
    """
    n_theta = _node_count(n_theta)
    heights = np.asarray(heights, dtype=float)
    if heights.ndim != 1:
        raise DomainError("level heights must be a 1-D sequence")
    if not heights.size:
        return []
    grid = _theta_grid(n_theta)
    radii = level_radii(data, heights, grid)
    rays = _ray_setup(data, grid.tobytes())  # the entry level_radii just used
    traced = _TracedPoints(data, radii, rays.phase)
    step = _levels_per_solve(n_theta)
    curves = []
    for i in range(0, heights.size, step):
        batch = radii[i : i + step]
        lam = metric_lambda_samples(data, batch * rays.phase)
        dr = _periodic_derivative(batch)
        lengths = trapezoid_circle(lam * np.sqrt(dr**2 + batch**2))
        for row, (h, r, length) in enumerate(
            zip(heights[i : i + step].tolist(), batch, lengths.tolist()), start=i
        ):
            curves.append(LevelCurve(h, rays.theta, r, length, data, traced, row))
    return curves


def trace_level(data: WeierstrassData, h: float, n_theta: int = 512) -> LevelCurve:
    """Trace the level x3 = h through the annulus: trace_levels for one height."""
    return trace_levels(data, [h], n_theta)[0]


def _swept_pairs(end: np.ndarray):
    """The pairs (k, m) of sorted positions with k < m < end[k], in blocks of
    whole positions that hold at most CROSSING_BLOCK_PAIRS pairs each (or one
    position whose run alone is longer), as (first, second) index arrays."""
    n = end.size
    run = end - np.arange(n) - 1
    total = np.cumsum(run)
    k0 = 0
    while k0 < n:
        before = int(total[k0 - 1]) if k0 else 0
        k1 = max(k0 + 1, int(np.searchsorted(total, before + CROSSING_BLOCK_PAIRS, side="right")))
        r = run[k0:k1]
        first = np.repeat(np.arange(k0, k1), r)
        yield first, first + 1 + np.arange(first.size) - np.repeat(np.cumsum(r) - r, r)
        k0 = k1


def planar_self_intersections(xy: np.ndarray) -> tuple[int, list[tuple[float, float]]]:
    """Count transversal self-crossings of a closed polyline.

    Candidate segment pairs come from a sort-and-sweep over x (Shamos & Hoey
    1976): with segments sorted by their lower x, the segments whose x-range
    overlaps one segment's are a contiguous run after it, found by binary
    search.  The y-overlap, adjacency and strict orientation tests then run
    on the candidates only, so the cost is O(n log n + k) for k candidates
    instead of O(n^2), and the candidates are taken in blocks of at most
    CROSSING_BLOCK_PAIRS, so memory does not grow with k.  Crossings are
    visited in (i, j) order of their segment indices and merged within
    CROSSING_MERGE_TOL, so a crossing shared by neighbouring segment pairs
    counts once.  The merge is quadratic in the crossings, so more than
    MAX_CROSSINGS of them raises NumericalError.
    """
    p = np.asarray(xy, dtype=float)
    n = len(p)
    q = np.roll(p, -1, axis=0)
    lo = np.minimum(p, q)
    hi = np.maximum(p, q)
    order = np.argsort(lo[:, 0], kind="stable")
    lo_x = lo[order, 0]
    # Sorted position k overlaps in x every later position m < end[k]; the
    # reverse condition lo_x[k] <= hi_x[m] holds because lo_x is sorted.
    end = np.searchsorted(lo_x, hi[order, 0] + CROSSING_MERGE_TOL, side="right")

    def cross2(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    hits = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),) * 2]
    count = 0
    for first, second in _swept_pairs(end):
        i_idx = np.minimum(order[first], order[second])
        j_idx = np.maximum(order[first], order[second])
        keep = (j_idx - i_idx >= 2) & ~((i_idx == 0) & (j_idx == n - 1))  # adjacency
        keep &= lo[i_idx, 1] <= hi[j_idx, 1] + CROSSING_MERGE_TOL
        keep &= lo[j_idx, 1] <= hi[i_idx, 1] + CROSSING_MERGE_TOL
        i_idx, j_idx = i_idx[keep], j_idx[keep]

        a, b, c, d = p[i_idx], q[i_idx], p[j_idx], q[j_idx]
        ab = b - a
        cd = d - c
        d1 = cross2(ab, c - a)
        d2 = cross2(ab, d - a)
        d3 = cross2(cd, a - c)
        d4 = cross2(cd, b - c)
        hit = (d1 * d2 < 0) & (d3 * d4 < 0)
        count += int(hit.sum())
        if count > MAX_CROSSINGS:
            raise NumericalError(
                f"more than {MAX_CROSSINGS} crossing segment pairs on one polyline, "
                "too many to merge"
            )
        d1, d2, c, cd = d1[hit], d2[hit], c[hit], cd[hit]
        s = d1 / (d1 - d2)
        hits.append((i_idx[hit], j_idx[hit], c[:, 0] + s * cd[:, 0], c[:, 1] + s * cd[:, 1]))
    i_idx, j_idx, xs, ys = map(np.concatenate, zip(*hits))
    rank = np.lexsort((j_idx, i_idx))
    merged: list[tuple[float, float]] = []
    for pt in zip(xs[rank].tolist(), ys[rank].tolist()):
        if all(math.hypot(pt[0] - m[0], pt[1] - m[1]) > CROSSING_MERGE_TOL for m in merged):
            merged.append(pt)
    return len(merged), merged


def traversal_multiplicity(data: WeierstrassData) -> int:
    """The immersion's rotation order: the largest m such that turning z by
    2 pi / m leaves every coordinate unchanged, so each level is traversed
    m times.  Re sum c_n z^n is invariant under z -> zeta z exactly when
    every c_n (zeta^n - 1) = 0, and the log term and the centring shifts are
    rotation invariant, so m is the gcd of the exponents n + 1 of the terms
    of phi1..phi3 with n != -1 (1 if there are none)."""
    exponents = [n + 1 for p in (data.phi1, data.phi2, data.phi3) for n, _ in p.terms if n != -1]
    return math.gcd(*exponents) or 1


# -- slab areas -------------------------------------------------------------------


@lru_cache(maxsize=64)
def _area_terms(data: WeierstrassData) -> tuple[tuple[int, int, complex], ...]:
    """Pairs for the radial antiderivative of (1/2) sum |phi_i|^2 * r.

    |phi(r e^{i a})|^2 expands into c_m conj(c_n) r^{m+n} e^{i(m-n)a}; with the
    extra factor r, each pair integrates in r to r^{m+n+2}/(m+n+2) except
    m+n = -2, which integrates to log r.  Keys are (m+n+2, m-n).
    """
    acc: dict[tuple[int, int], complex] = {}
    for phi in (data.phi1, data.phi2, data.phi3):
        for m, cm in phi.terms:
            for n, cn in phi.terms:
                key = (m + n + 2, m - n)
                acc[key] = acc.get(key, 0j) + 0.5 * cm * cn.conjugate()
    return tuple((s, d, w) for (s, d), w in sorted(acc.items()))


def _area_antiderivative(data: WeierstrassData, thetas: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The radial antiderivative at radii ``r`` on the rays ``thetas`` (last axis)."""
    total = np.zeros(r.shape, dtype=complex)
    logr = np.log(r)
    for s, d, w in _area_terms(data):
        radial = logr if s == 0 else (r**s) / s
        phase = np.exp(1j * d * thetas) if d else 1.0
        total = total + w * phase * radial
    return total.real


def slab_area(
    data: WeierstrassData, slab: Slab, n_theta: int = DEFAULT_THETA_NODES
) -> float:
    """Area of the piece of surface between the two slab levels.

    Radial integration is exact (antiderivative per ray between the solved
    level radii); only the outer theta integral is quadrature.
    """
    thetas = _theta_grid(n_theta)
    return _slab_area(data, thetas, *level_radii(data, [slab.h_minus, slab.h_plus], thetas))


def _slab_area(data: WeierstrassData, thetas: np.ndarray, r_a, r_b) -> float:
    """slab_area from the radii r_a and r_b of its two levels on the rays
    ``thetas``, as solved by level_radii or held by traced curves."""
    # Both level radii in one pass, so each phase e^{i(m-n)theta} is formed once.
    lower, upper = _area_antiderivative(
        data, thetas, np.stack((np.minimum(r_a, r_b), np.maximum(r_a, r_b)))
    )
    return float(trapezoid_circle(upper - lower).real)


# -- total curvature ---------------------------------------------------------------


def total_curvature(
    data: WeierstrassData,
    window: AnnulusWindow | None = None,
    n_theta: int = DEFAULT_THETA_NODES,
) -> float:
    """Integral of the Gauss curvature over the window (a negative number).

    Gauss-Bonnet on the window annulus: K dA = -Laplacian(log lambda) dx dy,
    and the |z|^p factor of lambda = (|g_-|^2 + |g_+|^2)|z|^p / 2 is harmonic,
    so the divergence theorem leaves two circle integrals,

        -[ integral of r d/dr log(|g_-|^2 + |g_+|^2) dtheta ] from r_inner to r_outer,

    with r d/dr log(|a|^2 + |b|^2) = 2 Re(z a' conj(a) + z b' conj(b)) /
    (|a|^2 + |b|^2).  The integrand is smooth and periodic, so the trapezoid
    rule on n_theta nodes converges spectrally.  The identity needs
    |g_-|^2 + |g_+|^2 > 0 on the closed window: a common zero of the factors
    there would add 4 pi per zero, so it raises DomainError.
    """
    window = window or data.window
    for u in roots(data.g_minus):
        if window.r_inner <= abs(u) <= window.r_outer and any(
            abs(u - w) <= COMMON_ROOT_TOL * abs(u) for w in roots(data.g_plus)
        ):
            raise DomainError(f"g_minus and g_plus share the zero {u:.12g} in the window")
    z = np.array([[window.r_inner], [window.r_outer]]) * np.exp(1j * _theta_grid(n_theta))
    num = np.zeros(z.shape)
    den = np.zeros(z.shape)
    # A factor too large for float64 on a window circle (r^k past 1e308 for a
    # high cover) overflows here; the finiteness check below reports it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for g in (data.g_minus, data.g_plus):
            v = g.evaluate(z)
            num += (z * g.derivative().evaluate(z) * v.conj()).real
            den += v.real**2 + v.imag**2
        integrand = num / den
    if not np.isfinite(integrand).all():
        raise NumericalError("the total curvature integrand is not finite on a window circle")
    inner, outer = 2.0 * trapezoid_circle(integrand)
    return -float(outer - inner)


# -- catenoid references ------------------------------------------------------------


@dataclass(frozen=True)
class CatenoidParams:
    """A k-fold catenoid cover pinned by its vertical flux and waist height."""

    f3: float
    center: float
    cover: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.f3) and self.f3 > 0):
            raise DomainError("vertical flux must be positive")
        object.__setattr__(self, "cover", _count(self.cover, "cover", 1))
        if not math.isfinite(self.center):
            raise DomainError("center must be finite")

    @property
    def rate(self) -> float:
        # growth rate of the level length in h
        return TWO_PI * self.cover / self.f3


def catenoid_level_length(params: CatenoidParams, h: float) -> float:
    """Level length f3 * cosh(rate * (h - center)) of the cover."""
    return params.f3 * math.cosh(params.rate * (float(h) - params.center))


def catenoid_area(params: CatenoidParams, slab: Slab) -> float:
    """Closed-form slab area of the cover (integral of length^2 / f3)."""

    def anti(h: float) -> float:
        u = params.rate * (h - params.center)
        return 0.5 * params.f3 * (h - params.center) + params.f3 * math.sinh(2.0 * u) / (
            4.0 * params.rate
        )

    return anti(slab.h_plus) - anti(slab.h_minus)


def marginal_waist_ratio() -> float:
    """The root of coth(u) = u on [1, 2], by bisection."""
    lo, hi = 1.0, 2.0
    while hi - lo > MARGINAL_RATIO_TOL:
        mid = 0.5 * (lo + hi)
        if mid - 1.0 / math.tanh(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def marginally_stable_waist(slab: Slab) -> CatenoidParams:
    """The catenoid whose profile is tangent to the slab-width cone.

    Recentred internally: the returned waist sits at the slab center, with
    neck radius half-width / u*, where u* solves coth(u) = u.
    """
    ustar = marginal_waist_ratio()
    a = ustar / slab.half_width
    return CatenoidParams(f3=TWO_PI / a, center=slab.center, cover=1)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_step(bracket: tuple, left: bool) -> tuple[tuple, float]:
    """One golden-section step on the bracket (a, b, c, d): keep [a, d] if
    ``left`` (the length at c is below that at d), else [c, b].  Returns the
    new bracket and its new probe."""
    a, b, c, d = bracket
    if left:
        b, d = d, c
        c = b - _GOLDEN * (b - a)
        return (a, b, c, d), c
    a, c = c, d
    d = a + _GOLDEN * (b - a)
    return (a, b, c, d), d


def _bracket_open(bracket: tuple) -> bool:
    a, b = bracket[:2]
    return b - a > WAIST_TOL * max(1.0, abs(a) + abs(b))


def _probes_ahead(bracket: tuple, probe: float, depth: int) -> list[float]:
    """``probe``, just taken into ``bracket``, and every probe the next
    depth - 1 steps could take, whichever way each of their comparisons goes."""
    probes = [probe]
    frontier = [bracket]
    for _ in range(depth - 1):
        steps = [
            _golden_step(br, left) for br in frontier if _bracket_open(br) for left in (True, False)
        ]
        frontier = [br for br, _ in steps]
        probes += [p for _, p in steps]
    return probes


def _look_ahead_depth(n_theta: int) -> int:
    """Golden-section steps traced per look-ahead: the largest depth whose
    2^depth - 1 probes fill at most half a solve, and at least 1.

    Looking d steps ahead traces 2^d - 1 probes and compares d of them, so
    a deeper look-ahead saves solves but traces probes that are never
    compared; filling only half a solve timed faster than filling it all
    (2 at 512 nodes, 3 at 256).
    """
    return max(1, (_levels_per_solve(n_theta) // 2 + 1).bit_length() - 1)


def waist_height(
    data: WeierstrassData,
    slab: Slab,
    n_theta: int = 256,
    *,
    _lengths: dict | None = None,
) -> tuple[float, float]:
    """Height minimizing the traced level length, by scan + golden section.

    The scan traces its untraced heights in one batch.  The golden section
    (Kiefer 1953) traces ``depth`` steps ahead: each step's probe is known
    once its comparison is, and only the step after it branches two ways, so
    when a probe is untraced, it is traced in one trace_levels batch with the
    2^depth - 2 probes the next depth - 1 steps could take (depth from
    _look_ahead_depth).  Every probe comes from the same expressions and
    every row of a batch equals its one-height trace, so the search visits
    the heights, and returns the bits, of the one-probe search.  Returns the
    minimizing height and the length there.
    Raises ConvergenceError if the final bracket still holds a slab endpoint:
    the length then falls toward that edge, and the edge is not a waist.

    ``_lengths`` maps heights already traced at ``n_theta`` to their
    lengths, and no height in it is traced again.
    """
    n_theta = _node_count(n_theta)
    traced = dict(_lengths or {})

    def trace(probes):
        untraced = [h for h in probes if h not in traced]
        for curve in trace_levels(data, untraced, n_theta):
            traced[curve.h] = curve.length

    heights = np.linspace(slab.h_minus, slab.h_plus, WAIST_COARSE_HEIGHTS)
    trace(heights)
    i = int(np.argmin([traced[h] for h in heights]))
    a = heights[max(i - 1, 0)]
    b = heights[min(i + 1, len(heights) - 1)]
    bracket = (a, b, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
    depth = _look_ahead_depth(n_theta)
    trace(bracket[2:])
    while _bracket_open(bracket):
        bracket, probe = _golden_step(bracket, traced[bracket[2]] < traced[bracket[3]])
        if probe not in traced:
            trace(_probes_ahead(bracket, probe, depth))
    a, b = bracket[:2]
    held = [edge for edge in (slab.h_minus, slab.h_plus) if a <= edge <= b]
    if held:
        raise ConvergenceError(f"the level length falls toward the slab edge h = {held[0]!r}")
    h_best = 0.5 * (a + b)
    return h_best, trace_level(data, h_best, n_theta).length
