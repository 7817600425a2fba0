"""Reference loop for ``measures._solve_levels``, bookkeeping spelled out.

Every step multiplies the residual by the ray sign, takes the scale
max(1, |t|) and its ulp, and forms the bisection midpoint on every ray.
The solve in ``measures`` skips what it can prove redundant, so its radii
must equal these bit for bit.  The ray heights come from
``measures._ray_height`` at call time, so a test that patches it patches
both solves.
"""

import numpy as np

from minann import measures
from minann.errors import ConvergenceError
from minann.measures import LEVEL_SOLVE_MAX_STEPS, LEVEL_SOLVE_TOL, _levels_per_solve, _ray_setup


def _solve(data, hs, rays):
    sign, modes = rays.sign, rays.modes
    lo, hi = data.window.log_span()
    target = hs[:, None]
    f_in = sign * (rays.ends[0] - target)
    f_out = sign * (rays.ends[1] - target)
    t = np.clip(lo + (hi - lo) * f_in / (f_in - f_out), lo, hi)
    tlo = np.full(t.shape, lo)
    thi = np.full(t.shape, hi)
    active = np.ones(t.shape, dtype=bool)
    for _ in range(LEVEL_SOLVE_MAX_STEPS):
        value, slope = measures._ray_height(modes, t)  # looked up per call, as patched
        resid = value - target
        above = sign * resid > 0
        tlo = np.where(above, tlo, t)
        thi = np.where(above, t, thi)
        step = resid / slope
        t_new = t - step
        newton = (t_new >= tlo) & (t_new <= thi)
        scale = np.maximum(1.0, np.abs(t))
        done = newton & (np.abs(step) <= LEVEL_SOLVE_TOL * scale)
        done |= thi - tlo <= 4.0 * np.spacing(scale)
        np.copyto(t, np.where(newton, t_new, 0.5 * (tlo + thi)), where=active)
        active &= ~done
        if not active.any():
            return np.exp(t)
    raise ConvergenceError("reference level solve did not converge")


def level_radii_reference(data, heights, thetas, levels_per_solve=None):
    """Radii of shape (len(heights), len(thetas)), ``levels_per_solve``
    heights per solve (default: as many as ``measures`` puts in one)."""
    heights = np.asarray(heights, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    step = levels_per_solve or _levels_per_solve(thetas.size)
    rays = _ray_setup(data, thetas.tobytes())
    return np.concatenate([_solve(data, heights[i : i + step], rays) for i in range(0, heights.size, step)])
