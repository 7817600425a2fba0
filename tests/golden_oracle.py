"""Sequential golden-section oracle for ``measures.waist_height``.

The search as it ran before it traced ahead: the coarse scan in one batch,
then one ``trace_level`` per golden-section step (Kiefer 1953), so each
probe is traced only once its own comparison is known.
"""

import math

import numpy as np

from minann.errors import ConvergenceError
from minann.measures import WAIST_COARSE_HEIGHTS, WAIST_TOL, trace_level, trace_levels


def waist_height_sequential(data, slab, n_theta: int = 256) -> tuple[float, float]:
    """(height, length) of the traced level-length minimum on the slab."""
    heights = np.linspace(slab.h_minus, slab.h_plus, WAIST_COARSE_HEIGHTS)
    lengths = [curve.length for curve in trace_levels(data, heights, n_theta)]
    i = int(np.argmin(lengths))
    lo = heights[max(i - 1, 0)]
    hi = heights[min(i + 1, len(heights) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = trace_level(data, c, n_theta).length
    fd = trace_level(data, d, n_theta).length
    while b - a > WAIST_TOL * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = trace_level(data, c, n_theta).length
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = trace_level(data, d, n_theta).length
    held = [edge for edge in (slab.h_minus, slab.h_plus) if a <= edge <= b]
    if held:
        raise ConvergenceError(f"the level length falls toward the slab edge h = {held[0]!r}")
    h_best = 0.5 * (a + b)
    return h_best, trace_level(data, h_best, n_theta).length
