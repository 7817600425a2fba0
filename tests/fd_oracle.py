"""Finite-difference oracle for the closed-form circle-length convexity.

``circle_length_dd`` is a closed form (Parseval).  This route takes the
circle lengths by periodic trapezoid quadrature of |f_minus| + |f_plus|
instead and differences them in t = ln r, so the two share no code.
"""

import math

import numpy as np

from minann.laurent import TWO_PI, trapezoid_circle
from minann.measures import DEFAULT_THETA_NODES


def circle_length_dd_fd(
    data, r: float, step: float = 1e-3, n_theta: int = DEFAULT_THETA_NODES
) -> float:
    """Central difference in t = ln r of trapezoid circle lengths around r."""
    phase = np.exp(1j * TWO_PI * np.arange(n_theta) / n_theta)

    def length(rr: float) -> float:
        z = rr * phase
        vals = np.abs(data.f_minus.evaluate(z)) + np.abs(data.f_plus.evaluate(z))
        return float(trapezoid_circle(vals).real) * 0.5

    t = math.log(r)
    l0 = length(r)
    lm = length(math.exp(t - step))
    lp = length(math.exp(t + step))
    return (lp - 2.0 * l0 + lm) / step**2
