"""Oracles for the closed-form circle integrals.

``circle_length_dd`` is a closed form (Parseval).  This route takes the
circle lengths by periodic trapezoid quadrature of |f_minus| + |f_plus|
instead and differences them in t = ln r, so the two share no code.
``circle_l2`` is Parseval's identity itself, the reference that the
quadrature tests hold the trapezoid rule to.
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


def circle_l2(p, r: float) -> float:
    """Integral of |p|^2 over the circle |z| = r (orthogonality closed form)."""
    return TWO_PI * sum(abs(c) ** 2 * r ** (2 * n) for n, c in p.terms)
