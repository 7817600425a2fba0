"""Reference random ensembles: one draw and one measurement at a time.

The generators draw two normals per ``rng.standard_normal(2)`` call and check
every attempt as soon as it is drawn; the scenario bodies measure each data
set on its own with the one-set closed form.  ``experiments`` draws, solves
and measures whole batches, so its data sets, its reports and the generator
state it leaves must equal these bit for bit.
"""

import math

import numpy as np

from minann.errors import GeometryError, PreconditionError
from minann.experiments import IDENTITY_TOL
from minann.families import _three_term_factor, admissible_annulus
from minann.laurent import TWO_PI, LaurentPoly
from minann.measures import LEVEL_HEIGHT_TOL
from minann.weierstrass import Parity, from_g_pair, period_check


def random_even_vertical_flux(rng, max_exponent=2):
    def factor():
        coeffs = {}
        for n in range(1, max_exponent + 1):
            for sign in (1, -1):
                re, im = rng.standard_normal(2)
                coeffs[sign * n] = complex(re, im)
        cross = sum(coeffs[n] * coeffs[-n] for n in range(1, max_exponent + 1))
        coeffs[0] = 1j * np.sqrt(complex(2.0 * cross))
        return LaurentPoly(coeffs)

    for _ in range(64):
        g_minus = factor()
        g_plus = factor()
        try:
            window = admissible_annulus(g_minus, g_plus)
            data = from_g_pair(g_minus, g_plus, Parity.EVEN, window)
        except GeometryError:
            continue
        if period_check(data).vertical_flux:
            return data
    raise PreconditionError("could not draw admissible random data in 64 tries")


def random_three_term_pair(rng):
    for _ in range(64):
        a_m1, a_1, b_m1, b_1 = (
            complex(*rng.standard_normal(2)) for _ in range(4)
        )
        if 0 in (a_m1, a_1, b_m1, b_1):
            continue
        gm, gp = _three_term_factor(a_m1, a_1), _three_term_factor(b_m1, b_1)
        try:
            window = admissible_annulus(gm, gp)
            return from_g_pair(gm, gp, Parity.EVEN, window)
        except GeometryError:
            continue
    raise PreconditionError("could not draw admissible three-term data in 64 tries")


def lengths(data, r):
    """(L, L'') of one data set at an array of radii, term by term."""
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    lo = data.window.r_inner * (1.0 - LEVEL_HEIGHT_TOL)
    hi = data.window.r_outer * (1.0 + LEVEL_HEIGHT_TOL)
    assert np.all((radii >= lo) & (radii <= hi))
    shift = 0 if data.parity is Parity.EVEN else 1
    terms = [(2 * n + shift, abs(c) ** 2) for g in (data.g_minus, data.g_plus) for n, c in g.terms]
    length = dd = 0
    for e, w in terms:
        power = radii**e
        length = length + w * power
        dd = dd + float(e * e) * w * power
    return math.pi * length, math.pi * dd


def profile_lengths(data, n_grid):
    lo, hi = data.window.log_span()
    span = hi - lo
    radii = np.exp(np.linspace(lo + 1e-3 * span, hi - 1e-3 * span, n_grid))
    return (radii, *lengths(data, radii))


def lemma_3_1(report, data, params, n_theta):
    rng = np.random.default_rng(params["seed"])
    count = params["count"]
    worst = math.inf
    for _ in range(count):
        sample = random_even_vertical_flux(rng, params["max_exponent"])
        _, length, dd = profile_lengths(sample, params["grid"])
        worst = min(worst, float(np.min(dd - 2.0 * length)))
    report.quantities["datasets"] = float(count)
    report.quantities["min_defect"] = worst
    report.add_check("dd_above_2L", worst)


def three_term_residual(data, grid):
    c_minus = TWO_PI * data.g_minus.coefficient(0)
    c_plus = TWO_PI * data.g_plus.coefficient(0)
    defect = (abs(c_minus) ** 2 + abs(c_plus) ** 2) / math.pi
    _, length, dd = profile_lengths(data, grid)
    return defect, float(np.max(np.abs(dd - (4.0 * length - defect)) / length))


def lemma_3_4_identity(report, data, params, n_theta):
    rng = np.random.default_rng(params["seed"])
    count = params["count"]
    worst = 0.0
    for _ in range(count):
        _, residual = three_term_residual(random_three_term_pair(rng), params["grid"])
        worst = max(worst, residual)
    report.quantities["datasets"] = float(count)
    report.quantities["max_relative_residual"] = worst
    report.add_check("identity", IDENTITY_TOL - worst)
