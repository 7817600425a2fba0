"""Constructors for the concrete families measured by the experiments.

All three families are specified by a handful of complex parameters; the
constructors derive the square-root factor pair, pick an admissible annulus
from the factor root moduli, and return ready-to-measure data.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EmptySlabError,
    EmptyWindowError,
    InadmissibleParametersError,
    SchemaError,
)
from .laurent import TWO_PI, AnnulusWindow, LaurentPoly, roots
from .measures import CatenoidParams
from .weierstrass import Parity, Slab, WeierstrassData, _immersion, from_g_pair

DEFAULT_MARGIN = 0.05


def admissible_annulus(
    g_minus: LaurentPoly, g_plus: LaurentPoly, margin: float = DEFAULT_MARGIN
) -> AnnulusWindow:
    """The root-modulus gap containing the geometric-mean anchor, shrunk.

    The anchor is the geometric mean of all factor root moduli (1 when there
    are none); an unbounded side of the gap falls back to anchor/e or
    anchor*e, and both ends then move inward by the factor (1 + margin).
    """
    if not 0.0 < margin < 1.0:
        raise DomainError(f"margin must lie in (0, 1), got {margin!r}")
    moduli = sorted(abs(z) for z in roots(g_minus) + roots(g_plus))
    if moduli:
        anchor = math.exp(sum(math.log(m) for m in moduli) / len(moduli))
    else:
        anchor = 1.0
    lo = max((m for m in moduli if m < anchor), default=0.0)
    hi = min((m for m in moduli if m > anchor), default=math.inf)
    if any(m == anchor for m in moduli):
        raise EmptyWindowError("the anchor radius coincides with a root modulus")
    if lo == 0.0:
        lo = anchor / math.e
    if hi == math.inf:
        hi = anchor * math.e
    lo *= 1.0 + margin
    hi /= 1.0 + margin
    if not lo < hi:
        raise EmptyWindowError(
            f"margin {margin} empties the gap ({lo / (1 + margin):.6g}, {hi * (1 + margin):.6g})"
        )
    return AnnulusWindow(lo, hi)


# -- catenoid covers -------------------------------------------------------------


def catenoid_cover(
    k: int, f3: float, center: float = 0.0, margin: float = DEFAULT_MARGIN
) -> tuple[WeierstrassData, CatenoidParams]:
    """The k-fold cover of a vertical catenoid with vertical flux f3.

    The squared combinations are c z^k and c z^-k with c = f3 / 2 pi, so the
    product channel is the constant c and the waist circle |z| = 1 sits at
    height ``center``.
    """
    k = int(k)
    if k < 1:
        raise DomainError("cover order must be a positive integer")
    if not (math.isfinite(f3) and f3 > 0):
        raise DomainError("vertical flux must be positive")
    s = math.sqrt(f3 / TWO_PI)
    if k % 2 == 0:
        g_minus = LaurentPoly.monomial(k // 2, s)
        g_plus = LaurentPoly.monomial(-(k // 2), s)
        parity = Parity.EVEN
    else:
        g_minus = LaurentPoly.monomial((k - 1) // 2, s)
        g_plus = LaurentPoly.monomial(-(k + 1) // 2, s)
        parity = Parity.ODD
    window = admissible_annulus(g_minus, g_plus, margin)
    data = from_g_pair(g_minus, g_plus, parity, window, height_offset=center)
    return data, CatenoidParams(f3=float(f3), center=float(center), cover=k)


# -- perturbed double covers -------------------------------------------------------


@dataclass(frozen=True)
class PerturbedCoverParams:
    """Coefficients (c z + eps + delta/z, c'/z + eps' + delta' z) with the

    vanishing-mean constraints eps^2 + 2 delta c = 0 on each factor.
    """

    c1: complex
    eps1: complex
    delta1: complex
    c2: complex
    eps2: complex
    delta2: complex

    def validate(self, tol: float = 1e-12):
        s = max(abs(self.c1), abs(self.c2), 1e-300)
        if abs(self.eps1**2 + 2.0 * self.delta1 * self.c1) > tol * s**2:
            raise InadmissibleParametersError("first factor violates its mean constraint")
        if abs(self.eps2**2 + 2.0 * self.delta2 * self.c2) > tol * s**2:
            raise InadmissibleParametersError("second factor violates its mean constraint")

    def g_minus(self) -> LaurentPoly:
        return LaurentPoly({1: self.c1, 0: self.eps1, -1: self.delta1})

    def g_plus(self) -> LaurentPoly:
        return LaurentPoly({-1: self.c2, 0: self.eps2, 1: self.delta2})


def _perturbed_data(params: PerturbedCoverParams, margin: float) -> WeierstrassData:
    params.validate()
    gm, gp = params.g_minus(), params.g_plus()
    window = admissible_annulus(gm, gp, margin)
    return from_g_pair(gm, gp, Parity.EVEN, window)


def perturbed_two_cover(
    c1: complex, eps1: complex, margin: float = DEFAULT_MARGIN
) -> WeierstrassData:
    """Double catenoid cover with an even perturbation of size eps1.

    The derived coefficient delta1 = -eps1^2 / (2 c1) keeps the factor means
    zero; the symmetric second factor takes conjugated parameters, so this is
    ``perturbed_two_cover_pair(c1, eps1, conj(c1), conj(eps1))``.
    """
    c1 = complex(c1)
    eps1 = complex(eps1)
    if c1 == 0:
        raise InadmissibleParametersError("c1 must be nonzero")
    if abs(eps1) >= abs(c1) / 4.0:
        raise InadmissibleParametersError("|eps1| must stay below |c1|/4")
    delta1 = -(eps1**2) / (2.0 * c1)
    params = PerturbedCoverParams(
        c1=c1,
        eps1=eps1,
        delta1=delta1,
        c2=c1.conjugate(),
        eps2=eps1.conjugate(),
        delta2=delta1.conjugate(),
    )
    return _perturbed_data(params, margin)


def perturbed_two_cover_pair(
    c1: complex, eps1: complex, c2: complex, eps2: complex, margin: float = DEFAULT_MARGIN
) -> WeierstrassData:
    """Variant entry point with independently chosen factors."""
    c1, eps1, c2, eps2 = map(complex, (c1, eps1, c2, eps2))
    if c1 == 0 or c2 == 0:
        raise InadmissibleParametersError("cover coefficients must be nonzero")
    if abs(eps1) >= abs(c1) / 4.0 or abs(eps2) >= abs(c2) / 4.0:
        raise InadmissibleParametersError("perturbations must stay below |c|/4")
    params = PerturbedCoverParams(
        c1=c1,
        eps1=eps1,
        delta1=-(eps1**2) / (2.0 * c1),
        c2=c2,
        eps2=eps2,
        delta2=-(eps2**2) / (2.0 * c2),
    )
    return _perturbed_data(params, margin)


# -- figure-eight family -------------------------------------------------------------


@dataclass(frozen=True)
class FigureEightParams:
    """Three-term factors with zero squared means; winding class zero."""

    a_m1: complex
    a_0: complex
    a_1: complex
    b_m1: complex
    b_0: complex
    b_1: complex

    def validate(self, tol: float = 1e-12):
        s = max(abs(self.a_m1), abs(self.a_1), abs(self.b_m1), abs(self.b_1), 1e-300)
        if abs(self.a_0**2 + 2.0 * self.a_m1 * self.a_1) > tol * s**2:
            raise InadmissibleParametersError("first factor violates its mean constraint")
        if abs(self.b_0**2 + 2.0 * self.b_m1 * self.b_1) > tol * s**2:
            raise InadmissibleParametersError("second factor violates its mean constraint")

    def g_minus(self) -> LaurentPoly:
        return LaurentPoly({-1: self.a_m1, 0: self.a_0, 1: self.a_1})

    def g_plus(self) -> LaurentPoly:
        return LaurentPoly({-1: self.b_m1, 0: self.b_0, 1: self.b_1})


def _figure_eight_data(params: FigureEightParams, margin: float) -> WeierstrassData:
    params.validate()
    gm, gp = params.g_minus(), params.g_plus()
    window = admissible_annulus(gm, gp, margin)
    # Each factor must contribute one root inside and one outside the window,
    # otherwise the level curves do not close up into a figure-eight pattern.
    for g in (gm, gp):
        mods = sorted(abs(z) for z in roots(g))
        if len(mods) != 2 or not (mods[0] < window.r_inner and mods[1] > window.r_outer):
            raise InadmissibleParametersError(
                "factor roots must straddle the admissible annulus"
            )
    return from_g_pair(gm, gp, Parity.EVEN, window)


def figure_eight(
    a_m1: complex, a_1: complex, margin: float = DEFAULT_MARGIN
) -> WeierstrassData:
    """Winding-zero data whose levels trace a single figure-eight.

    a_0 is the principal root of -2 a_m1 a_1; the symmetric partner factor
    takes conjugate-reflected coefficients.
    """
    a_m1 = complex(a_m1)
    a_1 = complex(a_1)
    if a_m1 == 0 or a_1 == 0:
        raise InadmissibleParametersError("the outer coefficients must be nonzero")
    a_0 = cmath.sqrt(-2.0 * a_m1 * a_1)
    params = FigureEightParams(
        a_m1=a_m1,
        a_0=a_0,
        a_1=a_1,
        b_m1=a_1.conjugate(),
        b_0=a_0.conjugate(),
        b_1=a_m1.conjugate(),
    )
    return _figure_eight_data(params, margin)


def figure_eight_pair(
    a_m1: complex, a_1: complex, b_m1: complex, b_1: complex, margin: float = DEFAULT_MARGIN
) -> WeierstrassData:
    """Variant entry point with independently chosen factors.

    a_0 and b_0 are the principal roots of -2 a_m1 a_1 and -2 b_m1 b_1.  So
    a pair with conjugate-reflected outer coefficients is not the symmetric
    family: ``figure_eight(1, 1)`` takes b_0 = conj(a_0) = -i sqrt 2, making
    g_plus the conjugate reflection of g_minus, while
    ``figure_eight_pair(1, 1, 1, 1)`` takes b_0 = +i sqrt 2.
    """
    a_m1, a_1, b_m1, b_1 = map(complex, (a_m1, a_1, b_m1, b_1))
    if 0 in (a_m1, a_1, b_m1, b_1):
        raise InadmissibleParametersError("the outer coefficients must be nonzero")
    params = FigureEightParams(
        a_m1=a_m1,
        a_0=cmath.sqrt(-2.0 * a_m1 * a_1),
        a_1=a_1,
        b_m1=b_m1,
        b_0=cmath.sqrt(-2.0 * b_m1 * b_1),
        b_1=b_1,
    )
    return _figure_eight_data(params, margin)


# -- slab clipping -----------------------------------------------------------------


def attained_height_range(data: WeierstrassData, n_theta: int = 512) -> tuple[float, float]:
    """Heights whose full level curves fit inside the window.

    Along monotone rays a level exists for every theta exactly when h lies
    between the worst-case boundary heights.
    """
    imm = _immersion(data)
    thetas = TWO_PI * np.arange(int(n_theta)) / int(n_theta)
    h_in = imm.height(data.window.r_inner * np.exp(1j * thetas))
    h_out = imm.height(data.window.r_outer * np.exp(1j * thetas))
    lo = float(np.max(np.minimum(h_in, h_out)))
    hi = float(np.min(np.maximum(h_in, h_out)))
    if not lo < hi:
        raise EmptySlabError("no height is attained on every ray of the window")
    return lo, hi


def clip_to_slab(data: WeierstrassData, slab: Slab) -> Slab:
    """Largest slab contained in both the request and the attained range."""
    lo, hi = attained_height_range(data)
    new_lo = max(lo, slab.h_minus)
    new_hi = min(hi, slab.h_plus)
    if not new_lo < new_hi:
        raise EmptySlabError(
            f"slab ({slab.h_minus}, {slab.h_plus}) misses the attained range ({lo:.6g}, {hi:.6g})"
        )
    return Slab(new_lo, new_hi)


# -- JSON family specs ----------------------------------------------------------------


def _complex_from_json(value, what: str) -> complex:
    if isinstance(value, (int, float, complex)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise SchemaError(f"{what} must be a number or an [re, im] pair")


# The params each family reads, keyed by (family, symmetric).
_SPEC_PARAMS = {
    ("catenoid_cover", True): {"k", "f3", "center"},
    ("perturbed_two_cover", True): {"c1", "eps1"},
    ("perturbed_two_cover", False): {"c1", "eps1", "c2", "eps2"},
    ("figure_eight", True): {"a_m1", "a_1"},
    ("figure_eight", False): {"a_m1", "a_1", "b_m1", "b_1"},
}


def family_from_spec(spec) -> tuple[WeierstrassData, CatenoidParams | None]:
    """Build a family instance from its JSON description.

    The document is ``{"family": name, "params": {...}, "margin": m,
    "symmetric": bool}``; the catenoid entry also returns its closed-form
    parameters.  Params the family does not read, such as a second factor's
    in a symmetric spec, are rejected.
    """
    if not isinstance(spec, dict):
        raise SchemaError("family spec must be a JSON object")
    allowed = {"family", "params", "margin", "symmetric"}
    unknown = set(spec) - allowed
    if unknown:
        raise SchemaError(f"unknown family fields: {sorted(unknown)}")
    name = spec.get("family")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("family params must be an object")
    margin = float(spec.get("margin", DEFAULT_MARGIN))
    symmetric = bool(spec.get("symmetric", True))
    kind = "symmetric" if symmetric else "asymmetric"
    if (name, symmetric) not in _SPEC_PARAMS:
        raise SchemaError(f"unknown {kind} family {name!r}")
    unread = set(params) - _SPEC_PARAMS[name, symmetric]
    if unread:
        raise SchemaError(f"{kind} {name} does not read params {sorted(unread)}")
    if name == "catenoid_cover":
        return catenoid_cover(
            int(params.get("k", 1)),
            float(params.get("f3", TWO_PI)),
            center=float(params.get("center", 0.0)),
            margin=margin,
        )
    if name == "perturbed_two_cover":
        c1 = _complex_from_json(params.get("c1", 1.0), "c1")
        eps1 = _complex_from_json(params.get("eps1", 0.0), "eps1")
        if symmetric:
            return perturbed_two_cover(c1, eps1, margin=margin), None
        c2 = _complex_from_json(params.get("c2", c1.conjugate()), "c2")
        eps2 = _complex_from_json(params.get("eps2", eps1.conjugate()), "eps2")
        return perturbed_two_cover_pair(c1, eps1, c2, eps2, margin=margin), None
    a_m1 = _complex_from_json(params.get("a_m1", 1.0), "a_m1")
    a_1 = _complex_from_json(params.get("a_1", 1.0), "a_1")
    if symmetric:
        return figure_eight(a_m1, a_1, margin=margin), None
    b_m1 = _complex_from_json(params.get("b_m1", a_1.conjugate()), "b_m1")
    b_1 = _complex_from_json(params.get("b_1", a_m1.conjugate()), "b_1")
    return figure_eight_pair(a_m1, a_1, b_m1, b_1, margin=margin), None
