"""Constructors for the concrete families measured by the experiments.

All three families are specified by a handful of complex parameters; the
constructors derive the square-root factor pair, pick an admissible annulus
from the factor root moduli, and return ready-to-measure data.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EmptySlabError,
    EmptyWindowError,
    GeometryError,
    InadmissibleParametersError,
    SchemaError,
)
from .laurent import _FROM_JSON, TWO_PI, AnnulusWindow, LaurentPoly, _count, roots
from .measures import CatenoidParams
from .weierstrass import Parity, Slab, WeierstrassData, _immersion, from_g_pair

DEFAULT_MARGIN = 0.05


def admissible_annuli(
    pairs: Sequence[tuple[LaurentPoly, LaurentPoly]], margin: float = DEFAULT_MARGIN
) -> list[AnnulusWindow | GeometryError]:
    """``admissible_annulus`` of every factor pair at once: each pair's
    window, or the GeometryError that its own call raises.

    The root moduli (``np.hypot`` of the memoized roots, NaN-padded to the
    longest set) are sorted row by row, and the bracketing moduli, the
    unbounded-side fallbacks and the margin shrink are taken on the whole
    stack; every step is one IEEE operation, so each window has the bits of
    a call on its own.  The anchor stays on ``math.log`` and ``math.exp``,
    summed from 0 in sorted order: numpy's log and exp round differently
    from libm on some inputs.
    """
    if not 0.0 < margin < 1.0:
        raise DomainError(f"margin must lie in (0, 1), got {margin!r}")
    windows: list = []
    found = []
    for g_minus, g_plus in pairs:
        try:
            found.append(roots(g_minus) + roots(g_plus))
            windows.append(None)
        except GeometryError as exc:
            windows.append(exc)
    if not found:
        return windows
    width = max(map(len, found))
    z = np.array([row + [math.nan] * (width - len(row)) for row in found], complex)
    moduli = np.sort(np.hypot(z.real, z.imag), axis=1)
    anchors = np.array([
        math.exp(sum(map(math.log, row[:len(zs)])) / len(zs)) if zs else 1.0
        for row, zs in zip(moduli.tolist(), found)
    ])
    anchor = anchors[:, None]
    lo = np.max(np.where(moduli < anchor, moduli, 0.0), axis=1, initial=0.0)
    hi = np.min(np.where(moduli > anchor, moduli, math.inf), axis=1, initial=math.inf)
    tied = (moduli == anchor).any(axis=1)
    lo = np.where(lo == 0.0, anchors / math.e, lo) * (1.0 + margin)
    hi = np.where(hi == math.inf, anchors * math.e, hi) / (1.0 + margin)
    solved = iter(zip(lo.tolist(), hi.tolist(), tied.tolist()))
    for index, window in enumerate(windows):
        if window is not None:
            continue
        r_inner, r_outer, tie = next(solved)
        if tie:
            windows[index] = EmptyWindowError("the anchor radius coincides with a root modulus")
        elif not r_inner < r_outer:
            windows[index] = EmptyWindowError(
                f"margin {margin} empties the gap "
                f"({r_inner / (1 + margin):.6g}, {r_outer * (1 + margin):.6g})"
            )
        else:
            try:
                windows[index] = AnnulusWindow(r_inner, r_outer)
            except GeometryError as exc:
                windows[index] = exc
    return windows


def admissible_annulus(
    g_minus: LaurentPoly, g_plus: LaurentPoly, margin: float = DEFAULT_MARGIN
) -> AnnulusWindow:
    """The root-modulus gap containing the geometric-mean anchor, shrunk.

    The anchor is the geometric mean of all factor root moduli (1 when there
    are none); an unbounded side of the gap falls back to anchor/e or
    anchor*e, and both ends then move inward by the factor (1 + margin).
    The stack of one of ``admissible_annuli``.
    """
    (window,) = admissible_annuli([(g_minus, g_plus)], margin)
    if isinstance(window, GeometryError):
        raise window
    return window


# -- catenoid covers -------------------------------------------------------------


def catenoid_cover(
    k: int, f3: float, center: float = 0.0, margin: float = DEFAULT_MARGIN
) -> tuple[WeierstrassData, CatenoidParams]:
    """The k-fold cover of a vertical catenoid with vertical flux f3.

    The squared combinations are c z^k and c z^-k with c = f3 / 2 pi, so the
    product channel is the constant c and the waist circle |z| = 1 sits at
    height ``center``.
    """
    k = _count(k, "k", 1)
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
    return perturbed_two_cover_pair(c1, eps1, c1.conjugate(), eps1.conjugate(), margin)


def perturbed_two_cover_pair(
    c1: complex, eps1: complex, c2: complex, eps2: complex, margin: float = DEFAULT_MARGIN
) -> WeierstrassData:
    """Variant entry point with independently chosen factors.

    Each factor is checked in turn, and a failure names that factor's
    parameters (c1 and eps1, then c2 and eps2).
    """
    c1, eps1, c2, eps2 = map(complex, (c1, eps1, c2, eps2))
    for k, c, eps in ((1, c1, eps1), (2, c2, eps2)):
        if c == 0:
            raise InadmissibleParametersError(f"c{k} must be nonzero")
        if abs(eps) >= abs(c) / 4.0:
            raise InadmissibleParametersError(f"|eps{k}| must stay below |c{k}|/4")
    gm = LaurentPoly({1: c1, 0: eps1, -1: -(eps1**2) / (2.0 * c1)})
    gp = LaurentPoly({-1: c2, 0: eps2, 1: -(eps2**2) / (2.0 * c2)})
    window = admissible_annulus(gm, gp, margin)
    return from_g_pair(gm, gp, Parity.EVEN, window)


# -- figure-eight family -------------------------------------------------------------


def _three_term_constant(a_m1: complex, a_1: complex) -> complex:
    """a_0, the principal root of -2 a_m1 a_1: the constant term that makes
    the square of a_m1/z + a_0 + a_1 z have zero circle mean."""
    return cmath.sqrt(-2.0 * a_m1 * a_1)


def _three_term_factor(a_m1: complex, a_1: complex) -> LaurentPoly:
    """a_m1/z + a_0 + a_1 z with a_0 = ``_three_term_constant(a_m1, a_1)``."""
    return LaurentPoly({-1: a_m1, 0: _three_term_constant(a_m1, a_1), 1: a_1})


def _figure_eight_data(gm: LaurentPoly, gp: LaurentPoly, margin: float) -> WeierstrassData:
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
    gm = _three_term_factor(a_m1, a_1)
    return _figure_eight_data(gm, gm.conj_reflect(), margin)


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
    return _figure_eight_data(
        _three_term_factor(a_m1, a_1), _three_term_factor(b_m1, b_1), margin
    )


# -- slab clipping -----------------------------------------------------------------


def attained_height_range(data: WeierstrassData) -> tuple[float, float]:
    """Heights whose full level curves fit inside the closed window.

    Along monotone rays a level exists for every theta exactly when h lies
    between the exact boundary extremes of ``_Immersion.attained_range``.
    """
    lo, hi = _immersion(data).attained_range
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


@dataclass(frozen=True)
class Family:
    """A family's constructors, which take their params and ``margin`` by
    keyword and return the data; ``params`` maps each symmetric param to its
    spec default, whose type (int, float or complex) is the param's kind, and
    the second factor's ``pair_params`` are complex with no default."""

    symmetric: Callable[..., WeierstrassData]
    pair: Callable[..., WeierstrassData] | None
    params: dict
    pair_params: tuple[str, ...] = ()


# The one list of family params: family_from_spec, the gen flags and the
# scenario builds all read it.
FAMILIES = {
    "catenoid_cover": Family(
        lambda k, f3, center, margin: catenoid_cover(k, f3, center, margin)[0],
        None, {"k": 1, "f3": TWO_PI, "center": 0.0},
    ),
    "perturbed_two_cover": Family(
        perturbed_two_cover, perturbed_two_cover_pair, {"c1": 1 + 0j, "eps1": 0j}, ("c2", "eps2")
    ),
    "figure_eight": Family(
        figure_eight, figure_eight_pair, {"a_m1": 1 + 0j, "a_1": 1 + 0j}, ("b_m1", "b_1")
    ),
}


def family_from_spec(spec) -> WeierstrassData:
    """Build a family instance from its JSON description.

    The document is ``{"family": name, "params": {...}, "margin": m,
    "symmetric": bool}``.  Params the family does not read, such as a second
    factor's in a symmetric spec, are rejected, and an asymmetric spec must
    name its second factor.
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
    margin = _FROM_JSON[float](spec.get("margin", DEFAULT_MARGIN), "margin")
    symmetric = spec.get("symmetric", True)
    if not isinstance(symmetric, bool):
        raise SchemaError(f"symmetric must be a boolean, got {symmetric!r}")
    kind = "symmetric" if symmetric else "asymmetric"
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None or not (symmetric or family.pair):
        raise SchemaError(f"unknown {kind} family {name!r}")
    second = () if symmetric else family.pair_params
    unread = set(params) - {*family.params, *second}
    if unread:
        raise SchemaError(f"{kind} {name} does not read params {sorted(unread)}")
    missing = set(second) - set(params)
    if missing:
        raise SchemaError(f"asymmetric {name} needs params {sorted(missing)}")
    args = {
        key: _FROM_JSON[type(default)](params.get(key, default), key)
        for key, default in family.params.items()
    }
    args.update((key, _FROM_JSON[complex](params[key], key)) for key in second)
    build = family.symmetric if symmetric else family.pair
    return build(**args, margin=margin)
