"""Weierstrass data on annuli: construction, periods, flux, and the immersion.

A data set is a pair of Laurent expressions (the square roots of the two
conjugate combinations of the horizontal coordinates) together with a parity
flag.  Every derived object -- the three coordinate differentials, heights,
the immersion, the conformal factor -- comes from exact coefficient algebra
on that pair.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DomainError,
    InadmissibleWindowError,
    MultivaluedDataError,
    NonMonotoneRayError,
    PreconditionError,
    SchemaError,
)
from .laurent import (
    COEFF_REL_TOL,
    PRUNE_EPS,
    TWO_PI,
    AnnulusWindow,
    LaurentPoly,
    _check_points,
    _dense_rows,
    _real_from_json,
    antiderivative,
    poly_from_triples,
    poly_to_triples,
    roots,
    winding_on_circle,
)

# The widest dense exponent span of a factor pair that from_g_pair accepts;
# a k-fold catenoid cover spans k + 1 exponents.
MAX_DENSE_WIDTH = 2048


class Parity(Enum):
    """Even data squares directly; odd data squares after one z shift."""

    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class Slab:
    """Open horizontal slab h_minus < x3 < h_plus."""

    h_minus: float
    h_plus: float

    def __post_init__(self):
        if not (math.isfinite(self.h_minus) and math.isfinite(self.h_plus)):
            raise DomainError("slab heights must be finite")
        if not self.h_minus < self.h_plus:
            raise DomainError(f"need h_minus < h_plus, got {self.h_minus}, {self.h_plus}")

    @classmethod
    def symmetric(cls, half_width: float) -> Slab:
        """The slab -|half_width| < x3 < |half_width|; DomainError if half_width is 0."""
        if half_width == 0:
            raise DomainError(f"a symmetric slab needs a nonzero half-width, got {half_width!r}")
        return cls(-abs(half_width), abs(half_width))

    @property
    def center(self) -> float:
        return 0.5 * (self.h_minus + self.h_plus)

    @property
    def half_width(self) -> float:
        return 0.5 * (self.h_plus - self.h_minus)


@dataclass(frozen=True)
class FluxVector:
    f1: float
    f2: float
    f3: float


@dataclass(frozen=True)
class PeriodVerdict:
    """Relative slacks of the period conditions, each positive when it holds:
    the circle means of f-/f+ and Im of the vertical dz residue."""

    flux_slack: float
    log_slack: float
    residues: tuple[complex, complex, complex]

    @property
    def vertical_flux(self) -> bool:
        return self.flux_slack > 0.0

    @property
    def well_defined_slack(self) -> float:
        return min(self.flux_slack, self.log_slack)

    @property
    def well_defined(self) -> bool:
        return self.well_defined_slack > 0.0


@dataclass(frozen=True)
class WeierstrassData:
    """Admissible data on an annulus window: the square-root pair, its parity
    and window, and ``height_offset``, which shifts the normalized third
    coordinate (family constructors use it to place a waist at a prescribed
    height).  Build it with ``from_g_pair``.

    Everything else is derived on first read and cached on the value:
    ``f_minus``/``f_plus`` are the squared combinations, ``psi3`` the product
    channel, ``phi1..phi3`` the coordinate differentials (coefficients of
    dz), and ``period_check``'s verdict is cached the same way.  Equality and
    hashing read the five fields only.
    """

    g_minus: LaurentPoly
    g_plus: LaurentPoly
    parity: Parity
    window: AnnulusWindow
    height_offset: float = 0.0

    def _odd_shift(self, p: LaurentPoly) -> LaurentPoly:
        return p.shifted(1) if self.parity is Parity.ODD else p

    @cached_property
    def f_minus(self) -> LaurentPoly:
        return self._odd_shift(self.g_minus * self.g_minus)

    @cached_property
    def f_plus(self) -> LaurentPoly:
        return self._odd_shift(self.g_plus * self.g_plus)

    @cached_property
    def psi3(self) -> LaurentPoly:
        return self._odd_shift(self.g_minus * self.g_plus)

    # phi1 = (f_minus - f_plus)/(2z) and phi2 = i(f_minus + f_plus)/(2z), each
    # in one construction; scaling by 0.5 and 0.5j is exact.
    @cached_property
    def phi1(self) -> LaurentPoly:
        return LaurentPoly(
            [(n - 1, 0.5 * c) for n, c in self.f_minus.terms]
            + [(n - 1, -0.5 * c) for n, c in self.f_plus.terms]
        )

    @cached_property
    def phi2(self) -> LaurentPoly:
        return LaurentPoly(
            [(n - 1, 0.5j * c) for n, c in self.f_minus.terms]
            + [(n - 1, 0.5j * c) for n, c in self.f_plus.terms]
        )

    @cached_property
    def phi3(self) -> LaurentPoly:
        return self.psi3.shifted(-1)

    @cached_property
    def _period_verdict(self) -> PeriodVerdict:
        return period_checks((self,))[0]


def from_g_pair(
    g_minus: LaurentPoly,
    g_plus: LaurentPoly,
    parity: Parity,
    window: AnnulusWindow,
    height_offset: float = 0.0,
) -> WeierstrassData:
    """Assemble data from the square-root pair, checking admissibility.

    Admissibility means neither factor vanishes on the closed window, so the
    conformal factor is positive and the Gauss direction is defined there.
    A pair whose dense exponent span (z^-1 and z^0 included) is wider than
    MAX_DENSE_WIDTH raises DomainError first: the root solve and the period
    check allocate arrays quadratic in that width.
    """
    if g_minus.is_zero or g_plus.is_zero:
        raise DomainError("square-root factors must be nonzero")
    lo, width = _dense_span(
        min(g_minus.lowest, g_plus.lowest), max(g_minus.highest, g_plus.highest)
    )
    if width > MAX_DENSE_WIDTH:
        raise DomainError(
            f"the factor pair spans z^{lo} to z^{lo + width - 1}, a dense width of "
            f"{width} above the limit {MAX_DENSE_WIDTH}"
        )
    offending = [
        m for m in map(abs, roots(g_minus) + roots(g_plus))
        if window.r_inner <= m <= window.r_outer
    ]
    if offending:
        raise InadmissibleWindowError(offending)
    return WeierstrassData(g_minus, g_plus, parity, window, float(height_offset))


def period_check(data: WeierstrassData) -> PeriodVerdict:
    """Vanishing circle means of the squared combinations + real log term.

    The first condition kills both horizontal periods and the horizontal
    flux; the second makes the third coordinate single-valued.  This is
    the stack-of-one call of ``period_checks``, made once per data set and
    cached on it.
    """
    return data._period_verdict


def period_checks(stack: Sequence[WeierstrassData]) -> list[PeriodVerdict]:
    """The ``PeriodVerdict`` of every data set in ``stack``, in one pass.

    The factor pairs are laid out as dense rows on one exponent span, and
    f-, f+ and psi3 of the whole stack are formed in one product: each
    coefficient is summed from 0 in the order of the double loop of
    ``LaurentPoly.__mul__``, in real arithmetic with ``np.hypot`` moduli,
    so it has the bits of the Laurent product (a padding zero adds a
    signed zero, which leaves every sum from 0 unchanged).  The odd-parity
    shift is read off as the slot of z^-1.  Only the constant coefficients
    and the largest moduli are kept; no Laurent product is built.
    """
    if not stack:
        return []
    count = len(stack)
    factors = [d.g_minus for d in stack] + [d.g_plus for d in stack]
    lo, width = _dense_span(min(p.lowest for p in factors), max(p.highest for p in factors))
    g = _dense_rows(factors, [lo] * len(factors), width)  # g- of every set, then g+
    # Product rows k, k + K and k + 2K are f-, f+ and psi3 of the k-th of K sets.
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = _dense_product(np.concatenate((g, g[:count])), np.concatenate((g, g[count:])))
        modulus = np.hypot(re, im)
    if not np.isfinite(modulus).all():
        raise DomainError("a coefficient of f-, f+ or psi3 is not finite")
    # Construction prunes coefficients below PRUNE_EPS to an absent 0j.
    modulus[modulus < PRUNE_EPS] = 0.0
    slot = np.array([-2 * lo - (d.parity is Parity.ODD) for d in stack] * 3)
    at = (np.arange(len(slot)), slot)
    const_abs = modulus[at]
    kept = const_abs > 0.0
    const_re, const_im = (np.where(kept, part[at], 0.0).reshape(3, count) for part in (re, im))
    const_abs = const_abs.reshape(3, count)
    largest = modulus.max(axis=1).reshape(3, count)
    flux_slack = COEFF_REL_TOL - np.maximum(const_abs[0], const_abs[1]) / np.maximum(
        largest[0], largest[1]
    )
    # phi3 = psi3 / z has psi3's coefficients.
    log_slack = COEFF_REL_TOL - np.abs(const_im[2]) / np.maximum(largest[2], 1e-300)
    verdicts = []
    columns = (flux_slack, log_slack, *const_re, *const_im)
    for flux_k, log_k, mr, pr, cr, mi, pi, ci in zip(*(col.tolist() for col in columns)):
        m, p = complex(mr, mi), complex(pr, pi)
        # The dz residues of phi1..phi3, summed from 0j in the order phi1 and
        # phi2 are constructed in, so they keep its bits (and its signed zeros).
        residues = (0j + 0.5 * m + -0.5 * p, 0j + 0.5j * m + 0.5j * p, complex(cr, ci))
        verdicts.append(PeriodVerdict(flux_k, log_k, residues))
    return verdicts


def _dense_span(lowest: int, highest: int) -> tuple[int, int]:
    """(lo, width) of the dense rows for exponents lowest..highest, widened
    to hold z^-1 and z^0 so that every product has the slots a verdict reads."""
    lo = min(-1, lowest)
    return lo, max(0, highest) - lo + 1


def _dense_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the row-wise products of two (k, w)
    coefficient stacks, each slot summed from 0 in ascending order of a's
    index.  The products a_i b_j are formed one row of i at a time, with
    Python's complex multiply written out, so memory grows with k w only."""
    ar, ai = a.real, a.imag
    br, bi = b.real, b.imag
    width = a.shape[1]
    re = np.zeros((a.shape[0], 2 * width - 1))
    im = np.zeros((a.shape[0], 2 * width - 1))
    for i in range(width):
        re[:, i : i + width] += ar[:, i, None] * br - ai[:, i, None] * bi
        im[:, i : i + width] += ar[:, i, None] * bi + ai[:, i, None] * br
    return re, im


def flux(data: WeierstrassData) -> FluxVector:
    """Flux across a core circle: 2 pi Re of each dz residue."""
    verdict = period_check(data)
    if not verdict.well_defined:
        raise PreconditionError("flux requires period-problem-solving data")
    r1, r2, r3 = verdict.residues
    return FluxVector(TWO_PI * r1.real, TWO_PI * r2.real, TWO_PI * r3.real)


class _Immersion:
    """Cached antiderivatives and normalization shifts for one data set.

    Its evaluators take complex points that are already checked (the public
    ``height`` and ``immerse`` check them where they come in) and form 1/z
    once per call, unless ``height`` is given it.
    """

    def __init__(self, data: WeierstrassData):
        self.data = data
        self.parts = [antiderivative(p) for p in (data.phi1, data.phi2, data.phi3)]
        self.scales = [
            max(p.max_abs_coeff, 1e-300) for p in (data.phi1, data.phi2, data.phi3)
        ]
        log_rho = math.log(data.window.geometric_mean)
        # Subtracting the circle mean over the geometric-mean circle keeps the
        # immersion centered; only the constant coefficient and the log term
        # survive averaging.
        self.shifts = [
            part.poly_part.coefficient(0).real + part.log_coefficient.real * log_rho
            for part in self.parts
        ]

    def _check_single_valued(self, idx: int, exc: str):
        part = self.parts[idx]
        if abs(part.log_coefficient.imag) > COEFF_REL_TOL * self.scales[idx]:
            raise MultivaluedDataError(exc)

    def coordinate(self, idx: int, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Coordinate idx at checked complex points z, with w = 1/z."""
        part = self.parts[idx]
        val = part.poly_part._horner(z, w).real if not part.poly_part.is_zero else 0.0
        val = val + part.log_coefficient.real * np.log(np.abs(z))
        val = val - self.shifts[idx]
        if idx == 2:
            val = val + self.data.height_offset
        return val

    def height(self, z: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
        self._check_single_valued(2, "the vertical log coefficient is not real")
        return self.coordinate(2, z, 1.0 / z if w is None else w)

    def ray_modes(self, phase: np.ndarray):
        """The height on the rays z = e^{t + i theta_j} as real exponential sums in t.

        ``phase`` holds e^{i theta_j}.  With (n, c_n) the terms of the height's
        polynomial part and c its log coefficient, coordinate(2, z) is
        sum_n A_n(theta_j) e^{n t} + Re(c) t + b, where
        A_n(theta) = Re(c_n e^{i n theta}) and b is height_offset less the
        centring shift.
        Returns (exponents, amplitudes of shape (terms, rays), Re(c), b).
        """
        self._check_single_valued(2, "the vertical log coefficient is not real")
        part = self.parts[2]
        exponents = np.array([n for n, _ in part.poly_part.terms], dtype=float)
        coeffs = np.array([c for _, c in part.poly_part.terms], dtype=complex)
        amplitudes = (coeffs[:, None] * phase ** exponents[:, None]).real
        offset = self.data.height_offset - self.shifts[2]
        return exponents, amplitudes, part.log_coefficient.real, offset

    def point(self, z: np.ndarray) -> np.ndarray:
        self._check_single_valued(2, "the vertical log coefficient is not real")
        for idx in (0, 1):
            self._check_single_valued(idx, "a horizontal log coefficient is not real")
        w = 1.0 / z
        coords = [self.coordinate(idx, z, w) + np.zeros(z.shape) for idx in range(3)]
        return np.stack(coords, axis=-1)

    @cached_property
    def ray_sign(self) -> float:
        """Sign of d(height)/dr, the same on every ray of the closed window."""
        return _ray_sign(self.data)

    @cached_property
    def attained_range(self) -> tuple[float, float]:
        """The largest height on the lower window circle and the smallest on the upper.

        The height's circle mean is Re(c) log r + const, so on monotone rays
        the lower circle is the inner one exactly when Re(c) > 0; ordering the
        circles by Re(c) needs no ray-sign certificate.
        """
        self._check_single_valued(2, "the vertical log coefficient is not real")
        part = self.parts[2]
        slope = part.log_coefficient.real
        circles = (self.data.window.r_inner, self.data.window.r_outer)
        lower, upper = circles if slope >= 0.0 else circles[::-1]
        # coordinate(2, z)'s order of operations on |z| = r
        lower_max = _circle_extremes(part.poly_part, lower)[1] + slope * math.log(lower)
        upper_min = _circle_extremes(part.poly_part, upper)[0] + slope * math.log(upper)
        shift, offset = self.shifts[2], self.data.height_offset
        return lower_max - shift + offset, upper_min - shift + offset


def _circle_extremes(p: LaurentPoly, r: float) -> tuple[float, float]:
    """Exact min and max of Re p on the circle |z| = r.

    With q(u) = p(r u) = sum c_n r^n u^n, the theta-derivative of Re q on
    |u| = 1 is Re D for D = sum i n c_n r^n u^n, and there conj(D) equals
    D.conj_reflect(), so the critical points are roots of the Laurent
    expression D + D.conj_reflect().  Re q is evaluated at every root pushed
    onto |u| = 1: the critical points are among them, and no value there
    lies outside the range.  A zero derivative means Re q is constant.
    """
    deriv = LaurentPoly(tuple((n, 1j * n * c * r**n) for n, c in p.terms))
    critical = deriv + deriv.conj_reflect()
    if critical.is_zero:
        u = np.ones(1, dtype=complex)
    else:
        u = np.array(roots(critical))
        u /= np.abs(u)
    values = p.evaluate(r * u).real
    return float(values.min()), float(values.max())


def _ray_sign(data: WeierstrassData) -> float:
    """Certified sign of Re psi3 on the closed window.

    d(height)/dr = Re psi3(z) / |z| along rays, and Re psi3 is harmonic, so
    its extremes on the annulus lie on the two boundary circles, where
    _circle_extremes finds them.  The sign is decided when the extremes on
    both circles clear zero by COEFF_REL_TOL * B, with B = sum |c_n| r^n the
    bound of |psi3| on the circle; otherwise NonMonotoneRayError.
    """
    psi3 = data.psi3
    extremes, slacks = [], []
    for r in (data.window.r_inner, data.window.r_outer):
        extremes.append(_circle_extremes(psi3, r))
        slacks.append(COEFF_REL_TOL * sum(abs(c) * r**n for n, c in psi3.terms))
    if all(lo > s for (lo, _), s in zip(extremes, slacks)):
        return 1.0
    if all(hi < -s for (_, hi), s in zip(extremes, slacks)):
        return -1.0
    raise NonMonotoneRayError("height is not monotone along some ray of the window")


@lru_cache(maxsize=64)
def _immersion(data: WeierstrassData) -> _Immersion:
    return _Immersion(data)


def height(data: WeierstrassData, z):
    """Third coordinate of the immersion (normalized, offset applied)."""
    arr = _check_points(z)
    val = _immersion(data).height(arr)
    return float(val) if arr.ndim == 0 else val


def immerse(data: WeierstrassData, z):
    """Immersion point(s) in R^3; shape (..., 3)."""
    arr = _check_points(z)
    return _immersion(data).point(arr)


def metric_lambda_samples(data: WeierstrassData, z: np.ndarray, *, _inverse=None) -> np.ndarray:
    """Vectorized conformal factor for tracing and quadrature.

    The points are checked and inverted once for all three differentials;
    ``_inverse`` is 1/z of points a certified level solve formed, not checked again.
    """
    if _inverse is None:
        z = _check_points(z)
        _inverse = 1.0 / z
    total = np.abs(data.phi1._horner(z, _inverse)) ** 2
    for p in (data.phi2, data.phi3):
        total += np.abs(p._horner(z, _inverse)) ** 2
    return np.sqrt(0.5 * total)


def symmetry_check(data: WeierstrassData) -> bool:
    """Does inversion through the unit circle act by a horizontal reflection?"""
    return symmetry_margin(data) > 0.0


def symmetry_margin(data: WeierstrassData) -> float:
    """Relative slack of the reflection identities; positive when they hold.

    An exact coefficient criterion for either parity.  Even data: the plus
    factor is the conjugate-reflected minus factor.  Odd data: with
    w = 1/conj(z), g_plus(w) conj(g_plus(z)) = g_minus(w) conj(g_minus(z))
    and psi3(w) = conj(psi3(z)) on every circle; as Laurent expressions
    these read conj_reflect(g_plus) g_plus = conj_reflect(g_minus) g_minus
    and conj_reflect(psi3) = psi3.  Each identity a = b contributes
    COEFF_REL_TOL - |a - b| / max(|a|, |b|) in largest-coefficient norm.
    """
    gm, gp = data.g_minus, data.g_plus
    if data.parity is Parity.EVEN:
        identities = [(gp, gm.conj_reflect())]
    else:
        identities = [
            (gp.conj_reflect() * gp, gm.conj_reflect() * gm),
            (data.psi3.conj_reflect(), data.psi3),
        ]
    return min(
        COEFF_REL_TOL - (a - b).max_abs_coeff / max(a.max_abs_coeff, b.max_abs_coeff)
        for a, b in identities
    )


def gauss_winding(data: WeierstrassData, r: float) -> int:
    """Signed winding of the Gauss direction on |z| = r.

    Swapping the two square-root factors reverses the sign while describing
    the same surface, so only the class |k| is geometric; the sign convention
    here makes a k-fold catenoid cover come out as +k.
    """
    if not data.window.contains(r):
        raise DomainError(f"radius {r!r} lies outside the data window")
    return winding_on_circle(data.g_minus, r) - winding_on_circle(data.g_plus, r)


def winding_class(data: WeierstrassData, r: float | None = None) -> int:
    """|gauss_winding|: the class under the sign identification k ~ -k."""
    if r is None:
        r = data.window.geometric_mean
    return abs(gauss_winding(data, r))


# -- serialization -------------------------------------------------------------


def data_to_json(data: WeierstrassData) -> dict:
    doc = {
        "parity": data.parity.value,
        "g_minus": poly_to_triples(data.g_minus),
        "g_plus": poly_to_triples(data.g_plus),
        "window": {"r_inner": data.window.r_inner, "r_outer": data.window.r_outer},
    }
    if data.height_offset != 0.0:
        doc["height_offset"] = data.height_offset
    return doc


def data_from_json(doc) -> WeierstrassData:
    if not isinstance(doc, dict):
        raise SchemaError("data document must be a JSON object")
    allowed = {"parity", "g_minus", "g_plus", "window", "height_offset"}
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"unknown data fields: {sorted(unknown)}")
    missing = {"parity", "g_minus", "g_plus", "window"} - set(doc)
    if missing:
        raise SchemaError(f"missing data fields: {sorted(missing)}")
    try:
        parity = Parity(doc["parity"])
    except ValueError as exc:
        raise SchemaError(f"bad parity {doc['parity']!r}") from exc
    win = doc["window"]
    if not isinstance(win, dict) or set(win) != {"r_inner", "r_outer"}:
        raise SchemaError("window must be an object with r_inner and r_outer")
    window = AnnulusWindow(*(_real_from_json(win[key], key) for key in ("r_inner", "r_outer")))
    return from_g_pair(
        poly_from_triples(doc["g_minus"]),
        poly_from_triples(doc["g_plus"]),
        parity,
        window,
        height_offset=_real_from_json(doc.get("height_offset", 0.0), "height_offset"),
    )
