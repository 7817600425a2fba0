"""Finite Laurent polynomials on circles and annuli.

Everything downstream reduces to exact coefficient arithmetic on expressions
of the form ``sum c_n z^n`` with integer exponents of both signs, plus a small
set of circle integrals that such expressions admit in closed form.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateContourError,
    DomainError,
    SchemaError,
)

# Coefficients below this magnitude are dropped during canonicalization.
PRUNE_EPS = 1e-300
# Relative tolerance for coefficient-level predicates (symmetry, vanishing
# constant terms).
COEFF_REL_TOL = 1e-12
# Residual certificate of a root set: relative backward error per root.
ROOT_RESIDUAL_TOL = 1e-12
# winding_on_circle refuses circles closer than this (relative) to a root.
CIRCLE_ROOT_TOL = 1e-9

TWO_PI = 2.0 * math.pi


def _finite_complex(value, what: str = "value") -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{what} must be finite, got {value!r}")
    return z


def _pruned_terms(exponents: Iterable[int], row: list[complex]) -> tuple[tuple[int, complex], ...]:
    """The terms of strictly increasing ``exponents`` with their Python
    complex coefficients ``row``, coefficients below PRUNE_EPS dropped; a
    non-finite coefficient raises DomainError naming the lowest such exponent."""
    if not all(map(cmath.isfinite, row)):
        n, c = next((n, c) for n, c in zip(exponents, row) if not cmath.isfinite(c))
        raise DomainError(f"coefficient of z^{n} must be finite, got {c!r}")
    return tuple([(n, c) for n, c in zip(exponents, row) if abs(c) >= PRUNE_EPS])


def _dense_rows(polys: Iterable[LaurentPoly], lows: Iterable[int], width: int) -> np.ndarray:
    """(k, width) complex array whose row i holds the z^n coefficient of the
    i-th polynomial in column n - lows[i], and exact zeros elsewhere."""
    rows = []
    for p, lo in zip(polys, lows):
        row = [0j] * width
        for n, c in p.terms:
            row[n - lo] = c
        rows.append(row)
    return np.array(rows, complex).reshape(len(rows), width)


def _check_points(z) -> np.ndarray:
    """``z`` as a complex array; DomainError unless every point is finite and nonzero."""
    arr = np.asarray(z, dtype=complex)
    if arr.size:
        if not np.isfinite(arr).all():
            raise DomainError("evaluation point must be finite")
        if (arr == 0).any():
            raise DomainError("Laurent expressions are undefined at z = 0")
    return arr


def _positive_radius(r) -> float:
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise DomainError(f"radius must be finite and positive, got {r!r}")
    return r


def _count(value, what: str, lowest: int | None = None) -> int:
    """The one integer rule: ``value`` as an int if ``operator.index`` takes
    it (an int or a numpy integer) and it is not a bool, of at least
    ``lowest`` if given; else DomainError.  Every count and exponent takes it."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or lowest is not None and count < lowest:
        least = "" if lowest is None else f" of at least {lowest}"
        raise DomainError(f"{what} must be an integer{least}, got {value!r}")
    return count


class LaurentPoly:
    """Immutable ``sum c_n z^n`` with finitely many terms, n in Z."""

    __slots__ = ("terms", "__dict__")

    def __init__(self, coeffs: Mapping[int, complex] | Iterable[tuple[int, complex]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, complex] = {}
        for n, c in items:
            # Construction is the hottest call site: an int exponent skips
            # _count, and _finite_complex is inlined.
            ni = n if type(n) is int else _count(n, "exponent")
            z = complex(c)
            if not cmath.isfinite(z):
                raise DomainError(f"coefficient of z^{ni} must be finite, got {c!r}")
            acc[ni] = acc.get(ni, 0j) + z
        exponents = sorted(acc)
        self.terms = _pruned_terms(exponents, [acc[n] for n in exponents])

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_row(cls, exponents: Iterable[int], row: list[complex]) -> "LaurentPoly":
        """Trusted construction from strictly increasing int ``exponents`` and
        their Python complex coefficients ``row``: the public constructor's
        finiteness check and prune (``_pruned_terms``), without its per-input
        checks, summing and sorting."""
        poly = cls.__new__(cls)
        poly.terms = _pruned_terms(exponents, row)
        return poly

    @classmethod
    def monomial(cls, n: int, c: complex = 1.0) -> "LaurentPoly":
        return cls(((n, c),))

    @classmethod
    def constant(cls, c: complex) -> "LaurentPoly":
        return cls(((0, c),))

    # -- inspection ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lowest(self) -> int:
        if not self.terms:
            raise DomainError("the zero expression has no lowest exponent")
        return self.terms[0][0]

    @property
    def highest(self) -> int:
        if not self.terms:
            raise DomainError("the zero expression has no highest exponent")
        return self.terms[-1][0]

    @cached_property
    def coeffs(self) -> dict[int, complex]:
        return dict(self.terms)

    def coefficient(self, n: int) -> complex:
        return self.coeffs.get(n, 0j)

    @cached_property
    def max_abs_coeff(self) -> float:
        return max((abs(c) for _, c in self.terms), default=0.0)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "LaurentPoly(0)"
        bits = " + ".join(f"({c:.6g})z^{n}" for n, c in self.terms)
        return f"LaurentPoly({bits})"

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = _as_poly(other)
        return LaurentPoly(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((n, -c) for n, c in self.terms))

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if not (self.terms and other.terms):
                return LaurentPoly()
            # Dense accumulation over the product's exponent span: each sum
            # starts from 0j and takes its products in the order of the
            # double loop, and the terms come out sorted.
            base = self.terms[0][0] + other.terms[0][0]
            acc = [0j] * (self.terms[-1][0] + other.terms[-1][0] - base + 1)
            for n, a in self.terms:
                for m, b in other.terms:
                    acc[n + m - base] += a * b
            try:
                return LaurentPoly._from_row(range(base, base + len(acc)), acc)
            except DomainError:
                # Name the first coefficient the double loop formed, as
                # construction from the accumulated dict would.
                k = next(
                    n + m for n, _ in self.terms for m, _ in other.terms
                    if not cmath.isfinite(acc[n + m - base])
                )
                raise DomainError(
                    f"coefficient of z^{k} must be finite, got {acc[k - base]!r}"
                ) from None
        c = _finite_complex(other, "scalar factor")
        return LaurentPoly(tuple((n, a * c) for n, a in self.terms))

    __rmul__ = __mul__

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by z**k (exact exponent shift)."""
        k = _count(k, "exponent")
        return LaurentPoly(tuple((n + k, c) for n, c in self.terms))

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly(tuple((n - 1, n * c) for n, c in self.terms if n != 0))

    def conj_reflect(self) -> "LaurentPoly":
        """Coefficientwise conj(c_{-n}); as a function, conj(p(1/conj(z)))."""
        return LaurentPoly(tuple((-n, c.conjugate()) for n, c in self.terms))

    # -- evaluation ---------------------------------------------------------------

    @cached_property
    def _split(self):
        # dense ascending coefficients for the z part (exponents 0..highest)
        # and the 1/z part (exponents -1..lowest), used by split Horner.
        lo = min(self.terms[0][0], 0) if self.terms else 0
        hi = max(self.terms[-1][0], 0) if self.terms else 0
        row = _dense_rows((self,), (lo,), hi - lo + 1)[0]
        return row[-lo:], row[:-lo][::-1]

    def evaluate(self, z):
        """Evaluate at a nonzero point or array (split Horner in z and 1/z)."""
        arr = _check_points(z)
        out = self._horner(arr, 1.0 / arr if self._split[1].size else None)
        if arr.ndim == 0:
            return complex(out)
        return out

    def _horner(self, arr: np.ndarray, w) -> np.ndarray:
        """Split Horner at checked complex points ``arr``, with w = 1/arr.

        w is read only when an exponent is negative.  Callers that evaluate
        several expressions at the same points check them and form w once.
        The sums run in place, the products not: numpy multiplies a one-element
        complex array into itself by its scalar rule, off its array loop's bits.
        """
        pos, neg = self._split
        if pos.size == 1:
            out = np.full(arr.shape, pos[0], dtype=complex)
        else:
            out = pos[-1] * arr
            for c in pos[-2:0:-1]:
                out += c
                out = out * arr
            out += pos[0]
        if neg.size:
            acc = np.multiply(neg[-1], w)  # the array loop, also for a scalar w
            for c in neg[-2::-1]:
                acc += c
                acc = acc * w
            out += acc
        return out

    __call__ = evaluate

    # -- roots ----------------------------------------------------------------------

    @cached_property
    def _roots(self) -> tuple[complex, ...]:
        # One eigenvalue solve per object (a stack of one in solve_roots, or
        # a member of a caller's stack); roots() copies it out on every call.
        if self.is_zero:
            raise DomainError("the zero expression has no root set")
        solve_roots((self,))
        if "_roots" not in self.__dict__:
            raise ConvergenceError("companion eigenvalues fail the root residual certificate")
        return self.__dict__["_roots"]


def _as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly.constant(_finite_complex(x))


@dataclass(frozen=True, slots=True)
class AnnulusWindow:
    """Open annulus r_inner < |z| < r_outer, a frozen value with float radii."""

    r_inner: float
    r_outer: float

    def __post_init__(self):
        r_inner, r_outer = float(self.r_inner), float(self.r_outer)
        if not (math.isfinite(r_inner) and math.isfinite(r_outer)):
            raise DomainError("window radii must be finite")
        if not 0.0 < r_inner < r_outer:
            raise DomainError(f"need 0 < r_inner < r_outer, got ({r_inner}, {r_outer})")
        object.__setattr__(self, "r_inner", r_inner)
        object.__setattr__(self, "r_outer", r_outer)

    @property
    def geometric_mean(self) -> float:
        return math.sqrt(self.r_inner * self.r_outer)

    def contains(self, r: float) -> bool:
        return self.r_inner < float(r) < self.r_outer

    def log_span(self) -> tuple[float, float]:
        return math.log(self.r_inner), math.log(self.r_outer)


class LogTermAntiderivative(NamedTuple):
    """Antiderivative of a Laurent expression: polynomial part + c * log z."""

    poly_part: LaurentPoly
    log_coefficient: complex


def antiderivative(p: LaurentPoly) -> LogTermAntiderivative:
    """Term-by-term antiderivative; the z**-1 term becomes the log coefficient."""
    parts = []
    logc = 0j
    for n, c in p.terms:
        if n == -1:
            logc = c
        else:
            parts.append((n + 1, c / (n + 1)))
    return LogTermAntiderivative(LaurentPoly(tuple(parts)), logc)


def trapezoid_circle(values: np.ndarray):
    """Periodic trapezoid rule over [0, 2pi), one integral per row of uniform samples."""
    return np.asarray(values).mean(axis=-1) * TWO_PI


def roots(p: LaurentPoly) -> list[complex]:
    """All highest-lowest roots of p in the punctured plane, multiplicity

    included: the eigenvalues (``np.linalg.eigvals``) of the companion matrix
    of the shifted ordinary polynomial, accepted only when every root passes
    the scaled residual test |q(z)| <= ROOT_RESIDUAL_TOL * sum |c_n| |z|^n,
    else ConvergenceError.  Sorted by modulus, then real and imaginary part;
    solved once per polynomial object (by ``solve_roots``, alone or in a
    caller's stack) and returned as a fresh list.
    """
    return list(p._roots)


def solve_roots(polys: Iterable[LaurentPoly]) -> None:
    """Solve the root sets of many polynomials at once and memoize each on
    its polynomial, for ``roots`` to read.

    Companion matrices, built as ``np.roots`` builds them, are stacked by
    degree with one ``np.linalg.eigvals`` call per degree.  Each degree's
    (k, d) root stack then takes the residual certificate
    (``_root_certificate``) and the (modulus, real, imaginary) sort in one
    pass, and each row keeps the bits of its own one-polynomial solve.  A
    member that fails its certificate keeps no memo: its own ``roots`` call
    raises ConvergenceError and its neighbours stay solved.  Zero
    expressions and polynomials already solved are skipped.
    """
    by_degree: dict[int, list[LaurentPoly]] = {}
    for p in polys:
        if p.terms and "_roots" not in p.__dict__:
            by_degree.setdefault(p.highest - p.lowest, []).append(p)
    for deg, members in by_degree.items():
        if deg == 0:
            for p in members:
                p.__dict__["_roots"] = ()
            continue
        # Descending coefficients of each shifted polynomial; both end
        # coefficients are nonzero, so np.roots would strip none.
        coeffs = _dense_rows(members, [p.terms[0][0] for p in members], deg + 1)[:, ::-1]
        companion = np.zeros((len(members), deg, deg), complex)
        sub = np.arange(deg - 1)
        companion[:, sub + 1, sub] = 1.0
        companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
        z = np.linalg.eigvals(companion)
        residual, scale = _root_certificate(coeffs, z)
        certified = residual <= ROOT_RESIDUAL_TOL * scale
        accepted = (np.isfinite(z) & certified).all(axis=1)
        order = np.lexsort((z.imag, z.real, np.abs(z)))
        ordered = z[np.arange(len(members))[:, None], order].tolist()
        for p, ok, row in zip(members, accepted.tolist(), ordered):
            if ok:
                p.__dict__["_roots"] = tuple(row)


def _root_certificate(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|q(u)| and sum |c_n| |u|^n at every root u of each row, both by Horner
    on the descending coefficient rows ``coeffs`` (k, d + 1) for the roots
    ``z`` (k, d).

    The complex steps are written in real arithmetic and the moduli taken
    with ``np.hypot``, the operations of Python's complex multiply and
    ``abs``, so every entry has the bits of a Horner loop on Python scalars
    that starts from 0.  Its first step, 0 * u + c, is c up to the sign of
    a zero, which no later step carries into a nonzero part or a modulus,
    so the loop here starts at the leading coefficient.
    """
    ur, ui = z.real, z.imag
    re, im = coeffs.real.T[:, :, None], coeffs.imag.T[:, :, None]
    moduli = np.hypot(re, im)
    # A non-finite or huge root fails the certificate without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        modulus = np.hypot(ur, ui)
        value_re, value_im, scale = re[0], im[0], moduli[0]
        for a_re, a_im, b in zip(re[1:], im[1:], moduli[1:]):
            value_re, value_im = (
                (value_re * ur - value_im * ui) + a_re,
                (value_re * ui + value_im * ur) + a_im,
            )
            scale = scale * modulus + b
        return np.hypot(value_re, value_im), scale


def winding_on_circle(p: LaurentPoly, r: float) -> int:
    """Winding number of theta -> p(r e^{i theta}) about 0, computed

    algebraically as (roots strictly inside) + lowest exponent.
    """
    r = _positive_radius(r)
    inside = 0
    for z in roots(p):
        if abs(abs(z) - r) <= CIRCLE_ROOT_TOL * r:
            raise DegenerateContourError(
                f"root modulus {abs(z):.12g} sits on the circle r = {r:.12g}"
            )
        if abs(z) < r:
            inside += 1
    return inside + p.lowest


# -- serialization ----------------------------------------------------------------


def poly_to_triples(p: LaurentPoly) -> list[list[float]]:
    """JSON form: [[n, Re c_n, Im c_n], ...] with strictly increasing n."""
    return [[n, c.real, c.imag] for n, c in p.terms]


def _real_from_json(value, what: str) -> float:
    """A finite float from an int, a float or a numpy real scalar, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise SchemaError(f"{what} must be a finite number, got {x!r}")
    return x


def _int_from_json(value, what: str) -> int:
    """An int from an integral float, or as ``_count`` reads it."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        return _count(value, what)
    except DomainError as exc:
        raise SchemaError(str(exc)) from None


def _complex_from_json(value, what: str) -> complex:
    """A complex with finite parts from a real, a Python or numpy complex,
    or an [re, im] pair of reals."""
    if isinstance(value, (complex, np.complexfloating)):
        value = (value.real, value.imag)
    elif not isinstance(value, (list, tuple)):
        value = (value, 0.0)
    if len(value) != 2:
        raise SchemaError(f"{what} must be a number or an [re, im] pair, got {value!r}")
    return complex(_real_from_json(value[0], what), _real_from_json(value[1], what))


# The decoder of each kind of JSON number, keyed by the type it returns.
_FROM_JSON = {int: _int_from_json, float: _real_from_json, complex: _complex_from_json}


def poly_from_triples(triples) -> LaurentPoly:
    if not isinstance(triples, (list, tuple)):
        raise SchemaError("coefficient list must be an array of [n, re, im] triples")
    items = []
    for entry in triples:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise SchemaError(f"bad coefficient triple {entry!r}")
        n = _int_from_json(entry[0], "exponent")
        if items and n <= items[-1][0]:
            raise SchemaError("exponents must be strictly increasing")
        items.append((n, _complex_from_json(entry[1:], f"coefficient of z^{n}")))
    return LaurentPoly(tuple(items))
