"""Deterministic SVG rendering of level curves and length profiles.

The output is plain text assembled here (no plotting dependency, no
timestamps, no randomness), so identical inputs yield byte-identical files.
All coordinates are written with six decimal places.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DomainError
from .measures import LevelCurve

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
)
PAD_FRACTION = 0.05
WIDTH = 720.0  # picture width in px; the height follows the aspect ratio


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    # Avoid the two spellings of zero so output is reproducible across inputs
    # that differ only by sign of a rounded-away residue.
    return "0.000000" if out == "-0.000000" else out


def _polyline(points, stroke: str, width: float, dash: str | None = None) -> str:
    # One format for all points.  A "-" only starts a value and every value
    # has six decimals, so each "-0.000000" is a whole value: _fmt's rule.
    coords = ("%.6f,%.6f " * len(points) % tuple(v for pt in points for v in pt))[:-1]
    coords = coords.replace("-0.000000", "0.000000")
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"'
        f'{dash_attr} points="{coords}" />'
    )


def level_curves_svg(
    curves: Sequence[LevelCurve],
    profile: Sequence[tuple[float, float, float]] | None = None,
) -> str:
    """Render the horizontal projections of level curves, equal aspect.

    Curves are drawn in the (x1, x2) plane with a five-percent margin around
    the joint bounding box; self-intersection points get cross markers.  When
    a profile of (t, L, L'') triples from ``length_profile`` is supplied, an
    inset in the upper right corner shows the circle length (solid) and its
    second log-derivative (dashed) against the log radius t.
    """
    curves = list(curves)
    if not curves:
        raise DomainError("nothing to render: the curve list is empty")

    xs, ys = [], []
    for curve in curves:
        xs.extend(float(p[0]) for p in curve.points)
        ys.extend(float(p[1]) for p in curve.points)
        for cx, cy in curve.crossing_points:
            xs.append(float(cx))
            ys.append(float(cy))
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    pad = PAD_FRACTION * span
    x_lo, x_hi = x_lo - pad, x_hi + pad
    y_lo, y_hi = y_lo - pad, y_hi + pad
    scale = WIDTH / (x_hi - x_lo)
    height = (y_hi - y_lo) * scale

    def to_px(x: float, y: float) -> tuple[float, float]:
        # SVG's y axis points down; flip so larger x2 is higher on the page.
        return ((x - x_lo) * scale, (y_hi - y) * scale)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(height)}" fill="#ffffff" />',
    ]
    marker_half = 0.012 * WIDTH
    for idx, curve in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        pts = [to_px(float(p[0]), float(p[1])) for p in curve.points]
        if pts:
            pts.append(pts[0])
        parts.append(_polyline(pts, color, 1.5))
        for cx, cy in curve.crossing_points:
            px, py = to_px(float(cx), float(cy))
            parts.append(
                f'<path d="M {_fmt(px - marker_half)} {_fmt(py - marker_half)} '
                f'L {_fmt(px + marker_half)} {_fmt(py + marker_half)} '
                f'M {_fmt(px - marker_half)} {_fmt(py + marker_half)} '
                f'L {_fmt(px + marker_half)} {_fmt(py - marker_half)}" '
                'stroke="#000000" stroke-width="1.200000" fill="none" />'
            )
    if profile is not None:
        parts.extend(_profile_inset(profile))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _profile_inset(samples: Sequence[tuple[float, float, float]]) -> list[str]:
    box_w = 0.30 * WIDTH
    box_h = 0.22 * WIDTH
    box_x = WIDTH - box_w - 0.02 * WIDTH
    box_y = 0.02 * WIDTH
    ts = [s[0] for s in samples]
    lvals = [s[1] for s in samples]
    ddvals = [s[2] for s in samples]
    t_lo, t_hi = min(ts), max(ts)
    v_lo = min(min(lvals), min(ddvals))
    v_hi = max(max(lvals), max(ddvals))
    t_span = max(t_hi - t_lo, 1e-12)
    v_span = max(v_hi - v_lo, 1e-12)
    inner = 0.08

    def to_px(t: float, v: float) -> tuple[float, float]:
        fx = (t - t_lo) / t_span
        fy = (v - v_lo) / v_span
        px = box_x + (inner + (1 - 2 * inner) * fx) * box_w
        py = box_y + (1 - inner - (1 - 2 * inner) * fy) * box_h
        return px, py

    parts = [
        f'<rect x="{_fmt(box_x)}" y="{_fmt(box_y)}" width="{_fmt(box_w)}" '
        f'height="{_fmt(box_h)}" fill="#f8f8f8" stroke="#888888" stroke-width="0.800000" />',
        _polyline([to_px(t, v) for t, v in zip(ts, lvals)], "#1f77b4", 1.2),
        _polyline([to_px(t, v) for t, v in zip(ts, ddvals)], "#d62728", 1.2, dash="4,3"),
        f'<text x="{_fmt(box_x + 0.03 * box_w)}" y="{_fmt(box_y + 0.16 * box_h)}" '
        'font-family="monospace" font-size="11" fill="#1f77b4">length</text>',
        f'<text x="{_fmt(box_x + 0.03 * box_w)}" y="{_fmt(box_y + 0.32 * box_h)}" '
        'font-family="monospace" font-size="11" fill="#d62728">length&apos;&apos;</text>',
    ]
    return parts
