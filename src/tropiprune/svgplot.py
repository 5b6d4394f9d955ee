"""Standalone SVG 1.1 emitters, no plotting dependency.

Data polylines and polygons are drawn inside a transform group that flips the
y axis, so the coordinates stored in the file are the data values themselves
(scaled), which keeps the output easy to audit.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Sequence

from .geometry import Polytope2D

SVG_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'

BEFORE_COLOR = "#d62728"
AFTER_COLOR = "#1f77b4"

LOSS_WIDTH, LOSS_HEIGHT = 640, 420
ZONOTOPE_SIZE = 520  # square canvas


def _svg(width: int, height: int, body: list[str]) -> str:
    open_tag = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">')
    return SVG_HEADER + "\n".join([open_tag, *body, "</svg>"]) + "\n"


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks; the caller has already widened equal bounds."""
    return [lo + (hi - lo) * k / 4 for k in range(5)]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _trace_point(t, v) -> tuple[float, float]:
    """An integer iteration and a finite loss, neither a bool, as floats."""
    if isinstance(t, bool) or not isinstance(t, Integral):
        raise ValueError(f"iteration must be an integer, got {t!r}")
    if isinstance(v, bool) or not isinstance(v, Real) or not math.isfinite(v):
        raise ValueError(f"loss must be a finite number, got {v!r}")
    return float(t), float(v)


def loss_curve_svg(trace: Sequence[tuple[int, float]]) -> str:
    """Polyline of (iteration, combined loss) with labeled axes.

    An empty trace, a non-integer iteration, a non-finite or boolean loss, or
    values too large to scale onto the canvas raise ValueError.
    """
    points = [_trace_point(t, v) for t, v in trace]
    if not points:
        raise ValueError("cannot plot an empty loss trace")
    width, height = LOSS_WIDTH, LOSS_HEIGHT
    left, right, top, bottom = 80, 24, 24, 56
    plot_w, plot_h = width - left - right, height - top - bottom
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    if not (0 < x1 - x0 < math.inf and 0 < y1 - y0 < math.inf):
        raise ValueError("trace values are too large to plot")
    sx = plot_w / (x1 - x0)
    sy = plot_h / (y1 - y0)
    body = [f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>']
    axis_y = top + plot_h
    body.append(f'<line x1="{left}" y1="{axis_y}" x2="{left + plot_w}" y2="{axis_y}" '
                'stroke="black" stroke-width="1"/>')
    body.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{axis_y}" '
                'stroke="black" stroke-width="1"/>')
    for tx in _ticks(x0, x1):
        px = left + (tx - x0) * sx
        body.append(f'<line x1="{_fmt(px)}" y1="{axis_y}" x2="{_fmt(px)}" y2="{axis_y + 5}" '
                    'stroke="black" stroke-width="1"/>')
        body.append(f'<text x="{_fmt(px)}" y="{axis_y + 20}" font-size="12" '
                    f'text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(y0, y1):
        py = axis_y - (ty - y0) * sy
        body.append(f'<line x1="{left - 5}" y1="{_fmt(py)}" x2="{left}" y2="{_fmt(py)}" '
                    'stroke="black" stroke-width="1"/>')
        body.append(f'<text x="{left - 8}" y="{_fmt(py + 4)}" font-size="12" '
                    f'text-anchor="end">{_fmt(ty)}</text>')
    body.append(f'<text x="{left + plot_w / 2}" y="{height - 12}" font-size="14" '
                'text-anchor="middle">iteration</text>')
    body.append(f'<text x="20" y="{top + plot_h / 2}" font-size="14" text-anchor="middle" '
                f'transform="rotate(-90 20 {top + plot_h / 2})">combined loss</text>')
    # data-space group: stored polyline coordinates are the raw trace values
    tx0 = left - x0 * sx
    ty0 = axis_y + y0 * sy
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    body.append(f'<g transform="translate({_fmt(tx0)},{_fmt(ty0)}) scale({_fmt(sx)},{_fmt(-sy)})">')
    body.append(f'<polyline points="{coords}" fill="none" stroke="{AFTER_COLOR}" '
                f'stroke-width="{_fmt(1.5 / sy)}"/>')
    body.append("</g>")
    return _svg(width, height, body)


def zonotope_overlay_svg(before: Polytope2D, after: Polytope2D) -> str:
    """Two polygon outlines over a shared uniform scale, with a before/after legend."""
    if not before.vertices or not after.vertices:
        raise ValueError("cannot plot empty polytopes")
    width = height = ZONOTOPE_SIZE
    margin = 50
    pts = list(before.vertices) + list(after.vertices)
    x0 = min(p[0] for p in pts)
    x1 = max(p[0] for p in pts)
    y0 = min(p[1] for p in pts)
    y1 = max(p[1] for p in pts)
    span = max(x1 - x0, y1 - y0, 1e-9)
    scale = (ZONOTOPE_SIZE - 2 * margin) / span
    tx = margin - x0 * scale
    ty = height - margin + y0 * scale
    body = [f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
            f'<g transform="translate({_fmt(tx)},{_fmt(ty)}) scale({_fmt(scale)},{_fmt(-scale)})">']
    for poly, color in ((before, BEFORE_COLOR), (after, AFTER_COLOR)):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in poly.vertices)
        body.append(f'<polygon points="{coords}" fill="{color}" fill-opacity="0.12" '
                    f'stroke="{color}" stroke-width="{_fmt(1.5 / scale)}"/>')
    body.append("</g>")
    for i, (label, color) in enumerate((("before", BEFORE_COLOR), ("after", AFTER_COLOR))):
        ly = 20 + 18 * i
        body.append(f'<rect x="{width - 150}" y="{ly - 10}" width="12" height="12" '
                    f'fill="{color}" fill-opacity="0.5"/>')
        body.append(f'<text x="{width - 132}" y="{ly}" font-size="13">{label}</text>')
    return _svg(width, height, body)
