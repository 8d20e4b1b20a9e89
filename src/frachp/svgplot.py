"""Hand-rolled SVG polyline plots (no plotting dependency).

Output is byte-stable for fixed data: the viewBox is computed from data
bounds rounded outward to 2 significant digits, and the polyline points
are space-separated pixel pairs from one repeated "%.2f,%.2f" format.
"""

from __future__ import annotations

import math

import numpy as np

MAX_POINTS = 100_000
_W, _H = 640, 520
_MARGIN = 40


def _round_sig(x: float, up: bool) -> float:
    if x == 0.0 or not math.isfinite(x):
        return 0.0
    mag = math.floor(math.log10(abs(x))) - 1
    scale = 10.0 ** mag
    fn = math.ceil if (up == (x > 0)) else math.floor
    return fn(abs(x) / scale) * scale * (1 if x > 0 else -1)


def _bounds(a: np.ndarray) -> tuple[float, float]:
    lo = _round_sig(float(np.min(a)), up=False)
    hi = _round_sig(float(np.max(a)), up=True)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    return lo, hi


def orbit_svg(xs, ys, title: str = "") -> str:
    """SVG document with the (xs, ys) orbit as a single polyline."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    stride = 1
    if xs.size > MAX_POINTS:
        stride = int(math.ceil(xs.size / MAX_POINTS))
        xs, ys = xs[::stride], ys[::stride]
    x_lo, x_hi = _bounds(xs)
    y_lo, y_hi = _bounds(ys)

    span = _W - 2 * _MARGIN
    px = _MARGIN + (xs - x_lo) / (x_hi - x_lo) * span
    py = (_H - _MARGIN) - (ys - y_lo) / (y_hi - y_lo) * (_H - 2 * _MARGIN)
    points = (" ".join(["%.2f,%.2f"] * px.size)
              % tuple(np.column_stack([px, py]).ravel().tolist()))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<!-- stride={stride}; x in [{x_lo:.6g}, {x_hi:.6g}]; '
        f'y in [{y_lo:.6g}, {y_hi:.6g}] -->',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{span}" '
        f'height="{_H - 2 * _MARGIN}" fill="white" stroke="black" '
        'stroke-width="1"/>',
    ]
    if title:
        lines.append(f'<text x="{_W // 2}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')
    lines.append(f'<polyline fill="none" stroke="black" stroke-width="0.6" '
                 f'points="{points}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_orbit(path, xs, ys, title: str = "") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(orbit_svg(xs, ys, title))
