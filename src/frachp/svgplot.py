"""Hand-rolled SVG polyline plots (no plotting dependency).

Output is byte-stable for fixed data: the viewBox is computed from data
bounds rounded outward to 2 significant digits, and the polyline points
are space-separated pixel pairs with the bytes of "%.2f,%.2f", formatted
in numpy where `_points` can prove those bytes and by Python's `%`
elsewhere.  The title is XML-escaped; data that is empty, not 1-d, unequal
or overflowing raises.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument

MAX_POINTS = 100_000
_W, _H = 640, 520
_MARGIN = 40
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _round_sig(x: float, up: bool) -> float:
    if x == 0.0 or not math.isfinite(x):
        return 0.0
    mag = math.floor(math.log10(abs(x))) - 1
    scale = 10.0 ** mag
    fn = math.ceil if (up == (x > 0)) else math.floor
    return fn(abs(x) / scale) * scale * (1 if x > 0 else -1)


def _bounds(a: np.ndarray, name: str) -> tuple[float, float]:
    a_min, a_max = float(np.min(a)), float(np.max(a))
    lo, hi = _round_sig(a_min, up=False), _round_sig(a_max, up=True)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    if not math.isfinite(hi - lo):  # also when lo or hi is not
        raise InvalidArgument(f"{name}=[{a_min:.6g}, {a_max:.6g}] rounds "
                              f"out to [{lo:.6g}, {hi:.6g}]: no finite span")
    return lo, hi


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """The text " ".join("%.2f,%.2f" % xy for xy in zip(px, py)).

    c = 100 v lies within spacing(c)/2 of the exact product and c - r is
    exact, so if | |c - r| - 1/2 | > spacing(c), r = rint(c) is the cent
    that "%.2f" rounds v to, and not a tie.  Other values go to `%`.
    """
    v = np.column_stack([px, py]).ravel()
    # No warning on NaN or inf, and v < 1000 keeps 100 v finite.
    if np.all(~np.signbit(v) & (v < 1000.0)):
        c = 100.0 * v
        r = np.rint(c)
        if np.all((c < 99999.5)
                  & (np.abs(np.abs(c - r) - 0.5) > np.spacing(c))):
            cents = r.astype(np.int32)
            del v, c, r  # a smaller peak while the text is built
            text = np.empty((cents.size, 7), dtype=np.uint8)  # ddd.dd,
            digits = cents
            for j in (5, 4, 2, 1):
                tens = digits // 10
                text[:, j] = digits - 10 * tens + ord("0")
                digits = tens
            text[:, 0], text[:, 3] = digits + ord("0"), ord(".")
            text[0::2, 6], text[1::2, 6] = ord(","), ord(" ")
            keep = np.ones(text.shape, dtype=bool)
            keep[:, 0], keep[:, 1] = cents >= 10000, cents >= 1000
            keep[-1:, 6] = False  # no separator after the last pair
            return text[keep].tobytes().decode("ascii")
    return " ".join(["%.2f,%.2f"] * px.size) % tuple(v.tolist())


def orbit_svg(xs, ys, title: str = "") -> str:
    """SVG document with the (xs, ys) orbit as a single polyline."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or xs.shape != ys.shape:
        raise InvalidArgument(f"xs={xs.shape}, ys={ys.shape}: an orbit needs "
                              f"1-d data of one length, one point or more")
    stride = 1
    if xs.size > MAX_POINTS:
        stride = int(math.ceil(xs.size / MAX_POINTS))
        xs, ys = xs[::stride], ys[::stride]
    x_lo, x_hi = _bounds(xs, "xs")
    y_lo, y_hi = _bounds(ys, "ys")

    span = _W - 2 * _MARGIN
    px = _MARGIN + (xs - x_lo) / (x_hi - x_lo) * span
    py = (_H - _MARGIN) - (ys - y_lo) / (y_hi - y_lo) * (_H - 2 * _MARGIN)
    points = _points(px, py)

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
                     f'font-family="sans-serif" font-size="14">'
                     f'{title.translate(_XML_TEXT)}</text>')
    lines.append(f'<polyline fill="none" stroke="black" stroke-width="0.6" '
                 f'points="{points}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_orbit(path, xs, ys, title: str = "") -> None:
    text = orbit_svg(xs, ys, title)  # a bad input raises before path opens
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
