"""Minimal deterministic SVG charts (scatter and line) with no dependencies.

Only what the experiment artifacts need: linear or log axes, 1-2-5 tick
ladders, point markers, polylines, and one optional highlighted point. Output
is plain text SVG, stable across runs for identical inputs. Points with a
non-finite coordinate (a diverged run's +inf or NaN loss) are left out.
"""
from __future__ import annotations

import math

from .errors import ConfigError
from .util import atomic_write

__all__ = ["scatter_svg", "line_svg"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 34, 46
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _esc(s: str) -> str:
    return (str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _fmt(x: float) -> str:
    if x == 0:
        return "0"
    if abs(x) >= 1e4 or abs(x) < 1e-3:
        return f"{x:.1e}"
    return f"{x:g}"


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        a, b = math.floor(math.log10(lo) - 1e-9), math.ceil(math.log10(hi) + 1e-9)
        decades = [10.0 ** k for k in range(a, b + 1)]
        return [t for t in decades if lo / 1.001 <= t <= hi * 1.001] or [lo, hi]
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + step * 1e-9:
        out.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return out


class _Axis:
    def __init__(self, lo: float, hi: float, pix_lo: float, pix_hi: float, log: bool):
        if log and lo <= 0:
            raise ConfigError("log axis requires positive data")
        if hi == lo:
            pad = abs(lo) * 0.1 + (0.0 if log else 1.0)
            lo, hi = (lo / 1.5, hi * 1.5) if log else (lo - pad, hi + pad)
        elif not log:
            pad = (hi - lo) * 0.06
            lo, hi = lo - pad, hi + pad
        else:
            lo, hi = lo / 1.3, hi * 1.3
        self.lo, self.hi, self.log = lo, hi, log
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def pix(self, x: float) -> float:
        a, b = (math.log10(self.lo), math.log10(self.hi)) if self.log else (self.lo, self.hi)
        v = math.log10(x) if self.log else x
        f = (v - a) / (b - a)
        return self.pix_lo + f * (self.pix_hi - self.pix_lo)

    def tick_values(self) -> list[float]:
        return _ticks(self.lo, self.hi, self.log)


def _finite(points) -> list:
    return [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]


def _frame(xs, ys, title, xlabel, ylabel, logx, logy):
    if not xs:
        raise ConfigError("nothing to plot")
    xaxis = _Axis(min(xs), max(xs), _ML, _W - _MR, logx)
    yaxis = _Axis(min(ys), max(ys), _H - _MB, _MT, logy)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
        f'fill="none" stroke="#333"/>',
    ]
    for t in xaxis.tick_values():
        px = xaxis.pix(t)
        parts.append(f'<line x1="{px:.1f}" y1="{_H-_MB}" x2="{px:.1f}" y2="{_H-_MB+4}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H-_MB+17}" text-anchor="middle">{_esc(_fmt(t))}</text>')
    for t in yaxis.tick_values():
        py = yaxis.pix(t)
        parts.append(f'<line x1="{_ML-4}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML-7}" y="{py+4:.1f}" text-anchor="end">{_esc(_fmt(t))}</text>')
    parts.append(f'<text x="{_W/2:.0f}" y="{_H-10}" text-anchor="middle">{_esc(xlabel)}</text>')
    parts.append(f'<text x="16" y="{_H/2:.0f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_H/2:.0f})">{_esc(ylabel)}</text>')
    return parts, xaxis, yaxis


def scatter_svg(path, points, title: str = "", xlabel: str = "", ylabel: str = "",
                logx: bool = False, logy: bool = False,
                highlight: tuple[float, float] | None = None,
                highlight_label: str = "") -> None:
    """Write a scatter chart; highlight marks one special point in red."""
    points = _finite(points)
    xs = [p[0] for p in points] + ([highlight[0]] if highlight else [])
    ys = [p[1] for p in points] + ([highlight[1]] if highlight else [])
    parts, xa, ya = _frame(xs, ys, title, xlabel, ylabel, logx, logy)
    for x, y in points:
        parts.append(f'<circle cx="{xa.pix(x):.1f}" cy="{ya.pix(y):.1f}" r="3.5" '
                     f'fill="{_PALETTE[0]}" fill-opacity="0.75"/>')
    if highlight is not None:
        hx, hy = xa.pix(highlight[0]), ya.pix(highlight[1])
        parts.append(f'<circle cx="{hx:.1f}" cy="{hy:.1f}" r="5.5" fill="none" '
                     f'stroke="{_PALETTE[1]}" stroke-width="2.5"/>')
        if highlight_label:
            parts.append(f'<text x="{hx+9:.1f}" y="{hy-7:.1f}" fill="{_PALETTE[1]}">'
                         f'{_esc(highlight_label)}</text>')
    parts.append("</svg>")
    with atomic_write(path) as f:
        f.write(("\n".join(parts) + "\n").encode("utf-8"))


def line_svg(path, series, title: str = "", xlabel: str = "", ylabel: str = "",
             logx: bool = False, logy: bool = False,
             vline: float | None = None, vline_label: str = "") -> None:
    """Write a line chart. series: list of (label, [(x, y), ...])."""
    series = [(label, _finite(pts)) for label, pts in series]
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    parts, xa, ya = _frame(xs, ys, title, xlabel, ylabel, logx, logy)
    if vline is not None:
        px = xa.pix(vline)
        parts.append(f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" y2="{_H-_MB}" '
                     f'stroke="{_PALETTE[1]}" stroke-dasharray="5,4"/>')
        if vline_label:
            parts.append(f'<text x="{px+6:.1f}" y="{_MT+14}" fill="{_PALETTE[1]}">'
                         f'{_esc(vline_label)}</text>')
    for i, (label, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{xa.pix(x):.1f},{ya.pix(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{xa.pix(x):.1f}" cy="{ya.pix(y):.1f}" r="2.6" fill="{color}"/>')
        if label:
            ly = _MT + 16 + 15 * i
            parts.append(f'<line x1="{_W-_MR-120}" y1="{ly-4}" x2="{_W-_MR-98}" y2="{ly-4}" '
                         f'stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{_W-_MR-92}" y="{ly}">{_esc(label)}</text>')
    parts.append("</svg>")
    with atomic_write(path) as f:
        f.write(("\n".join(parts) + "\n").encode("utf-8"))
