"""Minimal static SVG output: line charts with bands, and heatmaps.

Hand-rolled on purpose: the files contain nothing nondeterministic, so
identical inputs give byte-identical plots.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH = 640
HEIGHT = 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 56, 16, 28, 44

PALETTE = ("#1b6ca8", "#c0392b", "#27763d", "#8e44ad", "#b9770e", "#16777e")


def _f(x: float) -> str:
    return "%.2f" % x


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


class _Canvas:
    def __init__(self, title):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        if title:
            self.parts.append(
                f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" '
                f'font-family="sans-serif" font-size="13">{_esc(title)}</text>'
            )

    def add(self, fragment: str):
        self.parts.append(fragment)

    def write(self, path: str):
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.parts) + "\n")


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


class _Scale:
    def __init__(self, xlo, xhi, ylo, yhi):
        if xhi <= xlo:
            xhi = xlo + 1.0
        if yhi <= ylo:
            yhi = ylo + 1.0
        self.xlo, self.xhi, self.ylo, self.yhi = xlo, xhi, ylo, yhi

    def x(self, v):
        frac = (v - self.xlo) / (self.xhi - self.xlo)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v):
        frac = (v - self.ylo) / (self.yhi - self.ylo)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)


def _axes(canvas: _Canvas, scale: _Scale):
    """Axes, ticks and the labels t and estimate of a line chart."""
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    canvas.add(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    canvas.add(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for tick in _ticks(scale.xlo, scale.xhi):
        px = scale.x(tick)
        canvas.add(f'<line x1="{_f(px)}" y1="{y0}" x2="{_f(px)}" y2="{y0 + 4}" stroke="black"/>')
        canvas.add(
            f'<text x="{_f(px)}" y="{y0 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{"%.3g" % tick}</text>'
        )
    for tick in _ticks(scale.ylo, scale.yhi):
        py = scale.y(tick)
        canvas.add(f'<line x1="{x0 - 4}" y1="{_f(py)}" x2="{x0}" y2="{_f(py)}" stroke="black"/>')
        canvas.add(
            f'<text x="{x0 - 6}" y="{_f(py + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{"%.3g" % tick}</text>'
        )
    canvas.add(
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        'font-family="sans-serif" font-size="11">t</text>'
    )
    canvas.add(
        f'<text x="14" y="{(y0 + y1) // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {(y0 + y1) // 2})">estimate</text>'
    )


def _finite_runs(x, y):
    """Consecutive index runs where y is finite, for broken polylines."""
    runs = []
    start = None
    for i, v in enumerate(y):
        if math.isfinite(v):
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(y)))
    return runs


def line_chart(path: str, x, curves, bands=(), title: str = ""):
    """Curves of estimates against t. curves: (label, values, color); bands: (lo, hi, color)."""
    x = [float(v) for v in x]
    values = []
    for _, ys, _ in curves:
        values.extend(v for v in ys if math.isfinite(v))
    for lo, hi, _ in bands:
        values.extend(v for v in list(lo) + list(hi) if math.isfinite(v))
    if not values:
        values = [0.0, 1.0]
    ylo, yhi = min(values), max(values)
    pad = 0.05 * (yhi - ylo or 1.0)
    scale = _Scale(min(x), max(x), ylo - pad, yhi + pad)

    canvas = _Canvas(title)
    for lo, hi, color in bands:
        for a, b in _finite_runs(x, [l + h for l, h in zip(lo, hi)]):
            pts = [f"{_f(scale.x(x[i]))},{_f(scale.y(float(lo[i])))}" for i in range(a, b)]
            pts += [f"{_f(scale.x(x[i]))},{_f(scale.y(float(hi[i])))}"
                    for i in reversed(range(a, b))]
            canvas.add(f'<polygon points="{" ".join(pts)}" fill="{color}" '
                       f'fill-opacity="0.25" stroke="none"/>')
    _axes(canvas, scale)
    legend_y = MARGIN_T + 8
    for label, ys, color in curves:
        for a, b in _finite_runs(x, ys):
            pts = " ".join(
                f"{_f(scale.x(x[i]))},{_f(scale.y(float(ys[i])))}" for i in range(a, b)
            )
            canvas.add(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       'stroke-width="1.5"/>')
        if label:
            canvas.add(
                f'<line x1="{WIDTH - 150}" y1="{legend_y}" x2="{WIDTH - 126}" '
                f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"/>'
            )
            canvas.add(
                f'<text x="{WIDTH - 120}" y="{legend_y + 3}" font-family="sans-serif" '
                f'font-size="10">{_esc(label)}</text>'
            )
            legend_y += 14
    canvas.write(path)


def _heat_color(frac: float) -> str:
    """Blue (low) through white to red (high)."""
    frac = min(max(frac, 0.0), 1.0)
    if frac < 0.5:
        t = frac / 0.5
        r, g, b = 33 + t * (255 - 33), 102 + t * (255 - 102), 172 + t * (255 - 172)
    else:
        t = (frac - 0.5) / 0.5
        r, g, b = 255 + t * (178 - 255), 255 + t * (24 - 255), 255 + t * (43 - 255)
    return f"rgb({int(round(r))},{int(round(g))},{int(round(b))})"


def heatmap_chart(path: str, t_values, s_values, grid, title: str = ""):
    """grid[j, i] is the value at (t_values[i], s_values[j]); NaN cells are
    drawn hatched gray to distinguish missing from low values."""
    grid = np.asarray(grid, dtype=float)
    finite = grid[np.isfinite(grid)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    if hi <= lo:
        hi = lo + 1.0
    nx, ny = len(t_values), len(s_values)
    plot_w = WIDTH - MARGIN_L - MARGIN_R - 60  # room for the color bar
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    cell_w, cell_h = plot_w / nx, plot_h / ny

    canvas = _Canvas(title)
    for j in range(ny):
        for i in range(nx):
            px = MARGIN_L + i * cell_w
            py = HEIGHT - MARGIN_B - (j + 1) * cell_h
            v = grid[j, i]
            if math.isfinite(v):
                fill = _heat_color((v - lo) / (hi - lo))
                canvas.add(f'<rect x="{_f(px)}" y="{_f(py)}" width="{_f(cell_w)}" '
                           f'height="{_f(cell_h)}" fill="{fill}"/>')
            else:
                canvas.add(f'<rect x="{_f(px)}" y="{_f(py)}" width="{_f(cell_w)}" '
                           f'height="{_f(cell_h)}" fill="#cccccc"/>')
                canvas.add(f'<line x1="{_f(px)}" y1="{_f(py)}" '
                           f'x2="{_f(px + cell_w)}" y2="{_f(py + cell_h)}" '
                           f'stroke="#888888"/>')
    for i, t in enumerate(t_values):
        px = MARGIN_L + (i + 0.5) * cell_w
        canvas.add(f'<text x="{_f(px)}" y="{HEIGHT - MARGIN_B + 14}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="9">{"%.3g" % t}</text>')
    for j, s in enumerate(s_values):
        py = HEIGHT - MARGIN_B - (j + 0.5) * cell_h
        canvas.add(f'<text x="{MARGIN_L - 6}" y="{_f(py + 3)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="9">{"%.3g" % s}</text>')
    canvas.add(f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 8}" text-anchor="middle" '
               'font-family="sans-serif" font-size="11">t</text>')
    canvas.add(f'<text x="14" y="{MARGIN_T + plot_h / 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="11" '
               f'transform="rotate(-90 14 {MARGIN_T + plot_h / 2})">s</text>')
    # color bar
    bar_x = WIDTH - MARGIN_R - 40
    steps = 32
    for k in range(steps):
        frac = (k + 0.5) / steps
        py = HEIGHT - MARGIN_B - (k + 1) * plot_h / steps
        canvas.add(f'<rect x="{bar_x}" y="{_f(py)}" width="14" '
                   f'height="{_f(plot_h / steps + 0.5)}" fill="{_heat_color(frac)}"/>')
    canvas.add(f'<text x="{bar_x + 18}" y="{HEIGHT - MARGIN_B}" font-family="sans-serif" '
               f'font-size="9">{"%.3g" % lo}</text>')
    canvas.add(f'<text x="{bar_x + 18}" y="{MARGIN_T + 10}" font-family="sans-serif" '
               f'font-size="9">{"%.3g" % hi}</text>')
    canvas.write(path)
