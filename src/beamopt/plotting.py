"""Hand-rolled SVG line charts of spectral efficiency vs SNR.

No plotting library: the output must be byte-identical for identical
input, so every coordinate is formatted explicitly and nothing depends
on library versions, hash seeds, or timestamps.
"""

from __future__ import annotations

import itertools
import math

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48

METHOD_COLORS = {
    "ZF": "#1f77b4",
    "MMSE": "#ff7f0e",
    "NNBF": "#2ca02c",
    "NNBF-P": "#d62728",
}
_FALLBACK_COLORS = ("#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


def _escape(text: str) -> str:
    """SVG character data; xml.sax.saxutils would import urllib and ssl (~50 ms)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    raw_step = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw_step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9:
        ticks.append(round(t, 10))
        t += step
    return ticks


def render_results_svg(rows, path) -> None:
    """One polyline per method, x = nominal SNR (dB), y = mean spectral efficiency."""
    if not rows:
        raise ValueError("no rows to plot")
    methods: list[str] = []
    series: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        if r.method not in series:
            methods.append(r.method)
            series[r.method] = []
        series[r.method].append((r.snr_db, r.se_mean))
    for pts in series.values():
        pts.sort(key=lambda q: q[0])

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    y_lo, y_hi = 0.0, max(max(ys), 1e-9) * 1.05

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    titles = []
    for r in rows:
        if r.experiment and r.experiment not in titles:
            titles.append(r.experiment)
    title = _escape(", ".join(titles))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="22" font-family="sans-serif" font-size="14" '
        f'text-anchor="middle">{title}</text>' if title else "",
    ]

    for t in _nice_ticks(x_lo, x_hi, 8):
        x = px(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{MARGIN_T}" x2="{_fmt(x)}" '
                     f'y2="{MARGIN_T + plot_h}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{MARGIN_T + plot_h + 18}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="middle">{t:g}</text>')
    for t in _nice_ticks(y_lo, y_hi, 6):
        y = py(t)
        parts.append(f'<line x1="{MARGIN_L}" y1="{_fmt(y)}" x2="{MARGIN_L + plot_w}" '
                     f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="end">{t:g}</text>')

    frame = (f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
             f'fill="none" stroke="black" stroke-width="1"/>')
    parts.append(frame)

    fallback = itertools.cycle(_FALLBACK_COLORS)
    colors = {}
    for method in methods:
        colors[method] = METHOD_COLORS.get(method) or next(fallback)
        pts = series[method]
        coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{colors[method]}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" '
                         f'fill="{colors[method]}"/>')

    legend_y = MARGIN_T + 10
    for method in methods:
        parts.append(f'<line x1="{MARGIN_L + 12}" y1="{legend_y}" x2="{MARGIN_L + 40}" '
                     f'y2="{legend_y}" stroke="{colors[method]}" stroke-width="2"/>')
        parts.append(f'<text x="{MARGIN_L + 46}" y="{legend_y + 4}" font-family="sans-serif" '
                     f'font-size="12">{_escape(method)}</text>')
        legend_y += 18

    parts.append(f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 10}" font-family="sans-serif" '
                 f'font-size="13" text-anchor="middle">SNR (dB)</text>')
    parts.append(f'<text x="18" y="{MARGIN_T + plot_h // 2}" font-family="sans-serif" '
                 f'font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 18 {MARGIN_T + plot_h // 2})">'
                 f'Spectral efficiency (bits/s/Hz)</text>')
    parts.append("</svg>")

    with open(path, "wb") as f:
        f.write("\n".join(p for p in parts if p).encode("utf-8"))
