"""Minimal deterministic SVG line charts.

Hand-built XML so repeated runs emit byte-identical files; one polyline per
series, class="series" for easy post-hoc inspection.
"""

from __future__ import annotations

from .errors import InputError

__all__ = ["line_chart_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_MARGIN_L = 64
_MARGIN_R = 120
_MARGIN_T = 40
_MARGIN_B = 48
_WIDTH, _HEIGHT = 720, 480
_TICKS = 5


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _ticks(lo: float, hi: float):
    if hi == lo:
        hi = lo + 1.0
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def line_chart_svg(series, *, title="", x_label="", y_label="") -> str:
    """Render (name, xs, ys) triples as an SVG line chart string.

    Series must be nonempty and every series must contain at least one
    point; x and y ranges are padded 5% around the data.
    """
    if not series:
        raise InputError("chart needs at least one series")
    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys]
    if not xs_all:
        raise InputError("chart series are empty")
    for name, xs, ys in series:
        if len(xs) != len(ys):
            raise InputError(f"series {name!r} has mismatched x/y lengths")

    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    x_pad = 0.05 * (x_hi - x_lo or 1.0)
    y_pad = 0.05 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (float(x) - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + plot_h - (float(y) - y_lo) / (y_hi - y_lo) * plot_h

    out = []

    def text(x, y, size, body, anchor=None, extra=""):
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        out.append(f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}"{extra}>{body}</text>')

    def line(x1, y1, x2, y2, stroke="black", extra=""):
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{extra}/>')

    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    if title:
        text(f"{_WIDTH / 2:.1f}", 22, 15, title, "middle")

    # axes
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    line(x0, y0, x0 + plot_w, y0)
    line(x0, _MARGIN_T, x0, y0)
    for tx in _ticks(x_lo + x_pad, x_hi - x_pad):
        line(f"{px(tx):.1f}", y0, f"{px(tx):.1f}", y0 + 5)
        text(f"{px(tx):.1f}", y0 + 20, 11, _fmt(tx), "middle")
    for ty in _ticks(y_lo + y_pad, y_hi - y_pad):
        line(x0 - 5, f"{py(ty):.1f}", x0, f"{py(ty):.1f}")
        text(x0 - 8, f"{py(ty) + 4:.1f}", 11, _fmt(ty), "end")
    if x_label:
        text(f"{x0 + plot_w / 2:.1f}", _HEIGHT - 10, 12, x_label, "middle")
    if y_label:
        mid = f"{_MARGIN_T + plot_h / 2:.1f}"
        text(16, mid, 12, y_label, "middle", f' transform="rotate(-90 16 {mid})"')

    # series + legend
    for s, (name, xs, ys) in enumerate(series):
        color = _PALETTE[s % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline class="series" fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{pts}"/>'
        )
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>')
        ly = _MARGIN_T + 14 + 18 * s
        lx = _MARGIN_L + plot_w + 10
        line(lx, ly - 4, lx + 18, ly - 4, color, ' stroke-width="1.5"')
        text(lx + 24, ly, 11, name)

    out.append("</svg>")
    return "\n".join(out) + "\n"
