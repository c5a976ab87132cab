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
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )

    # axes
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    out.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    out.append(f'<line x1="{x0}" y1="{_MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>')
    for tx in _ticks(x_lo + x_pad, x_hi - x_pad):
        out.append(
            f'<line x1="{px(tx):.1f}" y1="{y0}" x2="{px(tx):.1f}" y2="{y0 + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(tx):.1f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo + y_pad, y_hi - y_pad):
        out.append(
            f'<line x1="{x0 - 5}" y1="{py(ty):.1f}" x2="{x0}" y2="{py(ty):.1f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x0 - 8}" y="{py(ty) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{x0 + plot_w / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{x_label}</text>'
        )
    if y_label:
        out.append(
            f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{y_label}</text>'
        )

    # series + legend
    for s, (name, xs, ys) in enumerate(series):
        color = _PALETTE[s % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline class="series" fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{pts}"/>'
        )
        for x, y in zip(xs, ys):
            out.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>'
            )
        ly = _MARGIN_T + 14 + 18 * s
        lx = _MARGIN_L + plot_w + 10
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" font-size="11">{name}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
