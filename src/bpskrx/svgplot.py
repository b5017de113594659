"""Deterministic SVG line charts for sweep CSVs.

Hand-assembled SVG text rather than a plotting library: the output must be
byte-identical across runs and machines (no timestamps, no library version
strings, no float jitter), which is exactly what the determinism tests and
``git diff`` want. Log-log axes with decade ticks, one polyline per
(receiver, provenance) group, fixed palette by group order.
"""

from __future__ import annotations

import math

from .sweepio import CsvRow

__all__ = ["render_svg"]

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
)

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 160, 20, 50


def _ticks(lo: float, hi: float, scale, length: float, gap: float):
    """``(k, pixel, labelled)`` for each power of ten ``10**k`` in [lo, hi].

    Every decade gets a tick. Labels go every ``step`` decades so they sit at
    least ``gap`` px apart on an axis ``length`` px long, counted down from
    the top decade, which therefore always keeps its label.
    """
    ks = [
        k
        for k in range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1)
        if lo <= 10.0**k <= hi
    ]
    step = max(1, math.ceil(gap * (math.log10(hi) - math.log10(lo)) / length))
    return [(k, scale(10.0**k), (ks[-1] - k) % step == 0) for k in ks]


def _decade_bounds(vals: list[float]) -> tuple[float, float]:
    """Powers of ten around positive finite ``vals``. The exponents stay in
    [-323, 308], where ``10.0 ** k`` neither underflows to 0.0 nor
    overflows; subnormal errors reach 5e-324."""
    lo = max(math.floor(math.log10(min(vals))), -323)
    hi = min(math.ceil(math.log10(max(vals))), 308)
    return 10.0**lo, 10.0**hi


def _fmt_pow10(k: int) -> str:
    return f"1e{k:+03d}" if k else "1"


def render_svg(rows: list[CsvRow]) -> str:
    """Render sweep rows as an SVG string.

    x is alpha^2, y the error probability, both log scale. Rows with a
    nonpositive error cannot be placed on a log axis and are skipped.
    With no plottable rows the axes frame is still drawn.
    """
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for row in rows:
        if row.p_error > 0.0 and row.alpha_sq > 0.0:
            groups.setdefault((row.receiver, row.provenance), []).append(
                (row.alpha_sq, row.p_error)
            )
    for pts in groups.values():
        pts.sort()

    if groups:
        xs = [x for pts in groups.values() for x, _ in pts]
        ys = [y for pts in groups.values() for _, y in pts]
        x_lo, x_hi = _decade_bounds(xs)
        y_lo, y_hi = _decade_bounds(ys)
    else:
        x_lo, x_hi = 1e-2, 1e1
        y_lo, y_hi = 1e-10, 1.0
    if x_lo == x_hi:
        x_hi = 10.0 * x_lo
    if y_lo == y_hi:
        y_hi = 10.0 * y_lo

    px_w = _W - _ML - _MR
    px_h = _H - _MT - _MB

    lx_lo, ly_hi = math.log10(x_lo), math.log10(y_hi)
    x_span, y_span = math.log10(x_hi) - lx_lo, ly_hi - math.log10(y_lo)

    def sx(x: float) -> float:
        return _ML + px_w * (math.log10(x) - lx_lo) / x_span

    def sy(y: float) -> float:
        return _MT + px_h * (ly_hi - math.log10(y)) / y_span

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{px_w}" height="{px_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]

    for k, px, labelled in _ticks(x_lo, x_hi, sx, px_w, 48):
        out.append(
            f'<line x1="{px:.2f}" y1="{_MT + px_h}" x2="{px:.2f}" '
            f'y2="{_MT + px_h + 5}" stroke="black" stroke-width="1"/>'
        )
        if labelled:
            out.append(
                f'<text x="{px:.2f}" y="{_MT + px_h + 18}" font-size="11" '
                f'text-anchor="middle" font-family="monospace">{_fmt_pow10(k)}</text>'
            )
    for k, py, labelled in _ticks(y_lo, y_hi, sy, px_h, 14):
        out.append(
            f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        if labelled:
            out.append(
                f'<text x="{_ML - 8}" y="{py + 4:.2f}" font-size="11" '
                f'text-anchor="end" font-family="monospace">{_fmt_pow10(k)}</text>'
            )
    out.append(
        f'<text x="{_ML + px_w / 2:.2f}" y="{_H - 10}" font-size="13" '
        'text-anchor="middle" font-family="monospace">alpha^2</text>'
    )
    out.append(
        f'<text x="16" y="{_MT + px_h / 2:.2f}" font-size="13" text-anchor="middle" '
        f'font-family="monospace" transform="rotate(-90 16 {_MT + px_h / 2:.2f})">'
        "error probability</text>"
    )

    for gi, key in enumerate(sorted(groups)):
        receiver, provenance = key
        color = _PALETTE[gi % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in groups[key])
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        label = receiver if provenance == "analytic" else f"{receiver} [{provenance}]"
        ly = _MT + 16 + 18 * gi
        out.append(
            f'<line x1="{_W - _MR + 10}" y1="{ly - 4}" x2="{_W - _MR + 34}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_W - _MR + 40}" y="{ly}" font-size="11" '
            f'font-family="monospace">{label}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
