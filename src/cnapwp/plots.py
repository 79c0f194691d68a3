"""Self-contained SVG renderings of run results. No plotting dependencies."""
from __future__ import annotations

import os
from typing import Mapping, Sequence

from .metrics import ForgettingMatrix

PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb")
FONT = "font-family=\"Helvetica, Arial, sans-serif\""


def _esc(text) -> str:
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def accuracy_curve_svg(
    curves: Mapping[str, Sequence[float]],
    path: str | os.PathLike,
    title: str = "rolling accuracy",
    width: int = 900,
    height: int = 380,
) -> None:
    """Overlay one rolling-accuracy polyline per named run."""
    left, right, top, bottom = 60, 20, 40, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    n = max((len(ys) for ys in curves.values()), default=0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="22" text-anchor="middle" font-size="15" {FONT}>{_esc(title)}</text>',
    ]
    # axes and gridlines
    for i in range(6):
        y = top + plot_h * (1 - i / 5)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" font-size="11" {FONT}>{i / 5:.1f}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + plot_w * frac
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 18}" text-anchor="middle" font-size="11" {FONT}>'
            f"{int(frac * max(n - 1, 0))}</text>"
        )
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{left + plot_w / 2}" y="{height - 12}" text-anchor="middle" font-size="12" {FONT}>event index</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2}" text-anchor="middle" font-size="12" {FONT} '
        f'transform="rotate(-90 16 {top + plot_h / 2})">accuracy</text>'
    )
    for ci, (name, ys) in enumerate(curves.items()):
        if len(ys) == 0:
            continue
        color = PALETTE[ci % len(PALETTE)]
        step = max(1, len(ys) // (2 * plot_w))  # thin very long curves
        points = []
        for i in range(0, len(ys), step):
            x = left + plot_w * (i / max(n - 1, 1))
            y = top + plot_h * (1 - min(max(float(ys[i]), 0.0), 1.0))
            points.append(f"{x:.1f},{y:.1f}")
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = top + 16 + 16 * ci
        parts.append(f'<line x1="{left + 10}" y1="{ly - 4}" x2="{left + 34}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{left + 40}" y="{ly}" font-size="12" {FONT}>{_esc(name)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _heat_color(delta: float, scale: float) -> str:
    """Diverging fill: forgetting (positive delta) in cold blue, gains in warm red."""
    t = min(abs(delta) / scale, 1.0) if scale > 0 else 0.0
    if delta >= 0:
        r, g, b = 255 - t * (255 - 49), 255 - t * (255 - 130), 255 - t * (255 - 189)
    else:
        r, g, b = 255 - t * (255 - 214), 255 - t * (255 - 96), 255 - t * (255 - 77)
    return f"rgb({int(r)},{int(g)},{int(b)})"


def forgetting_heatmap_svg(
    matrix: ForgettingMatrix,
    path: str | os.PathLike,
    title: str = "forgetting (first-occurrence accuracy minus current, x100)",
) -> None:
    """Tasks by occurrence grid of accuracy deltas; empty cells are revisits that never happened."""
    cell_w, cell_h, left, top = 86, 40, 150, 70
    tasks, deltas = matrix.tasks, matrix.deltas
    occs = max(matrix.max_occurrence, 1)
    width = left + cell_w * occs + 30
    height = top + cell_h * max(len(tasks), 1) + 30
    scale = max((abs(d) for d in deltas.values()), default=0.0) or 1e-9
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" font-size="14" {FONT}>{_esc(title)}</text>',
    ]
    for j in range(occs):
        x = left + cell_w * j + cell_w / 2
        parts.append(
            f'<text x="{x}" y="{top - 10}" text-anchor="middle" font-size="12" {FONT}>occ {j + 1}</text>'
        )
    for i, task in enumerate(tasks):
        y = top + cell_h * i
        parts.append(
            f'<text x="{left - 10}" y="{y + cell_h / 2 + 4}" text-anchor="end" font-size="12" {FONT}>{_esc(task)}</text>'
        )
        for j in range(occs):
            key = (task, j + 1)
            x = left + cell_w * j
            if key in deltas:
                delta = deltas[key]
                fill = _heat_color(delta, scale)
                label = f"{delta * 100:+.2f}"
            else:
                fill, label = "#eeeeee", ""
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" fill="{fill}" stroke="#666666"/>'
            )
            if label:
                parts.append(
                    f'<text x="{x + cell_w / 2}" y="{y + cell_h / 2 + 4}" text-anchor="middle" '
                    f'font-size="12" {FONT}>{label}</text>'
                )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
