"""SVG and CSV emitters for layouts, plus the layout-CSV reader."""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .graphs import Graph
from .layout import Layout, normalize_layout

VIEWPORT = 1000.0
MARGIN_FRAC = 0.05
VERTEX_RADIUS_FRAC = 0.006  # 0.6% of the viewport


def layout_to_svg(g: Graph, layout: Layout, *, labels: bool = False) -> str:
    """Straight-line node-link SVG: m <line> elements under n <circle> elements."""
    norm = normalize_layout(layout)
    margin = VIEWPORT * MARGIN_FRAC
    scale = VIEWPORT * (1.0 - 2.0 * MARGIN_FRAC)
    pts = norm.coords * scale + margin
    # SVG y grows downward; flip so the layout reads like a plot.
    ys = VIEWPORT - pts[:, 1]
    xs = pts[:, 0]
    r = VIEWPORT * VERTEX_RADIUS_FRAC
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEWPORT:.0f}" '
        f'height="{VIEWPORT:.0f}" viewBox="0 0 {VIEWPORT:.0f} {VIEWPORT:.0f}">',
        f'<g stroke="#444" stroke-width="{r / 4:.2f}">',
    ]
    for u, v in g.edges:
        out.append(
            f'<line x1="{xs[u]:.3f}" y1="{ys[u]:.3f}" x2="{xs[v]:.3f}" y2="{ys[v]:.3f}"/>'
        )
    out.append("</g>")
    out.append('<g fill="#1f77b4">')
    for i in range(g.n):
        out.append(f'<circle cx="{xs[i]:.3f}" cy="{ys[i]:.3f}" r="{r:.2f}"/>')
    out.append("</g>")
    if labels:
        out.append(f'<g font-size="{3 * r:.1f}" fill="#000">')
        for i in range(g.n):
            name = g.labels[i] if g.labels else str(i)
            # Text content: escape XML's markup characters, "&" first.
            name = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            out.append(
                f'<text x="{xs[i] + r:.3f}" y="{ys[i] - r:.3f}">{name}</text>'
            )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def csv_text(header, rows) -> str:
    """The one CSV dialect of every table: a header row, then `rows`, "\\n" line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def layout_to_csv(layout: Layout) -> str:
    """Coordinate CSV "vertex,x,y" on the normalized (unit-box) layout."""
    norm = normalize_layout(layout)
    return csv_text(["vertex", "x", "y"], ([i, x, y] for i, (x, y) in enumerate(norm.coords)))


def read_layout_csv(text: str) -> Layout:
    """Read a "vertex,x,y" CSV back into a Layout (rows sorted by vertex).

    Malformed input (short rows, non-numeric cells, non-finite coordinates,
    ids other than 0..n-1) raises ValueError.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:3]] != ["vertex", "x", "y"]:
        raise ValueError("layout CSV must have a 'vertex,x,y' header")
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) < 3:
            raise ValueError(f"layout CSV line {reader.line_num}: expected vertex,x,y")
        try:
            v, x, y = int(row[0]), float(row[1]), float(row[2])
        except ValueError:
            raise ValueError(f"layout CSV line {reader.line_num}: non-numeric cell") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"layout CSV line {reader.line_num}: non-finite coordinate")
        rows.append((v, x, y))
    if not rows:
        raise ValueError("layout CSV contains no rows")
    rows.sort()
    if [v for v, _, _ in rows] != list(range(len(rows))):
        raise ValueError("layout CSV vertex ids must be 0..n-1")
    return Layout(np.array([[x, y] for _, x, y in rows]))


def trajectory_to_csv(trajectory) -> str:
    """Sampled trajectory CSV "t,vertex,x,y"."""
    return csv_text(
        ["t", "vertex", "x", "y"],
        ([t, i, x, y] for t, layout in trajectory for i, (x, y) in enumerate(layout.coords)),
    )


def magnitude_curve_to_csv(rows) -> str:
    """Total-magnitude curve CSV "t,Ma,Mr,f"."""
    return csv_text(["t", "Ma", "Mr", "f"], rows)
