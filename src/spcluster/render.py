"""Text and SVG renderings of an S-P chart with its S and P curves.

Each renderer draws the chart it is given, in its own order, with its row
and column totals as the curves: the S-P chart's curves once
``spchart.rearrange`` has sorted it.  Both are pure string builders with
fixed formatting, so output is byte-stable for a given chart.
"""

from __future__ import annotations

from .spchart import SPChart

CELL = 20  # svg cell size in px


def render_text(chart: SPChart) -> str:
    """Grid of 0/1 cells with curve marks.

    The score curve is drawn as a '|' after the first S(i) cells of each
    row; the problem curve as '-' runs under column j after row P(j).
    """
    s_curve = chart.bits.sum(axis=1).tolist()
    p_curve = chart.bits.sum(axis=0).tolist()
    idw = max(len(s) for s in chart.student_ids)
    cw = max(2, max(len(p) for p in chart.problem_ids) + 1)

    lines = []
    header = " " * (idw + 2) + "".join(p.ljust(cw) for p in chart.problem_ids)
    lines.append(header.rstrip())

    def underline(row_number: int) -> str | None:
        if row_number not in p_curve:
            return None
        cells = "".join(
            ("-" * (cw - 1) if p == row_number else " " * (cw - 1)) + " "
            for p in p_curve
        )
        return (" " * (idw + 2) + cells).rstrip()

    top = underline(0)
    if top:
        lines.append(top)
    for i, (sid, bits) in enumerate(zip(chart.student_ids, chart.bits)):
        s = s_curve[i]
        row = sid.rjust(idw) + " " + ("|" if s == 0 else " ")
        for j, b in enumerate(bits):
            row += str(int(b)) + " " * (cw - 2) + ("|" if s == j + 1 else " ")
        lines.append(row.rstrip())
        under = underline(i + 1)
        if under:
            lines.append(under)
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape would import urllib.request at CLI start
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(chart: SPChart) -> str:
    """Grid of shaded cells, the score curve solid, the problem curve dashed."""
    s_curve = chart.bits.sum(axis=1).tolist()
    p_curve = chart.bits.sum(axis=0).tolist()
    L, N = chart.num_students, chart.num_problems
    x0 = 10 + 8 * max(len(s) for s in chart.student_ids)
    y0 = 30
    width = x0 + N * CELL + 10
    height = y0 + L * CELL + 10

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text { font: 10px monospace; }</style>',
    ]
    for j, pid in enumerate(chart.problem_ids):
        parts.append(f'<text x="{x0 + j * CELL + 3}" y="{y0 - 6}">{_escape(pid)}</text>')
    for i, sid in enumerate(chart.student_ids):
        parts.append(f'<text x="4" y="{y0 + i * CELL + 14}">{_escape(sid)}</text>')
    for i in range(L):
        for j in range(N):
            fill = "#444444" if chart.bits[i, j] else "#f0f0f0"
            parts.append(
                f'<rect x="{x0 + j * CELL}" y="{y0 + i * CELL}" width="{CELL}" '
                f'height="{CELL}" fill="{fill}" stroke="#999999"/>'
            )

    s_pts = [(x0 + s_curve[0] * CELL, y0)]
    for i, s in enumerate(s_curve):
        x = x0 + s * CELL
        s_pts.append((x, y0 + (i + 1) * CELL))
        if i + 1 < L:
            s_pts.append((x0 + s_curve[i + 1] * CELL, y0 + (i + 1) * CELL))
    p_pts = [(x0, y0 + p_curve[0] * CELL)]
    for j, p in enumerate(p_curve):
        y = y0 + p * CELL
        p_pts.append((x0 + (j + 1) * CELL, y))
        if j + 1 < N:
            p_pts.append((x0 + (j + 1) * CELL, y0 + p_curve[j + 1] * CELL))

    def polyline(points, color: str, dash: str = "") -> str:
        coords = " ".join(f"{x},{y}" for x, y in points)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"{extra}/>'

    parts.append(polyline(s_pts, "#d62728"))
    parts.append(polyline(p_pts, "#1f77b4", dash="4 2"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
