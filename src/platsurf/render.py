"""Deterministic SVG and ASCII pictures of plat diagrams.

The drawing is schematic: strands are vertical lines, caps are arcs,
and each twist box is a labeled rectangle over its two strands, odd
rows offset one strand to the right of even rows.  An allowable path
can be overlaid as a dashed polyline descending through the gaps it
uses.  Output is a byte string and depends only on the inputs, so
renders are reproducible.
"""

from __future__ import annotations

from .errors import ParameterError

# ``import platsurf`` binds render, so this module imports what it draws
# with only when it draws; typing is not imported at run time either.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence

    from .diagram import PlatDiagram
    from .paths import AllowablePath

_MARGIN = 40
_DX = 36
_DY = 56
_CAP = 24


def _positions(d: PlatDiagram, path: AllowablePath | Sequence[int] | None):
    """The validated entries of path and their corridor positions, or Nones."""
    if path is None:
        return None, None
    from .paths import allowable_entries, corridor_positions

    entries = allowable_entries(d, path)
    return entries, corridor_positions(entries)


def render(
    d: PlatDiagram,
    path: AllowablePath | Sequence[int] | None = None,
    fmt: str = "svg",
) -> bytes:
    """Render d (optionally with a path overlay) to SVG or ASCII bytes."""
    if fmt == "svg":
        return _render_svg(d, path)
    if fmt == "ascii":
        return _render_ascii(d, path)
    raise ParameterError(f"unknown render format {fmt!r}")


def _render_svg(d: PlatDiagram, path) -> bytes:
    from .diagram import box_strands

    _, ps = _positions(d, path)

    def x_at(x: int) -> int:
        return _MARGIN + (x - 1) * _DX

    y0 = _MARGIN + _CAP  # top of the strand band
    y1 = y0 + d.m * _DY
    width = 2 * _MARGIN + (2 * d.n - 1) * _DX
    height = 2 * _MARGIN + 2 * _CAP + d.m * _DY

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<g stroke="black" stroke-width="2" fill="none">',
    ]
    for x in range(1, 2 * d.n + 1):
        parts.append(f'<line x1="{x_at(x)}" y1="{y0}" x2="{x_at(x)}" y2="{y1}"/>')
    for j in range(1, d.n + 1):
        xl, xr = x_at(2 * j - 1), x_at(2 * j)
        r = (xr - xl) // 2
        parts.append(f'<path d="M {xl} {y0} A {r} {_CAP} 0 0 1 {xr} {y0}"/>')
        parts.append(f'<path d="M {xl} {y1} A {r} {_CAP} 0 0 0 {xr} {y1}"/>')
    parts.append("</g>")

    parts.append('<g font-family="monospace" font-size="14" text-anchor="middle">')
    for i, j, box in d.boxes():
        s, t = box_strands(i, j)
        bx = x_at(s) - 12
        by = y0 + (i - 1) * _DY + 14
        bw = x_at(t) - x_at(s) + 24
        bh = _DY - 28
        parts.append(
            f'<rect class="box" x="{bx}" y="{by}" width="{bw}" height="{bh}" '
            'fill="white" stroke="black" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{(x_at(s) + x_at(t)) // 2}" y="{by + bh // 2 + 5}">{box}</text>'
        )
    parts.append("</g>")

    if ps is not None:
        points = [f"{x_at(ps[0]) + _DX // 2},{_MARGIN}"]
        for i, p in enumerate(ps, 1):
            points.append(f"{x_at(p) + _DX // 2},{y0 + (i - 1) * _DY + _DY // 2}")
        points.append(f"{x_at(ps[-1]) + _DX // 2},{height - _MARGIN}")
        parts.append(
            f'<polyline class="path" points="{" ".join(points)}" fill="none" '
            'stroke="crimson" stroke-width="2" stroke-dasharray="6 4"/>'
        )

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def _render_ascii(d: PlatDiagram, path) -> bytes:
    from .diagram import box_strands

    entries, ps = _positions(d, path)

    def col(x: int) -> int:
        return 2 + 4 * (x - 1)

    width = col(2 * d.n) + 3

    def strand_line() -> list[str]:
        line = [" "] * width
        for x in range(1, 2 * d.n + 1):
            line[col(x)] = "│"
        return line

    def cap_line(top: bool) -> str:
        line = [" "] * width
        l, r = ("╭", "╮") if top else ("╰", "╯")
        for j in range(1, d.n + 1):
            a, b = col(2 * j - 1), col(2 * j)
            line[a] = l
            line[b] = r
            for c in range(a + 1, b):
                line[c] = "─"
        return "".join(line)

    lines = []
    if ps is not None:
        lines.append("path: (" + ", ".join(str(a) for a in entries) + ")")
    lines.append(cap_line(True))
    for i in range(1, d.m + 1):
        lines.append("".join(strand_line()))
        boxrow = strand_line()
        for j in range(1, d.row_length(i) + 1):
            s, t = box_strands(i, j)
            a, b = col(s) - 1, col(t) + 1
            label = str(d.box(i, j)).center(b - a - 1)
            boxrow[a] = "["
            boxrow[b] = "]"
            boxrow[a + 1 : b] = list(label)
        if ps is not None:
            marker = col(ps[i - 1]) + 2
            if boxrow[marker] == " ":
                boxrow[marker] = "┊"
        lines.append("".join(boxrow))
    lines.append("".join(strand_line()))
    lines.append(cap_line(False))
    return ("\n".join(lines) + "\n").encode()
