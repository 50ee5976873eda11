"""Deterministic SVG and ASCII pictures of plat diagrams.

The drawing is schematic: strands are vertical lines, caps are arcs,
and each twist box is a labeled rectangle over its two strands, odd
rows offset one strand to the right of even rows.  An allowable path
can be overlaid as a dashed polyline descending through the gaps it
uses.  Output is a byte string and depends only on the inputs, so
renders are reproducible.

Both pictures are built a row at a time: the SVG formats each box with
one ``%`` of its row's string, and an ASCII box row is one join of
``[label]`` boxes between fixed runs of strands, the path marker patched
in.  A label wider than five pushes the rest of its row right.
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
    _, ps = _positions(d, path)
    y0 = _MARGIN + _CAP  # top of the strand band
    y1 = y0 + d.m * _DY
    width = 2 * _MARGIN + (2 * d.n - 1) * _DX
    height = 2 * _MARGIN + 2 * _CAP + d.m * _DY
    xs = range(_MARGIN, width - _MARGIN + 1, _DX)  # the strands' x, left to right

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<g stroke="black" stroke-width="2" fill="none">',
    ]
    parts += [f'<line x1="{x}" y1="{y0}" x2="{x}" y2="{y1}"/>' for x in xs]
    r = _DX // 2
    for xl in xs[::2]:
        parts.append(f'<path d="M {xl} {y0} A {r} {_CAP} 0 0 1 {xl + _DX} {y0}"/>')
        parts.append(f'<path d="M {xl} {y1} A {r} {_CAP} 0 0 0 {xl + _DX} {y1}"/>')
    parts.append("</g>")

    # a box spans its two strands and 12 more on either side; odd rows start
    # on strand 2, even rows on strand 1
    parts.append('<g font-family="monospace" font-size="14" text-anchor="middle">')
    bh = _DY - 28
    for i, row in enumerate(d.rows):
        by = y0 + i * _DY + 14
        box = (
            '<rect class="box" x="%%d" y="%d" width="%d" height="%d" '
            'fill="white" stroke="black" stroke-width="2"/>\n<text x="%%d" y="%d">%%s</text>'
        ) % (by, _DX + 24, bh, by + bh // 2 + 5)
        x0 = xs[1 - i % 2] - 12
        parts += [box % (x, x + 12 + _DX // 2, b) for x, b in zip(range(x0, width, 2 * _DX), row)]
    parts.append("</g>")

    if ps is not None:
        mid = _MARGIN - _DX // 2  # the x of corridor 0, between strands 0 and 1
        points = [f"{mid + ps[0] * _DX},{_MARGIN}"]
        for i, p in enumerate(ps):
            points.append(f"{mid + p * _DX},{y0 + i * _DY + _DY // 2}")
        points.append(f"{mid + ps[-1] * _DX},{height - _MARGIN}")
        parts.append(
            f'<polyline class="path" points="{" ".join(points)}" fill="none" '
            'stroke="crimson" stroke-width="2" stroke-dasharray="6 4"/>'
        )

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def _render_ascii(d: PlatDiagram, path) -> bytes:
    entries, ps = _positions(d, path)
    # strand x sits at column 4x - 2; a box "[label]" fills the columns from
    # one left of its left strand to one right of its right strand, boxes
    # one blank apart: odd rows from column 5, even rows from column 1; a
    # label wider than five pushes the rest of its row right
    strands = "  " + "│   " * (2 * d.n - 1) + "│  "
    lines = []
    if ps is not None:
        lines.append("path: (" + ", ".join(str(a) for a in entries) + ")")
    lines.append("  " + "   ".join(["╭───╮"] * d.n) + "  ")
    for i, row in enumerate(d.rows):
        lines.append(strands)
        first = 5 if i % 2 == 0 else 1
        boxes = ["[" + label.center(5) + "]" for label in map(str, row)]
        line = " ".join([strands[: first - 1], *boxes, strands[first + 8 * len(row) :]])
        if ps is not None:
            marker = 4 * ps[i]  # the corridor's column, right of strand ps[i]
            if line[marker] == " ":
                line = line[:marker] + "┊" + line[marker + 1 :]
        lines.append(line)
    lines.append(strands)
    lines.append("  " + "   ".join(["╰───╯"] * d.n) + "  ")
    return ("\n".join(lines) + "\n").encode()
