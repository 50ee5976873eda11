"""SVG and ASCII rendering."""

import math
import random

import pytest

from platsurf import ParameterError, PathError, make_diagram, random_diagram, render
from helpers import per_box_render_ascii, per_box_render_svg, row_len

ALL_THREES = [[3, 3], [3, 3, 3], [3, 3]]


def test_ascii_frozen_small():
    out = render(make_diagram(3, 1, [[2, 4]]), (1,), fmt="ascii")
    assert out.decode() == (
        "path: (1)\n"
        "  ╭───╮   ╭───╮   ╭───╮  \n"
        "  │   │   │   │   │   │  \n"
        "  │  [  2  ]┊[  4  ]  │  \n"
        "  │   │   │   │   │   │  \n"
        "  ╰───╯   ╰───╯   ╰───╯  \n"
    )


def test_ascii_structure():
    d = make_diagram(3, 3, ALL_THREES)
    lines = render(d, fmt="ascii").decode().splitlines()
    assert len(lines) == 2 * d.m + 3
    assert lines[0].count("╭") == lines[0].count("╮") == d.n
    assert lines[-1].count("╰") == lines[-1].count("╯") == d.n
    assert lines[1].count("│") == 2 * d.n
    assert lines[2].count("[") == d.row_length(1)
    assert lines[4].count("[") == d.row_length(2)
    assert all(len(line) == len(lines[0]) for line in lines)


def test_ascii_path_overlay():
    d = make_diagram(3, 3, ALL_THREES)
    plain = render(d, fmt="ascii").decode()
    overlaid = render(d, (1, 1, 1), fmt="ascii").decode()
    assert "┊" not in plain and "path:" not in plain
    assert overlaid.splitlines()[0] == "path: (1, 1, 1)"
    assert overlaid.count("┊") == 3


def test_path_given_as_an_iterator_renders_as_a_tuple():
    d = make_diagram(3, 3, ALL_THREES)
    for fmt in ("svg", "ascii"):
        assert render(d, iter([1, 2, 1]), fmt) == render(d, (1, 2, 1), fmt)


def test_svg_structure():
    d = make_diagram(3, 3, ALL_THREES)
    svg = render(d).decode()
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>\n")
    assert svg.count("<line ") == 2 * d.n
    assert svg.count('class="box"') == 7
    assert svg.count("<text ") == 7
    assert svg.count("<path ") == 2 * d.n  # n cap arcs top, n bottom
    assert 'class="path"' not in svg


def test_svg_path_overlay():
    d = make_diagram(3, 3, ALL_THREES)
    svg = render(d, (1, 2, 1)).decode()
    assert svg.count('class="path"') == 1
    assert "crimson" in svg and "stroke-dasharray" in svg
    polyline = next(l for l in svg.splitlines() if 'class="path"' in l)
    # m + 2 vertices: one per row plus the two cap stubs
    assert polyline.count(",") == d.m + 2


def test_svg_shows_rational_labels():
    d = make_diagram(3, 1, [[[1, 3], 2]])
    svg = render(d).decode()
    assert ">1/3</text>" in svg
    assert ">2</text>" in svg


def test_render_input_errors():
    d = make_diagram(3, 3, ALL_THREES)
    with pytest.raises(ParameterError, match="format"):
        render(d, fmt="png")
    with pytest.raises(PathError):
        render(d, (9, 9, 9))
    with pytest.raises(PathError):
        render(d, (1, 1), fmt="ascii")


def test_render_is_deterministic_bytes():
    d = random_diagram(5, 5, seed=21)
    for fmt in ("svg", "ascii"):
        assert render(d, fmt=fmt) == render(d, fmt=fmt)
        assert isinstance(render(d, fmt=fmt), bytes)
    assert render(d, (1, 1, 1, 1, 1)) == render(d, (1, 1, 1, 1, 1))


def test_ascii_always_aligned():
    for seed in range(5):
        d = random_diagram(3 + seed % 3, (1, 3, 5)[seed % 3], seed=seed)
        lines = render(d, fmt="ascii").decode().splitlines()
        assert len({len(line) for line in lines}) == 1


def test_ascii_frozen_wide_labels():
    # a label wider than five characters pushes the rest of its row right,
    # boxes still one blank apart
    out = render(make_diagram(3, 1, [[[-11, 13], 3]]), (1,), fmt="ascii")
    assert out.decode() == (
        "path: (1)\n"
        "  ╭───╮   ╭───╮   ╭───╮  \n"
        "  │   │   │   │   │   │  \n"
        "  │  [-11/13] [  3  ]  │  \n"
        "  │   │   │   │   │   │  \n"
        "  ╰───╯   ╰───╯   ╰───╯  \n"
    )
    rows = [[123456, [-11, 13], 2], [1, -1234567, 3, [1, 3]], [2, 0, 10**12]]
    out = render(make_diagram(4, 3, rows), (1, 2, 1), fmt="ascii")
    assert out.decode() == (
        "path: (1, 2, 1)\n"
        "  ╭───╮   ╭───╮   ╭───╮   ╭───╮  \n"
        "  │   │   │   │   │   │   │   │  \n"
        "  │  [123456] [-11/13] [  2  ]  │  \n"
        "  │   │   │   │   │   │   │   │  \n"
        " [  1  ] [-1234567] [  3  ] [ 1/3 ] \n"
        "  │   │   │   │   │   │   │   │  \n"
        "  │  [  2  ]┊[  0  ] [1000000000000]  │  \n"
        "  │   │   │   │   │   │   │   │  \n"
        "  ╰───╯   ╰───╯   ╰───╯   ╰───╯  \n"
    )


def test_ascii_frozen_single_strand_pair():
    # n = 1: the odd rows hold no boxes and draw as bare strands
    assert render(make_diagram(1, 3, [[], [5], []]), fmt="ascii").decode() == (
        "  ╭───╮  \n"
        "  │   │  \n"
        "  │   │  \n"
        "  │   │  \n"
        " [  5  ] \n"
        "  │   │  \n"
        "  │   │  \n"
        "  │   │  \n"
        "  ╰───╯  \n"
    )
    assert render(make_diagram(1, 1, [[]]), fmt="ascii").decode() == (
        "  ╭───╮  \n"
        "  │   │  \n"
        "  │   │  \n"
        "  │   │  \n"
        "  ╰───╯  \n"
    )


def _random_boxes_and_path(rng):
    """A diagram of twists -7..7 and rational boxes, labels wider than five
    characters among them, and an allowable path on it or None."""
    n, m = rng.randint(1, 9), rng.choice(range(1, 14, 2))
    rows = []
    for i in range(1, m + 1):
        row = []
        for _ in range(row_len(n, i)):
            p, q = rng.randint(-13, 13), rng.randint(-13, 13)
            row.append((p, q) if rng.random() < 0.3 and math.gcd(p, q) == 1 else rng.randint(-7, 7))
        rows.append(row)
    if n <= 2 or rng.random() < 0.5:
        return make_diagram(n, m, rows), None
    entries = [rng.randint(1, n - 2)]
    for i in range(1, m):  # the step rule from row i to row i + 1
        prev = entries[-1]
        steps = (prev, prev + 1) if i % 2 == 1 else (prev - 1, prev)
        entries.append(rng.choice([a for a in steps if 1 <= a <= row_len(n, i + 1) - 1]))
    return make_diagram(n, m, rows), tuple(entries)


def test_renders_match_the_per_box_oracles():
    rng = random.Random(97)
    wide = paths = 0
    for _ in range(400):
        d, path = _random_boxes_and_path(rng)
        assert render(d, path, "svg") == per_box_render_svg(d, path), (d, path)
        assert render(d, path, "ascii") == per_box_render_ascii(d, path), (d, path)
        wide += any(len(str(box)) > 5 for _, _, box in d.boxes())
        paths += path is not None
    assert wide > 100 and paths > 100, (wide, paths)
