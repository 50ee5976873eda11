"""Braid word and PD code export.

Braid words: reading the rows top to bottom and each row left to
right, box j of an odd row sits on strands (2j, 2j+1) and contributes
the syllable s(2j)^a; in an even row the box sits on (2j-1, 2j) and
contributes s(2j-1)^a.  Zero boxes contribute nothing.  Only all-twist
diagrams have a braid reading; the plat closure of the word (cap the
top and bottom in pairs) recovers the link, and the permutation induced
by the word matches the diagram's strand permutation.

PD codes: every twist box is expanded into |a| stacked crossings,
numbered in sweep order (rows top to bottom, boxes left to right, each
box's crossings downward), and the diagram becomes a 4-valent graph
whose edges are the arcs between consecutive crossings.  The arcs come
from the walk of ``component_cycles``: each cycle lists the crossings
its strand passes, downward through a box in increasing order and
upward in decreasing order, leaving each crossing by the port diagonal
to the one it entered by.  Arcs are labeled 1, 2, 3, ... consecutively
along each link component, components taken in canonical order, each
starting on the arc through its smallest segment and headed to that
arc's end of lower (crossing, port) rank, so the output is
reproducible byte for byte.  Each crossing is emitted as X(a, b, c, d):
``a`` is the label on the arc entering on the under-strand, and b, c, d
follow counterclockwise (in page coordinates: west ports on the left,
north up).  Sign convention, fixed in FORMATS.md: in a positive twist
the strand running northwest to southeast passes under.

A component that never enters a crossed box (possible when all its
boxes are zero twists) has no place in a PD code; such components are
omitted from the output, and a diagram with no crossings at all is an
error.  On diagrams satisfying the strict hypotheses this never drops
anything: every component runs through some odd-row box, and those all
carry crossings.

A PD code costs memory in proportion to its crossings, so a diagram
with more than ``MAX_PD_CROSSINGS`` is refused before anything is built.
"""

from __future__ import annotations

import dataclasses

from .diagram import PlatDiagram, Twist, box_strands
from .errors import MalformedPDCodeError, ParameterError, UnsupportedBoxError
from .topology import component_cycles, swap_permutation

MAX_PD_CROSSINGS = 10**6

# ---------------------------------------------------------------------------
# braid words


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands, as syllables."""

    strands: int
    syllables: tuple[tuple[int, int], ...]  # (generator index, signed exponent)

    def text(self) -> str:
        return " ".join(f"s{g}^{e}" for g, e in self.syllables)

    def permutation(self) -> tuple[int, ...]:
        """Position permutation of the word, odd exponents transposing."""
        return swap_permutation(
            self.strands, ((g, g + 1) for g, e in self.syllables if e % 2 != 0)
        )


def to_braid_word(d: PlatDiagram) -> BraidWord:
    """The braid word of an all-twist diagram; zero boxes drop out."""
    syllables = []
    for i, j, box in d.boxes():
        if not isinstance(box, Twist):
            raise UnsupportedBoxError(
                f"box ({i}, {j}) is rational; only twist boxes have a braid form"
            )
        if box.a != 0:
            syllables.append((box_strands(i, j)[0], box.a))
    return BraidWord(2 * d.n, tuple(syllables))


# ---------------------------------------------------------------------------
# PD codes

# a port is its rank counterclockwise in page coordinates; a strand leaves
# a crossing by the port diagonally opposite the one it entered by
_NW, _SW, _SE, _NE = range(4)
_DIAGONAL = (_SE, _NE, _NW, _SW)
_UNDER = {1: (_NW, _SE), -1: (_NE, _SW)}  # the under-strand's ports, by sign


@dataclasses.dataclass(frozen=True)
class PDCode:
    """Planar diagram code: one X(a, b, c, d) tuple per crossing."""

    crossings: tuple[tuple[int, int, int, int], ...]

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def text(self) -> str:
        inner = ", ".join("X({}, {}, {}, {})".format(*c) for c in self.crossings)
        return f"PD[{inner}]"


def pd_trace_components(code: PDCode) -> int:
    """Number of link components readable off the code alone.

    The two through-strands of X(a, b, c, d) are a-c and b-d; union the
    labels and count the groups.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, c, d in code.crossings:
        parent[find(a)] = find(c)
        parent[find(b)] = find(d)
    return sum(1 for x in parent if parent[x] == x)


def pd_validate(code: PDCode) -> None:
    """Raise if any arc label fails to appear exactly twice."""
    seen: dict[int, int] = {}
    for quad in code.crossings:
        for label in quad:
            seen[label] = seen.get(label, 0) + 1
    expected = set(range(1, 2 * len(code.crossings) + 1))
    bad = {k: v for k, v in seen.items() if v != 2}
    if bad or set(seen) != expected:
        raise MalformedPDCodeError(f"malformed PD code: label counts {sorted(seen.items())}")


def to_pd_code(d: PlatDiagram) -> PDCode:
    """PD code of an all-twist diagram with at least one crossing."""
    for i, j, box in d.boxes():
        if not isinstance(box, Twist):
            raise UnsupportedBoxError(
                f"box ({i}, {j}) is rational; expand it before exporting a PD code"
            )
    crossings = d.twist_crossing_count
    if crossings == 0:
        raise UnsupportedBoxError("diagram has no crossings; PD code is undefined")
    if crossings > MAX_PD_CROSSINGS:
        raise ParameterError(
            f"diagram has {crossings} crossings; PD codes are limited to {MAX_PD_CROSSINGS}"
        )

    # crossing ids in sweep order, each box's |a| crossings stacked downward
    first: dict[tuple[int, int], int] = {}
    signs: list[int] = []
    for i, j, box in d.boxes():
        if box.a != 0:
            first[(i, j)] = len(signs)
            signs += [1 if box.a > 0 else -1] * abs(box.a)

    labels = [[0] * 4 for _ in signs]  # arc label at each port
    under_in = [0] * len(signs)  # the port the under-strand enters by
    next_label = 1
    for cycle in component_cycles(d):
        walk = []  # (crossing, port in, port out) in the cycle's direction
        for k in range(0, len(cycle), 2):
            conn = cycle[k + 1]
            if conn[0] != "box" or conn[1:] not in first:
                continue
            _, g, x = cycle[k]
            _, i, j = conn
            c0, count = first[(i, j)], abs(d.box(i, j).a)
            if g == i - 1:  # entering the box from above
                ports, ids = (_NW, _NE), range(c0, c0 + count)
            else:
                ports, ids = (_SW, _SE), range(c0 + count - 1, c0 - 1, -1)
            column = 0 if x == box_strands(i, j)[0] else 1
            for c in ids:
                walk.append((c, ports[column], _DIAGONAL[ports[column]]))
                column = 1 - column
        if not walk:
            continue  # a crossing-free component; see the module docstring
        # the walk starts on the arc from its last crossing to its first;
        # that arc is labelled first, headed to its lower-ranked end
        if (walk[-1][0], walk[-1][2]) < (walk[0][0], walk[0][1]):
            walk = [(c, p_out, p_in) for c, p_in, p_out in reversed(walk)]
        for k, (c, p_in, p_out) in enumerate(walk):
            labels[c][p_in] = next_label + k
            labels[c][p_out] = next_label + (k + 1) % len(walk)
            if p_in in _UNDER[signs[c]]:
                under_in[c] = p_in
        next_label += len(walk)

    code = PDCode(
        tuple(
            tuple(arcs[(start + off) % 4] for off in range(4))
            for arcs, start in zip(labels, under_in)
        )
    )
    pd_validate(code)
    return code
