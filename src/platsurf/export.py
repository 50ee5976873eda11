"""Braid word and PD code export.

Braid words: reading the rows top to bottom and each row left to
right, box j of an odd row sits on strands (2j, 2j+1) and contributes
the syllable s(2j)^a; in an even row the box sits on (2j-1, 2j) and
contributes s(2j-1)^a.  Zero boxes contribute nothing.  Only all-twist
diagrams have a braid reading; the plat closure of the word (cap the
top and bottom in pairs) recovers the link, and the permutation induced
by the word matches the diagram's strand permutation.

PD codes: every twist box is expanded into |a| stacked crossings, and
the diagram becomes a 4-valent graph whose edges are the arcs between
consecutive crossings.  Arcs are labeled 1, 2, 3, ... consecutively
along each link component, components taken in canonical order and
entered at a deterministic arc and direction, so the output is
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
"""

from __future__ import annotations

import dataclasses
import itertools

from .diagram import PlatDiagram, Twist, box_strands
from .errors import UnsupportedBoxError
from .topology import build_topology

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
        perm = list(range(1, self.strands + 1))
        for g, e in self.syllables:
            if e % 2 != 0:
                for x in range(self.strands):
                    if perm[x] == g:
                        perm[x] = g + 1
                    elif perm[x] == g + 1:
                        perm[x] = g
        return tuple(perm)


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

_PORTS = ("NW", "SW", "SE", "NE")  # counterclockwise in page coordinates
_DIAGONAL = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}


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
        raise ValueError(f"malformed PD code: label counts {sorted(seen.items())}")


def to_pd_code(d: PlatDiagram) -> PDCode:
    """PD code of an all-twist diagram with at least one crossing."""
    for i, j, box in d.boxes():
        if not isinstance(box, Twist):
            raise UnsupportedBoxError(
                f"box ({i}, {j}) is rational; expand it before exporting a PD code"
            )
    if d.twist_crossing_count == 0:
        raise UnsupportedBoxError("diagram has no crossings; PD code is undefined")

    # sweep top to bottom: open[x] is the provisional arc label dangling in
    # column x; crossings consume the two incoming labels and open two more
    crossings: list[dict] = []  # {"sign": +-1, "ports": {port: label}}
    endpoints: dict[int, list[tuple[int, str]]] = {}
    fresh = itertools.count().__next__

    def new_label() -> int:
        lab = fresh()
        endpoints[lab] = []
        return lab

    open_label: dict[int, int] = {}
    for j in range(1, d.n + 1):
        lab = new_label()
        open_label[2 * j - 1] = lab
        open_label[2 * j] = lab

    snapshots = [dict(open_label)]
    for i in range(1, d.m + 1):
        for j in range(1, d.row_length(i) + 1):
            box = d.box(i, j)
            if box.a == 0:
                continue
            s, t = box_strands(i, j)
            sign = 1 if box.a > 0 else -1
            for _ in range(abs(box.a)):
                cid = len(crossings)
                left_in, right_in = open_label[s], open_label[t]
                endpoints[left_in].append((cid, "NW"))
                endpoints[right_in].append((cid, "NE"))
                out_l, out_r = new_label(), new_label()
                endpoints[out_l].append((cid, "SW"))
                endpoints[out_r].append((cid, "SE"))
                open_label[s], open_label[t] = out_l, out_r
                crossings.append({"sign": sign})
        snapshots.append(dict(open_label))

    # each bottom cap joins the two labels open above it into one arc.  A
    # label is open in one column, or in both columns of one cap pair, so
    # it takes part in at most one join and no chains form
    arc_of: dict[int, int] = {}
    for j in range(1, d.n + 1):
        arc_of[open_label[2 * j]] = open_label[2 * j - 1]

    # resolve provisional labels into arcs
    arc_ends: dict[int, list[tuple[int, str]]] = {}
    for lab, ends in endpoints.items():
        arc_ends.setdefault(arc_of.get(lab, lab), []).extend(ends)
    port_arc: dict[tuple[int, str], int] = {}
    for arc, ends in arc_ends.items():
        if not ends:
            continue  # a crossing-free component; see the module docstring
        if len(ends) != 2:
            raise AssertionError(f"arc with {len(ends)} endpoints")
        for end in ends:
            port_arc[end] = arc

    # canonical traversal: components in topological order, entered at the
    # arc occupying the component's smallest segment
    topo = build_topology(d)
    final_label: dict[int, int] = {}
    incoming: set[tuple[int, str]] = set()
    next_label = 1
    for comp in topo.components:
        g0, x0 = min(comp)
        lab = snapshots[g0][x0]
        start_arc = arc_of.get(lab, lab)
        if not arc_ends[start_arc]:
            continue  # no crossings on this component
        if start_arc in final_label:
            raise AssertionError("component traversed twice")
        first_end = min(
            arc_ends[start_arc], key=lambda e: (e[0], _PORTS.index(e[1]))
        )
        arc, end = start_arc, first_end
        while True:
            if arc in final_label:
                break
            final_label[arc] = next_label
            next_label += 1
            incoming.add(end)
            out_port = _DIAGONAL[end[1]]
            arc = port_arc[(end[0], out_port)]
            a1, a2 = arc_ends[arc]
            end = a2 if a1 == (end[0], out_port) else a1

    if len(final_label) != len(port_arc) // 2:
        raise AssertionError("traversal missed arcs")

    quads = []
    for cid, data in enumerate(crossings):
        under = ("NW", "SE") if data["sign"] > 0 else ("NE", "SW")
        start = next(p for p in under if (cid, p) in incoming)
        k = _PORTS.index(start)
        ports = [_PORTS[(k + off) % 4] for off in range(4)]
        quads.append(tuple(final_label[port_arc[(cid, p)]] for p in ports))

    code = PDCode(tuple(quads))
    pd_validate(code)
    return code
