"""Strand segments, link components, and sphere/link intersections.

The diagram's strands are cut at every row into *segments*: segment
(g, x) is the piece of strand x in gap g, where gap 0 lies above row 1,
gap i between rows i and i+1, and gap m below row m.  Two ends of
segments are joined when a cap arc, a box, or a straight stretch of
strand connects them:

* top caps join (0, 2j-1) to (0, 2j), bottom caps likewise at gap m;
* a box at row i over strands (s, s+1) joins its four incident segment
  ends according to its boundary pairing: straight through, crosswise,
  or capped off inside the box (the caps pairing joins the two upper
  ends to each other and the two lower ends to each other);
* strand positions not covered by a box pass straight through the row.

Every segment end is joined to exactly one other, so the joins form a
perfect matching on ends and each link component is one cycle through
it.  The matching is a flat list of integers.  With w = 2n strands,
segment (g, x) has index g * w + x - 1, so the index order is the
(gap, strand) lexicographic order, and its top and bottom ends are the
end indices 2 * seg and 2 * seg + 1.  ``link[e]`` is the end joined to
end e.  A walk that leaves a segment by end e enters the next segment
by ``link[e]`` and leaves that one by the other end, ``link[e] ^ 1``.
A caps-paired box turns the walk around, and the ``^ 1`` step follows
without a case of its own.  ``_end_links`` fills every straight join
with two slice assignments, one for the top ends and one for the bottom
ends, then overwrites the caps and the joins of each non-identity box,
moving along a row by a running end offset.  Only ``_cycles`` walks the
matching, from each component's smallest segment (found with
``bytearray.find``) leaving downward; ``component_cycles`` records that
walk with each connector it crosses, and the PD code reads it too.

``build_topology`` labels segments in one pass down the rows instead,
keeping a class per strand of the current gap.  Gap 0 gives top cap j
class j - 1.  A row copies the classes down, swaps the two under a
swap-paired box, and under a caps-paired box joins the two above (a
union-find rooted at the smaller class) and gives the two below a new
class; the bottom caps join last.  Classes are made in order of their
first segment, which is their smallest, so each component's smallest
segment starts its root class: numbered in that order, the roots give
the canonical ids, components ordered by their smallest segment from 0.
The flat list of segment labels and each component's start segment are
kept on the diagram, like its slope table, so the rows are passed once
per diagram instance.  ``LinkTopology`` is a view over the two lists;
``components``, the segment sets, is built from the labels on each access.

``braid_permutation`` gives an independent route to the same count: the
permutation that the rows induce on strand positions, read top to
bottom.  The plat closure identifies positions pairwise at top and
bottom; the cycle count of that identification composed with the
permutation must match the walk's answer, and the test suite checks it
does.

A separating sphere along an allowable path meets the link in m + 1
pieces: the top cap at pair (pos(1), pos(1)+1), one strand segment per
interior gap, and the bottom cap at (pos(m), pos(m)+1).  In gap i the
crossed segment sits at strand max(pos(i), pos(i+1)); the geometric
simulation in the tests backs this up.  The step rule makes that
a_i + a_(i+1) + 1 in each of its four cases:

* odd row to even, same entry a: max(2a + 1, 2a) = 2a + 1;
* odd row to even, entry a + 1: max(2a + 1, 2a + 2) = 2a + 2;
* even row to odd, same entry a: max(2a, 2a + 1) = 2a + 1;
* even row to odd, entry a - 1: max(2a, 2a - 1) = 2a.

Gaps 0 and m hold the caps at pos(1) = a_1 + a_1 + 1 and pos(m) =
a_m + a_m + 1 (rows 1 and m are odd), so ``_crossed_strands`` pads the
entries with a_1 in front and a_m behind and adds neighbours, one pass
with no corridor positions.

Everything else in gap i is strictly left (x below the crossed strand)
or strictly right (above it); at gaps 0 and m the corridor descends at
pos +- 1/2, so the threshold is pos itself.  A component the sphere
misses is connected and has no crossed segment, so it lies wholly on
one side, and its start segment decides which.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Iterator, Literal, Sequence

from .diagram import CAPS, SWAP, PlatDiagram, box_strands
from .errors import PathError, UnsupportedBoxError
from .paths import AllowablePath, allowable_entries

Segment = tuple[int, int]  # (gap, strand)
Connector = tuple  # ("top_cap", j) | ("bottom_cap", j) | ("box", i, j) | ("straight", i, x)


def _end_links(d: PlatDiagram) -> list[int]:
    """The perfect matching on segment ends induced by caps, boxes, rows."""
    w, m = 2 * d.n, d.m
    ends = 2 * w * (m + 1)
    # first every end as a straight stretch: the bottom end of (g, x) meets
    # the top end of (g + 1, x); that points outside the list for the top
    # ends of gap 0 and the bottom ends of gap m, which the caps then set
    step = 2 * w - 1
    link = [0] * ends
    link[0::2] = range(-step, ends - step, 2)
    link[1::2] = range(1 + step, ends + step, 2)
    last = 2 * w * m  # the top end of segment (m, 1)
    for e in range(0, 2 * w, 4):
        link[e], link[e + 2] = e + 2, e
        link[last + e + 1], link[last + e + 3] = last + e + 3, last + e + 1
    for i, codes in enumerate(d.slope_table):
        # row i + 1: up is the bottom end of (i, s) for its box over strands
        # (s, s + 1), where s starts at 2 in odd rows and at 1 in even ones
        up = 2 * i * w + (1 if i & 1 else 3)
        for code in codes:
            kind = code % 3
            if kind == SWAP:
                down = up + step  # the top end of (i + 1, s)
                link[up], link[down + 2] = down + 2, up
                link[up + 2], link[down] = down, up + 2
            elif kind == CAPS:  # both upper ends meet, both lower ends meet
                down = up + step
                link[up], link[up + 2] = up + 2, up
                link[down], link[down + 2] = down + 2, down
            up += 4
    return link


def _cycles(d: PlatDiagram) -> Iterator[list[int]]:
    """Each component's cycle as the ends its segments are left by.

    Components come in canonical order, each walked from its smallest
    segment leaving downward.
    """
    link = _end_links(d)
    seen = bytearray(len(link) // 2)
    seg = seen.find(0)
    while seg >= 0:
        e = start = 2 * seg + 1
        ends = []
        while True:
            ends.append(e)
            seen[e >> 1] = 1
            e = link[e] ^ 1
            if e == start:
                break
        yield ends
        seg = seen.find(0, seg)


def _connector(d: PlatDiagram, e: int) -> Connector:
    """The cap, box or straight stretch joining end e to its partner."""
    g, x = divmod(e >> 1, 2 * d.n)  # x counts strands from 0 here
    i = g + (e & 1)  # the row that end e meets; rows 0 and m + 1 are the caps
    j = (x + 2 - (i & 1)) >> 1  # its box or cap, counted from 1
    if i == 0 or i > d.m:
        return ("top_cap" if i == 0 else "bottom_cap", j)
    if i & 1 and j in (0, d.n):  # odd rows leave the outer strands uncovered
        return ("straight", i, x + 1)
    return ("box", i, j)


class LinkTopology:
    """Link components of a diagram, with canonical integer ids."""

    def __init__(self, diagram: PlatDiagram, _label: list[int], _starts: list[int]) -> None:
        self.diagram = diagram
        self._label = _label  # by segment index
        self._starts = _starts  # by component id

    def __repr__(self) -> str:
        return f"LinkTopology(diagram={self.diagram!r})"

    @property
    def n(self) -> int:
        return self.diagram.n

    @property
    def m(self) -> int:
        return self.diagram.m

    @property
    def component_count(self) -> int:
        return len(self._starts)

    # rebuilt on each access: kept, the sets would outweigh the labels
    # many times over on every diagram
    @property
    def components(self) -> tuple[frozenset[Segment], ...]:
        """Each component's segments as (gap, strand) pairs."""
        w = 2 * self.n
        comps: list[list[Segment]] = [[] for _ in self._starts]
        for seg, cid in enumerate(self._label):
            comps[cid].append((seg // w, seg % w + 1))
        return tuple(map(frozenset, comps))

    def component_of(self, gap: int, strand: int) -> int:
        # checked first: a negative flat index would wrap round silently
        if not (0 <= gap <= self.m and 1 <= strand <= 2 * self.n):
            raise PathError(f"no segment (gap {gap}, strand {strand})")
        return self._label[gap * 2 * self.n + strand - 1]

    def top_cap_component(self, j: int) -> int:
        return self.component_of(0, 2 * j - 1)

    def bottom_cap_component(self, j: int) -> int:
        return self.component_of(self.m, 2 * j - 1)


def _row_labels(d: PlatDiagram) -> tuple[list[int], list[int]]:
    """``build_topology``'s labels and starts, from one pass down the rows."""
    w = 2 * d.n
    cur = [x >> 1 for x in range(w)]  # by strand, its class in the current gap
    first = list(range(0, w, 2))  # by class, its first and smallest segment
    parent = list(range(d.n))  # by class, a smaller class joined to it, or itself

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]  # path halving
            c = parent[c]
        return c

    def join(a: int, b: int) -> None:
        a, b = sorted((root(a), root(b)))
        parent[b] = a

    flat = cur[:]
    for i, codes in enumerate(d.slope_table, 1):
        s = i & 1  # the row's first box is over strands s, s + 1, from 0
        for code in codes:
            kind = code % 3
            if kind == SWAP:
                cur[s], cur[s + 1] = cur[s + 1], cur[s]
            elif kind == CAPS:  # the upper ends meet; the lower ones start a class
                join(cur[s], cur[s + 1])
                cur[s] = cur[s + 1] = len(parent)
                parent.append(len(parent))
                first.append(i * w + s)
            s += 2
        flat += cur
    for x in range(0, w, 2):
        join(cur[x], cur[x + 1])
    roots = [c for c, p in enumerate(parent) if c == p]
    rank = dict(zip(roots, range(len(roots))))
    ids = [rank[root(c)] for c in range(len(parent))]
    return list(map(ids.__getitem__, flat)), [first[r] for r in roots]


def build_topology(d: PlatDiagram) -> LinkTopology:
    """Label every segment of d with its component, one row at a time.

    The labels are kept on d itself, not in a cache, and are freed with d.
    """
    try:
        label, starts = d.__dict__["_components"]
    except KeyError:
        label, starts = d.__dict__["_components"] = _row_labels(d)
    return LinkTopology(d, label, starts)


def component_cycles(d: PlatDiagram) -> tuple[tuple, ...]:
    """Each component as its ordered cycle of segments and connectors.

    A cycle alternates ("segment", g, x) elements with the connector
    crossed between consecutive segments, starting at the component's
    canonical segment headed downward.  Caps-paired boxes reverse the
    vertical direction; the traversal follows them.
    """
    w = 2 * d.n
    cycles = []
    for ends in _cycles(d):
        cycle: list[tuple] = []
        for e in ends:
            g, x = divmod(e >> 1, w)
            cycle += [("segment", g, x + 1), _connector(d, e)]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def swap_permutation(strands: int, swaps: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Bottom position of each top position after transposing positions in turn."""
    at = list(range(strands + 1))  # at[p]: the top position now at position p
    for s, t in swaps:
        at[s], at[t] = at[t], at[s]
    perm = [0] * strands
    for p in range(1, strands + 1):
        perm[at[p] - 1] = p
    return tuple(perm)


def braid_permutation(d: PlatDiagram) -> tuple[int, ...]:
    """Position permutation induced by the rows, top to bottom.

    Returns sigma as a tuple with sigma[x-1] the bottom position of the
    strand entering at top position x.  Only through-type boxes are
    meaningful here; a caps-paired rational box has no braid reading and
    raises UnsupportedBoxError.
    """

    def swaps() -> Iterator[tuple[int, int]]:
        for i, codes in enumerate(d.slope_table, 1):
            for j, code in enumerate(codes, 1):
                kind = code % 3
                if kind == CAPS:
                    raise UnsupportedBoxError(
                        f"box ({i}, {j}) has a caps pairing and no braid form"
                    )
                if kind == SWAP:
                    yield box_strands(i, j)

    return swap_permutation(2 * d.n, swaps())


# ---------------------------------------------------------------------------
# sphere / link intersections


def _crossed_strands(entries: Sequence[int]) -> list[int]:
    """The strand of the segment the sphere crosses in each gap 0..m.

    In gaps 0 and m that is the left strand of the crossed cap.  Strand
    x in gap g lies left of the sphere iff x is below this strand, right
    iff above.  Along an allowable path it is a_g + a_(g+1) + 1 in every
    gap, with a_0 = a_1 and a_(m+1) = a_m: see the module docstring.
    """
    padded = (entries[0], *entries, entries[-1])
    return [s + 1 for s in map(add, padded, padded[1:])]


def sphere_partition(
    t: LinkTopology, entries: Sequence[int]
) -> tuple[tuple[int, ...], frozenset[int], frozenset[int]]:
    """Crossed component ids, top to bottom, and the sets strictly left and right.

    ``entries`` must already have passed ``allowable_entries``, so every
    crossed segment (g, x) is in range: its label is read directly at flat
    index g * w + x - 1, without ``component_of``.  The crossed components,
    the left set, and the right set partition all component ids; the test
    suite checks the partition on random diagrams.
    """
    strands = _crossed_strands(entries)
    w = 2 * t.n
    offsets = range(-1, len(strands) * w, w)  # g * w - 1 for gap g
    crossing = tuple(map(t._label.__getitem__, map(add, offsets, strands)))
    met = set(crossing)
    left, right = [], []
    for cid, seg in enumerate(t._starts):
        if cid not in met:  # wholly on one side; see the module docstring
            g, x = divmod(seg, w)
            (left if x + 1 < strands[g] else right).append(cid)
    return crossing, frozenset(left), frozenset(right)


def crossing_pieces(
    t: LinkTopology, path: AllowablePath | Sequence[int]
) -> tuple[Connector, ...]:
    """The m + 1 pieces of the link crossed by the path's sphere, in order."""
    strands = _crossed_strands(allowable_entries(t.diagram, path))
    return (
        ("top_cap", (strands[0] + 1) // 2),
        *(("segment", g, strands[g]) for g in range(1, t.m)),
        ("bottom_cap", (strands[-1] + 1) // 2),
    )


def crossing_components(
    t: LinkTopology, path: AllowablePath | Sequence[int]
) -> tuple[int, ...]:
    """Component id of each crossed piece, top to bottom (with repeats)."""
    return sphere_partition(t, allowable_entries(t.diagram, path))[0]


def components_meeting_sphere(
    t: LinkTopology, path: AllowablePath | Sequence[int]
) -> frozenset[int]:
    """Ids of the components the path's sphere intersects."""
    return frozenset(crossing_components(t, path))


def components_strictly_beside(
    t: LinkTopology,
    path: AllowablePath | Sequence[int],
    side: Literal["left", "right"],
) -> frozenset[int]:
    """Components lying entirely on one side of the path's sphere.

    A component qualifies when the sphere misses it and every one of its
    segments sits on the given side of the corridor in its gap.
    """
    if side not in ("left", "right"):
        raise PathError(f"side must be 'left' or 'right', got {side!r}")
    _, left, right = sphere_partition(t, allowable_entries(t.diagram, path))
    return left if side == "left" else right
