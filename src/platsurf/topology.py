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
it.  ``build_topology`` scans segments in (gap, strand) lexicographic
order and walks the cycle of each segment not yet labelled, leaving it
downward.  Each component is thus found from its smallest segment, and
the ids come out canonical: components ordered by their smallest
segment, numbered from 0.  ``component_cycles`` records the same walk.

``braid_permutation`` gives an independent route to the same count: the
permutation that the rows induce on strand positions, read top to
bottom.  The plat closure identifies positions pairwise at top and
bottom; the cycle count of that identification composed with the
permutation must match the walk's answer, and the test suite checks it
does.

A separating sphere along an allowable path meets the link in m + 1
pieces: the top cap at pair (pos(1), pos(1)+1), one strand segment per
interior gap, and the bottom cap at (pos(m), pos(m)+1).  In gap i the
crossed segment sits at strand max(pos(i), pos(i+1)), which
``_crossed_strands`` writes as (pos(i) + pos(i+1) + 1) / 2; the
geometric simulation in the tests backs this up.  Everything else in
gap i is strictly left (x below the crossed strand) or strictly right
(above it); at gaps 0 and m the corridor descends at pos +- 1/2, so the
threshold is pos itself.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable, Iterator, Literal, Sequence

from .diagram import PlatDiagram, box_fraction, box_strands
from .errors import PathError, UnsupportedBoxError
from .paths import AllowablePath, allowable_entries, corridor_positions
from .tangles import Pairing, pairing

Segment = tuple[int, int]  # (gap, strand)
_TOP = 0
_BOT = 1
End = tuple[int, int, int]  # (gap, strand, _TOP | _BOT)


Connector = tuple  # ("top_cap", j) | ("bottom_cap", j) | ("box", i, j) | ("straight", i, x)


def _end_links(d: PlatDiagram) -> dict[End, tuple[End, Connector]]:
    """The perfect matching on segment ends induced by caps, boxes, rows."""
    links: dict[End, tuple[End, Connector]] = {}

    def join(e1: End, e2: End, conn: Connector) -> None:
        links[e1] = (e2, conn)
        links[e2] = (e1, conn)

    for j in range(1, d.n + 1):
        join((0, 2 * j - 1, _TOP), (0, 2 * j, _TOP), ("top_cap", j))
        join((d.m, 2 * j - 1, _BOT), (d.m, 2 * j, _BOT), ("bottom_cap", j))

    for i in range(1, d.m + 1):
        covered: set[int] = set()
        for j in range(1, d.row_length(i) + 1):
            s, t = box_strands(i, j)
            covered.update((s, t))
            kind = pairing(box_fraction(d.box(i, j)))
            if kind is Pairing.THROUGH_IDENTITY:
                join((i - 1, s, _BOT), (i, s, _TOP), ("box", i, j))
                join((i - 1, t, _BOT), (i, t, _TOP), ("box", i, j))
            elif kind is Pairing.THROUGH_SWAP:
                join((i - 1, s, _BOT), (i, t, _TOP), ("box", i, j))
                join((i - 1, t, _BOT), (i, s, _TOP), ("box", i, j))
            else:  # caps: both upper ends meet, both lower ends meet
                join((i - 1, s, _BOT), (i - 1, t, _BOT), ("box", i, j))
                join((i, s, _TOP), (i, t, _TOP), ("box", i, j))
        for x in range(1, 2 * d.n + 1):
            if x not in covered:
                join((i - 1, x, _BOT), (i, x, _TOP), ("straight", i, x))

    return links


@dataclasses.dataclass(eq=False)
class LinkTopology:
    """Link components of a diagram, with canonical integer ids."""

    diagram: PlatDiagram
    components: tuple[frozenset[Segment], ...]
    _label: dict[Segment, int] = dataclasses.field(repr=False)

    @property
    def n(self) -> int:
        return self.diagram.n

    @property
    def m(self) -> int:
        return self.diagram.m

    @property
    def component_count(self) -> int:
        return len(self.components)

    def component_of(self, gap: int, strand: int) -> int:
        try:
            return self._label[(gap, strand)]
        except KeyError:
            raise PathError(f"no segment (gap {gap}, strand {strand})") from None

    def top_cap_component(self, j: int) -> int:
        return self.component_of(0, 2 * j - 1)

    def bottom_cap_component(self, j: int) -> int:
        return self.component_of(self.m, 2 * j - 1)


def _walk(
    links: dict[End, tuple[End, Connector]], start: Segment
) -> Iterator[tuple[Segment, Connector]]:
    """The cycle through ``start``, leaving it downward.

    Yields each segment with the connector crossed on leaving it.  A
    caps-paired box turns the walk around, so the side it leaves by is
    tracked rather than assumed.
    """
    seg, exit_side = start, _BOT
    while True:
        nxt, conn = links[(seg[0], seg[1], exit_side)]
        yield seg, conn
        seg = nxt[:2]
        if seg == start:
            return
        exit_side = _TOP if nxt[2] == _BOT else _BOT


# one diagram is in use at a time (the CLI, certify, certify_haken), so a
# small cache keeps hits while bounding the topologies it holds alive
@functools.lru_cache(maxsize=8)
def build_topology(d: PlatDiagram) -> LinkTopology:
    """Label every segment of d with its component, walking each cycle once."""
    links = _end_links(d)
    label: dict[Segment, int] = {}
    comps: list[list[Segment]] = []
    for g in range(d.m + 1):
        for x in range(1, 2 * d.n + 1):
            if (g, x) not in label:
                comps.append([seg for seg, _ in _walk(links, (g, x))])
                for seg in comps[-1]:
                    label[seg] = len(comps) - 1
    del links  # free the end matching before the frozensets are built
    return LinkTopology(d, tuple(frozenset(c) for c in comps), label)


def component_cycles(d: PlatDiagram) -> tuple[tuple, ...]:
    """Each component as its ordered cycle of segments and connectors.

    A cycle alternates ("segment", g, x) elements with the connector
    crossed between consecutive segments, starting at the component's
    canonical segment headed downward.  Caps-paired boxes reverse the
    vertical direction; the traversal follows them.
    """
    links = _end_links(d)
    cycles = []
    for comp in build_topology(d).components:
        cycle: list[tuple] = []
        for seg, conn in _walk(links, min(comp)):
            cycle += [("segment",) + seg, conn]
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
        for i, j, box in d.boxes():
            kind = pairing(box_fraction(box))
            if kind is Pairing.CAPS:
                raise UnsupportedBoxError(
                    f"box ({i}, {j}) has a caps pairing and no braid form"
                )
            if kind is Pairing.THROUGH_SWAP:
                yield box_strands(i, j)

    return swap_permutation(2 * d.n, swaps())


# ---------------------------------------------------------------------------
# sphere / link intersections


def _crossed_strands(entries: Sequence[int]) -> list[int]:
    """The strand of the segment the sphere crosses in each gap 0..m.

    In gaps 0 and m that is the left strand of the crossed cap.  Strand
    x in gap g lies left of the sphere iff x is below this strand, right
    iff above.
    """
    ps = corridor_positions(entries)
    return [ps[0]] + [(p + q + 1) // 2 for p, q in zip(ps, ps[1:])] + [ps[-1]]


def sphere_partition(
    t: LinkTopology, entries: Sequence[int]
) -> tuple[tuple[int, ...], frozenset[int], frozenset[int]]:
    """Crossed component ids, top to bottom, and the sets strictly left and right.

    ``entries`` must already have passed ``allowable_entries``.  The
    crossed components, the left set, and the right set partition all
    component ids; the test suite checks the partition on random
    diagrams.
    """
    strands = _crossed_strands(entries)
    crossing = tuple(t.component_of(g, x) for g, x in enumerate(strands))
    met = set(crossing)
    left, right = [], []
    for cid, comp in enumerate(t.components):
        if cid in met:
            continue
        # a missed component has no segment on a crossed strand
        if all(x < strands[g] for g, x in comp):
            left.append(cid)
        elif all(x > strands[g] for g, x in comp):
            right.append(cid)
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
