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
from the segment-end walk of the topology module, one cycle of ends per
link component.  The row, box and column that each end meets are read
off the end itself; caps, straight stretches and zero boxes are passed
over.  A strand passes a box's crossings downward in increasing order
or upward in decreasing order, leaving each by the port diagonal to
the one it entered by.  Arcs are labeled 1, 2, 3, ... consecutively
along each link component, components taken in canonical order, each
starting on the arc through its smallest segment and headed to that
arc's end of lower (crossing, port) rank, so the output is
reproducible byte for byte.  Each crossing is emitted as X(a, b, c, d):
``a`` is the label on the arc entering on the under-strand, and b, c, d
follow counterclockwise (in page coordinates: west ports on the left,
north up).  Sign convention, fixed in FORMATS.md: in a positive twist
the strand running northwest to southeast passes under.

A component's walk is kept as one pass per crossed box (first port,
step, crossing count), so both its ends are known before any label is
written; its labels are then written in one run over its crossings,
through the passes in reverse when the walk must be read the other way.
A negative crossing ranks its ports a quarter turn on, so the
under-strand always holds ranks 0 and 2 and X(...) is read from one of
them.  ``PDCode`` refuses a crossing that is not four int labels and
``pd_validate`` counts the labels; ``to_pd_code`` builds int labels, so
it skips ``PDCode``'s scan, and runs ``pd_validate`` on every code.

A component that never enters a crossed box (possible when all its
boxes are zero twists) has no place in a PD code; such components are
omitted from the output, and a diagram with no crossings at all is an
error.  On diagrams satisfying the strict hypotheses this never drops
anything: every component runs through some odd-row box, and those all
carry crossings.

A PD code costs memory in proportion to its crossings, so a diagram
with more than ``MAX_PD_CROSSINGS`` is refused before any per-crossing
list is built.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, repeat
from typing import Iterable

from ._record import Record, set_field
from .diagram import MAX_PD_CROSSINGS, PlatDiagram, Twist, box_strands
from .errors import MalformedPDCodeError, ParameterError, UnsupportedBoxError, _as_tuple, _shown
from .topology import _cycles, swap_permutation

# ---------------------------------------------------------------------------
# braid words


class BraidWord(Record):
    """A word in the braid group on ``strands`` strands, as syllables.

    ``syllables`` is a tuple of (generator index, signed exponent) pairs.
    """

    __slots__ = _fields = ("strands", "syllables")

    def text(self) -> str:
        return " ".join(f"s{g}^{e}" for g, e in self.syllables)

    def permutation(self) -> tuple[int, ...]:
        """Position permutation of the word, odd exponents transposing."""
        return swap_permutation(
            self.strands, ((g, g + 1) for g, e in self.syllables if e % 2 != 0)
        )


def _require_all_twist(d: PlatDiagram, reason: str) -> None:
    """Raise naming the first rational box unless the parse found all twists."""
    if not d.is_all_twist:
        i, j, _ = next(b for b in d.boxes() if not isinstance(b[2], Twist))
        raise UnsupportedBoxError(f"box ({i}, {j}) is rational; {reason}")


def to_braid_word(d: PlatDiagram) -> BraidWord:
    """The braid word of an all-twist diagram; zero boxes drop out."""
    _require_all_twist(d, "only twist boxes have a braid form")
    syllables = [(box_strands(i, j)[0], box.a) for i, j, box in d.boxes() if box.a != 0]
    return BraidWord(2 * d.n, tuple(syllables))


# ---------------------------------------------------------------------------
# PD codes

# a label lives at slot 4 * crossing + rank.  A positive crossing ranks its
# ports NW, SW, SE, NE (counterclockwise in page coordinates), a negative one
# SW, SE, NE, NW, so the under-strand (NW-SE in a positive twist, NE-SW in a
# negative one) holds the even ranks.  A strand leaves a crossing by the
# diagonal port, rank ^ 2, and enters the next crossing of its box by the
# other column's port, rank ^ 3 when positive and ^ 1 when negative.


def _rank(slot: int, turn: int) -> int:
    """The (crossing, NW-first rank) of a slot; turn 1 marks a negative crossing."""
    return slot if turn == 3 else slot & -4 | (slot + 1) & 3


class PDCode(Record):
    """Planar diagram code: one X(a, b, c, d) tuple per crossing, four ints
    each, or MalformedPDCodeError; ``pd_validate`` checks the label counts."""

    __slots__ = _fields = ("crossings",)

    def __init__(self, crossings: Iterable[Iterable[int]]) -> None:
        try:  # by the rule of errors._as_tuple, reworded to name the whole code
            quads = tuple([_as_tuple(q, MalformedPDCodeError, "crossing")
                           for q in _as_tuple(crossings, MalformedPDCodeError, "crossings")])
        except MalformedPDCodeError:
            raise MalformedPDCodeError(
                f"malformed PD code: crossings {_shown(crossings)!r} are not sequences of labels"
            ) from None
        for q in quads:
            if len(q) != 4 or not all(type(x) is int for x in q):
                raise MalformedPDCodeError(
                    f"malformed PD code: crossing {_shown(q)!r} is not four int labels"
                )
        set_field(self, "crossings", quads)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def text(self) -> str:
        quad = "X(%d, %d, %d, %d)"
        return ("PD[" + ", ".join([quad] * len(self.crossings)) + "]") % tuple(
            chain.from_iterable(self.crossings)
        )


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
    """Raise unless the labels are 1..2C, each appearing exactly twice.

    ``PDCode`` has checked that every label is an int, so 2C distinct labels
    from 1 to 2C are exactly 1..2C.  One count gives both the verdict and
    the message; a code with no crossings passes.
    """
    labels = 2 * len(code.crossings)
    counts = Counter(chain.from_iterable(code.crossings))
    if (len(counts) != labels or set(counts.values()) - {2}
            or min(counts, default=1) != 1 or max(counts, default=0) != labels):
        counts = _shown(sorted(counts.items()))
        raise MalformedPDCodeError(f"malformed PD code: label counts {counts}")


def to_pd_code(d: PlatDiagram) -> PDCode:
    """PD code of an all-twist diagram with at least one crossing."""
    _require_all_twist(d, "expand it before exporting a PD code")
    # per row, each box's twist and its first crossing id in sweep order;
    # odd rows gain a zero box at either end for their uncovered outer
    # strands, and a zero row above and below stands for the caps
    caps = [0] * (d.n + 1)
    twists, first = [caps], [caps]  # each row of first ends on the running total
    for i, row in enumerate(d.rows, 1):
        a_row = [box.a for box in row]
        twists.append([0, *a_row, 0] if i & 1 else a_row)
        first.append(list(accumulate(map(abs, twists[-1]), initial=first[-1][-1])))
    twists.append(caps)
    crossings = first[-1][-1]
    if crossings == 0:
        raise UnsupportedBoxError("diagram has no crossings; PD code is undefined")
    if crossings > MAX_PD_CROSSINGS:
        raise ParameterError(
            f"diagram has {_shown(crossings)} crossings; PD codes are limited to {MAX_PD_CROSSINGS}"
        )
    w = 2 * d.n

    def passes(ends):
        """Each crossed box's first slot, slot step, crossing count and turn."""
        for e in ends:
            g, x = divmod(e >> 1, w)  # x counts strands from 0 here
            i = g + (e & 1)  # the row that end e meets
            j = (x + (i & 1)) >> 1
            a = twists[i][j]
            if a == 0:
                continue  # a cap, a straight stretch or a zero box
            column = (x + i) & 1  # 0 on the box's left strand, 1 on its right
            if e & 1:  # entering the top crossing by NW or NE, stepping down
                slot = 4 * first[i][j] + (3 * column if a > 0 else 3 - column)
                yield slot, 4, abs(a), 3 if a > 0 else 1
            else:  # entering the bottom crossing by SW or SE, stepping up
                slot = 4 * (first[i][j] + abs(a)) - 4 + (1 + column if a > 0 else column)
                yield slot, -4, abs(a), 3 if a > 0 else 1

    labels = [0] * (4 * crossings)  # arc label by slot
    half_turn = bytearray(crossings)  # 2 where the under-strand enters by slot 2
    next_label = 1
    for ends in _cycles(d):
        walk = list(passes(ends))
        if not walk:
            continue  # a crossing-free component; see the module docstring
        # the walk starts on the arc from its last crossing to its first;
        # that arc is labelled first, headed to its lower-ranked end, so a
        # walk that ends on the lower rank is labelled backward: its passes
        # in reverse, each from its last slot's diagonal, stepping back
        slot, step, k, turn = walk[-1]
        last = (slot + (k - 1) * step) ^ (turn if k % 2 == 0 else 0)
        backward = _rank(last ^ 2, turn) < _rank(walk[0][0], walk[0][3])
        label = next_label
        for slot, step, k, turn in reversed(walk) if backward else walk:
            if backward:
                slot = (slot + (k - 1) * step) ^ (turn if k % 2 == 0 else 0) ^ 2
                step = -step
            for _ in repeat(None, k):
                labels[slot] = label
                label += 1
                labels[slot ^ 2] = label
                if not slot & 1:  # the under-strand
                    half_turn[slot >> 2] = slot & 2
                slot = (slot + step) ^ turn
        labels[walk[0][0] if backward else last ^ 2] = next_label
        next_label = label

    # each crossing's labels from its under-strand's entry on; they are int
    # 4-tuples by construction, so PDCode's scan is skipped
    code = object.__new__(PDCode)
    set_field(code, "crossings", tuple([
        (labels[base + u], labels[base + 1 + u], labels[base + 2 - u], labels[base + 3 - u])
        for base, u in zip(range(0, 4 * crossings, 4), half_turn)
    ]))
    pd_validate(code)
    return code
