"""Sphere decompositions and the three surfaces along an allowable path.

An allowable path, pushed slightly off the projection plane and capped
with two disks behind the plane, bounds a 2-sphere meeting the link in
m + 1 points.  The sphere splits the diagram into a left and a right
tangle; ``decompose`` records, per row, the span of box columns on
each side and which whole link components land there, along with the
pieces of the link the sphere actually cuts.

Three surfaces ride on that sphere:

* the planar spanning surface: the sphere with m + 1 open disks
  removed, one around each intersection point.  Open, genus 0,
  Euler characteristic 2 - (m+1) = 1 - m.

* two closed surfaces, obtained by tubing the planar surface along the
  link on the left or on the right: each boundary circle is capped with
  an annulus following the link, pairing up the m + 1 punctures.  The
  annuli do not change the Euler characteristic, so the closed surface
  has chi = 1 - m and genus (m + 1) / 2.  Components of the link lying
  entirely on the tubing side contribute nothing to the genus; the
  boundary of a neighborhood of such a component is a separate torus
  piece, counted in ``extra_tori`` and reported but never folded in.

The spans and the reports of a path depend on the diagram, its entries
and its two loop counts alone, so every path of one diagram shares
them: the diagram keeps in ``_spans`` one range per entry and side, and
in ``_reports`` the three reports of each pair of loop counts it has met.
A decomposition then indexes the kept ranges and builds no range of its
own, and ``surface_invariants`` builds reports once per pair of counts.

``assembled_surface_cells`` rebuilds the Euler characteristic from an
explicit cell structure, operation by operation, as an independent
check on the closed forms; the test suite and the emitted certificates
compare the two routes.
"""

from __future__ import annotations

from itertools import cycle, repeat
from operator import getitem
from typing import Sequence

from ._record import Record
from .diagram import MAX_BOXES, PlatDiagram, _check_ints
from .errors import ParameterError, PathError
from .paths import AllowablePath, allowable_entries
from .topology import build_topology, sphere_partition

PLANAR = "planar"
TUBED_LEFT = "tubed_left"
TUBED_RIGHT = "tubed_right"


class SideSummary(Record):
    """One side of a separating sphere.

    ``side`` is ``"left"`` or ``"right"``.  ``spans`` holds, per row top to
    bottom, the range of box columns on this side and ``loop_components``
    the ids of link components lying entirely on this side (closed loops
    the sphere never touches).
    """

    __slots__ = _fields = ("side", "spans", "loop_components")

    @property
    def boxes(self) -> frozenset[tuple[int, int]]:
        """The (row, column) pairs on this side."""
        return frozenset((i, j) for i, span in enumerate(self.spans, 1) for j in span)

    @property
    def arc_count(self) -> int:
        """Strings of the tangle the sphere cuts off on this side, (m + 1) / 2."""
        return (len(self.spans) + 1) // 2

    @property
    def loop_count(self) -> int:
        return len(self.loop_components)


class SphereDecomposition(Record):
    """A diagram cut along the sphere of one allowable path.

    ``crossing`` holds the component id of each piece of the link the
    sphere crosses, top to bottom.
    """

    __slots__ = _fields = ("diagram", "path", "crossing", "left", "right")

    @property
    def m(self) -> int:
        return self.diagram.m

    @property
    def puncture_count(self) -> int:
        return self.m + 1


def _spans(d: PlatDiagram) -> tuple[tuple[range, ...], tuple[range, ...], tuple[range, ...]]:
    """Indexed by entry a, the left span range(1, a + 1) of any row and the
    right spans range(a + 1, n) of an odd row and range(a + 1, n + 1) of
    an even one, made once per diagram and kept on it."""
    try:
        return d.__dict__["_spans"]
    except KeyError:
        n = d.n
        cuts = range(1, n + 1)  # a + 1 for a = 0..n - 1
        spans = d.__dict__["_spans"] = (
            tuple(map(range, repeat(1), cuts)),
            tuple(map(range, cuts, repeat(n))),
            tuple(map(range, cuts, repeat(n + 1))),
        )
        return spans


def decompose(d: PlatDiagram, path: AllowablePath | Sequence[int]) -> SphereDecomposition:
    """Cut d along the sphere of an allowable path.

    Box (i, j) lies left of the corridor exactly when j <= a_i: in odd
    rows the corridor passes right of box a_i, in even rows right of
    box a_i as well, since pos(i) + 1/2 exceeds every strand of that
    box and clears the next one.  Each side receives (m + 1) / 2 arcs
    of the link: every intersection point bounds one arc on each side.
    The spans are cut at a_i + 1, against row ends n (odd rows) and
    n + 1 (even rows), one past each row's last box; each is read from
    the diagram's ``_spans`` by its entry.
    """
    entries = allowable_entries(d, path)
    crossing, left_loops, right_loops = sphere_partition(build_topology(d), entries)

    left_by, odd_by, even_by = _spans(d)
    left_spans = tuple(map(left_by.__getitem__, entries))
    right_spans = tuple(map(getitem, cycle((odd_by, even_by)), entries))
    left = SideSummary("left", left_spans, tuple(sorted(left_loops)))
    right = SideSummary("right", right_spans, tuple(sorted(right_loops)))
    return SphereDecomposition(d, AllowablePath(entries), crossing, left, right)


class SurfaceReport(Record):
    """Invariants of one of the three surfaces along a path.

    ``kind`` is ``PLANAR``, ``TUBED_LEFT`` or ``TUBED_RIGHT``.
    ``extra_tori`` counts the separate torus pieces of a tubed kind and
    is None for the planar one.
    """

    __slots__ = _fields = ("kind", "euler", "genus", "boundary", "closed", "extra_tori")
    _defaults = (None,)

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "euler": self.euler,
            "genus": self.genus,
            "boundary": self.boundary,
            "closed": self.closed,
        }
        if self.extra_tori is not None:
            out["extra_tori"] = self.extra_tori
        return out


def surface_invariants(dec: SphereDecomposition) -> tuple[SurfaceReport, ...]:
    """Closed-form invariants of the planar and the two tubed surfaces.

    They depend on m and the two loop counts alone, so each diagram keeps
    the reports it has made in ``_reports``, keyed by the loop counts.
    """
    kept = dec.diagram.__dict__.get("_reports")
    if kept is None:
        kept = dec.diagram.__dict__["_reports"] = {}
    key = (dec.left.loop_count, dec.right.loop_count)
    reports = kept.get(key)
    if reports is None:
        m = dec.m
        genus = (m + 1) // 2
        reports = kept[key] = (
            SurfaceReport(PLANAR, 1 - m, 0, m + 1, False),
            SurfaceReport(TUBED_LEFT, 1 - m, genus, 0, True, key[0]),
            SurfaceReport(TUBED_RIGHT, 1 - m, genus, 0, True, key[1]),
        )
    return reports


def assembled_surface_cells(punctures: int, tubes: int) -> dict:
    """Euler characteristic by explicit cell assembly.

    Starts from a two-vertex, two-edge, two-face sphere and performs
    each construction step on the cell counts: boring one hole adds a
    boundary vertex and circle edge plus a cut edge (V+1, E+2, F+0);
    each tube is a fresh annulus (V=2, E=3, F=1) glued along both its
    boundary circles, each gluing identifying one vertex and one edge.
    With ``tubes = 0`` this is the planar surface; with
    ``2 * tubes = punctures`` the closed tubed surface.  Counts that are
    not ints, or negative, or whose sum passes ``MAX_BOXES + 1``, are a
    ParameterError; tubes that do not cap the punctures in pairs are a
    PathError.
    """
    _check_ints(ParameterError, "punctures and tubes", punctures, tubes)
    if punctures < 0 or tubes < 0:
        raise ParameterError(f"punctures and tubes must not be negative, got {punctures}, {tubes}")
    if punctures + tubes > MAX_BOXES + 1:  # unprinted: it may pass the int-to-text limit
        raise ParameterError(f"cell assembly takes at most {MAX_BOXES + 1} punctures and tubes")
    if tubes and 2 * tubes != punctures:
        raise PathError("tubes must cap the punctures in pairs")
    v, e, f = 2, 2, 2  # a CW sphere: two poles, two meridian edges
    for _ in range(punctures):
        v += 1
        e += 2
    boundary = punctures
    for _ in range(tubes):
        v, e, f = v + 2, e + 3, f + 1  # disjoint annulus
        v, e = v - 2, e - 2  # glue its two circles onto two punctures
        boundary -= 2
    euler = v - e + f
    closed = boundary == 0
    return {
        "vertices": v,
        "edges": e,
        "faces": f,
        "euler": euler,
        "boundary": boundary,
        "closed": closed,
        "genus": (2 - euler) // 2 if closed else 0,
    }
