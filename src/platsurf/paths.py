"""Allowable paths: the corridors that carry separating spheres.

A candidate path assigns to each row i an entry a_i, meaning the path
descends through the gap just right of box a_i of that row, at strand
position pos(i) + 1/2 where

    pos(i) = 2*a_i + 1   (odd rows)
    pos(i) = 2*a_i       (even rows).

The path starts above the top caps, ends below the bottom caps, and
moves monotonically downward.  It is *allowable* when it meets the link
in the minimum possible m+1 points.  Two equivalent characterizations
are implemented:

* the step rule: 1 <= a_i <= row_length(i) - 1, and consecutive entries
  satisfy a_(i+1) in {a_i, a_i + 1} going odd row to even and
  a_(i+1) in {a_i - 1, a_i} going even to odd;

* the geometric count: ``crossing_count`` returns the number of times
  the corridor polyline crosses the link, namely one top cap, one
  bottom cap, and |pos(i+1) - pos(i)| strand segments in each interior
  gap.  The path is allowable exactly when the count is m + 1 (with the
  bounds holding), because pos alternates parity between rows so every
  gap is crossed at least once, and the step rule is precisely the
  condition |pos(i+1) - pos(i)| = 1 for all i.

The step rule is the primary check; the count is kept as an independent
oracle and the equivalence is exercised exhaustively in the test suite.
``allowable_entries`` checks the bounds and the step rule over the whole
entry tuple at once, a few passes over slices of it; only a path that
fails them is scanned row by row, and the scan names the first fault.
"""

from __future__ import annotations

from operator import sub
from typing import Iterator, Sequence

from ._record import Record, set_field
from .diagram import PlatDiagram, _check_ints, row_length
from .errors import ParameterError, PathError, TwoBridgeError, _as_tuple


_TWO_BRIDGE = "a 2-bridge plat (n <= 2) admits no allowable paths"
MAX_PATHS = 10**6  # the most paths enumerate_allowable builds at once
_NOT_A_PATH = "path is not a sequence of entries"


def corridor_positions(entries: Sequence[int]) -> tuple[int, ...]:
    ps = [2 * a for a in entries]
    ps[::2] = [p + 1 for p in ps[::2]]  # the odd rows
    return tuple(ps)


class AllowablePath(Record):
    """Entry vector (a_1, ..., a_m) of an allowable path."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Sequence[int]) -> None:
        set_field(self, "entries", _as_tuple(entries, PathError, _NOT_A_PATH))

    @classmethod
    def for_diagram(cls, d: PlatDiagram, entries: Sequence[int]) -> "AllowablePath":
        """Validate against d's shape; raises PathError when not allowable."""
        return cls(allowable_entries(d, entries))

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def positions(self) -> tuple[int, ...]:
        return corridor_positions(self.entries)

    def __iter__(self):
        return iter(self.entries)


class PathCheck(Record):
    """Allowability verdict with the first violation spelled out."""

    __slots__ = _fields = ("ok", "reason")
    _defaults = (None,)

    def __bool__(self) -> bool:
        return self.ok


def _shape_fault(d: PlatDiagram, entries: tuple, lo: int) -> str | None:
    """The first fault of ``entries`` as d.m ints (a bool is not one) with
    lo <= a_i <= row_length(i) - lo, or None.  lo is 1 for the allowable
    range of the step rule and 0 for the corridors ``crossing_count`` takes."""
    if len(entries) != d.m:
        return f"expected {d.m} entries, got {len(entries)}"
    for i, a in enumerate(entries, 1):
        if isinstance(a, bool) or not isinstance(a, int):
            return f"row {i}: entry {a!r} is not an int"
        hi = row_length(d.n, i) - lo
        if not lo <= a <= hi:
            return f"row {i}: entry {a} outside {'allowable range ' if lo else ''}{lo}..{hi}"
    return None


def allowable_entries(
    d: PlatDiagram, path: AllowablePath | Sequence[int]
) -> tuple[int, ...]:
    """The entries of ``path`` as a tuple when it is allowable on d.

    Otherwise raises PathError naming the first fault, checked in this
    order: a 2-bridge diagram (n <= 2) has no allowable path; then a path
    that is not iterable; then the shape (d.m int entries, 1 <= a_i <=
    row_length(i) - 1); then the step rule, one pair of rows at a time
    from the top.  That scan runs only when the verdict over the whole
    tuple fails.
    """
    if d.n <= 2:
        raise PathError(_TWO_BRIDGE)
    entries = _as_tuple(path, PathError, _NOT_A_PATH)
    odd, even = entries[0::2], entries[1::2]
    # an even row's entry is the odd one's above it or one more, so bounding
    # the odd rows by 1..n - 2 and the steps bounds it by 1..n - 1
    if (len(entries) == d.m and {*map(type, entries)} == {int}
            and 1 <= min(odd) and max(odd) <= d.n - 2
            and {*map(sub, even, odd)} <= {0, 1} and {*map(sub, odd[1:], even)} <= {-1, 0}):
        return entries
    if fault := _shape_fault(d, entries, 1):
        raise PathError(fault)
    for i in range(1, len(entries)):
        prev, cur = entries[i - 1], entries[i]
        if i % 2 == 1:  # odd row to even row below it
            allowed = (prev, prev + 1)
        else:
            allowed = (prev - 1, prev)
        if cur not in allowed:
            raise PathError(f"rows {i}->{i + 1}: step {prev}->{cur} not in {allowed}")
    return entries


def check_allowable(d: PlatDiagram, path: AllowablePath | Sequence[int]) -> PathCheck:
    """The verdict of ``allowable_entries`` as a record: PathCheck(True),
    or PathCheck(False, reason) with the PathError message as the reason."""
    try:
        allowable_entries(d, path)
    except PathError as e:
        return PathCheck(False, str(e))
    return PathCheck(True)


def crossing_count(d: PlatDiagram, path: AllowablePath | Sequence[int]) -> int:
    """Number of intersections of the corridor with the link.

    Accepts any vector of int entries with 0 <= a_i <= row_length(i),
    allowable or not; the count equals m + 1 exactly on step-rule paths.
    A path that is not iterable, a wrong length, a non-int entry (a bool
    included) or an entry out of range raises PathError.  The two
    endpoints of the corridor each cross one cap arc; interior gap i is
    crossed |pos(i+1) - pos(i)| times, once per strand position passed.
    """
    entries = _as_tuple(path, PathError, _NOT_A_PATH)
    if fault := _shape_fault(d, entries, 0):
        raise PathError(fault)
    ps = corridor_positions(entries)
    return 1 + sum(abs(ps[i + 1] - ps[i]) for i in range(len(ps) - 1)) + 1


def iter_allowable(d: PlatDiagram) -> Iterator[AllowablePath]:
    """Each allowable path in turn, in lexicographic order of its entries.

    Empty for n <= 2: a 2-bridge plat has no room for a separating
    corridor (every odd row is a single span of width zero).  Each path
    is the one before it with the last entry that can still step right
    stepped, and every row below restarted at its smallest entry.  Every
    entry has a legal successor in the next row, so this never meets a
    dead end, and it keeps one entry list whatever the number of rows.
    """
    if d.n <= 2:
        return
    m, top = d.m, d.n - 2  # top: the largest entry of an odd row
    entries = [1] * m  # the leftmost path
    while True:
        yield AllowablePath(tuple(entries))
        # the step rule lets an odd row's entry a be followed by a or a + 1,
        # an even row's by a - 1 or a, within 1..top in odd rows
        k = m - 1
        while k > 0:
            prev = entries[k - 1]
            if entries[k] < (prev + 1 if k & 1 else prev if prev < top else top):
                break
            k -= 1
        else:
            if entries[0] == top:
                return
        entries[k] += 1
        for k in range(k + 1, m):
            prev = entries[k - 1]
            entries[k] = prev if k & 1 or prev == 1 else prev - 1


def enumerate_allowable(d: PlatDiagram) -> tuple[AllowablePath, ...]:
    """All allowable paths in lexicographic order of their entry vectors.

    Empty for n <= 2.  The number of paths grows exponentially in m (see
    ``count_allowable``), so a shape with more than ``MAX_PATHS`` raises
    ParameterError before any path is built, as soon as the rows counted
    so far pass the limit; ``iter_allowable`` yields them one at a time.
    """
    # a row's count never falls below the row above's: every entry has a successor
    if any(sum(odd) > MAX_PATHS for odd in _odd_row_counts(d.n, d.m)):
        raise ParameterError(
            f"n = {d.n}, m = {d.m} give more than {MAX_PATHS} allowable paths; "
            "enumerate_allowable is limited to that, iter_allowable yields them one at a time"
        )
    return tuple(iter_allowable(d))


def _odd_row_counts(n: int, m: int) -> Iterator[list[int]]:
    """Per odd row, top to bottom, the paths reaching each entry 1..n-2.

    Row-by-row transfer: each row pair adds neighbours into ``even``
    (entries 1..n-1), then back.  The list lengths keep every entry in
    range; the lists are empty when n <= 2.
    """
    odd = [1] * (n - 2)
    yield odd
    for _ in range(m // 2):
        even = [a + b for a, b in zip([0, *odd], [*odd, 0])]
        odd = [a + b for a, b in zip(even, even[1:])]
        yield odd


def count_allowable(n: int, m: int) -> int:
    """Exact number of allowable paths on the (n, m) shape, 0 when n <= 2.
    The step rule reads the same upward, so as many paths reach each entry of
    the middle row k + 1, k = m // 2, from below as from above: the count is
    the sum of their squares, carried down k rows, about m * n / 2 additions."""
    _check_ints(ParameterError, "n and m", n, m)
    if m < 1 or m % 2 == 0:
        raise ParameterError("m must be odd and positive")
    k = m // 2
    for v in _odd_row_counts(n, k):  # ends at row k + 1 when k is even, else row k
        pass
    if k & 1:  # the middle row is even: one step more
        v = [a + b for a, b in zip([0, *v], [*v, 0])]
    return sum(x * x for x in v)


def extremal_paths(d: PlatDiagram) -> tuple[AllowablePath, AllowablePath]:
    """The leftmost and rightmost allowable paths.

    Leftmost is (1, 1, ..., 1); rightmost takes n-2 in odd rows and
    n-1 in even rows.  These are the lexicographic extremes of
    ``enumerate_allowable`` (checked in the tests) and the two spheres
    whose far sides must be empty for slope coverage.
    """
    if d.n <= 2:
        raise TwoBridgeError(_TWO_BRIDGE)
    low = AllowablePath(tuple(1 for _ in range(d.m)))
    high = AllowablePath(
        tuple(d.n - 2 if i % 2 == 1 else d.n - 1 for i in range(1, d.m + 1))
    )
    return low, high
