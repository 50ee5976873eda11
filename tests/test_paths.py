"""Allowable paths: step rule, crossing oracle, enumeration, counting."""

import itertools
import random
import time
from enum import IntEnum

import pytest

from platsurf import (
    AllowablePath,
    MalformedDiagramError,
    ParameterError,
    PathError,
    PDCode,
    PlatDiagram,
    PlatError,
    TwoBridgeError,
    Twist,
    build_topology,
    certify,
    certify_haken,
    check_allowable,
    components_meeting_sphere,
    count_allowable,
    crossing_count,
    decompose,
    enumerate_allowable,
    extremal_paths,
    is_totally_nontrivial,
    iter_allowable,
    make_diagram,
    random_diagram,
    render,
)
from platsurf.paths import MAX_PATHS, PathCheck, allowable_entries, corridor_positions
from helpers import brute_force_paths, per_row_allowable_entries, per_row_count
from helpers import polyline_crossing_count, pos_of, row_len


def _shape(n, m):
    rows = [[3] * row_len(n, i) for i in range(1, m + 1)]
    return make_diagram(n, m, rows)


def test_enumeration_frozen_counts():
    assert [p.entries for p in enumerate_allowable(_shape(3, 3))] == [
        (1, 1, 1),
        (1, 2, 1),
    ]
    assert len(enumerate_allowable(_shape(4, 3))) == 6
    assert len(enumerate_allowable(_shape(3, 5))) == 4


def test_count_matches_enumeration_and_brute_force():
    for n in range(3, 6):
        for m in (1, 3, 5, 7):
            brute = brute_force_paths(n, m)
            enum = [p.entries for p in enumerate_allowable(_shape(n, m))]
            assert enum == sorted(brute)
            assert count_allowable(n, m) == len(brute)
    for n in (6, 7):
        for m in (1, 3, 5, 7):
            assert count_allowable(n, m) == len(brute_force_paths(n, m))
    for n in (1, 2):
        assert [count_allowable(n, m) for m in (1, 3, 5, 101)] == [0] * 4
    # n = 3: one odd entry, two even ones, so each row pair doubles the count
    for m in range(1, 2002, 2):
        assert count_allowable(3, m) == 2 ** ((m - 1) // 2)
    with pytest.raises(ParameterError, match="m must be odd and positive"):
        count_allowable(4, 4)


def test_half_way_count_equals_the_count_through_every_row():
    for n in range(1, 17):
        for m in range(1, 62, 2):
            assert count_allowable(n, m) == per_row_count(n, m), (n, m)


def test_enumeration_is_limited_before_any_path_is_built():
    assert count_allowable(20, 21) == 16_043_068 > MAX_PATHS
    d = random_diagram(20, 21, seed=1)
    start = time.perf_counter()
    with pytest.raises(ParameterError, match=f"more than {MAX_PATHS} allowable paths"):
        enumerate_allowable(d)
    assert time.perf_counter() - start < 0.5
    assert next(iter_allowable(d)) == extremal_paths(d)[0]  # streaming stays open
    # the largest shape in use, (15, 15), stays under the limit
    assert count_allowable(15, 15) == 177_896


def test_enumeration_refuses_without_counting_every_row():
    m = 399_999  # n = 3: the last box count under MAX_BOXES, 2 ** 199_999 paths
    odd, even = (Twist(3),) * 2, (Twist(3),) * 3
    d = PlatDiagram(3, m, tuple(odd if i % 2 else even for i in range(1, m + 1)))
    start = time.perf_counter()
    with pytest.raises(ParameterError, match=f"more than {MAX_PATHS} allowable paths"):
        enumerate_allowable(d)
    assert time.perf_counter() - start < 0.05


def test_enumeration_is_lexicographic():
    for n, m in ((3, 5), (4, 5), (5, 3)):
        entries = [p.entries for p in enumerate_allowable(_shape(n, m))]
        assert entries == sorted(entries)


def test_iter_allowable_matches_enumeration_and_count():
    for n in range(1, 7):
        for m in (1, 3, 5, 7, 9):
            d = _shape(n, m)
            paths = list(iter_allowable(d))
            assert tuple(paths) == enumerate_allowable(d)
            assert len(paths) == (count_allowable(n, m) if n > 2 else 0)


def test_iter_allowable_starts_without_recursion_on_many_rows():
    # 2**600 paths over 1201 rows; recursing once per row would overflow
    d = random_diagram(3, 1201, seed=1)
    paths = iter_allowable(d)
    assert next(paths) == extremal_paths(d)[0]
    assert next(paths).entries == (1,) * 1199 + (2, 1)


def test_figure_example_path():
    # the five-row example: entries (1,1,1,2,2) descend at positions
    # 3,2,3,4,5 and the corridor meets the link six times
    d = _shape(4, 5)
    path = AllowablePath.for_diagram(d, (1, 1, 1, 2, 2))
    assert path.positions == (3, 2, 3, 4, 5)
    assert check_allowable(d, (1, 1, 1, 2, 2)).ok
    assert crossing_count(d, (1, 1, 1, 2, 2)) == 6


def test_step_rule_equals_crossing_oracle_small():
    for n in range(1, 5):
        for m in (1, 3, 5):
            d = _shape(n, m)
            space = [range(0, row_len(n, i) + 1) for i in range(1, m + 1)]
            for entries in itertools.product(*space):
                ok = bool(check_allowable(d, entries))
                bounds = all(
                    1 <= a <= row_len(n, i) - 1 for i, a in enumerate(entries, 1)
                )
                assert ok == (bounds and crossing_count(d, entries) == m + 1), entries


class _One(IntEnum):
    ONE = 1


# one of each kind of entry the whole-tuple verdict must hand to the row scan
_HOSTILE = (True, "1", 1.0, 1.5, -1, 0, 10**30, _One.ONE)


def _verdict_vectors(n, m):
    """Every vector of length m - 1..m + 1 with entries 0..n + 1 while the
    three lengths hold at most 60 000 of them (every shape here but n = 5
    at m = 5 and n >= 2 at m = 7); past that, every allowable path with one
    entry set to each of 0..n + 1, cut short or lengthened by one, and 3000
    seeded draws from the whole space.  Then each hostile entry in each row
    of the two extremal paths (of (1,) * m when n <= 2)."""
    values = range(n + 2)
    lengths = (m - 1, m, m + 1)
    if sum(len(values) ** k for k in lengths) <= 60_000:
        vectors = [v for k in lengths for v in itertools.product(values, repeat=k)]
    else:
        rng = random.Random(n * 100 + m)
        vectors = [
            tuple(rng.choice(values) for _ in range(rng.choice((m - 1, m, m + 1))))
            for _ in range(3000)
        ]
        for p in brute_force_paths(n, m):
            vectors += [p[:k] + (a,) + p[k + 1:] for k in range(m) for a in values]
            vectors += [p[:-1], p + (1,)]
    bases = [p.entries for p in extremal_paths(_shape(n, m))] if n > 2 else [(1,) * m]
    for b in bases:
        vectors += [b[:k] + (bad,) + b[k + 1:] for k in range(m) for bad in _HOSTILE]
    return vectors


def test_both_forms_of_the_path_verdict_agree():
    # allowable_entries gives the per-row scan's verdict exactly, the same
    # tuple of the same objects or the same PathError message, and
    # check_allowable reports it, on every form of path, allowable or not,
    # too short or too long, ints or not
    forms = (tuple, list, AllowablePath, lambda v: (a for a in v))
    for n in range(1, 6):
        for m in (1, 3, 5, 7):
            d = _shape(n, m)
            for v in _verdict_vectors(n, m):
                try:
                    want = per_row_allowable_entries(d, v)
                except PathError as e:
                    want = str(e)
                for form in forms:
                    check = check_allowable(d, form(v))
                    try:
                        got = allowable_entries(d, form(v))
                    except PathError as e:
                        assert str(e) == want and check == PathCheck(False, want), (n, m, v, form)
                    else:
                        assert got == want and list(map(type, got)) == list(map(type, want))
                        assert check == PathCheck(True), (n, m, v, form)


def test_crossing_oracle_against_polyline_geometry():
    # the closed-form count must match a generic segment-intersection
    # simulation of the drawn corridor, allowable or not
    rng = random.Random(5)
    for _ in range(400):
        n, m = rng.randint(2, 6), rng.choice((1, 3, 5, 7))
        d = _shape(n, m)
        entries = tuple(
            rng.randint(0, row_len(n, i)) for i in range(1, m + 1)
        )
        assert crossing_count(d, entries) == polyline_crossing_count(n, m, entries), (
            n,
            m,
            entries,
        )


def test_corridor_positions_equal_pos_of_on_every_counted_vector():
    # every vector crossing_count takes, entries 0 and row_length included:
    # the sliced positions equal pos(i) taken row by row
    for n in range(1, 6):
        for m in (1, 3, 5):
            d = _shape(n, m)
            space = [range(0, row_len(n, i) + 1) for i in range(1, m + 1)]
            for entries in itertools.product(*space):
                want = tuple(pos_of(i, a) for i, a in enumerate(entries, 1))
                assert corridor_positions(entries) == want, entries
                assert crossing_count(d, entries) >= m + 1


def test_check_allowable_diagnostics():
    d = _shape(4, 3)
    assert "expected 3 entries" in check_allowable(d, (1, 1)).reason
    assert "row 1" in check_allowable(d, (0, 1, 1)).reason
    assert "row 2" in check_allowable(d, (1, 9, 1)).reason
    assert "rows 1->2" in check_allowable(d, (1, 3, 2)).reason
    assert "rows 2->3" in check_allowable(d, (1, 1, 2)).reason
    assert check_allowable(d, (1, "x", 1)).reason
    assert check_allowable(d, 3) == PathCheck(False, "path is not a sequence of entries: got int")


def test_for_diagram_raises_on_bad_path():
    d = _shape(3, 3)
    with pytest.raises(PathError):
        AllowablePath.for_diagram(d, (1, 3, 1))
    p = AllowablePath.for_diagram(d, (1, 2, 1))
    assert p.m == 3 and tuple(p) == (1, 2, 1)


def test_crossing_count_input_errors():
    d = _shape(3, 3)
    with pytest.raises(PathError):
        crossing_count(d, (1, 1))
    with pytest.raises(PathError):
        crossing_count(d, (1, 7, 1))
    d = random_diagram(3, 5, seed=1)
    for bad in ((1, "x", 1, 1, 1), (1, None, 1, 1, 1), (1.5, 1, 1, 1, 1),
                (1.0, 1, 1, 1, 1), (True, 1, 1, 1, 1)):
        with pytest.raises(PathError, match="is not an int"):
            crossing_count(d, bad)
        assert check_allowable(d, bad).reason.endswith("is not an int")


_KNOT = make_diagram(3, 3, [[3, 3], [3, 3, 3], [3, 3]])
_NOT_A_PATH = "path is not a sequence of entries: got int"
_NOT_SLOPES = "slopes are not a sequence of Slope: got "


@pytest.mark.parametrize("call, error, message", [
    (lambda: decompose(_KNOT, 3), PathError, _NOT_A_PATH),
    (lambda: certify(_KNOT, path=3), PathError, _NOT_A_PATH),
    (lambda: AllowablePath.for_diagram(_KNOT, 3), PathError, _NOT_A_PATH),
    (lambda: components_meeting_sphere(build_topology(_KNOT), 3), PathError, _NOT_A_PATH),
    (lambda: render(_KNOT, 3), PathError, _NOT_A_PATH),
    (lambda: crossing_count(_KNOT, 3), PathError, _NOT_A_PATH),
    (lambda: certify_haken(_KNOT, 3), ParameterError, _NOT_SLOPES + "int"),
    (lambda: certify_haken(_KNOT, None), ParameterError, _NOT_SLOPES + "NoneType"),
    (lambda: is_totally_nontrivial(3), ParameterError, _NOT_SLOPES + "int"),
    (lambda: AllowablePath(3), PathError, _NOT_A_PATH),
    (lambda: make_diagram(3, 3, 3), MalformedDiagramError, "rows are not a sequence of rows: got int"),
    (lambda: make_diagram(3, 3, None), MalformedDiagramError,
     "rows are not a sequence of rows: got NoneType"),
    (lambda: make_diagram(3, 3, [3, 3, 3]), MalformedDiagramError,
     "row 1 is not a sequence of boxes: got int"),
    (lambda: make_diagram(3, 3, [[3, 3], [3, 3, 3], 3]), MalformedDiagramError,
     "row 3 is not a sequence of boxes: got int"),
    (lambda: PlatDiagram(3, 3, 3), MalformedDiagramError, "rows are not a sequence of rows: got int"),
    (lambda: PlatDiagram(3, 3, [_KNOT.rows[0], None, _KNOT.rows[2]]), MalformedDiagramError,
     "row 2 is not a sequence of boxes: got NoneType"),
    (lambda: PlatDiagram(3, 3, (_KNOT.rows[0], iter(_KNOT.rows[1]), _KNOT.rows[2])),
     MalformedDiagramError, "row 2 is not a sequence of boxes: got tuple_iterator"),
], ids=["decompose", "certify", "for_diagram", "components_meeting_sphere", "render",
        "crossing_count", "certify_haken", "certify_haken_none", "is_totally_nontrivial",
        "AllowablePath", "make_diagram", "make_diagram_none", "make_diagram_row",
        "make_diagram_last_row", "PlatDiagram", "PlatDiagram_row", "PlatDiagram_row_no_len"])
def test_a_path_or_slopes_that_is_not_iterable_is_an_input_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message and isinstance(info.value, PlatError)


def test_a_type_error_inside_an_iterable_is_not_an_input_error():
    # only a value that cannot be iterated at all reads as bad input; a fault
    # raised while an iterable is read passes unchanged
    def broken():
        yield 1
        raise TypeError("inner")

    def broken_rows():
        yield [3, 3]
        raise TypeError("inner")

    def broken_crossings():
        yield (1, 2, 3, 4)
        raise TypeError("inner")

    class BrokenRow:  # a row with a length whose iterator fails after one box
        def __init__(self, row):
            self.row = row

        def __len__(self):
            return len(self.row)

        def __iter__(self):
            yield self.row[0]
            raise TypeError("inner")

    r1, r2, r3 = _KNOT.rows
    for call in (lambda: decompose(_KNOT, broken()), lambda: check_allowable(_KNOT, broken()),
                 lambda: certify_haken(_KNOT, broken()), lambda: AllowablePath(broken()),
                 lambda: make_diagram(3, 3, broken_rows()),
                 lambda: make_diagram(3, 3, [[3, 3], broken(), [3, 3]]),
                 lambda: PDCode(broken_crossings()), lambda: PDCode([(1, 2, 3, 4), broken()]),
                 lambda: PlatDiagram(3, 3, (r1, BrokenRow(r2), r3))):
        with pytest.raises(TypeError, match="^inner$"):
            call()


def test_extremal_paths():
    for n in range(3, 7):
        for m in (1, 3, 5):
            low, high = extremal_paths(_shape(n, m))
            assert low.entries == tuple(1 for _ in range(m))
            assert high.entries == tuple(
                n - 2 if i % 2 == 1 else n - 1 for i in range(1, m + 1)
            )
    assert extremal_paths(_shape(5, 3))[1].entries == (3, 4, 3)


def test_two_bridge_cases():
    d = make_diagram(2, 3, [[3], [3, 3], [3]])
    assert enumerate_allowable(d) == ()
    assert count_allowable(2, 3) == 0
    with pytest.raises(TwoBridgeError):
        extremal_paths(d)


def test_paths_on_two_bridge_diagrams_get_the_two_bridge_reason():
    reason = "a 2-bridge plat (n <= 2) admits no allowable paths"
    for n, m, rows in ((2, 3, [[3], [3, 3], [3]]), (1, 1, [[]])):
        d = make_diagram(n, m, rows)
        for path in ((1,) * m, (0,) * m, (1, 1)):
            assert check_allowable(d, path).reason == reason
        with pytest.raises(PathError, match="2-bridge"):
            allowable_entries(d, (1,) * m)


def test_count_parameter_errors():
    with pytest.raises(ParameterError):
        count_allowable(3, 4)
    with pytest.raises(ParameterError):
        count_allowable(3, 0)
    # a bool is no int: count_allowable(True, 3) once counted 0 paths
    for n, m, bad in (("3", 3, "'3'"), (3.0, 3, "3.0"), (True, 3, "True"), (3, None, "None")):
        with pytest.raises(ParameterError) as info:
            count_allowable(n, m)
        assert str(info.value) == f"n and m must be ints, got {bad}"


def test_count_grows_and_stays_exact():
    assert count_allowable(3, 3) == 2
    assert count_allowable(4, 3) == 6
    assert count_allowable(3, 5) == 4
    assert count_allowable(4, 5) == 18
    assert count_allowable(6, 9) == 650


def test_paths_ignore_coefficients():
    rough = make_diagram(3, 3, [[0, -2], [9, 0, 1], [5, 5]])
    smooth = _shape(3, 3)
    assert [p.entries for p in enumerate_allowable(rough)] == [
        p.entries for p in enumerate_allowable(smooth)
    ]


def test_random_diagram_paths_all_check():
    rng = random.Random(11)
    for _ in range(30):
        d = random_diagram(rng.randint(3, 5), rng.choice((3, 5, 7)), seed=rng.random())
        for p in enumerate_allowable(d):
            assert check_allowable(d, p.entries).ok
            assert crossing_count(d, p.entries) == d.m + 1
