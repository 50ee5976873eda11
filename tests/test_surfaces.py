"""Sphere decompositions and surface invariants."""

import copy
import pickle
import random
import time

import pytest

from platsurf import (
    PLANAR,
    TUBED_LEFT,
    TUBED_RIGHT,
    ParameterError,
    PathError,
    SurfaceReport,
    assembled_surface_cells,
    build_topology,
    components_strictly_beside,
    crossing_components,
    decompose,
    enumerate_allowable,
    make_diagram,
    surface_invariants,
)
from platsurf import surfaces
from platsurf.diagram import MAX_BOXES, box_strands
from helpers import pos_of, random_all_twist, random_shape, trace_sides


def test_decompose_frozen_small():
    d = make_diagram(3, 1, [[2, 4]])
    dec = decompose(d, (1,))
    assert dec.m == 1
    assert dec.puncture_count == 2
    assert dec.crossing == (1, 1)
    assert dec.left.boxes == frozenset({(1, 1)})
    assert dec.right.boxes == frozenset({(1, 2)})
    assert dec.left.arc_count == dec.right.arc_count == 1
    assert dec.left.loop_components == (0,)
    assert dec.right.loop_components == (2,)
    assert dec.left.loop_count == dec.right.loop_count == 1


def test_decompose_frozen_figure():
    d = make_diagram(4, 5, [[3] * 3, [3] * 4, [3] * 3, [3] * 4, [3] * 3])
    dec = decompose(d, (1, 1, 1, 2, 2))
    assert dec.crossing == (0,) * 6
    assert dec.left.boxes == frozenset(
        {(1, 1), (2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (5, 2)}
    )
    assert dec.right.boxes == frozenset(
        {(1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 3), (4, 4), (5, 3)}
    )
    assert dec.left.arc_count == dec.right.arc_count == 3
    assert dec.left.loop_components == dec.right.loop_components == ()


def test_decompose_rejects_bad_path():
    d = make_diagram(3, 3, [[3, 3], [3, 3, 3], [3, 3]])
    with pytest.raises(PathError):
        decompose(d, (1, 1))
    with pytest.raises(PathError):
        decompose(d, (1, 3, 1))


def test_surface_invariants_frozen():
    d = make_diagram(3, 1, [[2, 4]])
    planar, left, right = surface_invariants(decompose(d, (1,)))
    assert planar == planar.__class__(PLANAR, 0, 0, 2, False)
    assert planar.extra_tori is None
    assert left.kind == TUBED_LEFT and right.kind == TUBED_RIGHT
    for rep in (left, right):
        assert (rep.euler, rep.genus, rep.boundary, rep.closed) == (0, 1, 0, True)
    # side loops stay separate tori, they never inflate the genus
    assert left.extra_tori == 1
    assert right.extra_tori == 1


def test_surface_invariants_by_m():
    for m in (1, 3, 5, 7):
        n = 4
        rows = [[3] * (n - 1 if i % 2 == 1 else n) for i in range(1, m + 1)]
        d = make_diagram(n, m, rows)
        path = enumerate_allowable(d)[0]
        planar, left, right = surface_invariants(decompose(d, path))
        assert planar.euler == 1 - m
        assert planar.boundary == m + 1
        assert planar.genus == 0 and not planar.closed
        for rep in (left, right):
            assert rep.euler == 1 - m
            assert rep.genus == (m + 1) // 2
            assert rep.boundary == 0 and rep.closed


def test_reports_kept_per_diagram_follow_its_own_m():
    # even twists pass every strand straight through, so the caps pairs
    # (1, 2) and (5, 6) are loops left and right of the leftmost path for
    # any m; the reports kept on each diagram carry its own m
    diagrams = [make_diagram(3, m, [[2] * (2 if i % 2 else 3) for i in range(1, m + 1)])
                for m in (1, 5)]
    for d in diagrams:
        dec = decompose(d, (1,) * d.m)
        assert (dec.left.loop_count, dec.right.loop_count) == (1, 1)
        reports = surface_invariants(dec)
        genus = (d.m + 1) // 2
        assert reports == (
            SurfaceReport(PLANAR, 1 - d.m, 0, d.m + 1, False),
            SurfaceReport(TUBED_LEFT, 1 - d.m, genus, 0, True, 1),
            SurfaceReport(TUBED_RIGHT, 1 - d.m, genus, 0, True, 1),
        )
        planar = assembled_surface_cells(d.m + 1, 0)
        tubed = assembled_surface_cells(d.m + 1, genus)
        assert (planar["euler"], planar["genus"]) == (reports[0].euler, reports[0].genus)
        for rep in reports[1:]:
            assert (tubed["euler"], tubed["genus"]) == (rep.euler, rep.genus)
        again = surface_invariants(decompose(d, (1,) * d.m))
        assert again == reports and list(map(repr, again)) == list(map(repr, reports))
    assert surface_invariants(decompose(diagrams[0], (1,)))[0].euler == 0
    assert surface_invariants(decompose(diagrams[1], (1,) * 5))[0].euler == -4


def test_kept_spans_and_reports_stay_out_of_the_diagram_value():
    d = make_diagram(3, 3, [[2, 4], [3, 3, 3], [3, 3]])
    fresh = make_diagram(3, 3, [[2, 4], [3, 3, 3], [3, 3]])
    text, value = repr(d), hash(d)
    surface_invariants(decompose(d, (1, 1, 1)))
    assert {"_spans", "_reports"} <= set(d.__dict__)
    assert repr(d) == text == repr(fresh) and hash(d) == value == hash(fresh)
    assert d == fresh and fresh == d
    for copied in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert copied == d and not {"_spans", "_reports"} & set(copied.__dict__)
    assert pickle.dumps(d) == pickle.dumps(fresh)


def test_surface_dicts():
    d = make_diagram(3, 3, [[3, 3], [3, 3, 3], [3, 3]])
    planar, left, _ = surface_invariants(decompose(d, (1, 1, 1)))
    assert planar.to_dict() == {
        "kind": "planar",
        "euler": -2,
        "genus": 0,
        "boundary": 4,
        "closed": False,
    }
    assert left.to_dict()["extra_tori"] == left.extra_tori


def test_cell_assembly_matches_closed_forms():
    for m in range(1, 13, 2):
        open_cells = assembled_surface_cells(m + 1, 0)
        assert open_cells["euler"] == 1 - m
        assert open_cells["boundary"] == m + 1
        assert not open_cells["closed"]
        closed_cells = assembled_surface_cells(m + 1, (m + 1) // 2)
        assert closed_cells["euler"] == 1 - m
        assert closed_cells["boundary"] == 0
        assert closed_cells["closed"]
        assert closed_cells["genus"] == (m + 1) // 2


def test_cell_assembly_counts_are_explicit():
    cells = assembled_surface_cells(2, 1)
    assert cells["vertices"] - cells["edges"] + cells["faces"] == cells["euler"]
    assert cells == {
        "vertices": 4,
        "edges": 7,
        "faces": 3,
        "euler": 0,
        "boundary": 0,
        "closed": True,
        "genus": 1,
    }


def test_cell_assembly_rejects_partial_tubing():
    with pytest.raises(PathError):
        assembled_surface_cells(4, 1)
    for args, message in ((("3", 0), "punctures and tubes must be ints, got '3'"),
                          ((4, 2.0), "punctures and tubes must be ints, got 2.0"),
                          ((-1, 0), "punctures and tubes must not be negative, got -1, 0"),
                          ((4, -2), "punctures and tubes must not be negative, got 4, -2")):
        with pytest.raises(ParameterError) as info:
            assembled_surface_cells(*args)
        assert str(info.value) == message


def test_cell_assembly_is_limited_before_any_cell_is_counted(monkeypatch):
    start = time.perf_counter()
    message = f"^cell assembly takes at most {MAX_BOXES + 1} punctures and tubes$"
    for args in ((MAX_BOXES + 2, 0), (MAX_BOXES, 2), (10**5000, 0), (2, 10**5000)):
        with pytest.raises(ParameterError, match=message):
            assembled_surface_cells(*args)
    assert time.perf_counter() - start < 0.05
    monkeypatch.setattr(surfaces, "MAX_BOXES", 5)  # the limit is MAX_BOXES + 1 = 6
    assert assembled_surface_cells(6, 0)["boundary"] == 6
    assert assembled_surface_cells(4, 2)["genus"] == 2
    for args in ((7, 0), (6, 3)):
        with pytest.raises(ParameterError, match="at most 6 punctures"):
            assembled_surface_cells(*args)


def test_decompose_random_consistency():
    rng = random.Random(47)
    for _ in range(60):
        n, m = random_shape(rng, 5, 7)
        d = random_all_twist(rng, n, m)
        t = build_topology(d)
        all_paths = enumerate_allowable(d)
        for k, path in enumerate(all_paths):
            dec = decompose(d, path)
            assert dec.path.entries == path.entries
            both = dec.left.boxes | dec.right.boxes
            assert len(both) == len(dec.left.boxes) + len(dec.right.boxes)
            assert both == {(i, j) for i, j, _ in d.boxes()}
            # a box is left of the sphere when its right strand is not past
            # the corridor's strand position in its row
            assert dec.left.boxes == {
                (i, j)
                for i, j, _ in d.boxes()
                if box_strands(i, j)[1] <= pos_of(i, path.entries[i - 1])
            }
            assert decompose(d, path.entries) == dec
            if len(all_paths) > 1:
                other = decompose(d, all_paths[k - 1])
                assert (other.left, other.right) != (dec.left, dec.right)
            assert dec.crossing == crossing_components(t, path)
            assert set(dec.left.loop_components) == components_strictly_beside(
                t, path, "left"
            )
            assert set(dec.right.loop_components) == components_strictly_beside(
                t, path, "right"
            )


def test_arc_counts_match_component_walk():
    # the walk counts actual maximal one-side runs; each side must hold
    # exactly (m + 1) / 2 of them
    rng = random.Random(53)
    for _ in range(60):
        n, m = random_shape(rng, 5, 7)
        d = random_all_twist(rng, n, m)
        for path in enumerate_allowable(d):
            trace = trace_sides(d, path.entries)
            dec = decompose(d, path)
            assert trace["left_arcs"] == dec.left.arc_count == (m + 1) // 2
            assert trace["right_arcs"] == dec.right.arc_count == (m + 1) // 2
