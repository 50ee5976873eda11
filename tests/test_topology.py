"""Link components, braid permutation, and sphere intersection data."""

import gc
import random
import weakref

import pytest

from platsurf import (
    PathError,
    Slope,
    UnsupportedBoxError,
    braid_permutation,
    build_topology,
    certify,
    certify_haken,
    components_meeting_sphere,
    components_strictly_beside,
    count_allowable,
    crossing_components,
    crossing_pieces,
    decompose,
    diagram_from_json,
    diagram_to_json,
    enumerate_allowable,
    extremal_paths,
    iter_allowable,
    make_diagram,
    random_diagram,
    topology,
)
from platsurf.cli import main
from platsurf.topology import component_cycles
from helpers import plat_cycle_count, random_all_twist, random_shape, trace_sides
from helpers import random_mixed, row_len, union_find_components, walk_labels
from helpers import per_gap_crossing_pieces, per_gap_crossed_strands, per_gap_decompose
from helpers import per_gap_sphere_partition


def test_straight_through_diagram_components():
    # both boxes pass straight through, so the caps pair the strands
    # columnwise into three unknots
    d = make_diagram(3, 1, [[2, 4]])
    t = build_topology(d)
    assert t.component_count == 3
    assert t.components == (
        frozenset({(0, 1), (0, 2), (1, 1), (1, 2)}),
        frozenset({(0, 3), (0, 4), (1, 3), (1, 4)}),
        frozenset({(0, 5), (0, 6), (1, 5), (1, 6)}),
    )
    assert t.top_cap_component(2) == 1
    assert t.bottom_cap_component(3) == 2
    assert t.component_of(1, 4) == 1


def test_component_of_unknown_segment():
    t = build_topology(make_diagram(3, 1, [[2, 4]]))
    with pytest.raises(PathError):
        t.component_of(2, 1)
    with pytest.raises(PathError):
        t.component_of(0, 7)
    # just outside each bound; a flat label list would wrap round on -1
    for gap, strand in ((-1, 1), (0, 0), (-1, 6), (1, -1)):
        with pytest.raises(PathError):
            t.component_of(gap, strand)


def test_all_threes_knot_and_permutation():
    d = make_diagram(3, 3, [[3, 3], [3, 3, 3], [3, 3]])
    t = build_topology(d)
    assert t.component_count == 1
    assert braid_permutation(d) == (3, 5, 1, 6, 2, 4)


def test_braid_permutation_parity():
    # an even twist box passes through as the identity, an odd one swaps
    d = make_diagram(4, 1, [[3, 2, 3]])
    assert braid_permutation(d) == (1, 3, 2, 4, 5, 7, 6, 8)
    d0 = make_diagram(3, 1, [[0, -4]])
    assert braid_permutation(d0) == (1, 2, 3, 4, 5, 6)


def test_caps_box_has_no_braid_form():
    d = make_diagram(3, 1, [[[0, 1], 3]])
    assert build_topology(d).component_count == 1
    with pytest.raises(UnsupportedBoxError, match=r"\(1, 1\)"):
        braid_permutation(d)


def test_component_count_matches_plat_closure_of_permutation():
    rng = random.Random(23)
    for _ in range(300):
        n, m = random_shape(rng, 6, 9)
        d = random_all_twist(rng, n, m)
        k = build_topology(d).component_count
        assert k == plat_cycle_count(braid_permutation(d)), d


def test_components_partition_segments():
    rng = random.Random(29)
    for _ in range(100):
        n, m = random_shape(rng, 6, 7)
        d = random_all_twist(rng, n, m)
        t = build_topology(d)
        seen = [seg for comp in t.components for seg in comp]
        assert len(seen) == (m + 1) * 2 * n
        assert len(set(seen)) == len(seen)
        mins = [min(c) for c in t.components]
        assert mins == sorted(mins)


def test_components_match_union_find_oracle():
    # rational boxes of every pairing, caps included, and n = 1, 2 as well
    rng = random.Random(47)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.choice((1, 3, 5, 7))
        d = random_mixed(rng, n, m)
        t = build_topology(d)
        assert [sorted(c) for c in t.components] == union_find_components(d), d
        for cid, comp in enumerate(t.components):
            assert all(t.component_of(g, x) == cid for g, x in comp)


def _caps_column(rng, n, m, j):
    """Caps boxes at box j of every odd row, twist boxes elsewhere."""
    rows = [[rng.randint(-3, 3) for _ in range(row_len(n, i))] for i in range(1, m + 1)]
    for row in rows[::2]:
        row[j - 1] = (0, 1)
    return make_diagram(n, m, rows)


def _caps_loops():
    """Caps boxes over caps boxes, two odd rows apart, with the even row
    between passing straight: closed loops that never reach gap 0."""
    return [
        make_diagram(3, 3, [[(0, 1), (0, 1)], [0, 2, 0], [(0, 1), (0, 1)]]),
        make_diagram(4, 5, [[(2, 1)] * 3, [0] * 4, [(0, 1)] * 3, [2] * 4, [(-2, 3)] * 3]),
    ]


def test_row_pass_labels_equal_the_end_walk():
    rng = random.Random(53)
    corpus = [
        random_mixed(rng, n, m)
        for n in range(1, 9)
        for m in range(1, 12, 2)
        for _ in range(6)
    ]
    corpus += [
        _caps_column(rng, n, m, j)
        for n in range(2, 7)
        for m in range(3, 12, 2)
        for j in range(1, n)
    ]
    loops = _caps_loops()
    corpus += [*loops, random_diagram(200, 201, seed=1)]
    for d in loops:
        assert min(build_topology(d)._starts[1:]) >= 2 * d.n
    for d in corpus:
        t = build_topology(d)
        assert (t._label, t._starts) == walk_labels(d), d


def test_reflection_preserves_component_count():
    rng = random.Random(31)
    for _ in range(100):
        n, m = random_shape(rng, 6, 7)
        d = random_all_twist(rng, n, m)
        assert (
            build_topology(d).component_count
            == build_topology(d.reflected()).component_count
        )


def test_component_cycles_cover_each_segment_once():
    rng = random.Random(37)
    for _ in range(60):
        n, m = random_shape(rng, 5, 7)
        d = random_all_twist(rng, n, m)
        t = build_topology(d)
        cycles = component_cycles(d)
        assert len(cycles) == t.component_count
        for comp, cycle in zip(t.components, cycles):
            segs = [el[1:] for el in cycle[0::2]]
            assert all(el[0] == "segment" for el in cycle[0::2])
            assert all(el[0] != "segment" for el in cycle[1::2])
            assert sorted(segs) == sorted(comp)
            assert segs[0] == min(comp)


def _joined(conn, n, m):
    """The segments a connector touches."""
    if conn[0] in ("top_cap", "bottom_cap"):
        g = 0 if conn[0] == "top_cap" else m
        return {(g, 2 * conn[1] - 1), (g, 2 * conn[1])}
    if conn[0] == "straight":
        _, i, x = conn
        assert i % 2 == 1 and x in (1, 2 * n)  # only odd rows leave strands bare
        return {(i - 1, x), (i, x)}
    _, i, j = conn
    assert 1 <= j <= (n - 1 if i % 2 == 1 else n)
    s = 2 * j if i % 2 == 1 else 2 * j - 1
    return {(g, x) for g in (i - 1, i) for x in (s, s + 1)}


def test_cycle_connectors_join_their_neighbours():
    rng = random.Random(43)
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.choice((1, 3, 5, 7))
        d = random_mixed(rng, n, m)
        for cycle in component_cycles(d):
            segs = [el[1:] for el in cycle[0::2]]
            for k, conn in enumerate(cycle[1::2]):
                pair = {segs[k], segs[(k + 1) % len(segs)]}
                assert pair <= _joined(conn, n, m), (d, segs[k], conn)


def test_equal_diagrams_get_equal_topologies_and_mirrors_their_own():
    d = make_diagram(3, 3, [[3, 5], [3, 3, 3], [4, 3]])
    same = make_diagram(3, 3, [[3, 5], [3, 3, 3], [4, 3]])
    assert hash(d) == hash(same)
    assert build_topology(d).components == build_topology(same).components
    mirror = d.reflected()
    assert mirror != d
    assert build_topology(mirror).diagram == mirror
    assert build_topology(mirror).components != build_topology(d).components


def test_crossing_pieces_frozen():
    d = make_diagram(4, 5, [[3] * 3, [3] * 4, [3] * 3, [3] * 4, [3] * 3])
    t = build_topology(d)
    # entries (1,1,1,2,2) descend at positions 3,2,3,4,5
    assert crossing_pieces(t, (1, 1, 1, 2, 2)) == (
        ("top_cap", 2),
        ("segment", 1, 3),
        ("segment", 2, 3),
        ("segment", 3, 4),
        ("segment", 4, 5),
        ("bottom_cap", 3),
    )
    assert crossing_components(t, (1, 1, 1, 2, 2)) == (0,) * 6


def test_meeting_and_beside_frozen():
    d = make_diagram(3, 1, [[2, 4]])
    t = build_topology(d)
    assert components_meeting_sphere(t, (1,)) == frozenset({1})
    assert crossing_components(t, (1,)) == (1, 1)
    assert components_strictly_beside(t, (1,), "left") == frozenset({0})
    assert components_strictly_beside(t, (1,), "right") == frozenset({2})

    d2 = make_diagram(4, 1, [[3, 2, 3]])
    t2 = build_topology(d2)
    assert components_meeting_sphere(t2, (1,)) == frozenset({0})
    assert components_strictly_beside(t2, (1,), "left") == frozenset()
    assert components_strictly_beside(t2, (1,), "right") == frozenset({1})
    assert components_meeting_sphere(t2, (2,)) == frozenset({1})
    assert components_strictly_beside(t2, (2,), "left") == frozenset({0})
    assert components_strictly_beside(t2, (2,), "right") == frozenset()


def test_sides_partition_component_ids():
    rng = random.Random(41)
    for _ in range(60):
        n, m = random_shape(rng, 5, 7)
        d = random_all_twist(rng, n, m)
        t = build_topology(d)
        for path in enumerate_allowable(d):
            crossed = components_meeting_sphere(t, path)
            left = components_strictly_beside(t, path, "left")
            right = components_strictly_beside(t, path, "right")
            ids = set(range(t.component_count))
            assert crossed | left | right == ids
            assert not (crossed & left or crossed & right or left & right)


# mixed diagrams bring crossing-free loops inside caps boxes, the
# components a sphere most often misses
@pytest.mark.parametrize("make", [random_all_twist, random_mixed], ids=lambda f: f.__name__)
def test_intersections_agree_with_component_walk(make):
    # walk each component and count actual sphere hits; compare with the
    # threshold-based classification
    rng = random.Random(43)
    checked = 0
    for _ in range(60):
        n, m = random_shape(rng, 5, 7)
        d = make(rng, n, m)
        t = build_topology(d)
        for path in enumerate_allowable(d):
            trace = trace_sides(d, path.entries)
            assert sum(trace["hits"]) == m + 1
            assert all(h % 2 == 0 for h in trace["hits"])
            meeting = {cid for cid, h in enumerate(trace["hits"]) if h > 0}
            assert components_meeting_sphere(t, path) == meeting
            assert components_strictly_beside(t, path, "left") == set(
                trace["beside_left"]
            )
            assert components_strictly_beside(t, path, "right") == set(
                trace["beside_right"]
            )
            checked += 1
    assert checked > 100


def test_sphere_reads_equal_the_per_gap_oracle():
    # decompose, crossing_pieces and components_strictly_beside index the
    # labels and spans over whole entry tuples; each equals its one-gap-at-a-time
    # oracle field for field, spans included, on every allowable path of mixed
    # diagrams and caps loops, and on both extremal paths of a 40-pair plat
    rng = random.Random(59)
    corpus = [
        (d, [p.entries for p in enumerate_allowable(d)])
        for d in [random_mixed(rng, n, m) for n in range(3, 9) for m in range(1, 12, 2)]
        + [_caps_column(rng, 5, 7, 2), *_caps_loops()]
    ]
    big = random_diagram(40, 41, seed=1)
    corpus.append((big, [p.entries for p in extremal_paths(big)]))
    checked = with_loops = 0
    for d, paths in corpus:
        t = build_topology(d)
        for entries in paths:
            dec, want = decompose(d, entries), per_gap_decompose(d, entries)
            assert dec == want, (d, entries)
            # ranges compare as sequences; their reprs pin the endpoints too
            assert repr(dec.left) == repr(want.left) and repr(dec.right) == repr(want.right)
            assert crossing_pieces(t, entries) == per_gap_crossing_pieces(entries)
            _, left, right = per_gap_sphere_partition(t, entries)
            assert components_strictly_beside(t, entries, "left") == left
            assert components_strictly_beside(t, entries, "right") == right
            checked += 1
            with_loops += bool(left and right)
    assert checked > 16_000 and with_loops > 100


def test_crossed_strands_are_entry_sums():
    # a_g + a_(g+1) + 1 over the entries padded with a_1 and a_m equals the
    # per-gap max of corridor positions on every allowable path of n 3-8,
    # m 1-13, and on both extremal paths of a 40-pair plat
    checked = 0
    for n in range(3, 9):
        for m in range(1, 14, 2):
            for p in iter_allowable(random_diagram(n, m, seed=n * m)):
                assert topology._crossed_strands(p.entries) == per_gap_crossed_strands(p.entries)
                checked += 1
    assert checked == sum(count_allowable(n, m) for n in range(3, 9) for m in range(1, 14, 2))
    for p in extremal_paths(random_diagram(40, 41, seed=1)):
        assert topology._crossed_strands(p.entries) == per_gap_crossed_strands(p.entries)


def test_sphere_path_must_be_allowable():
    d = random_diagram(4, 3, seed=7)
    t = build_topology(d)
    with pytest.raises(PathError):
        crossing_pieces(t, (1, 1))
    with pytest.raises(PathError):
        components_meeting_sphere(t, (0, 1, 1))
    with pytest.raises(PathError):
        components_strictly_beside(t, (1, 1, 1), "up")


def test_build_topology_is_cached(monkeypatch):
    passes = []
    row_labels = topology._row_labels

    def counted(d):
        passes.append(d)
        return row_labels(d)

    monkeypatch.setattr(topology, "_row_labels", counted)
    d = make_diagram(3, 3, [[3, 3], [3, 3, 3], [3, 3]])
    first = build_topology(d)
    again = build_topology(d)
    assert passes == [d]
    assert again.diagram is d and again.components == first.components


def test_certificates_never_build_the_end_matching(monkeypatch, tmp_path):
    # the end matching serves component_cycles and the PD code only
    def refuse(d):
        raise AssertionError("_end_links called")

    monkeypatch.setattr(topology, "_end_links", refuse)

    def fresh():
        return random_diagram(4, 5, seed=2, require_parity=True)

    k = build_topology(fresh()).component_count
    assert certify(fresh()).certified
    assert certify_haken(fresh(), (Slope(3, 1),) * k).certified
    path = tmp_path / "d.json"
    path.write_text(diagram_to_json(fresh()))
    assert main(["info", str(path)]) == 0


def test_a_diagram_is_freed_with_its_topology():
    # with the collector off only reference counting frees the diagram, so
    # a cache or a reference cycle through its topology would keep it alive
    gc.disable()
    try:
        d = diagram_from_json(diagram_to_json(random_diagram(3, 5, seed=3)))
        ref = weakref.ref(d)
        slopes = (Slope(3, 1),) * build_topology(d).component_count
        certify(d)
        certify_haken(d, slopes)
        del d
        assert ref() is None
    finally:
        gc.enable()
