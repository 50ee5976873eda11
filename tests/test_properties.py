"""Properties over small shapes drawn by Hypothesis (n <= 6, m <= 9).

They add to the seeded corpora of the other modules and replace none of
them.  Runs are derandomized and keep no example database, so every run
checks the same examples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from platsurf import (  # noqa: E402
    PlatDiagram,
    Slope,
    UnsupportedBoxError,
    build_topology,
    certify,
    certify_haken,
    check_hypotheses,
    count_allowable,
    diagram_from_json,
    diagram_to_json,
    enumerate_allowable,
    make_diagram,
    pd_trace_components,
    to_pd_code,
)
from platsurf.certificates import (  # noqa: E402
    FOOTNOTE_EPISTEMIC,
    FOOTNOTE_INDEXING,
    FOOTNOTE_RATIONAL,
    MODES,
)
from platsurf.topology import _end_links  # noqa: E402
from helpers import row_len, sweep_pd_code, union_find_components  # noqa: E402

SMALL = settings(max_examples=40, derandomize=True, database=None, deadline=None)


@st.composite
def twist_diagrams(draw, strict=False):
    """All-twist diagrams; strict ones satisfy the strict hypotheses."""
    n = draw(st.integers(3 if strict else 1, 6))
    m = draw(st.sampled_from((1, 3, 5, 7, 9)))
    nonzero = st.integers(1, 4).flatmap(lambda a: st.sampled_from((a, -a)))
    rows = []
    for i in range(1, m + 1):
        length = row_len(n, i)
        if not strict:
            rows.append(draw(st.lists(st.integers(-4, 4), min_size=length, max_size=length)))
            continue
        row = draw(st.lists(nonzero, min_size=length, max_size=length))
        for j in {0, length - 1}:
            if i % 2 == 1:  # odd-row ends twist at least three times
                row[j] = draw(st.sampled_from((3, 4, -3, -4)))
            else:
                row[j] = draw(st.integers(-4, 4))
        rows.append(row)
    return make_diagram(n, m, rows)


# reduced slopes of every pairing: p even caps the strands off, q even
# passes them straight through, p and q both odd swaps them
RATIONALS = ((0, 1), (2, 3), (-4, 5), (1, 0), (1, 2), (-3, 4), (1, 3), (-5, 3), (7, 9))


@st.composite
def mixed_diagrams(draw):
    """Diagrams mixing twist boxes with rational boxes of all three pairings."""
    n = draw(st.integers(1, 6))
    m = draw(st.sampled_from((1, 3, 5, 7, 9)))
    box = st.one_of(st.integers(-4, 4), st.sampled_from(RATIONALS))
    rows = [draw(st.lists(box, min_size=row_len(n, i), max_size=row_len(n, i)))
            for i in range(1, m + 1)]
    return make_diagram(n, m, rows)


def _pd_text_or_refusal(export, d):
    try:
        return export(d).text()
    except UnsupportedBoxError as exc:
        return type(exc), str(exc)


@SMALL
@given(twist_diagrams())
def test_pd_code_equals_the_sweep(d):
    assert _pd_text_or_refusal(to_pd_code, d) == _pd_text_or_refusal(sweep_pd_code, d)


@SMALL
@given(twist_diagrams())
def test_pd_crossings_are_the_twist_crossings(d):
    if d.twist_crossing_count > 0:
        assert to_pd_code(d).crossing_count == d.twist_crossing_count


@SMALL
@given(twist_diagrams(strict=True))
def test_pd_components_are_the_topology_components(d):
    assert check_hypotheses(d).passed
    assert pd_trace_components(to_pd_code(d)) == build_topology(d).component_count


@SMALL
@given(twist_diagrams())
def test_enumerated_paths_are_counted(d):
    assert len(enumerate_allowable(d)) == count_allowable(d.n, d.m)


@SMALL
@given(twist_diagrams())
def test_json_round_trip(d):
    back = diagram_from_json(diagram_to_json(d))
    assert back == d and back.digest == d.digest
    assert back.slope_table == d.slope_table == PlatDiagram(d.n, d.m, d.rows).slope_table


@SMALL
@given(twist_diagrams())
def test_reflection_keeps_components_and_paths(d):
    r = d.reflected()
    assert build_topology(r).component_count == build_topology(d).component_count
    assert len(enumerate_allowable(r)) == count_allowable(r.n, r.m) == count_allowable(d.n, d.m)


@SMALL
@given(st.one_of(twist_diagrams(), mixed_diagrams()))
def test_end_matching_is_a_fixed_point_free_involution(d):
    link = _end_links(d)
    assert len(link) == 2 * 2 * d.n * (d.m + 1)
    assert all(0 <= f < len(link) for f in link)
    assert all(link[link[e]] == e != link[e] for e in range(len(link)))


@SMALL
@given(st.one_of(twist_diagrams(), mixed_diagrams()))
def test_walk_equals_the_union_find_oracle(d):
    assert [sorted(c) for c in build_topology(d).components] == union_find_components(d)


@SMALL
@given(st.one_of(twist_diagrams(), twist_diagrams(strict=True), mixed_diagrams()))
def test_the_modes_agree_through_one_builder(d):
    theorem1, *others = (certify(d, mode=mode) for mode in MODES)
    haken = certify_haken(d, [Slope(1, 1)] * build_topology(d).component_count)
    for cert in (theorem1, *others, haken):
        assert cert.certified == (not cert.refusals) == bool(cert.conclusions), cert.mode
        assert cert.footnotes[:2] == (FOOTNOTE_INDEXING, FOOTNOTE_EPISTEMIC)
        assert (FOOTNOTE_RATIONAL in cert.footnotes) == (not d.is_all_twist)
    assert haken.hypotheses == theorem1.hypotheses
    if d.m >= 3:
        assert haken.refusals[: len(theorem1.refusals)] == theorem1.refusals
