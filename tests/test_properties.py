"""Properties over small shapes drawn by Hypothesis (n <= 6, m <= 9).

They add to the seeded corpora of the other modules and replace none of
them.  Runs are derandomized and keep no example database, so every run
checks the same examples.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from platsurf import (  # noqa: E402
    PlatDiagram,
    Slope,
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
from platsurf.cli import main  # noqa: E402
from platsurf.diagram import RELAXED, STRICT, _indented_json  # noqa: E402
from platsurf.topology import _end_links  # noqa: E402
from helpers import (  # noqa: E402
    bracket_from_pd,
    bracket_from_plat,
    crossing_free_components,
    delta_power,
    pd_text_or_refusal,
    row_len,
    sweep_pd_code,
    union_find_components,
)

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


@SMALL
@given(twist_diagrams())
def test_pd_code_equals_the_sweep(d):
    assert pd_text_or_refusal(to_pd_code, d) == pd_text_or_refusal(sweep_pd_code, d)


@SMALL
@given(twist_diagrams())
def test_pd_crossings_are_the_twist_crossings(d):
    if d.twist_crossing_count > 0:
        assert to_pd_code(d).crossing_count == d.twist_crossing_count


@st.composite
def bracket_diagrams(draw, budget=14):
    """All-twist diagrams with n <= 4 and at most ``budget`` crossings; a box
    past the budget is drawn as a zero box."""
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from((1, 3, 5, 7)))
    rows = []
    for i in range(1, m + 1):
        row = draw(st.lists(st.integers(-3, 3), min_size=row_len(n, i), max_size=row_len(n, i)))
        for j, a in enumerate(row):
            row[j] = a if abs(a) <= budget else 0
            budget -= abs(row[j])
        rows.append(row)
    return make_diagram(n, m, rows)


@settings(SMALL, max_examples=60)
@given(bracket_diagrams())
@example(make_diagram(3, 1, [[3, 0]]))  # strands 5 and 6 meet no crossing
@example(make_diagram(2, 3, [[0], [0, 0], [0]]))  # no crossing at all
def test_pd_bracket_equals_the_plat_bracket(d):
    # both sides are the bracket of one diagram, so they agree exactly,
    # writhe included; the PD code omits the crossing-free components
    free = crossing_free_components(d)
    plat = bracket_from_plat(d)
    if d.twist_crossing_count == 0:
        assert plat == delta_power(free)
    else:
        assert bracket_from_pd(to_pd_code(d), free) == plat


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


# slopes of every kind: the meridian 1/0, integral and nonintegral ones
SLOPES = (Slope(1, 0), Slope(3, 1), Slope(-1, 1), Slope(0, 1), Slope(5, 2))


@st.composite
def diagrams_with_slopes(draw):
    d = draw(st.one_of(twist_diagrams(), twist_diagrams(strict=True), mixed_diagrams()))
    k = build_topology(d).component_count
    return d, draw(st.lists(st.sampled_from(SLOPES), min_size=k, max_size=k))


def _meridians(*shape):
    d = make_diagram(*shape)
    return d, [Slope(1, 0)] * build_topology(d).component_count


@SMALL
@given(diagrams_with_slopes())
@example(_meridians(2, 3, [[3], [1, 1], [3]]))  # 2-bridge
@example(_meridians(3, 1, [[3, -3]]))  # m = 1
@example(_meridians(3, 3, [[3, 3], [3, 0, 3], [3, 3]]))  # an interior zero
@example(_meridians(3, 3, [[2, 3], [3, 3, 3], [-1, [1, 2]]]))  # small ends
@example(_meridians(3, 3, [[4, 3], [3, 3, 3], [4, 3]]))  # an uncovered component
def test_documents_are_written_as_json_dumps_writes_them(case):
    d, slopes = case
    docs = [check_hypotheses(d, mode).to_dict() for mode in (STRICT, RELAXED)]
    docs += [certify(d, mode=mode).to_dict() for mode in MODES]
    docs.append(certify_haken(d, slopes).to_dict())
    for doc in docs:
        assert _indented_json(doc) == json.dumps(doc, indent=2)


# values a hostile diagram document may hold where a box, n or m belongs
HOSTILE = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((10**40, -(10**40), 0, -1, 2, "3", None, {}, [], [1], [1, 2, 3], [True, 1],
                     [1.5, 2], [0, 0], [2, 4], [10**40, 1], [1, 0], [0, 1], [[1], 2])),
)


@st.composite
def mutated_documents(draw):
    """A diagram document in JSON form, spoiled up to three times."""
    source = st.one_of(twist_diagrams(), twist_diagrams(strict=True), mixed_diagrams())
    doc = json.loads(diagram_to_json(draw(source)))
    for _ in range(draw(st.integers(0, 3))):
        rows = doc.get("rows") if isinstance(doc, dict) else None
        kind = draw(st.sampled_from(("box", "box", "n", "m", "key", "rows", "row", "whole")))
        if kind == "box" and isinstance(rows, list) and rows and isinstance(rows[0], list):
            row = draw(st.sampled_from(rows))
            if isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(HOSTILE)
        elif kind in ("n", "m") and isinstance(doc, dict):
            old = doc.get(kind)
            shifted = (old - 1, old + 1) if type(old) is int else ()
            doc[kind] = draw(st.one_of(HOSTILE, st.sampled_from(shifted or (1,))))
        elif kind == "key" and isinstance(doc, dict):
            if draw(st.booleans()):
                doc.pop(draw(st.sampled_from(("n", "m", "rows"))), None)
            else:
                doc["extra"] = 1
        elif kind == "rows" and isinstance(doc, dict):
            action = draw(st.sampled_from(("drop", "add", "replace")))
            if action == "drop" and isinstance(rows, list) and rows:
                rows.pop(draw(st.integers(0, len(rows) - 1)))
            elif action == "add" and isinstance(rows, list):
                rows.append(draw(st.sampled_from(([3, 3], [], [3] * 9, "row"))))
            else:
                doc["rows"] = draw(HOSTILE)
        elif kind == "row" and isinstance(rows, list) and rows and isinstance(rows[-1], list):
            if rows[-1] and draw(st.booleans()):
                rows[-1].pop()
            else:
                rows[-1].append(3)
        elif kind == "whole":
            doc = draw(st.sampled_from(([doc], 3, "plat", None, {"rows": doc})))
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(mutated_documents())
def test_every_command_keeps_the_exit_code_contract(tmp_path_factory, doc):
    # 0 verdict, 1 refusal, 2 bad input on one stderr line; never 3, an internal fault
    work = tmp_path_factory.mktemp("fuzz")
    src, out = str(work / "d.json"), str(work / "out")
    (work / "d.json").write_text(json.dumps(doc))
    runs = [
        ["validate", src], ["validate", "--relaxed", src], ["paths", src],
        ["paths", "--count", src], ["info", src], ["surgery", src, "--slopes", "1/1"],
        ["certify", src, "--path", "1,1,1"],
        *(["certify", src, "--mode", mode] for mode in ("theorem1", "relaxed", "composite")),
        *(["export", src, "--format", f] for f in ("json", "braid", "pd")),
        *(["render", src, "--format", f, "--out", out] for f in ("svg", "ascii")),
    ]
    if isinstance(doc, dict) and all(type(doc.get(k)) is int for k in "nm"):
        runs.append(["random", "--n", str(doc["n"]), "--m", str(doc["m"]), "--out", out])
    for argv in runs:
        code, err = _run(argv)
        assert code in (0, 1, 2), (argv, doc, err)
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, doc, err)
