"""Acceptance gate: the eleven shipping criteria, one test each.

Each test prints a ``[criterion NN] PASS`` or ``FAIL`` line on the
terminal (through pytest's reporter, so the lines survive output
capture) before asserting, and the random corpora are seeded, so the
gate is reproducible run to run.
"""

import functools
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from platsurf import (
    MODE_RELAXED,
    MODE_THEOREM1,
    PlatDiagram,
    Slope,
    Twist,
    build_topology,
    certify,
    certify_haken,
    check_allowable,
    count_allowable,
    crossing_count,
    decompose,
    direct_coverage_check,
    enumerate_allowable,
    extremal_paths,
    make_diagram,
    parity_criterion,
    random_diagram,
    surface_invariants,
    to_braid_word,
    to_pd_code,
)
from platsurf.diagram import box_strands
from platsurf.export import pd_validate, pd_trace_components
from platsurf.surfaces import assembled_surface_cells
from platsurf.topology import braid_permutation, component_cycles
from helpers import plat_cycle_count, random_all_twist, random_shape, row_len, trace_sides

BIG_COUNT_100_99 = 28852068742009572853673091901656


@pytest.fixture
def announce(request):
    def _announce(num: int, ok: bool) -> None:
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}"
        reporter = request.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.write_line(line)
        print(line)

    return _announce


def _shape(n: int, m: int) -> PlatDiagram:
    return make_diagram(n, m, [[3] * row_len(n, i) for i in range(1, m + 1)])


def _mutate(d: PlatDiagram, i: int, j: int, box) -> PlatDiagram:
    rows = [list(r) for r in d.rows]
    rows[i - 1][j - 1] = box
    return PlatDiagram(d.n, d.m, tuple(tuple(r) for r in rows))


@functools.cache
def _twist_corpus():
    # criterion 5 and 6 share this: unrestricted all-twist diagrams
    rng = random.Random(101)
    return tuple(random_all_twist(rng, *random_shape(rng, 6, 9)) for _ in range(1000))


@functools.cache
def _strict_corpus():
    rng = random.Random(103)
    return tuple(
        random_diagram(rng.randint(3, 5), rng.choice((1, 3, 5, 7)), seed=rng.random())
        for _ in range(1000)
    )


def test_criterion_01_path_definitions_agree(announce):
    start = time.perf_counter()
    disagreements = []
    for n in range(1, 6):
        for m in (1, 3, 5, 7):
            d = _shape(n, m)
            space = [range(0, row_len(n, i) + 1) for i in range(1, m + 1)]
            for entries in itertools.product(*space):
                by_rule = bool(check_allowable(d, entries))
                bounds = all(
                    1 <= a <= row_len(n, i) - 1 for i, a in enumerate(entries, 1)
                )
                by_count = bounds and crossing_count(d, entries) == m + 1
                if by_rule != by_count:
                    disagreements.append((n, m, entries))
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 10.0
    announce(1, ok)
    assert not disagreements, disagreements[:5]
    assert elapsed < 10.0, f"exhaustive sweep took {elapsed:.1f}s"


def test_criterion_02_documented_example_path(announce):
    d = _shape(4, 5)
    ok = bool(check_allowable(d, (1, 1, 1, 2, 2))) and crossing_count(
        d, (1, 1, 1, 2, 2)
    ) == 6
    announce(2, ok)
    assert ok


def test_criterion_03_extremal_paths(announce):
    problems = []
    for n in range(3, 7):
        for m in range(1, 10, 2):
            d = _shape(n, m)
            paths = [p.entries for p in enumerate_allowable(d)]
            low, high = extremal_paths(d)
            leftmost = tuple(1 for _ in range(m))
            rightmost = tuple(n - 2 if i % 2 == 1 else n - 1 for i in range(1, m + 1))
            if paths[0] != leftmost or low.entries != leftmost:
                problems.append(("min", n, m))
            if paths[-1] != rightmost or high.entries != rightmost:
                problems.append(("max", n, m))
            if paths != sorted(paths):
                problems.append(("order", n, m))
    announce(3, not problems)
    assert not problems, problems


def test_criterion_04_surface_invariants(announce):
    start = time.perf_counter()
    problems = []
    for d in _strict_corpus():
        m = d.m
        for path in enumerate_allowable(d):
            dec = decompose(d, path)
            planar, left, right = surface_invariants(dec)
            open_cells = assembled_surface_cells(m + 1, 0)
            closed_cells = assembled_surface_cells(m + 1, (m + 1) // 2)
            checks = (
                planar.euler == 1 - m == open_cells["euler"],
                planar.boundary == m + 1 == open_cells["boundary"],
                left.genus == right.genus == (m + 1) // 2 == closed_cells["genus"],
                left.euler == right.euler == closed_cells["euler"],
                (left.genus >= 2) == (m >= 3),
                (left.extra_tori, right.extra_tori) == (dec.left.loop_count, dec.right.loop_count),
            )
            if not all(checks):
                problems.append((d, path.entries, checks))
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60.0
    announce(4, ok)
    assert not problems, problems[:3]
    assert elapsed < 60.0, f"corpus sweep took {elapsed:.1f}s"


def test_criterion_05_component_count_cross_check(announce):
    problems = []
    for d in _twist_corpus():
        k = build_topology(d).component_count
        if k != plat_cycle_count(braid_permutation(d)):
            problems.append(d)
    announce(5, not problems)
    assert not problems, problems[:3]


def test_criterion_06_sphere_parity_and_arc_counts(announce):
    problems = []
    checked = 0
    for d in _twist_corpus():
        cycles = component_cycles(d)
        half = (d.m + 1) // 2
        for path in enumerate_allowable(d):
            trace = trace_sides(d, path.entries, cycles)
            checked += 1
            if any(h % 2 != 0 for h in trace["hits"]):
                problems.append(("parity", d, path.entries))
            if trace["left_arcs"] != half or trace["right_arcs"] != half:
                problems.append(("arcs", d, path.entries))
    ok = not problems and checked > 10000
    announce(6, ok)
    assert not problems, problems[:3]
    assert checked > 10000, checked


def test_criterion_07_parity_reading_equals_direct_coverage(announce):
    rng = random.Random(107)
    dump = Path(__file__).with_name("remark_equivalence_counterexample.json")
    counterexample = None
    for _ in range(1000):
        d = random_diagram(rng.randint(3, 6), rng.choice((1, 3, 5, 7)), seed=rng.random())
        if parity_criterion(d).value != direct_coverage_check(d).ok:
            counterexample = d
            break
    if counterexample is not None:
        dump.write_text(
            json.dumps(
                {
                    "n": counterexample.n,
                    "m": counterexample.m,
                    "rows": [[b.a for b in row] for row in counterexample.rows],
                },
                indent=2,
            )
        )
    announce(7, counterexample is None)
    assert counterexample is None, f"counterexample written to {dump}"


def test_criterion_08_hypothesis_gate_sharpness(announce):
    rng = random.Random(109)
    problems = []
    for _ in range(50):
        d = random_diagram(rng.randint(3, 5), rng.choice((3, 5, 7)), seed=rng.random())
        assert certify(d).certified
        for i, j, _ in d.boxes():
            length = d.row_length(i)
            is_end = j in (1, length)
            if i % 2 == 1 and is_end:
                mut = _mutate(d, i, j, Twist(2))
                strict = certify(mut, mode=MODE_THEOREM1)
                relaxed = certify(mut, mode=MODE_RELAXED)
                if strict.certified or not relaxed.certified:
                    problems.append(("end", d, i, j))
                elif not any("condition (iii)" in r for r in strict.refusals):
                    problems.append(("end-reason", d, i, j))
            elif not is_end:
                mut = _mutate(d, i, j, Twist(0))
                if (
                    certify(mut, mode=MODE_THEOREM1).certified
                    or certify(mut, mode=MODE_RELAXED).certified
                ):
                    problems.append(("interior", d, i, j))
    two_bridge = certify(make_diagram(2, 3, [[3], [3, 3], [3]]))
    if two_bridge.certified or not any("2-bridge" in r for r in two_bridge.refusals):
        problems.append(("two-bridge",))
    announce(8, not problems)
    assert not problems, problems[:3]


def test_criterion_09_surgery_gate(announce):
    knot = _shape(3, 3)
    assert build_topology(knot).component_count == 1
    good = certify_haken(knot, (Slope(3, 1),))
    bad = certify_haken(knot, (Slope(1, 0),))
    ok = (
        good.certified
        and not bad.certified
        and any("meridian" in r and "component(s) 0" in r for r in bad.refusals)
    )

    uncovered = make_diagram(3, 3, [[4, 4], [3, 3, 3], [4, 4]])
    k = build_topology(uncovered).component_count
    assert k == 3
    tuples = [
        (Slope(3, 1),) * 3,
        (Slope(1, 0), Slope(5, 2), Slope(0, 1)),
        (Slope(0, 1),) * 3,
    ]
    for slopes in tuples:
        cert = certify_haken(uncovered, slopes)
        if cert.certified or not any("component(s) 0, 2" in r for r in cert.refusals):
            ok = False
    announce(9, ok)
    assert ok


def test_criterion_10_export_well_formedness(announce):
    rng = random.Random(113)
    problems = []
    for _ in range(500):
        d = random_diagram(rng.randint(3, 6), rng.choice((1, 3, 5, 7)), seed=rng.random())
        code = to_pd_code(d)
        try:
            pd_validate(code)
        except ValueError:
            problems.append(("labels", d))
            continue
        if code.crossing_count != d.twist_crossing_count:
            problems.append(("count", d))
        if pd_trace_components(code) != build_topology(d).component_count:
            problems.append(("trace", d))
        perm = list(range(1, 2 * d.n + 1))
        for i, j, box in d.boxes():
            if box.a % 2 != 0:
                s, t = box_strands(i, j)
                perm = [t if v == s else s if v == t else v for v in perm]
        if to_braid_word(d).permutation() != tuple(perm):
            problems.append(("braid", d))
    announce(10, not problems)
    assert not problems, problems[:3]


def test_criterion_11_performance(announce):
    start = time.perf_counter()
    big = count_allowable(100, 99)
    count_time = time.perf_counter() - start

    d = random_diagram(15, 15, seed=5)
    start = time.perf_counter()
    cert = certify(d)
    certify_time = time.perf_counter() - start

    ok = (
        big == BIG_COUNT_100_99
        and count_time < 1.0
        and cert.certified
        and certify_time < 1.0
    )
    announce(11, ok)
    assert big == BIG_COUNT_100_99
    assert count_time < 1.0, f"count took {count_time:.3f}s"
    assert cert.certified
    assert certify_time < 1.0, f"certification took {certify_time:.3f}s"
