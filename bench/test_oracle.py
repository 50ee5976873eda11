"""Tests of the benchmark's oracle, on cases worked by hand.

Run from the root of a checkout:  python3 -m pytest -q bench/test_oracle.py
"""

from __future__ import annotations

import itertools
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import workloads  # noqa: E402

KNOT = [[3, 3], [3, 3, 3], [3, 3]]  # the README's all-threes (3, 3) knot


def test_readme_knot():
    link = oracle.Link(3, 3, KNOT)
    assert link.count == 1
    assert oracle.path_count(3, 3) == 2
    assert oracle.enumerate_paths(3, 3) == [(1, 1, 1), (1, 2, 1)]
    assert oracle.hypotheses(3, 3, KNOT)["passed"]
    assert oracle.canonical_bytes(3, 3, KNOT) == b'{"m":3,"n":3,"rows":[[3,3],[3,3,3],[3,3]]}'
    assert oracle.braid_text(KNOT) == "s2^3 s4^3 s1^3 s3^3 s5^3 s2^3 s4^3"
    # worked through the three rows of swaps by hand
    assert oracle.permutation(3, KNOT) == [3, 5, 1, 6, 2, 4]
    assert oracle.parity(3, KNOT) is True
    sides = oracle.Sides(link)
    assert sides.crossing((1, 1, 1)) == [0, 0, 0, 0]
    assert sides.beside((1, 1, 1)) == ([], [])
    assert oracle.uncovered(3, 3, sides) == []


def test_two_strand_pairs():
    # one box between the two cap pairs: an even twist leaves two circles
    # (the Hopf link for a = 2); an odd twist, or a caps box that joins the
    # inner ends of both pairs above and below, makes one circle
    assert oracle.Link(2, 1, [[2]]).count == 2
    assert oracle.Link(2, 1, [[0]]).count == 2
    assert oracle.Link(2, 1, [[3]]).count == 1
    assert oracle.Link(2, 1, [[-1]]).count == 1
    assert oracle.Link(2, 1, [[[2, 3]]]).count == 1
    assert oracle.Link(1, 1, [[]]).count == 1  # a single capped pair: the unknot


def test_component_labels_are_canonical():
    link = oracle.Link(2, 1, [[2]])
    # strands 1-2 form the first circle, strands 3-4 the second
    assert [link.component(0, x) for x in (1, 2, 3, 4)] == [0, 0, 1, 1]
    assert [link.component(1, x) for x in (1, 2, 3, 4)] == [0, 0, 1, 1]
    assert link.segments() == 8


def test_loop_lies_beside_the_sphere():
    # caps boxes at (1, 2) and (3, 2) with identity twists between them
    # close a loop on strands 4 and 5 in gaps 1 and 2
    rows = [[3, [2, 3], 3], [3, 2, 2, 3], [3, [2, 3], 3]]
    link = oracle.Link(4, 3, rows)
    loop = link.component(1, 4)
    assert {link.component(g, x) for g in (1, 2) for x in (4, 5)} == {loop}
    sides = oracle.Sides(link)
    left, right = sides.beside((1, 1, 1))
    assert loop in right and loop not in left
    left, right = sides.beside((3, 4, 3))
    assert loop in left
    crossed = set(sides.crossing((3, 4, 3)))
    assert crossed | set(left) | set(right) == set(range(link.count))


def test_hypotheses_witnesses():
    rows = [[3, 0, 2], [0, 1, 0, 4], [-1, 5, 3]]
    hyp = oracle.hypotheses(4, 3, rows)
    assert hyp["interior_zero"] == [[1, 2, 0], [2, 3, 0]]  # even-row ends are free
    assert hyp["small_ends"] == [[1, 3, 2], [3, 1, -1]]
    assert not hyp["passed"]
    relaxed = oracle.hypotheses(4, 3, rows, relaxed=True)
    assert relaxed["small_ends"] == [[3, 1, -1]]
    assert oracle.hypotheses(2, 1, [[5]])["two_bridge"]
    assert not oracle.hypotheses(2, 1, [[5]])["passed"]
    # rational boxes count by the denominator of their canonical slope
    assert oracle.denominator([2, -3]) == 3 and oracle.denominator(-4) == 4
    assert oracle.denominator(0) == 0 and oracle.slope(0) == (1, 0)


def test_pairing_table():
    assert oracle.pairing(3) == "swap" and oracle.pairing(-1) == "swap"
    assert oracle.pairing(2) == "identity" and oracle.pairing(0) == "identity"
    assert oracle.pairing([3, 4]) == "identity"
    assert oracle.pairing([5, 3]) == "swap"
    assert oracle.pairing([2, 3]) == "caps" and oracle.pairing([-4, 5]) == "caps"


def test_step_rule_and_count_by_brute_force():
    for n, m in itertools.product(range(3, 7), range(1, 10, 2)):
        ranges = [range(1, oracle.row_len(n, i)) for i in range(1, m + 1)]
        brute = [e for e in itertools.product(*ranges) if oracle.step_ok(n, e)]
        assert oracle.enumerate_paths(n, m) == brute
        assert oracle.path_count(n, m) == len(brute)
    assert oracle.path_count(2, 5) == 0 and oracle.enumerate_paths(2, 5) == []
    assert not oracle.step_ok(3, (1, 3, 1))  # row 2 may hold 1 or 2 after 1
    assert not oracle.step_ok(3, (1, 2, 2))  # row 3 has one entry, 1
    assert oracle.rightmost(5, 5) == [3, 4, 3, 4, 3]


def test_parity_reading():
    assert oracle.parity(3, [[3, 4], [1, 1, 1], [4, 5]]) is True
    assert oracle.parity(3, [[4, 4], [1, 1, 1], [4, 5]]) is False
    assert oracle.parity(3, [[[5, 3], 4], [1, 1, 1], [4, 5]]) is None


def test_parity_reading_equals_coverage_on_strict_twist_diagrams():
    rng = random.Random(7)
    for _ in range(200):
        n, m = rng.randint(3, 6), rng.choice((1, 3, 5, 7))
        rows = workloads.twist_rows(rng, n, m)
        sides = oracle.Sides(oracle.Link(n, m, rows))
        assert oracle.parity(m, rows) == (not oracle.uncovered(n, m, sides))


def test_permutation_closes_to_the_component_count():
    rng = random.Random(3)
    for _ in range(100):
        n, m = rng.randint(2, 6), rng.choice((1, 3, 5))
        rows = workloads.twist_rows(rng, n, m)
        sigma = oracle.permutation(n, rows)
        # cap top and bottom in pairs and count the circles
        seen, circles = set(), 0
        for start in range(1, 2 * n + 1):
            if start in seen:
                continue
            circles += 1
            x = start
            while x not in seen:
                partner = x + 1 if x % 2 else x - 1
                seen.update((x, partner))
                bottom = sigma[partner - 1]
                bottom = bottom + 1 if bottom % 2 else bottom - 1
                x = sigma.index(bottom) + 1
        assert circles == oracle.Link(n, m, rows).count


def test_pd_properties():
    trefoil = "PD[X(1, 5, 2, 4), X(3, 1, 4, 6), X(5, 3, 6, 2)]"
    assert oracle.pd_properties(trefoil) == (3, True, 1)
    hopf = "PD[X(1, 3, 2, 4), X(3, 1, 4, 2)]"
    assert oracle.pd_properties(hopf) == (2, True, 2)
    assert oracle.pd_properties("PD[X(1, 2, 3, 4)]")[1] is False


def test_program_agrees_with_the_oracle():
    """Cross-check against platsurf itself, when it can be imported."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        import platsurf
    except ImportError:
        return
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(2, 6), rng.choice((1, 3, 5, 7))
        kind = rng.choice(("valid", "rational", "loops" if m >= 3 else "valid"))
        case = workloads.Case(rng, n, m, kind)
        d = platsurf.diagram_from_json(case.text)
        top = platsurf.build_topology(d)
        assert top.component_count == case.link.count
        assert platsurf.diagram_digest(d) == case.digest
        assert platsurf.count_allowable(n, m) == oracle.path_count(n, m)
        if n >= 3:
            for path in platsurf.enumerate_allowable(d)[:20]:
                dec = platsurf.decompose(d, path)
                left, right = case.sides.beside(path.entries)
                assert list(dec.crossing) == case.sides.crossing(path.entries)
                assert list(dec.left.loop_components) == left
                assert list(dec.right.loop_components) == right
