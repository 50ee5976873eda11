"""Shared test oracles, deliberately independent of the library internals.

Each function here recomputes something the library also computes, by a
different route: brute-force enumeration instead of recursive descent,
generic segment intersection instead of the closed-form crossing count,
a permutation pairing graph, union-find on segments and a walk over
segment ends instead of the row pass over strand classes, a path count
carried through every row instead of the half-way count, a
run-counting walk along each component instead of side thresholds, and
a top-to-bottom sweep of arc labels instead of the component walk for
PD codes, a loop over every box reading its denominator instead of the
row scan of the slope table for the hypotheses, and the Kauffman
bracket of a PD code checked against a Temperley-Lieb sweep of the plat
itself.  The last section keeps the per-crossing PD walk and the
box-by-box renders as byte oracles for the library's row-at-a-time
routines, and ``json.dumps`` over the whole box table as the byte
oracle for the digest encoding joined from each box's kept text.  The
final section scans a path one row at a time and cuts its sphere one gap
at a time, through ``component_of``, as oracles for the whole-tuple path
verdict and decomposition.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from platsurf import ParameterError, PathError, PDCode, PlatDiagram, Twist, UnsupportedBoxError
from platsurf import make_diagram
from platsurf.diagram import box_denominator, box_strands, to_json_dict
from platsurf.export import MAX_PD_CROSSINGS, _require_all_twist, pd_validate
from platsurf.paths import AllowablePath, _odd_row_counts, allowable_entries, corridor_positions
from platsurf.surfaces import SideSummary, SphereDecomposition
from platsurf.topology import _cycles, _end_links, build_topology, component_cycles


def row_len(n: int, i: int) -> int:
    return n - 1 if i % 2 == 1 else n


def pos_of(i: int, a: int) -> int:
    return 2 * a + 1 if i % 2 == 1 else 2 * a


def step_rule_ok(n: int, entries: tuple[int, ...]) -> bool:
    m = len(entries)
    for i, a in enumerate(entries, 1):
        if not 1 <= a <= row_len(n, i) - 1:
            return False
    for i in range(1, m):
        prev, cur = entries[i - 1], entries[i]
        want = (prev, prev + 1) if i % 2 == 1 else (prev - 1, prev)
        if cur not in want:
            return False
    return True


def brute_force_paths(n: int, m: int) -> list[tuple[int, ...]]:
    """Filter the full product space by the step rule."""
    ranges = [range(1, row_len(n, i)) for i in range(1, m + 1)]
    return [e for e in itertools.product(*ranges) if step_rule_ok(n, e)]


def per_row_count(n: int, m: int) -> int:
    """Allowable paths on the (n, m) shape, carrying every odd row's counts
    down to the last row and summing them."""
    for odd in _odd_row_counts(n, m):
        pass
    return sum(odd)


def per_box_hypotheses(d: PlatDiagram, mode: str) -> dict:
    """``check_hypotheses(d, mode).to_dict()``, judged box by box."""
    end_bound = {"strict": 3, "relaxed": 2}[mode]
    interior_zero, small_ends = [], []
    for i, row in enumerate(d.rows, 1):
        ends = {1, len(row)}
        for j, box in enumerate(row, 1):
            q = box_denominator(box)
            value = box.a if isinstance(box, Twist) else [box.p, box.q]
            if j not in ends and q == 0:
                interior_zero.append([i, j, value])
            if i % 2 == 1 and j in ends and q < end_bound:
                small_ends.append([i, j, value])
    conditions = {
        "n_at_least_3": d.n >= 3,
        "interior_nonzero": not interior_zero,
        "odd_row_ends_ok": not small_ends,
    }
    return {
        "mode": mode,
        "n": d.n,
        "m": d.m,
        "two_bridge": d.n <= 2,
        "conditions": conditions,
        "witnesses": {"interior_zero": interior_zero, "small_ends": small_ends},
        "passed": all(conditions.values()),
    }


# ---------------------------------------------------------------------------
# geometric crossing oracle: corridor polyline vs drawn link segments


def _cross(p1, p2, p3, p4) -> bool:
    """Proper intersection of segments p1p2 and p3p4 (generic position)."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    return (
        orient(p1, p2, p3) * orient(p1, p2, p4) < 0
        and orient(p3, p4, p1) * orient(p3, p4, p2) < 0
    )


def polyline_crossing_count(n: int, m: int, entries: tuple[int, ...]) -> int:
    """Count intersections of the drawn corridor with the drawn link.

    Rows sit at integer heights y = 1..m; gap g is the band (g, g+1).
    Strand x is drawn as one vertical segment per gap; the cap arcs are
    horizontal bars at y = 0.25 and y = m + 0.75.  The corridor is the
    polyline through (pos(i) + 1/2, i) extended straight up and down.
    """
    ps = [pos_of(i, a) for i, a in enumerate(entries, 1)]
    corridor = [(ps[0] + 0.5, 0.0)]
    corridor += [(p + 0.5, float(i)) for i, p in enumerate(ps, 1)]
    corridor.append((ps[-1] + 0.5, float(m + 1)))

    link = []
    for g in range(m + 1):
        lo = 0.25 if g == 0 else float(g)
        hi = m + 0.75 if g == m else float(g + 1)
        for x in range(1, 2 * n + 1):
            link.append(((float(x), lo), (float(x), hi)))
    for j in range(1, n + 1):
        link.append(((2 * j - 1.0, 0.25), (2.0 * j, 0.25)))
        link.append(((2 * j - 1.0, m + 0.75), (2.0 * j, m + 0.75)))

    total = 0
    for c1, c2 in zip(corridor, corridor[1:]):
        for s1, s2 in link:
            if _cross(c1, c2, s1, s2):
                total += 1
    return total


# ---------------------------------------------------------------------------
# component count via the permutation pairing graph


def plat_cycle_count(perm: tuple[int, ...]) -> int:
    """Circles of the plat closure of a position permutation."""
    n2 = len(perm)
    parent = list(range(2 * n2))  # nodes: top x-1, bottom n2 + (x-1)

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for j in range(0, n2, 2):
        union(j, j + 1)
        union(n2 + j, n2 + j + 1)
    for x in range(n2):
        union(x, n2 + perm[x] - 1)
    return len({find(v) for v in range(2 * n2)})


# ---------------------------------------------------------------------------
# components by union-find over segments


def union_find_components(d: PlatDiagram) -> list[list[tuple[int, int]]]:
    """Components as sorted segment lists, ordered by smallest segment.

    Segments are united across caps, straight stretches and each box's
    pairing, read off the parities of its slope p/q: odd/odd swaps the
    strands, odd/even passes them straight, even p caps them off.
    """
    parent: dict = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        parent[find(a)] = find(b)

    for g in range(d.m + 1):
        for x in range(1, 2 * d.n + 1):
            find((g, x))
    for x in range(1, 2 * d.n, 2):
        union((0, x), (0, x + 1))
        union((d.m, x), (d.m, x + 1))
    for i, row in enumerate(d.rows, 1):
        covered = set()
        for j, box in enumerate(row, 1):
            s = 2 * j if i % 2 == 1 else 2 * j - 1
            t = s + 1
            covered |= {s, t}
            p, q = (1, box.a) if hasattr(box, "a") else (box.p, box.q)
            if p % 2 == 0:
                union((i - 1, s), (i - 1, t))
                union((i, s), (i, t))
            elif q % 2 == 0:
                union((i - 1, s), (i, s))
                union((i - 1, t), (i, t))
            else:
                union((i - 1, s), (i, t))
                union((i - 1, t), (i, s))
        for x in set(range(1, 2 * d.n + 1)) - covered:
            union((i - 1, x), (i, x))
    groups: dict = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def walk_labels(d: PlatDiagram) -> tuple[list[int], list[int]]:
    """Each segment's component id and each component's start segment, by
    walking the end matching: the next unlabelled segment in index order
    starts a component, whose cycle is walked leaving that segment downward."""
    link = _end_links(d)
    label = [-1] * (len(link) >> 1)
    starts: list[int] = []
    seg = 0
    while True:
        try:
            seg = label.index(-1, seg)
        except ValueError:
            return label, starts
        cid = len(starts)
        starts.append(seg)
        e = start = 2 * seg + 1
        while True:
            label[e >> 1] = cid
            e = link[e] ^ 1
            if e == start:
                break


# ---------------------------------------------------------------------------
# run-counting walk: arcs per side, intersections per component


def _piece_set(m: int, ps: list[int]) -> set[tuple]:
    pieces = {("top_cap", (ps[0] + 1) // 2), ("bottom_cap", (ps[-1] + 1) // 2)}
    for g in range(1, m):
        pieces.add(("segment", g, max(ps[g - 1], ps[g])))
    return pieces


def _element_side(el: tuple, m: int, ps: list[int], entries) -> str:
    kind = el[0]
    if kind == "segment":
        _, g, x = el
        if g == 0:
            return "left" if x <= ps[0] else "right"
        if g == m:
            return "left" if x <= ps[-1] else "right"
        thr = max(ps[g - 1], ps[g])
        if x == thr:
            raise AssertionError(f"{el} is a crossing piece, not sided")
        return "left" if x < thr else "right"
    if kind == "top_cap":
        return "left" if 2 * el[1] <= ps[0] else "right"
    if kind == "bottom_cap":
        return "left" if 2 * el[1] <= ps[-1] else "right"
    if kind == "box":
        _, i, j = el
        return "left" if j <= entries[i - 1] else "right"
    if kind == "straight":
        _, i, x = el
        return "left" if x < ps[i - 1] else "right"
    raise AssertionError(f"unknown element {el}")


def trace_sides(d: PlatDiagram, entries: tuple[int, ...], cycles=None) -> dict:
    """Walk every component; count sphere hits and maximal one-side runs.

    Returns per-component intersection counts, total arcs per side, and
    the components lying wholly on one side.  Raises if a run between
    two consecutive sphere hits ever changes side, which would mean the
    side thresholds are inconsistent with the actual connectivity.
    Precomputed ``component_cycles(d)`` output can be passed in when one
    diagram is traced along many paths.
    """
    m = d.m
    ps = [pos_of(i, a) for i, a in enumerate(entries, 1)]
    pieces = _piece_set(m, ps)

    if cycles is None:
        cycles = component_cycles(d)
    hits: list[int] = []
    left_arcs = right_arcs = 0
    beside = {"left": [], "right": []}
    for cid, cycle in enumerate(cycles):
        flags = [el in pieces for el in cycle]
        count = sum(flags)
        hits.append(count)
        if count == 0:
            sides = {_element_side(el, m, ps, entries) for el in cycle}
            if len(sides) != 1:
                raise AssertionError(f"component {cid} straddles the sphere unseen")
            beside[sides.pop()].append(cid)
            continue
        # rotate so the cycle starts at a sphere hit, then split into runs
        first = flags.index(True)
        rotated = cycle[first:] + cycle[:first]
        run: list[tuple] = []
        for el in rotated[1:] + rotated[:1]:
            if el in pieces:
                if not run:
                    raise AssertionError("adjacent sphere hits with no arc between")
                sides = {_element_side(x, m, ps, entries) for x in run}
                if len(sides) != 1:
                    raise AssertionError(f"mixed-side arc in component {cid}: {run}")
                if sides.pop() == "left":
                    left_arcs += 1
                else:
                    right_arcs += 1
                run = []
            else:
                run.append(el)
    return {
        "hits": hits,
        "left_arcs": left_arcs,
        "right_arcs": right_arcs,
        "beside_left": beside["left"],
        "beside_right": beside["right"],
    }


# ---------------------------------------------------------------------------
# PD code by a top-to-bottom sweep of provisional arc labels


_PORTS = ("NW", "SW", "SE", "NE")  # counterclockwise in page coordinates
_DIAGONAL = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}


def sweep_pd_code(d: PlatDiagram) -> PDCode:
    """PD code of an all-twist diagram, labelled by sweeping the rows.

    Crossings get provisional labels on their ports row by row, bottom
    caps join the labels open above them, and each component is then
    traversed from the arc on its smallest segment.
    """
    for i, j, box in d.boxes():
        if not isinstance(box, Twist):
            raise UnsupportedBoxError(
                f"box ({i}, {j}) is rational; expand it before exporting a PD code"
            )
    if d.twist_crossing_count == 0:
        raise UnsupportedBoxError("diagram has no crossings; PD code is undefined")

    # sweep top to bottom: open[x] is the provisional arc label dangling in
    # column x; crossings consume the two incoming labels and open two more
    crossings: list[dict] = []  # {"sign": +-1, "ports": {port: label}}
    endpoints: dict[int, list[tuple[int, str]]] = {}
    fresh = itertools.count().__next__

    def new_label() -> int:
        lab = fresh()
        endpoints[lab] = []
        return lab

    open_label: dict[int, int] = {}
    for j in range(1, d.n + 1):
        lab = new_label()
        open_label[2 * j - 1] = lab
        open_label[2 * j] = lab

    snapshots = [dict(open_label)]
    for i in range(1, d.m + 1):
        for j in range(1, d.row_length(i) + 1):
            box = d.box(i, j)
            if box.a == 0:
                continue
            s, t = box_strands(i, j)
            sign = 1 if box.a > 0 else -1
            for _ in range(abs(box.a)):
                cid = len(crossings)
                left_in, right_in = open_label[s], open_label[t]
                endpoints[left_in].append((cid, "NW"))
                endpoints[right_in].append((cid, "NE"))
                out_l, out_r = new_label(), new_label()
                endpoints[out_l].append((cid, "SW"))
                endpoints[out_r].append((cid, "SE"))
                open_label[s], open_label[t] = out_l, out_r
                crossings.append({"sign": sign})
        snapshots.append(dict(open_label))

    # each bottom cap joins the two labels open above it into one arc.  A
    # label is open in one column, or in both columns of one cap pair, so
    # it takes part in at most one join and no chains form
    arc_of: dict[int, int] = {}
    for j in range(1, d.n + 1):
        arc_of[open_label[2 * j]] = open_label[2 * j - 1]

    # resolve provisional labels into arcs
    arc_ends: dict[int, list[tuple[int, str]]] = {}
    for lab, ends in endpoints.items():
        arc_ends.setdefault(arc_of.get(lab, lab), []).extend(ends)
    port_arc: dict[tuple[int, str], int] = {}
    for arc, ends in arc_ends.items():
        if not ends:
            continue  # a crossing-free component
        if len(ends) != 2:
            raise AssertionError(f"arc with {len(ends)} endpoints")
        for end in ends:
            port_arc[end] = arc

    # canonical traversal: components in topological order, entered at the
    # arc occupying the component's smallest segment
    topo = build_topology(d)
    final_label: dict[int, int] = {}
    incoming: set[tuple[int, str]] = set()
    next_label = 1
    for comp in topo.components:
        g0, x0 = min(comp)
        lab = snapshots[g0][x0]
        start_arc = arc_of.get(lab, lab)
        if not arc_ends[start_arc]:
            continue  # no crossings on this component
        if start_arc in final_label:
            raise AssertionError("component traversed twice")
        first_end = min(
            arc_ends[start_arc], key=lambda e: (e[0], _PORTS.index(e[1]))
        )
        arc, end = start_arc, first_end
        while True:
            if arc in final_label:
                break
            final_label[arc] = next_label
            next_label += 1
            incoming.add(end)
            out_port = _DIAGONAL[end[1]]
            arc = port_arc[(end[0], out_port)]
            a1, a2 = arc_ends[arc]
            end = a2 if a1 == (end[0], out_port) else a1

    if len(final_label) != len(port_arc) // 2:
        raise AssertionError("traversal missed arcs")

    quads = []
    for cid, data in enumerate(crossings):
        under = ("NW", "SE") if data["sign"] > 0 else ("NE", "SW")
        start = next(p for p in under if (cid, p) in incoming)
        k = _PORTS.index(start)
        ports = [_PORTS[(k + off) % 4] for off in range(4)]
        quads.append(tuple(final_label[port_arc[(cid, p)]] for p in ports))

    code = PDCode(tuple(quads))
    pd_validate(code)
    return code


def pd_text_or_refusal(export, d):
    """``export(d).text()``, or the type and message of its refusal, so two
    PD exports compare on refused diagrams too."""
    try:
        return export(d).text()
    except UnsupportedBoxError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# the Kauffman bracket two ways: a state sum over the smoothings of a PD
# code, and a Temperley-Lieb sweep down the plat.  Neither reads the
# component walk of topology or the port bookkeeping of export.  A Laurent
# polynomial in A is a dict {exponent: coefficient} without zero terms, and
# every loop of a state counts delta = -A^2 - A^-2.

DELTA = {2: -1, -2: -1}


def laurent(terms) -> dict[int, int]:
    """Sum (exponent, coefficient) terms into a Laurent polynomial."""
    out: dict[int, int] = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in sorted(out.items()) if c}


def laurent_mul(*factors: dict[int, int]) -> dict[int, int]:
    out = {0: 1}
    for f in factors:
        out = laurent((e + g, c * k) for e, c in out.items() for g, k in f.items())
    return out


def delta_power(k: int) -> dict[int, int]:
    return laurent_mul(*[DELTA] * k)


def mirror(f: dict[int, int]) -> dict[int, int]:
    """A -> A^-1: the bracket of the mirror image."""
    return laurent((-e, c) for e, c in f.items())


def bracket_from_pd(code: PDCode, free_loops: int = 0) -> dict[int, int]:
    """The state sum over the 2^C smoothings of a PD code.

    ``a`` of X(a, b, c, d) enters on the under-strand and b, c, d follow
    counterclockwise (FORMATS.md).  Turning the over-strand b-d
    counterclockwise sweeps the corner between b and c and the one
    between d and a; the A-smoothing opens those two corners into one
    region, so it joins a-b and c-d, and the B-smoothing joins a-d and
    b-c.  A state of i A-smoothings, j B-smoothings and l loops adds
    A^(i - j) delta^l.  The code omits the components that meet no
    crossing; ``free_loops`` of them come back as one delta each.
    """
    crossings = code.crossings
    tally: dict[tuple[int, int], int] = {}  # (i - j, loops) -> states

    def visit(k: int, ends: list[int], balance: int, loops: int) -> None:
        # ends[x] is the far end of the chain of joined arcs that ends in arc x
        if k == len(crossings):
            tally[balance, loops] = tally.get((balance, loops), 0) + 1
            return
        a, b, c, d = crossings[k]
        for step, pairs in ((1, ((a, b), (c, d))), (-1, ((a, d), (b, c)))):
            joined, closed = ends[:], loops
            for u, v in pairs:
                far_u, far_v = joined[u], joined[v]
                if far_u == v:  # u and v end one chain: joining them closes a loop
                    closed += 1
                else:
                    joined[far_u], joined[far_v] = far_v, far_u
            visit(k + 1, joined, balance + step, closed)

    visit(0, list(range(2 * len(crossings) + 1)), 0, free_loops)
    return laurent(t for (balance, loops), count in tally.items()
                   for t in laurent_mul({balance: count}, delta_power(loops)).items())


def bracket_from_plat(d: PlatDiagram) -> dict[int, int]:
    """The bracket by a Temperley-Lieb sweep down an all-twist plat.

    The state maps each crossingless matching of the 2n strand ends at the
    current height (``mate[x]``: the end joined to x above) to its
    polynomial, starting from the top caps.  In a positive twist the
    strand running northwest to southeast passes under (FORMATS.md), so a
    crossing's A-smoothing joins each upper end to the lower end below
    it: a positive crossing is A id + A^-1 e and a negative one
    A^-1 id + A e, where e joins the two upper ends and the two lower
    ends.  The bottom caps close each matching into loops.
    """
    state: dict[tuple[int, ...], dict[int, int]] = {
        tuple(x ^ 1 for x in range(2 * d.n)): {0: 1}
    }
    for i, row in enumerate(d.rows, 1):
        for j, box in enumerate(row, 1):
            s = 2 * j - 2 + i % 2  # the box's left strand, counted from 0
            sign = 1 if box.a > 0 else -1
            for _ in range(abs(box.a)):
                after: dict[tuple[int, ...], list] = {}  # matching -> its terms
                for mate, f in state.items():
                    after.setdefault(mate, []).extend(laurent_mul(f, {sign: 1}).items())
                    capped, e_term = list(mate), {-sign: 1}
                    if mate[s] == s + 1:
                        e_term = laurent_mul(e_term, DELTA)  # the cap closes a loop
                    else:
                        capped[mate[s]], capped[mate[s + 1]] = mate[s + 1], mate[s]
                    capped[s], capped[s + 1] = s + 1, s
                    after.setdefault(tuple(capped), []).extend(laurent_mul(f, e_term).items())
                state = {mate: laurent(terms) for mate, terms in after.items()}
    total = []
    for mate, f in state.items():
        seen, loops = set(), 0
        for x in range(2 * d.n):
            if x not in seen:
                loops += 1
                while x not in seen:  # bottom cap, then the matching above
                    seen.update((x, x ^ 1))
                    x = mate[x ^ 1]
        total += laurent_mul(f, delta_power(loops)).items()
    return laurent(total)


def crossing_free_components(d: PlatDiagram) -> int:
    """Components, by union-find over segments, that enter no nonzero box."""
    entered = {(i - 1, 2 * j - 1 + i % 2 + x) for i, j, box in d.boxes() if box.a for x in (0, 1)}
    return sum(1 for comp in union_find_components(d) if entered.isdisjoint(comp))


# ---------------------------------------------------------------------------
# corpora


def random_all_twist(rng: random.Random, n: int, m: int, spread: int = 5) -> PlatDiagram:
    """Arbitrary all-twist diagram, zero boxes and small ends included."""
    rows = []
    for i in range(1, m + 1):
        rows.append([rng.randint(-spread, spread) for _ in range(row_len(n, i))])
    return make_diagram(n, m, rows)


def random_mixed(rng: random.Random, n: int, m: int) -> PlatDiagram:
    """Arbitrary diagram mixing twist boxes with rational ones of every pairing."""
    rows = []
    for i in range(1, m + 1):
        row = []
        for _ in range(row_len(n, i)):
            p, q = rng.randint(-7, 7), rng.randint(-7, 7)
            if rng.random() < 0.5 and math.gcd(p, q) == 1:
                row.append((p, q))
            else:
                row.append(rng.randint(-5, 5))
        rows.append(row)
    return make_diagram(n, m, rows)


def random_shape(rng: random.Random, n_hi: int, m_hi: int) -> tuple[int, int]:
    return rng.randint(3, n_hi), rng.choice(range(1, m_hi + 1, 2))


# ---------------------------------------------------------------------------
# byte oracles for the export and render routines: the walk labelling one
# crossing end at a time, and renders written box by box with box_strands.
# They share the component walk and the path check with the library, so they
# pin bytes, not the topology; sweep_pd_code is the independent PD oracle.

_NW, _SW, _SE, _NE = range(4)
_PORT_DIAGONAL, _COLUMN = 2, 3
_MARGIN, _DX, _DY, _CAP = 40, 36, 56, 24


def _positions(d: PlatDiagram, path):
    if path is None:
        return None, None
    entries = allowable_entries(d, path)
    return entries, corridor_positions(entries)


def per_crossing_pd_code(d: PlatDiagram) -> PDCode:
    """PD code of an all-twist diagram, one walk step per crossing end."""
    _require_all_twist(d, "expand it before exporting a PD code")
    # per row, each box's twist and its first crossing id in sweep order;
    # odd rows gain a zero box at either end for their uncovered outer
    # strands, and a zero row above and below stands for the caps
    caps = [0] * (d.n + 1)
    twists, first = [caps], [caps]
    crossings = 0
    for i, row in enumerate(d.rows, 1):
        a_row = [box.a for box in row]
        if i % 2 == 1:
            a_row = [0, *a_row, 0]
        starts = []
        for a in a_row:
            starts.append(crossings)
            crossings += abs(a)
        twists.append(a_row)
        first.append(starts)
    twists.append(caps)
    if crossings == 0:
        raise UnsupportedBoxError("diagram has no crossings; PD code is undefined")
    if crossings > MAX_PD_CROSSINGS:
        raise ParameterError(
            f"diagram has {crossings} crossings; PD codes are limited to {MAX_PD_CROSSINGS}"
        )

    negative = bytearray()  # by crossing id
    for a_row in twists:
        for a in a_row:
            negative += bytes(a) if a > 0 else b"\1" * -a
    labels = [0] * (4 * crossings)  # arc label at port slot 4 * crossing + port
    under_in = bytearray(crossings)  # the port the under-strand enters by
    w = 2 * d.n
    next_label = 1
    for ends in _cycles(d):
        walk = []  # the slot each crossing is entered by, in the cycle's direction
        for e in ends:
            g, x = divmod(e >> 1, w)  # x counts strands from 0 here
            i = g + (e & 1)  # the row that end e meets
            j = (x + (i & 1)) >> 1
            a = twists[i][j]
            if a == 0:
                continue  # a cap, a straight stretch or a zero box
            column = (x + i) & 1  # 0 on the box's left strand, 1 on its right
            top, bottom = 4 * first[i][j], 4 * (first[i][j] + abs(a) - 1)
            if e & 1:  # entering the box from above
                port, bases = (_NW, _NE)[column], range(top, bottom + 1, 4)
            else:
                port, bases = (_SW, _SE)[column], range(bottom, top - 1, -4)
            for base in bases:
                walk.append(base + port)
                port ^= _COLUMN
        if not walk:
            continue  # a crossing-free component; see the module docstring
        # the walk starts on the arc from its last crossing to its first;
        # that arc is labelled first, headed to its lower-ranked end
        if walk[-1] ^ _PORT_DIAGONAL < walk[0]:
            walk = [s ^ _PORT_DIAGONAL for s in reversed(walk)]
        for label, s in enumerate(walk, next_label):
            labels[s] = label
            labels[s ^ _PORT_DIAGONAL] = label + 1
            c = s >> 2
            if s & 1 == negative[c]:  # the under-strand; see _NW
                under_in[c] = s & 3
        labels[walk[-1] ^ _PORT_DIAGONAL] = next_label
        next_label += len(walk)

    quads = []  # each crossing's labels from its under-strand's entry on
    for base, u in zip(range(0, len(labels), 4), under_in):
        quads.append(
            (
                labels[base + u],
                labels[base + (u + 1) % 4],
                labels[base + (u + 2) % 4],
                labels[base + (u + 3) % 4],
            )
        )
    code = PDCode(tuple(quads))
    pd_validate(code)
    return code


def per_box_render_svg(d: PlatDiagram, path) -> bytes:
    """SVG render of d, one list part per line and one f-string per box."""
    _, ps = _positions(d, path)

    def x_at(x: int) -> int:
        return _MARGIN + (x - 1) * _DX

    y0 = _MARGIN + _CAP  # top of the strand band
    y1 = y0 + d.m * _DY
    width = 2 * _MARGIN + (2 * d.n - 1) * _DX
    height = 2 * _MARGIN + 2 * _CAP + d.m * _DY

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<g stroke="black" stroke-width="2" fill="none">',
    ]
    for x in range(1, 2 * d.n + 1):
        parts.append(f'<line x1="{x_at(x)}" y1="{y0}" x2="{x_at(x)}" y2="{y1}"/>')
    for j in range(1, d.n + 1):
        xl, xr = x_at(2 * j - 1), x_at(2 * j)
        r = (xr - xl) // 2
        parts.append(f'<path d="M {xl} {y0} A {r} {_CAP} 0 0 1 {xr} {y0}"/>')
        parts.append(f'<path d="M {xl} {y1} A {r} {_CAP} 0 0 0 {xr} {y1}"/>')
    parts.append("</g>")

    parts.append('<g font-family="monospace" font-size="14" text-anchor="middle">')
    for i, j, box in d.boxes():
        s, t = box_strands(i, j)
        bx = x_at(s) - 12
        by = y0 + (i - 1) * _DY + 14
        bw = x_at(t) - x_at(s) + 24
        bh = _DY - 28
        parts.append(
            f'<rect class="box" x="{bx}" y="{by}" width="{bw}" height="{bh}" '
            'fill="white" stroke="black" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{(x_at(s) + x_at(t)) // 2}" y="{by + bh // 2 + 5}">{box}</text>'
        )
    parts.append("</g>")

    if ps is not None:
        points = [f"{x_at(ps[0]) + _DX // 2},{_MARGIN}"]
        for i, p in enumerate(ps, 1):
            points.append(f"{x_at(p) + _DX // 2},{y0 + (i - 1) * _DY + _DY // 2}")
        points.append(f"{x_at(ps[-1]) + _DX // 2},{height - _MARGIN}")
        parts.append(
            f'<polyline class="path" points="{" ".join(points)}" fill="none" '
            'stroke="crimson" stroke-width="2" stroke-dasharray="6 4"/>'
        )

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def per_box_render_ascii(d: PlatDiagram, path) -> bytes:
    """ASCII render of d, one character list per row written box by box."""
    entries, ps = _positions(d, path)

    def col(x: int) -> int:
        return 2 + 4 * (x - 1)

    width = col(2 * d.n) + 3

    def strand_line() -> list[str]:
        line = [" "] * width
        for x in range(1, 2 * d.n + 1):
            line[col(x)] = "│"
        return line

    def cap_line(top: bool) -> str:
        line = [" "] * width
        l, r = ("╭", "╮") if top else ("╰", "╯")
        for j in range(1, d.n + 1):
            a, b = col(2 * j - 1), col(2 * j)
            line[a] = l
            line[b] = r
            for c in range(a + 1, b):
                line[c] = "─"
        return "".join(line)

    lines = []
    if ps is not None:
        lines.append("path: (" + ", ".join(str(a) for a in entries) + ")")
    lines.append(cap_line(True))
    for i in range(1, d.m + 1):
        lines.append("".join(strand_line()))
        boxrow = strand_line()
        shift = 0  # how far wider labels to the left pushed this box right
        for j in range(1, d.row_length(i) + 1):
            s, t = box_strands(i, j)
            a, b = col(s) - 1 + shift, col(t) + 1 + shift
            label = str(d.box(i, j)).center(b - a - 1)
            boxrow[a] = "["
            boxrow[b] = "]"
            boxrow[a + 1 : b] = list(label)
            shift += len(label) - (b - a - 1)
        if ps is not None:
            marker = col(ps[i - 1]) + 2
            if boxrow[marker] == " ":
                boxrow[marker] = "┊"
        lines.append("".join(boxrow))
    lines.append("".join(strand_line()))
    lines.append(cap_line(False))
    return ("\n".join(lines) + "\n").encode()


def canonical_json_bytes(d: PlatDiagram) -> bytes:
    """The digest encoding written by ``json.dumps`` from the box table, box by box."""
    return json.dumps(to_json_dict(d), sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# row-at-a-time oracles for the path verdict and the sphere decomposition,
# which the library takes over whole entry tuples: the verdict scans the rows
# in order and stops at the first fault; the sphere reads each gap's crossed
# strand as (pos(i) + pos(i+1) + 1) / 2 and its component through
# component_of, and each right span ends at row_length + 1.


def per_row_allowable_entries(d: PlatDiagram, path) -> tuple:
    """The entries of an allowable path as a tuple, or PathError naming the
    first fault: the 2-bridge case, the length, each row's type and range
    top to bottom, then each step top to bottom."""
    if d.n <= 2:
        raise PathError("a 2-bridge plat (n <= 2) admits no allowable paths")
    entries = tuple(path)
    if len(entries) != d.m:
        raise PathError(f"expected {d.m} entries, got {len(entries)}")
    for i, a in enumerate(entries, 1):
        if isinstance(a, bool) or not isinstance(a, int):
            raise PathError(f"row {i}: entry {a!r} is not an int")
        hi = row_len(d.n, i) - 1
        if not 1 <= a <= hi:
            raise PathError(f"row {i}: entry {a} outside allowable range 1..{hi}")
    for i in range(1, len(entries)):
        prev, cur = entries[i - 1], entries[i]
        allowed = (prev, prev + 1) if i % 2 == 1 else (prev - 1, prev)
        if cur not in allowed:
            raise PathError(f"rows {i}->{i + 1}: step {prev}->{cur} not in {allowed}")
    return entries


def per_gap_crossed_strands(entries) -> list[int]:
    ps = [pos_of(i, a) for i, a in enumerate(entries, 1)]
    return [ps[0]] + [(p + q + 1) // 2 for p, q in zip(ps, ps[1:])] + [ps[-1]]


def per_gap_sphere_partition(t, entries) -> tuple[tuple[int, ...], frozenset, frozenset]:
    """Crossed component ids top to bottom, and the sets strictly left and right."""
    strands = per_gap_crossed_strands(entries)
    crossing = tuple(t.component_of(g, x) for g, x in enumerate(strands))
    w = 2 * t.n
    left, right = set(), set()
    for cid, seg in enumerate(t._starts):
        if cid not in crossing:
            g, x = divmod(seg, w)
            (left if x + 1 < strands[g] else right).add(cid)
    return crossing, frozenset(left), frozenset(right)


def per_gap_crossing_pieces(entries) -> tuple:
    strands = per_gap_crossed_strands(entries)
    return (
        ("top_cap", (strands[0] + 1) // 2),
        *(("segment", g, strands[g]) for g in range(1, len(entries))),
        ("bottom_cap", (strands[-1] + 1) // 2),
    )


def per_gap_decompose(d: PlatDiagram, path) -> SphereDecomposition:
    """``decompose`` with every span and crossed component read one row or gap at a time."""
    entries = per_row_allowable_entries(d, path)
    crossing, left_loops, right_loops = per_gap_sphere_partition(build_topology(d), entries)
    left_spans = tuple(range(1, a + 1) for a in entries)
    right_spans = tuple(range(a + 1, row_len(d.n, i) + 1) for i, a in enumerate(entries, 1))
    return SphereDecomposition(
        d, AllowablePath(entries), crossing,
        SideSummary("left", left_spans, tuple(sorted(left_loops))),
        SideSummary("right", right_spans, tuple(sorted(right_loops))),
    )
