"""An oracle for the benchmark's checks, written from FORMATS.md alone.

Nothing here imports platsurf.  Diagrams are raw values: ``n``, ``m``
and ``rows``, a list of rows whose entries are an int (a twist box) or
a two-element list ``[p, q]`` (a rational box), exactly as in the JSON
form.  Each function derives its answer by a route of its own:

* components by walking the perfect matching on segment ends that the
  caps, boxes and straight stretches induce, rather than by union-find;
* hypotheses read straight off the raw rows;
* the digest from the canonical encoding;
* the path count by a row transfer over a list, rather than a dict;
* the braid permutation by tracking which strand sits at each position,
  rather than by scanning the permutation for every swap.

The benchmark checks the program's outputs against these values and
against properties the method must have.
"""

from __future__ import annotations

import hashlib
import json

# ---------------------------------------------------------------------------
# shape and boxes


def row_len(n: int, i: int) -> int:
    """Boxes in row i (1-based): n - 1 in odd rows, n in even rows."""
    return n - 1 if i % 2 else n


def box_strands(i: int, j: int) -> tuple[int, int]:
    """The two strands under box j of row i."""
    return (2 * j, 2 * j + 1) if i % 2 else (2 * j - 1, 2 * j)


def slope(v) -> tuple[int, int]:
    """Canonical slope (p, q) of a raw box: q >= 0, the infinite slope 1/0."""
    p, q = (1, v) if isinstance(v, int) else (v[0], v[1])
    if q == 0:
        return (1, 0)
    return (-p, -q) if q < 0 else (p, q)


def denominator(v) -> int:
    return slope(v)[1]


def pairing(v) -> str:
    """'swap', 'identity' or 'caps', by the parity table of FORMATS.md."""
    p, q = slope(v)
    if p % 2 and q % 2:
        return "swap"
    if p % 2:
        return "identity"
    return "caps"


def is_all_twist(rows) -> bool:
    return all(isinstance(v, int) for row in rows for v in row)


# ---------------------------------------------------------------------------
# hypotheses, encoding


def hypotheses(n: int, m: int, rows, relaxed: bool = False) -> dict:
    """Witnesses of conditions (ii) and (iii), and the overall verdict.

    Witnesses are [row, box, value] lists in row-major order, as the
    program reports them.
    """
    bound = 2 if relaxed else 3
    interior_zero, small_ends = [], []
    for i, row in enumerate(rows, 1):
        last = len(row)
        for j, v in enumerate(row, 1):
            end = j == 1 or j == last
            den = denominator(v)
            if not end and den == 0:
                interior_zero.append([i, j, v])
            if i % 2 and end and den < bound:
                small_ends.append([i, j, v])
    return {
        "two_bridge": n <= 2,
        "interior_zero": interior_zero,
        "small_ends": small_ends,
        "passed": n >= 3 and not interior_zero and not small_ends,
    }


def canonical_bytes(n: int, m: int, rows) -> bytes:
    return json.dumps(
        {"m": m, "n": n, "rows": rows}, sort_keys=True, separators=(",", ":")
    ).encode()


def digest(n: int, m: int, rows) -> str:
    return hashlib.sha256(canonical_bytes(n, m, rows)).hexdigest()


# ---------------------------------------------------------------------------
# components: walk the segment-end matching


class Link:
    """Components of a diagram, found by walking the end matching.

    Segment (g, x) has index ``g * 2n + x - 1``; its top end is
    ``2 * index`` and its bottom end ``2 * index + 1``.  Walking from a
    segment out of one end, across the matched end and out of the other
    end of the next segment, traces a whole component.  Starting each
    walk at the first unlabelled segment in (gap, strand) order numbers
    the components canonically.
    """

    def __init__(self, n: int, m: int, rows) -> None:
        self.n, self.m = n, m
        w = 2 * n
        self.width = w
        mate = [0] * (2 * w * (m + 1))

        def top(g, x):
            return 2 * (g * w + x - 1)

        def bot(g, x):
            return 2 * (g * w + x - 1) + 1

        def join(a, b):
            mate[a] = b
            mate[b] = a

        for j in range(1, n + 1):
            join(top(0, 2 * j - 1), top(0, 2 * j))
            join(bot(m, 2 * j - 1), bot(m, 2 * j))
        for i, row in enumerate(rows, 1):
            covered = [False] * (w + 1)
            for j, v in enumerate(row, 1):
                s, t = box_strands(i, j)
                covered[s] = covered[t] = True
                kind = pairing(v)
                if kind == "identity":
                    join(bot(i - 1, s), top(i, s))
                    join(bot(i - 1, t), top(i, t))
                elif kind == "swap":
                    join(bot(i - 1, s), top(i, t))
                    join(bot(i - 1, t), top(i, s))
                else:
                    join(bot(i - 1, s), bot(i - 1, t))
                    join(top(i, s), top(i, t))
            for x in range(1, w + 1):
                if not covered[x]:
                    join(bot(i - 1, x), top(i, x))

        label = [-1] * (w * (m + 1))
        count = 0
        for start in range(len(label)):
            if label[start] >= 0:
                continue
            seg, end = start, 2 * start + 1
            while label[seg] < 0:
                label[seg] = count
                nxt = mate[end]
                seg, end = nxt >> 1, nxt ^ 1
            count += 1
        self.label = label
        self.count = count

    def component(self, g: int, x: int) -> int:
        return self.label[g * self.width + x - 1]

    def segments(self) -> int:
        return len(self.label)

    def extents(self) -> list[dict[int, tuple[int, int]]]:
        """Per component, per gap it occupies: (lowest, highest) strand."""
        out: list[dict[int, tuple[int, int]]] = [{} for _ in range(self.count)]
        w = self.width
        for idx, c in enumerate(self.label):
            g, x = divmod(idx, w)
            x += 1
            span = out[c].get(g)
            out[c][g] = (x, x) if span is None else (min(span[0], x), max(span[1], x))
        return out


# ---------------------------------------------------------------------------
# paths


def positions(entries) -> list[int]:
    """Corridor position of each entry: 2a + 1 in odd rows, 2a in even rows."""
    return [2 * a + 1 if i % 2 else 2 * a for i, a in enumerate(entries, 1)]


def step_ok(n: int, entries) -> bool:
    """The step rule, with the bounds 1 <= a_i <= row_len(i) - 1."""
    for i, a in enumerate(entries, 1):
        if not 1 <= a <= row_len(n, i) - 1:
            return False
        if i > 1:
            prev = entries[i - 2]
            if a not in ((prev, prev + 1) if i % 2 == 0 else (prev - 1, prev)):
                return False
    return True


def path_count(n: int, m: int) -> int:
    """Allowable paths on the (n, m) shape, by a row transfer over a list."""
    if n <= 2:
        return 0
    ways = [0] + [1] * (n - 2) + [0, 0]  # ways[a]: paths ending at entry a
    for i in range(2, m + 1):
        hi = row_len(n, i) - 1
        nxt = [0] * (n + 1)
        for b in range(1, hi + 1):
            if i % 2 == 0:  # odd row above: b came from b or b - 1
                nxt[b] = ways[b] + ways[b - 1]
            else:  # even row above: b came from b or b + 1
                nxt[b] = ways[b] + ways[b + 1]
        ways = nxt
    return sum(ways)


def enumerate_paths(n: int, m: int) -> list[tuple[int, ...]]:
    """Every allowable path in lexicographic order, by an explicit stack."""
    if n <= 2:
        return []
    out = []
    stack = [(a,) for a in range(row_len(n, 1) - 1, 0, -1)]
    while stack:
        entries = stack.pop()
        i = len(entries) + 1
        if i > m:
            out.append(entries)
            continue
        a = entries[-1]
        nexts = (a, a + 1) if i % 2 == 0 else (a - 1, a)
        for b in reversed(nexts):
            if 1 <= b <= row_len(n, i) - 1:
                stack.append(entries + (b,))
    return out


def leftmost(m: int) -> list[int]:
    return [1] * m


def rightmost(n: int, m: int) -> list[int]:
    return [n - 2 if i % 2 else n - 1 for i in range(1, m + 1)]


class Sides:
    """Which components a path's sphere crosses and which lie beside it."""

    def __init__(self, link: Link) -> None:
        self.link = link
        self.extent = link.extents()

    def crossing(self, entries) -> list[int]:
        """Component of each of the m + 1 pieces the sphere cuts, top down."""
        link, ps = self.link, positions(entries)
        out = [link.component(0, ps[0])]  # top cap over ps[0], ps[0] + 1
        for g in range(1, link.m):
            out.append(link.component(g, max(ps[g - 1], ps[g])))
        out.append(link.component(link.m, ps[-1]))
        return out

    def beside(self, entries) -> tuple[list[int], list[int]]:
        """Components the sphere misses that lie wholly left / right of it.

        The corridor passes gap g at strand max(pos(g), pos(g+1)); in the
        outer gaps 0 and m it descends at pos + 1/2.
        """
        m, ps = self.link.m, positions(entries)
        cut = [ps[0] + 0.5] + [max(ps[g - 1], ps[g]) for g in range(1, m)]
        cut.append(ps[-1] + 0.5)
        crossed = set(self.crossing(entries))
        left, right = [], []
        for c, gaps in enumerate(self.extent):
            if c in crossed:
                continue
            if all(hi < cut[g] for g, (_, hi) in gaps.items()):
                left.append(c)
            elif all(lo > cut[g] for g, (lo, _) in gaps.items()):
                right.append(c)
        return left, right


def uncovered(n: int, m: int, sides: Sides) -> list[int]:
    """Components missing every allowable sphere: left of the leftmost
    sphere or right of the rightmost one."""
    left, _ = sides.beside(leftmost(m))
    _, right = sides.beside(rightmost(n, m))
    return sorted(set(left) | set(right))


def parity(m: int, rows):
    """Parity reading of coverage: some odd row starts with an odd twist
    count and some odd row ends with one; None if an odd-row end is rational."""
    starts = ends = False
    for i in range(1, m + 1, 2):
        head, tail = rows[i - 1][0], rows[i - 1][-1]
        if not (isinstance(head, int) and isinstance(tail, int)):
            return None
        starts = starts or head % 2 != 0
        ends = ends or tail % 2 != 0
    return starts and ends


# ---------------------------------------------------------------------------
# braids and PD codes


def braid_text(rows) -> str:
    """Syllables s{g}^{a}, rows top down, boxes left to right, zeros dropped."""
    out = []
    for i, row in enumerate(rows, 1):
        for j, a in enumerate(row, 1):
            if a:
                out.append(f"s{box_strands(i, j)[0]}^{a}")
    return " ".join(out)


def permutation(n: int, rows) -> list[int]:
    """sigma[x - 1]: bottom position of the strand entering at top x.

    Only through-pairing boxes are allowed; a swap box exchanges the
    strands at its two positions.
    """
    at = list(range(2 * n + 1))  # at[p]: top position of the strand now at p
    for i, row in enumerate(rows, 1):
        for j, v in enumerate(row, 1):
            kind = pairing(v)
            if kind == "caps":
                raise ValueError("a caps box has no permutation")
            if kind == "swap":
                s, t = box_strands(i, j)
                at[s], at[t] = at[t], at[s]
    sigma = [0] * (2 * n)
    for p in range(1, 2 * n + 1):
        sigma[at[p] - 1] = p
    return sigma


def pd_properties(text: str) -> tuple[int, bool, int]:
    """(crossings, every label 1..2C twice, components traced) of a PD text.

    The through-strands of X(a, b, c, d) are a-c and b-d.
    """
    if not (text.startswith("PD[") and text.endswith("]")):
        raise ValueError("not a PD code")
    body = text[3:-1]
    quads = []
    if body:
        for chunk in body.split("X(")[1:]:
            quads.append([int(v) for v in chunk.split(")")[0].split(",")])
    seen: dict[int, int] = {}
    for q in quads:
        if len(q) != 4:
            raise ValueError("crossing without four labels")
        for v in q:
            seen[v] = seen.get(v, 0) + 1
    labels_ok = set(seen) == set(range(1, 2 * len(quads) + 1)) and all(
        c == 2 for c in seen.values()
    )
    parent = {v: v for v in seen}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b, c, d in quads:
        for u, v in ((a, c), (b, d)):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    return len(quads), labels_ok, len({find(v) for v in seen})


def twist_crossings(rows) -> int:
    return sum(abs(v) for row in rows for v in row)


# ---------------------------------------------------------------------------
# certificate verdicts


def certified(n: int, m: int, rows, mode: str) -> bool:
    """Whether certify should certify in a mode (full mode names)."""
    hyp = hypotheses(n, m, rows, relaxed=mode == "relaxed_remark1")
    if not hyp["passed"]:
        return False
    if mode == "theorem1":
        return m >= 3
    if mode == "composite_remark3":
        return m == 1
    return True


def haken_certified(n: int, m: int, rows, slopes, uncovered_ids) -> bool:
    """Whether certify_haken should certify; slopes are (p, q) pairs."""
    return (
        hypotheses(n, m, rows)["passed"]
        and m >= 3
        and not any(q == 0 for _, q in slopes)
        and not uncovered_ids
    )
