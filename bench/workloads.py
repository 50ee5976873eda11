"""The four workloads: their inputs, their operations and their checks.

Every workload is a closed loop with one caller.  Inputs come from the
benchmark's own seeded RNG and reach the program only as JSON text (and
slope or path text), so a change to ``random_diagram`` cannot change
them.  A round is a fixed list of operations; a run repeats whole
rounds, so each run attempts the same mix.

An operation is ``Op(run, check, label)``.  ``run(layers)`` is the timed
call into the program.  ``check(output)`` runs untimed.  It raises
``Mismatch`` when an output disagrees with the oracle or with a property
the method must have.  It returns False when the operation failed
through a known fault of the program (see ``CliSession``), True
otherwise.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from typing import Callable, Iterator, NamedTuple

import oracle

THEOREM1, RELAXED, COMPOSITE = "theorem1", "relaxed_remark1", "composite_remark3"
CITES = {"Theorem 1", "Remark 1", "Remark 3"}
CERT_KEYS = [
    "mode", "digest", "certified", "hypotheses", "path", "surfaces",
    "conclusions", "refusals", "footnotes",
]
HAKEN_KEYS = [
    "mode", "digest", "certified", "hypotheses", "path", "slopes",
    "totally_nontrivial", "coverage", "parity_criterion", "surfaces",
    "conclusions", "refusals", "footnotes",
]


class Mismatch(Exception):
    """An output disagrees with the oracle or a required property."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


class Op(NamedTuple):
    run: Callable
    check: Callable
    label: str


# ---------------------------------------------------------------------------
# inputs

ODD_END = (3, 4, 5, -3, -4, -5)
INTERIOR = (1, 2, 3, 4, 5, -1, -2, -3, -4, -5)
EVEN_END = tuple(range(-5, 6))
# reduced slopes with q >= 3, so they keep every hypothesis wherever they sit
RATIONAL = {
    "swap": ([5, 3], [-7, 3], [3, 5]),
    "identity": ([3, 4], [-5, 4], [1, 4]),
    "caps": ([2, 3], [-4, 5], [2, 5]),
}
SLOPES = ("3/1", "5/2", "-2/3", "0/1", "7/1", "-1/2", "4/3")


def twist_rows(rng: random.Random, n: int, m: int) -> list[list]:
    """All-twist rows that satisfy the strict hypotheses."""
    rows = []
    for i in range(1, m + 1):
        row = rng.choices(INTERIOR, k=oracle.row_len(n, i))
        ends = ODD_END if i % 2 else EVEN_END
        row[0], row[-1] = rng.choice(ends), rng.choice(ends)
        rows.append(row)
    return rows


def spoil_interior(rng, rows) -> None:
    """Fail (ii): one interior box becomes 0."""
    row = rng.choice([r for r in rows if len(r) >= 3])
    row[rng.randint(1, len(row) - 2)] = 0


def spoil_end(rng, rows, values=(1, -1, 2, -2)) -> None:
    """Fail strict (iii): one odd-row end box gets a denominator below 3."""
    row = rows[rng.randrange(0, len(rows), 2)]
    row[rng.choice((0, -1))] = rng.choice(values)


def rationalize(rng, rows, share: float) -> None:
    """Replace a share of the boxes by rational boxes of all three pairings."""
    total = sum(len(r) for r in rows)
    for k in range(max(3, int(total * share))):
        kind = ("swap", "identity", "caps")[k % 3]
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.choice(RATIONAL[kind])


def plant_loops(rng, n, m, rows, count: int) -> None:
    """Close small loops: caps boxes at (i, j) and (i + 2, j), identity
    twists between them, so whole components can lie beside a sphere."""
    for _ in range(count):
        i = rng.randrange(1, m - 1, 2)
        j = rng.randint(1, n - 1)
        rows[i - 1][j - 1] = rng.choice(RATIONAL["caps"])
        rows[i + 1][j - 1] = rng.choice(RATIONAL["caps"])
        rows[i][j - 1] = rng.choice((2, -2))
        rows[i][j] = rng.choice((2, -2))


def random_path(rng, n: int, m: int) -> tuple[int, ...]:
    """A uniformly stepped allowable path, by the step rule."""
    entries = [rng.randint(1, n - 2)]
    for i in range(2, m + 1):
        a = entries[-1]
        steps = (a, a + 1) if i % 2 == 0 else (a - 1, a)
        entries.append(rng.choice([b for b in steps if 1 <= b <= oracle.row_len(n, i) - 1]))
    return tuple(entries)


def make_rows(rng, n, m, kind) -> list[list]:
    rows = twist_rows(rng, n, m)
    if kind == "interior_zero":
        spoil_interior(rng, rows)
    elif kind == "small_end":
        spoil_end(rng, rows)
    elif kind == "relaxed":
        spoil_end(rng, rows, (2, -2))
    elif kind == "rational":
        rationalize(rng, rows, 0.05)
    elif kind == "loops":
        plant_loops(rng, n, m, rows, max(2, n * m // 40))
    return rows


class Case:
    """One diagram: the JSON text the program reads, and the oracle's facts."""

    def __init__(self, rng, n, m, kind="valid", meridian=False, rows=None) -> None:
        self.n, self.m = n, m
        self.rows = rows if rows is not None else make_rows(rng, n, m, kind)
        self.text = json.dumps({"n": n, "m": m, "rows": self.rows})
        self.mode = RELAXED if kind == "relaxed" else COMPOSITE if m == 1 else THEOREM1
        self.label = f"{n}x{m}"
        rows = self.rows
        self.twist = oracle.is_all_twist(rows)
        self.boxes = sum(len(r) for r in rows)
        self.hyp = oracle.hypotheses(n, m, rows)
        self.hyp_mode = oracle.hypotheses(n, m, rows, relaxed=self.mode == RELAXED)
        self.digest = oracle.digest(n, m, rows)
        self.link = oracle.Link(n, m, rows)
        self.sides = oracle.Sides(self.link) if n >= 3 else None
        slopes = [rng.choice(SLOPES) for _ in range(self.link.count)]
        if meridian:
            slopes[rng.randrange(len(slopes))] = "1/0"
        self.slopes = ",".join(slopes)
        self.slope_pairs = [tuple(int(v) for v in s.split("/")) for s in slopes]
        self.leftmost = tuple(oracle.leftmost(m)) if n >= 3 else None

    @property
    def has_caps(self) -> bool:
        return any(oracle.pairing(v) == "caps" for r in self.rows for v in r)

    def uncovered(self) -> list[int]:
        return oracle.uncovered(self.n, self.m, self.sides)


# ---------------------------------------------------------------------------
# checks shared by workloads


def check_surfaces(records, m: int, left: int, right: int) -> None:
    genus = (m + 1) // 2
    expect(
        records == [
            {"kind": "planar", "euler": 1 - m, "genus": 0, "boundary": m + 1, "closed": False},
            {"kind": "tubed_left", "euler": 1 - m, "genus": genus, "boundary": 0,
             "closed": True, "extra_tori": left},
            {"kind": "tubed_right", "euler": 1 - m, "genus": genus, "boundary": 0,
             "closed": True, "extra_tori": right},
        ],
        f"surface invariants {records}",
    )


def check_certificate(case: Case, text: str, path=None) -> dict:
    """A certificate in the case's mode, along ``path`` or the leftmost path."""
    c = json.loads(text)
    expect(list(c) == CERT_KEYS, "certificate keys")
    expect(c["mode"] == case.mode, "certificate mode")
    expect(c["digest"] == case.digest, "certificate digest")
    want = oracle.certified(case.n, case.m, case.rows, case.mode)
    expect(c["certified"] is want, f"certified {c['certified']}, oracle says {want}")
    expect((c["refusals"] == []) == want, "refusals empty exactly when certified")
    hyp = case.hyp_mode
    expect(c["hypotheses"]["passed"] == hyp["passed"], "hypotheses verdict")
    expect(c["hypotheses"]["witnesses"] == {
        "interior_zero": hyp["interior_zero"], "small_ends": hyp["small_ends"]},
        "hypothesis witnesses")
    cites = {x["cite"] for x in c["conclusions"]}
    expect(cites <= CITES and bool(cites) == want, f"conclusions cite {cites}")
    if case.n >= 3:
        entries = list(path or case.leftmost)
        expect(c["path"] == entries, "certificate path")
        left, right = case.sides.beside(entries)
        check_surfaces(c["surfaces"], case.m, len(left), len(right))
    else:
        expect(c["path"] is None and c["surfaces"] == [], "2-bridge certificate")
    return c


def check_haken(case: Case, text: str) -> dict:
    h = json.loads(text)
    expect(list(h) == HAKEN_KEYS, "Haken certificate keys")
    expect(h["mode"] == "corollary2" and h["digest"] == case.digest, "Haken mode, digest")
    expect(h["slopes"] == case.slopes.split(","), "Haken slopes")
    meridians = [k for k, (_, q) in enumerate(case.slope_pairs) if q == 0]
    expect(h["totally_nontrivial"]["offenders"] == meridians, "meridian offenders")
    uncovered = case.uncovered() if case.n >= 3 else None
    if uncovered is None:
        expect(h["coverage"] is None, "coverage of a 2-bridge plat")
    elif not uncovered:
        expect(h["coverage"] == {"passed": True, "uncovered": []}, "coverage record")
    else:
        # The record itself is not compared here: HakenCertificate.to_dict
        # writes null exactly when coverage fails (see CHANGES.md).  The
        # refusal names the uncovered components instead.
        ids = ", ".join(map(str, uncovered))
        expect(any(r.startswith(f"component(s) {ids} meet no allowable sphere")
                   for r in h["refusals"]), "refusal naming the uncovered components")
    parity = oracle.parity(case.m, case.rows)
    expect(h["parity_criterion"]["value"] == parity, "parity reading")
    if case.twist and case.hyp["passed"]:
        expect(parity == (not uncovered), "parity reading equals direct coverage")
    want = oracle.haken_certified(case.n, case.m, case.rows, case.slope_pairs, uncovered)
    expect(h["certified"] is want, f"Haken certified {h['certified']}, oracle says {want}")
    return h


def check_hypothesis_report(case: Case, report) -> None:
    expect(report.passed == case.hyp["passed"], "strict hypotheses verdict")
    expect(report.two_bridge == case.hyp["two_bridge"], "2-bridge flag")
    expect([list(w) for w in report.interior_zero_boxes] == case.hyp["interior_zero"]
           and [list(w) for w in report.small_end_boxes] == case.hyp["small_ends"],
           "strict hypothesis witnesses")


def check_permutation(case: Case, *perms) -> None:
    sigma = oracle.permutation(case.n, case.rows)
    for perm in perms:
        expect(list(perm) == sigma, "braid permutation")


def check_pd(case: Case, text: str) -> None:
    crossings, labels_ok, traced = oracle.pd_properties(text)
    expect(crossings == oracle.twist_crossings(case.rows), "PD crossing count")
    expect(labels_ok, "PD labels 1..2C each appear twice")
    expect(traced == case.link.count, "PD traced components")


def check_svg(case: Case, data: bytes, path) -> None:
    root = ET.fromstring(data)
    ns = "{http://www.w3.org/2000/svg}"
    boxes = [e for e in root.iter(ns + "rect") if e.get("class") == "box"]
    expect(len(boxes) == case.boxes, "one SVG box per box")
    lines = [e for e in root.iter(ns + "polyline") if e.get("class") == "path"]
    expect(len(lines) == (path is not None), "SVG path overlay")
    if path is not None:
        expect(len(lines[0].get("points").split()) == case.m + 2, "SVG path points")


def check_ascii(case: Case, data: bytes, path) -> None:
    text = data.decode()
    lines = text.rstrip("\n").split("\n")
    header = path is not None
    expect(len(lines) == header + 2 * case.m + 3, "ASCII line count")
    if header:
        expect(lines[0] == "path: (" + ", ".join(map(str, path)) + ")", "ASCII header")
    expect(text.count("[") == case.boxes, "one ASCII box per box")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int, root: str, workdir: str) -> None:
        self.seed, self.root, self.workdir = seed, root, workdir

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + parts)))

    def setup(self, layers) -> None:
        """Build fixed inputs and warm up; untimed, but counted in setup_s."""

    def round(self, r: int) -> Iterator[Op]:
        raise NotImplementedError

    def layer_cases(self) -> list[Case]:
        """Inputs of the traced run's layer pass: one round's diagrams."""
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """Peak resident set of the processes that ran the program so far."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        """Stop whatever the workload started."""

    def cli_argvs(self) -> list[list[str]]:
        """Argument lists for the traced run's in-process ``cli.main`` pass."""
        out = []
        for k, case in enumerate(self.layer_cases()):
            path = os.path.join(self.workdir, f"layer{k}.json")
            with open(path, "w") as f:
                f.write(case.text)
            out += [["validate", path], ["info", path]]
        return out


class DistinctLadder(Workload):
    """A ladder of shapes; every operation gets a diagram never seen before."""

    SHAPES: tuple = ()

    def cases(self, r: int, seen: set[str]) -> Iterator[Case]:
        for k, (n, m, kind) in enumerate(self.SHAPES):
            attempt = 0
            while True:
                rng = self.rng(r, k, attempt)
                case = Case(rng, n, m, kind.split("+")[0], meridian="+meridian" in kind)
                if case.digest not in seen:
                    break
                attempt += 1
            seen.add(case.digest)
            yield case

    def setup(self, layers) -> None:
        self.seen: set[str] = set()
        warm = [Case(self.rng("warm", k), n, 5, kind) for k, (n, kind) in
                enumerate(((5, "valid"), (5, "rational"), (2, "valid")))]
        for case in warm:
            if self.fits(case):
                self.op(case).run(layers)

    def fits(self, case: Case) -> bool:
        return True

    def round(self, r: int) -> Iterator[Op]:
        for case in self.cases(r, self.seen):
            yield self.op(case)

    def layer_cases(self) -> list[Case]:
        return list(self.cases(0, set()))


class CertifyLadder(DistinctLadder):
    """Distinct diagrams from (15, 15) to (200, 201) through the certificate
    path.  Count shares put the median inside the (15, 15) class; time is
    carried by the large shapes."""

    name = "certify_ladder"
    SHAPES = (
        (200, 201, "valid"),
        (100, 101, "valid"), (100, 101, "rational"),
        (50, 51, "valid"), (50, 51, "rational"), (50, 51, "loops"),
        (50, 51, "interior_zero"),
        (15, 15, "valid"), (15, 15, "valid"), (15, 15, "valid"), (15, 15, "valid"),
        (15, 15, "valid+meridian"), (15, 15, "interior_zero"), (15, 15, "small_end"),
        (15, 15, "relaxed"), (15, 15, "rational"), (15, 15, "rational"),
        (15, 15, "loops"), (15, 15, "loops"),
        (2, 15, "valid"), (15, 1, "valid"),
    )

    def op(self, case: Case) -> Op:
        def run(L):
            d = L.diagram_parse(case.text)
            report = L.diagram_hypotheses(d)
            cert = L.certificates_json(L.certificates_certify(d, None, case.mode))
            haken = L.surgery_haken(d, L.surgery_parse_slopes(case.slopes))
            return report, cert, L.surgery_haken_json(haken)

        def check(out):
            report, cert, haken = out
            check_hypothesis_report(case, report)
            check_certificate(case, cert)
            check_haken(case, haken)
            return True

        return Op(run, check, case.label)


class ExportLadder(DistinctLadder):
    """Distinct all-twist diagrams from (15, 15) to (100, 101) through braid
    words, permutations, PD codes and both renders."""

    name = "export_ladder"
    SHAPES = ((100, 101, "valid"),) + ((50, 51, "valid"),) * 3 + ((15, 15, "valid"),) * 18

    def fits(self, case: Case) -> bool:
        return case.twist and case.n >= 3

    def op(self, case: Case) -> Op:
        path = case.leftmost

        def run(L):
            d = L.diagram_parse(case.text)
            word, text = L.export_braid_word(d)
            return (text, L.export_word_permutation(word), L.topology_braid_permutation(d),
                    L.export_pd_code(d), L.render_svg(d, path), L.render_ascii(d, path))

        def check(out):
            text, wperm, bperm, pd, svg, asc = out
            expect(text == oracle.braid_text(case.rows), "braid word")
            check_permutation(case, wperm, bperm)
            check_pd(case, pd)
            check_svg(case, svg, path)
            check_ascii(case, asc, path)
            return True

        return Op(run, check, case.label)


class PathCensus(Workload):
    """A few diagrams, every allowable path of each: decompose and surface
    invariants per path, plus one enumeration per diagram."""

    name = "path_census"
    SHAPES = ((4, 15, "valid"), (8, 11, "loops"), (16, 9, "valid"),
              (24, 9, "loops"), (40, 7, "rational"))

    def setup(self, layers) -> None:
        self.cases = [Case(self.rng(k), n, m, kind) for k, (n, m, kind) in enumerate(self.SHAPES)]
        self.diagrams = [layers.diagram_parse(c.text) for c in self.cases]
        self.paths = [list(oracle.enumerate_paths(c.n, c.m)) for c in self.cases]
        for case, d, paths in zip(self.cases, self.diagrams, self.paths):
            expect(len(paths) == oracle.path_count(case.n, case.m), "oracle path count")
            layers.surfaces_invariants(layers.surfaces_decompose(d, paths[0]))

    def layer_cases(self) -> list[Case]:
        return self.cases

    def round(self, r: int) -> Iterator[Op]:
        for case, d, paths in zip(self.cases, self.diagrams, self.paths):
            yield self.enumerate_op(case, d, paths)
            for entries in paths:
                yield self.path_op(case, d, entries)

    def enumerate_op(self, case, d, paths) -> Op:
        def run(L):
            return L.paths_enumerate(d), L.paths_count(case.n, case.m)

        def check(out):
            enumerated, count = out
            expect(len(enumerated) == len(paths) == oracle.path_count(case.n, case.m) == count,
                   "enumerated path count")
            expect([p.entries for p in enumerated] == paths, "enumerated paths, in order")
            return True

        return Op(run, check, case.label + ".enumerate")

    def path_op(self, case, d, entries) -> Op:
        def run(L):
            dec = L.surfaces_decompose(d, entries)
            return dec, L.surfaces_invariants(dec)

        def check(out):
            dec, inv = out
            crossing = case.sides.crossing(entries)
            left, right = case.sides.beside(entries)
            expect(list(dec.crossing) == crossing, "crossed components")
            expect(list(dec.left.loop_components) == left
                   and list(dec.right.loop_components) == right, "components beside")
            expect(set(crossing) | set(left) | set(right) == set(range(case.link.count))
                   and not set(left) & set(right), "crossed, left, right partition")
            inside = sum(entries)
            expect(len(dec.left.boxes) == inside
                   and len(dec.right.boxes) == case.boxes - inside, "boxes per side")
            expect(dec.left.arc_count == dec.right.arc_count == (case.m + 1) // 2, "arcs per side")
            check_surfaces([s.to_dict() for s in inv], case.m, len(left), len(right))
            return True

        return Op(run, check, case.label)


# --- cli_session -----------------------------------------------------------

README_KNOT = {"n": 3, "m": 3, "rows": [[3, 3], [3, 3, 3], [3, 3]]}


class CliSession(Workload):
    """One ``python -m platsurf.cli`` child per operation, all eight
    subcommands, inputs no larger than (15, 15), malformed input included.

    Three operations should exit 2 and today exit 1 with a traceback,
    because ``cli.main`` catches only ``PlatError``: a 5000-digit twist
    (``ValueError`` from the int-string limit), JSON nested 200 000 deep
    (``RecursionError``) and ``certify --out`` into a missing directory
    (``FileNotFoundError``).  Their inputs do not depend on the seed; they
    count as failed until the CLI maps them to 2.
    """

    name = "cli_session"
    in_process = False
    children_maxrss_kb = 0
    spawner: subprocess.Popen | None = None

    def setup(self, layers) -> None:
        rng = self.rng("inputs")
        self.files: dict[str, Case] = {}
        spec = {
            "valid": (15, 15, "valid"), "zero": (9, 9, "interior_zero"),
            "small": (9, 9, "small_end"), "relaxed": (9, 9, "relaxed"),
            "bridge": (2, 9, "valid"), "single": (9, 1, "valid"),
            "caps": (9, 9, "loops"), "list": (4, 9, "valid"),
        }
        for key, (n, m, kind) in spec.items():
            self.files[key] = Case(rng, n, m, kind)
        self.files["knot"] = Case(rng, 3, 3, rows=README_KNOT["rows"])
        for key, case in self.files.items():
            self.write(key + ".json", case.text)
        self.write("badjson.json", '{"n": 3, "m": 3, "rows": [[3, 3], [3, 3, 3], [3, 3]')
        self.write("evenm.json", json.dumps({"n": 3, "m": 4, "rows": [[3, 3], [3, 3, 3]] * 2}))
        self.write("bigint.json", '{"n": 3, "m": 3, "rows": [[3, 3], [3, 3, 3], [3, %s]]}'
                   % ("7" * 5000))
        self.write("deep.json", "[" * 200_000 + "]" * 200_000)
        self.argv = self.session(rng)
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(self.root, "bench", "spawner.py")],
            env=dict(os.environ, PYTHONPATH=os.path.join(self.root, "src")), cwd=self.root,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.spawn(["random", "--n", "3", "--m", "3", "--seed", "0"])  # warm the caches

    def write(self, name: str, text: str) -> None:
        with open(os.path.join(self.workdir, name), "w") as f:
            f.write(text)

    def file(self, key: str) -> str:
        return os.path.join(self.workdir, key + ".json")

    def spawn(self, argv) -> dict:
        """Run one CLI command through the spawner; its reply (see spawner.py)."""
        self.spawner.stdin.write(json.dumps(
            {"argv": [sys.executable, "-m", "platsurf.cli", *argv]}) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        self.children_maxrss_kb = reply["children_maxrss_kb"]
        return reply

    def peak_rss_kb(self) -> int:
        return self.children_maxrss_kb

    def close(self) -> None:
        if self.spawner is None:
            return
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()

    def session(self, rng) -> list[tuple]:
        """(argv, expected exit code, check of stdout or None, known fault)."""
        F, f = self.files, self.file
        valid, caps = F["valid"], F["caps"]
        chosen = random_path(rng, valid.n, valid.m)
        bad_path = list(valid.leftmost)
        bad_path[1] = 3  # row 1 -> 2 may step from 1 only to 1 or 2
        out_cert = os.path.join(self.workdir, "out-cert.json")
        out_svg = os.path.join(self.workdir, "out.svg")
        missing = os.path.join(self.workdir, "missing", "cert.json")
        wrong_arity = ",".join(["3/1"] * (valid.link.count + 1))
        seed = str(rng.randrange(10**6))
        cert = lambda case, path=None: lambda out: check_certificate(case, out, path)
        joined = lambda p: ",".join(map(str, p))
        return [
            (["validate", f("valid")], 0, self.validated(valid), False),
            (["validate", f("zero")], 1, self.validated(F["zero"]), False),
            (["validate", f("small")], 1, self.validated(F["small"]), False),
            (["validate", f("relaxed"), "--relaxed"], 0, self.validated(F["relaxed"], True), False),
            (["validate", f("bridge")], 1, self.validated(F["bridge"]), False),
            (["info", f("valid")], 0, self.info(valid), False),
            (["info", f("caps")], 0, self.info(caps), False),
            (["paths", f("list")], 0, self.listed(F["list"]), False),
            (["paths", f("valid"), "--count"], 0,
             lambda out: expect(int(out) == oracle.path_count(valid.n, valid.m), "path count"), False),
            (["paths", f("bridge")], 1, lambda out: expect(out == "", "no paths listed"), False),
            (["certify", f("valid")], 0, cert(valid), False),
            (["certify", f("zero")], 1, cert(F["zero"]), False),
            (["certify", f("relaxed"), "--mode", "relaxed"], 0, cert(F["relaxed"]), False),
            (["certify", f("single"), "--mode", "composite"], 0, cert(F["single"]), False),
            (["certify", f("valid"), "--path", joined(chosen)], 0, cert(valid, path=chosen), False),
            (["certify", f("valid"), "--path", joined(bad_path)], 2, None, False),
            (["certify", f("caps")], 0, cert(caps), False),
            (["certify", f("valid"), "--out", out_cert], 0, self.written(out_cert, cert(valid)), False),
            (["surgery", f("valid"), "--slopes=" + valid.slopes],
             0 if oracle.haken_certified(valid.n, valid.m, valid.rows, valid.slope_pairs,
                                         valid.uncovered()) else 1,
             lambda out: check_haken(valid, out), False),
            (["surgery", f("valid"), "--slopes=" + wrong_arity], 2, None, False),
            (["export", f("valid"), "--format", "braid"], 0,
             lambda out: expect(out == oracle.braid_text(valid.rows) + "\n", "braid word"), False),
            (["export", f("valid"), "--format", "pd"], 0,
             lambda out: check_pd(valid, out.rstrip("\n")), False),
            (["export", f("valid"), "--format", "json"], 0,
             lambda out: expect(json.loads(out) == json.loads(valid.text), "JSON round trip"), False),
            (["export", f("caps"), "--format", "braid"], 2, None, False),
            (["render", f("valid"), "--path", joined(valid.leftmost)], 0,
             lambda out: check_svg(valid, out.encode(), valid.leftmost), False),
            (["render", f("valid"), "--format", "ascii", "--path", joined(chosen)], 0,
             lambda out: check_ascii(valid, out.encode(), chosen), False),
            (["render", f("caps"), "--out", out_svg], 0,
             self.written(out_svg, lambda out: check_svg(caps, out.encode(), None)), False),
            (["random", "--n", "5", "--m", "7", "--seed", seed], 0, self.generated(5, 7), False),
            (["validate", f("badjson")], 2, None, False),
            (["validate", f("evenm")], 2, None, False),
            (["certify", f("bigint")], 2, None, True),
            (["validate", f("deep")], 2, None, True),
            (["certify", f("knot"), "--out", missing], 2, None, True),
        ]

    def validated(self, case: Case, relaxed=False):
        def check(out):
            report = json.loads(out)
            hyp = oracle.hypotheses(case.n, case.m, case.rows, relaxed)
            expect(report["passed"] == hyp["passed"] and report["two_bridge"] == hyp["two_bridge"],
                   "validate verdict")
            expect(report["witnesses"] == {"interior_zero": hyp["interior_zero"],
                                           "small_ends": hyp["small_ends"]}, "validate witnesses")
        return check

    def info(self, case: Case):
        def check(out):
            want = [
                f"n: {case.n} ({2 * case.n} strands)", f"m: {case.m} rows",
                f"components: {case.link.count}",
                f"twist crossings: {sum(abs(v) for r in case.rows for v in r if isinstance(v, int))}",
                f"allowable paths: {oracle.path_count(case.n, case.m)}",
                f"tubed surface genus: {(case.m + 1) // 2}",
            ]
            expect(out.splitlines() == want, "info lines")
        return check

    def listed(self, case: Case):
        def check(out):
            got = [tuple(int(a) for a in line.split(",")) for line in out.splitlines()]
            expect(got == oracle.enumerate_paths(case.n, case.m), "listed paths")
        return check

    def written(self, path: str, check):
        def check_file(out):
            expect(out == "", "nothing on stdout with --out")
            with open(path) as f:
                check(f.read())
            os.remove(path)
        return check_file

    @staticmethod
    def generated(n, m):
        def check(out):
            obj = json.loads(out)
            expect(obj["n"] == n and obj["m"] == m, "random shape")
            expect(oracle.is_all_twist(obj["rows"])
                   and oracle.hypotheses(n, m, obj["rows"])["passed"], "random is strict-valid")
        return check

    def round(self, r: int) -> Iterator[Op]:
        for argv, code, check, known in self.argv:
            yield self.op(argv, code, check, known)

    def op(self, argv, code, check, known) -> Op:
        def verify(reply):
            if known:
                return reply["code"] == code
            expect(reply["code"] == code,
                   f"{argv[0]} exit {reply['code']}, expected {code}: {reply['stderr'][-300:]!r}")
            if check is not None:
                check(reply["stdout"])
            return True

        return Op(lambda L: self.spawn(argv), verify, argv[0])

    def layer_cases(self) -> list[Case]:
        return list(self.files.values())

    def cli_argvs(self) -> list[list[str]]:
        return [argv for argv, _, _, _ in self.argv]


WORKLOADS = {w.name: w for w in (CliSession, CertifyLadder, PathCensus, ExportLadder)}


def make_workdir(root: str) -> str:
    path = os.path.join(root, "bench", "results", f"work-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
