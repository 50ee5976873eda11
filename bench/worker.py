"""Run one workload in a fresh process and print its figures as JSON.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
system-wide monotonic clock reading taken just before this process was
started, so set-up time counts the interpreter start too.

An untraced run sets up, then repeats whole rounds of the workload until
``--seconds`` have passed.  Each operation is timed alone; checking its
output against the oracle happens outside that interval.  Every time is
scaled to the reference speed (``reference.py``), sampled between
operations.  A traced run alternates untraced and traced rounds, so the
cost of tracing can be read off one process, then makes one traced layer
pass over one round's inputs to time every layer separately.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from typing import NamedTuple

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from layers import Layers, topology_cache  # noqa: E402
from reference import NOMINAL_S, Speed  # noqa: E402
from spans import Tracer, median  # noqa: E402

# sample the reference again once the operations since the last sample took this long
SAMPLE_EVERY_S = 0.005
# the layer pass enumerates the first few inputs with at most this many paths
ENUMERATE_LIMIT, ENUMERATE_INPUTS = 200_000, 3
# the retained-memory probe certifies the largest layer input up to this size
RETAINED_MAX_BOXES = 100 * 101


class OpRecord(NamedTuple):
    label: str
    seconds: float  # unscaled
    block: int  # operations between the same two reference samples
    round: int
    traced: bool
    passed: bool
    op_id: int


class Rounds:
    """Timings and verdicts of the operations of a run.

    The reference is sampled between operations, at least every
    ``SAMPLE_EVERY_S`` of operation time.  The operations between two
    samples form a block, and ``finish`` scales each block by the two
    samples on either side of it: the speed the host had around it.
    """

    def __init__(self, speed: Speed) -> None:
        self.attempted = self.failed = 0
        self.ops: list[OpRecord] = []
        self.mismatches: list[str] = []
        self.faults: list[str] = []
        self.rss_kb = 0
        self.rounds = 0
        self.speed = speed
        self.first_sample = len(speed.samples)
        speed.sample()

    def finish(self) -> None:
        self.speed.sample()
        self.speed.sample()
        samples = self.speed.samples[self.first_sample:]
        self.factors = [NOMINAL_S / statistics.median(samples[max(0, j - 1):j + 3])
                        for j in range(len(samples))]
        self.times = [op.seconds * self.factors[op.block] for op in self.ops]
        self.raw_total = sum(op.seconds for op in self.ops)

    def ok_times(self, traced: bool | None = None) -> list[float]:
        return [t for op, t in zip(self.ops, self.times)
                if op.passed and (traced is None or op.traced == traced)]


def run_rounds(wl, seconds: float, speed: Speed, layers_for_round,
               tracer: Tracer | None = None, gclock: GcClock | None = None) -> Rounds:
    res = Rounds(speed)
    clock = time.perf_counter
    start = time.monotonic()
    op_span = tracer.wrap("op." + wl.name, lambda run, L: run(L)) if tracer else None
    block, since_sample = 0, 0.0
    while True:
        L, traced = layers_for_round(res.rounds)
        for op in wl.round(res.rounds):
            res.attempted += 1
            if traced:
                tracer.op, gclock.on = res.attempted, True
            t = clock()
            try:
                out = op_span(op.run, L) if traced else op.run(L)
            except Exception as e:  # a crash of the program is a failed operation
                out, passed = None, False
                res.faults.append(f"{op.label}: {type(e).__name__}: {e}"[:300])
            dt = clock() - t
            if traced:
                gclock.on = False
            op_block = block
            since_sample += dt
            if since_sample >= SAMPLE_EVERY_S:
                speed.sample()
                block, since_sample = block + 1, 0.0
            if out is not None:
                try:
                    passed = op.check(out)
                except workloads.Mismatch as e:
                    res.mismatches.append(f"{op.label}: {e}")
                    passed = True
                except Exception as e:  # an output the checks cannot even read
                    res.mismatches.append(f"{op.label}: unreadable: {type(e).__name__}: {e}"[:300])
                    passed = True
                if not passed:
                    res.faults.append(f"{op.label}: known fault")
            res.failed += not passed
            res.ops.append(OpRecord(op.label, dt, op_block, res.rounds, traced, passed,
                                    res.attempted))
            del out
        res.rounds += 1
        if res.rounds == 1:
            res.rss_kb = wl.peak_rss_kb()
        # a traced run needs a traced round and an untraced one after the first
        if time.monotonic() - start >= seconds and (tracer is None or res.rounds >= 3):
            res.finish()
            return res


def end_to_end(res: Rounds) -> dict:
    return {
        "ops_per_s": (res.attempted - res.failed) / sum(res.times),
        "latency_p50_ms": statistics.median(res.ok_times()) * 1e3,
        "peak_rss_mb": res.rss_kb / 1024,
    }


def reference_figures(res: Rounds, speed: Speed) -> dict:
    """Figures kept in the result file but not gated."""
    ok = sorted(res.ok_times(False))
    groups: dict[str, list[float]] = {}
    for op, t in zip(res.ops, res.times):
        if op.passed and not op.traced:
            groups.setdefault(op.label, []).append(t)
    return {
        "rounds": res.rounds,
        "latency_p90_ms": ok[int(0.9 * (len(ok) - 1))] * 1e3,
        "p50_ms_by_class": {k: statistics.median(v) * 1e3 for k, v in sorted(groups.items())},
        "unscaled_ops_per_s": (res.attempted - res.failed) / res.raw_total,
        "reference_ms": {"median": statistics.median(speed.samples) * 1e3,
                         "min": min(speed.samples) * 1e3, "max": max(speed.samples) * 1e3,
                         "samples": len(speed.samples)},
        "mismatches": res.mismatches[:20],
        "faults": sorted(set(res.faults))[:20],
    }


# ---------------------------------------------------------------------------
# traced run


class GcClock:
    """Wall time spent in garbage collection while ``on`` is set."""

    def __init__(self) -> None:
        self.on = False
        self.total = 0.0
        self._start = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self.on:
            self.total += time.perf_counter() - self._start


def layer_pass(cases, L, tracer: Tracer, speed: Speed) -> dict:
    """Call every layer once per input; return counts measured on the way."""
    cache = topology_cache()
    counts: dict[str, list[float]] = {"per_box_us": [], "segments": [], "components": [],
                                      "enumerated": [], "pd_crossings": []}
    for k, case in enumerate(cases):
        speed.sample()
        tracer.op, first = -1 - k, len(tracer.spans)
        d = L.diagram_parse(case.text)
        L.diagram_hypotheses(d)
        boxes = L.tangles_box_slopes(d)
        box_span = tracer.spans[-1]
        if cache is not None:
            cache.cache_clear()
        topo = L.topology_build(d)
        L.topology_lookup(d)
        counts["segments"].append(sum(len(c) for c in topo.components))
        counts["components"].append(topo.component_count)
        if not case.has_caps:
            L.topology_braid_permutation(d)
        L.certificates_json(L.certificates_certify(d, None, case.mode))
        L.surgery_haken_json(L.surgery_haken(d, L.surgery_parse_slopes(case.slopes)))
        path = case.leftmost
        if case.n >= 3:
            L.surgery_coverage(d)
            L.paths_check_allowable(d, path)
            L.surfaces_invariants(L.surfaces_decompose(d, path))
            if (L.paths_count(case.n, case.m) <= ENUMERATE_LIMIT
                    and len(counts["enumerated"]) < ENUMERATE_INPUTS):
                counts["enumerated"].append(len(L.paths_enumerate(d)))
        if case.twist and oracle.twist_crossings(case.rows):
            word, _ = L.export_braid_word(d)
            L.export_word_permutation(word)
            counts["pd_crossings"].append(L.export_pd_code(d).count("X("))
        L.render_svg(d, path)
        L.render_ascii(d, path)
        speed.sample()
        tracer.rescale(first, speed.factor(2))
        _, start, end, _, _, scale = box_span
        if boxes:
            counts["per_box_us"].append((end - start) * scale / boxes * 1e6)
    return counts


def retained_mb(cases, L) -> float:
    """Memory still held after one certify of a fresh diagram, by tracemalloc."""
    fitting = [c for c in cases if c.n >= 3 and c.boxes <= RETAINED_MAX_BOXES]
    case = max(fitting, key=lambda c: c.boxes)
    cache = topology_cache()
    if cache is not None:
        cache.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        d = L.diagram_parse(case.text)
        cert = L.certificates_certify(d, None, case.mode)
        del d, cert
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - base) / 2**20
    finally:
        tracemalloc.stop()


def cli_pass(argvs, L, tracer: Tracer, speed: Speed) -> None:
    """In-process ``cli.main`` over argument lists; output goes to buffers."""
    for argv in argvs:
        speed.sample()
        first = len(tracer.spans)
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                L.cli_main(argv)
            except (Exception, SystemExit):  # the known faults raise here
                pass
        speed.sample()
        tracer.rescale(first, speed.factor(2))


def child_ms(code: str, speed: Speed, repeats: int = 5) -> tuple[float, float]:
    """Scaled median wall time of ``python -c code``, and of the time it prints."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    walls, printed = [], []
    for _ in range(repeats):
        speed.sample()
        t = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             stdout=subprocess.PIPE, check=True, timeout=60).stdout
        wall = time.perf_counter() - t
        speed.sample()
        factor = speed.factor(2)
        walls.append(wall * factor)
        if out.strip():
            printed.append(float(out) * factor)
    return median(walls) * 1e3, median(printed) * 1e3


def tracing_overhead(res: Rounds) -> float:
    """Traced over untraced time: the median, over size classes, of the
    ratio of the two kinds of rounds' medians in that class, less one.
    The first round, which warms what the others find warm, is left out."""
    on: dict[str, list[float]] = {}
    off: dict[str, list[float]] = {}
    for op, t in zip(res.ops, res.times):
        if op.passed and op.round > 0:
            (on if op.traced else off).setdefault(op.label, []).append(t)
    return median([median(on[k]) / median(off[k]) for k in on if k in off]) - 1


def traced_run(wl, plain: Layers, seconds: float, speed: Speed, spans_path: str) -> dict:
    tracer = Tracer()
    traced = Layers(tracer)
    cache = topology_cache()
    gclock, gc_cli = GcClock(), GcClock()
    gc.callbacks.extend((gclock, gc_cli))
    info0 = cache.cache_info() if cache else None

    def layers_for_round(r):
        return (traced, True) if r % 2 else (plain, False)

    res = run_rounds(wl, seconds, speed, layers_for_round, tracer, gclock)
    op_factor = {op.op_id: res.factors[op.block] for op in res.ops}
    for span in tracer.spans:
        span[5] = op_factor[span[3]]
    round_spans = len(tracer.spans)
    info1 = cache.cache_info() if cache else None
    t_on = res.ok_times(True)

    cases = wl.layer_cases()
    counts = layer_pass(cases, traced, tracer, speed)
    calls = tracer.durations(round_spans)

    argvs = wl.cli_argvs()
    info2 = cache.cache_info() if cache else None
    gc_cli.on = True
    cli_pass(argvs, traced, tracer, speed)
    gc_cli.on = False
    info3 = cache.cache_info() if cache else None
    gc.callbacks.remove(gclock)
    gc.callbacks.remove(gc_cli)
    cli_calls = tracer.durations(len(tracer.spans) - len(argvs))["cli.main"]

    retained = retained_mb(cases, plain)
    start_ms, _ = child_ms("pass", speed)
    _, import_ms = child_ms(
        "import time; t = time.perf_counter(); import platsurf.cli; "
        "print(time.perf_counter() - t)", speed)

    def ratio(before, after):
        hits, misses = after.hits - before.hits, after.misses - before.misses
        return hits / (hits + misses) if hits + misses else None

    hit_ratio = -1.0  # no cache_info() to read
    if cache is not None:
        # the timed rounds, unless their operations ran in CLI children
        hit_ratio = ratio(info0, info1) if wl.in_process else None
        hit_ratio = ratio(info2, info3) if hit_ratio is None else hit_ratio
    # a CLI child's collections are out of sight, so cli_session uses the in-process pass
    gc_pause = gclock.total / len(t_on) if wl.in_process else gc_cli.total / len(argvs)

    def ms(name, unit=1e3):
        return median(calls.get(name, [])) * unit

    metrics = {
        "diagram.parse_ms": ms("diagram.parse"),
        "diagram.hypotheses_ms": ms("diagram.hypotheses"),
        "tangles.box_slope_us": median(counts["per_box_us"]),
        "topology.build_cold_ms": ms("topology.build"),
        "topology.lookup_us": ms("topology.lookup", 1e6),
        "topology.retained_mb": retained,
        "topology.cache_hit_ratio": hit_ratio,
        "topology.braid_permutation_ms": ms("topology.braid_permutation"),
        "topology.segments": median(counts["segments"]),
        "topology.components": median(counts["components"]),
        "paths.enumerate_ms": ms("paths.enumerate"),
        "paths.enumerated": median(counts["enumerated"]),
        "paths.check_allowable_us": ms("paths.check_allowable", 1e6),
        "surfaces.decompose_us": ms("surfaces.decompose", 1e6),
        "surfaces.invariants_us": ms("surfaces.invariants", 1e6),
        "certificates.certify_warm_ms": ms("certificates.certify"),
        "certificates.json_ms": ms("certificates.json"),
        "surgery.haken_warm_ms": ms("surgery.haken"),
        "surgery.coverage_ms": ms("surgery.coverage"),
        "export.braid_word_ms": ms("export.braid_word"),
        "export.word_permutation_ms": ms("export.word_permutation"),
        "export.pd_code_ms": ms("export.pd_code"),
        "export.pd_crossings": median(counts["pd_crossings"]),
        "render.svg_ms": ms("render.svg"),
        "render.ascii_ms": ms("render.ascii"),
        "cli.import_ms": import_ms,
        "cli.main_ms": median(cli_calls) * 1e3,
        "interpreter.start_ms": start_ms,
        "interpreter.gc_pause_ms": gc_pause * 1e3,
        "trace.overhead_pct": tracing_overhead(res) * 100,
        "trace.spans": len(tracer.spans),
    }

    # self time per traced operation, by layer, and the layer pass by shape
    breakdown = tracer.self_times(0, round_spans)
    shapes: dict[str, dict[str, list[float]]] = {}
    for name, start, end, op, _, scale in tracer.spans[round_spans:]:
        if op < 0:
            label = cases[-1 - op].label
            shapes.setdefault(label, {}).setdefault(name, []).append((end - start) * scale)
    tracer.write(spans_path)
    extra = reference_figures(res, speed)
    extra.update({
        "op_self_ms": {k: v / len(t_on) * 1e3 for k, v in sorted(breakdown.items())},
        "layer_ms_by_shape": {s: {k: median(v) * 1e3 for k, v in sorted(d.items())}
                              for s, d in shapes.items()},
        "spans_file": os.path.relpath(spans_path, ROOT),
    })
    return {"attempted": res.attempted, "failed": res.failed, "correct": not res.mismatches,
            "metrics": metrics, "extra": extra}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workdir = workloads.make_workdir(ROOT)
    speed = Speed()
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
    try:
        plain = Layers()
        wl.setup(plain)
        gc.collect()
        setup_raw = time.monotonic() - args.t0
        for _ in range(5):
            speed.sample()
        setup = {"setup_s": setup_raw * speed.factor(5), "setup_unscaled_s": setup_raw}
        if args.setup_only:
            result = setup
        elif args.trace:
            spans_path = os.path.join(
                ROOT, "bench", "results", f"spans-{args.workload}-seed{args.seed}.jsonl")
            result = dict(traced_run(wl, plain, args.seconds, speed, spans_path), **setup)
        else:
            res = run_rounds(wl, args.seconds, speed, lambda r: (plain, False))
            result = {"attempted": res.attempted, "failed": res.failed,
                      "correct": not res.mismatches, "metrics": end_to_end(res),
                      "extra": reference_figures(res, speed), **setup}
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
