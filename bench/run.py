"""The platsurf benchmark: one workload per run, figures as one JSON line.

Run from the root of a checkout:

    python3 bench/run.py --workload certify_ladder --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --compare parent.jsonl change.jsonl

A run starts the workload in fresh processes (``worker.py``): first
``SETUP_SAMPLES - 1`` processes that only set up, then one that sets up
and measures.  ``setup_s`` is the median set-up time of all of them.
With ``--trace 0`` the last line printed holds the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  Every run also
appends one record, with the git commit, Python version and CPU count, to
the result file (``--out``, default ``bench/results/runs.jsonl``).

``--compare`` reads two such result files (the parent's and the
change's) and prints, per workload and end-to-end metric, both medians
and quartiles, the share of seed-paired runs the change wins, and a
verdict against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
RUN_LIMIT_S = 175  # a run must end within 180 s


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def git_commit(root: str) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def worker(args, root: str, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    # a session of its own, so a worker that overruns goes down with its children
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=root, env=env,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"bench: the {args.workload} worker ran past the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"bench: the {args.workload} worker exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def measure(args, root: str) -> int:
    spec = load_spec(root)
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:  # set-up time is an end-to-end metric only
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(worker(args, root, True, deadline)["setup_s"])
    result = worker(args, root, False, deadline)
    setups.append(result["setup_s"])
    measured = dict(result["metrics"], setup_s=statistics.median(setups))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured[m["name"]]
        if not isinstance(value, (int, float)):
            raise SystemExit(f"bench: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}

    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups, commit=git_commit(root),
                  python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
                  time=time.strftime("%Y-%m-%dT%H:%M:%S"), **result["extra"])
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as f:
        f.write(json.dumps(record) + "\n")
    for problem in result["extra"]["mismatches"]:
        print("mismatch:", problem, file=sys.stderr)
    print(json.dumps(line))
    return 0


# ---------------------------------------------------------------------------
# compare


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def read_runs(path: str) -> dict:
    """End-to-end records by workload: {workload: [record, ...]}."""
    runs: dict[str, list[dict]] = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("trace") == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def compare(parent_path: str, change_path: str, root: str) -> int:
    spec = load_spec(root)
    parent, change = read_runs(parent_path), read_runs(change_path)
    print(f"{'workload':16} {'metric':16} {'parent q1/med/q3':>28} {'change q1/med/q3':>28}"
          f" {'wins':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_fail = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            pq, cq = quartiles(pv), quartiles(cv)
            by_seed = {r["seed"]: r["metrics"][name]["value"] for r in p_runs}
            pairs = [(by_seed[r["seed"]], r["metrics"][name]["value"])
                     for r in c_runs if r["seed"] in by_seed]
            wins = sum((c < p) if lower else (c > p) for p, c in pairs)
            win_rate = wins / len(pairs) if pairs else float("nan")
            spread = (pq[2] - pq[0]) / pq[1]
            shift = (cq[1] - pq[1]) / pq[1] * (1 if lower else -1)  # > 0 is worse
            all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
            if name != "setup_s" and spread > m["bound"] and not all_better:
                verdict = f"unresolved (parent spread {spread:.1%} > bound {m['bound']:.0%})"
            elif shift > m["bound"]:
                verdict = f"REGRESSED by {shift:.1%} (bound {m['bound']:.0%})"
            elif shift < 0 and win_rate >= 0.9 and abs(cq[1] - pq[1]) > pq[2] - pq[0]:
                verdict = f"improved by {-shift:.1%}"
            else:
                verdict = f"no change shown ({-shift:+.1%})"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{workload:16} {name:16} {fmt(pq):>28} {fmt(cq):>28} {win_rate:>6.0%}  {verdict}")
        print(f"{workload:16} {'failed share':16} {p_fail:>28.4f} {c_fail:>28.4f}"
              f" {'':>6}  {'same' if p_fail == c_fail else 'DIFFERS'}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(BENCH, "results", "runs.jsonl"))
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "platsurf", "__init__.py")):
        print("bench: run from the root of a platsurf checkout (no src/platsurf here)",
              file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare, root)
    sys.path.insert(0, BENCH)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return measure(args, root)


if __name__ == "__main__":
    sys.exit(main())
