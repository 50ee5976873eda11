"""Spans recorded in the benchmark's own code, around calls into platsurf.

A span has a name, a start, an end, the operation that caused it, the
span it was opened inside and the host-speed factor current when it
opened (see ``reference.py``).  Spans are kept in memory and written out
when the run ends.  A span's self time is its duration minus the time
its child spans cover; both are reported scaled by the span's factor.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable


class Tracer:
    """Collects spans; ``wrap`` returns a traced version of a callable."""

    def __init__(self) -> None:
        # each span: [name, start, end, op, parent index or -1, scale]
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, self.op, open_[-1] if open_ else -1, 1.0])
            open_.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    def rescale(self, first: int, factor: float) -> None:
        """Set the host-speed factor of the spans from index ``first`` on."""
        for span in self.spans[first:]:
            span[5] = factor

    def durations(self, first: int = 0) -> dict[str, list[float]]:
        """Scaled seconds per call, by span name, for spans from index ``first`` on."""
        out: dict[str, list[float]] = {}
        for name, start, end, _, _, scale in self.spans[first:]:
            out.setdefault(name, []).append((end - start) * scale)
        return out

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Total scaled self time in seconds, by span name, over a range of spans."""
        chosen = self.spans[first:last]
        child = [0.0] * len(chosen)
        for name, start, end, _, parent, _ in chosen:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _, _, scale) in enumerate(chosen):
            out[name] = out.get(name, 0.0) + ((end - start) - child[k]) * scale
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, op, parent, scale in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "op": op,
                                    "parent": parent, "scale": scale}) + "\n")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
