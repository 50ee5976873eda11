"""A fixed piece of pure-Python work that measures how fast the host runs now.

The machines this benchmark runs on share their cores, and the speed one
process sees drifts by a fifth within a minute.  Timing this function
between operations and scaling each operation's time by
``NOMINAL_S / reference time`` removes most of that drift: both slow down
together.  The result is a time "at the reference speed".

Do not change this function or ``NOMINAL_S``: figures of two commits can
be compared only when they were scaled by the same reference.
"""

from __future__ import annotations

import gc
import statistics
import time

NOMINAL_S = 0.001  # about the reference's median time when the benchmark was defined


def work() -> int:
    """Dict, list, tuple and int traffic, calls and loops, like the program's."""
    width, rows = 24, 13
    mate: dict[tuple[int, int], tuple[int, int]] = {}
    for g in range(rows):
        for x in range(0, width, 2):
            mate[(g, x)] = (g + 1, x + 1) if (g * x) % 3 else (g, x + 1)
    seen = [0] * (rows * width)
    total = 0
    for (g, x), (h, y) in sorted(mate.items()):
        k = (g * width + x) % len(seen)
        seen[k] += 1
        total += (h * 31 + y) ^ seen[k]
    parts = [str(v) for v in seen]
    return total + len(",".join(parts))


class Speed:
    """Reference samples; ``factor`` converts host time to reference time."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not change what this costs
        try:
            start = time.perf_counter()
            for _ in range(8):
                work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def factor(self, last: int) -> float:
        """The factor given by the median of the ``last`` samples."""
        return NOMINAL_S / statistics.median(self.samples[-last:])
