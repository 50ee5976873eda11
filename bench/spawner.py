"""Start CLI children on request, from a process that stays small.

Linux charges a child's peak resident set with the size of the process
that started it, at the moment it execs.  Children started straight
from the benchmark worker, which holds the oracle and the inputs, would
all report the worker's size.  This process imports almost nothing, so
the peak it reports for its children is theirs.

Protocol, one JSON object per line: reads ``{"argv": [...]}`` on stdin,
runs it to completion and writes ``{"code", "stdout", "stderr",
"seconds", "children_maxrss_kb"}``.  The last field is the largest peak
of all children so far.  Exits when stdin closes.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv = json.loads(line)["argv"]
        start = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        seconds = time.perf_counter() - start
        reply = {
            "code": proc.returncode,
            "stdout": proc.stdout.decode("utf-8", "replace"),
            "stderr": proc.stderr.decode("utf-8", "replace"),
            "seconds": seconds,
            "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
