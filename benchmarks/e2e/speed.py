"""Host-speed probe of the end-to-end benchmark.

    python3 speed.py FILE

Every 50 ms, on each usable CPU in turn, times a fixed pure-Python loop
by the CPU time it took and appends ``<perf_counter at start> <seconds>``
to *FILE*, until killed. On a machine shared with other tenants the
loop's time changes by up to ~1.8x from one second to the next, and the
benchmark's own timings move with it; ``run.py`` scales each timing by
the probe's median over that timing's interval.
"""

from __future__ import annotations

import itertools
import os
import sys
import time

PERIOD_S = 0.05
LOOP = 15_000


def spin(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def main(path: str) -> None:
    cpus = sorted(os.sched_getaffinity(0))
    with open(path, "a", buffering=1) as out:
        for k in itertools.count():
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            start = time.perf_counter()
            cpu = time.thread_time()
            spin(LOOP)
            out.write(f"{start} {time.thread_time() - cpu}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
