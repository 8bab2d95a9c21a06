"""Machine-speed probe: a fixed piece of CPU work timed on one core.

The virtual machines this benchmark runs on change speed by up to half
within seconds (other tenants share the host), and every timing of a
run moves with them.  ``run.py`` keeps one probe process on each of its
two cores for the whole run; each times a short slice of fixed work
every ``PERIOD_S``, and the run scales its timing metrics by the
slices' median over the same interval (see ``speed_factor``), so that
a change of the program shows and a change of the machine does not.
The probes take about 2% of each core.

The work mixes what the program does: a pure-Python integer loop (the
circuit and protocol code) and NumPy operations on small arrays (AES
blocks, NTT rows).  It uses nothing of the program, and it stays in the
core's own caches, so neither a change of the program nor the program's
use of the cache the cores share moves it.

Run as ``python3 perfbench/probe.py <core>``: pins itself to ``core``,
imports, prints ``ready``, then times one slice per period until a line
arrives on stdin, and prints the slices as one JSON list of
``[start, cpu_s]`` pairs (``start`` on the system-wide
``time.perf_counter`` clock).  A slice is timed in the probe's own CPU
time, so a slice the program preempts reads the same.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import sys
import time

import numpy as np

#: one slice per period on each core
PERIOD_S = 0.1
#: median CPU time of one slice on the reference machine: slices with
#: this median give a speed factor of exactly 1
REFERENCE_SLICE_S = 0.002

_TABLE = np.random.default_rng(0).permutation(256).astype(np.uint8)


def _slice() -> int:
    acc = 0
    for i in range(10000):
        acc = (acc * 31 + i) & 0xFFFF
    block = np.arange(16, dtype=np.uint8)
    rows = np.arange(512, dtype=np.int64)
    for _ in range(100):
        block = _TABLE[block] ^ block[::-1]
        rows = (rows * 3 + 7) % 12289
    return acc + int(block[0]) + int(rows[0])


def speed_factor(slices, t0: float, t1: float) -> float:
    """Reference slice time over the median time of the slices that
    started in ``[t0, t1)``: below 1 when the machine is slower than the
    reference.  A timing of that interval multiplied by it reads as on
    the reference machine."""
    times = [cpu for start, cpu in slices if t0 <= start < t1]
    if not times:
        raise ValueError("no probe slice in the interval")
    return REFERENCE_SLICE_S / statistics.median(times)


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    _slice()
    print("ready", flush=True)
    slices = []
    due = time.perf_counter()
    while True:
        left = due - time.perf_counter()
        if select.select([sys.stdin], [], [], max(0.0, left))[0]:
            break
        start, cpu = time.perf_counter(), time.process_time()
        _slice()
        slices.append((start, time.process_time() - cpu))
        due = max(due + PERIOD_S, time.perf_counter())
    print(json.dumps(slices), flush=True)


if __name__ == "__main__":
    main()
