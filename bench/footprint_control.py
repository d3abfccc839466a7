"""Control for speed.py: does a child's memory footprint move its scaled time?

Run from the root of a checkout:

    python3 bench/footprint_control.py

One fixed amount of work, READS pseudo-random byte reads, runs in a child next
to the speed probe, over a heap that fits in the cache (SMALL_MIB) and over
one the size of oracle-deep's coset tables (LARGE_MIB), in REPEATS
back-to-back pairs.  Only the reads are timed; the heap is filled before.  If
the child's cache misses slowed the probe, the probe's rate would fall with
the large heap and the scaled/raw ratio with it, and memory-bound work would
be under-reported.  The host's speed changes in spells of seconds, so the
ratios are compared within each pair.  Prints, per heap, the medians of the
raw wall time, the scaled time and their ratio, then the quartiles of the
per-pair quotient (large-heap ratio / small-heap ratio), which is 1 when the
footprint does not move the scaling.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SMALL_MIB, LARGE_MIB = 1, 320
READS = 5_000_000
REPEATS = 12

CHILD = r"""
import sys
mib, reads = int(sys.argv[1]), int(sys.argv[2])
heap = bytearray(b"\1") * (mib << 20)
mask = (mib << 20) - 1
print("ready", flush=True)
i = total = 0
for _ in range(reads):
    i = (i * 1103515245 + 12345) & mask
    total += heap[i]
print(total, flush=True)
"""


def timed_reads(probe: SpeedProbe, mib: int) -> tuple:
    """(raw wall, scaled time) of the child's reads."""
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(mib), str(READS)],
                            stdout=subprocess.PIPE, text=True)
    try:
        proc.stdout.readline()
        before, t0 = probe.snapshot(), time.perf_counter()
        total = int(proc.stdout.readline())
        wall = time.perf_counter() - t0
        scaled = probe.scale(before, probe.snapshot(), wall)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if total != READS:
        raise RuntimeError(f"the child read {total} ones, not {READS}")
    return wall, scaled


def main() -> int:
    work = ROOT / ".bench_work" / f"control-{os.getpid()}"
    work.mkdir(parents=True)
    runs = {SMALL_MIB: [], LARGE_MIB: []}
    try:
        probe = SpeedProbe(work)
        try:
            for _ in range(REPEATS):
                for mib in runs:
                    runs[mib].append(timed_reads(probe, mib))
        finally:
            probe.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ratios = {mib: [s / w for w, s in pairs] for mib, pairs in runs.items()}
    print(f"{'heap MiB':>8} {'raw s':>8} {'scaled s':>9} {'scaled/raw':>10}")
    for mib, pairs in runs.items():
        print(f"{mib:8} {statistics.median(w for w, _ in pairs):8.3f} "
              f"{statistics.median(s for _, s in pairs):9.3f} "
              f"{statistics.median(ratios[mib]):10.3f}")
    quotients = [big / small for small, big in zip(ratios[SMALL_MIB], ratios[LARGE_MIB])]
    q1, med, q3 = statistics.quantiles(quotients, n=4)
    print(f"per-pair quotient of the ratios, large / small: median {med:.3f} "
          f"[Q1 {q1:.3f}, Q3 {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
