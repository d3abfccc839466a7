"""Host-speed probe: a low-priority calibration loop that shares the CPU with each timed child.

On a shared 2-vCPU host the speed of a vCPU swings by up to 1.8x, in spells
of a few seconds, with CPU time tracking wall time; back-to-back runs of one
workload then differ by 30%.  A loop run before or beside a step does not
see the spells the step sees.  This probe runs on the same CPU as the child,
at a low priority, so the scheduler interleaves it with the child in slices
of a few milliseconds and it samples the same spells.  A child's time is then
scaled to the time it would take at a fixed reference speed:

    scaled = (wall - probe CPU time in the window) * probe rate in the window / REFERENCE_RATE

The probe's own CPU time is taken out, so the probe slows the child's wall
time but not the scaled time.

Run as a script it is the loop itself: ``python3 bench/speed.py FILE`` keeps
(iterations, CPU seconds) up to date in the 16-byte FILE until it is killed.
"""

from __future__ import annotations

import mmap
import os
import random
import struct
import subprocess
import sys
import time
from pathlib import Path

REFERENCE_RATE = 250_000.0  # loop iterations per CPU second that define the reference speed
NICE = 15  # about 3% of the CPU next to a child at the default priority
CHUNK = 50  # iterations between updates of the shared counters
MIN_WINDOW_CPU_S = 0.002  # shorter probe windows reuse the last good rate
_FMT = "dd"


def _loop(path: str) -> None:
    os.nice(NICE)
    with open(path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), struct.calcsize(_FMT))
    rng = random.Random(0)
    a, b = (tuple(rng.sample(range(81), 81)) for _ in range(2))
    n = 0
    while True:
        for _ in range(CHUNK):
            a = tuple(b[v] for v in a)
        n += CHUNK
        struct.pack_into(_FMT, shared, 0, n, time.process_time())


class SpeedProbe:
    """Owns the calibration loop; pins this process, and so every child, to one CPU."""

    def __init__(self, work: Path):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        path = work / "speed.bin"
        path.write_bytes(bytes(struct.calcsize(_FMT)))
        self._fh = open(path, "r+b")
        self._shared = mmap.mmap(self._fh.fileno(), struct.calcsize(_FMT))
        self._proc = subprocess.Popen([sys.executable, __file__, str(path)])
        self._rate = None
        deadline = time.monotonic() + 10
        while self.snapshot()[0] == 0:
            if time.monotonic() > deadline or self._proc.poll() is not None:
                self.close()
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.01)
        time.sleep(0.2)  # a first window for the initial rate
        before = self.snapshot()
        time.sleep(0.2)
        self.scale(before, self.snapshot(), 0.0)

    def snapshot(self) -> tuple:
        return struct.unpack_from(_FMT, self._shared, 0)

    def scale(self, before: tuple, after: tuple, wall_s: float) -> float:
        """Wall time between two snapshots, without the probe, at the reference speed."""
        dn, dcpu = after[0] - before[0], after[1] - before[1]
        if dcpu >= MIN_WINDOW_CPU_S:
            self._rate = dn / dcpu
        return (wall_s - dcpu) * self._rate / REFERENCE_RATE

    def close(self) -> None:
        self._proc.kill()
        self._proc.wait()
        self._shared.close()
        self._fh.close()


if __name__ == "__main__":
    _loop(sys.argv[1])
