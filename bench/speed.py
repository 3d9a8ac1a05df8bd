"""Speed of the core a process runs on, sampled with a fixed loop.

On a shared host the speed of a core drifts, by up to 2x for minutes at a
time, so raw times taken minutes apart say more about the neighbours than
about the program.  The benchmark therefore times a small loop of its own on
the same core at the same moments as the work it measures, and reports the
work's seconds multiplied by the core's speed: seconds at the reference
speed, PROBE_REF_S per loop.  The loop uses none of the program's code, so a
faster program leaves it unchanged.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_EVERY_S = 0.1
# Seconds the probe loop took on a typical day of the shared 2-core Xeon the
# benchmark was written on, so that scaled times there read close to raw ones.
PROBE_REF_S = 0.0017


def _probe_loop(n: int = 4000) -> int:
    # dictionary updates on tuple keys and modular arithmetic, the mix the
    # polynomial and field code runs; it uses none of the program's code
    acc: dict = {}
    for i in range(n):
        key = (i % 61, i % 37)
        acc[key] = (acc.get(key, 0) + i * key[0]) % 10007
    return len(acc)


class SpeedProbe:
    """Wall and CPU seconds of the probe loop, taken by `sample`; as a
    context manager, once on entry and then every PROBE_EVERY_S seconds
    until exit, from a SIGALRM handler."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self._busy = False

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        _probe_loop()
        self.walls.append(time.perf_counter() - w0)
        self.cpus.append(time.process_time() - c0)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def speed(self) -> float:
        """Mean speed of the core over the samples, 1 at the reference."""
        return statistics.fmean(PROBE_REF_S / w for w in self.walls)
