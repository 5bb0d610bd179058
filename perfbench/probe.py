"""Host-speed probe, sampled during a timed section.

On a shared virtual machine the same work can run up to 1.7x slower for
seconds to minutes at a time, because the host is busy, not because the
program changed.  `Probe` measures that while the section runs: a timer
signal interrupts the timed thread every `INTERVAL_S` and times a fixed
piece of work on the thread's CPU clock.  The work has an interpreter half
(integer and float arithmetic, a dict, string formatting) and a numpy half
(element-wise operations on a 64 KiB array), because the host's slow state
slows interpreter code more than array code, and the workloads mix the two.
The median probe time over `PROBE_REF_S` is the section's slowdown; the
benchmark divides the section's wall time by it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Probe time the benchmark scales to: the median probe time seen between the
# workloads' operations on the 2-vCPU Xeon KVM guest the benchmark was
# written on, in its fast state (Python 3.11, numpy 2.4).  A time divided by
# the slowdown is the time the section would have taken had the probe run
# this fast during it.
PROBE_REF_S = 5.0e-4
INTERVAL_S = 0.05
BURST = 25

_ARRAY = np.linspace(0.0, 1.0, 8192)


def _work() -> float:
    acc, table = 0, {}
    for i in range(1000):
        acc += (i * i) % 7
        table[i & 31] = table.get(i & 31, 0.0) + i * 0.5
        if i % 10 == 0:
            acc += len(f"{i * 1.1:.17g},{acc}")
    total = 0.0
    for _ in range(10):
        total += float(np.sqrt(_ARRAY * _ARRAY + 1.0).sum())
    return acc + len(table) + total


def probe_time() -> float:
    """CPU seconds of one probe on the calling thread."""
    c0 = time.thread_time()
    _work()
    return time.thread_time() - c0


def _median(xs: list[float]) -> float:
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def burst_slowdown() -> float:
    """Slowdown from BURST probes in a row, for a section that cannot be
    sampled while it runs (the set-up, which imports numpy itself)."""
    return _median([probe_time() for _ in range(BURST)]) / PROBE_REF_S


class Probe:
    """Samples `probe_time` every INTERVAL_S while the `with` block runs.

    Use it only in the main thread (it installs a SIGALRM handler); on exit
    it stops the timer and puts the previous handler back.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        self.samples.append(probe_time())

    def __enter__(self) -> "Probe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._tick()
        return False

    def slowdown(self) -> float:
        """Median probe time during the block over PROBE_REF_S."""
        return _median(self.samples) / PROBE_REF_S
