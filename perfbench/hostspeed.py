"""How fast the host ran while a piece of work was timed.

The benchmark shares its machine with other tenants, and their load can
slow this process down by half for seconds or minutes at a time.  That
slowdown is the host's, not the program's.  :class:`HostSpeed` samples
it while the work runs: every :data:`INTERVAL_S` of process CPU time a
``SIGPROF`` handler times a fixed pure-Python probe loop (the second of
two back-to-back runs, so the probe's own data is in cache).  Signals run
their handler between the program's bytecodes, so samples land wherever
the work is, long simulations included.

A window's *scale* turns its wall time into the wall time on a host where
the probe takes :data:`PROBE_REF_S`: the mean of ``PROBE_REF_S / probe``
over the window's samples (each sample stands for an equal slice of CPU
time, which for this busy single-threaded process is wall time, and the
work done in a slice is proportional to the host's speed), times the
share of the window not spent in the handler.  Against the simulator's
own speed the probe overshoots somewhat: timing an N=512 SOR cell
(2.0-3.4 s) and an ising-256 cell (0.35-0.9 s) 40 times each on a shared
2-vCPU x86 VM, the log-log slope of cell time on probe time was 0.76 and
0.94 (correlation 0.90 and 0.79), and scaling cut the cells' coefficient
of variation from 0.11 to 0.07 and from 0.21 to 0.15.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

clock = time.perf_counter

#: the probe's time on an unloaded 2-vCPU x86 host; only ratios to it matter.
PROBE_REF_S = 250e-6
#: process CPU seconds between samples; a sample takes about 1 ms.
INTERVAL_S = 0.02


def probe() -> None:
    """The fixed reference work: dictionary updates in a Python loop."""
    d: dict = {}
    for i in range(3000):
        d[i & 255] = d.get(i & 255, 0) + i


class HostSpeed:
    """Probe timings sampled on a CPU-time timer, while in a ``with`` block.

    Uses ``ITIMER_PROF``, so ``ITIMER_REAL`` stays free for the executor's
    cell timeouts.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []  #: seconds of each warm probe run
        self.stolen_s = 0.0  #: wall seconds spent in the handler

    def sample(self, *_: object) -> None:
        t0 = clock()
        probe()
        t1 = clock()
        probe()
        t2 = clock()
        self.samples.append(t2 - t1)
        self.stolen_s += t2 - t0

    def __enter__(self) -> "HostSpeed":
        self._old = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._old)

    def mark(self) -> Tuple[int, float]:
        """The start of a window."""
        return len(self.samples), self.stolen_s

    def scale(self, mark: Tuple[int, float], wall_s: float) -> float:
        """The scale of the window from *mark* until now, which took
        *wall_s* seconds of wall time, the handler's share included."""
        busy = 1.0 - (self.stolen_s - mark[1]) / wall_s
        if len(self.samples) == mark[0]:
            self.sample()  # a window shorter than one interval
        window = self.samples[mark[0]:]
        return busy * sum(PROBE_REF_S / s for s in window) / len(window)
