"""CPU speed sampling, so that times from a shared host compare across runs.

On a shared virtual machine the speed of one core drifts by tens of percent
over minutes, and a process's CPU time drifts with it.  While a phase runs,
``SpeedSampler`` times a fixed pure-Python probe every ``PERIOD_S`` of wall
time from a SIGALRM handler.  The probe shares no code with symhex, so a
change to symhex cannot move it.  A phase's time, less the time spent in
probes, is multiplied by ``REF_PROBE_S / mean probe time``: the result is
the time the phase would take on a core where the probe takes
``REF_PROBE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
PROBE_ROUNDS = 1500
REF_PROBE_S = 0.004  # the probe's time on one 2.1 GHz Xeon KVM vCPU, rounded up
MIN_PROBES = 8


def probe() -> float:
    """Seconds for a fixed loop of tuple, dict and list work."""
    t0 = time.perf_counter()
    table: dict[tuple, int] = {}
    for i in range(PROBE_ROUNDS):
        key = tuple((i * k) % 7 for k in range(8))
        table[key] = table.get(key, 0) + 1
        row = [x ^ (i & 3) for x in key]
        row.sort()
    return time.perf_counter() - t0


class SpeedSampler:
    """Probe samples and the probe seconds spent since ``start``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        t = probe()
        self.samples.append(t)
        self.spent += t

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self) -> float:
        """REF_PROBE_S over the mean probe time, topped up to MIN_PROBES samples."""
        extra = [probe() for _ in range(max(1, MIN_PROBES - len(self.samples)))]
        return REF_PROBE_S / statistics.fmean(self.samples + extra)
