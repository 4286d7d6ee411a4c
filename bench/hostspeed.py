"""Host-speed calibration for the bench timings.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, between runs as much as within one. ``calibrate``
times a fixed pure-Python loop. The timed loop runs it after every op, for a
fixed share of the op's time, so its samples cover the run; every time the
run reports is then multiplied by ``CAL_NOMINAL_S`` over the median loop
time. The result reads as the time on a host where the loop takes
``CAL_NOMINAL_S``. The loop touches no code of the package, so a change to
the package moves the scaled times as it moves the wall times.
"""

from __future__ import annotations

import statistics
import time

CAL_LOOPS = 10000
# the loop's time on an idle 2.0 GHz Xeon vCPU with Python 3.11
CAL_NOMINAL_S = 0.0007
# share of an op's wall time spent calibrating after it (at least one loop)
CAL_SHARE = 0.1


def calibrate() -> float:
    """Wall time of one run of the fixed loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """The loop times sampled over a run, and the scale factor they give."""

    def __init__(self):
        self.loop_s: list[float] = []

    def sample(self, seconds: float = 0.0) -> None:
        """Calibrate for at least ``seconds``, and at least once."""
        end = time.perf_counter() + seconds
        while True:
            self.loop_s.append(calibrate())
            if time.perf_counter() >= end:
                break

    def factor(self) -> float:
        """CAL_NOMINAL_S over the median loop time."""
        return CAL_NOMINAL_S / statistics.median(self.loop_s)
