"""Speed-normalised timing.

On the shared 2-vCPU Xeon this benchmark was tuned on, CPU speed changes by
up to a third from one second to the next and drifts over minutes.  A fixed
pure-Python loop slows by the same factor as the workloads: over four
minutes of ``step_two`` calls, the quartile spread of 30-second medians was
28% raw and 2% after dividing by the loop time measured around each call.

So every scenario call of the in-process workloads is bracketed by the
reference loop, run in the same process, and its wall time is scaled to the
speed at which the loop takes ``REFERENCE_S``:

    normalised = wall * REFERENCE_S / mean(loop before, loop after)

The raw wall times are kept next to the normalised ones.
"""

from __future__ import annotations

import time

LOOP_ITERATIONS = 200_000
REFERENCE_S = 0.02  # about the loop's median time on the machine above


def reference_loop() -> float:
    """Wall time of a fixed pure-Python integer loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


class SpeedScale:
    """Scales consecutive operations by the reference loop run between them."""

    def __init__(self):
        self._before = reference_loop()

    def normalise(self, wall_s: float) -> float:
        """Call right after the operation that took ``wall_s``."""
        after = reference_loop()
        speed = REFERENCE_S / (0.5 * (self._before + after))
        self._before = after
        return wall_s * speed
