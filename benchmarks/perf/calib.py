"""Host-speed calibration: host times are reported at one reference speed.

The benchmark box is a small shared VM whose CPU speed moves between
levels up to 1.5x apart, in phases that last from a second to a minute
(another tenant on the same core; nothing inside the VM shows it — no
steal time, no runnable neighbour).  Over 110 interleaved reps the raw
medians of 16-rep windows had a quartile spread of 23 % (dsort) and 28 %
(csort); no estimator over raw wall time (median, lower quartile,
minimum) brought that under 16 %.  A fixed pure-Python loop timed right
before and after each rep moves with the rep (correlation 0.85 / 0.75),
and scaling each rep by it cut the same spreads to 5.5 % and 4.0 %.

So every host time the benchmark reports is wall time multiplied by
``REF_S / (mean loop time around the measurement)``: seconds as they
would read on a box that runs the loop in ``REF_S``.  The unscaled wall
times are kept beside the metrics as informational fields.
"""

from __future__ import annotations

import time

ITERATIONS = 1_500_000
#: the loop's time on the reference box in its fast state (the lower
#: quartile of 440 samples taken while writing this benchmark: 0.0707 s)
REF_S = 0.070


def loop() -> float:
    """Time the calibration loop once (about 70 ms)."""
    t = time.perf_counter()
    x = 0
    for i in range(ITERATIONS):
        x += i * i
    return time.perf_counter() - t


class Scale:
    """Scale factors from back-to-back loop timings: each ``next()``
    times the loop once and pairs it with the previous timing, so
    consecutive measurements share the loop between them."""

    def __init__(self) -> None:
        self.last = loop()

    def next(self) -> float:
        now = loop()
        factor = REF_S / ((self.last + now) / 2.0)
        self.last = now
        return factor
