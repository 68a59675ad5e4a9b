"""Reference clock: report times in reference-adjusted seconds.

The speed this program sees drifts between processes and within one
process, by far more than the bounds the benchmark gates on.  Two causes
were measured on the machine the README's figures come from:

- steal: the virtual CPU is paused while the host runs someone else.
  `process_time` leaves those pauses out (a 1 s busy loop read 0.70 to
  0.99 s of process time), while `perf_counter` counts them;
- slower execution while running: a fixed loop read 2.3 ms right before a
  1.1 s span and 4.8 ms right after it.

So a span is timed in process time, which removes the steal, and scaled by
the speed of a fixed reference loop, which removes most of the rest:

    adjusted = (process time of the span - sampling time) * (R0 / R) ** EXPONENT

The reference loop uses only the standard library (int, Fraction and dict
work, the same kind of work the program does).  R is the median wall time
of the loop over samples taken right before the span, right after it, and
every INTERVAL seconds during it.  The samples during the span come from a
SIGALRM interval timer whose handler runs the loop once; their process time
is taken out of the span.  Without them a speed change in the middle of a
long span would be missed.  The median, not the mean, because a sample that
a steal pause hits reads slow, and the span's process time already leaves
that pause out.  The loop is timed in wall time because process time is
accounted in steps too coarse for a 0.4 ms loop when steal is present.

EXPONENT is below 1 because the program's time moves less than the loop's:
when the machine quiets down, the small loop speeds up more than the
program does, so a full correction overshoots.  0.8 minimised the run-to-
run spread of small_s and large_s over 20 runs of each workload (for
`solve`, large_s spread 10.5% at 1.0 and 4.6% at 0.8; see the README).

R0 is a constant: the loop's typical time on the machine the README's
reference figures were taken on, so an adjusted second reads close to a
raw second there.  Changing R0, EXPONENT, the loop or the sampling changes
every reported time, so all of them are part of the benchmark's definition.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from statistics import median
from time import perf_counter, process_time
from typing import Callable

R0 = 0.00042
EXPONENT = 0.8
LOOP_STEPS = 100
BOUNDARY_SAMPLES = 5
INTERVAL = 0.02


def reference_loop() -> tuple[Fraction, int, int]:
    counts: dict[int, int] = {}
    total = Fraction(0)
    big = 1
    for i in range(1, LOOP_STEPS):
        key = (i * 40503) & 255
        counts[key] = counts.get(key, 0) + i * i
        total += Fraction(i % 17 + 1, i % 11 + 2)
        big = (big * 1000003 + i) % (1 << 192)
    return total, len(counts), big


def measure() -> float:
    """Wall seconds one pass of the reference loop takes now."""
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


class Clock:
    """Times calls in reference-adjusted seconds.

    `on_sample(seconds)` is told the process time of each sample taken
    inside a span, so a tracer can take it out of the spans it encloses.
    """

    def __init__(self) -> None:
        self.on_sample: Callable[[float], None] | None = None
        self._samples: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = process_time()
        self._samples.append(measure())
        spent = process_time() - t0
        self._spent += spent
        if self.on_sample is not None:
            self.on_sample(spent)

    def timed(self, call):
        """Run call(); return (adjusted seconds, adjusted/raw factor, its value)."""
        samples = [measure() for _ in range(BOUNDARY_SAMPLES)]
        self._samples, self._spent = samples, 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        t0 = process_time()
        try:
            value = call()
        finally:
            raw = process_time() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        span = max(raw - self._spent, 1e-9)
        samples.extend(measure() for _ in range(BOUNDARY_SAMPLES))
        factor = (R0 / median(samples)) ** EXPONENT
        return span * factor, factor, value
