"""Timing on a shared host: segments scaled by a timer-sampled reference loop.

Standard library only, so that ``run.py`` can start timing set-up
before numpy is imported.
"""

import signal
import statistics
import time

# Host speed on a shared machine drifts by up to 2x within a minute, and
# a pure-interpreter loop slows down with it: dividing a fit's or a loop
# iteration's time by the loop's time measured next to it cut the spread
# of ten-sample medians about 5x. Every end-to-end time is therefore
# also reported scaled to a host on which this loop takes
# REFERENCE_LOOP_S; a timer samples the loop while a pass runs.
REFERENCE_LOOP_S = 1.0e-3
SAMPLE_INTERVAL_S = 0.05
NEAREST_SAMPLES = 5


def reference_loop_seconds() -> float:
    """Time of a fixed pure-Python loop that calls no mfkrig code."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(10000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


class Meter:
    """Times a pass segment by segment; a segment ends at each ``mark``.

    While the meter runs, a SIGALRM timer runs the reference loop
    every SAMPLE_INTERVAL_S in the main thread. The time spent sampling
    is taken out of the segment it interrupted, and each segment is
    scaled by the median of the samples taken during it, or of the
    NEAREST_SAMPLES samples nearest to it if it holds fewer.
    """

    def __init__(self):
        self.samples = []   # (when, reference-loop seconds)
        self.segments = []  # (start, end, seconds, is an operation)
        self._sampling = 0.0
        self._start = self._sampling_at_start = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append((t0, reference_loop_seconds()))
        self._sampling += time.perf_counter() - t0

    def _begin(self):
        self._start = time.perf_counter()
        self._sampling_at_start = self._sampling

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        self._begin()
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def mark(self, operation=True):
        end = time.perf_counter()
        sampling = self._sampling - self._sampling_at_start
        self.segments.append((self._start, end, end - self._start - sampling,
                              operation))
        self._begin()

    def scales(self) -> list:
        """Per segment, REFERENCE_LOOP_S over its reference samples' median."""
        out = []
        for start, end, _, _ in self.segments:
            inside = [s for t, s in self.samples if start <= t <= end]
            if len(inside) < NEAREST_SAMPLES:
                middle = 0.5 * (start + end)
                inside = [s for _, s in sorted(
                    self.samples, key=lambda ts: abs(ts[0] - middle))[
                        :NEAREST_SAMPLES]]
            out.append(REFERENCE_LOOP_S / statistics.median(inside))
        return out
