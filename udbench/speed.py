"""Machine-speed sampling, so that times can be read at a reference speed.

The shared machine this benchmark was built on changes speed by up to two
times from one second to the next (other tenants' load): identical pipeline
passes took from 6.9 s to 12.5 s in one set of runs, and a pass-to-pass
spread that large would hide any regression the bounds are meant to catch.

While a `SpeedSampler` is active, a SIGALRM timer interrupts the run every
INTERVAL_S and times `chunk`, a fixed pure-Python loop of Fraction arithmetic
like udnorm's own, with garbage collection held off. `scale(start, end)`
turns seconds measured in [start, end) into reference seconds: the wall time
less the sampler's own time in the interval, times REF_CHUNK_S over the mean
chunk time sampled in it (over the whole run when the interval holds fewer
than MIN_SAMPLES samples). A reference second is a second of a machine on
which `chunk` takes REF_CHUNK_S; the sampler costs under 2 % of the run.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
MIN_SAMPLES = 20
REF_CHUNK_S = 0.0016  # chunk's typical time on the 2-vCPU VM of the baseline


def chunk():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 200):
        acc += Fraction(i % 97, i % 13 + 1) * Fraction(3, 7)
        seen[i % 5] = acc.numerator % 11


class SpeedSampler:
    """Context manager: samples `chunk` times until exit; main thread only."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            chunk()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds measured in [start, end) to reference seconds;
        1 when nothing was sampled."""
        inside = [d for t, d in self.samples if start <= t < end]
        pool = inside if len(inside) >= MIN_SAMPLES else [d for _, d in self.samples]
        wall = end - start
        if not pool or wall <= 0:
            return 1.0
        net = wall - sum(inside)
        return net / wall * REF_CHUNK_S / statistics.mean(pool)

    def mean_chunk_s(self) -> float:
        return statistics.mean(d for _, d in self.samples) if self.samples else 0.0
