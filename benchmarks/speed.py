"""Timings corrected for the machine's momentary speed.

On a shared machine the CPU's speed swings with its neighbours' load: a fixed
Python loop on the 2-vCPU reference machine took anywhere from 0.35 to 0.63 ms
per call over a minute, and medians over 40 s still differed by 40 %. No
statistic of raw wall times repeats within a tenth under such swings. While
an operation runs, a SIGALRM handler therefore runs a fixed calibration task
every INTERVAL_S (about 2 % of the time) in the same thread, so it sees the
same CPU at the same moments as the program. An operation's time is its wall
time minus the handler's time, scaled by NOMINAL_S over the median
calibration time measured during it: the time the operation would take if
the machine ran the calibration task in NOMINAL_S.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
UNITS_PER_SAMPLE = 4
# Fewest samples a speed estimate rests on (about 1 s): a shorter operation is
# judged together with the samples just before it.
MIN_WINDOW = 50
# One calibration sample on the reference machine when its neighbours are
# quiet; a constant, so that figures from different runs share one scale.
NOMINAL_S = 5.0e-4

_RNG = np.random.default_rng(0)
_VALUES = _RNG.normal(size=16)
_SMALL = _RNG.normal(size=(21, 3))
_LARGE = _RNG.normal(size=(2000, 3))


def _unit() -> float:
    """A little of each kind of work the pipeline does: float text, small and
    larger numpy calls."""
    text = ",".join(f"{v:.17g}" for v in _VALUES)
    parsed = np.array([float(c) for c in text.split(",")])
    small = _SMALL.var(axis=0) + parsed.var()
    large = np.sqrt(np.sum(_LARGE * _LARGE, axis=1)).sum()
    return float(small.sum() + large)


def calibrate() -> float:
    """Seconds one calibration sample takes now."""
    start = time.perf_counter()
    for _ in range(UNITS_PER_SAMPLE):
        _unit()
    return time.perf_counter() - start


class Sampler:
    """Calibration samples taken on a timer while operations run."""

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        self.samples.append(calibrate())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, first: int, last: int) -> float:
        """NOMINAL_S over the median sample in samples[first:last], widened
        backwards to MIN_WINDOW samples."""
        window = self.samples[max(0, min(first, last - MIN_WINDOW)):last] or [calibrate()]
        return NOMINAL_S / statistics.median(window)

    def normalize(self, wall: float, first: int, last: int) -> float:
        """Wall time of an operation during which samples[first:last] were taken."""
        return (wall - sum(self.samples[first:last])) * self.factor(first, last)
