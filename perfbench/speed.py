"""Timing at a reference speed, on a host whose speed drifts.

The host switches between a fast and a slow state (a calibration block
takes about 0.34 or 0.58 ms) every few seconds, so a wall time says as
much about the host as about the program. While a run is timed, a timer signal
interrupts the program every ``SAMPLE_EVERY_S`` and runs one calibration
block: fixed interpreter work that calls nothing of hrcsched, whose time
tells the host's current speed. The handler only records when each block
began and ended; the timings are mapped afterwards:

- ``program(t)``: a ``perf_counter`` reading on a clock that stops while a
  block runs, so durations leave the blocks out;
- ``reference(t)``: the same reading on a clock that runs at the reference
  speed, at which a block takes ``CAL_REF_S``: from the end of each block
  to the start of the next, it advances ``CAL_REF_S`` over that block's
  time per second of wall time.

Readings must be taken by the program, not inside a block; the handler runs
between the program's bytecodes, so they always are.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

import numpy as np

SAMPLE_EVERY_S = 0.02
# time of one calibration block at the reference speed, the host's fast state
CAL_REF_S = 0.00035


def calibration_block() -> int:
    """Fixed interpreter work that calls nothing of hrcsched: integer
    arithmetic and updates of a small dict."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        acc += key & 7
    return acc


class Speedometer:
    def __init__(self):
        self.marks = array("d")  # start and end of every block, in order
        self._sampling = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._sampling:  # a signal that came while a block ran
            return
        self._sampling = True
        began = perf_counter()
        calibration_block()
        self.marks.extend((began, perf_counter()))
        self._sampling = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _block_before(self, times):
        marks = np.frombuffer(self.marks).reshape(-1, 2)
        times = np.asarray(times, dtype=float)
        k = np.searchsorted(marks[:, 0], times, side="right") - 1
        if np.any(k < 0):
            raise ValueError("a reading was taken before the speedometer started")
        return marks, times, k

    def program(self, times) -> np.ndarray:
        marks, times, k = self._block_before(times)
        stolen = np.cumsum(marks[:, 1] - marks[:, 0])
        return times - stolen[k]

    def reference(self, times) -> np.ndarray:
        marks, times, k = self._block_before(times)
        starts, ends = marks[:, 0], marks[:, 1]
        rate = CAL_REF_S / (ends - starts)
        at_start = np.concatenate(([0.0], np.cumsum((starts[1:] - ends[:-1]) * rate[:-1])))
        return at_start[k] + (times - ends[k]) * rate[k]
