"""The reference loop that the benchmark's times are normalised by.

The measuring VM's speed drifts: a fixed pure-Python loop runs up to 1.8x
slower from one second to the next, and a run's wall-clock `ops_per_s` moved
by 20-25 % between runs of the same code.  So the harness runs this fixed
loop right before and right after every op and every set-up, and reports the
op's wall time scaled to a machine on which the loop takes `NOMINAL_S`:

    seconds at reference speed = wall seconds * NOMINAL_S / mean(loop before, loop after)

The loop imitates the program's inner loops (a sparse product of term dicts
keyed by exponent tuples, as in `semizn._fallback.mul_terms`, and a sum of
Fractions, as in the LPs) but calls none of the program's code, so a change
to the program does not move it.  A change that makes the program slower or
faster moves the scaled times as much as the wall times.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Seconds of one `reference()` call on the machine the scaled times are
# quoted for: about its median on a 2-vCPU 2.1 GHz VM with Python 3.11.
NOMINAL_S = 0.002

_A = {(i, j): (i * 7 + j * 3) % 11 - 5 or 1 for i in range(-3, 4) for j in range(-3, 3)}
_B = {(i, j): (i * 5 - j) % 9 - 4 or 2 for i in range(-2, 3) for j in range(-2, 4)}


def reference():
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    s = Fraction(0)
    for k in range(1, 60):
        s += Fraction(k, k * k + 1)
    return len(out), s


def sample() -> float:
    """Wall seconds of one reference loop."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def slowness(samples: int = 5) -> float:
    """How many times slower than nominal the machine runs now (median of a
    few loops); per-op limits are scaled by it."""
    return statistics.median(sample() for _ in range(samples)) / NOMINAL_S


class Meter:
    """Reference samples between consecutive ops: the sample after one op is
    the sample before the next, so each op costs one loop."""

    def __init__(self):
        self.last = sample()
        self.recent = [self.last]

    def slowness(self) -> float:
        """Slowness from the last five samples."""
        return statistics.median(self.recent[-5:]) / NOMINAL_S

    def scale(self) -> float:
        """Sample again; returns NOMINAL_S over the mean of the samples
        before and after the op that just ran."""
        before, self.last = self.last, sample()
        self.recent = self.recent[-4:] + [self.last]
        return NOMINAL_S / ((before + self.last) / 2)
