"""The machine's own speed, sampled while a worker runs.

On a shared virtual machine the CPU a worker gets runs fast for a while and
then up to 1.8x slower, for seconds to minutes at a time, whatever the
worker does.  A SIGALRM handler times a fixed loop every PERIOD_S in the
worker's own process, so it sees the same CPU at the same moment as the
program under test.  ``normalise`` turns a measured interval into the time
it would have taken at the reference speed, REF_S per loop, net of the
sampler's own time inside it.  The loop never touches toruszeta, so a
change to the program moves the measured time and not the reference.

The slow level slows interpreted Python more than numpy's compiled loops,
so the loop has one half of each, as the program does.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
PY_STEPS, NP_STEPS = 1500, 6
# the loop's time at the fast level of the 2-vCPU Xeon VM the baseline was
# measured on, so that normalised times read as wall times there
REF_S = 4.0e-4
_X = np.linspace(0.0, 1.0, 2048)


def speed_loop() -> float:
    acc = 0.0
    seen = {}
    for i in range(PY_STEPS):
        acc += (i * 0.5) ** 0.5
        seen[i & 31] = acc
    for i in range(NP_STEPS):
        acc += float(np.sum(np.exp(-_X * (i + 1)) * np.cos(_X * i)))
    return acc


class SpeedSampler:
    """Start time and duration of every loop the handler ran, in time order.

    Plain lists: the handler may append while ``normalise`` reads them, which
    an array exporting its buffer to numpy would refuse."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        speed_loop()
        self.at.append(t)
        self.took.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalise(self, a: float, b: float) -> float:
        n = len(self.took)  # a loop may be appended meanwhile
        return float(normalise(self.at[:n], self.took[:n], a, b))


def normalise(at, took, a, b):
    """Seconds that [a, b] would have taken at REF_S per loop, less the
    handler's time inside it (a and b may be arrays of intervals).

    Between two loops the machine is taken to run at the mean speed of the
    two; the normalised clock stands still while the handler runs.  The
    clock is piecewise linear, so the times of nested intervals add up, as
    span self times need."""
    at, took = np.asarray(at, dtype=float), np.asarray(took, dtype=float)
    if took.size == 0:
        raise RuntimeError("no speed sample")
    ends = at + took
    gaps = (at[1:] - ends[:-1]) * REF_S * 2.0 / (took[:-1] + took[1:])
    knots_t = np.stack([at, ends], axis=1).ravel()
    knots_n = np.repeat(np.concatenate([[0.0], np.cumsum(gaps)]), 2)

    def clock(t):
        t = np.asarray(t, dtype=float)
        before = (t - at[0]) * REF_S / took[0]
        after = knots_n[-1] + (t - ends[-1]) * REF_S / took[-1]
        inside = np.interp(t, knots_t, knots_n)
        return np.where(t < at[0], before, np.where(t > ends[-1], after, inside))

    return clock(b) - clock(a)
