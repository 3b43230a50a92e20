"""Machine speed, sampled between operations, to steady the benchmark's timings.

The benchmark runs on a few cores of a shared host.  Other tenants slow a
pure-Python loop by up to 2x, in spells that last from a tenth of a
second to minutes, and CPU time rises with wall time, so neither clock is
free of it.  A fixed reference kernel is therefore timed in short bursts
between the operations of a run.  Every time the run reports is its wall
time scaled by ``REFERENCE_MS`` over the kernel's mean time in those
bursts, so it reads as the wall time at the kernel's reference speed.
The raw wall times are reported beside the scaled ones.

The kernel uses only the standard library.  Its exact rational and
integer arithmetic is the kind of work levode does, so contention slows
both alike, and no change to levode can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the kernel's typical mean time on the machine that recorded the baseline
# (perfbench/README.md), so scaled times read like that machine's wall times
REFERENCE_MS = 7.5


def kernel() -> Fraction:
    acc = Fraction(0)
    for k in range(1, 500):
        acc += Fraction(k * k + 1, 3 * k + 7)
        acc -= Fraction(k, k + 1) * Fraction(1, 3)
    return acc


def burst_ms(seconds: float, min_calls: int = 3) -> float:
    """Mean time of one kernel call, in ms, over about ``seconds``."""
    calls = 0
    start = time.perf_counter()
    while True:
        kernel()
        calls += 1
        elapsed = time.perf_counter() - start
        if calls >= min_calls and elapsed >= seconds:
            return 1000 * elapsed / calls


class SpeedLog:
    """Kernel bursts taken between the operations of one run.

    Call ``sample()`` before the first operation and after the last, and
    whenever ``due()`` says so in between; then multiply each wall time by
    ``scale()``.
    """

    def __init__(self, burst_s: float, every_s: float):
        self.burst_s = burst_s
        self.every_s = every_s
        self.ms: list[float] = []
        self.last = 0.0  # perf_counter at the end of the last burst

    def sample(self) -> None:
        self.ms.append(burst_ms(self.burst_s))
        self.last = time.perf_counter()

    def due(self) -> bool:
        return not self.ms or time.perf_counter() - self.last >= self.every_s

    def scale(self) -> float:
        """REFERENCE_MS over the kernel's mean time in the bursts so far."""
        if not self.ms:
            raise ValueError("no kernel burst taken")
        return REFERENCE_MS * len(self.ms) / sum(self.ms)
