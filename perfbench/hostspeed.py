"""The speed of the host, measured with a fixed piece of reference work.

On a shared host the CPU time of the same work swings by half: the cores
are shared with other machines, and the reference work below takes about
1.0 ms in one state of the host and 1.7 ms in the other, with stretches of
each lasting tens to hundreds of milliseconds. exacthom's jobs slow down
with the reference work (their CPU times, taken between two probes,
correlate with the probes at about 0.9), though not quite as far. So
run.py runs the reference work between jobs, every PROBE_EVERY seconds of
job time, and scales each job time by REFERENCE_S over the mean of the two
probes around it, to the power SENSITIVITY: a job time reads as the CPU
time the job would take on a host where the reference work takes
REFERENCE_S. Neither the reference work nor the scale depends on exacthom.
"""

from __future__ import annotations

import gc
import statistics

from tracing import clock

# The probe time scaled times are quoted at: about what one probe takes on
# a shared 2-CPU virtual machine with Python 3.11 (1.0 to 1.7 ms).
REFERENCE_S = 0.0015
# CPU seconds of jobs between two probes.
PROBE_EVERY = 0.02
# How far job times move with the probe time, as an exponent. The jobs of
# most workloads slow down less than the reference work when the host is
# slow: over ten 30-second runs of each workload, the power of the probe
# ratio that made the runs' batch_s agree best was 1.0 for snf, 0.9 for
# derive, 0.75 to 0.8 for verify and 0.6 for grouphom. 0.8 keeps the
# largest of the four spreads (IQR / median of batch_s) smallest.
SENSITIVITY = 0.8


def reference_work(n: int = 16, rounds: int = 4) -> int:
    """Fraction-free (Bareiss) elimination of a fixed n x n integer matrix,
    `rounds` times: the integer row operations exacthom spends its time on."""
    last = 0
    for _ in range(rounds):
        x = 12345
        a = []
        for _ in range(n):
            row = []
            for _ in range(n):
                x = (x * 1103515245 + 12345) % 2147483648
                row.append(x % 19 - 9)
            a.append(row)
        prev = 1
        for k in range(n - 1):
            pivot = next((r for r in range(k, n) if a[r][k]), None)
            if pivot is None:
                break
            a[k], a[pivot] = a[pivot], a[k]
            rk, akk = a[k], a[k][k]
            for i in range(k + 1, n):
                ri, aik = a[i], a[i][k]
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * akk - aik * rk[j]) // prev
            prev = akk
        last = a[n - 1][n - 1]
    return last


def probe() -> float:
    """CPU time of one run of the reference work, with the cyclic garbage
    collector held off so a collection of the jobs' objects cannot land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        reference_work()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def scale(probes: list[float]) -> float:
    """REFERENCE_S over the mean of `probes`, to the power SENSITIVITY."""
    return (REFERENCE_S / statistics.fmean(probes)) ** SENSITIVITY


class Meter:
    """Probes taken while one pass of jobs runs: before the first job, before
    a job whenever PROBE_EVERY seconds of job time have passed since the
    last probe, and after the last job. The jobs between two probes form a
    stretch, and the two probes around it give its scale."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.stretch: list[int] = []  # per job, the probe that opens its stretch
        self.spent = 0.0
        self._next = 0.0

    def before_job(self) -> None:
        if self.spent >= self._next:
            self.probes.append(probe())
            self._next = self.spent + PROBE_EVERY
        self.stretch.append(len(self.probes) - 1)

    def after_job(self, elapsed: float) -> None:
        self.spent += elapsed

    def scaled(self, times: list[float]) -> list[float]:
        """The job times, each scaled by the two probes around its stretch."""
        self.probes.append(probe())
        return [t * scale(self.probes[k:k + 2]) for t, k in zip(times, self.stretch)]
