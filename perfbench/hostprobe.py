"""Host-speed probe: scales measured time to a fixed reference speed.

On a shared virtual machine the host's throughput moves by 30% and more
within seconds and between minutes, so raw wall time measures the neighbours
as much as algcert.  ``HostProbe`` samples the host's speed while the program
runs: a SIGALRM timer interrupts the process every INTERVAL_S, and the
handler times one fixed piece of pure-Python exact arithmetic (``chunk``, the
same kind of work algcert does, written without algcert).  A sample's speed is
REFERENCE_CHUNK_S ÷ its time, so 1.0 is the reference host and 0.5 a host
giving half of it.

``scaled(wall_s)`` turns a wall interval into reference seconds: the wall
time, less the probe's own time, times the mean speed of the samples taken in
it.  Samples are taken at even intervals, so their mean speed estimates the
share of the reference speed the host gave over the interval.  The probe is
independent of algcert, so a change to algcert moves the scaled time exactly
as it moves the wall time on a steady host.  The garbage collector is off
while a sample runs, so the probe never pays for collecting algcert's heap.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
# Time of one chunk on the reference host (Python 3.11.7, shared 2-vCPU VM,
# Intel Xeon at 2.1 GHz), median of quiet periods.
REFERENCE_CHUNK_S = 0.002

_HILBERT = [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)]


def chunk() -> int:
    """Fixed work: invert a 6x6 Hilbert matrix over Q, then an LCG mod 2^31-1."""
    m = [row[:] + [Fraction(int(i == j)) for j in range(6)]
         for i, row in enumerate(_HILBERT)]
    for c in range(6):
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(6):
            if r != c:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    acc = 0
    for k in range(300):
        acc = (acc * 1103515245 + k) % 2147483647
    return acc + m[5][11].numerator


class HostProbe:
    """Context manager that samples host speed while its block runs."""

    def __init__(self):
        self.probe_s = 0.0          # time spent in samples
        self.speed_sum = 0.0        # sum of sample speeds
        self.samples = 0
        self._old_handler = None

    def __enter__(self) -> "HostProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        chunk()
        dt = perf_counter() - t0
        if collecting:
            gc.enable()
        self.probe_s += dt
        self.speed_sum += REFERENCE_CHUNK_S / dt
        self.samples += 1

    @classmethod
    def combined(cls, probes) -> "HostProbe":
        """One probe holding the samples of all ``probes``; its ``scaled``
        takes the summed wall time of their blocks."""
        out = cls()
        for probe in probes:
            out.probe_s += probe.probe_s
            out.speed_sum += probe.speed_sum
            out.samples += probe.samples
        return out

    def speed(self) -> float:
        """Mean sampled speed; 1.0 if no sample was taken."""
        return self.speed_sum / self.samples if self.samples else 1.0

    def scaled(self, wall_s: float) -> float:
        """Reference seconds of a block that took ``wall_s`` wall seconds."""
        return (wall_s - self.probe_s) * self.speed()
