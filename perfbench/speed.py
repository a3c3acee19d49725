"""Machine-speed calibration for the benchmark's times.

On a shared machine the speed of one core drifts by a fifth or more over
tens of seconds as other tenants come and go, and the drift is as large in
process CPU time as in wall time. No run length the benchmark can afford
averages that out. So a short fixed kernel of the same kind of work as
netbell's (interpreted Python around 3x3 numpy products) is timed between
operations, and every reported time is the measured time scaled by
``REFERENCE_S / kernel time``: the time the work would take on the machine
when the kernel runs in ``REFERENCE_S``. The kernel is benchmark
code, so a change to netbell moves the scaled times exactly as much as the
measured ones.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Median kernel time on the 2-core sandbox the reference figures come from
# (Python 3.11.7, numpy 2.4.6, one BLAS thread).
REFERENCE_S = 0.008
INTERVAL_S = 0.5
_MATRIX = np.array([[0.9, 0.2, -0.1], [0.3, -0.7, 0.4], [-0.2, 0.5, 0.8]])
_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))
_RHO = np.full((4, 4), 0.05, dtype=complex) + np.eye(4) * 0.2


def _kernel() -> float:
    """A fixed mix of netbell's kinds of work: 3x3 products and norms as in
    the see-saws, Kronecker products, traces and a Hermitian eigensolve as
    in the Pauli algebra, and plain interpreted arithmetic."""
    v = np.ones(3)
    acc = 0.0
    for _ in range(600):
        v = _MATRIX @ v
        v /= np.linalg.norm(v)
        acc += float(v[0])
    for _ in range(12):
        for u in range(3):
            for w in range(3):
                acc += np.trace(_RHO @ np.kron(_PAULI[u], _PAULI[w])).real
        acc += float(np.linalg.eigvalsh(_RHO)[0])
    x = 0
    for i in range(40_000):
        x += i * i % 7
    return acc + x


def sample() -> float:
    """Kernel time, best of three, so one preemption does not read as a slow machine."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Calibration samples interleaved with the timed operations.

    Samples are taken at operation boundaries when the last one is older
    than INTERVAL_S and, once ``start_timer()`` is called, also from a
    SIGALRM handler every INTERVAL_S, so that operations lasting seconds are
    sampled while they run. The handler runs in the main thread between
    bytecodes; the time it spends is subtracted from the operation it
    interrupted (``kernel_s``). A round's times are scaled by REFERENCE_S
    over the mean of the samples taken during the round: with samples spread
    evenly in time, that mean follows the machine's speed over the round.
    """

    def __init__(self):
        for _ in range(5):  # first calls run cold
            _kernel()
        self.samples: list[float] = []
        self.kernel_s = 0.0
        self._last = 0.0
        self.force()

    def force(self) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self._last = time.perf_counter()
        self.kernel_s += self._last - start

    def tick(self) -> None:
        """Take a sample if the last one is older than INTERVAL_S."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.force()

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.force())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale_since(self, index: int) -> float:
        window = self.samples[index:]
        return REFERENCE_S * len(window) / sum(window)
