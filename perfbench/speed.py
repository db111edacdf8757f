"""Machine-speed reference for timing on a machine whose speed drifts.

The reference kernel is fixed work that does not touch nfwpt: a Python loop
over small numpy vector operations, dense complex matrix-vector products and
a small Hermitian eigendecomposition, the kinds of work a trial does. The
timed process runs it between trials, at most every PERIOD_S seconds. A
trial's scaled time is its wall time times NOMINAL_S / r, where r is the
median of the kernel's times over the run. A single kernel time swings by
tens of per cent from one sample to the next, while the median of a run's
samples follows the machine's speed over the run. A drift of that speed
slows the trials and the kernel alike, so it cancels; a change to nfwpt
moves the trials alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on the reference machine when it runs fast; scaled
# times are wall times on that machine at that speed.
NOMINAL_S = 0.010
PERIOD_S = 0.5

_rng = np.random.default_rng(2024)
_VECTOR = _rng.standard_normal(1024) + 1j * _rng.standard_normal(1024)
_MATRIX = _rng.standard_normal((512, 512)) + 1j * _rng.standard_normal((512, 512))
_HERMITIAN = _MATRIX[:128, :128] + _MATRIX[:128, :128].conj().T


def reference_kernel() -> None:
    v = _VECTOR
    for _ in range(150):
        abs(np.vdot(v, np.exp(-1j * v))) ** 2
    for _ in range(20):
        _MATRIX @ v[:512]
    np.linalg.eigh(_HERMITIAN)


class SpeedProbe:
    """Times the reference kernel and scales wall times by it."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.paused = 0.0  # total time spent in the kernel

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)
        self.paused += self.seconds[-1]

    def sample_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= PERIOD_S:
            self.sample()

    def factor(self) -> float:
        """NOMINAL_S over the median kernel time of the run."""
        return NOMINAL_S / statistics.median(self.seconds)
