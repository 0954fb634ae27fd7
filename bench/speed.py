"""Machine-speed calibration for the end-to-end timings.

Shared virtual machines run the same code up to twice as slowly for spells
of ten seconds and more, and the guest sees no steal time.  The harness
therefore times a fixed yardstick of its own around the work and reports
times scaled to the yardstick's nominal speed::

    calibrated = wall * reference / yardstick

On a machine where the yardstick takes ``reference`` the two agree.  Work
done inside the harness process is measured against ``kernel_time``, which
mixes the two kinds of work the package does: small matrix-vector steps
driven by the interpreter, and vectorised reductions over arrays.  Work done
in fresh processes (CLI calls, set-up) is measured against ``import_time``,
a fresh interpreter importing NumPy and ``scipy.spatial``: process start-up
and imports slow down in spells of their own that neither the in-process
kernel nor a bare interpreter start sees.  A change to the package changes
neither yardstick.
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

KERNEL_REFERENCE_S = 0.5e-3
IMPORT_REFERENCE_S = 0.4
# Re-measure a yardstick after this much work, so spells of slowness are
# tracked while the yardstick stays a small fraction of the run.
KERNEL_INTERVAL_S = 0.25
IMPORT_INTERVAL_S = 1.5

_A = np.array([[0.5, 0.1, 0.0], [0.0, 0.3, 0.2], [0.1, 0.0, 0.4]])
_B = np.ones(3)
_U = np.linspace(0.0, 1.0, 4000)
_V = _U[::-1].copy()


def _kernel() -> float:
    x = np.zeros(3)
    s = 0.0
    for _ in range(100):
        x = _A @ x + _B
        s += float(x @ x)
    for _ in range(12):
        s += float(np.sqrt(_U * _U + _V * _V).min())
    return s


def kernel_time(reps: int = 3) -> float:
    """Fastest of ``reps`` kernel runs (a preemption only adds time)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def import_time() -> float:
    """Wall time of a fresh interpreter that imports NumPy and ``scipy.spatial``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.spatial"],
                   stdin=subprocess.DEVNULL, check=True, timeout=60)
    return time.perf_counter() - t0


class Calibrator:
    """Scales job times by the yardstick times measured before and after them.

    Jobs are queued until ``interval`` seconds have passed since the last
    yardstick; then the yardstick runs again and the queued times are scaled
    by the mean of the two readings around them.
    """

    def __init__(self, yardstick, reference: float, interval: float) -> None:
        self.yardstick = yardstick
        self.reference = reference
        self.interval = interval
        self.last = yardstick()
        self.readings = [self.last]
        self.since = time.perf_counter()
        self.pending: list[tuple[int, float]] = []

    @classmethod
    def in_process(cls) -> "Calibrator":
        return cls(kernel_time, KERNEL_REFERENCE_S, KERNEL_INTERVAL_S)

    @classmethod
    def for_processes(cls) -> "Calibrator":
        return cls(import_time, IMPORT_REFERENCE_S, IMPORT_INTERVAL_S)

    def add(self, index: int, seconds: float, out: dict) -> None:
        """Queue a job time; scale the queue into ``out`` once it is due."""
        self.pending.append((index, seconds))
        if time.perf_counter() - self.since >= self.interval:
            self.flush(out)

    def flush(self, out: dict) -> None:
        if not self.pending:
            return
        now = self.yardstick()
        self.readings.append(now)
        scale = self.reference / (0.5 * (self.last + now))
        for i, s in self.pending:
            out[i] = s * scale
        self.pending.clear()
        self.last = now
        self.since = time.perf_counter()
