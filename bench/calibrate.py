"""Fixed calibrations that measure the machine's speed, not the program's.

On a shared 2-CPU virtual machine the CPU speed switches between two levels
about 1.8x apart, on a scale of a second, and the share of time at each
level drifts over minutes, because the host runs other work on the same
cores.  Raw times follow that
drift.  The timed passes therefore run a calibration between operations:
the same work on every commit, written here or taken from the standard
library so that no program change can alter it.  Its time tracks the
machine's speed at that moment for that kind of work.

* ``calibrate()``, for operations in process: a small damped Newton solve
  of the kind the solver runs.
* ``calibrate_process()``, for fresh processes: an interpreter that starts
  and imports a fixed set of standard modules.  Start-up and import depend
  on the machine's speed far less than the solver does, so the in-process
  loop does not track them.

An operation's time at the reference speed is its raw time times the
calibration's reference time over the mean of the two calibrations around
it.  Over 300 fixture solves, that cut the spread of one fixture's times
(standard deviation of their logarithm) from 0.21 to 0.11; a mean over more
calibrations around the operation did worse, as the speed moves within
seconds.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# each calibration's time at the reference speed, near the faster of the
# two levels on the 2-CPU virtual machine where the benchmark was written
REFERENCE_MS = 3.0
PROCESS_REFERENCE_MS = 150.0

PROCESS_IMPORTS = "import json, decimal, email.message, http.client, unittest"

_RNG = np.random.default_rng(0)
_EXPONENTS = _RNG.standard_normal((40, 8))
_COEFFICIENTS = np.abs(_RNG.standard_normal(40)) + 0.5


def _newton() -> float:
    """Minimise sum(c * exp(E y)) - sum(y) by 25 damped Newton steps."""
    y = np.zeros(_EXPONENTS.shape[1])
    for _ in range(25):
        w = _COEFFICIENTS * np.exp(np.clip(_EXPONENTS @ y, -30.0, 30.0))
        gradient = _EXPONENTS.T @ w - 1.0
        hessian = (_EXPONENTS * w[:, None]).T @ _EXPONENTS + 1e-6 * np.eye(len(y))
        y = y - 0.5 * np.linalg.solve(hessian, gradient)
    return float(y.sum())


def calibrate() -> float:
    """Run the fixed loop once; its wall time in seconds."""
    started = time.perf_counter()
    total = sum(_newton() for _ in range(6))
    if total != total:  # keeps the loop's result live
        raise AssertionError("calibration produced NaN")
    return time.perf_counter() - started


def calibrate_process() -> float:
    """Run the fixed interpreter once, to its end; its wall time in seconds."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROCESS_IMPORTS], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - started


class Clock:
    """Calibrations between timed operations, and the scales they give."""

    def __init__(self, in_process: bool = True) -> None:
        self.calibration = calibrate if in_process else calibrate_process
        self.reference_ms = REFERENCE_MS if in_process else PROCESS_REFERENCE_MS
        self.calibrations: list[float] = []
        self.calibration()  # the first call fills lazy state and file caches
        self.mark()

    def mark(self) -> None:
        """Calibrate once: the boundary between two timed operations."""
        self.calibrations.append(self.calibration())

    def scale(self, k: int) -> float:
        """Factor for the operation between calibrations ``k`` and ``k + 1``."""
        around = (self.calibrations[k] + self.calibrations[k + 1]) / 2.0
        return self.reference_ms / 1e3 / around
