"""A reference unit of time, measured between jobs to cancel host speed drift.

On a shared virtual machine the host's speed drifts by 10-25% over minutes,
and differently for interpreter-bound and for numpy-bound code.  So the
benchmark also times two fixed kernels of its own, between jobs and in the
same process: a pure-Python Gaussian elimination over F_2, and numpy passes
over a block of words like the enumeration's.  The reference unit is the
geometric mean of their median times.  Job times divided by it move when the
program changes, and far less when the host does.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import numpy as np

from workloads import rank_mod_p


class Calibration:
    """Timings of the two fixed kernels, one sample per call to ``sample``."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._matrix = [[rng.randrange(4) for _ in range(24)] for _ in range(16)]
        self._block = np.random.default_rng(0).integers(0, 4, size=(1 << 14, 14))
        self._buffer = np.empty_like(self._block)
        self.python_s: list[float] = []
        self.numpy_s: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(6):
            rank_mod_p(self._matrix, 2)
        middle = time.perf_counter()
        for _ in range(4):
            np.add(self._block, 3, out=self._buffer)
            np.remainder(self._buffer, 4, out=self._buffer)
            np.bincount(np.count_nonzero(self._buffer, axis=1), minlength=15)
        end = time.perf_counter()
        self.python_s.append(middle - start)
        self.numpy_s.append(end - middle)

    @property
    def unit_s(self) -> float:
        """The reference unit in seconds."""
        return math.sqrt(statistics.median(self.python_s) * statistics.median(self.numpy_s))
