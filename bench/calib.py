"""A fixed reference kernel that measures how fast the machine runs.

On a shared host the same work can take 1.5-2x longer from one minute to
the next (measured on a 2-core Xeon VM: one identical pass of the ``roots``
workload took 2.3 s, then 4.5 s, then 2.6 s).  So the worker times calls of
this kernel between the calls into the program, in the same process, and
every time is reported corrected for the kernel's time around it:

    calibrated time = raw time * (NOMINAL_S / kernel time) ** exponent

The factor does not depend on the program, so a change that makes the
program k times faster makes every calibrated time k times smaller, as it
does the raw time; only the machine's drift is damped.  The
kernel does the kinds of work the program does: exact elimination over
Fractions, dict-based polynomial products, and small dense numpy
eigendecompositions driven from a Python loop.  It never calls the program.

On that VM the kernel's time jumps between two levels (about 4.7 ms and
9 ms) every few seconds.  Exact arithmetic follows it call by call, but
numpy-heavy calls slow down by only 1.2-1.4x when the kernel slows by 2x,
and a call that lasts many seconds is not represented by the kernel calls
at its two ends.  So each workload chooses (``CALIBRATION`` in
workloads.py) between the kernel calls around each visit and the run's
typical kernel time, and the exponent: the share of the kernel's change of
speed, in log terms, that its calls follow.

Each sample also records the process CPU time it used: a program that left
threads running after it returned would slow the kernel and so flatter its
own calibrated times; ``busy_ratio`` exposes that.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

#: calibrated times are seconds on a machine where one kernel call takes this long
NOMINAL_S = 0.008


def calibrate(raw_s: float, kernel_s: float, exponent: float) -> float:
    """A time measured while one kernel call took ``kernel_s``, at nominal speed.

    ``exponent`` is the share of the kernel's change of speed, in log terms,
    that the corrected time follows.
    """
    return raw_s * (NOMINAL_S / kernel_s) ** exponent


def typical(kernel_walls) -> float:
    """The mean of the middle half of the kernel times of a run.

    It weighs the two speed levels by how often the kernel met them, but not
    the rare calls that some other process stretched to 3-6x.
    """
    ordered = sorted(kernel_walls)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def around(kernel, block: int) -> float:
    """The median kernel time of the batches just before and just after a block."""
    start, end = kernel["batches"][block][0], kernel["batches"][block + 1][1]
    return statistics.median(kernel["wall"][start:end])


_rng = random.Random(20220509)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(8)]
           for _ in range(8)]
_POLY = {(i, j): _rng.randint(-5, 5) or 1 for i in range(5) for j in range(5 - i)}


def _det(rows):
    m = [row[:] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


def _square(p):
    out = {}
    for (a, b), x in p.items():
        for (c, d), y in p.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    return out


def _make_numeric():
    import numpy as np

    a = np.random.default_rng(7).standard_normal((6, 6))
    a = a + a.T

    def numeric():
        x = a.copy()
        for _ in range(70):
            w, v = np.linalg.eigh(x)
            x = (v * np.maximum(w, 0.0)) @ v.T + 0.01 * a
        return float(x[0, 0])

    return numeric


_numeric = None


def kernel():
    """One call of the reference kernel (about 8 ms on the machine named above)."""
    global _numeric
    if _numeric is None:
        _numeric = _make_numeric()
    for _ in range(3):
        _det(_MATRIX)
        _square(_square(_POLY))
    _numeric()


class Calibrator:
    """Collects kernel samples: wall and process CPU seconds per call, and the
    index range of each batch."""

    def __init__(self):
        self.wall = []
        self.cpu = []
        self.batches = []

    def sample(self, count: int):
        """Time a batch of ``count`` kernel calls."""
        self.batches.append((len(self.wall), len(self.wall) + count))
        for _ in range(count):
            c0 = time.process_time()
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            self.cpu.append(time.process_time() - c0)
            self.wall.append(dt)

    def busy_ratio(self) -> float:
        """Process CPU time over wall time while the kernel ran; about 1 when nothing else runs."""
        return sum(self.cpu) / sum(self.wall)
