"""Machine-speed calibration for a shared, noisy host.

On a core shared with other tenants the same code runs at visibly different
speeds from one stretch of seconds to the next: on a 2-vCPU x86 VM at 2.0 GHz
whole passes of a workload ran up to 1.8x slower than others, and the spread
of raw times across runs reached 15-60 % of their median.  The benchmark
therefore times a fixed reference kernel, owned by the benchmark and
independent of transferlab, between units, and rescales each unit's time by
how fast the kernel ran around it:

    calibrated = measured * REFERENCE_S / (kernel time near the unit)

so a calibrated time reads as seconds at the kernel's reference speed.  The
kernel mixes the work transferlab does: an interpreted loop that builds
tuples, and small numpy reductions, products and searches.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's time on an uncontended core of the host described above
REFERENCE_S = 0.003


class Reference:
    """The fixed reference kernel and the timings taken of it."""

    # how much unit time may pass between two kernel timings
    every_s = 0.05

    def __init__(self):
        rng = np.random.default_rng(2002_04747)
        self.idx = rng.integers(0, 256, 4096)
        self.mat = rng.random((256, 256))
        self.vec = rng.random(256)
        self.sorted = np.sort(rng.random(4096))
        self.queries = rng.random(512)

    def _kernel(self) -> float:
        rows = [tuple((i >> j) & 1 for j in range(9)) for i in range(512)]
        acc = float(len(set(rows)))
        for _ in range(24):
            acc += np.bincount(self.idx, minlength=256)[3]
            acc += (self.mat @ self.vec)[0]
            acc += np.searchsorted(self.sorted, self.queries)[0]
            acc += np.unique(self.idx[:1024]).size
        return acc

    def time(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def local_scales(self, marks: list[tuple[int, float]], count: int) -> list[float]:
        """Per-unit factors from kernel timings taken at unit positions.

        `marks` holds (position, kernel seconds) in order, the kernel timed just
        before the unit at that position (position `count` is after the last
        unit).  Each unit takes the median of the two timings before it and the
        two after it.
        """
        scales, k = [], 0
        for i in range(count):
            while k < len(marks) and marks[k][0] <= i:
                k += 1
            scales.append(self.scale_of([t for _, t in marks[max(0, k - 2):k + 2]]))
        return scales

    @staticmethod
    def scale_of(kernel_times) -> float:
        """Calibration factor from kernel timings: REFERENCE_S over their median."""
        return REFERENCE_S / statistics.median(kernel_times)
