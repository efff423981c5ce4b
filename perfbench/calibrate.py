"""A fixed reference kernel that measures how fast the host runs right now.

The host this benchmark runs on is shared, and its speed drifts by tens of
percent over minutes, longer than one run lasts.  A run therefore times this
kernel between its timed commands and reports each workload time as a
multiple of the kernel's median time from the same stretch of the run.  The
kernel is the benchmark's own code and never changes with the program, so a
faster program lowers the ratio by exactly as much as it lowers its seconds.

The kernel mixes the three kinds of work the program does: short dot
products driven from a Python loop (the solver's march), bulk random draws
and masked arithmetic over arrays of a million paths (the Monte Carlo
kernel) and scalar Python arithmetic (quadrature and scalar curve calls).
Its arrays are allocated once, up front: a fresh large array costs page
faults whose price depends on what the heap held before, not on the host.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

MARCH_STEPS = 3000
MARCH_WIDTH = 1600
# as many paths as the simulate workload's commands draw, so the kernel's
# arrays strain the caches and memory as theirs do
MC_PATHS = 1_000_000
MC_ROUNDS = 3
SCALAR_STEPS = 60_000


class Kernel:
    def __init__(self):
        rng = np.random.Generator(np.random.Philox(key=12345))
        self.a = rng.random(MARCH_WIDTH)
        self.b = rng.random(MARCH_WIDTH)
        self.draws = np.empty(MC_PATHS)
        self.sums = np.empty(MC_PATHS)
        self.alive = np.empty(MC_PATHS, dtype=bool)

    def run(self) -> float:
        """Run the kernel once; returns a checksum of its work."""
        a, b = self.a, self.b
        acc = 0.0
        for j in range(MARCH_STEPS):
            r = MARCH_WIDTH // 2 + j % (MARCH_WIDTH // 2)
            acc = 0.5 * acc + float(np.dot(a[:r], b[r - 1::-1])) / r

        rng = np.random.Generator(np.random.Philox(key=67890))
        self.sums.fill(0.0)
        self.alive.fill(True)
        for _ in range(MC_ROUNDS):
            rng.random(out=self.draws)
            np.log1p(self.draws, out=self.draws)
            np.add(self.sums, self.draws, out=self.sums, where=self.alive)
            np.less(self.sums, 1.5, out=self.alive)
        acc += float(self.sums.sum()) / MC_PATHS

        s = 0.0
        for i in range(1, SCALAR_STEPS):
            s += math.sqrt(i) / (1.0 + s * 1e-6)
        return acc + s * 1e-9

    def seconds(self) -> float:
        """Seconds one run of the kernel takes, timed after a garbage collection."""
        gc.collect()
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start
