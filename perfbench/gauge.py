"""Host-speed probes: a fixed reference kernel timed while a sample runs.

The host this benchmark runs on is shared. A core's speed drifts by
tens of percent over seconds to minutes, and the drift on one core is
unrelated to that on another, so only the thread doing the work can
gauge it. While a sample runs, a SIGALRM handler runs a short reference
kernel every ``INTERVAL`` seconds on the main thread, between the
program's own bytecodes. The untraced run subtracts the probes from the
wall time of each timed call and reports what is left in units of the
mean probe time, so that the drift cancels.

The kernel does the kind of work the partitioners do: a Python loop of
small numpy operations on a (k, n) replica matrix, column gathers from
it, heap pushes and pops, and plain integer arithmetic. Its buffers are
allocated once, at import, so that a probe adds nothing to the peak RSS
of the call it interrupts. It is frozen here, apart from ``src/``, so
that a change to the program does not move it.
"""
from __future__ import annotations

import heapq
import signal
import time
from contextlib import contextmanager

import numpy as np

K = 32
N = 23_144  # vertices of the OK analog
STEPS = 300  # about 12 ms per probe on a shared 4-core x86-64 VM
INT_OPS = 40  # interpreter-only integer steps per pair
INTERVAL = 0.25  # seconds of wall time between probes

_PAIRS = np.random.default_rng(0).integers(0, N, (STEPS, 2)).tolist()
_REPLICAS = np.zeros((K, N), dtype=bool)
_SIZES = np.zeros(K, dtype=np.int64)


def kernel() -> int:
    """HDRF-like scoring of STEPS fixed pseudo-random vertex pairs."""
    replicas, sizes = _REPLICAS, _SIZES
    replicas[:] = False
    sizes[:] = 0
    heap: list[tuple[int, int]] = []
    for u, v in _PAIRS:
        rep = replicas[:, u] * 1.5 + replicas[:, v] * 1.2
        mx, mn = sizes.max(), sizes.min()
        score = rep + 1.1 * (mx - sizes) / (1.0 + mx - mn)
        p = int(np.flatnonzero(score == score.max())[0])
        replicas[p, u] = True
        replicas[p, v] = True
        sizes[p] += 1
        heapq.heappush(heap, (u % 97, v))
        if len(heap) > 64:
            heapq.heappop(heap)
        acc = u
        for i in range(INT_OPS):
            acc = (acc * 31 + i) % 1_000_003
        sizes[p] += acc & 1
    return int(sizes.argmax())


class Gauge:
    """The probe spans ``(start, end)`` of one sample."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.spans.append((t0, time.perf_counter()))

    @contextmanager
    def sampling(self):
        """Probe once before the block, every INTERVAL seconds inside it,
        and once after it. Spans from earlier blocks are dropped."""
        self.spans.clear()
        self.probe()
        old = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        self.probe()

    def net(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1 less the probes that ran inside it."""
        inside = sum(e - s for s, e in self.spans if t0 <= s and e <= t1)
        return t1 - t0 - inside

    def unit(self) -> float:
        """Mean probe time of the sample, in seconds."""
        return sum(e - s for s, e in self.spans) / len(self.spans)
