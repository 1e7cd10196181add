"""Host-speed normalisation against a fixed reference kernel.

The benchmark runs on a few vCPUs of a shared host, and the host's speed
drifts by up to 2x within seconds (a neighbour's load slows the CPU itself:
CPU time tracks wall time, and steal time stays near zero).  Every timing
the benchmark reports is therefore taken next to a timing of a fixed
reference kernel and scaled to a host on which that kernel takes
``REFERENCE_S``:

    normalised = measured * REFERENCE_S / kernel time around the measurement

The kernel is the benchmark's own code, not the program's: a Dijkstra pass
over a fixed weighted grid, made of the same dict, heap and float work as
the program's route searches, so it slows down with the host in about the same
proportion.  A change to the program cannot change the kernel, and a
faster program reads faster by exactly its own gain.

Each vCPU of the host slows down on its own.  Work that stays in this
process is normalised by the kernel timed where the process runs; work
spread over a worker pool runs on every vCPU, so it is normalised by the
mean of one kernel pass pinned to each vCPU in turn (``spread``).
"""

from __future__ import annotations

import heapq
import os
import random
import time
from typing import Dict, List, Tuple

#: Kernel time of the reference host.  Normalised timings read as if one
#: kernel pass took this long; a quiet 2-vCPU reference box takes about 1.1 ms.
REFERENCE_S = 0.001

GRID = 30


def _grid(size: int, seed: int) -> Dict[int, List[Tuple[int, float]]]:
    rng = random.Random(seed)
    adjacency: Dict[int, List[Tuple[int, float]]] = {node: [] for node in range(size * size)}
    for row in range(size):
        for col in range(size):
            node = row * size + col
            for neighbour in ((node + 1) if col + 1 < size else None, (node + size) if row + 1 < size else None):
                if neighbour is not None:
                    weight = rng.uniform(1.0, 3.0)
                    adjacency[node].append((neighbour, weight))
                    adjacency[neighbour].append((node, weight))
    return adjacency


class HostSpeed:
    """Times the reference kernel; one instance per benchmark process."""

    def __init__(self) -> None:
        self._graph = _grid(GRID, seed=5)
        self._cpus = sorted(os.sched_getaffinity(0))
        #: Wall and CPU seconds spent in the kernel, to subtract from any
        #: interval the samples were taken in.
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def _kernel(self) -> int:
        graph = self._graph
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        done = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for neighbour, weight in graph[node]:
                candidate = d + weight
                if candidate < dist.get(neighbour, float("inf")):
                    dist[neighbour] = candidate
                    heapq.heappush(heap, (candidate, neighbour))
        return len(done)

    def _timed_kernel(self) -> float:
        started = time.perf_counter()
        self._kernel()
        return time.perf_counter() - started

    def sample(self, spread: bool = False) -> float:
        """Seconds of one kernel pass now; with ``spread``, the mean of one
        pass on each vCPU this process may use."""
        cpu_started = time.process_time()
        started = time.perf_counter()
        if spread and len(self._cpus) > 1:
            passes = []
            try:
                for cpu in self._cpus:
                    os.sched_setaffinity(0, {cpu})
                    passes.append(self._timed_kernel())
            finally:
                # Processes forked later (pool workers) inherit the mask.
                os.sched_setaffinity(0, self._cpus)
            elapsed = sum(passes) / len(passes)
        else:
            elapsed = self._timed_kernel()
        self.spent_s += time.perf_counter() - started
        self.spent_cpu_s += time.process_time() - cpu_started
        return elapsed


def normalise(seconds: float, before_s: float, after_s: float) -> float:
    """``seconds`` measured between kernel samples ``before_s`` and
    ``after_s``, scaled to the reference host."""
    return seconds * REFERENCE_S * 2.0 / (before_s + after_s)


class Stopwatch:
    """Times segments of work with a kernel sample at every boundary.

    The sample taken when one segment stops is the ``before`` sample of the
    next, so consecutive segments cost one sample each.
    """

    def __init__(self, speed: HostSpeed, spread: bool = False) -> None:
        self.speed = speed
        self.spread = spread
        self.kernel_s: List[float] = [speed.sample(spread)]
        self._started = 0.0

    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self) -> Tuple[float, float]:
        """End the segment; returns its (measured, normalised) seconds."""
        measured = time.perf_counter() - self._started
        self.kernel_s.append(self.speed.sample(self.spread))
        return measured, normalise(measured, self.kernel_s[-2], self.kernel_s[-1])
