"""Host-speed calibration for the host-time metrics.

Shared 2-vCPU cloud VMs have slow phases lasting tens of seconds in
which the same pure-Python work takes up to twice as long; CPU time
slows with wall time, so the cause is the processor, not scheduling.
Every host-time measurement is therefore paired with a short
calibration loop run right next to it, and scaled to what it would
have been on a host where the loop costs ``REF_US_PER_ITER``:

    normalized = measured * REF_US_PER_ITER / loop_us_per_iter

There are two loops.  ``spin`` works on a small heap and table and
tracks the single-link workloads (log-log slope of their run time
against it: 1.02).  ``spin_large`` chases pointers through a 32k-node
ring and a 64k-entry table and tracks the constellation, whose run
touches hundreds of links and a heap of thousands of entries (slope
1.00, against 0.72 for ``spin``).

The loops are the benchmark's own code and run with the garbage
collector off; a full collection before each timed phase keeps the
previous unit's garbage out of it.  They still start from the cache
and heap state the program leaves behind, so a program change can move
them a little.  Measured on a 2-vCPU cloud VM in one process,
alternating states: a walk over 64 MB right before the loop (cold
caches and TLB) raised its cost by a median 3.7% (``spin``) and 1.2%
(``spin_large``); 600k extra live objects by 0.8% and 1.4%.  A
fixed-work slowdown injected into the engine's dispatch loop showed in
the normalized constellation throughput as in the raw one (ratio 0.821
against 0.823 for a CPU-bound slowdown, 0.576 against 0.580 for one
touching 64 MB per event); on ``link_saturated`` the two agreed within
four runs' host noise.
"""

from __future__ import annotations

import functools
import gc
import heapq
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["REF_US_PER_ITER", "Timing", "run_chunked", "spin", "spin_large", "timed"]

REF_US_PER_ITER = 1.5
"""A typical per-iteration cost of the loops on a 2-vCPU VM."""

CHUNKS = 16
CHUNK_SPIN = 10_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def plus(self, other: int) -> int:
        return self.value + other


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next = self


@functools.cache
def _large_state() -> tuple[list[int], _Node]:
    """A shuffled 64k-key table and the head of a shuffled 32k-node ring."""
    rng = random.Random(1)
    keys = list(range(1 << 16))
    rng.shuffle(keys)
    nodes = [_Node(i) for i in range(1 << 15)]
    order = list(range(len(nodes)))
    rng.shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].next = nodes[there]
    return keys, nodes[0]


def _per_iteration(loop: Callable[[int], None], iterations: int) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        loop(iterations)
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed / iterations * 1e6


def _small_loop(iterations: int) -> None:
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[i & 1023] = _Cell(i).plus(i)
        total += table.get((i * 31) & 1023, 0)


def _large_loop(iterations: int) -> None:
    keys, node = _large_state()
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        heapq.heappush(heap, (keys[i & 0xFFFF], i))
        if len(heap) > 2048:
            heapq.heappop(heap)
        node = node.next
        table[keys[(i * 7) & 0xFFFF]] = node.value + i
        total += node.value


def spin(iterations: int = CHUNK_SPIN) -> float:
    """Microseconds per iteration of the small-working-set loop."""
    return _per_iteration(_small_loop, iterations)


def spin_large(iterations: int = CHUNK_SPIN) -> float:
    """Microseconds per iteration of the large-working-set loop."""
    _large_state()
    return _per_iteration(_large_loop, iterations)


@dataclass
class Timing:
    """Raw and host-normalized wall and CPU seconds of one run phase."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    norm_wall_s: float = 0.0
    norm_cpu_s: float = 0.0

    def add(self, wall: float, cpu: float, loop_us: float) -> None:
        scale = REF_US_PER_ITER / loop_us
        self.wall_s += wall
        self.cpu_s += cpu
        self.norm_wall_s += wall * scale
        self.norm_cpu_s += cpu * scale


def run_chunked(run_until: Callable[[float], Any], horizon: float,
                loop: Callable[[], float] = spin) -> Timing:
    """Run a simulation to *horizon* in equal chunks, each calibrated by *loop*.

    Splitting ``Simulator.run(until=...)`` changes no event: each call
    resumes exactly where the previous one stopped.
    """
    timing = Timing()
    gc.collect()
    for k in range(1, CHUNKS + 1):
        loop_us = loop()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        run_until(horizon * k / CHUNKS)
        timing.add(time.perf_counter() - wall0, time.process_time() - cpu0, loop_us)
    return timing


def timed(fn: Callable[[], Any],
          loop: Callable[[], float] = spin) -> tuple[Any, float, float]:
    """``(result, raw seconds, normalized seconds)`` of one call."""
    gc.collect()
    loop_us = loop()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, elapsed * REF_US_PER_ITER / loop_us
