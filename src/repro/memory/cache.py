"""Set-associative cache timing model with MSHR-limited outstanding misses.

The model tracks tags and in-flight line fills, not data: a trace-driven
simulator only needs hit/miss latencies.  Miss Status Holding Registers cap
the number of outstanding misses (Table 2: 64 per cache); accesses to a
line already being filled merge with the pending fill.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


@dataclass(slots=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str = "L1D"
    size_bytes: int = 32 * 1024
    ways: int = 4
    line_bytes: int = 64
    hit_latency: int = 2
    mshrs: int = 64

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    def __post_init__(self):
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(f"{self.name}: set count {sets} must be a power of two")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")


class Cache:
    """One cache level.

    ``access`` returns the cycle at which the requested data is available,
    calling *miss_handler(line_addr, cycle)* to obtain the fill-completion
    time from the next level when needed.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.sets - 1
        self._hit_latency = config.hit_latency
        # Per-set list of line addresses; front = MRU.
        self._sets: list[list[int]] = [[] for _ in range(config.sets)]
        # In-flight or recent fills: line -> ready cycle.
        self._fill_ready: dict[int, int] = {}
        # Outstanding-miss completion times, capped by #MSHRs.
        self._mshr_heap: list[int] = []
        self.hits = 0
        self.misses = 0
        self.mshr_stalls = 0

    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def _set_for(self, line: int) -> list[int]:
        return self._sets[line & self._set_mask]

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU or statistics."""
        return self.line_of(addr) in self._set_for(self.line_of(addr))

    def access(self, addr: int, cycle: int, miss_handler) -> int:
        """Access *addr* at *cycle*; returns the data-ready cycle."""
        line = addr >> self._line_shift
        ways = self._sets[line & self._set_mask]
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            self.hits += 1
            pending = self._fill_ready.get(line)
            if pending is not None and pending > cycle:
                # Line is present but still being filled (prefetch or an
                # earlier miss): wait for the remainder of the fill.
                return pending + 1
            return cycle + self._hit_latency
        self.misses += 1
        start = self._mshr_admit(cycle)
        ready = miss_handler(line << self._line_shift, start + self._hit_latency)
        self._install(line, ready)
        heapq.heappush(self._mshr_heap, ready)
        return ready

    def install_prefetch(self, addr: int, ready_cycle: int) -> bool:
        """Install a prefetched line; returns False if it was already here."""
        line = self.line_of(addr)
        ways = self._set_for(line)
        if line in ways:
            return False
        self._install(line, ready_cycle)
        return True

    def _install(self, line: int, ready_cycle: int) -> None:
        ways = self._set_for(line)
        ways.insert(0, line)
        if len(ways) > self.config.ways:
            victim = ways.pop()
            self._fill_ready.pop(victim, None)
        self._fill_ready[line] = ready_cycle

    def _mshr_admit(self, cycle: int) -> int:
        """Delay the miss if all MSHRs are busy at *cycle*."""
        heap = self._mshr_heap
        while heap and heap[0] <= cycle:
            heapq.heappop(heap)
        if len(heap) >= self.config.mshrs:
            self.mshr_stalls += 1
            return heapq.heappop(heap)
        return cycle
