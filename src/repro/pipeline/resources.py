"""Resource contention primitives for the scheduling model.

Three flavours of hardware resource appear in the core:

* :class:`BandwidthLimiter` — a per-cycle throughput cap (fetch width,
  rename/dispatch width, issue width, commit width, PRF prediction write
  ports);
* :class:`UnitPool` — k units that each serve one operation at a time
  (functional units; non-pipelined dividers occupy their unit for the full
  latency);
* :class:`InOrderWindow` / :class:`OutOfOrderWindow` — finite buffers whose
  entries are reclaimed in allocation order (ROB, LQ, SQ, physical register
  writers) or out of order (the issue queue, freed at issue).
"""

from __future__ import annotations

import heapq
from collections import deque


class BandwidthLimiter:
    """At most *width* grants per cycle; requests may arrive out of order.

    The per-cycle grant counts live in a dict keyed by cycle.  Left alone
    it would retain one entry per simulated cycle for the whole run (the
    seed model leaked exactly that, one dict per limiter); callers instead
    publish a *watermark* — a cycle below which no future request can land
    — via :meth:`advance_watermark`, and the limiter prunes retired
    entries in place.  Pruning is observationally invisible: an entry is
    dropped only once no ``grant`` can ever probe it again.
    """

    __slots__ = ("width", "_counts", "_floor")

    #: Entry count above which an advancing watermark triggers a prune.
    PRUNE_THRESHOLD = 256

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self._counts: dict[int, int] = {}
        self._floor = 0

    def grant(self, earliest: int) -> int:
        """Return the first cycle >= *earliest* with a free slot, claiming it."""
        counts = self._counts
        cycle = earliest
        while counts.get(cycle, 0) >= self.width:
            cycle += 1
        counts[cycle] = counts.get(cycle, 0) + 1
        return cycle

    def advance_watermark(self, cycle: int) -> None:
        """Declare that every future ``grant(earliest)`` has ``earliest >=
        cycle``; prunes entries of retired cycles once enough accumulate.

        The dict is pruned *in place* so hot loops holding a direct
        reference to ``_counts`` stay valid.
        """
        if cycle > self._floor:
            self._floor = cycle
            counts = self._counts
            if len(counts) > self.PRUNE_THRESHOLD:
                for stale in [c for c in counts if c < cycle]:
                    del counts[stale]

    @property
    def tracked_cycles(self) -> int:
        """Number of live per-cycle entries (regression-tested bound)."""
        return len(self._counts)


class UnitPool:
    """*units* servers; each grant occupies a server for *occupancy* cycles."""

    __slots__ = ("_free",)

    def __init__(self, units: int):
        if units <= 0:
            raise ValueError("need at least one unit")
        self._free = [0] * units

    def grant(self, earliest: int, occupancy: int = 1) -> int:
        """Return the start cycle on the earliest-available unit."""
        start = max(earliest, self._free[0])
        heapq.heapreplace(self._free, start + occupancy)
        return start


class InOrderWindow:
    """A buffer of *size* entries allocated and reclaimed in program order.

    Protocol: ``acquire(earliest)`` returns the earliest cycle an entry is
    available (waiting for the oldest occupant when full); the caller must
    then ``push_release(t)`` with the cycle its own entry will be reclaimed
    (its commit time).  Release times must be non-decreasing, which holds
    for commit times by construction.
    """

    __slots__ = ("size", "_releases", "stalls")

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("window size must be positive")
        self.size = size
        self._releases: deque[int] = deque()
        self.stalls = 0

    def acquire(self, earliest: int) -> int:
        if len(self._releases) < self.size:
            return earliest
        oldest = self._releases.popleft()
        if oldest > earliest:
            self.stalls += 1
            return oldest
        return earliest

    def push_release(self, release_cycle: int) -> None:
        self._releases.append(release_cycle)

    @property
    def occupancy(self) -> int:
        return len(self._releases)


class OutOfOrderWindow:
    """A buffer whose entries free out of order (the issue queue).

    When full, the next allocation waits for the *earliest-releasing*
    occupant, which a min-heap yields directly.
    """

    __slots__ = ("size", "_releases", "stalls")

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("window size must be positive")
        self.size = size
        self._releases: list[int] = []
        self.stalls = 0

    def acquire(self, earliest: int) -> int:
        if len(self._releases) < self.size:
            return earliest
        soonest = heapq.heappop(self._releases)
        if soonest > earliest:
            self.stalls += 1
            return soonest
        return earliest

    def push_release(self, release_cycle: int) -> None:
        heapq.heappush(self._releases, release_cycle)

    @property
    def occupancy(self) -> int:
        return len(self._releases)
