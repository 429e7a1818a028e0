"""Result caching: an in-process layer plus a persistent JSON store.

Every cache entry is keyed by the owning job's content key (a digest of
the full job spec, including the core-config content), so a hit is only
possible for a spec-identical simulation.  The disk layout is one small
JSON file per result under ``<dir>/<key[:2]>/<key>.json`` — entries are
written through :func:`repro.util.atomicio.atomic_write_text` (temp
file, fsync, rename) so neither concurrent executors nor a crash
mid-write can ever leave a torn committed file, and every write passes
the ``cache.write`` fault-injection site
(:mod:`repro.engine.faults`) so the chaos suite can prove it.

The disk layer is optional: by default the engine runs memory-only, and
persists when ``REPRO_CACHE_DIR`` (or the CLI ``--cache-dir``-equivalent
configuration) points somewhere.  Because every committed file is whole,
a directory can be shared by any number of processes — engines,
service daemons, cluster shards — and a memory miss reads through to
whatever any of them published.  This is the fleet's only
cross-shard result path.

The memory layer is a bounded LRU (:data:`MEMORY_MAX_ENTRIES`), so a
long-lived daemon's footprint stays flat; an evicted entry of a
disk-backed cache is simply re-read on its next use.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path

from repro.engine.job import SimJob
from repro.pipeline.result import SimResult
from repro.util import profiling
from repro.util.atomicio import atomic_write_text

#: Environment variable selecting the persistent cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: On-disk entry format version; mismatched entries are ignored.
CACHE_FORMAT_VERSION = 1

#: Most results the in-process layer holds; past it the least recently
#: used entry is dropped, so a long-lived daemon's memory stays flat.
MEMORY_MAX_ENTRIES = 16384


def default_cache_dir() -> Path | None:
    """Resolve the persistent cache directory (None = memory-only)."""
    raw = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(raw) if raw else None


class ResultCache:
    """Two-level (memory, optional disk) cache of :class:`SimResult`s."""

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = Path(directory) if directory is not None else None
        self._memory: OrderedDict[str, SimResult] = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.write_failures = 0  # failed persists (results stay in memory)

    # -- key plumbing ---------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.json"

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def __len__(self) -> int:
        return len(self._memory)

    def _remember(self, key: str, result: SimResult) -> None:
        """Insert (or refresh) *key* in the memory layer; evict LRU entries
        past :data:`MEMORY_MAX_ENTRIES`."""
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > MEMORY_MAX_ENTRIES:
            self._memory.popitem(last=False)

    # -- lookup/store ---------------------------------------------------

    def get(self, job: SimJob) -> SimResult | None:
        key = job.content_key()
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            return cached
        result = self._load_disk(key)
        if result is not None:
            self.disk_hits += 1
            return result
        self.misses += 1
        return None

    def _load_disk(self, key: str) -> SimResult | None:
        """Read one entry from the disk layer into memory (or ``None``).

        Another process may have written the file, so anything but a
        well-formed entry of this format and this key reads as a miss.
        """
        if self.directory is None:
            return None
        path = self._path(key)
        if not path.is_file():
            return None
        try:
            with profiling.phase("result-cache-io"):
                entry = json.loads(path.read_text())
            if entry.get("version") != CACHE_FORMAT_VERSION or \
                    entry.get("key") != key:
                return None
            result = SimResult.from_dict(entry["result"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None
        self._remember(key, result)
        return result

    def put_memory(self, job: SimJob, result: SimResult) -> None:
        """Store in the in-process layer only (no disk write).

        For results that already live durably elsewhere — e.g. campaign
        journal entries replayed on resume — where re-persisting every
        entry per invocation would be pure disk churn.
        """
        self._remember(job.content_key(), result)

    def seed(self, key: str, result: SimResult) -> None:
        """Insert a result under a precomputed content key (memory only).

        For journal replay, where the key was persisted alongside the
        result and recomputing it would need a materialised job.  An
        existing entry wins: the cache's copy is never downgraded.
        """
        if key not in self._memory:
            self._remember(key, result)

    def put(self, job: SimJob, result: SimResult) -> None:
        key = job.content_key()
        self._remember(key, result)
        self.stores += 1
        if self.directory is None:
            return
        entry = {
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            "job": job.to_dict(),
            "result": result.to_dict(),
        }
        # A failed persist must never kill a simulation run: the result is
        # already in the memory layer, the disk copy is an optimisation.
        # TypeError/ValueError cover results whose ``extra`` dict holds
        # values json can't encode.
        try:
            with profiling.phase("result-cache-io"):
                path = self._path(key)
                path.parent.mkdir(parents=True, exist_ok=True)
                atomic_write_text(
                    path, json.dumps(entry, sort_keys=True, indent=1),
                    site="cache.write",
                )
        except (OSError, TypeError, ValueError):
            self.write_failures += 1

    # -- maintenance ----------------------------------------------------

    def disk_entries(self) -> list[Path]:
        if self.directory is None or not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("??/*.json"))

    def clear(self, disk: bool = True) -> int:
        """Drop the memory layer and (optionally) every disk entry.

        Also sweeps ``*.tmp.*`` files orphaned by interrupted writes.
        Returns the number of disk entries removed.
        """
        self._memory.clear()
        removed = 0
        if disk:
            for path in self.disk_entries():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            if self.directory is not None and self.directory.is_dir():
                for orphan in self.directory.glob("??/*.tmp.*"):
                    try:
                        orphan.unlink()
                    except OSError:
                        pass
        return removed

    def stats(self) -> dict:
        return {
            "directory": str(self.directory) if self.directory else None,
            "memory_entries": len(self._memory),
            "disk_entries": len(self.disk_entries()),
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "write_failures": self.write_failures,
        }
