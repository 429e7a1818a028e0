"""Content-addressed on-disk trace store (the persistent trace plane).

Building a trace is pure and deterministic, but not free: the kernel VM
emits ~5 µs/µop of Python work, so a cold daemon restart or a fresh
worker process used to pay the full generation cost for every workload it
touched.  The store persists the *packed* columnar form
(:class:`~repro.isa.trace.PackedColumns`) of each built trace under a
content key, so any later process — same machine, any backend — loads
the bytes (mmap-able ``.npy`` per column) instead of re-running the
generator.

**Keying.**  ``trace_key(name, n_uops, seed)`` digests the same identity
tuple the in-process trace cache uses, plus three versions: the packed
schema (:data:`~repro.isa.trace.TRACE_SCHEMA_VERSION`), the store layout
(:data:`STORE_FORMAT_VERSION`) and the generator
(:data:`TRACE_GENERATOR_VERSION` — bump it whenever kernels, invariant
injection or scenario generation change the emitted µop stream).  A
version bump silently orphans old entries instead of misreading them.

**Layout.**  One directory per entry: ``<dir>/<key[:2]>/<key>/`` holding
``meta.json`` plus one ``<column>.npy`` file per schema column.  Writes
go to a ``*.tmp.<pid>`` sibling directory and are renamed into place, so
concurrent writers race benignly (first rename wins, the loser discards).
An entry is published iff its ``meta.json`` exists: that is what
``put`` and ``contains`` test, never the bare directory.

**Corruption.**  ``get`` validates versions, identity and every column's
dtype/length; any damage (truncated file, bad JSON, schema drift) makes
it quarantine the entry and return ``None``, and the caller
regenerates — a broken store can cost time, never correctness.
Quarantine first renames the entry aside to a ``*.tmp.*`` name (which
listing skips and ``clear`` sweeps), then deletes it there, so removing
one damaged entry can never empty an entry another process publishes at
the same path meanwhile.

**Crash consistency & chaos.**  Every payload file (columns and
``meta.json``) is fsynced before the directory rename commits the
entry, so a crash mid-``put`` leaves only a ``*.tmp.*`` orphan, never a
half-entry at a committed path.  Reads and writes pass the
``store.read`` / ``store.write`` fault-injection sites
(:mod:`repro.engine.faults`): injected truncation, garbage metadata and
``ENOSPC`` exercise exactly the quarantine-and-regenerate path above.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
import shutil
import tempfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from repro.isa.trace import (
    COLUMN_SCHEMA,
    TRACE_SCHEMA_VERSION,
    PackedColumns,
    Trace,
)
from repro.util import profiling
from repro.util.atomicio import atomic_write_text, fsync_file

#: Environment variable selecting the persistent trace store directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: On-disk layout version; mismatched entries are ignored (and reclaimed).
STORE_FORMAT_VERSION = 1

#: Version of the trace *generators* (kernels, invariant injection,
#: scenarios, builder).  Any change that alters the emitted µop stream for
#: some (name, n_uops, seed) must bump this so stored traces regenerate.
TRACE_GENERATOR_VERSION = 1

_META_NAME = "meta.json"


def default_trace_store() -> "TraceStore | None":
    """The store named by ``$REPRO_TRACE_DIR``, or ``None`` when unset."""
    raw = os.environ.get(TRACE_DIR_ENV, "").strip()
    return TraceStore(raw) if raw else None


@contextlib.contextmanager
def shared_trace_store() -> "Iterator[TraceStore]":
    """The store every worker of one fan-out reads and writes.

    Yields the configured ``$REPRO_TRACE_DIR`` store, left in place on
    close.  With none configured it yields a private temporary store
    (``repro-traces-*``) that is removed on close, so the workers of one
    pool still generate each trace once between them.
    """
    store = default_trace_store()
    if store is not None:
        yield store
        return
    with tempfile.TemporaryDirectory(prefix="repro-traces-") as private:
        yield TraceStore(private)


def trace_key(name: str, n_uops: int, seed: int) -> str:
    """Stable content key for one built trace.

    Digests the identity tuple plus every version that affects the bytes:
    two traces share a key iff the same generator code would produce the
    same packed columns for them.
    """
    payload = (
        f"trace:store{STORE_FORMAT_VERSION}:gen{TRACE_GENERATOR_VERSION}"
        f":schema{TRACE_SCHEMA_VERSION}:{name}:{n_uops}:{seed}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _quarantine(path: Path) -> None:
    """Remove a damaged entry (or aux payload) without racing its writers.

    The directory is renamed aside to a unique ``*.tmp.*`` sibling first —
    one atomic step, after which the committed path holds a whole entry or
    nothing — and deleted there.  An in-place ``rmtree`` deletes file by
    file under the committed path, and could leave an entry another process
    just published there without its ``meta.json``.  If the rename fails,
    someone else already moved the path: nothing to do.
    """
    aside = path.with_name(
        f"{path.name}.tmp.quarantine.{os.getpid()}.{secrets.token_hex(4)}")
    try:
        os.rename(path, aside)
    except OSError:
        return
    shutil.rmtree(aside, ignore_errors=True)


class TraceStore:
    """Content-addressed directory of packed traces (one subdir per key)."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    # -- paths -----------------------------------------------------------

    def _entry_dir(self, key: str) -> Path:
        return self.directory / key[:2] / key

    # -- store -----------------------------------------------------------

    def put(self, trace: Trace, name: str, n_uops: int, seed: int) -> Path:
        """Persist *trace*'s packed columns; returns the entry directory.

        Idempotent and race-tolerant: if the entry already exists (another
        process won), the temp copy is discarded.  IO failures are
        swallowed — persisting is an optimisation, never a correctness
        requirement.
        """
        key = trace_key(name, n_uops, seed)
        final = self._entry_dir(key)
        if (final / _META_NAME).is_file():
            return final
        if final.exists():
            _quarantine(final)  # a damaged entry: out of the way first
        packed = trace.packed()
        meta = {
            "format": STORE_FORMAT_VERSION,
            "generator": TRACE_GENERATOR_VERSION,
            "schema": TRACE_SCHEMA_VERSION,
            "name": name,
            "n_uops": n_uops,
            "seed": seed,
            "n": packed.n,
            "nbytes": packed.nbytes,
            "columns": {col: str(packed.arrays[col].dtype)
                        for col, _ in COLUMN_SCHEMA},
        }
        # Imported lazily: the fault plane lives on the engine layer, and
        # workloads must stay importable without it.
        from repro.engine import faults

        tmp = final.with_name(f"{final.name}.tmp.{os.getpid()}")
        try:
            with profiling.phase("trace-store-save"):
                rule = faults.fire("store.write")
                if rule is not None and rule.action == "enospc":
                    raise faults.io_error(rule, "store.write")
                tmp.mkdir(parents=True, exist_ok=True)
                for i, (col, _) in enumerate(COLUMN_SCHEMA):
                    if rule is not None and rule.action == "partial" and i:
                        # Simulate a kill after the first column file: the
                        # half-written set stays in the tmp dir and is
                        # cleaned below — never renamed into place.
                        raise faults.io_error(rule, "store.write")
                    np.save(tmp / f"{col}.npy", packed.arrays[col],
                            allow_pickle=False)
                    fsync_file(tmp / f"{col}.npy")
                atomic_write_text(tmp / _META_NAME,
                                  json.dumps(meta, sort_keys=True, indent=1))
                try:
                    os.rename(tmp, final)
                except OSError:
                    shutil.rmtree(tmp, ignore_errors=True)  # lost the race
            self.stores += 1
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
        return final

    def contains(self, name: str, n_uops: int, seed: int) -> bool:
        """Whether an entry exists for this identity (no load, no checks).

        A cheap existence probe for the fan-out sites (job queue, pool
        executor), deciding whether a job would run a generator;
        :meth:`get` still does the full validation.
        """
        entry = self._entry_dir(trace_key(name, n_uops, seed))
        return (entry / _META_NAME).is_file()

    def get(self, name: str, n_uops: int, seed: int,
            mmap: bool = True) -> Trace | None:
        """Load one trace, or ``None`` on miss/corruption.

        With ``mmap`` (the default) columns come back as read-only
        ``numpy.memmap`` views — the OS pages trace bytes in on demand and
        shares them between processes mapping the same entry.  Corrupt
        entries are deleted so the caller's regeneration heals the store.
        """
        key = trace_key(name, n_uops, seed)
        entry = self._entry_dir(key)
        if not entry.is_dir():
            self.misses += 1
            return None
        from repro.engine import faults

        rule = faults.fire("store.read")
        if rule is not None:
            # Damage the entry on disk, then read as normal: the ordinary
            # validation below must catch it and quarantine the entry.
            faults.damage_store_entry(
                rule, entry, f"{COLUMN_SCHEMA[0][0]}.npy", _META_NAME)
        try:
            with profiling.phase("trace-store-load"):
                meta = json.loads((entry / _META_NAME).read_text())
                if (
                    meta.get("format") != STORE_FORMAT_VERSION
                    or meta.get("generator") != TRACE_GENERATOR_VERSION
                    or meta.get("schema") != TRACE_SCHEMA_VERSION
                    or meta.get("name") != name
                    or meta.get("n_uops") != n_uops
                    or meta.get("seed") != seed
                ):
                    raise ValueError("metadata does not match the request")
                arrays = {
                    col: np.load(entry / f"{col}.npy",
                                 mmap_mode="r" if mmap else None,
                                 allow_pickle=False)
                    for col, _ in COLUMN_SCHEMA
                }
                packed = PackedColumns(int(meta["n"]), arrays)
                packed.validate()
        except (OSError, ValueError, KeyError):
            self.corrupt += 1
            _quarantine(entry)
            self.misses += 1
            return None
        self.hits += 1
        return Trace.from_packed(packed, name=name)

    # -- auxiliary derived arrays ----------------------------------------
    #
    # Derived per-trace products that are expensive to recompute (the
    # precompute plane of pipeline/precompute.py) persist *inside* the
    # owning trace's entry directory, under an aux subdirectory named by
    # kind and version: ``<entry>/aux-<kind>-v<version>/``.  They share the
    # entry's lifecycle — `clear` and corruption quarantine of the trace
    # remove them — while version bumps orphan only the aux payload.  The
    # store stays agnostic of what the arrays mean: callers hand over and
    # get back ``{name: ndarray}`` plus a JSON-able meta dict.

    def _aux_dir(self, key: str, kind: str, version: int) -> Path:
        return self._entry_dir(key) / f"aux-{kind}-v{version}"

    def put_aux(self, name: str, n_uops: int, seed: int, kind: str,
                version: int, arrays: dict[str, np.ndarray],
                meta: dict) -> Path | None:
        """Persist derived arrays next to the owning trace entry.

        Returns the aux directory, or ``None`` when the trace entry itself
        is absent (aux data never outlives its trace).  Same temp-dir +
        rename discipline and same "IO failure is not an error" stance as
        :meth:`put`.
        """
        key = trace_key(name, n_uops, seed)
        if not (self._entry_dir(key) / _META_NAME).is_file():
            return None
        final = self._aux_dir(key, kind, version)
        if final.is_dir():
            return final
        payload = dict(meta)
        payload["kind"] = kind
        payload["version"] = version
        payload["columns"] = {col: [str(arr.dtype), int(arr.shape[0])]
                              for col, arr in arrays.items()}
        payload["nbytes"] = sum(int(arr.nbytes) for arr in arrays.values())
        tmp = final.with_name(f"{final.name}.tmp.{os.getpid()}")
        try:
            with profiling.phase("trace-store-save"):
                tmp.mkdir(parents=True, exist_ok=True)
                for col, arr in arrays.items():
                    np.save(tmp / f"{col}.npy", arr, allow_pickle=False)
                (tmp / _META_NAME).write_text(
                    json.dumps(payload, sort_keys=True, indent=1))
                try:
                    os.rename(tmp, final)
                except OSError:
                    shutil.rmtree(tmp, ignore_errors=True)  # lost the race
            self.stores += 1
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
        return final

    def get_aux(self, name: str, n_uops: int, seed: int, kind: str,
                version: int,
                mmap: bool = True) -> tuple[dict, dict[str, np.ndarray]] | None:
        """Load ``(meta, arrays)`` for one aux payload, or ``None``.

        Validates dtype and length of every stored column against the aux
        meta; corrupt payloads are quarantine-deleted (aux only — the
        trace entry is untouched) and regenerated by the caller.
        """
        key = trace_key(name, n_uops, seed)
        aux = self._aux_dir(key, kind, version)
        if not aux.is_dir():
            return None
        try:
            with profiling.phase("trace-store-load"):
                meta = json.loads((aux / _META_NAME).read_text())
                if meta.get("kind") != kind or meta.get("version") != version:
                    raise ValueError("aux metadata does not match the request")
                arrays = {}
                for col, (dtype, length) in meta["columns"].items():
                    arr = np.load(aux / f"{col}.npy",
                                  mmap_mode="r" if mmap else None,
                                  allow_pickle=False)
                    if str(arr.dtype) != dtype or arr.shape != (length,):
                        raise ValueError(f"aux column {col} does not match")
                    arrays[col] = arr
        except (OSError, ValueError, KeyError, TypeError):
            self.corrupt += 1
            _quarantine(aux)
            return None
        self.hits += 1
        return meta, arrays

    # -- maintenance -----------------------------------------------------

    def entries(self) -> list[dict]:
        """Metadata rows for every readable entry (unreadable ones skipped)."""
        rows = []
        if not self.directory.is_dir():
            return rows
        for meta_path in sorted(self.directory.glob(f"??/*/{_META_NAME}")):
            if ".tmp." in meta_path.parent.name:
                continue  # in-progress or crash-orphaned writer directory
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError):
                continue
            meta["key"] = meta_path.parent.name
            meta["path"] = str(meta_path.parent)
            rows.append(meta)
        return rows

    def clear(self) -> int:
        """Delete entries (and orphaned temp dirs); returns the count."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for shard in self.directory.glob("??"):
            for entry in shard.iterdir():
                shutil.rmtree(entry, ignore_errors=True)
                if ".tmp." not in entry.name:
                    removed += 1
        return removed

    def aux_entries(self) -> list[dict]:
        """Metadata rows for every readable aux payload (precompute planes)."""
        rows = []
        if not self.directory.is_dir():
            return rows
        for meta_path in sorted(self.directory.glob(f"??/*/aux-*/{_META_NAME}")):
            if ".tmp." in meta_path.parent.name:
                continue
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError):
                continue
            meta["key"] = meta_path.parent.parent.name
            meta["path"] = str(meta_path.parent)
            rows.append(meta)
        return rows

    def stats(self) -> dict:
        """Entry count, total payload bytes and lifetime hit/miss counters.

        ``aux_entries`` / ``aux_bytes`` account the derived precompute
        payloads separately from the packed trace bytes, so cache-budget
        reports stay honest about what the store actually holds.
        """
        rows = self.entries()
        aux_rows = self.aux_entries()
        return {
            "directory": str(self.directory),
            "entries": len(rows),
            "bytes": sum(int(row.get("nbytes", 0)) for row in rows),
            "aux_entries": len(aux_rows),
            "aux_bytes": sum(int(row.get("nbytes", 0)) for row in aux_rows),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }
