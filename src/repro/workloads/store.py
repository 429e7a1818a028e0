"""Content-addressed on-disk trace store (the persistent trace plane).

Building a trace is pure and deterministic, but not free: the kernel VM
emits ~5 µs/µop of Python work, so a cold daemon restart or a fresh
worker process used to pay the full generation cost for every workload it
touched.  The store persists the *packed* columnar form
(:class:`~repro.isa.trace.PackedColumns`) of each built trace under a
content key, so any later process — same machine, any backend — maps
the bytes (one payload file per entry) instead of re-running the
generator.

**Keying.**  A trace is a prefix of every longer build of its
``(name, seed)``, so ``trace_key(name, seed)`` names one entry holding
the longest trace stored so far, and ``get`` serves a shorter request
as a view.  The key digests three versions too: the packed
schema (:data:`~repro.isa.schema.TRACE_SCHEMA_VERSION`), the store layout
(:data:`STORE_FORMAT_VERSION`) and the generator
(:data:`TRACE_GENERATOR_VERSION` — bump it whenever kernels, invariant
injection or scenario generation change the emitted µop stream).  A
version bump silently orphans old entries instead of misreading them.
Keying and probing (:func:`trace_key`, :meth:`TraceStore.contains`)
import no numpy, so a daemon picks which job generates a trace without
loading the simulator; numpy loads where a payload is read or written.

**Layout.**  One directory per entry: ``<dir>/<key[:2]>/<key>/`` holding
``meta.json`` and one payload file, ``columns.bin``, with every column's
raw bytes at a 64-byte-aligned offset.  ``meta["columns"]`` records
``{column: [offset, dtype, length]}``; ``get`` maps the payload once and
returns one view per column.  Writes go to a ``*.tmp.<pid>`` sibling
directory and are renamed into place, so concurrent writers race
benignly (first rename wins, the loser discards).  A longer trace
replaces a shorter entry: quarantine, then rename.  An entry is
published iff its ``meta.json`` exists: that is what ``put`` and
``contains`` read, never the bare directory.

**Corruption.**  ``get`` validates versions, identity and every column's
dtype/length against the schema and the payload's size; any damage
(short or missing payload, bad JSON, schema drift) makes
it quarantine the entry and return ``None``, and the caller
regenerates — a broken store can cost time, never correctness.
Quarantine first renames the entry aside to a ``*.tmp.*`` name (which
listing skips and ``clear`` sweeps), then deletes it there, so removing
one damaged entry can never empty an entry another process publishes at
the same path meanwhile.

**Crash consistency & chaos.**  Both files of an entry (payload and
``meta.json``), and the temp directory naming them, are fsynced before
the directory rename commits the entry, so a crash mid-``put`` leaves
only a ``*.tmp.*`` orphan, never a half-entry at a committed path.  The
plane payloads of ``put_aux`` go through the same writer.  Reads and
writes pass the
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
from typing import TYPE_CHECKING

from repro.isa.schema import COLUMN_SCHEMA, TRACE_SCHEMA_VERSION
from repro.util import profiling
from repro.util.atomicio import fsync_dir

if TYPE_CHECKING:
    import numpy as np

    from repro.isa.trace import Trace

#: Environment variable selecting the persistent trace store directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: On-disk layout version; mismatched entries are ignored (and reclaimed).
STORE_FORMAT_VERSION = 3

#: Version of the trace *generators* (kernels, invariant injection,
#: scenarios, builder).  Any change that alters the emitted µop stream for
#: some (name, seed) must bump this so stored traces regenerate.
TRACE_GENERATOR_VERSION = 1

_META_NAME = "meta.json"
_PAYLOAD_NAME = "columns.bin"
#: Column offsets in the payload file are multiples of this (a cache
#: line, and a multiple of every dtype's alignment).
_ALIGN = 64


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


def trace_key(name: str, seed: int) -> str:
    """Stable content key for the entry of one ``(name, seed)``.

    Digests the identity plus every version that affects the bytes: two
    traces share a key iff the same generator code would produce the
    same µop stream for them, one a prefix of the other.
    """
    payload = (
        f"trace:store{STORE_FORMAT_VERSION}:gen{TRACE_GENERATOR_VERSION}"
        f":schema{TRACE_SCHEMA_VERSION}:{name}:{seed}"
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


def _write_payload(directory: Path, arrays: dict[str, np.ndarray],
                   meta: dict, torn: OSError | None = None) -> None:
    """Write *arrays* into one payload file and *meta* (plus the layout)
    into ``meta.json`` under *directory*; fsync both, then the directory.

    *torn*, when given, is raised once half the columns are written: the
    debris a kill mid-write leaves, which the caller must never publish.
    """
    import numpy as np

    columns = {}
    end = 0
    for col, arr in arrays.items():
        offset = -(-end // _ALIGN) * _ALIGN
        columns[col] = [offset, str(arr.dtype), int(arr.shape[0])]
        end = offset + arr.nbytes
    with open(directory / _PAYLOAD_NAME, "wb") as fh:
        for i, (col, arr) in enumerate(arrays.items()):
            if torn is not None and i == len(arrays) // 2:
                fh.flush()
                raise torn
            fh.seek(columns[col][0])
            fh.write(np.ascontiguousarray(arr).data)
        fh.flush()
        os.fsync(fh.fileno())
    with open(directory / _META_NAME, "w") as fh:
        fh.write(json.dumps(dict(meta, columns=columns),
                            sort_keys=True, indent=1))
        fh.flush()
        os.fsync(fh.fileno())
    fsync_dir(directory)


def _read_payload(directory: Path, columns: dict,
                  mmap: bool) -> dict[str, np.ndarray]:
    """One array per ``{column: [offset, dtype, length]}`` entry of
    *columns*, viewed from *directory*'s payload file.

    With *mmap* the file is mapped read-only once and every column is a
    view of that map; otherwise it is read into memory.  Raises
    ``ValueError`` when a column's bytes lie outside the file.
    """
    import numpy as np

    path = directory / _PAYLOAD_NAME
    if mmap and path.stat().st_size:
        buf = np.memmap(path, dtype=np.uint8, mode="r")
    else:
        buf = np.fromfile(path, dtype=np.uint8)
    arrays = {}
    for col, (offset, dtype, length) in columns.items():
        dtype = np.dtype(dtype)
        end = offset + length * dtype.itemsize
        if offset < 0 or offset % _ALIGN or length < 0 or end > buf.size:
            raise ValueError(f"column {col} lies outside the payload")
        arrays[col] = buf[offset:end].view(dtype)
    return arrays


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

    def _stored_n(self, entry: Path) -> int | None:
        """µops of the entry published at *entry*; ``None`` if unreadable."""
        try:
            return int(json.loads((entry / _META_NAME).read_text())["n"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, trace: Trace, name: str, seed: int) -> Path:
        """Persist *trace*'s packed columns; returns the entry directory.

        Does nothing when the entry already holds at least as many µops
        (another process won, or stored a longer build).  A shorter or
        damaged entry is quarantined, with its aux payloads, and replaced.
        IO failures are swallowed — persisting is an optimisation, never
        a correctness requirement.
        """
        final = self._entry_dir(trace_key(name, seed))
        packed = trace.packed()
        stored = self._stored_n(final)
        if stored is not None and stored >= packed.n:
            return final
        if final.exists():
            _quarantine(final)  # shorter or damaged: out of the way first
        meta = {
            "format": STORE_FORMAT_VERSION,
            "generator": TRACE_GENERATOR_VERSION,
            "schema": TRACE_SCHEMA_VERSION,
            "name": name,
            "seed": seed,
            "n": packed.n,
            "nbytes": packed.nbytes,
        }
        arrays = {col: packed.arrays[col] for col, _ in COLUMN_SCHEMA}
        self._publish(final, arrays, meta, site="store.write")
        return final

    def _publish(self, final: Path, arrays: dict[str, np.ndarray],
                 meta: dict, site: str | None = None) -> None:
        """Write *arrays* and *meta* to a temp directory and rename it to
        *final*; the one write path of entries and aux payloads alike.

        Losing the rename race discards the temp directory; an IO failure
        is swallowed the same way.  *site* names the fault-injection site:
        ``enospc`` fails before any byte lands, ``partial`` leaves a
        half-written payload in the temp directory, never renamed in.
        """
        tmp = final.with_name(f"{final.name}.tmp.{os.getpid()}")
        try:
            with profiling.phase("trace-store-save"):
                torn = None
                if site is not None:
                    # Imported lazily: the fault plane lives on the engine
                    # layer, and workloads must stay importable without it.
                    from repro.engine import faults

                    rule = faults.fire(site)
                    if rule is not None:
                        if rule.action == "enospc":
                            raise faults.io_error(rule, site)
                        if rule.action == "partial":
                            torn = faults.io_error(rule, site)
                tmp.mkdir(parents=True, exist_ok=True)
                _write_payload(tmp, arrays, meta, torn)
                try:
                    os.rename(tmp, final)
                except OSError:
                    shutil.rmtree(tmp, ignore_errors=True)  # lost the race
            self.stores += 1
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)

    def contains(self, name: str, n_uops: int, seed: int) -> bool:
        """Whether the entry holds at least *n_uops* µops (no load).

        A cheap probe for the fan-out sites (job queue, pool executor),
        deciding whether a job would run a generator; :meth:`get` still
        does the full validation.
        """
        stored = self._stored_n(self._entry_dir(trace_key(name, seed)))
        return stored is not None and stored >= n_uops

    def get(self, name: str, n_uops: int, seed: int,
            mmap: bool = True) -> Trace | None:
        """The first *n_uops* µops of the stored trace, or ``None`` when
        the entry is absent, shorter or corrupt.

        With ``mmap`` (the default) columns come back as views of one
        read-only ``numpy.memmap`` of the payload — the OS pages trace
        bytes in on demand and shares them between processes mapping the
        same entry.  Corrupt entries are deleted so the caller's
        regeneration heals the store.
        """
        from repro.isa.trace import PackedColumns, Trace

        entry = self._entry_dir(trace_key(name, seed))
        if not entry.is_dir():
            self.misses += 1
            return None
        from repro.engine import faults

        rule = faults.fire("store.read")
        if rule is not None:
            # Damage the entry on disk, then read as normal: the ordinary
            # validation below must catch it and quarantine the entry.
            faults.damage_store_entry(rule, entry, _PAYLOAD_NAME, _META_NAME)
        try:
            with profiling.phase("trace-store-load"):
                meta = json.loads((entry / _META_NAME).read_text())
                if (
                    meta.get("format") != STORE_FORMAT_VERSION
                    or meta.get("generator") != TRACE_GENERATOR_VERSION
                    or meta.get("schema") != TRACE_SCHEMA_VERSION
                    or meta.get("name") != name
                    or meta.get("seed") != seed
                ):
                    raise ValueError("metadata does not match the request")
                n = int(meta["n"])
                if n < n_uops:
                    self.misses += 1
                    return None
                packed = PackedColumns(
                    n, _read_payload(entry, meta["columns"], mmap))
                packed.validate()
        except (OSError, ValueError, KeyError, TypeError):
            self.corrupt += 1
            _quarantine(entry)
            self.misses += 1
            return None
        self.hits += 1
        return Trace.from_packed(packed.head(n_uops), name=name)

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

    def put_aux(self, name: str, seed: int, kind: str, version: int,
                arrays: dict[str, np.ndarray], meta: dict) -> Path | None:
        """Persist derived arrays of the whole entry next to it.

        Returns the aux directory, or ``None`` when the entry is absent or
        does not hold ``meta["n"]`` µops (aux data covers its whole trace
        and never outlives it).  Written by :meth:`put`'s writer, so the
        payload and its meta are fsynced before the rename publishes them,
        and an IO failure is not an error.
        """
        key = trace_key(name, seed)
        if self._stored_n(self._entry_dir(key)) != meta.get("n"):
            return None
        final = self._aux_dir(key, kind, version)
        if final.is_dir():
            return final
        payload = dict(meta, kind=kind, version=version,
                       nbytes=sum(int(arr.nbytes) for arr in arrays.values()))
        self._publish(final, arrays, payload)
        return final

    def get_aux(self, name: str, seed: int, kind: str, version: int,
                mmap: bool = True) -> tuple[dict, dict[str, np.ndarray]] | None:
        """Load ``(meta, arrays)`` for one aux payload, or ``None``.

        Validates every stored column against the payload's size; corrupt
        payloads are quarantine-deleted (aux only — the trace entry is
        untouched) and regenerated by the caller.
        """
        aux = self._aux_dir(trace_key(name, seed), kind, version)
        if not aux.is_dir():
            return None
        try:
            with profiling.phase("trace-store-load"):
                meta = json.loads((aux / _META_NAME).read_text())
                if meta.get("kind") != kind or meta.get("version") != version:
                    raise ValueError("aux metadata does not match the request")
                arrays = _read_payload(aux, meta["columns"], mmap)
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
