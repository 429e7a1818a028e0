"""Crash-consistent small-file writes: tmp file, fsync, rename.

A process killed mid-``write_text`` leaves a torn file at the final
path; a rename after a durable temp-file write cannot.  Every committed
single JSON file in the repo (result-cache entries, the fuzzer's corner
registry) goes through :func:`atomic_write_text`:

1. write the full payload to ``<name>.tmp.<pid>`` in the target
   directory (same filesystem, so the rename is atomic);
2. ``flush`` + ``fsync`` the temp file — the *bytes* are durable before
   the name is;
3. ``os.replace`` onto the final path — readers see the old file or the
   new file, never a mixture;
4. best-effort ``fsync`` of the parent directory, so the rename itself
   survives a power cut (skipped silently where directories cannot be
   opened, e.g. some network filesystems).

The optional *site* parameter names a fault-injection site
(:mod:`repro.engine.faults`): a ``torn`` fault writes half the payload
to the temp file and raises — simulating a kill mid-write and leaving
exactly the debris a real crash leaves (a ``*.tmp.*`` orphan, never a
torn committed file); ``enospc``/``error`` raise the corresponding
:class:`OSError` before any bytes land.

Rename-atomicity protects *readers* from torn files, but a
read-modify-write of a shared registry (the fuzzer corner registry —
one file updated by any number of concurrent shards and fuzzers)
additionally needs mutual exclusion or two
writers silently drop each other's updates.  :func:`file_lock` provides
it: an advisory ``flock`` on a ``<name>.lock`` sibling, held across the
load → mutate → :func:`atomic_write_text` sequence.  The lock file is a
*separate* path on purpose — locking the data file itself would pin an
fd to a name the rename immediately replaces.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


def fsync_dir(directory: str | os.PathLike) -> None:
    """Best-effort ``fsync`` of a directory, so the names in it (a rename,
    a new file) survive a power cut; silently skipped where directories
    cannot be opened."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | os.PathLike, data: bytes, *,
                       site: str | None = None) -> None:
    """Durably replace *path* with *data* (write-fsync-rename).

    Raises :class:`OSError` on failure; the committed file is untouched
    by a failed write.  *site* threads the fault-injection plane through
    (see module docstring).
    """
    from repro.engine import faults

    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    rule = faults.fire(site) if site else None
    if rule is not None and rule.action in ("enospc", "error"):
        raise faults.io_error(rule, site)
    with open(tmp, "wb") as fh:
        if rule is not None and rule.action == "torn":
            # Simulate a kill mid-write: half the payload reaches the temp
            # file (left behind, exactly like real crash debris) and the
            # rename never happens.
            fh.write(data[:max(1, len(data) // 2)])
            fh.flush()
            raise faults.io_error(rule, site)
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    try:
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    fsync_dir(path.parent)


def atomic_write_text(path: str | os.PathLike, text: str, *,
                      site: str | None = None) -> None:
    """:func:`atomic_write_bytes` for UTF-8 text payloads."""
    atomic_write_bytes(path, text.encode(), site=site)


@contextmanager
def file_lock(path: str | os.PathLike):
    """Serialise read-modify-write cycles on the file at *path*.

    Takes a blocking exclusive ``flock`` on the sibling lock file
    ``<name>.lock`` (created on demand; the parent directory must
    exist).  Concurrent processes queue instead of interleaving, so a
    registry updated as load → mutate → :func:`atomic_write_text`
    under this lock never loses a writer's entry.  The lock releases
    with the context (and with the fd on any process death, including
    ``SIGKILL``); the lock file itself is left behind — unlinking it
    would race a waiter that already opened it.  On platforms without
    ``fcntl`` this degrades to no locking (writes stay rename-atomic).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    path = Path(path)
    lock_path = path.with_name(path.name + ".lock")
    with open(lock_path, "a+") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
