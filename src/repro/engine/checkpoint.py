"""Journaled campaign checkpoints: crash-safe resume for long sweeps.

A :class:`CampaignJournal` is an append-only JSONL file that records every
completed job of one campaign:

* line 1 — a header ``{"format": 1, "campaign": <name>, "key": <digest>,
  "total": <n>}`` identifying the exact job set (the ``key`` is a digest
  over the campaign's unique job content keys, so a journal can never be
  replayed against a different sweep by accident);
* every further line — ``{"key": <job content key>, "job": {...},
  "result": {...}}`` for one completed simulation, or a ``{"meta":
  {...}}`` annotation record (the service journal uses these to persist
  its cluster identity: ring address and membership epoch).

Each record is written with ``flush`` + ``fsync`` before the campaign
moves on, so after a kill (``SIGKILL`` included) the journal holds every
job that finished, possibly followed by one torn half-line.  Loading
tolerates exactly the damage a crash can cause:

* a **torn final line** (no newline / truncated JSON) is dropped, and the
  file is truncated back to the last intact line before appending resumes;
* a **corrupt interior line** is skipped and counted — only that one job
  re-runs on resume;
* a file whose **header is unreadable** is rotated aside to
  ``<name>.corrupt`` and the campaign starts a fresh journal.

Job identity is the engine's :meth:`~repro.engine.job.SimJob.content_key`
— the *same* key the result cache uses — so the journal, the in-memory
dedupe and the persistent cache always agree on what "the same job" means
(pinned by a regression test in ``tests/unit/test_campaign.py``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.engine import faults
from repro.engine.job import SimJob
from repro.pipeline.result import SimResult

#: Journal line format; bump on incompatible layout changes.
JOURNAL_FORMAT_VERSION = 1

#: Environment variable with the default campaign checkpoint directory.
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"


def default_checkpoint_dir() -> Path | None:
    """Resolve the default journal directory (None = no checkpointing)."""
    raw = os.environ.get(CHECKPOINT_DIR_ENV, "").strip()
    return Path(raw) if raw else None


class JournalError(RuntimeError):
    """The journal on disk belongs to a different campaign."""


@dataclass(frozen=True)
class JournalHeader:
    """First line of a journal: which campaign this checkpoint belongs to."""

    campaign: str
    key: str
    total: int
    version: int = JOURNAL_FORMAT_VERSION

    def to_line(self) -> str:
        payload = {
            "format": self.version,
            "campaign": self.campaign,
            "key": self.key,
            "total": self.total,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_payload(cls, payload: dict) -> "JournalHeader | None":
        try:
            return cls(
                campaign=str(payload["campaign"]),
                key=str(payload["key"]),
                total=int(payload["total"]),
                version=int(payload["format"]),
            )
        except (KeyError, TypeError, ValueError):
            return None


class CampaignJournal:
    """Append-only JSONL checkpoint of one campaign's completed jobs.

    Construction loads whatever is already on disk (tolerating crash
    damage, see module docstring); :meth:`open` then binds the journal to
    a specific campaign header — validating a pre-existing file against it
    — and readies the append handle.  :meth:`record` persists one result
    durably before returning.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.header: JournalHeader | None = None
        self.entries: dict[str, SimResult] = {}
        #: Annotation records (``{"meta": {...}}`` lines) in file order —
        #: the service journal stores its shard address and membership
        #: epoch here, so a restarted shard resumes with a higher epoch.
        self.meta: list[dict] = []
        self.corrupt_lines = 0
        #: Byte offset of the end of the last intact line; the safe
        #: truncation point before appending after a crash.
        self._good_end = 0
        self._fh = None
        if self.path.exists():
            self._load()

    # -- loading ---------------------------------------------------------

    def _load(self) -> None:
        data = self.path.read_bytes()
        self._good_end = len(data)
        if data and not data.endswith(b"\n"):
            # Torn final line: a write was cut mid-record by a kill.
            torn = data.rfind(b"\n") + 1
            self.corrupt_lines += 1
            self._good_end = torn
            data = data[:torn]
        for raw in data.splitlines():
            if not raw.strip():
                continue
            try:
                payload = json.loads(raw)
                if not isinstance(payload, dict):
                    raise ValueError("journal line is not an object")
            except ValueError:
                self.corrupt_lines += 1
                continue
            if self.header is None:
                self.header = JournalHeader.from_payload(payload)
                if self.header is None:
                    # Unreadable header: nothing below can be trusted to
                    # belong to any particular campaign.
                    self.corrupt_lines += 1
                continue
            if isinstance(payload.get("meta"), dict):
                self.meta.append(payload["meta"])
                continue
            try:
                key = payload["key"]
                result = SimResult.from_dict(payload["result"])
            except (KeyError, TypeError, ValueError):
                self.corrupt_lines += 1
                continue
            self.entries[key] = result

    @property
    def done(self) -> int:
        return len(self.entries)

    def describe(self) -> dict:
        """Status view (used by ``repro campaign status``)."""
        return {
            "path": str(self.path),
            "campaign": self.header.campaign if self.header else None,
            "key": self.header.key if self.header else None,
            "total": self.header.total if self.header else None,
            "done": self.done,
            "corrupt_lines": self.corrupt_lines,
        }

    # -- writing ---------------------------------------------------------

    def open(self, header: JournalHeader, *, force: bool = False) -> None:
        """Bind the journal to *header* and ready it for appends.

        A pre-existing journal must carry the same campaign ``key``;
        otherwise :class:`JournalError` is raised (or, with ``force``, the
        stale file is rotated to ``*.bak`` and a fresh journal starts).  A
        file whose header could not be parsed at all is rotated to
        ``*.corrupt`` automatically — its entries were never trustworthy.
        """
        if self._fh is not None:
            return
        if self.path.exists() and self.header is None:
            self._rotate(".corrupt")
        elif self.header is not None and self.header.key != header.key:
            if not force:
                raise JournalError(
                    f"{self.path} belongs to campaign "
                    f"{self.header.campaign!r} (key {self.header.key[:12]}…, "
                    f"{self.done}/{self.header.total} done), not to "
                    f"{header.campaign!r}; pass force=True / --force to "
                    "rotate it aside and start over"
                )
            self._rotate(".bak")
        self.header = header
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            # Resume: drop any torn tail, then append.
            self._fh = open(self.path, "r+b")
            self._lock()
            self._fh.seek(self._good_end)
            self._fh.truncate()
        else:
            self._fh = open(self.path, "wb")
            self._lock()
            self._fh.write((header.to_line() + "\n").encode())
            self._sync()

    def _lock(self) -> None:
        """Enforce one writer per journal (advisory, released on close).

        Truncate-then-append from two processes would interleave writes at
        overlapping offsets and destroy fsynced records, so a concurrent
        open is an error, not a race to tolerate.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._fh.close()
            self._fh = None
            raise JournalError(
                f"{self.path} is already being written by another process; "
                "wait for that campaign to finish (or kill it) before "
                "resuming"
            ) from None

    def _rotate(self, suffix: str) -> None:
        target = self.path.with_name(self.path.name + suffix)
        n = 1
        while target.exists():
            # Never clobber an earlier backup: those are completed results.
            n += 1
            target = self.path.with_name(f"{self.path.name}{suffix}{n}")
        os.replace(self.path, target)
        self.entries.clear()
        self.meta.clear()
        self.header = None
        self.corrupt_lines = 0
        self._good_end = 0

    def record(self, job: SimJob, result: SimResult) -> None:
        """Durably append one completed job (flush + fsync before return).

        Raises :class:`OSError` when the append fails — including under
        the ``journal.write`` fault site, whose ``torn`` action writes
        half the record and stops (exactly what a kill mid-append leaves
        behind; the loader's torn-tail handling recovers it) and whose
        ``fsync`` action fails after the buffered write (the record may
        or may not be durable; replay is idempotent either way).  The
        caller decides whether a failed append is fatal (campaigns) or a
        degraded-mode flag (the service, which still holds the result in
        its cache).
        """
        assert self._fh is not None, "open() the journal before recording"
        key = job.content_key()
        line = json.dumps(
            {"key": key, "job": job.to_dict(), "result": result.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        data = (line + "\n").encode()
        rule = faults.fire("journal.write")
        if rule is not None and rule.action == "torn":
            self._fh.write(data[:max(1, len(data) // 2)])
            self._fh.flush()
            raise faults.io_error(rule, "journal.write")
        self._fh.write(data)
        if rule is not None and rule.action == "fsync":
            self._fh.flush()
            raise faults.io_error(rule, "journal.write")
        self._sync()
        self.entries[key] = result

    def record_meta(self, payload: dict) -> None:
        """Durably append one ``{"meta": {...}}`` annotation record.

        Meta records ride the same fsync-per-line discipline as job
        records but carry no result — the service journal uses them to
        persist the shard's ring address and membership epoch.  Loaders
        that predate meta records counted these lines as corrupt (and
        skipped them), so old readers degrade instead of breaking.
        """
        assert self._fh is not None, "open() the journal before recording"
        line = json.dumps({"meta": dict(payload)}, sort_keys=True,
                          separators=(",", ":"))
        self._fh.write((line + "\n").encode())
        self._sync()
        self.meta.append(dict(payload))

    def _sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_journal_snapshot(path: str | os.PathLike) -> dict:
    """Tolerantly read another process's journal without locking it.

    The soak harness counts every execution a fleet ever made from its
    shards' journals — including journals of shards it SIGKILLed, or
    whose revival is still writing — so this must never take the writer
    flock and must treat *any* damage as fewer entries, never an error.
    Returns ``{"header", "meta", "entries", "records", "corrupt"}`` where
    ``entries`` maps content key to
    :class:`~repro.pipeline.result.SimResult`, ``records`` counts job
    record lines (duplicates included — the re-simulation accounting the
    soak harness sums), and ``meta`` is the annotation list in file
    order.
    """
    snapshot: dict = {"header": None, "meta": [], "entries": {},
                      "records": 0, "corrupt": 0}
    try:
        data = Path(path).read_bytes()
    except OSError:
        snapshot["corrupt"] += 1
        return snapshot
    if data and not data.endswith(b"\n"):
        torn = data.rfind(b"\n") + 1
        snapshot["corrupt"] += 1
        data = data[:torn]
    for raw in data.splitlines():
        if not raw.strip():
            continue
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("journal line is not an object")
        except ValueError:
            snapshot["corrupt"] += 1
            continue
        if snapshot["header"] is None:
            snapshot["header"] = JournalHeader.from_payload(payload)
            if snapshot["header"] is None:
                snapshot["corrupt"] += 1
            continue
        if isinstance(payload.get("meta"), dict):
            snapshot["meta"].append(payload["meta"])
            continue
        try:
            key = payload["key"]
            result = SimResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            snapshot["corrupt"] += 1
            continue
        snapshot["records"] += 1
        snapshot["entries"][key] = result
    return snapshot
