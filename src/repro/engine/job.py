"""Declarative simulation job specs.

A :class:`SimJob` is the unit of work of the experiment engine: a frozen,
hashable description of *one* simulation — workload, predictor name and
knobs, core configuration and slice sizes — with a deterministic content
key.  Jobs carry no live objects (the predictor and trace are materialised
by :func:`execute_job`), so they pickle cheaply across process boundaries
and key both the in-process and the on-disk result caches.

See DESIGN.md, "Experiment engine" for the job/executor/cache split.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from operator import attrgetter

from repro.pipeline.config import CoreConfig, RecoveryMode
from repro.pipeline.result import SimResult

#: Default slice sizes.  The paper warms 50 M µops and measures 50 M; a
#: pure-Python cycle model scales that down (DESIGN.md, "Scaling defaults").
DEFAULT_WARMUP = 12_000
DEFAULT_MEASURE = 36_000

#: Bump when job semantics change in a way that invalidates cached results.
JOB_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SimJob:
    """One simulation, described by value.

    ``config_json`` is the canonical JSON of a :class:`CoreConfig` (or
    ``None`` for "default config with *recovery*") so that the job stays
    hashable; use :meth:`make` to build jobs from a live config object and
    :meth:`core_config` to get one back.
    """

    workload: str
    predictor: str = "none"
    fpc: bool = True
    recovery: str = "squash"
    entries: int = 8192
    n_uops: int = DEFAULT_MEASURE
    warmup: int = DEFAULT_WARMUP
    seed: int | None = None          # None = the workload's catalog seed
    config_json: str | None = None   # None = CoreConfig(recovery=recovery)

    @classmethod
    def make(
        cls,
        workload: str,
        predictor: str = "none",
        *,
        fpc: bool = True,
        recovery: str = "squash",
        entries: int = 8192,
        n_uops: int = DEFAULT_MEASURE,
        warmup: int = DEFAULT_WARMUP,
        seed: int | None = None,
        config: CoreConfig | None = None,
    ) -> "SimJob":
        """Build a job, serialising an optional live :class:`CoreConfig`.

        A *config* equal to the recovery-default one is normalised to
        ``None`` so that spec-identical jobs share one content key (and
        hence one cache entry) however the caller spelled them.
        """
        if config is not None:
            default = CoreConfig(
                recovery=RecoveryMode.SELECTIVE_REISSUE
                if recovery == "reissue"
                else RecoveryMode.SQUASH_COMMIT
            )
            if config == default:
                config = None
        return cls(
            workload=workload,
            predictor=predictor,
            fpc=fpc,
            recovery=recovery,
            entries=entries,
            n_uops=n_uops,
            warmup=warmup,
            seed=seed,
            config_json=config.canonical_json() if config is not None else None,
        )

    def with_predictor(self, predictor: str) -> "SimJob":
        return replace(self, predictor=predictor)

    def core_config(self) -> CoreConfig:
        """Materialise the core configuration this job runs under."""
        if self.config_json is None:
            return CoreConfig(
                recovery=RecoveryMode.SELECTIVE_REISSUE
                if self.recovery == "reissue"
                else RecoveryMode.SQUASH_COMMIT
            )
        return CoreConfig.from_dict(json.loads(self.config_json))

    def to_dict(self) -> dict:
        # Every field is an immutable scalar or string, so a shallow dict
        # equals ``dataclasses.asdict`` without its per-field deep copies.
        return dict(zip(_FIELD_NAMES, _read_fields(self)))

    @classmethod
    def from_dict(cls, data: dict) -> "SimJob":
        return cls(**data)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_key(self) -> str:
        """Stable digest of the full spec; the cache key for this job.

        Includes every field plus :data:`JOB_SCHEMA_VERSION`, so cached
        results survive process restarts but not semantic changes.
        Computed once per object and memoised in its ``__dict__``, outside
        the dataclass fields, so equality, hashing and :meth:`to_dict`
        never see it; a copy made by ``replace`` or :meth:`from_dict`
        computes its own.
        """
        key = self.__dict__.get("_content_key")
        if key is None:
            payload = f"v{JOB_SCHEMA_VERSION}:{self.canonical_json()}"
            key = hashlib.sha256(payload.encode()).hexdigest()
            object.__setattr__(self, "_content_key", key)
        return key

    def trace_identity(self) -> tuple[str, int, int] | None:
        """The ``(workload, µops, seed)`` key of the trace this job
        simulates in the trace cache and store, or ``None`` for an
        unknown workload (the worker raises that)."""
        from repro.workloads.catalog import resolve_seed

        try:
            return (self.workload, self.warmup + self.n_uops,
                    resolve_seed(self.workload, self.seed))
        except KeyError:
            return None

    def label(self) -> str:  # pragma: no cover - convenience
        conf = "fpc" if self.fpc else "3bit"
        return f"{self.workload}/{self.predictor}/{conf}/{self.recovery}"


_FIELD_NAMES = tuple(field.name for field in fields(SimJob))
_read_fields = attrgetter(*_FIELD_NAMES)


# Process-local count of simulations actually executed (cache misses).
# Pool-executor runs count in the *worker* processes; tests asserting
# cache short-circuits therefore use the serial executor.
_RUN_COUNT = 0


def run_count() -> int:
    """Simulations executed in this process so far (cache misses only)."""
    return _RUN_COUNT


def reset_run_count() -> None:
    """Zero :func:`run_count` (test isolation)."""
    global _RUN_COUNT
    _RUN_COUNT = 0


def execute_job(job: SimJob) -> SimResult:
    """Materialise and run one job on a fresh core.

    Deterministic: the trace build, predictor construction and cycle model
    are all seeded by the job spec alone, so any executor backend produces
    bit-identical results.  Traces come from the shared in-process cache in
    :mod:`repro.workloads.catalog`, so repeated slices of the same workload
    are built once per process.
    """
    # Imported lazily: runner (predictor construction) sits on top of the
    # engine API, so a module-level import would be circular.
    from repro.experiments.runner import make_predictor
    from repro.pipeline.core import simulate
    from repro.workloads.catalog import build_trace

    global _RUN_COUNT
    _RUN_COUNT += 1
    trace = build_trace(job.workload, job.warmup + job.n_uops, seed=job.seed)
    predictor = make_predictor(job.predictor, fpc=job.fpc,
                               recovery=job.recovery, entries=job.entries)
    return simulate(trace, predictor, config=job.core_config(),
                    warmup=job.warmup, workload=job.workload)
