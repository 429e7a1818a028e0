"""Declarative campaigns: named axes that expand to engine job grids.

The paper's evaluation is a family of *sweeps* — predictor kind ×
confidence × recovery × workload, with figure-specific extras — and this
module makes such sweeps first-class values instead of ad-hoc loops:

* an :class:`AxisBlock` maps axis names (``SimJob.make`` keyword names)
  to value lists, expanded as a cross-product;
* a :class:`CampaignSpec` is a named list of blocks (so "a grid plus its
  baselines" is one spec);
* :func:`run_campaign` executes a spec through an :class:`~repro.engine.api.Engine`
  as one batch and streams :class:`CampaignEvent` progress callbacks.
  The engine writes each result to its cache as it lands, so with a
  disk :class:`~repro.engine.cache.ResultCache` (``--cache-dir`` /
  ``$REPRO_CACHE_DIR``) a killed sweep resumes as a run of cache hits;
* the returned :class:`CampaignResult` carries aggregation hooks
  (:meth:`~CampaignResult.by`, :meth:`~CampaignResult.speedup_by_workload`)
  that the figure and analysis layers consume directly.

See DESIGN.md, "Campaign & checkpoint architecture".
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.engine.api import Engine, default_engine
from repro.engine.job import DEFAULT_MEASURE, DEFAULT_WARMUP, SimJob
from repro.pipeline.result import SimResult

#: Axis names a block may sweep — exactly the ``SimJob.make`` keywords.
AXIS_NAMES = (
    "workload",
    "predictor",
    "fpc",
    "recovery",
    "entries",
    "n_uops",
    "warmup",
    "seed",
    "config",
)

#: Default value of every job field, used to normalise points so that
#: lookups can filter on axes a block left implicit.
_POINT_DEFAULTS: dict[str, Any] = {
    "predictor": "none",
    "fpc": True,
    "recovery": "squash",
    "entries": 8192,
    "n_uops": DEFAULT_MEASURE,
    "warmup": DEFAULT_WARMUP,
    "seed": None,
    "config": None,
}


def _check_axis_names(names: Iterable[str]) -> None:
    unknown = [n for n in names if n not in AXIS_NAMES]
    if unknown:
        raise ValueError(
            f"unknown campaign axes {unknown}; valid axes: {', '.join(AXIS_NAMES)}"
        )


@dataclass(frozen=True)
class AxisBlock:
    """One axes→values mapping, expanded as a cross-product.

    ``axes`` preserves declaration order (the product iterates the last
    axis fastest); ``base`` pins job fields shared by every point.
    """

    axes: tuple[tuple[str, tuple], ...]
    base: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls,
        axes: Mapping[str, Iterable],
        *,
        base: Mapping[str, Any] | None = None,
    ) -> "AxisBlock":
        axis_items = tuple((name, tuple(values)) for name, values in axes.items())
        base_items = tuple((base or {}).items())
        _check_axis_names([n for n, _ in axis_items])
        _check_axis_names([n for n, _ in base_items])
        overlap = {n for n, _ in axis_items} & {n for n, _ in base_items}
        if overlap:
            raise ValueError(f"axes and base both set {sorted(overlap)}")
        return cls(axes=axis_items, base=base_items)

    def points(self) -> list[dict]:
        """Expand to normalised point dicts (every job field present)."""
        names = [n for n, _ in self.axes]
        out = []
        for combo in itertools.product(*(v for _, v in self.axes)):
            point = dict(_POINT_DEFAULTS)
            point.update(self.base)
            point.update(zip(names, combo))
            if "workload" not in point:
                raise ValueError("every campaign point needs a 'workload'")
            out.append(point)
        return out


@dataclass(frozen=True)
class CampaignSpec:
    """A named, declarative sweep: one or more axis blocks.

    Build directly from one axes mapping::

        spec = CampaignSpec.make(
            "fpc-sweep",
            axes={"predictor": ["lvp", "vtage"], "fpc": [False, True],
                  "workload": ["gzip", "crafty"]},
            base={"n_uops": 36_000, "warmup": 12_000},
        )

    or compose blocks (a figure grid plus its no-VP baselines) with
    :meth:`union`.  ``meta`` carries renderer hints (slice sizes, workload
    order); it never reaches a job.
    """

    name: str
    blocks: tuple[AxisBlock, ...]
    meta: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls,
        name: str,
        axes: Mapping[str, Iterable],
        *,
        base: Mapping[str, Any] | None = None,
        meta: Mapping[str, Any] | None = None,
    ) -> "CampaignSpec":
        block = AxisBlock.make(axes, base=base)
        return cls(name=name, blocks=(block,), meta=tuple((meta or {}).items()))

    @classmethod
    def union(cls, name: str, *specs: "CampaignSpec | AxisBlock",
              meta: Mapping[str, Any] | None = None) -> "CampaignSpec":
        """Combine specs/blocks into one campaign (jobs dedupe on run)."""
        blocks: list[AxisBlock] = []
        for spec in specs:
            if isinstance(spec, AxisBlock):
                blocks.append(spec)
            else:
                blocks.extend(spec.blocks)
        return cls(name=name, blocks=tuple(blocks),
                   meta=tuple((meta or {}).items()))

    def meta_dict(self) -> dict:
        return dict(self.meta)

    def points(self) -> list[dict]:
        return [point for block in self.blocks for point in block.points()]

    def unique_jobs(self) -> dict[str, SimJob]:
        """Content-key → job, first occurrence wins, order preserved."""
        unique: dict[str, SimJob] = {}
        for point in self.points():
            job = SimJob.make(**point)
            unique.setdefault(job.content_key(), job)
        return unique


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------

#: Campaign execution backends ``engine_for_backend`` understands.
BACKENDS = ("local", "cluster")


def engine_for_backend(
    backend: str = "local",
    shards: list[str] | None = None,
    token: str | None = None,
) -> Engine:
    """Resolve a campaign execution backend name to an :class:`Engine`.

    ``local`` is the in-process default engine (serial or pool, per
    ``REPRO_JOBS``).  ``cluster`` routes batches across ``repro cluster
    serve`` daemons by consistent-hashed content key: the *shards*
    addresses, else ``$REPRO_CLUSTER_SHARDS``, else the daemon whose
    address file is in the working directory (one daemon is a one-shard
    cluster).  Overlapping campaigns from concurrent clients share the
    daemons' hot caches and in-flight dedupe.  Either way the client's
    result cache is the default engine's (``--cache-dir`` /
    ``$REPRO_CACHE_DIR``), so a rerun resumes alike on both backends.
    """
    if backend == "local":
        return default_engine()
    if backend == "cluster":
        from repro.engine.cluster import cluster_engine

        return cluster_engine(shards, token=token)
    raise ValueError(
        f"unknown campaign backend {backend!r}; pick one of {BACKENDS}"
    )


@dataclass(frozen=True)
class CampaignEvent:
    """One progress tick: a job completed (simulated or answered by the
    cache)."""

    done: int
    total: int
    job: SimJob
    result: SimResult


def progress_printer(name: str, stream=None) -> Callable[[CampaignEvent], None]:
    """A carriage-return progress callback for terminal runs.

    The one implementation behind the CLI, the reproduce driver and the
    examples; callers print their own summary line (after a bare
    ``print(file=stream)`` to terminate the ``\\r`` line).
    """
    out = stream if stream is not None else sys.stderr

    def progress(event: CampaignEvent) -> None:
        print(f"\r[{name}] {event.done}/{event.total} "
              f"{event.job.label():<44}", end="", file=out, flush=True)

    return progress


@dataclass
class CampaignResult:
    """Executed campaign: points, results and aggregation hooks.

    ``keys`` holds each point's job content key, computed once at run
    time, so the aggregation hooks below never re-serialise or re-hash a
    job spec.
    """

    spec: CampaignSpec
    points: list[dict]
    keys: list[str]
    results_by_key: dict[str, SimResult]
    stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def results(self) -> list[SimResult]:
        """Results aligned with :attr:`points` (duplicates share objects)."""
        return [self.results_by_key[key] for key in self.keys]

    def __iter__(self):
        return iter(zip(self.points, self.results))

    # -- aggregation hooks ----------------------------------------------

    def _indices(self, axes: dict) -> list[int]:
        return [
            i
            for i, point in enumerate(self.points)
            if all(point.get(name) == value for name, value in axes.items())
        ]

    def by(self, axis: str, **fixed: Any) -> dict[Any, SimResult]:
        """Results keyed by one axis, with other axes optionally pinned.

        Preserves point order.  Raises if two *different* jobs land on the
        same key — that means ``fixed`` under-constrains the selection.
        """
        out: dict[Any, SimResult] = {}
        seen_jobs: dict[Any, str] = {}
        for i in self._indices(fixed):
            key = self.points[i].get(axis)
            content = self.keys[i]
            if key in seen_jobs and seen_jobs[key] != content:
                raise KeyError(
                    f"by({axis!r}, **{fixed}) is ambiguous at {key!r}; "
                    "pin more axes"
                )
            seen_jobs[key] = content
            out[key] = self.results_by_key[content]
        return out

    def speedup_by_workload(self, **fixed: Any) -> dict[str, float]:
        """Per-workload speedup of the selected runs over the campaign's
        own no-VP baselines (``predictor="none"`` points)."""
        baselines = self.by("workload", predictor="none")
        if not baselines:
            raise KeyError(
                "speedup_by_workload needs predictor='none' baseline points "
                "in the campaign; add a baseline block to the spec"
            )
        runs = self.by("workload", **fixed)
        missing = [w for w in runs if w not in baselines]
        if missing:
            raise KeyError(
                f"no predictor='none' baseline for workload(s) {missing}"
            )
        return {
            workload: result.speedup_over(baselines[workload])
            for workload, result in runs.items()
        }


def run_campaign(
    spec: CampaignSpec,
    *,
    engine: Engine | None = None,
    progress: Callable[[CampaignEvent], None] | None = None,
) -> CampaignResult:
    """Execute a campaign: its unique jobs go to the engine as one batch.

    Jobs are deduplicated by content key.  The engine writes each result
    to its cache as it lands, before ``progress`` receives its
    :class:`CampaignEvent`, so with a disk cache a killed run loses only
    the jobs in flight and a rerun answers the finished ones as cache
    hits.

    ``stats`` counts ``cache_hits`` (jobs the cache answered) and
    ``executed`` (the rest, which this run simulated).
    """
    engine = engine or default_engine()
    points = spec.points()
    keys: list[str] = []
    unique: dict[str, SimJob] = {}
    for point in points:
        job = SimJob.make(**point)
        keys.append(job.content_key())
        unique.setdefault(keys[-1], job)
    todo = list(unique.values())
    done = 0

    def report(i: int, result: SimResult) -> None:
        nonlocal done
        done += 1
        progress(CampaignEvent(done, len(todo), todo[i], result))

    hits_before = engine.cache.hits
    results = engine.run_jobs(todo, report if progress is not None else None)
    hits = engine.cache.hits - hits_before
    stats = {"total": len(unique), "executed": len(unique) - hits,
             "cache_hits": hits}
    return CampaignResult(spec=spec, points=points, keys=keys,
                          results_by_key=dict(zip(unique, results)),
                          stats=stats)
