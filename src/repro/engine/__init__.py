"""Unified experiment engine (see DESIGN.md, "Experiment engine").

Declarative :class:`~repro.engine.job.SimJob` specs, pluggable executors
(serial / worker pool, selected by ``REPRO_JOBS``), a persistent
result cache (``REPRO_CACHE_DIR``) and the batch API every experiment
driver runs on.
"""

from repro.engine.api import (
    Engine,
    configure_default_engine,
    default_engine,
    reset_default_engine,
    run_jobs,
)
from repro.engine.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.engine.campaign import (
    AxisBlock,
    CampaignEvent,
    CampaignResult,
    CampaignSpec,
    engine_for_backend,
    run_campaign,
)
from repro.engine.client import (
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
    ServiceUnavailable,
    service_running,
    wait_for_service,
)
from repro.engine.faults import (
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    install_plan,
)
from repro.engine.executors import (
    JOBS_ENV,
    PoolExecutor,
    SerialExecutor,
    make_executor,
    resolve_jobs,
)
from repro.engine.job import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    SimJob,
    execute_job,
    reset_run_count,
    run_count,
)
from repro.engine.queue import (
    JobFailed,
    JobQueue,
    QueueOverloaded,
    QueueStats,
    WorkerPool,
)
from repro.engine.service import SimService, run_service

__all__ = [
    "AxisBlock",
    "CACHE_DIR_ENV",
    "CampaignEvent",
    "CampaignResult",
    "CampaignSpec",
    "DEFAULT_MEASURE",
    "DEFAULT_WARMUP",
    "Engine",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "InjectedFault",
    "JobFailed",
    "JobQueue",
    "JOBS_ENV",
    "PoolExecutor",
    "QueueOverloaded",
    "QueueStats",
    "ResultCache",
    "RetryPolicy",
    "SerialExecutor",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceTimeout",
    "ServiceUnavailable",
    "SimJob",
    "SimService",
    "WorkerPool",
    "install_plan",
    "configure_default_engine",
    "default_cache_dir",
    "default_engine",
    "engine_for_backend",
    "execute_job",
    "make_executor",
    "reset_default_engine",
    "reset_run_count",
    "resolve_jobs",
    "run_campaign",
    "run_count",
    "run_service",
    "service_running",
    "wait_for_service",
    "run_jobs",
]
