"""Ingested workloads through the service backend, end-to-end.

The registry sidecars under ``$REPRO_TRACE_DIR`` are the only channel an
ingested trace has into another process: the daemon's workers resolve
``ingest-*`` names through the catalog exactly like generated ones.
This spawns a real daemon (with the trace dir in its environment),
submits jobs against a freshly ingested fixture log, and requires
bit-identity with the in-process engine.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.engine.client import ServiceClient
from repro.engine.executors import SerialExecutor
from repro.engine.job import SimJob
from repro.pipeline.result import SimResult
from repro.workloads import catalog, ingest
from repro.workloads.store import TraceStore

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "traces" / "memcpy_rv64.log"


@pytest.fixture()
def trace_dir(tmp_path, monkeypatch):
    path = tmp_path / "traces"
    monkeypatch.setenv("REPRO_TRACE_DIR", str(path))
    catalog.clear_trace_cache()
    yield path
    catalog.clear_trace_cache()


def test_ingested_workload_via_service(trace_dir, tmp_path):
    _, report = ingest.ingest_file(FIXTURE, TraceStore(trace_dir))
    assert report.stored

    jobs = [SimJob.make(report.name, p, n_uops=1500, warmup=500)
            for p in ("lvp", "vtage")]
    local = Engine(executor=SerialExecutor(),
                   cache=ResultCache(None)).run_jobs(jobs)

    env = dict(os.environ)   # carries REPRO_TRACE_DIR from the fixture
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "-j", "1", "cluster", "serve"],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stderr.readline()
        match = re.search(r"listen=(tcp://\S+)", line)
        assert match, f"no ready line from the daemon: {line!r}"
        address = match.group(1)
        with ServiceClient(address) as conn:
            response = conn.submit(jobs)
        remote = [SimResult.from_dict(raw) for raw in response["results"]]
        assert [r.to_dict() for r in remote] == [r.to_dict() for r in local]
        with ServiceClient(address, timeout=5.0) as conn:
            conn.shutdown()
        proc.wait(timeout=15)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stderr.close()


def test_ingested_job_fails_cleanly_without_registry(trace_dir):
    """A name that was never ingested raises through the engine."""
    job = SimJob.make("ingest-ghost-0123456789", "lvp", n_uops=800,
                      warmup=100)
    engine = Engine(executor=SerialExecutor(), cache=ResultCache(None))
    with pytest.raises(Exception) as excinfo:
        engine.run_jobs([job])
    assert "ingest" in str(excinfo.value).lower()
