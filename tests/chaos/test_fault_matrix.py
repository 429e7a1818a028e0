"""The fault matrix: seeded chaos plans against a real service stack.

Each test runs a real :class:`~repro.engine.service.SimService` (its own
TCP socket, worker pool, cache) under a deterministic
:mod:`repro.engine.faults` plan and asserts the ISSUE's acceptance bar:

* **survivable** faults — worker crashes/hangs/slowdowns, dropped or
  torn socket responses, cache write failures, trace-store read
  and write failures — end in :class:`SimResult`s
  **bit-identical** to the fault-free run;
* **fatal** faults — a job that crashes its worker on every dispatch —
  end in a clean typed error within a bounded deadline, never a hang;
* a daemon past its queue bound sheds load with an explicit
  ``overloaded`` response instead of growing without bound.

The daemon runs *in-process* (``tests/conftest.py``'s ``daemon``
helper: a background thread with its own event loop) so a test can
install a fault plan at an exact point in the operation sequence — the
plan's counters then line up with the requests the test makes, which is
what keeps the matrix deterministic.  The
worker processes are real child interpreters either way; worker-side
sites activate through the exported ``$REPRO_FAULTS``.
"""

import asyncio
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import faults
from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.cli import main as cli_main
from repro.engine.client import (
    ADDRESS_FILE,
    TOKEN_ENV,
    RetryPolicy,
    ServiceAuthError,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
)
from repro.engine.executors import SerialExecutor
from repro.engine.job import SimJob
from repro.engine.service import SimService
from repro.pipeline.result import SimResult
from repro.workloads import catalog
from repro.workloads.store import TRACE_DIR_ENV, TraceStore

REPO_ROOT = Path(__file__).resolve().parents[2]

SMALL = dict(n_uops=2000, warmup=1000)

#: The standard six-job batch most matrix entries run (two predictors
#: over three workloads — enough to keep both workers busy and exercise
#: requeue ordering, small enough to keep the matrix fast).
JOBS = [SimJob.make(w, p, **SMALL)
        for p in ("lvp", "2dstride") for w in ("gzip", "gcc", "crafty")]


@pytest.fixture(scope="module")
def expected():
    """The fault-free answer, computed once in-process."""
    engine = Engine(executor=SerialExecutor(), cache=ResultCache(None))
    return [r.to_dict() for r in engine.run_jobs(JOBS)]


@pytest.fixture(autouse=True)
def clean_fault_state():
    """No plan (or exported spec) leaks between matrix entries."""
    faults.reset()
    yield
    faults.install_plan(None, export_env=True)
    faults.reset()


def _results(response):
    return response["results"]


def _submit_in_thread(d, jobs):
    """A waiting ``submit`` of *jobs* on a second connection, in a
    thread; returns the thread and the dict its response lands in."""
    out = {}

    def run():
        with d.client() as conn:
            out["response"] = conn.submit(jobs)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, out


def _wait_until_queued(client, depth):
    """Poll ``metrics`` until *depth* jobs are outstanding."""
    deadline = time.monotonic() + 60.0
    while client.metrics()["queue"]["depth"] < depth:
        assert time.monotonic() < deadline, "batch never reached the queue"
        time.sleep(0.02)


class TestSurvivableWorkerFaults:
    def test_worker_crash_is_requeued_bit_identically(self, daemon,
                                                      expected):
        with daemon(workers=2) as d:
            faults.install_plan("worker.execute:crash@2", seed=0)
            with d.client() as client:
                response = client.submit(JOBS)
                metrics = client.metrics()
        assert _results(response) == expected
        assert metrics["queue"]["restarts"] >= 1
        # A crash is routine, not degraded.
        assert metrics["cache"]["write_failures"] == 0

    def test_worker_slowdown_changes_nothing(self, daemon, expected):
        with daemon(workers=2) as d:
            faults.install_plan("worker.execute:slow:0.05@every=2", seed=0)
            with d.client() as client:
                response = client.submit(JOBS)
        assert _results(response) == expected

    def test_hung_worker_is_killed_by_the_job_timeout(self, daemon,
                                                      expected):
        # The timeout must clear a worker's worst legitimate job (fresh
        # start + first trace build) while still catching the 60s hang.
        with daemon(workers=2, job_timeout=5.0) as d:
            faults.install_plan("worker.execute:hang:60@1", seed=0)
            with d.client() as client:
                response = client.submit(JOBS)
                metrics = client.metrics()
        assert _results(response) == expected
        assert metrics["queue"]["stats"]["timeouts"] >= 1
        assert metrics["queue"]["restarts"] >= 1


class TestFatalWorkerFaults:
    def test_always_crashing_job_fails_typed_not_hanging(self, daemon):
        with daemon(workers=1) as d:
            faults.install_plan("worker.execute:crash@every=1", seed=0)
            client = d.client(timeout=120.0,
                                   retry=RetryPolicy(attempts=1))
            with pytest.raises(ServiceError, match="lost its worker"):
                client.submit([JOBS[0]])
            client.close()
            faults.install_plan(None)
            # The daemon survived its pool melting down: the same job
            # succeeds once the fault clears.
            with d.client() as client:
                response = client.submit([JOBS[0]])
        assert len(_results(response)) == 1


class TestSocketFaults:
    @pytest.mark.parametrize("action", ["drop", "partial"])
    def test_lost_response_is_retried_idempotently(self, daemon, expected,
                                                   action):
        with daemon(workers=2) as d:
            with d.client() as probe:
                before = probe.metrics()["queue"]["stats"]["executed"]
            # Installed *after* the probe: the very next response the
            # daemon sends (our submit's) is the one that dies.
            faults.install_plan(f"service.send:{action}@1", seed=0)
            client = d.client(
                                   retry=RetryPolicy(attempts=3, base=0.01))
            results = client.run_jobs(JOBS)
            client.close()
            faults.install_plan(None)
            with d.client() as probe:
                after = probe.metrics()["queue"]["stats"]["executed"]
        assert [r.to_dict() for r in results] == expected
        # Exactly-once execution: the retried batch coalesced/cache-hit,
        # it did not re-run the simulations.
        assert after - before == len(JOBS)

    def test_stalled_response_times_out_typed(self, daemon):
        with daemon(workers=1) as d:
            faults.install_plan("service.send:stall:30@1", seed=0)
            client = d.client(timeout=1.0,
                                   retry=RetryPolicy(attempts=1))
            with pytest.raises(ServiceTimeout):
                client.ping()
            client.close()


class TestStorageFaults:
    def test_failing_cache_persist_stays_in_memory(self, daemon, tmp_path,
                                                   expected, capsys):
        with daemon(workers=2, cache=ResultCache(tmp_path / "cache")) as d:
            faults.install_plan("cache.write:error@every=1", seed=0)
            with d.client() as client:
                first = client.submit(JOBS)
                metrics = client.metrics()
                # Every persist failed, but the memory layer answers.
                second = client.submit(JOBS)
            # Serving but degraded: `cluster status` exits 1.
            assert cli_main(["cluster", "status", "--shards", d.address]) == 1
        assert _results(first) == expected
        assert _results(second) == expected
        assert second["summary"]["cache_hits"] == len(JOBS)
        assert metrics["cache"]["write_failures"] >= 1
        out = capsys.readouterr().out
        assert f"shard {d.address}: degraded" in out
        assert "DEGRADED:" in out
        assert not list((tmp_path / "cache").glob("??/*.json"))


class TestStoreDegradationLadder:
    """Worker-side trace-store faults cost generator time, never results."""

    @staticmethod
    def _stored_store(monkeypatch, tmp_path):
        """A configured store already holding every trace JOBS touches."""
        directory = tmp_path / "traces"
        monkeypatch.setenv(TRACE_DIR_ENV, str(directory))
        catalog.clear_trace_cache()
        for job in JOBS:
            catalog.build_trace(job.workload, job.warmup + job.n_uops,
                                seed=job.seed)
        catalog.clear_trace_cache()
        return TraceStore(directory)

    @staticmethod
    def _written(store):
        """Entry key -> when its metadata was written."""
        return {row["key"]: os.stat(Path(row["path"]) / "meta.json")
                .st_mtime_ns for row in store.entries()}

    def test_truncated_reads_regenerate(self, daemon, monkeypatch, tmp_path,
                                        expected):
        store = self._stored_store(monkeypatch, tmp_path)
        before = self._written(store)
        # Worker-side site: must arrive via the environment the spawned
        # workers inherit, before the pool starts.
        faults.install_plan("store.read:truncate@every=1", seed=0,
                            export_env=True)
        with daemon(workers=2) as d:
            with d.client() as client:
                response = client.submit(JOBS)
        faults.install_plan(None, export_env=True)
        assert _results(response) == expected
        # Every entry a worker read was damaged, quarantined and written
        # back by the regeneration: same keys, newer metadata.
        after = self._written(store)
        assert sorted(after) == sorted(before)
        assert all(after[key] > before[key] for key in before)

    def test_failed_writes_regenerate(self, daemon, monkeypatch, tmp_path,
                                      expected):
        directory = tmp_path / "traces"
        monkeypatch.setenv(TRACE_DIR_ENV, str(directory))
        faults.install_plan("store.write:enospc@every=1", seed=0,
                            export_env=True)
        with daemon(workers=2) as d:
            with d.client() as client:
                response = client.submit(JOBS)
        faults.install_plan(None, export_env=True)
        assert _results(response) == expected
        assert TraceStore(directory).entries() == []


class TestBackpressure:
    def test_over_bound_submit_is_shed_with_overloaded(self, daemon):
        big = [SimJob.make(w, "vtage", n_uops=30000, warmup=15000)
               for w in ("gzip", "gcc")]
        with daemon(workers=1, max_depth=2) as d:
            filler, filled = _submit_in_thread(d, big)
            with d.client() as client:
                _wait_until_queued(client, len(big))
                # The queue is now full: a batch of new jobs is rejected
                # whole, with the typed backpressure error.
                extra = [SimJob.make(w, "lvp", **SMALL)
                         for w in ("crafty", "applu")]
                with pytest.raises(ServiceOverloaded):
                    client.submit(extra)
                assert client.metrics()["queue"]["stats"]["rejected"] >= 1
                # Cache hits and coalesced jobs are free — resubmitting
                # the *in-flight* batch is admitted even at the bound.
                coalesced = client.submit(big)
                assert coalesced["summary"]["coalesced"] == len(big)
                # The queue has drained: the shed batch is admitted.
                accepted = client.submit(extra)
            filler.join(timeout=120)
        assert _results(filled["response"]) == _results(coalesced)
        assert len(_results(accepted)) == len(extra)

    def test_client_retry_rides_out_backpressure(self, daemon):
        big = [SimJob.make(w, "vtage", n_uops=30000, warmup=15000)
               for w in ("gzip", "gcc")]
        extra = [SimJob.make("crafty", "lvp", **SMALL)]
        with daemon(workers=1, max_depth=2) as d:
            filler, filled = _submit_in_thread(d, big)
            client = d.client(
                retry=RetryPolicy(attempts=8, base=0.5, cap=8.0))
            _wait_until_queued(client, len(big))
            # run_jobs absorbs the overloaded responses and backs off
            # until the big batch drains; no caller-side special-casing.
            results = client.run_jobs(extra)
            client.close()
            filler.join(timeout=120)
        assert len(results) == 1
        assert len(_results(filled["response"])) == len(big)


class TestAddressFile:
    """A daemon that generated its own token publishes ``{address,
    token}`` in ``./repro-service.addr``: private, single-writer, and
    never an obstacle once its writer is dead."""

    @pytest.fixture(autouse=True)
    def generated_token(self, monkeypatch, tmp_path):
        monkeypatch.delenv(TOKEN_ENV)
        monkeypatch.chdir(tmp_path)

    def test_file_is_private_from_creation_and_gone_after_stop(
            self, daemon, tmp_path, capsys):
        path = tmp_path / ADDRESS_FILE
        old_umask = os.umask(0)  # a created file's mode is all our own
        try:
            with daemon() as d:
                mode = stat.S_IMODE(path.stat().st_mode)
                record = json.loads(path.read_text())
                # A client that names no address reads the file for both.
                with ServiceClient() as client:
                    pid = client.ping()["pid"]
                assert cli_main(["cluster", "status"]) == 0
        finally:
            os.umask(old_umask)
        assert mode == 0o600
        assert record == {"address": d.address, "token": d.service.token}
        assert pid == os.getpid()
        assert f"shard {d.address}: ok" in capsys.readouterr().out
        assert not path.exists()

    def test_second_daemon_on_the_same_file_is_refused(self, daemon):
        with daemon():
            with pytest.raises(ServiceError, match="holds"):
                asyncio.run(SimService(workers=1).start())

    def test_file_left_by_a_sigkilled_daemon_does_not_block_a_restart(
            self, daemon, tmp_path):
        env = dict(os.environ, REPRO_TRACE_DIR=str(tmp_path / "traces"))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", ""))
            if p)
        env.pop("REPRO_FAULTS", None)
        killed = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "-j", "1", "cluster",
             "serve"],
            env=env, cwd=tmp_path, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        try:
            line = killed.stderr.readline()
            assert "address-file=" in line, line
        finally:
            killed.send_signal(signal.SIGKILL)
            killed.wait(timeout=15)
            killed.stderr.close()
        path = tmp_path / ADDRESS_FILE
        stale = json.loads(path.read_text())
        with daemon() as d:
            assert json.loads(path.read_text()) == {
                "address": d.address, "token": d.service.token}
        assert d.service.token != stale["token"]
        assert not path.exists()

    def test_generated_token_refuses_a_client_without_it(
            self, daemon, tmp_path, monkeypatch):
        with daemon() as d:
            # Elsewhere, with no file to read, a client has no token.
            (tmp_path / "elsewhere").mkdir()
            monkeypatch.chdir(tmp_path / "elsewhere")
            with pytest.raises(ServiceAuthError):
                ServiceClient(d.address).ping()
            with pytest.raises(ServiceAuthError):
                ServiceClient(d.address, token="guess").ping()
            with d.client() as client:
                assert client.ping()["pid"] == os.getpid()


class TestChaosIntrospection:
    def test_chaos_op_reports_the_live_plan(self, daemon, capsys):
        with daemon(workers=1, chaos=True) as d:
            faults.install_plan("cache.write:torn@7", seed=3)
            with d.client() as client:
                plan = client.chaos()
                metrics = client.metrics()
            assert cli_main(["chaos", "show", "--shards", d.address]) == 0
        assert plan["seed"] == 3
        assert plan["rules"] == ["cache.write:torn@7"]
        assert metrics["faults"]["active"] is True
        out = capsys.readouterr().out
        assert f"shard {d.address}:\n  seed: 3\n" in out
        assert "    cache.write:torn@7" in out

    def test_chaos_op_is_refused_without_the_flag(self, daemon):
        with daemon(workers=1) as d:
            with d.client() as client:
                with pytest.raises(ServiceError, match="disabled"):
                    client.chaos()


class TestClusterFaults:
    """Shard-level faults: the shared result plane and router routing.

    Same bar as the rest of the matrix: every survivable cluster fault
    — a result that never reached the shared cache directory, a
    SIGKILLed shard, a misrouted or dropped routing decision — must end
    in results bit-identical to the fault-free run.  A result the plane
    failed to carry costs a re-simulation, never a wrong answer.
    """

    @pytest.mark.parametrize("action", ["error", "torn"])
    def test_unpublished_result_resimulates(self, daemon, tmp_path, expected,
                                            action):
        # Upstream's every publish fails (an IO error, or a write torn
        # before its rename), so the shared directory holds nothing
        # committed and the downstream shard must simulate everything.
        with daemon(workers=1, cache=ResultCache(tmp_path)) as upstream:
            faults.install_plan(f"cache.write:{action}@every=1", seed=0)
            with upstream.client() as client:
                client.submit(JOBS)
            faults.install_plan(None)
        assert not list(tmp_path.glob("??/*.json"))
        with daemon(workers=1, cache=ResultCache(tmp_path)) as shard:
            with shard.client() as client:
                response = client.submit(JOBS)
        assert _results(response) == expected
        assert response["summary"]["enqueued"] == len(JOBS)

    def test_federation_survives_a_sigkilled_peer(self, daemon, tmp_path,
                                                  expected):
        # An upstream shard publishes half the batch to the shared cache
        # directory and is then SIGKILLed.  A shard on the same
        # directory serves the published half from it and simulates the
        # rest — bit-identically.
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
                   REPRO_TRACE_DIR=str(tmp_path / "traces"))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", ""))
            if p)
        env.pop("REPRO_FAULTS", None)
        upstream = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "-j", "1", "cluster",
             "serve", "--listen", "127.0.0.1:0"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            line = upstream.stderr.readline()
            match = re.search(r"listen=(tcp://\S+)", line)
            assert match, f"no ready line from upstream: {line!r}"
            address = match.group(1)
            with ServiceClient(address) as client:
                client.submit(JOBS[:3])
        finally:
            upstream.send_signal(signal.SIGKILL)
            upstream.wait(timeout=15)
            upstream.stderr.close()
        with daemon(workers=1, cache=ResultCache(tmp_path)) as shard:
            with shard.client() as client:
                response = client.submit(JOBS)
        assert _results(response) == expected
        assert response["summary"]["cache_hits"] == 3
        assert response["summary"]["enqueued"] == 3

    def test_routing_faults_keep_results_bit_identical(self, daemon,
                                                       expected):
        from repro.engine.cluster import ShardRouter

        with daemon(workers=1) as a, daemon(workers=1) as b:
            router = ShardRouter([a.address, b.address])
            faults.install_plan(
                "cluster.route:misroute@2;cluster.route:drop@5", seed=0)
            results = router.run_jobs(JOBS)
            router.close()
        assert [r.to_dict() for r in results] == expected
        assert router.stats["misrouted_jobs"] == 1
        assert router.stats["failovers"] == 1
        assert len(router.alive_shards()) == 1
