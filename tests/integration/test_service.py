"""Service round-trip tests: daemon + concurrent clients + crash safety.

These spawn a real ``repro cluster serve`` daemon as a subprocess and
talk to it through the real TCP protocol — the acceptance criteria of
the service layer:

* two concurrent clients submitting overlapping 20-job grids get
  results **bit-identical** to in-process ``run_jobs``, with summary
  counters proving cross-client sharing (each unique spec simulates
  exactly once);
* ``SIGKILL`` of a worker mid-batch loses no jobs — the daemon requeues
  and completes them on a replacement worker;
* a daemon restarted on the same ``$REPRO_CACHE_DIR`` answers completed
  work from that cache instead of re-simulating;
* daemons given a token (here, the suite's ``$REPRO_SERVICE_TOKEN``)
  write no address file, so several share one working directory.
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.engine.client import ADDRESS_FILE, ServiceClient
from repro.engine.executors import SerialExecutor
from repro.engine.job import SimJob
from repro.engine.service import PROTOCOL_VERSION
from repro.pipeline.result import SimResult

REPO_ROOT = Path(__file__).resolve().parents[2]

SMALL = dict(n_uops=2000, warmup=1000)

# Two overlapping 20-job grids (2 predictors x 10 workloads each,
# sharing 8 workloads => 16 overlapping jobs).
WORKLOADS = ("gzip", "wupwise", "applu", "vpr", "art", "crafty", "parser",
             "vortex", "bzip2", "gcc", "gamess", "mcf")
GRID_A = [SimJob.make(w, p, **SMALL)
          for p in ("lvp", "2dstride") for w in WORKLOADS[:10]]
GRID_B = [SimJob.make(w, p, **SMALL)
          for p in ("lvp", "2dstride") for w in WORKLOADS[2:12]]


def _spawn_daemon(root, *extra_args, jobs="2", cache_dir=None):
    """Start ``repro cluster serve`` in *root*; returns ``(process,
    tcp_address)`` read from the ready line in its log under *root*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    with tempfile.NamedTemporaryFile("w", dir=root, prefix="daemon-",
                                     suffix=".log", delete=False) as stderr:
        log = Path(stderr.name)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "-j", jobs, "cluster",
             "serve", *map(str, extra_args)],
            env=env, cwd=root, stderr=stderr,
        )
    deadline = time.monotonic() + 30
    while True:
        match = re.search(r"listen=(tcp://\S+)", log.read_text())
        if match:
            return proc, match.group(1)
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            raise AssertionError(f"no ready line: {log.read_text()!r}")
        time.sleep(0.05)


def _local_results(jobs):
    engine = Engine(executor=SerialExecutor(), cache=ResultCache(None))
    return engine.run_jobs(jobs)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """One shared daemon (2 workers) for the round-trip tests."""
    proc, address = _spawn_daemon(tmp_path_factory.mktemp("service"))
    yield address
    try:
        with ServiceClient(address, timeout=5.0) as client:
            client.shutdown()
        proc.wait(timeout=15)
    except Exception:
        proc.kill()


class TestRoundTrip:
    def test_two_concurrent_clients_bit_identical_with_sharing(self, daemon):
        with ServiceClient(daemon) as probe:
            before = probe.metrics()["queue"]["stats"]

        responses = {}

        def client(name, grid):
            with ServiceClient(daemon) as conn:
                responses[name] = conn.submit(grid)

        threads = [threading.Thread(target=client, args=("A", GRID_A)),
                   threading.Thread(target=client, args=("B", GRID_B))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Bit-identity against the in-process engine, per client, in
        # submission order.
        for grid, name in ((GRID_A, "A"), (GRID_B, "B")):
            remote = [SimResult.from_dict(raw)
                      for raw in responses[name]["results"]]
            local = _local_results(grid)
            assert [r.to_dict() for r in remote] == \
                [r.to_dict() for r in local], f"client {name} diverged"

        # Cross-client sharing: the daemon executed each unique spec
        # exactly once; the 16-job overlap was answered from the cache
        # or coalesced onto in-flight work.
        unique = {job.content_key() for job in GRID_A + GRID_B}
        with ServiceClient(daemon) as probe:
            after = probe.metrics()["queue"]["stats"]
        executed = after["executed"] - before["executed"]
        assert executed == len(unique)
        shared = sum(responses[n]["summary"]["cache_hits"]
                     + responses[n]["summary"]["coalesced"]
                     for n in ("A", "B"))
        assert shared == len(GRID_A) + len(GRID_B) - len(unique)

    def test_resubmission_is_pure_cache_hits(self, daemon):
        with ServiceClient(daemon) as conn:
            response = conn.submit(GRID_A)
        assert response["summary"]["cache_hits"] == len(GRID_A)
        assert response["summary"]["enqueued"] == 0

    def test_status_and_ping_shape(self, daemon):
        with ServiceClient(daemon) as conn:
            server = conn.ping()
            metrics = conn.metrics()
        assert server["workers"] == 2
        assert server["protocol"] == PROTOCOL_VERSION
        workers = metrics["queue"]["workers"]
        assert len(workers) == 2
        assert all(w["alive"] for w in workers)
        assert metrics["queue"]["workers_alive"] == 2
        stats = metrics["queue"]["stats"]
        assert stats["submitted"] >= stats["executed"]

    def test_sigkill_worker_mid_batch_loses_no_jobs(self, daemon):
        # Larger jobs so the kill lands while the batch is in flight.
        jobs = [SimJob.make(w, "vtage", n_uops=14000, warmup=7000)
                for w in ("gzip", "gcc", "crafty", "applu", "bzip2", "namd")]
        responses = {}

        def submit():
            with ServiceClient(daemon) as conn:
                responses["batch"] = conn.submit(jobs)

        submitter = threading.Thread(target=submit, daemon=True)
        submitter.start()
        with ServiceClient(daemon) as conn:
            victim = None
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                busy = [w for w in conn.metrics()["queue"]["workers"]
                        if w["task"] and w["alive"]]
                if busy:
                    victim = busy[0]["pid"]
                    break
                time.sleep(0.02)
            assert victim is not None, "no worker ever went busy"
            os.kill(victim, signal.SIGKILL)
            submitter.join(timeout=120.0)
            assert not submitter.is_alive(), "batch never completed"
            metrics = conn.metrics()
        response = responses["batch"]
        assert metrics["queue"]["restarts"] >= 1
        assert metrics["queue"]["stats"]["requeued"] >= 1
        remote = [SimResult.from_dict(raw) for raw in response["results"]]
        local = _local_results(jobs)
        assert [r.to_dict() for r in remote] == [r.to_dict() for r in local]


class TestCLIClients:
    def _run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", ""))
            if p)
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *map(str, args)],
            env=env, capture_output=True, text=True, timeout=300,
        )

    def test_cluster_run_and_status_verbs(self, daemon):
        # One daemon is a one-shard cluster for the client verbs too.
        out = self._run_cli("cluster", "run", "--workloads", "gzip,gcc",
                            "--predictors", "lvp", "--uops", "2000",
                            "--warmup", "1000", "--shards", daemon)
        assert out.returncode == 0, out.stderr
        assert out.stdout.count("IPC") == 2
        assert re.search(r"2 job\(s\) routed across 1/1 shard\(s\): "
                         r"\d+ answered by a shard cache, \d+ coalesced "
                         r"with in-flight work, \d+ newly enqueued",
                         out.stderr), out.stderr
        status = self._run_cli("cluster", "status", "--shards", daemon)
        assert status.returncode == 0, status.stderr
        assert f"shard {daemon}: ok" in status.stdout
        assert status.stdout.count("  worker #") == 2
        assert "job timeout off" in status.stdout
        assert re.search(r"lifetime: \d+ submitted = ", status.stdout)

    def test_campaign_service_backend(self, daemon):
        # One daemon is a one-shard cluster.
        out = self._run_cli("campaign", "run", "fig4", "--backend", "cluster",
                            "--shards", daemon, "--workloads", "gzip",
                            "--uops", "1500", "--warmup", "750")
        assert out.returncode == 0, out.stderr
        assert "9 unique jobs" in out.stdout

    def test_submit_unknown_predictor_fails_cleanly(self, daemon):
        out = self._run_cli("cluster", "run", "--workloads", "gzip",
                            "--predictors", "martian", "--shards", daemon)
        assert out.returncode != 0
        assert "unknown predictors" in out.stderr


class TestRestartSafety:
    def test_cache_dir_survives_daemon_restart(self, tmp_path):
        results = tmp_path / "results"
        jobs = [SimJob.make(w, "lvp", **SMALL) for w in ("gzip", "gcc")]

        proc, address = _spawn_daemon(tmp_path, cache_dir=results)
        try:
            with ServiceClient(address) as conn:
                first = conn.submit(jobs)
                conn.shutdown()
            proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()

        proc, address = _spawn_daemon(tmp_path, cache_dir=results)
        try:
            with ServiceClient(address) as conn:
                second = conn.submit(jobs)
                metrics = conn.metrics()
                conn.shutdown()
            proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()

        # The restarted daemon answered everything from the disk cache.
        assert first["summary"]["enqueued"] == len(jobs)
        assert second["summary"]["cache_hits"] == len(jobs)
        assert second["summary"]["enqueued"] == 0
        assert metrics["queue"]["stats"]["executed"] == 0
        assert metrics["cache"]["directory"] == str(results)
        assert len(ResultCache(results).disk_entries()) == len(jobs)
        assert second["results"] == first["results"]


class TestLaunch:
    def test_token_daemons_share_a_directory_without_an_address_file(
            self, tmp_path):
        # The launch a benchmark fleet uses: -j 1, a kernel-picked port,
        # the token from the environment.
        first, addr_a = _spawn_daemon(tmp_path, "--listen", "127.0.0.1:0",
                                      jobs="1")
        try:
            second, addr_b = _spawn_daemon(tmp_path, "--listen",
                                           "127.0.0.1:0", jobs="1")
            try:
                assert addr_a != addr_b
                assert not (tmp_path / ADDRESS_FILE).exists()
                for address in (addr_a, addr_b):
                    with ServiceClient(address) as conn:
                        conn.shutdown()
                second.wait(timeout=15)
            finally:
                if second.poll() is None:
                    second.kill()
            first.wait(timeout=15)
        finally:
            if first.poll() is None:
                first.kill()


class TestExample:
    def test_service_client_example_smoke(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", ""))
            if p)
        out = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / "service_client.py"),
             "1500"],
            env=env, capture_output=True, text=True, timeout=300,
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert "cross-client sharing saved" in out.stdout
        assert "bit-identical" in out.stdout


#: Modules a daemon never needs: it routes, queues and caches, and its
#: workers simulate.
SIMULATOR_MODULES = (
    "numpy", "repro.pipeline.core", "repro.pipeline.ckernel",
    "repro.pipeline.precompute", "repro.predictors", "repro.core",
    "repro.branch", "repro.memory", "repro.workloads.kernels_int",
    "repro.workloads.kernels_fp", "repro.workloads.builder",
    "repro.experiments", "repro.analysis",
)


def _children(pid: int) -> list[int]:
    return [int(child) for listed in Path(f"/proc/{pid}/task").glob(
        "*/children") for child in listed.read_text().split()]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc")
class TestFootprint:
    def test_serving_daemon_loads_no_numpy_and_runs_only_its_worker(
            self, tmp_path):
        proc, address = _spawn_daemon(tmp_path, jobs="1")
        try:
            job = SimJob.make("gzip", "lvp", n_uops=800, warmup=400)
            assert job.seed is None  # resolved from the name->seed table
            with ServiceClient(address) as conn:
                miss = conn.submit([job])
                hit = conn.submit([job])
                metrics = conn.metrics()
            assert miss["summary"]["enqueued"] == 1
            assert hit["summary"]["cache_hits"] == 1
            [worker] = metrics["queue"]["workers"]
            maps = Path(f"/proc/{proc.pid}/maps").read_text()
            numpy_objects = [line for line in maps.splitlines()
                             if "numpy" in line and ".so" in line]
            assert numpy_objects == []
            assert _children(proc.pid) == [worker["pid"]]
            with ServiceClient(address) as conn:
                conn.shutdown()
            proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_importing_the_cli_loads_no_simulator(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, repro, repro.cli; "
             "print(json.dumps(sorted(sys.modules)))"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        loaded = json.loads(out.stdout)
        assert [name for name in loaded
                if name.startswith(SIMULATOR_MODULES)] == []
