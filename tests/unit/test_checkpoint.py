"""Campaign checkpoints are the disk result cache: every result is durable
as it lands, and a killed campaign, rerun, resumes bit-identically."""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.engine import job as job_mod
from repro.engine.api import Engine, reset_default_engine
from repro.engine.cache import ResultCache
from repro.engine.campaign import CampaignSpec, run_campaign
from repro.engine.executors import PoolExecutor, SerialExecutor
from repro.engine.job import SimJob, execute_job
from repro.experiments.campaigns import CAMPAIGNS, figure4_campaign

TINY = {"n_uops": 1500, "warmup": 800}

#: 2 predictors x 3 workloads = 6 unique jobs (no baseline block so the
#: counts below stay obvious).
SPEC = CampaignSpec.make(
    "ck-grid",
    {"predictor": ["lvp", "vtage"], "workload": ["gzip", "crafty", "vpr"]},
    base=TINY,
)


def fresh_engine(directory=None, workers: int = 1) -> Engine:
    executor = SerialExecutor() if workers <= 1 else PoolExecutor(workers)
    return Engine(executor, ResultCache(directory))


class _Abort(Exception):
    """Stands in for the operator's ctrl-C / the scheduler's kill."""


def run_until(spec, directory, n_jobs, workers=1):
    """Run a campaign on a cache at *directory*; abort once *n_jobs*
    results were reported."""

    def progress(event):
        if event.done >= n_jobs:
            raise _Abort

    engine = fresh_engine(directory, workers)
    try:
        with pytest.raises(_Abort):
            run_campaign(spec, engine=engine, progress=progress)
    finally:
        if workers > 1:
            engine.executor.close()


def checkpoint_payload(directory, spec) -> dict:
    """Checkpointed results as {key: result-dict} for equality checks."""
    cache = ResultCache(directory)
    payload = {}
    for key, job in spec.unique_jobs().items():
        result = cache.get(job)
        if result is not None:
            payload[key] = result.to_dict()
    return payload


def done(directory, spec) -> int:
    return len(checkpoint_payload(directory, spec))


# ---------------------------------------------------------------------------
# The checkpoint is the result cache, written as each result lands.
# ---------------------------------------------------------------------------

class TestCheckpointDir:
    def test_garbage_entry_reruns_exactly_that_job(self, tmp_path):
        run_campaign(SPEC, engine=fresh_engine(tmp_path))
        victim = next(iter(SPEC.unique_jobs()))
        (tmp_path / victim[:2] / f"{victim}.json").write_text("not json{")
        job_mod.reset_run_count()
        result = run_campaign(SPEC, engine=fresh_engine(tmp_path))
        assert job_mod.run_count() == 1
        assert result.stats == {"total": 6, "executed": 1, "cache_hits": 5}
        assert done(tmp_path, SPEC) == 6


# ---------------------------------------------------------------------------
# Kill mid-run, resume, assert result-set equality (the ISSUE acceptance).
# ---------------------------------------------------------------------------

class TestKillResume:
    @pytest.fixture(scope="class")
    def uninterrupted(self):
        result = run_campaign(SPEC, engine=fresh_engine())
        return {k: r.to_dict() for k, r in result.results_by_key.items()}

    def test_serial_kill_at_half_resumes_bit_identical(self, tmp_path,
                                                       uninterrupted):
        run_until(SPEC, tmp_path, n_jobs=3)
        assert done(tmp_path, SPEC) == 3

        job_mod.reset_run_count()
        resumed = run_campaign(SPEC, engine=fresh_engine(tmp_path))
        assert job_mod.run_count() == 3  # only the missing half ran
        assert resumed.stats["cache_hits"] == 3
        assert {k: r.to_dict() for k, r in resumed.results_by_key.items()} \
            == uninterrupted
        assert checkpoint_payload(tmp_path, SPEC) == uninterrupted

    def test_pool_kill_between_chunks_resumes_bit_identical(self, tmp_path,
                                                            uninterrupted):
        """Killed after two results on a pool (one batch, no chunks):
        the rerun answers at least those two from the cache."""
        run_until(SPEC, tmp_path, n_jobs=2, workers=2)
        finished = done(tmp_path, SPEC)
        assert finished >= 2

        engine = fresh_engine(tmp_path, workers=2)
        try:
            resumed = run_campaign(SPEC, engine=engine)
        finally:
            engine.executor.close()
        assert resumed.stats["cache_hits"] == finished
        assert resumed.stats["executed"] == 6 - finished
        assert {k: r.to_dict() for k, r in resumed.results_by_key.items()} \
            == uninterrupted
        assert checkpoint_payload(tmp_path, SPEC) == uninterrupted

    def test_sigkill_mid_campaign_resumes_bit_identical(self, tmp_path,
                                                        uninterrupted):
        """A real SIGKILL — no atexit, no finally — mid-campaign."""
        script = textwrap.dedent(f"""
            import os, signal
            from repro.engine.api import Engine
            from repro.engine.cache import ResultCache
            from repro.engine.campaign import CampaignSpec, run_campaign
            from repro.engine.executors import SerialExecutor

            spec = CampaignSpec.make(
                "ck-grid",
                {{"predictor": ["lvp", "vtage"],
                  "workload": ["gzip", "crafty", "vpr"]}},
                base={TINY!r},
            )

            def progress(event):
                if event.done >= 3:
                    os.kill(os.getpid(), signal.SIGKILL)

            run_campaign(spec, engine=Engine(SerialExecutor(),
                                             ResultCache({str(tmp_path)!r})),
                         progress=progress)
        """)
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_JOBS", None)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              cwd=os.path.join(os.path.dirname(__file__),
                                               "..", ".."),
                              capture_output=True, timeout=300)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert done(tmp_path, SPEC) == 3

        job_mod.reset_run_count()
        resumed = run_campaign(SPEC, engine=fresh_engine(tmp_path))
        assert job_mod.run_count() == 3
        assert resumed.stats["cache_hits"] == 3
        assert {k: r.to_dict() for k, r in resumed.results_by_key.items()} \
            == uninterrupted

    def test_figure4_campaign_kill_resume_matches_uninterrupted(self, tmp_path):
        """The ISSUE acceptance criterion, on a reduced Figure 4 grid:
        killed at ~50 %, resumed, bit-identical to the uninterrupted run."""
        spec = figure4_campaign(workloads=("gzip", "crafty"),
                                n_uops=1500, warmup=800)
        total = len(spec.unique_jobs())  # 4 schemes x 2 fpc x 2 wl + 2 base
        assert total == 18

        clean = run_campaign(spec, engine=fresh_engine())
        golden = {k: r.to_dict() for k, r in clean.results_by_key.items()}

        run_until(spec, tmp_path, n_jobs=total // 2)
        assert done(tmp_path, spec) == total // 2

        job_mod.reset_run_count()
        resumed = run_campaign(spec, engine=fresh_engine(tmp_path))
        assert job_mod.run_count() == total - total // 2
        assert resumed.stats["cache_hits"] == total // 2
        assert resumed.stats["executed"] == total - total // 2
        assert {k: r.to_dict() for k, r in resumed.results_by_key.items()} \
            == golden
        assert checkpoint_payload(tmp_path, spec) == golden


# ---------------------------------------------------------------------------
# The campaign CLI reads progress off the cache dir's keys.
# ---------------------------------------------------------------------------

class TestCampaignCli:
    ARGS = ["fig4", "--workloads", "gzip", "--uops", "1500",
            "--warmup", "800"]

    @pytest.fixture(autouse=True)
    def fresh_default_engine(self):
        reset_default_engine()
        yield
        reset_default_engine()

    def test_resume_simulates_nothing_after_a_full_run(self, tmp_path,
                                                       capsys):
        """A rerun of ``campaign run`` on the same cache dir resumes."""
        args = ["--cache-dir", str(tmp_path), "campaign", "run", *self.ARGS]
        assert cli_main(args) == 0
        assert "— 9 executed, 0 answered" in capsys.readouterr().out
        reset_default_engine()
        job_mod.reset_run_count()
        assert cli_main(args) == 0
        assert job_mod.run_count() == 0
        assert "— 0 executed, 9 answered" in capsys.readouterr().out

    def test_status_counts_registered_keys_present(self, tmp_path, capsys):
        job = next(iter(CAMPAIGNS["fig3"].build().unique_jobs().values()))
        tiny = SimJob.make("gzip", "none", **TINY)
        ResultCache(tmp_path).put(job, execute_job(tiny))
        assert cli_main(["--cache-dir", str(tmp_path),
                         "campaign", "status", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "1/38" in out
        assert "fig4" not in out

    def test_cli_offers_exactly_the_registered_campaigns(self):
        # The parser names campaigns without importing the registry (and
        # with it the simulator); the two lists must not drift apart.
        from repro import cli

        assert cli._CAMPAIGN_NAMES == tuple(CAMPAIGNS)
