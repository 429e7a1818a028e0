"""Checkpoint journals: crash tolerance, kill/resume result equality."""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.engine import job as job_mod
from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.engine.campaign import CampaignSpec, run_campaign
from repro.engine.checkpoint import (
    CHECKPOINT_DIR_ENV,
    CampaignJournal,
    JournalError,
    default_checkpoint_dir,
    read_journal_snapshot,
)
from repro.engine.executors import PoolExecutor, SerialExecutor
from repro.engine.job import SimJob, execute_job
from repro.experiments.campaigns import figure4_campaign

TINY = {"n_uops": 1500, "warmup": 800}

#: 2 predictors x 3 workloads = 6 unique jobs (no baseline block so the
#: counts below stay obvious).
SPEC = CampaignSpec.make(
    "ck-grid",
    {"predictor": ["lvp", "vtage"], "workload": ["gzip", "crafty", "vpr"]},
    base=TINY,
)


def fresh_engine(workers: int = 1) -> Engine:
    executor = SerialExecutor() if workers <= 1 else PoolExecutor(workers)
    return Engine(executor, ResultCache())


class _Abort(Exception):
    """Stands in for the operator's ctrl-C / the scheduler's kill."""


def run_until(spec, journal_path, n_engine_jobs, workers=1, chunk_size=1):
    """Run a campaign and abort once *n_engine_jobs* completed live."""
    seen = 0

    def progress(event):
        nonlocal seen
        if event.source == "engine":
            seen += 1
            if seen >= n_engine_jobs:
                raise _Abort

    with pytest.raises(_Abort):
        run_campaign(spec, engine=fresh_engine(workers),
                     journal=journal_path, chunk_size=chunk_size,
                     progress=progress)


def journal_payload(path) -> dict:
    """Journal entries as {key: result-dict} for equality comparisons."""
    journal = CampaignJournal(path)
    return {k: r.to_dict() for k, r in journal.entries.items()}


# ---------------------------------------------------------------------------
# Journal load/recovery mechanics.
# ---------------------------------------------------------------------------

class TestJournalRecovery:
    @pytest.fixture()
    def populated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        run_campaign(SPEC, engine=fresh_engine(), journal=path)
        return path

    def test_roundtrip(self, populated):
        journal = CampaignJournal(populated)
        assert journal.header.campaign == "ck-grid"
        assert journal.header.key == SPEC.campaign_key()
        assert journal.header.total == 6
        assert journal.done == 6
        assert journal.corrupt_lines == 0

    def test_torn_final_line_is_dropped_and_truncated(self, populated):
        with open(populated, "ab") as fh:
            fh.write(b'{"key": "half-wri')
        journal = CampaignJournal(populated)
        assert journal.done == 6
        assert journal.corrupt_lines == 1
        # Resume appends after truncating the torn tail; the file parses
        # cleanly again afterwards.
        journal.open(SPEC.header())
        extra_job = SimJob.make("gzip", "2dstride", **TINY)
        journal.record(extra_job, execute_job(extra_job))
        journal.close()
        reloaded = CampaignJournal(populated)
        assert reloaded.corrupt_lines == 0
        assert reloaded.done == 7

    def test_corrupt_interior_line_skips_one_job(self, populated):
        lines = populated.read_text().splitlines()
        lines[3] = '{"key": "oops", not json'
        populated.write_text("\n".join(lines) + "\n")
        journal = CampaignJournal(populated)
        assert journal.corrupt_lines == 1
        assert journal.done == 5
        # Resume re-runs exactly the lost job and restores the full set.
        job_mod.reset_run_count()
        result = run_campaign(SPEC, engine=fresh_engine(), journal=populated)
        assert job_mod.run_count() == 1
        assert result.stats == {"total": 6, "from_journal": 5,
                                "executed": 1, "cache_hits": 0}

    def test_unreadable_header_rotates_to_corrupt(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("this was never a journal\n")
        result = run_campaign(SPEC, engine=fresh_engine(), journal=path)
        assert result.stats["executed"] == 6
        assert (tmp_path / "j.jsonl.corrupt").is_file()
        assert CampaignJournal(path).done == 6

    def test_mismatched_campaign_refused_then_forced(self, populated):
        other = CampaignSpec.make(
            "other", {"predictor": ["lvp"], "workload": ["gzip"]},
            base={"n_uops": 1600, "warmup": 800},
        )
        with pytest.raises(JournalError, match="ck-grid"):
            run_campaign(other, engine=fresh_engine(), journal=populated)
        result = run_campaign(other, engine=fresh_engine(), journal=populated,
                              force=True)
        assert result.stats["executed"] == 1
        backup = populated.with_name(populated.name + ".bak")
        assert backup.is_file()
        assert CampaignJournal(backup).done == 6

    def test_second_writer_is_refused(self, populated):
        """Single-writer rule: concurrent truncate-and-append from two
        processes would destroy fsynced records, so the second open fails."""
        first = CampaignJournal(populated)
        first.open(SPEC.header())
        second = CampaignJournal(populated)
        try:
            with pytest.raises(JournalError, match="another process"):
                second.open(SPEC.header())
        finally:
            first.close()
        # Once the first writer is done, opening succeeds again.
        third = CampaignJournal(populated)
        third.open(SPEC.header())
        third.close()

    def test_force_rotation_never_clobbers_earlier_backups(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = [
            CampaignSpec.make(f"gen{i}", {"predictor": ["lvp"],
                                          "workload": ["gzip"]},
                              base={"n_uops": 1500 + i, "warmup": 800})
            for i in range(3)
        ]
        run_campaign(specs[0], engine=fresh_engine(), journal=path)
        run_campaign(specs[1], engine=fresh_engine(), journal=path, force=True)
        run_campaign(specs[2], engine=fresh_engine(), journal=path, force=True)
        backups = sorted(p.name for p in tmp_path.glob("j.jsonl.bak*"))
        assert backups == ["j.jsonl.bak", "j.jsonl.bak2"]
        assert CampaignJournal(tmp_path / "j.jsonl.bak").header.campaign == "gen0"
        assert CampaignJournal(tmp_path / "j.jsonl.bak2").header.campaign == "gen1"

    def test_header_is_first_line(self, populated):
        first = json.loads(populated.read_text().splitlines()[0])
        assert first == {"format": 1, "campaign": "ck-grid",
                         "key": SPEC.campaign_key(), "total": 6}

    def test_default_checkpoint_dir_reads_the_environment(self, monkeypatch):
        monkeypatch.delenv(CHECKPOINT_DIR_ENV, raising=False)
        assert default_checkpoint_dir() is None
        monkeypatch.setenv(CHECKPOINT_DIR_ENV, "runs")
        assert str(default_checkpoint_dir()) == "runs"


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
        path = tmp_path / "serial.jsonl"
        run_until(SPEC, path, n_engine_jobs=3)
        assert CampaignJournal(path).done == 3

        job_mod.reset_run_count()
        resumed = run_campaign(SPEC, engine=fresh_engine(), journal=path)
        assert job_mod.run_count() == 3  # only the missing half ran
        assert resumed.stats["from_journal"] == 3
        assert {k: r.to_dict() for k, r in resumed.results_by_key.items()} \
            == uninterrupted
        assert journal_payload(path) == uninterrupted

    def test_pool_kill_between_chunks_resumes_bit_identical(self, tmp_path,
                                                            uninterrupted):
        path = tmp_path / "pool.jsonl"
        run_until(SPEC, path, n_engine_jobs=2, workers=2, chunk_size=2)
        assert CampaignJournal(path).done == 2

        resumed = run_campaign(SPEC, engine=fresh_engine(2), journal=path,
                               chunk_size=2)
        assert resumed.stats["from_journal"] == 2
        assert resumed.stats["executed"] == 4
        assert {k: r.to_dict() for k, r in resumed.results_by_key.items()} \
            == uninterrupted
        assert journal_payload(path) == uninterrupted

    def test_sigkill_mid_campaign_resumes_bit_identical(self, tmp_path,
                                                        uninterrupted):
        """A real SIGKILL — no atexit, no finally — mid-campaign."""
        path = tmp_path / "killed.jsonl"
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

            run_campaign(spec, engine=Engine(SerialExecutor(), ResultCache()),
                         journal={str(path)!r}, chunk_size=1,
                         progress=progress)
        """)
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_JOBS", None)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              cwd=os.path.join(os.path.dirname(__file__),
                                               "..", ".."),
                              capture_output=True, timeout=300)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert CampaignJournal(path).done == 3

        resumed = run_campaign(SPEC, engine=fresh_engine(), journal=path)
        assert resumed.stats["from_journal"] == 3
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

        path = tmp_path / "fig4.jsonl"
        run_until(spec, path, n_engine_jobs=total // 2)
        assert CampaignJournal(path).done == total // 2

        resumed = run_campaign(spec, engine=fresh_engine(), journal=path)
        assert resumed.stats["from_journal"] == total // 2
        assert resumed.stats["executed"] == total - total // 2
        assert {k: r.to_dict() for k, r in resumed.results_by_key.items()} \
            == golden
        assert journal_payload(path) == golden


# ---------------------------------------------------------------------------
# Meta records and lock-free snapshot reads (the soak's execution count).
# ---------------------------------------------------------------------------

class TestMetaAndSnapshot:
    @pytest.fixture()
    def service_journal(self, tmp_path):
        """A journal shaped like a shard's: header, meta, two results."""
        path = tmp_path / "shard.journal"
        journal = CampaignJournal(path)
        journal.open(SPEC.header())
        journal.record_meta({"kind": "membership",
                             "address": "tcp://127.0.0.1:7101", "epoch": 3})
        for workload in ("gzip", "crafty"):
            job = SimJob.make(workload, "lvp", **TINY)
            journal.record(job, execute_job(job))
        journal.close()
        return path

    def test_meta_records_round_trip_without_counting_as_jobs(
            self, service_journal):
        journal = CampaignJournal(service_journal)
        assert journal.meta == [{"kind": "membership",
                                 "address": "tcp://127.0.0.1:7101",
                                 "epoch": 3}]
        assert journal.done == 2
        assert journal.corrupt_lines == 0

    def test_snapshot_matches_loader_and_counts_duplicates(
            self, service_journal):
        job = SimJob.make("gzip", "lvp", **TINY)
        with CampaignJournal(service_journal) as journal:
            journal.open(SPEC.header())
            journal.record(job, execute_job(job))  # duplicate key
        snapshot = read_journal_snapshot(service_journal)
        assert snapshot["header"].key == SPEC.campaign_key()
        assert snapshot["meta"][0]["epoch"] == 3
        assert len(snapshot["entries"]) == 2     # keys dedupe...
        assert snapshot["records"] == 3          # ...records count raw lines
        assert snapshot["corrupt"] == 0
        loaded = CampaignJournal(service_journal)
        assert {k: r.to_dict() for k, r in snapshot["entries"].items()} \
            == {k: r.to_dict() for k, r in loaded.entries.items()}

    def test_snapshot_never_takes_the_writer_lock(self, service_journal):
        writer = CampaignJournal(service_journal)
        writer.open(SPEC.header())  # holds the flock
        try:
            snapshot = read_journal_snapshot(service_journal)
            assert len(snapshot["entries"]) == 2
        finally:
            writer.close()

    def test_snapshot_tolerates_torn_tail_and_junk(self, service_journal):
        with open(service_journal, "ab") as fh:
            fh.write(b"not json at all\n")
            fh.write(b'{"key": "half-wri')
        snapshot = read_journal_snapshot(service_journal)
        assert len(snapshot["entries"]) == 2
        assert snapshot["corrupt"] == 2

    def test_snapshot_of_missing_file_is_empty_not_fatal(self, tmp_path):
        snapshot = read_journal_snapshot(tmp_path / "never-existed.journal")
        assert snapshot["entries"] == {}
        assert snapshot["corrupt"] == 1
