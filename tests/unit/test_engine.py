"""The experiment engine: job keys, executors, caching, batch API."""

import dataclasses
import json
import pickle

import pytest

from repro.engine import cache as cache_mod
from repro.engine import job as job_mod
from repro.engine.api import Engine, configure_default_engine, reset_default_engine
from repro.engine.cache import ResultCache
from repro.engine.executors import (
    PoolExecutor,
    SerialExecutor,
    make_executor,
    resolve_jobs,
)
from repro.engine.job import SimJob, execute_job
from repro.pipeline.config import CoreConfig, RecoveryMode

TINY = dict(n_uops=1500, warmup=800)


@pytest.fixture(autouse=True)
def _isolated_default_engine():
    """Keep the process-wide default engine out of these tests' way."""
    reset_default_engine()
    yield
    reset_default_engine()


def small_grid() -> list[SimJob]:
    return [
        SimJob.make(w, p, **TINY)
        for w in ("gzip", "crafty")
        for p in ("none", "lvp", "vtage")
    ]


# ---------------------------------------------------------------------------
# Job specs and content keys.
# ---------------------------------------------------------------------------

class TestSimJob:
    def test_content_key_is_deterministic(self):
        a = SimJob.make("gzip", "vtage", **TINY)
        b = SimJob.make("gzip", "vtage", **TINY)
        assert a == b
        assert a.content_key() == b.content_key()

    def test_every_knob_changes_the_key(self):
        base = SimJob.make("gzip", "vtage", **TINY)
        variants = [
            SimJob.make("crafty", "vtage", **TINY),
            SimJob.make("gzip", "lvp", **TINY),
            SimJob.make("gzip", "vtage", fpc=False, **TINY),
            SimJob.make("gzip", "vtage", recovery="reissue", **TINY),
            SimJob.make("gzip", "vtage", entries=4096, **TINY),
            SimJob.make("gzip", "vtage", n_uops=2000, warmup=TINY["warmup"]),
            SimJob.make("gzip", "vtage", n_uops=TINY["n_uops"], warmup=900),
            SimJob.make("gzip", "vtage", seed=7, **TINY),
            SimJob.make("gzip", "vtage", config=CoreConfig(issue_width=4), **TINY),
        ]
        keys = {base.content_key()} | {v.content_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_config_serialisation_round_trips(self):
        config = CoreConfig(issue_width=4, rob_entries=128,
                            recovery=RecoveryMode.SELECTIVE_REISSUE,
                            vp_write_ports=4)
        job = SimJob.make("gzip", "lvp", config=config, **TINY)
        assert job.core_config() == config
        assert SimJob.from_dict(json.loads(job.canonical_json())) == job

    def test_default_config_follows_recovery(self):
        squash = SimJob.make("gzip", "lvp", recovery="squash", **TINY)
        reissue = SimJob.make("gzip", "lvp", recovery="reissue", **TINY)
        assert squash.core_config().recovery is RecoveryMode.SQUASH_COMMIT
        assert reissue.core_config().recovery is RecoveryMode.SELECTIVE_REISSUE

    def test_config_content_key_tracks_every_field(self):
        default_key = CoreConfig().content_key()
        assert CoreConfig().content_key() == default_key
        assert CoreConfig(fetch_width=4).content_key() != default_key
        assert CoreConfig(vp_scope="loads").content_key() != default_key

    def test_jobs_are_hashable(self):
        assert len({SimJob.make("gzip", "lvp", **TINY),
                    SimJob.make("gzip", "lvp", **TINY)}) == 1

    def test_content_key_is_computed_once_per_object(self, monkeypatch):
        calls = []
        real = SimJob.canonical_json

        def counting(job):
            calls.append(job)
            return real(job)

        monkeypatch.setattr(SimJob, "canonical_json", counting)
        job = SimJob.make("gzip", "vtage", **TINY)
        keys = {job.content_key() for _ in range(5)}
        assert len(keys) == 1 and len(calls) == 1
        # Copies compute their own key, from their own fields.
        copy = dataclasses.replace(job, entries=4096)
        assert copy.content_key() != job.content_key()
        assert SimJob.from_dict(job.to_dict()).content_key() == job.content_key()
        assert len(calls) == 3

    def test_memoised_key_is_outside_equality_hash_and_dict(self):
        warm = SimJob.make("gzip", "vtage", **TINY)
        cold = SimJob.make("gzip", "vtage", **TINY)
        key = warm.content_key()
        assert warm == cold and hash(warm) == hash(cold)
        assert warm.to_dict() == cold.to_dict()
        assert "_content_key" not in warm.to_dict()
        assert cold.content_key() == key
        unpickled = pickle.loads(pickle.dumps(warm))
        assert unpickled == warm and unpickled.content_key() == key

    def test_to_dict_equals_asdict(self):
        """``to_dict`` is shallow; every field is immutable, so it equals
        the deep-copying ``dataclasses.asdict``, with and without a
        ``config_json``."""
        plain = SimJob.make("gzip", "vtage", **TINY)
        custom = SimJob.make("gzip", "lvp", config=CoreConfig(rob_entries=96),
                             **TINY)
        assert plain.config_json is None and custom.config_json is not None
        for job in (plain, custom):
            job.content_key()
            assert job.to_dict() == dataclasses.asdict(job)
            assert list(job.to_dict()) == list(dataclasses.asdict(job))


# ---------------------------------------------------------------------------
# Executors.
# ---------------------------------------------------------------------------

class TestExecutors:
    def test_resolve_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2  # explicit beats env
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert resolve_jobs() == 1

    def test_make_executor_picks_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert isinstance(make_executor(), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(4), PoolExecutor)

    @pytest.mark.parametrize("make_pool", [
        lambda: SerialExecutor(),
        lambda: PoolExecutor(2),
    ], ids=["serial", "pool"])
    def test_executors_match_direct_execution(self, make_pool):
        jobs = [SimJob.make("gzip", "lvp", **TINY)]
        direct = execute_job(jobs[0])
        [via_executor] = make_pool().run(jobs)
        assert via_executor == direct

    def test_serial_and_pool_are_bit_identical_on_a_grid(self):
        """The tentpole guarantee: backend choice never changes results."""
        jobs = small_grid()
        serial = SerialExecutor().run(jobs)
        pooled = PoolExecutor(2).run(jobs)
        assert len(serial) == len(pooled) == len(jobs)
        for job, s, p in zip(jobs, serial, pooled):
            assert s.to_dict() == p.to_dict(), job.label()

    def test_pool_rejects_single_worker(self):
        with pytest.raises(ValueError):
            PoolExecutor(1)

    def test_pool_empty_batch(self):
        assert PoolExecutor(2).run([]) == []


# ---------------------------------------------------------------------------
# Caching.
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_memory_roundtrip_and_counters(self):
        cache = ResultCache()
        job = SimJob.make("gzip", "lvp", **TINY)
        assert cache.get(job) is None
        result = execute_job(job)
        cache.put(job, result)
        assert cache.get(job) == result
        assert cache.misses == 1 and cache.memory_hits == 1

    def test_disk_persistence_across_instances(self, tmp_path):
        job = SimJob.make("gzip", "lvp", **TINY)
        result = execute_job(job)
        ResultCache(tmp_path).put(job, result)

        fresh = ResultCache(tmp_path)
        assert fresh.get(job) == result
        assert fresh.disk_hits == 1
        assert len(fresh.disk_entries()) == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        job = SimJob.make("gzip", "lvp", **TINY)
        cache = ResultCache(tmp_path)
        cache.put(job, execute_job(job))
        [entry] = cache.disk_entries()
        entry.write_text("{ not json")
        assert ResultCache(tmp_path).get(job) is None

    def test_foreign_disk_entry_is_a_miss(self, tmp_path):
        """A shared directory holds files other processes wrote: an entry
        filed under the wrong key, or one missing its result, is a miss."""
        job, other = (SimJob.make(w, "lvp", **TINY) for w in ("gzip", "gcc"))
        cache = ResultCache(tmp_path)
        cache.put(job, execute_job(job))
        [entry] = cache.disk_entries()
        misplaced = cache._path(other.content_key())
        misplaced.parent.mkdir(parents=True, exist_ok=True)
        misplaced.write_text(entry.read_text())
        assert ResultCache(tmp_path).get(other) is None
        for junk in ("[]", json.dumps({"version": 1,
                                       "key": job.content_key()})):
            entry.write_text(junk)
            assert ResultCache(tmp_path).get(job) is None

    def test_clear_removes_disk_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimJob.make("gzip", "lvp", **TINY)
        cache.put(job, execute_job(job))
        assert cache.clear() == 1
        assert cache.disk_entries() == []
        assert cache.get(job) is None

    def test_memory_layer_holds_exactly_the_bound(self):
        result = execute_job(SimJob.make("gzip", "lvp", **TINY))
        cache = ResultCache()
        jobs = [SimJob.make("gzip", "lvp", n_uops=i + 1, warmup=0)
                for i in range(cache_mod.MEMORY_MAX_ENTRIES + 1)]
        for job in jobs:
            cache.put(job, result)
        assert len(cache) == cache_mod.MEMORY_MAX_ENTRIES
        assert jobs[0].content_key() not in cache._memory  # oldest went first

    def test_lru_eviction_rereads_from_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "MEMORY_MAX_ENTRIES", 3)
        result = execute_job(SimJob.make("gzip", "lvp", **TINY))
        jobs = [SimJob.make("gzip", "lvp", n_uops=TINY["n_uops"] + i,
                            warmup=TINY["warmup"]) for i in range(4)]
        cache = ResultCache(tmp_path)
        for job in jobs[:3]:
            cache.put(job, result)
        assert cache.get(jobs[0]) == result  # refreshes jobs[0]
        cache.put(jobs[3], result)           # evicts jobs[1], the LRU
        assert len(cache) == 3
        assert cache.get(jobs[0]) == result
        assert (cache.memory_hits, cache.disk_hits) == (2, 0)
        assert cache.get(jobs[1]) == result
        assert (cache.memory_hits, cache.disk_hits) == (2, 1)
        assert len(cache) == 3


# ---------------------------------------------------------------------------
# The engine: batches, deduplication, warm-cache short-circuit.
# ---------------------------------------------------------------------------

class TestEngine:
    def test_run_jobs_preserves_order(self):
        jobs = small_grid()
        results = Engine(SerialExecutor(), ResultCache()).run_jobs(jobs)
        for job, result in zip(jobs, results):
            assert result.workload == job.workload

    def test_in_batch_duplicates_simulate_once(self):
        job = SimJob.make("gzip", "lvp", **TINY)
        job_mod.reset_run_count()
        results = Engine(SerialExecutor(), ResultCache()).run_jobs([job] * 4)
        assert job_mod.run_count() == 1
        assert all(r == results[0] for r in results)

    def test_warm_disk_cache_short_circuits_resimulation(self, tmp_path):
        """Acceptance criterion: a second warm-cache invocation of the same
        grid performs zero new simulations and returns identical results."""
        jobs = small_grid()

        job_mod.reset_run_count()
        cold = Engine(SerialExecutor(), ResultCache(tmp_path)).run_jobs(jobs)
        assert job_mod.run_count() == len(jobs)

        job_mod.reset_run_count()
        warm_engine = Engine(SerialExecutor(), ResultCache(tmp_path))
        warm = warm_engine.run_jobs(jobs)
        assert job_mod.run_count() == 0, "warm cache must not re-simulate"
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]
        assert warm_engine.cache.disk_hits == len(jobs)

    def test_engine_with_pool_executor_matches_serial_engine(self):
        jobs = small_grid()
        serial = Engine(SerialExecutor(), ResultCache()).run_jobs(jobs)
        pooled = Engine(PoolExecutor(2), ResultCache()).run_jobs(jobs)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]

    def test_run_grid_keys(self):
        engine = Engine(SerialExecutor(), ResultCache())
        grid = engine.run_grid(("lvp", "vtage"), ("gzip",), **TINY)
        assert set(grid) == {("lvp", "gzip"), ("vtage", "gzip")}
        assert grid[("lvp", "gzip")].predictor != ""

    def test_configure_default_engine(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        engine = configure_default_engine(jobs=2, cache_dir=str(tmp_path))
        assert isinstance(engine.executor, PoolExecutor)
        assert engine.cache.directory == tmp_path
        memory_only = configure_default_engine(jobs=1, cache_dir="")
        assert isinstance(memory_only.executor, SerialExecutor)
        assert memory_only.cache.directory is None


# ---------------------------------------------------------------------------
# The baseline-cache fix: config is part of the key.
# ---------------------------------------------------------------------------

class TestBaselineConfigKey:
    def test_custom_config_gets_its_own_baseline(self):
        from repro.experiments.runner import baseline_job, baseline_result

        default_job = baseline_job("gzip", **TINY)
        narrow_cfg = CoreConfig(issue_width=2, fetch_width=2)
        narrow_job = baseline_job("gzip", TINY["n_uops"], TINY["warmup"],
                                  config=narrow_cfg)
        assert default_job.content_key() != narrow_job.content_key()

        engine = Engine(SerialExecutor(), ResultCache())
        default_base = baseline_result("gzip", **TINY, engine=engine)
        narrow_base = baseline_result("gzip", **TINY, config=narrow_cfg,
                                      engine=engine)
        # A 2-wide core is materially slower; before the fix both lookups
        # returned the same (default-config) result.
        assert narrow_base.cycles > default_base.cycles
        assert narrow_base.ipc < default_base.ipc

    def test_recovery_is_normalised_for_baselines(self):
        from repro.experiments.runner import baseline_job

        squash = baseline_job("gzip", **TINY,
                              config=CoreConfig(recovery=RecoveryMode.SQUASH_COMMIT))
        reissue = baseline_job("gzip", **TINY,
                               config=CoreConfig(recovery=RecoveryMode.SELECTIVE_REISSUE))
        assert squash.content_key() == reissue.content_key()


# ---------------------------------------------------------------------------
# CoreConfig serialisation (the engine's config transport).
# ---------------------------------------------------------------------------

class TestCoreConfigSerialisation:
    def test_round_trip_every_field(self):
        config = CoreConfig(fetch_width=4, rob_entries=64, vp_write_ports=2,
                            vp_scope="loads",
                            recovery=RecoveryMode.SELECTIVE_REISSUE)
        restored = CoreConfig.from_dict(json.loads(config.canonical_json()))
        for f in dataclasses.fields(CoreConfig):
            assert getattr(restored, f.name) == getattr(config, f.name), f.name

    def test_content_key_ignores_dict_ordering(self):
        a = CoreConfig()
        b = CoreConfig()
        b.fu = dict(reversed(list(b.fu.items())))
        assert a.content_key() == b.content_key()
