"""The content-addressed trace store: round trips, healing, CLI, catalog.

The store's contract is *cost, never correctness*: a hit loads packed
columns bit-identical to generation (pinned by simulating both), a
corrupt entry quarantines itself and the generator heals it, and version
bumps orphan old entries instead of misreading them.
"""

import gc
import json
import os
import tracemalloc

import pytest

from repro.cli import main as cli_main
from repro.engine.job import SimJob, execute_job
from repro.pipeline.core import simulate
from repro.workloads import catalog
from repro.workloads.store import (
    TRACE_DIR_ENV,
    TraceStore,
    default_trace_store,
    trace_key,
)


@pytest.fixture(autouse=True)
def fresh_trace_state(monkeypatch, tmp_path):
    """Isolate every test: no ambient store, empty trace cache."""
    monkeypatch.delenv(TRACE_DIR_ENV, raising=False)
    catalog.clear_trace_cache()
    yield
    catalog.clear_trace_cache()


def build_uncached(name="gzip", total=2000, seed=None):
    return catalog.build_trace(name, total, seed=seed, cache=False)


class TestStoreRoundTrip:
    def test_put_get_simulates_bit_identically(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = build_uncached("gcc", 2500)
        store.put(trace, "gcc", 2500, 403)
        loaded = store.get("gcc", 2500, 403)  # mmap-backed by default
        assert loaded is not None
        a = simulate(trace, None, warmup=500, workload="gcc")
        b = simulate(loaded, None, warmup=500, workload="gcc")
        assert a.to_dict() == b.to_dict()

    def test_get_without_mmap_matches(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = build_uncached()
        store.put(trace, "gzip", 2000, 164)
        loaded = store.get("gzip", 2000, 164, mmap=False)
        assert loaded.columns().pkeys == trace.columns().pkeys

    def test_miss_returns_none(self, tmp_path):
        assert TraceStore(tmp_path).get("gzip", 999, 164) is None

    def test_put_is_idempotent(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = build_uncached()
        first = store.put(trace, "gzip", 2000, 164)
        second = store.put(trace, "gzip", 2000, 164)
        assert first == second
        assert store.stats()["entries"] == 1

    def test_key_depends_on_identity_and_versions(self, monkeypatch):
        base = trace_key("gzip", 2000, 164)
        assert trace_key("gzip", 2000, 165) != base
        assert trace_key("gzip", 2001, 164) != base
        assert trace_key("gcc", 2000, 164) != base
        import repro.workloads.store as store_mod

        monkeypatch.setattr(store_mod, "TRACE_GENERATOR_VERSION", 999)
        assert trace_key("gzip", 2000, 164) != base


class TestCorruptionHealing:
    def _stored(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = build_uncached()
        entry = store.put(trace, "gzip", 2000, 164)
        return store, entry

    def test_truncated_column_is_quarantined(self, tmp_path):
        store, entry = self._stored(tmp_path)
        (entry / "values.npy").write_bytes(b"\x93NUMPY garbage")
        assert store.get("gzip", 2000, 164) is None
        assert store.corrupt == 1
        assert not entry.exists()  # quarantine-deleted

    def test_bad_meta_is_quarantined(self, tmp_path):
        store, entry = self._stored(tmp_path)
        (entry / "meta.json").write_text("{not json")
        assert store.get("gzip", 2000, 164) is None
        assert not entry.exists()

    def test_orphaned_tmp_dirs_are_not_listed(self, tmp_path):
        store, entry = self._stored(tmp_path)
        # Simulate a writer SIGKILLed between meta write and rename.
        orphan = entry.with_name(f"{entry.name}.tmp.9999")
        orphan.mkdir()
        (orphan / "meta.json").write_text(
            (entry / "meta.json").read_text()
        )
        assert store.stats()["entries"] == 1  # the orphan is invisible
        assert all(".tmp." not in row["key"] for row in store.entries())
        store.clear()
        assert not orphan.exists()  # clear() still sweeps it

    def test_missing_column_is_quarantined(self, tmp_path):
        store, entry = self._stored(tmp_path)
        (entry / "takens.npy").unlink()
        assert store.get("gzip", 2000, 164) is None

    def test_entry_without_meta_is_absent_and_put_rewrites_it(self,
                                                               tmp_path):
        # What a removal interrupted half-way leaves at a committed path:
        # the entry directory with one column file and no metadata.
        store, entry = self._stored(tmp_path)
        trace = build_uncached()
        for path in entry.iterdir():
            if path.name != "values.npy":
                path.unlink()
        assert not store.contains("gzip", 2000, 164)
        assert store.put(trace, "gzip", 2000, 164) == entry
        loaded = store.get("gzip", 2000, 164)
        assert loaded is not None
        assert loaded.columns().values == trace.columns().values
        assert not list(tmp_path.glob("??/*.tmp.*"))

    def test_quarantine_spares_an_entry_published_meanwhile(self, tmp_path,
                                                            monkeypatch):
        # One worker quarantines a damaged entry while another publishes
        # a fresh one at the same path: the fresh entry must survive.
        import repro.workloads.store as store_mod

        store, entry = self._stored(tmp_path)
        (entry / "values.npy").write_bytes(b"\x93NUMPY garbage")
        writer = TraceStore(tmp_path)
        real_rmtree = store_mod.shutil.rmtree
        published = []

        def rmtree_racing_a_writer(path, *args, **kwargs):
            if not published:
                published.append(writer.put(build_uncached(), "gzip",
                                            2000, 164))
            real_rmtree(path, *args, **kwargs)

        monkeypatch.setattr(store_mod.shutil, "rmtree",
                            rmtree_racing_a_writer)
        assert store.get("gzip", 2000, 164) is None
        monkeypatch.setattr(store_mod.shutil, "rmtree", real_rmtree)
        assert published == [entry]
        assert store.contains("gzip", 2000, 164)
        assert store.get("gzip", 2000, 164) is not None

    def test_build_trace_regenerates_and_reheals(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        reference = catalog.build_trace("gzip", 2000).columns().values
        store = default_trace_store()
        assert store.stats()["entries"] == 1
        entry = next(tmp_path.glob("??/*"))
        (entry / "meta.json").write_text("{not json")
        catalog.clear_trace_cache()
        healed = catalog.build_trace("gzip", 2000)  # regenerates + re-persists
        assert healed.columns().values == reference
        assert default_trace_store().stats()["entries"] == 1


class TestFaultInjectedHealing:
    """The same healing paths, driven through the chaos plane.

    These use :mod:`repro.engine.faults` to damage entries *through the
    production injection sites* — the read path quarantines real on-disk
    corruption, the write path survives injected ``ENOSPC``/partial
    writes — proving the seeded plans the chaos suite runs exercise the
    identical code the hand-damage tests above pin.
    """

    @pytest.fixture(autouse=True)
    def clean_plan(self):
        from repro.engine import faults

        faults.reset()
        yield
        faults.install_plan(None)
        faults.reset()

    def _stored(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = build_uncached()
        entry = store.put(trace, "gzip", 2000, 164)
        return store, trace, entry

    def test_injected_truncation_quarantines_and_regenerates(self, tmp_path):
        from repro.engine import faults

        store, trace, entry = self._stored(tmp_path)
        faults.install_plan("store.read:truncate@1")
        assert store.get("gzip", 2000, 164) is None
        assert store.corrupt == 1
        assert not entry.exists()
        # Regeneration heals: the next put/get round trip is clean and
        # bit-identical to the original trace.
        store.put(trace, "gzip", 2000, 164)
        healed = store.get("gzip", 2000, 164)
        assert healed is not None
        assert healed.columns().values == trace.columns().values

    def test_injected_garbage_meta_quarantines(self, tmp_path):
        from repro.engine import faults

        store, _trace, entry = self._stored(tmp_path)
        faults.install_plan("store.read:garbage-meta@1")
        assert store.get("gzip", 2000, 164) is None
        assert not entry.exists()

    def test_injected_enospc_during_put_leaves_no_entry(self, tmp_path):
        from repro.engine import faults

        store = TraceStore(tmp_path)
        trace = build_uncached()
        faults.install_plan("store.write:enospc@1")
        store.put(trace, "gzip", 2000, 164)  # swallowed, never raises
        assert store.get("gzip", 2000, 164) is None
        faults.install_plan(None)
        # The failed persist left nothing behind that blocks a retry.
        store.put(trace, "gzip", 2000, 164)
        assert store.get("gzip", 2000, 164) is not None

    def test_injected_partial_write_never_renames_into_place(self, tmp_path):
        from repro.engine import faults

        store = TraceStore(tmp_path)
        trace = build_uncached()
        faults.install_plan("store.write:partial@1")
        store.put(trace, "gzip", 2000, 164)
        # The half-written column set stayed in (cleaned) tmp space: no
        # committed entry, no tmp debris, and contains() agrees.
        assert not store.contains("gzip", 2000, 164)
        assert not list(tmp_path.glob("??/*.tmp.*"))

    def test_fault_free_plan_run_is_bit_identical(self, tmp_path):
        """A survivable-fault run heals back to the fault-free answer."""
        from repro.engine import faults

        store, trace, _entry = self._stored(tmp_path)
        # Copy the clean answer out *before* injecting damage: an
        # mmap-backed view would SIGBUS once the file under it shrinks.
        clean = store.get("gzip", 2000, 164, mmap=False)
        clean_pkeys = clean.columns().pkeys
        clean_values = clean.columns().values
        faults.install_plan("store.read:truncate@1")
        assert store.get("gzip", 2000, 164) is None  # quarantined
        store.put(trace, "gzip", 2000, 164)          # healed
        healed = store.get("gzip", 2000, 164)
        assert healed.columns().pkeys == clean_pkeys
        assert healed.columns().values == clean_values


class TestCatalogIntegration:
    def test_warm_store_skips_generation(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        first = catalog.build_trace("gcc", 2500)
        catalog.clear_trace_cache()
        before = catalog.generation_count()
        second = catalog.build_trace("gcc", 2500)
        assert catalog.generation_count() == before  # loaded, not generated
        assert second.columns().values == first.columns().values

    def test_store_loaded_job_results_match(self, tmp_path, monkeypatch):
        job = SimJob.make("gzip", "lvp", n_uops=1500, warmup=500)
        cold = execute_job(job)
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        catalog.clear_trace_cache()
        execute_job(job)              # populates the store
        catalog.clear_trace_cache()
        warm = execute_job(job)       # served from the store
        assert warm.to_dict() == cold.to_dict()


class TestLRUTraceCache:
    def test_entry_budget_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(catalog, "TRACE_CACHE_MAX_ENTRIES", 2)
        catalog.build_trace("gzip", 1000)
        catalog.build_trace("gcc", 1000)
        catalog.build_trace("gzip", 1000)       # refresh gzip
        catalog.build_trace("crafty", 1000)     # evicts gcc (LRU)
        assert catalog.cached_trace("gzip", 1000) is not None
        assert catalog.cached_trace("crafty", 1000) is not None
        assert catalog.cached_trace("gcc", 1000) is None
        assert catalog.trace_cache_stats()["entries"] == 2

    def test_byte_budget_bounds_the_cache(self, monkeypatch):
        # ~70 KB per 1000-µop packed trace; a 0.1 MB budget holds one.
        monkeypatch.setattr(catalog, "TRACE_CACHE_MAX_MB", 0.1)
        catalog.build_trace("gzip", 1000)
        catalog.build_trace("gcc", 1000)
        stats = catalog.trace_cache_stats()
        assert stats["entries"] == 1
        assert catalog.cached_trace("gcc", 1000) is not None

    def test_single_oversized_trace_still_caches(self, monkeypatch):
        monkeypatch.setattr(catalog, "TRACE_CACHE_MAX_MB", 0.01)
        trace = catalog.build_trace("gzip", 2000)
        assert catalog.cached_trace("gzip", 2000) is trace


class TestCachedTraceForm:
    """A cached trace holds its packed columns only, from every source;
    the µop list and the list view are built when something reads them."""

    @staticmethod
    def assert_packed_only(trace):
        assert trace._uops is None

    def test_generated_and_store_loaded(self, tmp_path, monkeypatch):
        self.assert_packed_only(catalog.build_trace("gzip", 1000))
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        catalog.build_trace("gcc", 1000)          # generated, then stored
        catalog.clear_trace_cache()
        before = catalog.generation_count()
        loaded = catalog.build_trace("gcc", 1000)
        assert catalog.generation_count() == before
        self.assert_packed_only(loaded)
        assert loaded.store_identity == ("gcc", 1000, 403)
        assert loaded.columns().n == 1000

    def test_spec_loop_run_leaves_no_list_view(self, monkeypatch):
        """The spec loop's list view is ~5x the packed bytes of a cached
        trace, outside the LRU's byte budget, so it must be gone once the
        run ends: the budget then charges all a cached trace holds."""
        monkeypatch.setenv("REPRO_FAST_SIM", "0")
        trace = catalog.build_trace("gcc", 12000, seed=0x5EED_11E)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            view = trace.columns()
            view_bytes = tracemalloc.get_traced_memory()[0] - base
            del view
            simulate(trace, None, workload="gcc")
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert view_bytes > 3 * trace.nbytes
        assert kept < view_bytes / 10


class TestTraceCLI:
    def test_build_ls_clear(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert cli_main(["trace", "build", "--workloads", "gzip,gcc",
                         "--uops", "1000", "--warmup", "500",
                         "--trace-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "built and stored" in out
        # Rebuilding is a no-op.
        assert cli_main(["trace", "build", "--workloads", "gzip",
                         "--uops", "1000", "--warmup", "500",
                         "--trace-dir", store_dir]) == 0
        assert "already stored" in capsys.readouterr().out
        assert cli_main(["trace", "ls", "--stats",
                         "--trace-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "gcc" in out
        assert "total: 2 trace(s)" in out
        assert cli_main(["trace", "clear", "--trace-dir", store_dir]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert TraceStore(store_dir).stats()["entries"] == 0

    def test_trace_without_dir_errors(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["trace", "ls"])

    def test_env_var_supplies_the_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        assert cli_main(["trace", "ls"]) == 0
        assert "no stored traces" in capsys.readouterr().out
