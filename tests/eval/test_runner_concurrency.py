"""Thread-safety of the runner's stats/memo, and the job-key/probe API
the simulation service builds on."""

import glob
import os
import pickle
import threading

import pytest

from repro.eval import runner
from repro.obs.manifest import build_manifest


@pytest.fixture()
def private_cache(tmp_path, monkeypatch):
    """Point the disk cache at an empty directory and clear the memo."""
    monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path))
    runner.clear_cache()
    yield str(tmp_path)
    runner.clear_cache()


GEOMETRY = {"num_warps": 4, "num_lanes": 4}


class TestRunnerStats:
    def test_bump_is_atomic_under_threads(self):
        stats = runner.RunnerStats()
        threads = [threading.Thread(
            target=lambda: [stats.bump(memo_hits=1, misses=1,
                                       sim_seconds=0.5)
                            for _ in range(1000)])
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = stats.snapshot()
        assert snapshot["memo_hits"] == 8000
        assert snapshot["misses"] == 8000
        assert snapshot["sim_seconds"] == pytest.approx(4000.0)

    def test_reset_zeroes_counters(self):
        stats = runner.RunnerStats()
        stats.bump(disk_hits=3)
        stats.reset()
        assert stats.snapshot()["disk_hits"] == 0


class TestJobKeyAndProbe:
    def test_job_key_is_stable_and_param_sensitive(self):
        one = runner.job_key("VecAdd", "baseline", **GEOMETRY)
        assert one == runner.job_key("VecAdd", "baseline", **GEOMETRY)
        assert one != runner.job_key("VecAdd", "cheri_opt", **GEOMETRY)
        assert one != runner.job_key("VecAdd", "baseline", 2, **GEOMETRY)
        int(one, 16)  # hex digest

    def test_probe_misses_on_empty_cache(self, private_cache):
        assert runner.probe_disk("VecAdd", "baseline", **GEOMETRY) is None

    def test_probe_returns_cached_result(self, private_cache):
        ran = runner.run_benchmark("VecAdd", "baseline", **GEOMETRY)
        runner.clear_cache()  # drop the memo, keep the disk entry
        probed = runner.probe_disk("VecAdd", "baseline", **GEOMETRY)
        assert probed is not None
        assert probed.stats.as_dict() == ran.stats.as_dict()
        # The probe merges into the memo: a rerun is a memo hit.
        again = runner.run_benchmark("VecAdd", "baseline", **GEOMETRY)
        assert again.stats.as_dict() == ran.stats.as_dict()

    def test_probe_loads_entries_with_retired_meta_fields(
            self, private_cache):
        # Cache entries pickled while RunMeta still carried a ``jit``
        # field restore it as a stray attribute; loading must not care.
        ran = runner.run_benchmark("VecAdd", "baseline", **GEOMETRY)
        (path,) = glob.glob(os.path.join(private_cache, "*.pkl"))
        with open(path, "rb") as stream:
            old = pickle.load(stream)
        old.meta.jit = {"compiled_regions": 1, "codegen_seconds": 0.1}
        with open(path, "wb") as stream:
            pickle.dump(old, stream)
        runner.clear_cache()
        probed = runner.probe_disk("VecAdd", "baseline", **GEOMETRY)
        assert probed.meta.source == "disk"
        assert probed.stats.as_dict() == ran.stats.as_dict()
        manifest = build_manifest({"VecAdd": probed}, "baseline", 1, 0.0)
        assert set(manifest["benchmarks"]["VecAdd"]) == {
            "stats", "cache_source", "sim_seconds"}

    def test_probe_disabled_with_disk_cache(self, private_cache,
                                            monkeypatch):
        runner.run_benchmark("VecAdd", "baseline", **GEOMETRY)
        runner.clear_cache()
        monkeypatch.setattr(runner, "_disk_enabled", False)
        assert runner.probe_disk("VecAdd", "baseline", **GEOMETRY) is None


class TestConcurrentRuns:
    def test_threads_share_one_result(self, private_cache):
        results = [None] * 6
        barrier = threading.Barrier(len(results))

        def work(slot):
            barrier.wait()
            results[slot] = runner.run_benchmark("VecAdd", "baseline",
                                                 **GEOMETRY)

        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = [result.stats.as_dict() for result in results]
        assert all(entry == stats[0] for entry in stats)
