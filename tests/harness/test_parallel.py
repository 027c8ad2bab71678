"""Parallel sweep harness: serial parity, caching, spawn safety."""

import os
import pickle
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.harness.parallel import (ORPHAN_TMP_SECONDS, CellResult,
                                    SweepCache, SweepTask, build_tasks,
                                    clear_cell_caches, run_cell,
                                    run_suite_parallel)
from repro.isa import decoded
from repro.noise.model import preset
from repro.sim.config import SimulationConfig

SCALE = 0.02


def assert_outcomes_equal(left, right):
    assert [o.name for o in left] == [o.name for o in right]
    for a, b in zip(left, right):
        assert a.num_qubits == b.num_qubits
        assert a.num_ops == b.num_ops
        assert a.feedback_ops == b.feedback_ops
        assert a.makespan_cycles == b.makespan_cycles
        assert a.stall_cycles == b.stall_cycles


class TestParity:
    def test_parallel_matches_serial(self, tiny_outcomes):
        parallel = run_suite_parallel(scale=SCALE, processes=2)
        assert_outcomes_equal(parallel, tiny_outcomes)

    def test_in_process_matches_serial(self, tiny_outcomes):
        inproc = run_suite_parallel(scale=SCALE, processes=1)
        assert_outcomes_equal(inproc, tiny_outcomes)

    def test_scheme_rankings_identical(self, tiny_outcomes):
        parallel = run_suite_parallel(scale=SCALE, processes=2)
        serial_rank = [o.normalized() for o in tiny_outcomes]
        parallel_rank = [o.normalized() for o in parallel]
        assert serial_rank == parallel_rank

    def test_workload_filter(self):
        outcomes = run_suite_parallel(
            scale=SCALE, processes=1, spec_names=["bv_n400", "qft_n30"])
        assert [o.name for o in outcomes] == ["bv_n400", "qft_n30"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            build_tasks(SCALE, ("bisp",), spec_names=["nope"])


class TestTasks:
    def test_tasks_are_picklable_and_deterministic(self):
        tasks = build_tasks(SCALE, ("bisp", "lockstep"))
        assert len(tasks) == 24  # 12 workloads x 2 schemes
        rebuilt = pickle.loads(pickle.dumps(tasks))
        assert rebuilt == tasks
        assert [t.cache_key() for t in rebuilt] == \
               [t.cache_key() for t in tasks]

    def test_cache_key_sensitivity(self):
        base, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        other_seed, = build_tasks(SCALE, ("bisp",), device_seed=999,
                                  spec_names=["bv_n400"])
        other_config, = build_tasks(
            SCALE, ("bisp",), config=SimulationConfig(neighbor_link_cycles=9),
            spec_names=["bv_n400"])
        keys = {base.cache_key(), other_seed.cache_key(),
                other_config.cache_key()}
        assert len(keys) == 3

    def test_run_cell_matches_run_suite_numbers(self, tiny_outcomes):
        task, = build_tasks(SCALE, ("bisp",), spec_names=["logical_t_n432"])
        cell = run_cell(task)
        reference = {o.name: o for o in tiny_outcomes}["logical_t_n432"]
        assert cell.makespan_cycles == reference.makespan_cycles["bisp"]
        assert cell.feedback_ops == reference.feedback_ops


#: Pinned cell-store keys.  A change here re-keys every warm store, so
#: it must come with a CACHE_FORMAT_VERSION bump, never silently.
GOLDEN_CACHE_KEYS = [
    (dict(spec_name="bv_n400", scheme="bisp", scale=0.05,
          substitution_fraction=0.25, device_seed=1234),
     "bb36df115e7e96ec0931f893fdb866cb77dfeea82d8fb5297295958f496ff01e"),
    (dict(spec_name="qft_n30", scheme="lockstep", scale=0.1,
          substitution_fraction=0.5, device_seed=7, shots=4,
          config=SimulationConfig(cycle_ns=2.5, neighbor_link_cycles=9,
                                  router_fanout=4)),
     "09751bc68a2e7c92f90f5a16075a8693e16008ebf57abf7b9d05c12a89e5dfb0"),
    (dict(spec_name="ghz_n100", scheme="oracle", scale=0.05,
          substitution_fraction=0.25, device_seed=1234,
          noise=preset("depolarizing_1e3"), noise_shots=64),
     "5c6122de0ab9d3bac30dc608de98b57e9cc7926937f00a15022f048b66c11a92"),
]


class TestGoldenCacheKeys:
    @pytest.mark.parametrize("fields,digest", GOLDEN_CACHE_KEYS)
    def test_cache_key_is_pinned(self, fields, digest):
        assert SweepTask(**fields).cache_key() == digest

    def test_default_config_is_explicit_default(self):
        fields, digest = GOLDEN_CACHE_KEYS[0]
        task = SweepTask(config=SimulationConfig(), **fields)
        assert task.cache_key() == digest


class TestCache:
    def test_cache_hit_skips_recompute(self, tmp_path):
        cache_dir = str(tmp_path / "sweep")
        first = run_suite_parallel(scale=SCALE, processes=1,
                                   cache_dir=cache_dir,
                                   spec_names=["bv_n400"])
        cache = SweepCache(cache_dir)
        assert len(cache) == 2  # two schemes
        second = run_suite_parallel(scale=SCALE, processes=1,
                                    cache_dir=cache_dir,
                                    spec_names=["bv_n400"])
        assert_outcomes_equal(first, second)

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache_dir = str(tmp_path / "sweep")
        run_suite_parallel(scale=SCALE, processes=1, cache_dir=cache_dir,
                           spec_names=["bv_n400"])
        for path in (tmp_path / "sweep").glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        outcomes = run_suite_parallel(scale=SCALE, processes=1,
                                      cache_dir=cache_dir,
                                      spec_names=["bv_n400"])
        assert outcomes[0].makespan_cycles["bisp"] > 0

    def test_roundtrip_value(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        cell = run_cell(task)
        cache.put(task.cache_key(), cell)
        assert cache.get(task.cache_key()) == cell
        assert cache.get("0" * 64) is None


@pytest.mark.parallel
class TestSpawn:
    def test_spawn_start_method_smoke(self):
        """Workers must survive pickling under spawn (fresh interpreter)."""
        outcomes = run_suite_parallel(
            scale=SCALE, processes=2, start_method="spawn",
            spec_names=["bv_n400"], schemes=("bisp", "lockstep"))
        assert outcomes[0].makespan_cycles["bisp"] > 0


class TestOrphanTmpSweep:
    """A worker killed between mkstemp and os.replace must not leak its
    temp file forever: opening the cache reclaims it (regression for the
    kill-resume leak)."""

    def _cache_dir(self, tmp_path):
        cache_dir = tmp_path / "sweep"
        cache_dir.mkdir()
        return cache_dir

    def _dead_pid(self):
        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        return proc.pid

    def test_dead_writer_tmp_swept_on_open(self, tmp_path):
        cache_dir = self._cache_dir(tmp_path)
        orphan = cache_dir / "tmp-{}-leak.tmp".format(self._dead_pid())
        orphan.write_bytes(b"partial pickle")
        SweepCache(str(cache_dir))
        assert not orphan.exists()
        assert list(cache_dir.glob("*.tmp")) == []

    def test_live_writer_fresh_tmp_kept(self, tmp_path):
        """A concurrent live writer's fresh temp file is not clobbered."""
        cache_dir = self._cache_dir(tmp_path)
        live = cache_dir / "tmp-{}-inflight.tmp".format(os.getpid())
        live.write_bytes(b"in flight")
        removed = SweepCache(str(cache_dir)).sweep_orphan_tmps()
        assert removed == 0
        assert live.exists()

    def test_stale_tmp_swept_by_age(self, tmp_path):
        """TTL backstop: even a live-looking PID (reuse) loses its claim
        once the temp file is older than ORPHAN_TMP_SECONDS."""
        cache_dir = self._cache_dir(tmp_path)
        cache = SweepCache(str(cache_dir), sweep_orphans=False)
        stale = cache_dir / "tmp-{}-stale.tmp".format(os.getpid())
        stale.write_bytes(b"ancient")
        old = time.time() - ORPHAN_TMP_SECONDS - 60
        os.utime(stale, (old, old))
        assert cache.sweep_orphan_tmps() == 1
        assert not stale.exists()

    def test_foreign_tmp_name_only_aged_out(self, tmp_path):
        """Temp files without our pid prefix fall back to the TTL test."""
        cache_dir = self._cache_dir(tmp_path)
        foreign = cache_dir / "download.tmp"
        foreign.write_bytes(b"not ours")
        cache = SweepCache(str(cache_dir))
        assert foreign.exists()  # fresh: kept
        old = time.time() - ORPHAN_TMP_SECONDS - 60
        os.utime(foreign, (old, old))
        assert cache.sweep_orphan_tmps() == 1
        assert not foreign.exists()

    def test_entries_never_swept(self, tmp_path):
        cache_dir = self._cache_dir(tmp_path)
        cache = SweepCache(str(cache_dir))
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        cache.put(task.cache_key(), run_cell(task))
        orphan = cache_dir / "tmp-{}-leak.tmp".format(self._dead_pid())
        orphan.write_bytes(b"partial")
        assert SweepCache(str(cache_dir)).sweep_orphan_tmps() == 0
        assert cache.get(task.cache_key()) is not None

    def test_put_leaves_no_tmp(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        cache.put(task.cache_key(), run_cell(task))
        assert list(tmp_path.glob("*.tmp")) == []

    def test_kill_resume_sweep_leaves_zero_tmps(self, tmp_path):
        """End-to-end: resume a sweep over a cache dir littered with a
        killed worker's orphan; the run completes and no .tmp remains."""
        cache_dir = self._cache_dir(tmp_path)
        orphan = cache_dir / "tmp-{}-killed.tmp".format(self._dead_pid())
        orphan.write_bytes(b"\x80\x04 partial")
        outcomes = run_suite_parallel(scale=SCALE, processes=1,
                                      cache_dir=str(cache_dir),
                                      spec_names=["bv_n400"])
        assert outcomes[0].makespan_cycles["bisp"] > 0
        assert list(cache_dir.glob("*.tmp")) == []
        assert len(list(cache_dir.glob("*.pkl"))) == 2

    def test_sweep_can_be_disabled(self, tmp_path):
        cache_dir = self._cache_dir(tmp_path)
        orphan = cache_dir / "tmp-{}-leak.tmp".format(self._dead_pid())
        orphan.write_bytes(b"partial")
        SweepCache(str(cache_dir), sweep_orphans=False)
        assert orphan.exists()


class TestFastpathFlagPropagation:
    """REPRO_NO_FASTPATH / REPRO_REPLAY_TIER must reach workers through
    the task record — a spawn pool's fresh interpreter does not inherit
    the parent's environment mutations made after pool creation."""

    def test_build_tasks_capture_flags(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        assert task.no_fastpath is True
        assert task.replay_tier == "legacy"
        monkeypatch.delenv("REPRO_NO_FASTPATH")
        monkeypatch.setenv("REPRO_REPLAY_TIER", "block")
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        assert task.no_fastpath is False
        assert task.replay_tier == "block"

    def test_flags_not_in_cache_key(self):
        """Tier flags deliberately do NOT key the cache: results are
        bit-identical across tiers by contract, so entries are shared."""
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        fast_key = task.cache_key()
        legacy = replace(task, no_fastpath=True, replay_tier="legacy")
        assert legacy.cache_key() == fast_key

    def test_run_cell_applies_task_flags(self, monkeypatch):
        """With ambient env unset, a no_fastpath task still runs the
        legacy interpreter — observable because legacy never decodes."""
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        monkeypatch.delenv("REPRO_REPLAY_TIER", raising=False)
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        legacy_task = replace(task, no_fastpath=True, replay_tier="legacy")
        clear_cell_caches()
        decoded.clear_decode_caches()
        legacy_cell = run_cell(legacy_task)
        assert decoded.decode_cache_stats()["by_content"] == 0
        clear_cell_caches()
        fast_cell = run_cell(task)
        assert decoded.decode_cache_stats()["by_content"] > 0
        assert os.environ.get("REPRO_NO_FASTPATH") is None  # restored
        assert legacy_cell == fast_cell  # tier contract: bit-identical

    def test_task_environment_restores_prior_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", "0")
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        legacy_task = replace(task, no_fastpath=True)
        run_cell(legacy_task)
        assert os.environ["REPRO_NO_FASTPATH"] == "0"


@pytest.mark.parallel
class TestSpawnFlagPropagation:
    def test_no_fastpath_reaches_spawn_workers(self, monkeypatch):
        """--verify-parallel style run: spawn workers honor the flag and
        produce the same numbers as the fast serial path."""
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        fast = run_suite_parallel(scale=SCALE, processes=1,
                                  spec_names=["bv_n400"],
                                  schemes=("bisp",))
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        legacy = run_suite_parallel(scale=SCALE, processes=2,
                                    start_method="spawn",
                                    spec_names=["bv_n400"],
                                    schemes=("bisp",))
        assert_outcomes_equal(fast, legacy)


class TestReclaimLock:
    """Orphan-tmp reclaim is single-flight across concurrent store/cache
    opens: an advisory flock serializes the sweep, and losers skip it
    instead of racing the winner's unlinks (PR-7 satellite fix)."""

    def test_lock_is_exclusive_while_held(self, tmp_path):
        cache = SweepCache(str(tmp_path), sweep_orphans=False)
        other = SweepCache(str(tmp_path), sweep_orphans=False)
        with cache._reclaim_lock() as acquired:
            assert acquired
            with other._reclaim_lock() as second:
                assert not second

    def test_lock_released_after_sweep(self, tmp_path):
        cache = SweepCache(str(tmp_path), sweep_orphans=False)
        with cache._reclaim_lock() as acquired:
            assert acquired
        with cache._reclaim_lock() as again:
            assert again

    def test_contended_sweep_returns_zero_not_raises(self, tmp_path):
        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        orphan = tmp_path / "tmp-{}-leak.tmp".format(proc.pid)
        orphan.write_bytes(b"partial")
        holder = SweepCache(str(tmp_path), sweep_orphans=False)
        loser = SweepCache(str(tmp_path), sweep_orphans=False)
        with holder._reclaim_lock() as acquired:
            assert acquired
            assert loser.sweep_orphan_tmps() == 0  # skipped, no race
            assert orphan.exists()
        assert loser.sweep_orphan_tmps() == 1
        assert not orphan.exists()

    def test_concurrent_opens_race_clean(self, tmp_path):
        """Many processes opening one littered store at once: the orphan
        is reclaimed and nobody crashes on a vanished tmp file."""
        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        for index in range(4):
            orphan = tmp_path / "tmp-{}-leak{}.tmp".format(proc.pid,
                                                           index)
            orphan.write_bytes(b"partial")
        script = ("import sys; sys.path.insert(0, {!r}); "
                  "from repro.harness.parallel import SweepCache; "
                  "SweepCache({!r})").format(
                      os.path.join(os.path.dirname(os.path.dirname(
                          os.path.dirname(os.path.abspath(__file__)))),
                          "src"),
                      str(tmp_path))
        procs = [subprocess.Popen([sys.executable, "-c", script])
                 for _ in range(4)]
        assert [p.wait() for p in procs] == [0, 0, 0, 0]
        assert list(tmp_path.glob("*.tmp")) == []


class TestWireSerialization:
    """SweepTask/CellResult JSON wire format (the sweep service ships
    both over HTTP; pickle stays an on-disk-only format)."""

    def test_task_round_trip(self):
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        rebuilt = SweepTask.from_dict(task.to_dict())
        assert rebuilt == task
        assert rebuilt.cache_key() == task.cache_key()

    def test_task_round_trip_through_json_text(self):
        import json

        task, = build_tasks(SCALE, ("lockstep",), spec_names=["qft_n30"])
        rebuilt = SweepTask.from_dict(
            json.loads(json.dumps(task.to_dict())))
        assert rebuilt == task

    def test_task_unknown_field_rejected(self):
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        data = task.to_dict()
        data["surprise"] = 1
        with pytest.raises(ReproError):
            SweepTask.from_dict(data)

    def test_cell_result_round_trip(self):
        import json

        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        cell = run_cell(task)
        rebuilt = CellResult.from_dict(
            json.loads(json.dumps(cell.to_dict())))
        assert rebuilt == cell
        assert rebuilt.lifetimes_ns == cell.lifetimes_ns
        assert all(isinstance(k, int) for k in rebuilt.lifetimes_ns)


class TestCompileCachePlumbing:
    """compile_cache_dir: wire format, cache-key exclusion, execution."""

    def test_field_round_trips(self):
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        task = replace(task, compile_cache_dir="/tmp/somewhere")
        rebuilt = SweepTask.from_dict(task.to_dict())
        assert rebuilt.compile_cache_dir == "/tmp/somewhere"
        assert rebuilt == task

    def test_not_in_cache_key(self):
        """Cached compilations are bit-identical by contract, so the
        result-cache key must not fragment on the compile-cache dir."""
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        warm = replace(task, compile_cache_dir="/tmp/somewhere")
        assert warm.cache_key() == task.cache_key()

    def test_run_tasks_counts_and_matches(self, tmp_path):
        """Serial sweeps report exact compile hit/miss tallies, and a
        warm compile cache reproduces cold results bit-for-bit."""
        from repro.harness.parallel import clear_cell_caches, run_tasks

        tasks = build_tasks(SCALE, ("bisp", "lockstep"),
                            spec_names=["bv_n400"])
        clear_cell_caches()
        cold, cold_stats = run_tasks(
            tasks, processes=1, compile_cache_dir=str(tmp_path))
        assert cold_stats.compile_misses == 2
        assert cold_stats.compile_hits == 0
        clear_cell_caches()
        warm, warm_stats = run_tasks(
            tasks, processes=1, compile_cache_dir=str(tmp_path))
        assert warm_stats.compile_hits == 2
        assert warm_stats.compile_misses == 0
        assert warm == cold

    def test_task_level_dir_wins(self, tmp_path):
        """A task that already carries a dir keeps it when run_tasks is
        handed a different one."""
        from repro.harness.parallel import run_tasks

        clear_cell_caches()
        task, = build_tasks(SCALE, ("bisp",), spec_names=["bv_n400"])
        pinned = str(tmp_path / "pinned")
        tasks = [replace(task, compile_cache_dir=pinned)]
        run_tasks(tasks, processes=1,
                  compile_cache_dir=str(tmp_path / "other"))
        assert len(list((tmp_path / "pinned").glob("*.pkl"))) == 1
        assert not (tmp_path / "other").exists() or \
            not list((tmp_path / "other").glob("*.pkl"))
