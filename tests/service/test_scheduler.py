"""Scheduler unit tests: dedup, priorities, quotas, leases, resume.

No HTTP here — the scheduler is driven directly through its coroutine
API inside ``asyncio.run`` (the tree has no pytest-asyncio and does not
need it).  Workers are simulated by calling ``lease``/``complete``
ourselves, which also makes crash timing deterministic.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.circuits import build_ghz
from repro.harness import registry
from repro.harness.parallel import SweepTask, run_cell, tasks_from_spec
from repro.harness.spec import SweepSpec, SweepSubmission
from repro.noise.model import preset
from repro.service import scheduler as scheduler_mod
from repro.service.scheduler import Scheduler, ServiceError
from repro.sim.config import SimulationConfig
from repro.service.store import CellStore

from svc_util import SCALE, serial_bench


def make_scheduler(tmp_path, **kwargs):
    return Scheduler(CellStore(str(tmp_path / "store")), **kwargs)


async def drain(scheduler, worker="w0"):
    """Complete every queued/leased cell like a perfect worker would."""
    completed = 0
    while True:
        job = await scheduler.lease(worker)
        if job is None:
            return completed
        cell = run_cell(SweepTask.from_dict(job["task"]))
        await scheduler.complete(worker, job["key"], job["lease"],
                                 result=cell.to_dict())
        completed += 1


class TestSubmit:
    def test_submit_shards_grid(self, tmp_path, tiny_submission):
        scheduler = make_scheduler(tmp_path)
        status = asyncio.run(scheduler.submit(tiny_submission))
        assert status["cells_total"] == 4
        assert status["state"] == "running"
        assert status["misses"] == 4
        assert scheduler.queue_depth() == 4

    def test_empty_grid_rejected(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        spec = SweepSpec(tags=("nope_no_such_tag",), scales=(SCALE,))
        with pytest.raises((ServiceError, ValueError)):
            asyncio.run(scheduler.submit(SweepSubmission(spec=spec)))

    def test_warm_store_is_instant_done(self, tmp_path, tiny_spec,
                                        tiny_submission):
        scheduler = make_scheduler(tmp_path)
        for task in tasks_from_spec(tiny_spec):
            scheduler.store.put(task.cache_key(), run_cell(task))
        status = asyncio.run(scheduler.submit(tiny_submission))
        assert status["state"] == "done"
        assert status["store_hits"] == 4
        assert status["misses"] == 0
        assert scheduler.queue_depth() == 0


class TestDedup:
    def test_overlapping_submissions_share_cells(self, tmp_path,
                                                 tiny_spec, overlap_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path)
            first = await scheduler.submit(SweepSubmission(
                spec=tiny_spec, name="a", owner="alice"))
            second = await scheduler.submit(SweepSubmission(
                spec=overlap_spec, name="b", owner="bob"))
            return scheduler, first, second

        scheduler, first, second = asyncio.run(scenario())
        # bv_n400 x 2 schemes overlaps -> 2 dedup hits on the second.
        assert first["misses"] == 4
        assert second["dedup_hits"] == 2
        assert second["misses"] == 2
        assert scheduler.counters.dedup_hits == 2
        assert scheduler.queue_depth() == 6  # 8 cells, 2 shared

    def test_dedup_complete_settles_both_submissions(self, tmp_path,
                                                     tiny_spec,
                                                     overlap_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path)
            a = await scheduler.submit(SweepSubmission(
                spec=tiny_spec, name="a"))
            b = await scheduler.submit(SweepSubmission(
                spec=overlap_spec, name="b"))
            await drain(scheduler)
            return (scheduler.status(a["id"]), scheduler.status(b["id"]),
                    scheduler.counters)

        status_a, status_b, counters = asyncio.run(scenario())
        assert status_a["state"] == "done"
        assert status_b["state"] == "done"
        # 8 requested cells, only 6 executed.
        assert counters.completes == 6
        assert counters.cells_total == 8
        assert counters.hits() == 2
        assert counters.hit_rate() == pytest.approx(2 / 8)

    def test_resubmit_after_done_is_all_store_hits(self, tmp_path,
                                                   tiny_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path)
            await scheduler.submit(SweepSubmission(spec=tiny_spec))
            await drain(scheduler)
            return await scheduler.submit(SweepSubmission(spec=tiny_spec))

        status = asyncio.run(scenario())
        assert status["state"] == "done"
        assert status["store_hits"] == 4


class TestPriorityAndQuota:
    def test_lower_priority_value_leases_first(self, tmp_path, tiny_spec,
                                               overlap_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path)
            await scheduler.submit(SweepSubmission(
                spec=tiny_spec, name="slow", priority=5))
            urgent = await scheduler.submit(SweepSubmission(
                spec=overlap_spec, name="urgent", priority=0))
            grants = []
            for _ in range(2):
                job = await scheduler.lease("w0")
                grants.append(job["key"])
            return urgent, grants

        urgent, grants = asyncio.run(scenario())
        # The urgent submission's two *fresh* cells (w_state) lease
        # before any priority-5 cell; its two deduped bv cells were
        # raised to priority 0 too, so all grants serve the urgent sweep.
        scheduler_keys = set(grants)
        assert len(scheduler_keys) == 2

    def test_dedup_raises_existing_job_priority(self, tmp_path, tiny_spec,
                                                overlap_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path)
            await scheduler.submit(SweepSubmission(
                spec=tiny_spec, name="slow", priority=7))
            await scheduler.submit(SweepSubmission(
                spec=overlap_spec, name="urgent", priority=1))
            overlap_keys = {task.cache_key()
                            for task in tasks_from_spec(overlap_spec)}
            first = await scheduler.lease("w0")
            return first["key"] in overlap_keys

        assert asyncio.run(scenario())

    def test_quota_caps_inflight_leases(self, tmp_path, tiny_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path, quotas={"alice": 1})
            await scheduler.submit(SweepSubmission(
                spec=tiny_spec, owner="alice"))
            first = await scheduler.lease("w0")
            second = await scheduler.lease("w1")  # at quota -> nothing
            await scheduler.complete(
                "w0", first["key"], first["lease"],
                result=run_cell(
                    SweepTask.from_dict(first["task"])).to_dict())
            third = await scheduler.lease("w1")
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert first is not None
        assert second is None
        assert third is not None

    def test_quota_does_not_block_other_owners(self, tmp_path, tiny_spec,
                                               overlap_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path, quotas={"alice": 1})
            await scheduler.submit(SweepSubmission(
                spec=tiny_spec, owner="alice", priority=0))
            await scheduler.submit(SweepSubmission(
                spec=overlap_spec, owner="bob", priority=5))
            grants = [await scheduler.lease("w{}".format(i))
                      for i in range(3)]
            return grants

        grants = [g for g in asyncio.run(scenario()) if g is not None]
        # alice gets 1 lease (quota), bob's two fresh cells still flow.
        assert len(grants) == 3


@pytest.fixture
def one_cell_spec() -> SweepSpec:
    """A single cell, so lease-lifecycle tests always re-lease *it*."""
    return SweepSpec(workloads=("bv_n400",), schemes=("bisp",),
                     scales=(SCALE,), shots=(1,))


class TestLeaseLifecycle:
    def test_expired_lease_is_regranted_once(self, tmp_path,
                                             one_cell_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path, lease_ttl=0.01)
            await scheduler.submit(SweepSubmission(spec=one_cell_spec))
            first = await scheduler.lease("doomed")
            await asyncio.sleep(0.03)
            expired = await scheduler.expire_leases()
            second = await scheduler.lease("healthy")
            return first, expired, second, scheduler.counters

        first, expired, second, counters = asyncio.run(scenario())
        assert expired == 1
        assert counters.leases_expired == 1
        assert second["key"] == first["key"]  # same cell, re-leased
        assert second["attempt"] == 2
        assert second["lease"] != first["lease"]

    def test_max_attempts_fails_the_cell(self, tmp_path, one_cell_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path, lease_ttl=0.01,
                                       max_attempts=2)
            status = await scheduler.submit(
                SweepSubmission(spec=one_cell_spec))
            doomed_key = None
            for _ in range(2):
                job = await scheduler.lease("doomed")
                doomed_key = job["key"]
                await asyncio.sleep(0.03)
                await scheduler.expire_leases()
            return scheduler.status(status["id"]), doomed_key

        status, doomed_key = asyncio.run(scenario())
        assert status["state"] == "failed"
        assert status["cells_failed"] == 1
        assert any(key == doomed_key for key in status["errors"])

    def test_late_complete_is_accepted_idempotently(self, tmp_path,
                                                    one_cell_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path, lease_ttl=0.01)
            await scheduler.submit(SweepSubmission(spec=one_cell_spec))
            stale = await scheduler.lease("slow")
            cell = run_cell(SweepTask.from_dict(stale["task"]))
            await asyncio.sleep(0.03)
            await scheduler.expire_leases()
            fresh = await scheduler.lease("fast")
            assert fresh["key"] == stale["key"]
            # The presumed-dead worker reports after all -- same bytes.
            late = await scheduler.complete(
                "slow", stale["key"], stale["lease"],
                result=cell.to_dict())
            dup = await scheduler.complete(
                "fast", fresh["key"], fresh["lease"],
                result=cell.to_dict())
            return late, dup, scheduler.counters

        late, dup, counters = asyncio.run(scenario())
        assert late["late"] is True
        assert dup["late"] is True  # job already settled by the late one
        assert counters.late_completes >= 1

    def test_failed_cell_reported_not_retried(self, tmp_path, tiny_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path)
            status = await scheduler.submit(SweepSubmission(spec=tiny_spec))
            job = await scheduler.lease("w0")
            await scheduler.fail("w0", job["key"], job["lease"],
                                 error="ValueError: boom")
            resub = await scheduler.submit(SweepSubmission(spec=tiny_spec))
            return scheduler.status(status["id"]), resub

        status, resub = asyncio.run(scenario())
        assert status["state"] == "failed"
        assert "boom" in list(status["errors"].values())[0]
        # The failure memo short-circuits resubmissions of the bad cell.
        assert resub["cells_failed"] == 1

    def test_stored_complete_requires_store_entry(self, tmp_path,
                                                  tiny_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path)
            await scheduler.submit(SweepSubmission(spec=tiny_spec))
            job = await scheduler.lease("w0")
            with pytest.raises(ServiceError):
                await scheduler.complete("w0", job["key"], job["lease"],
                                         stored=True)

        asyncio.run(scenario())


class TestFetch:
    def test_fetch_matches_serial_digest(self, tmp_path, tiny_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path)
            status = await scheduler.submit(SweepSubmission(
                spec=tiny_spec, name="tiny"))
            await drain(scheduler)
            return await scheduler.fetch(status["id"])

        doc = asyncio.run(scenario())
        reference = serial_bench(tiny_spec, name="tiny")
        assert doc["results_sha256"] == reference["results_sha256"]
        assert doc["results"] == reference["results"]

    def test_fetch_while_running_rejected(self, tmp_path, tiny_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path)
            status = await scheduler.submit(SweepSubmission(spec=tiny_spec))
            with pytest.raises(ServiceError):
                await scheduler.fetch(status["id"])

        asyncio.run(scenario())

    def test_unknown_submission_rejected(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        with pytest.raises(ServiceError):
            scheduler.status("s999999")
        with pytest.raises(ServiceError):
            asyncio.run(scheduler.fetch("s999999"))


@pytest.fixture
def shard_calls(monkeypatch):
    """Every spec the scheduler shards, in order."""
    calls = []

    def counted(spec):
        calls.append(spec)
        return tasks_from_spec(spec)

    monkeypatch.setattr(scheduler_mod, "tasks_from_spec", counted)
    return calls


class TestShardReuse:
    """``submit`` shards each distinct spec content once; anything the
    shard depends on beyond the spec JSON forces a reshard."""

    def test_equal_content_shards_once(self, tmp_path, tiny_spec,
                                       shard_calls):
        twin = SweepSpec.from_json(tiny_spec.to_json())
        assert twin is not tiny_spec

        async def scenario():
            scheduler = make_scheduler(tmp_path)
            first = await scheduler.submit(SweepSubmission(
                spec=tiny_spec, name="a", owner="alice"))
            second = await scheduler.submit(SweepSubmission(
                spec=twin, name="b", owner="bob", priority=3))
            return scheduler, first, second

        scheduler, first, second = asyncio.run(scenario())
        assert len(shard_calls) == 1
        assert second["dedup_hits"] == first["misses"] == 4
        records = scheduler._submissions
        assert records[second["id"]].keys is records[first["id"]].keys
        assert records[second["id"]].tasks is records[first["id"]].tasks

    @pytest.mark.parametrize("change", [
        {"device_seed": 99},
        {"noise_shots": 128},
        {"config": SimulationConfig(neighbor_link_cycles=9)},
        {"noise": preset("depolarizing_1e3")},
    ])
    def test_content_changes_give_distinct_keys(self, tmp_path, tiny_spec,
                                                shard_calls, change):
        varied = replace(tiny_spec, **change)
        scheduler = make_scheduler(tmp_path)
        _, base_keys = scheduler._shard(tiny_spec)
        tasks, keys = scheduler._shard(varied)
        assert len(shard_calls) == 2
        assert not set(keys) & set(base_keys)
        assert list(keys) == [task.cache_key()
                              for task in tasks_from_spec(varied)]

    @pytest.mark.parametrize("name,value,field,expected", [
        ("REPRO_NO_FASTPATH", "1", "no_fastpath", True),
        ("REPRO_REPLAY_TIER", "block", "replay_tier", "block"),
    ])
    def test_flag_change_reshards(self, tmp_path, tiny_spec, shard_calls,
                                  monkeypatch, name, value, field,
                                  expected):
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        monkeypatch.delenv("REPRO_REPLAY_TIER", raising=False)
        scheduler = make_scheduler(tmp_path)
        before, _ = scheduler._shard(tiny_spec)
        monkeypatch.setenv(name, value)
        after, _ = scheduler._shard(tiny_spec)
        assert len(shard_calls) == 2
        assert {getattr(task, field) for task in before} != {expected}
        assert {getattr(task, field) for task in after} == {expected}
        monkeypatch.delenv(name)
        scheduler._shard(tiny_spec)
        assert len(shard_calls) == 2  # back to the first shard

    def test_registered_workload_reshards_tag_spec(self, tmp_path,
                                                    shard_calls):
        spec = SweepSpec(tags=("shard_memo_test",), schemes=("bisp",),
                         scales=(SCALE,))

        def workload(name):
            return registry.Workload(name=name, builder=build_ghz, size=4,
                                     tags=("shard_memo_test",))

        scheduler = make_scheduler(tmp_path)
        registry.register(workload("shard_memo_a"))
        try:
            first, _ = scheduler._shard(spec)
            assert scheduler._shard(spec)[0] is first
            registry.register(workload("shard_memo_b"))
            second, _ = scheduler._shard(spec)
            registry.unregister("shard_memo_b")
            third, _ = scheduler._shard(spec)
        finally:
            registry.unregister("shard_memo_a")
            registry.unregister("shard_memo_b")
        assert [t.spec_name for t in first] == ["shard_memo_a"]
        assert [t.spec_name for t in second] == ["shard_memo_a",
                                                 "shard_memo_b"]
        assert [t.spec_name for t in third] == ["shard_memo_a"]
        assert len(shard_calls) == 3

    def test_memo_is_bounded(self, tmp_path, tiny_spec, monkeypatch):
        monkeypatch.setattr(scheduler_mod, "_SHARD_MEMO_LIMIT", 2)
        scheduler = make_scheduler(tmp_path)
        for seed in range(5):
            scheduler._shard(replace(tiny_spec, device_seed=seed))
            assert len(scheduler._shards) <= 2

    def test_warm_fetch_matches_run_sweep(self, tmp_path, tiny_spec,
                                          shard_calls):
        async def scenario():
            scheduler = make_scheduler(tmp_path)
            cold = await scheduler.submit(SweepSubmission(
                spec=tiny_spec, name="cold"))
            await drain(scheduler)
            await scheduler.fetch(cold["id"])
            warm = await scheduler.submit(SweepSubmission(
                spec=SweepSpec.from_json(tiny_spec.to_json()),
                name="tiny", owner="other"))
            assert warm["state"] == "done"
            assert warm["store_hits"] == 4
            return await scheduler.fetch(warm["id"])

        doc = asyncio.run(scenario())
        assert len(shard_calls) == 1
        reference = serial_bench(tiny_spec, name="tiny")
        assert doc["results_sha256"] == reference["results_sha256"]
        assert doc["results"] == reference["results"]


class TestMetrics:
    def test_metrics_shape(self, tmp_path, tiny_spec):
        async def scenario():
            scheduler = make_scheduler(tmp_path)
            await scheduler.submit(SweepSubmission(spec=tiny_spec))
            await scheduler.lease("w0", pid=4321)
            return scheduler.metrics()

        metrics = asyncio.run(scenario())
        assert metrics["counters"]["leases_granted"] == 1
        assert metrics["queue_depth"] == 3
        assert metrics["leased"] == 1
        assert metrics["workers"]["w0"]["pid"] == 4321
        assert metrics["lease_latency"]["count"] == 1
        assert metrics["submissions"] == {"running": 1, "done": 0,
                                          "failed": 0}

    def test_counters_to_dict_sums(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        scheduler.counters.store_hits = 3
        scheduler.counters.dedup_hits = 2
        scheduler.counters.cells_total = 10
        data = scheduler.counters.to_dict()
        assert data["hits"] == 5
        assert data["hit_rate"] == 0.5
