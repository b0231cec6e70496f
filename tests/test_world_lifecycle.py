"""World lifecycle: finished worlds free by refcount, never by the collector.

A shard's world is a densely linked object graph.  These tests pin the
contract that keeps it off the cyclic collector:

* campaign requests create no reference cycles (a rejected request's
  traceback used to pin its decision frames);
* :meth:`FleetDeployment.close` breaks every cycle the world holds, so
  dropping it frees it by refcount;
* the pool worker's task path pauses the collector per task, collects
  once after, freezes only when it cached a new image, and restores the
  collector even when the task raises;
* the collector work a shard saw is reported in ``runtime["gc"]`` and
  stays out of the campaign results.
"""

import gc
import pickle

import pytest

from repro.attacks.campaign import (
    campaign_mass_rebind,
    campaign_mass_unbind,
    campaign_shadow_probe,
)
from repro.fleet import FleetDeployment
from repro.obs.detect.pipeline import DetectionPipeline
from repro.obs.runtime import Observability
from repro.parallel import (
    ShardSpec,
    WorldImageCache,
    build_shard_specs,
    run_campaign,
    run_shard,
)
from repro.parallel.pool import run_task
from repro.parallel.protocol import TaskRequest
from repro.sim.scheduler import Scheduler
from repro.vendors import vendor


@pytest.fixture
def collector_paused():
    """Pause automatic collection; restore it and unfreeze afterwards."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def deployed(design_name, households, build="replay", seed=3):
    """A settled fleet with detection attached, as ``run_shard`` builds it."""
    fleet = FleetDeployment(
        vendor(design_name), households=households, seed=seed,
        observer=Observability(), build=build,
    )
    fleet.setup_all()
    fleet.run(12.0)
    DetectionPipeline().attach(fleet.cloud)
    return fleet


class TestCampaignsCreateNoCycles:
    @pytest.mark.parametrize(
        "design_name, campaigns",
        [
            (
                "E-Link Smart",
                (campaign_shadow_probe, campaign_mass_unbind, campaign_mass_rebind),
            ),
            ("OZWI", (campaign_mass_unbind,)),
        ],
    )
    def test_probes_leave_nothing_for_the_collector(
        self, collector_paused, design_name, campaigns
    ):
        fleet = deployed(design_name, 50)
        assert gc.collect() == 0
        for campaign in campaigns:
            report = campaign(fleet, max_probes=100)
            assert report.ids_probed == 100
        # Rejections dominate these sweeps; none may pin its frames.
        assert len(fleet.cloud.audit.rejected()) > 0
        assert gc.collect() == 0


class TestFleetClose:
    @pytest.mark.parametrize(
        "design_name, build",
        [("OZWI", "replay"), ("E-Link Smart", "replay"), ("E-Link Smart", "clone")],
    )
    def test_closed_world_frees_by_refcount(self, collector_paused, design_name, build):
        baseline = len(gc.get_objects())
        fleet = deployed(design_name, 40, build=build)
        campaign_mass_unbind(fleet, max_probes=80)
        world_objects = len(gc.get_objects()) - baseline
        assert world_objects > 2_000
        fleet.close()
        del fleet
        assert gc.collect() <= world_objects // 100

    def test_restored_world_frees_by_refcount(self, collector_paused):
        fleet = deployed("E-Link Smart", 20)
        image = fleet.capture_image()
        fleet.close()
        del fleet
        restored = FleetDeployment.from_image(image, observer=Observability())
        campaign_shadow_probe(restored, max_probes=40)
        restored.close()
        del restored
        assert gc.collect() == 0

    def test_results_outlive_the_closed_world(self):
        fleet = deployed("OZWI", 10)
        report = campaign_mass_unbind(fleet, max_probes=20)
        entries = len(fleet.cloud.audit)
        fleet.close()
        assert report.ids_probed == 20
        assert len(fleet.cloud.audit) == entries
        assert fleet.env.run_for(60.0) == 0  # a closed world runs nothing


class TestSchedulerLifecycle:
    def test_close_drops_pending_callbacks_and_chains(self):
        scheduler = Scheduler()
        fired = []
        handle = scheduler.every(1.0, lambda: fired.append("tick"))
        scheduler.after(0.5, lambda: fired.append("once"))
        scheduler.run_for(1.0)
        assert fired == ["once", "tick"]
        scheduler.close()
        assert len(scheduler) == 0
        assert handle.cancelled
        assert scheduler.run_for(10.0) == 0
        assert fired == ["once", "tick"]

    def test_cancel_releases_the_callback(self):
        scheduler = Scheduler()
        handle = scheduler.every(1.0, lambda: None)
        handle.cancel()
        assert handle._chain.callback is None
        one_shot = scheduler.after(1.0, lambda: None)
        one_shot.cancel()
        assert one_shot._entry.callback is None

    def test_periodic_chain_pickles(self):
        scheduler = Scheduler()
        scheduler.every(2.0, print, start_delay=0.5)
        handle = pickle.loads(pickle.dumps(scheduler.every(1.0, print)))
        assert handle.time == 1.0 and not handle.cancelled
        assert len(handle._chain.scheduler) == 2


class _Outbox:
    """Stands in for a worker's outbound queue; keeps only the verdicts."""

    def __init__(self):
        self.replies = []

    def put(self, reply):
        self.replies.append((reply.task_id, reply.error, reply.result is not None))


class TestWorkerTaskPath:
    def test_warm_tasks_keep_the_heap_flat_and_freeze_once(self, collector_paused):
        gc.enable()  # the worker runs with the collector on between tasks
        cache = WorldImageCache()
        outbox = _Outbox()
        specs = [
            build_shard_specs(
                vendor("E-Link Smart"), campaign=campaign, households=30,
                max_probes=60, seed=5, detect=True,
            )[0]
            for campaign in ("shadow-probe", "mass-unbind", "mass-rebind")
        ]
        frozen = gc.get_freeze_count()
        run_task(0, TaskRequest(task_id=0, spec=specs[0]), cache, outbox)
        assert cache.stored == 1
        after_cold = gc.get_freeze_count()
        assert after_cold > frozen  # the new image (and imports) froze
        tracked = []
        for task_id in range(1, 7):
            spec = specs[task_id % len(specs)]
            run_task(0, TaskRequest(task_id=task_id, spec=spec), cache, outbox)
            tracked.append(len(gc.get_objects()))
            assert gc.get_freeze_count() == after_cold  # no new image
        assert cache.stored == 1 and cache.hits == 6
        assert all(error is None and ok for _, error, ok in outbox.replies)
        assert max(tracked) - min(tracked) <= 200, tracked
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored_after_a_task_raises(self, enabled):
        spec = ShardSpec(
            shard_index=0, shards=1, design=vendor("OZWI"), campaign="bogus",
            households=2, max_probes=2, seed=0,
        )
        outbox = _Outbox()
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            run_task(0, TaskRequest(task_id=9, spec=spec), None, outbox)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        [(task_id, error, has_result)] = outbox.replies
        assert task_id == 9 and not has_result
        assert "unknown campaign" in error


class TestGcRuntimeStats:
    def test_shard_reports_collector_work_outside_results(self):
        spec = build_shard_specs(
            vendor("OZWI"), campaign="mass-unbind", households=6, max_probes=12
        )[0]
        result = run_shard(spec)
        collector = result.runtime["gc"]
        assert set(collector) == {"collections", "pause_seconds"}
        assert collector["collections"] >= 0 and collector["pause_seconds"] >= 0.0

    def test_runtime_line_shows_gc_but_dict_stays_pinned(self):
        result = run_campaign(
            vendor("OZWI"), campaign="mass-unbind", households=6, max_probes=12
        )
        assert "gc" in result.runtime_stats
        assert "runtime" not in result.to_dict()
        assert "gc" in result.to_dict(include_pool=True)["runtime"]
        runtime_line = next(
            line for line in result.render().splitlines()
            if line.startswith("runtime:")
        )
        assert " collections " in runtime_line and "s pause" in runtime_line
