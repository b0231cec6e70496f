"""Persistent worker pool + snapshot warm-start.

The load-bearing guarantee: every execution strategy — serial
in-process, fork-per-shard, persistent pool, warm-started worlds,
crash-respawned workers — produces *bit-identical* campaign results:
reports, metric snapshots, audit trails, forensic timelines, state
counts.  The pool is an engine concern; it must never leak into what
the campaigns measure.
"""

import pickle

import pytest

from repro.chaos import ChaosSpec
from repro.core.errors import ConfigurationError
from repro.fleet import FleetDeployment, WorldImage
from repro.obs.detect.harness import detection_matrix, run_detection
from repro.obs.runtime import Observability
from repro.parallel import (
    DEPLOYED_CAMPAIGNS,
    PoolError,
    ShardSpec,
    WorkerPool,
    WorkerTaskError,
    WorldImageCache,
    build_shard_specs,
    run_campaign,
    run_campaigns,
    run_shard,
    world_key,
)
from repro.parallel.pool import (
    MAX_TASK_ATTEMPTS,
    preferred_start_method,
    task_overdue,
)
from repro.sim.environment import Environment
from repro.vendors import vendor


def deployed_world(design_name="OZWI", households=5, seed=0, build="replay"):
    """A settled deployed fleet, the warm-start capture target."""
    obs = Observability(trace_messages=True)
    fleet = FleetDeployment(
        vendor(design_name), households=households, seed=seed,
        observer=obs, build=build,
    )
    fleet.setup_all()
    fleet.run(12.0)
    return fleet, obs


def world_fingerprint(fleet, obs, report=None):
    """Everything a campaign run leaves behind, for bit-level diffing."""
    fleet.cloud.emit_state_gauges()
    data = {
        "metrics": obs.metrics.snapshot(),
        "audit": list(fleet.cloud.audit.entries),
        "forensics": fleet.cloud.forensics.events(),
        "state_counts": fleet.cloud.state_counts(),
        "matches_audit": obs.matches_audit(fleet.cloud.audit),
        "bound": fleet.bound_users(),
    }
    if report is not None:
        data["report"] = report.__dict__
    return data


def campaign_runner(name):
    from repro.attacks.campaign import (
        campaign_mass_rebind,
        campaign_mass_unbind,
        campaign_shadow_probe,
    )

    return {
        "mass-unbind": campaign_mass_unbind,
        "shadow-probe": campaign_shadow_probe,
        "mass-rebind": campaign_mass_rebind,
    }[name]


class TestWarmStartEquality:
    """A restored world is indistinguishable from a freshly built one."""

    @pytest.mark.parametrize("design_name", ["OZWI", "TP-LINK"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_restored_world_runs_bit_identical_campaign(self, design_name, seed):
        runner = campaign_runner("mass-unbind")
        fleet_cold, obs_cold = deployed_world(design_name, seed=seed)
        report_cold = runner(fleet_cold, max_probes=20, request_rate=3000.0)

        fleet_src, _ = deployed_world(design_name, seed=seed)
        image = pickle.loads(pickle.dumps(fleet_src.capture_image()))
        obs_warm = Observability(trace_messages=True)
        fleet_warm = FleetDeployment.from_image(image, observer=obs_warm)
        report_warm = runner(fleet_warm, max_probes=20, request_rate=3000.0)

        cold = world_fingerprint(fleet_cold, obs_cold, report_cold)
        warm = world_fingerprint(fleet_warm, obs_warm, report_warm)
        for key in cold:
            assert cold[key] == warm[key], f"{key} diverged after restore"

    @pytest.mark.parametrize("campaign", DEPLOYED_CAMPAIGNS)
    def test_every_deployed_campaign_warm_matches_cold(self, campaign):
        runner = campaign_runner(campaign)
        fleet_cold, obs_cold = deployed_world()
        report_cold = runner(fleet_cold, max_probes=20, request_rate=3000.0)

        fleet_src, _ = deployed_world()
        image = fleet_src.capture_image()
        obs_warm = Observability(trace_messages=True)
        fleet_warm = FleetDeployment.from_image(image, observer=obs_warm)
        report_warm = runner(fleet_warm, max_probes=20, request_rate=3000.0)

        cold = world_fingerprint(fleet_cold, obs_cold, report_cold)
        warm = world_fingerprint(fleet_warm, obs_warm, report_warm)
        assert cold == warm

    def test_one_image_serves_all_deployed_campaigns(self):
        fleet_src, _ = deployed_world()
        image = fleet_src.capture_image()
        for campaign in DEPLOYED_CAMPAIGNS:
            obs = Observability(trace_messages=True)
            fleet = FleetDeployment.from_image(image, observer=obs)
            report = campaign_runner(campaign)(
                fleet, max_probes=20, request_rate=3000.0
            )
            assert report.households == 5

    def test_clone_built_world_round_trips(self):
        fleet_cold, obs_cold = deployed_world(build="clone")
        fleet_src, _ = deployed_world(build="clone")
        image = fleet_src.capture_image()
        fleet_warm = FleetDeployment.from_image(
            image, observer=Observability(trace_messages=True)
        )
        assert fleet_warm.bound_users() == fleet_cold.bound_users()
        assert (
            fleet_warm.cloud.state_counts() == fleet_cold.cloud.state_counts()
        )

    def test_capture_refuses_resilience_clients(self):
        from repro.chaos import apply_chaos

        fleet, _ = deployed_world()
        apply_chaos(fleet, ChaosSpec(plan="lossy-lan", resilience=True))
        with pytest.raises(ConfigurationError):
            fleet.capture_image()

    def test_capture_rejects_design_mismatch_on_restore(self):
        fleet, _ = deployed_world("OZWI")
        image = fleet.capture_image()
        image.design = vendor("TP-LINK")
        with pytest.raises(ConfigurationError):
            FleetDeployment.from_image(image)


class TestAuthzCacheNeutrality:
    """The authorization decision cache must be invisible to the
    identity oracles: hit/miss counts may differ wildly between two
    worlds whose campaign results are bit-identical, and disabling the
    cache outright must change nothing a fingerprint can see."""

    @pytest.mark.parametrize("campaign", ["mass-unbind", "shadow-probe"])
    def test_disabled_cache_runs_bit_identical(self, campaign, monkeypatch):
        runner = campaign_runner(campaign)
        fleet_cached, obs_cached = deployed_world(seed=3)
        report_cached = runner(fleet_cached, max_probes=20, request_rate=3000.0)
        cached = world_fingerprint(fleet_cached, obs_cached, report_cached)
        assert fleet_cached.cloud.authz_cache.stats()["hits"] > 0

        from repro.cloud.authz import MISS, AuthorizationCache

        monkeypatch.setattr(AuthorizationCache, "lookup", lambda self, key: MISS)
        fleet_cold, obs_cold = deployed_world(seed=3)
        report_cold = runner(fleet_cold, max_probes=20, request_rate=3000.0)
        uncached = world_fingerprint(fleet_cold, obs_cold, report_cold)
        assert fleet_cold.cloud.authz_cache.stats()["hits"] == 0
        for key in cached:
            assert cached[key] == uncached[key], f"{key} depends on the cache"

    def test_warm_world_matches_cold_despite_divergent_cache_stats(self):
        runner = campaign_runner("mass-unbind")
        fleet_cold, obs_cold = deployed_world(seed=5)
        report_cold = runner(fleet_cold, max_probes=20, request_rate=3000.0)

        fleet_src, _ = deployed_world(seed=5)
        image = fleet_src.capture_image()
        obs_warm = Observability(trace_messages=True)
        fleet_warm = FleetDeployment.from_image(image, observer=obs_warm)
        report_warm = runner(fleet_warm, max_probes=20, request_rate=3000.0)

        # The restored world skipped the deployment traffic, so its hit
        # counters differ from the cold build's...
        assert (
            fleet_warm.cloud.authz_cache.stats()
            != fleet_cold.cloud.authz_cache.stats()
        )
        # ...yet nothing a fingerprint compares noticed.
        cold = world_fingerprint(fleet_cold, obs_cold, report_cold)
        warm = world_fingerprint(fleet_warm, obs_warm, report_warm)
        assert cold == warm

    def test_mid_run_clear_changes_nothing(self):
        runner = campaign_runner("mass-unbind")
        fingerprints = []
        for clear in (False, True):
            fleet, obs = deployed_world(seed=9)
            if clear:
                fleet.cloud.authz_cache.clear()
            report = runner(fleet, max_probes=20, request_rate=3000.0)
            fingerprints.append(world_fingerprint(fleet, obs, report))
        assert fingerprints[0] == fingerprints[1]


class TestWorldKey:
    def spec(self, **overrides):
        return build_shard_specs(
            vendor("OZWI"),
            campaign=overrides.pop("campaign", "mass-unbind"),
            households=overrides.pop("households", 8),
            max_probes=16,
            shards=1,
            seed=overrides.pop("seed", 0),
            **overrides,
        )[0]

    def test_deployed_campaigns_share_one_world_key(self):
        keys = {
            world_key(self.spec(campaign=campaign))
            for campaign in DEPLOYED_CAMPAIGNS
        }
        assert len(keys) == 1
        assert keys != {None}

    def test_binding_dos_and_chaos_key_to_none(self):
        assert world_key(self.spec(campaign="binding-dos")) is None
        chaotic = self.spec(chaos=ChaosSpec(plan="lossy-lan"))
        assert world_key(chaotic) is None

    def test_key_separates_worlds(self):
        base = world_key(self.spec())
        assert world_key(self.spec(seed=1)) != base
        assert world_key(self.spec(households=9)) != base

    def test_cache_is_lru_with_accounting(self):
        cache = WorldImageCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats() == {"entries": 2, "hits": 2, "misses": 1}

    def test_cache_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            WorldImageCache(max_entries=0)


class TestPoolEquality:
    """Pooled sharded runs bit-match serial across worker counts."""

    def comparable(self, result):
        data = result.to_dict()
        data.pop("workers")
        return data

    def shard_payloads(self, result):
        return [
            (r.report.__dict__, r.metrics, r.audit_entries, r.matches_audit,
             r.state_counts)
            for r in result.shard_results
        ]

    def run(self, **overrides):
        kwargs = dict(
            campaign="mass-unbind", households=8, max_probes=24, seed=3,
            workers=1, shards=2,
        )
        kwargs.update(overrides)
        return run_campaign(vendor("OZWI"), **kwargs)

    def pooled(self, workers=2, warm_start=True, **overrides):
        """One campaign through a caller-owned pool sized to its shards."""
        with WorkerPool(workers=min(workers, 2), warm_start=warm_start) as pool:
            return self.run(workers=workers, worker_pool=pool, **overrides)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_matches_serial(self, workers):
        serial = self.run()
        pooled = self.pooled(workers=workers)
        assert self.comparable(pooled) == self.comparable(serial)
        assert self.shard_payloads(pooled) == self.shard_payloads(serial)
        assert pooled.pool_stats is not None
        assert pooled.pool_stats["tasks"] == 2

    def test_pooled_without_warm_start_matches_serial(self):
        serial = self.run()
        pooled = self.pooled(warm_start=False)
        assert self.comparable(pooled) == self.comparable(serial)
        assert pooled.pool_stats["warm_starts"] == 0
        assert pooled.pool_stats["cold_builds"] == 2

    def test_pooled_chaos_matches_serial_chaos(self):
        chaos = ChaosSpec(plan="lossy-lan", intensity=0.5)
        serial = self.run(chaos=chaos)
        pooled = self.pooled(chaos=chaos)
        assert self.comparable(pooled) == self.comparable(serial)
        # chaos shards never warm-start
        assert all(r.world_source == "cold" for r in pooled.shard_results)

    def test_pooled_detection_matches_serial(self):
        serial = self.run(detect=True)
        pooled = self.pooled(detect=True)
        assert serial.detection is not None
        assert pooled.detection == serial.detection

    def test_persistent_pool_warm_starts_repeats(self):
        serial = self.run()
        with WorkerPool(workers=2) as pool:
            first = self.run(workers=2, worker_pool=pool)
            second = self.run(workers=2, worker_pool=pool)
            stats = pool.stats()
        assert self.comparable(first) == self.comparable(serial)
        assert self.comparable(second) == self.comparable(serial)
        assert stats["cold_builds"] == 2
        assert stats["warm_starts"] == 2
        assert all(r.world_source == "warm" for r in second.shard_results)

    def test_pool_stats_stay_out_of_default_dict(self):
        pooled = self.pooled()
        assert "pool" not in pooled.to_dict()
        with_pool = pooled.to_dict(include_pool=True)
        assert with_pool["pool"]["tasks"] == 2
        assert [w["world_source"] for w in with_pool["shard_worlds"]] == [
            r.world_source for r in pooled.shard_results
        ]

    def test_inline_image_cache_warm_starts_in_process(self):
        cache = WorldImageCache()
        first = self.run(image_cache=cache)
        second = self.run(image_cache=cache)
        assert self.comparable(first) == self.comparable(second)
        assert all(r.world_source == "cold" for r in first.shard_results)
        assert all(r.world_source == "warm" for r in second.shard_results)
        assert cache.hits == 2

    def test_pool_observer_metrics_stay_out_of_shard_results(self):
        from repro.obs.metrics import MetricsRegistry

        serial = self.run()
        registry = MetricsRegistry()
        specs = build_shard_specs(
            vendor("OZWI"), campaign="mass-unbind", households=8,
            max_probes=24, shards=2, seed=3,
        )
        with WorkerPool(workers=2, observer=registry) as pool:
            results = pool.run(specs)
            pool.run(specs)
        snap = registry.snapshot()
        tasks = snap["counters"]["parallel.pool.tasks"]
        assert sum(row["value"] for row in tasks) == 4
        assert "parallel.pool.utilization" in snap["gauges"]
        assert (
            snap["histograms"]["parallel.pool.world_seconds"]["count"] == 4
        )
        # coordinator-side metrics never leak into the merged results
        assert [r.metrics for r in results] == [
            r.metrics for r in serial.shard_results
        ]

    def test_detection_harness_warm_equals_cold(self):
        design = vendor("OZWI")
        kwargs = dict(households=4, max_probes=12, workers=1, seed=1)
        cold = run_detection(design, warm_start=False, **kwargs)
        warm = run_detection(design, warm_start=True, **kwargs)
        for attack_id in cold:
            assert cold[attack_id].to_dict() == warm[attack_id].to_dict()
            assert cold[attack_id].detection == warm[attack_id].detection


class TestExecutorRule:
    """The executor follows from the run's shape, never from a flag."""

    SWEEP = ("shadow-probe", "mass-unbind", "mass-rebind")
    KWARGS = dict(households=8, max_probes=24, seed=3, shards=2)

    def comparable(self, results):
        return [
            {key: value for key, value in r.to_dict().items() if key != "workers"}
            for r in results
        ]

    def test_sweep_over_workers_shares_one_pool(self):
        design = vendor("OZWI")
        serial = run_campaigns(design, self.SWEEP, workers=1, **self.KWARGS)
        pooled = run_campaigns(design, self.SWEEP, workers=2, **self.KWARGS)
        assert self.comparable(pooled) == self.comparable(serial)
        stats = pooled[-1].pool_stats
        # shadow-probe builds both shard worlds; the other two restore them
        assert stats["tasks"] == 6
        assert stats["cold_builds"] == 2
        assert stats["warm_starts"] == 4

    def test_single_campaign_runs_without_pool(self):
        design = vendor("OZWI")
        (result,) = run_campaigns(design, ["mass-unbind"], workers=2,
                                  **self.KWARGS)
        assert result.pool_stats is None
        assert run_campaign(design, campaign="mass-unbind", workers=2,
                            **self.KWARGS).pool_stats is None

    def test_one_worker_repeats_warm_start_through_a_shared_cache(self):
        first, second = run_campaigns(
            vendor("OZWI"), ["mass-unbind"] * 2, workers=1, **self.KWARGS
        )
        assert first.pool_stats is None and second.pool_stats is None
        assert all(r.world_source == "cold" for r in first.shard_results)
        assert all(r.world_source == "warm" for r in second.shard_results)
        assert first.to_dict() == second.to_dict()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_start_off_runs_everything_cold(self, workers):
        results = run_campaigns(vendor("OZWI"), self.SWEEP, workers=workers,
                                warm_start=False, **self.KWARGS)
        assert all(
            shard.world_source == "cold"
            for result in results for shard in result.shard_results
        )
        if workers > 1:
            assert results[-1].pool_stats["warm_starts"] == 0

    def test_detection_over_workers_shares_one_world(self):
        design = vendor("OZWI")
        kwargs = dict(households=4, max_probes=12, seed=1, shards=2)
        serial = run_detection(design, workers=1, **kwargs)
        pooled = run_detection(design, workers=2, **kwargs)
        # A1 builds both shard worlds, A2 attacks fresh fleets (cold),
        # A3 and A4 restore A1's worlds
        assert pooled["A4"].pool_stats["warm_starts"] == 4
        assert [r.world_source for r in pooled["A1"].shard_results] == [
            "cold", "cold"
        ]
        assert detection_matrix(pooled) == detection_matrix(serial)


class TestPoolRobustness:
    def specs(self, shards=2):
        return build_shard_specs(
            vendor("OZWI"), campaign="mass-unbind", households=8,
            max_probes=24, shards=shards, seed=3,
        )

    def test_killed_worker_respawns_and_result_is_identical(self):
        specs = self.specs()
        reference = [run_shard(spec) for spec in specs]
        killed = {"done": False}

        def kill_once(slot_index, task_id, pool):
            if task_id == 0 and not killed["done"]:
                killed["done"] = True
                pool.kill_worker(slot_index)

        with WorkerPool(workers=2) as pool:
            results = pool.run(
                specs,
                on_dispatch=lambda task_id, slot_index: kill_once(
                    slot_index, task_id, pool
                ),
            )
            stats = pool.stats()
        assert stats["respawns"] >= 1
        for got, want in zip(results, reference):
            assert got.report.__dict__ == want.report.__dict__
            assert got.metrics == want.metrics
            assert got.audit_entries == want.audit_entries
            assert got.state_counts == want.state_counts

    def test_worker_that_keeps_dying_raises_pool_error(self):
        with WorkerPool(workers=1, task_timeout=30.0) as pool:
            with pytest.raises(PoolError) as excinfo:
                pool.run(
                    self.specs(shards=1),
                    on_dispatch=lambda task_id, slot_index: pool.kill_worker(
                        slot_index
                    ),
                )
        assert str(MAX_TASK_ATTEMPTS) in str(excinfo.value)

    def test_python_exception_propagates_without_retry(self):
        bad = ShardSpec(
            shard_index=0, shards=1, design=vendor("OZWI"),
            campaign="no-such-campaign", households=4, max_probes=8, seed=0,
        )
        with WorkerPool(workers=1) as pool:
            with pytest.raises(WorkerTaskError) as excinfo:
                pool.run([bad])
            assert pool.stats()["respawns"] == 0
        assert "no-such-campaign" in str(excinfo.value)

    def test_task_overdue_logic(self):
        assert not task_overdue(None, 100.0, 5.0)
        assert not task_overdue(10.0, 100.0, None)
        assert not task_overdue(10.0, 14.0, 5.0)
        assert task_overdue(10.0, 16.0, 5.0)

    def test_preferred_start_method(self):
        method = preferred_start_method()
        assert method in ("forkserver", "fork", "spawn")

    def test_pool_rejects_zero_workers(self):
        with pytest.raises(PoolError):
            WorkerPool(workers=0)


class TestRepeatingHandle:
    """Scheduler.every handles must track the live chain."""

    def test_time_follows_the_next_firing(self):
        env = Environment(seed=0)
        handle = env.every(2.0, lambda: None)
        assert handle.time == 2.0
        env.run_for(5.0)
        assert handle.time == 6.0

    def test_cancel_stops_the_chain_after_firings(self):
        env = Environment(seed=0)
        ticks = []
        handle = env.every(1.0, lambda: ticks.append(env.now))
        env.run_for(3.5)
        assert ticks == [1.0, 2.0, 3.0]
        handle.cancel()
        assert handle.cancelled
        env.run_for(5.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_start_delay_re_arms_at_captured_phase(self):
        env = Environment(seed=0)
        ticks = []
        env.every(2.0, lambda: ticks.append(env.now), start_delay=0.5)
        env.run_for(5.0)
        assert ticks == [0.5, 2.5, 4.5]


class TestWorldImageShape:
    def test_image_is_picklable_and_self_describing(self):
        fleet, _ = deployed_world()
        image = fleet.capture_image()
        assert isinstance(image, WorldImage)
        clone = pickle.loads(pickle.dumps(image))
        assert clone.households == 5
        assert clone.build == "replay"
        assert len(clone.device_states) == 5
        assert len(clone.app_states) == 5

    def test_restore_is_repeatable_from_one_image(self):
        fleet, _ = deployed_world()
        image = fleet.capture_image()
        first = FleetDeployment.from_image(
            image, observer=Observability(trace_messages=True)
        )
        second = FleetDeployment.from_image(
            image, observer=Observability(trace_messages=True)
        )
        assert first.bound_users() == second.bound_users()
        assert first.cloud.state_counts() == second.cloud.state_counts()
