"""Sharded campaign engine: serial vs parallel at product-series scale.

Runs the Section V-C binding-DoS sweep against a 400-household OZWI
fleet — 24k probes into the sequential serial-number space — first
serially, then sharded across 1/2/4/8 workers, and emits
``benchmarks/output/BENCH_parallel.json`` with:

* the measured wall-clock for every configuration,
* a *projected* multi-core speedup derived from solo per-shard wall
  times (shards share nothing, so a shard's solo time models a
  dedicated core; on a single-core CI host the measured multi-process
  numbers only show scheduler interleaving, not the engine),
* an explicit oversubscription warning whenever a configuration runs
  more workers than the host has cores — measured walls in that regime
  show scheduler interleaving, not engine scaling,
* the merged-metrics-equals-sum-of-shard-audits consistency check,
* template cloning (``build="clone"``) vs full Figure 1 replay timing
  for fleet construction at 200 households, and
* the persistent-pool benchmark: a deployed campaign repeated through
  one :class:`~repro.parallel.pool.WorkerPool`, cold first pass vs
  warm-started repeats, with the amortized speedup checked against the
  critical-path projection on hosts with enough cores, plus every
  shard's world-preparation seconds and the collector runs and pause
  it saw (``ShardResult.runtime["gc"]``).

``docs/performance.md`` explains how to read every number here.
"""

import json
import os
import statistics
import time

from repro.attacks.campaign import campaign_binding_dos
from repro.fleet import FleetDeployment
from repro.obs.runtime import Observability
from repro.parallel import WorkerPool, WorldImageCache, run_campaign
from repro.vendors import vendor

from conftest import OUTPUT_DIR, emit

VENDOR = "OZWI"
HOUSEHOLDS = 400
PROBES = 24000
SEED = 11
WORKER_CURVE = (1, 2, 4, 8)

# pooled warm-start benchmark: a deployed campaign (the fleet is built,
# set up, and settled before the attack) repeated through one pool
POOLED_CAMPAIGN = "mass-unbind"
POOLED_HOUSEHOLDS = 200
POOLED_PROBES = 2000
POOLED_WORKERS = 4
POOLED_REPEATS = 3


def _oversubscription_warning(workers: int, cpu_count: int):
    """The warning both the JSON and the text report carry, or ``None``."""
    if workers <= cpu_count:
        return None
    return (
        f"WARNING: {workers} workers > {cpu_count} CPU core(s) — measured "
        f"walls show oversubscription (scheduler interleaving), not engine "
        f"scaling; trust the critical-path projection instead"
    )


def _serial_baseline():
    """One serial 400-household binding-DoS sweep, timed."""
    started = time.perf_counter()
    obs = Observability(trace_messages=False)
    fleet = FleetDeployment(
        vendor(VENDOR), households=HOUSEHOLDS, seed=SEED, observer=obs
    )
    report = campaign_binding_dos(fleet, max_probes=PROBES)
    wall = time.perf_counter() - started
    return report, wall, len(fleet.cloud.audit)


def test_serial_vs_sharded_speedup_curve(benchmark):
    """The headline artifact: speedup curve + consistency → BENCH_parallel.json."""
    report, serial_wall, serial_audit = benchmark.pedantic(
        _serial_baseline, rounds=1, iterations=1
    )
    assert report.victims_denied == HOUSEHOLDS

    curve = []
    for workers in WORKER_CURVE:
        # measured: real worker processes (honest number for this host)
        started = time.perf_counter()
        measured = run_campaign(
            vendor(VENDOR), campaign="binding-dos", households=HOUSEHOLDS,
            max_probes=PROBES, workers=workers, seed=SEED,
            trace_messages=False, snapshot_max_spans=200,
        )
        measured_wall = time.perf_counter() - started
        # projected: the same shards run solo (sequentially in-process),
        # critical path = slowest shard + merge — what >=N cores would see
        solo = run_campaign(
            vendor(VENDOR), campaign="binding-dos", households=HOUSEHOLDS,
            max_probes=PROBES, workers=1, shards=workers, seed=SEED,
            trace_messages=False, snapshot_max_spans=200,
        )
        shard_walls = [r.wall_seconds for r in solo.shard_results]
        merge_wall = max(0.0, solo.wall_seconds - sum(shard_walls))
        critical_path = max(shard_walls) + merge_wall
        assert measured.consistent and solo.consistent
        assert measured.report.households == report.households
        assert measured.report.ids_probed == report.ids_probed
        assert measured.report.ids_hit == report.ids_hit
        assert measured.report.victims_denied == report.victims_denied
        cpu_count = os.cpu_count() or 1
        row = {
            "workers": workers,
            "measured_wall_seconds": round(measured_wall, 4),
            "measured_speedup": round(serial_wall / measured_wall, 2),
            "shard_wall_seconds": [round(w, 4) for w in shard_walls],
            "critical_path_seconds": round(critical_path, 4),
            "projected_speedup": round(serial_wall / critical_path, 2),
            "audit_entries": measured.audit_entries_total,
            "consistent": measured.consistent,
            "oversubscribed": workers > cpu_count,
        }
        warning = _oversubscription_warning(workers, cpu_count)
        if warning is not None:
            row["warning"] = warning
        curve.append(row)

    four = next(row for row in curve if row["workers"] == 4)
    cpu_count = os.cpu_count() or 1
    basis = "measured" if cpu_count >= 4 else "projected"
    speedup_at_4 = four[f"{basis}_speedup"]
    assert four["projected_speedup"] >= 2.0

    payload = {
        "config": {
            "vendor": VENDOR, "households": HOUSEHOLDS, "probes": PROBES,
            "seed": SEED, "cpu_count": cpu_count,
        },
        "serial": {
            "wall_seconds": round(serial_wall, 4),
            "ids_probed": report.ids_probed,
            "ids_hit": report.ids_hit,
            "victims_denied": report.victims_denied,
            "audit_entries": serial_audit,
        },
        "speedup_curve": curve,
        "speedup_at_4_workers": {"speedup": speedup_at_4, "basis": basis},
        "consistency": {
            "merged_metrics_equal_sum_of_shard_audits":
                all(row["consistent"] for row in curve),
        },
        "clone_vs_replay": _clone_vs_replay(),
    }
    warnings = [row["warning"] for row in curve if "warning" in row]
    if warnings:
        payload["warnings"] = warnings
    OUTPUT_DIR.mkdir(exist_ok=True)
    _update_bench_json(payload)
    text = (
        f"serial {serial_wall:.2f}s vs 4-worker critical path "
        f"{four['critical_path_seconds']:.2f}s "
        f"({four['projected_speedup']:.1f}x projected, "
        f"{four['measured_speedup']:.1f}x measured on {cpu_count} core(s)); "
        f"all shard merges consistent; BENCH_parallel.json written"
    )
    for warning in warnings:
        text += "\n" + warning
    emit("parallel_campaigns", text)
    assert payload["consistency"]["merged_metrics_equal_sum_of_shard_audits"]


def _update_bench_json(payload):
    """Merge *payload* into BENCH_parallel.json without clobbering the
    sections other tests in this file own (curve vs pooled)."""
    path = OUTPUT_DIR / "BENCH_parallel.json"
    data = {}
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    data.update(payload)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def test_pooled_warm_start_amortization(benchmark):
    """Persistent pool + warm start vs serial repeats of a deployed campaign.

    The pooled artifact in BENCH_parallel.json: repeat a mass-unbind
    campaign through one :class:`WorkerPool` — pass 1 builds the worlds
    cold and caches images, passes 2+ restore them — and compare the
    amortized repeat wall against (a) fresh serial runs and (b) the
    critical-path projection (slowest warm shard + merge, measured
    in-process so it is core-count independent).  On hosts with at
    least ``POOLED_WORKERS`` cores the measured amortized speedup must
    reach 0.8x of the projection and beat serial by 1.5x; on smaller
    hosts those assertions are skipped and the JSON carries the
    oversubscription warning instead.
    """
    design = vendor(VENDOR)
    campaign_kwargs = dict(
        campaign=POOLED_CAMPAIGN, households=POOLED_HOUSEHOLDS,
        max_probes=POOLED_PROBES, seed=SEED, trace_messages=False,
        snapshot_max_spans=200,
    )

    def serial_runs():
        walls = []
        reference = None
        for _ in range(POOLED_REPEATS):
            started = time.perf_counter()
            reference = run_campaign(design, workers=1, **campaign_kwargs)
            walls.append(time.perf_counter() - started)
        return reference, walls

    reference, serial_walls = benchmark.pedantic(
        serial_runs, rounds=1, iterations=1
    )
    serial_wall = min(serial_walls)

    # Critical-path projection from in-process warm repeats: shard solo,
    # prime a shared image cache, then time the warm pass per shard.
    cache = WorldImageCache()
    run_campaign(
        design, workers=1, shards=POOLED_WORKERS, image_cache=cache,
        **campaign_kwargs,
    )
    warm_solo = run_campaign(
        design, workers=1, shards=POOLED_WORKERS, image_cache=cache,
        **campaign_kwargs,
    )
    assert all(r.world_source == "warm" for r in warm_solo.shard_results)
    warm_shard_walls = [r.wall_seconds for r in warm_solo.shard_results]
    merge_wall = max(0.0, warm_solo.wall_seconds - sum(warm_shard_walls))
    critical_path = max(warm_shard_walls) + merge_wall

    # Measured: the same repeats through one persistent pool.
    pooled_walls = []
    with WorkerPool(workers=POOLED_WORKERS) as pool:
        pooled_results = []
        for _ in range(POOLED_REPEATS):
            started = time.perf_counter()
            pooled_results.append(run_campaign(
                design, workers=POOLED_WORKERS, shards=POOLED_WORKERS,
                worker_pool=pool, **campaign_kwargs,
            ))
            pooled_walls.append(time.perf_counter() - started)
        pool_stats = pool.stats()

    # Bit-identical to serial regardless of execution strategy.
    for result in pooled_results:
        assert result.report.__dict__ == reference.report.__dict__
        assert result.consistent
    assert pool_stats["cold_builds"] == POOLED_WORKERS
    assert pool_stats["warm_starts"] == POOLED_WORKERS * (POOLED_REPEATS - 1)

    # Per-shard world preparation and the collector work each shard saw
    # (``runtime["gc"]``): warm shards restore an image with the worker's
    # collector paused, so their pause should read ~0.
    shard_worlds = [
        {
            "pass": index,
            "shard": result.shard_index,
            "world_source": result.world_source,
            "world_seconds": round(result.world_seconds, 4),
            "wall_seconds": round(result.wall_seconds, 4),
            "gc_collections": result.runtime["gc"]["collections"],
            "gc_pause_seconds": round(result.runtime["gc"]["pause_seconds"], 4),
        }
        for index, campaign_result in enumerate(pooled_results)
        for result in campaign_result.shard_results
    ]
    warm_worlds = [s for s in shard_worlds if s["world_source"] == "warm"]
    amortized_wall = statistics.mean(pooled_walls[1:])
    cpu_count = os.cpu_count() or 1
    projected_speedup = serial_wall / critical_path
    measured_speedup = serial_wall / amortized_wall
    warning = _oversubscription_warning(POOLED_WORKERS, cpu_count)

    pooled_payload = {
        "pooled": {
            "campaign": POOLED_CAMPAIGN,
            "households": POOLED_HOUSEHOLDS,
            "probes": POOLED_PROBES,
            "workers": POOLED_WORKERS,
            "repeats": POOLED_REPEATS,
            "cpu_count": cpu_count,
            "serial_wall_seconds": round(serial_wall, 4),
            "cold_pass_wall_seconds": round(pooled_walls[0], 4),
            "amortized_wall_seconds": round(amortized_wall, 4),
            "warm_shard_wall_seconds": [round(w, 4) for w in warm_shard_walls],
            "critical_path_seconds": round(critical_path, 4),
            "projected_speedup": round(projected_speedup, 2),
            "measured_speedup": round(measured_speedup, 2),
            "pool": pool_stats,
            "warm_world_seconds_median": round(
                statistics.median(s["world_seconds"] for s in warm_worlds), 4
            ),
            "warm_gc_pause_seconds_total": round(
                sum(s["gc_pause_seconds"] for s in warm_worlds), 4
            ),
            "shard_worlds": shard_worlds,
        },
    }
    if warning is not None:
        pooled_payload["pooled"]["warning"] = warning
    _update_bench_json(pooled_payload)

    text = (
        f"{POOLED_CAMPAIGN} x{POOLED_REPEATS} at {POOLED_WORKERS} workers: "
        f"serial {serial_wall:.2f}s/run, pooled cold {pooled_walls[0]:.2f}s, "
        f"amortized {amortized_wall:.2f}s "
        f"({measured_speedup:.1f}x measured vs {projected_speedup:.1f}x "
        f"projected on {cpu_count} core(s)); "
        f"pool: {pool_stats['warm_starts']} warm / "
        f"{pool_stats['cold_builds']} cold, "
        f"{pool_stats['respawns']} respawns; warm restore "
        f"{pooled_payload['pooled']['warm_world_seconds_median']:.3f}s/shard "
        f"(median), warm gc pause "
        f"{pooled_payload['pooled']['warm_gc_pause_seconds_total']:.3f}s total"
    )
    if warning is not None:
        text += "\n" + warning
    emit("parallel_pooled", text)

    if cpu_count >= POOLED_WORKERS:
        # On a real multi-core box the pool must actually deliver.
        assert measured_speedup >= 0.8 * projected_speedup
        assert measured_speedup >= 1.5


def _clone_vs_replay(households: int = 200):
    """Template cloning vs full Figure 1 replay for fleet construction."""
    def build(mode):
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            fleet = FleetDeployment(
                vendor(VENDOR), households=households, seed=SEED, build=mode
            )
            fleet.setup_all()
            best = min(best, time.perf_counter() - started)
            bound = fleet.bound_users()
            assert len(bound) == households
        return best

    replay_wall = build("replay")
    clone_wall = build("clone")
    return {
        "households": households,
        "replay_seconds": round(replay_wall, 4),
        "clone_seconds": round(clone_wall, 4),
        "ratio": round(replay_wall / clone_wall, 2),
        "clone_cheaper": clone_wall < replay_wall,
    }


def test_clone_fleet_matches_replay_fleet(benchmark):
    """Clone-built fleets are cheaper and end in the same bound state."""
    def build_both():
        replay = FleetDeployment(vendor(VENDOR), households=100, seed=SEED)
        replay.setup_all()
        clone = FleetDeployment(
            vendor(VENDOR), households=100, seed=SEED, build="clone"
        )
        return replay, clone

    replay, clone = benchmark.pedantic(build_both, rounds=1, iterations=1)
    assert replay.bound_users() == clone.bound_users()
    stats = _clone_vs_replay(households=100)
    assert stats["clone_cheaper"]
    emit(
        "parallel_clone_fleet",
        f"100-household fleet construction: replay {stats['replay_seconds']}s "
        f"vs clone {stats['clone_seconds']}s ({stats['ratio']}x)",
    )
