"""Simulation-kernel performance: event throughput, hot-path latency, cache.

Not a paper artifact — a fitness benchmark for the substrate everything
else runs on.  Regressions here silently slow the whole Table III
battery, so the numbers are pinned by ``benchmarks/output/BENCH_kernel.json``:

* ``after`` — throughput/latency measured on this checkout (scheduler
  events/sec, timer chains, network packets/sec, cloud handle p50/p99
  as medians over ``HANDLE_ROUNDS`` fresh-fleet sweeps, plus the p99's
  max across them);
* ``decision_cache`` — authorization-cache hit rates under the two
  repeat-heavy campaigns (mass-unbind, shadow-probe) driven through the
  engine's real flow (``setup_all`` → ``run`` → sweep);
* ``campaigns`` — serial and pooled mass-unbind campaign walls;
* ``baseline`` — the same metrics measured on the pre-optimization
  kernel (dataclass heap entries, unconditional observer calls, no
  decision cache), pinned so speedups stay honest;
* ``thresholds`` — the regression gate ``tools/check_kernel_bench.py``
  enforces in CI: the ``PINNED`` medians of repeated runs of this file
  on the current kernel, widened by the ``NOISE_FACTORS`` measured from
  their spread.

Set ``BENCH_QUICK=1`` to shrink fleets and probe budgets for CI smoke
runs (throughput numbers stay honest; fleet-scale walls shrink).
"""

import json
import os
import statistics
import time

from repro.core.errors import RequestRejected
from repro.core.messages import Response, StatusMessage, UnbindMessage
from repro.net.network import Network
from repro.sim.environment import Environment
from repro.sim.scheduler import Scheduler

from conftest import OUTPUT_DIR, emit

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Pre-optimization kernel, measured with this file's exact workloads on
#: the commit before the slotted scheduler / null-observer fast paths /
#: authorization decision cache landed (dev box, CPython 3.11).
BASELINE = {
    "events_per_sec": 303389,
    "timer_events_per_sec": 501402,
    "packets_per_sec": 274486,
    "handle_p50_us": 28.14,
    "handle_p99_us": 61.70,
    "handle_mean_us": 30.70,
    "serial_campaign_seconds": 0.1265,
    "pooled_campaign_seconds": 0.5851,
}

#: Current kernel: per-metric medians over 10 full + 10 ``BENCH_QUICK=1``
#: runs of this file (2-vCPU Xeon VM, CPython 3.11.7), taking the slower
#: mode's median, since CI gates quick runs and the committed artifact is
#: a full run.
PINNED = {
    "events_per_sec": 405264,
    "timer_events_per_sec": 417174,
    "packets_per_sec": 261351,
    "handle_p50_us": 22.05,
    "handle_p99_us": 73.40,
}

#: Per-metric run-to-run spread of those runs: the worst single run's
#: ratio to its own mode's median (slower side), rounded up.  CI fails
#: when a throughput metric drops below PINNED/factor or a latency
#: metric climbs above PINNED*factor.
NOISE_FACTORS = {
    "events_per_sec": 1.56,
    "timer_events_per_sec": 1.61,
    "packets_per_sec": 1.88,
    "handle_p50_us": 1.24,
    "handle_p99_us": 1.28,
}

#: Fresh-fleet sweeps behind the handle p50/p99 (medians across them).
HANDLE_ROUNDS = 5


def _merge(payload):
    """Merge *payload* into BENCH_kernel.json without clobbering the
    sections other tests in this module have already written."""
    path = OUTPUT_DIR / "BENCH_kernel.json"
    OUTPUT_DIR.mkdir(exist_ok=True)
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for key, value in payload.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return data


def _fleet(households, run_seconds):
    """An OZWI fleet driven exactly like the engine's ``run_shard``:
    deploy, let heartbeats flow, then hand it to a campaign."""
    from repro.fleet import FleetDeployment
    from repro.vendors import vendor

    fleet = FleetDeployment(vendor("OZWI"), households=households, seed=11)
    fleet.setup_all()
    fleet.run(run_seconds)
    return fleet


def test_scheduler_event_throughput(benchmark):
    def run_events():
        scheduler = Scheduler()
        fired = [0]

        def tick():
            fired[0] += 1

        for i in range(10_000):
            scheduler.at(float(i % 100), tick)
        scheduler.run_until(100.0)
        return fired[0]

    count = benchmark(run_events)
    assert count == 10_000
    _merge({"after": {"events_per_sec": round(10_000 / benchmark.stats.stats.min)}})


def test_periodic_timer_chains(benchmark):
    def run_timers():
        env = Environment(seed=0)
        ticks = [0]
        for i in range(50):
            env.every(1.0 + i * 0.01, lambda: ticks.__setitem__(0, ticks[0] + 1))
        env.run_for(100.0)
        return ticks[0]

    count = benchmark(run_timers)
    assert count > 3000
    _merge({"after": {"timer_events_per_sec": round(count / benchmark.stats.stats.min)}})


def test_network_request_throughput(benchmark):
    env = Environment(seed=0)
    network = Network(env)

    network.add_internet_node("cloud", lambda p: Response(), "52.0.0.1")
    network.create_lan("lan", "home", "pass", "203.0.113.1")
    network.add_node("phone")
    network.join_lan("phone", "lan", "pass")
    message = StatusMessage(device_id="d")

    def send_batch():
        for _ in range(1000):
            network.request("phone", "cloud", message)
        return 1000

    count = benchmark(send_batch)
    assert count == 1000
    _merge({"after": {"packets_per_sec": round(1000 / benchmark.stats.stats.min)}})


def test_full_deployment_construction(benchmark):
    from repro.scenario import Deployment
    from repro.vendors import vendor

    world = benchmark(Deployment, vendor("D-LINK"))
    assert world.cloud.registry.is_registered(world.victim.device.device_id)


def test_cloud_handle_latency(benchmark):
    """Per-request cloud cost under an attacker unbind sweep (p50/p99).

    The sweep mixes cache misses (first probe per candidate id) with
    hits (the attacker's own UserToken re-validates every probe), so
    this is the end-to-end number the decision cache is meant to move.
    """
    import itertools

    households = 12 if QUICK else 50
    probes = 400 if QUICK else 2000
    rounds = []

    def fresh_fleet():
        fleet = _fleet(households, 12.0)
        token = fleet.attacker_token()
        candidates = list(itertools.islice(fleet.id_scheme.candidates(), probes))
        return (fleet, token, candidates), {}

    def sweep(fleet, token, candidates):
        samples = []
        for candidate in candidates:
            msg = UnbindMessage(device_id=candidate, user_token=token)
            t0 = time.perf_counter_ns()
            try:
                fleet.network.request("attacker:host", fleet.cloud.node_name, msg)
            except RequestRejected:
                pass
            samples.append(time.perf_counter_ns() - t0)
        samples.sort()
        rounds.append((
            samples[len(samples) // 2] / 1e3,
            samples[int(len(samples) * 0.99)] / 1e3,
            statistics.mean(samples) / 1e3,
        ))

    benchmark.pedantic(sweep, setup=fresh_fleet, rounds=HANDLE_ROUNDS, iterations=1)
    p50s, p99s, means = zip(*rounds)
    _merge(
        {
            "after": {
                "handle_p50_us": round(statistics.median(p50s), 2),
                "handle_p99_us": round(statistics.median(p99s), 2),
                "handle_p99_us_max": round(max(p99s), 2),
                "handle_mean_us": round(statistics.median(means), 2),
            }
        }
    )


def test_decision_cache_hit_rate(benchmark):
    """Authorization-cache effectiveness on the two repeat-heavy sweeps.

    Mass-unbind re-presents one attacker UserToken per probe; the
    heartbeat phase re-presents every device's DevToken each beat.
    Both must land as cache hits — with zero stale decisions (the
    dedicated invalidation tests in tests/test_authz_cache.py are the
    correctness gate; this is the effectiveness gate)."""
    from repro.attacks.campaign import campaign_mass_unbind, campaign_shadow_probe

    households = 12 if QUICK else 50
    probes = 120 if QUICK else 500
    run_seconds = 8.0 if QUICK else 30.0

    def run_both():
        results = {}
        for name, campaign_fn in (
            ("mass_unbind", campaign_mass_unbind),
            ("shadow_probe", campaign_shadow_probe),
        ):
            fleet = _fleet(households, run_seconds)
            campaign_fn(fleet, max_probes=probes)
            cache = fleet.cloud.authz_cache
            stats = cache.stats()
            stats["hit_rate"] = round(cache.hit_rate(), 4)
            results[name] = stats
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    for name, stats in results.items():
        assert stats["hits"] > 0, f"{name}: decision cache never hit"
        assert stats["hit_rate"] > 0.0, f"{name}: zero hit rate"
        assert stats["invalidations"] > 0, f"{name}: mutations never invalidated"
    _merge({"decision_cache": results})


def test_campaign_walls_and_artifact(benchmark):
    """Serial + pooled mass-unbind walls, then finalize BENCH_kernel.json.

    Runs last in this module: folds in config, the pinned baseline, the
    per-metric speedups and the CI regression thresholds, and emits the
    summary artifact."""
    from repro.parallel import WorkerPool, run_campaign
    from repro.vendors import vendor

    households = 16 if QUICK else 100
    probes = 64 if QUICK else 1000
    kwargs = dict(
        campaign="mass-unbind",
        households=households,
        max_probes=probes,
        seed=11,
        shards=2,
    )

    def run_walls():
        t0 = time.perf_counter()
        serial = run_campaign(vendor("OZWI"), workers=1, **kwargs)
        serial_wall = time.perf_counter() - t0
        # pool start + one campaign + shutdown, as one pooled run costs
        t0 = time.perf_counter()
        with WorkerPool(workers=2) as pool:
            pooled = run_campaign(
                vendor("OZWI"), workers=2, worker_pool=pool, **kwargs
            )
        pooled_wall = time.perf_counter() - t0
        assert serial.report.ids_probed == pooled.report.ids_probed
        return round(serial_wall, 4), round(pooled_wall, 4)

    serial_wall, pooled_wall = benchmark.pedantic(run_walls, rounds=1, iterations=1)

    data = _merge(
        {
            "config": {
                "quick": QUICK,
                "households": households,
                "probes": probes,
                "seed": 11,
            },
            "campaigns": {
                "serial_campaign_seconds": serial_wall,
                "pooled_campaign_seconds": pooled_wall,
            },
            "baseline": BASELINE,
            "pinned": {"medians": PINNED, "noise_factors": NOISE_FACTORS},
            "thresholds": {
                **{
                    f"min_{key}": round(PINNED[key] / NOISE_FACTORS[key])
                    for key in ("events_per_sec", "timer_events_per_sec", "packets_per_sec")
                },
                **{
                    f"max_{key}": round(PINNED[key] * NOISE_FACTORS[key], 2)
                    for key in ("handle_p50_us", "handle_p99_us")
                },
                "min_decision_cache_hit_rate": 0.05,
            },
        }
    )

    after = data.get("after", {})
    speedups = {}
    for key in ("events_per_sec", "timer_events_per_sec", "packets_per_sec"):
        if key in after:
            speedups[key] = round(after[key] / BASELINE[key], 2)
    for key in ("handle_p50_us", "handle_p99_us", "handle_mean_us"):
        if key in after:
            speedups[key] = round(BASELINE[key] / after[key], 2)
    data = _merge({"speedup_vs_baseline": speedups})

    cache = data.get("decision_cache", {})
    lines = ["kernel hot-path benchmark (BENCH_kernel.json):"]
    for key in sorted(after):
        factor = speedups.get(key)
        suffix = f"  ({factor:.2f}x vs baseline)" if factor else ""
        lines.append(f"  after.{key} = {after[key]}{suffix}")
    for name in sorted(cache):
        lines.append(f"  decision_cache.{name}.hit_rate = {cache[name]['hit_rate']}")
    lines.append(
        f"  campaigns: serial {serial_wall}s, pooled {pooled_wall}s"
        f" ({households} households, {probes} probes)"
    )
    emit("sim_kernel", "\n".join(lines))
