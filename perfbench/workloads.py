"""The three benchmark workloads: world set-up, measured phase, checks.

Every workload is a closed loop driven from this one process: the next
request (or campaign) is sent only after the previous one returned.
The measured configuration is the production one — an
``Observability(trace_messages=True)`` attached, as ``run_shard``
attaches it — and every timing is host time (``perf_counter``).

* ``unbind-sweep`` — OZWI, 2,000 replay-built households, 24,000 Unbind
  probes sent through ``Network.request`` from ``attacker:host`` the way
  ``repro.attacks.campaign`` sends them: the exception-driven deny path.
* ``fleet-soak`` — the same world, then ``FleetDeployment.run(60.0)``:
  48,000 accepted device Status/DeviceFetch requests driven by
  ``repro.sim`` — the accept and write path.
* ``pooled-sweep`` — E-Link Smart, 2,000 households, 4,000 probes per
  campaign, detection on: shadow-probe → mass-unbind → mass-rebind three
  times through one caller-owned 2-worker ``WorkerPool`` with warm
  start — ``repro.parallel`` and ``repro.obs.detect`` at work.

A *cycle* builds a fresh world and runs one measured pass on it; a run
repeats cycles while one more fits in ``--seconds``, so set-up is
sampled several times per run as well.  Per-request timings are the
best of many short windows (see :func:`best`), the rest are medians.
"""

from __future__ import annotations

import resource
import statistics
import traceback
from collections import Counter
from functools import partial
from itertools import islice
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.attacks.campaign import (
    campaign_mass_rebind,
    campaign_mass_unbind,
    campaign_shadow_probe,
)
from repro.chaos.campaign import binding_liveness
from repro.core.errors import RequestRejected
from repro.core.messages import UnbindMessage
from repro.fleet import FleetDeployment
from repro.obs.detect.pipeline import DetectionPipeline
from repro.obs.export import snapshot
from repro.obs.runtime import Observability
from repro.obs.slo import RedAccounting
from repro.parallel import WorkerPool, run_campaign
from repro.parallel.shards import derive_shard_seed, partition
from repro.vendors import vendor

from tracing import OBS_HOOKS, GcMonitor, SpanRecorder, instrument

HOUSEHOLDS = 2000
#: virtual seconds of settling after the Figure 1 setup
SETTLE_S = 12.0
#: Unbind probes per unbind-sweep pass
PROBES = 24_000
#: virtual seconds of heartbeats per fleet-soak pass
SOAK_S = 60.0
#: probes per pooled-sweep campaign
POOL_PROBES = 4_000
POOL_WORKERS = 2
#: shadow-probe → mass-unbind → mass-rebind rounds per pool
POOL_ROUNDS = 3
POOL_CAMPAIGNS = ("shadow-probe", "mass-unbind", "mass-rebind")
#: requests per latency/cost window (10 lie beyond each window's p99)
WINDOW = 1000
SERIAL_CAMPAIGNS = {
    "shadow-probe": campaign_shadow_probe,
    "mass-unbind": campaign_mass_unbind,
    "mass-rebind": campaign_mass_rebind,
}

#: Unit of each figure a run prints beside the declared metrics.
REPORTED_UNITS = {"wall_s": "s", "campaign_s": "s"}

#: Rejection codes reported one by one; any other code lands in "other".
REJECTION_CODES = ("unknown-device", "unknown-device-id", "not-bound-user")

#: Spans on the blocking path of a request whose self time is reported,
#: metric name -> span names.  "client" is the benchmark's own loop
#: (the attacker's send) and "sim" the scheduler plus device logic.
SELF_LAYERS = {
    "client.self_us_per_req": ("phase",),
    "sim.self_us_per_req": ("sim.run_for",),
    "net.self_us_per_req": ("net.request",),
    "cloud.self_us_per_req": ("cloud.handle",),
    "pdp.self_us_per_req": ("pdp.decide",),
    "audit.record_us_per_req": ("audit.record",),
    "forensics.record_us_per_req": ("forensics.record",),
    "obs.hook_us_per_req": tuple(f"obs.{hook}" for hook in OBS_HOOKS),
}


class Tally:
    """Operations attempted and failed, plus what each failure was."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def ops(self, attempted: int, failed: int, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed}/{attempted} failed: {what}")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, f"check {what}")


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = min(len(sorted_values) - 1, max(0, round(q * len(sorted_values)) - 1))
    return sorted_values[index]


def best(values: List[float]) -> float:
    """The best-window statistic: the lowest of many short samples.

    On a shared host the CPU runs in speed states that last seconds and
    differ by up to 2x, so a mean or median of short samples mostly
    measures the neighbours.  Nearly every run passes through the
    fastest state, and the best of hundreds of short samples is the
    program's own cost there.  Quantities sampled only a few times per
    run (set-up, whole passes, campaigns) are reported as medians.
    """
    return min(values) if values else 0.0


def repeat_within(seconds: float, cycle: Callable[[], Any]) -> List[Any]:
    """Run *cycle* once, then again while one more still fits in *seconds*."""
    started = perf_counter()
    results = [cycle()]
    longest = perf_counter() - started
    while True:
        begun = perf_counter()
        if begun - started + longest > seconds:
            return results
        results.append(cycle())
        longest = max(longest, perf_counter() - begun)


class Samples:
    """Send time and latency (ns) of each request in one measured phase."""

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.latencies: List[int] = []
        self.end = 0

    def windows(self) -> List[Tuple[float, float, float]]:
        """``(us_per_req, p50_us, p99_us)`` per window of WINDOW requests.

        A window's cost is the wall time from its first request's send
        to the next window's (or the phase's end) over WINDOW, so it
        counts everything the loop does between requests.
        """
        out = []
        starts, latencies = self.starts, self.latencies
        for first in range(0, len(starts) - WINDOW + 1, WINDOW):
            last = first + WINDOW
            stop = starts[last] if last < len(starts) else self.end
            window = sorted(latencies[first:last])
            out.append((
                (stop - starts[first]) / WINDOW / 1000.0,
                percentile(window, 0.50) / 1000.0,
                percentile(window, 0.99) / 1000.0,
            ))
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rejection_split(outcomes: Counter) -> Dict[str, int]:
    """``cloud.rejected`` and ``cloud.rejected.<code>`` from an outcome tally."""
    split = {f"cloud.rejected.{code}": 0 for code in REJECTION_CODES}
    split["cloud.rejected.other"] = 0
    for code, count in outcomes.items():
        if code == "ok":
            continue
        key = f"cloud.rejected.{code}"
        split[key if key in split else "cloud.rejected.other"] += count
    split["cloud.rejected"] = sum(split.values())
    return split


# -- serial worlds ------------------------------------------------------------


class World:
    """One set-up fleet, with how long each set-up step took."""

    def __init__(self, design: Any, seed: int, households: int, observed: bool,
                 tally: Tally, on_env: Optional[Callable] = None) -> None:
        started = perf_counter()
        self.obs = Observability(trace_messages=True) if observed else None
        self.fleet = FleetDeployment(
            design, households=households, seed=seed, observer=self.obs
        )
        built = perf_counter()
        if on_env is not None:
            on_env(self.fleet.env)
        ready = self.fleet.setup_all()
        set_up = perf_counter()
        self.fleet.run(SETTLE_S)
        settled = perf_counter()
        tally.ops(households, households - ready, "household setup")
        self.build_s = built - started
        self.setup_s = set_up - built
        self.settle_s = settled - set_up
        self.ready_s = settled - started

    def audit_outcomes(self, since: int) -> Counter:
        return Counter(entry.outcome for entry in self.fleet.cloud.audit.entries[since:])

    def export(self) -> float:
        """Collect the run's results (``obs.export.snapshot``); seconds taken."""
        if self.obs is None:
            return 0.0
        started = perf_counter()
        snapshot(self.obs)
        return perf_counter() - started


def denied_households(fleet: FleetDeployment) -> int:
    return sum(
        1
        for household in fleet.households
        if fleet.cloud.bound_user_of(household.device.device_id) != household.user_id
    )


def unbind_phase(world: World, samples: Samples, tally: Tally) -> Tuple[float, int, dict]:
    """24,000 Unbind probes, each timed around its ``Network.request``."""
    fleet = world.fleet
    audit_before = len(fleet.cloud.audit)
    token = fleet.attacker_token()
    request, cloud = fleet.network.request, fleet.cloud.node_name
    starts, latencies, clock = samples.starts, samples.latencies, perf_counter_ns
    hits = errors = 0
    started = perf_counter()
    for candidate in islice(fleet.id_scheme.candidates(), PROBES):
        sent = clock()
        try:
            request(
                "attacker:host", cloud,
                UnbindMessage(device_id=candidate, user_token=token),
            )
            hits += 1
        except RequestRejected:
            pass
        except Exception:  # NetworkError or a fault: the request failed
            errors += 1
            if errors == 1:
                tally.problems.append(traceback.format_exc())
        latencies.append(clock() - sent)
        starts.append(sent)
    samples.end = clock()
    phase_s = perf_counter() - started
    tally.ops(PROBES, errors, "unbind probes")
    facts = {
        "probed": PROBES,
        "hits": hits,
        "denied": denied_households(fleet),
        "audit": len(fleet.cloud.audit) - audit_before,
        "outcomes": dict(world.audit_outcomes(audit_before)),
    }
    return phase_s, PROBES, facts


def soak_phase(world: World, samples: Samples, tally: Tally) -> Tuple[float, int, dict]:
    """``FleetDeployment.run(60)``; each device request timed around
    ``Network.request`` by a wrapper installed on the network instance."""
    fleet = world.fleet
    network = fleet.network
    audit_before = len(fleet.cloud.audit)
    inner, clock = network.request, perf_counter_ns
    starts, latencies = samples.starts, samples.latencies

    def timed_request(*args: Any, **kwargs: Any) -> Any:
        sent = clock()
        starts.append(sent)
        try:
            return inner(*args, **kwargs)
        finally:
            latencies.append(clock() - sent)

    network.request = timed_request
    started = perf_counter()
    fleet.run(SOAK_S)
    samples.end = clock()
    phase_s = perf_counter() - started
    network.request = inner
    requests = len(fleet.cloud.audit) - audit_before
    outcomes = world.audit_outcomes(audit_before)
    tally.ops(requests, requests - outcomes.get("ok", 0), "soak requests accepted")
    liveness = binding_liveness(fleet)
    interval = fleet.design.heartbeat_interval
    tally.check(
        liveness["bound_fraction"] == 1.0 and liveness["online_fraction"] == 1.0,
        f"every household bound and online after the soak: {liveness}",
    )
    expected = 2 * len(fleet.households) * round(SOAK_S / interval)
    tally.check(requests == expected, f"soak requests {requests} == {expected}")
    tally.check(
        len(latencies) == requests,
        "every soak request passed through Network.request",
    )
    facts = {"audit": requests, "outcomes": dict(outcomes)}
    return phase_s, requests, facts


class SerialWorkload:
    """A workload run serially in this process on a fresh world per cycle."""

    workers = 1

    def __init__(self, design_name: str,
                 phase: Callable[[World, Samples, Tally], Tuple[float, int, dict]],
                 reference: Optional[Callable[[int, Tally], dict]] = None,
                 households: int = HOUSEHOLDS) -> None:
        self.design = vendor(design_name)
        self.phase = phase
        self.reference = reference
        self.households = households

    def world(self, seed: int, tally: Tally, observed: bool = True,
              on_env: Optional[Callable] = None) -> World:
        return World(self.design, seed, self.households, observed, tally, on_env)

    def check_pass(self, world: World, facts: dict, expected: Optional[dict],
                   tally: Tally) -> None:
        if world.obs is not None:
            tally.check(
                world.obs.matches_audit(world.fleet.cloud.audit),
                "Observability.matches_audit",
            )
        if expected is not None:
            tally.check(facts == expected, f"pass tallies {facts} == {expected}")

    # -- untraced run ----------------------------------------------------------

    def measured_cycle(self, seed: int, tally: Tally) -> dict:
        """Build a world, run one measured pass on it, check it."""
        world = self.world(seed, tally)
        samples = Samples()
        phase_s, requests, facts = self.phase(world, samples, tally)
        export_s = world.export()
        self.check_pass(world, facts, None, tally)
        return {
            "setup_s": world.ready_s,
            "wall_s": phase_s + export_s,
            "us_per_req": phase_s / requests * 1e6,
            "windows": samples.windows(),
            "facts": facts,
        }

    def measure(self, seed: int, seconds: float, tally: Tally) -> Tuple[dict, dict]:
        cycles = repeat_within(seconds, partial(self.measured_cycle, seed, tally))
        rss = peak_rss_mb()
        facts = cycles[0]["facts"]
        for cycle in cycles[1:]:
            tally.check(cycle["facts"] == facts, f"pass tallies {cycle['facts']} == {facts}")
        if self.reference is not None:
            expected = self.reference(seed, tally)
            tally.check(facts == expected, f"tallies {facts} == same-seed campaign {expected}")
        windows = [window for cycle in cycles for window in cycle["windows"]]
        metrics = {
            "setup_s": median([c["setup_s"] for c in cycles]),
            "us_per_req": best([w[0] for w in windows]),
            "req_p50_us": best([w[1] for w in windows]),
            "req_p99_us": best([w[2] for w in windows]),
            "peak_rss_mb": rss,
            "wall_s": median([c["wall_s"] for c in cycles]),
        }
        info = {
            "cycles": len(cycles),
            "windows": len(windows),
            "pass_mean_us_per_req": round(median([c["us_per_req"] for c in cycles]), 3),
            "rejections": rejection_split(Counter(facts["outcomes"])),
        }
        return metrics, info

    # -- traced run ------------------------------------------------------------

    def trace_cycle(self, seed: int, tally: Tally) -> Tuple[dict, SpanRecorder]:
        """Observed untraced pass, NULL_OBSERVER pass, traced pass."""
        plain = self.world(seed, tally)
        with GcMonitor() as gc_monitor:
            phase_s, requests, facts = self.phase(plain, Samples(), tally)
        export_s = plain.export()
        self.check_pass(plain, facts, None, tally)
        untraced = phase_s / requests * 1e6
        layers = {
            "fleet.build_s": plain.build_s,
            "fleet.setup_s": plain.setup_s,
            "fleet.settle_s": plain.settle_s,
            "fleet.restore_s": 0.0,
            "obs.export_s": export_s,
        }
        del plain

        null = self.world(seed, tally, observed=False)
        null_s, null_requests, null_facts = self.phase(null, Samples(), tally)
        tally.check(null_facts == facts, "NULL_OBSERVER pass tallies == observed")
        del null
        layers["obs.null_us_per_req"] = null_s / null_requests * 1e6
        layers["obs.overhead_us_per_req"] = untraced - layers["obs.null_us_per_req"]

        recorder = SpanRecorder()
        sim = SimMeter(recorder)
        traced = self.world(seed, tally, on_env=sim.install)
        recorder.reset()  # per-request spans cover the measured phase only
        cloud = traced.fleet.cloud
        authz_before = cloud.authz_cache.stats()
        audit_before = len(cloud.audit)
        instrument(recorder, traced.fleet, traced.obs)
        traced_s, traced_requests, traced_facts = recorder.wrap("phase", self.phase)(
            traced, Samples(), tally
        )
        self.check_pass(traced, traced_facts, facts, tally)
        layers.update(request_layers(recorder, traced_requests, traced_s, untraced))
        layers.update(serial_layers(traced, authz_before, audit_before))
        layers.update(sim.layers())
        layers["py.gc_collections"] = gc_monitor.collections
        layers["py.gc_pause_s"] = gc_monitor.pause_s
        layers.update(pool_layers(None))
        return layers, recorder


class SimMeter:
    """Times ``Environment.run_for`` (settling and soak) and sums its events."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.events = 0
        self.busy_s = 0.0

    def install(self, env: Any) -> None:
        timed = self.recorder.wrap("sim.run_for", env.run_for)

        def run_for(duration: float) -> int:
            started = perf_counter()
            events = timed(duration)
            self.busy_s += perf_counter() - started
            self.events += events
            return events

        env.run_for = run_for

    def layers(self) -> dict:
        return {
            "sim.events": self.events,
            "sim.busy_s": self.busy_s,
            "sim.us_per_event": self.busy_s / self.events * 1e6 if self.events else 0.0,
        }


def serial_layers(world: World, authz_before: dict, audit_before: int) -> dict:
    """Counters read from the cloud's own stores after a traced pass."""
    cloud = world.fleet.cloud
    authz = cloud.authz_cache.stats()
    lookups = authz["lookups"] - authz_before["lookups"]
    hits = authz["hits"] - authz_before["hits"]
    state = cloud.state_counts()
    layers = {
        "authz.lookups": lookups,
        "authz.hit_rate": hits / lookups if lookups else 0.0,
        "authz.invalidations": authz["invalidations"] - authz_before["invalidations"],
        "state.records": sum(c.get("records", 0) for c in state.values()),
        "state.mutations": sum(c.get("mutations", 0) for c in state.values()),
        "forensics.events": len(cloud.forensics),
        "detect.alerts": 0,
    }
    layers.update(rejection_split(world.audit_outcomes(audit_before)))
    return layers


def request_layers(recorder: SpanRecorder, requests: int, traced_s: float,
                   untraced_us: float) -> dict:
    """Per-request counts and self times from the span log."""
    spans = recorder.summary()

    def per_req(ns: int) -> float:
        return ns / requests / 1000.0 if requests else 0.0

    def total(name: str, column: int) -> int:
        return spans.get(name, (0, 0, 0))[column]

    layers = {
        metric: per_req(sum(total(name, 2) for name in names))
        for metric, names in SELF_LAYERS.items()
    }
    traced_us = traced_s / requests * 1e6 if requests else 0.0
    layers.update({
        "net.requests": total("net.request", 0),
        "cloud.handle_us_per_req": per_req(total("cloud.handle", 1)),
        "pdp.decides": total("pdp.decide", 0),
        "pdp.decide_us_per_req": per_req(total("pdp.decide", 1)),
        "trace.us_per_req": traced_us,
        "trace.untraced_us_per_req": untraced_us,
        "trace.overhead_us_per_req": traced_us - untraced_us,
        "trace.self_sum_us_per_req": sum(
            layers[metric] for metric in SELF_LAYERS
        ),
    })
    return layers


def unbind_reference(seed: int, tally: Tally) -> dict:
    """The same-seed ``campaign_mass_unbind`` tallies an unbind pass must equal."""
    world = World(vendor("OZWI"), seed, HOUSEHOLDS, True, tally)
    fleet = world.fleet
    audit_before = len(fleet.cloud.audit)
    report = campaign_mass_unbind(fleet, max_probes=PROBES)
    tally.check(world.obs.matches_audit(fleet.cloud.audit), "reference matches_audit")
    return {
        "probed": report.ids_probed,
        "hits": report.ids_hit,
        "denied": report.victims_denied,
        "audit": len(fleet.cloud.audit) - audit_before,
        "outcomes": dict(world.audit_outcomes(audit_before)),
    }


# -- pooled sweep -------------------------------------------------------------


def replica_phase(world: World, samples: Samples, tally: Tally) -> Tuple[float, int, dict]:
    """Shard 0 of one pooled round, run in process on one world.

    The coordinator's wrappers cannot reach pool workers, so the traced
    pooled-sweep run times the per-request layers on this replica: the
    same design, shard 0's households, seed and probe budget, with a
    detection pipeline attached as ``run_shard`` attaches it.
    """
    fleet = world.fleet
    probes = partition(POOL_PROBES, POOL_WORKERS)[0]
    pipeline = DetectionPipeline()
    pipeline.attach(fleet.cloud)
    audit_before = len(fleet.cloud.audit)
    started = perf_counter()
    reports = [
        SERIAL_CAMPAIGNS[campaign](fleet, max_probes=probes)
        for campaign in POOL_CAMPAIGNS
    ]
    phase_s = perf_counter() - started
    growth = len(fleet.cloud.audit) - audit_before
    requests = probes * len(POOL_CAMPAIGNS)
    tally.ops(requests, max(0, requests + 1 - growth), "replica probes reached the cloud")
    facts = {
        "reports": [(r.ids_probed, r.ids_hit, r.victims_denied) for r in reports],
        "audit": growth,
        "outcomes": dict(world.audit_outcomes(audit_before)),
        "alerts": len(pipeline.alerts),
    }
    return phase_s, requests, facts


PARALLEL_LAYERS = (
    "parallel.pool_start_s", "parallel.run_s", "parallel.merge_s",
    "parallel.shard_campaign_s", "parallel.warm_starts", "parallel.cold_builds",
    "parallel.utilization", "parallel.respawns",
)


def pool_layers(cycle: Optional[dict], recorder: Optional[SpanRecorder] = None) -> dict:
    """``parallel.*`` from a traced pool cycle (zeros when no pool ran).

    Time in ``WorkerPool.run`` and the rest of ``run_campaign`` (the
    merge) come from the coordinator's spans; the first campaign of
    the cycle is the cold one and is left out.
    """
    if cycle is None or recorder is None:
        return {name: 0.0 for name in PARALLEL_LAYERS}
    stats = cycle["stats"]
    warm = cycle["warm"]
    runs = recorder.durations("parallel.run")[1:]
    campaigns = recorder.durations("parallel.campaign")[1:]
    return {
        "parallel.pool_start_s": cycle["pool_start_s"],
        "parallel.run_s": median(runs) / 1e9,
        "parallel.merge_s": median([c - r for c, r in zip(campaigns, runs)]) / 1e9,
        "parallel.shard_campaign_s": median(
            [s for c in warm for s in c["shard_campaign_s"]]
        ),
        "parallel.warm_starts": stats["warm_starts"],
        "parallel.cold_builds": stats["cold_builds"],
        "parallel.utilization": stats["utilization"],
        "parallel.respawns": stats["respawns"],
    }


#: The RED action each pooled campaign probes with.
PROBE_ACTIONS = {"shadow-probe": "fetch", "mass-unbind": "unbind", "mass-rebind": "bind"}


class PooledWorkload:
    """Campaign rounds through one caller-owned, warm-starting WorkerPool."""

    workers = POOL_WORKERS

    def __init__(self) -> None:
        self.design = vendor("E-Link Smart")
        self.replica = SerialWorkload(
            self.design.name, replica_phase,
            households=partition(HOUSEHOLDS, POOL_WORKERS)[0],
        )

    def cycle(self, seed: int, tally: Tally, recorder: Optional[SpanRecorder] = None) -> dict:
        """Start a pool, run the rounds, close it.

        Set-up is the pool start plus the first (cold) campaign; every
        later campaign warm-starts from the workers' world images.
        Each campaign is reduced to a small record at once, so no
        merged snapshot outlives its campaign.
        """
        started = perf_counter()
        pool = WorkerPool(workers=POOL_WORKERS, warm_start=True)
        if recorder is not None:
            pool.run = recorder.wrap("parallel.run", pool.run)
        first: Dict[str, dict] = {}
        warm: List[dict] = []
        setup_s = 0.0
        try:
            pool.start()
            pool_start_s = perf_counter() - started
            for _ in range(POOL_ROUNDS):
                for campaign in POOL_CAMPAIGNS:
                    begun = perf_counter()
                    call = partial(
                        run_campaign, self.design, campaign=campaign,
                        households=HOUSEHOLDS, max_probes=POOL_PROBES,
                        workers=POOL_WORKERS, seed=seed, detect=True,
                        worker_pool=pool,
                    )
                    if recorder is not None:
                        call = recorder.wrap("parallel.campaign", call)
                    result = call()
                    wall = perf_counter() - begun
                    record = self._record(campaign, result, wall, tally, first)
                    if not setup_s:
                        setup_s = perf_counter() - started
                        continue
                    warm.append(record)
            stats = pool.stats()
        finally:
            pool.close()
        return {"setup_s": setup_s, "pool_start_s": pool_start_s,
                "warm": warm, "stats": stats}

    def _record(self, campaign: str, result: Any, wall: float, tally: Tally,
                first: Dict[str, dict]) -> dict:
        report = result.to_dict()
        tally.check(result.consistent, f"{campaign}: merged metrics consistent")
        tally.check(result.report.ids_probed == POOL_PROBES,
                    f"{campaign}: {result.report.ids_probed} probes issued")
        if campaign in first:
            tally.check(report == first[campaign],
                        f"{campaign}: warm to_dict() equals the first pass")
        else:
            first[campaign] = report
        accounting = RedAccounting.from_snapshot(result.snapshot["red"]["requests"])
        series = accounting.series().get((self.design.name, PROBE_ACTIONS[campaign]))
        warm_shards = [r for r in result.shard_results if r.world_source == "warm"]
        if len(warm_shards) == len(result.shard_results):
            reached = series.requests if series is not None else 0
            tally.ops(POOL_PROBES, POOL_PROBES - reached, f"{campaign} probes reached the cloud")
        shard_sketches = [
            RedAccounting.from_snapshot(r.obs_snapshot["red"]["requests"]).combined_sketch()
            for r in warm_shards
        ]
        authz = result.runtime_stats["authz_cache"]
        return {
            "campaign": campaign,
            "wall": wall,
            "probes": result.report.ids_probed,
            "p50": [sketch.quantile(0.50) for sketch in shard_sketches],
            "p99": [sketch.quantile(0.99) for sketch in shard_sketches],
            "errors": {
                code: count
                for s in accounting.series().values()
                for code, count in s.errors.items()
            },
            "restore_s": [r.world_seconds for r in warm_shards],
            "shard_campaign_s": [r.wall_seconds - r.world_seconds for r in warm_shards],
            "authz": authz,
            "state": result.state_counts,
            "detection": result.detection or {},
        }

    # -- untraced run ----------------------------------------------------------

    def measure(self, seed: int, seconds: float, tally: Tally) -> Tuple[dict, dict]:
        cycles = repeat_within(seconds, partial(self.cycle, seed, tally))
        rss = peak_rss_mb()
        warm = [c for cycle in cycles for c in cycle["warm"]]
        errors: Counter = Counter()
        for campaign in warm:
            errors.update(campaign["errors"])

        def best_per_campaign(key: str) -> float:
            """The best shard value of *key* per campaign, averaged over a round."""
            return statistics.mean(
                best([v for c in warm if c["campaign"] == campaign for v in c[key]])
                for campaign in POOL_CAMPAIGNS
            )

        metrics = {
            "setup_s": median([c["setup_s"] for c in cycles]),
            "us_per_req": median([c["wall"] / c["probes"] * 1e6 for c in warm]),
            "req_p50_us": best_per_campaign("p50"),
            "req_p99_us": best_per_campaign("p99"),
            "peak_rss_mb": rss,
            "campaign_s": median([c["wall"] for c in warm]),
        }
        info = {
            "cycles": len(cycles),
            "warm_campaigns": len(warm),
            "rejections": rejection_split(errors),
        }
        return metrics, info

    # -- traced run ------------------------------------------------------------

    def trace_cycle(self, seed: int, tally: Tally) -> Tuple[dict, SpanRecorder]:
        """A coordinator-traced pool cycle, then the in-process replica."""
        recorder = SpanRecorder()
        cycle = self.cycle(seed, tally, recorder)
        layers, replica_recorder = self.replica.trace_cycle(
            derive_shard_seed(seed, 0), tally
        )
        recorder.extend(replica_recorder)
        warm = cycle["warm"]
        errors: Counter = Counter()
        for campaign in warm:
            errors.update(campaign["errors"])
        lookups = sum(c["authz"]["lookups"] for c in warm)
        hits = sum(c["authz"]["hits"] for c in warm)
        state = warm[-1]["state"] if warm else {}
        layers.update(rejection_split(errors))
        layers.update(pool_layers(cycle, recorder))
        layers.update({
            "fleet.restore_s": median([s for c in warm for s in c["restore_s"]]),
            "authz.lookups": lookups,
            "authz.hit_rate": hits / lookups if lookups else 0.0,
            "authz.invalidations": sum(c["authz"]["invalidations"] for c in warm),
            "state.records": sum(s.get("records", 0) for s in state.values()),
            "state.mutations": sum(s.get("mutations", 0) for s in state.values()),
            "forensics.events": median([c["detection"].get("events", 0) for c in warm]),
            "detect.alerts": median([c["detection"].get("alerts", 0) for c in warm]),
        })
        return layers, recorder


WORKLOADS = {
    "unbind-sweep": SerialWorkload("OZWI", unbind_phase, unbind_reference),
    "fleet-soak": SerialWorkload("OZWI", soak_phase),
    "pooled-sweep": PooledWorkload(),
}
