"""Fleet integration: chaos-enabled, degradation-aware campaigns.

:func:`apply_chaos` wires one :class:`~repro.chaos.faults.FaultPlan`
into a live :class:`~repro.fleet.FleetDeployment`: the fault injector
goes onto the network seam, every household's device and app gets a
:class:`~repro.chaos.resilience.ResilientClient`, and any scheduled
:class:`~repro.chaos.faults.CloudRestart` is armed — the cloud's current
durable state is seeded into a journal (the PR 3 crash machinery) so
the restart recovers through the real
:func:`~repro.cloud.state.journal.recover_from_journal` replay path.

:func:`binding_liveness` is the degradation metric campaigns report
next to attack success: what fraction of households still hold their
binding, and what fraction of shadows the cloud still sees online.
:class:`ChaosSpec` is the picklable knob bundle the sharded parallel
engine forwards to workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.chaos.faults import FaultPlan, plan_from_name
from repro.chaos.injector import FaultInjector
from repro.chaos.resilience import DEFAULT_RESILIENCE, RetryPolicy
from repro.cloud.state.backends import MemoryBackend
from repro.cloud.state.journal import JournalRecovery, meta_entry, recover_from_journal
from repro.fleet import FleetDeployment


@dataclass(frozen=True)
class ChaosSpec:
    """Everything a worker needs to recreate one chaos setup (picklable).

    ``plan`` is a preset name from the catalog; the actual
    :class:`~repro.chaos.faults.FaultPlan` object is materialized inside
    each shard world, so every shard derives its fault RNG from its own
    shard seed and merged results stay worker-count independent.
    """

    plan: str
    intensity: float = 1.0
    resilience: bool = True

    def materialize(self) -> FaultPlan:
        """Resolve the named plan at this spec's intensity."""
        return plan_from_name(self.plan, self.intensity)


class ChaosController:
    """Handle on one fleet's active chaos: injector, clients, restarts."""

    def __init__(
        self, fleet: FleetDeployment, plan: FaultPlan, injector: FaultInjector
    ) -> None:
        self.fleet = fleet
        self.plan = plan
        self.injector = injector
        #: One entry per executed cloud restart (journal replay stats).
        self.recoveries: List[JournalRecovery] = []

    # -- cloud restarts ------------------------------------------------------

    def _arm_restarts(self) -> None:
        """Seed a journal with current state and schedule the crashes."""
        cloud = self.fleet.cloud
        backend = MemoryBackend()
        backend.append(meta_entry(cloud.design.name))
        for name, store in cloud.state_stores().items():
            if not store.durable:
                continue
            for record in store.snapshot_state():
                backend.append({"store": name, "op": "put", "record": record})
        cloud.attach_journal(backend, write_meta=False)
        env = self.fleet.env
        for restart in self.plan.restarts:
            delay = restart.at - env.now
            if delay < 0:
                continue
            env.after(delay, self._restart_cloud)

    def _restart_cloud(self) -> None:
        """Crash the cloud and recover its successor from the journal."""
        fleet = self.fleet
        cloud = fleet.cloud
        backend = cloud.journal_backend
        if backend is None:  # pragma: no cover - defensive
            return
        node_name, public_ip = cloud.node_name, cloud.public_ip
        cloud.close()  # shut down for good: the successor replaces it
        recovery = recover_from_journal(
            fleet.env, fleet.network, fleet.design, backend,
            node_name=node_name, public_ip=public_ip,
        )
        fleet.cloud = recovery.cloud
        self.recoveries.append(recovery)
        fleet.env.observer.count("chaos.cloud_restarts")
        # A restart severs every device's persistent connection: the
        # recovered cloud sees all shadows disconnected until the next
        # heartbeat, so notifying vendors tell each bound owner their
        # device went offline (the EventFeed channel under fault plans,
        # not just under attacks).  Sorted snapshot order keeps the
        # emitted event sequence deterministic.
        if recovery.cloud.design.notifies_user:
            for record in recovery.cloud.bindings.snapshot_state():
                recovery.cloud.notify(
                    record["user_id"],
                    "device-offline",
                    record["device_id"],
                    "cloud restarted; device connection lost",
                )

    # -- reporting -----------------------------------------------------------

    def resilience_stats(self) -> Dict[str, float]:
        """Summed client stats across every household's device and app."""
        totals: Dict[str, float] = {}
        for household in self.fleet.households:
            for owner in (household.device, household.app):
                client = getattr(owner, "_client", None)
                if client is None:
                    continue
                for key, value in client.stats.items():
                    totals[key] = totals.get(key, 0) + value
        return totals

    def summary(self) -> Dict[str, Any]:
        """Picklable run summary: plan, injector stats, restarts, clients."""
        return {
            "plan": self.plan.name,
            "injector": self.injector.summary(),
            "restarts": len(self.recoveries),
            "restart_entries_applied": sum(
                r.entries_applied for r in self.recoveries
            ),
            "resilience": self.resilience_stats(),
        }


def apply_chaos(
    fleet: FleetDeployment,
    spec: ChaosSpec,
    policy: Optional[RetryPolicy] = None,
) -> ChaosController:
    """Activate *spec* on *fleet*; returns the controller handle.

    Install order is part of the determinism contract: the injector's
    RNG forks off the fleet environment by plan name, each client's RNG
    forks by its node name — none of which consumes a draw from the main
    stream, so a chaos run's world is built identically to a calm one.
    """
    plan = spec.materialize()
    injector = FaultInjector(fleet.env, plan, cloud_node=fleet.cloud.node_name)
    fleet.network.add_fault_filter("chaos", injector)
    controller = ChaosController(fleet, plan, injector)
    if spec.resilience:
        chosen = policy if policy is not None else DEFAULT_RESILIENCE
        for household in fleet.households:
            household.device.enable_resilience(chosen)
            household.app.enable_resilience(chosen)
    if plan.restarts:
        controller._arm_restarts()
    return controller


def binding_liveness(fleet: FleetDeployment) -> Dict[str, float]:
    """How alive the fleet's bindings are right now.

    ``bound`` counts households whose cloud binding still names their
    own account; ``online`` counts shadows the cloud currently sees
    online (Figure 2's upper states).  Fractions are per-household, so
    per-shard dicts merge by summing the counts and recomputing.
    """
    bound = online = 0
    cloud = fleet.cloud
    for household in fleet.households:
        device_id = household.device.device_id
        if cloud.bound_user_of(device_id) == household.user_id:
            bound += 1
        if cloud.shadows.get(device_id).state.is_online:
            online += 1
    households = len(fleet.households)
    return {
        "households": households,
        "bound": bound,
        "online": online,
        "bound_fraction": bound / households if households else 0.0,
        "online_fraction": online / households if households else 0.0,
    }


def merge_liveness(per_shard: List[Dict[str, float]]) -> Dict[str, float]:
    """Fold per-shard liveness dicts (sum counts, recompute fractions)."""
    households = int(sum(entry.get("households", 0) for entry in per_shard))
    bound = int(sum(entry.get("bound", 0) for entry in per_shard))
    online = int(sum(entry.get("online", 0) for entry in per_shard))
    return {
        "households": households,
        "bound": bound,
        "online": online,
        "bound_fraction": bound / households if households else 0.0,
        "online_fraction": online / households if households else 0.0,
    }
