"""The one-record request path: read-time folding is exact.

The cloud hands each handled request to the observer as one record;
:class:`~repro.obs.runtime.Observability` folds pending records into
its message counters, RED/PDP sketches, SLO bins, profiler section and
tracer exchange leaves only when something reads them.  These tests pin
that the fold reproduces what per-request recording produced:

* three runs — an OZWI mass-unbind campaign with its phase spans, an
  E-Link Smart fleet that hits ``max_spans`` mid-run across a chaos
  cloud restart, and a warm-started shard — must match goldens in
  ``tests/goldens/fold/`` byte for byte (regenerate them, only for a
  deliberate behaviour change, with
  ``PYTHONPATH=src python -m tests.test_record_fold``);
* reads between requests, ``trace_messages=False`` and a warm-start
  restore each see exactly the records emitted before them;
* the benchmark's outside-in span wrappers (``perfbench/tracing.py``)
  still find one call per request at every layer they wrap.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import pathlib
import pickle

import pytest

from repro.attacks.campaign import campaign_mass_rebind, campaign_mass_unbind
from repro.chaos import ChaosSpec, apply_chaos
from repro.core.errors import RequestRejected
from repro.core.messages import UnbindMessage
from repro.fleet import FleetDeployment
from repro.obs import Observability, snapshot
from repro.vendors import vendor

ROOT = pathlib.Path(__file__).resolve().parent.parent
FOLD_DIR = ROOT / "tests" / "goldens" / "fold"


def wall_free(obs: Observability) -> str:
    """Everything deterministic an observed run leaves behind, as JSON."""
    red = {
        section: {
            f"{scope}|{action}": {
                "requests": series.requests,
                "errors": dict(sorted(series.errors.items())),
                "samples": series.sketch.count,
            }
            for (scope, action), series in sorted(accounting.series().items())
        }
        for section, accounting in (("requests", obs.red), ("pdp", obs.pdp_red))
    }
    document = {
        "snapshot": snapshot(obs, include_wall=False),
        "red": red,
        "slo_bins": {str(k): list(v) for k, v in sorted(obs.slo.bins().items())},
    }
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def run_mass_unbind() -> Observability:
    obs = Observability(trace_messages=True)
    fleet = FleetDeployment(vendor("OZWI"), households=4, seed=5, observer=obs)
    fleet.setup_all()
    fleet.run(12.0)
    campaign_mass_unbind(fleet, max_probes=48)
    assert obs.matches_audit(fleet.cloud.audit)
    return obs


def run_capped_restart() -> Observability:
    obs = Observability(trace_messages=True, max_spans=50)
    fleet = FleetDeployment(
        vendor("E-Link Smart"), households=3, seed=9, observer=obs
    )
    controller = apply_chaos(fleet, ChaosSpec(plan="cloud-restart"))
    fleet.setup_all()
    fleet.run(90.0)
    assert controller.summary()["restarts"] == 1
    assert obs.tracer.dropped > 0
    return obs


def run_warm_shard() -> Observability:
    source = FleetDeployment(
        vendor("OZWI"), households=4, seed=3,
        observer=Observability(trace_messages=True),
    )
    source.setup_all()
    source.run(12.0)
    image = pickle.loads(pickle.dumps(source.capture_image()))
    obs = Observability(trace_messages=True)
    fleet = FleetDeployment.from_image(image, observer=obs)
    campaign_mass_rebind(fleet, max_probes=24)
    assert obs.matches_audit(fleet.cloud.audit)
    return obs


RUNS = {
    "mass_unbind.json": run_mass_unbind,
    "capped_restart.json": run_capped_restart,
    "warm_shard.json": run_warm_shard,
}


@pytest.mark.parametrize("golden", sorted(RUNS))
def test_fold_matches_golden(golden):
    expected = (FOLD_DIR / golden).read_text(encoding="utf-8")
    assert wall_free(RUNS[golden]()) == expected, (
        f"{golden}: the folded observability drifted from its golden"
    )


def test_fold_goldens_exist_for_every_run():
    assert {path.name for path in FOLD_DIR.iterdir()} == set(RUNS)


def probe_fleet(households=6, seed=4, trace_messages=True, observed=True):
    obs = Observability(trace_messages=trace_messages) if observed else None
    fleet = FleetDeployment(
        vendor("OZWI"), households=households, seed=seed, observer=obs
    )
    fleet.setup_all()
    fleet.run(12.0)
    return obs, fleet


def send_probes(fleet, count):
    """Unbind probes sent the way the mass-unbind campaign sends them."""
    token = fleet.attacker_token()
    outcomes = []
    for candidate in itertools.islice(fleet.id_scheme.candidates(), count):
        try:
            fleet.network.request(
                "attacker:host", fleet.cloud.node_name,
                UnbindMessage(device_id=candidate, user_token=token),
            )
            outcomes.append("ok")
        except RequestRejected as exc:
            outcomes.append(exc.code)
    return outcomes


class TestReadTimeFold:
    def test_metrics_read_between_requests_sees_every_record(self):
        obs, fleet = probe_fleet()
        audit = fleet.cloud.audit
        token = fleet.attacker_token()
        requests = obs.red.total_requests()
        for candidate in itertools.islice(fleet.id_scheme.candidates(), 12):
            try:
                fleet.network.request(
                    "attacker:host", fleet.cloud.node_name,
                    UnbindMessage(device_id=candidate, user_token=token),
                )
            except RequestRejected:
                pass
            requests += 1
            assert obs.metrics.counter("cloud.audit.entries").total() == len(audit)
            assert obs.red.total_requests() == requests
            assert obs.pdp_red.total_requests() == requests
            assert obs.profiler.calls["cloud.handle_packet"] == requests
            assert obs.matches_audit(audit)

    def test_never_folds_inside_a_request(self, monkeypatch):
        obs, fleet = probe_fleet(households=3)
        fold = obs.fold
        inside = []

        def watched_fold():
            inside.append(fleet.cloud.open_record is not None)
            fold()

        monkeypatch.setattr(obs, "fold", watched_fold)
        obs._tracer._before_write = watched_fold
        campaign_mass_unbind(fleet, max_probes=16)
        fleet.run(30.0)
        assert obs.matches_audit(fleet.cloud.audit)
        assert inside and not any(inside)

    def test_trace_messages_off_keeps_aggregates_drops_leaves(self):
        traced, fleet_traced = probe_fleet(trace_messages=True)
        quiet, fleet_quiet = probe_fleet(trace_messages=False)
        assert send_probes(fleet_traced, 40) == send_probes(fleet_quiet, 40)
        assert quiet.matches_audit(fleet_quiet.cloud.audit)
        assert quiet.metrics.snapshot() == traced.metrics.snapshot()
        assert quiet.slo.snapshot() == traced.slo.snapshot()
        assert quiet.red.total_requests() == traced.red.total_requests()
        assert quiet.red.total_errors() == traced.red.total_errors()
        kinds = {span.kind for span in quiet.tracer.walk()}
        assert "exchange" not in kinds
        assert kinds and "exchange" in {span.kind for span in traced.tracer.walk()}

    def test_restore_discards_records_emitted_before_it(self):
        _, fleet = probe_fleet(households=4)
        image = fleet.capture_image()
        obs, other = probe_fleet(households=2, seed=8)
        send_probes(other, 10)
        assert obs._pending, "the probes' records should still be pending"
        warm = FleetDeployment.from_image(image, observer=obs)
        assert not obs._pending
        assert obs.metrics.snapshot() == image.metrics
        # the discarded records still reached the tracer and RED in order
        assert obs.red.total_requests() >= 10
        campaign_mass_unbind(warm, max_probes=8)
        assert obs.matches_audit(warm.cloud.audit)


def load_perfbench_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_wrap_points_see_every_request():
    tracing = load_perfbench_tracing()
    probes = 200
    obs, fleet = probe_fleet(households=20, seed=11)
    assert all(hasattr(obs, hook) for hook in tracing.OBS_HOOKS)
    fleet.attacker_token()  # log the attacker in before the wrappers go on
    recorder = tracing.SpanRecorder()
    tracing.instrument(recorder, fleet, obs)
    audit_before = len(fleet.cloud.audit)
    outcomes = send_probes(fleet, probes)
    counts = {name: row[0] for name, row in recorder.summary().items()}
    for layer in ("net.request", "cloud.handle", "pdp.decide",
                  "audit.record", "forensics.record"):
        assert counts[layer] == probes, layer
    _, plain = probe_fleet(households=20, seed=11)
    plain.attacker_token()
    plain_before = len(plain.cloud.audit)
    assert send_probes(plain, probes) == outcomes
    assert (
        [e.outcome for e in fleet.cloud.audit.entries[audit_before:]]
        == [e.outcome for e in plain.cloud.audit.entries[plain_before:]]
    )
    assert len(fleet.cloud.forensics) == len(plain.cloud.forensics)
    assert obs.matches_audit(fleet.cloud.audit)


if __name__ == "__main__":
    FOLD_DIR.mkdir(parents=True, exist_ok=True)
    for name, run in sorted(RUNS.items()):
        (FOLD_DIR / name).write_text(wall_free(run()), encoding="utf-8")
        print(f"wrote {FOLD_DIR / name}")
