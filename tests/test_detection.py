"""Defender-side observability: traces, forensics, detectors, scoring."""

import json

import pytest

from repro.analysis.stealth import probe_attack_detectability
from repro.chaos import ChaosSpec, FaultInjector, FaultPlan, LinkFault, apply_chaos
from repro.cli import main
from repro.cloud.state import build_snapshot as snapshot
from repro.cloud.policy import DeviceAuthMode, VendorDesign
from repro.cloud.service import CloudService
from repro.core.messages import BindMessage, Response
from repro.fleet import FleetDeployment
from repro.net.network import Network
from repro.obs.detect import (
    Alert,
    DetectionPipeline,
    ForensicEvent,
    ForensicTimeline,
    merge_detection,
    score_detection,
)
from repro.obs.detect.detectors import (
    BindStormDetector,
    IdEnumerationDetector,
    RebindHijackDetector,
    RogueUnbindDetector,
    ShadowProbeDetector,
)
from repro.obs.detect.harness import detection_matrix, run_detection
from repro.obs.trace import TraceContext
from repro.parallel import run_campaign
from repro.scenario import Deployment
from repro.sim.environment import Environment
from repro.vendors import vendor


def make_design(**overrides):
    defaults = dict(
        name="T", device_type="smart-plug",
        device_auth=DeviceAuthMode.DEV_ID, id_scheme="serial-number",
    )
    defaults.update(overrides)
    return VendorDesign(**defaults)


def forensic_event(seq=0, **overrides):
    defaults = dict(
        seq=seq, time=1.0, device_id="D1", kind="bind", summary="Bind:(DevId)",
        source="attacker:host", origin_ip="198.51.100.99",
        trace_id=f"T{seq:06d}", span_id=f"s{seq:06d}",
        outcome="ok", actor="mallory", bound_before="",
    )
    defaults.update(overrides)
    return ForensicEvent(**defaults)


class TestTraceContext:
    def test_root_and_child_chain(self):
        root = TraceContext(trace_id="T1", span_id="s1", origin="app:a")
        assert root.is_root
        child = root.child("s2")
        assert not child.is_root
        assert child.trace_id == "T1"
        assert child.parent_id == "s1"
        assert child.origin == "app:a"
        assert child.short() == "T1/s2"


class TestTracePropagation:
    def collect(self, network):
        exchanges = []
        network.add_tap(exchanges.append)
        return exchanges

    def test_requests_mint_fresh_root_traces(self):
        env = Environment(seed=0)
        network = Network(env)
        network.add_internet_node("cloud", lambda p: Response(), "203.0.113.1")
        network.add_node("app:a", wan_ip="198.51.100.1")
        taps = self.collect(network)
        network.request("app:a", "cloud", BindMessage(device_id="d"))
        network.request("app:a", "cloud", BindMessage(device_id="d"))
        traces = [ex.request.trace for ex in taps]
        assert all(t is not None and t.is_root for t in traces)
        assert traces[0].trace_id != traces[1].trace_id
        assert traces[0].origin == "app:a"

    def test_nested_request_becomes_child_span(self):
        # TP-LINK is the device-initiated binding (Figure 4b): the app
        # delivers credentials to the device, whose handler calls the
        # cloud — that inner Bind must join the outer causal chain.
        world = Deployment(vendor("TP-LINK"), seed=33)
        exchanges = self.collect(world.network)
        assert world.victim_full_setup()
        device = world.victim.device.node_name
        inner = [
            ex for ex in exchanges
            if ex.request.src == device
            and isinstance(ex.request.message, BindMessage)
        ]
        assert inner, "device never sent its Bind"
        bind_trace = inner[0].request.trace
        assert bind_trace is not None and not bind_trace.is_root
        outer = [
            ex for ex in exchanges
            if ex.request.dst == device
            and ex.request.trace is not None
            and ex.request.trace.span_id == bind_trace.parent_id
        ]
        assert outer, "no enclosing request owns the Bind's parent span"
        assert outer[0].request.trace.trace_id == bind_trace.trace_id

    def test_duplicate_delivery_reuses_the_same_trace(self):
        fleet = FleetDeployment(make_design(), households=1, seed=3)
        plan = FaultPlan(
            name="dup-everything",
            link_faults=(LinkFault(dst="cloud", duplicate=1.0),),
        )
        fleet.network.add_fault_filter("chaos", FaultInjector(fleet.env, plan))
        exchanges = self.collect(fleet.network)
        fleet.households[0].app.login()
        login = [ex for ex in exchanges if ex.request.dst == fleet.cloud.node_name]
        assert len(login) == 2  # original + at-least-once duplicate
        first, dup = (ex.request.trace for ex in login)
        assert first == dup  # a retry of one cause, not a new cause

    def test_reordered_broadcast_members_share_one_trace(self):
        class Reverse:
            def on_request(self, src, dst, now, timeout=None):
                pass

            def should_duplicate(self, src, dst, now):
                return False

            def deliver_order(self, src, members, now):
                return list(reversed(members))

        env = Environment(seed=0)
        network = Network(env)
        network.create_lan("lan", "ssid", "pw", "203.0.113.7")
        for name in ("a", "b", "c"):
            network.add_node(name, handler=lambda p: Response())
            network.join_lan(name, "lan", "pw")
        network.add_fault_filter("reorder", Reverse())
        exchanges = network.broadcast("a", BindMessage(device_id="d"))
        assert [ex.request.dst for ex in exchanges] == ["c", "b"]
        traces = [ex.request.trace for ex in exchanges]
        assert len({t.trace_id for t in traces}) == 1  # one causal tree
        assert len({t.span_id for t in traces}) == 2  # distinct hops
        assert all(t.parent_id is not None for t in traces)


class TestForensicTimeline:
    def record(self, store, seq=0, **overrides):
        event = forensic_event(seq=seq, **overrides)
        return store.record(**{
            k: v for k, v in store.to_record(event).items() if k != "seq"
        })

    def test_record_appends_and_indexes_per_device(self):
        store = ForensicTimeline()
        self.record(store, device_id="D1")
        self.record(store, device_id="D2")
        self.record(store, device_id="D1", kind="unbind")
        assert len(store) == 3
        assert [e.seq for e in store.events()] == [0, 1, 2]
        assert [e.kind for e in store.timeline("D1")] == ["bind", "unbind"]

    def test_sinks_fire_on_live_record_only(self):
        store = ForensicTimeline()
        seen = []
        store.add_sink(seen.append)
        self.record(store)
        assert len(seen) == 1
        fresh = ForensicTimeline()
        fresh.add_sink(seen.append)
        for record in store.snapshot_state():
            fresh.apply_record(record)  # replay/restore: no sink
        assert len(seen) == 1

    def test_snapshot_apply_round_trip(self):
        store = ForensicTimeline()
        self.record(store, device_id="D1")
        self.record(store, device_id="D2", outcome="unknown-device")
        fresh = ForensicTimeline()
        for record in store.snapshot_state():
            fresh.apply_record(record)
        assert fresh.events() == store.events()
        assert fresh.timeline("D2") == store.timeline("D2")
        # further live recording continues the sequence, not restarts it
        self.record(fresh, device_id="D3")
        assert fresh.events()[-1].seq == 2

    def test_timeline_is_append_only_evidence(self):
        store = ForensicTimeline()
        self.record(store)
        assert store.discard_record("e:00000000") is False
        assert store.find_record("e:00000000")["device_id"] == "D1"
        assert store.find_record("e:00000099") is None


class TestEventFeedRestartRoundTrip:
    def notifying(self):
        base = vendor("E-Link Smart")
        values = dict(base.__dict__)
        values["name"] = "E-Link Smart+feed"
        values["notifies_user"] = True
        return VendorDesign(**values)

    def test_unread_events_and_cursors_survive_restart(self):
        world = Deployment(self.notifying(), seed=33)
        assert world.victim_full_setup()
        victim = world.victim
        assert victim.app.poll_events()  # drains; cursor now mid-stream
        victim.app.remove_device(victim.device.device_id)  # unread event
        data = snapshot(world.cloud)
        world.cloud.shutdown()
        world.cloud = CloudService.restore(
            world.env, world.network, world.design, data
        )
        kinds = [e["kind"] for e in victim.app.poll_events()]
        assert "binding-unbound" in kinds  # the unread event survived
        assert "binding-created" not in kinds  # the cursor survived too
        assert victim.app.poll_events() == []


class TestDetectors:
    def test_shadow_probe_pins_first_status_channel(self):
        det = ShadowProbeDetector()
        legit = forensic_event(0, kind="status", source="device:d1", actor="")
        assert det.process(legit) == []
        probe = forensic_event(1, kind="fetch", source="attacker:host")
        alerts = det.process(probe)
        assert [a.severity for a in alerts] == ["critical"]
        bounced = forensic_event(
            2, kind="status", source="attacker:host", outcome="bad-sig"
        )
        assert [a.severity for a in det.process(bounced)] == ["warning"]
        assert det.process(forensic_event(3, kind="status", source="device:d1")) == []

    def test_bind_storm_fires_at_threshold_with_full_evidence(self):
        det = BindStormDetector(threshold=3)
        alerts = []
        for seq, dev in enumerate(["D1", "D2", "D3", "D4"]):
            alerts.extend(det.process(forensic_event(seq, device_id=dev)))
        assert [a.severity for a in alerts] == ["critical", "warning"]
        assert alerts[0].evidence == ("T000000", "T000001", "T000002")

    def test_household_binding_two_devices_stays_silent(self):
        det = BindStormDetector(threshold=4)
        for seq, dev in enumerate(["D1", "D2"]):
            assert det.process(
                forensic_event(seq, device_id=dev, source="app:alice")
            ) == []

    def test_rogue_unbind_flags_non_owner_only(self):
        det = RogueUnbindDetector()
        owner = forensic_event(0, kind="unbind", actor="alice", bound_before="alice")
        assert det.process(owner) == []
        bare = forensic_event(1, kind="unbind", actor="", bound_before="alice")
        assert [a.severity for a in det.process(bare)] == ["critical"]
        blocked = forensic_event(
            2, kind="unbind", actor="mallory", bound_before="alice",
            outcome="not-bound-user",
        )
        assert [a.severity for a in det.process(blocked)] == ["warning"]

    def test_rebind_hijack_needs_an_existing_owner(self):
        det = RebindHijackDetector()
        fresh = forensic_event(0, actor="alice", bound_before="")
        assert det.process(fresh) == []
        hijack = forensic_event(1, actor="mallory", bound_before="alice")
        assert [a.severity for a in det.process(hijack)] == ["critical"]

    def test_id_enumeration_fires_once_at_threshold(self):
        det = IdEnumerationDetector(threshold=3)
        alerts = []
        for seq in range(5):
            alerts.extend(det.process(forensic_event(
                seq, device_id=f"X{seq}", outcome="unknown-device",
            )))
        assert len(alerts) == 1
        assert alerts[0].rule == "id-enumeration"
        assert len(alerts[0].evidence) == 3


class TestPipeline:
    def test_seq_dedup_prevents_double_alerts(self):
        pipeline = DetectionPipeline()
        hijack = forensic_event(0, actor="mallory", bound_before="alice")
        pipeline.process(hijack)
        pipeline.process(hijack)  # journal replay repeats the seq
        assert len(pipeline.alerts) == 1

    def test_attach_catches_up_then_streams(self):
        store = ForensicTimeline()
        store.record(
            time=0.0, device_id="D1", kind="bind", summary="Bind",
            source="attacker:host", origin_ip="9.9.9.9", trace_id="T1",
            span_id="s1", outcome="ok", actor="mallory", bound_before="alice",
        )
        pipeline = DetectionPipeline()

        class CloudStub:
            forensics = store

        pipeline.attach(CloudStub())
        assert len(pipeline.alerts) == 1  # existing history processed
        store.record(
            time=1.0, device_id="D1", kind="unbind", summary="Unbind",
            source="attacker:host", origin_ip="9.9.9.9", trace_id="T2",
            span_id="s2", outcome="ok", actor="mallory", bound_before="alice",
        )
        assert len(pipeline.alerts) == 2  # streamed live
        pipeline.detach()
        store.record(
            time=2.0, device_id="D1", kind="unbind", summary="Unbind",
            source="attacker:host", origin_ip="9.9.9.9", trace_id="T3",
            span_id="s3", outcome="ok", actor="mallory", bound_before="alice",
        )
        assert len(pipeline.alerts) == 2  # detached


class TestScoring:
    def alert(self, source="attacker:host", trace="T000000", severity="critical"):
        return Alert(
            rule="rebind-hijack", severity=severity, time=1.0,
            device_id="D1", source=source, reason="r", evidence=(trace,),
        )

    def test_precision_recall_and_coverage(self):
        events = [
            forensic_event(0, source="attacker:host"),
            forensic_event(1, source="app:alice", actor="alice"),
            forensic_event(2, source="attacker:host"),
        ]
        alerts = [self.alert(trace="T000000"), self.alert(source="app:alice")]
        score = score_detection(events, alerts)
        assert score["malicious_events"] == 2
        assert score["true_alerts"] == 1
        assert score["false_alerts"] == 1
        assert score["precision"] == pytest.approx(0.5)
        assert score["recall"] == pytest.approx(0.5)  # T000002 never cited
        assert score["false_positive_rate"] == pytest.approx(1.0)

    def test_empty_inputs_score_perfect(self):
        score = score_detection([], [])
        assert score["precision"] == 1.0
        assert score["recall"] == 1.0
        assert score["time_to_detect"] is None

    def test_merge_sums_counts_and_takes_min_ttd(self):
        a = score_detection(
            [forensic_event(0, source="attacker:host", time=5.0)],
            [self.alert(trace="T000000")],
        )
        b = score_detection([forensic_event(0, source="app:alice", actor="alice")], [])
        merged = merge_detection([a, b])
        assert merged["events"] == 2
        assert merged["malicious_events"] == 1
        assert merged["recall"] == 1.0
        assert merged["time_to_detect"] == a["time_to_detect"]
        assert merge_detection([b])["time_to_detect"] is None


class TestCampaignDetection:
    def test_mass_rebind_detection_scores_perfectly_on_ozwi(self):
        result = run_campaign(
            vendor("OZWI"), campaign="mass-rebind",
            households=4, max_probes=8, workers=1, seed=3, detect=True,
        )
        score = result.detection
        assert score is not None
        assert score["precision"] == 1.0
        assert score["recall"] == 1.0
        assert score["alerts_by_rule"].get("rebind-hijack", 0) > 0

    def test_detection_is_read_only(self):
        def run(detect):
            result = run_campaign(
                vendor("OZWI"), campaign="binding-dos",
                households=6, max_probes=12, workers=1, seed=7, detect=detect,
            )
            return result.report, result.state_counts, result.audit_entries_total

        plain_report, plain_counts, plain_audit = run(False)
        detect_report, detect_counts, detect_audit = run(True)
        assert detect_report == plain_report
        assert detect_counts == plain_counts
        assert detect_audit == plain_audit

    def test_sharded_detection_merges_bit_identically(self):
        def run(workers):
            result = run_campaign(
                vendor("OZWI"), campaign="mass-unbind",
                households=8, max_probes=16, workers=workers, shards=2,
                seed=11, detect=True,
            )
            return json.dumps(result.detection, sort_keys=True)

        assert run(1) == run(2)

    def test_harness_covers_the_table2_taxonomy(self):
        runs = run_detection(
            vendor("OZWI"), households=4, max_probes=8, seed=3,
            run_seconds=6.0,
        )
        matrix = detection_matrix(runs)
        assert set(matrix) == {"A1", "A2", "A3", "A4"}
        for attack_id, row in matrix.items():
            assert row["recall"] >= 0.5, attack_id
            assert row["precision"] >= 0.5, attack_id


class TestStealthCloudAlerts:
    def test_hijack_lights_up_the_defender_dashboard(self):
        report = probe_attack_detectability(vendor("E-Link Smart"), "A4-1", seed=33)
        assert report.attack_outcome == "yes"
        assert any(a.startswith("rebind-hijack:") for a in report.cloud_alerts)
        # victim-side stealth is judged without the defender's alerts
        assert "cloud-alerts=" in report.line()


class TestChaosOfflineNotifications:
    def test_cloud_restart_notifies_owners_device_offline(self):
        design = make_design(notifies_user=True)
        fleet = FleetDeployment(design, households=2, seed=3)
        controller = apply_chaos(fleet, ChaosSpec(plan="cloud-restart"))
        assert fleet.setup_all() == 2
        for household in fleet.households:
            household.app.poll_events()  # drain setup-time events
        fleet.run(120.0)  # crash at t=60, journal recovery
        assert len(controller.recoveries) == 1
        for household in fleet.households:
            kinds = [e["kind"] for e in household.app.poll_events()]
            assert "device-offline" in kinds


class TestDetectCli:
    def run(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_detect_text_report(self, capsys):
        code, out = self.run(
            ["detect", "--households", "2", "--probes", "4", "--attack", "A4"],
            capsys,
        )
        assert code == 0
        assert "A4 (mass-rebind)" in out
        assert "precision" in out

    def test_detect_json_matrix(self, capsys):
        code, out = self.run(
            ["detect", "--households", "2", "--probes", "4", "--attack", "A1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        matrix = json.loads(out)
        assert set(matrix) == {"A1"}
        assert matrix["A1"]["campaign"] == "shadow-probe"

    def test_chaos_json_format(self, capsys):
        code, out = self.run(
            ["chaos", "run", "lossy-lan", "--households", "2",
             "--seconds", "30", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["plan"] == "lossy-lan"
        assert "liveness" in payload and "injector" in payload

    def test_campaign_detect_flag(self, capsys):
        code, out = self.run(
            ["campaign", "--households", "4", "--probes", "8",
             "--mode", "mass-rebind", "--detect"],
            capsys,
        )
        assert code == 0
        assert "detection:" in out
