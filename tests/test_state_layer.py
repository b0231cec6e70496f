"""Tests for the unified cloud state layer (repro.cloud.state).

Covers v2 save -> load -> save byte equality, the snapshot version
check, journal replay after a truncated tail, and clone-built vs
replay-built fleet state equality — plus unit coverage of the record
primitives and backends.
"""

import json

import pytest

from repro.cloud.service import CloudService
from repro.cloud.sharing import ShareStore
from repro.cloud.state import (
    JournalBackend,
    JournalCrash,
    MemoryBackend,
    RecordStoreBase,
    StateStore,
    build_snapshot,
    merge_state_counts,
    meta_entry,
    recover_from_journal,
    snapshot_store_counts,
)
from repro.core.errors import ConfigurationError
from repro.fleet import FleetDeployment
from repro.net.network import Network
from repro.scenario import Deployment
from repro.sim.environment import Environment
from repro.vendors import vendor


def build_world(design_name="D-LINK", seed=81):
    world = Deployment(vendor(design_name), seed=seed)
    assert world.victim_full_setup()
    world.victim.app.set_schedule(world.victim.device.device_id, {"on": "19:00"})
    return world


def stores_json(data) -> str:
    """Canonical bytes of a snapshot's ``stores`` section only."""
    return json.dumps(data["stores"], sort_keys=True)


# ---------------------------------------------------------------------------
# protocol conformance
# ---------------------------------------------------------------------------


class TestProtocolConformance:
    def test_every_cloud_store_satisfies_the_protocol(self):
        world = Deployment(vendor("OZWI"), seed=1)
        stores = world.cloud.state_stores()
        assert set(stores) == {
            "accounts", "tokens", "devices", "bindings",
            "shares", "shadows", "relay", "events", "forensics",
        }
        for name, store in stores.items():
            assert isinstance(store, StateStore), name

    def test_durable_flags(self):
        world = Deployment(vendor("OZWI"), seed=1)
        stores = world.cloud.state_stores()
        assert stores["shadows"].durable is False
        for name, store in stores.items():
            if name != "shadows":
                assert store.durable is True, name

    def test_state_names_match_section_names(self):
        world = Deployment(vendor("OZWI"), seed=1)
        for name, store in world.cloud.state_stores().items():
            assert store.state_name == name


# ---------------------------------------------------------------------------
# record primitives (clone_record / clone_into / find / discard)
# ---------------------------------------------------------------------------


class TestRecordPrimitives:
    def populated(self):
        store = ShareStore()
        store.grant("dev-1", "alice", "bob", 10.0)
        store.grant("dev-1", "alice", "carol", 11.0)
        store.grant("dev-2", "dan", "erin", 12.0)
        return store

    def test_find_record_hits_and_misses(self):
        store = self.populated()
        record = store.find_record("dev-1:bob")
        assert record == {
            "device_id": "dev-1", "owner": "alice",
            "grantee": "bob", "granted_at": 10.0,
        }
        assert store.find_record("dev-9:nobody") is None

    def test_clone_record_transforms_and_upserts(self):
        store = self.populated()
        cloned = store.clone_record(
            "dev-1:bob", lambda r: {**r, "grantee": "frank"}
        )
        assert cloned["grantee"] == "frank"
        assert store.is_granted("dev-1", "frank")
        assert store.is_granted("dev-1", "bob")  # source untouched

    def test_clone_record_into_other_store(self):
        src, dst = self.populated(), ShareStore()
        src.clone_record("dev-2:erin", into=dst)
        assert dst.is_granted("dev-2", "erin")
        assert dst.record_count() == 1

    def test_clone_record_missing_key_raises(self):
        store = self.populated()
        with pytest.raises(ConfigurationError):
            store.clone_record("dev-9:ghost")

    def test_clone_into_copies_everything(self):
        src, dst = self.populated(), ShareStore()
        assert src.clone_into(dst) == 3
        assert dst.snapshot_state() == src.snapshot_state()

    def test_clone_into_transform_none_skips(self):
        src, dst = self.populated(), ShareStore()
        written = src.clone_into(
            dst, lambda r: r if r["device_id"] == "dev-1" else None
        )
        assert written == 2
        assert dst.devices_shared_with("erin") == []

    def test_discard_record_removes_and_reports(self):
        store = self.populated()
        assert store.discard_record("dev-1:bob") is True
        assert store.discard_record("dev-1:bob") is False
        assert not store.is_granted("dev-1", "bob")

    def test_default_find_record_is_a_linear_scan(self):
        class MinimalStore(RecordStoreBase):
            state_name = "minimal"

            def __init__(self):
                self._rows = {}

            def to_record(self, obj):
                return dict(obj)

            def from_record(self, record):
                return dict(record)

            def record_key(self, record):
                return record["k"]

            def record_count(self):
                return len(self._rows)

            def snapshot_state(self):
                return [self._rows[k] for k in sorted(self._rows)]

            def apply_record(self, record):
                self._rows[record["k"]] = dict(record)
                self._record_put(record)
                return record

            def discard_record(self, key):
                existed = self._rows.pop(key, None) is not None
                if existed:
                    self._record_del(key)
                return existed

        store = MinimalStore()
        store.apply_record({"k": "a", "v": 1})
        store.apply_record({"k": "b", "v": 2})
        assert store.find_record("b") == {"k": "b", "v": 2}
        assert store.find_record("z") is None
        assert store.merge_counts() == {"records": 2, "mutations": 2}

    def test_merge_state_counts_sums_across_shards(self):
        merged = merge_state_counts([
            {"bindings": {"records": 3, "mutations": 5}},
            {"bindings": {"records": 2, "mutations": 1},
             "events": {"records": 4, "mutations": 4}},
        ])
        assert merged == {
            "bindings": {"records": 5, "mutations": 6},
            "events": {"records": 4, "mutations": 4},
        }


# ---------------------------------------------------------------------------
# snapshot v2 round trips
# ---------------------------------------------------------------------------


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("design_name", ["OZWI", "D-LINK", "Belkin"])
    @pytest.mark.parametrize("seed", [11, 47])
    def test_save_load_save_is_byte_identical(self, design_name, seed):
        world = build_world(design_name, seed=seed)
        world.cloud.shares.grant(
            world.victim.device.device_id, world.victim.user_id,
            world.attacker_party.user_id, world.env.now,
        )
        world.cloud.notify(
            world.victim.user_id, "binding-created",
            world.victim.device.device_id,
        )
        first = json.dumps(build_snapshot(world.cloud), sort_keys=True)
        world.cloud.shutdown()
        fresh = CloudService.restore(
            world.env, world.network, world.design, json.loads(first)
        )
        second = json.dumps(build_snapshot(fresh), sort_keys=True)
        assert second == first

    def test_pubkey_design_round_trips(self):
        from repro.secure import SECURE_PUBKEY

        world = Deployment(SECURE_PUBKEY, seed=23)
        assert world.victim_full_setup()
        first = json.dumps(build_snapshot(world.cloud), sort_keys=True)
        world.cloud.shutdown()
        fresh = CloudService.restore(
            world.env, world.network, world.design, json.loads(first)
        )
        assert json.dumps(build_snapshot(fresh), sort_keys=True) == first


# ---------------------------------------------------------------------------
# snapshot versions
# ---------------------------------------------------------------------------


class TestMigration:
    def test_unknown_version_is_rejected(self):
        for version in (1, 99):
            with pytest.raises(ConfigurationError, match=f"version {version}"):
                snapshot_store_counts({"version": version, "stores": {}})


# ---------------------------------------------------------------------------
# journal backends
# ---------------------------------------------------------------------------


class TestJournalBackend:
    def test_append_and_replay(self):
        backend = JournalBackend()
        backend.append({"store": "x", "op": "put", "record": {"k": 1}})
        backend.append({"store": "x", "op": "del", "key": "k"})
        assert backend.entry_count() == 2
        assert backend.entries()[1] == {"store": "x", "op": "del", "key": "k"}
        assert backend.torn_tail is False
        assert backend.size_bytes() > 0

    def test_memory_and_journal_backends_record_identically(self):
        memory, journal = MemoryBackend(), JournalBackend()
        entries = [
            {"store": "x", "op": "put", "record": {"k": i}} for i in range(4)
        ]
        for entry in entries:
            memory.append(entry)
            journal.append(entry)
        assert memory.entries() == journal.entries() == entries

    def test_crash_mid_write_tears_only_the_tail(self):
        backend = JournalBackend()
        for i in range(3):
            backend.append({"store": "x", "op": "put", "record": {"k": i}})
        backend.crash_mid_write()
        survivors = backend.entries()
        assert [e["record"]["k"] for e in survivors] == [0, 1]
        assert backend.torn_tail is True
        assert backend.dropped_bytes > 0

    def test_fail_after_appends_raises_and_leaves_a_torn_tail(self):
        backend = JournalBackend(fail_after_appends=3)
        backend.append({"store": "x", "op": "put", "record": {"k": 0}})
        backend.append({"store": "x", "op": "put", "record": {"k": 1}})
        with pytest.raises(JournalCrash):
            backend.append({"store": "x", "op": "put", "record": {"k": 2}})
        assert [e["record"]["k"] for e in backend.entries()] == [0, 1]
        assert backend.torn_tail is True

    def test_mid_journal_corruption_is_an_error(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"store": "x", "op": "put", "record": {}}) + "\n"
            + "{corrupt\n"
            + json.dumps({"store": "x", "op": "del", "key": "k"}) + "\n"
        )
        backend = JournalBackend(str(path))
        with pytest.raises(ConfigurationError):
            backend.entries()

    def test_file_backed_journal_survives_a_new_process(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        first = JournalBackend(path)
        first.append({"store": "x", "op": "put", "record": {"k": 1}})
        # a brand-new backend on the same path models post-crash recovery
        second = JournalBackend(path)
        assert second.entries() == first.entries()
        second.clear()
        assert JournalBackend(path).entry_count() == 0


# ---------------------------------------------------------------------------
# journaled restarts (checkpoint + WAL end to end)
# ---------------------------------------------------------------------------


def attach_checkpointed_journal(world, backend):
    """Seed *backend* with a checkpoint of the world, then attach it.

    The deployment builder mutates the cloud before a journal can be
    attached, so tests seed the backend with one full-record ``put`` per
    existing record — the WAL equivalent of a base snapshot — and let
    every later mutation append live entries.
    """
    backend.append(meta_entry(world.design.name))
    for name, store in world.cloud.state_stores().items():
        if not store.durable:
            continue
        for record in store.snapshot_state():
            backend.append({"store": name, "op": "put", "record": record})
    world.cloud.attach_journal(backend)


class TestJournaledRestart:
    def test_recovery_replays_the_whole_history(self):
        world = Deployment(vendor("D-LINK"), seed=81)
        backend = JournalBackend()
        attach_checkpointed_journal(world, backend)
        assert world.victim_full_setup()
        world.victim.app.set_schedule(world.victim.device.device_id, {"on": "19:00"})
        expected = stores_json(build_snapshot(world.cloud))
        world.cloud.shutdown()

        recovery = recover_from_journal(
            world.env, world.network, world.design, backend
        )
        assert recovery.torn_tail is False
        assert recovery.entries_applied > 0
        assert stores_json(build_snapshot(recovery.cloud)) == expected
        # the recovered cloud is live: heartbeats restore full control
        world.cloud = recovery.cloud
        world.run_heartbeats(2)
        assert world.shadow_state() == "control"
        assert world.victim_can_control()

    def test_recovery_skips_a_truncated_tail(self):
        world = Deployment(vendor("D-LINK"), seed=81)
        backend = JournalBackend()
        attach_checkpointed_journal(world, backend)
        assert world.victim_full_setup()
        expected = stores_json(build_snapshot(world.cloud))
        # one more durable mutation, then the power cut tears its entry
        world.cloud.relay.set_schedule(
            world.victim.device.device_id, {"on": "21:00"}
        )
        backend.crash_mid_write()
        world.cloud.shutdown()

        recovery = recover_from_journal(
            world.env, world.network, world.design, backend
        )
        assert recovery.torn_tail is True
        assert recovery.dropped_bytes > 0
        assert "torn tail" in recovery.line()
        # the unacknowledged schedule write is gone; everything else holds
        assert stores_json(build_snapshot(recovery.cloud)) == expected

    def test_mid_write_crash_still_recovers_all_bindings(self):
        world = Deployment(vendor("OZWI"), seed=7)
        backend = JournalBackend()
        attach_checkpointed_journal(world, backend)
        assert world.victim_full_setup()
        bindings_before = world.cloud.bindings.snapshot_state()
        # the very next journal append dies halfway through the write
        backend.fail_after_appends = backend.entry_count() + 1
        with pytest.raises(JournalCrash):
            world.cloud.relay.set_schedule(
                world.victim.device.device_id, {"on": "22:00"}
            )
        world.cloud.shutdown()

        recovery = recover_from_journal(
            world.env, world.network, world.design, backend
        )
        assert recovery.torn_tail is True
        assert recovery.cloud.bindings.snapshot_state() == bindings_before
        assert (
            recovery.cloud.bound_user_of(world.victim.device.device_id)
            == world.victim.user_id
        )

    def test_recovered_cloud_keeps_journaling(self):
        world = Deployment(vendor("D-LINK"), seed=81)
        backend = JournalBackend()
        attach_checkpointed_journal(world, backend)
        assert world.victim_full_setup()
        world.cloud.shutdown()
        recovery = recover_from_journal(
            world.env, world.network, world.design, backend
        )
        before = backend.entry_count()
        recovery.cloud.relay.set_schedule("any-device", {"on": "08:00"})
        assert backend.entry_count() == before + 1

    def test_journal_for_another_design_is_rejected(self):
        env = Environment(seed=1)
        network = Network(env)
        backend = JournalBackend()
        backend.append(meta_entry("OZWI"))
        with pytest.raises(ConfigurationError):
            recover_from_journal(env, network, vendor("D-LINK"), backend)

    def test_unknown_store_and_op_are_rejected(self):
        backend = JournalBackend()
        backend.append({"store": "nonsense", "op": "put", "record": {}})
        env = Environment(seed=1)
        with pytest.raises(ConfigurationError):
            recover_from_journal(env, Network(env), vendor("OZWI"), backend)
        backend = JournalBackend()
        backend.append({"store": "relay", "op": "frobnicate"})
        env = Environment(seed=2)
        with pytest.raises(ConfigurationError):
            recover_from_journal(env, Network(env), vendor("OZWI"), backend)


# ---------------------------------------------------------------------------
# clone-built vs replay-built fleet state
# ---------------------------------------------------------------------------


class TestCloneVsReplayFleetState:
    def build_pair(self, households=5, seed=9):
        replay = FleetDeployment(
            vendor("OZWI"), households=households, seed=seed, build="replay"
        )
        assert replay.setup_all() == households
        clone = FleetDeployment(
            vendor("OZWI"), households=households, seed=seed, build="clone"
        )
        return replay, clone

    def test_same_store_record_counts(self):
        replay, clone = self.build_pair()
        replay_counts = snapshot_store_counts(build_snapshot(replay.cloud))
        clone_counts = snapshot_store_counts(build_snapshot(clone.cloud))
        # Forensic timelines record *message traffic*; the clone fast
        # path installs state without packets, so that store (and only
        # that store) legitimately differs between the two builds.
        replay_counts.pop("forensics", None)
        clone_counts.pop("forensics", None)
        assert clone_counts == replay_counts

    def test_every_household_bound_to_its_own_user(self):
        replay, clone = self.build_pair()
        for fleet in (replay, clone):
            bound = fleet.bound_users()
            assert len(bound) == len(fleet.households)
            for household in fleet.households:
                assert bound[household.device.device_id] == household.user_id

    def test_clone_built_state_round_trips_byte_identically(self):
        _, clone = self.build_pair(households=4, seed=5)
        first = json.dumps(build_snapshot(clone.cloud), sort_keys=True)
        clone.cloud.shutdown()
        fresh = CloudService.restore(
            clone.env, clone.network, clone.design, json.loads(first)
        )
        assert json.dumps(build_snapshot(fresh), sort_keys=True) == first

    def test_shadow_projection_matches_binding_table(self):
        _, clone = self.build_pair(households=4, seed=5)
        for household in clone.households:
            device_id = household.device.device_id
            assert clone.cloud.shadows.get(device_id).bound_user == (
                household.user_id
            )
