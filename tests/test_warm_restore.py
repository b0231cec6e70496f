"""Warm restore: a world image loads into an empty cloud, once.

:meth:`FleetDeployment.from_image` rebuilds a world's structure from its
seed and loads the image's cloud state into empty stores.  These tests
pin what that restore must preserve:

* round trip — restoring an image and capturing it again gives the
  same image, for replay- and clone-built worlds, and an image whose
  seed does not rebuild its devices is refused;
* bulk load — a cloud restored in bulk holds exactly what per-record
  ``apply_record`` would have built: shadows, their histories and
  registration marks, the forensic history and its indexes;
* metrics — the restore itself emits nothing (the observer's shadow
  transition counters equal the image's);
* sensor streams — a restored world's devices keep reading the same
  telemetry the captured world's devices go on to read.
"""

import pickle

import pytest

from repro.cloud.service import CloudService
from repro.core.errors import ConfigurationError
from repro.fleet import FleetDeployment
from repro.net.network import Network
from repro.obs.runtime import Observability
from repro.secure import SECURE_PUBKEY
from repro.sim.environment import Environment
from repro.vendors import vendor

#: (design, build) of every image shape the restore must round-trip.
IMAGE_CASES = [
    ("E-Link Smart", "replay"),
    ("OZWI", "replay"),
    ("Belkin", "replay"),
    ("Secure-PubKey", "replay"),
    ("OZWI", "clone"),
    ("KONKE", "clone"),
]

#: One vendor per studied device type: plug, socket, camera, bridge, bulb.
DEVICE_TYPE_VENDORS = ["Belkin", "KONKE", "OZWI", "Philips Hue", "TP-LINK"]


def design_named(name):
    return SECURE_PUBKEY if name == SECURE_PUBKEY.name else vendor(name)


def deployed(name, build="replay", households=6, seed=4):
    """A settled deployed fleet: the point a world image is captured at."""
    fleet = FleetDeployment(
        design_named(name), households=households, seed=seed,
        observer=Observability(trace_messages=True), build=build,
    )
    fleet.setup_all()
    fleet.run(12.0)
    return fleet


def restored(image):
    return FleetDeployment.from_image(
        image, observer=Observability(trace_messages=True)
    )


def empty_cloud(design):
    """A freshly constructed cloud with nothing registered."""
    env = Environment(seed=0, observer=Observability(trace_messages=True))
    return CloudService(env, Network(env), design)


def per_record_cloud(source):
    """A cloud loaded from *source* one ``apply_record`` at a time."""
    cloud = empty_cloud(source.design)
    cloud.env.clock.advance_to(source.now)
    for name, store in cloud.state_stores().items():
        for record in source.state_stores()[name].snapshot_state():
            store.apply_record(record)
    return cloud


@pytest.mark.parametrize("name, build", IMAGE_CASES)
def test_image_round_trips(name, build):
    image = pickle.loads(pickle.dumps(deployed(name, build).capture_image()))
    assert restored(image).capture_image() == image


def test_restore_refuses_an_image_its_seed_does_not_rebuild():
    image = deployed("Belkin").capture_image()  # MAC IDs drawn from the seed
    image.seed += 1
    with pytest.raises(ConfigurationError):
        restored(image)


@pytest.mark.parametrize("name, build", IMAGE_CASES)
def test_bulk_load_matches_per_record_load(name, build):
    source = deployed(name, build).cloud
    bulk = empty_cloud(source.design)
    bulk.restore_campaign_state(source.capture_campaign_state())
    single = per_record_cloud(source)

    assert bulk.shadows.snapshot_state() == single.shadows.snapshot_state()
    for shadow in single.shadows.all():
        device_id = shadow.device_id
        twin = bulk.shadows.get(device_id)
        assert twin.history == shadow.history
        assert (twin.state, twin.bound_user, twin.last_seen) == (
            shadow.state, shadow.bound_user, shadow.last_seen,
        )
        assert bulk.shadows.registration_of(device_id) == (
            single.shadows.registration_of(device_id)
        )
        assert bulk.forensics.timeline(device_id) == (
            single.forensics.timeline(device_id)
        )
    assert bulk.forensics.events() == single.forensics.events()
    assert bulk.forensics.events() == source.forensics.events()
    for record in source.forensics.snapshot_state():
        key = source.forensics.record_key(record)
        assert bulk.forensics.find_record(key) == single.forensics.find_record(key)
    assert all(event.decision_trace == "" for event in bulk.forensics.events())
    # the next live event takes the same sequence number on both
    appended = [
        cloud.forensics.record(
            cloud.now, "probe", "status", "Status", "n", "1.2.3.4",
            "", "", "ok", "", "",
        ).seq
        for cloud in (bulk, single)
    ]
    assert appended[0] == appended[1] == len(source.forensics)


@pytest.mark.parametrize("name, build", IMAGE_CASES)
def test_restore_emits_no_shadow_transitions(name, build):
    image = deployed(name, build).capture_image()
    counters = restored(image).env.observer.metrics.snapshot()["counters"]
    assert counters.get("shadow.transitions") == (
        image.metrics["counters"].get("shadow.transitions")
    )
    # loading the cloud alone hands the observer nothing
    cloud = empty_cloud(image.design)
    cloud.restore_campaign_state(image.cloud_state)
    assert "shadow.transitions" not in (
        cloud.env.observer.metrics.snapshot()["counters"]
    )


@pytest.mark.parametrize("name", DEVICE_TYPE_VENDORS)
def test_restored_sensors_continue_the_captured_streams(name):
    cold = deployed(name, households=4)
    image = pickle.loads(pickle.dumps(cold.capture_image()))
    warm = restored(image)
    cold.run(60.0)
    warm.run(60.0)
    for household in cold.households:
        device_id = household.device.device_id
        assert warm.cloud.relay.telemetry_of(device_id) == (
            cold.cloud.relay.telemetry_of(device_id)
        ), f"{name} {device_id}: telemetry diverged after restore"
