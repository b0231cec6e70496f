"""Bit-identity pins bracketing the PDP/PEP authorization refactor.

Every observable a campaign leaves behind — the merged report, the
audit log, the forensic store, metrics, state counts, and detection
scores — is hashed and pinned for all 10 studied vendors plus the 3
secure baselines, across two seeds, serial and pooled.  The pins were
generated on ``main`` *before* the authorization logic moved into
``repro.cloud.pdp``; the refactor must not move a single byte.

Regenerate (only for a deliberate behavior change)::

    PYTHONPATH=src REGEN_PDP_FINGERPRINTS=1 \
        python -m pytest tests/test_pdp_bit_identity.py -q
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.attacks.campaign import campaign_mass_unbind, campaign_shadow_probe
from repro.fleet import FleetDeployment
from repro.obs.detect.harness import run_detection
from repro.obs.runtime import Observability
from repro.parallel import WorkerPool, run_campaign
from repro.secure.designs import SECURE_BASELINES
from repro.vendors.profiles import STUDIED_VENDORS

FIXTURE = (
    pathlib.Path(__file__).resolve().parent / "fixtures" / "pdp_fingerprints.json"
)
REGEN = bool(os.environ.get("REGEN_PDP_FINGERPRINTS"))

ALL_DESIGNS = {d.name: d for d in list(STUDIED_VENDORS) + list(SECURE_BASELINES)}
SEEDS = (0, 7)

#: (design, seed) pairs exercised through the pooled multi-process path;
#: a subset, because each pooled run spawns worker processes.
POOLED_CASES = [("OZWI", 0), ("OZWI", 7), ("Secure-DevToken", 0), ("TP-LINK", 7)]

#: designs whose detection scores are pinned end-to-end.
DETECTION_CASES = ["OZWI", "Secure-Capability"]

_regenerated = {}


def _digest(data):
    """sha256 of the canonical JSON rendering of *data*."""
    canonical = json.dumps(data, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fixture():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def serial_fingerprint(design, seed):
    """Hash of everything two serial campaigns leave behind in one world."""
    obs = Observability(trace_messages=True)
    fleet = FleetDeployment(
        design, households=4, seed=seed, observer=obs, build="replay"
    )
    fleet.setup_all()
    fleet.run(12.0)
    unbind = campaign_mass_unbind(fleet, max_probes=24, request_rate=3000.0)
    probe = campaign_shadow_probe(fleet, max_probes=24, request_rate=3000.0)
    cloud = fleet.cloud
    cloud.emit_state_gauges()
    return _digest({
        "metrics": obs.metrics.snapshot(),
        "audit": [
            [getattr(entry, field) for field in type(entry).__slots__]
            for entry in cloud.audit.entries
        ],
        "forensics": cloud.forensics.snapshot_state(),
        "state_counts": cloud.state_counts(),
        "matches_audit": obs.matches_audit(cloud.audit),
        "bound": fleet.bound_users(),
        "reports": [unbind.__dict__, probe.__dict__],
    })


def pooled_result(design, seed, workers):
    """Merged result dict from a sharded mass-unbind campaign (2 shards)."""
    kwargs = dict(campaign="mass-unbind", households=6, max_probes=24,
                  workers=workers, shards=2, seed=seed)
    if workers == 1:
        return run_campaign(design, **kwargs).to_dict()
    with WorkerPool(workers=workers) as pool:
        return run_campaign(design, worker_pool=pool, **kwargs).to_dict()


def detection_fingerprint(design):
    """Hash of the per-attack detection summaries for one design."""
    runs = run_detection(design, attacks=("A3", "A4"), households=4,
                         max_probes=8, seed=0)
    return _digest({
        attack_id: result.to_dict() for attack_id, result in runs.items()
    })


def _check(section, key, computed):
    if REGEN:
        _regenerated.setdefault(section, {})[key] = computed
        return
    pinned = _fixture()[section][key]
    assert computed == pinned, (
        f"{section}[{key}] fingerprint drifted from the pre-refactor pin; "
        "campaign observables are no longer bit-identical to main"
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(ALL_DESIGNS))
def test_serial_campaign_fingerprint(name, seed):
    _check("serial", f"{name}/{seed}", serial_fingerprint(ALL_DESIGNS[name], seed))


@pytest.mark.parametrize("name,seed", POOLED_CASES)
def test_pooled_campaign_fingerprint(name, seed):
    pooled = pooled_result(ALL_DESIGNS[name], seed, workers=2)
    _check("pooled", f"{name}/{seed}", _digest(pooled))
    # The same shards run in-process must merge to the same bytes;
    # only the worker-count provenance field may differ.
    serial = pooled_result(ALL_DESIGNS[name], seed, workers=1)
    assert serial.pop("workers") == 1
    assert pooled.pop("workers") == 2
    assert serial == pooled


@pytest.mark.parametrize("name", DETECTION_CASES)
def test_detection_score_fingerprint(name):
    _check("detection", name, detection_fingerprint(ALL_DESIGNS[name]))


def test_fixture_covers_every_case():
    if REGEN:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(
            json.dumps(_regenerated, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    fixture = _fixture()
    assert set(fixture["serial"]) == {
        f"{name}/{seed}" for name in ALL_DESIGNS for seed in SEEDS
    }
    assert set(fixture["pooled"]) == {f"{n}/{s}" for n, s in POOLED_CASES}
    assert set(fixture["detection"]) == set(DETECTION_CASES)
