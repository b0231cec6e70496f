"""Self-describing snapshot v2: every store contributes its own section.

A production IoT cloud restarts without dropping its customers'
bindings; snapshots give the simulated cloud the same property.  The
format is generic: the cloud asks each durable
:class:`~repro.cloud.state.protocol.StateStore` for its records and
stores them under the store's own ``state_name``::

    {
      "version": 2,
      "design": "<vendor design name>",
      "time":   <virtual seconds at capture>,
      "stores": {
        "accounts": [ {...}, ... ],
        "tokens":   [ {...}, ... ],
        "devices":  [ {...}, ... ],
        "bindings": [ {...}, ... ],
        "shares":   [ {...}, ... ],
        "relay":    [ {...}, ... ],   # schedules only; queues are volatile
        "events":   [ {...}, ... ]    # user inboxes + poll cursors
      }
    }

Records are sorted by their store key and serialized with
``sort_keys=True``, so ``save -> load -> save`` is byte-identical.

The **shadow store is deliberately absent**: shadows are a projection
of the registry and the binding table, and a cloud restart is a *mass
offline event* (Figure 2's timeout arcs) — so :func:`load_snapshot`
rebuilds every shadow in its offline state (``bound`` for bound
devices, ``initial`` otherwise) and lets the next heartbeats bring the
fleet back.  ``tests/test_cloud_persistence.py`` verifies that the
restart is invisible to bound users apart from that blip.

Version 2 is the only version: a document of any other version is
rejected with :class:`~repro.core.errors.ConfigurationError`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict

from repro.core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.service import CloudService

#: Current snapshot schema version.
SNAPSHOT_VERSION = 2


def build_snapshot(cloud: "CloudService") -> Dict[str, Any]:
    """Serialize the cloud's durable state as a self-describing v2 dict."""
    return {
        "version": SNAPSHOT_VERSION,
        "design": cloud.design.name,
        "time": cloud.now,
        "stores": {
            name: store.snapshot_state()
            for name, store in cloud.state_stores().items()
            if store.durable
        },
    }


def snapshot_json(cloud: "CloudService") -> str:
    """The snapshot as a JSON document (what would hit durable storage).

    Records are key-sorted by their stores and objects are serialized
    with ``sort_keys``, so save -> load -> save is byte-identical.
    """
    return json.dumps(build_snapshot(cloud), sort_keys=True)


def _check_version(data: Dict[str, Any]) -> None:
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"unsupported snapshot version {version!r} "
            f"(expected {SNAPSHOT_VERSION})"
        )


def rebuild_shadow_projection(cloud: "CloudService") -> None:
    """Recreate every shadow, offline, from the registry and bindings.

    The restart killed every connection, so shadows come back in their
    offline states: ``bound`` where a binding exists, ``initial``
    elsewhere.  Devices re-enter via their next heartbeat.
    """
    for device_id in cloud.registry.all_ids():
        if not cloud.shadows.has(device_id):
            cloud.shadows.create(device_id)
    for record in cloud.bindings.snapshot_state():
        shadow = cloud.shadows.get(record["device_id"])
        if not shadow.is_bound:
            shadow.mark_bound(record["user_id"], cloud.now)


def load_snapshot(cloud: "CloudService", data: Dict[str, Any]) -> None:
    """Load a v2 snapshot into a *fresh* cloud of the same design."""
    _check_version(data)
    if data.get("design") != cloud.design.name:
        raise ConfigurationError(
            f"snapshot is for design {data.get('design')!r}, "
            f"not {cloud.design.name!r}"
        )
    if cloud.accounts.record_count() or cloud.bindings.count():
        raise ConfigurationError("restore requires a fresh cloud instance")
    sections = data.get("stores", {})
    stores = cloud.state_stores()
    unknown = set(sections) - set(stores)
    if unknown:
        raise ConfigurationError(
            f"snapshot carries unknown store sections {sorted(unknown)!r}"
        )
    # Restore order follows the service's store order (accounts before
    # bindings, etc.); sections a snapshot omits simply restore empty.
    for name, store in stores.items():
        if not store.durable:
            continue
        store.restore_state(sections.get(name, []))
    rebuild_shadow_projection(cloud)


def snapshot_store_counts(data: Dict[str, Any]) -> Dict[str, int]:
    """Per-section record counts of a v2 snapshot dict."""
    _check_version(data)
    return {
        name: len(records) for name, records in sorted(data["stores"].items())
    }
