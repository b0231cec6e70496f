"""The unified cloud state layer: one protocol, pluggable backends.

See ``docs/state.md``.  Public surface:

* :class:`~repro.cloud.state.protocol.StateStore` /
  :class:`~repro.cloud.state.protocol.RecordStoreBase` — the store
  contract every cloud store implements;
* :class:`~repro.cloud.state.backends.MemoryBackend` /
  :class:`~repro.cloud.state.backends.JournalBackend` — durability
  backends (the latter an append-only JSON-lines WAL with crash fault
  injection);
* :func:`~repro.cloud.state.snapshot.build_snapshot` /
  :func:`~repro.cloud.state.snapshot.load_snapshot` /
  :func:`~repro.cloud.state.snapshot.snapshot_json` — self-describing
  snapshot v2;
* :func:`~repro.cloud.state.journal.recover_from_journal` — replay-based
  crash recovery.
"""

from repro.cloud.state.backends import (
    JournalBackend,
    JournalCrash,
    MemoryBackend,
    StateBackend,
)
from repro.cloud.state.journal import (
    META_STORE,
    JournalRecovery,
    meta_entry,
    recover_from_journal,
)
from repro.cloud.state.protocol import (
    Record,
    RecordStoreBase,
    StateStore,
    merge_state_counts,
)
from repro.cloud.state.snapshot import (
    SNAPSHOT_VERSION,
    build_snapshot,
    load_snapshot,
    rebuild_shadow_projection,
    snapshot_json,
    snapshot_store_counts,
)

__all__ = [
    "JournalBackend",
    "JournalCrash",
    "JournalRecovery",
    "META_STORE",
    "MemoryBackend",
    "Record",
    "RecordStoreBase",
    "SNAPSHOT_VERSION",
    "StateBackend",
    "StateStore",
    "build_snapshot",
    "load_snapshot",
    "merge_state_counts",
    "meta_entry",
    "rebuild_shadow_projection",
    "recover_from_journal",
    "snapshot_json",
    "snapshot_store_counts",
]
