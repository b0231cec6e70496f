"""Per-shadow forensic timelines: the cloud's evidence store.

Every binding-affecting exchange the cloud handles (Status, Bind,
Unbind, Control, DeviceFetch) is materialized here as one
:class:`ForensicEvent`: which device shadow it touched, who claimed to
send it, from which network origin, under which causal trace, and what
the binding looked like *before* the request ran.  The store is the
ninth :class:`~repro.cloud.state.protocol.RecordStoreBase` store —
durable, journaled, snapshot-v2 — because forensic evidence that
evaporates on a cloud restart is not evidence.

Recording is **always on** and read-only with respect to the world:
events are appended from data the handler path already computed, no RNG
is consumed, and no response changes.  Streaming consumers (the
detection pipeline) subscribe via :meth:`ForensicTimeline.add_sink`;
sinks fire only on *live* recording, never on journal replay or
snapshot restore, so a recovered cloud does not re-alert on history.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.state.protocol import Record, RecordStoreBase
from repro.core.errors import ConfigurationError

#: A streaming consumer of live forensic events.
ForensicSink = Callable[["ForensicEvent"], None]

#: The message kinds that affect (or probe) a device shadow's binding.
WATCHED_KINDS = ("status", "bind", "unbind", "control", "fetch")

#: ForensicEvent field order (also the record/serialization order).
_EVENT_FIELDS = (
    "seq",
    "time",
    "device_id",
    "kind",
    "summary",
    "source",
    "origin_ip",
    "trace_id",
    "span_id",
    "outcome",
    "actor",
    "bound_before",
    "replaced",
)

#: event -> its ``_EVENT_FIELDS`` values, as a tuple
_event_fields = attrgetter(*_EVENT_FIELDS)


class ForensicEvent:
    """One binding-affecting exchange, as the cloud saw it.

    ``source`` is the network node that sent the packet (unforgeable in
    the simulation: the network stamps it); ``actor`` is the *claimed*
    identity — the user resolved from the message's token, or the
    device id a device-credential message presented.  ``bound_before``
    is the binding's owner when the request arrived, which is what lets
    detectors judge a transition without replaying history.

    A ``__slots__`` record (one per watched exchange, always on, so
    allocation is on the cloud hot path); treat instances as immutable.

    ``decision_trace`` is *volatile* evidence: the PDP's ordered rule
    trail for the exchange (``rule:pass>rule:deny(code)``).  It rides on
    live events for streaming sinks and diagnostics but is deliberately
    excluded from ``_EVENT_FIELDS`` — identity, serialization, journal
    records and snapshots are unchanged by it, and replayed history
    comes back with an empty trail.
    """

    __slots__ = _EVENT_FIELDS + ("decision_trace",)

    def __init__(
        self,
        seq: int,
        time: float,
        device_id: str,
        kind: str,  # one of WATCHED_KINDS
        summary: str,  # paper-style message rendering (describe())
        source: str,  # sending network node
        origin_ip: str,  # observed source IP (post-NAT)
        trace_id: str,  # causal chain id ("" for direct store writes)
        span_id: str,
        outcome: str,  # "ok" or the rejection code
        actor: str,  # claimed identity ("" when unauthenticated)
        bound_before: str,  # binding owner before the request ("" if unbound)
        replaced: bool = False,  # did a Bind displace an existing owner?
        decision_trace: str = "",  # volatile PDP rule trail (live only)
    ) -> None:
        self.seq = seq
        self.time = time
        self.device_id = device_id
        self.kind = kind
        self.summary = summary
        self.source = source
        self.origin_ip = origin_ip
        self.trace_id = trace_id
        self.span_id = span_id
        self.outcome = outcome
        self.actor = actor
        self.bound_before = bound_before
        self.replaced = replaced
        self.decision_trace = decision_trace

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in _EVENT_FIELDS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForensicEvent):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in _EVENT_FIELDS
        )
        return f"ForensicEvent({fields})"


class ForensicTimeline(RecordStoreBase):
    """Append-only, per-device ordered evidence of binding exchanges."""

    state_name = "forensics"
    durable = True

    def __init__(self) -> None:
        self._events: List[ForensicEvent] = []
        #: seq -> index into ``_events`` (``e:<seq>`` keys are formatted
        #: only at the record boundary)
        self._by_seq: Dict[int, int] = {}
        self._by_device: Dict[str, List[int]] = {}
        self._sinks: List[ForensicSink] = []
        self._next_seq = 0

    # -- live recording ------------------------------------------------------

    def add_sink(self, sink: ForensicSink) -> None:
        """Subscribe a streaming consumer to future live events."""
        self._sinks.append(sink)

    def remove_sink(self, sink: ForensicSink) -> None:
        """Unsubscribe a consumer; unknown sinks are a no-op."""
        if sink in self._sinks:
            self._sinks.remove(sink)

    def clear_sinks(self) -> None:
        """Unsubscribe every consumer (the cloud is closing)."""
        self._sinks.clear()

    def record(
        self,
        time: float,
        device_id: str,
        kind: str,
        summary: str,
        source: str,
        origin_ip: str,
        trace_id: str,
        span_id: str,
        outcome: str,
        actor: str,
        bound_before: str,
        replaced: bool = False,
        decision_trace: str = "",
    ) -> ForensicEvent:
        """Append one live event, journal it, and feed the sinks."""
        event = ForensicEvent(
            self._next_seq, time, device_id, kind, summary, source, origin_ip,
            trace_id, span_id, outcome, actor, bound_before, replaced,
            decision_trace,
        )
        self._append(event)
        # Lazy serialization: the record dict is only materialized when a
        # write-ahead journal is actually bound — the always-on unjournaled
        # case (every campaign world) pays just the churn bump.
        if self._journal_write is not None:
            self._record_put(self.to_record(event))
        else:
            self._note_mutation()
        if self._sinks:
            for sink in self._sinks:
                sink(event)
        return event

    # -- read access ---------------------------------------------------------

    def events(self) -> List[ForensicEvent]:
        """Every event in sequence order."""
        return list(self._events)

    def timeline(self, device_id: str) -> List[ForensicEvent]:
        """The ordered evidence for one device shadow."""
        return [self._events[i] for i in self._by_device.get(device_id, [])]

    def __len__(self) -> int:
        return len(self._events)

    # -- warm start ----------------------------------------------------------

    def history(self) -> Tuple[ForensicEvent, ...]:
        """Every event as restored history would hold it, decoded once.

        Each event is rebuilt from its recorded fields, so its trail is
        empty exactly as after :meth:`from_record`.  A world image keeps
        this tuple and every world restored from it installs the same
        events (:meth:`restore_history`); events are never mutated, so
        sharing them is safe.
        """
        return tuple(ForensicEvent(*_event_fields(event)) for event in self._events)

    def restore_history(self, events: Sequence[ForensicEvent]) -> None:
        """Install decoded *events* into this empty timeline in one pass.

        Indexes, next sequence number and churn end up as per-event
        :meth:`apply_record` would leave them.  Sinks never fire and
        nothing is journaled: the history was recorded (and journaled,
        if at all) by the world it came from.
        """
        if self._events:
            raise ConfigurationError("forensic history restores into an empty timeline")
        self._events = list(events)
        by_seq, by_device = self._by_seq, self._by_device
        next_seq = self._next_seq
        for index, event in enumerate(self._events):
            by_seq[event.seq] = index
            by_device.setdefault(event.device_id, []).append(index)
            if event.seq >= next_seq:
                next_seq = event.seq + 1
        self._next_seq = next_seq
        self._mutations += len(self._events)

    # -- internals -----------------------------------------------------------

    def _append(self, event: ForensicEvent) -> None:
        seq = event.seq
        index = self._by_seq.get(seq)
        if index is not None:
            # Replay upsert of an already-present seq: evidence records
            # are immutable, so an idempotent overwrite keeps indices.
            self._events[index] = event
            return
        index = self._by_seq[seq] = len(self._events)
        self._events.append(event)
        self._by_device.setdefault(event.device_id, []).append(index)
        if seq >= self._next_seq:
            self._next_seq = seq + 1

    @staticmethod
    def _key_for_seq(seq: int) -> str:
        return f"e:{seq:08d}"

    # -- StateStore protocol --------------------------------------------------

    def to_record(self, obj: Any) -> Record:
        """Encode one :class:`ForensicEvent` as a flat record."""
        return {name: getattr(obj, name) for name in _EVENT_FIELDS}

    def from_record(self, record: Record) -> Any:
        """Decode one record back into a :class:`ForensicEvent`."""
        return ForensicEvent(**record)

    def record_key(self, record: Record) -> str:
        """Events are keyed by zero-padded sequence number."""
        return self._key_for_seq(int(record["seq"]))

    def record_count(self) -> int:
        """Number of stored events."""
        return len(self._events)

    def snapshot_state(self) -> List[Record]:
        """Every event record, in sequence order (already sorted)."""
        return [self.to_record(event) for event in self._events]

    def apply_record(self, record: Record) -> Any:
        """Upsert one event (restore / journal replay / clone).

        Never fires sinks: replayed history is context for
        :meth:`~repro.obs.detect.pipeline.DetectionPipeline.catch_up`,
        not a fresh observation.
        """
        event = self.from_record(record)
        self._append(event)
        self._record_put(record)
        return event

    def discard_record(self, key: str) -> bool:
        """Refuse deletion: the timeline is append-only evidence."""
        return False

    def find_record(self, key: str) -> Optional[Record]:
        """O(1) lookup of one event record by its ``e:<seq>`` key."""
        seq = int(key[2:]) if key[2:].isdigit() else -1
        index = self._by_seq.get(seq)
        if index is None or self._key_for_seq(seq) != key:
            return None
        return self.to_record(self._events[index])
