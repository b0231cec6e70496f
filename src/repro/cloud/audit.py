"""Cloud-side audit log: one record per handled request.

The paper identifies attack failures "from response messages"
(Section VIII); the audit log is the reproduction's equivalent record —
every request, its claimed origin, and the outcome code.  It also powers
the Figure 1/3/4 sequence traces.

Each handled request is one :class:`AuditEntry` (the request record),
built once by :class:`~repro.cloud.service.CloudService` and shared by
every consumer: the log itself, the forensic timeline, and — when an
observer is installed (``AuditLog(observer=...)``) — the observer, which
receives each appended record through one
:meth:`~repro.obs.observer.Observer.on_record` call and derives message
counters, RED/SLO series and exchange spans from the records when read.
One source of truth, no duplicate bookkeeping, and counter totals
provably equal to the log's.
"""

from __future__ import annotations

from typing import Any, List, Optional


class _VolatileEvidence:
    """Volatile record slots, on a base class so ``AuditEntry.__slots__``
    names exactly the logged fields (identity, pickling, fingerprints)."""

    __slots__ = ("action", "trail", "handle_ns", "pdp_ns")


class AuditEntry(_VolatileEvidence):
    """One handled request (or cloud-internal event): the request record.

    A ``__slots__`` record (one per handled request, so allocation is on
    the cloud hot path); treat instances as immutable once appended.
    Equality, hashing and pickling cover the seven logged fields — shard
    merges compare and pickle entries.  The four inherited slots are
    *volatile* evidence for observers, excluded from identity exactly as
    :attr:`~repro.obs.detect.timeline.ForensicEvent.decision_trace` is:
    the endpoint ``action`` (``""`` for cloud-internal entries), the
    PDP's rule ``trail``, and the wall-clock ``handle_ns``/``pdp_ns``
    durations (``None`` when not timed, or once an observer has folded
    them into its aggregates).
    """

    __slots__ = (
        "time",
        "source_node",
        "source_ip",
        "summary",
        "outcome",
        "detail",
        "trace_id",
    )

    def __init__(
        self,
        time: float,
        source_node: str,
        source_ip: str,
        summary: str,
        outcome: str = "ok",  # "ok" or a rejection code
        detail: str = "",
        trace_id: str = "",  # causal chain id from the request packet, if any
        action: str = "",  # endpoint action ("" for cloud-internal entries)
    ) -> None:
        self.time = time
        self.source_node = source_node
        self.source_ip = source_ip
        self.summary = summary
        self.outcome = outcome
        self.detail = detail
        self.trace_id = trace_id
        self.action = action
        self.trail = ""
        self.handle_ns: Optional[int] = None
        self.pdp_ns: Optional[int] = None

    def _key(self) -> tuple:
        return (
            self.time,
            self.source_node,
            self.source_ip,
            self.summary,
            self.outcome,
            self.detail,
            self.trace_id,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AuditEntry):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        return (AuditEntry, self._key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AuditEntry(time={self.time!r}, source_node={self.source_node!r}, "
            f"source_ip={self.source_ip!r}, summary={self.summary!r}, "
            f"outcome={self.outcome!r}, detail={self.detail!r}, "
            f"trace_id={self.trace_id!r})"
        )

    def line(self) -> str:
        """One fixed-width log line."""
        mark = "+" if self.outcome == "ok" else "!"
        detail = f" ({self.detail})" if self.detail else ""
        return (
            f"{mark} [t={self.time:8.3f}] {self.source_node:<18} "
            f"{self.summary:<28} -> {self.outcome}{detail}"
        )


class AuditLog:
    """Append-only record of handled requests (optionally observed).

    *scope* (the cloud's design name) is the records' RED scope.
    """

    def __init__(self, observer: Optional[Any] = None, scope: str = "") -> None:
        self.entries: List[AuditEntry] = []
        self._observer = observer
        self._scope = scope

    def record(self, entry: AuditEntry) -> None:
        """Append one record; hand it to the observer when installed."""
        self.entries.append(entry)
        if self._observer is not None:
            self._observer.on_record(self._scope, entry)

    def __len__(self) -> int:
        return len(self.entries)

    def rejected(self) -> List[AuditEntry]:
        return [entry for entry in self.entries if entry.outcome != "ok"]

    def matching(self, fragment: str) -> List[AuditEntry]:
        return [entry for entry in self.entries if fragment in entry.summary]

    def last_outcome(self, fragment: str) -> Optional[str]:
        hits = self.matching(fragment)
        return hits[-1].outcome if hits else None

    def render(self, limit: Optional[int] = None) -> str:
        entries = self.entries if limit is None else self.entries[-limit:]
        return "\n".join(entry.line() for entry in entries)
