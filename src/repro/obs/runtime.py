"""The real :class:`Observer`: tracer + metrics + profiler in one handle.

Create one :class:`Observability`, pass it wherever a world is built
(``Deployment(..., observer=obs)``, ``FleetDeployment(..., observer=obs)``,
``run_attack(..., observer=obs)``) and every instrumented layer feeds it:
the cloud's request records become message counters, RED/SLO series and
exchange spans, shadow stores report Figure 2 transitions, attacks
report outcomes, and the scheduler reports batch sizes, queue depth and
heap compactions.

Request records are queued, not aggregated, as they arrive;
:meth:`Observability.fold` aggregates the queue in order when something
reads the results (any public aggregate attribute) or a tracer span
opens or closes, so each exchange leaf lands under the span that was
open when its request ran.  Nothing folds inside a request.

The same instance can observe several consecutive worlds (the attack
runner builds a fresh world per attempt); :meth:`attach` simply rebinds
the virtual-clock time source to the newest environment.
"""

from __future__ import annotations

import weakref
from collections import Counter
from functools import partial
from typing import Any, ContextManager, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.profiler import Profiler
from repro.obs.slo import RedAccounting, SLOTracker
from repro.obs.tracer import Tracer

#: Observer counters that double as SLO bad events: an infrastructure
#: failure (a chaos drop or timeout) is a request the service failed to
#: serve, charged against the availability error budget.  Policy
#: rejections are *not* here — denying an attacker is correct service.
_SLO_BAD_COUNTERS = {"chaos.drops": "drop", "chaos.timeouts": "timeout"}

#: Aggregates readable as public attributes (each read folds first).
_AGGREGATES = frozenset({"tracer", "metrics", "profiler", "red", "pdp_red", "slo"})


def _retired_hook(self: Any, *args: Any, **kwargs: Any) -> None:
    """A per-request hook the cloud no longer calls (see ``on_record``)."""


def _fold(ref: "weakref.ref[Observability]") -> None:
    """The tracer's write hook: fold the observer *ref* names, if alive.

    Weak, so the observer and its tracer form no reference cycle.
    """
    observer = ref()
    if observer is not None:
        observer.fold()


class Observability(Observer):
    """Collects spans, metrics and profiles from an instrumented run.

    ``trace_messages=False`` disables the per-request exchange leaves
    (counters still accumulate) — useful for very large campaigns where
    only aggregates matter.
    """

    def __init__(self, trace_messages: bool = True, max_spans: int = 100_000) -> None:
        self._tracer = Tracer(
            max_spans=max_spans, before_write=partial(_fold, weakref.ref(self))
        )
        self._metrics = MetricsRegistry()
        self._profiler = Profiler()
        #: RED series (rate, errors, duration sketch) per (design, action)
        self._red = RedAccounting()
        #: PDP decide timings per ("pdp", action)
        self._pdp_red = RedAccounting()
        #: the availability series behind SLO/burn-rate evaluation
        self._slo = SLOTracker()
        self.trace_messages = trace_messages
        #: the attached world's clock (never the environment itself,
        #: which holds this observer: the link must not form a cycle)
        self._clock: Optional[Any] = None
        #: ``(scope, record)`` pairs awaiting :meth:`fold`, in arrival order
        self._pending: List[Tuple[str, Any]] = []

    # -- aggregates (read access folds pending records first) ----------------

    def __getattr__(self, name: str) -> Any:
        """Read a public aggregate (``metrics``, ``red``, ...), folded."""
        if name in _AGGREGATES:
            self.fold()
            return object.__getattribute__(self, "_" + name)
        raise AttributeError(f"{type(self).__name__!r} has no attribute {name!r}")

    def restore_metrics(self, snap: Dict[str, Any]) -> None:
        """Replace the registry with *snap*'s (warm start); records
        emitted before it fold into the outgoing registry, discarded."""
        self.fold()
        self._metrics = MetricsRegistry()
        self._metrics.merge_snapshot(snap)

    def fold(self) -> None:
        """Aggregate every pending record, in arrival order.

        Message counters per (summary, outcome) in one pass; then each
        record's exchange leaf and — for timed requests — its RED, SLO,
        PDP and profiler samples, exactly as recording them live would.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        metrics = self._metrics
        entries = metrics.counter(
            "cloud.audit.entries", help="audit entries by (summary, outcome)"
        )
        ok = 0
        for (summary, outcome), n in Counter(
            (record.summary, record.outcome) for _, record in pending
        ).items():
            entries.inc(n, summary=summary, outcome=outcome)
            if outcome == "ok":
                ok += n
        if ok:
            metrics.counter("cloud.audit.ok").inc(ok)
        if ok < len(pending):
            metrics.counter("cloud.audit.rejected").inc(len(pending) - ok)
        leaf = self._tracer.leaf if self.trace_messages else None
        red, pdp_red, slo = self._red.record, self._pdp_red.record, self._slo
        handled = handle_ns = 0
        for scope, record in pending:
            if leaf is not None:
                attrs = {"source": record.source_node, "outcome": record.outcome}
                if record.trace_id:  # joins per-process span trees
                    attrs["trace"] = record.trace_id
                if record.trail:  # the rule trail explains the outcome
                    attrs["authz"] = record.trail
                leaf(record.summary, record.time, attrs)
            duration = record.handle_ns
            if duration is None:
                continue  # cloud-internal entry: no request to time
            red(scope, record.action, record.outcome, duration / 1000.0,
                record.trace_id)
            slo.record_request(record.time)
            if record.pdp_ns is not None:
                pdp_red("pdp", record.action, "ok", record.pdp_ns / 1000.0)
            # Consumed: the log keeps the record, not two ints per request.
            record.handle_ns = record.pdp_ns = None
            handled += 1
            handle_ns += duration
        if handled:
            self._profiler.add("cloud.handle_packet", handle_ns, handled)

    # -- Observer protocol ---------------------------------------------------

    def attach(self, env: Any) -> None:
        """Bind span timestamps to *env*'s virtual clock (latest wins).

        Only the clock is kept, so the observer never points back at the
        environment that holds it and a finished world frees by refcount.
        """
        self._clock = env.clock
        self._tracer.set_time_source(partial(getattr, env.clock, "now"))

    def span(self, name: str, kind: str = "phase", **attrs: Any) -> ContextManager[Any]:
        """Open a trace span (see :meth:`repro.obs.tracer.Tracer.span`)."""
        return self._tracer.span(name, kind=kind, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration leaf span."""
        self._tracer.event(name, **attrs)

    def profile(self, section: str) -> ContextManager[Any]:
        """Time one entry into a named wall-clock section."""
        return self._profiler.section(section)

    def count(self, name: str, n: int = 1, **labels: Any) -> None:
        """Increment the counter *name* (SLO-bad counters also feed SLO)."""
        self._metrics.counter(name).inc(n, **labels)
        cause = _SLO_BAD_COUNTERS.get(name)
        if cause is not None and self._clock is not None:
            self._slo.record_bad(self._clock.now, labels.get("cause", cause), n)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge *name*."""
        self._metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram *name*."""
        self._metrics.histogram(name).observe(value)

    # -- domain hooks --------------------------------------------------------

    def on_record(self, scope: str, record: Any) -> None:
        """Queue one request record for :meth:`fold` (O(1), no aggregation)."""
        self._pending.append((scope, record))

    #: The per-request hooks that :meth:`on_record` replaced stay
    #: resolvable by name for external wrappers; nothing calls them.
    on_audit = on_request = on_pdp_decide = on_authz_decision = _retired_hook

    def on_shadow_transition(
        self, device_id: str, event: Any, before: Any, after: Any, time: float
    ) -> None:
        """Count one Figure 2 transition by event and edge."""
        self._metrics.counter(
            "shadow.transitions", help="Figure 2 transitions by (event, edge)"
        ).inc(event=str(event), edge=f"{before}->{after}")

    def on_attack(self, report: Any) -> None:
        """Count one finished attack attempt by id and outcome."""
        self._metrics.counter(
            "attacks.attempts", help="attack attempts by (attack_id, outcome)"
        ).inc(attack_id=report.attack_id, outcome=report.outcome.value)
        if report.succeeded:
            self._metrics.counter("attacks.successes").inc()

    def on_scheduler_flush(self, executed: int, queue_depth: int) -> None:
        """Record one run_until batch: events executed + queue depth."""
        if executed:
            self._metrics.counter("scheduler.events").inc(executed)
            self._metrics.histogram("scheduler.batch").observe(executed)
        self._metrics.gauge(
            "scheduler.queue_depth", help="pending entries after a batch"
        ).set(queue_depth)

    def on_compaction(self, removed: int, compactions: int) -> None:
        """Record one heap compaction sweep."""
        self._metrics.counter("scheduler.compacted_entries").inc(removed)
        self._metrics.gauge("scheduler.compactions").set(compactions)

    # -- consistency ---------------------------------------------------------

    def matches_audit(self, audit: Any) -> bool:
        """True iff message counters agree exactly with an audit log.

        The acceptance check for instrumented campaigns: per-(summary,
        outcome) counts and ok/rejected totals must equal what the
        cloud's own append-only log recorded.
        """
        expected = Counter(
            (("outcome", e.outcome), ("summary", e.summary)) for e in audit.entries
        )
        metrics = self.metrics
        if metrics.counter("cloud.audit.entries").series() != expected:
            return False
        rejected = len(audit.rejected())
        return (
            metrics.counter("cloud.audit.ok").total() == len(audit) - rejected
            and metrics.counter("cloud.audit.rejected").total() == rejected
        )
