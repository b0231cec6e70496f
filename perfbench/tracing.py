"""Span recording for the traced benchmark run.

Every timer here wraps a *public* entry point of one layer from the
outside (an instance attribute, a handler installed through
``Network.set_handler``, a forwarding proxy for the slotted PDP), so
the program under test is never edited and the untraced run pays for
none of it.  Spans stay in memory as ``(name, start_ns, end_ns, parent, request)``
rows and are written out once, when the run ends.

A span's *self time* is its duration minus the part its child spans
cover; children of one span never overlap (the program is single
threaded), so that is the duration minus the sum of child durations.
"""

from __future__ import annotations

import gc
import gzip
import json
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

#: Observer hooks the cloud calls once per request (or per PDP miss).
OBS_HOOKS = ("on_audit", "on_request", "on_pdp_decide", "on_authz_decision")


class SpanRecorder:
    """In-memory span log with request ids and a parent stack.

    Spans live in flat typed arrays (one column per field, names
    interned) rather than one list per span: arrays add no objects for
    the cyclic garbage collector to scan, so recording hundreds of
    thousands of spans does not itself trigger collections.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self._stack: List[int] = []
        self._request = 0
        self._requests = 0

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable, request_root: bool = False) -> Callable:
        """Return *fn* timed as span *name*.

        A ``request_root`` span opened outside any request mints a new
        request id; every span opened inside it shares that id.
        """
        name_id = self._intern(name)
        names, starts, ends = self.name, self.start, self.end
        parents, requests, stack = self.parent, self.request, self._stack
        clock, recorder = perf_counter_ns, self

        def timed(*args: Any, **kwargs: Any) -> Any:
            minted = request_root and recorder._request == 0
            if minted:
                recorder._requests += 1
                recorder._request = recorder._requests
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(recorder._request)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if minted:
                    recorder._request = 0

        return timed

    def reset(self) -> None:
        """Forget every closed span (in place: wrappers hold the arrays)."""
        if self._stack:
            raise RuntimeError("cannot reset a recorder with open spans")
        for column in (self.name, self.start, self.end, self.parent, self.request):
            del column[:]

    def extend(self, other: "SpanRecorder") -> None:
        """Append *other*'s spans, re-indexing names and parents."""
        offset = len(self)
        remap = [self._intern(name) for name in other.names]
        self.name.extend(remap[name_id] for name_id in other.name)
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.parent.extend(p + offset if p >= 0 else -1 for p in other.parent)
        self.request.extend(other.request)

    def durations(self, name: str) -> List[int]:
        """Durations (ns) of every span called *name*, in opening order."""
        if name not in self.names:
            return []
        name_id = self.names.index(name)
        return [
            end - start
            for span_name, start, end in zip(self.name, self.start, self.end)
            if span_name == name_id
        ]

    def summary(self) -> Dict[str, Tuple[int, int, int]]:
        """``name -> (count, total_ns, self_ns)`` over every span."""
        durations = [end - start for start, end in zip(self.start, self.end)]
        covered = [0] * len(durations)
        for duration, parent in zip(durations, self.parent):
            if parent >= 0:
                covered[parent] += duration
        rows = [[0, 0, 0] for _ in self.names]
        for name_id, duration, child in zip(self.name, durations, covered):
            row = rows[name_id]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child
        return {name: tuple(row) for name, row in zip(self.names, rows)}

    def dump(self, path: Path) -> None:
        """Write every span as one JSON array per line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write('["name","start_ns","end_ns","parent","request"]\n')
            for row in zip(self.name, self.start, self.end, self.parent, self.request):
                name_id, start, end, parent, request = row
                handle.write(json.dumps([self.names[name_id], start, end, parent, request]))
                handle.write("\n")


class PdpProxy:
    """Forwards to a slotted ``PolicyDecisionPoint`` with ``decide`` timed."""

    def __init__(self, pdp: Any, decide: Callable) -> None:
        self._pdp = pdp
        self.decide = decide

    def __getattr__(self, name: str) -> Any:
        return getattr(self._pdp, name)


def instrument(recorder: SpanRecorder, fleet: Any, obs: Any) -> None:
    """Time each layer a cloud request crosses, from the outside.

    net (``Network.request``) → cloud (the handler behind
    ``set_handler``) → pdp (``decide``), audit (``AuditLog.record``),
    forensics (``ForensicTimeline.record``) and the observer hooks.
    """
    network, cloud = fleet.network, fleet.cloud
    network.request = recorder.wrap("net.request", network.request, request_root=True)
    network.set_handler(
        cloud.node_name, recorder.wrap("cloud.handle", cloud.handle_packet)
    )
    cloud.pdp = PdpProxy(cloud.pdp, recorder.wrap("pdp.decide", cloud.pdp.decide))
    cloud.audit.record = recorder.wrap("audit.record", cloud.audit.record)
    cloud.forensics.record = recorder.wrap("forensics.record", cloud.forensics.record)
    if obs is not None:
        for hook in OBS_HOOKS:
            setattr(obs, hook, recorder.wrap(f"obs.{hook}", getattr(obs, hook)))


class GcMonitor:
    """Counts collections and their pause time via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.collections += 1
            self.pause_s += perf_counter() - self._started

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self._callback)
