"""Worker-pool wire protocol and the per-worker world-image cache.

The persistent pool (``repro.parallel.pool``) feeds shard specs to
long-lived worker processes over typed queues; this module defines the
message dataclasses both sides exchange and the warm-start machinery a
worker keeps between tasks:

* :func:`world_key` — the cache key identifying the *deployed world* a
  shard spec needs, independent of the campaign run against it.  All
  three deployed campaigns (mass unbind, shadow probe, mass rebind)
  over the same ``(design, households, seed, build, run_seconds,
  trace_messages)`` share one key — which is exactly why an A2/A3/A4
  detection sweep amortizes one world build across three campaigns.
  Chaos shards and ``binding-dos`` (which attacks factory-fresh fleets,
  so a "deployed image" would be nothing but the plain rebuild) key to
  ``None``: they always run cold.
* :class:`WorldImageCache` — a small per-process LRU of
  :class:`~repro.fleet.WorldImage` captures with hit/miss accounting.
  Workers keep one each; the deterministic round-robin dispatch in the
  pool sends repeats of a shard index to the same worker slot, so the
  cache actually gets hit.
* message types — :class:`WorkerHello`, :class:`Heartbeat`,
  :class:`TaskRequest`, :class:`TaskResult`, :class:`Shutdown`.
  Heartbeats carry only a slot and a sequence number; the coordinator
  stamps arrival with its *own* clock, so liveness tracking never
  compares clocks across processes.

Everything here is picklable under every ``multiprocessing`` start
method (the pool prefers ``forkserver``).
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Campaigns that attack an already-deployed (set-up) fleet — the only
#: ones a warm-started world can serve.  ``repro.parallel.engine``
#: imports this tuple; keep it in sync with ``CAMPAIGNS`` there.
DEPLOYED_CAMPAIGNS = ("mass-unbind", "shadow-probe", "mass-rebind")


def world_key(spec: Any) -> Optional[str]:
    """The warm-start cache key for *spec*'s world, or ``None``.

    ``None`` means "this shard must run cold": chaos shards (fault
    plans perturb the world mid-build, and resilience clients are
    uncapturable by design) and non-deployed campaigns (binding-dos
    starts from a factory-fresh fleet, so there is nothing to warm).

    The key hashes ``repr(design)`` — not just the design name — so two
    custom designs that happen to share a name never share an image.
    Campaign name, probe budget and request rate are deliberately
    absent: they parameterize the attack, not the world it runs
    against.
    """
    if getattr(spec, "chaos", None) is not None:
        return None
    if spec.campaign not in DEPLOYED_CAMPAIGNS:
        return None
    material = "|".join(
        (
            repr(spec.design),
            str(spec.households),
            str(spec.seed),
            spec.build,
            repr(spec.run_seconds),
            str(spec.trace_messages),
        )
    )
    digest = zlib.crc32(material.encode("utf-8"))
    return (
        f"w{digest:08x}:{spec.design.name}"
        f":h{spec.households}:s{spec.seed}:{spec.build}"
    )


class WorldImageCache:
    """A small LRU of deployed-world images, with hit/miss accounting.

    One per worker process (and one per inline warm-start scope).  The
    cap exists because a :class:`~repro.fleet.WorldImage` scales with
    the shard's household count; a handful of distinct worlds covers
    every realistic campaign sweep.
    """

    def __init__(self, max_entries: int = 4) -> None:
        if max_entries < 1:
            raise ValueError("cache needs room for at least one image")
        self.max_entries = max_entries
        self._images: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: images ever stored (a pool worker freezes its heap after each)
        self.stored = 0

    def get(self, key: str) -> Optional[Any]:
        """The cached image under *key*, marking a hit or miss."""
        image = self._images.get(key)
        if image is None:
            self.misses += 1
            return None
        self.hits += 1
        self._images.move_to_end(key)
        return image

    def put(self, key: str, image: Any) -> None:
        """Cache *image* under *key*, evicting the least recent overflow."""
        self._images[key] = image
        self._images.move_to_end(key)
        self.stored += 1
        while len(self._images) > self.max_entries:
            self._images.popitem(last=False)

    def __len__(self) -> int:
        return len(self._images)

    def stats(self) -> Dict[str, int]:
        """Accounting for the pool's warm-start report."""
        return {"entries": len(self._images), "hits": self.hits, "misses": self.misses}


# -- queue messages ----------------------------------------------------------


@dataclass(frozen=True)
class WorkerHello:
    """A worker announcing it is up and consuming its task queue."""

    worker: int
    pid: int


@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness beacon from a worker's daemon thread.

    Carries no timestamp on purpose: the coordinator stamps arrival
    with its own monotonic clock, so staleness detection never depends
    on cross-process clock agreement.
    """

    worker: int
    seq: int


@dataclass(frozen=True)
class TaskRequest:
    """One shard of work, addressed to a specific worker slot."""

    task_id: int
    spec: Any  # a ShardSpec; typed loosely to keep this module leaf-level


@dataclass
class TaskResult:
    """A worker's answer: a shard result or a formatted traceback.

    ``error`` carries ``traceback.format_exc()`` when the shard raised —
    Python-level failures are *propagated*, not retried, because a
    deterministic world raises deterministically.  ``cache`` reports
    the worker's image-cache accounting after this task.
    """

    task_id: int
    worker: int
    result: Optional[Any] = None
    error: Optional[str] = None
    cache: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Shutdown:
    """Orderly stop: the worker drains nothing further and exits."""
