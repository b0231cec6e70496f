"""The persistent worker pool: long-lived shard runners with warm starts.

The fork-per-shard path (``context.Pool.map`` in
``repro.parallel.engine``) pays process start-up and — for deployed
campaigns — a full fleet build + Figure 1 setup + settling run *per
shard, per campaign*.  Over a sweep of campaigns that overhead repeats
for every campaign.  This pool keeps the workers alive instead, and
``repro.parallel.engine.run_campaigns`` shares one across a sweep:

* each worker slot owns a dedicated task queue and a dedicated outbound
  queue (heartbeats + results), so one crashed writer can never corrupt
  a channel other workers share;
* dispatch is deterministic round-robin — task *i* goes to slot
  ``i % workers`` — so repeated campaigns route the same shard to the
  same slot and its :class:`~repro.parallel.protocol.WorldImageCache`
  actually hits;
* workers warm-start deployed-campaign shards from cached
  :class:`~repro.fleet.WorldImage` captures instead of rebuilding the
  fleet (bit-identical results; see ``docs/performance.md``);
* the coordinator sleeps in ``multiprocessing.connection.wait`` on the
  out-queues and process sentinels, so it wakes as a result lands;
* a daemon thread in every worker emits
  :class:`~repro.parallel.protocol.Heartbeat` beacons; the coordinator
  detects a dead or wedged worker (process exit, stale heartbeat, or a
  per-task deadline) and **respawns the slot without losing the
  campaign** — outstanding tasks are requeued to the fresh worker, up
  to an attempts cap;
* Python exceptions raised inside a shard are *propagated*, never
  retried: the worlds are deterministic, so a deterministic failure
  would just fail again.

Start method: ``forkserver`` where available (clean template process,
no inherited locks), else ``fork``, else ``spawn`` — the worker entry
point imports everything it needs, so all three behave identically.
"""

from __future__ import annotations

import gc
import os
import queue as queue_module
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import multiprocessing
from multiprocessing.connection import wait

from repro.parallel.protocol import (
    Heartbeat,
    Shutdown,
    TaskRequest,
    TaskResult,
    WorkerHello,
    WorldImageCache,
)

#: How long a worker sleeps between heartbeats (seconds).
HEARTBEAT_INTERVAL = 0.25

#: Heartbeats a worker may miss before the coordinator declares it dead.
HEARTBEAT_GRACE = 40

#: How many times one task may be dispatched before the pool gives up.
MAX_TASK_ATTEMPTS = 3

#: World images each worker keeps (LRU).
IMAGE_CACHE_ENTRIES = 4


class PoolError(RuntimeError):
    """The pool cannot make progress (task retries exhausted)."""


class WorkerTaskError(RuntimeError):
    """A shard raised inside a worker; carries the worker traceback."""

    def __init__(self, task_id: int, worker: int, worker_traceback: str) -> None:
        super().__init__(
            f"task {task_id} raised in worker {worker}:\n{worker_traceback}"
        )
        self.task_id = task_id
        self.worker = worker
        self.worker_traceback = worker_traceback


def preferred_start_method() -> str:
    """``forkserver`` > ``fork`` > ``spawn``, whichever the platform has."""
    methods = multiprocessing.get_all_start_methods()
    for method in ("forkserver", "fork", "spawn"):
        if method in methods:
            return method
    return methods[0]  # pragma: no cover - every platform has spawn


def task_overdue(
    busy_since: Optional[float], now: float, timeout: Optional[float]
) -> bool:
    """Has a worker been grinding without producing, past *timeout*?

    ``busy_since`` is coordinator-side bookkeeping: the moment the
    worker's current head-of-line task became its sole focus (first
    dispatch while idle, or the arrival of the previous result while
    more tasks were outstanding).  ``None`` means idle.  A ``None``
    timeout disables the deadline entirely — shards can legitimately
    run for minutes.
    """
    if timeout is None or busy_since is None:
        return False
    return (now - busy_since) > timeout


def _worker_main(
    slot: int,
    task_queue: Any,
    out_queue: Any,
    warm_start: bool,
) -> None:
    """Worker process entry point: loop tasks until :class:`Shutdown`.

    Each task runs through :func:`run_task`, which imports the engine
    lazily so the module graph stays acyclic (``engine`` imports this
    module for the pooled execution path) and the entry point works
    under every start method.
    """
    cache = WorldImageCache(max_entries=IMAGE_CACHE_ENTRIES) if warm_start else None
    out_queue.put(WorkerHello(worker=slot, pid=os.getpid()))

    stop = threading.Event()

    def beat() -> None:
        seq = 0
        while not stop.is_set():
            try:
                out_queue.put(Heartbeat(worker=slot, seq=seq))
            except Exception:  # pragma: no cover - queue torn down mid-exit
                return
            seq += 1
            stop.wait(HEARTBEAT_INTERVAL)

    heartbeats = threading.Thread(target=beat, daemon=True)
    heartbeats.start()
    try:
        while True:
            message = task_queue.get()
            if isinstance(message, Shutdown):
                return
            run_task(slot, message, cache, out_queue)
    finally:
        stop.set()


def run_task(
    slot: int,
    message: TaskRequest,
    cache: Optional[WorldImageCache],
    out_queue: Any,
) -> None:
    """Run one task the way a worker does, owning the process's collector.

    The shard runs with automatic collection paused (restored even when
    it raises): its world is freed by refcount when it closes, so the
    collector has nothing to find mid-task but would walk every cached
    image to find it.  Once the reply is queued, one collection sweeps
    whatever the task left, and if the task cached a new image the
    surviving heap — images plus imports, no world is alive — is frozen
    out of later collections.  Evicted images still free by refcount.
    """
    from repro.parallel.engine import run_shard

    stored = cache.stored if cache is not None else 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            reply = TaskResult(
                task_id=message.task_id,
                worker=slot,
                result=run_shard(message.spec, image_cache=cache),
                cache=cache.stats() if cache is not None else {},
            )
        except BaseException:
            reply = TaskResult(
                task_id=message.task_id,
                worker=slot,
                error=traceback.format_exc(),
                cache=cache.stats() if cache is not None else {},
            )
        out_queue.put(reply)
    finally:
        if enabled:
            gc.enable()
    del reply
    gc.collect()
    if cache is not None and cache.stored != stored:
        gc.freeze()


@dataclass
class _Slot:
    """Coordinator-side state for one worker slot."""

    index: int
    process: Any = None
    task_queue: Any = None
    out_queue: Any = None
    #: task_id -> TaskRequest, in dispatch order
    outstanding: Dict[int, TaskRequest] = field(default_factory=dict)
    busy_since: Optional[float] = None
    last_heartbeat: Optional[float] = None
    cache_stats: Dict[str, int] = field(default_factory=dict)


class WorkerPool:
    """A fixed set of persistent shard-running worker processes.

    Usable as a context manager; :meth:`run` may be called repeatedly
    (that is the point — campaign sweeps reuse the workers *and* their
    world-image caches).  All coordinator bookkeeping uses its own
    monotonic clock; nothing compares clocks across processes.
    """

    def __init__(
        self,
        workers: int,
        warm_start: bool = True,
        task_timeout: Optional[float] = None,
        observer: Any = None,
    ) -> None:
        if workers < 1:
            raise PoolError("need at least one worker")
        self.workers = workers
        self.start_method = preferred_start_method()
        self.warm_start = warm_start
        self.task_timeout = task_timeout
        self._observer = observer
        self._context = multiprocessing.get_context(self.start_method)
        self._slots: List[_Slot] = [_Slot(index=i) for i in range(workers)]
        self._started = False
        self._closed = False
        self._on_dispatch: Optional[Callable[[int, int], None]] = None
        # lifetime accounting
        self.respawns = 0
        self.tasks_completed = 0
        self.warm_starts = 0
        self.cold_builds = 0
        self.busy_seconds = 0.0
        self.run_wall_seconds = 0.0

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def start(self) -> None:
        """Spawn every worker (idempotent)."""
        if self._closed:
            raise PoolError("pool is closed")
        if self._started:
            return
        for slot in self._slots:
            self._spawn(slot)
        self._started = True

    def close(self) -> None:
        """Shut the workers down; joins briefly, then terminates."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if slot.process is None:
                continue
            try:
                slot.task_queue.put(Shutdown())
            except Exception:  # pragma: no cover - queue already broken
                pass
        for slot in self._slots:
            if slot.process is None:
                continue
            slot.process.join(timeout=2.0)
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)

    def _spawn(self, slot: _Slot) -> None:
        """(Re)create the processes and queues behind one slot."""
        slot.task_queue = self._context.Queue()
        slot.out_queue = self._context.Queue()
        slot.process = self._context.Process(
            target=_worker_main,
            args=(
                slot.index,
                slot.task_queue,
                slot.out_queue,
                self.warm_start,
            ),
            daemon=True,
        )
        slot.process.start()
        slot.busy_since = None
        slot.last_heartbeat = time.monotonic()

    # -- test hooks ----------------------------------------------------------

    def kill_worker(self, slot_index: int) -> None:
        """SIGKILL one worker process (crash-injection for tests)."""
        process = self._slots[slot_index].process
        if process is not None and process.is_alive():
            os.kill(process.pid, signal.SIGKILL)

    # -- execution -----------------------------------------------------------

    def run(
        self,
        specs: List[Any],
        on_dispatch: Optional[Callable[[int, int], None]] = None,
    ) -> List[Any]:
        """Run every spec, returning results in spec order.

        Dispatch is deterministic round-robin (spec *i* to slot
        ``i % workers``); *on_dispatch(task_id, slot_index)* fires after
        each enqueue (tests use it to kill a worker at a precise,
        reproducible moment).  Results are collected by ``task_id``, so
        neither completion order nor respawns can reorder them.
        """
        if self._closed:
            raise PoolError("pool is closed")
        if not specs:
            return []
        self.start()
        started = time.monotonic()
        attempts: Dict[int, int] = {}
        results: Dict[int, Any] = {}
        self._on_dispatch = on_dispatch
        try:
            for task_id, spec in enumerate(specs):
                slot = self._slots[task_id % self.workers]
                self._dispatch(
                    slot, TaskRequest(task_id=task_id, spec=spec), attempts
                )
            while len(results) < len(specs):
                progressed = self._drain(results)
                if not progressed:
                    self._check_workers(attempts, results)
                    self._wait_for_message()
        finally:
            self._on_dispatch = None
            self.run_wall_seconds += time.monotonic() - started
        self._emit_run_metrics()
        return [results[task_id] for task_id in range(len(specs))]

    # -- internals -----------------------------------------------------------

    def _dispatch(
        self, slot: _Slot, request: TaskRequest, attempts: Dict[int, int]
    ) -> None:
        count = attempts.get(request.task_id, 0) + 1
        if count > MAX_TASK_ATTEMPTS:
            raise PoolError(
                f"task {request.task_id} failed {MAX_TASK_ATTEMPTS} "
                "dispatch attempts (worker kept dying)"
            )
        attempts[request.task_id] = count
        slot.outstanding[request.task_id] = request
        if slot.busy_since is None:
            slot.busy_since = time.monotonic()
        slot.task_queue.put(request)
        if self._on_dispatch is not None:
            self._on_dispatch(request.task_id, slot.index)

    def _drain(self, results: Dict[int, Any]) -> bool:
        """Collect everything currently readable; True if anything was."""
        progressed = False
        now = time.monotonic()
        for slot in self._slots:
            while True:
                try:
                    message = slot.out_queue.get_nowait()
                except queue_module.Empty:
                    break
                except (EOFError, OSError):  # pragma: no cover - torn pipe
                    break
                progressed = True
                if isinstance(message, Heartbeat) or isinstance(message, WorkerHello):
                    slot.last_heartbeat = now
                    continue
                if isinstance(message, TaskResult):
                    slot.last_heartbeat = now
                    self._absorb(slot, message, results, now)
        return progressed

    def _wait_for_message(self) -> None:
        """Block until a slot has something to read or a worker exits.

        Wakes on the out-queue readers and the process sentinels, so a
        result is picked up as soon as it lands; the heartbeat interval
        bounds the wait, so the staleness and deadline checks still run.
        """
        waitables = []
        for slot in self._slots:
            waitables.append(slot.out_queue._reader)
            waitables.append(slot.process.sentinel)
        wait(waitables, timeout=HEARTBEAT_INTERVAL)

    def _absorb(
        self, slot: _Slot, message: TaskResult, results: Dict[int, Any], now: float
    ) -> None:
        slot.outstanding.pop(message.task_id, None)
        slot.busy_since = now if slot.outstanding else None
        slot.cache_stats = dict(message.cache)
        if message.error is not None:
            raise WorkerTaskError(message.task_id, slot.index, message.error)
        results[message.task_id] = message.result
        self.tasks_completed += 1
        result = message.result
        source = getattr(result, "world_source", "cold")
        if source == "warm":
            self.warm_starts += 1
        else:
            self.cold_builds += 1
        self.busy_seconds += getattr(result, "wall_seconds", 0.0)
        metrics = self._metrics()
        if metrics is not None:
            metrics.histogram("parallel.pool.world_seconds").observe(
                getattr(result, "world_seconds", 0.0)
            )
            metrics.counter("parallel.pool.tasks").inc(1, world=source)

    def _check_workers(
        self, attempts: Dict[int, int], results: Dict[int, Any]
    ) -> None:
        """Respawn any slot that is dead, silent, or past its deadline."""
        now = time.monotonic()
        stale_after = HEARTBEAT_INTERVAL * HEARTBEAT_GRACE
        for slot in self._slots:
            dead = slot.process is not None and not slot.process.is_alive()
            silent = (
                not dead
                and slot.outstanding
                and slot.last_heartbeat is not None
                and (now - slot.last_heartbeat) > stale_after
            )
            overdue = task_overdue(slot.busy_since, now, self.task_timeout)
            if not (dead or silent or overdue):
                continue
            self._respawn(slot, attempts, results)

    def _respawn(
        self, slot: _Slot, attempts: Dict[int, int], results: Dict[int, Any]
    ) -> None:
        """Replace a failed worker and requeue its outstanding tasks.

        The fresh worker starts with an empty world-image cache, so the
        requeued shards run cold — slower, but bit-identical (that
        equivalence is exactly what the warm-start tests pin down).
        """
        process = slot.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stubborn process
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=1.0)
        # Salvage results the worker managed to send before dying, then
        # requeue whatever never came back.  The old queues die with the
        # slot: a killed writer can hold a queue lock forever, so the
        # replacement worker gets fresh channels.
        self._drain(results)
        requeue = [slot.outstanding[task_id] for task_id in sorted(slot.outstanding)]
        slot.outstanding = {}
        self.respawns += 1
        self._spawn(slot)
        for request in requeue:
            self._dispatch(slot, request, attempts)

    def _metrics(self) -> Any:
        """The metrics registry behind *observer*, if any.

        Accepts either an :class:`~repro.obs.runtime.Observability`
        (uses its ``.metrics`` registry) or a bare
        :class:`~repro.obs.metrics.MetricsRegistry`.  These are
        *coordinator-side* pool metrics; they never enter the merged
        shard results, so pooled campaign output stays bit-identical
        to serial.
        """
        if self._observer is None:
            return None
        return getattr(self._observer, "metrics", self._observer)

    def _emit_run_metrics(self) -> None:
        metrics = self._metrics()
        if metrics is None:
            return
        metrics.gauge("parallel.pool.utilization").set(self.utilization)
        metrics.gauge("parallel.pool.respawns").set(self.respawns)

    # -- accounting ----------------------------------------------------------

    @property
    def utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds, 0..1."""
        available = self.workers * self.run_wall_seconds
        return (self.busy_seconds / available) if available > 0 else 0.0

    def stats(self) -> Dict[str, Any]:
        """JSON-able pool accounting (reports, benchmarks, CLI)."""
        cache = {"entries": 0, "hits": 0, "misses": 0}
        for slot in self._slots:
            for key in cache:
                cache[key] += slot.cache_stats.get(key, 0)
        return {
            "workers": self.workers,
            "start_method": self.start_method,
            "warm_start_enabled": self.warm_start,
            "tasks": self.tasks_completed,
            "warm_starts": self.warm_starts,
            "cold_builds": self.cold_builds,
            "respawns": self.respawns,
            "busy_seconds": self.busy_seconds,
            "run_wall_seconds": self.run_wall_seconds,
            "utilization": self.utilization,
            "image_cache": cache,
        }
