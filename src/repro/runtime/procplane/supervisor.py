"""ProcPlaneNode: supervisor for shared-nothing shard worker processes.

The supervisor spawns ``N`` :func:`~repro.runtime.procplane.worker.worker_main`
processes (``spawn`` start method — fork after the parent has started
threads is not safe), tracks their health over duplex pipes, and
presents the node as one unit: an ordered per-shard port map, merged
``/metrics`` text, aggregated ``/stats``, ``/flight`` and trace views,
and a drain-first ``stop()``.

Concurrency discipline: the monitor thread is the *sole* pipe user once
the node is started.  Other threads never touch a pipe — they append
control messages to per-worker lock-free outbox deques (GIL-atomic
append/popleft) which the monitor drains, and RPC callers park on an
event the monitor sets when the reply arrives.  This keeps every
``send``/``recv`` out of lock scopes (see ``janus lint``
blocking-under-lock) and serializes pipe access without a pipe lock.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from multiprocessing.connection import wait as _wait_connections
from typing import Callable, Iterable, Optional

from repro.core.admission import BucketSnapshot
from repro.core.config import ProcPlaneConfig, ServerConfig
from repro.core.errors import ConfigurationError
from repro.core.rules import QoSRule
from repro.obs.metrics import MetricsRegistry, merge_renderings
from repro.obs.recorder import global_flight_recorder
from repro.runtime.procplane.worker import WorkerSpec, worker_main

__all__ = ["ProcPlaneNode"]

#: Monitor wakeup bound — caps outbox flush latency and restart
#: detection latency between pipe events.
_MONITOR_TICK = 0.05

_RPC_TIMEOUT = 5.0


@dataclass
class _WorkerHandle:
    """Supervisor-side state for one worker process (monitor-owned)."""

    local_index: int
    spec: WorkerSpec
    process: object = None
    conn: object = None
    port: int = 0
    pid: int = 0
    last_heartbeat: float = 0.0
    last_decisions: int = 0
    restarts: int = 0
    last_snapshot: "tuple[BucketSnapshot, ...]" = ()
    #: Control messages queued for the monitor thread to send.
    outbox: deque = field(default_factory=deque)
    exited: bool = False
    failed: bool = False        # gave up restarting


class ProcPlaneNode:
    """A QoS node as a supervisor plus N shard worker processes.

    ``shard_base``/``shard_total`` place this node's workers inside a
    *global* shard space so several multi-process nodes can share one
    router CRC32 partitioner: node ``i`` of a cluster with ``P``
    processes each uses ``shard_base = i * P`` and
    ``shard_total = n_nodes * P``.

    ``on_remap(shard_index, old_addr, new_addr)`` fires when a restarted
    worker could not rebind its previous port and came back elsewhere —
    the router uses it to patch its backend list in place.
    """

    def __init__(
        self,
        rules: "Iterable[QoSRule]",
        *,
        config: Optional[ServerConfig] = None,
        plane: Optional[ProcPlaneConfig] = None,
        n_workers: Optional[int] = None,
        host: str = "127.0.0.1",
        name: str = "qos-node",
        shard_base: int = 0,
        shard_total: Optional[int] = None,
        on_remap: "Optional[Callable[[int, tuple, tuple], None]]" = None,
    ):
        self.config = config or ServerConfig(workers=2)
        self.plane = plane or ProcPlaneConfig()
        self.n_workers = (self.config.processes
                          if n_workers is None else n_workers)
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}")
        self.shard_base = shard_base
        self.shard_total = (self.n_workers
                            if shard_total is None else shard_total)
        if shard_base < 0 or shard_base + self.n_workers > self.shard_total:
            raise ConfigurationError(
                f"shard range [{shard_base}, {shard_base + self.n_workers})"
                f" does not fit in {self.shard_total} shards")
        self.rules: "tuple[QoSRule, ...]" = tuple(rules)
        self.host = host
        self.name = name
        self.on_remap = on_remap
        self.restarts_total = 0
        self._handles: "list[_WorkerHandle]" = []
        self._ctx = get_context("spawn")
        self._monitor: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._draining = False
        self._started = False
        self._rpc_ids = itertools.count(1)
        self._rpc_lock = threading.Lock()
        self._rpc_pending: "dict[int, list]" = {}
        labels = {"node": name}
        self.metrics = MetricsRegistry()
        self.metrics.counter(
            "janus_node_worker_restarts_total",
            "Worker processes restarted after a crash or stall",
            fn=lambda: self.restarts_total, **labels)
        self.metrics.gauge(
            "janus_node_workers_alive",
            "Worker processes currently believed healthy",
            fn=self._alive_count, **labels)
        self.metrics.gauge(
            "janus_node_workers_configured", "Configured worker count",
            fn=lambda: self.n_workers, **labels)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "ProcPlaneNode":
        if self._started:
            return self
        self._started = True
        try:
            spawned = [self._spawn(self._make_spec(i))
                       for i in range(self.n_workers)]
            for handle in spawned:
                self._await_ready(handle)
                self._handles.append(handle)
        except Exception:
            self._kill_all()
            self._started = False
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name=f"{self.name}.monitor",
            daemon=True)
        self._monitor.start()
        return self

    def stop(self) -> None:
        """Drain every worker, then reap; stragglers are terminated."""
        if not self._started:
            return
        self._draining = True
        for handle in self._handles:
            if not handle.exited and not handle.failed:
                handle.outbox.append(("drain",))
        deadline = time.monotonic() + self.plane.drain_timeout
        while time.monotonic() < deadline:
            if all(handle.process is None or not handle.process.is_alive()
                   for handle in self._handles):
                break
            time.sleep(0.02)
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        self._kill_all()
        self._started = False

    def __enter__(self) -> "ProcPlaneNode":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _kill_all(self) -> None:
        for handle in self._handles:
            process = handle.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None

    # ------------------------------------------------------------------ #
    # Spawning
    # ------------------------------------------------------------------ #

    def _make_spec(self, local_index: int, port: int = 0,
                   snapshots: "tuple[BucketSnapshot, ...]" = ()) -> WorkerSpec:
        return WorkerSpec(
            shard_index=self.shard_base + local_index,
            n_shards=self.shard_total,
            name=f"{self.name}-w{local_index}",
            host=self.host,
            port=port,
            server=self.config,
            plane=self.plane,
            rules=self.rules,
            snapshots=snapshots,
        )

    def _spawn(self, spec: WorkerSpec) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main, args=(spec, child_conn),
            name=spec.name, daemon=True)
        process.start()
        child_conn.close()
        return _WorkerHandle(
            local_index=spec.shard_index - self.shard_base,
            spec=spec, process=process, conn=parent_conn)

    def _await_ready(self, handle: _WorkerHandle) -> None:
        """Block until the worker reports ready (or fails to spawn)."""
        deadline = time.monotonic() + self.plane.spawn_timeout
        while time.monotonic() < deadline:
            if handle.conn.poll(0.05):
                try:
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    break
                if message[0] == "ready":
                    _, _shard, port, pid = message
                    handle.port = port
                    handle.pid = pid
                    handle.last_heartbeat = time.monotonic()
                    handle.exited = False
                    return
                if message[0] == "spawn_error":
                    raise ConfigurationError(
                        f"{handle.spec.name} failed to start: {message[2]}")
            elif not handle.process.is_alive():
                break
        raise ConfigurationError(
            f"{handle.spec.name} did not become ready within"
            f" {self.plane.spawn_timeout}s")

    # ------------------------------------------------------------------ #
    # Monitor thread: sole pipe user after start()
    # ------------------------------------------------------------------ #

    def _monitor_loop(self) -> None:
        plane = self.plane
        while not self._stop_event.is_set():
            self._flush_outboxes()
            live = {handle.conn: handle for handle in self._handles
                    if handle.conn is not None and not handle.exited}
            if live:
                for conn in _wait_connections(list(live),
                                              timeout=_MONITOR_TICK):
                    self._drain_conn(live[conn])
            else:
                time.sleep(_MONITOR_TICK)
            if self._draining:
                continue
            now = time.monotonic()
            for handle in self._handles:
                if handle.failed:
                    continue
                stalled = (now - handle.last_heartbeat
                           > plane.heartbeat_timeout)
                dead = (handle.exited
                        or (handle.process is not None
                            and not handle.process.is_alive())
                        or stalled)
                if dead:
                    self._restart(handle)

    def _flush_outboxes(self) -> None:
        for handle in self._handles:
            conn = handle.conn
            if conn is None or handle.exited:
                continue
            while handle.outbox:
                message = handle.outbox.popleft()
                try:
                    conn.send(message)
                except (OSError, ValueError, BrokenPipeError):
                    handle.exited = True
                    break

    def _drain_conn(self, handle: _WorkerHandle) -> None:
        conn = handle.conn
        try:
            while conn.poll():
                self._dispatch(handle, conn.recv())
        except (EOFError, OSError):
            handle.exited = True

    def _dispatch(self, handle: _WorkerHandle, message) -> None:
        kind = message[0]
        if kind == "hb":
            handle.last_heartbeat = time.monotonic()
            handle.last_decisions = message[2]
        elif kind == "snapshot":
            handle.last_snapshot = message[2]
        elif kind == "rpc":
            _, request_id, payload = message
            with self._rpc_lock:
                entry = self._rpc_pending.get(request_id)
            if entry is not None:
                entry[1] = payload
                entry[0].set()
        elif kind == "exit":
            handle.exited = True

    # ------------------------------------------------------------------ #
    # Crash restart with bucket-state re-seed
    # ------------------------------------------------------------------ #

    def _restart(self, handle: _WorkerHandle) -> None:
        self.restarts_total += 1
        old_process, old_conn = handle.process, handle.conn
        if old_process is not None and old_process.is_alive():
            old_process.terminate()
            old_process.join(timeout=1.0)
        if old_conn is not None:
            old_conn.close()
        handle.conn = None
        if handle.restarts >= self.plane.max_restarts:
            handle.failed = True
            global_flight_recorder().note(
                "worker_failed", node=self.name,
                shard=handle.spec.shard_index, restarts=handle.restarts)
            return
        handle.restarts += 1
        time.sleep(self.plane.restart_backoff)
        old_addr = (self.host, handle.port)
        # Re-bind the same port so the published map stays valid; fall
        # back to ephemeral (and remap the router) if it was taken.
        seed = handle.last_snapshot
        for port in (handle.port, 0):
            spec = self._make_spec(handle.local_index, port=port,
                                   snapshots=seed)
            fresh = self._spawn(spec)
            try:
                self._await_ready(fresh)
            except ConfigurationError:
                if fresh.process.is_alive():
                    fresh.process.terminate()
                    fresh.process.join(timeout=1.0)
                fresh.conn.close()
                continue
            handle.spec = spec
            handle.process = fresh.process
            handle.conn = fresh.conn
            handle.pid = fresh.pid
            handle.exited = False
            handle.outbox.clear()
            remapped = fresh.port != old_addr[1]
            handle.port = fresh.port
            global_flight_recorder().note(
                "worker_restarted", node=self.name,
                shard=handle.spec.shard_index, pid=handle.pid,
                remapped=remapped, reseeded=len(seed))
            if remapped and self.on_remap is not None:
                self.on_remap(handle.spec.shard_index, old_addr,
                              (self.host, handle.port))
            # The blocking ready-wait starved sibling heartbeat reads;
            # re-stamp so one slow spawn cannot cascade into restarts.
            now = time.monotonic()
            for sibling in self._handles:
                sibling.last_heartbeat = now
            return
        handle.failed = True
        global_flight_recorder().note(
            "worker_failed", node=self.name,
            shard=handle.spec.shard_index, restarts=handle.restarts)

    # ------------------------------------------------------------------ #
    # Node views
    # ------------------------------------------------------------------ #

    def _alive_count(self) -> int:
        return sum(1 for handle in self._handles
                   if not handle.exited and not handle.failed
                   and handle.process is not None
                   and handle.process.is_alive())

    def port_map(self) -> "list[tuple[str, int]]":
        """Per-shard worker addresses, ordered by local shard index."""
        return [(self.host, handle.port) for handle in self._handles]

    def backend_addresses(self) -> "list[tuple[str, int]]":
        """What the router should route to.

        One address per shard, in shard order, so the router's
        ``CRC32(key) % n`` partitioner lands every key on its owning
        worker directly.
        """
        return self.port_map()

    def put_rules(self, rules: "Iterable[QoSRule]") -> None:
        """Broadcast new/updated rules to every worker (and restarts)."""
        fresh = tuple(rules)
        merged = {rule.key: rule for rule in self.rules}
        merged.update({rule.key: rule for rule in fresh})
        self.rules = tuple(merged.values())
        for handle in self._handles:
            if not handle.exited and not handle.failed:
                handle.outbox.append(("rules", fresh))

    def retarget_shards(self, shard_base: int, shard_total: int) -> None:
        """Renumber this node's workers inside a new global shard space.

        A live reshard changes the cluster-wide shard count, so every
        surviving node's workers must re-learn their global index for
        the advisory ``owns()`` test to keep matching the routers' new
        CRC32 partitioner.  Ownership is advisory (any worker decides
        any key handed to it), so brief skew while the control messages
        propagate degrades nothing — it only mis-colors ``owns()``
        scans until the message lands.
        """
        if shard_base < 0 or shard_base + self.n_workers > shard_total:
            raise ConfigurationError(
                f"shard range [{shard_base}, {shard_base + self.n_workers})"
                f" does not fit in {shard_total} shards")
        self.shard_base = shard_base
        self.shard_total = shard_total
        for handle in self._handles:
            handle.spec = replace(
                handle.spec,
                shard_index=shard_base + handle.local_index,
                n_shards=shard_total)
            if not handle.exited and not handle.failed:
                handle.outbox.append(
                    ("shard_range", handle.spec.shard_index, shard_total))

    # ------------------------------------------------------------------ #
    # RPC + aggregation
    # ------------------------------------------------------------------ #

    def _rpc(self, handle: _WorkerHandle, what: str, arg=None,
             timeout: float = _RPC_TIMEOUT):
        if handle.conn is None or handle.exited or handle.failed:
            return None
        request_id = next(self._rpc_ids)
        entry = [threading.Event(), None]
        with self._rpc_lock:
            self._rpc_pending[request_id] = entry
        handle.outbox.append(("rpc", request_id, what, arg))
        try:
            if not entry[0].wait(timeout):
                return None
            return entry[1]
        finally:
            with self._rpc_lock:
                self._rpc_pending.pop(request_id, None)

    def worker_stats(self) -> "list[dict]":
        return [stats for stats in
                (self._rpc(handle, "stats") for handle in self._handles)
                if stats is not None]

    def stats(self) -> dict:
        workers = self.worker_stats()
        # Each worker owns a disjoint shard range, so summing its lease
        # ledger counters yields the node-wide ledger view: the live
        # grant count and the aggregate over-admission bound.
        lease = {
            field: sum(w.get(field, 0) for w in workers)
            for field in ("lease_grants", "lease_refusals",
                          "lease_returns", "lease_expired", "lease_revoked",
                          "leases_active", "lease_outstanding_credits",
                          "lease_granted_credits", "lease_returned_credits")
        }
        return {
            "name": self.name,
            "n_workers": self.n_workers,
            "workers_alive": self._alive_count(),
            "restarts": self.restarts_total,
            "port_map": self.port_map(),
            "decisions": sum(w.get("decisions", 0) for w in workers),
            "lease": lease,
            "workers": workers,
        }

    def total_decisions(self) -> int:
        total = 0
        for handle in self._handles:
            stats = self._rpc(handle, "stats")
            if stats is not None:
                total += stats.get("decisions", 0)
            else:
                total += handle.last_decisions   # best effort: last heartbeat
        return total

    def metrics_text(self) -> str:
        """Node ``/metrics``: per-worker registries merged with ours."""
        texts = [self.metrics.render()]
        for handle in self._handles:
            rendered = self._rpc(handle, "metrics")
            if rendered:
                texts.append(rendered)
        return merge_renderings(texts)

    def flight(self) -> "list[dict]":
        """Merged per-worker flight recorders, oldest first."""
        entries: "list[dict]" = []
        for handle in self._handles:
            dump = self._rpc(handle, "flight")
            if not dump:
                continue
            for row in dump:
                row["worker"] = handle.spec.name
                entries.append(row)
        entries.sort(key=lambda row: row.get("time", 0.0))
        return entries

    def trace_spans(self, trace_id: int) -> "list[dict]":
        """Server-side spans for one trace, across all workers."""
        spans: "list[dict]" = []
        for handle in self._handles:
            result = self._rpc(handle, "trace", arg=trace_id)
            if result:
                spans.extend(result)
        return spans

    def bucket_snapshots(self) -> "dict[int, tuple]":
        """Latest per-shard bucket state (live RPC, heartbeat fallback)."""
        out: "dict[int, tuple]" = {}
        for handle in self._handles:
            live = self._rpc(handle, "snapshot")
            out[handle.spec.shard_index] = (tuple(live) if live is not None
                                            else handle.last_snapshot)
        return out
