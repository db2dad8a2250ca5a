"""Shard worker process: daemon subclass and spawn target.

Everything in this module must be picklable or importable from a fresh
``spawn`` interpreter: :class:`WorkerSpec` travels over the spawn
pickle, :func:`worker_main` is the process target, and the daemon is
reconstructed inside the child from the spec alone (the parent's
``RuleStore`` never crosses the process boundary — rules travel as a
tuple and seed an in-process :class:`InMemoryRuleSource`).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.core.admission import BucketSnapshot, InMemoryRuleSource
from repro.core.config import ProcPlaneConfig, ServerConfig
from repro.core.rules import QoSRule
from repro.obs.recorder import global_flight_recorder
from repro.obs.tracing import global_trace_buffer
from repro.runtime.udp_server import QoSServerDaemon

__all__ = ["ShardWorkerDaemon", "WorkerSpec", "worker_main"]


@dataclass(frozen=True, slots=True)
class WorkerSpec:
    """Everything one worker process needs, in picklable form.

    ``shard_index``/``n_shards`` are *global* over the whole cluster
    shard space (``n_qos_nodes * processes`` when several multi-process
    nodes share one router partitioner), so a worker's advisory
    ownership test matches the router's CRC32 routing exactly.
    """

    shard_index: int
    n_shards: int
    name: str
    host: str = "127.0.0.1"
    #: Private per-worker port; 0 binds ephemeral (reported in "ready").
    port: int = 0
    server: ServerConfig = field(default_factory=ServerConfig)
    plane: ProcPlaneConfig = field(default_factory=ProcPlaneConfig)
    rules: "tuple[QoSRule, ...]" = ()
    #: Bucket state to re-seed after a crash restart.
    snapshots: "tuple[BucketSnapshot, ...]" = ()


class ShardWorkerDaemon(QoSServerDaemon):
    """A :class:`QoSServerDaemon` owning one CRC32 shard range.

    The worker binds its own private port; the router's partitioner
    aims each frame at the owning worker's port directly, so every
    frame a worker receives is decided where it lands.
    """

    def __init__(self, spec: WorkerSpec, rule_source):
        self.spec = spec
        super().__init__(
            rule_source,
            host=spec.host,
            port=spec.port,
            config=spec.server,
            name=spec.name,
            shard_range=(spec.shard_index, spec.n_shards),
        )

    def set_shard_range(self, shard_index: int, n_shards: int) -> None:
        """Retarget this worker's global shard range (live reshard).

        A topology change renumbers the global shard space (``N*T`` to
        ``M*T``); the supervisor pushes each surviving worker its new
        index so the advisory ownership test and rule revocation scans
        agree with the routers' new map.  Ownership is advisory (the
        controller still decides any key it is handed), so a brief skew
        during the rollout is harmless.
        """
        self.controller.shard_range = (shard_index, n_shards)


# ---------------------------------------------------------------------- #
# Process entry point
# ---------------------------------------------------------------------- #

def _safe_send(conn, message) -> bool:
    try:
        conn.send(message)
        return True
    except (OSError, ValueError, BrokenPipeError):
        return False


def _handle_control(daemon: ShardWorkerDaemon, source: InMemoryRuleSource,
                    conn, message) -> bool:
    """Apply one supervisor control message; ``False`` means drain."""
    kind = message[0]
    if kind == "drain":
        return False
    if kind == "rules":
        for rule in message[1]:
            source.put_rule(rule)
        daemon.controller.sync_rules()
    elif kind == "shard_range":
        daemon.set_shard_range(message[1], message[2])
    elif kind == "rpc":
        _, request_id, what, arg = message
        _safe_send(conn, ("rpc", request_id, _serve_rpc(daemon, what, arg)))
    return True


def _serve_rpc(daemon: ShardWorkerDaemon, what: str, arg):
    spec = daemon.spec
    if what == "stats":
        payload = {
            "name": spec.name,
            "shard": spec.shard_index,
            "pid": os.getpid(),
            "responses_sent": daemon.responses_sent,
            "malformed_packets": daemon.malformed_packets,
            "table_size": daemon.controller.table_size(),
            "table_bytes": daemon.controller.table_bytes(),
        }
        payload.update(daemon.controller.stats_snapshot())
        payload["decisions"] = payload["admitted"] + payload["denied"]
        return payload
    if what == "metrics":
        return daemon.metrics.render()
    if what == "flight":
        return global_flight_recorder().dump()
    if what == "trace":
        return [span.as_dict()
                for span in global_trace_buffer().get(int(arg))]
    if what == "snapshot":
        return tuple(daemon.controller.snapshot())
    return None


def worker_main(spec: WorkerSpec, conn) -> None:
    """Process target: run one shard worker until drained or killed.

    Protocol on ``conn`` (a duplex :mod:`multiprocessing` pipe):

    - child -> parent: ``("ready", shard, port, pid)`` once,
      then ``("hb", shard, decisions)`` heartbeats,
      ``("snapshot", shard, buckets)`` periodic bucket state (crash
      re-seed material), ``("rpc", id, payload)`` replies, and a final
      ``("exit", shard, reason)``.
    - parent -> child: ``("drain",)``, ``("rules", rules)``,
      ``("shard_range", index, n)``, ``("rpc", id, what, arg)``.

    SIGTERM triggers the same drain as ``("drain",)``: the daemon stops
    accepting, finishes every queued frame, and exits after a final
    snapshot — in-flight requests are answered, not dropped.
    """
    terminate = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: terminate.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    source = InMemoryRuleSource({rule.key: rule for rule in spec.rules})
    try:
        daemon = ShardWorkerDaemon(spec, source)
    except OSError as exc:
        _safe_send(conn, ("spawn_error", spec.shard_index, str(exc)))
        conn.close()
        return
    if spec.snapshots:
        daemon.controller.restore(spec.snapshots)
    daemon.start()
    _safe_send(conn, ("ready", spec.shard_index, daemon.address[1],
                      os.getpid()))
    plane = spec.plane
    poll_step = plane.heartbeat_interval / 4
    last_heartbeat = last_snapshot = time.monotonic()
    reason = "drain"
    try:
        while not terminate.is_set():
            if conn.poll(poll_step):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    reason = "pipe-closed"
                    break
                if not _handle_control(daemon, source, conn, message):
                    break
            now = time.monotonic()
            if now - last_heartbeat >= plane.heartbeat_interval:
                last_heartbeat = now
                _safe_send(conn, ("hb", spec.shard_index,
                                  daemon.controller.stats.decisions))
            if now - last_snapshot >= plane.snapshot_interval:
                last_snapshot = now
                _safe_send(conn, ("snapshot", spec.shard_index,
                                  tuple(daemon.controller.snapshot())))
    finally:
        daemon.stop()       # drains the FIFO: in-flight frames finish
        _safe_send(conn, ("snapshot", spec.shard_index,
                          tuple(daemon.controller.snapshot())))
        _safe_send(conn, ("exit", spec.shard_index, reason))
        conn.close()
