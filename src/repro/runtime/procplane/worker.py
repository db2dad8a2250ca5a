"""Shard worker process: daemon subclass, spawn target, forward envelope.

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
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.admission import BucketSnapshot, InMemoryRuleSource
from repro.core.config import ProcPlaneConfig, ServerConfig
from repro.core.errors import ProtocolError
from repro.core.hashing import crc32_of
from repro.core.protocol import (
    LeaseRequest,
    QoSRequest,
    VERSION2,
    decode_any_traced,
    encode_lease_request_frame,
    encode_request_frame_parts,
)
from repro.core.rules import QoSRule
from repro.obs.recorder import global_flight_recorder
from repro.obs.tracing import global_trace_buffer
from repro.runtime.udp_server import _RECV_BUFFER, QoSServerDaemon

__all__ = [
    "FORWARD_MAGIC",
    "ShardWorkerDaemon",
    "WorkerSpec",
    "pack_forward",
    "unpack_forward",
    "worker_main",
]

#: Sibling-forward envelope marker.  A forwarded datagram is
#: ``FORWARD_MAGIC + ipv4(router) + port(router) + inner_frame`` so the
#: owning sibling can reply to the router directly — the forwarding
#: worker never sits on the return path.
FORWARD_MAGIC = b"JXF1"

_FORWARD_HEADER = struct.Struct("!4sH")     # ipv4 (inet_aton) + port
_FORWARD_PREFIX = len(FORWARD_MAGIC) + _FORWARD_HEADER.size


def pack_forward(payload: bytes, reply_addr: "tuple[str, int]") -> bytes:
    """Wrap ``payload`` so the receiving sibling replies to ``reply_addr``."""
    host, port = reply_addr
    return (FORWARD_MAGIC
            + _FORWARD_HEADER.pack(socket.inet_aton(host), port)
            + payload)


def unpack_forward(data: bytes) -> "Optional[tuple[bytes, tuple[str, int]]]":
    """Inverse of :func:`pack_forward`; ``None`` if not an envelope."""
    if len(data) <= _FORWARD_PREFIX or not data.startswith(FORWARD_MAGIC):
        return None
    packed_host, port = _FORWARD_HEADER.unpack_from(data, len(FORWARD_MAGIC))
    return data[_FORWARD_PREFIX:], (socket.inet_ntoa(packed_host), port)


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
    #: Shared SO_REUSEPORT fan-in port ("reuseport" mode only); 0 on the
    #: first worker means bind-ephemeral-and-report, siblings then get
    #: the concrete port.
    node_port: int = 0
    fanin: str = "portmap"
    server: ServerConfig = field(default_factory=ServerConfig)
    plane: ProcPlaneConfig = field(default_factory=ProcPlaneConfig)
    rules: "tuple[QoSRule, ...]" = ()
    #: Bucket state to re-seed after a crash restart.
    snapshots: "tuple[BucketSnapshot, ...]" = ()


class ShardWorkerDaemon(QoSServerDaemon):
    """A :class:`QoSServerDaemon` owning one CRC32 shard range.

    In ``"reuseport"`` mode the daemon additionally binds the shared
    node port with ``SO_REUSEPORT`` and runs a fan-in thread that splits
    each kernel-delivered frame by owner: its own share is injected into
    the local FIFO, the rest is forwarded to the owning sibling wrapped
    in the :func:`pack_forward` envelope (the sibling replies to the
    router directly, so a forwarded message costs exactly one extra
    local hop and no extra return hop).
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
        self.forwarded_out = 0          # messages handed to a sibling
        self.forwarded_in = 0           # envelopes unwrapped here
        self.forward_drops = 0          # owner's port not yet known
        self.fanin_frames = 0           # datagrams taken off the shared port
        self._sibling_ports: "list[int]" = []
        self._fanin_sock: Optional[socket.socket] = None
        self.fanin_address: "Optional[tuple[str, int]]" = None
        labels = {"server": spec.name, "shard": str(spec.shard_index)}
        self.metrics.counter(
            "janus_worker_forwarded_out_total",
            "Messages forwarded to the owning sibling",
            fn=lambda: self.forwarded_out, **labels)
        self.metrics.counter(
            "janus_worker_forwarded_in_total",
            "Forward envelopes received from siblings",
            fn=lambda: self.forwarded_in, **labels)
        self.metrics.counter(
            "janus_worker_forward_drops_total",
            "Messages dropped because the owner's port was unknown",
            fn=lambda: self.forward_drops, **labels)
        self.metrics.counter(
            "janus_worker_fanin_frames_total",
            "Datagrams received on the shared SO_REUSEPORT port",
            fn=lambda: self.fanin_frames, **labels)
        # Live shard range: starts at the spec's values, retargeted by a
        # supervisor ("shard_range", ...) control message when a reshard
        # renumbers the global shard space.
        self._shard_index = spec.shard_index
        self._n_shards = spec.n_shards
        if spec.fanin == "reuseport":
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((spec.host, spec.node_port))
            sock.settimeout(self.config.recv_timeout)
            self._fanin_sock = sock
            self.fanin_address = sock.getsockname()
            # Reply from the shared port: the router's connected channel
            # socket only accepts datagrams whose source address is the
            # peer it connected to.
            self.reply_sock = sock
            # Routers aim at the shared fan-in address, so topology
            # ownership during a reshard is judged against it too
            # (node-granularity moves in reuseport mode).
            self.reshard.address = tuple(self.fanin_address)

    # ------------------------------------------------------------------ #

    def _unwrap(self, data: bytes, addr):
        """Strip the sibling-forward envelope (QoSServerDaemon hook)."""
        inner = unpack_forward(data)
        if inner is None:
            return data, addr
        self.forwarded_in += 1
        return inner

    def set_sibling_ports(self, ports: Sequence[int]) -> None:
        """Install the port map (indexed by global shard index)."""
        self._sibling_ports = list(ports)

    def set_shard_range(self, shard_index: int, n_shards: int) -> None:
        """Retarget this worker's global shard range (live reshard).

        A topology change renumbers the global shard space (``N*T`` to
        ``M*T``); the supervisor pushes each surviving worker its new
        index so the advisory ownership test, the fan-in split and rule
        revocation scans agree with the routers' new map.  Ownership is
        advisory (the controller still decides any key it is handed), so
        a brief skew during the rollout only costs extra forwards.
        """
        self._shard_index = shard_index
        self._n_shards = n_shards
        self.controller.shard_range = (shard_index, n_shards)

    # ------------------------------------------------------------------ #

    def start(self) -> "ShardWorkerDaemon":
        if not self._started and self._fanin_sock is not None:
            self._threads.append(threading.Thread(
                target=self._fanin_listener, name=f"{self.name}.fanin",
                daemon=True))
        super().start()
        return self

    def stop(self) -> None:
        super().stop()
        if self._fanin_sock is not None:
            self._fanin_sock.close()

    # ------------------------------------------------------------------ #

    def _fanin_listener(self) -> None:
        """Drain the shared port, splitting each frame by shard owner."""
        sock = self._fanin_sock
        while not self._stop.is_set():
            try:
                data, addr = sock.recvfrom(_RECV_BUFFER)
            except socket.timeout:
                continue
            except OSError:
                return          # socket closed during shutdown
            self.fanin_frames += 1
            self._split_by_owner(data, addr)

    def _split_by_owner(self, data: bytes, addr) -> None:
        """Inject our share of a fan-in frame, forward the rest.

        A frame whose messages all belong to us is injected unmodified
        (no re-encode).  Mixed v2 frames are split into per-owner
        sub-frames that keep the original trace id, so server-side spans
        still join the router's trace.  v1 datagrams carry one message
        and are injected or forwarded whole.
        """
        try:
            version, trace_id, messages = decode_any_traced(data)
        except ProtocolError:
            self.malformed_packets += 1
            return
        n_shards = self._n_shards
        my_index = self._shard_index
        if messages and type(messages[0]) is LeaseRequest:
            # Lease frames route by key owner exactly like requests; the
            # owning shard debits its own bucket and replies (grant or
            # revoke) from the shared port, so the router's connected
            # socket accepts the source address.
            self._split_lease_frame(messages, addr, trace_id)
            return
        mine: "list[QoSRequest]" = []
        other: "dict[int, list[QoSRequest]]" = {}
        malformed = 0
        for message in messages:
            if not isinstance(message, QoSRequest):
                malformed += 1
                continue
            owner = crc32_of(message.key) % n_shards
            if owner == my_index:
                mine.append(message)
            else:
                other.setdefault(owner, []).append(message)
        if malformed:
            self.malformed_packets += malformed
        if not other:
            if mine:
                self.inject(data, addr)
            return
        if version != VERSION2:
            # v1 is single-message; "other" non-empty means it is not ours.
            self._forward(next(iter(other)), data, addr)
            return
        if mine:
            self.inject(
                encode_request_frame_parts(
                    [(m.request_id, m._validated_key_bytes(), m.cost)
                     for m in mine],
                    trace_id=trace_id),
                addr)
        for owner, batch in other.items():
            payload = encode_request_frame_parts(
                [(m.request_id, m._validated_key_bytes(), m.cost)
                 for m in batch],
                trace_id=trace_id)
            self._forward(owner, payload, addr, count=len(batch))

    def _split_lease_frame(self, messages, addr, trace_id: int) -> None:
        """Route one LEASE_REQ frame's entries to their owning shards."""
        n_shards = self._n_shards
        my_index = self._shard_index
        mine: "list[LeaseRequest]" = []
        other: "dict[int, list[LeaseRequest]]" = {}
        for message in messages:
            if type(message) is not LeaseRequest:
                self.malformed_packets += 1
                continue
            owner = crc32_of(message.key) % n_shards
            if owner == my_index:
                mine.append(message)
            else:
                other.setdefault(owner, []).append(message)
        if mine:
            self.inject(encode_lease_request_frame(mine, trace_id), addr)
        for owner, batch in other.items():
            self._forward(owner,
                          encode_lease_request_frame(batch, trace_id),
                          addr, count=len(batch))

    def _forward(self, owner: int, payload: bytes, reply_addr,
                 count: int = 1) -> None:
        ports = self._sibling_ports
        if owner >= len(ports) or not ports[owner]:
            # Port map not broadcast yet (startup / restart window); the
            # router's default-reply timer covers the gap.
            self.forward_drops += count
            return
        try:
            self._sock.sendto(pack_forward(payload, reply_addr),
                              (self.spec.host, ports[owner]))
            self.forwarded_out += count
        except OSError:
            self.forward_drops += count


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
    if kind == "portmap":
        daemon.set_sibling_ports(message[1])
    elif kind == "rules":
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
            "forwarded_in": daemon.forwarded_in,
            "forwarded_out": daemon.forwarded_out,
            "forward_drops": daemon.forward_drops,
            "fanin_frames": daemon.fanin_frames,
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

    - child -> parent: ``("ready", shard, port, fanin_port, pid)`` once,
      then ``("hb", shard, decisions)`` heartbeats,
      ``("snapshot", shard, buckets)`` periodic bucket state (crash
      re-seed material), ``("rpc", id, payload)`` replies, and a final
      ``("exit", shard, reason)``.
    - parent -> child: ``("drain",)``, ``("portmap", ports)``,
      ``("rules", rules)``, ``("rpc", id, what, arg)``.

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
    fanin_port = daemon.fanin_address[1] if daemon.fanin_address else 0
    _safe_send(conn, ("ready", spec.shard_index, daemon.address[1],
                      fanin_port, os.getpid()))
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
