"""Real UDP QoS server (paper §III-C, over actual sockets).

Faithful to the paper's Java structure: a UDP listener thread receives
datagrams and pushes them into a FIFO; N worker threads poll the FIFO, make
the admission decision through the shared
:class:`~repro.core.admission.AdmissionController`, and send the response
back via UDP without caring whether it arrives.  Housekeeping (interval
refill) and maintenance (database sync + check-pointing) threads run at
their configured intervals.

The I/O is batched (``ServerConfig.batch_size``): after one blocking
receive the listener opportunistically drains every datagram already
queued in the kernel buffer — up to the batch limit, without waiting — and
hands workers the whole batch as a single FIFO item, so per-packet queue
overhead is amortized under load and zero extra latency is added when
idle.  A worker decides the entire batch first and only then writes the
responses out in one combining pass, which keeps the admission hot path
free of syscalls between decisions.

Both wire protocol versions are served on the same port, dispatched on
the version byte: v1 single-message datagrams (the paper's one message
per datagram) and protocol-v2 batch frames carrying up to
``MAX_FRAME_MESSAGES`` requests (what router channels send).  Responses
mirror the request's version — every v2 request frame is answered with
exactly one v2 response frame, so the frame-level amortization survives
the return path; v1 requests get v1 responses, keeping v1 clients
interoperable.

Stray or malformed datagrams on the port are counted and dropped — a
service exposed on UDP must tolerate garbage.
"""

from __future__ import annotations

import queue
import select
import socket
import threading
from typing import Optional

from repro.core.admission import AdmissionController, RuleSource
from repro.core.bucket import RefillMode
from repro.core.dedup import DedupCache
from repro.core.config import ServerConfig
from repro.core.errors import ProtocolError
from repro.core.protocol import (
    LeaseGrant,
    LeaseRequest,
    LeaseRevoke,
    QoSRequest,
    QoSResponse,
    SnapshotChunk,
    TopologyUpdate,
    VERSION2,
    decode_any_traced,
    encode_lease_grant_frame,
    encode_lease_revoke_frame,
    encode_response_frame,
    encode_response_frame_bits,
    encode_xfer_ack_frame,
)
from repro.obs.metrics import MetricsRegistry, register_snapshot_gauges
from repro.obs.tracing import default_tracer
from repro.runtime.reshard.state import ReshardState

__all__ = ["QoSServerDaemon"]

_STOP = object()

#: Receive buffer size; must fit a maximal v2 frame.
_RECV_BUFFER = 65535


class _WorkerScratch:
    """Per-worker reusable buffers for the decode/decide loop.

    The seed worker rebuilt its request-id, key and response lists for
    every frame — one list churn per datagram at tens of thousands of
    frames a second.  Each worker thread now owns one scratch set, cleared
    in place between frames; ``tests/runtime/test_worker_alloc.py`` pins
    the steady-state allocation count.
    """

    __slots__ = ("ids", "keys", "costs", "responses", "out")

    def __init__(self) -> None:
        self.ids: list[int] = []
        self.keys: list[str] = []
        self.costs: list[float] = []
        self.responses: list[QoSResponse] = []
        #: Outgoing ``(payload, addr, n_responses)`` triples per FIFO item.
        self.out: list[tuple[bytes, tuple, int]] = []


class QoSServerDaemon:
    """One QoS server bound to a local UDP port."""

    def __init__(
        self,
        rule_source: RuleSource,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServerConfig] = None,
        name: str = "qos-server",
        shard_range: "Optional[tuple[int, int]]" = None,
    ):
        self.config = config or ServerConfig(workers=4)
        self.name = name
        self.controller = AdmissionController(rule_source, self.config.admission,
                                              shard_range=shard_range)
        self._dedup = (DedupCache(self.config.dedup_window)
                       if self.config.dedup_window is not None else None)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((host, port))
        self._sock.settimeout(self.config.recv_timeout)
        self.address: tuple[str, int] = self._sock.getsockname()
        self._fifo: "queue.SimpleQueue" = queue.SimpleQueue()
        self._fifo_depth = 0            # GIL-atomic += / -= suffices
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self.malformed_packets = 0
        self.responses_sent = 0
        self._started = False
        self._tracer = default_tracer()
        labels = {"server": name}
        self.metrics = MetricsRegistry()
        self.metrics.counter(
            "janus_server_responses_sent_total",
            "Responses put on the wire", fn=lambda: self.responses_sent,
            **labels)
        self.metrics.counter(
            "janus_server_malformed_packets_total",
            "Datagrams or messages dropped as malformed",
            fn=lambda: self.malformed_packets, **labels)
        self.metrics.gauge(
            "janus_server_fifo_depth", "Datagram batches queued for workers",
            fn=lambda: self._fifo_depth, **labels)
        self.metrics.gauge(
            "janus_admission_table_size",
            "Leaky buckets resident in the admission table",
            fn=self.controller.table_size, **labels)
        self.metrics.gauge(
            "janus_admission_table_bytes",
            "Estimated resident bytes of the admission table "
            "(exact column accounting on the slab backend)",
            fn=self.controller.table_bytes, **labels)
        # Rule pushes revoke the affected keys' leases; the hook fires
        # outside every controller lock, so sending datagrams here is
        # safe (and best-effort — a lost revoke dies at the lease TTL).
        self.controller.lease_revoke_hook = self._send_lease_revokes
        # Live-resharding state: topology announcements open a transfer
        # window during which moved keys get default replies instead of
        # bucket decisions (no credit spent behind the snapshot's back).
        self.reshard = ReshardState(self.address)
        self.metrics.counter(
            "janus_server_transfer_default_replies_total",
            "Default replies served for frozen keys during a reshard "
            "transfer window",
            fn=lambda: self.reshard.transfer_default_replies, **labels)
        self.metrics.counter(
            "janus_reshard_chunks_received_total",
            "SNAPSHOT_XFER chunks restored into the local table",
            fn=lambda: self.reshard.chunks_received, **labels)
        self.metrics.counter(
            "janus_reshard_keys_restored_total",
            "Warm buckets restored from snapshot transfer",
            fn=lambda: self.reshard.keys_restored, **labels)
        self.metrics.gauge(
            "janus_reshard_committed_epoch",
            "Topology epoch this server has committed",
            fn=lambda: self.reshard.committed_epoch, **labels)
        self._recv_batch = self.metrics.histogram(
            "janus_server_recv_batch",
            "Datagrams drained per listener wakeup", **labels)
        register_snapshot_gauges(
            self.metrics, "janus_server_admission",
            self.controller.stats_snapshot, **labels)
        for index, snapshot_fn in enumerate(
                self.controller.stripe_snapshots()):
            register_snapshot_gauges(
                self.metrics, "janus_server_admission_stripe", snapshot_fn,
                stripe=str(index), **labels)

    # ------------------------------------------------------------------ #

    def start(self) -> "QoSServerDaemon":
        if self._started:
            return self
        self._started = True
        self._threads.append(threading.Thread(
            target=self._listener, name=f"{self.name}.listener", daemon=True))
        for i in range(self.config.workers):
            self._threads.append(threading.Thread(
                target=self._worker, name=f"{self.name}.worker{i}", daemon=True))
        if self.config.admission.refill_mode is RefillMode.INTERVAL:
            self._threads.append(threading.Thread(
                target=self._housekeeping, name=f"{self.name}.housekeeping",
                daemon=True))
        self._threads.append(threading.Thread(
            target=self._maintenance, name=f"{self.name}.maintenance",
            daemon=True))
        for t in self._threads:
            t.start()
        return self

    def stop(self) -> None:
        if not self._started:
            return
        self._stop.set()
        for _ in range(self.config.workers):
            self._fifo.put(_STOP)
        for t in self._threads:
            t.join(timeout=2.0)
        self._sock.close()
        self._started = False

    def __enter__(self) -> "QoSServerDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #

    def _listener(self) -> None:
        """Receive datagram batches and push them into the FIFO.

        One blocking receive per wakeup, then a non-blocking drain of
        whatever the kernel already buffered (bounded by ``batch_size``).
        """
        sock = self._sock
        max_batch = self.config.batch_size
        while not self._stop.is_set():
            try:
                first = sock.recvfrom(_RECV_BUFFER)
            except socket.timeout:
                continue
            except OSError:
                return      # socket closed during shutdown
            batch = [first]
            if max_batch > 1:
                self._drain_queued(sock, batch, max_batch)
            self._recv_batch.record(len(batch))
            self._fifo_depth += 1
            self._fifo.put(batch)

    @staticmethod
    def _drain_queued(sock: socket.socket, batch: list,
                      max_batch: int) -> None:
        """Append already-queued datagrams to ``batch`` without blocking.

        Uses zero-timeout readiness polls rather than flipping the shared
        socket non-blocking, because worker threads send responses on the
        same socket concurrently.
        """
        try:
            while (len(batch) < max_batch
                   and select.select([sock], [], [], 0)[0]):
                batch.append(sock.recvfrom(_RECV_BUFFER))
        except OSError:
            pass            # socket closed; deliver what we have

    def _worker(self) -> None:
        """Poll the FIFO, decide a whole batch, then reply via UDP.

        Responses are write-combined: every decision in the whole FIFO
        item — across all of its datagrams and every request inside each
        v2 frame — is made before the first ``sendto``, so the admission
        hot path never alternates with socket syscalls.  Each v2 request
        frame earns exactly one v2 response frame; v1 requests are
        answered with v1 datagrams.  Delivery stays fire-and-forget.
        """
        sock = self._sock
        scratch = _WorkerScratch()
        while True:
            item = self._fifo.get()
            if item is _STOP:
                return
            self._fifo_depth -= 1
            self._decide_item(item, scratch)
            sent = 0
            for payload, addr, n_responses in scratch.out:
                try:
                    sock.sendto(payload, addr)
                    sent += n_responses
                except OSError:
                    # "The worker thread does not care about whether the
                    # request router receives the response or not" (§III-C).
                    pass
            if sent:
                self.responses_sent += sent

    def _decide_item(self, item, scratch: _WorkerScratch) -> None:
        """Decide one FIFO item into ``scratch.out`` (cleared first).

        The fast path is frame-at-a-time: a v2 request frame (with request
        deduplication off, its default) is decided by one
        ``check_batch`` call — one shard-lock take and one clock read per
        shard per frame — and its verdict bitmap is encoded straight into
        the v2 response frame, no per-request ``QoSResponse`` objects.
        Frames are homogeneous by construction (one message type per
        frame), so one type check on the head dispatches the whole frame.

        The per-message path remains for v1 datagrams and for deduping
        servers, whose replay cache is consulted per request id.  All
        working lists live in ``scratch`` and are cleared in place, so the
        steady-state loop allocates only the decoded messages and the
        encoded reply.
        """
        check = self.controller.check
        check_batch = self.controller.check_batch
        dedup = self._dedup
        tracer = self._tracer
        reshard = self.reshard
        # One boolean read per FIFO item: outside a transfer window the
        # reshard plane costs the hot path a single branch.
        window_open = reshard.active
        out = scratch.out
        del out[:]
        malformed = 0
        for data, addr in item:
            try:
                version, trace_id, messages = decode_any_traced(data)
            except ProtocolError:
                malformed += 1
                continue
            # Lease frames are homogeneous (one message type per
            # frame), so one type check on the head dispatches the
            # whole credit-lease path off the admission hot path.
            if messages and type(messages[0]) is LeaseRequest:
                reply = self._lease_replies(messages, addr, trace_id,
                                            window_open)
                if reply is not None:
                    out.append(reply)
                continue
            # Reshard control frames (rare; off the admission path).
            if messages and type(messages[0]) is SnapshotChunk:
                ack = reshard.on_chunk(messages[0], self.controller.restore)
                out.append((encode_xfer_ack_frame([ack], trace_id=trace_id),
                            addr, 1))
                continue
            if messages and type(messages[0]) is TopologyUpdate:
                ack = reshard.on_topology(
                    messages[0], local_keys=self.controller.local_keys,
                    drop=self.controller.drop_buckets)
                # The window may have just opened or closed; re-read so
                # the rest of this item honours the new state.
                window_open = reshard.active
                out.append((encode_xfer_ack_frame([ack], trace_id=trace_id),
                            addr, 1))
                continue
            # A traced frame earns a server-side decision span; the
            # untraced path pays one integer comparison.
            span = (tracer.start(trace_id, "server.decide", "qos_server",
                                 {"server": self.name})
                    if trace_id else None)
            if (dedup is None and not window_open and version == VERSION2
                    and messages and type(messages[0]) is QoSRequest):
                ids = scratch.ids
                keys = scratch.keys
                costs = scratch.costs
                del ids[:]
                del keys[:]
                del costs[:]
                for message in messages:
                    ids.append(message.request_id)
                    keys.append(message.key)
                    costs.append(message.cost)
                verdicts = check_batch(keys, costs)
                if span is not None:
                    tracer.finish(span, n=len(ids),
                                  admitted=verdicts.bit_count())
                # Echo the trace id so the router can attribute the
                # response frame if it ever needs to.
                out.append((encode_response_frame_bits(ids, verdicts,
                                                       trace_id=trace_id),
                            addr, len(ids)))
                continue
            responses = scratch.responses
            del responses[:]
            admitted = 0
            for message in messages:
                if not isinstance(message, QoSRequest):
                    malformed += 1
                    continue
                if window_open and reshard.frozen(message.key):
                    # Transfer window: this key's warm state is moving
                    # to a new owner.  Serve the paper's degraded default
                    # reply — flagged as such — instead of a bucket
                    # decision, so no moved credit is double-spent.
                    reshard.transfer_default_replies += 1
                    responses.append(QoSResponse(
                        message.request_id, reshard.default_verdict,
                        is_default_reply=True))
                    continue
                memoized = (dedup.lookup(addr, message.request_id)
                            if dedup is not None else None)
                if memoized is not None:
                    allowed = memoized
                else:
                    allowed = check(message.key, message.cost)
                    if dedup is not None:
                        dedup.remember(addr, message.request_id, allowed)
                if allowed:
                    admitted += 1
                responses.append(QoSResponse(message.request_id, allowed))
            if span is not None:
                tracer.finish(span, n=len(responses), admitted=admitted)
            if not responses:
                continue
            if version == VERSION2:
                out.append((encode_response_frame(responses,
                                                  trace_id=trace_id),
                            addr, len(responses)))
            else:
                out.append((responses[0].encode(), addr, 1))
        if malformed:
            self.malformed_packets += malformed

    # ------------------------------------------------------------------ #
    # credit-lease plane (DESIGN.md, "Credit leasing")
    # ------------------------------------------------------------------ #

    def _lease_replies(self, messages, addr, trace_id: int,
                       window_open: bool = False) \
            -> "Optional[tuple[bytes, tuple, int]]":
        """Process one LEASE_REQ frame; return the grant frame to send.

        Returns are applied before fresh asks so a renewal (return +
        ask in one request) sees its own remainder back in the bucket.
        Every ask is answered — a refusal is a grant with ``lease_id=0``
        — so the router's pending table never waits out a lost verdict;
        pure returns (``credits == 0``) get no reply.

        During a reshard transfer window, frozen keys are refused and
        their returns dropped: the lease ledger already travelled in the
        snapshot, so touching the local bucket would fork the
        accounting.  A dropped return errs toward under-admission — the
        safe side — and is bounded by the key's outstanding leases.
        """
        controller = self.controller
        reshard = self.reshard
        tracer = self._tracer
        span = (tracer.start(trace_id, "server.lease", "qos_server",
                             {"server": self.name}) if trace_id else None)
        grants: list[LeaseGrant] = []
        granted_total = 0.0
        for message in messages:
            if type(message) is not LeaseRequest:
                self.malformed_packets += 1
                continue
            if window_open and reshard.frozen(message.key):
                reshard.lease_refusals_frozen += 1
                if message.credits > 0:
                    grants.append(LeaseGrant(
                        message.request_id, message.key, 0, 0.0, 0))
                continue
            if message.return_lease_id:
                # Also called with return_credits == 0: a fully-drained
                # renewal has nothing to re-credit but must still close
                # the old ledger entry, or its granted total would pin
                # the key's max_lease_fraction headroom until the TTL.
                controller.lease_return(message.key, message.return_lease_id,
                                        message.return_credits)
            if message.credits <= 0:
                continue                        # pure return: no reply
            lease_id, granted, ttl = controller.lease_grant(
                message.key, message.credits, message.ttl_ms / 1000.0,
                holder=addr)
            grants.append(LeaseGrant(
                message.request_id, message.key, lease_id, granted,
                int(ttl * 1000.0) if lease_id else 0))
            granted_total += granted
        if span is not None:
            tracer.finish(span, asks=len(grants), granted=granted_total)
        if not grants:
            return None
        return (encode_lease_grant_frame(grants, trace_id=trace_id),
                addr, len(grants))

    def _send_lease_revokes(self, revoked) -> None:
        """Push LEASE_REVOKE frames to the holders of revoked leases.

        ``revoked`` is the controller hook's ``[(key, record), ...]``
        list; records granted without a holder address (tests, simnet)
        are skipped.  Fire-and-forget like every server send: a lost
        revoke merely lets the router spend its already-debited balance
        until the TTL.
        """
        by_holder: dict[tuple, list[LeaseRevoke]] = {}
        for key, record in revoked:
            if record.holder is None:
                continue
            by_holder.setdefault(tuple(record.holder), []).append(
                LeaseRevoke(record.lease_id, key))
        sock = self._sock
        for holder, revokes in by_holder.items():
            try:
                sock.sendto(encode_lease_revoke_frame(revokes), holder)
            except OSError:
                pass

    # ------------------------------------------------------------------ #

    def _housekeeping(self) -> None:
        """Interval refill of every leaky bucket (§III-C)."""
        interval = self.config.admission.refill_interval
        while not self._stop.wait(interval):
            self.controller.refill_all()

    def _maintenance(self) -> None:
        """Periodic database sync and credit check-pointing (§II-D)."""
        sync_every = self.config.admission.sync_interval
        checkpoint_every = self.config.admission.checkpoint_interval
        step = min(sync_every, checkpoint_every, 0.5)
        elapsed_sync = elapsed_checkpoint = 0.0
        while not self._stop.wait(step):
            elapsed_sync += step
            elapsed_checkpoint += step
            # Lease TTLs are sub-second; sweep the ledger every step so
            # abandoned grants release their outstanding-credit headroom
            # promptly (live leases are untouched).
            self.controller.lease_expire()
            if elapsed_sync >= sync_every:
                elapsed_sync = 0.0
                self.controller.sync_rules()
            if elapsed_checkpoint >= checkpoint_every:
                elapsed_checkpoint = 0.0
                self.controller.checkpoint()
