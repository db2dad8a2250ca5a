"""Real HTTP request router (paper §III-B, over actual sockets).

A stateless threaded HTTP server.  ``GET /qos?key=<k>[&cost=<c>]`` selects
the backend QoS server with ``CRC32(key) mod N`` and exchanges UDP
messages with it under the configured timeout-and-retry policy, answering
the client with a small JSON body:

    {"allow": true, "default": false, "attempts": 1}

``POST /qos/batch`` accepts ``{"items": [{"key": ..., "cost": ...}, ...]}``
(or the ``{"keys": [...]}`` shorthand), resolves every item concurrently —
items routed to the same backend share one protocol-v2 frame — and answers
``{"results": [...]}`` in item order, so applications can amortize the
HTTP hop across many QoS keys.

``GET /healthz`` answers 200 (load-balancer health checks) with a
liveness summary: backend count and the channel's queue depths.

Observability endpoints (see ``docs/OPERATIONS.md``):

- ``GET /metrics`` — the router's :class:`~repro.obs.metrics.MetricsRegistry`
  rendered as the Prometheus text exposition (request counters, the
  request-latency histogram, every channel instrument);
- ``GET /trace/<id>`` — the spans of one sampled trace from the
  process-wide trace buffer (all layers of a LocalCluster share it);
- ``GET /trace`` — recently buffered trace ids;
- ``GET /flight`` — the process flight recorder's ring.

Tracing: a client may pass ``&trace=<16-hex>`` on ``GET /qos`` (or
``"trace_id"`` in the batch body) to trace that request end to end;
requests arriving untraced are head-sampled at
``RouterConfig.trace_sample_rate``.  Either way the response body gains
a ``"trace"`` field carrying the id to query.

Behind both endpoints is one wire path: a shared non-blocking UDP
channel per backend, driven by a selectors event thread that batches
concurrent requests into protocol-v2 frames and runs retries off a timer
wheel (:mod:`repro.runtime.udp_channel`).
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Sequence
from urllib.parse import parse_qs, urlparse

from repro.core.config import RouterConfig
from repro.core.hashing import crc32_router
from repro.core.protocol import QoSResponse
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import global_flight_recorder
from repro.obs.tracing import (
    HeadSampler,
    default_tracer,
    format_trace_id,
    global_trace_buffer,
    parse_trace_id,
)
from repro.runtime.lease import LeaseManager
from repro.runtime.udp_channel import ChannelSet

__all__ = ["RequestRouterDaemon"]

#: Upper bound on items per ``POST /qos/batch`` request.
MAX_BATCH_ITEMS = 1024

#: The reply for a check admitted from leased credit: no wire exchange
#: happened, so there is no request id to echo (``attempts`` is 0 in the
#: HTTP body, which is how clients and tests tell the lease path apart).
_LEASE_ADMIT = QoSResponse(0, True)


class RequestRouterDaemon:
    """One request-router node bound to a local HTTP port."""

    def __init__(
        self,
        qos_servers: Sequence[tuple[str, int]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[RouterConfig] = None,
        name: str = "router",
        extra_trace_spans: Optional[Callable[[int], "list[dict]"]] = None,
    ):
        if not qos_servers:
            raise ValueError("router needs at least one QoS server address")
        self.qos_servers = list(qos_servers)
        # Multi-process nodes keep their server.decide spans in worker
        # processes; the harness wires a collector here so GET /trace/<id>
        # still returns the full multi-layer trace.
        self._extra_trace_spans = extra_trace_spans
        # With one backend the CRC32 partition is constant; skip hashing.
        self._sole_backend = (tuple(self.qos_servers[0])
                              if len(self.qos_servers) == 1 else None)
        self.config = config or RouterConfig(udp_timeout=0.05)
        self.name = name
        # The observability plane: one registry per router daemon (tests
        # spin several routers per process, so a process-global registry
        # would cross-contaminate), one process-wide tracer/buffer (a
        # LocalCluster's layers share the process, so one buffer holds
        # the full multi-layer trace).
        self.metrics = MetricsRegistry()
        self._tracer = default_tracer()
        self._sampler = HeadSampler(self.config.trace_sample_rate)
        labels = {"router": name}
        self._m_requests = self.metrics.counter(
            "janus_router_requests_total", "Admission checks handled",
            **labels)
        self._m_defaults = self.metrics.counter(
            "janus_router_default_replies_total",
            "Checks answered by the default reply", **labels)
        self.metrics.counter(
            "janus_router_udp_retries_total",
            "Datagram re-sends on the channel's timer wheel",
            fn=lambda: self.retries, **labels)
        self.metrics.gauge(
            "janus_router_backends", "Configured QoS-server backends",
            fn=lambda: len(self.qos_servers), **labels)
        self.metrics.counter(
            "janus_router_traces_started_total",
            "Requests traced (client-initiated or head-sampled)",
            fn=lambda: self._traces_started, **labels)
        self._traces_started = 0        # GIL-atomic increments suffice
        self._m_latency = self.metrics.histogram(
            "janus_router_request_seconds",
            "Admission-check latency through the router (wire exchange)",
            scale=1e-9, **labels)
        #: Committed topology epoch (0 until the first live reshard) and
        #: the number of backend-map changes applied, both exported.
        self.topology_epoch = 0
        self.remap_total = 0
        self.metrics.counter(
            "janus_router_remap_total",
            "Backend-map changes applied (restores and reshards)",
            fn=lambda: self.remap_total, **labels)
        self.metrics.gauge(
            "janus_router_topology_epoch",
            "Committed reshard topology epoch",
            fn=lambda: self.topology_epoch, **labels)
        #: ``POST /topology`` handler injected by the cluster supervisor
        #: (``{"action": "add"|"remove"|"status", ...} -> dict``); the
        #: endpoint answers 404 until something wires it.
        self.reshard_control: "Optional[Callable[[dict], dict]]" = None
        self._channels = ChannelSet(self.qos_servers, self.config,
                                    registry=self.metrics,
                                    tracer=self._tracer, labels=labels)
        # The credit-lease plane: hot keys are admitted locally from
        # leased bucket credit (DESIGN.md).
        self._lease_mgr: Optional[LeaseManager] = None
        if self.config.lease_enabled:
            manager = LeaseManager(self.config, tracer=self._tracer)
            manager.send = self._channels.send_lease_frame
            manager.schedule = self._channels.call_later
            self._channels.lease_listener = manager.on_message
            self._lease_mgr = manager
            lease_counters = {
                "local_admits": "Checks admitted from leased credit",
                "requests_sent": "LEASE_REQ frames sent",
                "grants": "Leases granted and installed",
                "refusals": "Lease requests the server refused",
                "revoked": "Leases revoked by a rule push",
                "expired": "Leases retired at their TTL deadline",
                "renewals": "Leases renewed at the TTL deadline",
                "returned_credits": "Unspent leased credit returned",
            }
            for field, help_text in lease_counters.items():
                self.metrics.counter(
                    f"janus_router_lease_{field}_total", help_text,
                    fn=(lambda f=field: getattr(manager, f)), **labels)
            self.metrics.gauge(
                "janus_router_leases_active", "Leases currently held",
                fn=manager.active_leases, **labels)
        router = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Loopback HTTP with Nagle + delayed ACK costs ~40 ms per
            # request; admission control cannot afford that.
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):    # silence default stderr log
                pass

            def do_GET(self):                      # noqa: N802 (stdlib API)
                parsed = urlparse(self.path)
                if parsed.path == "/healthz":
                    self._reply(200, router.health())
                    return
                if parsed.path == "/stats":
                    self._reply(200, router.stats())
                    return
                if parsed.path == "/metrics":
                    payload = router.prometheus_metrics().encode()
                    self.send_response(200)
                    self.send_header("Content-Type",
                                     "text/plain; version=0.0.4")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                    return
                if parsed.path == "/topology":
                    body = router.topology()
                    control = router.reshard_control
                    if control is not None:
                        # Merge the coordinator's view (node names — what
                        # ``reshard remove`` needs — and reshard counters)
                        # under the router's own committed map.
                        try:
                            body = {**control({"action": "status"}), **body}
                        except Exception:   # noqa: BLE001 (view is best-effort)
                            pass
                    self._reply(200, body)
                    return
                if parsed.path == "/flight":
                    recorder = global_flight_recorder()
                    self._reply(200, {"recorded": recorder.recorded,
                                      "entries": recorder.dump()})
                    return
                if parsed.path == "/trace" or parsed.path == "/trace/":
                    buffer = global_trace_buffer()
                    self._reply(200, {"traces": [format_trace_id(tid)
                                                 for tid in buffer.ids()]})
                    return
                if parsed.path.startswith("/trace/"):
                    trace_id = parse_trace_id(parsed.path[len("/trace/"):])
                    spans = (global_trace_buffer().get(trace_id)
                             if trace_id else [])
                    rendered = [span.as_dict() for span in spans]
                    if trace_id and router._extra_trace_spans is not None:
                        rendered.extend(router._extra_trace_spans(trace_id))
                    if not rendered:
                        self._reply(404, {"error": "unknown trace"})
                        return
                    self._reply(200, {
                        "trace_id": format_trace_id(trace_id),
                        "spans": rendered,
                    })
                    return
                if parsed.path != "/qos":
                    self._reply(404, {"error": "not found"})
                    return
                params = parse_qs(parsed.query)
                key = params.get("key", [""])[0]
                if not key:
                    self._reply(400, {"error": "missing key"})
                    return
                try:
                    cost = float(params.get("cost", ["1.0"])[0])
                except ValueError:
                    self._reply(400, {"error": "bad cost"})
                    return
                if not (math.isfinite(cost) and cost > 0):
                    self._reply(400, {"error": "bad cost"})
                    return
                trace_id = parse_trace_id(params.get("trace", [""])[0])
                response, attempts, trace_id = router.qos_exchange_traced(
                    key, cost, trace_id, http_span=True)
                body = {
                    "allow": response.allowed,
                    "default": response.is_default_reply,
                    "attempts": attempts,
                }
                if trace_id:
                    body["trace"] = format_trace_id(trace_id)
                self._reply(200, body)

            def do_POST(self):                     # noqa: N802 (stdlib API)
                path = urlparse(self.path).path
                if path == "/topology":
                    control = router.reshard_control
                    if control is None:
                        self._reply(404, {"error": "no reshard control"
                                          " wired to this router"})
                        return
                    try:
                        length = int(self.headers.get("Content-Length", "0"))
                        payload = json.loads(self.rfile.read(length))
                    except (ValueError, json.JSONDecodeError):
                        self._reply(400, {"error": "bad JSON body"})
                        return
                    if not isinstance(payload, dict):
                        self._reply(400, {"error": "body must be an object"})
                        return
                    try:
                        self._reply(200, control(payload))
                    except Exception as exc:    # noqa: BLE001 (operator API)
                        self._reply(409, {"error": str(exc)})
                    return
                if path != "/qos/batch":
                    self._reply(404, {"error": "not found"})
                    return
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    payload = json.loads(self.rfile.read(length))
                except (ValueError, json.JSONDecodeError):
                    self._reply(400, {"error": "bad JSON body"})
                    return
                items = self._batch_items(payload)
                if items is None:
                    self._reply(400, {"error": "bad batch: need items "
                                      f"(1..{MAX_BATCH_ITEMS}) with "
                                      "non-empty keys and finite costs > 0"})
                    return
                trace_id = 0
                raw_trace = payload.get("trace_id")
                if isinstance(raw_trace, str):
                    trace_id = parse_trace_id(raw_trace)
                exchanged, trace_id = router.qos_exchange_many_traced(
                    items, trace_id, http_span=True)
                results = [
                    {"allow": response.allowed,
                     "default": response.is_default_reply,
                     "attempts": attempts}
                    for response, attempts in exchanged
                ]
                body = {"results": results}
                if trace_id:
                    body["trace"] = format_trace_id(trace_id)
                self._reply(200, body)

            @staticmethod
            def _batch_items(payload) -> "Optional[list[tuple[str, float]]]":
                """Validate a batch body into ``[(key, cost), ...]``."""
                if not isinstance(payload, dict):
                    return None
                raw = payload.get("items")
                if raw is None and isinstance(payload.get("keys"), list):
                    raw = [{"key": k} for k in payload["keys"]]
                if not isinstance(raw, list) or \
                        not (1 <= len(raw) <= MAX_BATCH_ITEMS):
                    return None
                items: list[tuple[str, float]] = []
                for entry in raw:
                    if not isinstance(entry, dict):
                        return None
                    key = entry.get("key")
                    try:
                        cost = float(entry.get("cost", 1.0))
                    except (TypeError, ValueError):
                        return None
                    if (not isinstance(key, str) or not key
                            or not math.isfinite(cost) or cost <= 0):
                        return None
                    items.append((key, cost))
                return items

            def _reply(self, status: int, body: dict) -> None:
                payload = json.dumps(body).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self.address: tuple[str, int] = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #

    @property
    def url(self) -> str:
        return f"http://{self.address[0]}:{self.address[1]}"

    def start(self) -> "RequestRouterDaemon":
        if self._thread is None:
            self._channels.start()
            self._thread = threading.Thread(
                target=self._server.serve_forever, name=self.name, daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=2.0)
            self._thread = None
            self._channels.stop()

    def __enter__(self) -> "RequestRouterDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #

    def prometheus_metrics(self) -> str:
        """Prometheus text exposition (served on ``GET /metrics``).

        Rendered from the router's :class:`MetricsRegistry` — correct
        ``# HELP``/``# TYPE`` lines, escaped labels, histogram bucket
        series — covering the request counters, the request-latency
        histogram, and every channel instrument.
        """
        return self.metrics.render()

    def health(self) -> dict:
        """Liveness summary (served on ``GET /healthz``)."""
        stats = self._channels.stats
        channels = self._channels._channels.values()
        return {
            "status": "ok",
            "name": self.name,
            "backends": len(self.qos_servers),
            "requests_handled": self.requests_handled,
            "channel": {
                "pending": sum(len(c.pending) for c in channels),
                "inflight": sum(len(c.inflight) for c in channels),
                "default_replies": stats.default_replies,
                "send_errors": stats.send_errors,
            },
        }

    @property
    def requests_handled(self) -> int:
        return int(self._m_requests.value)

    @property
    def default_replies(self) -> int:
        return int(self._m_defaults.value)

    @property
    def retries(self) -> int:
        return self._channels.stats.retries

    def stats(self) -> dict:
        """Operational counters (served on ``GET /stats``)."""
        stats = {
            "name": self.name,
            "requests_handled": self.requests_handled,
            "default_replies": self.default_replies,
            "retries": self.retries,
            "backends": len(self.qos_servers),
            "traces_started": self._traces_started,
            "channel": self._channels.stats.as_dict(),
        }
        if self._lease_mgr is not None:
            stats["lease"] = self._lease_mgr.stats()
        return stats

    def route(self, key: str) -> tuple[str, int]:
        """The paper's routing function (Fig. 2)."""
        if self._sole_backend is not None:
            return self._sole_backend
        # Single read: apply_topology swaps the list atomically, and
        # hashing against one snapshot keeps index and length coherent
        # while the cluster shrinks.
        servers = self.qos_servers
        return servers[crc32_router(key, len(servers))]

    def topology(self) -> dict:
        """The committed partition map (served on ``GET /topology``)."""
        return {
            "epoch": self.topology_epoch,
            "backends": [list(addr) for addr in self.qos_servers],
            "remap_total": self.remap_total,
        }

    def apply_topology(self, epoch: int,
                       backends: "Sequence[tuple[str, int]]") -> bool:
        """Cut this router over to a resharded backend map.

        Called by the reshard coordinator between the snapshot push and
        the COMMIT broadcast.  Channels to new backends open first, the
        list swaps atomically (every in-flight :meth:`route` call holds
        its own snapshot), channels to removed backends retire (their
        in-flight exchanges resolve through timers), and router-held
        leases for moved keys are dropped without returning the balance
        — the transferred bucket ledger keeps the debit, preserving the
        over-admission bound.
        """
        if epoch <= self.topology_epoch:
            return False
        new_servers = [tuple(addr) for addr in backends]
        if not new_servers:
            raise ValueError("topology needs at least one backend")
        old_servers = {tuple(addr) for addr in self.qos_servers}
        for addr in new_servers:
            if addr not in old_servers:
                self._channels.add_backend(addr)
        self.qos_servers = new_servers
        self._sole_backend = (new_servers[0]
                              if len(new_servers) == 1 else None)
        self.topology_epoch = epoch
        self.remap_total += 1
        for addr in old_servers.difference(new_servers):
            self._channels.retire_backend(addr)
        dropped = (self._lease_mgr.drop_moved(self.route)
                   if self._lease_mgr is not None else 0)
        global_flight_recorder().note(
            "router.remap", router=self.name, epoch=epoch,
            backends=len(new_servers), leases_dropped=dropped)
        return True

    def replace_backend(self, old_addr: tuple[str, int],
                        new_addr: tuple[str, int]) -> bool:
        """Swap a backend address in place, preserving its shard slot.

        Wired to :class:`~repro.runtime.procplane.ProcPlaneNode`'s
        ``on_remap``: a restarted worker that lost its port keeps its
        position in ``qos_servers``, so the CRC32 partition mapping —
        and therefore every key's owning shard — is unchanged.
        """
        old_t, new_t = tuple(old_addr), tuple(new_addr)
        changed = False
        for index, addr in enumerate(self.qos_servers):
            if tuple(addr) == old_t:
                self.qos_servers[index] = new_t
                changed = True
        if self._sole_backend == old_t:
            self._sole_backend = new_t
        if changed:
            self.remap_total += 1
            self._channels.replace_backend(old_t, new_t)
        return changed

    def _resolve_trace_id(self, trace_id: int) -> int:
        """Honour a client-supplied id; head-sample untraced arrivals."""
        if not trace_id and self._sampler.sample():
            trace_id = self._tracer.new_trace_id()
            self._traces_started += 1
        return trace_id

    def qos_exchange(self, key: str, cost: float = 1.0,
                     trace_id: int = 0) -> tuple[QoSResponse, int]:
        """One admission check over the channel."""
        response, attempts, _ = self.qos_exchange_traced(key, cost, trace_id)
        return response, attempts

    def qos_exchange_traced(
        self, key: str, cost: float = 1.0, trace_id: int = 0,
        http_span: bool = False,
    ) -> tuple[QoSResponse, int, int]:
        """:meth:`qos_exchange` plus tracing; returns the trace id used.

        ``trace_id=0`` lets the router's own head sampler decide;
        ``http_span=True`` (the HTTP handler) adds the ``router.http``
        span enclosing the ``router.exchange`` one.
        """
        trace_id = self._resolve_trace_id(trace_id)
        tracer = self._tracer
        outer = (tracer.start(trace_id, "router.http", "router",
                              {"router": self.name, "endpoint": "/qos"})
                 if trace_id and http_span else None)
        span = (tracer.start(trace_id, "router.exchange", "router",
                             {"key": key}) if trace_id else None)
        start_ns = time.perf_counter_ns()
        lease_mgr = self._lease_mgr
        leased = (lease_mgr is not None
                  and lease_mgr.check_local(key, cost, self.route(key),
                                            trace_id))
        if leased:
            response, attempts = _LEASE_ADMIT, 0
        else:
            response, attempts = self._channels.exchange(
                self.route(key), key, cost, trace_id)
        self._m_latency.record(time.perf_counter_ns() - start_ns)
        self._m_requests.inc()
        if response.is_default_reply:
            self._m_defaults.inc()
        if span is not None:
            if leased:
                tracer.finish(span, allow=True, attempts=0, lease=True)
            else:
                tracer.finish(span, allow=response.allowed,
                              attempts=attempts,
                              default=response.is_default_reply)
        if outer is not None:
            tracer.finish(outer)
        return response, attempts, trace_id

    def qos_exchange_many(
        self, items: Sequence[tuple[str, float]],
        trace_id: int = 0,
    ) -> list[tuple[QoSResponse, int]]:
        """Resolve many checks at once (the ``POST /qos/batch`` core).

        All items are submitted in one pass, so items hashing to the
        same backend share a single v2 frame.
        """
        results, _ = self.qos_exchange_many_traced(items, trace_id)
        return results

    def qos_exchange_many_traced(
        self, items: Sequence[tuple[str, float]], trace_id: int = 0,
        http_span: bool = False,
    ) -> tuple[list[tuple[QoSResponse, int]], int]:
        """:meth:`qos_exchange_many` plus tracing (one trace per batch)."""
        trace_id = self._resolve_trace_id(trace_id)
        tracer = self._tracer
        outer = (tracer.start(trace_id, "router.http", "router",
                              {"router": self.name, "endpoint": "/qos/batch"})
                 if trace_id and http_span else None)
        span = (tracer.start(trace_id, "router.exchange", "router",
                             {"n": len(items)}) if trace_id else None)
        start_ns = time.perf_counter_ns()
        lease_mgr = self._lease_mgr
        if lease_mgr is not None:
            # Leased items resolve locally; only the rest hit the wire
            # (in their original relative order, merged back by index).
            results = [None] * len(items)
            wire: list[tuple[int, str, float]] = []
            for index, (key, cost) in enumerate(items):
                if lease_mgr.check_local(key, cost, self.route(key),
                                         trace_id):
                    results[index] = (_LEASE_ADMIT, 0)
                else:
                    wire.append((index, key, cost))
        else:
            results = [None] * len(items)
            wire = [(index, key, cost)
                    for index, (key, cost) in enumerate(items)]
        if wire:
            checks = [(self.route(key), key, cost) for _, key, cost in wire]
            exchanged = self._channels.exchange_many(checks, trace_id)
            for (index, _, _), result in zip(wire, exchanged):
                results[index] = result
        self._m_latency.record(time.perf_counter_ns() - start_ns)
        self._m_requests.inc(len(results))
        defaults = sum(1 for response, _ in results
                       if response.is_default_reply)
        if defaults:
            self._m_defaults.inc(defaults)
        if span is not None:
            tracer.finish(span, defaults=defaults)
        if outer is not None:
            tracer.finish(outer)
        return results, trace_id
