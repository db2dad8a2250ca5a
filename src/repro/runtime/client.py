"""QoS client for the real runtime (the paper's ``qos_client.php``).

:class:`QoSClient` keeps one persistent HTTP connection per thread to the
Janus endpoint (load balancer or a router directly) and exposes
:meth:`check` — the boolean key-value exchange the paper integrates into
applications with three lines of code::

    client = QoSClient("http://127.0.0.1:8080")
    if client.check(remote_addr):
        serve()
    else:
        throttle_403()

``fail_open`` controls what a *transport* failure (endpoint down) maps to;
the QoS protocol's own default-reply mechanism is separate and handled by
the router (§III-B).

:meth:`QoSClient.check_many` amortizes the HTTP hop: N keys travel in one
``POST /qos/batch`` exchange and the router fans them out over its
multiplexed UDP channels in a single pass.

Tracing: construct with ``trace_sample_rate > 0`` and the client becomes
the head of the trace — sampled checks mint a trace id, record a
``client.check`` span, and send the id with the request (``&trace=`` /
``"trace_id"``), which the router propagates down to the QoS server.
The id comes back in :attr:`QoSCheckResult.trace_id`; feed it to
``GET /trace/<id>`` (or ``janus obs trace``) for the full span tree.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Sequence
from urllib.parse import quote, urlparse

from repro.core.errors import CommunicationError
from repro.obs.tracing import HeadSampler, default_tracer, format_trace_id

__all__ = ["QoSClient", "QoSCheckResult"]


class _NoDelayHTTPConnection(http.client.HTTPConnection):
    """HTTPConnection with Nagle disabled (loopback latency)."""

    def connect(self) -> None:
        super().connect()
        import socket as _socket
        self.sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)


@dataclass(frozen=True, slots=True)
class QoSCheckResult:
    """Full response of one QoS check."""

    allowed: bool
    is_default_reply: bool
    attempts: int
    latency: float
    #: Trace id of this check (0 when untraced): nonzero when this client
    #: sampled the check or the router reported having traced it.
    trace_id: int = 0


class QoSClient:
    """Thread-safe client for a Janus HTTP endpoint."""

    def __init__(self, endpoint: str, *, timeout: float = 5.0,
                 fail_open: bool = True, trace_sample_rate: float = 0.0):
        parsed = urlparse(endpoint)
        if parsed.scheme != "http" or not parsed.hostname:
            raise CommunicationError(f"unsupported endpoint {endpoint!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.fail_open = fail_open
        self._local = threading.local()
        self.transport_errors = 0
        self._sampler = HeadSampler(trace_sample_rate)
        self._tracer = default_tracer()

    def _sample_trace(self) -> int:
        return (self._tracer.new_trace_id() if self._sampler.sample()
                else 0)

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = _NoDelayHTTPConnection(
                self.host, self.port, timeout=self.timeout)
            self._local.conn = conn
        return conn

    def check_detailed(self, key: str, cost: float = 1.0) -> QoSCheckResult:
        """One QoS request; returns the full result."""
        trace_id = self._sample_trace()
        path = f"/qos?key={quote(key, safe='')}&cost={cost}"
        if trace_id:
            path += f"&trace={format_trace_id(trace_id)}"
            span = self._tracer.start(trace_id, "client.check", "client",
                                      {"key": key})
        else:
            span = None
        t0 = time.monotonic()
        for fresh in (False, True):
            conn = self._connection()
            try:
                if fresh:
                    conn.close()
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                if response.status != 200:
                    raise CommunicationError(
                        f"endpoint returned HTTP {response.status}")
                payload = json.loads(body)
                result = QoSCheckResult(
                    allowed=bool(payload["allow"]),
                    is_default_reply=bool(payload.get("default", False)),
                    attempts=int(payload.get("attempts", 1)),
                    latency=time.monotonic() - t0,
                    trace_id=trace_id)
                if span is not None:
                    self._tracer.finish(span, allow=result.allowed)
                return result
            except (OSError, http.client.HTTPException, json.JSONDecodeError,
                    KeyError, ValueError):
                # Stale keep-alive connection: retry once on a fresh one.
                self._local.conn = None
                if fresh:
                    break
        self.transport_errors += 1
        if span is not None:
            self._tracer.finish(span, transport_error=True)
        return QoSCheckResult(
            allowed=self.fail_open, is_default_reply=True, attempts=0,
            latency=time.monotonic() - t0, trace_id=trace_id)

    def check(self, key: str, cost: float = 1.0) -> bool:
        """The paper's ``qos_check($key)``: TRUE admits, FALSE throttles."""
        return self.check_detailed(key, cost).allowed

    def check_many_detailed(self, keys: Sequence[str],
                            cost: float = 1.0) -> list[QoSCheckResult]:
        """Many QoS checks in one ``POST /qos/batch`` round trip.

        The router resolves the whole batch concurrently (items sharing a
        backend share one wire frame), so N checks cost one HTTP exchange
        instead of N.  Results come back in key order.  A non-200 reply
        raises :class:`CommunicationError`.
        """
        if not keys:
            return []
        trace_id = self._sample_trace()
        payload: dict = {"items": [{"key": key, "cost": cost}
                                   for key in keys]}
        if trace_id:
            payload["trace_id"] = format_trace_id(trace_id)
            span = self._tracer.start(trace_id, "client.check", "client",
                                      {"n": len(keys)})
        else:
            span = None
        body = json.dumps(payload).encode()
        t0 = time.monotonic()
        for fresh in (False, True):
            conn = self._connection()
            try:
                if fresh:
                    conn.close()
                conn.request("POST", "/qos/batch", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload_bytes = response.read()
                if response.status != 200:
                    raise CommunicationError(
                        f"endpoint returned HTTP {response.status}")
                results = json.loads(payload_bytes)["results"]
                if len(results) != len(keys):
                    raise CommunicationError(
                        f"batch answered {len(results)} of {len(keys)} items")
                latency = time.monotonic() - t0
                if span is not None:
                    self._tracer.finish(span)
                return [QoSCheckResult(
                            allowed=bool(entry["allow"]),
                            is_default_reply=bool(entry.get("default", False)),
                            attempts=int(entry.get("attempts", 1)),
                            latency=latency,
                            trace_id=trace_id)
                        for entry in results]
            except (OSError, http.client.HTTPException, json.JSONDecodeError,
                    KeyError, TypeError, ValueError):
                self._local.conn = None
                if fresh:
                    break
        self.transport_errors += 1
        if span is not None:
            self._tracer.finish(span, transport_error=True)
        latency = time.monotonic() - t0
        return [QoSCheckResult(allowed=self.fail_open, is_default_reply=True,
                               attempts=0, latency=latency,
                               trace_id=trace_id)
                for _ in keys]

    def check_many(self, keys: Sequence[str], cost: float = 1.0) -> list[bool]:
        """Batch form of :meth:`check`: one verdict per key, in order."""
        return [result.allowed
                for result in self.check_many_detailed(keys, cost)]

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None
