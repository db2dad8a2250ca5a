"""The per-layer replay waterfall (``--trace 1``).

After the measured window the same request stream is replayed, single
threaded, entering the program at successively deeper public entry
points.  Every call records a span.  These are *sequential replays, not
in-situ nesting*: a layer's self time is the median of its span minus the
medians of the spans one level deeper, which is only meaningful because
each deeper replay does the same work the shallower one delegates.

Chain (``loadbalancer.forward`` only on gateway workloads)::

    client.check            QoSClient on the workload's endpoint
      loadbalancer.forward  raw keep-alive HTTP request to the LB
        http_router.http    the same raw request to a router URL
          http_router.exchange   router.qos_exchange[_many] in process
            hashing.route        crc32_router per key            (leaf)
            udp_server.exchange  bench-owned UDP socket, v2 frames
              admission.check    check_batch on bench-owned controllers
              protocol.codec     encode+decode of both frames    (leaf)
"""

from __future__ import annotations

import itertools
import json
import socket
import statistics
import time
from typing import Iterable, NamedTuple, Sequence
from urllib.parse import quote, urlparse

from repro.core.admission import AdmissionController, InMemoryRuleSource
from repro.core.hashing import crc32_router
from repro.core.protocol import (
    QoSRequest,
    decode_frame,
    encode_request_frame,
    encode_response_frame_bits,
)
from repro.core.rules import QoSRule
from repro.runtime.client import QoSClient

__all__ = ["Span", "RawHTTP", "replay", "median_ns", "self_times",
           "unbalanced", "BenchControllers", "write_spans", "read_spans"]

#: ``abs(sum of self times - client.check median)`` above this share of
#: the client.check median marks the trace unbalanced.
BALANCE_TOLERANCE = 0.10


class Span(NamedTuple):
    req: int
    name: str
    parent: "str | None"
    start_ns: int
    end_ns: int


class RawHTTP:
    """A keep-alive HTTP/1.1 connection that does nothing but move bytes,
    so the time of a request through it belongs to the server side."""

    def __init__(self, url: str):
        parsed = urlparse(url)
        self.host = f"{parsed.hostname}:{parsed.port}"
        self._sock = socket.create_connection(
            (parsed.hostname, parsed.port), timeout=5.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def get(self, path: str) -> bytes:
        return (f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                "Accept-Encoding: identity\r\n\r\n").encode()

    def post(self, path: str, body: bytes) -> bytes:
        return (f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                "Accept-Encoding: identity\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Content-Type: application/json\r\n\r\n").encode() + body

    def exchange(self, request: bytes) -> "tuple[int, bytes]":
        """Send prepared request bytes; return ``(status, body)``."""
        self._sock.sendall(request)
        buf = b""
        while b"\r\n\r\n" not in buf:
            buf += self._recv()
        head, _, body = buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            body += self._recv()
        return status, body

    def _recv(self) -> bytes:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        self._sock.close()


class BenchControllers:
    """Bench-owned admission controllers mirroring the QoS servers: one
    per backend, each holding the keys CRC32 routes to it."""

    def __init__(self, keys: Sequence[str], refill_rate: float,
                 capacity: float, n_backends: int):
        owned = [[] for _ in range(n_backends)]
        for key in keys:
            owned[crc32_router(key, n_backends)].append(key)
        self.controllers = [
            AdmissionController(InMemoryRuleSource(
                {k: QoSRule(k, refill_rate, capacity) for k in part}))
            for part in owned]
        for controller, part in zip(self.controllers, owned):
            for i in range(0, len(part), 256):
                controller.check_batch(part[i:i + 256])

    def maintenance(self, repeats: int = 3) -> dict:
        """Time the table's write side on one server's worth of buckets."""
        controller = self.controllers[0]

        def median_ms(fn) -> float:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append((time.perf_counter() - t0) * 1e3)
            return statistics.median(times)

        size = controller.table_size()
        return {
            "checkpoint_ms": median_ms(controller.checkpoint),
            "sync_ms": median_ms(controller.sync_rules),
            "table_bytes_per_key": controller.table_bytes() / max(size, 1),
        }


def _check_http(status: int, body: bytes, n_keys: int) -> None:
    payload = json.loads(body) if status == 200 else {}
    results = payload.get("results", [payload])
    if status != 200 or len(results) != n_keys or \
            any(r.get("default") for r in results):
        raise RuntimeError(f"replay: bad HTTP reply {status} {body[:120]!r}")


def replay(cluster, workload, keys: Sequence[str],
           requests: "Sequence[tuple[int, ...]]",
           controllers: BenchControllers) -> "list[Span]":
    """Replay ``workload.replay_calls`` requests at every layer."""
    spans: "list[Span]" = []
    now = time.perf_counter_ns
    routers = cluster.routers
    backends = [tuple(s.address) for s in cluster.qos_servers]
    n_backends = len(backends)
    batch = workload.batch
    ids = itertools.count(1)

    entry = cluster.endpoint if workload.gateway else None
    clients = ([QoSClient(entry)] if entry
               else [QoSClient(r.url) for r in routers])
    lb_conn = RawHTTP(entry) if entry else None
    router_conns = [RawHTTP(r.url) for r in routers]
    udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    udp.settimeout(1.0)

    def span(req, name, parent, fn):
        t0 = now()
        result = fn()
        spans.append(Span(req, name, parent, t0, now()))
        return result

    def raw_request(conn: RawHTTP, names) -> bytes:
        if batch == 1:
            return conn.get(f"/qos?key={quote(names[0], safe='')}&cost=1.0")
        return conn.post("/qos/batch", json.dumps(
            {"items": [{"key": k, "cost": 1.0} for k in names]}).encode())

    def udp_exchange(groups):
        frames = []
        for backend, group in groups:
            frame = encode_request_frame(
                [QoSRequest(next(ids), k, 1.0) for k in group])
            udp.sendto(frame, backends[backend])
            frames.append(frame)
        return [decode_frame(udp.recvfrom(65535)[0]) for _ in frames]

    def admission(groups):
        return [controllers.controllers[backend].check_batch(group)
                for backend, group in groups]

    def codec(groups):
        for _, group in groups:
            request_ids = [next(ids) for _ in group]
            decode_frame(encode_request_frame(
                [QoSRequest(i, k, 1.0) for i, k in zip(request_ids, group)]))
            decode_frame(encode_response_frame_bits(
                request_ids, (1 << len(group)) - 1))

    def route(names):
        for key in names:
            crc32_router(key, n_backends)

    try:
        for req in range(workload.replay_calls):
            names = [keys[i] for i in requests[req % len(requests)]]
            router_index = req % len(routers)
            router = routers[router_index]
            client = clients[router_index % len(clients)]
            by_backend: "dict[int, list[str]]" = {}
            for key in names:
                by_backend.setdefault(
                    crc32_router(key, n_backends), []).append(key)
            groups = sorted(by_backend.items())

            if batch == 1:
                results = [span(req, "client.check", None,
                                lambda: client.check_detailed(names[0]))]
            else:
                results = span(req, "client.check", None,
                               lambda: client.check_many_detailed(names))
            if any(r.is_default_reply for r in results):
                raise RuntimeError("replay: client.check failed")
            parent = "client.check"
            if lb_conn is not None:
                payload = raw_request(lb_conn, names)
                _check_http(*span(req, "loadbalancer.forward", parent,
                                  lambda: lb_conn.exchange(payload)), batch)
                parent = "loadbalancer.forward"
            conn = router_conns[router_index]
            payload = raw_request(conn, names)
            _check_http(*span(req, "http_router.http", parent,
                              lambda: conn.exchange(payload)), batch)
            if batch == 1:
                exchanged = [span(req, "http_router.exchange",
                                  "http_router.http",
                                  lambda: router.qos_exchange(names[0], 1.0))]
            else:
                items = [(k, 1.0) for k in names]
                exchanged = span(req, "http_router.exchange",
                                 "http_router.http",
                                 lambda: router.qos_exchange_many(items))
            if any(response.is_default_reply for response, _ in exchanged):
                raise RuntimeError("replay: router exchange defaulted")
            span(req, "hashing.route", "http_router.exchange",
                 lambda: route(names))
            replies = span(req, "udp_server.exchange", "http_router.exchange",
                           lambda: udp_exchange(groups))
            if sum(len(frame) for frame in replies) != len(names):
                raise RuntimeError("replay: UDP reply count mismatch")
            span(req, "admission.check", "udp_server.exchange",
                 lambda: admission(groups))
            span(req, "protocol.codec", "udp_server.exchange",
                 lambda: codec(groups))
    finally:
        udp.close()
        for conn in (*router_conns, *(c for c in (lb_conn,) if c)):
            conn.close()
        for client in clients:
            client.close()
    return spans


def median_ns(spans: Iterable[Span]) -> "dict[str, float]":
    """Median duration of each span name."""
    durations: "dict[str, list[int]]" = {}
    for s in spans:
        durations.setdefault(s.name, []).append(s.end_ns - s.start_ns)
    return {name: statistics.median(d) for name, d in durations.items()}


def self_times(spans: Iterable[Span]) -> "dict[str, float]":
    """Per span name: its median minus the medians of its children."""
    spans = list(spans)
    medians = median_ns(spans)
    children: "dict[str, set[str]]" = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, set()).add(s.name)
    return {name: medians[name] - sum(medians[c]
                                      for c in children.get(name, ()))
            for name in medians}


def unbalanced(spans: Iterable[Span], root: str = "client.check") -> bool:
    """Do the (non-negative) self times fail to add up to the root?

    The self times telescope to the root's median exactly unless a deeper
    replay came out *slower* than the shallower one it is part of; such a
    negative self time is clamped to 0 and shows up here.
    """
    spans = list(spans)
    total = median_ns(spans)[root]
    covered = sum(max(t, 0.0) for t in self_times(spans).values())
    return abs(covered - total) > BALANCE_TOLERANCE * total


def write_spans(spans: Iterable[Span], path) -> None:
    with open(path, "w") as out:
        for s in spans:
            out.write(json.dumps(s._asdict()) + "\n")


def read_spans(path) -> "list[Span]":
    with open(path) as lines:
        return [Span(**json.loads(line)) for line in lines]
