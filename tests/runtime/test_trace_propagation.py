"""End-to-end trace propagation: client → router → channel → QoS server.

Real sockets throughout.  Spans land in the process-wide trace buffer
(:func:`repro.obs.tracing.global_trace_buffer`), which is also what a
router's ``GET /trace/<id>`` serves — both are asserted here.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request


from repro.core.admission import InMemoryRuleSource
from repro.core.config import RouterConfig
from repro.core.rules import QoSRule
from repro.obs.tracing import format_trace_id, global_trace_buffer
from repro.runtime.client import QoSClient
from repro.runtime.http_router import RequestRouterDaemon
from repro.runtime.udp_server import QoSServerDaemon


def _stack(trace_sample_rate: float = 0.0):
    source = InMemoryRuleSource({
        "alice": QoSRule("alice", refill_rate=1000.0, capacity=10_000.0),
    })
    server = QoSServerDaemon(source, name="qos-trace").start()
    router = RequestRouterDaemon(
        [server.address],
        config=RouterConfig(udp_timeout=0.5, max_retries=3,
                            trace_sample_rate=trace_sample_rate)).start()
    return router, server


def get_json(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestClientHeadedTrace:
    """The client samples, mints the id, and the layers below follow."""

    def test_traced_check_spans_every_layer(self):
        router, server = _stack()
        try:
            client = QoSClient(router.url, trace_sample_rate=1.0)
            result = client.check_detailed("alice")
            assert result.allowed and result.trace_id
            spans = global_trace_buffer().get(result.trace_id)
            layers = {s.layer for s in spans}
            # The acceptance bar: client, router, UDP channel round trip,
            # and the QoS server's decision are all present.
            assert {"client", "router", "udp_channel",
                    "qos_server"} <= layers
            assert len(spans) >= 4
            names = {s.name for s in spans}
            assert {"client.check", "router.exchange",
                    "channel.exchange", "server.decide"} <= names
            assert all(s.duration_ns >= 0 for s in spans)
        finally:
            router.stop()
            server.stop()

    def test_trace_endpoint_serves_the_same_spans(self):
        router, server = _stack()
        try:
            client = QoSClient(router.url, trace_sample_rate=1.0)
            result = client.check_detailed("alice")
            trace_hex = format_trace_id(result.trace_id)
            status, body = get_json(f"{router.url}/trace/{trace_hex}")
            assert status == 200
            assert body["trace_id"] == trace_hex
            layers = {s["layer"] for s in body["spans"]}
            assert {"client", "router", "udp_channel",
                    "qos_server"} <= layers
        finally:
            router.stop()
            server.stop()

    def test_traced_batch_check_spans_every_layer(self):
        router, server = _stack()
        try:
            client = QoSClient(router.url, trace_sample_rate=1.0)
            results = client.check_many_detailed(["alice", "alice"])
            trace_id = results[0].trace_id
            assert trace_id and all(r.trace_id == trace_id for r in results)
            layers = {s.layer
                      for s in global_trace_buffer().get(trace_id)}
            assert {"client", "router", "udp_channel",
                    "qos_server"} <= layers
        finally:
            router.stop()
            server.stop()

    def test_unknown_trace_is_404(self):
        router, server = _stack()
        try:
            status, body = get_json(
                f"{router.url}/trace/{format_trace_id(0xDEAD)}")
            assert status == 404 and "error" in body
        finally:
            router.stop()
            server.stop()

    def test_untraced_requests_mint_no_spans(self):
        router, server = _stack()
        try:
            client = QoSClient(router.url)     # sample rate 0
            before = len(global_trace_buffer())
            result = client.check_detailed("alice")
            assert result.allowed and result.trace_id == 0
            assert len(global_trace_buffer()) == before
        finally:
            router.stop()
            server.stop()


class TestRouterHeadedSampling:
    """Requests arriving untraced: the router's own sampler decides."""

    def test_rate_zero_never_traces(self):
        router, server = _stack(trace_sample_rate=0.0)
        try:
            for _ in range(20):
                response, _, trace_id = router.qos_exchange_traced("alice")
                assert response.allowed and trace_id == 0
            assert router.stats()["traces_started"] == 0
        finally:
            router.stop()
            server.stop()

    def test_rate_one_traces_every_request(self):
        router, server = _stack(trace_sample_rate=1.0)
        try:
            for _ in range(10):
                _, _, trace_id = router.qos_exchange_traced("alice")
                assert trace_id != 0
            assert router.stats()["traces_started"] == 10
        finally:
            router.stop()
            server.stop()

    def test_rate_half_traces_every_second_request(self):
        router, server = _stack(trace_sample_rate=0.5)
        try:
            decisions = [router.qos_exchange_traced("alice")[2] != 0
                         for _ in range(10)]
            assert decisions == [False, True] * 5
            assert router.stats()["traces_started"] == 5
        finally:
            router.stop()
            server.stop()

    def test_http_surface_reports_router_sampled_trace(self):
        router, server = _stack(trace_sample_rate=1.0)
        try:
            status, body = get_json(f"{router.url}/qos?key=alice")
            assert status == 200 and body["allow"] is True
            spans = global_trace_buffer().get(
                int(body["trace"], 16))
            layers = {s.layer for s in spans}
            assert {"router", "udp_channel", "qos_server"} <= layers
        finally:
            router.stop()
            server.stop()

    def test_client_id_wins_over_router_sampling(self):
        # A request that arrives traced must keep its id, not get a
        # fresh one from the router's sampler.
        router, server = _stack(trace_sample_rate=1.0)
        try:
            client = QoSClient(router.url, trace_sample_rate=1.0)
            result = client.check_detailed("alice")
            spans = global_trace_buffer().get(result.trace_id)
            assert {s.trace_id for s in spans} == {result.trace_id}
            assert router.stats()["traces_started"] == 0
        finally:
            router.stop()
            server.stop()


class TestFlightEndpoint:
    def test_flight_dump_shape(self):
        router, server = _stack()
        try:
            QoSClient(router.url, trace_sample_rate=1.0).check("alice")
            status, body = get_json(f"{router.url}/flight")
            assert status == 200
            assert body["recorded"] >= 1
            assert isinstance(body["entries"], list)
            assert any(row.get("type") == "span" for row in body["entries"])
        finally:
            router.stop()
            server.stop()
