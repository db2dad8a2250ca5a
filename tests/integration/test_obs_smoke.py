"""CI smoke: a tiny traced cluster, 100 batch requests, one scrape.

Boots a LocalCluster, drives 100 ``check_many`` requests through a
client sampling at rate 1, then asserts the two scrape surfaces the
observability plane promises: ``GET /metrics`` is conformant Prometheus
text carrying every layer's families, and ``GET /trace/<id>`` returns a
multi-layer span tree for a real request.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.core.config import RouterConfig, ServerConfig
from repro.core.rules import QoSRule
from repro.obs.tracing import format_trace_id
from repro.runtime.cluster import LocalCluster

from tests.obs.test_metrics import assert_prometheus_conformant

N_REQUESTS = 100
KEYS_PER_REQUEST = 4


@pytest.fixture(scope="module")
def traced_cluster():
    cluster = LocalCluster(
        n_routers=1, n_qos_servers=2,
        router_config=RouterConfig(udp_timeout=0.5, max_retries=3),
        server_config=ServerConfig(workers=2))
    with cluster:
        for i in range(KEYS_PER_REQUEST):
            cluster.rules.put_rule(QoSRule(
                f"tenant:{i}", refill_rate=100_000.0, capacity=1_000_000.0))
        yield cluster


def _get(url: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.read()


def test_traced_cluster_smoke(traced_cluster):
    cluster = traced_cluster
    client = cluster.client(trace_sample_rate=1.0)
    keys = [f"tenant:{i}" for i in range(KEYS_PER_REQUEST)]

    trace_ids = []
    for _ in range(N_REQUESTS):
        results = client.check_many_detailed(keys)
        assert len(results) == KEYS_PER_REQUEST
        assert all(r.allowed for r in results)
        assert results[0].trace_id
        trace_ids.append(results[0].trace_id)
    assert len(set(trace_ids)) == N_REQUESTS

    router = cluster.routers[0]
    assert router.requests_handled >= N_REQUESTS * KEYS_PER_REQUEST

    # Scrape surface 1: the router's /metrics is conformant and carries
    # router, channel, and latency families.
    status, body = _get(f"{router.url}/metrics")
    assert status == 200
    text = body.decode()
    assert_prometheus_conformant(text)
    for family in ("janus_router_requests_total",
                   "janus_router_backends",
                   "janus_channel_frames_sent_total",
                   "janus_channel_batch_fill_bucket",
                   "janus_router_request_seconds_bucket"):
        assert family in text, f"{family} missing from /metrics"

    # The QoS servers kept their own registries (admission + batches).
    server_text = cluster.qos_servers[0].metrics.render()
    assert_prometheus_conformant(server_text)
    assert "janus_server_admission_admitted" in server_text
    assert "janus_server_recv_batch_bucket" in server_text

    # Scrape surface 2: GET /trace/<id> shows the multi-layer tree.
    trace_hex = format_trace_id(trace_ids[-1])
    status, body = _get(f"{router.url}/trace/{trace_hex}")
    assert status == 200
    payload = json.loads(body)
    assert payload["trace_id"] == trace_hex
    layers = {span["layer"] for span in payload["spans"]}
    assert {"client", "router", "udp_channel", "qos_server"} <= layers
    assert len(payload["spans"]) >= 4

    # The healthz summary agrees the cluster is alive.
    status, body = _get(f"{router.url}/healthz")
    health = json.loads(body)
    assert status == 200 and health["status"] == "ok"
    assert health["backends"] == 2
