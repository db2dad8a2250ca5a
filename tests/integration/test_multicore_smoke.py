"""CI smoke: a 2-worker-process cluster, traced end-to-end, port-map.

Boots a LocalCluster whose single QoS node runs as a supervisor plus two
shared-nothing worker processes behind a per-shard port map, drives real
checks through the load balancer and router, then asserts the two
properties the multi-process plane promises:

- **hop-free hot path** — a traced check's span tree shows exactly one
  ``server.decide``: the router's CRC32 partitioner delivered the frame
  straight to the owning worker process;
- **aggregation** — per-worker metrics, stats, and decision counts roll
  up correctly into the node and cluster views.
"""

from __future__ import annotations

import pytest

from repro.core.config import RouterConfig, ServerConfig
from repro.core.rules import QoSRule
from repro.runtime.cluster import LocalCluster

from tests.obs.test_metrics import assert_prometheus_conformant

N_KEYS = 8
N_CHECKS = 64


@pytest.fixture(scope="module")
def multicore_cluster():
    cluster = LocalCluster(
        n_routers=1, n_qos_servers=1,
        server_config=ServerConfig(workers=2, processes=2),
        router_config=RouterConfig(udp_timeout=0.5, max_retries=3))
    for i in range(N_KEYS):
        cluster.rules.put_rule(QoSRule(
            f"tenant:{i}", refill_rate=100_000.0, capacity=1_000_000.0))
    with cluster:
        yield cluster


def test_multicore_cluster_smoke(multicore_cluster):
    cluster = multicore_cluster
    assert cluster.processes == 2
    node = cluster.qos_nodes[0]
    assert len(node.port_map()) == 2

    # Plain checks through LB -> router -> owning worker process.
    client = cluster.client()
    allowed = sum(client.check(f"tenant:{i % N_KEYS}")
                  for i in range(N_CHECKS))
    assert allowed == N_CHECKS

    # One traced check: the span tree must show exactly one server-side
    # decision — the frame went straight to the owning worker, it was
    # not decoded by one process and re-decided by another.
    traced = cluster.client(trace_sample_rate=1.0)
    result = traced.check_detailed("tenant:3")
    assert result.allowed and not result.is_default_reply
    assert result.trace_id
    spans = cluster.trace_spans(result.trace_id)
    layers = {span["layer"] for span in spans}
    assert {"client", "router", "udp_channel", "qos_server"} <= layers
    decides = [span for span in spans if span["name"] == "server.decide"]
    assert len(decides) == 1, (
        f"expected exactly one server.decide span, got "
        f"{[s['name'] for s in spans]}")

    # Both workers made real decisions (CRC32 spread the 8 tenants
    # across both shards).
    workers = cluster.stats()["qos_servers"][0]["workers"]
    assert len(workers) == 2
    for worker in workers:
        assert worker["decisions"] > 0
    assert sum(w["decisions"] for w in workers) >= N_CHECKS + 1
    assert cluster.total_decisions() >= N_CHECKS + 1

    # Per-worker registries merge into one conformant node/cluster
    # rendering: no repeated TYPE headers, worker families present.
    text = cluster.prometheus_metrics()
    assert_prometheus_conformant(text)
    assert "janus_node_workers_alive" in text
    assert "janus_server_admission_admitted" in text
    type_lines = [line.split()[2] for line in text.splitlines()
                  if line.startswith("# TYPE")]
    assert len(type_lines) == len(set(type_lines))


def test_http_trace_endpoint_includes_worker_spans(multicore_cluster):
    """``GET /trace/<id>`` on a router returns the whole trace.

    The server.decide span lives in a worker process's buffer; the
    router must collect it over the supervisor pipes — an operator
    hitting the HTTP endpoint sees the same four layers the in-process
    ``cluster.trace_spans`` view shows.
    """
    import json
    from urllib.request import urlopen

    cluster = multicore_cluster
    traced = cluster.client(trace_sample_rate=1.0)
    result = traced.check_detailed("tenant:5")
    assert result.trace_id
    url = f"{cluster.routers[0].url}/trace/{result.trace_id:016x}"
    with urlopen(url, timeout=5.0) as response:
        body = json.load(response)
    layers = {span["layer"] for span in body["spans"]}
    assert {"router", "udp_channel", "qos_server"} <= layers
    decides = [s for s in body["spans"] if s["name"] == "server.decide"]
    assert len(decides) == 1
