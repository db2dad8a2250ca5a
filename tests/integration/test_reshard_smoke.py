"""Live-reshard smoke test over real sockets (gating in CI).

Boots a :class:`LocalCluster` (1 router, 2 QoS nodes), keeps
closed-loop traffic flowing, and drives the cluster 2→3→2 through the
router's ``/topology`` HTTP endpoint — the same path ``janus reshard
add|remove|status`` uses.  Asserts the plane's load-bearing properties:

- every check gets a verdict throughout both reshards (no crashes, no
  denials under effectively unlimited rules);
- the epoch advances and the router's backend list grows and shrinks;
- moved keys keep routing consistently and the reshard metrics
  (``janus_reshard_*``, ``janus_router_remap_total``) surface on the
  router's ``/metrics``.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.core.config import RouterConfig, ServerConfig
from repro.core.rules import QoSRule
from repro.runtime.cluster import LocalCluster

N_KEYS = 32
KEYS = [f"tenant:{i}" for i in range(N_KEYS)]
DENY_KEY = "tenant:blocked"


@pytest.fixture()
def cluster():
    cluster = LocalCluster(
        n_routers=1, n_qos_servers=2,
        router_config=RouterConfig(udp_timeout=0.5, max_retries=3),
        server_config=ServerConfig(workers=2))
    for key in KEYS:
        cluster.rules.put_rule(QoSRule(key, refill_rate=1e6, capacity=1e6))
    # A pure deny rule: its zero-capacity bucket must never stall a
    # reshard (it carries no credit and the wire refuses to encode it).
    cluster.rules.put_rule(QoSRule(DENY_KEY, refill_rate=0.0, capacity=0.0))
    with cluster:
        yield cluster


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return json.loads(response.read())


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=60.0) as response:
        return json.loads(response.read())


def test_reshard_2_3_2_under_traffic(cluster):
    router = cluster.routers[0]
    topology_url = f"{router.url}/topology"

    baseline = _get(topology_url)
    assert baseline["epoch"] == 0
    assert len(baseline["backends"]) == 2
    # The GET view carries the coordinator's node names: it is what
    # an operator feeds back into ``janus reshard remove <node>``.
    assert [n["name"] for n in baseline["nodes"]]

    # Materialize the zero-capacity bucket so the reshard has to scan
    # (and skip) it.
    response, _ = router.qos_exchange(DENY_KEY)
    assert not response.allowed and not response.is_default_reply

    failures: list = []
    stop = threading.Event()

    def hammer() -> None:
        i = 0
        while not stop.is_set():
            try:
                response, _ = router.qos_exchange(KEYS[i % N_KEYS])
                if not response.allowed:
                    failures.append(("denied", KEYS[i % N_KEYS]))
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                failures.append(("error", repr(exc)))
            i += 1

    threads = [threading.Thread(target=hammer, daemon=True)
               for _ in range(2)]
    for t in threads:
        t.start()
    try:
        # Grow 2 -> 3 through the HTTP control path.
        added = _post(topology_url, {"action": "add"})
        assert added["epoch"] == 1
        assert added["keys_moved"] > 0
        assert len(cluster.qos_servers) == 3
        added_name = cluster.qos_servers[-1].name

        status = _get(topology_url)
        assert status["epoch"] == 1
        assert len(status["backends"]) == 3

        # Shrink 3 -> 2: drain the node we just added.
        removed = _post(topology_url,
                        {"action": "remove", "node": added_name})
        assert removed["epoch"] == 2
        assert removed["keys_moved"] > 0
        assert len(cluster.qos_servers) == 2
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=5.0)

    assert not failures, failures[:10]

    status = _get(topology_url)
    assert status["epoch"] == 2
    assert len(status["backends"]) == 2

    # The coordinator's view matches the router's.
    assert cluster.topology()["epoch"] == 2
    # Routing still answers for every key after the round trip.
    for key in KEYS:
        response, _ = router.qos_exchange(key)
        assert response.allowed and not response.is_default_reply

    metrics = urllib.request.urlopen(
        f"{router.url}/metrics", timeout=10.0).read().decode()
    for name in ("janus_router_remap_total", "janus_router_topology_epoch",
                 "janus_reshard_keys_moved", "janus_reshard_total",
                 "janus_reshard_xfer_seconds"):
        assert name in metrics, f"{name} missing from /metrics"


def test_topology_post_rejects_garbage(cluster):
    router = cluster.routers[0]
    url = f"{router.url}/topology"
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(url, {"action": "frobnicate"})
    assert err.value.code == 409
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(url, {"action": "remove"})
    assert err.value.code == 409


def test_topology_post_404_without_control():
    from repro.core.admission import InMemoryRuleSource
    from repro.runtime.http_router import RequestRouterDaemon
    from repro.runtime.udp_server import QoSServerDaemon

    source = InMemoryRuleSource(
        {"k": QoSRule("k", refill_rate=1.0, capacity=1.0)})
    with QoSServerDaemon(source, name="lone-qos") as server:
        with RequestRouterDaemon([server.address],
                                 name="lone-router") as router:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(f"{router.url}/topology", {"action": "add"})
            assert err.value.code == 404
