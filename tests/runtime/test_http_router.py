"""Tests for the real HTTP request router daemon."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.core.admission import InMemoryRuleSource
from repro.core.config import RouterConfig
from repro.core.hashing import crc32_router
from repro.core.rules import QoSRule
from repro.runtime.http_router import RequestRouterDaemon
from repro.runtime.udp_server import QoSServerDaemon


@pytest.fixture
def stack():
    source = InMemoryRuleSource({
        "alice": QoSRule("alice", refill_rate=1000.0, capacity=10_000.0),
        "empty": QoSRule("empty", refill_rate=0.0, capacity=0.0),
    })
    servers = [QoSServerDaemon(source, name=f"qos-{i}").start()
               for i in range(2)]
    router = RequestRouterDaemon(
        [s.address for s in servers],
        config=RouterConfig(udp_timeout=0.5, max_retries=3)).start()
    yield router, servers, source
    router.stop()
    for s in servers:
        s.stop()


def get_json(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHttpApi:
    def test_allow(self, stack):
        router, _, _ = stack
        status, body = get_json(f"{router.url}/qos?key=alice")
        assert status == 200
        assert body["allow"] is True
        assert body["default"] is False
        assert body["attempts"] >= 1

    def test_deny(self, stack):
        router, _, _ = stack
        _, body = get_json(f"{router.url}/qos?key=empty")
        assert body["allow"] is False

    def test_missing_key_is_400(self, stack):
        router, _, _ = stack
        status, body = get_json(f"{router.url}/qos")
        assert status == 400

    def test_bad_cost_is_400(self, stack):
        router, _, _ = stack
        status, _ = get_json(f"{router.url}/qos?key=alice&cost=banana")
        assert status == 400

    def test_unknown_path_is_404(self, stack):
        router, _, _ = stack
        status, _ = get_json(f"{router.url}/other")
        assert status == 404

    def test_healthz(self, stack):
        router, _, _ = stack
        status, body = get_json(f"{router.url}/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_weighted_cost(self, stack):
        router, _, source = stack
        source.put_rule(QoSRule("fat", refill_rate=0.0, capacity=10.0))
        _, body = get_json(f"{router.url}/qos?key=fat&cost=10")
        assert body["allow"] is True
        _, body = get_json(f"{router.url}/qos?key=fat&cost=1")
        assert body["allow"] is False

    def test_url_encoded_key(self, stack):
        router, _, source = stack
        source.put_rule(QoSRule("user:a b", refill_rate=1.0, capacity=5.0))
        _, body = get_json(f"{router.url}/qos?key=user%3Aa%20b")
        assert body["allow"] is True


class TestRouting:
    def test_partitioning_matches_crc32(self, stack):
        router, servers, source = stack
        keys = [f"key-{i}" for i in range(40)]
        for k in keys:
            source.put_rule(QoSRule(k, refill_rate=1e6, capacity=1e6))
            get_json(f"{router.url}/qos?key={k}")
        expected = [sum(1 for k in keys if crc32_router(k, 2) == i)
                    for i in range(2)]
        got = [s.controller.stats.decisions for s in servers]
        assert got == expected


class TestFailureHandling:
    def test_default_reply_when_backend_down(self, stack):
        router, servers, _ = stack
        for s in servers:
            s.stop()
        status, body = get_json(f"{router.url}/qos?key=alice")
        assert status == 200
        assert body["default"] is True
        assert body["allow"] is True          # fail-open default
        assert router.default_replies == 1

    def test_retry_count_exposed(self, stack):
        router, servers, _ = stack
        for s in servers:
            s.stop()
        _, body = get_json(f"{router.url}/qos?key=alice")
        assert body["attempts"] == 3          # max_retries exhausted

    def test_empty_backend_list_rejected(self):
        with pytest.raises(ValueError):
            RequestRouterDaemon([])


class TestPrometheusMetrics:
    def test_metrics_exposition(self, stack):
        router, _, _ = stack
        get_json(f"{router.url}/qos?key=alice")
        import urllib.request
        with urllib.request.urlopen(f"{router.url}/metrics",
                                    timeout=5.0) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            body = response.read().decode()
        assert 'janus_router_requests_total{router="router"} ' in body
        assert "janus_router_backends" in body
        value = int(next(
            line.split()[-1] for line in body.splitlines()
            if line.startswith("janus_router_requests_total")))
        assert value >= 1


def post_json(url: str, body) -> tuple[int, dict]:
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method="POST")
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestBatchEndpoint:
    def test_batch_verdicts_in_order(self, stack):
        router, _, _ = stack
        status, payload = post_json(f"{router.url}/qos/batch", {
            "items": [{"key": "alice"}, {"key": "empty"},
                      {"key": "alice", "cost": 2.5}]})
        assert status == 200
        results = payload["results"]
        assert [r["allow"] for r in results] == [True, False, True]
        assert all(not r["default"] for r in results)

    def test_keys_shorthand_body(self, stack):
        router, _, _ = stack
        status, payload = post_json(f"{router.url}/qos/batch",
                                    {"keys": ["alice", "empty"]})
        assert status == 200
        assert [r["allow"] for r in payload["results"]] == [True, False]

    def test_bad_json_is_400(self, stack):
        router, _, _ = stack
        status, _ = post_json(f"{router.url}/qos/batch", b"{not json")
        assert status == 400

    @pytest.mark.parametrize("body", [
        {},                                       # no items
        {"items": []},                            # empty
        {"items": [{"key": ""}]},                 # empty key
        {"items": [{"key": "a", "cost": -1}]},    # bad cost
        {"items": [{"key": "a", "cost": "x"}]},   # non-numeric cost
        {"items": "alice"},                       # wrong type
        [1, 2, 3],                                # not an object
    ])
    def test_invalid_batch_bodies_are_400(self, stack, body):
        router, _, _ = stack
        status, _ = post_json(f"{router.url}/qos/batch", body)
        assert status == 400

    def test_post_to_other_path_is_404(self, stack):
        router, _, _ = stack
        status, _ = post_json(f"{router.url}/qos", {"items": [{"key": "a"}]})
        assert status == 404


class TestWireModes:
    """The channel wire path behind both HTTP endpoints."""

    def _stack(self, n_servers=2):
        source = InMemoryRuleSource({
            "alice": QoSRule("alice", refill_rate=1000.0, capacity=10_000.0),
            "empty": QoSRule("empty", refill_rate=0.0, capacity=0.0),
        })
        servers = [QoSServerDaemon(source, name=f"qos-{i}").start()
                   for i in range(n_servers)]
        router = RequestRouterDaemon(
            [s.address for s in servers],
            config=RouterConfig(udp_timeout=0.5, max_retries=3)).start()
        return router, servers

    def _teardown(self, router, servers):
        router.stop()
        for s in servers:
            s.stop()

    def test_get_and_batch_work(self):
        router, servers = self._stack()
        try:
            status, payload = get_json(f"{router.url}/qos?key=alice")
            assert status == 200 and payload["allow"]
            status, payload = post_json(f"{router.url}/qos/batch", {
                "items": [{"key": "alice"}, {"key": "empty"}]})
            assert status == 200
            assert [r["allow"] for r in payload["results"]] == [True, False]
        finally:
            self._teardown(router, servers)

    def test_stats_expose_channel_counters(self):
        router, servers = self._stack()
        try:
            get_json(f"{router.url}/qos?key=alice")
            stats = router.stats()
            assert stats["channel"]["messages_sent"] >= 1
            assert stats["channel"]["responses_matched"] >= 1
        finally:
            self._teardown(router, servers)

    def test_batch_spans_partitions(self):
        # Keys routed to different backends still come back in order
        # from one POST (the channel set fans out per backend).
        router, servers = self._stack(n_servers=3)
        try:
            source_keys = [f"tenant:{i}" for i in range(30)]
            status, payload = post_json(f"{router.url}/qos/batch", {
                "items": [{"key": k} for k in source_keys]})
            assert status == 200
            # Unknown keys are denied (not defaults): every backend
            # actually answered.
            results = payload["results"]
            assert len(results) == 30
            assert all(not r["allow"] and not r["default"] for r in results)
        finally:
            self._teardown(router, servers)
