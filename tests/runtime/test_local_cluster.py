"""Integration tests: the full real-socket LocalCluster."""

from __future__ import annotations

import threading

import pytest

from repro.core.errors import CommunicationError
from repro.core.rules import QoSRule
from repro.runtime.client import QoSClient
from repro.runtime.cluster import LocalCluster
from repro.workload.ab import run_ab
from repro.workload.keygen import uuid_keys


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_routers=2, n_qos_servers=2) as c:
        c.rules.put_rule(QoSRule("vip", refill_rate=10_000.0, capacity=100_000.0))
        c.rules.put_rule(QoSRule("tiny", refill_rate=0.0, capacity=3.0))
        yield c


class TestEndToEnd:
    def test_admit_through_lb(self, cluster):
        assert cluster.qos_check("vip")

    def test_quota_through_lb(self, cluster):
        client = cluster.client()
        results = [client.check("tiny") for _ in range(6)]
        assert sum(results) == 3
        assert results[3:] == [False, False, False]

    def test_unknown_key_denied(self, cluster):
        assert not cluster.qos_check("nobody")

    def test_detailed_result(self, cluster):
        result = cluster.client().check_detailed("vip")
        assert result.allowed
        assert not result.is_default_reply
        assert result.attempts >= 1
        assert result.latency < 1.0

    def test_concurrent_clients_consistent(self, cluster):
        cluster.rules.put_rule(
            QoSRule("shared", refill_rate=0.0, capacity=200.0))
        admitted = []
        lock = threading.Lock()

        def worker():
            client = cluster.client()
            count = sum(client.check("shared") for _ in range(100))
            with lock:
                admitted.append(count)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(admitted) == 200

    def test_ab_driver(self, cluster):
        keys = uuid_keys(32, seed=77)
        for k in keys:
            cluster.rules.put_rule(QoSRule(k, refill_rate=1e6, capacity=1e6))
        result = run_ab(cluster.endpoint,
                        lambda w, i: keys[(w * 13 + i) % len(keys)],
                        n_requests=200, concurrency=4)
        assert result.requests == 200
        assert result.allowed == 200
        assert result.transport_errors == 0
        assert result.throughput > 50
        assert result.latency.p90 < 0.5

    def test_rule_update_visible_after_sync(self, cluster):
        # Direct controller sync (the daemon's timer is minutes by default).
        cluster.rules.put_rule(QoSRule("upgraded", refill_rate=0.0, capacity=1.0))
        client = cluster.client()
        assert client.check("upgraded")
        assert not client.check("upgraded")
        cluster.rules.put_rule(
            QoSRule("upgraded", refill_rate=1e6, capacity=1e6))
        for server in cluster.qos_servers:
            server.controller.sync_rules()
        assert client.check("upgraded")

    def test_db_failover_transparent(self, cluster):
        cluster.db.fail_master()
        try:
            cluster.rules.put_rule(QoSRule("post-failover", 1e3, 1e3))
            assert cluster.qos_check("post-failover")
        finally:
            cluster.db.launch_standby()


class TestClientResilience:
    def test_fail_open_on_dead_endpoint(self):
        client = QoSClient("http://127.0.0.1:1", timeout=0.2, fail_open=True)
        result = client.check_detailed("k")
        assert result.allowed
        assert result.is_default_reply
        assert client.transport_errors == 1

    def test_fail_closed_on_dead_endpoint(self):
        client = QoSClient("http://127.0.0.1:1", timeout=0.2, fail_open=False)
        assert not client.check("k")

    def test_invalid_endpoint_rejected(self):
        from repro.core.errors import CommunicationError
        with pytest.raises(CommunicationError):
            QoSClient("ftp://example.com")


class TestBatchAndInterop:
    """The batch client surface and v1<->v2 wire interop (PR 3)."""

    def test_check_many_through_lb(self, cluster):
        verdicts = cluster.qos_check_many(["vip", "stranger", "vip"])
        assert verdicts == [True, False, True]

    def test_check_many_detailed_results_in_key_order(self, cluster):
        results = cluster.client().check_many_detailed(
            ["vip", "stranger", "vip", "stranger"])
        assert [r.allowed for r in results] == [True, False, True, False]
        assert all(not r.is_default_reply for r in results)

    def test_check_many_empty(self, cluster):
        assert cluster.client().check_many([]) == []

    def test_check_many_raises_without_batch_endpoint(self):
        # Every router serves POST /qos/batch; an endpoint that answers
        # it with 404 or 405 is an error like any other non-200 status.
        import http.server
        import json

        statuses: list = []

        class NoBatchRouter(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                payload = json.dumps({"allow": True, "default": False,
                                      "attempts": 1}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_POST(self):
                self.send_error(statuses[-1])

            def log_message(self, *args):
                pass

        httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                                NoBatchRouter)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            host, port = httpd.server_address
            client = QoSClient(f"http://{host}:{port}")
            for status in (404, 405):
                statuses.append(status)
                with pytest.raises(CommunicationError,
                                   match=f"HTTP {status}"):
                    client.check_many(["a", "b"])
            # The single-key GET path is unaffected.
            assert client.check("a")
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_stats_carry_channel_counters(self, cluster):
        cluster.qos_check_many(["vip", "vip", "stranger"])
        stats = cluster.stats()
        assert sum(r["channel"]["messages_sent"]
                   for r in stats["routers"]) >= 3
