"""Tests for the janus CLI."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.cli import load_rules_file, main, save_rules_file
from repro.core.errors import JanusError
from repro.core.rules import QoSRule


class TestRulesFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "rules.json"
        rules = [QoSRule("a", 10.0, 100.0),
                 QoSRule("b", 5.0, 50.0, credit=20.0)]
        save_rules_file(path, rules)
        loaded = load_rules_file(path)
        assert loaded == rules

    def test_missing_file(self, tmp_path):
        with pytest.raises(JanusError):
            load_rules_file(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(JanusError):
            load_rules_file(path)

    def test_bad_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"key": "a"}]')
        with pytest.raises(JanusError):
            load_rules_file(path)

    def test_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"key": "a"}')
        with pytest.raises(JanusError):
            load_rules_file(path)


class TestRulesCommands:
    def test_init_add_list_remove(self, tmp_path, capsys):
        path = str(tmp_path / "rules.json")
        assert main(["rules", "-f", path, "init"]) == 0
        assert main(["rules", "-f", path, "add", "alice",
                     "--rate", "100", "--capacity", "1000"]) == 0
        assert main(["rules", "-f", path, "add", "bob",
                     "--rate", "10", "--capacity", "100"]) == 0
        assert main(["rules", "-f", path, "list"]) == 0
        out = capsys.readouterr().out
        assert "alice" in out and "bob" in out
        assert main(["rules", "-f", path, "remove", "bob"]) == 0
        assert len(load_rules_file(tmp_path / "rules.json")) == 1

    def test_init_refuses_overwrite(self, tmp_path):
        path = str(tmp_path / "rules.json")
        assert main(["rules", "-f", path, "init"]) == 0
        assert main(["rules", "-f", path, "init"]) == 1
        assert main(["rules", "-f", path, "init", "--force"]) == 0

    def test_remove_missing(self, tmp_path):
        path = str(tmp_path / "rules.json")
        main(["rules", "-f", path, "init"])
        assert main(["rules", "-f", path, "remove", "ghost"]) == 1

    def test_add_updates_existing(self, tmp_path):
        path = str(tmp_path / "rules.json")
        main(["rules", "-f", path, "init"])
        main(["rules", "-f", path, "add", "a", "--rate", "1", "--capacity", "2"])
        main(["rules", "-f", path, "add", "a", "--rate", "9", "--capacity", "8"])
        rules = load_rules_file(tmp_path / "rules.json")
        assert len(rules) == 1
        assert rules[0].refill_rate == 9.0

    def test_error_exit_code(self, tmp_path, capsys):
        assert main(["rules", "-f", str(tmp_path / "none.json"), "list"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCheckAgainstLiveCluster:
    @pytest.fixture(scope="class")
    def cluster(self):
        from repro.runtime import LocalCluster
        with LocalCluster(n_routers=1, n_qos_servers=1) as c:
            c.rules.put_rule(QoSRule("vip", refill_rate=1e4, capacity=1e5))
            c.rules.put_rule(QoSRule("none", refill_rate=0.0, capacity=0.0))
            yield c

    def test_check_allow(self, cluster, capsys):
        code = main(["check", "vip", "--endpoint", cluster.endpoint])
        assert code == 0
        assert "ALLOW" in capsys.readouterr().out

    def test_check_deny(self, cluster, capsys):
        code = main(["check", "none", "--endpoint", cluster.endpoint])
        assert code == 1
        assert "DENY" in capsys.readouterr().out

    def test_stats_command(self, cluster, capsys):
        code = main(["stats", "--endpoint", cluster.routers[0].url])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "router-0"
        assert payload["backends"] == 1

    def test_router_stats_endpoint_direct(self, cluster):
        with urllib.request.urlopen(
                f"{cluster.routers[0].url}/stats", timeout=5.0) as response:
            payload = json.loads(response.read())
        assert "requests_handled" in payload

    def test_cluster_stats_aggregation(self, cluster):
        cluster.qos_check("vip")
        stats = cluster.stats()
        assert stats["rules_in_database"] == 2
        assert len(stats["qos_servers"]) == 1
        assert stats["qos_servers"][0]["decisions"] >= 1
        assert stats["routers"][0]["requests_handled"] >= 1


class TestServeCommand:
    def test_serve_boots_and_stops(self, tmp_path, capsys):
        path = tmp_path / "rules.json"
        save_rules_file(path, [QoSRule("k", 10.0, 100.0)])
        code = main(["serve", "--rules", str(path), "--routers", "1",
                     "--qos-servers", "1", "--max-seconds", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Janus serving at http://" in out
        assert "stopped" in out


class TestLoadtestCommand:
    def test_loadtest_against_cluster(self, capsys):
        from repro.runtime import LocalCluster
        from repro.workload import uuid_keys
        with LocalCluster(n_routers=1, n_qos_servers=1) as cluster:
            for k in uuid_keys(64, seed=1):
                cluster.rules.put_rule(QoSRule(k, 1e6, 1e6))
            code = main(["loadtest", "--endpoint", cluster.endpoint,
                         "-n", "120", "-c", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "requests:   120" in out
        assert "120 allowed" in out
        assert "latency ms:" in out

    def test_loadtest_single_key(self, capsys):
        from repro.runtime import LocalCluster
        with LocalCluster(n_routers=1, n_qos_servers=1) as cluster:
            cluster.rules.put_rule(QoSRule("hot", refill_rate=0.0,
                                           capacity=30.0))
            code = main(["loadtest", "--endpoint", cluster.endpoint,
                         "-n", "60", "-c", "2", "--keys", "0",
                         "--key", "hot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "30 allowed, 30 denied" in out


class TestBenchMulticoreCommand:
    def test_smoke_run_writes_report(self, tmp_path, capsys):
        # A toy sweep: one single-process and one 2-process point, enough
        # to exercise the supervisor end to end and the JSON artifact.
        out_path = tmp_path / "BENCH_multicore.json"
        code = main(["bench-multicore", "--out", str(out_path),
                     "--workers", "1", "2", "--clients", "2",
                     "--checks", "64", "--keys-per-call", "16",
                     "--repeats", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup @2 workers:" in out
        assert f"wrote {out_path}" in out
        report = json.loads(out_path.read_text())
        workers = {p["n_workers"] for p in report["points"]}
        assert workers == {1, 2}
        assert all(p["default_replies"] == 0 for p in report["points"])
        assert "workers2" in report["speedup_over_single_process"]

    def test_rejects_bad_arguments(self, capsys):
        assert main(["bench-multicore", "--checks", "0"]) == 2
        assert main(["bench-multicore", "--workers", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err
