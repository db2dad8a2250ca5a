"""One workload, one process: set-up, warm-up, window, verdicts, replay."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from repro.core.config import AdmissionConfig, RouterConfig, ServerConfig
from repro.core.rules import QoSRule
from repro.runtime.client import QoSClient
from repro.runtime.cluster import LocalCluster
from repro.workload.keygen import uuid_keys

from bench_e2e import (
    CLIENTS,
    CONTRACT_WINDOW_S,
    SETUP_SAMPLES,
    WARMUP_S,
    WINDOW_OPENS_S,
)
from bench_e2e import replay as replay_mod
from bench_e2e import verdicts
from bench_e2e.env import REPO_ROOT, environment, time_wait_sockets
from bench_e2e.loadgen import (
    UNANSWERED_NS,
    client_call,
    closed_loop,
    open_loop,
    percentile,
    window_stats,
)
from bench_e2e.workloads import Workload, poisson_schedule, request_stream

__all__ = ["OUT_DIR", "Setup", "timed_setup", "run_workload"]

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Keys pre-generated per client (32,768 single-key calls, 2,048 batches
#: of 64); a closed loop that outruns its stream wraps around.
STREAM_KEYS = 131072
STREAM_MAX_CALLS = 32768


class Setup(NamedTuple):
    cluster: LocalCluster
    keys: "list[str]"
    #: ``perf_counter_ns`` when ``cluster.start()`` returned: the QoS
    #: servers' maintenance timers run from here.
    started_ns: int
    setup_s: float
    cluster_start_s: float
    rules_load_s: float

    def times(self) -> "dict[str, float]":
        """The timings alone — what a probe process reports back."""
        return {"setup_s": self.setup_s,
                "cluster_start_s": self.cluster_start_s,
                "rules_load_s": self.rules_load_s}


def timed_setup(workload: Workload, seed: int, window_s: float,
                import_s: float) -> Setup:
    """Key generation -> ``LocalCluster.start()`` -> rules loaded -> first
    verified reply.  ``import_s`` (process start -> ``repro`` imported) is
    added so ``setup_s`` covers the whole way from a cold process."""
    t0 = time.perf_counter()
    keys = uuid_keys(workload.n_keys, seed)
    # The servers' first sync + checkpoint pass starts one period after
    # cluster.start(): in the middle of a window that opens WINDOW_OPENS_S
    # after it.  The second pass starts after the window has closed.
    period = WINDOW_OPENS_S + window_s / 2
    cluster = LocalCluster(
        n_routers=2, n_qos_servers=2,
        router_config=RouterConfig(udp_timeout=0.05, max_retries=5,
                                   lease_enabled=workload.lease),
        server_config=ServerConfig(admission=AdmissionConfig(
            sync_interval=period, checkpoint_interval=period)))
    t1 = time.perf_counter()
    cluster.start()
    started_ns = time.perf_counter_ns()
    t2 = time.perf_counter()
    try:
        for key in keys:
            cluster.rules.put_rule(
                QoSRule(key, workload.refill_rate, workload.capacity))
        t3 = time.perf_counter()
        url = cluster.endpoint if workload.gateway else cluster.routers[0].url
        client = QoSClient(url)
        try:
            first = client.check_detailed(keys[0])
        finally:
            client.close()
        if not first.allowed or first.is_default_reply:
            raise RuntimeError(f"set-up: first reply is wrong: {first}")
        t4 = time.perf_counter()
    except BaseException:
        cluster.stop()
        raise
    return Setup(cluster, keys, started_ns, import_s + (t4 - t0), t2 - t1,
                 t3 - t2)


def _probe_setups(workload: Workload, seed: int, window_s: float,
                  count: int) -> "list[dict]":
    """Time ``count`` more set-ups, each in a fresh process."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-m", "bench_e2e", "--setup-probe",
             "--workload", workload.name, "--seed", str(seed),
             "--seconds", repr(window_s)],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def _counters(cluster: LocalCluster) -> "dict[str, float]":
    """Counters at the layer boundaries, read through public accessors."""
    c: "dict[str, float]" = dict.fromkeys((
        "router.default_replies", "router.retries", "channel.frames_sent",
        "channel.messages_sent", "channel.retries", "channel.default_replies",
        "lease.local_admits", "lease.grants", "lease.expired",
        "server.decisions", "server.denied", "server.malformed_packets"), 0)
    for router in cluster.routers:
        stats = router.stats()
        c["router.default_replies"] += stats["default_replies"]
        c["router.retries"] += stats["retries"]
        for name in ("frames_sent", "messages_sent", "retries",
                     "default_replies"):
            c[f"channel.{name}"] += stats.get("channel", {}).get(name, 0)
        for name in ("local_admits", "grants", "expired"):
            c[f"lease.{name}"] += stats.get("lease", {}).get(name, 0)
    for server in cluster.qos_servers:
        stats = server.controller.stats
        c["server.decisions"] += stats.decisions
        c["server.denied"] += stats.denied
        c["server.malformed_packets"] += server.malformed_packets
    c["lb.requests_forwarded"] = cluster.load_balancer.requests_forwarded
    c["lb.backend_errors"] = cluster.load_balancer.backend_errors
    return c


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_workload(workload: Workload, seed: int, window_s: float,
                 trace: bool, import_s: float) -> dict:
    """Run one workload and return its full record (also written to
    ``out/run_<workload>.json``)."""
    env = environment(seed=seed, window_s=window_s, warmup_s=WARMUP_S)
    n_clients = min(CLIENTS, os.cpu_count() or 1)
    probes = _probe_setups(workload, seed, window_s, SETUP_SAMPLES - 1)
    setup = timed_setup(workload, seed, window_s, import_s)
    cluster, keys = setup.cluster, setup.keys
    setups = probes + [setup.times()]
    clients: "list[QoSClient]" = []
    try:
        stream_calls = min(STREAM_MAX_CALLS, STREAM_KEYS // workload.batch)
        streams = [request_stream(workload, seed, i, stream_calls)
                   for i in range(n_clients)]
        named = [[tuple(keys[k] for k in request) for request in stream]
                 for stream in streams]
        clients = [QoSClient(cluster.endpoint if workload.gateway
                             else cluster.routers[i % 2].url)
                   for i in range(n_clients)]
        outs: "list[list]" = [[] for _ in range(n_clients)]
        stop = threading.Event()
        is_open = workload.open_rate is not None
        start_ns = time.perf_counter_ns()
        # Open the window at a fixed time after cluster.start(), not after
        # set-up: the one maintenance pass it holds (see timed_setup) then
        # lies in its middle however long set-up took and however long the
        # pass lasts.  A pass cut in two by a window edge on some runs and
        # not on others moves every metric of gw_batch64.
        window_start_ns = max(start_ns + int(WARMUP_S * 1e9),
                              setup.started_ns + int(WINDOW_OPENS_S * 1e9))
        window_end_ns = window_start_ns + int(window_s * 1e9)
        threads = []
        for i in range(n_clients):
            call = client_call(clients[i], workload.batch)
            if is_open:
                due = [start_ns + int(t * 1e9) for t in poisson_schedule(
                    workload, seed, i, n_clients,
                    (window_end_ns - start_ns) / 1e9 + 0.05)]
                args = (call, streams[i], named[i], due, outs[i])
            else:
                args = (call, streams[i], named[i], stop, outs[i])
            threads.append(threading.Thread(
                target=open_loop if is_open else closed_loop, args=args,
                name=f"bench-client-{i}", daemon=True))
        for thread in threads:
            thread.start()

        def snapshot(at_ns: int):
            time.sleep(max(0.0, (at_ns - time.perf_counter_ns()) / 1e9))
            return (time.perf_counter_ns(), time.process_time(),
                    time_wait_sockets(), _counters(cluster))

        w0_ns, cpu0, tw0, c0 = snapshot(window_start_ns)
        w1_ns, cpu1, tw1, c1 = snapshot(w0_ns + int(window_s * 1e9))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        table_keys = sum(s.controller.table_size()
                         for s in cluster.qos_servers)
        stop.set()
        for thread in threads:
            thread.join(timeout=UNANSWERED_NS / 1e9 + 10)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not stop")
        calls = [call for out in outs for call in out]

        stats = window_stats(calls, w0_ns, w1_ns, open_loop=is_open,
                             never_deny=workload.never_deny)
        if workload.never_deny:
            violations = verdicts.check_never_deny(calls, keys)
        else:
            violations = verdicts.check_throttle(
                calls, keys, rate=workload.refill_rate,
                capacity=workload.capacity,
                lease_slack=(verdicts.LEASE_SLACK_FRACTION * workload.capacity
                             if workload.lease else 0.0))

        spans = []
        maintenance = {}
        if trace:
            controllers = replay_mod.BenchControllers(
                keys, workload.refill_rate, workload.capacity,
                len(cluster.qos_servers))
            maintenance = controllers.maintenance()
            spans = replay_mod.replay(cluster, workload, keys, streams[0],
                                      controllers)
    finally:
        for client in clients:
            client.close()
        cluster.stop()

    window = (w1_ns - w0_ns) / 1e9
    ok = stats.attempted - stats.failed
    delta = {name: c1[name] - c0[name] for name in c0}
    lat = stats.latencies_ms
    end_to_end = {
        "checks_per_s": (ok / window, "1/s"),
        "check_p50_ms": (percentile(lat, 0.50), "ms"),
        "check_p90_ms": (percentile(lat, 0.90), "ms"),
        "cpu_ms_per_check": (_ratio((cpu1 - cpu0) * 1e3, ok), "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "rss_mb": (rss_mb, "MiB"),
    }
    wire_checks = stats.attempted - delta["lease.local_admits"]
    per_layer = {
        "client.check_p99_ms": (percentile(lat, 0.99), "ms"),
        "client.slo_miss_share": (_ratio(stats.slo_misses, stats.calls),
                                  "ratio"),
        "client.late_share": (_ratio(stats.late, stats.calls), "ratio"),
        "client.transport_errors": (stats.transport_errors, "count"),
        "client.failed_share": (_ratio(stats.failed, stats.attempted),
                                "ratio"),
        "loadbalancer.requests_forwarded": (delta["lb.requests_forwarded"],
                                            "count"),
        "loadbalancer.backend_errors": (delta["lb.backend_errors"], "count"),
        "loadbalancer.time_wait_start": (tw0, "count"),
        "loadbalancer.time_wait_end": (tw1, "count"),
        "http_router.default_replies": (delta["router.default_replies"],
                                        "count"),
        "http_router.retries": (delta["router.retries"], "count"),
        "udp_channel.msgs_per_frame": (
            _ratio(delta["channel.messages_sent"],
                   delta["channel.frames_sent"]), "ratio"),
        "udp_channel.retries": (delta["channel.retries"], "count"),
        "udp_channel.default_replies": (delta["channel.default_replies"],
                                        "count"),
        "udp_server.decisions_per_check": (
            _ratio(delta["server.decisions"], wire_checks), "ratio"),
        "udp_server.malformed_packets": (delta["server.malformed_packets"],
                                         "count"),
        "udp_server.table_keys": (table_keys, "count"),
        "admission.denied_share": (
            _ratio(delta["server.denied"], delta["server.decisions"]),
            "ratio"),
        "lease.local_admit_share": (
            _ratio(delta["lease.local_admits"], stats.attempted), "ratio"),
        "lease.admits_per_grant": (
            _ratio(delta["lease.local_admits"], delta["lease.grants"]),
            "ratio"),
        "lease.grants": (delta["lease.grants"], "count"),
        "lease.expired": (delta["lease.expired"], "count"),
        "rulestore.load_s": (
            statistics.median(s["rules_load_s"] for s in setups), "s"),
        "cluster.start_s": (
            statistics.median(s["cluster_start_s"] for s in setups), "s"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        per_layer.update(_waterfall_metrics(spans, workload, maintenance))
        replay_mod.write_spans(spans, OUT_DIR / f"trace_{workload.name}.jsonl")

    record = {
        "workload": workload.name,
        "env": env,
        "non_contract": window_s != CONTRACT_WINDOW_S,
        "correct": not violations,
        "violations": violations,
        "attempted": stats.attempted,
        "ok": ok,
        "failed": stats.failed,
        "latency_samples": len(lat),
        "window_s_measured": window,
        "setups": setups,
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u}
                      for k, (v, u) in per_layer.items()},
        "traced": trace,
    }
    (OUT_DIR / f"run_{workload.name}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def _waterfall_metrics(spans, workload: Workload, maintenance: dict) -> dict:
    """Per-layer numbers that only the replay can give."""
    medians = replay_mod.median_ns(spans)
    selfs = {name: max(t, 0.0)
             for name, t in replay_mod.self_times(spans).items()}
    per_key = workload.batch
    return {
        "client.self_us": (selfs["client.check"] / 1e3, "us"),
        "loadbalancer.self_us": (
            selfs.get("loadbalancer.forward", 0.0) / 1e3, "us"),
        "http_router.http_self_us": (selfs["http_router.http"] / 1e3, "us"),
        "udp_channel.self_us": (selfs["http_router.exchange"] / 1e3, "us"),
        "udp_server.self_us": (selfs["udp_server.exchange"] / 1e3, "us"),
        "admission.check_ns_per_key": (
            medians["admission.check"] / per_key, "ns"),
        "admission.checkpoint_ms": (maintenance["checkpoint_ms"], "ms"),
        "admission.sync_ms": (maintenance["sync_ms"], "ms"),
        "admission.table_bytes_per_key": (
            maintenance["table_bytes_per_key"], "B"),
        "protocol.codec_ns_per_key": (
            medians["protocol.codec"] / per_key, "ns"),
        "hashing.route_ns": (medians["hashing.route"] / per_key, "ns"),
        "trace.unbalanced": (int(replay_mod.unbalanced(spans)), "count"),
        "trace.replayed": (workload.replay_calls, "count"),
    }
