"""Wire-path micro-harness: router→server admission round trips per second.

:func:`measure_wirepath` boots one real
:class:`~repro.runtime.udp_server.QoSServerDaemon` and one router on
loopback and drives the multiplexed, batched channel of
:mod:`repro.runtime.udp_channel` from closed-loop client threads.  Its
throughput points (``surface="wire"``) call
:meth:`RequestRouterDaemon.qos_exchange`/``qos_exchange_many`` directly,
so the measurement isolates the router↔server wire path (no HTTP parsing
in the timed region).

:func:`measure_idle_latency_pair` times real ``GET /qos`` requests
(``surface="http"``) to compare the idle latency of several router
configurations (*arms*).  Because sub-millisecond p99s drift with host
load far more than the arms differ, it measures them *interleaved*: one
server, one router per arm, alternating short request blocks inside the
same time window, so ambient noise lands on every arm equally.

:func:`run_obs_ab` uses both to measure the observability plane's cost:
it A/Bs the wire path traced (head sampling at ``trace_rate``, default
1-in-64) against untraced on the throughput and idle-latency surfaces,
which ``benchmarks/test_obs_regression.py`` gates at ≤ 5% and writes to
``BENCH_obs.json`` (``make bench-obs`` / ``janus bench-obs``).  The
lease and multi-core harnesses reuse the same pieces.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from repro.core.admission import InMemoryRuleSource
from repro.core.config import RouterConfig, ServerConfig
from repro.core.rules import QoSRule
from repro.obs.tracing import DEFAULT_SAMPLE_RATE
from repro.runtime.client import QoSClient
from repro.runtime.http_router import RequestRouterDaemon
from repro.runtime.udp_server import QoSServerDaemon
from repro.workload.keygen import uuid_keys

__all__ = [
    "ObsABReport",
    "WirepathPoint",
    "measure_idle_latency_pair",
    "measure_wirepath",
    "run_obs_ab",
    "write_report",
]

#: Hot rules that never deny: the measurement isolates wire cost, not
#: credit arithmetic.
_HOT_RULE_RATE = 1e9
_HOT_RULE_CAPACITY = 1e12

#: Generous per-attempt timeout so a loaded CI host never burns retries
#: inside the timed region (retries would measure the timeout, not the
#: wire).
_BENCH_UDP_TIMEOUT = 0.5


@dataclass(frozen=True, slots=True)
class WirepathPoint:
    """One measured wire-path configuration."""

    mode: str                   # arm label; "channel" for wire points
    surface: str                # "wire" (direct router calls) or "http"
    clients: int
    batch_size: int             # channel coalescing limit (1 = no batching)
    keys_per_call: int          # keys per qos_exchange_many call (1 = single)
    checks: int
    elapsed_s: float
    checks_per_sec: float
    p50_ms: float               # per *call* latency (keys_per_call keys)
    p99_ms: float
    default_replies: int
    retries: int
    #: Router head-sampling rate active during the run (0 = untraced).
    trace_rate: float = 0.0


def _machine_info(switch_interval: Optional[float] = None) -> dict:
    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        # Report stamp ("when did this bench run"), not a duration input.
        "unix_time": time.time(),  # janus-lint: disable=monotonic-time
    }
    if switch_interval is not None:
        info["gil_switch_interval_s"] = switch_interval
    return info


def measure_wirepath(
    *,
    clients: int = 8,
    checks_per_client: int = 2_000,
    batch_size: int = 64,
    keys_per_call: int = 1,
    # One worker: on the small hosts this harness targets, extra GIL-bound
    # workers only add handoffs.
    server_workers: int = 1,
    server_batch: int = 64,
    n_keys: int = 256,
    seed: int = 88,
    warmup_per_client: int = 50,
    switch_interval: Optional[float] = 0.0005,
    trace_sample_rate: float = 0.0,
) -> WirepathPoint:
    """Throughput and latency of ``clients`` closed-loop threads.

    Boots one real QoS server and one router on loopback, warms the
    admission table outside the timed region, then hammers the router
    from ``clients`` threads, calling the router object directly:
    ``keys_per_call=1`` times ``router.qos_exchange`` per key; larger
    values time ``router.qos_exchange_many`` over chunks of that many
    keys — the batch surface that ``POST /qos/batch`` exposes.
    ``checks_per_client`` always counts *keys*, so throughput is
    comparable across the two.

    ``switch_interval`` (seconds, ``None`` to leave untouched) lowers the
    interpreter's GIL switch interval for the timed region — applied to
    every arm identically.  The default 5 ms quantum lets any
    CPU-holding thread stall the many cross-thread wakeups this tier is
    made of; 0.5 ms is the documented wire-path tuning (see
    ``docs/OPERATIONS.md``) and matters most on few-core hosts.
    """
    if keys_per_call < 1:
        raise ValueError(f"keys_per_call must be >= 1, got {keys_per_call}")
    keys = uuid_keys(n_keys, seed=seed)
    source = InMemoryRuleSource(
        {k: QoSRule(k, refill_rate=_HOT_RULE_RATE,
                    capacity=_HOT_RULE_CAPACITY) for k in keys})
    server_config = ServerConfig(workers=server_workers,
                                 batch_size=server_batch)
    router_config = RouterConfig(
        udp_timeout=_BENCH_UDP_TIMEOUT, max_retries=3,
        batch_size=batch_size, trace_sample_rate=trace_sample_rate)
    with QoSServerDaemon(source, config=server_config,
                         name="wirepath-qos") as server:
        with RequestRouterDaemon([server.address], config=router_config,
                                 name="wirepath-router") as router:
            exchange = router.qos_exchange
            exchange_many = router.qos_exchange_many
            for k in keys[:min(n_keys, 64)]:
                exchange(k)                     # warm table + sockets
            start = threading.Barrier(clients + 1)
            done = threading.Barrier(clients + 1)
            latencies: list[list[float]] = [[] for _ in range(clients)]
            defaults = [0] * clients

            def run(wid: int) -> None:
                local = keys[wid::clients] or keys
                n = len(local)
                record = latencies[wid].append
                calls = -(-checks_per_client // keys_per_call)  # ceil div
                chunks = []
                j = wid                         # desynchronize key reuse
                for _ in range(calls):
                    chunk = [(local[(j + o) % n], 1.0)
                             for o in range(keys_per_call)]
                    chunks.append(chunk)
                    j += keys_per_call
                for i in range(warmup_per_client):
                    exchange(local[i % n])
                start.wait()
                if keys_per_call == 1:
                    i = 0
                    for _ in range(checks_per_client):
                        t0 = time.perf_counter()
                        response, _ = exchange(local[i])
                        record(time.perf_counter() - t0)
                        if response.is_default_reply:
                            defaults[wid] += 1
                        i += 1
                        if i == n:
                            i = 0
                else:
                    for chunk in chunks:
                        t0 = time.perf_counter()
                        results = exchange_many(chunk)
                        record(time.perf_counter() - t0)
                        defaults[wid] += sum(
                            1 for response, _ in results
                            if response.is_default_reply)
                done.wait()

            previous_interval = sys.getswitchinterval()
            if switch_interval is not None:
                sys.setswitchinterval(switch_interval)
            try:
                threads = [threading.Thread(target=run, args=(w,),
                                            daemon=True)
                           for w in range(clients)]
                for t in threads:
                    t.start()
                start.wait()
                t0 = time.perf_counter()
                done.wait()
                elapsed = time.perf_counter() - t0
                for t in threads:
                    t.join()
            finally:
                sys.setswitchinterval(previous_interval)
            retries = router.retries
    flat = sorted(x for chunk in latencies for x in chunk)
    total = clients * -(-checks_per_client // keys_per_call) * keys_per_call

    def percentile(q: float) -> float:
        if not flat:
            return 0.0
        return flat[min(len(flat) - 1, int(q * (len(flat) - 1)))] * 1e3

    return WirepathPoint(
        mode="channel",
        surface="wire",
        clients=clients,
        batch_size=batch_size,
        keys_per_call=keys_per_call,
        checks=total,
        elapsed_s=elapsed,
        checks_per_sec=total / elapsed if elapsed > 0 else 0.0,
        p50_ms=percentile(0.50),
        p99_ms=percentile(0.99),
        default_replies=sum(defaults),
        retries=retries,
        trace_rate=trace_sample_rate,
    )


def measure_idle_latency_pair(
    arms: Sequence[tuple[str, RouterConfig]],
    *,
    checks_per_client: int = 3_000,
    block: int = 10,
    server_workers: int = 1,
    server_batch: int = 64,
    n_keys: int = 256,
    seed: int = 88,
    warmup_per_client: int = 300,
    switch_interval: Optional[float] = 0.0005,
) -> list[WirepathPoint]:
    """Interleaved idle ``GET /qos`` latency across router *arms*.

    Boots ONE QoS server and one router per arm, then alternates blocks
    of ``block`` sequential requests between the arms until each has
    ``checks_per_client`` samples.  All arms thus see the same ambient
    host noise, which at sub-millisecond p99s otherwise dwarfs the
    difference being measured.  :func:`run_obs_ab` passes a traced-vs-
    untraced pair, the lease harness a lease-on/off pair.  Returns one
    ``surface="http"`` point per arm, labelled by the arm name;
    ``elapsed_s`` is the per-arm sum of request latencies.
    """
    keys = uuid_keys(n_keys, seed=seed)
    source = InMemoryRuleSource(
        {k: QoSRule(k, refill_rate=_HOT_RULE_RATE,
                    capacity=_HOT_RULE_CAPACITY) for k in keys})
    labels = [label for label, _ in arms]
    if len(set(labels)) != len(labels):
        raise ValueError(f"arm labels must be unique, got {labels}")
    latencies: dict[str, list[float]] = {m: [] for m in labels}
    defaults = {m: 0 for m in labels}
    retries = {m: 0 for m in labels}
    with QoSServerDaemon(source,
                         config=ServerConfig(workers=server_workers,
                                             batch_size=server_batch),
                         name="wirepath-qos") as server:
        routers: dict[str, RequestRouterDaemon] = {}
        clients: dict[str, QoSClient] = {}
        try:
            for label, router_config in arms:
                routers[label] = RequestRouterDaemon(
                    [server.address], config=router_config,
                    name=f"wirepath-router-{label}").start()
                clients[label] = QoSClient(routers[label].url)
            previous_interval = sys.getswitchinterval()
            if switch_interval is not None:
                sys.setswitchinterval(switch_interval)
            try:
                for label in labels:
                    check = clients[label].check
                    for i in range(warmup_per_client):
                        check(keys[i % n_keys])
                blocks = -(-checks_per_client // block)  # ceil div
                for b in range(blocks):
                    for label in labels:
                        check_detailed = clients[label].check_detailed
                        record = latencies[label].append
                        for i in range(block):
                            key = keys[(b * block + i) % n_keys]
                            t0 = time.perf_counter()
                            result = check_detailed(key)
                            record(time.perf_counter() - t0)
                            if result.is_default_reply:
                                defaults[label] += 1
            finally:
                sys.setswitchinterval(previous_interval)
            for label in labels:
                retries[label] = routers[label].retries
        finally:
            for router in routers.values():
                router.stop()

    points = []
    for label, router_config in arms:
        flat = sorted(latencies[label])
        elapsed = sum(flat)

        def percentile(q: float) -> float:
            return flat[min(len(flat) - 1, int(q * (len(flat) - 1)))] * 1e3

        points.append(WirepathPoint(
            mode=label, surface="http", clients=1,
            batch_size=router_config.batch_size,
            keys_per_call=1, checks=len(flat), elapsed_s=elapsed,
            checks_per_sec=len(flat) / elapsed if elapsed > 0 else 0.0,
            p50_ms=percentile(0.50), p99_ms=percentile(0.99),
            default_replies=defaults[label], retries=retries[label],
            trace_rate=router_config.trace_sample_rate))
    return points


@dataclass(slots=True)
class ObsABReport:
    """Traced-vs-untraced A/B of the channel wire path.

    Quantifies what the observability plane costs when it is *on*:
    head sampling at ``trace_rate`` plus the always-on striped counters
    and histograms, versus the same wire path with sampling off.  Two
    surfaces: closed-loop throughput
    (``surface="wire"``) and interleaved idle ``GET /qos`` latency
    (``surface="http"``).  Within each surface the untraced point is the
    one with ``trace_rate == 0``.
    """

    trace_rate: float
    points: list[WirepathPoint] = field(default_factory=list)
    machine: dict = field(default_factory=dict)

    def _pair(self, surface: str):
        untraced = traced = None
        for p in self.points:
            if p.surface != surface:
                continue
            if p.trace_rate == 0.0:
                untraced = p
            else:
                traced = p
        return untraced, traced

    def throughput_overhead(self) -> Optional[float]:
        """Fractional throughput lost to tracing on the wire surface.

        0.03 means the traced run moved 3% fewer checks/s than the
        untraced run; negative values mean the traced run was faster
        (i.e. the difference is inside host noise).
        """
        untraced, traced = self._pair("wire")
        if untraced is None or traced is None or untraced.checks_per_sec <= 0:
            return None
        return 1.0 - traced.checks_per_sec / untraced.checks_per_sec

    def idle_p99_overhead(self) -> Optional[float]:
        """Fractional p99 idle-request-latency overhead of tracing."""
        untraced, traced = self._pair("http")
        if untraced is None or traced is None or untraced.p99_ms <= 0:
            return None
        return traced.p99_ms / untraced.p99_ms - 1.0

    def as_dict(self) -> dict:
        throughput = self.throughput_overhead()
        idle = self.idle_p99_overhead()
        return {
            "machine": self.machine,
            "trace_rate": self.trace_rate,
            "points": [asdict(p) for p in self.points],
            "throughput_overhead_pct": (round(throughput * 100.0, 2)
                                        if throughput is not None else None),
            "idle_p99_overhead_pct": (round(idle * 100.0, 2)
                                      if idle is not None else None),
        }


def run_obs_ab(
    *,
    trace_rate: float = DEFAULT_SAMPLE_RATE,
    clients: int = 4,
    checks_per_client: int = 2_000,
    batch_size: int = 64,
    keys_per_call: int = 64,
    include_idle_latency: bool = True,
    repeats: int = 2,
    n_keys: int = 256,
    seed: int = 88,
    switch_interval: Optional[float] = 0.0005,
) -> ObsABReport:
    """A/B the channel wire path with head sampling on vs off.

    The throughput arm runs :func:`measure_wirepath` at
    ``trace_sample_rate`` 0 and ``trace_rate``, keeping the
    highest-throughput run of ``repeats`` each — applied to both arms
    identically, this discards scheduler-noise outliers without biasing
    the comparison.  The idle arm reuses the interleaved
    :func:`measure_idle_latency_pair` harness with a traced-vs-untraced
    router pair (both ``batch_size=1``) so ambient noise lands on both
    arms equally, keeping the lowest-summed-p99 run of ``repeats``.
    ``benchmarks/test_obs_regression.py`` gates both overheads at ≤ 5%
    and writes the report to ``BENCH_obs.json``.
    """
    if not 0.0 < trace_rate <= 1.0:
        raise ValueError(f"trace_rate must be in (0, 1], got {trace_rate}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    report = ObsABReport(trace_rate=trace_rate,
                         machine=_machine_info(switch_interval))
    for rate in (0.0, trace_rate):
        best = max(
            (measure_wirepath(
                clients=clients,
                checks_per_client=checks_per_client,
                batch_size=batch_size, keys_per_call=keys_per_call,
                n_keys=n_keys, seed=seed, switch_interval=switch_interval,
                trace_sample_rate=rate)
             for _ in range(repeats)),
            key=lambda p: p.checks_per_sec)
        report.points.append(best)
    if include_idle_latency:
        def _arm(label: str, rate: float) -> tuple[str, RouterConfig]:
            return (label, RouterConfig(
                udp_timeout=_BENCH_UDP_TIMEOUT, max_retries=3,
                batch_size=1, trace_sample_rate=rate))
        arms = [_arm("untraced", 0.0), _arm("traced", trace_rate)]
        best_pair = min(
            (measure_idle_latency_pair(
                arms, checks_per_client=max(checks_per_client, 1),
                n_keys=n_keys, seed=seed, switch_interval=switch_interval)
             for _ in range(repeats)),
            key=lambda pair: sum(p.p99_ms for p in pair))
        report.points.extend(best_pair)
    return report


def write_report(path, report) -> None:
    """Serialize a report as JSON (the ``BENCH_*.json`` artifacts).

    Accepts anything with an ``as_dict()`` (:class:`ObsABReport` and
    the lease, multi-core and reshard reports).
    """
    with open(path, "w") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
