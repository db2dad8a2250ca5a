"""Credit-lease micro-harness: local admission vs the channel wire path.

PR 3 multiplexed the wire; the credit-lease plane (DESIGN.md,
:mod:`repro.runtime.lease`) removes it for *hot* keys entirely: the
router leases a block of bucket credit from the owning QoS server and
admits locally, so a hot-key check costs a dict lookup and a float
subtraction instead of a datagram round trip.  This module measures
that claim on the real runtime over loopback, three ways:

- **throughput A/B** (:func:`measure_leasepath`) — closed-loop client
  threads hammer a small hot-key set through
  :meth:`RequestRouterDaemon.qos_exchange`; one arm runs with
  ``lease_enabled=True``, the other with the plain channel wire path.
  Both arms share the workload shape, the server configuration, and the
  GIL switch interval, so the ratio is the lease plane's doing.
- **over-admission bound** (:func:`measure_overadmission`) — a finite
  rule (small capacity, slow refill) is hammered with leasing on; the
  harness counts every admitted check and samples the server ledger's
  outstanding-grant total.  The debit-at-grant design promises
  ``admitted <= capacity + refill * elapsed`` with any excess over the
  instantaneous bucket bounded by outstanding grants; the measured
  over-admission must stay within the sampled bound.
- **idle latency** — the interleaved HTTP pair harness from
  :mod:`repro.metrics.wirepath` with a lease-on vs lease-off arm over a
  *cold* (uniform) key set: no key goes hot, so the pair prices the
  hotness tracker and lease-cache miss on the ordinary path.

``benchmarks/test_lease_regression.py`` turns these into regression
gates and writes ``BENCH_lease.json``; ``make bench-lease`` and
``janus bench-lease`` run it from the command line.
"""

from __future__ import annotations

import platform
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.core.admission import InMemoryRuleSource
from repro.core.config import RouterConfig, ServerConfig
from repro.core.rules import QoSRule
from repro.metrics.wirepath import (
    _BENCH_UDP_TIMEOUT,
    _HOT_RULE_CAPACITY,
    _HOT_RULE_RATE,
    measure_idle_latency_pair,
    write_report,
)
from repro.runtime.http_router import RequestRouterDaemon
from repro.runtime.udp_server import QoSServerDaemon

__all__ = [
    "LeaseABReport",
    "LeasepathPoint",
    "measure_leasepath",
    "measure_overadmission",
    "run_lease_ab",
    "write_report",
]

#: Hot-key workload shape: every client hammers this many keys, so each
#: key crosses the hotness threshold within the warmup.
_DEFAULT_HOT_KEYS = 4

#: Grant size for the throughput arm: large enough that renewals are a
#: rounding error at bench rates, small enough to stay far under
#: ``max_lease_fraction`` of the hot rule's capacity.
_BENCH_LEASE_CREDITS = 4096.0


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


def _lease_router_config(enabled: bool, *, batch_size: int = 64,
                         hot_threshold: int = 16,
                         credits: float = _BENCH_LEASE_CREDITS,
                         ttl: float = 0.5) -> RouterConfig:
    return RouterConfig(
        udp_timeout=_BENCH_UDP_TIMEOUT, max_retries=3, batch_size=batch_size,
        lease_enabled=enabled, lease_hot_threshold=hot_threshold,
        lease_credits=credits, lease_ttl=ttl)


@dataclass(frozen=True, slots=True)
class LeasepathPoint:
    """One measured arm of the lease-vs-wire throughput A/B."""

    arm: str                    # "lease" or "wire"
    clients: int
    hot_keys: int
    checks: int
    elapsed_s: float
    checks_per_sec: float
    p50_ms: float
    p99_ms: float
    #: Checks admitted from leased credit (0 on the wire arm).
    local_admits: int
    #: LEASE_REQ datagrams the router sent (asks + renewals + returns).
    lease_requests: int
    lease_grants: int
    default_replies: int
    retries: int


@dataclass(slots=True)
class LeaseABReport:
    """Lease-on vs lease-off sweep plus bound check and idle pair."""

    points: list[LeasepathPoint] = field(default_factory=list)
    #: ``surface="http"`` points from the interleaved idle pair, labelled
    #: ``nolease`` / ``lease`` (:class:`~repro.metrics.wirepath.
    #: WirepathPoint` instances).
    idle_points: list = field(default_factory=list)
    overadmission: dict = field(default_factory=dict)
    machine: dict = field(default_factory=dict)

    def point(self, arm: str, clients: Optional[int] = None
              ) -> Optional[LeasepathPoint]:
        for p in self.points:
            if p.arm == arm and (clients is None or p.clients == clients):
                return p
        return None

    def speedup(self, clients: Optional[int] = None) -> Optional[float]:
        """Lease-arm throughput over wire-arm throughput (hot workload)."""
        lease = self.point("lease", clients)
        wire = self.point("wire", clients)
        if lease is None or wire is None or wire.checks_per_sec <= 0:
            return None
        return lease.checks_per_sec / wire.checks_per_sec

    def local_admit_fraction(self) -> Optional[float]:
        """Share of lease-arm checks admitted without touching the wire."""
        lease = self.point("lease")
        if lease is None or lease.checks <= 0:
            return None
        return lease.local_admits / lease.checks

    def idle_p99_overhead(self) -> Optional[float]:
        """Fractional p99 idle-latency overhead of the lease plane.

        Compares the ``lease`` idle arm against ``nolease`` on the HTTP
        surface over a cold key set: the cost of the hotness tracker and
        the lease-cache miss on every ordinary check.
        """
        nolease = lease = None
        for p in self.idle_points:
            if p.mode == "nolease":
                nolease = p
            elif p.mode == "lease":
                lease = p
        if nolease is None or lease is None or nolease.p99_ms <= 0:
            return None
        return lease.p99_ms / nolease.p99_ms - 1.0

    def as_dict(self) -> dict:
        speedup = self.speedup()
        idle = self.idle_p99_overhead()
        local = self.local_admit_fraction()
        return {
            "machine": self.machine,
            "points": [asdict(p) for p in self.points],
            "idle_points": [asdict(p) for p in self.idle_points],
            "overadmission": self.overadmission,
            "speedup_lease_over_wire": (round(speedup, 3)
                                        if speedup is not None else None),
            "local_admit_fraction": (round(local, 4)
                                     if local is not None else None),
            "idle_p99_overhead_pct": (round(idle * 100.0, 2)
                                      if idle is not None else None),
        }


def measure_leasepath(
    *,
    lease: bool = True,
    clients: int = 8,
    checks_per_client: int = 2_000,
    hot_keys: int = _DEFAULT_HOT_KEYS,
    server_workers: int = 1,
    server_batch: int = 64,
    warmup_per_client: int = 300,
    switch_interval: Optional[float] = 0.0005,
) -> LeasepathPoint:
    """Closed-loop hot-key throughput with leasing on or off.

    Boots one real QoS server and one router on loopback; ``clients``
    threads each hammer the shared ``hot_keys`` key set through
    ``router.qos_exchange``.  The warmup is sized to cross the hotness
    threshold and land the first grants *before* the timed region, so
    the lease arm measures steady-state local admission (asks and
    renewals still happen inside the window — they are part of the
    price).  Hot rules never deny: the measurement isolates path cost,
    not credit arithmetic.
    """
    if clients < 1 or hot_keys < 1:
        raise ValueError("clients and hot_keys must be >= 1")
    keys = [f"lease-hot-{i}" for i in range(hot_keys)]
    source = InMemoryRuleSource(
        {k: QoSRule(k, refill_rate=_HOT_RULE_RATE,
                    capacity=_HOT_RULE_CAPACITY) for k in keys})
    server_config = ServerConfig(workers=server_workers,
                                 batch_size=server_batch)
    router_config = _lease_router_config(lease)
    with QoSServerDaemon(source, config=server_config,
                         name="leasepath-qos") as server:
        with RequestRouterDaemon([server.address], config=router_config,
                                 name="leasepath-router") as router:
            exchange = router.qos_exchange
            start = threading.Barrier(clients + 1)
            done = threading.Barrier(clients + 1)
            latencies: list[list[float]] = [[] for _ in range(clients)]
            defaults = [0] * clients

            def run(wid: int) -> None:
                record = latencies[wid].append
                n = len(keys)
                for i in range(warmup_per_client):
                    exchange(keys[i % n])       # warm table, trip hotness
                start.wait()
                i = wid                          # desynchronize key reuse
                for _ in range(checks_per_client):
                    key = keys[i % n]
                    t0 = time.perf_counter()
                    response, _ = exchange(key)
                    record(time.perf_counter() - t0)
                    if response.is_default_reply:
                        defaults[wid] += 1
                    i += 1
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
                # Baseline after the warmup barrier: the point reports
                # lease activity of the timed region only.
                lease_stats0 = router.stats().get("lease", {})
                t0 = time.perf_counter()
                done.wait()
                elapsed = time.perf_counter() - t0
                for t in threads:
                    t.join()
            finally:
                sys.setswitchinterval(previous_interval)
            retries = router.retries
            lease_stats = router.stats().get("lease", {})
            for field_ in ("local_admits", "requests_sent", "grants"):
                lease_stats[field_] = (lease_stats.get(field_, 0)
                                       - lease_stats0.get(field_, 0))
    flat = sorted(x for chunk in latencies for x in chunk)
    total = clients * checks_per_client

    def percentile(q: float) -> float:
        if not flat:
            return 0.0
        return flat[min(len(flat) - 1, int(q * (len(flat) - 1)))] * 1e3

    return LeasepathPoint(
        arm="lease" if lease else "wire",
        clients=clients,
        hot_keys=hot_keys,
        checks=total,
        elapsed_s=elapsed,
        checks_per_sec=total / elapsed if elapsed > 0 else 0.0,
        p50_ms=percentile(0.50),
        p99_ms=percentile(0.99),
        local_admits=int(lease_stats.get("local_admits", 0)),
        lease_requests=int(lease_stats.get("requests_sent", 0)),
        lease_grants=int(lease_stats.get("grants", 0)),
        default_replies=sum(defaults),
        retries=retries,
    )


def measure_overadmission(
    *,
    clients: int = 4,
    checks_per_client: int = 2_000,
    capacity: float = 500.0,
    refill_rate: float = 200.0,
    lease_credits: float = 64.0,
    lease_ttl: float = 0.25,
    max_lease_fraction: float = 0.5,
    switch_interval: Optional[float] = 0.0005,
) -> dict:
    """Hammer one finite rule with leasing on; verify the admission bound.

    The credit-lease invariant (DESIGN.md): the server debits the
    bucket at grant time, so however routers spend or lose leased
    balance, ``admitted_total <= capacity + refill_rate * elapsed`` —
    and the *instantaneous* excess over bucket credit never exceeds the
    sum of outstanding grants, itself capped at ``max_lease_fraction *
    capacity`` per key.  A sampler thread tracks the ledger's peak
    outstanding total; the report carries both sides of the inequality
    so the regression gate is a plain comparison.
    """
    key = "lease-bounded"
    source = InMemoryRuleSource(
        {key: QoSRule(key, refill_rate=refill_rate, capacity=capacity,
                      max_lease_fraction=max_lease_fraction)})
    router_config = _lease_router_config(
        True, hot_threshold=8, credits=lease_credits, ttl=lease_ttl)
    allowed = [0] * clients
    max_outstanding = [0.0]
    with QoSServerDaemon(source, name="leasebound-qos") as server:
        with RequestRouterDaemon([server.address], config=router_config,
                                 name="leasebound-router") as router:
            exchange = router.qos_exchange
            start = threading.Barrier(clients + 1)
            done = threading.Barrier(clients + 1)
            stop_sampling = threading.Event()

            def sample() -> None:
                outstanding = server.controller.lease_outstanding_total
                while not stop_sampling.is_set():
                    max_outstanding[0] = max(max_outstanding[0],
                                             outstanding())
                    stop_sampling.wait(0.005)

            def run(wid: int) -> None:
                start.wait()
                for _ in range(checks_per_client):
                    response, _ = exchange(key)
                    if response.allowed:
                        allowed[wid] += 1
                done.wait()

            sampler = threading.Thread(target=sample, daemon=True)
            sampler.start()
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
                stop_sampling.set()
            sampler.join()
            lease_stats = router.stats().get("lease", {})
            outstanding_end = server.controller.lease_outstanding_total()
    allowed_total = sum(allowed)
    # One housekeeping interval of slack: the refill clock is the
    # server's, not ours.
    refill_budget = refill_rate * (elapsed + 0.1)
    admitted_bound = capacity + refill_budget
    over_admission = max(0.0, allowed_total - admitted_bound)
    outstanding_bound = max(max_outstanding[0],
                            max_lease_fraction * capacity)
    return {
        "clients": clients,
        "checks": clients * checks_per_client,
        "elapsed_s": elapsed,
        "capacity": capacity,
        "refill_rate": refill_rate,
        "allowed_total": allowed_total,
        "admitted_bound": round(admitted_bound, 3),
        "over_admission": round(over_admission, 3),
        "max_outstanding": round(max_outstanding[0], 3),
        "outstanding_end": round(outstanding_end, 3),
        "outstanding_bound": round(outstanding_bound, 3),
        "within_bound": over_admission <= outstanding_bound + 1e-6,
        "lease_grants": int(lease_stats.get("grants", 0)),
        "lease_local_admits": int(lease_stats.get("local_admits", 0)),
    }


def run_lease_ab(
    *,
    clients: int = 8,
    checks_per_client: int = 2_000,
    hot_keys: int = _DEFAULT_HOT_KEYS,
    include_idle_latency: bool = True,
    include_overadmission: bool = True,
    repeats: int = 2,
    switch_interval: Optional[float] = 0.0005,
) -> LeaseABReport:
    """The full lease A/B: throughput pair, bound check, idle pair.

    Each throughput arm runs ``repeats`` times keeping the
    highest-throughput run (applied to both arms identically — the
    same outlier policy as :func:`repro.metrics.wirepath.run_obs_ab`).
    The idle pair reuses the interleaved harness from
    :mod:`repro.metrics.wirepath` over its uniform 256-key set, on which
    no key crosses the hotness threshold.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    report = LeaseABReport(machine=_machine_info(switch_interval))
    for lease in (True, False):
        best = max(
            (measure_leasepath(
                lease=lease, clients=clients,
                checks_per_client=checks_per_client, hot_keys=hot_keys,
                switch_interval=switch_interval)
             for _ in range(repeats)),
            key=lambda p: p.checks_per_sec)
        report.points.append(best)
    if include_overadmission:
        report.overadmission = measure_overadmission(
            switch_interval=switch_interval)
    if include_idle_latency:
        arms = [("nolease", _lease_router_config(False, batch_size=1)),
                ("lease", _lease_router_config(True, batch_size=1))]
        best_pair = min(
            (measure_idle_latency_pair(
                arms, checks_per_client=max(checks_per_client, 1),
                switch_interval=switch_interval)
             for _ in range(repeats)),
            key=lambda pair: sum(p.p99_ms for p in pair))
        report.idle_points.extend(best_pair)
    return report
