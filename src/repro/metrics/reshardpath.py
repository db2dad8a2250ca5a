"""Reshard-path harness: migration fidelity and the transfer window.

PR 9's live resharding plane (:mod:`repro.runtime.reshard`) promises a
node join/leave with *bounded* credit loss: after PREPARE the old owner
spends nothing on moved keys, so the warm :class:`BucketSnapshot` that
travels is exact and the only loss is the refill the moved buckets
would have accrued during the transfer window — at most one refill
interval when the window is shorter than the interval (DESIGN.md,
"Bounded credit loss").  This module measures both halves of that claim
on the real runtime over loopback:

- **migration fidelity** (:func:`measure_migration_fidelity`) — spend a
  distinct amount of credit per key on a zero-refill rule set, reshard
  N→N+1, and compare per-key credit before and after.  With no refill
  there is nothing to accrue, so any difference is real credit loss and
  the gate demands *exactly none*; the transfer-window duration is
  reported against the refill interval, which bounds the loss any
  refilling rule would see.
- **transfer window under load** (:func:`measure_transfer_window`) —
  closed-loop client threads hammer checks through the router while the
  cluster reshards up and back down.  The harness splits latencies and
  default replies into the steady region and the in-window region, so
  the report carries the degradation the paper's §III-B model predicts
  (immediate default replies for frozen keys) and the gate bounds the
  window default-reply *rate* instead of pretending there is none.

``benchmarks/test_reshard_regression.py`` turns these into regression
gates and writes ``BENCH_reshard.json``; ``make bench-reshard`` and
``janus bench-reshard`` run it from the command line.
"""

from __future__ import annotations

import os
import platform
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.admission import InMemoryRuleSource
from repro.core.config import AdmissionConfig, RouterConfig, ServerConfig
from repro.core.rules import QoSRule
from repro.metrics.wirepath import write_report
from repro.runtime.http_router import RequestRouterDaemon
from repro.runtime.reshard import ReshardCoordinator
from repro.runtime.cluster import LocalCluster
from repro.runtime.udp_server import QoSServerDaemon

__all__ = [
    "ReshardBenchReport",
    "measure_migration_fidelity",
    "measure_transfer_window",
    "run_reshard_bench",
    "write_report",
]

#: Keys in the migrated rule set — enough for every node to own a share.
_DEFAULT_KEYS = 96

#: Refill interval the fidelity arm reports the window against (the
#: paper's housekeeping period; the bound is one interval of refill).
_REFILL_INTERVAL = 0.1


def _machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        # Report stamp ("when did this bench run"), not a duration input.
        "unix_time": time.time(),  # janus-lint: disable=monotonic-time
    }


def _handle(server: QoSServerDaemon):
    from repro.runtime.reshard import NodeHandle

    return NodeHandle(name=server.name,
                      addresses=(tuple(server.address),),
                      snapshot=server.controller.snapshot,
                      stop=server.stop)


@dataclass(slots=True)
class ReshardBenchReport:
    """Fidelity + transfer-window measurements for the reshard plane."""

    fidelity: dict = field(default_factory=dict)
    window: dict = field(default_factory=dict)
    machine: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "machine": self.machine,
            "fidelity": self.fidelity,
            "window": self.window,
        }


def measure_migration_fidelity(
    *,
    n_keys: int = _DEFAULT_KEYS,
    spend_max: int = 32,
    capacity: float = 10_000.0,
    refill_interval: float = _REFILL_INTERVAL,
) -> dict:
    """Reshard 2→3 with per-key credit fingerprints; account every credit.

    Every key gets a distinct spend (``1 + i % spend_max`` checks), so a
    swapped, dropped, or double-restored bucket shows up as a credit
    mismatch, not just a count mismatch.  Rules have ``refill_rate=0``:
    the before/after credit totals must match exactly, and the measured
    transfer window (reported against ``refill_interval``) is what
    bounds the loss for any refilling rule — loss ≤ rate × window ≤ one
    interval's refill while the window stays under the interval.
    """
    keys = [f"reshard-key-{i}" for i in range(n_keys)]
    rules = {k: QoSRule(k, refill_rate=0.0, capacity=capacity)
             for k in keys}
    config = ServerConfig(
        workers=2, admission=AdmissionConfig(refill_interval=refill_interval))
    servers = [QoSServerDaemon(InMemoryRuleSource(rules), config=config,
                               name=f"fidelity-qos-{i}").start()
               for i in range(2)]
    extra: Optional[QoSServerDaemon] = None
    router = RequestRouterDaemon(
        [s.address for s in servers],
        config=RouterConfig(udp_timeout=0.25, max_retries=3),
        name="fidelity-router").start()
    try:
        coordinator = ReshardCoordinator([router],
                                         [_handle(s) for s in servers])
        spends = {key: 1 + i % spend_max for i, key in enumerate(keys)}
        for key, spend in spends.items():
            for _ in range(spend):
                router.qos_exchange(key)

        def credit_by_key() -> dict:
            credits: dict = {}
            for server in servers + ([extra] if extra else []):
                for snap in server.controller.snapshot():
                    if snap.key in spends:
                        credits[snap.key] = credits.get(snap.key, 0.0) \
                            + snap.credit
            return credits

        before = credit_by_key()
        extra = QoSServerDaemon(InMemoryRuleSource(rules), config=config,
                                name="fidelity-qos-2").start()
        report = coordinator.add_node(_handle(extra))
        after = credit_by_key()
        mismatched = [k for k in spends
                      if abs(before.get(k, -1.0) - after.get(k, -2.0)) > 1e-9]
        loss = sum(before.values()) - sum(after.values())
        return {
            "n_keys": n_keys,
            "keys_moved": report.keys_moved,
            "keys_scanned": report.keys_scanned,
            "chunks": report.chunks,
            "retries": report.retries,
            "window_seconds": round(report.window_seconds, 6),
            "duration_seconds": round(report.duration, 6),
            "keys_per_sec": round(report.keys_moved / report.duration, 1)
            if report.duration > 0 else 0.0,
            "refill_interval": refill_interval,
            "window_under_refill_interval":
                report.window_seconds < refill_interval,
            "credit_before": round(sum(before.values()), 6),
            "credit_after": round(sum(after.values()), 6),
            "credit_loss": round(loss, 6),
            "mismatched_keys": len(mismatched),
            "exact": not mismatched and abs(loss) <= 1e-6,
        }
    finally:
        router.stop()
        for server in servers:
            server.stop()
        if extra is not None:
            extra.stop()


def measure_transfer_window(
    *,
    clients: int = 4,
    n_keys: int = _DEFAULT_KEYS,
    settle_checks: int = 200,
    run_seconds: float = 3.0,
) -> dict:
    """Reshard 2→3→2 under sustained closed-loop traffic.

    ``clients`` threads hammer the full key set through a
    :class:`LocalCluster` router while the cluster adds a node and
    removes it again.  Each observation is stamped, so the report
    separates the steady region from the transfer windows: throughput,
    p50/p99 latency, and the default-reply rate inside vs outside the
    window — the §III-B degradation the plane trades for bounded credit
    loss.
    """
    cluster = LocalCluster(
        n_routers=1, n_qos_servers=2,
        router_config=RouterConfig(udp_timeout=0.25, max_retries=3),
        server_config=ServerConfig(workers=2))
    keys = [f"window-key-{i}" for i in range(n_keys)]
    for key in keys:
        cluster.rules.put_rule(QoSRule(key, refill_rate=1e6, capacity=1e6))
    windows: list = []
    observations: list = [[] for _ in range(clients)]
    stop = threading.Event()
    with cluster:
        router = cluster.routers[0]
        exchange = router.qos_exchange
        for i in range(settle_checks):
            exchange(keys[i % n_keys])

        def run(wid: int) -> None:
            record = observations[wid].append
            i = wid
            while not stop.is_set():
                key = keys[i % n_keys]
                t0 = time.perf_counter()
                response, _ = exchange(key)
                t1 = time.perf_counter()
                record((t0, t1 - t0, response.is_default_reply,
                        response.allowed))
                i += 1

        threads = [threading.Thread(target=run, args=(w,), daemon=True)
                   for w in range(clients)]
        started = time.perf_counter()
        for t in threads:
            t.start()
        time.sleep(run_seconds / 3.0)
        t0 = time.perf_counter()
        add = cluster.reshard_add()
        added_name = cluster.qos_servers[-1].name
        windows.append((t0, time.perf_counter()))
        time.sleep(run_seconds / 3.0)
        t0 = time.perf_counter()
        remove = cluster.reshard_remove(added_name)
        windows.append((t0, time.perf_counter()))
        time.sleep(run_seconds / 3.0)
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        elapsed = time.perf_counter() - started

    def in_window(stamp: float) -> bool:
        return any(start <= stamp <= end for start, end in windows)

    flat = [obs for chunk in observations for obs in chunk]
    steady = [(lat, dflt) for stamp, lat, dflt, _ in flat
              if not in_window(stamp)]
    inside = [(lat, dflt) for stamp, lat, dflt, _ in flat
              if in_window(stamp)]

    def percentile(rows: list, q: float) -> float:
        lats = sorted(lat for lat, _ in rows)
        if not lats:
            return 0.0
        return lats[min(len(lats) - 1, int(q * (len(lats) - 1)))] * 1e3

    def default_rate(rows: list) -> float:
        if not rows:
            return 0.0
        return sum(1 for _, dflt in rows if dflt) / len(rows)

    window_span = sum(end - start for start, end in windows)
    return {
        "clients": clients,
        "n_keys": n_keys,
        "checks": len(flat),
        "elapsed_s": round(elapsed, 3),
        "checks_per_sec": round(len(flat) / elapsed, 1) if elapsed else 0.0,
        "reshards": 2,
        "keys_moved": add.keys_moved + remove.keys_moved,
        "keys_per_sec_migrated": round(
            (add.keys_moved + remove.keys_moved)
            / (add.duration + remove.duration), 1)
        if add.duration + remove.duration > 0 else 0.0,
        "window_seconds_total": round(window_span, 6),
        "steady_checks": len(steady),
        "steady_p50_ms": round(percentile(steady, 0.50), 3),
        "steady_p99_ms": round(percentile(steady, 0.99), 3),
        "steady_default_rate": round(default_rate(steady), 5),
        "window_checks": len(inside),
        "window_p50_ms": round(percentile(inside, 0.50), 3),
        "window_p99_ms": round(percentile(inside, 0.99), 3),
        "window_default_rate": round(default_rate(inside), 5),
        "denied": sum(1 for _, _, _, allowed in flat if not allowed),
    }


def run_reshard_bench(
    *,
    clients: int = 4,
    n_keys: int = _DEFAULT_KEYS,
    run_seconds: float = 3.0,
) -> ReshardBenchReport:
    """The full reshard bench: fidelity accounting plus the loaded window."""
    report = ReshardBenchReport(machine=_machine_info())
    report.fidelity = measure_migration_fidelity(n_keys=n_keys)
    report.window = measure_transfer_window(
        clients=clients, n_keys=n_keys, run_seconds=run_seconds)
    return report
