"""Multi-process A/B harness: aggregate decisions/s vs worker count.

Every prior perf PR optimized inside one GIL-bound process; this harness
measures the thing those optimizations could never buy — CPU scaling.
It boots a :class:`~repro.runtime.procplane.ProcPlaneNode` at each
worker count in the sweep (``n_workers=1`` is the single-process
baseline: same supervisor, same wire path, one shard), drives it with
closed-loop client threads over the same multiplexed
:class:`~repro.runtime.udp_channel.ChannelSet` the router uses, and
reports aggregate admission throughput per worker count.

Routing mirrors the router: each key's backend is
``backends[crc32_router(key, n)]``, so every check lands directly on the
worker process owning its shard — the hop-free hot path the gate is a
statement about.

``benchmarks/test_multicore_regression.py`` turns this into the
``BENCH_multicore.json`` gate (≥ 1.5x single-process at 2+ workers,
core-guarded: on a 1-CPU host the numbers are recorded but the
assertion is skipped — N processes time-slicing one core cannot beat
one process).  ``make bench-multicore`` / ``janus bench-multicore`` run
it from the command line.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from repro.core.config import RouterConfig, ServerConfig
from repro.core.hashing import crc32_router
from repro.core.rules import QoSRule
from repro.metrics.wirepath import (
    _BENCH_UDP_TIMEOUT,
    _HOT_RULE_CAPACITY,
    _HOT_RULE_RATE,
    _machine_info,
    write_report,
)
from repro.runtime.procplane import ProcPlaneNode
from repro.runtime.udp_channel import ChannelSet
from repro.workload.keygen import uuid_keys

__all__ = [
    "MulticorePoint",
    "MulticoreReport",
    "measure_multicore",
    "run_multicore_bench",
    "write_report",
]


@dataclass(frozen=True, slots=True)
class MulticorePoint:
    """One measured worker-count configuration."""

    n_workers: int
    clients: int
    keys_per_call: int
    checks: int
    elapsed_s: float
    checks_per_sec: float
    default_replies: int
    #: Decisions per worker process, in shard order — how even the CRC32
    #: key split landed.
    worker_decisions: "tuple[int, ...]" = ()


@dataclass(slots=True)
class MulticoreReport:
    """A worker-count sweep plus speedups over the single-process point."""

    points: list = field(default_factory=list)
    machine: dict = field(default_factory=dict)

    def point(self, n_workers: int) -> Optional[MulticorePoint]:
        for p in self.points:
            if p.n_workers == n_workers:
                return p
        return None

    def speedup(self, n_workers: int) -> Optional[float]:
        """Aggregate decisions/s at ``n_workers`` over the 1-worker run."""
        base = self.point(1)
        target = self.point(n_workers)
        if base is None or target is None or base.checks_per_sec <= 0:
            return None
        return target.checks_per_sec / base.checks_per_sec

    def best_speedup(self) -> Optional[float]:
        """The best multi-worker speedup in the sweep (the gate value)."""
        ratios = [self.speedup(p.n_workers) for p in self.points
                  if p.n_workers > 1]
        ratios = [r for r in ratios if r is not None]
        return max(ratios) if ratios else None

    def as_dict(self) -> dict:
        speedups = {}
        for p in self.points:
            if p.n_workers > 1:
                ratio = self.speedup(p.n_workers)
                if ratio is not None:
                    speedups[f"workers{p.n_workers}"] = round(ratio, 3)
        return {
            "machine": self.machine,
            "points": [asdict(p) for p in self.points],
            "speedup_over_single_process": speedups,
        }


def measure_multicore(
    *,
    n_workers: int = 2,
    clients: int = 4,
    checks_per_client: int = 2_000,
    keys_per_call: int = 32,
    batch_size: int = 64,
    # One decode/decide thread per worker *process*: parallelism comes
    # from processes here, extra GIL-bound threads only add handoffs.
    server_workers: int = 1,
    server_batch: int = 64,
    n_keys: int = 256,
    seed: int = 88,
    warmup_per_client: int = 50,
    switch_interval: Optional[float] = 0.0005,
) -> MulticorePoint:
    """Aggregate throughput of one node at ``n_workers`` processes.

    Boots the node, then hammers it from ``clients`` closed-loop threads
    through one shared :class:`ChannelSet` — ``keys_per_call`` checks
    per ``exchange_many`` call, each check routed to its owning worker's
    port by ``crc32_router``.  ``checks_per_client`` counts keys, so
    throughput is comparable across worker counts.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    keys = uuid_keys(n_keys, seed=seed)
    rules = tuple(QoSRule(k, refill_rate=_HOT_RULE_RATE,
                          capacity=_HOT_RULE_CAPACITY) for k in keys)
    node = ProcPlaneNode(
        rules,
        config=ServerConfig(workers=server_workers, batch_size=server_batch,
                            processes=n_workers),
        name="mc-node")
    channel_config = RouterConfig(
        udp_timeout=_BENCH_UDP_TIMEOUT, max_retries=3,
        batch_size=batch_size)
    with node:
        backends = node.backend_addresses()
        n_backends = len(backends)
        channels = ChannelSet(backends, channel_config)
        channels.start()
        try:
            route = (backends.__getitem__ if n_backends > 1
                     else lambda _i: backends[0])
            for k in keys[:min(n_keys, 64)]:        # warm tables + sockets
                channels.exchange(
                    route(crc32_router(k, n_backends)), k, 1.0)
            start = threading.Barrier(clients + 1)
            done = threading.Barrier(clients + 1)
            defaults = [0] * clients

            def run(wid: int) -> None:
                local = keys[wid::clients] or keys
                n = len(local)
                calls = -(-checks_per_client // keys_per_call)  # ceil div
                chunks = []
                j = wid                         # desynchronize key reuse
                for _ in range(calls):
                    chunk = [
                        (route(crc32_router(local[(j + o) % n], n_backends)),
                         local[(j + o) % n], 1.0)
                        for o in range(keys_per_call)
                    ]
                    chunks.append(chunk)
                    j += keys_per_call
                for i in range(warmup_per_client):
                    channels.exchange(
                        route(crc32_router(local[i % n], n_backends)),
                        local[i % n], 1.0)
                start.wait()
                for chunk in chunks:
                    results = channels.exchange_many(chunk)
                    defaults[wid] += sum(1 for response, _ in results
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
        finally:
            channels.stop()
        worker_decisions = tuple(
            stats.get("decisions", 0) for stats in node.worker_stats())
    total = (clients * -(-checks_per_client // keys_per_call)
             * keys_per_call)
    return MulticorePoint(
        n_workers=n_workers,
        clients=clients,
        keys_per_call=keys_per_call,
        checks=total,
        elapsed_s=elapsed,
        checks_per_sec=total / elapsed if elapsed > 0 else 0.0,
        default_replies=sum(defaults),
        worker_decisions=worker_decisions,
    )


def run_multicore_bench(
    worker_counts: Sequence[int] = (1, 2),
    *,
    clients: int = 4,
    checks_per_client: int = 2_000,
    keys_per_call: int = 32,
    repeats: int = 2,
    n_keys: int = 256,
    seed: int = 88,
    switch_interval: Optional[float] = 0.0005,
) -> MulticoreReport:
    """Sweep worker counts, interleaved best-of-``repeats``.

    Repeats are interleaved across the sweep (1, 2, ..., 1, 2, ...)
    rather than run back to back per count, so a transient host
    disturbance cannot land entirely on one worker count; each count
    keeps its highest-throughput run, applied identically to every
    count so the comparison stays unbiased.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if not worker_counts:
        raise ValueError("worker_counts must not be empty")
    report = MulticoreReport(machine=_machine_info(switch_interval))
    report.machine["sched_cpus"] = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count())
    best: "dict[int, MulticorePoint]" = {}
    for _ in range(repeats):
        for n in worker_counts:
            point = measure_multicore(
                n_workers=n, clients=clients,
                checks_per_client=checks_per_client,
                keys_per_call=keys_per_call, n_keys=n_keys, seed=seed,
                switch_interval=switch_interval)
            if n not in best or point.checks_per_sec > best[n].checks_per_sec:
                best[n] = point
    report.points = [best[n] for n in sorted(best)]
    return report
