"""Regression gate for the multi-process QoS plane (PR 6).

Runs the worker-count sweep of :mod:`repro.metrics.multicore` over real
loopback sockets — a :class:`~repro.runtime.procplane.ProcPlaneNode` at
1 worker process (the single-process baseline) and at 2 — and writes
``BENCH_multicore.json`` at the repository root for the performance
trajectory.

Gate: **aggregate decisions/s at 2 workers ≥ 1.5× single-process**, in
port-map fan-in mode (every check routed straight to the owning worker's
port, zero cross-process hops).  The gate is a statement about CPU
scaling, so on hosts exposing a single CPU the sweep still runs and is
recorded — proving the plane *works* there — but the assertion is
skipped: two processes time-slicing one core cannot beat one process,
by construction.

``MULTICORE_CHECKS`` (env) scales the per-client check count down for
smoke runs.  Run directly with ``make bench-multicore``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.metrics.multicore import run_multicore_bench, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The ISSUE-6 acceptance bar.
TARGET_SPEEDUP = 1.5
GATE_WORKERS = 2
#: Cores needed for a multi-process speedup to be physically possible.
MIN_CPUS_FOR_GATE = 2

CHECKS_PER_CLIENT = int(os.environ.get("MULTICORE_CHECKS", "2000"))


@pytest.fixture(scope="module")
def multicore_report():
    report = run_multicore_bench(
        worker_counts=(1, GATE_WORKERS),
        checks_per_client=CHECKS_PER_CLIENT)
    write_report(REPO_ROOT / "BENCH_multicore.json", report)
    return report


def test_multicore_report_written(multicore_report, report_sink):
    r = multicore_report
    lines = ["Multi-process plane: aggregate decisions/s vs worker count"]
    for p in r.points:
        split = "/".join(f"{d:,}" for d in p.worker_decisions)
        lines.append(
            f"  workers={p.n_workers} "
            f"clients={p.clients} keys/call={p.keys_per_call:<3d} "
            f"{p.checks_per_sec:>9,.0f} checks/s  "
            f"defaults={p.default_replies}  shard split: {split}")
    speedup = r.speedup(GATE_WORKERS)
    lines.append(
        f"  speedup @{GATE_WORKERS} workers: {speedup:.2f}x "
        f"(target {TARGET_SPEEDUP}x, gated on >= {MIN_CPUS_FOR_GATE} CPUs)")
    report_sink("\n".join(lines))
    assert (REPO_ROOT / "BENCH_multicore.json").exists()
    # Every configured point ran to completion with real responses.
    assert all(p.checks > 0 and p.checks_per_sec > 0 for p in r.points)
    assert speedup is not None


def test_multicore_no_default_replies(multicore_report):
    """Port-map routing must not manufacture default replies.

    Every check goes straight to the worker owning its shard; a default
    reply here would mean a lost or misrouted frame, not load shedding.
    """
    for p in multicore_report.points:
        assert p.default_replies == 0, (
            f"{p.default_replies} default replies at "
            f"n_workers={p.n_workers} — frames lost or misrouted")


def test_multicore_shard_split(multicore_report):
    """At 2 workers, both processes decided a real share of the load.

    CRC32 over uuid keys lands close to even; a worker with zero
    decisions means the port map routed everything to one process and
    the 'aggregate' number is really a single-process number.
    """
    point = multicore_report.point(GATE_WORKERS)
    assert point is not None
    assert len(point.worker_decisions) == GATE_WORKERS
    total = sum(point.worker_decisions)
    assert total > 0
    for shard, decisions in enumerate(point.worker_decisions):
        assert decisions > total * 0.2, (
            f"worker {shard} made {decisions}/{total} decisions — "
            f"shard routing is not spreading load")


def test_multicore_throughput_gate(multicore_report):
    """Headline: 2 worker processes ≥ 1.5× one process, aggregate."""
    cpus = os.cpu_count() or 1
    speedup = multicore_report.speedup(GATE_WORKERS)
    if cpus < MIN_CPUS_FOR_GATE:
        pytest.skip(
            f"host exposes {cpus} CPU(s) < {MIN_CPUS_FOR_GATE}; "
            f"throughput recorded ({speedup:.2f}x) but {GATE_WORKERS} "
            f"processes on one core cannot beat one process")
    assert speedup >= TARGET_SPEEDUP, (
        f"{GATE_WORKERS} workers only {speedup:.2f}x single-process "
        f"aggregate decisions/s (target {TARGET_SPEEDUP}x)")
