"""``janus`` command-line interface.

A small operational surface over the real-socket runtime:

- ``janus rules init|add|remove|list`` — maintain a JSON rules file (the
  provider's plan catalog);
- ``janus serve --rules rules.json`` — boot a LocalCluster from the file
  and print its endpoint (Ctrl-C to stop);
- ``janus check --endpoint URL KEY`` — one admission check against a
  running deployment (exit code 0 admit / 1 deny);
- ``janus loadtest --endpoint URL -n 2000 -c 8`` — ab-style load test;
- ``janus stats --endpoint URL`` — dump a router's ``/stats``;
- ``janus obs top|dump|trace`` — the observability plane: a metrics
  snapshot from ``/metrics``, the flight-recorder ring from ``/flight``,
  and one trace's span tree from ``/trace/<id>``;
- ``janus lint [paths]`` — the janus-lint static-analysis suite
  (concurrency and protocol contracts, ``docs/ANALYSIS.md``), plus
  ``--runtime-report`` for the lock-order race detector's output;
- ``janus experiments ...`` — alias for the reproduction runner.

Installed as the ``janus-experiments`` (runner) and usable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Iterable, Optional

from repro.core.errors import JanusError
from repro.core.rules import QoSRule

__all__ = ["main", "load_rules_file", "save_rules_file"]


# --------------------------------------------------------------------- #
# rules file handling
# --------------------------------------------------------------------- #

def load_rules_file(path: Path) -> list[QoSRule]:
    """Read a JSON rules file: a list of {key, refill_rate, capacity}."""
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise JanusError(f"rules file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise JanusError(f"rules file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise JanusError(f"rules file {path} must contain a JSON list")
    rules = []
    for i, row in enumerate(payload):
        try:
            rules.append(QoSRule(
                key=row["key"],
                refill_rate=float(row["refill_rate"]),
                capacity=float(row["capacity"]),
                credit=(float(row["credit"])
                        if row.get("credit") is not None else None)))
        except (KeyError, TypeError, ValueError, JanusError) as exc:
            raise JanusError(f"rules file entry #{i} invalid: {exc}") from exc
    return rules


def save_rules_file(path: Path, rules: Iterable[QoSRule]) -> None:
    payload = [
        {"key": r.key, "refill_rate": r.refill_rate, "capacity": r.capacity,
         **({"credit": r.credit} if r.credit is not None else {})}
        for r in rules
    ]
    path.write_text(json.dumps(payload, indent=2) + "\n")


# --------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------- #

def _cmd_rules(args: argparse.Namespace) -> int:
    path = Path(args.file)
    if args.rules_action == "init":
        if path.exists() and not args.force:
            print(f"refusing to overwrite {path} (use --force)",
                  file=sys.stderr)
            return 1
        save_rules_file(path, [])
        print(f"created empty rules file {path}")
        return 0
    rules = {r.key: r for r in load_rules_file(path)}
    if args.rules_action == "add":
        rules[args.key] = QoSRule(args.key, refill_rate=args.rate,
                                  capacity=args.capacity)
        save_rules_file(path, rules.values())
        print(f"{args.key}: rate={args.rate}/s capacity={args.capacity}")
        return 0
    if args.rules_action == "remove":
        if rules.pop(args.key, None) is None:
            print(f"no rule for {args.key!r}", file=sys.stderr)
            return 1
        save_rules_file(path, rules.values())
        print(f"removed {args.key}")
        return 0
    # list
    for rule in rules.values():
        print(f"{rule.key}\trate={rule.refill_rate}/s "
              f"capacity={rule.capacity}"
              + (f" credit={rule.credit}" if rule.credit is not None else ""))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.config import RouterConfig, ServerConfig
    from repro.runtime.cluster import LocalCluster

    router_config = None
    if args.trace_rate is not None or args.lease:
        if args.trace_rate is not None and not 0.0 <= args.trace_rate <= 1.0:
            print("error: --trace-rate must be in [0, 1]", file=sys.stderr)
            return 2
        router_config = RouterConfig(
            udp_timeout=0.05, max_retries=5,
            trace_sample_rate=args.trace_rate or 0.0,
            lease_enabled=args.lease)
    server_config = None
    if args.qos_processes != 1:
        if args.qos_processes < 1:
            print("error: --qos-processes must be >= 1", file=sys.stderr)
            return 2
        server_config = ServerConfig(workers=4,
                                     processes=args.qos_processes)
    cluster = LocalCluster(n_routers=args.routers,
                           n_qos_servers=args.qos_servers,
                           router_config=router_config,
                           server_config=server_config)
    for rule in load_rules_file(Path(args.rules)):
        cluster.rules.put_rule(rule)
    cluster.start()
    per_node = (f" x {args.qos_processes} worker processes"
                if args.qos_processes > 1 else "")
    print(f"Janus serving at {cluster.endpoint} "
          f"({args.routers} routers, {args.qos_servers} QoS servers"
          f"{per_node}, {cluster.rules.count()} rules)")
    stop = {"flag": False}

    def handler(signum, frame):
        stop["flag"] = True

    signal.signal(signal.SIGINT, handler)
    signal.signal(signal.SIGTERM, handler)
    try:
        while not stop["flag"]:
            if args.max_seconds is not None and args.max_seconds <= 0:
                break
            time.sleep(0.2)
            if args.max_seconds is not None:
                args.max_seconds -= 0.2
    finally:
        cluster.stop()
        print("stopped")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.runtime.client import QoSClient

    client = QoSClient(args.endpoint, fail_open=False)
    result = client.check_detailed(args.key, cost=args.cost)
    verdict = "ALLOW" if result.allowed else "DENY"
    origin = " (default reply)" if result.is_default_reply else ""
    print(f"{verdict}{origin} key={args.key} "
          f"latency={result.latency * 1e3:.2f}ms attempts={result.attempts}")
    return 0 if result.allowed else 1


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.workload.ab import run_ab
    from repro.workload.keygen import uuid_keys

    if args.keys > 0:
        keys = uuid_keys(args.keys, seed=args.seed)

        def keygen(worker: int, i: int) -> str:
            return keys[(worker * 131 + i) % len(keys)]
    else:
        def keygen(worker: int, i: int) -> str:
            return args.key

    result = run_ab(args.endpoint, keygen,
                    n_requests=args.requests, concurrency=args.concurrency)
    summary = result.latency.as_milliseconds()
    print(f"requests:   {result.requests} in {result.duration:.2f}s "
          f"({result.throughput:.0f} rps)")
    print(f"verdicts:   {result.allowed} allowed, {result.denied} denied, "
          f"{result.default_replies} default replies, "
          f"{result.transport_errors} transport errors")
    print(f"latency ms: mean={summary['mean_ms']:.2f} "
          f"p50={summary['p50_ms']:.2f} p90={summary['p90_ms']:.2f} "
          f"p99={summary['p99_ms']:.2f}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with urllib.request.urlopen(f"{args.endpoint}/stats", timeout=5.0) as r:
        print(json.dumps(json.loads(r.read()), indent=2))
    return 0


def _fetch(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.read()


def _cmd_obs(args: argparse.Namespace) -> int:
    endpoint = args.endpoint.rstrip("/")
    if args.obs_action == "top":
        health = json.loads(_fetch(f"{endpoint}/healthz"))
        # A load balancer's /healthz is terser than a router's; print
        # only the fields the endpoint actually reported.
        fields = [("status", "status"), ("backends", "backends"),
                  ("requests", "requests_handled")]
        summary = " ".join(f"{label}={health[key]}"
                           for label, key in fields if key in health)
        print(f"{health.get('name', '?')}: {summary}")
        channel = health.get("channel")
        if channel:
            print("channel:    "
                  + " ".join(f"{k}={v}" for k, v in channel.items()))
        samples = []
        for line in _fetch(f"{endpoint}/metrics").decode().splitlines():
            if line and not line.startswith("#"):
                name_part, _, value = line.rpartition(" ")
                # Histogram bucket series dominate line count but not
                # insight; `top` keeps totals and drops the buckets.
                if "_bucket{" not in name_part and "_bucket " not in name_part:
                    samples.append((name_part, value))
        width = max((len(name) for name, _ in samples), default=0)
        for name, value in sorted(samples):
            print(f"{name:<{width}}  {value}")
        return 0
    if args.obs_action == "dump":
        flight = json.loads(_fetch(f"{endpoint}/flight"))
        entries = flight.get("entries", [])
        print(f"# flight recorder: {len(entries)} of "
              f"{flight.get('recorded', 0)} recorded", file=sys.stderr)
        for entry in entries:
            print(json.dumps(entry, sort_keys=True))
        return 0
    # trace
    try:
        body = _fetch(f"{endpoint}/trace/{args.trace_id}")
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            print(f"unknown trace {args.trace_id}", file=sys.stderr)
            return 1
        raise
    trace = json.loads(body)
    spans = trace.get("spans", [])
    print(f"trace {trace.get('trace_id')}: {len(spans)} spans")
    base_ns = min((s["start_ns"] for s in spans), default=0)
    for span in spans:
        offset_us = (span["start_ns"] - base_ns) / 1e3
        attrs = " ".join(f"{k}={v}" for k, v in span.get("attrs", {}).items())
        print(f"  +{offset_us:>10.1f}us {span['layer']:<12} "
              f"{span['name']:<18} {span['duration_us']:>10.1f}us"
              + (f"  {attrs}" if attrs else ""))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint_command

    return run_lint_command(args)


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as runner_main
    argv = list(args.names)
    if args.jobs is not None:
        argv = ["--jobs", str(args.jobs), *argv]
    return runner_main(argv)


def _cmd_bench_simkernel(args: argparse.Namespace) -> int:
    from repro.metrics.simkernel import (
        run_kernel_bench,
        run_sweep_bench,
        write_report,
    )

    if args.hops < 1 or args.processes < 1 or args.repeats < 1:
        print("error: --hops, --processes and --repeats must be >= 1",
              file=sys.stderr)
        return 2
    report = run_kernel_bench(n_processes=args.processes, hops=args.hops,
                              repeats=args.repeats)
    print(f"kernel events/sec: seed {report.seed.events_per_sec:,.0f}  "
          f"fast {report.fast.events_per_sec:,.0f}  "
          f"speedup {report.kernel_speedup:.2f}x")
    if not args.no_sweep:
        report = run_sweep_bench(report, jobs=args.jobs)
        print(f"quick sweep wall-clock: serial {report.sweep_serial_s:.2f}s  "
              f"--jobs {report.sweep_jobs} {report.sweep_parallel_s:.2f}s  "
              f"speedup {report.sweep_speedup:.2f}x "
              f"({report.cpus} CPUs visible)")
    write_report(args.out, report)
    print(f"wrote {args.out}")
    return 0


def _cmd_bench_multicore(args: argparse.Namespace) -> int:
    from repro.metrics.multicore import run_multicore_bench, write_report

    if args.checks < 1 or args.clients < 1 or args.repeats < 1 \
            or args.keys_per_call < 1:
        print("error: --checks, --clients, --keys-per-call and --repeats "
              "must be >= 1", file=sys.stderr)
        return 2
    if any(w < 1 for w in args.workers):
        print("error: --workers values must be >= 1", file=sys.stderr)
        return 2
    report = run_multicore_bench(
        worker_counts=tuple(args.workers),
        clients=args.clients,
        checks_per_client=args.checks,
        keys_per_call=args.keys_per_call,
        repeats=args.repeats)
    header = f"{'workers':>8} {'clients':>8} " \
             f"{'keys/call':>10} {'checks/s':>12} {'defaults':>9}"
    print(header)
    print("-" * len(header))
    for p in report.points:
        print(f"{p.n_workers:>8} {p.clients:>8} "
              f"{p.keys_per_call:>10} {p.checks_per_sec:>12,.0f} "
              f"{p.default_replies:>9}")
    for p in report.points:
        if p.n_workers > 1:
            ratio = report.speedup(p.n_workers)
            if ratio is not None:
                print(f"speedup @{p.n_workers} workers: {ratio:.2f}x")
    write_report(args.out, report)
    print(f"wrote {args.out}")
    return 0


def _cmd_bench_obs(args: argparse.Namespace) -> int:
    from repro.metrics.wirepath import (DEFAULT_SAMPLE_RATE, run_obs_ab,
                                        write_report)

    if args.checks < 1 or args.clients < 1 or args.repeats < 1:
        print("error: --checks, --clients and --repeats must be >= 1",
              file=sys.stderr)
        return 2
    trace_rate = (DEFAULT_SAMPLE_RATE if args.trace_rate is None
                  else args.trace_rate)
    if not 0.0 < trace_rate <= 1.0:
        print("error: --trace-rate must be in (0, 1]", file=sys.stderr)
        return 2
    report = run_obs_ab(
        trace_rate=trace_rate,
        clients=args.clients,
        checks_per_client=args.checks,
        repeats=args.repeats)
    header = f"{'arm':>10} {'surface':>8} {'rate':>8} " \
             f"{'checks/s':>12} {'p50 ms':>8} {'p99 ms':>8}"
    print(header)
    print("-" * len(header))
    for p in report.points:
        arm = "traced" if p.trace_rate > 0 else "untraced"
        print(f"{arm:>10} {p.surface:>8} {p.trace_rate:>8.4f} "
              f"{p.checks_per_sec:>12,.0f} {p.p50_ms:>8.3f} "
              f"{p.p99_ms:>8.3f}")
    throughput = report.throughput_overhead()
    if throughput is not None:
        print(f"throughput overhead: {throughput * 100.0:+.1f}%")
    idle = report.idle_p99_overhead()
    if idle is not None:
        print(f"idle p99 overhead: {idle * 100.0:+.1f}%")
    write_report(args.out, report)
    print(f"wrote {args.out}")
    return 0


def _cmd_bench_lease(args: argparse.Namespace) -> int:
    from repro.metrics.leasepath import run_lease_ab, write_report

    if args.checks < 1 or args.clients < 1 or args.repeats < 1:
        print("error: --checks, --clients and --repeats must be >= 1",
              file=sys.stderr)
        return 2
    report = run_lease_ab(
        clients=args.clients,
        checks_per_client=args.checks,
        repeats=args.repeats)
    header = f"{'arm':>7} {'clients':>8} {'checks/s':>12} " \
             f"{'p50 ms':>8} {'p99 ms':>8} {'local':>8} {'asks':>6}"
    print(header)
    print("-" * len(header))
    for p in report.points:
        print(f"{p.arm:>7} {p.clients:>8} {p.checks_per_sec:>12,.0f} "
              f"{p.p50_ms:>8.3f} {p.p99_ms:>8.3f} "
              f"{p.local_admits:>8} {p.lease_requests:>6}")
    speedup = report.speedup()
    if speedup is not None:
        print(f"lease over wire: {speedup:.2f}x")
    over = report.overadmission
    if over:
        print(f"over-admission: allowed={over['allowed_total']} "
              f"bound={over['admitted_bound']} "
              f"outstanding<= {over['outstanding_bound']} "
              f"within={over['within_bound']}")
    idle = report.idle_p99_overhead()
    if idle is not None:
        print(f"idle p99 overhead: {idle * 100.0:+.1f}%")
    write_report(args.out, report)
    print(f"wrote {args.out}")
    return 0


def _cmd_reshard(args: argparse.Namespace) -> int:
    """Drive a live reshard through a router's ``/topology`` endpoint."""
    endpoint = args.endpoint.rstrip("/")
    if args.reshard_action == "status":
        print(json.dumps(json.loads(_fetch(f"{endpoint}/topology")),
                         indent=2, sort_keys=True))
        return 0
    payload: dict = {"action": args.reshard_action}
    if args.reshard_action == "remove":
        payload["node"] = args.node
        payload["dead"] = args.dead
    request = urllib.request.Request(
        f"{endpoint}/topology", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=60.0) as response:
            print(json.dumps(json.loads(response.read()),
                             indent=2, sort_keys=True))
    except urllib.error.HTTPError as exc:
        body = exc.read().decode(errors="replace")
        try:
            message = json.loads(body).get("error", body)
        except ValueError:
            message = body
        print(f"reshard {args.reshard_action} failed ({exc.code}): "
              f"{message}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench_reshard(args: argparse.Namespace) -> int:
    from repro.metrics.reshardpath import run_reshard_bench, write_report

    if args.clients < 1 or args.keys < 1 or args.seconds <= 0:
        print("error: --clients and --keys must be >= 1, --seconds > 0",
              file=sys.stderr)
        return 2
    report = run_reshard_bench(
        clients=args.clients, n_keys=args.keys, run_seconds=args.seconds)
    f, w = report.fidelity, report.window
    print(f"fidelity: moved {f['keys_moved']}/{f['keys_scanned']} keys in "
          f"{f['window_seconds'] * 1e3:.1f}ms "
          f"({f['keys_per_sec']:,.0f} keys/s, {f['chunks']} chunks, "
          f"{f['retries']} retries)")
    print(f"          credit loss {f['credit_loss']} over "
          f"{f['mismatched_keys']} mismatched keys; exact={f['exact']}")
    print(f"window:   {w['checks']} checks @ {w['checks_per_sec']:,.0f}/s; "
          f"{w['keys_moved']} keys migrated @ "
          f"{w['keys_per_sec_migrated']:,.0f} keys/s")
    print(f"          steady p99={w['steady_p99_ms']:.3f}ms "
          f"default rate {w['steady_default_rate'] * 100.0:.2f}%")
    print(f"          in-window p99={w['window_p99_ms']:.3f}ms "
          f"default rate {w['window_default_rate'] * 100.0:.2f}% "
          f"denied={w['denied']}")
    write_report(args.out, report)
    print(f"wrote {args.out}")
    return 0


# --------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="janus", description="Janus QoS framework (reproduction) CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    rules = sub.add_parser("rules", help="maintain a JSON rules file")
    rules.add_argument("--file", "-f", default="qos_rules.json")
    rules_sub = rules.add_subparsers(dest="rules_action", required=True)
    init = rules_sub.add_parser("init")
    init.add_argument("--force", action="store_true")
    add = rules_sub.add_parser("add")
    add.add_argument("key")
    add.add_argument("--rate", type=float, required=True,
                     help="purchased requests/second (refill rate)")
    add.add_argument("--capacity", type=float, required=True,
                     help="burst capacity (bucket size)")
    remove = rules_sub.add_parser("remove")
    remove.add_argument("key")
    rules_sub.add_parser("list")
    rules.set_defaults(func=_cmd_rules)

    serve = sub.add_parser("serve", help="boot a LocalCluster")
    serve.add_argument("--rules", required=True)
    serve.add_argument("--routers", type=int, default=2)
    serve.add_argument("--qos-servers", type=int, default=2)
    serve.add_argument("--qos-processes", type=int, default=1,
                       help="worker processes per QoS node (>1 boots the "
                            "multi-process shard plane)")
    serve.add_argument("--trace-rate", type=float, default=None,
                       help="router head-sampling rate for requests that "
                            "arrive untraced (0..1; default off)")
    serve.add_argument("--lease", action="store_true",
                       help="enable the credit-lease plane: routers admit "
                            "hot keys locally from leased bucket credit")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help=argparse.SUPPRESS)       # test hook
    serve.set_defaults(func=_cmd_serve)

    check = sub.add_parser("check", help="one admission check")
    check.add_argument("key")
    check.add_argument("--endpoint", required=True)
    check.add_argument("--cost", type=float, default=1.0)
    check.set_defaults(func=_cmd_check)

    loadtest = sub.add_parser("loadtest",
                              help="ab-style load test against a deployment")
    loadtest.add_argument("--endpoint", required=True)
    loadtest.add_argument("--requests", "-n", type=int, default=1_000)
    loadtest.add_argument("--concurrency", "-c", type=int, default=4)
    loadtest.add_argument("--keys", type=int, default=64,
                          help="size of the random key population "
                               "(0 = use --key for every request)")
    loadtest.add_argument("--key", default="loadtest-key")
    loadtest.add_argument("--seed", type=int, default=1)
    loadtest.set_defaults(func=_cmd_loadtest)

    stats = sub.add_parser("stats", help="dump a router's /stats")
    stats.add_argument("--endpoint", required=True,
                       help="a router URL (not the LB)")
    stats.set_defaults(func=_cmd_stats)

    obs = sub.add_parser("obs", help="observability plane queries")
    obs_sub = obs.add_subparsers(dest="obs_action", required=True)
    obs_top = obs_sub.add_parser(
        "top", help="health + non-bucket metric samples from /metrics")
    obs_top.add_argument("--endpoint", required=True,
                         help="a router URL (not the LB)")
    obs_dump = obs_sub.add_parser(
        "dump", help="flight-recorder ring from /flight, as JSON lines")
    obs_dump.add_argument("--endpoint", required=True,
                          help="a router URL (not the LB)")
    obs_trace = obs_sub.add_parser(
        "trace", help="span tree of one trace from /trace/<id>")
    obs_trace.add_argument("trace_id", help="16-hex trace id")
    obs_trace.add_argument("--endpoint", required=True,
                           help="a router URL (not the LB)")
    obs.set_defaults(func=_cmd_obs)

    lint = sub.add_parser(
        "lint", help="janus-lint static analysis (see docs/ANALYSIS.md)")
    from repro.analysis.cli import add_lint_arguments
    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    experiments = sub.add_parser("experiments",
                                 help="regenerate the paper's evaluation")
    experiments.add_argument("names", nargs="*")
    experiments.add_argument("--jobs", "-j", type=int, default=None,
                             metavar="N",
                             help="worker processes for the simulator "
                                  "sweeps (default: serial)")
    experiments.set_defaults(func=_cmd_experiments)

    bench_sim = sub.add_parser(
        "bench-simkernel",
        help="measure DES events/s (fast vs seed kernel) and the "
             "parallel-sweep wall-clock")
    bench_sim.add_argument("--out", default="BENCH_simkernel.json")
    bench_sim.add_argument("--processes", type=int, default=64,
                           help="microbench fleet size")
    bench_sim.add_argument("--hops", type=int, default=300,
                           help="request hops per microbench process")
    bench_sim.add_argument("--repeats", type=int, default=5,
                           help="interleaved rounds per kernel (best-of)")
    bench_sim.add_argument("--jobs", type=int, default=4,
                           help="worker processes for the sweep half")
    bench_sim.add_argument("--no-sweep", action="store_true",
                           help="skip the sweep half (kernel bench only)")
    bench_sim.set_defaults(func=_cmd_bench_simkernel)

    bench_mc = sub.add_parser(
        "bench-multicore",
        help="multi-process plane A/B: aggregate decisions/s vs "
             "worker-process count")
    bench_mc.add_argument("--out", default="BENCH_multicore.json")
    bench_mc.add_argument("--workers", type=int, nargs="+", default=[1, 2],
                          help="worker-process counts to sweep "
                               "(1 = single-process baseline)")
    bench_mc.add_argument("--clients", type=int, default=4,
                          help="closed-loop client threads")
    bench_mc.add_argument("--checks", type=int, default=2_000,
                          help="admission checks per client thread")
    bench_mc.add_argument("--keys-per-call", type=int, default=32,
                          help="keys per batched exchange call")
    bench_mc.add_argument("--repeats", type=int, default=2,
                          help="interleaved runs per point (best kept)")
    bench_mc.set_defaults(func=_cmd_bench_multicore)

    bench_obs = sub.add_parser(
        "bench-obs",
        help="traced vs untraced observability-overhead A/B benchmark")
    bench_obs.add_argument("--out", default="BENCH_obs.json")
    bench_obs.add_argument("--trace-rate", type=float,
                           default=None,
                           help="head-sampling rate of the traced arm "
                                "(default: 1/64)")
    bench_obs.add_argument("--clients", type=int, default=4,
                           help="closed-loop client threads (wire surface)")
    bench_obs.add_argument("--checks", type=int, default=2_000,
                           help="admission checks per client thread")
    bench_obs.add_argument("--repeats", type=int, default=2,
                           help="runs per arm (best kept)")
    bench_obs.set_defaults(func=_cmd_bench_obs)

    bench_lease = sub.add_parser(
        "bench-lease",
        help="credit-lease local admission vs channel wire path A/B")
    bench_lease.add_argument("--out", default="BENCH_lease.json")
    bench_lease.add_argument("--clients", type=int, default=8,
                             help="closed-loop client threads (hot-key "
                                  "workload)")
    bench_lease.add_argument("--checks", type=int, default=2_000,
                             help="admission checks per client thread")
    bench_lease.add_argument("--repeats", type=int, default=2,
                             help="runs per arm (best kept)")
    bench_lease.set_defaults(func=_cmd_bench_lease)

    reshard = sub.add_parser(
        "reshard",
        help="live reshard: add/remove a QoS node via a router")
    reshard_sub = reshard.add_subparsers(dest="reshard_action",
                                         required=True)
    reshard_add = reshard_sub.add_parser(
        "add", help="boot one more QoS node and migrate keys to it")
    reshard_add.add_argument("--endpoint", default="http://127.0.0.1:7080",
                             help="router base URL")
    reshard_rm = reshard_sub.add_parser(
        "remove", help="drain a QoS node out of the cluster")
    reshard_rm.add_argument("node", help="node name (see reshard status)")
    reshard_rm.add_argument("--dead", action="store_true",
                            help="node already crashed: skip the drain, "
                                 "absorb its keys cold")
    reshard_rm.add_argument("--endpoint", default="http://127.0.0.1:7080",
                            help="router base URL")
    reshard_st = reshard_sub.add_parser(
        "status", help="committed topology (epoch, backends, nodes)")
    reshard_st.add_argument("--endpoint", default="http://127.0.0.1:7080",
                            help="router base URL")
    reshard.set_defaults(func=_cmd_reshard)

    bench_reshard = sub.add_parser(
        "bench-reshard",
        help="reshard bench: migration fidelity + loaded transfer window")
    bench_reshard.add_argument("--out", default="BENCH_reshard.json")
    bench_reshard.add_argument("--clients", type=int, default=4,
                               help="closed-loop client threads "
                                    "(default 4)")
    bench_reshard.add_argument("--keys", type=int, default=96,
                               help="keys in the migrated rule set "
                                    "(default 96)")
    bench_reshard.add_argument("--seconds", type=float, default=3.0,
                               help="loaded-window run duration "
                                    "(default 3.0)")
    bench_reshard.set_defaults(func=_cmd_bench_reshard)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except JanusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that exited; the Unix-polite
        # response is silence, not a traceback.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
