"""Command line of the benchmark; see the package docstring."""

import time

_PROCESS_START = time.perf_counter()     # before ``repro`` is imported

import argparse                                             # noqa: E402
import json                                                 # noqa: E402
import os                                                   # noqa: E402
import subprocess                                           # noqa: E402
import sys                                                  # noqa: E402

from bench_e2e import CONTRACT_WINDOW_S, WARMUP_S           # noqa: E402
from bench_e2e.env import (                                 # noqa: E402
    REPO_ROOT,
    environment,
    pin_to_one_cpu,
)
from bench_e2e.workloads import WORKLOADS                   # noqa: E402


def _use_checkout_source() -> bool:
    """Measure this checkout's ``src``, never an installed copy."""
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"bench_e2e: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")


def _run_one(args) -> int:
    pin_to_one_cpu()        # before any thread of the program exists
    from bench_e2e import runner
    import_s = time.perf_counter() - _PROCESS_START
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup = runner.timed_setup(workload, args.seed, args.seconds,
                                   import_s)
        print(json.dumps(setup.times()), flush=True)
        # The probe exists to be timed; an orderly cluster.stop() costs
        # ~1 s of poll intervals per probe, the OS reclaims the same
        # sockets and daemon threads at once.
        os._exit(0)
    record = runner.run_workload(workload, args.seed, args.seconds,
                                 bool(args.trace), import_s)
    print(f"== {workload.name}: attempted {record['attempted']} "
          f"ok {record['ok']} failed {record['failed']} "
          f"({record['latency_samples']} latency samples, "
          f"{record['window_s_measured']:.3f} s window)")
    _print_metrics("end to end", record["end_to_end"])
    _print_metrics("per layer", record["per_layer"])
    for line in record["violations"][:50]:
        print(f"VERDICT VIOLATION {line}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer" if args.trace else "end_to_end"],
    }))
    return 0 if record["correct"] else 1


def _run_suite(args) -> int:
    """Every workload in the fixed order, each in its own process (thread
    pools and the LB's TIME_WAIT backlog leak between them otherwise)."""
    from bench_e2e.runner import OUT_DIR
    runs = {name: [] for name in WORKLOADS}
    status = 0
    for repeat in range(args.repeat):
        for name in WORKLOADS:
            done = subprocess.run(
                [sys.executable, "-m", "bench_e2e", "--workload", name,
                 "--seed", str(args.seed + repeat),
                 "--seconds", repr(args.seconds), "--trace", "1"],
                cwd=REPO_ROOT)
            if done.returncode != 0:
                status = 1
                continue
            runs[name].append(
                json.loads((OUT_DIR / f"run_{name}.json").read_text()))
    result = {
        "env": environment(seed=args.seed, window_s=args.seconds,
                           warmup_s=WARMUP_S),
        "non_contract": args.seconds != CONTRACT_WINDOW_S,
        "runs": runs,
    }
    path = OUT_DIR / "result.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench_e2e",
                                     description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload only, in this process "
                             "(default: all four, each in a child process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", "--window", type=float,
                        default=CONTRACT_WINDOW_S,
                        help="measured window; not the contract value "
                             "stamps the result non_contract")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: replay the per-layer waterfall after the "
                             "window and print the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: runs per workload, "
                             "seeds SEED, SEED+1, ...")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _use_checkout_source():
        return 2
    return _run_one(args) if args.workload else _run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
