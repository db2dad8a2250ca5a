"""Compare two ``result.json`` files under the ``BENCHMARK.json`` bounds.

``python3 -m bench_e2e.compare A.json B.json`` treats A as the base and B
as the candidate.  For every workload and end-to-end metric it prints the
ratio of medians with its base and one verdict:

- ``worse`` / ``better``: B's median is beyond the metric's bound;
- ``same``: within the bound;
- ``unresolved``: the run-to-run spread (inter-quartile distance over the
  median, of either side) is wider than the bound, so the medians cannot
  settle it — unless every run of B beats (or loses to) every run of A.

Exit status is non-zero on any ``worse`` or any rise in the failed share.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from bench_e2e.env import REPO_ROOT

__all__ = ["spread", "verdict", "compare", "main"]


def spread(values: "list[float]") -> float:
    """Inter-quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: "list[float]", b: "list[float]", *, better: str,
            bound: float) -> "tuple[str, float]":
    """``(verdict, worsening)``; worsening > 0 means B's median is worse,
    as a share of A's median."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        # Oriented so that lower is better on both sides.
        cost_a = [sign * v for v in a]
        cost_b = [sign * v for v in b]
        if min(cost_b) > max(cost_a):
            return "worse", worsening
        if max(cost_b) < min(cost_a):
            return "better", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def _values(runs: "list[dict]", metric: str) -> "list[float]":
    return [run["end_to_end"][metric]["value"] for run in runs]


def _failed_share(runs: "list[dict]") -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(a: dict, b: dict, contract: dict) -> "tuple[list[str], bool]":
    """Report lines and whether B may replace A."""
    lines = []
    accepted = True
    for side, result in (("A", a), ("B", b)):
        env = result["env"]
        flags = [flag for flag in ("noisy", "git_dirty") if env.get(flag)]
        if result.get("non_contract"):
            flags.append("non_contract")
        lines.append(f"{side}: commit {env.get('git_commit')} seed "
                     f"{env.get('seed')} {' '.join(flags)}".rstrip())
    for workload in (w["name"] for w in contract["workloads"]):
        runs_a = a["runs"].get(workload) or []
        runs_b = b["runs"].get(workload) or []
        if not runs_a or not runs_b:
            lines.append(f"{workload}: missing on one side")
            accepted = False
            continue
        cells = []
        for metric in contract["end_to_end"]:
            name = metric["name"]
            va, vb = _values(runs_a, name), _values(runs_b, name)
            word, worsening = verdict(va, vb, better=metric["better"],
                                      bound=metric["bound"])
            base = statistics.median(va)
            lines.append(
                f"  {workload:18s} {name:17s} {word:10s} "
                f"{statistics.median(vb) / base if base else 0.0:6.3f}x of "
                f"{base:.6g} {metric['unit']} ({metric['better']} is better, "
                f"bound {metric['bound']:g}, spread A {spread(va):.3f} "
                f"B {spread(vb):.3f}, runs {len(va)}/{len(vb)})")
            cells.append(f"{name}={word}")
            if word == "worse":
                accepted = False
        fa, fb = _failed_share(runs_a), _failed_share(runs_b)
        if fb > fa:
            cells.append(f"failed_share ROSE {fa:.6f}->{fb:.6f}")
            accepted = False
        if not all(run["correct"] for run in runs_b):
            cells.append("verdict check FAILED")
            accepted = False
        lines.append(f"{workload}: " + " ".join(cells))
    return lines, accepted


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    lines, accepted = compare(a, b, contract)
    print("\n".join(lines))
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
