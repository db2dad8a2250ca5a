"""A 1 s-window run of every workload emits exactly the contract's metrics."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from bench_e2e import CONTRACT_WINDOW_S
from bench_e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_contract_file_matches_the_package():
    assert CONTRACT["paths"] == ["bench_e2e"]
    assert CONTRACT["run_seconds"] == CONTRACT_WINDOW_S
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in CONTRACT["end_to_end"])
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric_once(workload, trace):
    done = subprocess.run(
        [sys.executable, "-m", "bench_e2e", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(got["value"]), metric["name"]
        # Printed once by name, with its unit, above the JSON line.
        printed = [line for line in done.stdout.splitlines()
                   if line.split()[:1] == [metric["name"]]]
        assert len(printed) == 1 and printed[0].split()[-1] == metric["unit"]
    if trace:
        assert result["metrics"]["trace.unbalanced"]["value"] == 0
        leased = workload == "dns_zipf_throttle"
        assert (result["metrics"]["lease.grants"]["value"] > 0) == leased
        assert (ROOT / "bench_e2e" / "out" / f"trace_{workload}.jsonl").exists()
    else:
        for metric in expected:
            assert result["metrics"][metric["name"]]["value"] > 0
