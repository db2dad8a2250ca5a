"""compare: bounds, direction and the unresolved rule."""

from bench_e2e.compare import compare, spread, verdict


def test_verdict_respects_direction_and_bound():
    assert verdict([100.0], [105.0], better="lower", bound=0.10)[0] == "same"
    assert verdict([100.0], [115.0], better="lower", bound=0.10)[0] == "worse"
    assert verdict([100.0], [115.0], better="higher",
                   bound=0.10)[0] == "better"
    assert verdict([100.0], [85.0], better="higher", bound=0.10)[0] == "worse"


def test_wide_spread_is_unresolved_unless_every_run_wins():
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert spread(noisy) > 0.10
    assert verdict(noisy, [90.0, 110.0, 130.0], better="lower",
                   bound=0.10)[0] == "unresolved"
    assert verdict(noisy, [50.0, 60.0, 70.0], better="lower",
                   bound=0.10)[0] == "better"
    assert verdict(noisy, [150.0, 160.0], better="lower",
                   bound=0.10)[0] == "worse"
    assert verdict(noisy, [90.0, 110.0, 130.0], better="higher",
                   bound=0.10)[0] == "unresolved"
    assert verdict(noisy, [150.0, 160.0], better="higher",
                   bound=0.10)[0] == "better"
    assert verdict(noisy, [50.0, 60.0, 70.0], better="higher",
                   bound=0.10)[0] == "worse"


def _result(value, failed=0):
    run = {"attempted": 1000, "failed": failed, "correct": True,
           "end_to_end": {"latency_ms": {"value": value, "unit": "ms"}}}
    return {"env": {"git_commit": "abc", "seed": 1}, "runs": {"w": [run]}}


CONTRACT = {"workloads": [{"name": "w", "why": ""}],
            "end_to_end": [{"name": "latency_ms", "unit": "ms",
                            "better": "lower", "bound": 0.10}]}


def test_compare_rejects_worse_and_any_rise_in_failures():
    lines, accepted = compare(_result(1.0), _result(1.05), CONTRACT)
    assert accepted and "1.050x of 1 ms" in "\n".join(lines)
    assert not compare(_result(1.0), _result(1.2), CONTRACT)[1]
    lines, accepted = compare(_result(1.0), _result(1.0, failed=1), CONTRACT)
    assert not accepted and "failed_share ROSE" in "\n".join(lines)
