"""Verdict checker on synthetic call records."""

from bench_e2e.loadgen import Call, Outcome, window_stats
from bench_e2e.verdicts import check_never_deny, check_throttle

KEYS = ["hot", "cold", "late"]
MS = 1_000_000


def call(key, at_ms, *, denied=0, default=0, transport=0, took_ms=1):
    sent = at_ms * MS
    return Call((key,), sent, sent, sent + took_ms * MS,
                Outcome(denied, default, transport))


def throttle(calls):
    return check_throttle(calls, KEYS, rate=20.0, capacity=40.0,
                          lease_slack=20.0)


def test_conforming_throttled_stream_passes():
    # 10 s of 100 checks/s on one key: 40 burst + 20/s refill admitted.
    calls, credit, last = [], 40.0, 0
    for at in range(0, 10_000, 10):
        credit = min(40.0, credit + 20.0 * (at - last) / 1000)
        last = at
        allowed = credit >= 1
        credit -= allowed
        calls.append(call(0, at, denied=0 if allowed else 1))
    assert throttle(calls) == []


def test_over_admitted_key_is_reported():
    calls = [call(0, at) for at in range(0, 1000, 2)]    # 500 admits in 1 s
    lines = throttle(calls)
    assert len(lines) == 1 and "hot: over-admitted" in lines[0]


def test_starved_key_is_reported():
    calls = [call(0, 0)] + [call(0, at, denied=1)
                            for at in range(10, 10_000, 10)]
    lines = throttle(calls)
    assert len(lines) == 1 and "hot: starved" in lines[0]


def test_key_first_seen_late_must_be_admitted():
    calls = [call(1, 0), call(2, 5_000, denied=1)]
    lines = throttle(calls)
    assert lines == ["late: first check denied with a full bucket"]


def test_never_deny_rejects_denials_defaults_and_502s():
    assert check_never_deny([call(0, 0), call(1, 1)], KEYS) == []
    bad = [call(0, 0, denied=1), call(1, 1, default=1),
           call(2, 2, transport=1)]       # the client reports a 502 so
    lines = check_never_deny(bad, KEYS)
    assert len(lines) == 3
    assert any("denied" in line for line in lines)
    assert any("default" in line for line in lines)
    assert any("transport" in line for line in lines)


def test_failures_all_land_in_failed():
    calls = [call(0, 10), call(0, 20, denied=1), call(1, 30, default=1),
             call(2, 40, transport=1)]
    stats = window_stats(calls, 0, 1000 * MS, open_loop=False,
                         never_deny=True)
    assert (stats.attempted, stats.failed) == (4, 3)
    assert stats.transport_errors == 1
    assert len(stats.latencies_ms) == 1       # failed calls carry no latency
    assert stats.slo_misses == 3
    # On a throttled workload a denial is an answer, not a failure.
    stats = window_stats(calls, 0, 1000 * MS, open_loop=False,
                         never_deny=False)
    assert stats.failed == 2
