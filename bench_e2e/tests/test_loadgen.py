"""The open-loop generator charges a stall to the requests behind it."""

import time

from bench_e2e.loadgen import (Call, Outcome, open_loop, percentile,
                               window_stats)

MS = 1_000_000


def test_stalled_server_is_charged_from_due_time():
    served = []

    def stalled_server(keys):
        served.append(keys)
        if len(served) == 1:
            time.sleep(0.100)        # one 100 ms stall, then instant
        return Outcome()

    start = time.perf_counter_ns() + 5 * MS
    due = [start + i * 10 * MS for i in range(20)]      # 100 requests/s
    requests = [(i,) for i in range(20)]
    out = []
    open_loop(stalled_server, requests, requests, due, out)

    assert len(out) == 20 and all(c.done_ns for c in out)
    # Requests due during the stall were sent late ...
    behind = [c for c in out[1:10]]
    assert all(c.sent_ns - c.due_ns > 1 * MS for c in behind)
    # ... and their latency counts from when they were due, not sent.
    assert (out[1].done_ns - out[1].due_ns) / MS > 80
    assert (out[1].done_ns - out[1].sent_ns) / MS < 20

    stats = window_stats(out, start, due[-1] + 1, open_loop=True,
                         never_deny=True)
    assert stats.failed == 0 and stats.calls == 20
    assert stats.late >= 9                   # shows up in client.late_share
    assert percentile(stats.latencies_ms, 0.5) > 5
    # Once the backlog is drained the generator is on time again.
    assert out[-1].sent_ns - out[-1].due_ns < 1 * MS


def test_unanswered_two_seconds_after_due_is_failed():
    calls = [Call((0,), 5 * MS, 5 * MS, 2_500 * MS, Outcome()),   # too late
             Call((1,), 10 * MS, 0, 0, Outcome()),                # never sent
             Call((2,), 20 * MS, 20 * MS, 21 * MS, Outcome())]
    stats = window_stats(calls, 0, 1000 * MS, open_loop=True,
                         never_deny=True)
    assert (stats.attempted, stats.failed) == (3, 2)
    assert stats.late == 1
