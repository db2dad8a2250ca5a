"""Closed- and open-loop load generators and the per-window arithmetic.

A generator thread owns one connection and one request stream and
appends one :class:`Call` per request.  It knows nothing about the
cluster: it is handed a ``call(keys) -> Outcome`` callable, which is how
the self-tests substitute a stalled fake server.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, NamedTuple, Sequence

__all__ = ["Call", "Outcome", "client_call", "closed_loop", "open_loop",
           "WindowStats", "window_stats", "percentile"]

#: An open-loop request still unanswered this long after it was due has
#: failed, whatever arrives later.
UNANSWERED_NS = 2_000_000_000
#: Open loop: a request sent later than this after its due time counts
#: towards ``client.late_share`` (the generator, not the program, was late).
LATE_NS = 1_000_000
#: The paper's latency limit; a slower or failed call misses it.
SLO_MS = 3.0


class Outcome(NamedTuple):
    """Per-key results of one call, as counts."""

    denied: int = 0
    default_replies: int = 0      # router gave up on the QoS server
    transport_errors: int = 0     # connection error or non-200


class Call(NamedTuple):
    request: "tuple[int, ...]"    # key indices
    due_ns: int                   # closed loop: equal to sent_ns
    sent_ns: int
    done_ns: int                  # 0 = never answered
    outcome: Outcome


def client_call(client, batch: int) -> "Callable[[Sequence[str]], Outcome]":
    """Adapt a ``QoSClient`` to the generator's ``call`` shape."""

    def classify(results) -> Outcome:
        denied = defaults = transport = 0
        for r in results:
            if r.is_default_reply:
                # The client synthesises attempts=0 for its own failures;
                # a router default reply carries the attempts it burned.
                if r.attempts == 0:
                    transport += 1
                else:
                    defaults += 1
            elif not r.allowed:
                denied += 1
        return Outcome(denied, defaults, transport)

    if batch == 1:
        return lambda keys: classify((client.check_detailed(keys[0]),))
    return lambda keys: classify(client.check_many_detailed(keys))


def closed_loop(call, requests, named, stop: threading.Event,
                out: "list[Call]") -> None:
    """Send the next request as soon as the previous one is answered."""
    now = time.perf_counter_ns
    n = len(requests)
    i = 0
    while not stop.is_set():
        slot = i % n
        sent = now()
        outcome = call(named[slot])
        out.append(Call(requests[slot], sent, sent, now(), outcome))
        i += 1


def open_loop(call, requests, named, due_ns: "Sequence[int]",
              out: "list[Call]") -> None:
    """Send each request when it is due, however the last one fared.

    One connection serves its requests in order, so a stall delays the
    requests queued behind it; timing from ``due_ns`` charges them for it.
    Requests still unsent ``UNANSWERED_NS`` after the last one was due are
    recorded as never answered.
    """
    now = time.perf_counter_ns
    n = len(requests)
    give_up = (due_ns[-1] if due_ns else now()) + UNANSWERED_NS
    for i, due in enumerate(due_ns):
        slot = i % n
        wait = due - now()
        if wait > 0:
            time.sleep(wait / 1e9)
        sent = now()
        if sent > give_up:
            out.extend(Call(requests[j % n], d, 0, 0, Outcome())
                       for j, d in enumerate(due_ns[i:], start=i))
            return
        outcome = call(named[slot])
        out.append(Call(requests[slot], due, sent, now(), outcome))


def percentile(ordered: "Sequence[float]", q: float) -> float:
    """Linear-interpolated percentile of an already sorted sequence."""
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class WindowStats(NamedTuple):
    attempted: int                # keys
    failed: int                   # keys
    calls: int
    latencies_ms: "list[float]"   # one per call with no failed key, sorted
    slo_misses: int               # calls
    late: int                     # calls
    transport_errors: int         # keys


def window_stats(calls: "Sequence[Call]", start_ns: int, end_ns: int, *,
                 open_loop: bool, never_deny: bool) -> WindowStats:
    """Count and time the calls that belong to ``[start_ns, end_ns)``.

    A closed-loop call belongs to the window its reply arrived in; an
    open-loop call to the window it was due in.  Failed = transport error
    or non-200, router default reply, a never-deny key denied, or (open
    loop) unanswered ``UNANSWERED_NS`` after it was due.
    """
    attempted = failed = n_calls = slo = late = transport = 0
    latencies = []
    for call in calls:
        stamp = call.due_ns if open_loop else call.done_ns
        if not (start_ns <= stamp < end_ns):
            continue
        n_calls += 1
        n_keys = len(call.request)
        attempted += n_keys
        o = call.outcome
        bad = o.default_replies + o.transport_errors
        if never_deny:
            bad += o.denied
        if call.done_ns == 0 or call.done_ns - call.due_ns > UNANSWERED_NS:
            bad = n_keys
        transport += o.transport_errors
        failed += bad
        if open_loop and (call.sent_ns == 0
                          or call.sent_ns - call.due_ns > LATE_NS):
            late += 1
        if bad:
            slo += 1
            continue
        ms = (call.done_ns - call.due_ns) / 1e6
        latencies.append(ms)
        if ms > SLO_MS:
            slo += 1
    latencies.sort()
    return WindowStats(attempted, failed, n_calls, latencies, slo, late,
                       transport)
