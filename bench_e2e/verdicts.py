"""Verdict checker: are the program's answers the right ones?

Works on the generator's :class:`~bench_e2e.loadgen.Call` records over
warm-up plus window and returns one line per violation; an empty list
means the outputs are correct.
"""

from __future__ import annotations

from typing import Sequence

from bench_e2e.loadgen import UNANSWERED_NS, Call

__all__ = ["check_never_deny", "check_throttle", "LEASE_SLACK_FRACTION"]

#: DESIGN.md, "Over-admission bound": outstanding leases on a key are
#: capped at ``max_lease_fraction`` (default 0.5) of its capacity, so a
#: leased key may burst to ``capacity * (1 + 0.5)``.
LEASE_SLACK_FRACTION = 0.5
#: A throttled key must still receive this share of its purchased rate.
MIN_SUPPLY_SHARE = 0.8


def _names(call: Call, keys: Sequence[str]) -> str:
    """The call's first few keys, to name it in a violation line."""
    return ",".join(keys[i] for i in call.request[:3])


def _transport_violations(calls: Sequence[Call],
                          keys: Sequence[str]) -> "list[str]":
    """Failures that are wrong on every workload."""
    lines = []
    for call in calls:
        o = call.outcome
        if call.done_ns == 0 or call.done_ns - call.due_ns > UNANSWERED_NS:
            lines.append(f"{_names(call, keys)}: unanswered "
                         f"{UNANSWERED_NS / 1e9:g} s after it was due")
        if o.transport_errors:
            lines.append(f"{_names(call, keys)}: {o.transport_errors} "
                         "transport error(s) or non-200 replies")
        if o.default_replies:
            lines.append(f"{_names(call, keys)}: {o.default_replies} router "
                         "default reply(ies)")
    return lines


def check_never_deny(calls: Sequence[Call],
                     keys: Sequence[str]) -> "list[str]":
    """Every reply must be allowed and must come from a real decision."""
    lines = _transport_violations(calls, keys)
    for call in calls:
        if call.outcome.denied:
            lines.append(f"{_names(call, keys)}: {call.outcome.denied} "
                         "never-deny key(s) denied")
    return lines


def check_throttle(calls: Sequence[Call], keys: Sequence[str], *,
                   rate: float, capacity: float,
                   lease_slack: float) -> "list[str]":
    """Per-key leaky-bucket bounds on a single-key-per-call stream.

    Over the span a key was exercised (first send to last reply):
    admitted <= capacity + rate*elapsed + lease_slack; a key whose demand
    exceeded that supply got at least ``MIN_SUPPLY_SHARE`` of
    rate*elapsed; and the key's first check — its bucket is full — was
    admitted.
    """
    lines = _transport_violations(calls, keys)
    per_key: "dict[int, list[Call]]" = {}
    for call in calls:
        if call.done_ns:
            per_key.setdefault(call.request[0], []).append(call)
    for index, seen in per_key.items():
        seen.sort(key=lambda c: c.sent_ns)
        elapsed = (max(c.done_ns for c in seen) - seen[0].sent_ns) / 1e9
        admitted = sum(1 for c in seen if not c.outcome.denied)
        ceiling = capacity + rate * elapsed + lease_slack
        if admitted > ceiling + 1:
            lines.append(
                f"{keys[index]}: over-admitted, {admitted} admits in "
                f"{elapsed:.3f} s > {ceiling:.1f} allowed")
        if len(seen) > ceiling and \
                admitted < MIN_SUPPLY_SHARE * rate * elapsed:
            lines.append(
                f"{keys[index]}: starved, {admitted} admits of {len(seen)} "
                f"checks in {elapsed:.3f} s < {MIN_SUPPLY_SHARE:g} x "
                f"{rate * elapsed:.1f} purchased")
        if capacity >= 1 and seen[0].outcome.denied:
            lines.append(f"{keys[index]}: first check denied with a full "
                         "bucket")
    return lines
