"""Lock-acquisition discipline of the fused admission hot path.

The ISSUE-1 acceptance criterion: :meth:`AdmissionController.check`
acquires exactly **one** lock per decision on the hit path, and the miss
path no longer nests any lock acquisition inside the shard lock (the seed
nested the bucket lock and a global stats lock there).  These tests
instrument every lock the controller can touch and count real
acquisitions — including the frame-at-a-time batch path, which owes
exactly one shard-lock acquisition per distinct shard per frame.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.admission import AdmissionController
from repro.core.clock import ManualClock
from repro.core.config import AdmissionConfig
from repro.core.rules import QoSRule

# Captured before any monkeypatching so instrumented locks can build on
# the real primitive.
_REAL_LOCK = threading.Lock

class CountingLock:
    """A ``threading.Lock`` lookalike that records acquire/release events."""

    def __init__(self, events: list, label: str):
        self._inner = _REAL_LOCK()
        self._events = events
        self._label = label

    def acquire(self, *args, **kwargs):
        self._events.append(("acquire", self._label))
        return self._inner.acquire(*args, **kwargs)

    def release(self):
        self._events.append(("release", self._label))
        self._inner.release()

    def locked(self):
        return self._inner.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False


class UnlockedRuleSource:
    """A rule source with no lock of its own, so every counted acquisition
    in these tests belongs to the controller."""

    def __init__(self, rules):
        self._rules = dict(rules)

    def get_rule(self, key):
        return self._rules.get(key)

    def get_rules(self, keys):
        return {k: self._rules[k] for k in keys if k in self._rules}

    def checkpoint(self, credits):
        pass


def instrument(controller: AdmissionController, events: list) -> None:
    """Wrap every lock the controller owns."""
    controller._locks = [CountingLock(events, f"shard{i}")
                         for i in range(len(controller._locks))]
    controller._control_lock = CountingLock(events, "control")
    controller._plans._lock = CountingLock(events, "plan")
    controller._slab_state = [
        (lock, slab, stripe) for lock, (_, slab, stripe)
        in zip(controller._locks, controller._slab_state)]
    controller._slab_frame_state = [
        (lock, slab, slab.consume_frame_unlocked, stripe)
        for lock, slab, stripe in controller._slab_state]


def acquires(events: list) -> list:
    return [label for op, label in events if op == "acquire"]


def max_nesting(events: list) -> int:
    depth = peak = 0
    for op, _ in events:
        depth += 1 if op == "acquire" else -1
        peak = max(peak, depth)
    return peak


def make_controller(**config_kwargs) -> AdmissionController:
    source = UnlockedRuleSource(
        {f"k{i}": QoSRule(f"k{i}", refill_rate=100.0, capacity=100.0)
         for i in range(16)})
    return AdmissionController(
        source, AdmissionConfig(**config_kwargs),
        clock=ManualClock())


class TestFusedHitPath:
    @pytest.mark.parametrize("lock_shards", [1, 8])
    def test_exactly_one_lock_per_decision(self, lock_shards):
        controller = make_controller(lock_shards=lock_shards)
        for i in range(16):
            controller.check(f"k{i}")       # warm: all keys materialized
        events: list = []
        instrument(controller, events)
        for i in range(16):
            assert controller.check(f"k{i}")
        labels = acquires(events)
        assert len(labels) == 16, (
            f"expected 1 lock acquisition per decision, saw {labels}")
        assert all(label.startswith("shard") for label in labels)
        assert max_nesting(events) == 1

    def test_weighted_cost_also_single_lock(self):
        controller = make_controller(lock_shards=4)
        controller.check("k0")
        events: list = []
        instrument(controller, events)
        controller.check("k0", cost=7.5)
        assert len(acquires(events)) == 1


class TestMissPath:
    def test_miss_path_no_nested_acquisition(self, monkeypatch):
        """The lazy-materialization path holds only the shard lock.

        ``threading.Lock`` is patched globally so any lock created during
        the miss would be counted too; the old code acquired both a bucket
        lock and a global stats lock while holding the shard lock.  ``k0``
        is warmed first so the plan table has interned the shared plan — a
        miss for a key on an already-seen plan never touches the
        plan-table lock.
        """
        controller = make_controller(lock_shards=4)
        controller.check("k0")              # interns the (100, 100) plan
        events: list = []
        instrument(controller, events)
        monkeypatch.setattr(threading, "Lock",
                            lambda: CountingLock(events, "fresh"))
        assert controller.check("k7")       # first sighting: miss path
        labels = acquires(events)
        assert labels == ["shard" + labels[0][5:]], (
            f"miss path acquired {labels}, expected only its shard lock")
        assert max_nesting(events) == 1

    def test_unknown_key_miss_path_single_lock(self, monkeypatch):
        controller = make_controller(lock_shards=4)
        controller.check("warm-unknown")    # interns the default-rule plan
        events: list = []
        instrument(controller, events)
        monkeypatch.setattr(threading, "Lock",
                            lambda: CountingLock(events, "fresh"))
        controller.check("never-seen")      # default-rule fallback
        assert len(acquires(events)) == 1
        assert max_nesting(events) == 1


class TestBatchPath:
    def test_one_lock_per_shard_per_frame(self):
        """``check_batch`` owes one shard-lock take per distinct shard per
        frame — that is the whole point of the frame-at-a-time path."""
        controller = make_controller(lock_shards=4)
        keys = [f"k{i}" for i in range(16)]
        for key in keys:
            controller.check(key)           # warm: all keys materialized
        distinct_shards = {controller._shard_of(k) for k in keys}
        events: list = []
        instrument(controller, events)
        verdicts = controller.check_batch(keys)
        labels = acquires(events)
        assert len(labels) == len(distinct_shards), (
            f"expected one acquisition per shard, saw {labels}")
        assert all(label.startswith("shard") for label in labels)
        assert max_nesting(events) == 1
        assert verdicts == (1 << len(keys)) - 1     # all admitted

    def test_single_shard_frame_single_lock(self):
        controller = make_controller(lock_shards=1)
        keys = [f"k{i}" for i in range(8)]
        for key in keys:
            controller.check(key)
        events: list = []
        instrument(controller, events)
        controller.check_batch(keys)
        assert acquires(events) == ["shard0"]


class TestSlabPlanInterning:
    def test_first_plan_sighting_nests_plan_lock_once(self):
        """The table's one sanctioned nesting: shard lock → plan-table lock,
        taken only when a (capacity, rate) pair is seen for the first
        time.  Every later miss on the same plan is plan-lock free."""
        controller = make_controller(lock_shards=4)
        events: list = []
        instrument(controller, events)
        controller.check("k1")              # plan (100, 100) first sighting
        assert acquires(events).count("plan") == 1
        assert max_nesting(events) == 2
        events.clear()
        controller.check("k2")              # same plan: dict hit, no lock
        assert "plan" not in acquires(events)
        assert max_nesting(events) == 1
