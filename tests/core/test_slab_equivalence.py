"""Property-style equivalence: slab table ≡ one ``LeakyBucket`` per key.

Randomized op sequences — per-key checks, whole batch frames, housekeeping
sweeps (with eviction pressure), rule churn + sync, checkpoints, credit
leases and snapshot/restore — are driven in lockstep against the
slab-backed :class:`AdmissionController` and :class:`ReferenceTable`, a
test-local model built from the reference semantics: one
:class:`~repro.core.bucket.LeakyBucket` per key, a plain lease-ledger
dict, the default-rule fallback, and idleness judged from each bucket's
decision counters.  Both share one injected manual clock.  Every
operation's observable result must be identical: the admit/deny stream
bit-for-bit, lease grants to the credit, and the full table state (keys,
credits, rules, stats) at every probe point.

The snapshot op compares both snapshots, then restores each side from its
own snapshot — either into a fresh controller (a replacement node) or
over the live table — so the ``BucketSnapshot`` format and both restore
paths are exercised mid-sequence.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.admission import (
    AdmissionController,
    BucketSnapshot,
    InMemoryRuleSource,
    LeaseSnapshot,
)
from repro.core.bucket import LeakyBucket, RefillMode
from repro.core.clock import ManualClock
from repro.core.config import AdmissionConfig
from repro.core.rules import DefaultRulePolicy, QoSRule

#: Credits must agree to this absolute tolerance; the arithmetic is
#: mirrored op-for-op so the expectation is exact equality, but the
#: assertion leaves room for a platform's fused-multiply-add quirks.
TOL = 1e-12

#: Mirrors the controller's lease-accounting epsilon.
EPS = 1e-9

RULED_KEYS = [f"user{i}" for i in range(18)]
UNKNOWN_KEYS = [f"guest{i}" for i in range(6)]
ALL_KEYS = RULED_KEYS + UNKNOWN_KEYS


class ReferenceTable:
    """The local QoS table as one :class:`LeakyBucket` per key.

    Keys live in per-shard dicts picked by ``hash(key) % lock_shards``,
    like the controller's shards, because the sweep spends its forced-
    eviction budget in shard-then-insertion order.  A bucket is idle when
    its decision count did not move since the previous sweep.  Leases are
    a plain ``lease_id -> (key, granted, expiry)`` dict.
    """

    def __init__(self, source, config: AdmissionConfig, clock):
        self.source = source
        self.config = config
        self.clock = clock
        self.shards: list[dict[str, LeakyBucket]] = [
            {} for _ in range(config.lock_shards)]
        self.swept: dict[str, int] = {}     # decision count at last sweep
        self.leases: dict[int, tuple[str, float, float]] = {}
        self.next_lease_id = 1
        self.stats: Counter = Counter()

    def _shard(self, key: str) -> dict[str, LeakyBucket]:
        return self.shards[hash(key) % len(self.shards)]

    def _bucket(self, key: str, decision: bool) -> LeakyBucket:
        shard = self._shard(key)
        bucket = shard.get(key)
        if bucket is None:
            rule = self.source.get_rule(key)
            unknown = rule is None
            if unknown:
                rule = self.config.default_rule.rule_for(key)
            bucket = LeakyBucket(
                rule.capacity, rule.refill_rate,
                initial_credit=rule.initial_credit(),
                mode=self.config.refill_mode, clock=self.clock)
            if not unknown or self.config.default_rule.memorize_unknown_keys:
                shard[key] = bucket
            if decision:
                self.stats["rule_misses"] += 1
                self.stats["unknown_keys"] += unknown
        return bucket

    def _outstanding(self, key: str) -> float:
        return sum(g for k, g, _ in self.leases.values() if k == key)

    # -- decisions ------------------------------------------------------ #

    def check(self, key: str, cost: float = 1.0, now=None) -> bool:
        admitted = self._bucket(key, True).try_consume_unlocked(cost, now=now)
        self.stats["admitted" if admitted else "denied"] += 1
        return admitted

    def check_batch(self, keys, costs=None) -> int:
        now = self.clock()
        verdicts = 0
        for pos, key in enumerate(keys):
            if self.check(key, 1.0 if costs is None else costs[pos], now):
                verdicts |= 1 << pos
        return verdicts

    # -- leases --------------------------------------------------------- #

    def lease_grant(self, key: str, want: float, ttl: float):
        ttl = min(ttl, self.config.max_lease_ttl)
        rule = self.source.get_rule(key)
        fraction = self.config.max_lease_fraction
        if rule is not None and rule.max_lease_fraction is not None:
            fraction = rule.max_lease_fraction
        bucket = self._bucket(key, False)
        ask = min(want, fraction * bucket.capacity - self._outstanding(key))
        granted = bucket.lease_debit_unlocked(ask) if ask > EPS else 0.0
        if granted <= 0.0:
            self.stats["lease_refusals"] += 1
            return (0, 0.0, 0.0)
        lease_id = self.next_lease_id
        self.next_lease_id += 1
        self.leases[lease_id] = (key, granted, self.clock() + ttl)
        self.stats["lease_grants"] += 1
        self.stats["lease_granted_credits"] += granted
        return (lease_id, granted, ttl)

    def lease_return(self, key: str, lease_id: int, credits: float) -> float:
        record = self.leases.get(lease_id)
        if record is None or record[0] != key:
            return 0.0
        del self.leases[lease_id]
        accepted = 0.0
        bucket = self._shard(key).get(key)
        if credits > 0.0 and bucket is not None:
            accepted = bucket.lease_return_unlocked(min(credits, record[1]))
        self.stats["lease_returns"] += 1
        self.stats["lease_returned_credits"] += accepted
        return accepted

    def lease_expire(self) -> int:
        now = self.clock()
        dead = [i for i, (_, _, expiry) in self.leases.items()
                if expiry <= now]
        for lease_id in dead:
            del self.leases[lease_id]
        self.stats["lease_expired"] += len(dead)
        return len(dead)

    # -- housekeeping --------------------------------------------------- #

    def refill_all(self) -> int:
        cap = self.config.max_table_entries
        budget = max(0, self.table_size() - cap) if cap else 0
        leased = {key for key, _, _ in self.leases.values()}
        now = self.clock()
        count = forced = 0
        evicted: dict[str, float] = {}
        for shard in self.shards:
            count += len(shard)
            for key, bucket in list(shard.items()):
                bucket.advance_unlocked(now)
                activity = bucket.consumed_total + bucket.denied_total
                idle = self.swept.get(key) == activity
                self.swept[key] = activity
                if not idle or key in leased:
                    continue
                credit = bucket.credit_unlocked(now)
                if credit >= bucket.capacity - EPS:
                    self.stats["evicted_idle"] += 1
                elif forced < budget:
                    forced += 1
                else:
                    continue
                evicted[key] = credit
                del shard[key]
                del self.swept[key]
        self.stats["evicted_forced"] += forced
        if evicted:
            self.source.checkpoint(evicted)
        return count

    def sync_rules(self) -> int:
        keys = self.local_keys()
        fresh = self.source.get_rules(keys)
        updated = 0
        for key in keys:
            bucket = self._shard(key)[key]
            rule = fresh.get(key) or self.config.default_rule
            if (bucket.capacity, bucket.refill_rate) != (rule.capacity,
                                                         rule.refill_rate):
                bucket.update_rule_unlocked(rule.capacity, rule.refill_rate)
                updated += 1
                doomed = [i for i, (k, _, _) in self.leases.items()
                          if k == key]
                for lease_id in doomed:
                    del self.leases[lease_id]
                self.stats["lease_revoked"] += len(doomed)
        self.stats["syncs"] += 1
        return updated

    def checkpoint(self) -> int:
        now = self.clock()
        credits = {key: bucket.credit_unlocked(now)
                   for shard in self.shards for key, bucket in shard.items()}
        self.source.checkpoint(credits)
        self.stats["checkpoints"] += 1
        return len(credits)

    # -- replication / introspection ------------------------------------ #

    def local_keys(self) -> list[str]:
        return [key for shard in self.shards for key in shard]

    def table_size(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def bucket_for(self, key: str) -> LeakyBucket:
        return self._shard(key)[key]

    def snapshot(self) -> list[BucketSnapshot]:
        now = self.clock()
        return [BucketSnapshot(
            key=key, capacity=bucket.capacity,
            refill_rate=bucket.refill_rate,
            credit=bucket.credit_unlocked(now),
            leases=tuple(
                LeaseSnapshot(lease_id=i, granted=g, ttl_remaining=e - now)
                for i, (k, g, e) in self.leases.items()
                if k == key and e - now > 0))
            for shard in self.shards for key, bucket in shard.items()]

    def restore(self, snapshots) -> int:
        now = self.clock()
        max_lease_id = 0
        for snap in snapshots:
            shard = self._shard(snap.key)
            bucket = shard.get(snap.key)
            if bucket is None:
                shard[snap.key] = LeakyBucket(
                    snap.capacity, snap.refill_rate,
                    initial_credit=snap.credit,
                    mode=self.config.refill_mode, clock=self.clock)
            else:
                bucket.update_rule_unlocked(snap.capacity, snap.refill_rate)
                bucket.restore_credit_unlocked(snap.credit)
            for lease in snap.leases:
                if lease.lease_id in self.leases or lease.ttl_remaining <= 0:
                    continue
                self.leases[lease.lease_id] = (
                    snap.key, lease.granted, now + lease.ttl_remaining)
                max_lease_id = max(max_lease_id, lease.lease_id)
        self.next_lease_id = max(self.next_lease_id, max_lease_id + 1)
        return len(snapshots)

    def stats_snapshot(self) -> dict:
        s = self.stats
        return {
            "admitted": s["admitted"],
            "denied": s["denied"],
            "rule_hits": s["admitted"] + s["denied"] - s["rule_misses"],
            "rule_misses": s["rule_misses"],
            "unknown_keys": s["unknown_keys"],
            "syncs": s["syncs"],
            "checkpoints": s["checkpoints"],
            "lease_grants": s["lease_grants"],
            "lease_refusals": s["lease_refusals"],
            "lease_granted_credits": s["lease_granted_credits"],
            "lease_returns": s["lease_returns"],
            "lease_returned_credits": s["lease_returned_credits"],
            "lease_expired": s["lease_expired"],
            "lease_revoked": s["lease_revoked"],
            "leases_active": len(self.leases),
            "lease_outstanding_credits": sum(
                g for _, g, _ in self.leases.values()),
            "evicted_idle": s["evicted_idle"],
            "evicted_forced": s["evicted_forced"],
        }


def make_rules(rng: random.Random) -> dict[str, QoSRule]:
    rules = {}
    for i, key in enumerate(RULED_KEYS):
        capacity = rng.choice([0.0, 1.0, 3.5, 10.0, 100.0])
        rate = rng.choice([0.0, 0.5, 2.0, 25.0])
        rules[key] = QoSRule(key=key, refill_rate=rate, capacity=capacity,
                             max_lease_fraction=rng.choice([None, 0.0, 0.5]))
    return rules


def make_pair(mode: RefillMode, shards: int, rng: random.Random,
              max_entries: int = 0):
    """A (controller, reference) pair over identical rule universes."""
    clock = ManualClock()
    rules = make_rules(rng)
    policy = DefaultRulePolicy(refill_rate=1.0, capacity=2.0,
                               memorize_unknown_keys=True)
    config = AdmissionConfig(
        refill_mode=mode, lock_shards=shards, default_rule=policy,
        max_table_entries=max_entries)
    ctl = AdmissionController(
        InMemoryRuleSource(dict(rules)), config, clock=clock)
    ref = ReferenceTable(InMemoryRuleSource(dict(rules)), config, clock)
    return ctl, ref, clock


def assert_same_snapshots(got, want):
    assert [s.key for s in got] == [s.key for s in want]
    for snap, twin in zip(got, want):
        assert snap.capacity == twin.capacity
        assert snap.refill_rate == twin.refill_rate
        assert snap.credit == pytest.approx(twin.credit, abs=TOL)
        assert [(lease.lease_id, lease.holder) for lease in snap.leases] == \
            [(lease.lease_id, lease.holder) for lease in twin.leases]
        for lease, other in zip(snap.leases, twin.leases):
            assert lease.granted == pytest.approx(other.granted, abs=TOL)
            assert lease.ttl_remaining == pytest.approx(
                other.ttl_remaining, abs=TOL)


def assert_same_state(ctl, ref):
    assert ctl.table_size() == ref.table_size()
    assert ctl.local_keys() == ref.local_keys()
    for key in ref.local_keys():
        view = ctl.bucket_for(key)
        bucket = ref.bucket_for(key)
        assert view is not None, f"{key} missing from the slab table"
        assert view.capacity == bucket.capacity
        assert view.refill_rate == bucket.refill_rate
        assert view.peek_credit() == pytest.approx(bucket.peek_credit(),
                                                   abs=TOL)
    assert ctl.stats_snapshot() == pytest.approx(ref.stats_snapshot())


def drive(ctl, ref, clock, rng: random.Random, ops: int):
    """Apply ``ops`` random operations in lockstep; compare along the way.

    Returns the final ``(controller, reference)`` pair, which a snapshot
    op may have replaced with freshly restored instances.
    """
    live_leases: list[tuple[str, int, float]] = []
    for step in range(ops):
        roll = rng.random()
        if roll < 0.45:                                   # per-key check
            key = rng.choice(ALL_KEYS)
            cost = rng.choice([1.0, 1.0, 1.0, 2.5, 0.25])
            assert ctl.check(key, cost) == ref.check(key, cost), (
                f"step {step}: check({key!r}, {cost}) diverged")
        elif roll < 0.60:                                 # whole batch frame
            frame = [rng.choice(ALL_KEYS)
                     for _ in range(rng.randint(1, 64))]
            costs = ([rng.choice([1.0, 2.0, 0.5]) for _ in frame]
                     if rng.random() < 0.5 else None)
            assert ctl.check_batch(frame, costs) == \
                ref.check_batch(frame, costs), (
                f"step {step}: check_batch diverged on {frame}")
        elif roll < 0.72:                                 # time passes
            clock.advance(rng.uniform(0.0, 2.0))
        elif roll < 0.80:                                 # housekeeping sweep
            assert ctl.refill_all() == ref.refill_all()
        elif roll < 0.86:                                 # rule churn + sync
            key = rng.choice(RULED_KEYS)
            # Draw once, apply to both sources, so the same pseudo-random
            # rule lands on each side.
            new_rule = (None if rng.random() < 0.3 else QoSRule(
                key=key, refill_rate=rng.choice([0.0, 1.0, 50.0]),
                capacity=rng.choice([0.0, 5.0, 20.0])))
            for source in (ctl._source, ref.source):
                if new_rule is None:
                    source.delete_rule(key)
                else:
                    source.put_rule(new_rule)
            assert ctl.sync_rules() == ref.sync_rules()
        elif roll < 0.90:                                 # checkpoint
            assert ctl.checkpoint() == ref.checkpoint()
        elif roll < 0.96:                                 # credit leases
            key = rng.choice(ALL_KEYS)
            if live_leases and rng.random() < 0.5:
                key, lease_id, granted = live_leases.pop()
                remainder = rng.uniform(0.0, granted)
                assert ctl.lease_return(key, lease_id, remainder) == \
                    pytest.approx(ref.lease_return(key, lease_id, remainder),
                                  abs=TOL)
            else:
                if live_leases and rng.random() < 0.5:
                    # Stack a grant on a leased key so the headroom left
                    # by outstanding grants is what clamps it.
                    key = rng.choice(live_leases)[0]
                want = rng.uniform(0.1, 5.0)
                ttl = rng.uniform(0.05, 1.0)
                got = ctl.lease_grant(key, want, ttl)
                expect = ref.lease_grant(key, want, ttl)
                assert got[0] == expect[0]
                assert got[1] == pytest.approx(expect[1], abs=TOL)
                assert got[2] == pytest.approx(expect[2], abs=TOL)
                if got[0]:
                    live_leases.append((key, got[0], got[1]))
            if rng.random() < 0.3:
                clock.advance(rng.uniform(0.0, 1.5))
                assert ctl.lease_expire() == ref.lease_expire()
                live_leases.clear()
        else:                                             # snapshot/restore
            snaps = ctl.snapshot()
            ref_snaps = ref.snapshot()
            assert_same_snapshots(snaps, ref_snaps)
            if rng.random() < 0.5:
                # Replacement node: a fresh controller on the same rule
                # source, seeded from the snapshot alone (counters and
                # expired-but-unswept leases do not travel).
                ctl = AdmissionController(ctl._source, ctl.config,
                                          clock=clock)
                ref = ReferenceTable(ref.source, ref.config, clock)
            assert ctl.restore(snaps) == len(snaps)
            assert ref.restore(ref_snaps) == len(ref_snaps)
            assert_same_state(ctl, ref)
        if step % 25 == 24:
            assert_same_state(ctl, ref)
    assert_same_state(ctl, ref)
    return ctl, ref


@pytest.mark.parametrize("mode", [RefillMode.CONTINUOUS, RefillMode.INTERVAL])
@pytest.mark.parametrize("shards", [1, 5])
@pytest.mark.parametrize("seed", [7, 19, 404])
def test_slab_equivalent_to_object_store(mode, shards, seed):
    rng = random.Random(seed)
    ctl, ref, clock = make_pair(mode, shards, rng)
    drive(ctl, ref, clock, rng, ops=300)


@pytest.mark.parametrize("mode", [RefillMode.CONTINUOUS, RefillMode.INTERVAL])
@pytest.mark.parametrize("seed", [11, 23])
def test_slab_equivalent_under_eviction_pressure(mode, seed):
    """A tight ``max_table_entries`` cap forces the idle/forced eviction
    paths; eviction choices must match exactly (the slab's epoch byte must
    reproduce the reference's decision-counter idleness rule)."""
    rng = random.Random(seed)
    ctl, ref, clock = make_pair(mode, 3, rng, max_entries=10)
    ctl, ref = drive(ctl, ref, clock, rng, ops=300)
    stats = ctl.stats_snapshot()
    assert stats["evicted_idle"] == ref.stats["evicted_idle"]
    assert stats["evicted_forced"] == ref.stats["evicted_forced"]


def test_batch_verdicts_match_sequential_checks_under_frozen_clock():
    """With time frozen, a batch frame must admit exactly the keys that
    the same sequence of per-key checks would (repeated keys drain their
    bucket inside the frame)."""
    rng = random.Random(5)
    ctl, ref, _clock = make_pair(RefillMode.CONTINUOUS, 4, rng)
    frame = [rng.choice(ALL_KEYS) for _ in range(96)]
    expected = 0
    for pos, key in enumerate(frame):
        if ref.check(key):
            expected |= 1 << pos
    assert ctl.check_batch(frame) == expected
