"""Tests for the qos_rules table API (§II-D, §III-D).

The CRUD and checkpoint cases form one conformance suite run against every
rule source: a RuleStore over an in-memory database, over a replicated
pair before and after a failover, over a file reopened before the reads,
and (for the RuleSource half) the dict-backed InMemoryRuleSource.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.admission import InMemoryRuleSource
from repro.core.rules import QoSRule
from repro.db.database import Database
from repro.db.replication import ReplicatedDatabase
from repro.db.rulestore import RuleStore

SEED = (QoSRule("alice", refill_rate=100.0, capacity=1000.0),
        QoSRule("bob", refill_rate=10.0, capacity=100.0))

STORES = ["memory-db", "replicated", "failed-over", "file"]


def _seeded(kind: str, tmp_path):
    """A rule source of ``kind`` holding the SEED rules."""
    if kind == "in-memory-source":
        return InMemoryRuleSource({rule.key: rule for rule in SEED})
    if kind == "file":
        path = tmp_path / "rules.db"
        writer = Database(path)
        store = RuleStore(writer)
    else:
        db = ReplicatedDatabase() if kind in ("replicated", "failed-over") else Database()
        store = RuleStore(db)
    for rule in SEED:
        store.put_rule(rule)
    if kind == "failed-over":
        store.db.fail_master()
    elif kind == "file":
        writer.close()
        store = RuleStore(Database(path))
    return store


@pytest.fixture(params=STORES)
def store(request, tmp_path) -> RuleStore:
    return _seeded(request.param, tmp_path)


@pytest.fixture(params=STORES + ["in-memory-source"])
def source(request, tmp_path):
    return _seeded(request.param, tmp_path)


class TestCrud:
    def test_get_rule(self, source):
        rule = source.get_rule("alice")
        assert rule == QoSRule("alice", refill_rate=100.0, capacity=1000.0)

    def test_get_missing_returns_none(self, source):
        assert source.get_rule("nobody") is None

    def test_put_updates_in_place(self, store):
        store.put_rule(QoSRule("alice", refill_rate=5.0, capacity=50.0))
        assert store.get_rule("alice").refill_rate == 5.0
        assert store.count() == 2

    def test_delete(self, store):
        assert store.delete_rule("bob")
        assert not store.delete_rule("bob")
        assert store.get_rule("bob") is None
        assert store.count() == 1

    def test_get_rules_batch(self, source):
        rules = source.get_rules(["alice", "bob", "nobody"])
        assert set(rules) == {"alice", "bob"}

    def test_get_rules_spans_chunks(self, store):
        keys = [f"user-{i:04d}" for i in range(1_234)]
        for key in keys[::2]:
            store.put_rule(QoSRule(key, 1.0, 10.0))
        rules = store.get_rules(keys + ["alice"])
        assert set(rules) == set(keys[::2]) | {"alice"}

    def test_load_all_warmup_scan(self, store):
        # "SELECT * FROM qos_rules" at startup (§III-D).
        everything = store.load_all()
        assert set(everything) == {"alice", "bob"}
        assert everything["bob"].capacity == 100.0


class TestCheckpoint:
    def test_checkpoint_round_trip(self, source):
        source.checkpoint({"alice": 123.0})
        assert source.get_rule("alice").credit == 123.0

    def test_checkpoint_unknown_key_ignored(self, source):
        source.checkpoint({"nobody": 5.0})
        assert source.get_rule("nobody") is None

    def test_floats_round_trip_bit_exactly(self, source):
        credit = 0.1 + 0.2
        source.checkpoint({"alice": credit})
        assert source.get_rule("alice").credit.hex() == credit.hex()

    def test_oversized_checkpoint_clamped_on_read(self, store):
        # A stale checkpoint larger than a shrunk capacity must not
        # violate the rule invariant when materialized.
        store.checkpoint({"bob": 99.0})
        store.db.execute(
            "UPDATE qos_rules SET capacity = 10.0 WHERE qos_key = 'bob'")
        rule = store.get_rule("bob")
        assert rule.credit == 10.0

    def test_negative_checkpoint_clamped(self, store):
        store.db.execute(
            "UPDATE qos_rules SET credit = -5.0 WHERE qos_key = 'bob'")
        assert store.get_rule("bob").credit == 0.0


class TestSharedEngine:
    def test_two_stores_share_state(self):
        db = Database()
        a = RuleStore(db)
        b = RuleStore(db)
        a.put_rule(QoSRule("k", 1.0, 10.0))
        assert b.get_rule("k") is not None


class TestConcurrentWriters:
    @pytest.mark.parametrize("round_", range(3))
    def test_concurrent_put_rule_on_new_keys(self, round_):
        """Two writers inserting the same fresh keys both succeed: the
        insert-or-update is one statement, not an UPDATE then an INSERT.
        A reader runs beside them, as a QoS server's lazy fetch would."""
        keys = [f"fresh-{round_}-{i:05d}" for i in range(4_000)]
        store = RuleStore()
        barrier = threading.Barrier(3)
        errors: list[Exception] = []

        def writer(rate: float) -> None:
            barrier.wait(timeout=10)
            try:
                for key in keys:
                    store.put_rule(QoSRule(key, rate, 100.0))
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append(exc)

        def reader() -> None:
            barrier.wait(timeout=10)
            try:
                for key in keys[::40]:
                    rule = store.get_rule(key)
                    assert rule is None or rule.refill_rate in (1.0, 2.0)
                    store.get_rules(keys[:600])
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(rate,))
                   for rate in (1.0, 2.0)]
        threads.append(threading.Thread(target=reader))
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the writers finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.count() == len(keys)
