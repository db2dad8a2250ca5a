"""Tests for Multi-AZ master/standby replication and failover (§III-D)."""

from __future__ import annotations

import threading

import pytest

from repro.core.errors import ReplicationError
from repro.core.rules import QoSRule
from repro.db.replication import ReplicatedDatabase
from repro.db.rulestore import RuleStore


@pytest.fixture
def db() -> ReplicatedDatabase:
    return ReplicatedDatabase()


class TestReplication:
    def test_writes_reach_standby(self, db):
        store = RuleStore(db)
        store.put_rule(QoSRule("k", 1.0, 10.0))
        # Verify by failing over and reading from the promoted standby.
        db.fail_master()
        assert store.get_rule("k") is not None

    def test_failover_switches_az(self, db):
        old_master = db.master_name
        new_master = db.fail_master()
        assert new_master != old_master
        assert db.master_name == new_master
        assert db.failovers == 1
        assert not db.has_standby

    def test_double_failure_raises(self, db):
        db.fail_master()
        with pytest.raises(ReplicationError):
            db.fail_master()

    def test_failover_callback_fires(self, db):
        seen = []
        db.on_failover = seen.append
        promoted = db.fail_master()
        assert seen == [promoted]

    def test_writes_after_failover_work(self, db):
        store = RuleStore(db)
        store.put_rule(QoSRule("before", 1.0, 10.0))
        db.fail_master()
        store.put_rule(QoSRule("after", 2.0, 20.0))
        assert store.count() == 2

    def test_launch_standby_copies_state(self, db):
        store = RuleStore(db)
        for i in range(20):
            store.put_rule(QoSRule(f"k{i}", 1.0, 10.0))
        db.fail_master()
        db.launch_standby()
        assert db.has_standby
        # New standby must carry the data: fail over onto it and read.
        db.fail_master()
        assert store.count() == 20

    def test_launch_standby_when_present_rejected(self, db):
        with pytest.raises(ReplicationError):
            db.launch_standby()

    def test_new_standby_receives_subsequent_writes(self, db):
        store = RuleStore(db)
        db.fail_master()
        db.launch_standby()
        store.put_rule(QoSRule("late", 1.0, 10.0))
        db.fail_master()
        assert store.get_rule("late") is not None

    def test_write_during_launch_standby(self, db):
        """A write racing launch_standby() lands on the new standby exactly
        once: the seeding copy and the forwarding share one lock."""
        store = RuleStore(db)
        for i in range(500):
            store.put_rule(QoSRule(f"seed-{i}", 1.0, 10.0))
        for trial in range(40):
            db.fail_master()
            errors: list[Exception] = []
            started = threading.Event()
            stop = threading.Event()

            def writer() -> None:
                i = 0
                try:
                    while not stop.is_set():
                        store.put_rule(QoSRule(f"t{trial}-{i}", 1.0, 10.0))
                        i += 1
                        started.set()
                except Exception as exc:  # noqa: BLE001 - recorded, asserted
                    errors.append(exc)
                    started.set()

            thread = threading.Thread(target=writer)
            thread.start()
            assert started.wait(timeout=10)
            db.launch_standby()
            stop.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert errors == []
            master_count = store.count()
            db.fail_master()
            assert store.count() == master_count
            db.launch_standby()


class TestEngineCompat:
    def test_full_checkpoint_cycle_through_ha(self, db):
        """The §II-D recovery path: credits checkpointed before a database
        failover survive it and seed a replacement QoS server."""
        from repro.core.admission import AdmissionController
        from repro.core.clock import ManualClock
        store = RuleStore(db)
        store.put_rule(QoSRule("k", refill_rate=0.0, capacity=100.0))
        clock = ManualClock()
        controller = AdmissionController(store, clock=clock)
        for _ in range(30):
            controller.check("k")
        controller.checkpoint()
        db.fail_master()
        replacement = AdmissionController(store, clock=clock)
        assert replacement.check("k")
        bucket = replacement.bucket_for("k")
        assert bucket.peek_credit() == pytest.approx(69.0)
