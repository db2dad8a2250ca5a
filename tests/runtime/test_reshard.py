"""Unit tests for the live resharding plane (`repro.runtime.reshard`).

The integration smoke (`tests/integration/test_reshard_smoke.py`) and
the bench gate (`benchmarks/test_reshard_regression.py`) exercise the
plane end to end; this file pins the pieces in isolation: the versioned
:class:`TopologyMap`, the server-side :class:`ReshardState` transfer
window (freeze, chunk dedup, epoch idempotence, COMMIT purge), the
controller's :meth:`drop_buckets`, and the router-side lease drop for
moved keys.
"""

from __future__ import annotations

import pytest

from repro.core.admission import (
    AdmissionController,
    BucketSnapshot,
    InMemoryRuleSource,
)
from repro.core.config import AdmissionConfig
from repro.core.errors import ConfigurationError
from repro.core.hashing import crc32_of
from repro.core.protocol import (
    TOPOLOGY_ABORT,
    TOPOLOGY_COMMIT,
    TOPOLOGY_PREPARE,
    XFER_ACK_TOPOLOGY,
    SnapshotChunk,
    TopologyUpdate,
)
from repro.core.rules import QoSRule
from repro.runtime.reshard import ReshardState, TopologyMap

A = ("10.0.0.1", 9001)
B = ("10.0.0.2", 9002)
C = ("10.0.0.3", 9003)


class TestTopologyMap:
    def test_owner_matches_router_hash(self):
        topo = TopologyMap(0, (A, B))
        for key in ("alice", "bob", "tenant:7"):
            assert topo.owner(key) == topo.backends[crc32_of(key) % 2]

    def test_grow_and_shrink_bump_the_epoch(self):
        topo = TopologyMap(0, (A, B))
        grown = topo.grown([C])
        assert grown.epoch == 1 and grown.backends == (A, B, C)
        shrunk = grown.shrunk([C])
        assert shrunk.epoch == 2 and shrunk.backends == (A, B)

    def test_moved_to_reports_only_movers(self):
        topo = TopologyMap(0, (A, B))
        grown = topo.grown([C])
        keys = [f"k{i}" for i in range(64)]
        moved = {k: topo.moved_to(grown, k) for k in keys}
        movers = {k: t for k, t in moved.items() if t is not None}
        assert movers    # with 64 keys some must remap under mod 3
        for key, target in movers.items():
            assert target == grown.owner(key) != topo.owner(key)
        for key in set(keys) - set(movers):
            assert grown.owner(key) == topo.owner(key)

    def test_shrinking_unknown_address_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologyMap(0, (A,)).shrunk([B])

    def test_duplicate_backends_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologyMap(0, (A, A))


def snap(key: str, credit: float = 5.0, leases=()) -> BucketSnapshot:
    return BucketSnapshot(key=key, capacity=100.0, refill_rate=0.0,
                          credit=credit, leases=tuple(leases))


class TestReshardState:
    def make(self) -> ReshardState:
        return ReshardState(A)

    def test_inactive_by_default_and_nothing_frozen(self):
        state = self.make()
        assert not state.active
        assert not state.frozen("anything")

    def test_prepare_freezes_exactly_the_movers(self):
        state = self.make()
        ack = state.on_topology(TopologyUpdate(1, TOPOLOGY_PREPARE, (A, B)))
        assert ack.xfer_id == XFER_ACK_TOPOLOGY
        assert ack.seq == TOPOLOGY_PREPARE
        assert state.active
        for key in (f"k{i}" for i in range(32)):
            expect = ((A, B)[crc32_of(key) % 2] != A)
            assert state.frozen(key) == expect

    def test_commit_lifts_freeze_and_adopts_epoch(self):
        state = self.make()
        state.on_topology(TopologyUpdate(1, TOPOLOGY_PREPARE, (A, B)))
        state.on_topology(TopologyUpdate(1, TOPOLOGY_COMMIT, (A, B)))
        assert not state.active
        assert state.committed_epoch == 1
        # Stale re-delivery is acked but not re-applied.
        state.on_topology(TopologyUpdate(1, TOPOLOGY_PREPARE, (A, C)))
        assert not state.active

    def test_abort_lifts_freeze_without_adopting(self):
        state = self.make()
        state.on_topology(TopologyUpdate(1, TOPOLOGY_PREPARE, (A, B)))
        state.on_topology(TopologyUpdate(1, TOPOLOGY_ABORT, (A, B)))
        assert not state.active
        assert state.committed_epoch == 0

    def test_commit_purges_keys_this_backend_no_longer_owns(self):
        state = self.make()
        keys = [f"k{i}" for i in range(32)]
        movers = [k for k in keys if (A, B)[crc32_of(k) % 2] != A]
        dropped: list = []
        state.on_topology(TopologyUpdate(1, TOPOLOGY_PREPARE, (A, B)))
        state.on_topology(
            TopologyUpdate(1, TOPOLOGY_COMMIT, (A, B)),
            local_keys=lambda: list(keys),
            drop=lambda moved: (dropped.extend(moved), len(moved))[1])
        assert sorted(dropped) == sorted(movers)
        assert state.keys_purged == len(movers)

    def test_abort_and_stale_commit_never_purge(self):
        state = self.make()
        boom = lambda moved: pytest.fail("purge on a non-commit")  # noqa: E731
        state.on_topology(TopologyUpdate(1, TOPOLOGY_PREPARE, (A, B)))
        state.on_topology(TopologyUpdate(1, TOPOLOGY_ABORT, (A, B)),
                          local_keys=lambda: ["k"], drop=boom)
        state.on_topology(TopologyUpdate(2, TOPOLOGY_PREPARE, (A, B)))
        state.on_topology(TopologyUpdate(2, TOPOLOGY_COMMIT, (A, B)),
                          local_keys=lambda: [], drop=lambda m: 0)
        state.on_topology(TopologyUpdate(2, TOPOLOGY_COMMIT, (A, B)),
                          local_keys=lambda: ["k"], drop=boom)

    def test_chunks_dedup_on_xfer_id_and_seq(self):
        state = self.make()
        restored: list = []
        chunk = SnapshotChunk(xfer_id=9, epoch=1, seq=0, total=2,
                              buckets=(snap("moved:1"),))
        ack = state.on_chunk(chunk, restored.extend)
        assert (ack.xfer_id, ack.epoch, ack.seq) == (9, 1, 0)
        dup = state.on_chunk(chunk, restored.extend)
        assert (dup.xfer_id, dup.seq) == (9, 0)
        assert len(restored) == 1
        assert state.chunks_received == 1 and state.chunks_duplicate == 1
        state.on_chunk(SnapshotChunk(9, 1, 1, 2, (snap("moved:2"),)),
                       restored.extend)
        assert [s.key for s in restored] == ["moved:1", "moved:2"]
        assert state.keys_restored == 2


class TestDropBuckets:
    def controller(self):
        keys = [f"drop:{i}" for i in range(8)]
        rules = {k: QoSRule(k, refill_rate=0.0, capacity=50.0) for k in keys}
        controller = AdmissionController(InMemoryRuleSource(rules),
                                         AdmissionConfig())
        for key in keys:
            assert controller.check(key)
        return controller, keys

    def test_drop_removes_buckets_and_reports_count(self):
        controller, keys = self.controller()
        assert controller.drop_buckets(keys[:3]) == 3
        assert controller.table_size() == len(keys) - 3
        assert sorted(controller.local_keys()) == sorted(keys[3:])
        # Dropping again (or unknown keys) is a no-op, not an error.
        assert controller.drop_buckets(keys[:3] + ["never-seen"]) == 0

    def test_drop_discards_the_local_lease_ledger_without_recrediting(
            self):
        controller, keys = self.controller()
        key = keys[0]
        lease_id, granted, ttl = controller.lease_grant(
            key, want=10.0, ttl=5.0, holder=("127.0.0.1", 4242))
        assert lease_id > 0 and granted > 0.0 and ttl > 0.0
        credit_before = {
            s.key: s.credit for s in controller.snapshot()}[key]
        assert controller.drop_buckets([key]) == 1
        # The ledger entry went with the bucket: a later return of the
        # transferred lease must not find (or mint) anything here.
        assert all(not s.leases for s in controller.snapshot())
        assert controller.lease_return(key, lease_id, granted) == 0.0
        restored = controller.restore([snap(key, credit=credit_before)])
        assert restored == 1
        after = {s.key: s.credit for s in controller.snapshot()}[key]
        assert after == pytest.approx(credit_before)


class TestCoordinatorAbort:
    """Failure below the cutover must broadcast ABORT, whatever raised.

    Pinned by a live-cluster session where a ProtocolError during the
    snapshot push escaped the ReshardError-only catch: no ABORT went
    out and the old owners default-replied forever.
    """

    def make(self, node_snapshots):
        from repro.runtime.reshard.coordinator import (
            NodeHandle,
            ReshardCoordinator,
        )

        nodes = [NodeHandle(name, (addr,), snapshot=snapshot,
                            stop=lambda: None)
                 for name, addr, snapshot in node_snapshots]
        coordinator = ReshardCoordinator(routers=[], nodes=nodes)
        sent: list[TopologyUpdate] = []

        def fake_broadcast(targets, update):
            sent.append(update)
            return set()        # every target acks

        coordinator._broadcast = fake_broadcast
        return coordinator, sent

    def test_nonreshard_exception_still_aborts(self):
        from repro.runtime.reshard.coordinator import (
            NodeHandle,
            ReshardError,
        )

        def boom():
            raise RuntimeError("snapshot backend died")

        coordinator, sent = self.make([("a", A, boom)])
        joiner = NodeHandle("b", (B,), snapshot=lambda: [],
                            stop=lambda: None)
        with pytest.raises(ReshardError, match="snapshot backend died"):
            coordinator.add_node(joiner)
        assert [u.phase for u in sent] == [TOPOLOGY_PREPARE, TOPOLOGY_ABORT]
        assert coordinator.map.epoch == 0
        assert coordinator.reshards_failed == 1
        assert coordinator.nodes[0].name == "a" and len(coordinator.nodes) == 1

    def test_zero_capacity_buckets_are_not_migrated(self):
        """A pure deny rule's bucket (capacity 0) never travels: it holds
        no credit and the wire rejects it — it must not stall a reshard."""
        movers = [f"k{i}" for i in range(64)
                  if (A, B)[crc32_of(f"k{i}") % 2] == B]
        deny_key, moved_key = movers[0], movers[1]
        buckets = [
            BucketSnapshot(key=deny_key, capacity=0.0, refill_rate=0.0,
                           credit=0.0, leases=()),
            snap(moved_key, credit=3.0),
        ]
        coordinator, _sent = self.make([("a", A, lambda: buckets)])
        from repro.runtime.reshard.coordinator import ReshardReport

        old_map = coordinator.map
        new_map = TopologyMap(1, (A, B))
        report = ReshardReport(epoch=1, action="add",
                               old_backends=1, new_backends=2)
        moves = coordinator._collect_moves(old_map, new_map, set(), report)
        assert [s.key for s in moves.get(B, [])] == [moved_key]
        assert all(s.capacity > 0 for group in moves.values()
                   for s in group)
        assert report.keys_scanned == 2


class TestLeaseDropMoved:
    def _granted(self, manager, key: str, lease_id: int,
                 backend: tuple[str, int]) -> None:
        """Feed a grant through the real wire path (`on_message`)."""
        from repro.core.protocol import LeaseGrant
        from repro.runtime.lease import _PendingAsk

        request_id = 1000 + lease_id
        with manager._lock:
            manager._pending[request_id] = _PendingAsk(
                key, backend, deadline=manager._clock() + 30.0)
            manager._pending_keys.add(key)
        manager.on_message(
            LeaseGrant(request_id=request_id, key=key, lease_id=lease_id,
                       credits=50.0, ttl_ms=30_000),
            backend)

    def test_router_drops_only_remapped_leases_keeping_the_debit(self):
        from repro.core.config import RouterConfig
        from repro.runtime.lease import LeaseManager

        config = RouterConfig(lease_enabled=True)
        manager = LeaseManager(config)
        self._granted(manager, "stay", lease_id=1, backend=A)
        self._granted(manager, "move", lease_id=2, backend=A)
        assert manager.grants == 2

        route = {"stay": A, "move": B}
        assert manager.drop_moved(lambda key: route[key]) == 1
        # The surviving lease still admits from its local balance; the
        # moved one falls through to the wire (no verdict).
        assert manager.check_local("stay", 1.0, A)
        assert not manager.check_local("move", 1.0, B)
        assert manager.active_leases() == 1
        # The balance was NOT returned: the transferred ledger on the
        # new owner keeps the debit (under-admission, never over),
        # mirroring `_on_revoke`.
        assert manager.revoked == 1

    def test_drop_moved_with_unchanged_route_is_a_no_op(self):
        from repro.core.config import RouterConfig
        from repro.runtime.lease import LeaseManager

        manager = LeaseManager(RouterConfig(lease_enabled=True))
        self._granted(manager, "stay", lease_id=7, backend=A)
        assert manager.drop_moved(lambda key: A) == 0
        assert manager.check_local("stay", 1.0, A)
        assert manager.revoked == 0
