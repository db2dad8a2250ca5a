"""Server-side reshard state: transfer-window freeze + chunk intake.

One :class:`ReshardState` hangs off every :class:`QoSServerDaemon`
(procplane shard workers inherit it).  It is consulted on the worker
hot path through a single attribute load (``state.active`` is ``False``
outside a transfer window, making the steady-state cost one branch) and
mutated only by TOPOLOGY / SNAPSHOT_XFER frames:

- **PREPARE(e, map)** — install the pending map.  Until COMMIT/ABORT,
  every owned key whose owner under the *pending* map is not this
  server is *frozen*: admission requests get an immediate default
  reply (``is_default_reply`` set, the §III-B degradation model) and
  lease asks are refused — the old owner spends no credit that the
  in-flight snapshot already carried away.
- **SNAPSHOT chunk** — restore the carried buckets into the local
  controller, deduplicating ``(xfer_id, seq)`` so a retransmit after a
  lost ack never double-restores credit; always ack.
- **COMMIT(e)** — adopt the pending map as committed and lift the
  freeze.  **ABORT(e)** lifts the freeze without adopting.

Epochs make every message idempotent: announcements at or below the
committed epoch are acked but ignored.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.core.hashing import crc32_of
from repro.core.protocol import (
    TOPOLOGY_ABORT,
    TOPOLOGY_COMMIT,
    TOPOLOGY_PREPARE,
    XFER_ACK_TOPOLOGY,
    SnapshotChunk,
    TopologyUpdate,
    XferAck,
)

__all__ = ["ReshardState"]

#: Transfers remembered for chunk deduplication; beyond this, the
#: oldest transfer's seen-set is dropped (its retransmits would by then
#: be long past the sender's retry budget anyway).
_MAX_REMEMBERED_XFERS = 64


class ReshardState:
    """Topology view of one QoS backend (thread-safe, hot-path cheap)."""

    def __init__(self, address: "tuple[str, int]", *,
                 default_verdict: bool = True):
        #: The address routers aim at this backend (for a multi-process
        #: node, the worker's private port).
        self.address = tuple(address)
        #: Verdict carried by transfer-window default replies.  Matches
        #: the router's fail-open default so the degradation model is
        #: consistent end to end.
        self.default_verdict = default_verdict
        self.committed_epoch = 0
        self._lock = threading.Lock()
        #: ``(epoch, backends)`` of an announced-but-uncommitted map;
        #: also readable without the lock (single reference load) by
        #: the hot path via :attr:`active` / :meth:`frozen`.
        self._pending: "Optional[tuple[int, tuple]]" = None
        self._committed_backends: "Optional[tuple]" = None
        self._seen: "OrderedDict[int, set[int]]" = OrderedDict()
        # Counters (GIL-atomic increments, read by metrics closures).
        self.transfer_default_replies = 0
        self.lease_refusals_frozen = 0
        self.chunks_received = 0
        self.chunks_duplicate = 0
        self.keys_restored = 0
        self.keys_purged = 0
        self.topology_frames = 0

    # ------------------------------------------------------------------ #
    # hot path
    # ------------------------------------------------------------------ #

    @property
    def active(self) -> bool:
        """Is a transfer window open (PREPARE seen, no COMMIT/ABORT)?"""
        return self._pending is not None

    def frozen(self, key: str) -> bool:
        """Is ``key`` moving away from this backend under the pending map?

        Only meaningful while :attr:`active`; the caller gates on that
        so the steady-state hot path pays one attribute load.
        """
        pending = self._pending
        if pending is None:
            return False
        backends = pending[1]
        return backends[crc32_of(key) % len(backends)] != self.address

    # ------------------------------------------------------------------ #
    # frame intake
    # ------------------------------------------------------------------ #

    def on_topology(self, update: TopologyUpdate, *,
                    local_keys=None, drop=None) -> XferAck:
        """Apply one TOPOLOGY announcement; returns the ack to send.

        At COMMIT, keys this backend no longer owns under the committed
        map are purged from the local controller via ``drop(keys)``
        (``local_keys()`` enumerates the resident table).  Their
        snapshots — credit and lease ledger — travelled during the
        window, so the stale residents would double-count credit in
        fleet-wide accounting and check-point stale values over the new
        owner's.  The purge runs outside this object's lock (``drop``
        takes the controller's shard locks).
        """
        self.topology_frames += 1
        committed = False
        with self._lock:
            if update.epoch > self.committed_epoch:
                if update.phase == TOPOLOGY_PREPARE:
                    self._pending = (update.epoch, update.backends)
                elif update.phase == TOPOLOGY_COMMIT:
                    self.committed_epoch = update.epoch
                    self._committed_backends = update.backends
                    self._pending = None
                    committed = True
                elif update.phase == TOPOLOGY_ABORT:
                    pending = self._pending
                    if pending is not None and pending[0] == update.epoch:
                        self._pending = None
        if committed and local_keys is not None and drop is not None:
            backends = update.backends
            moved = [key for key in local_keys()
                     if backends[crc32_of(key) % len(backends)]
                     != self.address]
            if moved:
                self.keys_purged += drop(moved)
        # Stale epochs still ack: the coordinator retransmits until
        # acked, and re-delivery after a commit must not wedge it.
        return XferAck(XFER_ACK_TOPOLOGY, update.epoch, update.phase)

    def on_chunk(self, chunk: SnapshotChunk, restore) -> XferAck:
        """Apply one SNAPSHOT_XFER chunk; returns the ack to send.

        ``restore(buckets)`` is the controller's restore entry point; it
        runs outside this object's lock (it takes the controller's own
        shard locks).  Duplicate ``(xfer_id, seq)`` chunks are acked
        without a second restore — between the first restore and a
        retransmit, live traffic may already have spent restored credit,
        and re-applying the snapshot would mint it back.
        """
        with self._lock:
            seen = self._seen.get(chunk.xfer_id)
            if seen is None:
                seen = set()
                self._seen[chunk.xfer_id] = seen
                while len(self._seen) > _MAX_REMEMBERED_XFERS:
                    self._seen.popitem(last=False)
            duplicate = chunk.seq in seen
            if not duplicate:
                seen.add(chunk.seq)
        if duplicate:
            self.chunks_duplicate += 1
        else:
            self.chunks_received += 1
            restore(chunk.buckets)
            self.keys_restored += len(chunk.buckets)
        return XferAck(chunk.xfer_id, chunk.epoch, chunk.seq)

    # ------------------------------------------------------------------ #

    def status(self) -> dict:
        pending = self._pending
        return {
            "address": list(self.address),
            "committed_epoch": self.committed_epoch,
            "pending_epoch": pending[0] if pending else None,
            "transfer_window_open": pending is not None,
            "transfer_default_replies": self.transfer_default_replies,
            "lease_refusals_frozen": self.lease_refusals_frozen,
            "chunks_received": self.chunks_received,
            "chunks_duplicate": self.chunks_duplicate,
            "keys_restored": self.keys_restored,
            "keys_purged": self.keys_purged,
        }
