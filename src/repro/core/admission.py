"""The admission controller: a local table of leaky buckets (paper §II-C/D).

This is the logic that runs inside every QoS server node, shared verbatim by
the real-socket runtime (:mod:`repro.runtime`) and the simulator
(:mod:`repro.server`):

- a *local QoS table* holding one leaky bucket per QoS key;
- lazy rule fetch: the first request for a key queries the rule source (the
  database) and materializes a bucket, so new rules are "immediately
  effective as soon as they are added to the database";
- a default-rule fallback for unknown keys (guest / unauthorized traffic);
- periodic synchronization of rule changes from the database and credit
  check-pointing back to it ("configurable update interval");
- a snapshot/restore pair used by the HA slave replication path (§III-C).

Locking
-------
The paper implements the table as one Java *synchronized* hash map and
attributes the QoS server's CPU under-utilization on large instances to
"the implementation of the locking mechanism" (§V-C), naming its
optimization as future work.  We reproduce both designs: with
``lock_shards=1`` (default) the entire admission decision runs under a
single table lock, matching the paper; with ``lock_shards=K`` the keyspace
is partitioned over K locks, implementing the future-work optimization.
The ``ablation_locking`` benchmark quantifies the difference.

The decision itself is *fused*: :meth:`AdmissionController.check` performs
the table lookup, the lazy rule materialization on a miss, the bucket
consume and the statistics update under exactly **one** lock — the key's
shard lock.  Statistics live in one counter stripe per shard, updated under
that same lock and merged lazily by the :attr:`stats` property, and every
maintenance pass (refill, sync, checkpoint, snapshot, restore) walks the
table shard-at-a-time so the hot path is never stalled for longer than one
shard.  ``tests/core/test_lock_discipline.py`` pins the
one-lock-per-decision invariant; ``bench_e2e`` reports the per-key cost as
``admission.check_ns_per_key``.

Storage
-------
Each lock shard keeps its buckets in a :class:`~repro.core.slabstore.SlabShard`:
a ``key -> slot`` index plus parallel columns of credit, last-refill time,
plan and sweep epoch — ~60 bytes per key, allocation-free decisions, and a
housekeeping sweep that walks flat arrays.  :class:`~repro.core.bucket.LeakyBucket`
stays the reference semantics: the slab kernels replicate its arithmetic
op-for-op, and ``tests/core/test_slab_equivalence.py`` drives randomized op
sequences against a one-``LeakyBucket``-per-key reference model and
requires bit-identical admit/deny streams.  A ``LeakyBucket`` is also the
transient bucket that decides an unknown key the default rule does not
memorize.

:meth:`AdmissionController.check_batch` decides a whole protocol-v2 frame at
a time: entries are grouped by shard, each shard lock is taken **once per
frame**, one clock reading is shared by every refill in the shard, and the
verdicts come back as a packed bitmap the server encodes straight into the
v2 response frame.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Protocol, Sequence

from repro.core.bucket import LeakyBucket, RefillMode
from repro.core.clock import MONOTONIC, Clock
from repro.core.config import AdmissionConfig
from repro.core.errors import ConfigurationError
from repro.core.hashing import crc32_of
from repro.core.rules import QoSRule
from repro.core.slabstore import PlanTable, SlabShard, _BITS, _UNIT_THRESHOLD

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "BucketSnapshot",
    "BucketView",
    "InMemoryRuleSource",
    "LeaseSnapshot",
    "RuleSource",
]

#: Credit amounts below this are "zero" for lease accounting (mirrors the
#: bucket's own epsilon; see :mod:`repro.core.bucket`).
_LEASE_EPSILON = 1e-9


class RuleSource(Protocol):
    """What the admission controller needs from the database layer.

    Implemented by :class:`InMemoryRuleSource` (tests, examples) and by
    :class:`repro.db.rulestore.RuleStore` (the relational substrate).
    """

    def get_rule(self, key: str) -> Optional[QoSRule]:
        """Return the rule for ``key`` or ``None`` when no row exists."""
        ...

    def get_rules(self, keys: Iterable[str]) -> Mapping[str, QoSRule]:
        """Batch lookup used by the periodic sync loop."""
        ...

    def checkpoint(self, credits: Mapping[str, float]) -> None:
        """Persist current credits (crash-recovery seed for replacements)."""
        ...


class InMemoryRuleSource:
    """A dict-backed :class:`RuleSource` for tests and single-process use."""

    def __init__(self, rules: Optional[Mapping[str, QoSRule]] = None):
        self._rules: Dict[str, QoSRule] = dict(rules or {})
        self._lock = threading.Lock()

    def get_rule(self, key: str) -> Optional[QoSRule]:
        with self._lock:
            return self._rules.get(key)

    def get_rules(self, keys: Iterable[str]) -> Mapping[str, QoSRule]:
        with self._lock:
            return {k: self._rules[k] for k in keys if k in self._rules}

    def checkpoint(self, credits: Mapping[str, float]) -> None:
        with self._lock:
            for key, credit in credits.items():
                rule = self._rules.get(key)
                if rule is not None:
                    clamped = min(max(credit, 0.0), rule.capacity)
                    self._rules[key] = rule.with_credit(clamped)

    # Admin-side helpers (the service provider's control plane).
    def put_rule(self, rule: QoSRule) -> None:
        with self._lock:
            self._rules[rule.key] = rule

    def delete_rule(self, key: str) -> bool:
        with self._lock:
            return self._rules.pop(key, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._rules)


@dataclass(slots=True)
class AdmissionStats:
    """Counters exported by one admission controller.

    This is a merged, point-in-time view assembled by
    :attr:`AdmissionController.stats` from the per-shard counter stripes;
    mutating it does not feed back into the controller.
    """

    admitted: int = 0
    denied: int = 0
    rule_hits: int = 0          # decisions served from the local table
    rule_misses: int = 0        # decisions that had to query the rule source
    unknown_keys: int = 0       # misses that fell back to the default rule
    syncs: int = 0
    checkpoints: int = 0
    # Credit-lease plane (see lease_grant/lease_return/lease_expire).
    lease_grants: int = 0           # grants issued (credits > 0)
    lease_refusals: int = 0         # requests answered with 0 credits
    lease_granted_credits: float = 0.0
    lease_returns: int = 0
    lease_returned_credits: float = 0.0
    lease_expired: int = 0          # leases that aged out unreturned
    lease_revoked: int = 0          # leases killed by a rule push
    leases_active: int = 0          # live ledger entries (point in time)
    lease_outstanding_credits: float = 0.0  # sum of live grants
    # Bucket-table memory bound (refill_all eviction).
    evicted_idle: int = 0           # full-and-idle buckets dropped lazily
    evicted_forced: int = 0         # idle buckets dropped by the size cap

    @property
    def decisions(self) -> int:
        return self.admitted + self.denied


class _StatsStripe:
    """One shard's block of decision counters.

    The counters are updated while the owning shard's lock is already
    held, so the hot path pays zero extra acquisitions for them.

    ``rule_hits`` is not stored: a hit is any decision that is not a miss,
    so it is derived as ``admitted + denied - rule_misses`` at merge time,
    which spares the hit path one counter increment per decision.
    """

    __slots__ = ("admitted", "denied", "rule_misses", "unknown_keys")

    def __init__(self) -> None:
        self.admitted = 0
        self.denied = 0
        self.rule_misses = 0
        self.unknown_keys = 0


@dataclass(frozen=True, slots=True)
class LeaseSnapshot:
    """One live credit lease, as carried inside a :class:`BucketSnapshot`.

    ``ttl_remaining`` is relative (seconds left at snapshot time) so a
    restore on a different monotonic clock re-arms the expiry correctly.
    ``holder`` is the router address the grant was sent to — opaque to the
    controller, used by the server to aim revocations.
    """

    lease_id: int
    granted: float
    ttl_remaining: float
    holder: "tuple | None" = None


class _LeaseRecord:
    """Ledger entry for one outstanding credit lease (shard-lock guarded)."""

    __slots__ = ("lease_id", "key", "granted", "expiry", "holder")

    def __init__(self, lease_id: int, key: str, granted: float,
                 expiry: float, holder: "tuple | None"):
        self.lease_id = lease_id
        self.key = key
        self.granted = granted
        self.expiry = expiry
        self.holder = holder


@dataclass(frozen=True, slots=True)
class BucketSnapshot:
    """Replication unit sent from an HA master to its slave (§III-C).

    ``leases`` carries the key's live lease-ledger entries: the snapshot
    credit is post-debit, so a restored node that forgot the ledger would
    silently shrink the over-admission bound to zero while routers keep
    spending their balances — restoring the ledger keeps the accounting
    exact across a SIGKILL re-seed.
    """

    key: str
    capacity: float
    refill_rate: float
    credit: float
    leases: "tuple[LeaseSnapshot, ...]" = ()


class BucketView:
    """Introspection adapter presenting one slab slot as a bucket.

    Returned by :meth:`AdmissionController.bucket_for` so tests and metrics
    can read ``capacity``, ``refill_rate``, ``credit`` and
    ``peek_credit()`` like a :class:`~repro.core.bucket.LeakyBucket`.  The
    view holds no slot number: the key is re-resolved under the shard lock
    on every access, so it stays correct across an eviction +
    re-materialization (and raises ``KeyError`` while the key is absent,
    where a stale slot would silently read another bucket's columns).
    """

    __slots__ = ("_controller", "_key")

    def __init__(self, controller: "AdmissionController", key: str):
        self._controller = controller
        self._key = key

    def _resolve(self) -> "tuple[threading.Lock, SlabShard]":
        c = self._controller
        index = c._shard_of(self._key)
        return c._locks[index], c._slabs[index]

    @property
    def capacity(self) -> float:
        lock, slab = self._resolve()
        with lock:
            return slab.capacity_unlocked(slab.index[self._key])

    @property
    def refill_rate(self) -> float:
        lock, slab = self._resolve()
        with lock:
            return slab.refill_rate_unlocked(slab.index[self._key])

    @property
    def credit(self) -> float:
        """Current credit (advanced to now in continuous mode)."""
        lock, slab = self._resolve()
        with lock:
            return slab.credit_unlocked(slab.index[self._key])

    def peek_credit(self) -> float:
        """Credit as of the last update, without advancing time."""
        lock, slab = self._resolve()
        with lock:
            return slab.peek_credit_unlocked(slab.index[self._key])

    def __repr__(self) -> str:
        return (f"BucketView(key={self._key!r}, "
                f"credit={self.peek_credit():.3f})")


class AdmissionController:
    """Per-node admission control over a local table of leaky buckets."""

    def __init__(
        self,
        rule_source: RuleSource,
        config: Optional[AdmissionConfig] = None,
        *,
        clock: Clock = MONOTONIC,
        shard_range: "Optional[tuple[int, int]]" = None,
    ):
        self.config = config or AdmissionConfig()
        self._source = rule_source
        self._clock = clock
        # Cross-node ownership: ``shard_range=(index, count)`` declares
        # this controller the owner of keys with
        # ``crc32(key) % count == index`` (the paper's Fig. 2 partition
        # function, applied intra-node by the multi-process plane).
        # Ownership is advisory — ``check`` still decides any key it is
        # handed (a restart window or a reshard rollout may land
        # out-of-range traffic here) — but :meth:`owns` lets the wire
        # layer route and count hops correctly.
        if shard_range is not None:
            index, count = shard_range
            if count < 1 or not 0 <= index < count:
                raise ConfigurationError(
                    f"shard_range must satisfy 0 <= index < count, "
                    f"got {shard_range}")
        self.shard_range = shard_range
        n_shards = self.config.lock_shards
        self._n_shards = n_shards
        self._locks = [threading.Lock() for _ in range(n_shards)]
        # Decision counters: one stripe per shard, updated under the shard
        # lock the decision already holds.
        self._stripes = [_StatsStripe() for _ in range(n_shards)]
        continuous = self.config.refill_mode is RefillMode.CONTINUOUS
        self._continuous = continuous
        self._plans = PlanTable()
        self._slabs = [SlabShard(self._plans, clock=clock,
                                 continuous=continuous)
                       for _ in range(n_shards)]
        # One (lock, slab, stripe) tuple per shard so the hot path resolves
        # all three with a single attribute lookup and list index.
        self._slab_state = [
            (self._locks[i], self._slabs[i], self._stripes[i])
            for i in range(n_shards)]
        # check_batch's per-group state with the frame kernel prebound —
        # one list index replaces an attribute walk per shard per frame.
        self._slab_frame_state = [
            (lock, slab, slab.consume_frame_unlocked, stripe)
            for lock, slab, stripe in self._slab_state]
        # Cold-path maintenance counters (one maintenance thread at a time
        # in practice; the lock covers concurrent admin callers).
        self._control_lock = threading.Lock()
        self._syncs = 0
        self._checkpoints = 0
        # Credit-lease ledger, sharded like the bucket table and guarded
        # by the same shard locks (a key's grants always serialize with
        # its admission decisions).  ``_lease_outstanding`` caches the
        # per-key sum of live grants so the max_lease_fraction bound is
        # O(1) at grant time.
        self._lease_shards: "list[dict[int, _LeaseRecord]]" = [
            {} for _ in range(n_shards)]
        self._lease_outstanding: "list[dict[str, float]]" = [
            {} for _ in range(n_shards)]
        self._lease_ids = itertools.count(1)
        # Cold-path lease/eviction counters (under _control_lock).
        self._lease_grants = 0
        self._lease_refusals = 0
        self._lease_granted_credits = 0.0
        self._lease_returns = 0
        self._lease_returned_credits = 0.0
        self._lease_expired = 0
        self._lease_revoked = 0
        self._evicted_idle = 0
        self._evicted_forced = 0
        #: Fired (outside any lock) with a list of ``(key, _LeaseRecord)``
        #: pairs whenever a rule push invalidates live leases; the server
        #: installs a sender that aims LEASE_REVOKE frames at the holders.
        self.lease_revoke_hook: "Optional[Callable[[list], None]]" = None

    # ------------------------------------------------------------------ #
    # hot path
    # ------------------------------------------------------------------ #

    def owns(self, key: str) -> bool:
        """Does this controller's shard range cover ``key``?

        Always ``True`` without a ``shard_range``.  Uses CRC32 — the
        cross-node routing hash — so a router hashing over the published
        port map and a worker checking ownership always agree.
        """
        if self.shard_range is None:
            return True
        index, count = self.shard_range
        return crc32_of(key) % count == index

    def _shard_of(self, key: str) -> int:
        # Builtin str hashing, not CRC32: the hash is cached on the string
        # object after the first call, where CRC32 must re-encode the key
        # on every decision.  CRC32 remains the cross-node routing hash
        # (paper Fig. 2); shard choice is process-local.
        if self._n_shards == 1:
            return 0
        return hash(key) % self._n_shards

    def _create_slot_locked(
            self, slab: SlabShard, key: str,
    ) -> "tuple[Optional[int], bool, Optional[LeakyBucket]]":
        """Materialize a slot for ``key`` under its shard lock.

        Returns ``(slot, unknown, transient)`` where ``unknown`` flags a
        key without a database row.  A non-memorized unknown key gets no
        slot: the decision runs against a throwaway ``transient`` bucket
        that is never stored.  Acquires no controller lock: the caller
        folds the miss into its stripe update.
        """
        rule = self._source.get_rule(key)
        if rule is None:
            # Guest/unknown traffic: apply the default rule (§II-D).
            rule = self.config.default_rule.rule_for(key)
            if not self.config.default_rule.memorize_unknown_keys:
                return None, True, LeakyBucket(
                    rule.capacity, rule.refill_rate,
                    mode=self.config.refill_mode, clock=self._clock)
            unknown = True
        else:
            unknown = False
        plan = self._plans.intern(float(rule.capacity),
                                  float(rule.refill_rate))
        slot = slab.insert_unlocked(key, plan, rule.initial_credit())
        return slot, unknown, None

    def check(self, key: str, cost: float = 1.0) -> bool:
        """Decide admission for one request with QoS key ``key``.

        Returns ``True`` to admit, ``False`` to deny.  The whole decision —
        table lookup, lazy rule fetch on miss, bucket consume, statistics —
        executes under exactly one lock: the key's shard lock (which
        reproduces the paper's synchronized-map behaviour when
        ``lock_shards == 1``).
        """
        n = self._n_shards
        lock, slab, stripe = self._slab_state[
            hash(key) % n if n > 1 else 0]
        with lock:
            slot = slab.index.get(key)
            if slot is None:
                slot, unknown, transient = self._create_slot_locked(slab, key)
                stripe.rule_misses += 1
                if unknown:
                    stripe.unknown_keys += 1
                if slot is None:
                    if transient.try_consume_unlocked(cost):
                        stripe.admitted += 1
                        return True
                    stripe.denied += 1
                    return False
            if slab.consume_unlocked(slot, cost):
                stripe.admitted += 1
                return True
            stripe.denied += 1
            return False

    # ------------------------------------------------------------------ #
    # frame-at-a-time admission
    # ------------------------------------------------------------------ #

    def _batch_groups(self, keys: Sequence[str]) -> "list[list[int]]":
        """Group frame positions by lock shard (preserving per-key order).

        ``groups[i]`` holds the frame positions owned by shard ``i``;
        shards the frame does not touch keep an empty list, which callers
        skip.  One hash per key is paid here instead of one lock per key.
        """
        n = self._n_shards
        groups: "list[list[int]]" = [[] for _ in range(n)]
        for pos, key in enumerate(keys):
            groups[hash(key) % n].append(pos)
        return groups

    def check_batch(self, keys: Sequence[str],
                    costs: "Optional[Sequence[float]]" = None) -> int:
        """Decide a whole batch frame; bit ``i`` of the result = verdict
        for ``keys[i]`` (set = admitted).

        This is the frame-at-a-time fast path behind protocol-v2 batch
        frames: entries are grouped by lock shard, each shard lock is taken
        exactly **once per frame**, and one clock reading is shared by every
        refill in the frame, so an N-entry frame costs S lock acquisitions
        for S distinct shards and a single clock read instead of N of each.
        Per-key decision order is preserved within a shard, so repeated keys
        interact with their bucket exactly as N sequential :meth:`check`
        calls would.

        The packed bitmap is what the server encodes straight into the v2
        response frame (see ``protocol.encode_response_frame_bits``).
        """
        n_keys = len(keys)
        if n_keys == 0:
            return 0
        verdicts = 0
        if self._n_shards == 1:
            shard_groups: "Sequence[Sequence[int]]" = [range(n_keys)]
        else:
            shard_groups = self._batch_groups(keys)
        # One clock reading serves the whole frame: every slot's refill
        # guard (``dt <= 0`` → no-op) makes a slightly stale ``now`` safe,
        # and per-slot time still never moves backward.
        now = self._clock()
        unit_continuous = costs is None and self._continuous
        if unit_continuous:
            plan_rate = self._plans.rate
            plan_cap = self._plans.cap
            all_bits = _BITS
            threshold = _UNIT_THRESHOLD
        for index, positions in enumerate(shard_groups):
            if not positions:
                continue
            lock, slab, consume_frame, stripe = self._slab_frame_state[index]
            misses = unknowns = 0
            with lock:
                # One flat column loop for every key already resident;
                # only unseen keys fall out for materialization below.
                # The hottest shape — unit costs against a shard whose
                # live slots all share one plan — is decided right here,
                # with the plan's rate/capacity and every column hoisted
                # into locals, so the steady-state path pays no method
                # call or dispatch per group.  Arithmetic is op-for-op
                # ``SlabShard.consume_unlocked``; mixed plans, explicit
                # costs and interval mode take the general kernel.
                plan = slab.uniform_plan if unit_continuous else None
                if plan is not None:
                    r = plan_rate[plan]
                    c = plan_cap[plan]
                    refilling = r > 0.0
                    slot_of = slab.index
                    col_credit = slab.col_credit
                    col_last = slab.col_last
                    col_touch = slab.col_touch
                    epoch = slab.epoch
                    bits = 0
                    miss_positions = None
                    for pos in positions:
                        try:        # zero-cost until a key misses (3.11+)
                            slot = slot_of[keys[pos]]
                        except KeyError:
                            if miss_positions is None:
                                miss_positions = []
                            miss_positions.append(pos)
                            continue
                        credit = col_credit[slot]
                        dt = now - col_last[slot]
                        if dt > 0.0:
                            col_last[slot] = now
                            if refilling and credit < c:
                                credit += r * dt
                                if credit > c:
                                    credit = c
                        if col_touch[slot] != epoch:
                            col_touch[slot] = epoch
                        if credit >= threshold:
                            credit -= 1.0
                            col_credit[slot] = (
                                credit if credit > 0.0 else 0.0)
                            bits |= all_bits[pos]
                        else:
                            col_credit[slot] = credit
                    admitted = bits.bit_count()
                else:
                    bits, admitted, miss_positions = consume_frame(
                        keys, positions, costs, now)
                verdicts |= bits
                denied = len(positions) - admitted
                if miss_positions is not None:
                    denied -= len(miss_positions)
                    slab_index = slab.index
                    consume = slab.consume_unlocked
                    for pos in miss_positions:
                        key = keys[pos]
                        cost = 1.0 if costs is None else costs[pos]
                        # A key repeated within the frame missed once and
                        # is resident by its second occurrence.
                        slot = slab_index.get(key)
                        if slot is None:
                            slot, unknown, transient = \
                                self._create_slot_locked(slab, key)
                            misses += 1
                            if unknown:
                                unknowns += 1
                            if slot is None:
                                if transient.try_consume_unlocked(cost,
                                                                  now=now):
                                    verdicts |= 1 << pos
                                    admitted += 1
                                else:
                                    denied += 1
                                continue
                        if consume(slot, cost, now):
                            verdicts |= 1 << pos
                            admitted += 1
                        else:
                            denied += 1
                stripe.admitted += admitted
                if denied:
                    stripe.denied += denied
                if misses:
                    stripe.rule_misses += misses
                    stripe.unknown_keys += unknowns
        return verdicts

    # ------------------------------------------------------------------ #
    # credit leases
    # ------------------------------------------------------------------ #

    def lease_grant(self, key: str, want: float, ttl: float,
                    holder: "tuple | None" = None) -> "tuple[int, float, float]":
        """Grant up to ``want`` credits of ``key``'s bucket as a lease.

        Returns ``(lease_id, granted, ttl)``; ``granted == 0`` (with
        ``lease_id == 0``) is a refusal.  The bucket is debited *here*, at
        grant time, under the key's shard lock — the same lock every
        admission decision for the key takes — so the sum the system can
        ever admit is exactly the credits the bucket issued, and the
        worst-case *temporal* over-admission is bounded by the outstanding
        grants, which :attr:`~repro.core.rules.QoSRule.max_lease_fraction`
        (or the config default) caps per key.
        """
        if want <= 0 or ttl <= 0:
            return (0, 0.0, 0.0)
        ttl = min(ttl, self.config.max_lease_ttl)
        rule = self._source.get_rule(key)
        fraction = self.config.max_lease_fraction
        if rule is not None and rule.max_lease_fraction is not None:
            fraction = rule.max_lease_fraction
        n = self._n_shards
        index = hash(key) % n if n > 1 else 0
        lock, slab, _stripe = self._slab_state[index]
        granted = 0.0
        lease_id = 0
        with lock:
            slot = slab.index.get(key)
            transient = None
            if slot is None:
                slot, _unknown, transient = self._create_slot_locked(slab, key)
            outstanding = self._lease_outstanding[index]
            if slot is None:
                capacity = transient.capacity
            else:
                capacity = slab.capacity_unlocked(slot)
            headroom = fraction * capacity - outstanding.get(key, 0.0)
            ask = want if want < headroom else headroom
            if ask > _LEASE_EPSILON:
                if slot is None:
                    granted = transient.lease_debit_unlocked(ask)
                else:
                    granted = slab.lease_debit_unlocked(slot, ask)
            if granted > 0.0:
                lease_id = next(self._lease_ids)
                self._lease_shards[index][lease_id] = _LeaseRecord(
                    lease_id, key, granted, self._clock() + ttl, holder)
                outstanding[key] = outstanding.get(key, 0.0) + granted
        with self._control_lock:
            if granted > 0.0:
                self._lease_grants += 1
                self._lease_granted_credits += granted
            else:
                self._lease_refusals += 1
        return (lease_id, granted, ttl if granted > 0.0 else 0.0)

    def lease_return(self, key: str, lease_id: int, credits: float) -> float:
        """Close lease ``lease_id``, re-crediting its unspent remainder.

        Returns the credits actually accepted back.  The return is
        validated against the ledger — an unknown or stale lease id, a
        mismatched key, or a remainder above the recorded grant yields 0 /
        a clamp, so a confused (or fuzzed) router can never mint credit.
        A valid return with ``credits == 0`` just closes the ledger entry.
        """
        n = self._n_shards
        index = hash(key) % n if n > 1 else 0
        lock, slab, _stripe = self._slab_state[index]
        accepted = 0.0
        closed = False
        with lock:
            record = self._lease_shards[index].get(lease_id)
            if record is not None and record.key == key:
                del self._lease_shards[index][lease_id]
                self._drop_outstanding_locked(index, key, record.granted)
                closed = True
                if credits > 0.0:
                    slot = slab.index.get(key)
                    if slot is not None:
                        give = min(credits, record.granted)
                        accepted = slab.lease_return_unlocked(slot, give)
        if closed:
            with self._control_lock:
                self._lease_returns += 1
                self._lease_returned_credits += accepted
        return accepted

    def _drop_outstanding_locked(self, index: int, key: str,
                                 granted: float) -> None:
        outstanding = self._lease_outstanding[index]
        remaining = outstanding.get(key, 0.0) - granted
        if remaining > _LEASE_EPSILON:
            outstanding[key] = remaining
        else:
            outstanding.pop(key, None)

    def lease_expire(self, now: Optional[float] = None) -> int:
        """Drop ledger entries whose TTL has passed; return how many.

        Expired credit is *not* re-credited: the router may have spent any
        part of its balance, so forfeiting the remainder errs strictly on
        the side of under-admission (bounded by one grant per key per
        TTL).  Routers that want the remainder back return it proactively
        before the TTL.  Runs shard-at-a-time from housekeeping.
        """
        expired = 0
        for index in range(self._n_shards):
            lock = self._locks[index]
            with lock:
                ledger = self._lease_shards[index]
                if not ledger:
                    continue
                cutoff = self._clock() if now is None else now
                dead = [r for r in ledger.values() if r.expiry <= cutoff]
                for record in dead:
                    del ledger[record.lease_id]
                    self._drop_outstanding_locked(index, record.key,
                                                  record.granted)
                expired += len(dead)
        if expired:
            with self._control_lock:
                self._lease_expired += expired
        return expired

    def lease_count(self) -> int:
        """Live ledger entries across all shards (point-in-time)."""
        # Lock-free stat: the shard list is immutable after __init__ and
        # len() of each dict is atomic under the GIL — a stale count is
        # acceptable for a point-in-time gauge.
        # janus-lint: disable=guard-inference
        return sum(len(s) for s in self._lease_shards)

    def lease_outstanding_total(self) -> float:
        """Sum of live granted credits — the current over-admission bound."""
        total = 0.0
        for index in range(self._n_shards):
            with self._locks[index]:
                total += sum(self._lease_outstanding[index].values())
        return total

    def _revoke_leases_for_key_locked(self, index: int,
                                      key: str) -> "list[_LeaseRecord]":
        """Kill ``key``'s live leases under its shard lock (rule push)."""
        ledger = self._lease_shards[index]
        doomed = [r for r in ledger.values() if r.key == key]
        for record in doomed:
            del ledger[record.lease_id]
            self._drop_outstanding_locked(index, key, record.granted)
        return doomed

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> AdmissionStats:
        """Merged view of the per-shard counter stripes.

        Lazily assembled on access; individual int reads are atomic under
        the GIL, so the merge never blocks the hot path.  Counters from
        different stripes may be skewed by in-flight decisions, exactly as
        a locked read taken a moment earlier or later would be.
        """
        merged = AdmissionStats(
            syncs=self._syncs,
            checkpoints=self._checkpoints,
            lease_grants=self._lease_grants,
            lease_refusals=self._lease_refusals,
            lease_granted_credits=self._lease_granted_credits,
            lease_returns=self._lease_returns,
            lease_returned_credits=self._lease_returned_credits,
            lease_expired=self._lease_expired,
            lease_revoked=self._lease_revoked,
            leases_active=self.lease_count(),
            lease_outstanding_credits=self.lease_outstanding_total(),
            evicted_idle=self._evicted_idle,
            evicted_forced=self._evicted_forced)
        for stripe in self._stripes:
            merged.admitted += stripe.admitted
            merged.denied += stripe.denied
            merged.rule_misses += stripe.rule_misses
            merged.unknown_keys += stripe.unknown_keys
        # Hits are derived (see _StatsStripe); clamp against the transient
        # skew of reading admitted/denied before a concurrent miss lands.
        merged.rule_hits = max(
            0, merged.admitted + merged.denied - merged.rule_misses)
        return merged

    def stats_snapshot(self) -> dict:
        """The merged stats as a plain dict (metrics-export shape)."""
        s = self.stats
        return {
            "admitted": s.admitted,
            "denied": s.denied,
            "rule_hits": s.rule_hits,
            "rule_misses": s.rule_misses,
            "unknown_keys": s.unknown_keys,
            "syncs": s.syncs,
            "checkpoints": s.checkpoints,
            "lease_grants": s.lease_grants,
            "lease_refusals": s.lease_refusals,
            "lease_granted_credits": s.lease_granted_credits,
            "lease_returns": s.lease_returns,
            "lease_returned_credits": s.lease_returned_credits,
            "lease_expired": s.lease_expired,
            "lease_revoked": s.lease_revoked,
            "leases_active": s.leases_active,
            "lease_outstanding_credits": s.lease_outstanding_credits,
            "evicted_idle": s.evicted_idle,
            "evicted_forced": s.evicted_forced,
        }

    def stripe_snapshots(self) -> "list[Callable[[], dict]]":
        """One live dict-snapshot callable per stats stripe.

        Lets an exporter surface the *distribution* of decisions across
        stripes (how even the shard hashing is, whether one stripe is
        hot) without adding any bookkeeping to the decision path: the
        callables read the stripe counters lazily at scrape time.
        """
        def make(stripe: _StatsStripe) -> "Callable[[], dict]":
            return lambda: {
                "admitted": stripe.admitted,
                "denied": stripe.denied,
                "rule_misses": stripe.rule_misses,
                "unknown_keys": stripe.unknown_keys,
            }
        return [make(stripe) for stripe in self._stripes]

    # ------------------------------------------------------------------ #
    # housekeeping (driven by threads in the runtime, events in the sim)
    # ------------------------------------------------------------------ #

    def refill_all(self) -> int:
        """Housekeeping refill pass over every bucket (INTERVAL mode).

        Returns the number of buckets refilled.  Harmless (a no-op advance)
        in CONTINUOUS mode.  The pass is shard-at-a-time: each shard lock
        is held only long enough to advance that shard's buckets with one
        shared clock reading, so workers on the other shards are never
        stalled.

        The pass doubles as the bucket-table memory bound.  A bucket that
        saw no decision since the previous sweep *and* sits at full credit
        is dropped; when ``max_table_entries`` caps the table and it is
        over the cap, idle-but-not-full buckets are evicted too.  Every
        evicted bucket's credit is check-pointed to the rule source
        first, so the next materialization resumes from it — eviction is
        lossless even for rules carrying a stale check-pointed credit.
        Keys with outstanding credit leases are never evicted.
        """
        count = 0
        cap = self.config.max_table_entries
        force_budget = max(0, self.table_size() - cap) if cap else 0
        evicted_idle = 0
        evicted_forced = 0
        evict_credits: Dict[str, float] = {}
        for index, (lock, slab, _stripe) in enumerate(self._slab_state):
            with lock:
                now = self._clock()
                leased = self._lease_outstanding[index]
                epoch = slab.epoch
                touch = slab.col_touch
                doomed: "list[str] | None" = None
                for key, slot in slab.index.items():
                    slab.advance_unlocked(slot, now)
                    # An untouched slot saw no decision since the previous
                    # sweep.  Freshly inserted slots carry the current
                    # epoch, so a bucket always survives at least one full
                    # sweep interval.
                    if touch[slot] == epoch or key in leased:
                        continue
                    credit = slab.credit_unlocked(slot, now)
                    if credit >= slab.capacity_unlocked(slot) - _LEASE_EPSILON:
                        evicted_idle += 1
                    elif evicted_forced < force_budget:
                        evicted_forced += 1
                    else:
                        continue
                    evict_credits[key] = credit
                    if doomed is None:
                        doomed = []
                    doomed.append(key)
                count += len(slab.index)
                if doomed:
                    for key in doomed:
                        slab.evict_unlocked(key)
                slab.bump_epoch_unlocked()
        if evict_credits:
            self._source.checkpoint(evict_credits)   # no lock held
        if evicted_idle or evicted_forced:
            with self._control_lock:
                self._evicted_idle += evicted_idle
                self._evicted_forced += evicted_forced
        return count

    def sync_rules(self) -> int:
        """Pull rule updates from the source for all locally known keys.

        "The QoS server makes queries to the database with the QoS keys in
        the local QoS rule table with a configurable update interval"
        (§II-D).  Keys whose rows were deleted fall back to the default
        rule; changed capacity/rate are applied in place.  Returns the
        number of buckets updated.
        """
        local_keys = self.local_keys()
        fresh = self._source.get_rules(local_keys)
        updated = 0
        revoked: "list[tuple[str, _LeaseRecord]]" = []
        for key in local_keys:
            shard = self._shard_of(key)
            slab = self._slabs[shard]
            with self._locks[shard]:
                slot = slab.index.get(key)
                if slot is None:
                    continue
                rule = fresh.get(key)
                if rule is None:
                    target = (self.config.default_rule.capacity,
                              self.config.default_rule.refill_rate)
                else:
                    target = (rule.capacity, rule.refill_rate)
                if (slab.capacity_unlocked(slot),
                        slab.refill_rate_unlocked(slot)) != target:
                    slab.set_plan_unlocked(slot, self._plans.intern(
                        float(target[0]), float(target[1])))
                    updated += 1
                    # A changed rule invalidates outstanding leases: a
                    # router spending a stale balance would keep admitting
                    # at the old plan for up to a TTL.
                    for record in self._revoke_leases_for_key_locked(
                            shard, key):
                        revoked.append((key, record))
        with self._control_lock:
            self._syncs += 1
            self._lease_revoked += len(revoked)
        if revoked and self.lease_revoke_hook is not None:
            self.lease_revoke_hook(revoked)       # outside every lock
        return updated

    def checkpoint(self) -> int:
        """Push current credits to the rule source (§II-D check-pointing).

        Returns the number of keys check-pointed.
        """
        credits: Dict[str, float] = {}
        for lock, slab, _stripe in self._slab_state:
            with lock:
                now = self._clock()
                for key, slot in slab.index.items():
                    credits[key] = slab.credit_unlocked(slot, now)
        self._source.checkpoint(credits)      # DB round trip: no lock held
        with self._control_lock:
            self._checkpoints += 1
        return len(credits)

    # ------------------------------------------------------------------ #
    # replication / introspection
    # ------------------------------------------------------------------ #

    def local_keys(self) -> list[str]:
        """All keys currently materialized in the local QoS table."""
        keys: list[str] = []
        for lock, slab, _stripe in self._slab_state:
            with lock:
                keys.extend(slab.index.keys())
        return keys

    def table_size(self) -> int:
        return sum(len(slab) for slab in self._slabs)

    def bucket_for(self, key: str) -> Optional[BucketView]:
        """Direct bucket access (tests and metrics only)."""
        shard = self._shard_of(key)
        with self._locks[shard]:
            if key not in self._slabs[shard].index:
                return None
        return BucketView(self, key)

    def snapshot(self) -> list[BucketSnapshot]:
        """Consistent-enough copy of the local table for HA replication.

        Each bucket is snapshotted atomically; the table as a whole is not
        frozen, which matches the paper's continuously replicating slave.
        """
        snaps: list[BucketSnapshot] = []
        for index, (lock, slab, _stripe) in enumerate(self._slab_state):
            with lock:
                now = self._clock()
                ledger = self._lease_shards[index]
                by_key: "dict[str, list[LeaseSnapshot]]" = {}
                for record in ledger.values():
                    remaining = record.expiry - now
                    if remaining <= 0:
                        continue
                    by_key.setdefault(record.key, []).append(LeaseSnapshot(
                        lease_id=record.lease_id, granted=record.granted,
                        ttl_remaining=remaining, holder=record.holder))
                for key, slot in slab.index.items():
                    snaps.append(BucketSnapshot(
                        key=key, capacity=slab.capacity_unlocked(slot),
                        refill_rate=slab.refill_rate_unlocked(slot),
                        credit=slab.credit_unlocked(slot, now),
                        leases=tuple(by_key.get(key, ()))))
        return snaps

    def restore(self, snapshots: Iterable[BucketSnapshot]) -> int:
        """Load a replicated table (slave promotion / replacement node).

        Lease-ledger entries ride in the snapshots: the snapshot credit is
        post-debit, so restoring the ledger (rather than forgetting it)
        keeps the outstanding-grant bound intact and lets the restored
        node validate returns and expire the grants on schedule.
        """
        count = 0
        max_lease_id = 0
        for snap in snapshots:
            shard = self._shard_of(snap.key)
            slab = self._slabs[shard]
            with self._locks[shard]:
                plan = self._plans.intern(float(snap.capacity),
                                          float(snap.refill_rate))
                slot = slab.index.get(snap.key)
                if slot is None:
                    slab.insert_unlocked(snap.key, plan, snap.credit)
                else:
                    slab.set_plan_unlocked(slot, plan)
                    slab.restore_credit_unlocked(slot, snap.credit)
                if snap.leases:
                    now = self._clock()
                    ledger = self._lease_shards[shard]
                    outstanding = self._lease_outstanding[shard]
                    for lease in snap.leases:
                        if lease.lease_id in ledger or \
                                lease.ttl_remaining <= 0:
                            continue
                        ledger[lease.lease_id] = _LeaseRecord(
                            lease.lease_id, snap.key, lease.granted,
                            now + lease.ttl_remaining, lease.holder)
                        outstanding[snap.key] = (
                            outstanding.get(snap.key, 0.0) + lease.granted)
                        if lease.lease_id > max_lease_id:
                            max_lease_id = lease.lease_id
            count += 1
        if max_lease_id:
            # Never re-issue a restored id: a router still holding the
            # old lease must not collide with a fresh grant.
            with self._control_lock:
                self._lease_ids = itertools.count(
                    max(max_lease_id + 1, next(self._lease_ids)))
        return count

    def drop_buckets(self, keys: "Iterable[str]") -> int:
        """Release buckets that moved to another owner (reshard COMMIT).

        The moved keys' snapshots — credit *and* lease ledger — already
        travelled to the new owner, so the stale residents are dropped
        without re-crediting anything: the transferred ledger keeps the
        debit, and a resident left behind would double-count credit in
        fleet-wide accounting and check-point stale values over the new
        owner's.  Returns the number of buckets actually dropped.
        """
        dropped = 0
        for key in keys:
            shard = self._shard_of(key)
            slab = self._slabs[shard]
            with self._locks[shard]:
                if key in slab.index:
                    slab.evict_unlocked(key)
                    dropped += 1
                # Ledger entries for the moved key went with the
                # snapshot; dropping the local copies is not a revoke
                # (no hook, no re-credit — the new owner holds them).
                self._revoke_leases_for_key_locked(shard, key)
        return dropped

    def table_bytes(self) -> int:
        """Resident bytes of the slab columns, index and plan table.

        Walks the table under the shard locks at scrape time (metrics
        gauge).
        """
        total = self._plans.bytes_resident()
        for lock, slab, _stripe in self._slab_state:
            with lock:
                total += slab.bytes_resident()
        return total
