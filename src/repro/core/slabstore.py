"""Columnar slab storage for the QoS table (perf: bucket ≈ 60 bytes).

Mapping each QoS key to a full :class:`~repro.core.bucket.LeakyBucket` heap
object — a lock, an enum, two lifetime counters, a clock reference — costs
several hundred bytes per key and a pointer chase per decision; at a 10M-key
scale that table alone is gigabytes.  The admission controller's table
therefore stores the same state *columnar*: one
:class:`SlabShard` per lock shard holding a ``key -> slot`` dict index plus
parallel :mod:`array` columns indexed by slot:

======================  ===========  ==========================================
column                  storage      meaning
======================  ===========  ==========================================
``col_credit``          ``list``     current credit (the paper's "water level")
``col_last``            ``'d'``      monotonic time of the last refill advance
``col_plan``            ``'I'``      index into the shared :class:`PlanTable`
``col_touch``           ``'B'``      sweep epoch of the last admission decision
======================  ===========  ==========================================

``col_credit`` is a plain list rather than an ``array('d')`` on purpose:
credit is the one value both *read and written* by every decision, and an
``array`` subscript must box a fresh float object per read while a list
read hands back the float the previous write stored.  The ~24 bytes/key
the float objects cost buys the admission kernel its single biggest
per-decision saving; the three read-mostly columns stay packed arrays.

Two further tricks keep the marginal cost per key near the raw column bytes:

- *Plan interning*: ``(capacity, refill_rate)`` pairs repeat massively (every
  tenant on the same purchased plan shares one), so buckets store a 4-byte
  index into an append-only :class:`PlanTable` instead of two 8-byte floats.
- *Slot-int flyweights*: the index dict's values are drawn from a shared
  module-level cache of int objects, so a million-entry index does not pin a
  million 28-byte ints — only the dict entries themselves.

Eviction pushes a slot onto a free list for reuse, so the columns never
shrink but also never grow past the high-water mark of live keys.

Semantics are bit-for-bit those of :class:`~repro.core.bucket.LeakyBucket`:
every accessor below replicates the bucket arithmetic operation-for-operation
(same clamp forms, same epsilon comparisons), which
``tests/core/test_slab_equivalence.py`` pins by driving randomized op
sequences against a reference model built from one ``LeakyBucket`` per key.

Lock-discipline contract (machine-checked)
------------------------------------------

A :class:`SlabShard` performs no locking of its own: **every** slot accessor
carries the ``_unlocked`` suffix and must run under the admission
controller's shard lock, exactly like the bucket fast-path methods.
``janus lint``'s ``lock-discipline`` rule enforces this for calls, and
additionally flags any direct ``col_*`` column subscript outside a ``with
<lock>:`` block or ``*_unlocked``/``*_locked`` method, so slot reads/writes
by index carry the same machine-checked obligation as bucket methods.  The
one exception is :class:`PlanTable`, which takes its own (append-only,
low-contention) lock and whose column reads are GIL-atomic.
"""

from __future__ import annotations

import sys
import threading
from array import array
from typing import Optional

from repro.core.clock import MONOTONIC, Clock

__all__ = ["PlanTable", "SlabShard"]

#: Mirrors :data:`repro.core.bucket._CREDIT_EPSILON` — floating-point dust
#: must not admit an extra request in INTERVAL mode.
_CREDIT_EPSILON = 1e-9

#: The continuous-mode admit threshold for a unit cost, precomputed as the
#: exact same expression ``LeakyBucket`` evaluates (``amount * (1.0 -
#: 1e-12)`` with ``amount == 1.0``) so the specialized frame loop compares
#: against bit-identical bounds.
_UNIT_THRESHOLD = 1.0 * (1.0 - 1e-12)

#: Resident size of one boxed float, for the credit column's accounting.
_FLOAT_BYTES = sys.getsizeof(1.0)

# --------------------------------------------------------------------------- #
# slot-int flyweights
# --------------------------------------------------------------------------- #

#: Shared cache of canonical int objects used as index-dict values and
#: free-list entries.  CPython only interns ints up to 256; storing a fresh
#: ``int`` per key would cost 28 resident bytes each, a third of the whole
#: per-key budget.  Grown on demand under ``_SLOT_INTS_LOCK``; reads are
#: GIL-atomic.
_SLOT_INTS: "list[int]" = list(range(4096))
_SLOT_INTS_LOCK = threading.Lock()


def _slot_int(slot: int) -> int:
    """The canonical int object for ``slot`` (grow the cache if needed)."""
    try:
        return _SLOT_INTS[slot]
    except IndexError:
        pass
    with _SLOT_INTS_LOCK:
        while len(_SLOT_INTS) <= slot:
            _SLOT_INTS.append(len(_SLOT_INTS))
    return _SLOT_INTS[slot]


#: Precomputed frame-position bit masks: ``_BITS[pos] == 1 << pos`` without
#: allocating a fresh int per admitted entry in the frame kernels.
_BITS: "list[int]" = [1 << i for i in range(4096)]


class PlanTable:
    """Append-only interning table of ``(capacity, refill_rate)`` pairs.

    Shared by every shard of one controller.  :meth:`intern` is called with
    a shard lock held (bucket materialization, rule sync), so it guards its
    append with its own inner lock — a strict shard-lock → plan-lock order,
    never reversed.  Slot *reads* (``cap[i]``/``rate[i]``) are single
    GIL-atomic array subscripts on append-only storage and therefore take
    no lock at all, which is what keeps the admission hot path at one lock.

    Worst case the table holds one entry per distinct plan ever seen —
    rule churn adds entries but realistic deployments have a handful of
    purchased plans across millions of keys.
    """

    __slots__ = ("cap", "rate", "_ids", "_lock")

    def __init__(self) -> None:
        # Plain lists, not array('d'): the table is tiny (one entry per
        # distinct plan), and list reads hand back the stored float object
        # without the boxing allocation an array subscript pays — these
        # are the hottest reads in the admission kernel.
        self.cap: "list[float]" = []
        self.rate: "list[float]" = []
        self._ids: "dict[tuple[float, float], int]" = {}
        self._lock = threading.Lock()

    def intern(self, capacity: float, refill_rate: float) -> int:
        """Return the plan id for the pair, appending it on first sight."""
        pair = (capacity, refill_rate)
        plan = self._ids.get(pair)          # GIL-atomic read, no lock
        if plan is not None:
            return plan
        with self._lock:
            plan = self._ids.get(pair)
            if plan is None:
                plan = len(self.cap)
                self.cap.append(float(capacity))
                self.rate.append(float(refill_rate))
                self._ids[pair] = plan
            return plan

    def __len__(self) -> int:
        return len(self.cap)

    def bytes_resident(self) -> int:
        """Approximate resident bytes (arrays + interning dict)."""
        return (sys.getsizeof(self.cap) + sys.getsizeof(self.rate)
                + sys.getsizeof(self._ids))


class SlabShard:
    """One lock shard's bucket state as parallel columns.

    All slot accessors are ``*_unlocked``: the owning admission controller's
    shard lock must be held (see the module docstring).  The shard itself
    owns no lock object — it cannot even accidentally nest one.
    """

    __slots__ = ("index", "free", "plans", "epoch", "uniform_plan",
                 "col_credit", "col_last", "col_plan", "col_touch",
                 "_clock", "_continuous")

    def __init__(self, plans: PlanTable, clock: Clock = MONOTONIC,
                 continuous: bool = True):
        #: key -> slot; values are flyweight ints from :data:`_SLOT_INTS`.
        self.index: "dict[str, int]" = {}
        #: Evicted slots awaiting reuse (canonical int objects).
        self.free: "list[int]" = []
        self.plans = plans
        #: The one plan id every live slot shares, or ``None`` when the
        #: shard is empty or holds a mix.  SaaS tables are dominated by a
        #: handful of purchased plans, so whole shards are routinely
        #: uniform — the frame kernel then hoists the plan's rate and
        #: capacity out of its loop and skips the per-slot plan read.
        #: Conservatively sticky: a mixed shard stays ``None`` until it
        #: drains to a single key (correctness never depends on it).
        self.uniform_plan: "Optional[int]" = None
        #: Housekeeping sweep epoch (mod 256); a slot whose ``col_touch``
        #: differs saw no decision since the previous sweep.  The one-byte
        #: epoch stands in for a bucket's two 8-byte lifetime counters;
        #: the wrap means a bucket idle for exactly 256 sweeps reads as
        #: active once, delaying its eviction by a single sweep interval.
        self.epoch = 0
        #: Plain list — see the module docstring for why credit alone is
        #: stored boxed.
        self.col_credit: "list[float]" = []
        self.col_last = array("d")
        self.col_plan = array("I")
        self.col_touch = array("B")
        self._clock = clock
        self._continuous = continuous

    def __len__(self) -> int:
        return len(self.index)

    # ------------------------------------------------------------------ #
    # slot lifecycle
    # ------------------------------------------------------------------ #

    def insert_unlocked(self, key: str, plan: int, credit: float,
                        now: Optional[float] = None) -> int:
        """Materialize ``key`` with ``plan`` and a clamped starting credit.

        Mirrors ``LeakyBucket.__init__``: credit is clamped into
        ``[0, capacity]`` and the refill clock starts *now*.  Returns the
        slot; the caller must not insert a key that is already present.
        """
        capacity = self.plans.cap[plan]
        credit = float(credit)
        if credit < 0.0:
            credit = 0.0
        elif credit > capacity:
            credit = capacity
        free = self.free
        if free:
            slot = free.pop()
            self.col_credit[slot] = credit
            self.col_last[slot] = self._clock() if now is None else now
            self.col_plan[slot] = plan
            self.col_touch[slot] = self.epoch
        else:
            slot = _slot_int(len(self.col_credit))
            self.col_credit.append(credit)
            self.col_last.append(self._clock() if now is None else now)
            self.col_plan.append(plan)
            self.col_touch.append(self.epoch)
        self.index[key] = slot
        if len(self.index) == 1:
            self.uniform_plan = plan
        elif plan != self.uniform_plan:
            self.uniform_plan = None
        return slot

    def evict_unlocked(self, key: str) -> None:
        """Drop ``key`` and recycle its slot via the free list."""
        slot = self.index.pop(key)
        self.free.append(slot)

    # ------------------------------------------------------------------ #
    # hot path
    # ------------------------------------------------------------------ #

    def consume_unlocked(self, slot: int, amount: float = 1.0,
                         now: Optional[float] = None) -> bool:
        """``LeakyBucket.try_consume_unlocked`` over the columns.

        Op-for-op the bucket arithmetic (same clamp comparisons, same
        admission thresholds) so the slab admits and denies exactly the
        stream a ``LeakyBucket`` would, bit-for-bit.  ``now`` lets a batch caller reuse one clock
        reading for a whole frame's worth of slots.
        """
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        col_credit = self.col_credit
        credit = col_credit[slot]
        if self._continuous:
            if now is None:
                now = self._clock()
            col_last = self.col_last
            dt = now - col_last[slot]
            if dt > 0.0:
                col_last[slot] = now
                plan = self.col_plan[slot]
                rate = self.plans.rate[plan]
                if rate > 0.0:
                    capacity = self.plans.cap[plan]
                    if credit < capacity:
                        credit += rate * dt
                        if credit > capacity:
                            credit = capacity
            admit = credit >= amount * (1.0 - 1e-12)
        else:
            admit = credit > _CREDIT_EPSILON
        # Stamp the sweep epoch only when it moved: an array('B') store
        # range-checks its operand and costs ~3x the read-and-compare, and
        # between sweeps the stamp is almost always already current.
        col_touch = self.col_touch
        if col_touch[slot] != self.epoch:
            col_touch[slot] = self.epoch
        if admit:
            credit -= amount
            col_credit[slot] = credit if credit > 0.0 else 0.0
            return True
        col_credit[slot] = credit
        return False

    def consume_frame_unlocked(
            self, keys, positions, costs,
            now: float) -> "tuple[int, int, Optional[list[int]]]":
        """Decide every *resident* key of one frame in a single flat loop.

        The batch analogue of :meth:`consume_unlocked`: identical
        arithmetic, but the columns, the plan table and the epoch are
        hoisted into locals once per frame instead of being re-resolved
        per decision — this loop is why frame-at-a-time admission beats
        per-key calls.  Keys absent from the index are *not* decided;
        their positions come back in the third element (``None`` when the
        whole frame hit) for the caller to materialize — still under the
        same shard lock — and decide in position order, which preserves
        the sequential admit/deny stream exactly (occurrences of one key
        keep their relative order; distinct keys share no state).

        This is the mixed-plan / per-cost / interval-mode kernel.  The
        hottest shape — unit costs against a shard whose live slots all
        share one plan (``uniform_plan``) — is decided by an even flatter
        loop inlined in ``AdmissionController.check_batch`` (inside
        the ``with lock:`` block, same ops in the same order) so the
        steady-state path pays no method call or dispatch at all.

        Returns ``(verdict_bits, admitted, miss_positions)``.
        """
        index = self.index
        col_credit = self.col_credit
        col_last = self.col_last
        col_plan = self.col_plan
        col_touch = self.col_touch
        cap = self.plans.cap
        rate = self.plans.rate
        bits = _BITS
        epoch = self.epoch
        continuous = self._continuous
        verdicts = 0
        misses: "Optional[list[int]]" = None
        cost = 1.0
        for pos in positions:
            # Plain subscript + except beats ``dict.get`` here: the lookup
            # is one BINARY_SUBSCR instead of a bound-method call, and a
            # 3.11+ try block costs nothing unless a key actually misses.
            try:
                slot = index[keys[pos]]
            except KeyError:
                if misses is None:
                    misses = []
                misses.append(pos)
                continue
            if costs is not None:
                cost = costs[pos]
                if cost <= 0:
                    raise ValueError(f"amount must be > 0, got {cost}")
            credit = col_credit[slot]
            if continuous:
                dt = now - col_last[slot]
                if dt > 0.0:
                    col_last[slot] = now
                    plan = col_plan[slot]
                    r = rate[plan]
                    if r > 0.0:
                        c = cap[plan]
                        if credit < c:
                            credit += r * dt
                            if credit > c:
                                credit = c
                admit = credit >= cost * (1.0 - 1e-12)
            else:
                admit = credit > _CREDIT_EPSILON
            if col_touch[slot] != epoch:    # see consume_unlocked
                col_touch[slot] = epoch
            if admit:
                credit -= cost
                col_credit[slot] = credit if credit > 0.0 else 0.0
                verdicts |= bits[pos]
            else:
                col_credit[slot] = credit
        admitted = verdicts.bit_count()
        return verdicts, admitted, misses

    # ------------------------------------------------------------------ #
    # credit leases
    # ------------------------------------------------------------------ #

    def lease_debit_unlocked(self, slot: int, amount: float,
                             now: Optional[float] = None) -> float:
        """``LeakyBucket.lease_debit_unlocked`` over the columns."""
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        if self._continuous:
            self.advance_unlocked(slot, self._clock() if now is None else now)
        credit = self.col_credit[slot]
        grant = credit if credit < amount else amount
        if grant <= _CREDIT_EPSILON:
            return 0.0
        self.col_credit[slot] = credit - grant
        return grant

    def lease_return_unlocked(self, slot: int, amount: float) -> float:
        """``LeakyBucket.lease_return_unlocked`` over the columns."""
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        capacity = self.plans.cap[self.col_plan[slot]]
        credit = self.col_credit[slot] + amount
        new = credit if credit < capacity else capacity
        self.col_credit[slot] = new
        return new - credit + amount

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def advance_unlocked(self, slot: int, now: float) -> None:
        """``LeakyBucket.advance_unlocked`` over the columns."""
        dt = now - self.col_last[slot]
        if dt <= 0.0:
            return
        self.col_last[slot] = now
        plan = self.col_plan[slot]
        rate = self.plans.rate[plan]
        if rate > 0.0:
            capacity = self.plans.cap[plan]
            credit = self.col_credit[slot]
            if credit < capacity:
                credit += rate * dt
                self.col_credit[slot] = credit if credit < capacity else capacity

    def set_plan_unlocked(self, slot: int, plan: int) -> None:
        """``LeakyBucket.update_rule_unlocked``: advance, switch, clamp."""
        self.advance_unlocked(slot, self._clock())
        self.col_plan[slot] = plan
        if len(self.index) == 1:
            self.uniform_plan = plan
        elif plan != self.uniform_plan:
            self.uniform_plan = None
        capacity = self.plans.cap[plan]
        if self.col_credit[slot] > capacity:
            self.col_credit[slot] = capacity

    def restore_credit_unlocked(self, slot: int, credit: float) -> None:
        """``LeakyBucket.restore_credit_unlocked``: clamp, restart clock."""
        capacity = self.plans.cap[self.col_plan[slot]]
        credit = float(credit)
        if credit < 0.0:
            credit = 0.0
        elif credit > capacity:
            credit = capacity
        self.col_credit[slot] = credit
        self.col_last[slot] = self._clock()

    def bump_epoch_unlocked(self) -> None:
        """Close a housekeeping sweep: decisions from here on are 'fresh'."""
        self.epoch = (self.epoch + 1) & 0xFF

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def credit_unlocked(self, slot: int, now: Optional[float] = None) -> float:
        """``LeakyBucket.credit_unlocked``: advanced to now when continuous."""
        if self._continuous:
            self.advance_unlocked(slot, self._clock() if now is None else now)
        return self.col_credit[slot]

    def peek_credit_unlocked(self, slot: int) -> float:
        """Credit as of the last update, without advancing time."""
        return self.col_credit[slot]

    def capacity_unlocked(self, slot: int) -> float:
        return self.plans.cap[self.col_plan[slot]]

    def refill_rate_unlocked(self, slot: int) -> float:
        return self.plans.rate[self.col_plan[slot]]

    def bytes_resident(self) -> int:
        """Approximate resident bytes of this shard (index + columns).

        The credit column is a list of boxed floats, so its float objects
        are charged explicitly (``getsizeof`` of a list sees only the
        pointer vector).  The flyweight slot ints and the shared plan
        table are excluded — the former are process-wide singletons, the
        latter is counted once per controller by the caller.
        """
        return (sys.getsizeof(self.index) + sys.getsizeof(self.free)
                + sys.getsizeof(self.col_credit)
                + _FLOAT_BYTES * len(self.col_credit)
                + sys.getsizeof(self.col_last)
                + sys.getsizeof(self.col_plan) + sys.getsizeof(self.col_touch))
