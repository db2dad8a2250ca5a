"""Leaky bucket with a refill mechanism (paper §II-C, Fig. 3, Eqs. 1–2).

Each QoS rule is represented by one leaky bucket.  The bucket holds *credit*
(the paper's "water level"), bounded by its *capacity* ``C``; it is refilled
at the purchased access rate ``A`` and consumed one credit per admitted
request, so the available credit follows

    f(t) = C + (A - B) * t,     clamped to   0 <= f(t) <= C          (Eq. 1-2)

Unused credit accumulates up to ``C``, which is what allows the occasional
burst the paper demonstrates in Fig. 13a (a refill rate of 100 rps with a
capacity of 1000 lets a client run at 130 rps until the stored credit
drains, then settle at exactly the refill rate).

Two refill modes are provided:

- :attr:`RefillMode.CONTINUOUS` (default) — credit is recomputed lazily from
  elapsed time on every access.  This is exact and needs no housekeeping.
- :attr:`RefillMode.INTERVAL` — credit only changes when :meth:`refill` is
  called, matching the paper's implementation where "the local QoS table is
  maintained by a house-keeping thread, which refills the leaky buckets ...
  with predefined intervals" (§III-C).  The interval mode trades a small
  admission error (bounded by ``rate * interval``) for a cheaper hot path;
  the ``ablation_refill`` benchmark quantifies the trade.

The class is thread-safe: the real runtime's worker threads consume from the
same bucket map concurrently.

Two API layers are exposed:

- the *locked* methods (:meth:`try_consume`, :meth:`refill`, …) take the
  bucket's own lock and are safe for standalone use;
- the *unlocked* fast-path methods (:meth:`try_consume_unlocked`,
  :meth:`advance_unlocked`, …) assume the caller already serializes access
  with an external lock.  The admission controller holds its shard lock for
  the whole decision and uses these to avoid a nested shard-lock →
  bucket-lock acquisition on every request (the paper's §V-C bottleneck).
  The lifetime counters (``consumed_total``/``denied_total``) are plain
  attributes guarded by whichever lock protects the consume, so the fused
  path pays no extra synchronization for them.

Lock-discipline contract (machine-checked)
------------------------------------------

The ``_unlocked`` suffix is a load-bearing naming convention, enforced by
``janus lint``'s ``lock-discipline`` rule: any call to a ``*_unlocked``
method must appear lexically inside a ``with <lock>:`` block or inside
another ``*_unlocked``/``*_locked`` method (whose caller, transitively,
holds the lock).  When adding a fast-path method here, keep the suffix; when
calling one from new code, take the owning lock first or inherit the
suffix so the obligation stays visible to both readers and the linter.
See ``docs/ANALYSIS.md`` for the rule catalog and pragma escape hatch.

Relationship to the columnar slab store
---------------------------------------

This class is the *reference semantics* for a bucket.  The admission
controller's table (``repro.core.slabstore``) does not hold
``LeakyBucket`` instances at all — it packs the same state (credit,
last-refill time, plan) into parallel columns and re-implements Eqs. 1–2
in flat loops, bit-exactly: the admit/deny stream and stored credits must
match this class on every workload (``tests/core/test_slab_equivalence.py``
enforces it by driving randomized sequences against a reference model
built from one ``LeakyBucket`` per key).  The controller itself uses a
``LeakyBucket`` only as the transient bucket that decides an unknown key
the default rule does not memorize.  When changing refill or consume
semantics here, change the slab kernels in lock-step — the equivalence
suite will catch a drift, but only if the new behaviour is covered by a
test.
"""

from __future__ import annotations

import enum
import threading
from typing import Optional

from repro.core.clock import MONOTONIC, Clock
from repro.core.errors import ConfigurationError

__all__ = ["LeakyBucket", "RefillMode"]

#: Credits below this are treated as zero by the interval-mode admission
#: rule — floating-point dust from ``credit - cost`` must not admit an
#: extra request.
_CREDIT_EPSILON = 1e-9


class RefillMode(enum.Enum):
    """How bucket credit is brought forward in time."""

    #: Credit is recomputed from elapsed wall time on every access (exact).
    CONTINUOUS = "continuous"
    #: Credit only changes on explicit :meth:`LeakyBucket.refill` calls,
    #: as done by the paper's housekeeping thread.
    INTERVAL = "interval"


class LeakyBucket:
    """A credit bucket enforcing ``0 <= credit <= capacity``.

    Parameters
    ----------
    capacity:
        Maximum credit ``C`` the bucket can hold.  Zero is allowed (a
        deny-all default rule, §II-D).
    refill_rate:
        Credits added per second (the purchased access rate ``A``).
    initial_credit:
        Starting credit.  Defaults to ``capacity`` ("initially fully
        filled", §II-C); a check-pointed credit restored from the database
        may be passed instead.
    mode:
        Refill behaviour; see :class:`RefillMode`.
    clock:
        Monotonic time source; defaults to :func:`time.monotonic`.
    """

    __slots__ = ("capacity", "refill_rate", "mode", "_credit", "_last_refill",
                 "_clock", "_lock", "_consumed_total", "_denied_total",
                 "_continuous")

    def __init__(
        self,
        capacity: float,
        refill_rate: float,
        *,
        initial_credit: Optional[float] = None,
        mode: RefillMode = RefillMode.CONTINUOUS,
        clock: Clock = MONOTONIC,
    ):
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        if refill_rate < 0:
            raise ConfigurationError(f"refill_rate must be >= 0, got {refill_rate}")
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self.mode = mode
        self._continuous = mode is RefillMode.CONTINUOUS
        self._clock = clock
        credit = capacity if initial_credit is None else float(initial_credit)
        self._credit = min(max(credit, 0.0), self.capacity)
        self._last_refill = clock()
        self._lock = threading.Lock()
        self._consumed_total = 0
        self._denied_total = 0

    # ------------------------------------------------------------------ #
    # hot path
    # ------------------------------------------------------------------ #

    def try_consume(self, amount: float = 1.0) -> bool:
        """Attempt to consume ``amount`` credits.

        Admission rule by mode:

        - INTERVAL (the paper's implementation): admit when the current
          credit is *strictly positive* ("if the current credit is greater
          than zero, it returns TRUE") and deduct, flooring at zero.  This
          is exact because credit only arrives in housekeeping quanta.
        - CONTINUOUS: admit when credit >= ``amount``.  Under lazy refill
          the paper's >0 rule would admit every request (each inter-arrival
          gap deposits an infinitesimal credit), so the threshold must be
          the full cost to enforce the purchased rate.

        Both variants keep long-run admitted throughput equal to the refill
        rate; the ``ablation_refill`` benchmark compares their burst
        behaviour.
        """
        with self._lock:
            return self.try_consume_unlocked(amount)

    def try_consume_unlocked(self, amount: float = 1.0,
                             now: Optional[float] = None) -> bool:
        """:meth:`try_consume` without taking the bucket lock.

        The caller must already hold a lock that serializes every access to
        this bucket (the admission controller's shard lock).  ``now`` lets a
        batch caller reuse one clock reading across many buckets.

        The body is written flat — the refill advance inlined, clamps done
        with comparisons instead of ``min``/``max`` calls — because this
        runs once per admission decision inside the shard critical section.
        """
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        credit = self._credit
        if self._continuous:
            if now is None:
                now = self._clock()
            dt = now - self._last_refill
            if dt > 0.0:
                self._last_refill = now
                rate = self.refill_rate
                if rate > 0.0 and credit < self.capacity:
                    credit += rate * dt
                    if credit > self.capacity:
                        credit = self.capacity
            admit = credit >= amount * (1.0 - 1e-12)
        else:
            admit = credit > _CREDIT_EPSILON
        if admit:
            credit -= amount
            self._credit = credit if credit > 0.0 else 0.0
            self._consumed_total += 1
            return True
        self._credit = credit
        self._denied_total += 1
        return False

    # ------------------------------------------------------------------ #
    # credit leases
    # ------------------------------------------------------------------ #

    def lease_debit_unlocked(self, amount: float,
                             now: Optional[float] = None) -> float:
        """Debit up to ``amount`` credits for a lease grant; return the debit.

        The grant is debited *now*, before any leased request is admitted,
        which is what bounds system-wide over-admission by the outstanding
        grants: credit can be spent remotely only after it has left the
        bucket.  Grants never go below zero credit — a drained bucket
        grants 0 and the router stays on the wire path.
        """
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        if self._continuous:
            self.advance_unlocked(self._clock() if now is None else now)
        credit = self._credit
        grant = credit if credit < amount else amount
        if grant <= _CREDIT_EPSILON:
            return 0.0
        self._credit = credit - grant
        return grant

    def lease_return_unlocked(self, amount: float) -> float:
        """Re-credit the unspent remainder of a lease; return what fit.

        Clamped to capacity — credit returned after a rule shrink (or
        after refill caught up) is forfeited rather than overfilling.
        """
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        credit = self._credit + amount
        self._credit = credit if credit < self.capacity else self.capacity
        return self._credit - credit + amount

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def refill(self, now: Optional[float] = None) -> float:
        """Bring credit forward to ``now`` and return the new credit.

        In :attr:`RefillMode.INTERVAL` this is the housekeeping entry point;
        in :attr:`RefillMode.CONTINUOUS` it simply forces the lazy update.
        """
        with self._lock:
            self.advance_unlocked(self._clock() if now is None else now)
            return self._credit

    def advance_unlocked(self, now: float) -> None:
        """Bring credit forward to ``now``; caller holds the external lock.

        This is the refill primitive shared by every entry point; the
        admission controller calls it shard-at-a-time during housekeeping
        so one clock reading refills a whole shard.
        """
        dt = now - self._last_refill
        if dt <= 0.0:
            return
        self._last_refill = now
        if self.refill_rate > 0.0 and self._credit < self.capacity:
            self._credit = min(self.capacity, self._credit + self.refill_rate * dt)

    def update_rule(self, capacity: float, refill_rate: float) -> None:
        """Apply an updated QoS rule from the database sync loop (§III-C).

        Credit is clamped into the new ``[0, capacity]`` range so a shrunk
        plan takes effect immediately.
        """
        with self._lock:
            self.update_rule_unlocked(capacity, refill_rate)

    def update_rule_unlocked(self, capacity: float, refill_rate: float) -> None:
        """:meth:`update_rule` under an external lock (controller sync pass)."""
        if capacity < 0 or refill_rate < 0:
            raise ConfigurationError("capacity and refill_rate must be >= 0")
        self.advance_unlocked(self._clock())
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self._credit = min(self._credit, self.capacity)

    def restore_credit(self, credit: float) -> None:
        """Overwrite credit from a database checkpoint (replacement server)."""
        with self._lock:
            self.restore_credit_unlocked(credit)

    def restore_credit_unlocked(self, credit: float) -> None:
        """:meth:`restore_credit` under an external lock (controller restore)."""
        self._credit = min(max(float(credit), 0.0), self.capacity)
        self._last_refill = self._clock()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def credit(self) -> float:
        """Current credit (advanced to now in continuous mode)."""
        with self._lock:
            return self.credit_unlocked()

    def credit_unlocked(self, now: Optional[float] = None) -> float:
        """:attr:`credit` under an external lock (controller checkpoint)."""
        if self.mode is RefillMode.CONTINUOUS:
            self.advance_unlocked(self._clock() if now is None else now)
        return self._credit

    def peek_credit(self) -> float:
        """Credit as of the last update, without advancing time."""
        with self._lock:
            return self._credit

    @property
    def consumed_total(self) -> int:
        """Number of admitted consumes over the bucket's lifetime."""
        return self._consumed_total

    @property
    def denied_total(self) -> int:
        """Number of denied consumes over the bucket's lifetime."""
        return self._denied_total

    def time_to_credit(self, target: float = 1.0) -> float:
        """Seconds until credit reaches ``target`` at the current rates.

        Returns ``0.0`` if already there and ``float('inf')`` if the target
        is unreachable (rate 0, or target above capacity).  Useful for
        clients implementing backoff on a ``False`` QoS response.
        """
        with self._lock:
            if self.mode is RefillMode.CONTINUOUS:
                self.advance_unlocked(self._clock())
            if self._credit >= target:
                return 0.0
            if self.refill_rate <= 0.0 or target > self.capacity:
                return float("inf")
            return (target - self._credit) / self.refill_rate

    def __repr__(self) -> str:
        return (f"LeakyBucket(capacity={self.capacity}, "
                f"refill_rate={self.refill_rate}, credit={self.peek_credit():.3f}, "
                f"mode={self.mode.value})")
