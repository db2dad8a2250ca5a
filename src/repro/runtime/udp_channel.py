"""Multiplexed router↔QoS-server UDP channels (the router's wire path).

A literal §III-B router gives every HTTP handler thread a private
blocking UDP socket and spends one ``sendto`` + one ``recvfrom`` (plus a
timeout arm and a thread wakeup) per admission check, so router
throughput is capped by per-datagram syscall cost rather than by
admission work.  This module is the one wire path instead:

- each backend gets **one shared non-blocking UDP socket** per router;
- submitting threads append to the channel's send queue and flush it
  inline — whatever is pending rides one protocol-v2 batch frame (up to
  ``RouterConfig.batch_size`` messages), so concurrent submitters
  coalesce naturally, classic group commit, with **no added latency when
  idle** (a lone request is sent immediately by its own thread);
- of the threads blocked on a channel, one holds the channel's
  **recv-leader token**: it drains response frames straight off the
  socket and matches responses to waiters by request id, so the common
  case costs *zero* cross-thread handoffs — the same thread sends,
  receives, and returns.  Followers sleep on per-request events; a
  departing leader passes the token to one of them (a baton wake);
- a single ``selectors``-based **event thread** owns the hashed
  **timer wheel** and with it every timeout, retry, and default reply —
  no per-call ``settimeout``, no blocked thread per in-flight datagram.
  Send paths arm timers through a lock-free deque the event thread
  drains each pass, so the hot path never touches the wheel itself.
"""

from __future__ import annotations

import select as _select
import selectors
import socket
import threading
import time
from collections import deque
from typing import Optional, Sequence

from repro.core.config import RouterConfig
from repro.core.errors import ProtocolError
from repro.core.protocol import (
    LeaseGrant,
    LeaseRevoke,
    QoSRequest,
    QoSResponse,
    RequestIdGenerator,
    decode_any,
    encode_request_frame_parts,
    FRAME_HEADER_BYTES,
    FRAME_REQ_ENTRY_OVERHEAD,
    MAX_DATAGRAM_BYTES,
    TRACE_ID_BYTES,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracing import default_tracer

__all__ = ["ChannelSet", "ChannelStats", "TimerWheel"]

_RECV_BUFFER = 65535
#: Event-loop sleep when no timers are armed (shutdown responsiveness and
#: worst-case lateness of a timer armed while the loop was asleep).
_IDLE_SELECT_TIMEOUT = 0.05
#: How long a recv leader sits in one ``select`` before re-checking
#: whether the event thread resolved its exchange (timeout path only;
#: data wakes the leader immediately).
_LEADER_SLICE = 0.02
#: How long a follower sleeps before re-trying for the leader token.
#: Normal completions and baton handoffs wake it instantly; the slice
#: only bounds recovery from rare lost-baton races.
_FOLLOWER_SLICE = 0.05
#: Period of the recurring lease-plane drain poke.  While the router
#: holds leases it may go arbitrarily long without any exchange (every
#: check admits locally), so nobody reads the channel sockets and an
#: unsolicited LEASE_REVOKE would rot in the kernel buffer until the
#: TTL renewal.  The poke bounds revoke latency to ~this period; armed
#: only when a lease listener is wired, so the lease-disabled path keeps
#: zero extra wakeups.
_LEASE_DRAIN_INTERVAL = 0.05
#: Keep batched frames comfortably under the datagram ceiling even with
#: adversarially long keys.
_FRAME_BYTE_BUDGET = MAX_DATAGRAM_BYTES - 512


class ChannelStats:
    """Wire-path counters.  Each backend channel keeps its own instance,
    mutated only under that channel's lock; :attr:`ChannelSet.stats`
    aggregates them on read."""

    __slots__ = ("frames_sent", "frames_received", "messages_sent",
                 "responses_matched", "retries", "default_replies",
                 "malformed_datagrams", "send_errors")

    def __init__(self) -> None:
        self.frames_sent = 0
        self.frames_received = 0
        self.messages_sent = 0
        self.responses_matched = 0
        self.retries = 0
        self.default_replies = 0
        self.malformed_datagrams = 0
        self.send_errors = 0

    def add(self, other: "ChannelStats") -> "ChannelStats":
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class TimerWheel:
    """Hashed timer wheel: O(1) schedule, expiry checked once per tick.

    Entries are ``(deadline, item)`` pairs hashed into ``slots`` buckets
    by deadline tick; :meth:`advance` sweeps only the buckets whose tick
    has passed since the previous call.  Cancellation is lazy — callers
    mark their item done and expired items are filtered on collection —
    which keeps the wheel free of per-entry bookkeeping.
    """

    __slots__ = ("tick", "_n", "_buckets", "_cursor", "_live", "_is_dead")

    def __init__(self, tick: float, slots: int = 512, is_dead=None):
        if tick <= 0:
            raise ValueError(f"tick must be > 0, got {tick}")
        self.tick = tick
        self._n = slots
        self._buckets: list[list] = [[] for _ in range(slots)]
        self._cursor: Optional[int] = None
        self._live = 0
        # Optional predicate over scheduled items: entries it reports
        # dead are pruned by ``peek`` instead of counting toward the
        # next-wake deadline, so lazily-cancelled timers never wake the
        # owning thread early.
        self._is_dead = is_dead

    def __len__(self) -> int:
        return self._live

    def schedule(self, deadline: float, item) -> None:
        # Bucket by the first tick *after* the deadline: the sweep visits
        # tick t once now >= t*tick, so an entry in tick
        # floor(deadline/tick) would be examined just before its deadline,
        # survive the <= check, and then wait a full wheel revolution.
        self._buckets[(int(deadline / self.tick) + 1) % self._n].append(
            (deadline, item))
        self._live += 1

    def peek(self) -> Optional[float]:
        """Earliest deadline still on the wheel, or ``None`` when empty.

        Scans forward from the sweep cursor to the first bucket with a
        live entry and returns that bucket's minimum live deadline —
        exact as long as every entry lives within one revolution of
        ``now`` (:class:`ChannelSet` sizes the wheel to guarantee that).
        An entry scheduled further out can wrap into an earlier bucket
        and make this an overestimate, so callers deriving a sleep from
        it should still cap it defensively.  Entries the ``is_dead``
        predicate rejects are pruned on the way — without this, a
        steady stream of already-answered frames would keep presenting
        imminent dead deadlines and force a wake every tick.
        """
        if not self._live:
            return None
        start = (self._cursor if self._cursor is not None
                 else int(time.monotonic() / self.tick) - 1)
        is_dead = self._is_dead
        for offset in range(1, self._n + 1):
            index = (start + offset) % self._n
            bucket = self._buckets[index]
            if not bucket:
                continue
            if is_dead is not None:
                keep = [pair for pair in bucket if not is_dead(pair[1])]
                if len(keep) != len(bucket):
                    self._live -= len(bucket) - len(keep)
                    self._buckets[index] = keep
                bucket = keep
                if not bucket:
                    continue
            return min(pair[0] for pair in bucket)
        return None

    def advance(self, now: float) -> list:
        """Collect every item whose deadline is at or before ``now``."""
        current = int(now / self.tick)
        if self._cursor is None:
            self._cursor = current - 1
        if current <= self._cursor:
            return []
        first = max(self._cursor + 1, current - self._n + 1)
        expired: list = []
        for tick_index in range(first, current + 1):
            bucket = self._buckets[tick_index % self._n]
            if not bucket:
                continue
            keep = [pair for pair in bucket if pair[0] > now]
            if len(keep) != len(bucket):
                expired.extend(item for deadline, item in bucket
                               if deadline <= now)
                self._buckets[tick_index % self._n] = keep
        self._cursor = current
        self._live -= len(expired)
        return expired


class _CallGroup:
    """Completion signal shared by every exchange of one submit call.

    The common case never allocates an ``Event`` at all: the submitting
    thread usually holds the recv-leader token and observes ``done``
    flags directly.  Only a thread that must actually block as a
    follower creates the event — and only that one thread ever waits on
    it, so lazy creation is race-free as long as it re-checks ``done``
    after publishing the event (dispatchers set ``done`` first, then set
    the event if one is visible).
    """

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event: Optional[threading.Event] = None

    def notify(self) -> None:
        event = self.event
        if event is not None:
            event.set()


class _Exchange:
    """One in-flight admission check: request plus its blocked waiter."""

    __slots__ = ("request", "key_bytes", "size", "group", "response",
                 "attempts", "done", "baton", "trace_id")

    def __init__(self, request: QoSRequest, group: _CallGroup,
                 trace_id: int = 0):
        self.request = request
        self.key_bytes = request._validated_key_bytes()
        self.size = FRAME_REQ_ENTRY_OVERHEAD + len(self.key_bytes)
        self.group = group
        self.response: Optional[QoSResponse] = None
        self.attempts = 0
        self.done = False
        self.baton = False
        self.trace_id = trace_id


class _BackendChannel:
    """One shared socket plus send/in-flight state for one backend."""

    __slots__ = ("address", "sock", "lock", "recv_token", "pending",
                 "inflight", "stats")

    def __init__(self, address: tuple[str, int]):
        self.address = address
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setblocking(False)
        # Connected UDP: cheaper send/recv and the kernel drops datagrams
        # from other sources before they reach us.
        self.sock.connect(address)
        # ``lock`` guards pending/inflight/stats; ``recv_token`` elects
        # the one thread currently allowed to recv on the socket.
        self.lock = threading.Lock()
        self.recv_token = threading.Lock()
        self.pending: deque[_Exchange] = deque()
        self.inflight: dict[int, _Exchange] = {}
        self.stats = ChannelStats()


def _timer_entry_dead(item) -> bool:
    """True when a wheel entry no longer needs to fire.

    ``item`` is ``(channel, batch)``: re-flush markers (``batch is
    None``) and deferred callbacks (``batch`` callable — lease TTLs)
    always stay live; a frame's entry is dead once every exchange in it
    has resolved.  ``done`` flips ``False → True`` exactly once, so the
    lock-free read can only misreport *live* — which merely costs an
    extra wake, never a missed timeout.
    """
    batch = item[1]
    return (batch is not None and not callable(batch)
            and all(e.done for e in batch))


class ChannelSet:
    """All of one router's backend channels plus their event thread."""

    def __init__(self, backends: Sequence[tuple[str, int]],
                 config: Optional[RouterConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer=None, labels: Optional[dict] = None):
        if not backends:
            raise ValueError("channel set needs at least one backend")
        self.config = config or RouterConfig(udp_timeout=0.05)
        self._ids = RequestIdGenerator()
        self._tracer = tracer if tracer is not None else default_tracer()
        labels = labels or {}
        #: Event-thread selector wakeups (idle ticks + timer expiries) —
        #: plain int, single-writer (the event thread).
        self.timer_wakeups = 0
        # Always-on instruments: bare (unregistered) instances when no
        # registry is supplied, so the hot path never branches on "is
        # observability enabled".
        self._batch_fill = (registry.histogram(
            "janus_channel_batch_fill",
            "Messages coalesced per sent v2 frame", **labels)
            if registry is not None else Histogram("janus_channel_batch_fill"))
        self._rtt = (registry.histogram(
            "janus_channel_exchange_seconds",
            "Channel exchange round-trip latency (submit to resolve)",
            scale=1e-9, **labels)
            if registry is not None
            else Histogram("janus_channel_exchange_seconds", scale=1e-9))
        if registry is not None:
            stats_help = {
                "frames_sent": "Datagrams sent to backends",
                "frames_received": "Response datagrams decoded",
                "messages_sent": "Admission requests put on the wire",
                "responses_matched": "Responses matched to a waiter",
                "retries": "Request re-sends after a timer expiry",
                "default_replies": "Exchanges resolved by default reply",
                "malformed_datagrams": "Datagrams dropped as malformed",
                "send_errors": "Socket send failures",
            }
            for field, help_text in stats_help.items():
                registry.counter(
                    f"janus_channel_{field}_total", help_text,
                    fn=(lambda f=field: getattr(self.stats, f)), **labels)
            registry.gauge(
                "janus_channel_pending", "Queued-but-unsent exchanges",
                fn=lambda: sum(len(c.pending)
                               for c in self._channels.values()), **labels)
            registry.gauge(
                "janus_channel_inflight", "Exchanges awaiting a response",
                fn=lambda: sum(len(c.inflight)
                               for c in self._channels.values()), **labels)
            registry.counter(
                "janus_channel_timer_wakeups_total",
                "Event-thread wakeups (timer wheel + idle ticks)",
                fn=lambda: self.timer_wakeups, **labels)
        self._channels = {tuple(addr): _BackendChannel(tuple(addr))
                          for addr in backends}
        # Credit-lease plane hook: when set (via the ``lease_listener``
        # property), decoded LEASE_GRANT/LEASE_REVOKE messages are handed
        # to it as ``listener(message, backend_address)`` with no lock
        # held.  When unset, lease frames count as malformed — the
        # pre-lease behaviour.
        self._lease_listener = None
        # Channels retired by replace_backend/retire_backend (any thread
        # appends).  The event thread closes each one's socket once it has
        # nothing pending or in flight — no caller can still be waiting
        # on it — and stop() closes whatever is left.
        self._retired: deque[_BackendChannel] = deque()
        # The wheel belongs to the event thread.  Send paths arm timers
        # by appending to this deque (append/popleft are atomic, so no
        # lock rides the hot path); the event thread drains it each pass.
        # Slots cover at least two udp_timeouts so no deadline ever wraps
        # past one revolution — which makes ``TimerWheel.peek`` an exact
        # earliest-deadline and lets the event thread sleep until then.
        slots = max(512, int(2 * self.config.udp_timeout
                             / self.config.timer_tick) + 2)
        self._wheel = TimerWheel(self.config.timer_tick, slots=slots,
                                 is_dead=_timer_entry_dead)
        # The third element is a frame batch (list), a re-flush marker
        # (None), or a deferred callback (callable — lease TTLs).
        self._timer_inbox: deque[
            tuple[float, _BackendChannel, object]] = deque()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # A waiter only gives up after the event thread has necessarily
        # resolved its exchange (worst-case retries + wheel slack); the
        # synthesized default reply below it is a belt-and-braces fallback
        # against an event-thread crash, not a normal code path.
        self._wait_budget = (self.config.worst_case_wait
                             + (self.config.max_retries + 2)
                             * max(self.config.timer_tick,
                                   _IDLE_SELECT_TIMEOUT) + 1.0)

    @property
    def stats(self) -> ChannelStats:
        """Aggregate of every backend channel's counters."""
        total = ChannelStats()
        for channel in self._channels.values():
            total.add(channel.stats)
        return total

    @property
    def lease_listener(self):
        """Callback for decoded LEASE_GRANT/LEASE_REVOKE messages."""
        return self._lease_listener

    @lease_listener.setter
    def lease_listener(self, listener) -> None:
        arm = listener is not None and self._lease_listener is None
        self._lease_listener = listener
        if arm:
            self._arm_lease_drain()

    def _arm_lease_drain(self) -> None:
        """Start the recurring event-thread drain for unsolicited frames.

        A server-initiated LEASE_REVOKE arrives on a channel socket that
        is only read while some exchange waiter holds the recv-leader
        token; under pure local admission there is no such waiter.  This
        self-rescheduling callback drains every channel whose token is
        free each ``_LEASE_DRAIN_INTERVAL`` so revokes land promptly.
        """
        carrier = next(iter(self._channels.values()))

        def tick() -> None:
            if self._lease_listener is None or self._stop.is_set():
                return
            for channel in list(self._channels.values()):
                if channel.recv_token.acquire(blocking=False):
                    try:
                        self._drain(channel)
                    finally:
                        channel.recv_token.release()
            self._timer_inbox.append(
                (time.monotonic() + _LEASE_DRAIN_INTERVAL, carrier, tick))

        self._timer_inbox.append(
            (time.monotonic() + _LEASE_DRAIN_INTERVAL, carrier, tick))
        self._wake()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "ChannelSet":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="udp-channel", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._wake()
            self._thread.join(timeout=2.0)
            self._thread = None
        self._selector.close()
        for channel in self._channels.values():
            channel.sock.close()
        while self._retired:
            self._retired.popleft().sock.close()
        self._wake_r.close()
        self._wake_w.close()

    # ------------------------------------------------------------------ #
    # backend remapping (procplane worker restarts)
    # ------------------------------------------------------------------ #

    def add_backend(self, backend: tuple[str, int]) -> None:
        """Open a channel to a new backend address (idempotent)."""
        addr = tuple(backend)
        if addr not in self._channels:
            # Atomic dict swap: readers (stats, gauges, exchanges)
            # iterate whichever dict they loaded, never a mutating one.
            self._channels = {**self._channels, addr: _BackendChannel(addr)}

    def replace_backend(self, old: tuple[str, int],
                        new: tuple[str, int]) -> bool:
        """Swap one backend address for another in place.

        Used when a restarted shard worker could not rebind its old
        port.  Exchanges still in flight toward the old address resolve
        through their armed timers — retries land on a dead address and
        become default replies, exactly like a lost backend — while new
        submissions go straight to the replacement channel.
        """
        old_addr, new_addr = tuple(old), tuple(new)
        if old_addr == new_addr:
            return old_addr in self._channels
        channels = dict(self._channels)
        retired = channels.pop(old_addr, None)
        if new_addr not in channels:
            channels[new_addr] = _BackendChannel(new_addr)
        self._channels = channels
        if retired is None:
            return False
        self._retired.append(retired)
        self._wake()
        return True

    def retire_backend(self, backend: tuple[str, int]) -> bool:
        """Drop one backend channel without a replacement (reshard shrink).

        The channel moves to the retired list: exchanges still in
        flight toward it resolve through their armed timers (retries,
        then default replies), and the event thread closes the socket
        once they have.  The last remaining channel is never retired —
        an empty channel set would strand every future submission.
        """
        addr = tuple(backend)
        channels = dict(self._channels)
        if addr not in channels or len(channels) <= 1:
            return False
        self._retired.append(channels.pop(addr))
        self._channels = channels
        self._wake()
        return True

    # ------------------------------------------------------------------ #
    # submission API (any thread)
    # ------------------------------------------------------------------ #

    def exchange(self, backend: tuple[str, int], key: str,
                 cost: float = 1.0,
                 trace_id: int = 0) -> tuple[QoSResponse, int]:
        """One admission check; blocks until response or default reply.

        Fast path of :meth:`exchange_many` for a single check — skips
        the per-backend grouping to keep lone-request latency (the idle
        ``batch_size=1`` configuration) low.
        """
        if self._stop.is_set():
            return self._dead_result()
        channel = self._channels[tuple(backend)]
        span = (self._tracer.start(trace_id, "channel.exchange",
                                   "udp_channel",
                                   {"backend": f"{backend[0]}:{backend[1]}"})
                if trace_id else None)
        exchange = _Exchange(QoSRequest(self._ids.next_id(), key, cost),
                             _CallGroup(), trace_id)
        with channel.lock:
            channel.pending.append(exchange)
            self._flush_locked(channel)
        result = self._await(channel, exchange,
                             time.monotonic() + self._wait_budget)
        if span is not None:
            self._tracer.finish(span, attempts=result[1],
                                default=result[0].is_default_reply)
            self._rtt.record(span.duration_ns)
        return result

    def exchange_many(
        self, checks: Sequence[tuple[tuple[str, int], str, float]],
        trace_id: int = 0,
    ) -> list[tuple[QoSResponse, int]]:
        """Submit many checks at once and wait for all of them.

        All checks sharing a backend enter that channel's send queue in
        one pass and ride the same v2 frame — this is what
        ``POST /qos/batch`` amortizes.  A nonzero ``trace_id`` applies
        to the whole call (one batch, one trace) and yields one
        ``channel.exchange`` span covering every constituent check.
        """
        if self._stop.is_set():
            return [self._dead_result() for _ in checks]
        span = (self._tracer.start(trace_id, "channel.exchange",
                                   "udp_channel", {"n": len(checks)})
                if trace_id else None)
        group = _CallGroup()
        next_id = self._ids.next_id
        exchanges: list[tuple[_BackendChannel, _Exchange]] = []
        per_channel: dict[_BackendChannel, list[_Exchange]] = {}
        for backend, key, cost in checks:
            channel = self._channels[tuple(backend)]
            exchange = _Exchange(QoSRequest(next_id(), key, cost), group,
                                 trace_id)
            exchanges.append((channel, exchange))
            per_channel.setdefault(channel, []).append(exchange)
        for channel, batch in per_channel.items():
            with channel.lock:
                channel.pending.extend(batch)
                self._flush_locked(channel)
        deadline = time.monotonic() + self._wait_budget
        results = [self._await(channel, exchange, deadline)
                   for channel, exchange in exchanges]
        if span is not None:
            self._tracer.finish(
                span,
                defaults=sum(1 for r, _ in results if r.is_default_reply))
            self._rtt.record(span.duration_ns)
        return results

    # ------------------------------------------------------------------ #
    # credit-lease plane transport (any thread)
    # ------------------------------------------------------------------ #

    def send_lease_frame(self, backend: tuple[str, int],
                         payload: bytes) -> None:
        """Fire one pre-encoded lease frame at ``backend``, best-effort.

        Lease acquisition is an optimisation, not a guarantee: a frame
        lost to a full socket buffer is simply dropped (the hotness
        tracker re-asks on the next window) and a dead backend counts a
        send error exactly like the request path.  Unknown backends
        (retired by :meth:`replace_backend`) are ignored — the lease
        dies with its channel.
        """
        channel = self._channels.get(tuple(backend))
        if channel is None or self._stop.is_set():
            return
        with channel.lock:
            try:
                channel.sock.send(payload)  # janus-lint: disable=blocking-under-lock
            except BlockingIOError:
                return      # buffer full: drop, hotness will re-ask
            except OSError:
                channel.stats.send_errors += 1
                return
            channel.stats.frames_sent += 1
        # The reply rides the same socket, but the socket is only read
        # while some exchange waiter holds the recv-leader token.  Under
        # load that is continuous; on a quiet channel nobody would ever
        # collect the grant — so arm two deferred drain pokes (one tick
        # and five ticks out) on the event thread.  A poke that loses
        # the token race is harmless: the active leader drains for us.
        now = time.monotonic()
        tick = self.config.timer_tick
        poke = self._drain_poke(channel)
        self._timer_inbox.append((now + tick, channel, poke))
        self._timer_inbox.append((now + 5 * tick, channel, poke))
        self._wake()

    def _drain_poke(self, channel: _BackendChannel):
        """A deferred callback that drains ``channel`` if nobody else is."""
        def poke() -> None:
            if channel.recv_token.acquire(blocking=False):
                try:
                    self._drain(channel)
                finally:
                    channel.recv_token.release()
        return poke

    def call_later(self, delay: float, fn) -> None:
        """Run ``fn()`` on the event thread after ``delay`` seconds.

        Rides the existing timer wheel: the entry's ``batch`` slot
        carries the callable (``_timer_entry_dead`` keeps it live,
        ``_expire`` invokes it with no lock held).  The lease plane uses
        this for TTL return/renew deadlines so lease bookkeeping never
        needs its own timer thread.
        """
        channel = next(iter(self._channels.values()))
        self._timer_inbox.append((time.monotonic() + delay, channel, fn))
        self._wake()

    def _dead_result(self) -> tuple[QoSResponse, int]:
        response = QoSResponse(self._ids.next_id(),
                               self.config.default_reply,
                               is_default_reply=True)
        return response, self.config.max_retries

    # ------------------------------------------------------------------ #
    # waiting: recv leader + followers (any thread)
    # ------------------------------------------------------------------ #

    def _await(self, channel: _BackendChannel, exchange: _Exchange,
               deadline: float) -> tuple[QoSResponse, int]:
        group = exchange.group
        while True:
            if exchange.done:
                return exchange.response, exchange.attempts
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return self._give_up(channel, exchange)
            if channel.recv_token.acquire(blocking=False):
                try:
                    self._lead(channel, exchange, deadline)
                finally:
                    channel.recv_token.release()
                    self._pass_baton(channel)
                continue
            # Follower: publish the (lazily created) completion event,
            # then re-check everything that may have raced the publish —
            # a completion, a baton pass, or the token freeing up — and
            # only then block.  Dispatchers set flags before notifying,
            # so a wake can never be lost.
            event = group.event
            if event is None:
                event = group.event = threading.Event()
            event.clear()
            if exchange.done:
                return exchange.response, exchange.attempts
            if exchange.baton or not channel.recv_token.locked():
                exchange.baton = False
                continue
            event.wait(min(_FOLLOWER_SLICE, remaining))
            exchange.baton = False
            # Woken either because something in our group completed
            # (checked at loop top) or to inherit the leader token
            # (tried at loop top).

    def _lead(self, channel: _BackendChannel, exchange: _Exchange,
              deadline: float) -> None:
        """Drain response frames until our own exchange resolves.

        The leader dispatches *every* response it reads — its own plus
        any follower's — so under load one thread turns each incoming
        frame into a batch of event wakes.  Timeouts stay with the event
        thread; the slice below only bounds how late we notice that it
        resolved our exchange for us (dead-backend path).
        """
        sock = channel.sock
        while not exchange.done:
            wait = min(_LEADER_SLICE, deadline - time.monotonic())
            if wait <= 0:
                return
            try:
                ready, _, _ = _select.select([sock], [], [], wait)
            except (OSError, ValueError):
                return      # socket closed mid-shutdown
            if ready:
                self._drain(channel)

    def _drain(self, channel: _BackendChannel) -> None:
        """Read every queued datagram, then dispatch under one lock."""
        datagrams: list[bytes] = []
        sock = channel.sock
        while True:
            try:
                datagrams.append(sock.recv(_RECV_BUFFER))
            except BlockingIOError:
                break
            except ConnectionRefusedError:
                continue    # queued ICMP from a dead backend; keep reading
            except OSError:
                break
        if not datagrams:
            return
        lease_messages: list = []
        lease_listener = self.lease_listener
        with channel.lock:
            stats = channel.stats
            inflight = channel.inflight
            for datagram in datagrams:
                try:
                    _, messages = decode_any(datagram)
                except ProtocolError:
                    stats.malformed_datagrams += 1
                    continue
                stats.frames_received += 1
                for message in messages:
                    if not isinstance(message, QoSResponse):
                        if (lease_listener is not None
                                and isinstance(message,
                                               (LeaseGrant, LeaseRevoke))):
                            # Dispatched below, outside the channel lock:
                            # the listener may send (renew) on this very
                            # channel.
                            lease_messages.append(message)
                        else:
                            stats.malformed_datagrams += 1
                        continue
                    exchange = inflight.pop(message.request_id, None)
                    if exchange is None or exchange.done:
                        continue    # stale response from a beaten retry
                    exchange.response = message
                    exchange.done = True
                    stats.responses_matched += 1
                    exchange.group.notify()
        for message in lease_messages:
            lease_listener(message, channel.address)

    def _pass_baton(self, channel: _BackendChannel) -> None:
        """Wake one unresolved waiter so the channel keeps a recv leader."""
        with channel.lock:
            for exchange in channel.inflight.values():
                if not exchange.done and not exchange.baton:
                    exchange.baton = True
                    exchange.group.notify()
                    return

    def _give_up(self, channel: _BackendChannel,
                 exchange: _Exchange) -> tuple[QoSResponse, int]:
        with channel.lock:
            if not exchange.done:
                channel.inflight.pop(exchange.request.request_id, None)
                exchange.response = QoSResponse(
                    exchange.request.request_id, self.config.default_reply,
                    is_default_reply=True)
                exchange.attempts = max(exchange.attempts,
                                        self.config.max_retries)
                exchange.done = True
                channel.stats.default_replies += 1
        return exchange.response, exchange.attempts

    # ------------------------------------------------------------------ #
    # sending (caller must hold channel.lock)
    # ------------------------------------------------------------------ #

    def _flush_locked(self, channel: _BackendChannel) -> None:
        """Send everything pending for one backend, batching per frame.

        A frame carries at most one distinct nonzero trace id (the wire
        format has a single trace-id slot per frame): an exchange traced
        under a *different* id ends the current batch and starts the
        next frame.  Untraced exchanges ride along in either case — the
        trace id annotates the frame, not the entries.
        """
        pending = channel.pending
        stats = channel.stats
        inflight = channel.inflight
        max_batch = self.config.batch_size
        while pending:
            batch: list[_Exchange] = []
            size = FRAME_HEADER_BYTES
            frame_tid = 0
            while pending and len(batch) < max_batch:
                exchange = pending[0]
                if exchange.done:
                    pending.popleft()
                    continue
                if batch and size + exchange.size > _FRAME_BYTE_BUDGET:
                    break
                tid = exchange.trace_id
                if tid and frame_tid and tid != frame_tid:
                    break           # second distinct trace id: next frame
                pending.popleft()
                batch.append(exchange)
                size += exchange.size
                if tid and not frame_tid:
                    frame_tid = tid
                    size += TRACE_ID_BYTES
            if not batch:
                return
            payload = encode_request_frame_parts(
                [(e.request.request_id, e.key_bytes, e.request.cost)
                 for e in batch],
                trace_id=frame_tid)
            self._batch_fill.record(len(batch))
            try:
                # Group-commit by design: the send happens under the
                # channel lock so concurrent submitters coalesce into one
                # frame, and the socket is *non-blocking* — a full buffer
                # raises BlockingIOError and defers to a timer re-flush
                # instead of stalling the lock holders.
                channel.sock.send(payload)  # janus-lint: disable=blocking-under-lock
            except BlockingIOError:
                # Socket buffer full: requeue and let a timer re-flush.
                # This marker's deadline is sooner than anything already
                # armed, so kick the event thread out of its sleep.
                self._timer_inbox.append(
                    (time.monotonic() + self.config.timer_tick,
                     channel, None))
                pending.extendleft(reversed(batch))
                self._wake()
                return
            except OSError:
                # Backend unreachable (e.g. ECONNREFUSED on a connected
                # UDP socket).  The attempt still counts: the timer wheel
                # will retry and eventually issue the default reply,
                # exactly like a lost datagram.
                stats.send_errors += 1
            stats.frames_sent += 1
            stats.messages_sent += len(batch)
            for exchange in batch:
                exchange.attempts += 1
                if exchange.attempts > 1:
                    stats.retries += 1
                inflight[exchange.request.request_id] = exchange
            # One wheel entry per frame, not per request: every exchange
            # in the frame shares the send instant, hence the deadline.
            self._timer_inbox.append(
                (time.monotonic() + self.config.udp_timeout, channel, batch))

    # ------------------------------------------------------------------ #
    # event loop (single thread): timers, retries, default replies
    # ------------------------------------------------------------------ #

    def _wake(self) -> None:
        try:
            # The wake socketpair is setblocking(False) at construction:
            # this send either succeeds instantly or raises
            # BlockingIOError (a wakeup is already pending) — it can
            # never stall a lock holder, so chains reaching it are safe.
            # janus-lint: disable=transitive-blocking-under-lock
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass        # a wakeup is already pending, or we are shutting down

    def _run(self) -> None:
        while not self._stop.is_set():
            if self._selector.select(self._select_timeout()):
                self._drain_wakeups()
            self.timer_wakeups += 1
            self._arm_timers()
            self._expire(time.monotonic())
            if self._retired:
                self._reap_retired()
        self._fail_all_pending()

    def _select_timeout(self) -> float:
        """Sleep until the earliest armed deadline, not every tick.

        Under steady traffic the wheel always holds one live entry per
        in-flight frame, but those deadlines sit a full ``udp_timeout``
        out — waking every ``timer_tick`` to look at them would steal
        the GIL from the request path hundreds of times per second for
        nothing, and on an idle service those stolen slices land
        straight in the request-latency tail.  Urgent work never waits
        on this sleep: senders kick the wakeup pipe when they arm a
        sooner-than-armed deadline, and ``stop()`` does the same.  The
        sleep is floored at ``timer_tick`` (never busy-spin on an
        imminent deadline) and capped at 1 s as a belt-and-braces bound
        should a deadline ever wrap past one wheel revolution.
        """
        deadline = self._wheel.peek()
        if self._timer_inbox:
            try:
                head = self._timer_inbox[0][0]
            except IndexError:      # raced a concurrent append/pop
                head = None
            if head is not None and (deadline is None or head < deadline):
                deadline = head
        if deadline is None:
            return _IDLE_SELECT_TIMEOUT
        return min(1.0, max(self.config.timer_tick,
                            deadline - time.monotonic()))

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _arm_timers(self) -> None:
        inbox = self._timer_inbox
        schedule = self._wheel.schedule
        while inbox:
            deadline, channel, exchange = inbox.popleft()
            schedule(deadline, (channel, exchange))

    def _expire(self, now: float) -> None:
        for channel, batch in self._wheel.advance(now):
            if callable(batch):
                # Deferred callback (lease TTL): runs on the event
                # thread with no lock held, so it may freely send.
                batch()
                continue
            with channel.lock:
                if batch is None:               # deferred re-flush marker
                    self._flush_locked(channel)
                    continue
                retry = False
                for exchange in batch:
                    if exchange.done:
                        channel.inflight.pop(
                            exchange.request.request_id, None)
                    elif exchange.attempts >= self.config.max_retries:
                        channel.inflight.pop(
                            exchange.request.request_id, None)
                        self._complete_default(channel, exchange)
                    else:
                        channel.pending.append(exchange)
                        retry = True
                if retry:
                    self._flush_locked(channel)

    def _reap_retired(self) -> None:
        """Close every retired channel with nothing left pending or in
        flight; the rest go back on the list for a later pass.

        A submitter that loaded the channel map before the swap may still
        enqueue on a closed channel; its send fails and the exchange ends
        as a default reply, as it would toward the removed backend.
        """
        retired = self._retired
        for _ in range(len(retired)):
            channel = retired.popleft()
            with channel.lock:
                idle = not channel.pending and not channel.inflight
                if idle:
                    channel.sock.close()
            if not idle:
                retired.append(channel)

    def _complete_default(self, channel: _BackendChannel,
                          exchange: _Exchange) -> None:
        """Caller must hold ``channel.lock``."""
        exchange.response = QoSResponse(
            exchange.request.request_id, self.config.default_reply,
            is_default_reply=True)
        exchange.done = True
        channel.stats.default_replies += 1
        recorder = self._tracer.recorder
        if recorder is not None:
            # Default replies are exactly the requests worth a forensic
            # look, so they ring the flight recorder regardless of
            # sampling.
            recorder.note("default_reply",
                          backend=f"{channel.address[0]}:"
                                  f"{channel.address[1]}",
                          key=exchange.request.key,
                          attempts=exchange.attempts,
                          trace_id=exchange.trace_id)
        exchange.group.notify()

    def _fail_all_pending(self) -> None:
        """Unblock every waiter on shutdown with a default reply."""
        for channel in self._channels.values():
            with channel.lock:
                leftovers = list(channel.pending)
                leftovers.extend(channel.inflight.values())
                channel.pending.clear()
                channel.inflight.clear()
                for exchange in leftovers:
                    if not exchange.done:
                        exchange.attempts = max(exchange.attempts,
                                                self.config.max_retries)
                        self._complete_default(channel, exchange)
