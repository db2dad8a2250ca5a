"""Tests for the multiplexed UDP channel (router side of the v2 wire path).

Covers the :class:`~repro.runtime.udp_channel.TimerWheel` in isolation
(including the full-revolution scheduling regression and live-deadline
``peek``), then drives :class:`~repro.runtime.udp_channel.ChannelSet`
against a real :class:`~repro.runtime.udp_server.QoSServerDaemon` on
loopback: single exchanges, batched frames, concurrency, dead-backend
retry/default-reply semantics, backend mutation, and shutdown.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.core.admission import InMemoryRuleSource
from repro.core.config import RouterConfig, ServerConfig
from repro.core.protocol import (
    LeaseGrant,
    LeaseRevoke,
    encode_lease_grant_frame,
    encode_lease_revoke_frame,
)
from repro.core.rules import QoSRule
from repro.runtime.udp_channel import ChannelSet, TimerWheel
from repro.runtime.udp_server import QoSServerDaemon


class TestTimerWheel:
    def test_schedule_and_expire(self):
        wheel = TimerWheel(tick=0.01)
        wheel.schedule(100.0, "a")
        wheel.schedule(100.005, "b")
        wheel.schedule(100.5, "later")
        assert len(wheel) == 3
        assert wheel.advance(99.99) == []
        expired = wheel.advance(100.02)
        assert sorted(expired) == ["a", "b"]
        assert wheel.advance(100.6) == ["later"]
        assert len(wheel) == 0

    def test_deadline_on_tick_boundary_not_delayed_a_revolution(self):
        # Regression: an entry bucketed at floor(deadline/tick) used to be
        # examined one sweep *before* its deadline, survive, and then wait
        # a full wheel revolution.
        tick, slots = 0.01, 64
        wheel = TimerWheel(tick=tick, slots=slots)
        deadline = 200.0           # exactly on a tick boundary
        wheel.schedule(deadline, "edge")
        now = deadline - tick / 2
        assert wheel.advance(now) == []
        # It must fire within a couple of ticks, not a revolution later.
        assert wheel.advance(deadline + 2 * tick) == ["edge"]

    def test_advance_is_incremental(self):
        wheel = TimerWheel(tick=0.01)
        wheel.schedule(50.0, "x")
        assert wheel.advance(49.0) == []
        assert wheel.advance(49.5) == []
        assert wheel.advance(50.01) == ["x"]

    def test_peek_returns_earliest(self):
        wheel = TimerWheel(tick=0.01)
        assert wheel.peek() is None
        wheel.schedule(300.5, "late")
        wheel.schedule(300.05, "early")
        wheel.advance(300.0)       # position the cursor
        assert wheel.peek() == pytest.approx(300.05)

    def test_peek_prunes_dead_entries(self):
        dead = {"corpse"}
        wheel = TimerWheel(tick=0.01, is_dead=lambda item: item in dead)
        wheel.advance(400.0)
        wheel.schedule(400.05, "corpse")
        wheel.schedule(400.5, "alive")
        assert wheel.peek() == pytest.approx(400.5)
        assert len(wheel) == 1     # the dead entry was pruned outright

    def test_bad_tick_rejected(self):
        with pytest.raises(ValueError):
            TimerWheel(tick=0.0)


@pytest.fixture
def rules():
    return InMemoryRuleSource({
        "alice": QoSRule("alice", refill_rate=1e6, capacity=1e9),
        "empty": QoSRule("empty", refill_rate=0.0, capacity=0.0),
    })


@pytest.fixture
def server(rules):
    with QoSServerDaemon(rules, config=ServerConfig(workers=2)) as daemon:
        yield daemon


def make_channels(server, **overrides) -> ChannelSet:
    defaults = dict(udp_timeout=0.5, max_retries=2)
    defaults.update(overrides)
    return ChannelSet([server.address],
                      config=RouterConfig(**defaults)).start()


class TestExchange:
    def test_single_exchange(self, server):
        channels = make_channels(server)
        try:
            response, attempts = channels.exchange(server.address, "alice")
            assert response.allowed
            assert not response.is_default_reply
            assert attempts == 1
        finally:
            channels.stop()

    def test_deny_travels_back(self, server):
        channels = make_channels(server)
        try:
            response, _ = channels.exchange(server.address, "empty")
            assert not response.allowed
            assert not response.is_default_reply
        finally:
            channels.stop()

    def test_exchange_many_one_call(self, server):
        channels = make_channels(server, batch_size=64)
        try:
            checks = [(server.address, "alice", 1.0) for _ in range(40)]
            checks[7] = (server.address, "empty", 1.0)
            results = channels.exchange_many(checks)
            assert len(results) == 40
            for i, (response, attempts) in enumerate(results):
                assert response.allowed == (i != 7)
                assert attempts == 1
            stats = channels.stats
            assert stats.messages_sent == 40
            # Batching really happened: far fewer frames than messages.
            assert stats.frames_sent < 40
        finally:
            channels.stop()

    def test_exchange_many_empty(self, server):
        channels = make_channels(server)
        try:
            assert channels.exchange_many([]) == []
        finally:
            channels.stop()

    def test_concurrent_submitters(self, server):
        channels = make_channels(server, batch_size=32)
        errors: list = []
        try:
            def worker():
                try:
                    for _ in range(50):
                        response, _ = channels.exchange(
                            server.address, "alice")
                        assert response.allowed
                except Exception as exc:          # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            assert channels.stats.responses_matched == 400
        finally:
            channels.stop()

    def test_needs_a_backend(self):
        with pytest.raises(ValueError):
            ChannelSet([], config=RouterConfig(udp_timeout=0.1))


class TestFailureSemantics:
    def _dead_address(self):
        # Bind-then-close guarantees a port with no listener.
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()
        return address

    def test_dead_backend_default_reply_after_retries(self):
        address = self._dead_address()
        config = RouterConfig(udp_timeout=0.05, max_retries=2,
                              default_reply=True)
        channels = ChannelSet([address], config=config).start()
        try:
            t0 = time.monotonic()
            response, attempts = channels.exchange(address, "alice")
            elapsed = time.monotonic() - t0
            assert response.is_default_reply
            assert response.allowed          # fail-open default
            # Seed parity: max_retries counts total send attempts, and
            # the default reply arrives after roughly
            # max_retries * udp_timeout — not instantly, and not after
            # the whole wait budget.
            assert attempts == config.max_retries
            assert elapsed < 2.0
            assert channels.stats.retries == config.max_retries - 1
            assert channels.stats.default_replies == 1
        finally:
            channels.stop()

    def test_default_reply_fail_closed(self):
        address = self._dead_address()
        config = RouterConfig(udp_timeout=0.05, max_retries=1,
                              default_reply=False)
        channels = ChannelSet([address], config=config).start()
        try:
            response, _ = channels.exchange(address, "alice")
            assert response.is_default_reply
            assert not response.allowed
        finally:
            channels.stop()

    def test_stop_unblocks_and_later_calls_get_defaults(self, server):
        channels = make_channels(server)
        channels.stop()
        response, _ = channels.exchange(server.address, "alice")
        assert response.is_default_reply

    def test_stop_is_idempotent(self, server):
        channels = make_channels(server)
        channels.stop()
        channels.stop()


class TestStats:
    def test_counters_coherent(self, server):
        channels = make_channels(server, batch_size=16)
        try:
            channels.exchange_many(
                [(server.address, "alice", 1.0) for _ in range(32)])
            stats = channels.stats
            assert stats.messages_sent == 32
            assert stats.responses_matched == 32
            assert stats.frames_received >= 1
            assert stats.malformed_datagrams == 0
            d = stats.as_dict()
            assert d["messages_sent"] == 32
        finally:
            channels.stop()


class TestLeaseFrameInterop:
    """Lease frames at a channel with no lease plane wired (v1-era router).

    A pre-lease router never *sends* LEASE_REQ, but a lease-capable
    server it shares a fleet with may still aim stray LEASE_GRANT /
    LEASE_REVOKE datagrams at it (e.g. a stale holder address after a
    router restart reused the port).  With no ``lease_listener`` those
    frames must count as malformed and change nothing else.
    """

    def _inject_and_exchange(self, server, channels, payload):
        """Queue ``payload`` at the channel's socket, then exchange."""
        channel = next(iter(channels._channels.values()))
        local = channel.sock.getsockname()
        # The channel socket is connected to the server, so the frame
        # must come from the server's own port to pass the kernel filter.
        server._sock.sendto(payload, local)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            response, _ = channels.exchange(server.address, "alice")
            assert response.allowed and not response.is_default_reply
            if channels.stats.malformed_datagrams >= 1:
                return
            time.sleep(0.01)
        pytest.fail("injected lease frame never drained")

    def test_grant_frame_ignored_cleanly(self, server):
        channels = make_channels(server)
        try:
            assert channels.lease_listener is None
            self._inject_and_exchange(server, channels,
                                      encode_lease_grant_frame([LeaseGrant(
                                          request_id=1, key="alice",
                                          lease_id=9, credits=50.0,
                                          ttl_ms=1_000)]))
            assert channels.stats.malformed_datagrams == 1
        finally:
            channels.stop()

    def test_revoke_frame_ignored_cleanly(self, server):
        channels = make_channels(server)
        try:
            self._inject_and_exchange(server, channels,
                                      encode_lease_revoke_frame(
                                          [LeaseRevoke(lease_id=9,
                                                       key="alice")]))
            assert channels.stats.malformed_datagrams == 1
        finally:
            channels.stop()


class TestBackendMutation:
    """add_backend/replace_backend: live partition-map surgery."""

    def test_add_backend_joins_live_set(self, rules, server):
        channels = make_channels(server)
        try:
            with QoSServerDaemon(rules,
                                 config=ServerConfig(workers=2)) as extra:
                channels.add_backend(extra.address)
                response, _ = channels.exchange(extra.address, "alice", 1.0)
                assert response.allowed
                assert not response.is_default_reply
        finally:
            channels.stop()

    def test_replace_backend_swaps_address(self, rules, server):
        channels = make_channels(server)
        try:
            response, _ = channels.exchange(server.address, "alice", 1.0)
            assert response.allowed
            with QoSServerDaemon(rules,
                                 config=ServerConfig(workers=2)) as successor:
                assert channels.replace_backend(server.address,
                                                successor.address)
                # The old address is gone, the new one answers for real.
                response, _ = channels.exchange(successor.address,
                                                "alice", 1.0)
                assert response.allowed
                assert not response.is_default_reply
        finally:
            channels.stop()

    def test_replace_unknown_backend_is_noop(self, server):
        channels = make_channels(server)
        try:
            assert not channels.replace_backend(("127.0.0.1", 1),
                                                ("127.0.0.1", 2))
            # The original backend still works.
            response, _ = channels.exchange(server.address, "alice", 1.0)
            assert response.allowed
        finally:
            channels.stop()

    def _black_hole(self):
        """A bound UDP port that swallows datagrams and never replies."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        return sock

    def _pending_exchanges(self, channels, target, n):
        """Fire ``n`` exchanges at ``target`` from threads; return them."""
        results: list = []
        barrier = threading.Barrier(n + 1)

        def call() -> None:
            barrier.wait()
            results.append(channels.exchange(target, "alice", 1.0))

        threads = [threading.Thread(target=call, daemon=True)
                   for _ in range(n)]
        for t in threads:
            t.start()
        barrier.wait()
        return threads, results

    def test_replace_backend_resolves_every_outstanding_request(
            self, rules, server):
        """In-flight exchanges toward the replaced address all resolve.

        The reshard cutover swaps addresses while requests are pending;
        a stranded future would hang a router worker forever.  Pending
        calls must resolve through their armed timers as default
        replies — never block, never raise.
        """
        hole = self._black_hole()
        dead = hole.getsockname()
        try:
            channels = make_channels(server, udp_timeout=0.3, max_retries=1)
            channels.add_backend(dead)
            try:
                threads, results = self._pending_exchanges(channels, dead, 4)
                time.sleep(0.05)   # let the exchanges reach the wire
                assert channels.replace_backend(dead, server.address)
                for t in threads:
                    t.join(timeout=5.0)
                assert not any(t.is_alive() for t in threads)
                assert len(results) == 4
                for response, retries in results:
                    assert response.is_default_reply
                # New submissions ride the replacement channel for real.
                response, _ = channels.exchange(server.address, "alice", 1.0)
                assert response.allowed and not response.is_default_reply
            finally:
                channels.stop()
        finally:
            hole.close()

    def test_retire_backend_resolves_every_outstanding_request(
            self, rules, server):
        hole = self._black_hole()
        dead = hole.getsockname()
        try:
            channels = make_channels(server, udp_timeout=0.3, max_retries=1)
            channels.add_backend(dead)
            try:
                threads, results = self._pending_exchanges(channels, dead, 4)
                time.sleep(0.05)
                assert channels.retire_backend(dead)
                for t in threads:
                    t.join(timeout=5.0)
                assert not any(t.is_alive() for t in threads)
                assert len(results) == 4
                assert all(r.is_default_reply for r, _ in results)
                # The survivor still answers.
                response, _ = channels.exchange(server.address, "alice", 1.0)
                assert response.allowed and not response.is_default_reply
            finally:
                channels.stop()
        finally:
            hole.close()

    def test_retire_never_drops_the_last_backend(self, server):
        channels = make_channels(server)
        try:
            assert not channels.retire_backend(server.address)
            response, _ = channels.exchange(server.address, "alice", 1.0)
            assert response.allowed
        finally:
            channels.stop()

    def test_retired_channels_close_once_idle(self, rules, server):
        """Retired channels give their sockets back once drained.

        Every procplane worker restart (``replace_backend``) and every
        reshard shrink (``retire_backend``) retires one channel.  Its
        socket must close as soon as nothing is pending or in flight on
        it — not at ``stop()``, which a long-lived router never reaches.
        """
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("needs /proc/self/fd to count open descriptors")
        channels = make_channels(server)
        try:
            with QoSServerDaemon(rules,
                                 config=ServerConfig(workers=2)) as spare:
                home, away = server.address, spare.address
                channels.exchange(home, "alice", 1.0)
                baseline = len(os.listdir(fd_dir))
                for _ in range(50):
                    # A worker restart moves the shard to a new port ...
                    assert channels.replace_backend(home, away)
                    channels.exchange_many(
                        [(away, "alice", 1.0) for _ in range(4)])
                    # ... and a reshard grows onto home, then shrinks.
                    channels.add_backend(home)
                    channels.exchange_many(
                        [(addr, "alice", 1.0) for addr in (home, away)])
                    assert channels.retire_backend(away)
                    response, _ = channels.exchange(home, "alice", 1.0)
                    assert response.allowed
                    assert not response.is_default_reply
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline and (
                        channels._retired
                        or len(os.listdir(fd_dir)) != baseline):
                    time.sleep(channels.config.timer_tick)
                assert len(channels._retired) == 0
                assert len(os.listdir(fd_dir)) == baseline
        finally:
            channels.stop()
