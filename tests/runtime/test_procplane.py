"""Tests for the multi-process QoS plane (supervisor + shard workers).

Real processes, real loopback sockets, tight supervisor timings.  The
contracts under test:

- **port-map fan-in is hop-free** — a check routed by ``CRC32(key)``
  lands on the owning worker process and is decided there;
- **lifecycle** — SIGTERM drains in-flight frames before exit (clean
  exit codes, every pre-drain frame answered); a SIGKILLed worker is
  restarted with its bucket state re-seeded from the last snapshot and
  its port re-registered; during the restart window checks against the
  dead shard resolve as router-synthesized default replies, never
  hangs or errors.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.config import ProcPlaneConfig, RouterConfig, ServerConfig
from repro.core.hashing import crc32_router
from repro.core.rules import QoSRule
from repro.runtime.procplane import ProcPlaneNode
from repro.runtime.udp_channel import ChannelSet

#: Generous rules: every admission should be a real ALLOW.
HOT_RULES = tuple(QoSRule(f"svc-{i}", refill_rate=1e9, capacity=1e9)
                  for i in range(8))

#: Snappy supervisor for tests: fast heartbeats, fast restart.
FAST_PLANE = ProcPlaneConfig(heartbeat_interval=0.1, heartbeat_timeout=0.6,
                             snapshot_interval=0.15, restart_backoff=0.05)

CHANNEL_CONFIG = RouterConfig(udp_timeout=0.5, max_retries=3)


def _wait_until(predicate, timeout: float = 10.0, step: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return False


class TestPortMap:
    def test_hop_free_shard_split(self):
        node = ProcPlaneNode(HOT_RULES,
                             config=ServerConfig(workers=1, processes=2),
                             plane=FAST_PLANE, name="pp-portmap")
        with node:
            backends = node.backend_addresses()
            assert len(backends) == 2
            assert backends == node.port_map()
            channels = ChannelSet(backends, CHANNEL_CONFIG)
            channels.start()
            try:
                for i in range(100):
                    key = f"svc-{i % 8}"
                    backend = backends[crc32_router(key, len(backends))]
                    response, _ = channels.exchange(backend, key, 1.0)
                    assert response.allowed
                    assert not response.is_default_reply
            finally:
                channels.stop()
            workers = node.worker_stats()
            assert sum(w["decisions"] for w in workers) == 100
            for worker in workers:
                assert worker["decisions"] > 0, "one shard got everything"

class TestLifecycle:
    def test_sigterm_drain_answers_inflight_frames(self):
        node = ProcPlaneNode(HOT_RULES,
                             config=ServerConfig(workers=1, processes=2),
                             plane=FAST_PLANE, name="pp-drain")
        node.start()
        backends = node.backend_addresses()
        channels = ChannelSet(backends, CHANNEL_CONFIG)
        channels.start()
        try:
            checks = []
            for i in range(60):
                key = f"svc-{i % 8}"
                checks.append((backends[crc32_router(key, len(backends))],
                               key, 1.0))
            results = channels.exchange_many(checks)
            assert all(r.allowed and not r.is_default_reply
                       for r, _ in results)
            processes = [handle.process for handle in node._handles]
        finally:
            channels.stop()
            node.stop()
        # Drain, not kill: every worker exited voluntarily (exit code 0
        # from the SIGTERM/drain path, not -SIGKILL) after answering
        # everything it had read.
        for process in processes:
            assert process.exitcode == 0, (
                f"worker exited {process.exitcode}, expected clean drain")

    def test_killed_worker_restarts_reseeded_and_reregistered(self):
        rules = tuple(QoSRule(f"svc-{i}", refill_rate=0.0, capacity=50.0)
                      for i in range(4))
        remaps = []
        node = ProcPlaneNode(
            rules, config=ServerConfig(workers=1, processes=2),
            plane=FAST_PLANE, name="pp-restart",
            on_remap=lambda shard, old, new: remaps.append((shard, old, new)))
        with node:
            backends = node.backend_addresses()
            channels = ChannelSet(backends, CHANNEL_CONFIG)
            channels.start()
            try:
                key = "svc-0"
                shard = crc32_router(key, len(backends))
                for _ in range(30):
                    response, _ = channels.exchange(backends[shard], key, 1.0)
                    assert response.allowed
                time.sleep(0.4)     # a snapshot reaches the supervisor
                victim = node._handles[shard]
                old_pid, old_port = victim.pid, victim.port
                os.kill(old_pid, signal.SIGKILL)
                assert _wait_until(
                    lambda: victim.pid != old_pid and not victim.exited), \
                    "worker was not restarted"
                time.sleep(0.2)     # replacement settles
                # Re-registered: the replacement reclaimed the same port,
                # so the published port map is unchanged and no remap
                # callback fired; the map still covers both shards.
                assert node.stats()["restarts"] == 1
                assert len(node.port_map()) == 2
                if victim.port == old_port:
                    assert not remaps
                else:
                    assert remaps == [(shard, (node.host, old_port),
                                       (node.host, victim.port))]
                    channels.replace_backend(*remaps[0][1:])
                # Re-seeded: 30 of 50 credits were burned pre-crash, so
                # the restored bucket admits ~20 more, then denies.
                allowed = 0
                for _ in range(25):
                    response, _ = channels.exchange(
                        node.port_map()[shard], key, 1.0)
                    allowed += bool(response.allowed)
                assert 15 <= allowed <= 22, (
                    f"expected ~20 post-restart admits from the re-seeded "
                    f"bucket, got {allowed}")
            finally:
                channels.stop()

    def test_default_replies_during_restart_window(self):
        node = ProcPlaneNode(HOT_RULES,
                             config=ServerConfig(workers=1, processes=2),
                             plane=ProcPlaneConfig(
                                 heartbeat_interval=0.1,
                                 heartbeat_timeout=2.0,
                                 snapshot_interval=0.15,
                                 restart_backoff=0.05),
                             name="pp-window")
        # One fast attempt per check: a dead backend resolves as a
        # default reply in ~100ms instead of burning the retry budget.
        quick = RouterConfig(udp_timeout=0.1, max_retries=1)
        with node:
            backends = node.backend_addresses()
            channels = ChannelSet(backends, quick)
            channels.start()
            try:
                key = next(f"svc-{i}" for i in range(8)
                           if crc32_router(f"svc-{i}", 2) == 0)
                live_key = next(f"svc-{i}" for i in range(8)
                                if crc32_router(f"svc-{i}", 2) == 1)
                response, _ = channels.exchange(backends[0], key, 1.0)
                assert response.allowed and not response.is_default_reply
                os.kill(node._handles[0].pid, signal.SIGKILL)
                # Until the supervisor's heartbeat timeout trips, the
                # dead shard must fail open: default replies, no hang.
                response, _ = channels.exchange(backends[0], key, 1.0)
                assert response.allowed
                assert response.is_default_reply
                # The sibling shard is untouched the whole time.
                response, _ = channels.exchange(backends[1], live_key, 1.0)
                assert response.allowed and not response.is_default_reply
                # And once the supervisor restarts the worker, real
                # replies resume on the same shard.
                victim = node._handles[0]
                assert _wait_until(lambda: not victim.exited
                                   and victim.process.is_alive()
                                   and victim.port)
                time.sleep(0.2)

                def real_reply():
                    r, _ = channels.exchange(node.port_map()[0], key, 1.0)
                    return r.allowed and not r.is_default_reply
                assert _wait_until(real_reply, timeout=5.0)
            finally:
                channels.stop()


class _LeaseWire:
    """Raw-socket lease/check client aimed at one procplane shard."""

    def __init__(self, sock, node, shard: int):
        self.sock = sock
        self.node = node
        self.shard = shard

    def target(self):
        return tuple(self.node.port_map()[self.shard])

    def qos(self, request_id: int, key: str) -> "bool | None":
        """One v1 check; None when the datagram was lost."""
        from repro.core.protocol import QoSRequest, decode_any
        import socket as socket_mod
        try:
            self.sock.sendto(QoSRequest(request_id, key).encode(),
                             self.target())
            data, _ = self.sock.recvfrom(65535)
        except socket_mod.timeout:
            return None
        (response,) = decode_any(data)[1]
        return bool(response.allowed)

    def lease(self, request, retries: int = 8):
        from repro.core.protocol import (
            LeaseGrant, decode_any, encode_lease_request_frame)
        import socket as socket_mod
        for _ in range(retries):
            try:
                self.sock.sendto(encode_lease_request_frame([request]),
                                 self.target())
                data, _ = self.sock.recvfrom(65535)
            except socket_mod.timeout:
                continue
            (reply,) = decode_any(data)[1]
            if isinstance(reply, LeaseGrant) \
                    and reply.request_id == request.request_id:
                return reply
        pytest.fail("no lease reply from worker")


class TestLeaseRestart:
    """SIGKILL + restart with an outstanding lease: exact accounting.

    The periodic worker snapshot carries the lease ledger.  After a kill
    the replacement restores both the post-debit bucket credit and the
    ledger entry, so no credit is invented (the grant stays debited) and
    none is lost beyond one TTL (a renewal's return of the unspent
    remainder still validates against the restored entry).
    """

    def _kill_and_restart(self, node, shard: int) -> None:
        time.sleep(0.5)     # snapshots carry the ledger upstream
        victim = node._handles[shard]
        old_pid = victim.pid
        os.kill(old_pid, signal.SIGKILL)
        assert _wait_until(
            lambda: victim.pid != old_pid and not victim.exited), \
            "worker was not restarted"
        time.sleep(0.2)     # replacement settles

    def test_kill_restart_preserves_lease_debit(self):
        from repro.core.protocol import LeaseRequest
        import socket as socket_mod

        rules = tuple(QoSRule(f"svc-{i}", refill_rate=0.0, capacity=100.0)
                      for i in range(4))
        node = ProcPlaneNode(
            rules, config=ServerConfig(workers=1, processes=2),
            plane=FAST_PLANE, name="pp-lease-restart")
        with node:
            key = "svc-0"
            shard = crc32_router(key, len(node.backend_addresses()))
            with socket_mod.socket(socket_mod.AF_INET,
                                   socket_mod.SOCK_DGRAM) as sock:
                sock.settimeout(1.0)
                wire = _LeaseWire(sock, node, shard)
                grant = wire.lease(LeaseRequest(
                    request_id=900, key=key, credits=40.0, ttl_ms=5_000))
                assert grant.lease_id > 0 and grant.credits == 40.0
                self._kill_and_restart(node, shard)
                assert _wait_until(lambda: wire.qos(901, key) is not None,
                                   timeout=5.0), "restarted shard silent"
                # No credit invented: the restored bucket still carries
                # the 40-credit debit (zero refill), so of the 100-credit
                # capacity at most ~59 admits remain (one burned above).
                allowed = 0
                for i in range(80):
                    verdict = wire.qos(1000 + i, key)
                    if verdict:
                        allowed += 1
                    elif verdict is None:
                        pytest.fail("lost datagram against live worker")
                assert 55 <= allowed <= 59, (
                    f"expected ~59 admits from the restored post-debit "
                    f"bucket, got {allowed}")

    def test_kill_restart_honours_renewal_return(self):
        from repro.core.protocol import LeaseRequest
        import socket as socket_mod

        rules = (QoSRule("svc-0", refill_rate=0.0, capacity=100.0),)
        node = ProcPlaneNode(
            rules, config=ServerConfig(workers=1, processes=2),
            plane=FAST_PLANE, name="pp-lease-return")
        with node:
            key = "svc-0"
            shard = crc32_router(key, 2)
            with socket_mod.socket(socket_mod.AF_INET,
                                   socket_mod.SOCK_DGRAM) as sock:
                sock.settimeout(1.0)
                wire = _LeaseWire(sock, node, shard)
                grant = wire.lease(LeaseRequest(
                    request_id=910, key=key, credits=40.0, ttl_ms=5_000))
                assert grant.credits == 40.0    # bucket: 100 -> 60
                self._kill_and_restart(node, shard)
                # Renewal against the restored ledger: return the full
                # 40 and ask for 10 afresh.  If the ledger survived, the
                # return re-credits (60 -> 100) and the 10-credit grant
                # leaves 90 admits.  Had the entry been lost, the return
                # would be rejected and only ~50 admits would remain.
                renewed = wire.lease(LeaseRequest(
                    request_id=911, key=key, credits=10.0, ttl_ms=5_000,
                    return_credits=40.0, return_lease_id=grant.lease_id))
                assert renewed.lease_id > grant.lease_id
                assert renewed.credits == 10.0
                allowed = 0
                for i in range(100):
                    verdict = wire.qos(2000 + i, key)
                    if verdict:
                        allowed += 1
                    elif verdict is None:
                        pytest.fail("lost datagram against live worker")
                assert 85 <= allowed <= 90, (
                    f"expected ~90 admits after the honoured return, "
                    f"got {allowed} (a rejected return would leave ~50)")


class TestRulePush:
    def test_put_rules_reaches_running_workers(self):
        node = ProcPlaneNode(HOT_RULES,
                             config=ServerConfig(workers=1, processes=2),
                             plane=FAST_PLANE, name="pp-rules")
        with node:
            backends = node.backend_addresses()
            channels = ChannelSet(backends, CHANNEL_CONFIG)
            channels.start()
            try:
                key = "late-tenant"
                shard = crc32_router(key, len(backends))
                response, _ = channels.exchange(backends[shard], key, 1.0)
                assert not response.allowed, "unknown key must be denied"
                node.put_rules([QoSRule(key, refill_rate=1e9, capacity=1e9)])

                def admitted():
                    r, _ = channels.exchange(backends[shard], key, 1.0)
                    return r.allowed
                assert _wait_until(admitted, timeout=5.0), \
                    "pushed rule never reached the owning worker"
            finally:
                channels.stop()
