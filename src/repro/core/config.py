"""Typed configuration for Janus deployments (real runtime and simulator).

Defaults follow the paper's implementation choices: a 100-microsecond UDP
communication timeout with at most 5 retries on the router (§III-B), worker
threads equal to the number of vCPUs on the QoS server (§III-C), and
configurable database sync / check-pointing intervals (§II-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bucket import RefillMode
from repro.core.errors import ConfigurationError
from repro.core.rules import DefaultRulePolicy, DENY_ALL

__all__ = [
    "AdmissionConfig",
    "ProcPlaneConfig",
    "RouterConfig",
    "ServerConfig",
    "ClusterTopology",
    "JanusConfig",
]


@dataclass(frozen=True, slots=True)
class AdmissionConfig:
    """Configuration of one QoS server's admission controller."""

    #: Policy for keys absent from the database (§II-D).
    default_rule: DefaultRulePolicy = DENY_ALL
    #: Bucket refill behaviour; INTERVAL matches the paper's housekeeping
    #: thread, CONTINUOUS is the exact lazy variant.
    refill_mode: RefillMode = RefillMode.CONTINUOUS
    #: Housekeeping refill period (seconds); only used in INTERVAL mode.
    refill_interval: float = 0.1
    #: "configurable update interval" for pulling rule changes from the DB.
    sync_interval: float = 30.0
    #: "configurable update interval" for check-pointing credits to the DB.
    checkpoint_interval: float = 30.0
    #: Number of lock shards protecting the local QoS table.  1 reproduces
    #: the paper's single synchronized map (its acknowledged bottleneck);
    #: larger values implement the paper's "can be further optimized"
    #: future work and are measured by the locking ablation.
    lock_shards: int = 1
    #: Maximum buckets kept across the table shards; 0 = unbounded.  When
    #: the table exceeds the cap, the housekeeping refill pass force-evicts
    #: idle buckets (full-and-idle buckets are already evicted lazily —
    #: they are exactly reconstructible from their rule, so eviction is
    #: lossless).  Keys with an outstanding credit lease are never evicted.
    max_table_entries: int = 0
    #: Server-wide default for the fraction of a bucket's capacity that
    #: may be out on credit leases at once; a rule's own
    #: ``max_lease_fraction`` overrides it.  0 disables granting.
    max_lease_fraction: float = 0.5
    #: Ceiling on the lease TTL the server will grant (seconds); requests
    #: asking for more are clamped, so a misconfigured or hostile router
    #: cannot park credit beyond the server's revocation horizon.
    max_lease_ttl: float = 5.0

    def __post_init__(self) -> None:
        if self.refill_interval <= 0:
            raise ConfigurationError(f"refill_interval must be > 0, got {self.refill_interval}")
        if self.sync_interval <= 0 or self.checkpoint_interval <= 0:
            raise ConfigurationError("sync and checkpoint intervals must be > 0")
        if self.lock_shards < 1:
            raise ConfigurationError(f"lock_shards must be >= 1, got {self.lock_shards}")
        if self.max_table_entries < 0:
            raise ConfigurationError(
                f"max_table_entries must be >= 0 (0 = unbounded), "
                f"got {self.max_table_entries}")
        if not (0.0 <= self.max_lease_fraction <= 1.0):
            raise ConfigurationError(
                f"max_lease_fraction must lie in [0, 1], "
                f"got {self.max_lease_fraction}")
        if self.max_lease_ttl <= 0:
            raise ConfigurationError(
                f"max_lease_ttl must be > 0, got {self.max_lease_ttl}")


@dataclass(frozen=True, slots=True)
class RouterConfig:
    """Configuration of a request-router node (§III-B)."""

    #: Per-attempt UDP timeout.  The paper uses 100 microseconds on AWS's
    #: intra-AZ network; the real-socket LocalCluster raises this because a
    #: GIL-scheduled Python server cannot guarantee 100 us turnarounds.
    udp_timeout: float = 100e-6
    #: Maximum number of attempts (the paper's "maximum number of 5 retries"
    #: yields a worst case of 5 x timeout before the default reply).
    max_retries: int = 5
    #: Verdict returned to the client when all retries fail.  Fail-open
    #: (True) preserves availability; fail-closed (False) preserves quota.
    default_reply: bool = True
    #: Maximum requests the channel coalesces into one v2 frame per send.
    #: 1 disables batching (every request is its own frame/datagram);
    #: larger values amortize syscall and wakeup cost under load without
    #: adding latency when idle (a lone pending request is sent
    #: immediately, never held back to fill a batch).
    batch_size: int = 64
    #: Timer-wheel granularity (seconds) for channel timeouts and
    #: retries.  An expiry fires within one tick after its deadline, so
    #: the effective retry timeout is ``udp_timeout`` rounded up to the
    #: next tick; ticks far below ``udp_timeout`` buy precision at the
    #: cost of more event-loop wakeups.
    timer_tick: float = 0.005
    #: Head-based trace sampling rate for requests that arrive *without*
    #: a trace id: 0 disables router-initiated tracing (requests already
    #: traced by the client are always honoured), 1 traces everything,
    #: and fractional rates trace deterministically 1-in-N (see
    #: :class:`repro.obs.tracing.HeadSampler`).  The tracing-overhead
    #: benchmark (``BENCH_obs.json``) gates the default-rate cost at
    #: ≤ 5% throughput and idle-p99.
    trace_sample_rate: float = 0.0
    #: Enable the credit-lease plane: hot keys are admitted router-locally
    #: from a leased credit balance with zero wire traffic (see
    #: :mod:`repro.runtime.lease`).  Off by default — when off, the
    #: router's wire image is byte-identical to the lease-free protocol
    #: and the hot path carries no tracker overhead.  Grants and revokes
    #: arrive on the channel's event loop.
    lease_enabled: bool = False
    #: A key becomes lease-worthy once it accrues this many wire checks
    #: within one decay window of the router's hotness tracker.
    lease_hot_threshold: int = 32
    #: Hotness-tracker decay window (seconds): counts halve every window,
    #: so a key that goes cold stops renewing within a few windows.
    lease_window: float = 1.0
    #: Credits requested per lease grant.  Sized against the hot key's
    #: observed rate: one grant should cover roughly a TTL's worth of
    #: checks.  The server may grant less (bucket low, or the rule's
    #: ``max_lease_fraction`` cap binding).
    lease_credits: float = 64.0
    #: Lease TTL requested (seconds); the server clamps it to its own
    #: ``AdmissionConfig.max_lease_ttl``.  On expiry the router returns
    #: the unspent remainder and renews if the key is still hot.
    lease_ttl: float = 0.5
    #: Maximum keys tracked/leased per router (memory bound on the
    #: tracker and lease cache; least-hot keys are dropped first).
    lease_max_keys: int = 1024

    def __post_init__(self) -> None:
        if self.udp_timeout <= 0:
            raise ConfigurationError(f"udp_timeout must be > 0, got {self.udp_timeout}")
        if self.max_retries < 1:
            raise ConfigurationError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.timer_tick <= 0:
            raise ConfigurationError(
                f"timer_tick must be > 0, got {self.timer_tick}")
        if not (0.0 <= self.trace_sample_rate <= 1.0):
            raise ConfigurationError(
                f"trace_sample_rate must be in [0, 1], "
                f"got {self.trace_sample_rate}")
        if self.lease_hot_threshold < 1:
            raise ConfigurationError(
                f"lease_hot_threshold must be >= 1, "
                f"got {self.lease_hot_threshold}")
        if self.lease_window <= 0 or self.lease_ttl <= 0:
            raise ConfigurationError(
                "lease_window and lease_ttl must be > 0")
        if self.lease_credits <= 0:
            raise ConfigurationError(
                f"lease_credits must be > 0, got {self.lease_credits}")
        if self.lease_max_keys < 1:
            raise ConfigurationError(
                f"lease_max_keys must be >= 1, got {self.lease_max_keys}")

    @property
    def worst_case_wait(self) -> float:
        """Upper bound on time spent before the default reply (§III-B)."""
        return self.udp_timeout * self.max_retries


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Configuration of a QoS server node (§III-C)."""

    #: Worker threads polling the FIFO; "N equals the number of vCPUs".
    workers: int = 4
    #: Maximum datagrams the UDP listener drains per socket wakeup and
    #: hands to a worker as one FIFO item.  1 reproduces the paper's
    #: packet-at-a-time listener; larger values amortize the queue and
    #: syscall overhead under load without adding latency when idle (the
    #: first receive still blocks, only already-queued packets are drained).
    batch_size: int = 32
    #: Blocking-receive timeout on the listener socket (seconds).  Bounds
    #: how long shutdown can lag behind ``stop()``: the listener only
    #: notices the stop flag between receives.  Lower values shut down
    #: faster at the cost of more idle wakeups.
    recv_timeout: float = 0.2
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Replication pull period for an optional HA slave (§III-C).
    ha_replication_interval: float = 1.0
    #: Duplicate-suppression window in seconds (extension; see
    #: :mod:`repro.core.dedup`).  ``None`` reproduces the paper's stateless
    #: server, where a router retry crossing a delayed response consumes a
    #: duplicate credit.
    dedup_window: "float | None" = None
    #: Shared-nothing worker *processes* per QoS node (the multi-core
    #: plane; see :mod:`repro.runtime.procplane`).  1 reproduces the
    #: paper's single-process node (worker *threads* only, GIL-bound in
    #: this Python reproduction).  ``P > 1`` splits the node into P
    #: processes, each owning the CRC32 shard range
    #: ``crc32(key) % P == i`` with its own admission controller,
    #: decode loop and metrics registry; the simulator models the same
    #: topology as P disjoint controller/lock partitions.
    processes: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.processes < 1:
            raise ConfigurationError(
                f"processes must be >= 1, got {self.processes}")
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.recv_timeout <= 0:
            raise ConfigurationError(
                f"recv_timeout must be > 0, got {self.recv_timeout}")
        if self.ha_replication_interval <= 0:
            raise ConfigurationError("ha_replication_interval must be > 0")
        if self.dedup_window is not None and self.dedup_window <= 0:
            raise ConfigurationError("dedup_window must be > 0 when set")


@dataclass(frozen=True, slots=True)
class ProcPlaneConfig:
    """Supervisor knobs for a multi-process QoS node.

    Governs how :class:`repro.runtime.procplane.ProcPlaneNode`
    supervises its worker processes (heartbeats, crash restarts,
    graceful drain).  Every worker owns a private port; the router's
    ``CRC32(key) mod N`` over the published per-shard port map lands
    each frame directly on the owning process.
    """

    #: How often each worker writes a heartbeat up its control pipe.
    heartbeat_interval: float = 0.2
    #: Silence longer than this (with the process still notionally alive)
    #: is treated as a hang and triggers a restart.
    heartbeat_timeout: float = 3.0
    #: How often each worker ships a bucket-table snapshot up the pipe —
    #: the re-seed source when the supervisor restarts it after a crash.
    snapshot_interval: float = 0.5
    #: Pause before respawning a dead worker (crash-loop damping).
    restart_backoff: float = 0.05
    #: Restarts allowed per worker slot before the supervisor gives up
    #: on it (the router's default replies then cover its shard range).
    max_restarts: int = 16
    #: How long the supervisor waits for a spawned worker to report ready.
    spawn_timeout: float = 30.0
    #: How long ``stop()`` waits for a worker to drain before terminating it.
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        for name in ("heartbeat_interval", "heartbeat_timeout",
                     "snapshot_interval", "restart_backoff",
                     "spawn_timeout", "drain_timeout"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be > 0, got {getattr(self, name)}")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ConfigurationError(
                "heartbeat_timeout must exceed heartbeat_interval "
                f"({self.heartbeat_timeout} <= {self.heartbeat_interval})")
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}")


@dataclass(frozen=True, slots=True)
class ClusterTopology:
    """Shape of a Janus deployment: node counts and instance types."""

    n_routers: int = 2
    n_qos_servers: int = 2
    router_instance: str = "c3.xlarge"
    qos_instance: str = "c3.xlarge"
    #: "gateway" (ELB-style, Fig. 1a) or "dns" (Route53-style, Fig. 1b).
    load_balancer: str = "gateway"
    #: Optional hot-standby slave per QoS server (§III-C).
    qos_ha: bool = False

    def __post_init__(self) -> None:
        if self.n_routers < 1 or self.n_qos_servers < 1:
            raise ConfigurationError("topology needs at least one router and one QoS server")
        if self.load_balancer not in ("gateway", "dns"):
            raise ConfigurationError(
                f"load_balancer must be 'gateway' or 'dns', got {self.load_balancer!r}")


@dataclass(frozen=True, slots=True)
class JanusConfig:
    """Aggregate configuration for a whole deployment."""

    topology: ClusterTopology = field(default_factory=ClusterTopology)
    router: RouterConfig = field(default_factory=RouterConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    #: DNS record TTL; §V-A uses 30 seconds and discusses the resulting
    #: client-pinning skew of the DNS load balancer.
    dns_ttl: float = 30.0

    def __post_init__(self) -> None:
        if self.dns_ttl <= 0:
            raise ConfigurationError(f"dns_ttl must be > 0, got {self.dns_ttl}")
