"""LocalCluster: a complete real-socket Janus deployment on localhost.

Boots, on ephemeral ports: ``n_qos_servers`` QoS nodes sharing one rule
database, ``n_routers`` HTTP request routers (each knowing the full
ordered backend list — the partition map), and a gateway load-balancer
reverse proxy in front.  The result is the paper's Fig. 1a running on
one machine, suitable for integration tests, the quickstart example,
and small real-socket benchmarks.

Each QoS node is either a single in-process
:class:`~repro.runtime.udp_server.QoSServerDaemon`
(``ServerConfig.processes == 1``, the default) or a multi-process
:class:`~repro.runtime.procplane.ProcPlaneNode` — a supervisor plus
``processes`` shared-nothing shard worker processes.  In the
multi-process case every worker's private port joins the routers'
backend list in global shard order, so the routers' CRC32 partitioner
sends each key directly to its owning worker *process* with zero
cross-process hops; worker restarts that land on a new port are patched
into every router via ``replace_backend``.

The UDP timeout defaults to 50 ms rather than the paper's 100 µs: a
GIL-scheduled Python worker cannot guarantee EC2-class turnarounds, and a
too-tight timeout would make every admission burn its full retry budget
and consume duplicate credits.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import ProcPlaneConfig, RouterConfig, ServerConfig
from repro.db.replication import ReplicatedDatabase
from repro.db.rulestore import RuleStore
from repro.obs.metrics import merge_renderings
from repro.runtime.client import QoSClient
from repro.runtime.http_router import RequestRouterDaemon
from repro.runtime.loadbalancer import GatewayLoadBalancerDaemon
from repro.runtime.procplane import ProcPlaneNode
from repro.runtime.reshard import NodeHandle, ReshardCoordinator, ReshardReport
from repro.runtime.udp_server import QoSServerDaemon

__all__ = ["LocalCluster"]


class LocalCluster:
    """A running Janus deployment on 127.0.0.1."""

    def __init__(
        self,
        *,
        n_routers: int = 2,
        n_qos_servers: int = 2,
        router_config: Optional[RouterConfig] = None,
        server_config: Optional[ServerConfig] = None,
        plane_config: Optional[ProcPlaneConfig] = None,
        lb_algorithm: str = "round_robin",
    ):
        # The rules live in a Multi-AZ master/standby pair (§III-D).
        self.db = ReplicatedDatabase()
        self.rules = RuleStore(self.db)
        self._router_config = router_config or RouterConfig(
            udp_timeout=0.05, max_retries=5)
        self._server_config = server_config or ServerConfig(workers=4)
        self._plane_config = plane_config or ProcPlaneConfig()
        self._n_routers = n_routers
        self._n_qos = n_qos_servers
        self._lb_algorithm = lb_algorithm
        self.qos_servers: list[QoSServerDaemon] = []
        self.qos_nodes: list[ProcPlaneNode] = []
        self.routers: list[RequestRouterDaemon] = []
        self.load_balancer: Optional[GatewayLoadBalancerDaemon] = None
        self._running = False
        self._coordinator: Optional[ReshardCoordinator] = None
        self._node_seq = n_qos_servers     # names for nodes added live

    @property
    def processes(self) -> int:
        return self._server_config.processes

    # ------------------------------------------------------------------ #

    def start(self) -> "LocalCluster":
        if self._running:
            return self
        self._running = True
        if self.processes > 1:
            backend_addresses = self._start_nodes()
        else:
            self.qos_servers = [
                QoSServerDaemon(self.rules, config=self._server_config,
                                name=f"qos-{i}").start()
                for i in range(self._n_qos)
            ]
            backend_addresses = [s.address for s in self.qos_servers]
        # With multi-process nodes, server.decide spans live in worker
        # processes; routers collect them over the supervisor pipes so
        # GET /trace/<id> stays whole-trace.
        collect = self._node_trace_spans if self.qos_nodes else None
        self.routers = [
            RequestRouterDaemon(backend_addresses,
                                config=self._router_config,
                                name=f"router-{i}",
                                extra_trace_spans=collect).start()
            for i in range(self._n_routers)
        ]
        self.load_balancer = GatewayLoadBalancerDaemon(
            [r.url for r in self.routers],
            algorithm=self._lb_algorithm).start()
        handles = ([self._node_handle(node) for node in self.qos_nodes]
                   or [self._server_handle(s) for s in self.qos_servers])
        self._coordinator = ReshardCoordinator(
            self.routers, handles,
            registry=self.routers[0].metrics if self.routers else None)
        for router in self.routers:
            router.reshard_control = self._reshard_control
        return self

    def _start_nodes(self) -> "list[tuple[str, int]]":
        """Boot multi-process nodes; returns the global backend list.

        Worker processes cannot share the parent's in-process rule
        database, so each node ships a snapshot of the rules at start
        (rules added later go out via ``put_rules``).  Node ``i`` owns
        global shards ``[i*P, (i+1)*P)`` of ``n_qos * P`` total, and its
        workers' ports are appended in that order — the resulting
        backend list *is* the global shard map the routers hash over.
        """
        rules = tuple(self.rules.load_all().values())
        processes = self.processes
        shard_total = self._n_qos * processes
        self.qos_nodes = []
        for i in range(self._n_qos):
            node = ProcPlaneNode(
                rules, config=self._server_config,
                plane=self._plane_config, name=f"qos-{i}",
                shard_base=i * processes, shard_total=shard_total,
                on_remap=self._on_worker_remap)
            node.start()
            self.qos_nodes.append(node)
        addresses: "list[tuple[str, int]]" = []
        for node in self.qos_nodes:
            addresses.extend(node.backend_addresses())
        return addresses

    def _node_trace_spans(self, trace_id: int) -> "list[dict]":
        """Worker-process spans of one trace, via the supervisor pipes."""
        spans: "list[dict]" = []
        for node in self.qos_nodes:
            spans.extend(node.trace_spans(trace_id))
        return spans

    def _on_worker_remap(self, shard_index: int, old_addr, new_addr) -> None:
        """Patch a restarted worker's new port into every router."""
        for router in self.routers:
            router.replace_backend(old_addr, new_addr)

    # ------------------------------------------------------------------ #
    # Live resharding (node join/leave without restart)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _server_handle(server: QoSServerDaemon) -> NodeHandle:
        """Coordinator view of a single-process QoS daemon."""
        return NodeHandle(
            name=server.name,
            addresses=(tuple(server.address),),
            snapshot=server.controller.snapshot,
            stop=server.stop,
        )

    @staticmethod
    def _node_handle(node: ProcPlaneNode) -> NodeHandle:
        """Coordinator view of a multi-process node (all workers)."""
        def snapshot():
            return [snap for _, snaps in sorted(
                node.bucket_snapshots().items()) for snap in snaps]
        return NodeHandle(
            name=node.name,
            addresses=tuple(tuple(a) for a in node.backend_addresses()),
            snapshot=snapshot,
            stop=node.stop,
        )

    def reshard_add(self) -> ReshardReport:
        """Boot one more QoS node and migrate its share of keys to it."""
        if self._coordinator is None:
            raise RuntimeError("cluster is not started")
        name = f"qos-{self._node_seq}"
        self._node_seq += 1
        if self.processes > 1:
            shard_total = sum(n.n_workers for n in self.qos_nodes)
            rules = tuple(self.rules.load_all().values())
            node = ProcPlaneNode(
                rules, config=self._server_config,
                plane=self._plane_config, name=name,
                shard_base=shard_total,
                shard_total=shard_total + self.processes,
                on_remap=self._on_worker_remap)
            node.start()
            try:
                report = self._coordinator.add_node(self._node_handle(node))
            except Exception:
                node.stop()
                raise
            self.qos_nodes.append(node)
            self._retarget_procplane()
        else:
            server = QoSServerDaemon(self.rules, config=self._server_config,
                                     name=name).start()
            try:
                report = self._coordinator.add_node(
                    self._server_handle(server))
            except Exception:
                server.stop()
                raise
            self.qos_servers.append(server)
        return report

    def reshard_remove(self, name: str, *, dead: bool = False) \
            -> ReshardReport:
        """Drain one QoS node out of the cluster and stop it.

        ``dead=True`` marks it already crashed: it is excluded from the
        topology broadcast and not snapshotted — its un-checkpointed
        credit (at most one refill interval's worth once the remap
        commits) is lost, and the remaining nodes absorb its keys cold.
        """
        if self._coordinator is None:
            raise RuntimeError("cluster is not started")
        report = self._coordinator.remove_node(name, dead=dead)
        self.qos_servers = [s for s in self.qos_servers if s.name != name]
        self.qos_nodes = [n for n in self.qos_nodes if n.name != name]
        self._retarget_procplane()
        return report

    def _retarget_procplane(self) -> None:
        """Renumber surviving workers after the node list changed.

        The routers hash over the concatenated backend list, so each
        node's workers occupy the global shard range at the node's
        cumulative position.  Advisory only — a worker decides any key
        handed to it — so retargeting after the commit is safe.
        """
        total = sum(node.n_workers for node in self.qos_nodes)
        base = 0
        for node in self.qos_nodes:
            node.retarget_shards(base, total)
            base += node.n_workers

    def topology(self) -> dict:
        """The committed cluster topology (epoch, backends, nodes)."""
        if self._coordinator is None:
            raise RuntimeError("cluster is not started")
        return self._coordinator.status()

    def _reshard_control(self, payload: dict) -> dict:
        """``POST /topology`` dispatcher (wired into every router)."""
        action = payload.get("action")
        if action == "status":
            return self.topology()
        if action == "add":
            return self.reshard_add().as_dict()
        if action == "remove":
            name = payload.get("node")
            if not isinstance(name, str) or not name:
                raise ValueError('remove needs a "node" name')
            return self.reshard_remove(
                name, dead=bool(payload.get("dead", False))).as_dict()
        raise ValueError(f"unknown action {action!r}; "
                         'use "add", "remove" or "status"')

    def put_rule(self, rule) -> None:
        """Write a rule to the database and push it to worker nodes."""
        self.rules.put_rule(rule)
        for node in self.qos_nodes:
            node.put_rules([rule])

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self.load_balancer is not None:
            self.load_balancer.stop()
        for router in self.routers:
            router.stop()
        for server in self.qos_servers:
            server.stop()
        for node in self.qos_nodes:
            node.stop()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #

    @property
    def endpoint(self) -> str:
        """The load-balancer URL — what applications point at."""
        if self.load_balancer is None:
            raise RuntimeError("cluster is not started")
        return self.load_balancer.url

    def client(self, **kwargs) -> QoSClient:
        """A QoS client bound to this cluster's endpoint."""
        return QoSClient(self.endpoint, **kwargs)

    def qos_check(self, key: str, cost: float = 1.0) -> bool:
        """One-off convenience check (creates a throwaway client)."""
        return self.client().check(key, cost)

    def qos_check_many(self, keys, cost: float = 1.0) -> list[bool]:
        """One-off convenience batch check (one ``POST /qos/batch``)."""
        return self.client().check_many(keys, cost)

    def total_decisions(self) -> int:
        if self.qos_nodes:
            return sum(node.total_decisions() for node in self.qos_nodes)
        return sum(s.controller.stats.decisions for s in self.qos_servers)

    def trace_spans(self, trace_id: int) -> "list[dict]":
        """Spans of one trace, across every process of the deployment.

        Router/client spans come from the process-wide buffer; with
        multi-process nodes the server-side ``server.decide`` spans live
        in the worker processes and are collected over the supervisor
        pipes.
        """
        from repro.obs.tracing import global_trace_buffer
        spans = [span.as_dict()
                 for span in global_trace_buffer().get(trace_id)]
        spans.extend(self._node_trace_spans(trace_id))
        return spans

    def prometheus_metrics(self) -> str:
        """Every daemon's registry, merged into one exposition.

        Families repeated across daemons (and, for multi-process nodes,
        across worker processes) are merged under a single
        ``# HELP``/``# TYPE`` header; label sets keep the series apart.
        """
        parts = [router.prometheus_metrics() for router in self.routers]
        parts.extend(server.metrics.render()
                     for server in self.qos_servers)
        parts.extend(node.metrics_text() for node in self.qos_nodes)
        return merge_renderings(parts)

    def stats(self) -> dict:
        """Aggregated operational view of the whole deployment."""
        qos = []
        for server in self.qos_servers:
            s = server.controller.stats
            qos.append({
                "name": server.name,
                "address": list(server.address),
                "decisions": s.decisions,
                "admitted": s.admitted,
                "denied": s.denied,
                "rule_misses": s.rule_misses,
                "unknown_keys": s.unknown_keys,
                "local_table_keys": server.controller.table_size(),
                "malformed_packets": server.malformed_packets,
            })
        for node in self.qos_nodes:
            qos.append(node.stats())
        routers = [r.stats() for r in self.routers]
        return {
            "endpoint": self.endpoint if self._running else None,
            "rules_in_database": self.rules.count(),
            "processes": self.processes,
            "routers": routers,
            "qos_servers": qos,
        }
