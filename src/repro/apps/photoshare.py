"""The photo-sharing web application of §IV/§V-D (the Fig. 13 workload).

Deployment (paper): the app behind an ELB with 5 c3.xlarge web nodes, a
dedicated r3.large Memcached node, a dedicated r3.large MySQL node, and
Janus behind its own ELB (2 router + 2 QoS c3.xlarge nodes).

Index-page flow, exactly §IV's steps with the wrapper inserted before (b):

    (a) obtain the client IP                → the QoS key (``ip:<addr>``)
    (w) **QoS check against Janus**         → 403 on FALSE
    (b) Memcached session lookup/create
    (c) MySQL query for the latest N images (a real SQL query against the
        :mod:`repro.db` SQLite database holding a ``photos`` table)
    (d) render the HTML response            → CPU on the web node

The Memcached session store is functional (:class:`repro.apps.memcached`),
so repeat visits from one IP hit the session path the way the real app
would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.keys import ip_key
from repro.db.database import Database
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.server.cluster import SimJanusCluster
from repro.simnet.engine import Simulation
from repro.simnet.network import Network
from repro.simnet.node import SimNode
from repro.simnet.rng import RngRegistry
from repro.workload.simclient import qos_round_trip

from repro.apps.memcached import Memcached
from repro.apps.webapp import HTTP_FORBIDDEN, HTTP_OK

__all__ = ["PhotoShareApp", "PageView"]

PHOTOS_SCHEMA = ("CREATE TABLE IF NOT EXISTS photos ("
                 "photo_id INTEGER PRIMARY KEY, owner TEXT NOT NULL, "
                 "title TEXT, uploaded_at REAL NOT NULL)")
LATEST_N = 20


@dataclass(frozen=True, slots=True)
class PageView:
    """One rendered (or throttled) index-page request."""

    status: int
    allowed: bool
    latency: float          # end-to-end as the client saw it
    qos_latency: float      # time inside the QoS check
    session_hit: bool
    n_photos: int


class PhotoShareApp:
    """The photo-sharing deployment inside a Janus cluster's simulation.

    Shares the :class:`~repro.server.SimJanusCluster`'s simulation, network
    and RNG so Fig. 13 runs app and QoS system side by side.  Pass
    ``janus=None`` for the no-QoS baseline variant.
    """

    def __init__(
        self,
        sim: Simulation,
        net: Network,
        rng: RngRegistry,
        *,
        janus: Optional[SimJanusCluster] = None,
        n_web_nodes: int = 5,
        web_instance: str = "c3.xlarge",
        calibration: Calibration = DEFAULT_CALIBRATION,
        n_photos: int = 500,
    ):
        self.sim = sim
        self.net = net
        self.janus = janus
        self.calib = calibration
        self._rng = rng.stream("photoshare.service")
        self.web_nodes = [SimNode(sim, f"web-{i}", web_instance)
                          for i in range(n_web_nodes)]
        # The web tier lives outside Janus's placement group (it is a
        # *client* of Janus), so its QoS checks cross the client-class link.
        for node in self.web_nodes:
            net.register_zone(node.name, "client")
        self._next_node = 0
        # Dedicated r3.large helpers (their latency is modelled; their
        # *state* is real).
        self.memcached = Memcached(clock=sim.clock)
        self.mysql = Database(name="photoshare-mysql")
        self.mysql.execute(PHOTOS_SCHEMA)
        # Seed timestamps are negative so photos uploaded during the run
        # (sim.now >= 0) always sort as the newest.
        for i in range(n_photos):
            self.mysql.execute(
                "INSERT INTO photos (photo_id, owner, title, uploaded_at) "
                "VALUES (?, ?, ?, ?)",
                (i + 1, f"user{i % 37}", f"photo #{i + 1}",
                 float(i - n_photos)))
        self.pages_served = 0
        self.pages_throttled = 0

    # ------------------------------------------------------------------ #

    def _jitter(self, mean: float) -> float:
        sigma = self.calib.app_sigma
        return mean * self._rng.lognormvariate(-sigma * sigma / 2.0, sigma)

    def _pick_node(self) -> SimNode:
        # The app ELB round-robins across web nodes.
        node = self.web_nodes[self._next_node]
        self._next_node = (self._next_node + 1) % len(self.web_nodes)
        return node

    def _qos_check(self, node_name: str, key: str):
        """The paper's ``qos_check($key)`` wrapper (§IV code snippet)."""
        response = yield from qos_round_trip(
            self.janus, node_name, key, mode="gateway")
        return response.allowed

    def index_page(self, client_ip: str):
        """Serve one index-page request (generator; yields sim events).

        Returns a :class:`PageView`.  Drive with ``yield from`` inside a
        client process; client-side network time is the caller's concern.
        """
        node = self._pick_node()
        t0 = self.sim.now
        # (a) obtain the client IP — free; it is in the request already.
        key = ip_key(client_ip)
        qos_latency = 0.0
        if self.janus is not None:
            t_qos = self.sim.now
            allowed = yield from self._qos_check(node.name, key)
            qos_latency = self.sim.now - t_qos
            if not allowed:
                yield from node.cpu(self._jitter(self.calib.app_throttle_cpu))
                self.pages_throttled += 1
                return PageView(HTTP_FORBIDDEN, False, self.sim.now - t0,
                                qos_latency, False, 0)
        # (b) Memcached session sharing.
        session = self.memcached.get(f"session:{client_ip}")
        hit = session is not None
        if not hit:
            self.memcached.set(f"session:{client_ip}",
                               {"ip": client_ip, "since": self.sim.now},
                               ttl=300.0)
        yield self.sim.timeout(self._jitter(self.calib.app_memcached_time))
        # (c) MySQL: latest N uploaded images (a real query).
        result = self.mysql.execute(
            "SELECT photo_id, owner, title FROM photos "
            "ORDER BY uploaded_at DESC LIMIT 20")
        yield self.sim.timeout(self._jitter(self.calib.app_mysql_time))
        # (d) render the HTML response.
        yield from node.cpu(self._jitter(self.calib.app_cpu_time))
        self.pages_served += 1
        return PageView(HTTP_OK, True, self.sim.now - t0, qos_latency,
                        hit, len(result))

    def upload_photo(self, owner: str, title: str):
        """Add a photo (exercises the write path; used by tests/examples)."""
        count = int(self.mysql.execute("SELECT COUNT(*) FROM photos").scalar())
        self.mysql.execute(
            "INSERT INTO photos (photo_id, owner, title, uploaded_at) "
            "VALUES (?, ?, ?, ?)", (count + 1, owner, title, self.sim.now))
        yield self.sim.timeout(self._jitter(self.calib.app_mysql_time))
        return count + 1
