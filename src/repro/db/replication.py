"""Multi-AZ master/standby database replication (paper §III-D).

The paper deploys RDS MySQL "in a Multi-AZ fashion": a master in one
availability zone, a standby in another, synchronous replication, and a DNS
name (managed by Route53) that always resolves to the current master.  On
master failure the standby is promoted and the DNS record flips.

:class:`ReplicatedDatabase` reproduces that contract over two
:class:`~repro.db.database.Database` copies:

- every mutating statement runs on the master and is forwarded to the
  standby under one replication lock, so the two never diverge; reads go to
  the master only;
- :meth:`fail_master` simulates an AZ failure: the standby is promoted to
  master, the failed node is detached, and the registered
  :class:`~repro.server.dns.DnsService` record (if any) is repointed;
- :meth:`launch_standby` seeds a replacement standby with a consistent copy
  of the master, taken under the same replication lock;
- reads and writes always go to the *current* master, addressed through the
  stable :attr:`endpoint` name.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, Sequence

from repro.core.errors import ReplicationError
from repro.db.database import Database, ResultSet, is_read

__all__ = ["ReplicatedDatabase"]


class ReplicatedDatabase:
    """A synchronous master/standby pair behind one stable endpoint name."""

    def __init__(self, endpoint: str = "qos-db.cluster.local",
                 master_az: str = "az-a", standby_az: str = "az-b"):
        self.endpoint = endpoint
        self._master = Database(name=f"{endpoint}@{master_az}")
        self._standby: Optional[Database] = Database(name=f"{endpoint}@{standby_az}")
        self._master_az = master_az
        self._standby_az = standby_az
        # The replication lock: a write holds it across master and standby,
        # and failover and standby seeding hold it too.
        self._lock = threading.Lock()
        self._failovers = 0
        # Optional callback invoked on failover with the new master's name;
        # the DNS layer registers here to repoint the endpoint record.
        self.on_failover: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------ #
    # client-facing (same surface as Database)
    # ------------------------------------------------------------------ #

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Execute against the current master; writes reach the standby."""
        if is_read(sql):
            # A read needs only a master reference (one atomic load); it
            # must not wait for a write being forwarded to the standby.
            return self._master.execute(sql, params)
        with self._lock:
            result = self._master.execute(sql, params)
            if self._standby is not None:
                self._standby.execute(sql, params)
        return result

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #

    @property
    def master_name(self) -> str:
        with self._lock:
            return self._master.name

    @property
    def standby_name(self) -> Optional[str]:
        with self._lock:
            return self._standby.name if self._standby else None

    @property
    def failovers(self) -> int:
        return self._failovers

    @property
    def has_standby(self) -> bool:
        with self._lock:
            return self._standby is not None

    def fail_master(self) -> str:
        """Kill the master and promote the standby (§III-D failover).

        Returns the new master's node name.  Raises
        :class:`~repro.core.errors.ReplicationError` when no standby is
        available (a double failure).
        """
        with self._lock:
            if self._standby is None:
                raise ReplicationError(
                    f"{self.endpoint}: master failed with no standby available")
            self._master = self._standby
            self._standby = None
            self._master_az, self._standby_az = self._standby_az, self._master_az
            self._failovers += 1
            new_master = self._master.name
        if self.on_failover is not None:
            self.on_failover(new_master)
        return new_master

    def launch_standby(self) -> str:
        """Provision a fresh standby seeded from the master.

        After a failover the operator launches a replacement standby; RDS
        seeds it from a snapshot.  The copy and the attach happen under the
        replication lock, so every write lands either in the copy or in the
        forwarding that follows it, never in both.
        """
        with self._lock:
            if self._standby is not None:
                raise ReplicationError(f"{self.endpoint}: standby already present")
            standby = Database(name=f"{self.endpoint}@{self._standby_az}")
            self._master.copy_to(standby)
            self._standby = standby
            return standby.name
