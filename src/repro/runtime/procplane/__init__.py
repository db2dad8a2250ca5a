"""Multi-process QoS plane: shared-nothing shard workers under a supervisor.

A Janus node at ``ServerConfig.processes = N > 1`` is a supervisor
(:class:`ProcPlaneNode`) plus ``N`` worker *processes*.  Each worker owns
a disjoint CRC32 shard range — ``crc32(key) % N == i`` — with its own
:class:`~repro.core.admission.AdmissionController`, protocol-v2 decode
loop, and metrics registry, so the workers share nothing and the GIL
stops being the node's ceiling.

UDP fan-in is a port map: every worker binds its own port, and the
supervisor publishes the ordered per-shard port map to the router, whose
CRC32 partitioner then picks the owning worker's port directly.  Zero
cross-process hops on the hot path.

Ownership is advisory — a worker decides *any* key it is handed — so
restart windows and stray frames degrade to correct-but-unsharded
behaviour instead of errors.
"""

from repro.runtime.procplane.supervisor import ProcPlaneNode
from repro.runtime.procplane.worker import (
    ShardWorkerDaemon,
    WorkerSpec,
    worker_main,
)

__all__ = [
    "ProcPlaneNode",
    "ShardWorkerDaemon",
    "WorkerSpec",
    "worker_main",
]
