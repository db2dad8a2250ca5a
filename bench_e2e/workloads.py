"""The four workloads and their seeded request streams.

Everything random here — keys, key order, Zipf draws, the Poisson
schedule — comes from ``--seed``; the program under test only ever sees
the generated requests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "request_stream", "poisson_schedule"]

#: A rule that can never deny inside a run.
NEVER_DENY = (1e9, 1e9)          # (refill_rate, capacity)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: True: requests enter through the gateway load balancer; False:
    #: each client is pinned straight to one router (the DNS-LB shape).
    gateway: bool
    n_keys: int
    #: Keys per call: 1 = ``GET /qos``, more = ``POST /qos/batch``.
    batch: int
    #: ``None`` = closed loop; otherwise the total Poisson rate (checks/s).
    open_rate: "float | None"
    #: ``None`` = uniform key choice; otherwise the Zipf exponent.
    zipf_s: "float | None"
    refill_rate: float
    capacity: float
    lease: bool
    #: Calls replayed per layer by the ``--trace 1`` waterfall.
    replay_calls: int

    @property
    def never_deny(self) -> bool:
        return (self.refill_rate, self.capacity) == NEVER_DENY


WORKLOADS = {w.name: w for w in (
    Workload(
        "gw_single",
        "closed loop, one key per GET /qos through the gateway LB: client, "
        "loadbalancer and router HTTP edge do the work, the data plane "
        "almost none (the paper's ab run against ELB)",
        gateway=True, n_keys=4096, batch=1, open_rate=None, zipf_s=None,
        refill_rate=NEVER_DENY[0], capacity=NEVER_DENY[1], lease=False,
        replay_calls=1000),
    Workload(
        "gw_batch64",
        "closed loop, POST /qos/batch of 64 keys through the LB over 65,536 "
        "rules: HTTP hop amortised 64x, so the data plane dominates; the "
        "large table shows rule load, memory and maintenance passes",
        gateway=True, n_keys=65536, batch=64, open_rate=None, zipf_s=None,
        refill_rate=NEVER_DENY[0], capacity=NEVER_DENY[1], lease=False,
        replay_calls=250),
    Workload(
        "dns_open",
        "open loop, Poisson 500 checks/s over 2 connections pinned to "
        "routers (DNS-LB shape, no LB hop), latency timed from when each "
        "request was due: the unloaded latency an application adds",
        gateway=False, n_keys=4096, batch=1, open_rate=500.0, zipf_s=None,
        refill_rate=NEVER_DENY[0], capacity=NEVER_DENY[1], lease=False,
        replay_calls=2000),
    Workload(
        "dns_zipf_throttle",
        "closed loop pinned to routers, Zipf(1.1) keys with rate 20/s and "
        "capacity 40, leases on: the deny path, refill arithmetic and the "
        "lease plane that the other three workloads bypass",
        gateway=False, n_keys=4096, batch=1, open_rate=None, zipf_s=1.1,
        refill_rate=20.0, capacity=40.0, lease=True,
        replay_calls=2000),
)}


def request_stream(workload: Workload, seed: int, client: int,
                   length: int) -> "list[tuple[int, ...]]":
    """``length`` requests for one client, each a tuple of key indices."""
    rng = random.Random(f"{seed}:{workload.name}:keys:{client}")
    n = workload.n_keys
    total = length * workload.batch
    if workload.zipf_s is None:
        draws = rng.choices(range(n), k=total)
    else:
        cum = list(itertools.accumulate(
            (rank + 1) ** -workload.zipf_s for rank in range(n)))
        draws = rng.choices(range(n), cum_weights=cum, k=total)
    b = workload.batch
    return [tuple(draws[i:i + b]) for i in range(0, total, b)]


def poisson_schedule(workload: Workload, seed: int, client: int,
                     clients: int, duration: float) -> "list[float]":
    """Due times (seconds from start) of one client's share of the rate."""
    rng = random.Random(f"{seed}:{workload.name}:schedule:{client}")
    rate = workload.open_rate / clients
    due, t = [], rng.expovariate(rate)
    while t < duration:
        due.append(t)
        t += rng.expovariate(rate)
    return due
