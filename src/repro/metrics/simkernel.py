"""Simulation-kernel micro-harness: DES events/second, fused vs seed.

Every figure of the paper's evaluation is regenerated by the pure-Python
DES kernel in :mod:`repro.simnet.engine`; its event rate bounds the whole
pipeline.  This module keeps the repository's *seed* kernel runnable
(:class:`SeedSimulation` and friends: per-event list/tuple allocation,
``timeout`` built from an ``Event`` plus a lambda, cancelled sleeps left
as payload-``None`` tombstones) so the optimized kernel's speedup is
always measured against it on the same machine in the same run.

Two measurements make up the regression surface
(``benchmarks/test_simkernel_regression.py`` turns them into the gate and
writes ``BENCH_simkernel.json``):

- **kernel events/second** on a timeout-heavy microbench that mirrors the
  simulated request path (two ``timeout`` waits plus one plain-float
  sleep per hop, the dominant pattern in ``workload.simclient`` and the
  app models);
- **sweep wall-clock**, serial vs ``jobs=4``, over a fixed quick-scale
  grid of DES throughput points (the fig8-style workload that
  :mod:`repro.experiments.parallel` fans across processes).

Both kernels support trace recording (``sim.trace = []`` before ``run``)
so the golden-trace tests can assert the optimized kernel replays the
seed's exact ``(time, seq, process)`` sequence.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import platform
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Callable, Deque, Generator, Optional

from repro.core.errors import SimulationError
from repro.simnet.engine import Interrupt, Simulation

__all__ = [
    "SeedSimulation", "SeedEvent", "SeedProcess", "SeedStore",
    "SeedResource", "seed_first_of",
    "KernelPoint", "SimkernelReport",
    "timeout_heavy_workload", "measure_events_per_sec",
    "run_kernel_bench", "run_sweep_bench", "write_report",
]

ProcessGen = Generator[Any, Any, Any]


# --------------------------------------------------------------------- #
# The seed kernel, kept runnable for comparison.  This is the engine as
# the repository originally shipped it: a fresh ``[time, seq, proc,
# ("kind", arg)]`` list plus payload tuple per scheduled event, sleeps
# cancelled by nulling the payload (the tombstone stays in the heap until
# popped), and ``timeout`` routed through an Event/lambda pair.
# --------------------------------------------------------------------- #

def seed_first_of(sim: "SeedSimulation", event: "SeedEvent",
                  delay: float) -> "SeedEvent":
    """The seed's racing event; the loser's callback and the timeout's
    heap entry are left attached forever (the leak PR 2 fixes in the
    live kernel)."""
    out = SeedEvent(sim)

    def on_ok(value: Any) -> None:
        if not out._triggered:
            out.trigger(("ok", value))

    def on_timeout() -> None:
        if not out._triggered:
            out.trigger(("timeout", None))

    event.add_callback(on_ok)
    sim.call_in(delay, on_timeout)
    return out


class SeedEvent:
    """The seed kernel's one-shot event (eager waiter/callback lists)."""

    __slots__ = ("sim", "_triggered", "value", "_waiters", "_callbacks")

    def __init__(self, sim: "SeedSimulation"):
        self.sim = sim
        self._triggered = False
        self.value: Any = None
        self._waiters: list["SeedProcess"] = []
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    def trigger(self, value: Any = None) -> None:
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self.value = value
        for proc in self._waiters:
            self.sim._schedule_resume(proc, value)
        self._waiters.clear()
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(value)

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        if self._triggered:
            fn(self.value)
        else:
            self._callbacks.append(fn)

    def _add_waiter(self, proc: "SeedProcess") -> None:
        if self._triggered:
            self.sim._schedule_resume(proc, self.value)
        else:
            self._waiters.append(proc)

    def _remove_waiter(self, proc: "SeedProcess") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass


class SeedProcess:
    """The seed kernel's running generator."""

    __slots__ = ("sim", "name", "_gen", "_done", "_result", "_completion",
                 "_waiting_on", "_sleep_handle")

    def __init__(self, sim: "SeedSimulation", gen: ProcessGen,
                 name: str = "proc"):
        self.sim = sim
        self.name = name
        self._gen = gen
        self._done = False
        self._result: Any = None
        self._completion: Optional[SeedEvent] = None
        self._waiting_on: Optional[SeedEvent] = None
        self._sleep_handle: Optional[list] = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def result(self) -> Any:
        if not self._done:
            raise SimulationError(f"process {self.name!r} still running")
        return self._result

    def completion_event(self) -> SeedEvent:
        if self._completion is None:
            self._completion = SeedEvent(self.sim)
            if self._done:
                self._completion.trigger(self._result)
        return self._completion

    def interrupt(self, cause: Any = None) -> None:
        if self._done:
            return
        if self._waiting_on is not None:
            self._waiting_on._remove_waiter(self)
            self._waiting_on = None
        if self._sleep_handle is not None:
            self._sleep_handle[3] = None          # cancel pending resume
            self._sleep_handle = None
        self.sim._schedule_throw(self, Interrupt(cause))

    def _step(self, send_value: Any = None,
              throw_exc: Optional[BaseException] = None):
        self._waiting_on = None
        self._sleep_handle = None
        try:
            if throw_exc is not None:
                yielded = self._gen.throw(throw_exc)
            else:
                yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt:
            self._finish(None)
            return
        if isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {yielded}")
            self._sleep_handle = self.sim._schedule_entry(
                self.sim.now + float(yielded), self, None)
        elif isinstance(yielded, SeedEvent):
            self._waiting_on = yielded
            yielded._add_waiter(self)
        elif isinstance(yielded, SeedProcess):
            ev = yielded.completion_event()
            self._waiting_on = ev
            ev._add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {yielded!r}")

    def _finish(self, result: Any) -> None:
        self._done = True
        self._result = result
        if self._completion is not None and not self._completion.triggered:
            self._completion.trigger(result)


class SeedSimulation:
    """The seed event loop: fresh entry list + payload tuple per event."""

    def __init__(self):
        self._now = 0.0
        self._heap: list[list] = []      # [time, seq, proc_or_None, payload]
        self._seq = 0
        self.events_processed = 0
        #: Set to a list before :meth:`run` to record one
        #: ``(time, seq, process_name_or_None)`` tuple per processed event.
        self.trace: Optional[list] = None

    @property
    def now(self) -> float:
        return self._now

    def clock(self) -> float:
        return self._now

    def _push(self, entry: list) -> None:
        heapq.heappush(self._heap, entry)

    def _schedule_entry(self, at: float, proc: SeedProcess,
                        payload: Any) -> list:
        entry = [at, self._seq, proc, ("resume", payload)]
        self._seq += 1
        self._push(entry)
        return entry

    def _schedule_resume(self, proc: SeedProcess, value: Any) -> None:
        self._schedule_entry(self._now, proc, value)

    def _schedule_throw(self, proc: SeedProcess, exc: BaseException) -> None:
        entry = [self._now, self._seq, proc, ("throw", exc)]
        self._seq += 1
        self._push(entry)

    def call_at(self, at: float, fn: Callable, *args: Any) -> None:
        if at < self._now:
            raise SimulationError(
                f"cannot schedule in the past ({at} < {self._now})")
        entry = [at, self._seq, None, ("call", (fn, args))]
        self._seq += 1
        self._push(entry)

    def call_in(self, delay: float, fn: Callable, *args: Any) -> None:
        self.call_at(self._now + delay, fn, *args)

    def spawn(self, gen: ProcessGen, name: str = "proc") -> SeedProcess:
        proc = SeedProcess(self, gen, name)
        entry = [self._now, self._seq, proc, ("start", None)]
        self._seq += 1
        self._push(entry)
        return proc

    def event(self) -> SeedEvent:
        return SeedEvent(self)

    def timeout(self, delay: float, value: Any = None) -> SeedEvent:
        ev = SeedEvent(self)
        self.call_in(delay, lambda: None if ev.triggered else ev.trigger(value))
        return ev

    def run(self, until: Optional[float] = None,
            max_events: int = 200_000_000) -> float:
        processed = 0
        trace = self.trace
        while self._heap:
            at = self._heap[0][0]
            if until is not None and at > until:
                self._now = until
                return self._now
            entry = heapq.heappop(self._heap)
            _, seq, proc, payload = entry
            if payload is None:        # cancelled sleep
                continue
            self._now = at
            kind, arg = payload
            self.events_processed += 1
            processed += 1
            if processed > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            if trace is not None:
                trace.append((at, seq, proc.name if proc is not None else None))
            if kind == "call":
                fn, args = arg
                fn(*args)
            elif kind == "start":
                proc._step()
            elif kind == "resume":
                if not proc._done:
                    proc._step(send_value=arg)
            elif kind == "throw":
                if not proc._done:
                    proc._step(throw_exc=arg)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown payload kind {kind!r}")
        if until is not None and until > self._now:
            self._now = until
        return self._now


class SeedStore:
    """The seed kernel's unbounded FIFO with blocking ``get``."""

    __slots__ = ("sim", "_items", "_getters", "capacity", "dropped")

    def __init__(self, sim: SeedSimulation, capacity: Optional[int] = None):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[SeedEvent] = deque()
        self.capacity = capacity
        self.dropped = 0

    def put(self, item: Any) -> bool:
        if self._getters:
            self._getters.popleft().trigger(item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(item)
        return True

    def get(self) -> SeedEvent:
        ev = SeedEvent(self.sim)
        if self._items:
            ev.trigger(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)


class SeedResource:
    """The seed kernel's counted FIFO resource."""

    __slots__ = ("sim", "capacity", "_in_use", "_waiters",
                 "busy_time", "_last_change", "waits", "acquisitions")

    def __init__(self, sim: SeedSimulation, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[SeedEvent] = deque()
        self.busy_time = 0.0
        self._last_change = sim.now
        self.waits = 0
        self.acquisitions = 0

    def _account(self) -> None:
        now = self.sim.now
        self.busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def acquire(self) -> SeedEvent:
        ev = SeedEvent(self.sim)
        self.acquisitions += 1
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            ev.trigger()
        else:
            self.waits += 1
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release without matching acquire")
        while self._waiters:
            event = self._waiters.popleft()
            if event._waiters or event._callbacks:
                event.trigger()
                return
        self._account()
        self._in_use -= 1


# --------------------------------------------------------------------- #
# The timeout-heavy microbench.
# --------------------------------------------------------------------- #

def timeout_heavy_workload(sim, n_processes: int = 64,
                           hops: int = 300) -> None:
    """Spawn the microbench fleet on ``sim`` (either kernel).

    Each process mimics one simulated request path: two ``timeout`` waits
    (network hop + service time, the Event-machinery pattern of
    ``workload.simclient``) and one plain-float sleep per hop.  Delays are
    staggered per process so the heap sees realistic interleaving, with a
    shared base so same-timestamp ties occur.
    """
    def traffic(pid: int):
        dt = 1e-4 + (pid % 7) * 1e-5
        for _ in range(hops):
            yield sim.timeout(dt)
            yield sim.timeout(dt * 2.0)
            yield dt

    for pid in range(n_processes):
        sim.spawn(traffic(pid), f"bench{pid}")


def _one_run(kernel: str, n_processes: int, hops: int) -> tuple[int, float]:
    """(events, events/sec) for a single microbench run of one kernel.

    The collector is drained before and paused during the timed section so
    generational GC pauses (which hit the allocation-heavy seed kernel and
    the pooling kernel at different, arbitrary points) don't add noise to
    the ratio.
    """
    factory = {"seed": SeedSimulation, "fast": Simulation}.get(kernel)
    if factory is None:
        raise ValueError(f"kernel must be 'seed' or 'fast', got {kernel!r}")
    sim = factory()
    timeout_heavy_workload(sim, n_processes=n_processes, hops=hops)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return sim.events_processed, sim.events_processed / elapsed


def measure_events_per_sec(kernel: str, *, n_processes: int = 64,
                           hops: int = 300, repeats: int = 3) -> "KernelPoint":
    """Best-of-``repeats`` events/second for one kernel on the microbench."""
    best = 0.0
    events = 0
    for _ in range(repeats):
        events, rate = _one_run(kernel, n_processes, hops)
        best = max(best, rate)
    return KernelPoint(kernel=kernel, events=events, events_per_sec=best)


# --------------------------------------------------------------------- #
# Report plumbing.
# --------------------------------------------------------------------- #

@dataclass(frozen=True, slots=True)
class KernelPoint:
    """One kernel's microbench measurement."""

    kernel: str            # "seed" | "fast"
    events: int
    events_per_sec: float


@dataclass(slots=True)
class SimkernelReport:
    """The BENCH_simkernel.json payload."""

    seed: KernelPoint
    fast: KernelPoint
    kernel_speedup: float
    sweep_serial_s: Optional[float] = None
    sweep_parallel_s: Optional[float] = None
    sweep_jobs: Optional[int] = None
    sweep_speedup: Optional[float] = None
    cpus: int = 1
    python: str = ""
    machine: str = ""

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["seed"] = asdict(self.seed)
        payload["fast"] = asdict(self.fast)
        return payload


def run_kernel_bench(*, n_processes: int = 64, hops: int = 300,
                     repeats: int = 5) -> SimkernelReport:
    """Measure both kernels and compute the speedup.

    Rounds are interleaved (seed, fast, seed, fast, ...) and each kernel
    keeps its best round, so scheduler or frequency jitter on a noisy
    host biases both kernels alike instead of whichever ran in the quiet
    window.
    """
    best = {"seed": 0.0, "fast": 0.0}
    events = {"seed": 0, "fast": 0}
    for _ in range(repeats):
        for kernel in ("seed", "fast"):
            n, rate = _one_run(kernel, n_processes, hops)
            events[kernel] = n
            best[kernel] = max(best[kernel], rate)
    seed = KernelPoint("seed", events["seed"], best["seed"])
    fast = KernelPoint("fast", events["fast"], best["fast"])
    return SimkernelReport(
        seed=seed, fast=fast,
        kernel_speedup=fast.events_per_sec / seed.events_per_sec,
        cpus=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1),
        python=platform.python_version(),
        machine=platform.machine(),
    )


def run_sweep_bench(report: SimkernelReport, *, jobs: int = 4,
                    points: int = 4) -> SimkernelReport:
    """Time the fixed quick-scale sweep serially and with ``jobs`` workers.

    The grid is the first ``points`` node counts of the fig8 sweep (N x
    c3.xlarge routers vs one c3.8xlarge QoS server), every point
    simulator-validated — the exact workload ``--jobs`` parallelizes in
    the figure pipeline.
    """
    from repro.experiments.driver import measure_throughput_many
    from repro.experiments.scale import QUICK
    from repro.experiments.scaling import horizontal_points

    grid = horizontal_points("router", range(1, points + 1))
    specs = [(label, topo, dict(window=QUICK.des_window,
                                warmup=QUICK.des_warmup,
                                n_rules=QUICK.throughput_rules,
                                seed=7))
             for label, topo, _ in grid]
    t0 = time.perf_counter()
    serial = measure_throughput_many(specs, jobs=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = measure_throughput_many(specs, jobs=jobs)
    parallel_s = time.perf_counter() - t0
    if [p.throughput for p in serial] != [p.throughput for p in parallel]:
        raise SimulationError(
            "parallel sweep diverged from serial on the bench grid")
    report.sweep_serial_s = serial_s
    report.sweep_parallel_s = parallel_s
    report.sweep_jobs = jobs
    report.sweep_speedup = serial_s / parallel_s
    return report


def write_report(path, report: SimkernelReport) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
